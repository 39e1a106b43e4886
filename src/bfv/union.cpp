// Set union on canonical Boolean functional vectors (§2.3).
//
// Selecting a vector from the union chooses from either operand set. A bit
// is forced in the union only when it is forced to that value in both sets,
// or when one set has been *excluded* by an earlier choice and the bit is
// forced in the other. The exclusion conditions fx/gx track, per prefix of
// choices, which operand can no longer supply the selected vector — this is
// what the naive "free choice if either allows it" rule misses (the paper's
// over-approximation example).
//
// The paper states each step through the forced conditions f1 = f|v=0 and
// f0 = ~(f|v=1) of the canonical shape f = f1 | fc & v:
//
//   h1 = f1 g1 | f1 gx | fx g1,   h0 = f0 g0 | f0 gx | fx g0,
//   h  = h1 | ~h0 & v,            fx' = fx | f0 h | f1 ~h   (gx' alike).
//
// We compute the same functions in closed form, without cofactors. fx and
// gx are disjoint (a choice never excludes both operands), so per region:
//  * fx = 1: h1 = g1 and h0 = g0, so h = g;  gx = 1: h = f;
//  * fx = gx = 0: h1 = f1 g1 and h0 = f0 g0, so h|v=0 = f1 g1 = (f & g)|v=0
//    and h|v=1 = ~(f0 g0) = (f | g)|v=1, i.e. h = ite(v, f | g, f & g), the
//    majority of v, f and g;
// hence h = ite(fx, g, ite(gx, f, maj(v, f, g))). And f0 h | f1 ~h marks
// exactly where h differs from f: where f is free, f = v and every region
// above gives h = v unless fx already holds. So fx' = fx | (h ^ f).
// That is 5–9 handle-level calls per component instead of ~24, and the
// result BDDs are the same nodes.
#include "bfv/internal.hpp"

namespace bfvr::bfv {

namespace internal {

std::vector<Bdd> unionCore(Manager& m, const std::vector<unsigned>& vars,
                           const std::vector<Bdd>& f,
                           const std::vector<Bdd>& g) {
  const std::size_t n = vars.size();
  std::vector<Bdd> h(n);
  Bdd fx = m.zero();  // F excluded by the choices made so far
  Bdd gx = m.zero();  // G excluded by the choices made so far
  for (std::size_t i = 0; i < n; ++i) {
    // Equal components give h = f = g and leave both exclusions unchanged —
    // the support optimization the paper applies during quantification.
    if (fx.isFalse() && gx.isFalse() && f[i] == g[i]) {
      h[i] = f[i];
      continue;
    }
    // An ite whose condition is 0 is skipped, as is an exclusion-or with 0.
    Bdd hi = m.ite(m.var(vars[i]), f[i] | g[i], f[i] & g[i]);
    if (!gx.isFalse()) hi = m.ite(gx, f[i], hi);
    if (!fx.isFalse()) hi = m.ite(fx, g[i], hi);
    const Bdd df = hi ^ f[i];
    const Bdd dg = hi ^ g[i];
    fx = fx.isFalse() ? df : fx | df;
    gx = gx.isFalse() ? dg : gx | dg;
    h[i] = std::move(hi);
  }
  return h;
}

}  // namespace internal

Bfv setUnion(const Bfv& a, const Bfv& b) {
  a.requireCompatible(b);
  if (a.isEmpty()) return b;
  if (b.isEmpty()) return a;
  Manager& m = *a.manager();
  std::vector<Bdd> h = internal::unionCore(m, a.vars_, a.comps_, b.comps_);
  return Bfv(&m, a.vars_, std::move(h), /*empty=*/false);
}

}  // namespace bfvr::bfv
