// Set union on canonical Boolean functional vectors (§2.3).
//
// Selecting a vector from the union chooses from either operand set. A bit
// is forced in the union only when it is forced to that value in both sets,
// or when one set has been *excluded* by an earlier choice and the bit is
// forced in the other. The exclusion conditions fx/gx track, per prefix of
// choices, which operand can no longer supply the selected vector — this is
// what the naive "free choice if either allows it" rule misses (the paper's
// over-approximation example).
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
    // While neither operand is excludable and the components agree, the
    // result component is that same function and the exclusions stay 0 —
    // the support optimization the paper applies during quantification.
    if (fx.isFalse() && gx.isFalse() && f[i] == g[i]) {
      h[i] = f[i];
      continue;
    }
    const Bdd v = m.var(vars[i]);
    // f_i = f1 | fc & v_i  =>  f_i|v=0 = f1,  ~(f_i|v=1) = f0.
    const Bdd f_lo = m.cofactor(f[i], vars[i], false);
    const Bdd f_hi = m.cofactor(f[i], vars[i], true);
    const Bdd g_lo = m.cofactor(g[i], vars[i], false);
    const Bdd g_hi = m.cofactor(g[i], vars[i], true);
    const Bdd f1 = f_lo;
    const Bdd f0 = ~f_hi;
    const Bdd g1 = g_lo;
    const Bdd g0 = ~g_hi;
    // Forced in the union: forced in both, or forced in the sole remaining
    // operand.
    const Bdd h1 = (f1 & g1) | (f1 & gx) | (fx & g1);
    const Bdd h0 = (f0 & g0) | (f0 & gx) | (fx & g0);
    // h = h1 | hc & v with hc = ~h1 & ~h0; h1 and h0 are disjoint, so this
    // simplifies to h1 | (~h0 & v).
    h[i] = h1 | (~h0 & v);
    // A choice against an operand's forced value excludes that operand for
    // the rest of the selection.
    fx = fx | (f0 & h[i]) | (f1 & ~h[i]);
    gx = gx | (g0 & h[i]) | (g1 & ~h[i]);
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
