#include "support/brute.hpp"

#include <stdexcept>

namespace bfvr::test {

Bdd bddFromTruth(Manager& m, const std::vector<unsigned>& vars,
                 std::uint64_t tt) {
  const unsigned k = static_cast<unsigned>(vars.size());
  if (k > 6) throw std::invalid_argument("bddFromTruth: too many variables");
  Bdd f = m.zero();
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << k); ++a) {
    if (((tt >> a) & 1U) == 0) continue;
    Bdd term = m.one();
    for (unsigned j = 0; j < k; ++j) {
      term &= ((a >> j) & 1U) != 0 ? m.var(vars[j]) : ~m.var(vars[j]);
    }
    f |= term;
  }
  return f;
}

std::uint64_t truthOf(Manager& m, const Bdd& f,
                      const std::vector<unsigned>& vars) {
  const unsigned k = static_cast<unsigned>(vars.size());
  if (k > 6) throw std::invalid_argument("truthOf: too many variables");
  std::uint64_t tt = 0;
  std::vector<bool> assignment(m.numVars(), false);
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << k); ++a) {
    for (unsigned j = 0; j < k; ++j) {
      assignment[vars[j]] = ((a >> j) & 1U) != 0;
    }
    if (m.eval(f, assignment)) tt |= std::uint64_t{1} << a;
  }
  return tt;
}

std::uint64_t randomTruth(Rng& rng, unsigned k) {
  const unsigned bits = 1U << k;
  std::uint64_t tt = rng.next();
  if (bits < 64) tt &= (std::uint64_t{1} << bits) - 1;
  return tt;
}

Bfv bfvOf(Manager& m, const std::vector<unsigned>& vars, const Set& s) {
  const std::vector<std::uint64_t> members(s.begin(), s.end());
  return Bfv::fromMembers(m, vars, members);
}

Set setOf(const Bfv& f) {
  Set s;
  for (const std::vector<bool>& bits : f.enumerate(std::size_t{1} << 22)) {
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) x |= std::uint64_t{1} << i;
    }
    s.insert(x);
  }
  return s;
}

Set randomSet(Rng& rng, unsigned n, std::uint64_t num, std::uint64_t den) {
  Set s;
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
    if (rng.chance(num, den)) s.insert(x);
  }
  return s;
}

std::uint64_t nearestMember(const Set& s, std::uint64_t v, unsigned n) {
  if (s.empty()) throw std::invalid_argument("nearestMember: empty set");
  auto dist = [n](std::uint64_t a, std::uint64_t b) {
    std::uint64_t d = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (((a >> i) & 1U) != ((b >> i) & 1U)) {
        d += std::uint64_t{1} << (n - 1 - i);
      }
    }
    return d;
  };
  std::uint64_t best = *s.begin();
  std::uint64_t bd = dist(v, best);
  for (std::uint64_t x : s) {
    const std::uint64_t d = dist(v, x);
    if (d < bd) {
      bd = d;
      best = x;
    }
  }
  return best;
}

std::vector<Bdd> paperUnion(Manager& m, const std::vector<unsigned>& vars,
                            const std::vector<Bdd>& f,
                            const std::vector<Bdd>& g) {
  const std::size_t n = vars.size();
  std::vector<Bdd> h(n);
  Bdd fx = m.zero();
  Bdd gx = m.zero();
  for (std::size_t i = 0; i < n; ++i) {
    if (fx.isFalse() && gx.isFalse() && f[i] == g[i]) {
      h[i] = f[i];
      continue;
    }
    const Bdd v = m.var(vars[i]);
    const Bdd f1 = m.cofactor(f[i], vars[i], false);
    const Bdd f0 = ~m.cofactor(f[i], vars[i], true);
    const Bdd g1 = m.cofactor(g[i], vars[i], false);
    const Bdd g0 = ~m.cofactor(g[i], vars[i], true);
    const Bdd h1 = (f1 & g1) | (f1 & gx) | (fx & g1);
    const Bdd h0 = (f0 & g0) | (f0 & gx) | (fx & g0);
    h[i] = h1 | (~h0 & v);
    fx = fx | (f0 & h[i]) | (f1 & ~h[i]);
    gx = gx | (g0 & h[i]) | (g1 & ~h[i]);
  }
  return h;
}

Set setUnionOf(const Set& a, const Set& b) {
  Set r = a;
  r.insert(b.begin(), b.end());
  return r;
}

Set setIntersectOf(const Set& a, const Set& b) {
  Set r;
  for (std::uint64_t x : a) {
    if (b.contains(x)) r.insert(x);
  }
  return r;
}

}  // namespace bfvr::test
