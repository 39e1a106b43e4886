// Brute-force reference models shared by the test suite: truth tables for
// BDD operations and explicit member sets for the BFV algebra.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "bfv/bfv.hpp"
#include "util/rng.hpp"

namespace bfvr::test {

using bdd::Bdd;
using bdd::Manager;
using bfv::Bfv;

/// A member set over n-bit vectors; bit i of a member corresponds to
/// component i (component 0 carries the highest weight in the paper's
/// distance metric).
using Set = std::set<std::uint64_t>;

/// Build the BDD of a truth table over variables vars[0..k-1]; bit a of
/// `tt` gives the value on the assignment where vars[j] = bit j of a.
Bdd bddFromTruth(Manager& m, const std::vector<unsigned>& vars,
                 std::uint64_t tt);

/// Truth table of f over the given variables (all other variables 0).
std::uint64_t truthOf(Manager& m, const Bdd& f,
                      const std::vector<unsigned>& vars);

/// Random k-variable truth table.
std::uint64_t randomTruth(Rng& rng, unsigned k);

/// Build the canonical BFV of an explicit set via repeated point-union.
Bfv bfvOf(Manager& m, const std::vector<unsigned>& vars, const Set& s);

/// Enumerate the members of a (non-null) Bfv as bit masks.
Set setOf(const Bfv& f);

/// Random subset of {0 .. 2^n - 1}, each element kept with probability
/// num/den.
Set randomSet(Rng& rng, unsigned n, std::uint64_t num, std::uint64_t den);

/// The member of `s` nearest to `v` under the paper's weighted metric
/// d(X,Y) = sum_i 2^(n-1-i) [x_i != y_i]. Requires non-empty s.
std::uint64_t nearestMember(const Set& s, std::uint64_t v, unsigned n);

/// The §2.3 union sweep exactly as the paper prints it: forced conditions
/// f1 = f|v=0 and f0 = ~(f|v=1) from cofactors, h1/h0, h = h1 | ~h0 & v,
/// then fx |= f0 h | f1 ~h (gx alike). Kept apart from the production
/// bfv::internal::unionCore as its oracle; same operand contract.
std::vector<Bdd> paperUnion(Manager& m, const std::vector<unsigned>& vars,
                            const std::vector<Bdd>& f,
                            const std::vector<Bdd>& g);

Set setUnionOf(const Set& a, const Set& b);
Set setIntersectOf(const Set& a, const Set& b);

}  // namespace bfvr::test
