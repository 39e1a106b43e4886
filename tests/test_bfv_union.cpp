// §2.3 set union, validated exhaustively for widths 2..3 and by randomized
// sweeps for widths 3..10, against explicit sets and against the union
// formula as the paper prints it (test::paperUnion).
#include <gtest/gtest.h>

#include "bfv/internal.hpp"
#include "support/brute.hpp"

namespace bfvr::bfv {
namespace {

using test::Set;

TEST(BfvUnion, ExhaustiveWidth2) {
  const std::vector<unsigned> vars{0, 1};
  for (unsigned am = 0; am < 16; ++am) {
    for (unsigned bm = 0; bm < 16; ++bm) {
      Manager m(2);
      Set a;
      Set b;
      for (unsigned x = 0; x < 4; ++x) {
        if (((am >> x) & 1U) != 0) a.insert(x);
        if (((bm >> x) & 1U) != 0) b.insert(x);
      }
      const Bfv fa = test::bfvOf(m, vars, a);
      const Bfv fb = test::bfvOf(m, vars, b);
      const Bfv fu = setUnion(fa, fb);
      ASSERT_EQ(test::setOf(fu), test::setUnionOf(a, b))
          << "a=" << am << " b=" << bm;
      ASSERT_TRUE(fu.checkCanonical());
      // Canonical: result equals direct construction.
      ASSERT_EQ(fu, test::bfvOf(m, vars, test::setUnionOf(a, b)));
    }
  }
}

class UnionSweep : public ::testing::TestWithParam<std::tuple<unsigned, int>> {
};

TEST_P(UnionSweep, MatchesBruteForce) {
  const unsigned n = std::get<0>(GetParam());
  Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())) * 1009 + n);
  std::vector<unsigned> vars(n);
  for (unsigned i = 0; i < n; ++i) vars[i] = i;
  Manager m(n);
  const Set a = test::randomSet(rng, n, 1, 3);
  const Set b = test::randomSet(rng, n, 1, 3);
  const Bfv fa = test::bfvOf(m, vars, a);
  const Bfv fb = test::bfvOf(m, vars, b);
  const Bfv fu = setUnion(fa, fb);
  std::string why;
  EXPECT_TRUE(fu.checkCanonical(&why)) << why;
  EXPECT_EQ(test::setOf(fu), test::setUnionOf(a, b));
  // Commutativity in the canonical representation.
  EXPECT_EQ(fu, setUnion(fb, fa));
}

INSTANTIATE_TEST_SUITE_P(Sizes, UnionSweep,
                         ::testing::Combine(::testing::Values(3U, 4U, 5U),
                                            ::testing::Range(0, 12)));

TEST(BfvUnion, NaiveFreeChoiceWouldOverApproximate) {
  // The paper's §2.3 cautionary example: union of {0,1}-structured sets
  // where bitwise free-choice merging would include phantom members.
  // A = {010, 011} (second bit 1, third free), B = {000, 101}.
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  // Masks encode bit i = component i: {2,6} = {010, 011}, {0,5} = {000,101}.
  const Bfv fa = test::bfvOf(m, vars, Set{2, 6});
  const Bfv fb = test::bfvOf(m, vars, Set{0, 5});
  const Bfv fu = setUnion(fa, fb);
  const Set want{2, 6, 0, 5};
  EXPECT_EQ(test::setOf(fu), want);
  // The naive result would also contain 100 (mask 1) and others.
  EXPECT_FALSE(fu.contains({true, false, false}));
}

TEST(BfvUnion, EmptyIsIdentity) {
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  const Bfv e = Bfv::emptySet(m, vars);
  const Bfv s = test::bfvOf(m, vars, Set{1, 4});
  EXPECT_EQ(setUnion(e, s), s);
  EXPECT_EQ(setUnion(s, e), s);
  EXPECT_TRUE(setUnion(e, e).isEmpty());
}

TEST(BfvUnion, IdempotentAndAssociative) {
  Manager m(4);
  const std::vector<unsigned> vars{0, 1, 2, 3};
  Rng rng(5);
  const Set a = test::randomSet(rng, 4, 1, 2);
  const Set b = test::randomSet(rng, 4, 1, 2);
  const Set c = test::randomSet(rng, 4, 1, 2);
  const Bfv fa = test::bfvOf(m, vars, a);
  const Bfv fb = test::bfvOf(m, vars, b);
  const Bfv fc = test::bfvOf(m, vars, c);
  EXPECT_EQ(setUnion(fa, fa), fa);
  EXPECT_EQ(setUnion(setUnion(fa, fb), fc), setUnion(fa, setUnion(fb, fc)));
}

TEST(BfvUnion, UnionWithUniverseIsUniverse) {
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  const Bfv u = Bfv::universe(m, vars);
  const Bfv s = test::bfvOf(m, vars, Set{3});
  EXPECT_EQ(setUnion(u, s), u);
}

TEST(BfvUnion, DisjointSingletonsAccumulate) {
  Manager m(4);
  const std::vector<unsigned> vars{0, 1, 2, 3};
  Bfv acc = Bfv::emptySet(m, vars);
  Set expect;
  for (std::uint64_t x : {9U, 3U, 12U, 0U, 15U}) {
    std::vector<bool> bits(4);
    for (unsigned i = 0; i < 4; ++i) bits[i] = ((x >> i) & 1U) != 0;
    acc = setUnion(acc, Bfv::point(m, vars, bits));
    expect.insert(x);
    EXPECT_EQ(test::setOf(acc), expect);
    EXPECT_DOUBLE_EQ(acc.countStates(), static_cast<double>(expect.size()));
  }
}


// ---------------------------------------------------------------------------
// The closed-form union core against the paper's printed formula.
//
// Operands are built with bfv::fromChar (projection + substitution, no union
// involved), so neither side of the comparison builds its own inputs.

/// Characteristic function of an explicit set (bit i of a member is the
/// value of vars[i]).
Bdd chiOf(Manager& m, const std::vector<unsigned>& vars, const Set& s) {
  Bdd chi = m.zero();
  for (const std::uint64_t x : s) {
    Bdd minterm = m.one();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      minterm &= ((x >> i) & 1U) != 0 ? m.var(vars[i]) : ~m.var(vars[i]);
    }
    chi |= minterm;
  }
  return chi;
}

std::vector<unsigned> choiceVars(unsigned n, bool spread) {
  std::vector<unsigned> vars(n);
  for (unsigned i = 0; i < n; ++i) vars[i] = spread ? 3 * i + 1 : i;
  return vars;
}

/// Empty string when the closed form and the printed formula agree edge for
/// edge on (fa, fb), else which component differs.
std::string diffAgainstPaper(Manager& m, const std::vector<unsigned>& vars,
                             const Bfv& fa, const Bfv& fb) {
  const std::vector<Bdd> got =
      internal::unionCore(m, vars, fa.comps(), fb.comps());
  const std::vector<Bdd> want =
      test::paperUnion(m, vars, fa.comps(), fb.comps());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (got[i] != want[i]) return "component " + std::to_string(i);
  }
  return {};
}

class UnionExhaustive
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(UnionExhaustive, EveryPairMatchesPaperFormula) {
  // Every pair of non-empty sets; this includes every way the first
  // component can exclude one operand for all later choices (disjoint
  // first bits) and every later partial exclusion.
  const unsigned n = std::get<0>(GetParam());
  const std::vector<unsigned> vars = choiceVars(n, std::get<1>(GetParam()));
  const unsigned num_sets = 1U << (1U << n);
  Manager m(vars.back() + 1);
  std::vector<Bfv> canon(num_sets);
  for (unsigned mask = 1; mask < num_sets; ++mask) {
    Set s;
    for (unsigned x = 0; x < (1U << n); ++x) {
      if (((mask >> x) & 1U) != 0) s.insert(x);
    }
    canon[mask] = bfv::fromChar(m, chiOf(m, vars, s), vars);
  }
  for (unsigned a = 1; a < num_sets; ++a) {
    for (unsigned b = 1; b < num_sets; ++b) {
      ASSERT_EQ(diffAgainstPaper(m, vars, canon[a], canon[b]), "")
          << "a=" << a << " b=" << b;
      // Canonicity: the union is the one vector of the set a | b.
      ASSERT_EQ(setUnion(canon[a], canon[b]), canon[a | b])
          << "a=" << a << " b=" << b;
    }
    m.maybeGc();
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, UnionExhaustive,
                         ::testing::Combine(::testing::Values(2U, 3U),
                                            ::testing::Bool()));

class UnionOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(UnionOracle, RandomPairsMatchPaperFormula) {
  const unsigned n = std::get<0>(GetParam());
  const bool spread = std::get<1>(GetParam());
  const std::vector<unsigned> vars = choiceVars(n, spread);
  Rng rng(n * 131 + (spread ? 7 : 0));
  Manager m(vars.back() + 1);
  for (int pair = 0; pair < 8; ++pair) {
    Set a = test::randomSet(rng, n, 1, 3);
    Set b = test::randomSet(rng, n, 1, 3);
    // The last pairs split on bit 0 (A's members have it 0, B's 1): the
    // first component excludes one operand for every choice, so fx | gx
    // is 1 from component 1 on.
    const bool split = pair >= 6;
    if (split) {
      std::erase_if(a, [](std::uint64_t x) { return (x & 1U) != 0; });
      std::erase_if(b, [](std::uint64_t x) { return (x & 1U) == 0; });
    }
    if (a.empty()) a.insert(0);
    if (b.empty()) b.insert(split ? 1 : 0);
    const Bfv fa = bfv::fromChar(m, chiOf(m, vars, a), vars);
    const Bfv fb = bfv::fromChar(m, chiOf(m, vars, b), vars);
    ASSERT_EQ(diffAgainstPaper(m, vars, fa, fb), "") << "pair " << pair;
    const Set u = test::setUnionOf(a, b);
    const Bfv fu = setUnion(fa, fb);
    EXPECT_EQ(fu, bfv::fromChar(m, chiOf(m, vars, u), vars))
        << "pair " << pair;
    EXPECT_EQ(test::setOf(fu), u) << "pair " << pair;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, UnionOracle,
                         ::testing::Combine(::testing::Range(4U, 11U),
                                            ::testing::Bool()));

}  // namespace
}  // namespace bfvr::bfv
