// Structural queries: support, node counting, minterm counting, evaluation
// and cube extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "support/brute.hpp"

namespace bfvr::bdd {
namespace {

using test::bddFromTruth;
using test::randomTruth;

const std::vector<unsigned> kVars{0, 1, 2, 3};

class CountSweep : public ::testing::TestWithParam<int> {};

TEST_P(CountSweep, SatCountMatchesPopcount) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 211 + 9);
  Manager m(4);
  const std::uint64_t tt = randomTruth(rng, 4);
  const Bdd f = bddFromTruth(m, kVars, tt);
  EXPECT_DOUBLE_EQ(m.satCount(f, 4), static_cast<double>(std::popcount(tt)));
  // Complement counts the complement.
  EXPECT_DOUBLE_EQ(m.satCount(~f, 4), 16.0 - std::popcount(tt));
  // Over a wider space every extra variable doubles the count.
  EXPECT_DOUBLE_EQ(m.satCount(f, 6), 4.0 * std::popcount(tt));
}

TEST_P(CountSweep, PickCubeSatisfies) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 61 + 17);
  Manager m(4);
  std::uint64_t tt = randomTruth(rng, 4);
  if (tt == 0) tt = 1;
  const Bdd f = bddFromTruth(m, kVars, tt);
  const auto cube = m.pickCube(f);
  std::vector<bool> assignment(m.numVars(), false);
  for (std::size_t i = 0; i < cube.size(); ++i) {
    assignment[i] = cube[i] == 1;
  }
  EXPECT_TRUE(m.eval(f, assignment));
}

TEST_P(CountSweep, EvalMatchesTruthTable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 5 + 23);
  Manager m(4);
  const std::uint64_t tt = randomTruth(rng, 4);
  const Bdd f = bddFromTruth(m, kVars, tt);
  for (unsigned a = 0; a < 16; ++a) {
    std::vector<bool> x(4);
    for (unsigned j = 0; j < 4; ++j) x[j] = ((a >> j) & 1U) != 0;
    EXPECT_EQ(m.eval(f, x), ((tt >> a) & 1U) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountSweep, ::testing::Range(0, 30));

TEST(BddCount, SupportExactness) {
  Manager m(8);
  const Bdd f = (m.var(1) & m.var(3)) | (m.var(5) ^ m.var(3));
  EXPECT_EQ(m.support(f), (std::vector<unsigned>{1, 3, 5}));
  EXPECT_EQ(m.supportCube(f), m.var(1) & m.var(3) & m.var(5));
  EXPECT_TRUE(m.support(m.one()).empty());
  EXPECT_TRUE(m.support(m.zero()).empty());
}

TEST(BddCount, SupportDropsCancelledVariables) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) | (~m.var(0) & m.var(1));
  EXPECT_EQ(m.support(f), std::vector<unsigned>{1});
}

TEST(BddCount, NodeCountIncludesTerminal) {
  Manager m(4);
  EXPECT_EQ(m.nodeCount(m.one()), 1U);
  EXPECT_EQ(m.nodeCount(m.zero()), 1U);
  EXPECT_EQ(m.nodeCount(m.var(0)), 2U);
  EXPECT_EQ(m.nodeCount(m.var(0) & m.var(1)), 3U);
  // XOR over k variables has 2k-1 internal nodes with complement edges...
  // at least it is strictly larger than the AND chain.
  const Bdd x = m.var(0) ^ m.var(1) ^ m.var(2);
  EXPECT_GE(m.nodeCount(x), 4U);
}

/// Support by definition: v is in the support of f iff f's two cofactors
/// with respect to v differ.
std::vector<unsigned> supportByCofactors(Manager& m, const Bdd& f) {
  std::vector<unsigned> vars;
  for (unsigned v = 0; v < m.numVars(); ++v) {
    if (m.cofactor(f, v, false) != m.cofactor(f, v, true)) vars.push_back(v);
  }
  return vars;
}

/// One supportBits() walk, decoded back to a sorted variable list.
std::vector<unsigned> bitsToVars(const std::vector<std::uint64_t>& words) {
  std::vector<unsigned> vars;
  for (unsigned v = 0; v < words.size() * 64; ++v) {
    if (((words[v / 64] >> (v % 64)) & 1U) != 0) vars.push_back(v);
  }
  return vars;
}

void expectWalkMatches(Manager& m, const Bdd& f, const char* where) {
  std::vector<std::uint64_t> words((m.numVars() + 63) / 64, 0);
  const std::size_t count = m.supportBits(f, words);
  const std::vector<unsigned> want = supportByCofactors(m, f);
  EXPECT_EQ(bitsToVars(words), want) << where;
  EXPECT_EQ(m.support(f), want) << where;
  EXPECT_EQ(count, m.nodeCount(f)) << where;
}

TEST(BddCount, SupportBitsWalkMatchesSupportAndNodeCount) {
  // 130 variables, so supports span three 64-bit words.
  constexpr unsigned kNumVars = 130;
  Manager m(kNumVars);
  Rng rng(77);
  expectWalkMatches(m, m.one(), "one");
  expectWalkMatches(m, m.zero(), "zero");
  auto randomFn = [&] {
    std::vector<unsigned> vars;
    for (int j = 0; j < 5; ++j) {
      vars.push_back(static_cast<unsigned>(rng.below(kNumVars)));
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    return bddFromTruth(m, vars,
                        randomTruth(rng, static_cast<unsigned>(vars.size())));
  };
  std::vector<Bdd> pool;
  for (int k = 0; k < 40; ++k) {
    const Bdd f = randomFn();
    const Bdd g = randomFn();
    pool.push_back(rng.flip() ? (f ^ g) : (f & ~g));
    expectWalkMatches(m, pool.back(), "random");
  }
  m.reorder(ReorderMethod::kSift);
  for (const Bdd& f : pool) expectWalkMatches(m, f, "after sift");
}

TEST(BddCount, SupportBitsKeepsSetBitsAndChecksWidth) {
  Manager m(70);
  std::vector<std::uint64_t> words(2, 0);
  words[0] = 1;  // variable 0, not in f's support
  const std::size_t count = m.supportBits(m.var(69) & m.var(3), words);
  EXPECT_EQ(count, 3U);
  EXPECT_EQ(bitsToVars(words), (std::vector<unsigned>{0, 3, 69}));
  std::vector<std::uint64_t> short_words(1, 0);
  EXPECT_THROW((void)m.supportBits(m.var(3), short_words),
               std::invalid_argument);
}

TEST(BddCount, SharedNodeCountSharesSubgraphs) {
  Manager m(6);
  const Bdd common = m.var(2) & m.var(3);
  const Bdd f = m.var(0) | common;
  const Bdd g = m.var(1) | common;
  const Bdd fs[] = {f, g};
  const std::size_t shared = m.sharedNodeCount(fs);
  EXPECT_LT(shared, m.nodeCount(f) + m.nodeCount(g));
  EXPECT_GE(shared, m.nodeCount(f));
}

TEST(BddCount, SharedNodeCountOfDisjointFunctionsAdds) {
  Manager m(4);
  const Bdd f = m.var(0);
  const Bdd g = m.var(1);
  const Bdd fs[] = {f, g};
  // 2 var nodes + 1 shared terminal.
  EXPECT_EQ(m.sharedNodeCount(fs), 3U);
}

TEST(BddCount, SatCountOfConstants) {
  Manager m(4);
  EXPECT_DOUBLE_EQ(m.satCount(m.one(), 4), 16.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.zero(), 4), 0.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.one(), 0), 1.0);
}

TEST(BddCount, PickCubeOfZeroThrows) {
  Manager m(2);
  EXPECT_THROW((void)m.pickCube(m.zero()), std::invalid_argument);
}

TEST(BddCount, PickCubeLeavesDontCares) {
  Manager m(4);
  const auto cube = m.pickCube(m.var(1));
  EXPECT_EQ(cube[1], 1);
  EXPECT_EQ(cube[0], -1);
  EXPECT_EQ(cube[2], -1);
}

TEST(BddCount, DotOutputMentionsLabels) {
  Manager m(4);
  const Bdd f = m.var(0) & ~m.var(1);
  const Bdd fs[] = {f};
  const std::string labels[] = {"myfunc"};
  const std::string dot = m.toDot(fs, labels);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("myfunc"), std::string::npos);
  EXPECT_NE(dot.find("v1"), std::string::npos);
}

}  // namespace
}  // namespace bfvr::bdd
