// The three reachability engines against the explicit-state oracle, across
// circuits, variable orders and engine options.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/concrete_sim.hpp"
#include "circuit/generators.hpp"
#include "reach/engine.hpp"
#include "reach/internal.hpp"
#include "support/brute.hpp"

namespace bfvr::reach {
namespace {

using circuit::Netlist;
using circuit::OrderKind;
using circuit::OrderSpec;

enum class Engine { kTr, kCbm, kBfv, kCdec };

const char* name(Engine e) {
  switch (e) {
    case Engine::kTr:
      return "tr";
    case Engine::kCbm:
      return "cbm";
    case Engine::kBfv:
      return "bfv";
    case Engine::kCdec:
      return "cdec";
  }
  return "?";
}

ReachResult run(Engine e, sym::StateSpace& s, ReachOptions opts = {}) {
  opts.max_iterations = 2000;
  switch (e) {
    case Engine::kTr:
      return reachTr(s, opts);
    case Engine::kCbm:
      return reachCbm(s, opts);
    case Engine::kBfv:
      opts.backend = SetBackend::kBfv;
      return reachBfv(s, opts);
    case Engine::kCdec:
      opts.backend = SetBackend::kCdec;
      return reachBfv(s, opts);
  }
  throw std::logic_error("bad engine");
}

Netlist circuitByIndex(int idx) {
  switch (idx) {
    case 0:
      return circuit::makeCounter(4, 11);
    case 1:
      return circuit::makeJohnson(5);
    case 2:
      return circuit::makeLfsr(5);
    case 3:
      return circuit::makeTwinShift(4);
    case 4:
      return circuit::makeArbiter(4);
    case 5:
      return circuit::makeFifoCtrl(2);
    default:
      return circuit::makeRandomSeq(6, 3, 30, static_cast<std::uint64_t>(idx));
  }
}

class ReachMatrix
    : public ::testing::TestWithParam<std::tuple<int, OrderKind, Engine>> {};

TEST_P(ReachMatrix, CountsMatchExplicitOracle) {
  const auto [cidx, kind, engine] = GetParam();
  const Netlist n = circuitByIndex(cidx);
  const auto oracle = circuit::explicitReach(n);
  ASSERT_TRUE(oracle.has_value());

  bdd::Manager m(0);
  sym::StateSpace space(m, n, circuit::makeOrder(n, {kind, 1}));
  const ReachResult r = run(engine, space);
  ASSERT_EQ(r.status, RunStatus::kDone) << n.name() << " " << name(engine);
  EXPECT_DOUBLE_EQ(r.states, static_cast<double>(oracle->size()))
      << n.name() << " " << name(engine);
  // The reached characteristic function must contain exactly the oracle
  // states.
  ASSERT_FALSE(r.reached_chi.isNull());
  std::vector<bool> assignment(m.numVars(), false);
  const std::size_t nl = n.latches().size();
  for (std::uint64_t st = 0; st < (std::uint64_t{1} << nl); ++st) {
    for (std::size_t p = 0; p < nl; ++p) {
      assignment[space.currentVar(p)] = ((st >> p) & 1U) != 0;
    }
    const bool in_oracle =
        std::binary_search(oracle->begin(), oracle->end(), st);
    EXPECT_EQ(m.eval(r.reached_chi, assignment), in_oracle)
        << n.name() << " state " << st;
  }
  // Reached BFV is canonical and consistent with chi.
  ASSERT_TRUE(r.reached_bfv.has_value());
  std::string why;
  EXPECT_TRUE(r.reached_bfv->checkCanonical(&why)) << why;
  EXPECT_EQ(r.reached_bfv->toChar(), r.reached_chi);
  EXPECT_GT(r.iterations, 0U);
  EXPECT_GT(r.peak_live_nodes, 0U);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReachMatrix,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(OrderKind::kNatural, OrderKind::kTopo,
                                         OrderKind::kReverse,
                                         OrderKind::kRandom),
                       ::testing::Values(Engine::kTr, Engine::kCbm,
                                         Engine::kBfv, Engine::kCdec)));

TEST(Reach, FrontierHeuristicDoesNotChangeTheResult) {
  const Netlist n = circuit::makeFifoCtrl(2);
  for (const Engine e :
       {Engine::kTr, Engine::kCbm, Engine::kBfv, Engine::kCdec}) {
    bdd::Manager m1(0);
    sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
    ReachOptions with;
    with.use_frontier = true;
    const ReachResult a = run(e, s1, with);

    bdd::Manager m2(0);
    sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
    ReachOptions without;
    without.use_frontier = false;
    const ReachResult b = run(e, s2, without);

    EXPECT_EQ(a.status, RunStatus::kDone);
    EXPECT_EQ(b.status, RunStatus::kDone);
    EXPECT_DOUBLE_EQ(a.states, b.states) << name(e);
    EXPECT_EQ(a.iterations, b.iterations) << name(e);
    EXPECT_EQ(a.chi_nodes, b.chi_nodes) << name(e);
  }
}

TEST(Reach, QuantScheduleDoesNotChangeTheResult) {
  const Netlist n = circuit::makeLfsr(6);
  ReachOptions a;
  a.reparam.schedule = bfv::QuantSchedule::kStaticOrder;
  ReachOptions b;
  b.reparam.schedule = bfv::QuantSchedule::kSupportCost;
  bdd::Manager m1(0);
  sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  bdd::Manager m2(0);
  sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const ReachResult ra = run(Engine::kBfv, s1, a);
  const ReachResult rb = run(Engine::kBfv, s2, b);
  EXPECT_DOUBLE_EQ(ra.states, rb.states);
  EXPECT_EQ(ra.bfv_nodes, rb.bfv_nodes);
}

TEST(Reach, NodeBudgetReportsMemOut) {
  const Netlist n = circuit::makeLfsr(10);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  ReachOptions opts;
  opts.budget.max_live_nodes = 40;  // absurdly small
  const ReachResult r = reachTr(s, opts);
  EXPECT_EQ(r.status, RunStatus::kMemOut);
}

// A node budget of exactly the unbudgeted peak P must finish with peak P,
// and P - 1 must run out.
class ReachNodeBudget
    : public ::testing::TestWithParam<std::tuple<int, Engine>> {};

TEST_P(ReachNodeBudget, TripsExactlyAtThePeak) {
  const auto [cidx, engine] = GetParam();
  const Netlist n = cidx == 0 ? circuit::parseBenchFile(
                                    std::string(BFVR_DATA_DIR) + "/fifo3.bench")
                              : circuit::makeLfsr(10);
  const auto runWith = [&](std::size_t max_live_nodes) {
    bdd::Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
    ReachOptions opts;
    opts.budget.max_live_nodes = max_live_nodes;
    return run(engine, s, opts);
  };
  const ReachResult free_run = runWith(0);
  ASSERT_EQ(free_run.status, RunStatus::kDone) << name(engine);
  const std::size_t peak = free_run.peak_live_nodes;
  ASSERT_GT(peak, 1U);

  const ReachResult at_peak = runWith(peak);
  EXPECT_EQ(at_peak.status, RunStatus::kDone) << name(engine);
  EXPECT_EQ(at_peak.peak_live_nodes, peak) << name(engine);
  EXPECT_DOUBLE_EQ(at_peak.states, free_run.states) << name(engine);

  const ReachResult below = runWith(peak - 1);
  EXPECT_EQ(below.status, RunStatus::kMemOut) << name(engine);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ReachNodeBudget,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(Engine::kTr, Engine::kCbm,
                                         Engine::kBfv, Engine::kCdec)));

// RunGuard::sample() skips its mark pass when the in-use count cannot move
// the peak or trip the node budget. Against the exact live count taken at
// every sample, over random builds, drops and collections (collections keep
// in-use close to live, so the skip fires), the peak and the step at which
// a node budget trips must both match.
TEST(RunGuard, SkippedSamplesMoveNeitherPeakNorBudget) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // The seed's walk: one sample after each step, appending the exact live
    // count to `lives`. A throwing sample ends it before the append.
    const auto walk = [seed](internal::RunGuard& guard, Manager& m,
                             std::vector<std::size_t>& lives) {
      Rng rng(seed);
      std::vector<Bdd> pool;
      for (int step = 0; step < 200; ++step) {
        if (!pool.empty() && rng.chance(1, 3)) {
          pool.erase(pool.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(pool.size())));
        } else {
          std::vector<unsigned> vars{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
          rng.shuffle(vars);
          vars.resize(6);
          pool.push_back(
              test::bddFromTruth(m, vars, test::randomTruth(rng, 6)));
        }
        if (rng.chance(1, 3)) m.gc();
        guard.sample();
        lives.push_back(m.liveNodeCount());
      }
    };
    std::vector<std::size_t> lives;
    Manager free_m(10);
    internal::RunGuard free_guard(free_m, Budget{});
    walk(free_guard, free_m, lives);
    const std::size_t peak = *std::max_element(lives.begin(), lives.end());
    EXPECT_EQ(free_guard.peak(), peak) << "seed " << seed;
    for (const std::size_t cap : {peak, peak - 1, peak / 2}) {
      const auto first_over =
          std::find_if(lives.begin(), lives.end(),
                       [cap](std::size_t live) { return live > cap; });
      Manager m(10);
      Budget budget;
      budget.max_live_nodes = cap;
      internal::RunGuard guard(m, budget);
      std::vector<std::size_t> capped;
      bool tripped = false;
      try {
        walk(guard, m, capped);
      } catch (const bdd::NodeBudgetExceeded&) {
        tripped = true;
      }
      EXPECT_EQ(tripped, first_over != lives.end())
          << "seed " << seed << " cap " << cap;
      EXPECT_EQ(capped.size(),
                static_cast<std::size_t>(first_over - lives.begin()))
          << "seed " << seed << " cap " << cap;
    }
  }
}

TEST(Reach, TimeBudgetReportsTimeOut) {
  const Netlist n = circuit::makeLfsr(12);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  ReachOptions opts;
  opts.budget.max_seconds = 1e-9;
  const ReachResult r = reachBfv(s, opts);
  EXPECT_EQ(r.status, RunStatus::kTimeOut);
}

TEST(Reach, MaxIterationsStopsEarly) {
  const Netlist n = circuit::makeCounter(6, 64);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  ReachOptions opts;
  opts.max_iterations = 3;
  const ReachResult r = reachTr(s, opts);
  EXPECT_EQ(r.iterations, 3U);
  EXPECT_LT(r.states, 64.0);
}

TEST(Reach, IterationCountsMatchCircuitDepth) {
  // A mod-2^k counter driven by one enable has diameter 2^k - 1; with the
  // image containing the predecessor set each iteration adds one state, so
  // all engines need ~2^k iterations.
  const Netlist n = circuit::makeCounter(4, 16);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const ReachResult r = run(Engine::kBfv, s);
  EXPECT_GE(r.iterations, 15U);
  EXPECT_LE(r.iterations, 17U);
}

TEST(Reach, BfvAndCdecBackendsProduceTheSameSet) {
  const Netlist n = circuit::makeTwinShift(5);
  bdd::Manager m1(0);
  sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  bdd::Manager m2(0);
  sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  const ReachResult a = run(Engine::kBfv, s1);
  const ReachResult b = run(Engine::kCdec, s2);
  EXPECT_DOUBLE_EQ(a.states, b.states);
  EXPECT_EQ(a.bfv_nodes, b.bfv_nodes);
  EXPECT_EQ(a.chi_nodes, b.chi_nodes);
}

}  // namespace
}  // namespace bfvr::reach
