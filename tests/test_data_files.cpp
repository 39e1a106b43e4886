// The shipped .bench files in data/ parse and verify end to end — the same
// path a user takes with the original ISCAS89 distributions.
#include <gtest/gtest.h>

#include <string>

#include "circuit/bench_io.hpp"
#include "circuit/concrete_sim.hpp"
#include "reach/engine.hpp"

#ifndef BFVR_DATA_DIR
#define BFVR_DATA_DIR "data"
#endif

namespace bfvr {
namespace {

class DataFiles : public ::testing::TestWithParam<const char*> {};

TEST_P(DataFiles, ParsesAndValidates) {
  const std::string path = std::string(BFVR_DATA_DIR) + "/" + GetParam();
  const circuit::Netlist n = circuit::parseBenchFile(path);
  EXPECT_GT(n.latches().size(), 0U);
  EXPECT_GT(n.outputs().size(), 0U);
  EXPECT_NO_THROW(n.validate());
  // Round-trips.
  const circuit::Netlist back =
      circuit::parseBenchString(circuit::toBench(n), "rt");
  EXPECT_EQ(back.latches().size(), n.latches().size());
}

// Differential oracle across the BDD engines: with iterations capped, TR,
// CBM, BFV-Fig2 and CDEC-Fig2 walk the same breadth-first frontiers, so they
// must agree on status, iteration count and reached-state count.
TEST_P(DataFiles, EnginesAgreeOnCappedRun) {
  const circuit::Netlist n = circuit::parseBenchFile(
      std::string(BFVR_DATA_DIR) + "/" + GetParam());
  const auto run = [&n](const char* engine) {
    bdd::Manager m(0);
    sym::StateSpace s(m, n,
                      circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
    reach::ReachOptions opts;
    opts.max_iterations = 6;
    opts.budget.max_seconds = 30.0;
    const std::string e = engine;
    if (e == "tr") return reach::reachTr(s, opts);
    if (e == "cbm") return reach::reachCbm(s, opts);
    opts.backend =
        e == "bfv" ? reach::SetBackend::kBfv : reach::SetBackend::kCdec;
    return reach::reachBfv(s, opts);
  };
  const reach::ReachResult ref = run("tr");
  for (const char* engine : {"cbm", "bfv", "cdec"}) {
    const reach::ReachResult r = run(engine);
    EXPECT_EQ(to_string(r.status), to_string(ref.status)) << engine;
    EXPECT_EQ(r.iterations, ref.iterations) << engine;
    EXPECT_DOUBLE_EQ(r.states, ref.states) << engine;
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, DataFiles,
                         ::testing::Values("arb4.bench", "cnt8m200.bench",
                                           "crc8.bench", "crc16.bench",
                                           "fifo3.bench", "johnson8.bench",
                                           "lfsr16.bench", "lfsr32.bench",
                                           "twin6.bench"));

TEST(DataFiles, ReachabilityAgreesWithOracleOnParsedCircuit) {
  const circuit::Netlist n =
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/twin6.bench");
  const auto oracle = circuit::explicitReach(n);
  ASSERT_TRUE(oracle.has_value());
  bdd::Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  const reach::ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  EXPECT_DOUBLE_EQ(r.states, static_cast<double>(oracle->size()));
}

TEST(DataFiles, ParsedCircuitSimulatesLikeItsSource) {
  const circuit::Netlist n =
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/cnt8m200.bench");
  const circuit::ConcreteSim sim(n);
  std::vector<bool> st(n.latches().size(), false);
  for (int i = 0; i < 250; ++i) st = sim.step(st, {true});
  unsigned v = 0;
  for (unsigned i = 0; i < 8; ++i) {
    if (st[i]) v |= 1U << i;
  }
  EXPECT_EQ(v, 250U % 200U);
}

}  // namespace
}  // namespace bfvr
