// The exact frontier of the Fig. 2 flow (reach::internal::exactFrontier)
// against its characteristic-function definition: img \ old, computed
// through chi and converted back to canonical form, must be the
// edge-identical vector on both set backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "reach/engine.hpp"
#include "reach/internal.hpp"
#include "support/brute.hpp"
#include "sym/simulate.hpp"

namespace bfvr::reach {
namespace {

using bdd::Bdd;
using bdd::Manager;
using bfv::Bfv;
using cdec::Cdec;
using circuit::ObjRef;
using circuit::OrderKind;

/// A state space of `width` latches (and as many inputs) over a netlist
/// whose functions play no part here. Contiguous: the latches' (v, u) pairs
/// are adjacent in the order; spread: an input variable sits between every
/// two latches.
struct Layout {
  Layout(unsigned width, bool spread)
      : n(circuit::makeRandomSeq(width, width, 3 * width, 1)),
        s(m, n, orderFor(width, spread)) {}

  static std::vector<ObjRef> orderFor(unsigned width, bool spread) {
    std::vector<ObjRef> order;
    for (unsigned i = 0; i < width; ++i) {
      order.push_back({false, i});
      if (spread) order.push_back({true, i});
    }
    if (!spread) {
      for (unsigned i = 0; i < width; ++i) order.push_back({true, i});
    }
    return order;
  }

  Manager m{0};
  circuit::Netlist n;
  sym::StateSpace s;
};

/// A set in both representations, with its characteristic function.
struct Forms {
  explicit Forms(const Bfv& b)
      : bfv(b), cdec(Cdec::fromBfv(b)), chi(b.toChar()) {}
  Bfv bfv;
  Cdec cdec;
  Bdd chi;
};

/// exactFrontier(img, old) on both backends == the canonical form of
/// chi(img) & ~chi(old); a throw when img adds no state.
void expectFrontierMatchesChi(const sym::StateSpace& s, const Forms& img,
                              const Forms& old) {
  Manager& m = s.manager();
  const Bdd diff = img.chi & ~old.chi;
  if (diff.isFalse()) {
    EXPECT_THROW(internal::exactFrontier(s, {}, img.bfv, old.bfv),
                 std::logic_error);
    EXPECT_THROW(internal::exactFrontier(s, {}, img.cdec, old.cdec),
                 std::logic_error);
    return;
  }
  EXPECT_EQ(internal::exactFrontier(s, {}, img.bfv, old.bfv),
            bfv::fromChar(m, diff, s.currentVars()));
  EXPECT_EQ(internal::exactFrontier(s, {}, img.cdec, old.cdec),
            Cdec::fromChar(m, diff, s.currentVars()));
}

TEST(Frontier, EveryPairAtWidthsTwoAndThree) {
  // Widths 2 and 3 (65,025 pairs) on both layouts.
  for (const auto& [width, spread] :
       {std::pair{2U, false}, std::pair{2U, true}, std::pair{3U, false},
        std::pair{3U, true}}) {
    SCOPED_TRACE(std::to_string(width) +
                 (spread ? " spread" : " contiguous"));
    Layout l(width, spread);
    const std::vector<unsigned>& v = l.s.currentVars();
    std::vector<Forms> sets;
    for (std::uint64_t mask = 1; mask < (1ULL << (1U << width)); ++mask) {
      test::Set members;
      for (std::uint64_t p = 0; p < (1ULL << width); ++p) {
        if ((mask >> p) & 1U) members.insert(p);
      }
      sets.emplace_back(test::bfvOf(l.m, v, members));
    }
    for (const Forms& img : sets) {
      for (const Forms& old : sets) expectFrontierMatchesChi(l.s, img, old);
    }
  }
}

TEST(Frontier, RandomPairsAtWidthsFourToTen) {
  Rng rng(16);
  for (unsigned width = 4; width <= 10; ++width) {
    for (const bool spread : {false, true}) {
      SCOPED_TRACE(std::to_string(width) +
                   (spread ? " spread" : " contiguous"));
      Layout l(width, spread);
      const std::vector<unsigned>& v = l.s.currentVars();
      for (int trial = 0; trial < 12; ++trial) {
        test::Set old = test::randomSet(rng, width, 1, 3);
        old.insert(0);  // never empty
        const test::Set extra = test::randomSet(rng, width, 1, 4);
        // Three shapes: overlapping, a superset of old (the image of a
        // circuit with a hold input), and the old set itself (no new state).
        const test::Set img = trial % 3 == 0   ? extra
                              : trial % 3 == 1 ? test::setUnionOf(old, extra)
                                               : old;
        if (img.empty()) continue;
        expectFrontierMatchesChi(l.s, Forms(test::bfvOf(l.m, v, img)),
                                 Forms(test::bfvOf(l.m, v, old)));
      }
    }
  }
}

/// The first Fig. 2 iterations of every shipped circuit under every static
/// order: the image of the frontier against the reached set, as the engine
/// sees them.
class FrontierShipped
    : public ::testing::TestWithParam<std::tuple<std::string, OrderKind>> {};

/// Stable test names such as "arb4_topo" (gtest would otherwise print the
/// enum's raw byte).
std::string shippedName(
    const ::testing::TestParamInfo<FrontierShipped::ParamType>& info) {
  static const char* const kOrders[] = {"natural", "topo", "reverse",
                                        "random"};
  const std::string& file = std::get<0>(info.param);
  return file.substr(0, file.find('.')) + "_" +
         kOrders[static_cast<int>(std::get<1>(info.param))];
}

TEST_P(FrontierShipped, FirstIterationsMatchChi) {
  const auto [file, kind] = GetParam();
  const circuit::Netlist n =
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/" + file);
  Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {kind, 7}));
  const std::vector<unsigned>& v = s.currentVars();
  std::vector<unsigned> params = v;
  params.insert(params.end(), s.inputVars().begin(), s.inputVars().end());
  Bfv reached = Bfv::point(m, v, s.initialBits());
  Bfv from = reached;
  for (int it = 0; it < 6; ++it) {
    const sym::SimResult sim = sym::simulate(s, from.comps());
    const Bfv img_u =
        bfv::reparameterize(m, sim.next_state, s.paramVars(), params);
    std::vector<Bdd> comps;
    for (const Bdd& c : img_u.comps()) {
      comps.push_back(m.permute(c, s.permParamToCurrent()));
    }
    const Bfv img = Bfv::fromComponents(m, v, std::move(comps));
    expectFrontierMatchesChi(s, Forms(img), Forms(reached));
    const Bfv next = setUnion(reached, img);
    if (next == reached) break;
    from = internal::exactFrontier(s, {}, img, reached);
    reached = next;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shipped, FrontierShipped,
    ::testing::Combine(
        ::testing::Values("arb4.bench", "cnt8m200.bench", "crc8.bench",
                          "crc16.bench", "fifo3.bench", "johnson8.bench",
                          "lfsr16.bench", "lfsr32.bench", "twin6.bench"),
        ::testing::Values(OrderKind::kNatural, OrderKind::kTopo,
                          OrderKind::kReverse, OrderKind::kRandom)),
    shippedName);

TEST(Frontier, EnabledLfsrSimulatesOneStatePerIteration) {
  // The image of {s} under an enabled register is {s, next(s)}: the exact
  // frontier is the single new state, where the image heuristic had to
  // simulate the whole reached set.
  const circuit::Netlist n = circuit::makeLfsr(10);
  Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  ReachOptions opts;
  opts.trace = true;
  const ReachResult r = reachBfv(s, opts);
  ASSERT_EQ(r.status, RunStatus::kDone);
  EXPECT_EQ(r.iterations, 1023U);
  ASSERT_TRUE(r.trace.has_value());
  ASSERT_EQ(r.trace->iterations.size(), r.iterations);
  for (const obs::IterationRecord& rec : r.trace->iterations) {
    EXPECT_EQ(rec.frontier_states, 1.0) << "iteration " << rec.iteration;
  }
}

}  // namespace
}  // namespace bfvr::reach
