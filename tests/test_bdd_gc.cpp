// Garbage collection, node budgets, and resource accounting.
#include <gtest/gtest.h>

#include "support/brute.hpp"

namespace bfvr::bdd {
namespace {

TEST(BddGc, CollectsDeadNodes) {
  Manager m(16);
  const std::size_t base = m.inUseNodes();
  {
    Bdd acc = m.one();
    for (unsigned i = 0; i < 16; ++i) acc &= m.var(i);
    EXPECT_GT(m.inUseNodes(), base);
  }
  m.gc();
  // Only the 16 projection nodes can remain referenced... they are not
  // referenced either (no live handles), so we are back to the terminal.
  EXPECT_EQ(m.inUseNodes(), 1U);
}

TEST(BddGc, LiveHandlesSurviveGc) {
  Manager m(8);
  Bdd keep = (m.var(0) & m.var(1)) | m.var(2);
  Bdd dead = m.var(3) ^ m.var(4);
  const Bdd copy = keep;
  dead = Bdd();  // drop
  m.gc();
  EXPECT_EQ(keep, copy);
  EXPECT_EQ(keep, (m.var(0) & m.var(1)) | m.var(2));  // rebuild matches
  EXPECT_TRUE((keep ^ copy).isFalse());
}

TEST(BddGc, ReusedSlotsKeepSemantics) {
  Manager m(8);
  Rng rng(3);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4};
  // Build, drop, and rebuild random functions across collections; results
  // must stay semantically stable.
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t tt = test::randomTruth(rng, 5);
    Bdd f = test::bddFromTruth(m, vars, tt);
    EXPECT_EQ(test::truthOf(m, f, vars), tt);
    m.gc();
    EXPECT_EQ(test::truthOf(m, f, vars), tt);  // survives its own GC
  }
}

TEST(BddGc, LiveNodeCountTracksReachable) {
  Manager m(8);
  EXPECT_EQ(m.liveNodeCount(), 1U);  // just the terminal
  Bdd a = m.var(0);
  EXPECT_EQ(m.liveNodeCount(), 2U);
  Bdd f = m.var(0) & m.var(1);
  EXPECT_GE(m.liveNodeCount(), 3U);
  a = Bdd();
  f = Bdd();
  EXPECT_EQ(m.liveNodeCount(), 1U);
}

TEST(BddGc, LiveNodeCountMatchesSharedSizeOfSurvivors) {
  // The count walks only what the live handles reach; it must agree with
  // the shared size of the surviving functions even when dropped functions
  // have left garbage in the store, and with the in-use count after a GC.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Manager m(10);
    Rng rng(seed);
    std::vector<Bdd> pool;
    for (int i = 0; i < 24; ++i) {
      std::vector<unsigned> vars{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
      rng.shuffle(vars);
      vars.resize(6);
      Bdd f = test::bddFromTruth(m, vars, test::randomTruth(rng, 6));
      if (!pool.empty() && rng.flip()) {
        f = rng.flip() ? f & pool[rng.below(pool.size())]
                       : f ^ pool[rng.below(pool.size())];
      }
      pool.push_back(f);
    }
    // Drop a random subset (all of it for one seed) without collecting.
    std::vector<Bdd> survivors;
    for (const Bdd& f : pool) {
      if (seed != 12 && rng.chance(1, 2)) survivors.push_back(f);
    }
    pool.clear();
    const std::size_t live = m.liveNodeCount();
    EXPECT_EQ(live,
              survivors.empty() ? 1U : m.sharedNodeCount(survivors))
        << "seed " << seed;
    EXPECT_LT(live, m.inUseNodes()) << "seed " << seed;  // garbage present
    m.gc();
    EXPECT_EQ(m.liveNodeCount(), m.inUseNodes()) << "seed " << seed;
    EXPECT_EQ(m.liveNodeCount(), live) << "seed " << seed;
  }
}

TEST(BddGc, PeakMonotoneAndResettable) {
  Manager m(8);
  { Bdd f = (m.var(0) ^ m.var(1)) & (m.var(2) ^ m.var(3)); (void)f; }
  const std::size_t peak = m.peakNodes();
  EXPECT_GT(peak, 1U);
  m.gc();
  EXPECT_EQ(m.peakNodes(), peak);  // gc does not lower the high-water mark
  m.resetPeak();
  EXPECT_LE(m.peakNodes(), peak);
}

TEST(BddGc, NodeBudgetThrows) {
  Manager::Config cfg;
  cfg.max_nodes = 64;
  Manager m(32, cfg);
  Bdd acc = m.one();
  EXPECT_THROW(
      {
        // A function family with exponential growth under this order.
        for (unsigned i = 0; i < 16; ++i) {
          acc ^= m.var(i) & m.var(31 - i);
        }
      },
      NodeBudgetExceeded);
}

TEST(BddGc, ManagerUsableAfterBudgetError) {
  Manager::Config cfg;
  cfg.max_nodes = 80;
  Manager m(32, cfg);
  Bdd acc = m.one();
  try {
    for (unsigned i = 0; i < 16; ++i) acc ^= m.var(i) & m.var(31 - i);
    FAIL() << "expected NodeBudgetExceeded";
  } catch (const NodeBudgetExceeded&) {
  }
  acc = Bdd();
  m.gc();
  // Small work still fits after collecting the wreckage.
  EXPECT_EQ(m.var(0) & m.var(1), m.var(0) & m.var(1));
}

TEST(BddGc, MaybeGcHonorsThreshold) {
  Manager::Config cfg;
  cfg.gc_threshold = 8;
  Manager m(16, cfg);
  { Bdd f = (m.var(0) ^ m.var(1)) ^ (m.var(2) & m.var(3)); (void)f; }
  const auto runs_before = m.stats().gc_runs;
  m.maybeGc();
  EXPECT_GT(m.stats().gc_runs, runs_before);
}

TEST(BddGc, StatsAccumulateAndReset) {
  Manager m(8);
  (void)(m.var(0) & m.var(1));
  EXPECT_GT(m.stats().top_ops, 0U);
  EXPECT_GT(m.stats().nodes_created, 0U);
  m.resetStats();
  EXPECT_EQ(m.stats().top_ops, 0U);
  EXPECT_EQ(m.stats().recursive_steps, 0U);
}

TEST(BddGc, StressRandomOpsWithPeriodicGc) {
  Manager m(12);
  Rng rng(77);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4, 5};
  std::vector<Bdd> pool;
  std::vector<std::uint64_t> truths;
  for (int i = 0; i < 8; ++i) {
    truths.push_back(test::randomTruth(rng, 6));
    pool.push_back(test::bddFromTruth(m, vars, truths.back()));
  }
  for (int step = 0; step < 300; ++step) {
    const std::size_t i = rng.below(pool.size());
    const std::size_t j = rng.below(pool.size());
    switch (rng.below(3)) {
      case 0:
        pool[i] = pool[i] & pool[j];
        truths[i] = truths[i] & truths[j];
        break;
      case 1:
        pool[i] = pool[i] | pool[j];
        truths[i] = truths[i] | truths[j];
        break;
      default:
        pool[i] = pool[i] ^ pool[j];
        truths[i] = truths[i] ^ truths[j];
        break;
    }
    if (step % 37 == 0) m.gc();
    if (step % 91 == 0) {
      ASSERT_EQ(test::truthOf(m, pool[i], vars), truths[i]) << "step " << step;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(test::truthOf(m, pool[i], vars), truths[i]);
  }
}

}  // namespace
}  // namespace bfvr::bdd
