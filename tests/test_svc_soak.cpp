// Service soak (the PR's acceptance scenario, in-process): a 4-worker
// server, three weighted tenants pushing 1000+ queued jobs concurrently,
// an exact fairness check on the dispatch log, one eviction-with-migration
// resumed bit-identically, and node accounting back to zero at shutdown.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "run/run.hpp"
#include "support/temp_dir.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace bfvr::svc {
namespace {

constexpr unsigned kJobsPerTenant = 334;  // 3 tenants -> 1002 queued jobs

struct TenantOutcome {
  unsigned accepted = 0;
  unsigned done = 0;
  unsigned failed = 0;
};

/// One tenant's client: submit kJobsPerTenant tiny jobs, then pump the
/// event stream until every one of them reports JobDone.
TenantOutcome runTenant(const std::string& sock, const std::string& tenant) {
  TenantOutcome out;
  Client client("unix:" + sock, tenant);
  for (unsigned i = 0; i < kJobsPerTenant; ++i) {
    client.submit("circuit=gen:counter:3:4");
  }
  while (out.done + out.failed < kJobsPerTenant) {
    std::optional<Event> ev = client.next();
    if (!ev.has_value()) break;  // server hung up: the counts will show it
    if (std::get_if<Accepted>(&*ev) != nullptr) {
      ++out.accepted;
    } else if (const auto* d = std::get_if<JobDone>(&*ev)) {
      if (d->status == "done") {
        ++out.done;
      } else {
        ++out.failed;
      }
    } else if (std::get_if<Rejected>(&*ev) != nullptr) {
      ++out.failed;
    }
  }
  client.bye();
  return out;
}

TEST(SvcSoak, MultiTenantFairnessEvictionAndCleanShutdown) {
  const std::string sock =
      "/tmp/bfvr_soak_" + std::to_string(::getpid()) + ".sock";
  const test::TempDir spool;
  Server::Options opts;
  opts.endpoint = "unix:" + sock;
  opts.workers = 4;
  opts.warm_managers = true;
  opts.tenants = parseTenantsString("alpha:3\nbravo:2\ncarol:1\n");
  opts.spool_dir = spool.path();
  opts.checkpoint_every = 1;
  opts.stream_iterations = false;  // throughput mode; eviction needs no feed
  opts.name = "soak";
  opts.flight_dir = ::testing::TempDir();
  const std::string flight_path = opts.flight_dir + "/FLIGHT_soak.json";
  std::remove(flight_path.c_str());
  Server server(opts);
  server.start();

  // --- phase 1: saturate, backlog, drain -------------------------------
  // Four deliberately oversized "plug" jobs occupy every worker while the
  // three tenants build their backlog, so the dispatch log right after the
  // plugs is a clean all-tenants-contending window.
  Client plug_client("unix:" + sock, "plug");
  std::set<std::uint64_t> plugs;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t tag =
        plug_client.submit("circuit=gen:counter:20:1000000 deadline=3");
    std::optional<std::uint64_t> job = plug_client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    plugs.insert(*job);
  }

  TenantOutcome alpha, bravo, carol;
  std::thread ta([&] { alpha = runTenant(sock, "alpha"); });
  std::thread tb([&] { bravo = runTenant(sock, "bravo"); });
  std::thread tc([&] { carol = runTenant(sock, "carol"); });
  // Drain the plug dones in *completion* order — under load the four do
  // not finish in submission order.
  while (!plugs.empty()) {
    std::optional<Event> ev = plug_client.next();
    ASSERT_TRUE(ev.has_value());
    if (const auto* d = std::get_if<JobDone>(&*ev)) {
      ASSERT_EQ(plugs.erase(d->job), 1u);
      // A plug either hits its deadline or (on a very fast machine)
      // finishes; both mean the worker is free again.
      EXPECT_TRUE(d->status == "T.O." || d->status == "done") << d->status;
    }
  }
  ta.join();
  tb.join();
  tc.join();

  for (const TenantOutcome* t : {&alpha, &bravo, &carol}) {
    EXPECT_EQ(t->accepted, kJobsPerTenant);
    EXPECT_EQ(t->done, kJobsPerTenant);
    EXPECT_EQ(t->failed, 0u);
  }

  // Fairness evidence: the first 4 dispatches are the plugs; in the next
  // 60 every tenant is backlogged, so smooth WRR must hand out shares in
  // exact weight proportion (3:2:1 of 60 = 30/20/10; +-2 absorbs the
  // submission race on the window edge).
  const std::vector<std::string> log = server.dispatchLog();
  ASSERT_GE(log.size(), 64u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(log[i], "plug");
  int a = 0, b = 0, c = 0;
  for (std::size_t i = 4; i < 64; ++i) {
    if (log[i] == "alpha") ++a;
    if (log[i] == "bravo") ++b;
    if (log[i] == "carol") ++c;
  }
  EXPECT_EQ(a + b + c, 60);
  EXPECT_NEAR(a, 30, 2);
  EXPECT_NEAR(b, 20, 2);
  EXPECT_NEAR(c, 10, 2);

  // --- phase 2: evict, migrate, resume bit-identically -----------------
  run::JobSpec ref;
  ref.circuit = "gen:counter:14:12000";
  const run::JobResult ref_result = run::executeJob(ref);
  ASSERT_EQ(ref_result.status, RunStatus::kDone);
  std::uint64_t evicted_job = 0;
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit("circuit=gen:counter:14:12000");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    evicted_job = *job;
    // Wait for the dispatch, give the engine a moment to lay down a spool
    // snapshot (checkpoint_every=1: any completed iteration suffices),
    // then pull the rug.
    for (;;) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (std::get_if<JobStarted>(&*ev) != nullptr) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    client.evict(*job);
    bool evicted_seen = false;
    std::uint32_t evicted_from = 0;
    JobDone done;
    for (;;) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* e = std::get_if<JobEvicted>(&*ev)) {
        evicted_seen = true;
        evicted_from = e->worker;
        EXPECT_GE(e->iteration, 1u);
      } else if (const auto* d = std::get_if<JobDone>(&*ev)) {
        done = *d;
        break;
      }
    }
    ASSERT_TRUE(evicted_seen) << "job finished before the evict landed";
    EXPECT_TRUE(done.resumed);
    EXPECT_EQ(done.evictions, 1u);
    EXPECT_NE(done.worker, evicted_from);  // migrated off the old worker
    EXPECT_EQ(done.status, "done");
    EXPECT_DOUBLE_EQ(done.states, ref_result.reach.states);
    EXPECT_EQ(done.iterations, ref_result.reach.iterations);
    client.bye();
  }

  // The evicted job's span timeline shows the full migration story: two
  // different workers, an "evicted" stamp and a "resumed" stamp.
  {
    bool span_found = false;
    for (const obs::JobSpan& span : server.spans()) {
      if (span.job != evicted_job) continue;
      span_found = true;
      EXPECT_EQ(span.status, "done");
      EXPECT_EQ(span.evictions, 1u);
      ASSERT_EQ(span.workers.size(), 2u);
      EXPECT_NE(span.workers[0], span.workers[1]);
      bool saw_evicted = false, saw_resumed = false;
      for (const obs::SpanEvent& ev : span.events) {
        if (ev.what == "evicted") saw_evicted = true;
        // Migration ordering: the resume comes after the eviction.
        if (ev.what == "resumed") saw_resumed = saw_evicted;
      }
      EXPECT_TRUE(saw_evicted);
      EXPECT_TRUE(saw_resumed);
    }
    EXPECT_TRUE(span_found);
  }

  // --- phase 3: injected worker fault dumps the flight ring ------------
  // A deterministic mid-run allocation failure folds to memout; the server
  // notices faults_injected != 0 and writes the post-mortem dump.
  {
    // The fault must land mid-fixpoint: a fault-free run of the same job
    // allocates well past the index, so it cannot silently end done.
    run::JobSpec clean;
    clean.circuit = "gen:counter:8:200";
    clean.engine = run::EngineKind::kBfv;
    EXPECT_GE(run::executeJob(clean).reach.ops.nodes_created, 800u);
    Client client("unix:" + sock, "fault");
    const std::uint64_t tag =
        client.submit("circuit=gen:counter:8:200 fault-allocs=400");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    const JobDone done = client.awaitDone(*job);
    EXPECT_EQ(done.status, "M.O.");
    EXPECT_NE(done.message.find("injected"), std::string::npos);
    client.bye();
  }
  {
    // The dump is written after the JobDone frame goes out (file I/O stays
    // off the scheduler lock), so give the worker thread a moment.
    std::string dump;
    for (int tries = 0; tries < 100; ++tries) {
      std::ifstream in(flight_path);
      if (in.good()) {
        dump.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
        if (dump.find("worker-fault") != std::string::npos) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_FALSE(dump.empty()) << "no flight dump at " << flight_path;
    EXPECT_NE(dump.find("\"reason\": \"worker-fault\""), std::string::npos);
    // The ring's recent events cover the whole incident sequence: the
    // eviction and resume from phase 2, then the injected fault.
    const std::size_t fault_at = dump.find("\"category\": \"fault\"");
    EXPECT_NE(fault_at, std::string::npos);
    EXPECT_NE(dump.find("\"category\": \"eviction\""), std::string::npos);
    EXPECT_NE(dump.find("\"category\": \"resume\""), std::string::npos);
    EXPECT_LT(dump.find("\"category\": \"eviction\""), fault_at);
  }

  // Per-tenant span accounting: one span per accepted job, exactly.
  EXPECT_EQ(server.spanCount("alpha"), kJobsPerTenant + 1u);  // + evict job
  EXPECT_EQ(server.spanCount("bravo"), kJobsPerTenant);
  EXPECT_EQ(server.spanCount("carol"), kJobsPerTenant);
  EXPECT_EQ(server.spanCount("plug"), 4u);
  EXPECT_EQ(server.spanCount("fault"), 1u);

  // --- shutdown: accounting back to zero -------------------------------
  server.requestShutdown(true);
  server.waitStopped();
  // 4 plugs + 1002 tenant jobs + the evicted job dispatched twice + the
  // fault-injected job.
  EXPECT_EQ(server.dispatchLog().size(), 4u + 3u * kJobsPerTenant + 3u);
  const std::string stats = server.statsJson();
  EXPECT_NE(stats.find("\"evictions\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"resumes\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"leaked_nodes\": 0"), std::string::npos) << stats;
  EXPECT_EQ(server.warmStats().leaked_nodes, 0u);
  EXPECT_EQ(server.warmStats().resets_failed, 0u);
}

}  // namespace
}  // namespace bfvr::svc
