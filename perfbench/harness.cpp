// Benchmark harness: drives the library through its public API and times
// every call from outside. Nothing inside the program is instrumented; the
// harness only reads counters the program already exposes (ReachResult.ops,
// ReachOptions::trace phase totals, JobResult, JobDone, the server's
// StatsReply report).
//
//   perfbench_harness reference <circuit-spec>...
//   perfbench_harness setup
//   perfbench_harness peak --manifest F --row I
//   perfbench_harness inproc --manifest F --seconds S --trace 0|1 --out F
//   perfbench_harness svc --lines F --schedule F --server PATH
//                         --tenants FILE --workdir DIR --trace 0|1 --out F
//
// `reference` prints each circuit's reachable-state count from explicit
// breadth-first search (circuit::explicitReach: concrete simulation, no
// BDDs), one JSON object per line. `setup` prints the seconds one fresh
// process takes to become ready for its first in-process job; `peak` runs
// one manifest row once in a fresh process and prints its verdict with the
// process's peak resident memory. The other modes write one JSON document
// of raw measurements to --out; perfbench/run.py turns it into metrics and
// checks every verdict against the references.
//
// Spans (traced runs only) are kept in memory and written with the
// document: name, start, end, parent and job, one per public call.
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/concrete_sim.hpp"
#include "circuit/orders.hpp"
#include "run/manifest.hpp"
#include "run/run.hpp"
#include "svc/client.hpp"
#include "svc/queue.hpp"
#include "sym/space.hpp"
#include "sym/transition.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace bfvr;
using util::JsonObject;

namespace {

// ---- clocks, numbers, JSON ------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// Full-precision number (JsonObject::add(double) keeps only 6 digits).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",\n") + items[i];
  }
  return out + "]";
}

std::string numArray(const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (double x : v) items.push_back(num(x));
  return jsonArray(items);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// VmHWM of a process, in KiB (0 when unreadable).
long procPeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

// ---- spans ----------------------------------------------------------------

/// In-memory span log. Self time (a span minus its children) is derived
/// offline from `parent`.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int open(const std::string& name, int parent, const std::string& job) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, job, now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now();
  }
  /// A span whose interval was measured elsewhere (event timestamps).
  int add(const std::string& name, int parent, const std::string& job,
          double start, double end) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, job, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::string json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> items;
    items.reserve(spans_.size());
    for (const Span& s : spans_) {
      JsonObject o;
      o.add("name", s.name).add("job", s.job).add("parent", s.parent);
      o.addRaw("start", num(s.start)).addRaw("end", num(s.end));
      items.push_back(o.str());
    }
    return jsonArray(items);
  }

 private:
  struct Span {
    std::string name, job;
    double start, end;
    int parent;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(SpanLog& log, const std::string& name, int parent,
         const std::string& job)
      : log_(log), id_(log.open(name, parent, job)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- provenance -----------------------------------------------------------

/// Sanitizer and debug builds measure a different program.
void requireReleaseBuild() {
  bool ok = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  ok = false;
#endif
  if (!ok) {
    throw std::runtime_error(std::string("refusing to measure a ") +
                             PERFBENCH_BUILD_TYPE +
                             " build: rebuild with CMAKE_BUILD_TYPE=Release "
                             "and no sanitizer");
  }
}

std::string buildJson() {
  JsonObject o;
  o.add("build_type", PERFBENCH_BUILD_TYPE)
      .add("compiler", PERFBENCH_COMPILER)
      .add("nproc", std::thread::hardware_concurrency());
  return o.str();
}

// ---- manifest ---------------------------------------------------------------

/// One generated manifest line and the JobSpec the library parses from it.
struct Row {
  std::string line;
  run::JobSpec spec;
};

std::vector<Row> loadRows(const std::string& path) {
  std::vector<Row> rows;
  std::istringstream in(readFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<run::ManifestEntry> e = run::parseManifestString(line);
    if (e.size() != 1 || !e[0].portfolio.empty()) {
      throw std::runtime_error("expected one plain job per line: " + line);
    }
    rows.push_back({line, e[0].spec});
  }
  if (rows.empty()) throw std::runtime_error("empty manifest " + path);
  return rows;
}

std::string opsJson(const bdd::OpStats& s) {
  JsonObject o;
  o.add("recursive_steps", s.recursive_steps)
      .add("cache_lookups", s.cache_lookups)
      .add("cache_hits", s.cache_hits)
      .add("nodes_created", s.nodes_created)
      .add("gc_runs", s.gc_runs);
  JsonObject hits, misses;
  for (std::size_t t = 0; t < bdd::kNumOpTags; ++t) {
    const char* tag = bdd::to_string(static_cast<bdd::OpTag>(t));
    hits.add(tag, s.op_cache_hits[t]);
    misses.add(tag, s.op_cache_misses[t]);
  }
  o.addRaw("op_hits", hits.str()).addRaw("op_misses", misses.str());
  return o.str();
}

std::string phasesJson(const obs::PhaseSeconds& p) {
  JsonObject o;
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    o.addRaw(obs::to_string(static_cast<obs::Phase>(i)), num(p.seconds[i]));
  }
  return o.str();
}

/// The verdict fields every job record carries.
JsonObject verdictJson(const std::string& name, RunStatus status,
                       double states, unsigned iterations) {
  JsonObject o;
  o.add("name", name)
      .add("status", to_string(status))
      .addRaw("states", num(states))
      .add("iterations", iterations);
  return o;
}

// ---- reference --------------------------------------------------------------

int cmdReference(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const circuit::Netlist n = run::resolveCircuit(argv[i]);
    const auto states = circuit::explicitReach(n);
    if (!states.has_value()) {
      throw std::runtime_error(std::string("explicit reach over limit: ") +
                               argv[i]);
    }
    JsonObject o;
    o.add("circuit", argv[i]).add("states",
                                  static_cast<std::uint64_t>(states->size()));
    std::printf("%s\n", o.str().c_str());
  }
  return 0;
}

// ---- in-process workloads ----------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;

  const std::string& need(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  double number(const std::string& k, double dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::stod(it->second);
  }
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument " + k);
    }
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

/// Set-up of the in-process system: the per-worker manager cache and its
/// first (cold) manager acquire under the default job configuration.
double inprocSetupOnce() {
  const double t0 = now();
  run::ManagerCache cache;
  std::unique_ptr<bdd::Manager> m = cache.acquire(run::JobSpec{}.mgr);
  const double t1 = now();
  cache.release(std::move(m));
  return t1 - t0;
}

reach::ReachResult dispatch(const run::JobSpec& spec, sym::StateSpace& s,
                            reach::ReachOptions opts) {
  switch (spec.engine) {
    case run::EngineKind::kTr:
      return reach::reachTr(s, opts);
    case run::EngineKind::kTrMono:
      opts.transition.cluster_limit = 0;
      return reach::reachTr(s, opts);
    case run::EngineKind::kCbm:
      return reach::reachCbm(s, opts);
    case run::EngineKind::kBfv:
      opts.backend = reach::SetBackend::kBfv;
      return reach::reachBfv(s, opts);
    case run::EngineKind::kCdec:
      opts.backend = reach::SetBackend::kCdec;
      return reach::reachBfv(s, opts);
    case run::EngineKind::kHybrid:
      return reach::reachHybrid(s, opts);
    case run::EngineKind::kLz:
      break;
  }
  throw std::runtime_error("in-process workloads run BDD engines only");
}

bool usesRelation(run::EngineKind e) {
  return e == run::EngineKind::kTr || e == run::EngineKind::kTrMono ||
         e == run::EngineKind::kHybrid;
}

/// One job taken apart at the library's layer boundaries, with tracing on:
/// resolveCircuit, Manager, StateSpace, (TransitionRelation), reach*.
std::string tracedDecomposed(const run::JobSpec& spec, SpanLog& spans) {
  const std::string job = spec.displayName();
  const Scoped job_span(spans, "job.layers", -1, job);
  const int root = job_span.id();
  circuit::Netlist n;
  {
    Scoped s(spans, "circuit.resolve", root, job);
    n = run::resolveCircuit(spec.circuit);
  }
  double tr_nodes = 0, tr_clusters = 0;
  if (usesRelation(spec.engine)) {
    // The engine builds its own relation inside reach*; this one is built
    // on a separate manager so it neither warms nor pollutes that run.
    bdd::Manager m(0, spec.mgr);
    sym::StateSpace space(m, n, circuit::makeOrder(n, spec.order));
    sym::TransitionOptions topts = spec.opts.transition;
    if (spec.engine == run::EngineKind::kTrMono) topts.cluster_limit = 0;
    Scoped s(spans, "sym.TransitionRelation", root, job);
    const sym::TransitionRelation tr(space, topts);
    tr_clusters = static_cast<double>(tr.numClusters());
    tr_nodes = static_cast<double>(tr.sharedSize());
  }
  std::unique_ptr<bdd::Manager> m;
  {
    Scoped s(spans, "bdd.Manager", root, job);
    m = std::make_unique<bdd::Manager>(0, spec.mgr);
  }
  reach::ReachResult r;
  double engine_s = 0;
  {
    std::unique_ptr<sym::StateSpace> space;
    {
      Scoped s(spans, "sym.StateSpace", root, job);
      space = std::make_unique<sym::StateSpace>(
          *m, n, circuit::makeOrder(n, spec.order));
    }
    reach::ReachOptions opts = spec.opts;
    opts.trace = true;
    const std::string name =
        std::string("reach.") + run::to_string(spec.engine);
    Scoped s(spans, name, root, job);
    const double t0 = now();
    r = dispatch(spec, *space, opts);
    engine_s = now() - t0;
    r.reached_bfv.reset();
    r.reached_chi = bdd::Bdd();
  }
  JsonObject o = verdictJson(job, r.status, r.states, r.iterations);
  o.add("engine", run::to_string(spec.engine))
      .addRaw("engine_s", num(engine_s))
      .addRaw("reach_seconds", num(r.seconds))
      .addRaw("phases", phasesJson(r.trace.has_value()
                                       ? r.trace->phase_totals
                                       : obs::PhaseSeconds{}))
      .addRaw("ops", opsJson(r.ops))
      .add("peak_live_nodes", static_cast<std::uint64_t>(r.peak_live_nodes))
      .addRaw("tr_clusters", num(tr_clusters))
      .addRaw("tr_nodes", num(tr_nodes));
  return o.str();
}

std::string jobRecord(const std::string& name, const run::JobResult& r,
                      double wall) {
  JsonObject o = verdictJson(name, r.status, r.reach.states,
                             r.reach.iterations);
  o.addRaw("seconds", num(wall))
      .addRaw("reach_seconds", num(r.reach.seconds))
      .add("retries", r.retriesUsed())
      .addRaw("ops", opsJson(r.reach.ops))
      .add("peak_live_nodes",
           static_cast<std::uint64_t>(r.reach.peak_live_nodes));
  return o.str();
}

/// executeJob under a span, with its wall time.
std::pair<run::JobResult, double> timedJob(SpanLog& spans, const char* span,
                                           const run::JobSpec& spec) {
  const Scoped s(spans, span, -1, spec.displayName());
  const double t0 = now();
  run::JobResult r = run::executeJob(spec);
  return {std::move(r), now() - t0};
}

/// The traced per-row record: the layer split, then the same job through
/// executeJob plain and with ReachOptions::trace on.
JsonObject tracedRow(const run::JobSpec& spec, SpanLog& spans) {
  JsonObject o;
  if (spec.engine != run::EngineKind::kLz) {
    o.addRaw("layers", tracedDecomposed(spec, spans));
  }
  const auto [plain, plain_s] = timedJob(spans, "run.executeJob", spec);
  run::JobSpec traced = spec;
  traced.opts.trace = true;
  const auto [tr, tr_s] = timedJob(spans, "run.executeJob.traced", traced);
  o.addRaw("plain", jobRecord(spec.displayName(), plain, plain_s))
      .addRaw("traced", jobRecord(spec.displayName(), tr, tr_s));
  return o;
}

int cmdInproc(const Args& a) {
  const std::vector<Row> rows = loadRows(a.need("manifest"));
  const double seconds = a.number("seconds", 10);
  const bool traced = a.number("trace", 0) != 0;

  JsonObject doc;
  doc.add("mode", "inproc").add("trace", traced ? 1 : 0);
  doc.addRaw("build", buildJson());
  SpanLog spans(traced);

  if (!traced) {
    // Closed loop, one job at a time: one untimed warm-up pass over the
    // whole manifest, then timed passes while another still fits in the
    // run's time (at least two, so every job has a median).
    std::vector<std::string> passes;
    const double start = now();
    for (const Row& row : rows) (void)run::executeJob(row.spec);
    double last = now() - start;
    while (passes.size() < 2 || now() - start + last <= seconds) {
      std::vector<std::string> jobs;
      const double p0 = now();
      for (const Row& row : rows) {
        const double t0 = now();
        const run::JobResult r = run::executeJob(row.spec);
        jobs.push_back(jobRecord(row.spec.displayName(), r, now() - t0));
      }
      last = now() - p0;
      JsonObject p;
      p.addRaw("wall_s", num(last)).addRaw("jobs", jsonArray(jobs));
      passes.push_back(p.str());
    }
    doc.addRaw("passes", jsonArray(passes));
  } else {
    std::vector<std::string> jobs;
    for (const Row& row : rows) jobs.push_back(tracedRow(row.spec, spans).str());
    doc.addRaw("jobs", jsonArray(jobs));
    doc.addRaw("spans", spans.json());
  }
  writeFile(a.need("out"), doc.str());
  return 0;
}

/// One manifest row, once, in this (fresh) process: its memory peak does
/// not depend on which rows ran before it. VmHWM, unlike ru_maxrss, starts
/// afresh at exec, so the parent's size before exec does not count.
int cmdPeak(const Args& a) {
  const std::vector<Row> rows = loadRows(a.need("manifest"));
  const auto i = static_cast<std::size_t>(a.number("row", 0));
  if (i >= rows.size()) throw std::runtime_error("--row out of range");
  const double t0 = now();
  const run::JobResult r = run::executeJob(rows[i].spec);
  JsonObject o;
  o.addRaw("job", jobRecord(rows[i].spec.displayName(), r, now() - t0))
      .add("peak_rss_kb", static_cast<std::uint64_t>(procPeakRssKb(getpid())));
  std::printf("%s\n", o.str().c_str());
  return 0;
}

// ---- service workload -----------------------------------------------------------

/// A bfv_serve child process. The child dies with the harness
/// (PR_SET_PDEATHSIG) and is always reaped.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& log) {
    std::vector<char*> args;
    for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
    args.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (std::freopen(log.c_str(), "w", stdout) == nullptr ||
          std::freopen(log.c_str(), "a", stderr) == nullptr) {
        ::_exit(127);
      }
      ::execv(args[0], args.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      wait();
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const noexcept { return pid_; }
  /// Reap the child; returns its exit status (-1 if killed by a signal).
  int wait() {
    int st = 0;
    while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
    }
    reaped_ = true;
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  }
  /// Wait up to `seconds` for a clean exit, then kill.
  int waitOrKill(double seconds) {
    const double t0 = now();
    for (;;) {
      int st = 0;
      const pid_t r = ::waitpid(pid_, &st, WNOHANG);
      if (r == pid_) {
        reaped_ = true;
        return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
      }
      if (now() - t0 > seconds) {
        ::kill(pid_, SIGKILL);
        wait();
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
};

/// A running server with one hello-acknowledged session per tenant.
struct Service {
  std::unique_ptr<ServerProcess> proc;
  std::vector<std::unique_ptr<svc::Client>> clients;
  double setup_s = 0;
};

Service startService(const Args& a, const std::vector<std::string>& tenants,
                     const std::string& dir) {
  const std::string endpoint = "unix:" + dir + "/s.sock";
  std::vector<std::string> argv = {a.need("server"), "--listen", endpoint,
                                   "--tenants", a.need("tenants"),
                                   "--spool", dir + "/spool",
                                   "--journal", dir + "/journal",
                                   "--name", "perfbench"};
  if (::mkdir(dir.c_str(), 0700) != 0 ||
      ::mkdir((dir + "/spool").c_str(), 0700) != 0) {
    throw std::runtime_error("cannot create " + dir);
  }
  Service s;
  const double t0 = now();
  s.proc = std::make_unique<ServerProcess>(argv, dir + "/server.log");
  while (s.clients.empty()) {
    try {
      s.clients.push_back(std::make_unique<svc::Client>(endpoint, tenants[0]));
    } catch (const svc::Error&) {
      int st = 0;
      if (::waitpid(s.proc->pid(), &st, WNOHANG) == s.proc->pid()) {
        throw std::runtime_error("bfv_serve exited during start-up; see " +
                                 dir + "/server.log");
      }
      if (now() - t0 > 30) throw std::runtime_error("bfv_serve never listened");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    s.clients.push_back(std::make_unique<svc::Client>(endpoint, tenants[i]));
  }
  s.setup_s = now() - t0;
  return s;
}

int stopService(Service& s) {
  s.clients[0]->shutdownServer(true);
  for (auto& c : s.clients) c->bye();
  s.clients.clear();
  return s.proc->waitOrKill(30);
}

/// One scheduled submission and everything observed about it. Times are
/// harness-clock seconds; 0 = not observed.
struct Sub {
  double due = 0, sent = 0, accepted = 0, started = 0, done = 0;
  std::size_t client = 0, row = 0;
  std::uint64_t job = 0;
  bool rejected = false;
  svc::JobDone result;
  std::uint64_t updates = 0;
};

/// Everything a receiver thread touches, guarded by one mutex.
struct LoadState {
  std::mutex mu;
  std::vector<Sub> subs;
  std::vector<std::vector<std::size_t>> by_tag;  // client -> tag-1 -> sub
  std::size_t outstanding = 0, backlog_max = 0;
  std::string error;
};

void receiveLoop(svc::Client& c, std::size_t client, std::size_t expected,
                 LoadState& st) {
  std::map<std::uint64_t, std::size_t> by_job;
  std::size_t finished = 0;
  try {
    while (finished < expected) {
      std::optional<svc::Event> ev = c.next(60.0);
      const double t = now();
      if (!ev.has_value()) throw std::runtime_error("server closed session");
      std::lock_guard<std::mutex> lock(st.mu);
      if (const auto* acc = std::get_if<svc::Accepted>(&*ev)) {
        const std::size_t i = st.by_tag[client].at(acc->tag - 1);
        st.subs[i].accepted = t;
        st.subs[i].job = acc->job;
        by_job[acc->job] = i;
      } else if (const auto* rej = std::get_if<svc::Rejected>(&*ev)) {
        st.subs[st.by_tag[client].at(rej->tag - 1)].rejected = true;
        ++finished;
        --st.outstanding;
      } else if (const auto* js = std::get_if<svc::JobStarted>(&*ev)) {
        Sub& s = st.subs[by_job.at(js->job)];
        if (s.started == 0) s.started = t;
      } else if (const auto* up = std::get_if<svc::IterationUpdate>(&*ev)) {
        ++st.subs[by_job.at(up->job)].updates;
      } else if (const auto* d = std::get_if<svc::JobDone>(&*ev)) {
        Sub& s = st.subs[by_job.at(d->job)];
        s.done = t;
        s.result = *d;
        ++finished;
        --st.outstanding;
      } else if (const auto* we = std::get_if<svc::WireError>(&*ev)) {
        throw std::runtime_error("wire error: " + we->message);
      }
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.error = e.what();
  }
}

/// Pump events until the StatsReply arrives.
std::string fetchStats(svc::Client& c) {
  c.queryStats(svc::StatsQuery::kIncludeMetrics);
  for (;;) {
    std::optional<svc::Event> ev = c.next(60.0);
    if (!ev.has_value()) throw std::runtime_error("no stats reply");
    if (const auto* r = std::get_if<svc::StatsReply>(&*ev)) return r->json;
  }
}

/// Each distinct row taken apart per layer once (tracedRow), then timed
/// in-process (plain, checkpointing every iteration, streaming through
/// on_iteration), through a WorkerPool, and through client -> bfv_serve
/// one at a time; median of `reps` each.
std::string threeWay(const std::vector<Row>& rows, svc::Client& c,
                     const std::string& dir, SpanLog& spans, int reps) {
  std::vector<std::string> out;
  run::WorkerPool pool(1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const run::JobSpec& base = rows[i].spec;
    const std::string job = base.displayName();
    JsonObject o = tracedRow(base, spans);
    o.add("row", static_cast<std::uint64_t>(i));
    run::JobSpec ckpt = base;
    ckpt.opts.checkpoint_every = 1;
    ckpt.opts.checkpoint_path = dir + "/threeway.ckpt";
    run::JobSpec iter = base;
    iter.opts.on_iteration = [](const obs::IterationRecord&) {};
    std::vector<double> plain, ck, it, pl, ex;
    for (int r = 0; r < reps; ++r) {
      plain.push_back(timedJob(spans, "run.executeJob", base).second);
      ck.push_back(timedJob(spans, "run.executeJob.ckpt", ckpt).second);
      it.push_back(timedJob(spans, "run.executeJob.iter", iter).second);
      double t0 = now();
      {
        const Scoped s(spans, "run.WorkerPool", -1, job);
        pool.submit(base).get();
      }
      pl.push_back(now() - t0);
      const Scoped s(spans, "svc.Client.job", -1, job);
      const std::uint64_t tag = c.submit(rows[i].line);
      const std::optional<std::uint64_t> id = c.awaitAdmission(tag);
      if (!id.has_value()) throw std::runtime_error("rejected: " + job);
      ex.push_back(c.awaitDone(*id).seconds);
    }
    o.addRaw("plain_s", num(median(plain)))
        .addRaw("ckpt_s", num(median(ck)))
        .addRaw("iter_s", num(median(it)))
        .addRaw("pool_s", num(median(pl)))
        .addRaw("svc_exec_s", num(median(ex)));
    out.push_back(o.str());
  }
  ::unlink((dir + "/threeway.ckpt").c_str());
  return jsonArray(out);
}

int cmdSvc(const Args& a) {
  const std::vector<Row> rows = loadRows(a.need("lines"));
  const bool traced = a.number("trace", 0) != 0;
  const std::string workdir = a.need("workdir");
  std::vector<std::string> tenants;
  for (const svc::TenantConfig& t : svc::parseTenantsFile(a.need("tenants"))) {
    tenants.push_back(t.name);
  }
  if (tenants.empty()) throw std::runtime_error("no tenants");

  // Schedule: "<due-seconds> <tenant-index> <row-index>" per line.
  LoadState st;
  {
    std::istringstream in(readFile(a.need("schedule")));
    Sub s;
    while (in >> s.due >> s.client >> s.row) {
      if (s.client >= tenants.size() || s.row >= rows.size()) {
        throw std::runtime_error("schedule entry out of range");
      }
      st.subs.push_back(s);
    }
  }
  if (st.subs.empty()) throw std::runtime_error("empty schedule");

  // Eight throw-away servers, then the one that takes the load: the
  // set-up time is the median of the nine.
  std::vector<double> setup;
  for (int i = 1; i < 9; ++i) {
    Service warmup = startService(a, tenants, workdir + "/setup" +
                                                  std::to_string(i));
    setup.push_back(warmup.setup_s);
    if (stopService(warmup) != 0) {
      throw std::runtime_error("bfv_serve did not stop cleanly");
    }
  }
  const std::string dir = workdir + "/load";
  Service server = startService(a, tenants, dir);
  setup.push_back(server.setup_s);

  SpanLog spans(traced);
  std::vector<std::size_t> expected(tenants.size(), 0);
  st.by_tag.assign(tenants.size(), {});
  for (const Sub& s : st.subs) ++expected[s.client];
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < tenants.size(); ++c) {
    receivers.emplace_back(receiveLoop, std::ref(*server.clients[c]), c,
                           expected[c], std::ref(st));
  }
  // Open loop: every submission goes out at its due time, whatever the
  // server is doing.
  const double t0 = now();
  for (std::size_t i = 0; i < st.subs.size(); ++i) {
    double due = 0;
    std::size_t client = 0;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      due = t0 + st.subs[i].due;
      client = st.subs[i].client;
    }
    const double wait = due - now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.subs[i].due = due;
      st.subs[i].sent = now();
      st.by_tag[client].push_back(i);
      st.backlog_max = std::max(st.backlog_max, ++st.outstanding);
    }
    try {
      server.clients[client]->submit(rows[st.subs[i].row].line);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(st.mu);
      st.error = std::string("submit: ") + e.what();
      break;
    }
  }
  for (std::thread& t : receivers) t.join();
  if (!st.error.empty()) throw std::runtime_error(st.error);

  const std::string stats = fetchStats(*server.clients[0]);
  const long server_rss_kb = procPeakRssKb(server.proc->pid());

  std::vector<std::string> jobs;
  for (const Sub& s : st.subs) {
    const std::string job = rows[s.row].spec.displayName();
    if (traced && !s.rejected) {
      const int root = spans.add("svc.job", -1, job, s.due, s.done);
      spans.add("loadgen.late", root, job, s.due, s.sent);
      spans.add("svc.admit", root, job, s.sent, s.accepted);
      spans.add("svc.dispatch", root, job, s.accepted, s.started);
      spans.add("svc.exec", root, job, s.started, s.done);
    }
    JsonObject o;
    o.add("row", static_cast<std::uint64_t>(s.row))
        .add("tenant", tenants[s.client])
        .add("rejected", s.rejected)
        .add("status", s.result.status)
        .addRaw("states", num(s.result.states))
        .add("iterations", s.result.iterations)
        .addRaw("due", num(s.due - t0))
        .addRaw("sent", num(s.sent - t0))
        .addRaw("accepted", num(s.accepted - t0))
        .addRaw("started", num(s.started - t0))
        .addRaw("done", num(s.done - t0))
        .addRaw("seconds", num(s.result.seconds))
        .addRaw("queue_seconds", num(s.result.queue_seconds))
        .add("attempts", s.result.attempts)
        .add("updates", s.updates);
    jobs.push_back(o.str());
  }

  JsonObject doc;
  doc.add("mode", "svc").add("trace", traced ? 1 : 0);
  doc.addRaw("build", buildJson()).addRaw("setup_s", numArray(setup));
  doc.addRaw("jobs", jsonArray(jobs));
  doc.add("backlog_max", static_cast<std::uint64_t>(st.backlog_max));
  doc.addRaw("stats", stats);
  doc.add("peak_rss_kb", static_cast<std::uint64_t>(server_rss_kb));
  if (traced) {
    doc.addRaw("threeway", threeWay(rows, *server.clients[0], dir, spans, 5));
    doc.addRaw("spans", spans.json());
  }
  const int rc = stopService(server);
  if (rc != 0) throw std::runtime_error("bfv_serve did not stop cleanly");
  writeFile(a.need("out"), doc.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: see harness.cpp");
    const std::string cmd = argv[1];
    if (cmd == "reference") return cmdReference(argc, argv);
    requireReleaseBuild();
    svc::ignoreSigpipe();
    if (cmd == "setup") {
      std::printf("%.9f\n", inprocSetupOnce());
      return 0;
    }
    if (cmd == "peak") return cmdPeak(parseArgs(argc, argv));
    if (cmd == "inproc") return cmdInproc(parseArgs(argc, argv));
    if (cmd == "svc") return cmdSvc(parseArgs(argc, argv));
    throw std::runtime_error("unknown mode " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
