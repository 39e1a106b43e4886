// Shared engine plumbing: budget enforcement, peak-live-node sampling and
// the per-iteration trace recorder behind ReachOptions::trace.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>

#include "io/checkpoint.hpp"
#include "obs/obs.hpp"
#include "reach/engine.hpp"

namespace bfvr::reach::internal {

/// Thrown inside the iteration loop when the wall-clock budget expires.
struct TimeBudgetExceeded {};

/// Samples the paper's Peak(K) metric after every major step and enforces
/// the run budget.
class RunGuard {
 public:
  RunGuard(Manager& m, const Budget& budget) : m_(m), budget_(budget) {}

  /// Record the current live node count; throw on exhausted budgets.
  /// Live never exceeds in-use, so the mark pass runs only when the in-use
  /// count is above the peak so far. Otherwise the peak cannot move, and
  /// neither can the node budget trip: the peak never passes the budget
  /// without throwing. The result equals marking on every call.
  void sample() {
    if (m_.inUseNodes() > peak_) {
      const std::size_t live = m_.liveNodeCount();
      if (live > peak_) peak_ = live;
      if (budget_.max_live_nodes != 0 && live > budget_.max_live_nodes) {
        throw bdd::NodeBudgetExceeded(budget_.max_live_nodes, live);
      }
    }
    if (budget_.max_seconds > 0.0 && timer_.seconds() > budget_.max_seconds) {
      throw TimeBudgetExceeded{};
    }
  }

  std::size_t peak() const noexcept { return peak_; }
  double seconds() const noexcept { return timer_.seconds(); }

 private:
  Manager& m_;
  Budget budget_;
  Timer timer_;
  std::size_t peak_ = 0;
};

/// Per-iteration trace recorder. Disabled (every member a near-no-op)
/// unless ReachOptions::trace is set; engines therefore call it
/// unconditionally. While enabled it also installs itself as the manager's
/// EventSink (forwarding to any previously installed sink) so GC/reorder/
/// budget events land in the trace.
class Tracer {
 public:
  Tracer(Manager& m, const ReachOptions& opts, RunGuard& guard)
      : m_(m),
        guard_(guard),
        record_(opts.trace),
        stream_(opts.on_iteration ? &opts.on_iteration : nullptr) {
    if (record_) recorder_.emplace(m, trace_.events);
  }

  /// True when iteration records are being built at all — for the result's
  /// trace (ReachOptions::trace), for live streaming (on_iteration), or
  /// both. The per-iteration census cost applies in every enabled case.
  bool enabled() const noexcept { return record_ || stream_ != nullptr; }

  /// Scoped phase attribution; a no-op scope when disabled.
  obs::PhaseTimer::Scope phase(obs::Phase p) {
    return enabled() ? timer_.scope(p) : obs::PhaseTimer::Scope(nullptr);
  }

  /// Run `f` under the given phase scope and return its result.
  template <typename F>
  decltype(auto) timed(obs::Phase p, F&& f) {
    const auto scope = phase(p);
    return std::forward<F>(f)();
  }

  /// Open iteration `iteration`'s record. `frontier` is invoked only when
  /// tracing is on; it returns {states, (shared) nodes} of the set this
  /// iteration simulates from, so untraced runs skip the counting cost.
  template <typename F>
  void beginIteration(unsigned iteration, F&& frontier) {
    if (!enabled()) return;
    cur_ = obs::IterationRecord{};
    cur_.iteration = iteration;
    const auto [states, nodes] = frontier();
    cur_.frontier_states = states;
    cur_.frontier_nodes = nodes;
    iter_ops_ = m_.stats();
    iter_phases_ = timer_.totals();
  }

  /// Close the current record: phase split, counter deltas and node census.
  /// Streams the record (ReachOptions::on_iteration) before appending it to
  /// the trace, so a client sees the iteration as soon as it completes.
  void endIteration() {
    if (!enabled()) return;
    cur_.phase_seconds = timer_.totals().since(iter_phases_);
    cur_.ops_delta = m_.stats().since(iter_ops_);
    const std::size_t live = m_.liveNodeCount();
    cur_.live_nodes = live;
    cur_.peak_nodes = std::max(guard_.peak(), live);
    if (stream_ != nullptr) {
      try {
        (*stream_)(cur_);
      } catch (...) {
        // A streaming failure (dead client, full pipe) must not abort the
        // run; the consumer notices through its own channel.
      }
    }
    if (record_) trace_.iterations.push_back(cur_);
  }

  /// Attach the collected trace to the result (uninstalling the event
  /// recorder first). Called once, after the iteration loop ends — normally
  /// or by budget exception.
  void finish(ReachResult& r) {
    if (!record_) return;
    trace_.phase_totals = timer_.totals();
    recorder_.reset();
    r.trace.emplace(std::move(trace_));
    trace_ = obs::RunTrace{};
  }

 private:
  Manager& m_;
  RunGuard& guard_;
  bool record_;
  const std::function<void(const obs::IterationRecord&)>* stream_;
  obs::PhaseTimer timer_;
  obs::RunTrace trace_;
  std::optional<obs::ScopedEventRecorder> recorder_;
  obs::IterationRecord cur_;
  bdd::OpStats iter_ops_;
  obs::PhaseSeconds iter_phases_;
};

/// The exact frontier img \ old of the Fig. 2 flow (bfv_reach.cpp), with
/// Set = Bfv or cdec::Cdec: set difference in the set algebra alone, with no
/// characteristic function over the state variables. Returns `img` itself
/// when it is disjoint from `old`; throws std::logic_error when img ⊆ old
/// (no new state — the fixpoint). Both sets range over the current (v)
/// bank of `s`.
template <class Set>
Set exactFrontier(const sym::StateSpace& s, const bfv::ReparamOptions& opts,
                  const Set& img, const Set& old);

/// Apply the run's reorder policy before the iteration loop: bind each
/// latch's (v, u) pair into a reorder group. Pairs that are not at adjacent
/// levels (the manager was reordered before this run) are left unbound.
inline void applyReorderPolicy(sym::StateSpace& s, const ReachOptions& opts) {
  if (!opts.reorder.group_state_pairs) return;
  Manager& m = s.manager();
  for (unsigned i = 0; i < s.numLatches(); ++i) {
    const unsigned pair[2] = {s.currentVar(i), s.paramVar(i)};
    if (m.levelOfVar(pair[1]) == m.levelOfVar(pair[0]) + 1) {
      m.bindVarGroup(pair);
    }
  }
}

/// Per-iteration reorder hook (called from the engines' safe point, next to
/// maybeGc()).
inline void maybeStepReorder(Manager& m, const ReachOptions& opts,
                             unsigned iteration) {
  if (opts.reorder.every != 0 && iteration % opts.reorder.every == 0) {
    m.reorder(opts.reorder.method);
  }
}

/// Whether this iteration ends with a snapshot (ReachOptions::checkpoint_*).
inline bool checkpointDue(const ReachOptions& opts, unsigned iteration) {
  return opts.checkpoint_every != 0 && !opts.checkpoint_path.empty() &&
         iteration % opts.checkpoint_every == 0;
}

/// Stamp the manager's current variable order onto the checkpoint and write
/// it. Engines call this from the post-iteration safe point — after
/// maybeStepReorder()/maybeGc() — so the recorded order is the one the next
/// iteration would run with.
inline void writeCheckpoint(Manager& m, const ReachOptions& opts,
                            io::Checkpoint c) {
  c.level2var = m.currentOrder();
  io::save(opts.checkpoint_path, c);
}

/// Runs `body` (the iteration loop) and folds budget violations into the
/// result's status; records time/peak/op metrics and, when tracing is on,
/// attaches the per-iteration trace.
template <typename Body>
ReachResult runGuarded(Manager& m, const ReachOptions& opts, Body&& body) {
  ReachResult r;
  RunGuard guard(m, opts.budget);
  Tracer tracer(m, opts, guard);
  const bdd::OpStats before = m.stats();
  try {
    body(r, guard, tracer);
    r.status = RunStatus::kDone;
  } catch (const bdd::NodeBudgetExceeded& e) {
    r.status = RunStatus::kMemOut;
    r.message = e.what();
  } catch (const TimeBudgetExceeded&) {
    r.status = RunStatus::kTimeOut;
    r.message = "time budget " + std::to_string(opts.budget.max_seconds) +
                "s exceeded";
  } catch (const bdd::Interrupted& e) {
    // Cooperative interrupt (Manager::setInterruptCheck): a job-runner
    // deadline maps to the paper's T.O. outcome, a portfolio cancellation
    // to its own status. Either way the manager stays usable for the next
    // job on this worker.
    r.status = e.reason() == bdd::Interrupted::Reason::kDeadline
                   ? RunStatus::kTimeOut
                   : RunStatus::kCancelled;
    r.message = e.what();
  }
  r.seconds = guard.seconds();
  r.peak_live_nodes = guard.peak();
  r.ops = m.stats().since(before);
  tracer.finish(r);
  return r;
}

}  // namespace bfvr::reach::internal
