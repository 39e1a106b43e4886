// Common interface of the three reachability engines:
//
//  * TrReach  — characteristic-function flow with (partitioned) transition
//               relations and IWLS95-style early quantification: the VIS
//               baseline of Table 2.
//  * CbmReach — the Coudert/Berthet/Madre flow of Fig. 1: symbolic
//               simulation for images, but every set operation on the
//               characteristic function, paying the BFV<->chi conversions.
//  * BfvReach — the paper's flow of Fig. 2: symbolic simulation,
//               re-parameterization and set union directly on Boolean
//               functional vectors (or their conjunctive decomposition).
//
// All engines run under a time/node budget and report the paper's metrics:
// wall-clock seconds and peak live BDD nodes, plus iteration counts and the
// size of the final reached set in both representations.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "bfv/bfv.hpp"
#include "cdec/cdec.hpp"
#include "obs/obs.hpp"
#include "sym/space.hpp"
#include "sym/transition.hpp"
#include "util/stats.hpp"

namespace bfvr::reach {

using bdd::Bdd;
using bdd::Manager;
using bfv::Bfv;

/// Which set-algebra backend the Fig. 2 engine uses (§2.7: with matching
/// component/BDD orders the conjunctive decomposition needs fewer BDD
/// operations).
enum class SetBackend : std::uint8_t { kBfv, kCdec };

/// Dynamic-reordering policy for a reachability run. Works alongside the
/// manager's own Config::auto_reorder trigger: `every = k` additionally
/// sifts after every k-th frontier iteration (0 = never).
struct ReorderPolicy {
  unsigned every = 0;
  bdd::ReorderMethod method = bdd::ReorderMethod::kSift;
  /// Bind each latch's interleaved (current, param) index pair as a reorder
  /// group, so any reordering — stepwise or automatic — keeps the banks
  /// interleaved and the u -> v renaming order-preserving.
  bool group_state_pairs = true;
};

/// Mid-run state decoded from a checkpoint file (io::load, resumeReach).
/// Engines read it as "the loop already completed `iteration` frontier
/// steps with this reached set and this frontier" and continue from there.
/// Exactly one representation is populated, matching the engine that wrote
/// the checkpoint.
struct ResumePoint {
  unsigned iteration = 0;
  Bdd reached_chi;  ///< TR/CBM/hybrid engines
  Bdd from_chi;
  std::optional<Bfv> reached_bfv, from_bfv;        ///< kBfv backend
  std::optional<cdec::Cdec> reached_cdec, from_cdec;  ///< kCdec backend
};

struct ReachOptions {
  Budget budget;
  /// Selection heuristic (Fig. 1/2 "Selection Heuristic" box): take the
  /// next image of the smaller of the new states (img \ reached) and the
  /// reached set. The Fig. 2 engines compute img \ reached in their own set
  /// algebra (DESIGN.md §4b item 6). When false, always take the image of
  /// the full reached set.
  bool use_frontier = true;
  /// Re-parameterization quantification schedule (BFV/CDEC engines).
  bfv::ReparamOptions reparam;
  /// Set algebra of the Fig. 2 engine.
  SetBackend backend = SetBackend::kBfv;
  /// Transition-relation clustering (TR engine).
  sym::TransitionOptions transition;
  /// Cap on iterations (0 = until fixpoint); a safety net for tests.
  unsigned max_iterations = 0;
  /// Dynamic variable reordering between frontier steps.
  ReorderPolicy reorder;
  /// Record a per-iteration obs::RunTrace (frontier size, phase split, node
  /// census, op deltas, manager events) into ReachResult::trace. Off by
  /// default: tracing adds a live-node census and a state count per
  /// iteration, which untraced runs must not pay.
  bool trace = false;
  /// Per-iteration streaming hook: invoked right after every completed
  /// frontier iteration with that iteration's record — the serving layer
  /// forwards these to clients as the run progresses. Independent of
  /// `trace`, but enables the same per-iteration census cost (live-node
  /// count + state count) that tracing pays. The callback runs on the
  /// engine's thread; it must not throw and must not call back into the
  /// manager (exceptions are swallowed defensively).
  std::function<void(const obs::IterationRecord&)> on_iteration;
  /// Snapshot the reached set + frontier to `checkpoint_path` (atomic:
  /// tmp + rename, see io/checkpoint.hpp) after every `checkpoint_every`-th
  /// frontier iteration. 0 or an empty path = never.
  unsigned checkpoint_every = 0;
  std::string checkpoint_path;
  /// Continue from a decoded checkpoint instead of the initial state. Set
  /// by resumeReach(); not owned, must outlive the run.
  const ResumePoint* resume = nullptr;
};

struct ReachResult {
  RunStatus status = RunStatus::kDone;
  /// Why the run did not complete — budget/live nodes for kMemOut, the
  /// time budget or deadline for kTimeOut, the interrupt reason for
  /// kCancelled. Empty for kDone.
  std::string message;
  unsigned iterations = 0;
  double states = 0.0;  ///< number of reachable states (when completed)
  double seconds = 0.0;
  /// Peak live BDD nodes, sampled after every image/union step (the
  /// paper's Peak(K) metric).
  std::size_t peak_live_nodes = 0;
  /// Node count of the reached set's characteristic function (TR/CBM
  /// engines compute it anyway; BFV engines convert once at the end —
  /// outside the measured peak — for Table 3).
  std::size_t chi_nodes = 0;
  /// Shared node count of the reached set's functional vector.
  std::size_t bfv_nodes = 0;
  /// BDD operation counters accumulated over the run.
  bdd::OpStats ops;

  /// Per-iteration trace, present iff ReachOptions::trace was set. On a
  /// T.O./M.O. run the iteration that tripped the budget has no record;
  /// `iterations` still counts it.
  std::optional<obs::RunTrace> trace;

  /// Reached set, when the run completed (one of the two, per engine).
  std::optional<Bfv> reached_bfv;
  Bdd reached_chi;  // null unless computed
};

/// Characteristic-function engine (VIS-like baseline).
ReachResult reachTr(sym::StateSpace& s, const ReachOptions& opts = {});

/// Coudert/Berthet/Madre Fig. 1 engine.
ReachResult reachCbm(sym::StateSpace& s, const ReachOptions& opts = {});

/// The paper's Fig. 2 engine (BFV or conjunctive-decomposition backend).
ReachResult reachBfv(sym::StateSpace& s, const ReachOptions& opts = {});

/// "To split or to conjoin" (Moon/Kukula/Ravi/Somenzi, cited as the hybrid
/// approach in §1): a characteristic-function engine that picks, per
/// iteration, between the transition-relation image (conjoin) and the
/// recursive-splitting transition-function image (split), based on the
/// size of the from-set relative to the relation.
ReachResult reachHybrid(sym::StateSpace& s, const ReachOptions& opts = {});

/// Restart a checkpointed run: load `checkpoint_path` into the state
/// space's manager (restoring the recorded variable order), rebuild the
/// reached set and frontier, and continue the fixpoint with the engine that
/// wrote the file. The state space must be built over the same circuit and
/// initial order as the original run (same variable count; the checkpoint
/// carries the order itself). The continued run's states/iterations/status
/// are bit-identical to the uninterrupted run's: the reached-set sequence
/// depends only on the (reached, frontier) pair the file captures exactly.
/// Throws io::Error on a missing/corrupt/mismatched file.
ReachResult resumeReach(sym::StateSpace& s, const std::string& checkpoint_path,
                        const ReachOptions& opts = {});

/// Same restart from an in-memory checkpoint image (the bytes io::encode
/// produces / io::save writes) — the job-migration path of the serving
/// layer, where an evicted job's snapshot travels between workers without
/// touching the filesystem. Throws io::Error on a corrupt/mismatched image.
ReachResult resumeReach(sym::StateSpace& s, std::span<const std::uint8_t> image,
                        const ReachOptions& opts = {});

}  // namespace bfvr::reach
