// The paper's reachability flow (Fig. 2): symbolic simulation for images,
// re-parameterization and set union directly on the canonical functional
// vector — no characteristic function is ever built during the run, not
// even for the frontier img \ reached, which exactFrontier computes in the
// set algebra. The kCdec backend performs the same steps on the conjunctive
// decomposition (§2.7), using the constrain-based union.
#include <stdexcept>
#include <type_traits>

#include "reach/internal.hpp"
#include "sym/simulate.hpp"

namespace bfvr::reach {

namespace {

using cdec::Cdec;

/// Rename a canonical set (components over the u bank) onto the v bank.
/// The banks are interleaved, so the renaming preserves relative order and
/// canonicity.
Bfv toCurrent(const sym::StateSpace& s, const Bfv& u) {
  Manager& m = s.manager();
  std::vector<Bdd> out(u.comps().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = m.permute(u.comps()[i], s.permParamToCurrent());
  }
  return Bfv::fromComponents(m, s.currentVars(), std::move(out),
                             /*trusted=*/true);
}

Cdec toCurrent(const sym::StateSpace& s, const Cdec& u) {
  Manager& m = s.manager();
  std::vector<Bdd> out(u.constraints().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = m.permute(u.constraints()[i], s.permParamToCurrent());
  }
  return Cdec::fromConstraints(m, s.currentVars(), std::move(out));
}

}  // namespace

namespace internal {

// A canonical vector maps each member to itself, so with F the image's
// vector, F(v) is in old iff every test t_i holds:
//   t_i = f_i(v) XNOR g_i(F(v))     (g_i: components of old as a BFV)
//   t_i = g_i(F(v))                 (g_i: constraints of old as a CDEC)
// The new-point condition is c = NOT AND_i t_i, and the Coudert–Berthet–
// Madre range property of the generalized cofactor gives
// range(constrain(F, c)) = F(c) = img \ old. Re-parameterizing that vector
// onto the u bank with v as parameters makes the frontier canonical.
template <class Set>
Set exactFrontier(const sym::StateSpace& s, const bfv::ReparamOptions& opts,
                  const Set& img, const Set& old) {
  constexpr bool kBfv = std::is_same_v<Set, Bfv>;
  Manager& m = s.manager();
  const std::vector<unsigned>& v = s.currentVars();
  Bfv f;
  const std::vector<Bdd>* g = nullptr;
  if constexpr (kBfv) {
    f = img;
    g = &old.comps();
  } else {
    f = img.toBfv();
    g = &old.constraints();
  }
  // The image's constant components are cofactored out of g_i first
  // (constrain by a cube is the Shannon cofactor), so the compose walks
  // only the part of g_i that the image can reach. The cube is built from
  // the last current variable up: each AND is O(1) while the v bank
  // follows the level order, and at most the cube's size otherwise.
  Bdd fixed = m.one();
  std::vector<Bdd> subst(m.numVars());
  for (std::size_t i = v.size(); i-- > 0;) {
    const Bdd& fi = f.comps()[i];
    if (fi.isConst()) {
      fixed = (fi.isTrue() ? m.var(v[i]) : m.nvar(v[i])) & fixed;
    } else {
      subst[v[i]] = fi;
    }
  }
  Bdd member = m.one();
  for (std::size_t i = 0; i < v.size() && !member.isFalse(); ++i) {
    Bdd t = m.vectorCompose(m.constrain((*g)[i], fixed), subst);
    if constexpr (kBfv) t = m.xnorB(f.comps()[i], t);
    member &= t;
  }
  const Bdd fresh = ~member;
  // Disjoint from old: the image is the frontier.
  if (fresh.isTrue()) return img;
  if (fresh.isFalse()) {
    throw std::logic_error("exactFrontier: image has no new state");
  }
  std::vector<Bdd> restricted(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    restricted[i] = m.constrain(f.comps()[i], fresh);
  }
  if constexpr (kBfv) {
    return toCurrent(
        s, bfv::reparameterize(m, restricted, s.paramVars(), v, opts));
  } else {
    return toCurrent(
        s, cdec::reparameterizeCdec(m, restricted, s.paramVars(), v, opts));
  }
}

template Bfv exactFrontier(const sym::StateSpace&,
                           const bfv::ReparamOptions&, const Bfv&, const Bfv&);
template Cdec exactFrontier(const sym::StateSpace&,
                            const bfv::ReparamOptions&, const Cdec&,
                            const Cdec&);

}  // namespace internal

namespace {

/// Selection heuristic (Fig. 1/2 "Selection Heuristic" box): simulate from
/// the smaller of the exact frontier and the reached set; without
/// `use_frontier`, always from the reached set. Any `from` with
/// new ⊆ from ⊆ reached yields the same reached-set sequence.
template <class Set>
Set selectFrom(const sym::StateSpace& s, const ReachOptions& opts,
               const Set& img, const Set& old, const Set& reached) {
  if (!opts.use_frontier) return reached;
  Set frontier = internal::exactFrontier(s, opts.reparam, img, old);
  return frontier.sharedSize() < reached.sharedSize() ? frontier : reached;
}

std::vector<unsigned> simulationParams(const sym::StateSpace& s) {
  std::vector<unsigned> params = s.currentVars();
  params.insert(params.end(), s.inputVars().begin(), s.inputVars().end());
  return params;
}

void runBfvBackend(sym::StateSpace& s, const ReachOptions& opts,
                   ReachResult& r, internal::RunGuard& guard,
                   internal::Tracer& tracer) {
  Manager& m = s.manager();
  const std::vector<unsigned> params = simulationParams(s);
  internal::applyReorderPolicy(s, opts);
  Bfv reached, from;
  if (opts.resume != nullptr && opts.resume->reached_bfv.has_value()) {
    r.iterations = opts.resume->iteration;
    reached = *opts.resume->reached_bfv;
    from = *opts.resume->from_bfv;
  } else {
    reached = Bfv::point(m, s.currentVars(), s.initialBits());
    from = reached;
  }
  for (;;) {
    ++r.iterations;
    tracer.beginIteration(r.iterations, [&] {
      return std::pair{from.countStates(), from.sharedSize()};
    });
    const sym::SimResult sim = tracer.timed(
        obs::Phase::kImage, [&] { return sym::simulate(s, from.comps()); });
    guard.sample();
    // Re-parameterize onto the u bank, then rename back to the v bank.
    // img_u stays at iteration scope (its handles live exactly as long as
    // they did before tracing existed); both steps are one kReparam phase.
    const Bfv img_u = tracer.timed(obs::Phase::kReparam, [&] {
      return bfv::reparameterize(m, sim.next_state, s.paramVars(), params,
                                 opts.reparam);
    });
    guard.sample();
    const Bfv img = tracer.timed(obs::Phase::kReparam,
                                 [&] { return toCurrent(s, img_u); });
    const Bfv next = tracer.timed(obs::Phase::kUnion,
                                  [&] { return setUnion(reached, img); });
    guard.sample();
    const bool fixpoint = next == reached;
    if (!fixpoint) {
      const auto check = tracer.phase(obs::Phase::kCheck);
      from = selectFrom(s, opts, img, reached, next);
      reached = next;
    }
    tracer.endIteration();
    if (fixpoint) break;
    internal::maybeStepReorder(m, opts, r.iterations);
    m.maybeGc();
    guard.sample();
    if (internal::checkpointDue(opts, r.iterations)) {
      io::Checkpoint c;
      c.engine = "bfv";
      c.kind = io::RootKind::kBfv;
      c.iteration = r.iterations;
      c.choice_vars.assign(s.currentVars().begin(), s.currentVars().end());
      c.reached = reached.comps();
      c.frontier = from.comps();
      c.reached_empty = reached.isEmpty();
      c.frontier_empty = from.isEmpty();
      internal::writeCheckpoint(m, opts, std::move(c));
    }
    if (opts.max_iterations != 0 && r.iterations >= opts.max_iterations) {
      break;
    }
  }
  r.states = reached.countStates();
  r.bfv_nodes = reached.sharedSize();
  r.reached_bfv = reached;
  // Table 3's chi size: built once, after the measured run.
  r.reached_chi = reached.toChar();
  r.chi_nodes = m.nodeCount(r.reached_chi);
}

void runCdecBackend(sym::StateSpace& s, const ReachOptions& opts,
                    ReachResult& r, internal::RunGuard& guard,
                    internal::Tracer& tracer) {
  Manager& m = s.manager();
  const std::vector<unsigned> params = simulationParams(s);
  internal::applyReorderPolicy(s, opts);
  Cdec reached, from;
  if (opts.resume != nullptr && opts.resume->reached_cdec.has_value()) {
    r.iterations = opts.resume->iteration;
    reached = *opts.resume->reached_cdec;
    from = *opts.resume->from_cdec;
  } else {
    reached =
        Cdec::fromBfv(Bfv::point(m, s.currentVars(), s.initialBits()));
    from = reached;
  }
  for (;;) {
    ++r.iterations;
    tracer.beginIteration(r.iterations, [&] {
      return std::pair{from.countStates(), from.sharedSize()};
    });
    // Simulation needs evaluating components: derive the BFV view (two
    // cofactor operations per component).
    const Bfv from_bfv =
        tracer.timed(obs::Phase::kConvert, [&] { return from.toBfv(); });
    const sym::SimResult sim = tracer.timed(obs::Phase::kImage, [&] {
      return sym::simulate(s, from_bfv.comps());
    });
    guard.sample();
    // img_u stays at iteration scope (handle lifetimes as before tracing).
    const Cdec img_u = tracer.timed(obs::Phase::kReparam, [&] {
      return cdec::reparameterizeCdec(m, sim.next_state, s.paramVars(),
                                      params, opts.reparam);
    });
    guard.sample();
    const Cdec img_v = tracer.timed(obs::Phase::kReparam,
                                    [&] { return toCurrent(s, img_u); });
    const Cdec next = tracer.timed(obs::Phase::kUnion,
                                   [&] { return setUnion(reached, img_v); });
    guard.sample();
    const bool fixpoint = next == reached;
    if (!fixpoint) {
      const auto check = tracer.phase(obs::Phase::kCheck);
      from = selectFrom(s, opts, img_v, reached, next);
      reached = next;
    }
    tracer.endIteration();
    if (fixpoint) break;
    internal::maybeStepReorder(m, opts, r.iterations);
    m.maybeGc();
    guard.sample();
    if (internal::checkpointDue(opts, r.iterations)) {
      io::Checkpoint c;
      c.engine = "cdec";
      c.kind = io::RootKind::kCdec;
      c.iteration = r.iterations;
      c.choice_vars.assign(s.currentVars().begin(), s.currentVars().end());
      c.reached = reached.constraints();
      c.frontier = from.constraints();
      c.reached_empty = reached.isEmpty();
      c.frontier_empty = from.isEmpty();
      internal::writeCheckpoint(m, opts, std::move(c));
    }
    if (opts.max_iterations != 0 && r.iterations >= opts.max_iterations) {
      break;
    }
  }
  r.states = reached.countStates();
  r.reached_bfv = reached.toBfv();
  r.bfv_nodes = r.reached_bfv->sharedSize();
  r.reached_chi = reached.toChar();
  r.chi_nodes = m.nodeCount(r.reached_chi);
}

}  // namespace

ReachResult reachBfv(sym::StateSpace& s, const ReachOptions& opts) {
  Manager& m = s.manager();
  return internal::runGuarded(
      m, opts, [&](ReachResult& r, internal::RunGuard& guard,
                   internal::Tracer& tracer) {
        if (opts.backend == SetBackend::kBfv) {
          runBfvBackend(s, opts, r, guard, tracer);
        } else {
          runCdecBackend(s, opts, r, guard, tracer);
        }
      });
}

}  // namespace bfvr::reach
