//! Large neighborhood search (LNS): incomplete optimization for instances
//! exact branch-and-bound cannot close.
//!
//! The paper's evaluation stops where exact search stops — tens of VMs,
//! small wireless grids — because every solver invocation re-proves
//! optimality from scratch. LNS trades the optimality proof for scale: take
//! an incumbent from a bounded exact dive, then loop **destroy** (unfix a
//! subset of the decision variables) / **repair** (re-solve the resulting
//! sub-problem under the obligation to strictly improve), keeping the best
//! assignment seen. Each iteration touches only a neighborhood of the
//! incumbent, so the cost per iteration stays bounded as the instance grows.
//!
//! # The destroy/repair contract against trail levels
//!
//! The driver leans directly on the trail store's O(changes) backtracking —
//! no per-iteration copies of the domain vector are ever made:
//!
//! 1. **Frozen root.** Once, at the start of the run, the store is reset to
//!    the model's root domains and propagated at trail level 0. Level-0
//!    mutations are permanent, so this root fixpoint is computed exactly
//!    once for the whole LNS run.
//! 2. **Freeze.** Every iteration opens one trail level
//!    ([`crate::Store::push_choice`]), tightens the objective to *strictly
//!    better than the incumbent*, and re-asserts the incumbent value of
//!    every *kept* (non-destroyed) decision variable, in one batch
//!    propagated once. A conflict here means the kept set pins a variable
//!    that must change for any improvement — the batch is undone and
//!    replayed one assignment at a time to find it, the iteration is
//!    abandoned and, under [`DestroyStrategy::ConflictGuided`], the
//!    offending variable is force-destroyed next round.
//! 3. **Repair.** A bounded first-fail exact search
//!    (`search::resolve_subtree`, private) runs below the freeze level, with
//!    the incumbent objective seeded as its branch-and-bound bound and a
//!    fail budget drawn from a geometric restart schedule
//!    ([`crate::restart::GeometricRestarts`]): the budget grows while
//!    repairs come back empty and resets on improvement.
//! 4. **Destroy.** Backtracking every trail level above the frozen root —
//!    the levels the repair left open plus the freeze level itself — *is*
//!    the destroy step: all kept assignments and all repair decisions vanish
//!    in O(changes), and the next iteration starts from the pristine root
//!    fixpoint.
//!
//! # Termination and optimality
//!
//! The driver checks the solve's budget (the [`crate::SearchConfig`] node,
//! fail, time, gap and solution limits) at every iteration boundary, and
//! stops at [`LnsConfig::max_iterations`]. Every dive and repair runs on a
//! child of that budget, so none can spend past it. Two situations prove
//! the incumbent *optimal* and stop with [`StopReason::Complete`]: a repair
//! with the **full** neighborhood destroyed that exhausts its search without
//! hitting a budget, and a freeze whose improving bound conflicts at the root
//! with nothing frozen. Stalled iterations grow both the fail budget and the
//! neighborhood geometrically, so in the absence of limits the driver always
//! terminates with a proof.
//!
//! # Determinism
//!
//! Neighborhood selection uses the vendored splitmix64
//! [`rand::rngs::StdRng`] seeded from [`LnsConfig::seed`]; every other
//! choice is a deterministic function of the model and configuration. Two
//! runs with the same model, configuration and seed produce identical
//! incumbent sequences and identical node/fail/iteration counters, provided
//! no wall-clock limit is set (a wall-clock limit is the one
//! schedule-dependent stopping rule; use node limits for reproducible runs).

use std::collections::BTreeSet;
use std::num::NonZeroUsize;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bounds;
use crate::budget::{Budget, Slice, StopReason};
use crate::model::{Model, VarId};
use crate::observe::{notify, SolveObserver};
use crate::restart::GeometricRestarts;
use crate::search::{
    self, solve_exact_in, Branching, Objective, SearchConfig, SearchOutcome, SearchSpace,
};
use crate::stats::SearchStats;
use crate::store::Store;

/// How [`crate::search::solve_in`] explores the search space.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SolverMode {
    /// Exact branch-and-bound (the paper's mode): proves optimality, but
    /// cost grows with the full search space.
    #[default]
    Exact,
    /// Destroy/repair large neighborhood search: returns the best incumbent
    /// found under the configured budgets. Applies to `minimize`/`maximize`
    /// objectives; satisfaction goals fall back to exact search.
    Lns(LnsConfig),
}

/// How the destroy step picks the neighborhood to unfix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DestroyStrategy {
    /// Uniform seeded-random subset of the decision variables.
    Random,
    /// Random subset, but variables whose frozen incumbent assignment
    /// conflicted with the improving bound in the previous iteration are
    /// destroyed first — they provably must change for any improvement.
    #[default]
    ConflictGuided,
}

/// Configuration of the LNS driver. The overall budget (node / fail / time
/// limits) still comes from the enclosing [`SearchConfig`]; this structure
/// only shapes how that budget is spent.
#[derive(Debug, Clone, PartialEq)]
pub struct LnsConfig {
    /// Seed of the neighborhood-selection RNG. Everything else being equal,
    /// the same seed reproduces the same run exactly.
    pub seed: u64,
    /// Fraction of the decision variables destroyed per iteration (clamped
    /// to at least one variable). Stalled iterations grow the neighborhood
    /// geometrically; an improvement snaps it back to this base.
    pub destroy_fraction: f64,
    /// Neighborhood selection policy.
    pub destroy_strategy: DestroyStrategy,
    /// Node budget of the initial exact dive that produces the first
    /// incumbent. If the dive finds nothing, it is retried with
    /// geometrically larger budgets until a first solution appears or the
    /// overall budget runs out.
    pub dive_node_limit: u64,
    /// Base fail budget of one repair search.
    pub repair_fail_base: u64,
    /// Geometric growth factor applied to the repair fail budget and the
    /// neighborhood size while iterations fail to improve.
    pub repair_growth: f64,
    /// Hard cap on destroy/repair iterations (`None` = bounded only by the
    /// enclosing search limits).
    pub max_iterations: Option<u64>,
    /// Worker threads. `None` (the default) or `Some(1)` runs this driver
    /// alone; two or more run the multi-seed portfolio of
    /// [`crate::parallel`], which is rerun-deterministic at a fixed seed.
    /// The only parallel engine: exact search is always sequential.
    pub workers: Option<NonZeroUsize>,
}

impl Default for LnsConfig {
    fn default() -> Self {
        LnsConfig {
            seed: 0xC010_93E5,
            destroy_fraction: 0.25,
            destroy_strategy: DestroyStrategy::ConflictGuided,
            dive_node_limit: 2_000,
            repair_fail_base: 64,
            repair_growth: 1.5,
            max_iterations: None,
            workers: None,
        }
    }
}

/// Tighten the objective domain to values strictly better than `best`.
fn tighten_to_improve(store: &mut Store, objective: Objective, best: i64) -> Result<bool, ()> {
    match objective {
        Objective::Minimize(o) => store.remove_above(o.index(), best.saturating_sub(1)),
        Objective::Maximize(o) => store.remove_below(o.index(), best.saturating_add(1)),
        Objective::Satisfy => Ok(false),
    }
}

/// The LNS driver under `budget`. `config` carries the heuristics, `lns`
/// the destroy/repair shape (its `workers` is not read here). Called through
/// [`crate::search::solve_in`] when [`SearchConfig::mode`] is
/// [`SolverMode::Lns`] and the objective is an optimization, and by the
/// portfolio for each worker.
pub(crate) fn solve_lns(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    budget: Budget,
    lns: &LnsConfig,
    space: &mut SearchSpace,
    observer: &mut Option<&mut dyn SolveObserver>,
) -> SearchOutcome {
    let mut stats = SearchStats::default();
    // Restart events (geometric budget growths) share one counter across the
    // dive and repair phases.
    let mut restarts: u64 = 0;

    // ----- phase 1: incumbent dive(s) ---------------------------------------
    //
    // A valid warm-start assignment (carried over from the previous solver
    // invocation by the Cologne pipeline) replaces the dive entirely: it
    // becomes the frozen-root incumbent and the whole budget goes to
    // destroy/repair iterations. Otherwise a node-limited exact dive
    // produces the first incumbent; re-dives with geometrically larger
    // budgets re-explore the same deterministic prefix, which the growth
    // amortizes.
    let warm = search::validated_warm(model, objective, config);
    let mut dive_budgets = GeometricRestarts::new(lns.dive_node_limit, lns.repair_growth);
    let (mut incumbent, mut best) = if let Some((assignment, value)) = warm {
        stats.warm_start = true;
        (assignment, value)
    } else {
        loop {
            // The dive keeps the gap limit (and `bound_mode`), so it may
            // gap-terminate; the first iteration boundary below then stops
            // the driver at once.
            let slice = Slice {
                nodes: Some(dive_budgets.budget()),
                gap: true,
                ..Slice::default()
            };
            let child = budget.child(&stats, slice);
            let mut dive = solve_exact_in(model, objective, config, child, space, &mut *observer);
            stats.merge(&dive.stats);
            let stop = match dive.stop {
                // A proof (optimum or infeasibility), a cancellation or the
                // solution cap ends the solve.
                stop @ (StopReason::Complete | StopReason::Cancelled | StopReason::Solutions) => {
                    stop
                }
                _ => {
                    if let (Some(assignment), Some(value)) = (dive.best.take(), dive.best_objective)
                    {
                        break (assignment, value);
                    }
                    // No incumbent yet: stop if the solve's own budget ran
                    // out, else re-dive with a larger slice.
                    if let Some(stop) = budget.check(&stats, true) {
                        stop
                    } else {
                        dive_budgets.grow();
                        restarts += 1;
                        if !notify(&mut *observer, |o| {
                            o.on_restart(restarts, dive_budgets.budget())
                        }) {
                            continue;
                        }
                        StopReason::Cancelled
                    }
                }
            };
            let outcome = SearchOutcome {
                solutions: dive.best.iter().cloned().collect(),
                best: dive.best,
                best_objective: dive.best_objective,
                stats,
                stop,
                certificate: dive.certificate,
            };
            return budget.finish(outcome, observer);
        }
    };

    // ----- phase 2: destroy / repair from a frozen root ---------------------
    let mut certificate = None;
    let stop = 'search: {
        space.frames.clear();
        space.values.clear();
        space.store.reset_from(model.domains());
        if model
            .propagate_in(&mut space.store, &mut space.queue, &mut stats, None)
            .is_err()
        {
            // Unreachable in practice (the dive found a solution through this
            // very fixpoint), but degrade gracefully: keep the incumbent.
            break 'search StopReason::Iterations;
        }

        // The dual bound of this LNS run, computed against the frozen-root
        // fixpoint every iteration searches below. Overwrites whatever a dive
        // recorded (same root, same engines — same bound) and refreshes the
        // gap against the current incumbent on every improvement below.
        certificate = bounds::compute_root_bound(model, objective, config, space.store.domains());
        if let Some(cert) = &certificate {
            stats.dual_bound = Some(cert.dual_bound);
            stats.gap = Some(bounds::optimality_gap(objective, best, cert.dual_bound));
        }

        // The neighborhood pool: marked decision variables, or every variable
        // when the model marks none — in both cases restricted to variables
        // the root fixpoint leaves unfixed (the rest can never move).
        let candidates: Vec<usize> = if model.decision_vars().is_empty() {
            (0..model.num_vars())
                .filter(|&i| !space.store.domain(i).is_fixed())
                .collect()
        } else {
            model
                .decision_vars()
                .iter()
                .map(|v| v.index())
                .filter(|&i| !space.store.domain(i).is_fixed())
                .collect()
        };
        if candidates.is_empty() {
            break 'search StopReason::Iterations;
        }

        let mut rng = StdRng::seed_from_u64(lns.seed);
        let mut repair_budgets = GeometricRestarts::new(lns.repair_fail_base, lns.repair_growth);
        let base_destroy = ((candidates.len() as f64 * lns.destroy_fraction).ceil() as usize)
            .clamp(1, candidates.len());
        let mut destroy_count = base_destroy;
        let grow_destroy = |count: usize| {
            let scaled = (count as f64 * lns.repair_growth.max(1.0)).ceil() as usize;
            scaled.max(count + 1).min(candidates.len())
        };
        // Conflict-guided carry-over: variables whose frozen assignment
        // clashed with the improving bound last iteration.
        let mut forced: Vec<usize> = Vec::new();
        // The propagators watching the kept set, reused across iterations.
        let mut watchers: Vec<usize> = Vec::new();
        // Repairs are first-fail; the rest of the heuristics are the solve's.
        let repair_cfg = SearchConfig {
            branching: Branching::SmallestDomain,
            ..config.clone()
        };

        loop {
            if let Some(stop) = budget.check(&stats, true) {
                break 'search stop;
            }
            if lns
                .max_iterations
                .is_some_and(|m| stats.lns_iterations >= m)
            {
                break 'search StopReason::Iterations;
            }
            stats.lns_iterations += 1;

            // --- destroy selection ---
            let mut destroy: BTreeSet<usize> = BTreeSet::new();
            if lns.destroy_strategy == DestroyStrategy::ConflictGuided {
                destroy.extend(forced.iter().copied().take(destroy_count));
            }
            forced.clear();
            while destroy.len() < destroy_count {
                destroy.insert(candidates[rng.gen_range(0..candidates.len())]);
            }

            // --- freeze: improving bound + incumbent values on the kept set ---
            space.store.push_choice();
            // The store is at the frozen-root fixpoint and the tightening only
            // touches the objective, so seeding its watchers reaches the same
            // fixpoint as seeding every propagator (the exact searcher's
            // bound-seed argument).
            let bounded = match tighten_to_improve(&mut space.store, objective, best) {
                Err(()) => false,
                Ok(false) => true,
                Ok(true) => {
                    let seed = match objective {
                        Objective::Minimize(o) | Objective::Maximize(o) => {
                            model.props_watching(o.index())
                        }
                        Objective::Satisfy => &[],
                    };
                    model
                        .propagate_in(&mut space.store, &mut space.queue, &mut stats, Some(seed))
                        .is_ok()
                }
            };
            // Assign the kept set at once and propagate once, seeded by its
            // watchers: propagation is monotone, so this reaches the fixpoint
            // of the one-at-a-time loop below. Only a conflict undoes the
            // batch and replays that loop, which names the variable to blame.
            let kept = || candidates.iter().filter(|i| !destroy.contains(i));
            let batched = bounded && {
                space.store.push_choice();
                watchers.clear();
                let assigned: Result<(), ()> = kept().try_for_each(|&i| {
                    if space
                        .store
                        .assign(i, incumbent.value(VarId::from_index(i)))?
                    {
                        watchers.extend_from_slice(model.props_watching(i));
                    }
                    Ok(())
                });
                let ok = assigned.is_ok()
                    && model
                        .propagate_in(
                            &mut space.store,
                            &mut space.queue,
                            &mut stats,
                            Some(&watchers),
                        )
                        .is_ok();
                if !ok {
                    space.store.backtrack();
                }
                ok
            };
            let mut frozen_ok = batched;
            if bounded && !batched {
                frozen_ok = true;
                'freeze: for &i in kept() {
                    let value = incumbent.value(VarId::from_index(i));
                    let applied = space.store.assign(i, value);
                    if applied.is_err() {
                        forced.push(i);
                        frozen_ok = false;
                        break 'freeze;
                    }
                    if applied == Ok(true)
                        && model
                            .propagate_in(
                                &mut space.store,
                                &mut space.queue,
                                &mut stats,
                                Some(model.props_watching(i)),
                            )
                            .is_err()
                    {
                        forced.push(i);
                        frozen_ok = false;
                        break 'freeze;
                    }
                }
            }
            if !frozen_ok {
                space.store.backtrack();
                if destroy.len() >= candidates.len() {
                    // Nothing was frozen, yet demanding an improvement already
                    // conflicts at the root: the incumbent is optimal.
                    break 'search StopReason::Complete;
                }
                destroy_count = grow_destroy(destroy_count);
                repair_budgets.grow();
                restarts += 1;
                let cancel = notify(&mut *observer, |o| {
                    o.on_restart(restarts, repair_budgets.budget())
                }) || notify(&mut *observer, |o| {
                    o.on_lns_iteration(stats.lns_iterations, false, Some(best))
                });
                if cancel {
                    break 'search StopReason::Cancelled;
                }
                continue;
            }

            // --- repair: bounded first-fail re-solve below the freeze level ---
            // Without a gap limit: the driver owns the root certificate and
            // checks the gap at its iteration boundaries.
            let slice = Slice {
                fails: Some(repair_budgets.budget()),
                ..Slice::default()
            };
            let mut repair = search::resolve_subtree(
                model,
                objective,
                &repair_cfg,
                budget.child(&stats, slice),
                space,
                Some(best),
                &mut *observer,
            );
            stats.merge(&repair.stats);

            // --- destroy (for the next iteration): unwind to the frozen root ---
            while space.store.level() > 0 {
                space.store.backtrack();
            }
            space.frames.clear();
            space.values.clear();

            let improved = if let (Some(assignment), Some(value)) =
                (repair.best.take(), repair.best_objective)
            {
                stats.lns_improvements += 1;
                incumbent = assignment;
                best = value;
                if let Some(dual) = stats.dual_bound {
                    stats.gap = Some(bounds::optimality_gap(objective, best, dual));
                }
                destroy_count = base_destroy;
                repair_budgets.reset();
                true
            } else {
                if repair.stop == StopReason::Complete && destroy.len() >= candidates.len() {
                    // Full neighborhood, search exhausted without a budget
                    // stop: no assignment beats the incumbent.
                    break 'search StopReason::Complete;
                }
                destroy_count = grow_destroy(destroy_count);
                repair_budgets.grow();
                restarts += 1;
                if notify(&mut *observer, |o| {
                    o.on_restart(restarts, repair_budgets.budget())
                }) {
                    break 'search StopReason::Cancelled;
                }
                false
            };
            if notify(&mut *observer, |o| {
                o.on_lns_iteration(stats.lns_iterations, improved, Some(best))
            }) {
                break 'search StopReason::Cancelled;
            }
            // Driver-level heartbeat: repairs run bounds-stripped (the root
            // certificate is the driver's), so the live gap is only visible
            // on the driver's own stats. Emitted only when a bound exists.
            if stats.dual_bound.is_some() && notify(&mut *observer, |o| o.on_progress(&stats)) {
                break 'search StopReason::Cancelled;
            }
            if repair.stop == StopReason::Cancelled {
                // An observer cancelled inside the repair search: stop the
                // driver, keeping the incumbent.
                break 'search StopReason::Cancelled;
            }
        }
    };

    let outcome = SearchOutcome {
        solutions: vec![incumbent.clone()],
        best: Some(incumbent),
        best_objective: Some(best),
        stats,
        stop,
        certificate,
    };
    budget.finish(outcome, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, SearchConfig};

    fn lns_config(seed: u64) -> SearchConfig {
        SearchConfig {
            mode: SolverMode::Lns(LnsConfig {
                seed,
                dive_node_limit: 8,
                repair_fail_base: 8,
                ..Default::default()
            }),
            node_limit: Some(5_000),
            ..Default::default()
        }
    }

    /// A balance model: `n` items of distinct weights split over two bins,
    /// minimizing the heavier bin.
    fn balance_model(n: usize) -> (Model, VarId) {
        let mut m = Model::new();
        let mut bin0 = Vec::new();
        let mut bin1 = Vec::new();
        let total: i64 = (0..n as i64).map(|i| 3 + i).sum();
        for i in 0..n as i64 {
            let pick = m.new_bool();
            m.mark_decision(pick);
            bin0.push((3 + i, pick));
            let inv = m.new_bool();
            m.linear_eq(&[(1, pick), (1, inv)], 1);
            bin1.push((3 + i, inv));
        }
        let load0 = m.linear_var(&bin0, 0);
        let load1 = m.linear_var(&bin1, 0);
        let heavier = m.max_var(&[load0, load1]);
        let _ = total;
        (m, heavier)
    }

    #[test]
    fn lns_reaches_the_exact_optimum_on_small_models() {
        let (m, obj) = balance_model(8);
        let exact = m.minimize(obj, &SearchConfig::default());
        let lns = m.minimize(obj, &lns_config(42));
        assert_eq!(lns.best_objective, exact.best_objective);
        assert!(lns.stats.lns_iterations > 0, "LNS iterations must run");
    }

    /// The incumbent chain of an LNS run, read from its event stream.
    fn incumbent_chain(m: &Model, obj: VarId, config: &SearchConfig) -> (SearchOutcome, Vec<i64>) {
        use crate::observe::{EventLog, SolveEvent};
        use crate::search::solve_in_observed;
        let mut log = EventLog::bounded(65536);
        let out = solve_in_observed(
            m,
            Objective::Minimize(obj),
            config,
            &mut SearchSpace::new(),
            Some(&mut log),
        );
        assert_eq!(log.dropped(), 0);
        let chain = log.drain().into_iter().filter_map(|e| match e {
            SolveEvent::Incumbent { objective } => objective,
            _ => None,
        });
        (out, chain.collect())
    }

    #[test]
    fn lns_improves_monotonically() {
        let (m, obj) = balance_model(10);
        let (out, objs) = incumbent_chain(&m, obj, &lns_config(7));
        for w in objs.windows(2) {
            assert!(w[1] < w[0], "incumbents must strictly improve: {objs:?}");
        }
        assert_eq!(objs.len() as u64, out.stats.solutions);
        assert_eq!(objs.last().copied(), out.best_objective);
        // The outcome keeps only the best assignment.
        assert_eq!(out.solutions, vec![out.best.clone().unwrap()]);
    }

    #[test]
    fn lns_is_deterministic_for_a_fixed_seed() {
        let run = |seed| {
            let (m, obj) = balance_model(10);
            let out = m.minimize(obj, &lns_config(seed));
            (
                out.best_objective,
                out.stats.nodes,
                out.stats.fails,
                out.stats.lns_iterations,
                out.stats.lns_improvements,
                out.stats.solutions,
            )
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn lns_proves_optimality_when_budgets_allow() {
        // Tiny model, generous budgets: the full-neighborhood repair must
        // eventually exhaust and flip `complete`.
        let (m, obj) = balance_model(4);
        let out = m.minimize(obj, &lns_config(1));
        assert_eq!(
            out.stop,
            StopReason::Complete,
            "small instance must be closed: {}",
            out.stats
        );
    }

    #[test]
    fn max_solutions_caps_the_incumbent_count() {
        // `max_solutions` means "stop improving after this many incumbents"
        // for optimization — LNS must honor it like the exact searcher does.
        let (m, obj) = balance_model(10);
        let cfg = SearchConfig {
            max_solutions: Some(2),
            ..lns_config(5)
        };
        let out = m.minimize(obj, &cfg);
        assert!(out.stats.solutions <= 2, "got {}", out.stats.solutions);
        assert!(out.best.is_some());
        let unlimited = m.minimize(obj, &lns_config(5));
        assert!(
            unlimited.stats.solutions > 2,
            "the cap must be the binding constraint in this scenario"
        );
    }

    #[test]
    fn warm_start_replaces_the_incumbent_dive() {
        let (m, obj) = balance_model(10);
        let exact = m.minimize(obj, &SearchConfig::default());
        let optimal = exact.best.clone().unwrap();
        let cfg = SearchConfig {
            warm_start: Some(optimal.clone()),
            ..lns_config(11)
        };
        let out = m.minimize(obj, &cfg);
        assert!(out.stats.warm_start);
        // starting from the optimum, no repair can improve it
        assert_eq!(out.best_objective, exact.best_objective);
        assert_eq!(out.best, Some(optimal));
        assert_eq!(out.stats.lns_improvements, 0);
        // the dive was skipped: every node explored belongs to repairs, and
        // the driver proves optimality once the full neighborhood exhausts
        assert_eq!(out.stop, StopReason::Complete, "{}", out.stats);
    }

    #[test]
    fn invalid_warm_start_falls_back_to_the_dive() {
        let (m, obj) = balance_model(10);
        let exact = m.minimize(obj, &SearchConfig::default());
        let mut broken = exact.best.clone().unwrap();
        // flip one decision without its complement: violates pick + inv == 1
        broken.values[0] = 1 - broken.values[0];
        let cfg = SearchConfig {
            warm_start: Some(broken),
            ..lns_config(11)
        };
        let out = m.minimize(obj, &cfg);
        assert!(!out.stats.warm_start);
        assert_eq!(out.best_objective, exact.best_objective);
    }

    #[test]
    fn satisfy_falls_back_to_exact() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        m.linear_ge(&[(1, x)], 2);
        let cfg = SearchConfig {
            mode: SolverMode::Lns(LnsConfig::default()),
            max_solutions: Some(1),
            ..Default::default()
        };
        let out = m.solve_all(&cfg);
        assert_eq!(out.solutions.len(), 1);
        assert_eq!(out.stats.lns_iterations, 0);
    }

    #[test]
    fn lns_emits_a_deterministic_event_stream() {
        use crate::observe::{EventLog, SolveEvent};
        use crate::search::{solve_in_observed, SearchSpace};
        let run = |seed| {
            let (m, obj) = balance_model(10);
            let mut log = EventLog::bounded(65536);
            let mut space = SearchSpace::new();
            let out = solve_in_observed(
                &m,
                Objective::Minimize(obj),
                &lns_config(seed),
                &mut space,
                Some(&mut log),
            );
            assert_eq!(log.dropped(), 0);
            (out.best_objective, log.drain())
        };
        let (b1, e1) = run(3);
        let (b2, e2) = run(3);
        assert_eq!(b1, b2);
        assert_eq!(e1, e2, "same seed must replay the same event sequence");
        assert!(e1
            .iter()
            .any(|e| matches!(e, SolveEvent::LnsIteration { .. })));
        assert!(e1.iter().any(|e| matches!(e, SolveEvent::Incumbent { .. })));
    }

    #[test]
    fn lns_cancellation_keeps_the_incumbent() {
        use crate::observe::EventLog;
        use crate::search::{solve_in_observed, SearchSpace};
        let (m, obj) = balance_model(10);
        let mut log = EventLog::bounded(4096).cancel_after_incumbents(1);
        let mut space = SearchSpace::new();
        let out = solve_in_observed(
            &m,
            Objective::Minimize(obj),
            &lns_config(7),
            &mut space,
            Some(&mut log),
        );
        assert!(out.stats.cancelled);
        assert_eq!(out.stop, StopReason::Cancelled);
        assert!(out.best.is_some(), "the first incumbent survives");
    }

    #[test]
    fn infeasible_model_reports_no_incumbent() {
        let mut m = Model::new();
        let x = m.new_bool();
        m.mark_decision(x);
        m.linear_ge(&[(1, x)], 5);
        let obj = m.linear_var(&[(1, x)], 0);
        let out = m.minimize(obj, &lns_config(9));
        assert!(out.best.is_none());
        assert_eq!(
            out.stop,
            StopReason::Complete,
            "root infeasibility is proved by the dive"
        );
    }
}
