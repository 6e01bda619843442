//! The multi-seed LNS portfolio: the one parallel search engine, behind
//! [`LnsConfig::workers`].
//!
//! The paper's `invokeSolver` runs one sequential Gecode search per
//! deployment node, so its parallelism is across nodes. Exact search here is
//! sequential too; splitting it across threads did not pay (README,
//! "Parallel search", has the measurements). What does pay inside one COP is
//! a portfolio of repairs, the idea behind D-LNS (Fioretto et al.): at the
//! same node budget on `acloud_scale`, two portfolio workers find markedly
//! better placements than one LNS driver.
//!
//! `solve_lns_portfolio` runs `N` copies of the sequential destroy/repair
//! driver in synchronized rounds. Each round, every worker starts from the
//! shared incumbent, runs a bounded slice of iterations with a distinct
//! derived seed (`splitmix64(seed ⊕ (round·N + worker + 1))`) and publishes
//! its result to a shared board; at the round boundary the coordinator
//! adopts the best published incumbent in a fixed reduction order (objective
//! value first, lowest worker index on ties) and hands it to every worker as
//! the next round's warm start. Each round hands every worker an even share
//! of what remains of the node and fail budgets, the coordinator checks the
//! solve's budget at every round boundary, and consecutive unimproved rounds
//! escalate the per-round iteration slice geometrically so the portfolio can
//! still prove completeness through full-neighborhood exhaustion. Because
//! adoption happens only at round boundaries and every per-round input is
//! derived deterministically, a seeded portfolio run is **byte-identical
//! across reruns** (modulo wall-clock fields) as long as no time limit
//! interferes.

use std::num::NonZeroUsize;
use std::sync::Mutex;

use crate::bounds::{self, BoundMode};
use crate::budget::{Budget, Slice, StopReason};
use crate::lns::LnsConfig;
use crate::model::Model;
use crate::observe::{notify, SolveObserver};
use crate::search::{
    solve_exact_in, validated_warm, Assignment, Objective, SearchConfig, SearchOutcome, SearchSpace,
};
use crate::stats::SearchStats;

/// The splitmix64 finalizer — the portfolio's seed-derivation function.
/// Statistically independent streams from consecutive inputs, no state.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Baseline LNS iterations per worker per portfolio round. Every worker
/// invocation re-establishes the frozen-root fixpoint (roughly one
/// iteration's worth of propagation), so rounds must be long enough to
/// amortize that, yet short enough that incumbent adoption at the round
/// boundary still steers the portfolio.
const PORTFOLIO_ROUND_ITERATIONS: u64 = 8;

/// Is objective value `a` strictly better than `b`?
fn better(objective: Objective, a: i64, b: i64) -> bool {
    match objective {
        Objective::Minimize(_) => a < b,
        Objective::Maximize(_) => a > b,
        Objective::Satisfy => false,
    }
}

/// Multi-seed LNS portfolio over `lns.workers ≥ 2` scoped threads in
/// synchronized rounds. See the module docs for semantics and the rerun
/// determinism guarantee.
pub(crate) fn solve_lns_portfolio(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    budget: Budget,
    lns: &LnsConfig,
    space: &mut SearchSpace,
    observer: &mut Option<&mut dyn SolveObserver>,
) -> SearchOutcome {
    let workers = lns.workers.map_or(1, NonZeroUsize::get);
    debug_assert!(workers > 1);
    debug_assert!(!matches!(objective, Objective::Satisfy));
    let warm = validated_warm(model, objective, config);
    let had_warm = warm.is_some();
    let mut incumbent: Option<(Assignment, i64)> = warm;
    let mut chain: Vec<Assignment> = Vec::new();
    let mut stats = SearchStats {
        parallel_workers: workers as u64,
        ..Default::default()
    };
    // Set when the construction dive or a round settles the solve.
    let mut settled: Option<StopReason> = None;
    let mut stall: u32 = 0;
    // The construction dive and every worker run bound-free: the coordinator
    // owns the one certificate and checks the gap at round boundaries.
    let unbounded = SearchConfig {
        bound_mode: BoundMode::Off,
        warm_start: None,
        ..config.clone()
    };

    if space.pool.len() < workers {
        space.pool.resize_with(workers, SearchSpace::new);
    }
    let mut pool = std::mem::take(&mut space.pool);

    // ----- construction: one first-leaf dive on the coordinator -------------
    //
    // Without a warm incumbent the sequential driver constructs its first
    // solution through geometrically restarted bounded dives, re-exploring
    // the same deterministic prefix on every restart. Sliced across
    // portfolio rounds that schedule can starve outright — no slice large
    // enough to reach the first leaf of a deep model — so the portfolio
    // instead dives once with the whole remaining budget, stopping at the
    // first solution, and hands it to every worker as the opening round's
    // shared incumbent.
    if incumbent.is_none() {
        let slice = Slice {
            solutions: Some(1),
            ..Slice::default()
        };
        let mut dive = solve_exact_in(
            model,
            objective,
            &unbounded,
            budget.child(&stats, slice),
            space,
            &mut *observer,
        );
        chain.append(&mut dive.solutions);
        stats.merge(&dive.stats);
        if let (Some(a), Some(v)) = (dive.best, dive.best_objective) {
            incumbent = Some((a, v));
        }
        // Stopping at the first solution is the dive's job; any other stop —
        // a proof of infeasibility, a cancel, the solve's budget running out
        // — settles the solve.
        if dive.stop != StopReason::Solutions {
            settled = Some(dive.stop);
        }
    }
    stats.solutions = chain.len() as u64;

    // One root certificate for the whole portfolio, computed on the
    // coordinator in a scratch store (worker counters stay comparable).
    let certificate = bounds::compute_at_root(model, objective, config);
    stats.dual_bound = certificate.as_ref().map(|c| c.dual_bound);

    let mut round: u64 = 0;
    let stop = loop {
        if let Some(stop) = settled {
            break stop;
        }
        // The round boundary is the deterministic synchronization point
        // where incumbents are adopted and the solve's budget is checked.
        if let (Some(dual), Some((_, v))) = (stats.dual_bound, incumbent.as_ref()) {
            stats.gap = Some(bounds::optimality_gap(objective, *v, dual));
        }
        if let Some(stop) = budget.check(&stats, true) {
            break stop;
        }
        if lns
            .max_iterations
            .is_some_and(|mi| stats.lns_iterations >= mi)
        {
            break StopReason::Iterations;
        }

        // Per-round budget slices: an even share of what remains of the node
        // and fail budgets (at most `node_floor` nodes). Consecutive
        // unimproved rounds escalate geometrically so a stalled portfolio
        // still reaches the full-neighborhood completeness proof of the
        // sequential driver.
        let escalation = 1u64 << stall.min(16);
        let node_floor = lns
            .dive_node_limit
            .saturating_mul(2)
            .max(1_000)
            .saturating_mul(escalation);
        let left = budget.remaining(&stats);
        let share = |left: Option<u64>| left.map(|l| l.div_ceil(workers as u64));
        let slice = Slice {
            nodes: Some(share(left.nodes).map_or(node_floor, |s| s.min(node_floor))),
            fails: share(left.fails),
            ..Slice::default()
        };
        let iter_slice = {
            let base = PORTFOLIO_ROUND_ITERATIONS.saturating_mul(escalation);
            match lns.max_iterations {
                None => base,
                Some(mi) => base.min(mi - stats.lns_iterations).max(1),
            }
        };

        let warm_assignment: Option<Assignment> = incumbent.as_ref().map(|(a, _)| a.clone());
        // The shared incumbent board: one slot per worker, adopted in fixed
        // worker order at the round boundary.
        let board: Mutex<Vec<Option<SearchOutcome>>> = Mutex::new(vec![None; workers]);
        std::thread::scope(|s| {
            for (w, wspace) in pool.iter_mut().take(workers).enumerate() {
                let (board, warm_assignment, unbounded) = (&board, &warm_assignment, &unbounded);
                let worker_budget = budget.child(&stats, slice);
                s.spawn(move || {
                    let worker_cfg = SearchConfig {
                        warm_start: warm_assignment.clone(),
                        ..unbounded.clone()
                    };
                    let mut worker_lns = lns.clone();
                    worker_lns.seed =
                        splitmix64(lns.seed ^ (round.wrapping_mul(workers as u64) + w as u64 + 1));
                    worker_lns.max_iterations = Some(iter_slice);
                    let mut no_obs: Option<&mut dyn SolveObserver> = None;
                    let out = crate::lns::solve_lns(
                        model,
                        objective,
                        &worker_cfg,
                        worker_budget,
                        &worker_lns,
                        wspace,
                        &mut no_obs,
                    );
                    board.lock().expect("coordinator never panics")[w] = Some(out);
                });
            }
        });
        round += 1;
        stats.portfolio_rounds += 1;

        let outcomes: Vec<SearchOutcome> = board
            .into_inner()
            .expect("worker panicked holding the board")
            .into_iter()
            .map(|o| o.expect("every worker publishes"))
            .collect();
        let consumed: u64 = outcomes.iter().map(|o| o.stats.nodes).sum();
        let mut adopted: Option<(&Assignment, i64)> = None;
        for out in &outcomes {
            // Fixed reduction order: scan in worker order, strict improvement
            // only, ties keep the earlier worker.
            if let (Some(a), Some(v)) = (&out.best, out.best_objective) {
                // `map_or(true, ..)` rather than `is_none_or`: the latter is
                // newer than the workspace MSRV.
                let beats_incumbent = incumbent
                    .as_ref()
                    .map_or(true, |(_, cur)| better(objective, v, *cur));
                let beats_candidate = adopted.map_or(true, |(_, cand)| better(objective, v, cand));
                if beats_incumbent && beats_candidate {
                    adopted = Some((a, v));
                }
            }
            // Merge worker counters deterministically (worker order). The
            // coordinator owns the incumbent chain, the solution count and
            // (through `finish`) the flags.
            stats.merge(&out.stats);
        }
        let improved = adopted.map(|(a, v)| (a.clone(), v));
        let improved_flag = improved.is_some();
        stall = if improved_flag { 0 } else { stall + 1 };
        if let Some((a, v)) = improved {
            chain.push(a.clone());
            incumbent = Some((a.clone(), v));
            if notify(observer, |o| o.on_incumbent(Some(v), &a)) {
                settled = Some(StopReason::Cancelled);
            }
        }
        stats.solutions = chain.len() as u64;
        if settled.is_none()
            && notify(observer, |o| {
                o.on_lns_iteration(
                    stats.lns_iterations,
                    improved_flag,
                    incumbent.as_ref().map(|(_, v)| *v),
                )
            })
        {
            settled = Some(StopReason::Cancelled);
        }
        let proved = outcomes.iter().any(|o| o.stop == StopReason::Complete);
        settled = settled.or(proved.then_some(StopReason::Complete));
        // Degenerate: no worker could expend a single node (there is no
        // neighborhood to destroy) — stop rather than spin.
        settled = settled.or((consumed == 0 && !improved_flag).then_some(StopReason::Iterations));
    };
    space.pool = pool;

    stats.warm_start = had_warm;
    let (best, best_objective) = match incumbent {
        Some((a, v)) => (Some(a), Some(v)),
        None => (None, None),
    };
    if let (Some(dual), Some(v)) = (stats.dual_bound, best_objective) {
        stats.gap = Some(bounds::optimality_gap(objective, v, dual));
    }
    let outcome = SearchOutcome {
        best,
        best_objective,
        solutions: chain,
        stats,
        stop,
        certificate,
    };
    budget.finish(outcome, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lns::SolverMode;
    use crate::model::VarId;
    use crate::search::solve_in;
    use crate::Model;

    /// LNS with `workers` threads and the given seed under a node budget.
    fn lns_config(workers: usize, seed: u64) -> SearchConfig {
        SearchConfig {
            mode: SolverMode::Lns(LnsConfig {
                seed,
                workers: NonZeroUsize::new(workers),
                ..Default::default()
            }),
            node_limit: Some(20_000),
            ..Default::default()
        }
    }

    /// A model with room for many incumbents: minimize a weighted sum over
    /// chained variables.
    fn chain_model(vars: usize, dom: i64) -> (Model, VarId) {
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..vars).map(|_| m.new_var(0, dom)).collect();
        for w in xs.windows(2) {
            m.linear_le(&[(1, w[0]), (-1, w[1])], 1);
        }
        let terms: Vec<(i64, VarId)> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (1 + (i as i64 % 3), x))
            .collect();
        m.linear_ge(&terms, dom);
        let obj = m.linear_var(&terms, 0);
        (m, obj)
    }

    #[test]
    fn splitmix64_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // SplitMix64 reference value for seed 0 (Steele et al.).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn workers_one_is_the_sequential_engine() {
        let (m, obj) = chain_model(10, 8);
        let solve = |workers| {
            solve_in(
                &m,
                Objective::Minimize(obj),
                &lns_config(workers, 42),
                &mut SearchSpace::new(),
            )
        };
        // `workers = 0` is `None`: the default, sequential LNS.
        let (sequential, one) = (solve(0), solve(1));
        let mut stats = (sequential.stats.clone(), one.stats.clone());
        stats.0.elapsed_micros = 0;
        stats.1.elapsed_micros = 0;
        // Bit-identical: same stats, not merely the same result.
        assert_eq!(stats.0, stats.1);
        assert_eq!(one.stats.parallel_workers, 0);
        assert_eq!(one.stats.portfolio_rounds, 0);
        assert_eq!(one.solutions, sequential.solutions);
        assert_eq!(one.best, sequential.best);
    }

    #[test]
    fn parallel_space_pool_is_reused() {
        let (m, obj) = chain_model(10, 8);
        let cfg = lns_config(4, 42);
        let mut space = SearchSpace::new();
        let first = solve_in(&m, Objective::Minimize(obj), &cfg, &mut space);
        assert!(space.pool.len() >= 4, "pool retained for reuse");
        let second = solve_in(&m, Objective::Minimize(obj), &cfg, &mut space);
        assert_eq!(first.best_objective, second.best_objective);
        assert_eq!(first.solutions, second.solutions);
    }

    #[test]
    fn lns_portfolio_is_rerun_deterministic() {
        let (m, obj) = chain_model(10, 8);
        let cfg = lns_config(4, 42);
        let a = solve_in(&m, Objective::Minimize(obj), &cfg, &mut SearchSpace::new());
        let b = solve_in(&m, Objective::Minimize(obj), &cfg, &mut SearchSpace::new());
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.best, b.best);
        assert_eq!(a.solutions, b.solutions);
        let mut sa = a.stats.clone();
        let mut sb = b.stats.clone();
        sa.elapsed_micros = 0;
        sb.elapsed_micros = 0;
        assert_eq!(sa, sb, "stats must be byte-identical modulo wall clock");
        assert_eq!(a.stats.parallel_workers, 4);
        assert!(a.stats.portfolio_rounds >= 1);
    }

    #[test]
    fn lns_portfolio_finds_a_feasible_incumbent() {
        let (m, obj) = chain_model(10, 8);
        let cfg = lns_config(2, LnsConfig::default().seed);
        let out = solve_in(&m, Objective::Minimize(obj), &cfg, &mut SearchSpace::new());
        let best = out.best.expect("feasible model");
        for p in m.propagators() {
            assert!(p.check(&|v| best.value(v)), "{} violated", p.name());
        }
        let exact = solve_in(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut SearchSpace::new(),
        );
        match (out.best_objective, exact.best_objective) {
            (Some(lns_v), Some(opt)) => assert!(lns_v >= opt, "LNS cannot beat the optimum"),
            _ => panic!("both searches find solutions"),
        }
    }
}
