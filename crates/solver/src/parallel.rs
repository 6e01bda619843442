//! Parallel search engines: spine-splitting exact branch-and-bound and a
//! multi-seed LNS portfolio, both behind [`SearchConfig::workers`].
//!
//! The paper's `invokeSolver` runs one COP per deployment node; PR 1's
//! parallelism is only *across* nodes, so a single large COP left every core
//! but one idle. This module parallelizes the search *inside* one COP while
//! keeping the reported result deterministic — identical to the sequential
//! engines, independent of thread timing.
//!
//! # Exact branch-and-bound: spine decomposition + speculate/validate
//!
//! `solve_exact_parallel` splits the search tree along its *leftmost
//! feasible spine*. The spine is the one region of the tree whose shape is
//! provably independent of the incumbent: sequential search reaches every
//! spine node before recording any solution (failed branches record
//! nothing), so each spine node's branch list is fixed by the warm-start
//! bound alone and can be precomputed. The untaken branches of the spine
//! nodes become independent *cells* — replayable decision paths — listed in
//! exactly the order sequential depth-first search completes them: the
//! deepest spine node's subtree first, then each spine level's remaining
//! branches from the bottom up.
//!
//! Splitting any deeper would be unsound for bound-dependent branching
//! heuristics (first-fail variable selection, domain bisection): inside a
//! cell, the sequential tree's shape depends on the incumbent bound at cell
//! entry, which is only known once every earlier cell has finished.
//!
//! ## The determinism contract
//!
//! The final incumbent chain (every recorded solution, in order), the best
//! assignment, the objective value and `complete` are **identical to the
//! sequential search**, for every branching/value heuristic, independent of
//! thread timing. The mechanism is speculate-validate-redo:
//!
//! * a worker picking up cell `i` snapshots its *entry bound* — the fold of
//!   the warm bound with the committed results of already-finished earlier
//!   cells — and searches the cell with that bound, exactly as the
//!   sequential searcher would;
//! * the coordinator consumes cells in sequential order, maintaining the
//!   true running bound. A speculative result is **accepted** only when its
//!   entry bound equals the sequential bound at that point (the search is
//!   then bit-for-bit what sequential would have done); otherwise the cell
//!   is **redone** on the coordinator thread with the exact bound. Workers
//!   abandon doomed speculations early: an improved committed prefix bound
//!   invalidates their entry snapshot and the searcher stops at the next
//!   poll.
//!
//! In the common case the first (deep, left) cells commit quickly and later
//! cells are picked up after the incumbent has stabilized, so speculation
//! validates and the search scales; redos are bounded by the number of
//! incumbent improvements that race a pickup.
//!
//! Observer events are sequenced on the coordinator thread from the merged
//! chain, so `on_incumbent` streams arrive in sequential order;
//! [`std::ops::ControlFlow::Break`] flips a shared cancellation flag that
//! stops every worker cooperatively.
//!
//! ## Caveats
//!
//! Only the *result* is deterministic. The merged `nodes`/`fails`/
//! `propagations`/`max_depth` counters cover the accepted runs and therefore
//! vary slightly with which speculations validated; rejected speculative
//! work shows up only in wall-clock time. [`SearchConfig::node_limit`] and
//! [`SearchConfig::fail_limit`] are accounted against shared atomic totals
//! across every run (best-effort: results are only reproducible when the
//! budget is not hit). `on_progress` heartbeats are not emitted in parallel
//! mode.
//!
//! # LNS: multi-seed portfolio
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
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::bounds::{self, BoundMode};
use crate::budget::{Budget, Shared, Slice, StopReason};
use crate::domain::Domain;
use crate::lns::LnsConfig;
use crate::model::Model;
use crate::observe::{notify, SolveObserver};
use crate::search::{
    apply_branch, node_branches, resolve_subtree_linked, solve_exact_in, validated_warm,
    warm_bound_seed, Assignment, BranchOp, Objective, SearchConfig, SearchOutcome, SearchSpace,
};
use crate::stats::SearchStats;

/// A cell worker's published result: the subtree outcome plus the entry
/// bound the speculative run observed (`None` = no incumbent yet).
type CellResult = Option<(SearchOutcome, Option<i64>)>;

/// Effective worker count of a configuration (1 = sequential).
pub(crate) fn worker_count(config: &SearchConfig) -> usize {
    config.workers.map_or(1, NonZeroUsize::get)
}

/// The splitmix64 finalizer — the portfolio's seed-derivation function.
/// Statistically independent streams from consecutive inputs, no state.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Below this node budget, parallel splitting cannot pay for itself and the
/// budget-overshoot semantics get murky; run sequentially instead.
const MIN_PARALLEL_NODE_BUDGET: u64 = 1024;

/// Stop shedding cells once the spine has produced this many per worker…
const CELLS_PER_WORKER: usize = 8;
/// …capped at this total.
const MAX_CELLS: usize = 128;
/// Hard cap on spine depth: each level sheds at least nothing (a
/// single-branch node), so degenerate chains must not descend forever.
const SPINE_MAX_LEVELS: usize = 64;

/// Baseline LNS iterations per worker per portfolio round. Every worker
/// invocation re-establishes the frozen-root fixpoint (roughly one
/// iteration's worth of propagation), so rounds must be long enough to
/// amortize that, yet short enough that incumbent adoption at the round
/// boundary still steers the portfolio.
const PORTFOLIO_ROUND_ITERATIONS: u64 = 8;

/// Optimization sense, precomputed from the [`Objective`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sense {
    Min,
    Max,
    Satisfy,
}

impl Sense {
    fn of(objective: Objective) -> Sense {
        match objective {
            Objective::Minimize(_) => Sense::Min,
            Objective::Maximize(_) => Sense::Max,
            Objective::Satisfy => Sense::Satisfy,
        }
    }

    /// Is bound `a` strictly tighter than bound `b` under this sense?
    fn better(self, a: i64, b: i64) -> bool {
        match self {
            Sense::Min => a < b,
            Sense::Max => a > b,
            Sense::Satisfy => false,
        }
    }

    /// Slot value meaning "no bound contribution".
    fn sentinel(self) -> i64 {
        match self {
            Sense::Min | Sense::Satisfy => i64::MAX,
            Sense::Max => i64::MIN,
        }
    }
}

/// Shared state of one parallel exact search: the work counters and stop
/// flag every cell budget shares, and the committed bound contribution of
/// every cell.
pub(crate) struct ExactContext {
    shared: Shared,
    /// `done[i]` flips once the coordinator has committed cell `i` (or, for
    /// solution items, from the start); `finals[i]` then holds the running
    /// sequential bound after that cell (sentinel = no contribution).
    done: Vec<AtomicBool>,
    finals: Vec<AtomicI64>,
    /// Warm-start bound seed (non-strict, offset by one), shared by every
    /// cell.
    base: Option<i64>,
    sense: Sense,
}

impl ExactContext {
    /// The bound derivable from the warm base and the *committed* cells
    /// strictly before `position`. Commits only ever tighten it, so a stale
    /// read is merely a weaker (still sound) bound; equality with the
    /// coordinator's running bound is what validates a speculation.
    fn fold_done_prefix(&self, position: usize) -> Option<i64> {
        let sentinel = self.sense.sentinel();
        let mut acc = self.base;
        for j in 0..position {
            if !self.done[j].load(Ordering::Acquire) {
                continue;
            }
            let v = self.finals[j].load(Ordering::Relaxed);
            if v == sentinel {
                continue;
            }
            acc = Some(match acc {
                Some(b) if !self.sense.better(v, b) => b,
                _ => v,
            });
        }
        acc
    }

    fn publish_final(&self, position: usize, value: Option<i64>) {
        if let Some(v) = value {
            self.finals[position].store(v, Ordering::Relaxed);
        }
        self.done[position].store(true, Ordering::Release);
    }
}

/// A worker searcher's handle onto the shared [`ExactContext`], fixed to the
/// cell it is searching and the entry bound it speculated on. The sequential
/// `Searcher` polls this (when present) for entry-bound invalidation.
pub(crate) struct SearchLink<'a> {
    ctx: &'a ExactContext,
    position: usize,
    entry: Option<i64>,
}

impl SearchLink<'_> {
    /// True once the committed prefix bound has moved past this run's entry
    /// snapshot: the speculation can no longer validate, so the searcher
    /// stops early and leaves the redo to the coordinator.
    pub(crate) fn invalidated(&self) -> bool {
        self.ctx.fold_done_prefix(self.position) != self.entry
    }
}

/// One frontier item, in sequential DFS-completion order.
#[derive(Debug, Clone)]
enum Seed {
    /// An unexplored cell: the branching decisions that reach it from the
    /// root, replayable on any store holding the propagated root state.
    Subtree(Vec<(usize, BranchOp)>),
    /// The solution terminating the spine, held at its DFS position so the
    /// merge sees it exactly where the sequential search records it.
    Solution(Assignment),
}

/// Outcome of spine enumeration.
enum Frontier {
    /// Root propagation failed (or the warm bound closed the root): the
    /// search is trivially complete with no solutions.
    Closed(SearchStats),
    /// Not enough near-root branching to occupy multiple workers.
    Sequential,
    /// A cell list worth splitting.
    Items(Vec<Seed>, SearchStats),
}

/// Unwind every open trail level, restoring the propagated root state.
fn unwind(space: &mut SearchSpace) {
    while space.store.level() > 0 {
        space.store.backtrack();
    }
}

/// Replay a cell path on a store holding the propagated (and warm-bounded)
/// root state: one trail level per decision, propagation seeded with the
/// branched variable's watchers — exactly what the sequential driver does
/// branch by branch. `Err` means the path is infeasible; the caller unwinds.
fn replay_path(
    model: &Model,
    space: &mut SearchSpace,
    path: &[(usize, BranchOp)],
    stats: &mut SearchStats,
) -> Result<(), ()> {
    for &(var_idx, op) in path {
        space.store.push_choice();
        if apply_branch(&mut space.store, var_idx, op).is_err() {
            return Err(());
        }
        if model
            .propagate_in(
                &mut space.store,
                &mut space.queue,
                stats,
                Some(model.props_watching(var_idx)),
            )
            .is_err()
        {
            return Err(());
        }
    }
    Ok(())
}

/// Tighten the objective at the (level-0) root with the warm bound seed and
/// propagate, mirroring the sequential root node entry (`tighten_bound` with
/// `best = seed`).
fn tighten_root(
    model: &Model,
    objective: Objective,
    bound: i64,
    space: &mut SearchSpace,
    stats: &mut SearchStats,
) -> Result<(), ()> {
    let (Objective::Minimize(o) | Objective::Maximize(o)) = objective else {
        return Ok(());
    };
    let idx = o.index();
    let changed = match objective {
        Objective::Minimize(_) => space.store.remove_above(idx, bound - 1)?,
        _ => space.store.remove_below(idx, bound + 1)?,
    };
    if changed
        && model
            .propagate_in(
                &mut space.store,
                &mut space.queue,
                stats,
                Some(model.props_watching(idx)),
            )
            .is_err()
    {
        return Err(());
    }
    Ok(())
}

/// The sequential `objective_bound_ok` check against a fixed bound.
fn bound_ok(objective: Objective, bound: Option<i64>, domains: &[Domain]) -> bool {
    match (objective, bound) {
        (Objective::Minimize(o), Some(b)) => domains[o.index()].min() < b,
        (Objective::Maximize(o), Some(b)) => domains[o.index()].max() > b,
        _ => true,
    }
}

/// Walk the leftmost feasible spine of the search tree — the exact nodes
/// sequential search enters before any solution can exist — shedding each
/// spine node's untaken branches as cells. Returns the cells in sequential
/// DFS-completion order: the terminal item (the subtree below the deepest
/// spine node reached, or the spine's leaf solution) first, then each spine
/// level's remaining branches from the bottom up. Uses the caller's space;
/// leaves the store unwound to the (warm-bounded) root.
fn enumerate_spine(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    warm_seed: Option<i64>,
    space: &mut SearchSpace,
    target: usize,
) -> Frontier {
    let mut stats = SearchStats::default();
    space.store.reset_from(model.domains());
    space.frames.clear();
    space.values.clear();
    if model
        .propagate_in(&mut space.store, &mut space.queue, &mut stats, None)
        .is_err()
    {
        return Frontier::Closed(stats);
    }
    if let Some(bound) = warm_seed {
        if tighten_root(model, objective, bound, space, &mut stats).is_err() {
            stats.nodes += 1;
            stats.fails += 1;
            return Frontier::Closed(stats);
        }
    }

    let mut path: Vec<(usize, BranchOp)> = Vec::new();
    // Per spine level, the branches sequential search returns to after
    // finishing everything deeper.
    let mut levels: Vec<Vec<Seed>> = Vec::new();
    let mut terminal: Option<Seed> = None;
    let mut cells = 0usize;
    loop {
        if cells + 1 >= target || path.len() >= SPINE_MAX_LEVELS {
            // Deep enough: everything below the current spine node is the
            // terminal cell (its node entry is left to the worker).
            terminal = Some(Seed::Subtree(path.clone()));
            break;
        }
        // Sequential node entry for the spine node: count it, check the
        // (warm-only) bound, pick the branching. The warm tightening itself
        // is a no-op past the root.
        stats.nodes += 1;
        stats.max_depth = stats.max_depth.max(path.len() as u64);
        if !bound_ok(objective, warm_seed, space.store.domains()) {
            stats.fails += 1;
            break;
        }
        let Some((var_idx, ops)) = node_branches(config, space.store.domains()) else {
            terminal = Some(Seed::Solution(Assignment::from_domains(
                space.store.domains(),
            )));
            break;
        };
        let mut leftovers: Vec<Seed> = Vec::new();
        let mut descended = false;
        for op in ops {
            if descended {
                let mut cell = path.clone();
                cell.pop();
                cell.push((var_idx, op));
                leftovers.push(Seed::Subtree(cell));
                cells += 1;
                continue;
            }
            // Try this branch as the spine continuation; a failure here is a
            // failure sequential search counts at the same point.
            space.store.push_choice();
            if apply_branch(&mut space.store, var_idx, op).is_err()
                || model
                    .propagate_in(
                        &mut space.store,
                        &mut space.queue,
                        &mut stats,
                        Some(model.props_watching(var_idx)),
                    )
                    .is_err()
            {
                stats.fails += 1;
                space.store.backtrack();
                continue;
            }
            path.push((var_idx, op));
            descended = true;
        }
        levels.push(leftovers);
        if !descended {
            // Every branch of this spine node failed: the node is exhausted
            // and the shed cells above already cover the rest of the tree.
            break;
        }
    }
    unwind(space);

    let subtree_cells = cells + usize::from(matches!(terminal, Some(Seed::Subtree(_))));
    if subtree_cells < 2 {
        return Frontier::Sequential;
    }
    let items: Vec<Seed> = terminal
        .into_iter()
        .chain(levels.into_iter().rev().flatten())
        .collect();
    Frontier::Items(items, stats)
}

/// Search one cell: snapshot the entry bound, replay the path onto the
/// propagated warm-bounded root, then run the trail searcher linked to the
/// shared context under a worker run of the `cells` budget. Returns the
/// outcome together with the entry snapshot the coordinator validates.
#[allow(clippy::too_many_arguments)]
fn run_position(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    cells: &Budget<'_>,
    ctx: &ExactContext,
    items: &[Seed],
    item_idx: usize,
    space: &mut SearchSpace,
) -> (SearchOutcome, Option<i64>) {
    let Seed::Subtree(path) = &items[item_idx] else {
        unreachable!("workers only drain subtree items");
    };
    let entry = ctx.fold_done_prefix(item_idx);
    let link = SearchLink {
        ctx,
        position: item_idx,
        entry,
    };
    let empty = |stats: SearchStats, stop: StopReason| SearchOutcome {
        best: None,
        best_objective: None,
        solutions: Vec::new(),
        stats,
        stop,
        certificate: None,
    };
    let mut budget = cells.worker(&ctx.shared);
    let mut pre = SearchStats::default();
    if let Some(stop) = budget.check(&pre, true) {
        return (empty(pre, stop), entry);
    }
    space.store.reset_from(model.domains());
    space.frames.clear();
    space.values.clear();
    let replayed = model
        .propagate_in(&mut space.store, &mut space.queue, &mut pre, None)
        .is_ok()
        && ctx.base.map_or(true, |seed| {
            tighten_root(model, objective, seed, space, &mut pre).is_ok()
        })
        && replay_path(model, space, path, &mut pre).is_ok();
    if !replayed {
        // Unreachable in practice: enumeration propagated the same root and
        // verified the path on this state.
        unwind(space);
        return (empty(pre, StopReason::Complete), entry);
    }
    let mut outcome = resolve_subtree_linked(model, objective, config, budget, space, entry, &link);
    unwind(space);
    outcome.stats.max_depth = outcome.stats.max_depth.saturating_add(path.len() as u64);
    outcome.stats.merge(&pre);
    (outcome, entry)
}

/// Block until the worker result for cell slot `k` is published.
fn wait_result(
    results: &Mutex<Vec<CellResult>>,
    done: &Condvar,
    k: usize,
) -> (SearchOutcome, Option<i64>) {
    let mut guard = results.lock().expect("worker panicked holding results");
    loop {
        if let Some(r) = guard[k].take() {
            return r;
        }
        guard = done.wait(guard).expect("worker panicked holding results");
    }
}

/// The sequential strict-improvement recording, re-applied over the accepted
/// per-cell solution lists in sequential order: maintains the running bound
/// speculations are validated against and releases ordered `on_incumbent`
/// events.
struct ChainMerge {
    sense: Sense,
    objective: Objective,
    bound: Option<i64>,
    chain: Vec<Assignment>,
}

impl ChainMerge {
    /// Record `a` if the sequential search would (every solution of a
    /// satisfaction search, strict improvements otherwise), counting it in
    /// `stats`. Returns why the search stops there: an observer cancel, or
    /// the solution cap of `budget`.
    fn offer(
        &mut self,
        a: &Assignment,
        stats: &mut SearchStats,
        budget: &Budget<'_>,
        observer: &mut Option<&mut dyn SolveObserver>,
    ) -> Option<StopReason> {
        let value = match self.objective {
            Objective::Minimize(o) | Objective::Maximize(o) => {
                let v = a.value(o);
                match self.bound {
                    Some(b) if !self.sense.better(v, b) => return None,
                    _ => {}
                }
                self.bound = Some(v);
                Some(v)
            }
            Objective::Satisfy => None,
        };
        self.chain.push(a.clone());
        stats.solutions += 1;
        if notify(observer, |o| o.on_incumbent(value, a)) {
            return Some(StopReason::Cancelled);
        }
        budget.solutions_done(stats)
    }
}

/// Parallel exact branch-and-bound over `config.workers ≥ 2` scoped threads.
/// See the module docs for the determinism contract.
pub(crate) fn solve_exact_parallel(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    mut budget: Budget<'_>,
    space: &mut SearchSpace,
    observer: &mut Option<&mut dyn SolveObserver>,
) -> SearchOutcome {
    let workers = worker_count(config);
    debug_assert!(workers > 1);
    let small_budget = budget
        .remaining(&SearchStats::default())
        .nodes
        .is_some_and(|n| n <= MIN_PARALLEL_NODE_BUDGET);
    if model.num_vars() == 0 || small_budget {
        return solve_exact_in(model, objective, config, budget, space, observer);
    }
    let warm = validated_warm(model, objective, config);
    let warm_seed = warm
        .as_ref()
        .and_then(|(_, value)| warm_bound_seed(objective, *value));
    let sense = Sense::of(objective);
    let target = (workers * CELLS_PER_WORKER).min(MAX_CELLS);
    // One certificate for the whole parallel search, computed on the
    // coordinator against the propagated root in a scratch store so the
    // merged propagation counters stay comparable to the sequential run.
    let certificate = bounds::compute_at_root(model, objective, config);

    let (items, mut stats) =
        match enumerate_spine(model, objective, config, warm_seed, space, target) {
            Frontier::Closed(mut stats) => {
                stats.warm_start = warm.is_some();
                let (best, best_objective) = match warm {
                    Some((a, v)) => (Some(a), Some(v)),
                    None => (None, None),
                };
                stats.dual_bound = certificate.as_ref().map(|c| c.dual_bound);
                if let (Some(dual), Some(v)) = (stats.dual_bound, best_objective) {
                    stats.gap = Some(bounds::optimality_gap(objective, v, dual));
                }
                let outcome = SearchOutcome {
                    best,
                    best_objective,
                    solutions: Vec::new(),
                    stats,
                    stop: StopReason::Complete,
                    certificate,
                };
                return budget.finish(outcome, observer);
            }
            Frontier::Sequential => {
                return solve_exact_in(model, objective, config, budget, space, observer)
            }
            Frontier::Items(items, stats) => (items, stats),
        };

    stats.warm_start = warm.is_some();
    stats.parallel_workers = workers as u64;
    stats.dual_bound = certificate.as_ref().map(|c| c.dual_bound);
    if let (Some(dual), Some((_, v))) = (stats.dual_bound, warm.as_ref()) {
        // Mirror the sequential searcher: a validated warm assignment is a
        // real primal, so the gap is live before any cell finishes.
        stats.gap = Some(bounds::optimality_gap(objective, *v, dual));
    }
    let positions: Vec<usize> = items
        .iter()
        .enumerate()
        .filter_map(|(i, s)| matches!(s, Seed::Subtree(_)).then_some(i))
        .collect();
    stats.subtrees = positions.len() as u64;

    let ctx = ExactContext {
        shared: Shared {
            cancel: AtomicBool::new(false),
            nodes: AtomicU64::new(stats.nodes),
            fails: AtomicU64::new(stats.fails),
        },
        done: (0..items.len()).map(|_| AtomicBool::new(false)).collect(),
        finals: (0..items.len())
            .map(|_| AtomicI64::new(sense.sentinel()))
            .collect(),
        base: warm_seed,
        sense,
    };
    // Cells run without a gap limit: the coordinator owns the certificate
    // and checks the gap at cell commits, where the global incumbent lives.
    let cells = budget.child(&SearchStats::default(), Slice::default());
    // The spine solution (if any) is known upfront: commit it immediately so
    // cell speculations prune against it from the start.
    for (i, item) in items.iter().enumerate() {
        if let Seed::Solution(a) = item {
            let value = match objective {
                Objective::Minimize(o) | Objective::Maximize(o) => Some(a.value(o)),
                Objective::Satisfy => None,
            };
            ctx.publish_final(i, value);
        }
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<CellResult>> = Mutex::new(vec![None; positions.len()]);
    let slot_filled = Condvar::new();

    if space.pool.len() < workers {
        space.pool.resize_with(workers, SearchSpace::new);
    }
    let mut pool = std::mem::take(&mut space.pool);

    let mut merge = ChainMerge {
        sense,
        objective,
        bound: warm_seed,
        chain: Vec::new(),
    };
    // Set once the search must stop: an observer cancel or the solution cap
    // while merging, a cell stopped by the shared budget, or the solve's
    // budget checked at a cell commit. Commit order is sequential, so the
    // decision — and the reported incumbent — is rerun-deterministic.
    let mut stop: Option<StopReason> = None;

    std::thread::scope(|s| {
        let cells = &cells;
        for wspace in pool.iter_mut().take(workers) {
            let (ctx, items, positions, next, results, slot_filled) =
                (&ctx, &items, &positions, &next, &results, &slot_filled);
            s.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= positions.len() {
                    break;
                }
                let out = run_position(
                    model,
                    objective,
                    config,
                    cells,
                    ctx,
                    items,
                    positions[k],
                    wspace,
                );
                let mut guard = results.lock().expect("coordinator never panics");
                guard[k] = Some(out);
                slot_filled.notify_all();
            });
        }
        // Coordinator: commit cells in sequential order. Once stopped, keep
        // draining every slot (workers wind down on the shared stop flag and
        // every slot must fill) without committing anything.
        let mut cursor = 0usize;
        for (idx, item) in items.iter().enumerate() {
            match item {
                Seed::Solution(a) => {
                    if stop.is_none() {
                        stop = merge.offer(a, &mut stats, &budget, observer);
                    }
                }
                Seed::Subtree(_) => {
                    let (outcome, entry) = wait_result(&results, &slot_filled, cursor);
                    cursor += 1;
                    if stop.is_some() {
                        continue;
                    }
                    let mut accepted = if entry == merge.bound {
                        outcome
                    } else {
                        // The speculation raced an incumbent improvement:
                        // redo the cell with the exact sequential entry
                        // bound. Every earlier cell is committed, so the
                        // fresh snapshot equals the running bound and the
                        // redo cannot be invalidated.
                        let (redo, redo_entry) =
                            run_position(model, objective, config, cells, &ctx, &items, idx, space);
                        debug_assert_eq!(redo_entry, merge.bound);
                        redo
                    };
                    // The chain counts the solutions the merge keeps.
                    accepted.stats.solutions = 0;
                    stats.merge(&accepted.stats);
                    for a in &accepted.solutions {
                        stop = stop.or_else(|| merge.offer(a, &mut stats, &budget, observer));
                    }
                    ctx.publish_final(idx, merge.bound);
                    stop =
                        stop.or((accepted.stop != StopReason::Complete).then_some(accepted.stop));
                    // The primal must be a real solution: the committed
                    // chain's objective, or the warm value before any cell
                    // produced one (`merge.bound` alone would be the
                    // off-by-one warm *seed*).
                    let primal = if merge.chain.is_empty() {
                        warm.as_ref().map(|(_, v)| *v)
                    } else {
                        merge.bound
                    };
                    if let (Some(cert), Some(p)) = (certificate.as_ref(), primal) {
                        stats.gap = Some(bounds::optimality_gap(objective, p, cert.dual_bound));
                    }
                    stop = stop.or_else(|| budget.check(&stats, true));
                }
            }
            if stop.is_some() {
                ctx.shared.cancel.store(true, Ordering::Relaxed);
            }
        }
    });
    space.pool = pool;

    let (mut best, mut best_objective) = match sense {
        Sense::Satisfy => (merge.chain.first().cloned(), None),
        Sense::Min | Sense::Max => (merge.chain.last().cloned(), merge.bound),
    };
    if best.is_none() {
        // No recorded solution: fall back to the warm assignment, exactly
        // like the sequential `finish_with_warm`.
        if let Some((a, v)) = warm {
            best = Some(a);
            best_objective = Some(v);
        } else {
            best_objective = None;
        }
    }
    if let (Some(cert), Some(v)) = (certificate.as_ref(), best_objective) {
        stats.gap = Some(bounds::optimality_gap(objective, v, cert.dual_bound));
    }
    let outcome = SearchOutcome {
        best,
        best_objective,
        solutions: merge.chain,
        stats,
        stop: stop.unwrap_or(StopReason::Complete),
        certificate,
    };
    budget.finish(outcome, observer)
}

/// Multi-seed LNS portfolio over `config.workers ≥ 2` scoped threads in
/// synchronized rounds. See the module docs for semantics and the rerun
/// determinism guarantee.
pub(crate) fn solve_lns_portfolio(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    mut budget: Budget<'_>,
    lns: &LnsConfig,
    space: &mut SearchSpace,
    observer: &mut Option<&mut dyn SolveObserver>,
) -> SearchOutcome {
    let workers = worker_count(config);
    debug_assert!(workers > 1);
    debug_assert!(!matches!(objective, Objective::Satisfy));
    let sense = Sense::of(objective);
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
                    .map_or(true, |(_, cur)| sense.better(v, *cur));
                let beats_candidate = adopted.map_or(true, |(_, cand)| sense.better(v, cand));
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
    use crate::search::{solve_in, Branching, ValueChoice};
    use crate::Model;

    fn workers(n: usize) -> Option<NonZeroUsize> {
        NonZeroUsize::new(n)
    }

    /// A model with enough near-root branching to split: minimize a weighted
    /// sum over chained variables.
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
    fn parallel_minimize_matches_sequential_chain() {
        let (m, obj) = chain_model(8, 6);
        let sequential = solve_in(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut SearchSpace::new(),
        );
        for n in [2usize, 4] {
            let cfg = SearchConfig {
                workers: workers(n),
                ..Default::default()
            };
            let par = solve_in(&m, Objective::Minimize(obj), &cfg, &mut SearchSpace::new());
            assert_eq!(par.best_objective, sequential.best_objective, "workers={n}");
            assert_eq!(par.best, sequential.best, "workers={n}");
            assert_eq!(par.solutions, sequential.solutions, "workers={n}");
            assert_eq!(par.stop, sequential.stop, "workers={n}");
            assert_eq!(par.stats.solutions, sequential.stats.solutions);
            assert_eq!(par.stats.parallel_workers, n as u64);
            assert!(par.stats.subtrees >= 2);
        }
    }

    #[test]
    fn parallel_maximize_and_heuristics_match_sequential() {
        for branching in [Branching::InputOrder, Branching::SmallestDomain] {
            for value_choice in [ValueChoice::Min, ValueChoice::ClosestToZero] {
                for split_threshold in [None, Some(2)] {
                    let (m, obj) = chain_model(7, 5);
                    let base = SearchConfig {
                        branching,
                        value_choice,
                        split_threshold,
                        ..Default::default()
                    };
                    let sequential =
                        solve_in(&m, Objective::Maximize(obj), &base, &mut SearchSpace::new());
                    let cfg = SearchConfig {
                        workers: workers(4),
                        ..base
                    };
                    let par = solve_in(&m, Objective::Maximize(obj), &cfg, &mut SearchSpace::new());
                    let ctx = format!("{branching:?}/{value_choice:?}/{split_threshold:?}");
                    assert_eq!(par.best_objective, sequential.best_objective, "{ctx}");
                    assert_eq!(par.best, sequential.best, "{ctx}");
                    assert_eq!(par.solutions, sequential.solutions, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn parallel_satisfy_matches_sequential_solution_order() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        m.linear_le(&[(1, x), (1, y)], 6);
        let sequential = solve_in(
            &m,
            Objective::Satisfy,
            &SearchConfig {
                max_solutions: Some(10),
                ..Default::default()
            },
            &mut SearchSpace::new(),
        );
        let par = solve_in(
            &m,
            Objective::Satisfy,
            &SearchConfig {
                max_solutions: Some(10),
                workers: workers(3),
                ..Default::default()
            },
            &mut SearchSpace::new(),
        );
        assert_eq!(par.solutions, sequential.solutions);
        assert_eq!(par.best, sequential.best);
    }

    #[test]
    fn parallel_solution_cap_matches_sequential() {
        let (m, obj) = chain_model(8, 6);
        let base = SearchConfig {
            max_solutions: Some(3),
            ..Default::default()
        };
        let sequential = solve_in(&m, Objective::Minimize(obj), &base, &mut SearchSpace::new());
        let par = solve_in(
            &m,
            Objective::Minimize(obj),
            &SearchConfig {
                workers: workers(4),
                ..base
            },
            &mut SearchSpace::new(),
        );
        assert_eq!(par.solutions, sequential.solutions);
        assert_eq!(par.best, sequential.best);
        assert_eq!(par.best_objective, sequential.best_objective);
        assert_eq!(par.stop, sequential.stop);
    }

    #[test]
    fn workers_one_is_the_sequential_engine() {
        let (m, obj) = chain_model(6, 4);
        let sequential = solve_in(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut SearchSpace::new(),
        );
        let one = solve_in(
            &m,
            Objective::Minimize(obj),
            &SearchConfig {
                workers: workers(1),
                ..Default::default()
            },
            &mut SearchSpace::new(),
        );
        // Bit-identical: same stats, not merely the same result.
        assert_eq!(one.stats.nodes, sequential.stats.nodes);
        assert_eq!(one.stats.fails, sequential.stats.fails);
        assert_eq!(one.stats.parallel_workers, 0);
        assert_eq!(one.solutions, sequential.solutions);
    }

    #[test]
    fn parallel_warm_start_matches_sequential() {
        let (m, obj) = chain_model(8, 6);
        let cold = solve_in(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut SearchSpace::new(),
        );
        let base = SearchConfig {
            warm_start: cold.best.clone(),
            ..Default::default()
        };
        let sequential = solve_in(&m, Objective::Minimize(obj), &base, &mut SearchSpace::new());
        let par = solve_in(
            &m,
            Objective::Minimize(obj),
            &SearchConfig {
                workers: workers(4),
                ..base
            },
            &mut SearchSpace::new(),
        );
        assert!(par.stats.warm_start);
        assert_eq!(par.best_objective, sequential.best_objective);
        assert_eq!(par.best, sequential.best);
        assert_eq!(par.solutions, sequential.solutions);
    }

    #[test]
    fn parallel_infeasible_model_is_complete_and_empty() {
        let mut m = Model::new();
        let x = m.new_var(0, 1);
        let y = m.new_var(0, 1);
        m.linear_ge(&[(1, x), (1, y)], 5);
        let par = solve_in(
            &m,
            Objective::Satisfy,
            &SearchConfig {
                workers: workers(4),
                ..Default::default()
            },
            &mut SearchSpace::new(),
        );
        assert_eq!(par.stop, StopReason::Complete);
        assert!(par.solutions.is_empty());
    }

    #[test]
    fn tiny_node_budget_falls_back_to_sequential() {
        let (m, obj) = chain_model(8, 6);
        let cfg = SearchConfig {
            workers: workers(4),
            node_limit: Some(5),
            ..Default::default()
        };
        let out = solve_in(&m, Objective::Minimize(obj), &cfg, &mut SearchSpace::new());
        assert_eq!(out.stop, StopReason::Nodes);
        assert!(out.stats.nodes <= 6);
        assert_eq!(out.stats.parallel_workers, 0, "sequential fallback");
    }

    #[test]
    fn parallel_space_pool_is_reused() {
        let (m, obj) = chain_model(8, 6);
        let cfg = SearchConfig {
            workers: workers(4),
            ..Default::default()
        };
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
        let cfg = SearchConfig {
            mode: SolverMode::Lns(LnsConfig {
                seed: 42,
                ..Default::default()
            }),
            node_limit: Some(20_000),
            workers: workers(4),
            ..Default::default()
        };
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
        let cfg = SearchConfig {
            mode: SolverMode::Lns(LnsConfig::default()),
            node_limit: Some(20_000),
            workers: workers(2),
            ..Default::default()
        };
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
