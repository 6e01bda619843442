//! Depth-first search with branch-and-bound on a trail-based store.
//!
//! This mirrors the "standard branch-and-bound searching approach" the paper
//! attributes to Gecode (Sec. 5.1): depth-first exploration, constraint
//! propagation at every node, and — for `minimize`/`maximize` goals — a
//! bound that is tightened every time an improving solution is found.
//! `SOLVER_MAX_TIME` from the paper maps to [`SearchConfig::time_limit`].
//!
//! # State management: trail instead of copy-on-branch
//!
//! The searcher keeps **one** mutable [`Store`] of domains for the whole
//! search. Entering a branch opens a decision level
//! ([`Store::push_choice`]), applies the branching decision and propagates;
//! leaving it restores every touched domain from the trail
//! ([`Store::backtrack`]) in O(changes). Nothing on the per-node path clones
//! the domain vector. The decision tree itself is walked with an explicit
//! stack of `Frame`s rather than recursion, so arbitrarily deep searches
//! (e.g. Follow-the-Sun value enumeration over wide migration domains)
//! cannot overflow the call stack, and all limit checks happen in one place
//! (`Searcher::enter_node`).
//!
//! Invariants tying the pieces together:
//!
//! * every decision frame below the root owns exactly one open trail level —
//!   the one pushed when the branch that created it was applied; popping the
//!   frame backtracks that level;
//! * before branch `i+1` of a frame is tried, the store is in exactly the
//!   state the frame was created in (its node state);
//! * branch-and-bound objective tightening happens at *node entry*, inside
//!   the node's own trail level, so it is undone with the node.
//!
//! All search allocations (store, trail, propagation queue, decision stack,
//! branch-value arena) live in a [`SearchSpace`] that callers can reuse
//! across repeated solver invocations.
//!
//! [`solve_reference`] retains the previous copy-on-branch implementation
//! (cloning the whole store at every branch). It exists to pin the trail
//! searcher's behaviour: both must produce identical incumbents, solution
//! sets and fail counts on every model.

use std::time::Duration;

use crate::bounds::{self, BoundCertificate, BoundMode};
use crate::budget::{Budget, Slice, StopReason};
use crate::domain::Domain;
use crate::lns::SolverMode;
use crate::model::{Model, VarId};
use crate::observe::{notify, SolveObserver, PROGRESS_NODE_INTERVAL};
use crate::stats::SearchStats;
use crate::store::{PropQueue, Store};

/// Variable-selection heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Branching {
    /// Branch on variables in creation order (Gecode's `INT_VAR_NONE`).
    #[default]
    InputOrder,
    /// Branch on the unfixed variable with the smallest domain first
    /// (first-fail, Gecode's `INT_VAR_SIZE_MIN`). Domain sizes are O(1)
    /// lookups on the store, so this scan is cheap even on large models.
    SmallestDomain,
}

/// Value-selection heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueChoice {
    /// Try the smallest value first (Gecode's `INT_VAL_MIN`).
    #[default]
    Min,
    /// Try the value with the smallest absolute magnitude first (ties break
    /// toward the negative value); bisection branches descend into the half
    /// nearer to zero. On cost models built from absolute values — the
    /// `SUMABS` migration objectives of the paper's Follow-the-Sun COP,
    /// where `migVm = 0` means "don't migrate" — this reaches a cheap
    /// incumbent almost immediately, so branch-and-bound prunes with a tight
    /// bound from the start instead of improving through a long chain of
    /// expensive incumbents.
    ClosestToZero,
}

/// Reorder a frame's enumeration values (produced in ascending domain
/// order) according to the configured value choice.
fn order_values(choice: ValueChoice, values: &mut [i64]) {
    match choice {
        ValueChoice::Min => {}
        ValueChoice::ClosestToZero => values.sort_by_key(|&v| (v.unsigned_abs(), v)),
    }
}

/// Which half a bisection branch explores first: `true` tries `> mid`
/// before `<= mid`.
fn split_hi_first(choice: ValueChoice, mid: i64) -> bool {
    match choice {
        // The half nearer zero: `<= mid` contains zero (or is uniformly
        // closer to it) exactly when the median is non-negative.
        ValueChoice::ClosestToZero => mid < 0,
        ValueChoice::Min => false,
    }
}

/// What the search should optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the given variable.
    Minimize(VarId),
    /// Maximize the given variable.
    Maximize(VarId),
    /// Just find satisfying assignments.
    Satisfy,
}

/// Domain size above which value enumeration falls back to domain
/// bisection, unless [`SearchConfig::split_threshold`] overrides it.
pub const DEFAULT_SPLIT_THRESHOLD: u64 = 16;

/// Search configuration; the defaults match the paper's setup (input-order
/// branching, minimum-value-first, no limits).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Exploration mode: exact branch-and-bound (the default), or large
    /// neighborhood search ([`SolverMode::Lns`]) for instances exact search
    /// cannot close. LNS applies to optimization objectives only;
    /// satisfaction goals always run exact. Exact search is sequential; only
    /// LNS runs in parallel ([`crate::LnsConfig::workers`]).
    pub mode: SolverMode,
    /// Variable selection heuristic.
    pub branching: Branching,
    /// Value selection heuristic.
    pub value_choice: ValueChoice,
    /// Domain size above which value enumeration switches to domain
    /// bisection.
    ///
    /// Enumerating a huge domain value-by-value makes the branching factor
    /// of a single node explode, so by default domains larger than
    /// [`DEFAULT_SPLIT_THRESHOLD`] are bisected instead. Set to `None` to
    /// always enumerate values, or `Some(2)` to bisect every domain of more
    /// than two values.
    pub split_threshold: Option<u64>,
    /// Wall-clock limit for the whole search (the paper's `SOLVER_MAX_TIME`).
    pub time_limit: Option<Duration>,
    /// Stop after this many failures.
    pub fail_limit: Option<u64>,
    /// Stop after this many solutions (for `Satisfy`, collect at most this
    /// many; for optimization, stop improving after this many incumbents).
    pub max_solutions: Option<usize>,
    /// Stop after this many search nodes.
    pub node_limit: Option<u64>,
    /// A known feasible assignment that seeds the search — the incremental
    /// re-optimization hook: the Cologne pipeline carries the previous
    /// invocation's best assignment (completed against the new model by
    /// [`complete_hints`]) across solver invocations.
    ///
    /// For exact optimization the warm assignment's objective value becomes
    /// the initial branch-and-bound bound, applied *non-strictly* (solutions
    /// equal to the warm objective are still accepted): the search explores
    /// the same tree as a cold run minus the subtrees that cannot match the
    /// warm objective, so with a static branching order it records the same
    /// final incumbent as the cold run while skipping most of the
    /// incumbent-discovery work. The warm assignment itself is returned only
    /// when a limit stops the search before it finds any solution. For LNS
    /// the warm assignment replaces the initial exact incumbent dive. An
    /// assignment that does not cover the model or violates a constraint is
    /// ignored (the search falls back to a cold start); `Satisfy` searches
    /// ignore warm starts entirely.
    pub warm_start: Option<Assignment>,
    /// Stop as soon as the certified optimality gap drops *strictly below*
    /// this threshold (requires [`SearchConfig::bound_mode`] ≠
    /// [`BoundMode::Off`], otherwise no gap ever exists and the limit is
    /// inert). The comparison is strict, so `Some(0.0)` never stops a search
    /// early — the gap is never negative — and such a run explores exactly
    /// the tree an unlimited run explores. Gap checks happen only at the
    /// points where budget limits are already checked, so gap-limited runs
    /// remain rerun-deterministic.
    pub gap_limit: Option<f64>,
    /// Which dual-bound engine (if any) runs at the frozen root; see
    /// [`crate::bounds`]. The default [`BoundMode::Off`] computes nothing and
    /// keeps every search byte-identical to previous releases.
    pub bound_mode: BoundMode,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            mode: SolverMode::default(),
            branching: Branching::default(),
            value_choice: ValueChoice::default(),
            split_threshold: Some(DEFAULT_SPLIT_THRESHOLD),
            time_limit: None,
            fail_limit: None,
            max_solutions: None,
            node_limit: None,
            warm_start: None,
            gap_limit: None,
            bound_mode: BoundMode::default(),
        }
    }
}

/// A complete assignment of values to all model variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub(crate) values: Vec<i64>,
}

impl Assignment {
    pub(crate) fn from_domains(domains: &[Domain]) -> Self {
        Assignment {
            values: domains.iter().map(|d| d.min()).collect(),
        }
    }

    /// Value assigned to `v`.
    pub fn value(&self, v: VarId) -> i64 {
        self.values[v.index()]
    }

    /// Values of a slice of variables.
    pub fn values_of(&self, vars: &[VarId]) -> Vec<i64> {
        vars.iter().map(|&v| self.value(v)).collect()
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the assignment covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Result of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best assignment found (for optimization), or the first solution (for
    /// satisfaction). `None` if no solution was found. A valid
    /// [`SearchConfig::warm_start`] is reported here when the search stopped
    /// before recording anything better.
    pub best: Option<Assignment>,
    /// Objective value of `best`, when optimizing.
    pub best_objective: Option<i64>,
    /// The solutions recorded, in order: every solution for `Satisfy`, the
    /// improving incumbents for exact optimization (for the LNS portfolio,
    /// the incumbents adopted at round boundaries). Sequential LNS keeps
    /// only its best assignment; [`SearchStats::solutions`] still counts
    /// every incumbent, and a [`SolveObserver`] sees each one.
    pub solutions: Vec<Assignment>,
    /// Search statistics; their `limit_reached` and `cancelled` flags are
    /// projections of `stop`.
    pub stats: SearchStats,
    /// Why the search stopped. Only [`StopReason::Complete`] proves the
    /// result: the optimum (or infeasibility) of an optimization, or every
    /// requested solution of a satisfaction search.
    pub stop: StopReason,
    /// The dual-bound certificate computed at the frozen root, when
    /// [`SearchConfig::bound_mode`] enabled one (see [`crate::bounds`]).
    /// A gap-terminated search documents its solution quality here.
    pub certificate: Option<BoundCertificate>,
}

/// How the two branches of a decision frame are generated.
#[derive(Debug, Clone, Copy)]
enum BranchKind {
    /// Branch `i` assigns the `i`-th value of the frame's arena slice.
    Values,
    /// Domain bisection at `mid`: one branch keeps `<= mid`, the other
    /// `> mid`; `hi_first` tries the upper half first
    /// ([`ValueChoice::ClosestToZero`] when the upper half is the one nearer
    /// zero).
    Split { mid: i64, hi_first: bool },
}

/// One concrete branching decision. `pub(crate)` because the relaxed bound
/// engine ([`crate::bounds`]) expands its decision diagram with
/// [`node_branches`] and applies the branches with [`apply_branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BranchOp {
    Assign(i64),
    Le(i64),
    Gt(i64),
}

/// Apply one branching decision to `store` — the single definition shared by
/// the searcher and the relaxed bound engine, so the two cannot drift apart.
pub(crate) fn apply_branch(store: &mut Store, var_idx: usize, op: BranchOp) -> Result<bool, ()> {
    match op {
        BranchOp::Assign(v) => store.assign(var_idx, v),
        BranchOp::Le(mid) => store.remove_above(var_idx, mid),
        BranchOp::Gt(mid) => store.remove_below(var_idx, mid + 1),
    }
}

/// Mirror of the searcher's per-node branching logic as a pure function of
/// the configuration and the current (propagated) domains: the variable the
/// node branches on and the ordered branch decisions it would try, or `None`
/// when every variable is fixed (the node is a solution leaf).
///
/// The relaxed bound engine uses this to expand a node into its branches; it
/// must stay in lock-step with `Searcher::enter_node` / `Frame::branch_op` so
/// that the expansion is exactly the set of branches the search would try,
/// in the same order.
pub(crate) fn node_branches(
    config: &SearchConfig,
    domains: &[Domain],
) -> Option<(usize, Vec<BranchOp>)> {
    let var_idx = select_var_with(config.branching, domains)?;
    let domain = &domains[var_idx];
    let ops = if use_split_with(config, domain.size()) {
        let mid = domain.median();
        if split_hi_first(config.value_choice, mid) {
            vec![BranchOp::Gt(mid), BranchOp::Le(mid)]
        } else {
            vec![BranchOp::Le(mid), BranchOp::Gt(mid)]
        }
    } else {
        let mut values: Vec<i64> = domain.iter().collect();
        order_values(config.value_choice, &mut values);
        values.into_iter().map(BranchOp::Assign).collect()
    };
    Some((var_idx, ops))
}

/// Variable selection as a free function (shared by the searcher and
/// [`node_branches`]).
fn select_var_with(branching: Branching, domains: &[Domain]) -> Option<usize> {
    let unfixed = domains.iter().enumerate().filter(|(_, d)| !d.is_fixed());
    match branching {
        Branching::InputOrder => unfixed.map(|(i, _)| i).next(),
        Branching::SmallestDomain => {
            // The first unfixed variable of minimum size, as `min_by_key`
            // would pick it. A plain loop, because `min_by_key` here can
            // compile to an outlined fold that keeps its accumulator on the
            // stack, which slows every node of a first-fail search.
            let (mut best, mut best_size) = (None, u64::MAX);
            for (i, d) in unfixed {
                if d.size() < best_size {
                    (best, best_size) = (Some(i), d.size());
                }
            }
            best
        }
    }
}

/// Should a node with this domain size bisect instead of enumerating values?
fn use_split_with(config: &SearchConfig, size: u64) -> bool {
    config.split_threshold.is_some_and(|t| size > t) && size > 2
}

/// The initial branch-and-bound bound seeded by a warm assignment's
/// objective value: applied *non-strictly* (offset by one) so solutions
/// matching the warm objective are still recorded. `None` for `Satisfy`.
pub(crate) fn warm_bound_seed(objective: Objective, value: i64) -> Option<i64> {
    match objective {
        Objective::Minimize(_) => Some(value.saturating_add(1)),
        Objective::Maximize(_) => Some(value.saturating_sub(1)),
        Objective::Satisfy => None,
    }
}

/// One open node of the explicit decision stack.
///
/// A frame is created when its node survives entry (limits, bounding,
/// propagation) with at least one unfixed variable. Every frame except the
/// root owns the trail level pushed by the branch that reached it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// Index of the variable this node branches on.
    var_idx: usize,
    /// Next branch to try.
    next: usize,
    /// Total number of branches.
    num_branches: usize,
    /// Start of this frame's slice of the branch-value arena.
    values_start: usize,
    kind: BranchKind,
}

impl Frame {
    fn branch_op(&self, i: usize, values: &[i64]) -> BranchOp {
        match self.kind {
            BranchKind::Values => BranchOp::Assign(values[self.values_start + i]),
            BranchKind::Split { mid, hi_first } => {
                if (i == 0) == hi_first {
                    BranchOp::Gt(mid)
                } else {
                    BranchOp::Le(mid)
                }
            }
        }
    }
}

/// Reusable search state: the trail-backed domain [`Store`], the propagation
/// [`PropQueue`], the explicit decision stack and the branch-value arena.
///
/// Holding one `SearchSpace` across repeated solver invocations (as the
/// Cologne grounding scratch does) means the hot `invokeSolver` path performs
/// no per-invocation search allocations beyond what the model itself needs.
#[derive(Debug, Clone, Default)]
pub struct SearchSpace {
    pub(crate) store: Store,
    pub(crate) queue: PropQueue,
    pub(crate) frames: Vec<Frame>,
    /// Pending branch values of every open frame, stacked contiguously; a
    /// frame's slice starts at its `values_start` and is truncated away when
    /// the frame is popped.
    pub(crate) values: Vec<i64>,
    /// Worker-private spaces for the LNS portfolio ([`crate::parallel`]),
    /// lazily grown to the configured worker count and retained across
    /// invocations so repeated portfolio solves reuse their trails, queues
    /// and arenas the same way sequential solves reuse this space. Empty
    /// unless [`crate::LnsConfig::workers`] ever asked for two or more.
    pub(crate) pool: Vec<SearchSpace>,
}

impl SearchSpace {
    /// Fresh empty space.
    pub fn new() -> Self {
        SearchSpace::default()
    }
}

struct Searcher<'m, 'o, 'p> {
    model: &'m Model,
    objective: Objective,
    config: &'m SearchConfig,
    budget: Budget,
    stats: SearchStats,
    best: Option<Assignment>,
    best_objective: Option<i64>,
    solutions: Vec<Assignment>,
    stop: Option<StopReason>,
    /// Dual-bound certificate computed at this search's frozen root, when
    /// [`SearchConfig::bound_mode`] enabled an engine.
    certificate: Option<BoundCertificate>,
    /// Objective value of the best *feasible* assignment known — the warm
    /// start's value or the latest incumbent's. Tracked separately from
    /// `best_objective`, which warm seeding offsets by one to keep the
    /// branch-and-bound bound non-strict; the gap must measure a real
    /// solution, not the offset bound.
    primal: Option<i64>,
    /// Streaming event sink slot; `ControlFlow::Break` from any hook cancels
    /// the search cooperatively (see [`crate::observe`]). Held as a slot
    /// reference so nested searches (LNS dives and repairs) can share one
    /// observer without fighting the trait object's invariant lifetime.
    observer: &'o mut Option<&'p mut dyn SolveObserver>,
}

/// Run a search over `model` with the given objective.
pub fn solve(model: &Model, objective: Objective, config: &SearchConfig) -> SearchOutcome {
    let mut space = SearchSpace::new();
    solve_in(model, objective, config, &mut space)
}

/// Run a search over `model`, reusing the caller's [`SearchSpace`].
///
/// Dispatches on [`SearchConfig::mode`]: optimization objectives under
/// [`SolverMode::Lns`] run the destroy/repair driver of [`crate::lns`] (the
/// portfolio of [`crate::parallel`] with two or more
/// [`crate::LnsConfig::workers`]); everything else (the default) runs exact
/// branch-and-bound.
pub fn solve_in(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    space: &mut SearchSpace,
) -> SearchOutcome {
    solve_in_observed(model, objective, config, space, None)
}

/// [`solve_in`] with a streaming [`SolveObserver`]: incumbents, restarts,
/// LNS iterations, budget exhaustion and periodic progress are reported as
/// they happen, and the observer can cancel the search cooperatively by
/// returning [`std::ops::ControlFlow::Break`] (the outcome then carries the
/// best incumbent found and [`SearchStats::cancelled`]).
pub fn solve_in_observed(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    space: &mut SearchSpace,
    observer: Option<&mut dyn SolveObserver>,
) -> SearchOutcome {
    let mut observer = observer;
    let budget = Budget::new(config, objective);
    if let SolverMode::Lns(lns) = &config.mode {
        if !matches!(objective, Objective::Satisfy) {
            if lns.workers.is_some_and(|w| w.get() > 1) {
                return crate::parallel::solve_lns_portfolio(
                    model,
                    objective,
                    config,
                    budget,
                    lns,
                    space,
                    &mut observer,
                );
            }
            return crate::lns::solve_lns(
                model,
                objective,
                config,
                budget,
                lns,
                space,
                &mut observer,
            );
        }
    }
    solve_exact_in(model, objective, config, budget, space, &mut observer)
}

/// The exact branch-and-bound search under `budget` (ignores
/// [`SearchConfig::mode`]): the one exact code path, also run by the LNS
/// drivers for their incumbent dives.
pub(crate) fn solve_exact_in(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    budget: Budget,
    space: &mut SearchSpace,
    observer: &mut Option<&mut dyn SolveObserver>,
) -> SearchOutcome {
    let mut searcher = Searcher::new(model, objective, config, budget, observer);
    let warm = validated_warm(model, objective, config);
    if let Some((_, value)) = &warm {
        searcher.seed_warm_bound(*value);
    }
    space.store.reset_from(model.domains());
    space.frames.clear();
    space.values.clear();
    let root_ok = model
        .propagate_in(
            &mut space.store,
            &mut space.queue,
            &mut searcher.stats,
            None,
        )
        .is_ok();
    if root_ok {
        // The root fixpoint is this search's frozen root; the dual bound is
        // computed against exactly these domains and stays valid for every
        // node below. `BoundMode::Off` (the default) computes nothing.
        searcher.install_certificate(bounds::compute_root_bound(
            model,
            objective,
            config,
            space.store.domains(),
        ));
        searcher.run(space);
    }
    finish_with_warm(searcher, warm)
}

/// Validate a configured warm start against the model: `Some((assignment,
/// objective value))` when it is usable, `None` otherwise (no warm start
/// configured, satisfaction objective, or an assignment that does not cover
/// the model / falls outside a root domain / violates a propagator).
pub(crate) fn validated_warm(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
) -> Option<(Assignment, i64)> {
    let (Objective::Minimize(o) | Objective::Maximize(o)) = objective else {
        return None;
    };
    let warm = config.warm_start.as_ref()?;
    if !warm_start_valid(model, warm) {
        return None;
    }
    Some((warm.clone(), warm.value(o)))
}

/// True when `warm` is a complete, feasible assignment of `model`: it covers
/// every variable, every value lies inside the variable's root domain, and
/// every propagator accepts the assignment.
fn warm_start_valid(model: &Model, warm: &Assignment) -> bool {
    if warm.len() != model.num_vars() || warm.is_empty() {
        return false;
    }
    let domains = model.domains();
    if (0..model.num_vars()).any(|i| !domains[i].contains(warm.value(VarId::from_index(i)))) {
        return false;
    }
    model
        .propagators()
        .iter()
        .all(|p| p.check(&|v| warm.value(v)))
}

/// Common tail of the exact searchers: when a limit stopped the search
/// before any solution appeared but a valid warm assignment exists, report
/// the warm assignment (it is feasible by validation) instead of "no
/// solution found".
fn finish_with_warm(
    searcher: Searcher<'_, '_, '_>,
    warm: Option<(Assignment, i64)>,
) -> SearchOutcome {
    let mut outcome = searcher.finish();
    if outcome.best.is_none() {
        if let Some((assignment, value)) = warm {
            outcome.best_objective = Some(value);
            outcome.best = Some(assignment);
        }
    }
    outcome
}

/// Complete a *partial* warm-start hint set into a full feasible assignment
/// of `model` — the bridge between two solver invocations whose models
/// differ structurally (the incremental re-optimization path).
///
/// The caller maps whatever survived from the previous solution onto the new
/// model's variables (`hints`); this probe fixes those variables (abandoning
/// the attempt on any conflict), then runs a small fail-bounded first-fail
/// exact search over the remaining variables, minimizing/maximizing
/// `objective` below the hints. The best completion found becomes the
/// [`SearchConfig::warm_start`] assignment of the subsequent full search.
/// Returns `None` when the hints are empty or inconsistent, or when the
/// bounded completion search finds no leaf within `fail_limit` failures —
/// the caller then falls back to a cold start.
pub fn complete_hints(
    model: &Model,
    objective: Objective,
    hints: &[(VarId, i64)],
    space: &mut SearchSpace,
    fail_limit: u64,
) -> Option<Assignment> {
    if hints.is_empty() || model.num_vars() == 0 {
        return None;
    }
    let mut stats = SearchStats::default();
    space.store.reset_from(model.domains());
    space.frames.clear();
    space.values.clear();
    if model
        .propagate_in(&mut space.store, &mut space.queue, &mut stats, None)
        .is_err()
    {
        return None;
    }
    space.store.push_choice();
    let mut consistent = true;
    // (The completion probe runs unobserved: its incumbents are warm-start
    // candidates, not solutions of the caller's search.)
    for &(var, value) in hints {
        let idx = var.index();
        match space.store.assign(idx, value) {
            Err(()) => {
                consistent = false;
                break;
            }
            Ok(true) => {
                if model
                    .propagate_in(
                        &mut space.store,
                        &mut space.queue,
                        &mut stats,
                        Some(model.props_watching(idx)),
                    )
                    .is_err()
                {
                    consistent = false;
                    break;
                }
            }
            Ok(false) => {}
        }
    }
    let best = if consistent {
        let probe_cfg = SearchConfig {
            branching: Branching::SmallestDomain,
            ..Default::default()
        };
        let probe = Budget::new(&probe_cfg, objective).child(
            &stats,
            Slice {
                fails: Some(fail_limit),
                ..Slice::default()
            },
        );
        resolve_subtree(model, objective, &probe_cfg, probe, space, None, &mut None).best
    } else {
        None
    };
    while space.store.level() > 0 {
        space.store.backtrack();
    }
    space.frames.clear();
    space.values.clear();
    best
}

/// The retained copy-on-branch reference implementation: recursive DFS that
/// clones the entire domain store at every branch and keeps the pre-trail
/// bounding semantics — after an incumbent exists, every node tightens the
/// objective bound and re-propagates seeded with *all* propagators, whether
/// or not the bound moved.
///
/// It shares the propagation engine, heuristics and limit handling with the
/// trail-based searcher, so the two must return identical incumbents,
/// solution sets, node counts and fail counts on every model (only
/// propagation/pruning counters may differ) — the equivalence property and
/// integration tests assert exactly that. Because the trail searcher instead
/// skips the no-op bounding propagation and seeds only the objective's
/// watchers, those tests also pin the argument that the seeding optimization
/// reaches the same fixpoint. Keep this for those tests (and as executable
/// documentation of the search semantics); it is not a production path.
pub fn solve_reference(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
) -> SearchOutcome {
    let mut no_observer: Option<&mut dyn SolveObserver> = None;
    let budget = Budget::new(config, objective);
    let mut searcher = Searcher::new(model, objective, config, budget, &mut no_observer);
    let warm = validated_warm(model, objective, config);
    if let Some((_, value)) = &warm {
        searcher.seed_warm_bound(*value);
    }
    let mut store = Store::from_domains(model.domains().to_vec());
    let mut queue = PropQueue::new();
    let root_ok = model
        .propagate_in(&mut store, &mut queue, &mut searcher.stats, None)
        .is_ok();
    if root_ok {
        searcher.dfs_cloning(store, &mut queue, 0);
    }
    finish_with_warm(searcher, warm)
}

/// Run an exact search under `budget` *below the current store state* — the
/// repair step of the LNS driver.
///
/// Contract with the caller ([`crate::lns::solve_lns`]):
///
/// * the caller has opened a trail level (the "freeze" level), applied its
///   partial assignment plus the improving objective bound, and propagated
///   the store to a fixpoint;
/// * `incumbent` is the objective value of the caller's incumbent, seeded as
///   the searcher's branch-and-bound bound so every solution this search
///   records is a strict improvement;
/// * on return, the store holds whatever trail levels an early stop left
///   open *above* the freeze level; the caller unwinds them (and the freeze
///   level itself) with [`Store::backtrack`] — that unwind *is* the destroy
///   step of the next LNS iteration.
pub(crate) fn resolve_subtree(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    budget: Budget,
    space: &mut SearchSpace,
    incumbent: Option<i64>,
    observer: &mut Option<&mut dyn SolveObserver>,
) -> SearchOutcome {
    debug_assert!(
        space.store.level() > 0,
        "resolve_subtree requires an open freeze level"
    );
    let mut searcher = Searcher::new(model, objective, config, budget, observer);
    searcher.best_objective = incumbent;
    space.frames.clear();
    space.values.clear();
    searcher.run(space);
    searcher.finish()
}

impl<'m, 'o, 'p> Searcher<'m, 'o, 'p> {
    fn new(
        model: &'m Model,
        objective: Objective,
        config: &'m SearchConfig,
        budget: Budget,
        observer: &'o mut Option<&'p mut dyn SolveObserver>,
    ) -> Self {
        Searcher {
            model,
            objective,
            config,
            budget,
            stats: SearchStats::default(),
            best: None,
            best_objective: None,
            solutions: Vec::new(),
            stop: None,
            certificate: None,
            primal: None,
            observer,
        }
    }

    /// Seed the branch-and-bound bound from a warm assignment's objective
    /// value. The bound is applied *non-strictly* (offset by one) so that
    /// solutions matching the warm objective are still found and recorded —
    /// this keeps the final incumbent identical to a cold run's under a
    /// static branching order (see [`SearchConfig::warm_start`]).
    fn seed_warm_bound(&mut self, value: i64) {
        let Some(seed) = warm_bound_seed(self.objective, value) else {
            return;
        };
        self.best_objective = Some(seed);
        // The warm assignment is feasible by validation, so its objective
        // value is a sound primal for the optimality gap.
        self.primal = Some(value);
        self.stats.warm_start = true;
    }

    /// Install a certified dual bound computed at the (propagated) root this
    /// search runs below: record it in the stats and refresh the live gap
    /// against whatever primal is already known (a warm-start value).
    fn install_certificate(&mut self, certificate: Option<BoundCertificate>) {
        let Some(certificate) = certificate else {
            return;
        };
        self.stats.dual_bound = Some(certificate.dual_bound);
        self.certificate = Some(certificate);
        self.refresh_gap();
    }

    /// Recompute [`SearchStats::gap`] from the current primal and dual
    /// bound. A no-op until both exist, so with [`BoundMode::Off`] the gap
    /// stays `None` forever.
    fn refresh_gap(&mut self) {
        if let (Some(primal), Some(dual)) = (self.primal, self.stats.dual_bound) {
            self.stats.gap = Some(bounds::optimality_gap(self.objective, primal, dual));
        }
    }

    fn finish(self) -> SearchOutcome {
        let outcome = SearchOutcome {
            best: self.best,
            best_objective: self.best_objective,
            solutions: self.solutions,
            stats: self.stats,
            stop: self.stop.unwrap_or(StopReason::Complete),
            certificate: self.certificate,
        };
        self.budget.finish(outcome, self.observer)
    }

    /// Node-entry check: has the search stopped, or must it stop now? The gap
    /// only changes with the incumbent or the dual bound (both deterministic
    /// events) and is checked here with every other limit, so a gap-limited
    /// run is rerun-deterministic. The clock is only polled every 64 nodes:
    /// `Instant::now` is cheap but not free on the per-node path.
    fn check_limits(&mut self) -> bool {
        if self.stop.is_some() {
            return true;
        }
        let poll = self.stats.nodes % 64 == 0;
        self.stop = self.budget.check(&self.stats, poll);
        self.stop.is_some()
    }

    fn select_var(&self, domains: &[Domain]) -> Option<usize> {
        select_var_with(self.config.branching, domains)
    }

    fn objective_bound_ok(&self, domains: &[Domain]) -> bool {
        match (self.objective, self.best_objective) {
            (Objective::Minimize(o), Some(best)) => domains[o.index()].min() < best,
            (Objective::Maximize(o), Some(best)) => domains[o.index()].max() > best,
            _ => true,
        }
    }

    fn record_solution(&mut self, domains: &[Domain]) {
        let assignment = Assignment::from_domains(domains);
        self.stats.solutions += 1;
        let objective_value = match self.objective {
            Objective::Satisfy => {
                self.best.get_or_insert_with(|| assignment.clone());
                None
            }
            Objective::Minimize(o) | Objective::Maximize(o) => {
                let value = assignment.value(o);
                self.best_objective = Some(value);
                self.best = Some(assignment.clone());
                self.primal = Some(value);
                self.refresh_gap();
                Some(value)
            }
        };
        if notify(&mut *self.observer, |o| {
            o.on_incumbent(objective_value, &assignment)
        }) {
            self.stop = Some(StopReason::Cancelled);
        }
        self.solutions.push(assignment);
        if self.stop.is_none() {
            self.stop = self.budget.solutions_done(&self.stats);
        }
    }

    /// Should this node bisect the domain instead of enumerating values?
    fn use_split(&self, size: u64) -> bool {
        use_split_with(self.config, size)
    }

    /// Tighten the objective domain with the incumbent bound at node entry.
    /// Returns whether the bound actually changed (and propagation is
    /// needed), or `Err` if the tightening wiped the objective domain.
    fn tighten_bound(&mut self, store: &mut Store) -> Result<bool, ()> {
        match (self.objective, self.best_objective) {
            (Objective::Minimize(o), Some(best)) => store.remove_above(o.index(), best - 1),
            (Objective::Maximize(o), Some(best)) => store.remove_below(o.index(), best + 1),
            _ => Ok(false),
        }
    }

    /// Propagation seed after the objective bound tightened: the store was at
    /// a fixpoint for *every* propagator at node entry and the tightening
    /// only changed the objective's domain, so seeding the queue with the
    /// objective's watchers reaches exactly the same fixpoint (and the same
    /// conflicts) as seeding with every propagator — without rescanning
    /// unrelated constraints at every bounded node.
    fn bound_seed(&self) -> &'m [usize] {
        match self.objective {
            Objective::Minimize(o) | Objective::Maximize(o) => self.model.props_watching(o.index()),
            Objective::Satisfy => &[],
        }
    }

    // ----- trail-based search (the production path) -------------------------

    /// Process node entry on the current store state: limit checks, the
    /// branch-and-bound objective bound, leaf detection and frame creation.
    /// Returns `true` iff a frame was pushed (the node has branches to try).
    fn enter_node(&mut self, space: &mut SearchSpace, depth: u64) -> bool {
        if self.check_limits() {
            return false;
        }
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if self.stats.nodes % PROGRESS_NODE_INTERVAL == 0
            && notify(&mut *self.observer, |o| o.on_progress(&self.stats))
        {
            self.stop = Some(StopReason::Cancelled);
            return false;
        }

        // Branch-and-bound: tighten the objective with the incumbent. The
        // tightening happens inside this node's trail level, so it is undone
        // together with the node. Propagation only runs when the bound
        // actually moved (the store was already at a fixpoint otherwise).
        match self.tighten_bound(&mut space.store) {
            Err(()) => {
                self.stats.fails += 1;
                return false;
            }
            Ok(true) => {
                let seed = self.bound_seed();
                if self
                    .model
                    .propagate_in(
                        &mut space.store,
                        &mut space.queue,
                        &mut self.stats,
                        Some(seed),
                    )
                    .is_err()
                {
                    self.stats.fails += 1;
                    return false;
                }
            }
            Ok(false) => {}
        }
        if !self.objective_bound_ok(space.store.domains()) {
            self.stats.fails += 1;
            return false;
        }

        let Some(var_idx) = self.select_var(space.store.domains()) else {
            self.record_solution(space.store.domains());
            return false;
        };

        let domain = space.store.domain(var_idx);
        let values_start = space.values.len();
        let frame = if self.use_split(domain.size()) {
            Frame {
                var_idx,
                next: 0,
                num_branches: 2,
                values_start,
                kind: BranchKind::Split {
                    mid: domain.median(),
                    hi_first: split_hi_first(self.config.value_choice, domain.median()),
                },
            }
        } else {
            space.values.extend(domain.iter());
            order_values(self.config.value_choice, &mut space.values[values_start..]);
            Frame {
                var_idx,
                next: 0,
                num_branches: space.values.len() - values_start,
                values_start,
                kind: BranchKind::Values,
            }
        };
        space.frames.push(frame);
        true
    }

    /// The explicit-stack DFS driver. Precondition: the store holds the
    /// propagated root state.
    fn run(&mut self, space: &mut SearchSpace) {
        if !self.enter_node(space, 0) {
            return;
        }
        while let Some(top) = space.frames.len().checked_sub(1) {
            if self.stop.is_some() {
                return;
            }
            let frame = space.frames[top];
            if frame.next >= frame.num_branches {
                // Node exhausted: drop its frame, its arena slice and (below
                // the root) the trail level of the branch that reached it.
                space.frames.pop();
                space.values.truncate(frame.values_start);
                if top > 0 {
                    space.store.backtrack();
                }
                continue;
            }
            space.frames[top].next += 1;

            space.store.push_choice();
            let op = frame.branch_op(frame.next, &space.values);
            if apply_branch(&mut space.store, frame.var_idx, op).is_err() {
                self.stats.fails += 1;
                space.store.backtrack();
                continue;
            }
            let seed = self.model.props_watching(frame.var_idx);
            if self
                .model
                .propagate_in(
                    &mut space.store,
                    &mut space.queue,
                    &mut self.stats,
                    Some(seed),
                )
                .is_err()
            {
                self.stats.fails += 1;
                space.store.backtrack();
                continue;
            }
            let child_depth = space.frames.len() as u64;
            if !self.enter_node(space, child_depth) {
                // The child failed, was a solution, or tripped a limit:
                // either way it opened no frame, so undo its branch level.
                space.store.backtrack();
            }
        }
    }

    // ----- copy-on-branch reference implementation ---------------------------

    /// Recursive DFS cloning the whole store at every branch (the
    /// pre-trail semantics, kept verbatim for equivalence testing).
    fn dfs_cloning(&mut self, mut store: Store, queue: &mut PropQueue, depth: u64) {
        if self.check_limits() {
            return;
        }
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);

        // Pre-trail bounding semantics: whenever an incumbent exists, tighten
        // and re-propagate with the full propagator set, even if the bound
        // did not move. The trail searcher optimizes both away; equivalence
        // tests comparing the two therefore validate that optimization.
        let bounding = matches!(
            (self.objective, self.best_objective),
            (Objective::Minimize(_), Some(_)) | (Objective::Maximize(_), Some(_))
        );
        if bounding {
            if self.tighten_bound(&mut store).is_err() {
                self.stats.fails += 1;
                return;
            }
            if self
                .model
                .propagate_in(&mut store, queue, &mut self.stats, None)
                .is_err()
            {
                self.stats.fails += 1;
                return;
            }
        }
        if !self.objective_bound_ok(store.domains()) {
            self.stats.fails += 1;
            return;
        }

        let var_idx = match self.select_var(store.domains()) {
            None => {
                self.record_solution(store.domains());
                return;
            }
            Some(i) => i,
        };

        let domain = store.domain(var_idx).clone();
        let model: &'m Model = self.model;
        let seed = model.props_watching(var_idx);
        if self.use_split(domain.size()) {
            let mid = domain.median();
            let hi_first = split_hi_first(self.config.value_choice, mid);
            for i in 0..2 {
                let mut branch = store.clone();
                let ok = if (i == 0) == hi_first {
                    branch.remove_below(var_idx, mid + 1)
                } else {
                    branch.remove_above(var_idx, mid)
                };
                if ok.is_err() {
                    self.stats.fails += 1;
                    continue;
                }
                if model
                    .propagate_in(&mut branch, queue, &mut self.stats, Some(seed))
                    .is_err()
                {
                    self.stats.fails += 1;
                    continue;
                }
                self.dfs_cloning(branch, queue, depth + 1);
                if self.stop.is_some() {
                    return;
                }
            }
        } else {
            let mut values: Vec<i64> = domain.iter().collect();
            order_values(self.config.value_choice, &mut values);
            for v in values {
                let mut branch = store.clone();
                if branch.assign(var_idx, v).is_err() {
                    self.stats.fails += 1;
                    continue;
                }
                if model
                    .propagate_in(&mut branch, queue, &mut self.stats, Some(seed))
                    .is_err()
                {
                    self.stats.fails += 1;
                    continue;
                }
                self.dfs_cloning(branch, queue, depth + 1);
                if self.stop.is_some() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use std::time::Instant;

    fn sum_model() -> (Model, VarId, VarId, VarId) {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        m.linear_eq(&[(1, x), (1, y)], 9);
        let obj = m.linear_var(&[(3, x), (1, y)], 0);
        (m, x, y, obj)
    }

    /// [`sum_model`] shifted to `x, y in -9..0` with `x + y == -9`.
    fn negative_sum_model() -> (Model, VarId, VarId, VarId) {
        let mut m = Model::new();
        let x = m.new_var(-9, 0);
        let y = m.new_var(-9, 0);
        m.linear_eq(&[(1, x), (1, y)], -9);
        let obj = m.linear_var(&[(3, x), (1, y)], 0);
        (m, x, y, obj)
    }

    #[test]
    fn minimize_finds_optimum_and_proves_it() {
        let (m, x, y, obj) = sum_model();
        let out = m.minimize(obj, &SearchConfig::default());
        assert_eq!(out.stop, StopReason::Complete);
        let best = out.best.unwrap();
        assert_eq!(best.value(x), 0);
        assert_eq!(best.value(y), 9);
        assert_eq!(out.best_objective, Some(9));
    }

    #[test]
    fn maximize_finds_optimum() {
        let (m, x, y, obj) = sum_model();
        let out = m.maximize(obj, &SearchConfig::default());
        let best = out.best.unwrap();
        assert_eq!(best.value(x), 9);
        assert_eq!(best.value(y), 0);
        assert_eq!(out.best_objective, Some(27));
    }

    #[test]
    fn incumbents_improve_monotonically() {
        let (m, _, _, obj) = sum_model();
        let out = m.minimize(obj, &SearchConfig::default());
        let objs: Vec<i64> = out.solutions.iter().map(|s| s.value(obj)).collect();
        for w in objs.windows(2) {
            assert!(w[1] < w[0], "objective must strictly improve: {objs:?}");
        }
    }

    #[test]
    fn branching_heuristics_agree_on_optimum() {
        for branching in [Branching::InputOrder, Branching::SmallestDomain] {
            for value_choice in [ValueChoice::Min, ValueChoice::ClosestToZero] {
                for split_threshold in [None, Some(2)] {
                    let (m, _, _, obj) = sum_model();
                    let cfg = SearchConfig {
                        branching,
                        value_choice,
                        split_threshold,
                        ..Default::default()
                    };
                    let out = m.minimize(obj, &cfg);
                    assert_eq!(
                        out.best_objective,
                        Some(9),
                        "{branching:?}/{value_choice:?}/{split_threshold:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn node_limit_stops_search() {
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..20).map(|_| m.new_var(0, 5)).collect();
        let obj = m.linear_var(&xs.iter().map(|&x| (1, x)).collect::<Vec<_>>(), 0);
        let cfg = SearchConfig {
            node_limit: Some(5),
            ..Default::default()
        };
        let out = m.maximize(obj, &cfg);
        assert_eq!(out.stop, StopReason::Nodes);
        assert!(out.stats.nodes <= 6);
    }

    #[test]
    fn time_limit_is_respected() {
        // A large assignment space with an objective that improves rarely.
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..30).map(|_| m.new_var(0, 30)).collect();
        let obj = m.linear_var(&xs.iter().map(|&x| (1, x)).collect::<Vec<_>>(), 0);
        let cfg = SearchConfig {
            time_limit: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let start = Instant::now();
        let _ = m.maximize(obj, &cfg);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn satisfy_with_max_solutions() {
        let mut m = Model::new();
        let x = m.new_var(0, 100);
        let _ = x;
        let cfg = SearchConfig {
            max_solutions: Some(3),
            ..Default::default()
        };
        let out = m.solve_all(&cfg);
        assert_eq!(out.solutions.len(), 3);
    }

    #[test]
    fn infeasible_model_yields_no_solutions() {
        let mut m = Model::new();
        let x = m.new_var(0, 1);
        let y = m.new_var(0, 1);
        m.linear_ge(&[(1, x), (1, y)], 5);
        let out = m.solve_all(&SearchConfig::default());
        assert!(out.solutions.is_empty());
        assert_eq!(out.stop, StopReason::Complete);
    }

    #[test]
    fn assignment_helpers() {
        let mut m = Model::new();
        let x = m.new_var(2, 2);
        let y = m.new_var(3, 3);
        let out = m.satisfy(&SearchConfig::default());
        let s = &out.solutions[0];
        assert_eq!(s.values_of(&[x, y]), vec![2, 3]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn solutions_satisfy_all_propagator_checks() {
        let mut m = Model::new();
        let x = m.new_var(0, 6);
        let y = m.new_var(0, 6);
        let b = m.new_bool();
        m.reif_linear_eq(b, &[(1, x), (-1, y)], 0);
        m.linear_le(&[(1, x), (1, y)], 7);
        let out = m.solve_all(&SearchConfig {
            max_solutions: Some(50),
            ..Default::default()
        });
        for s in &out.solutions {
            for p in m.propagators() {
                assert!(p.check(&|v| s.value(v)), "{} violated", p.name());
            }
        }
    }

    #[test]
    fn search_space_is_reusable_across_solves() {
        let mut space = SearchSpace::new();
        let (m, _, _, obj) = sum_model();
        let minimize = Objective::Minimize(obj);
        let first = m.solve_in(minimize, &SearchConfig::default(), &mut space);
        let second = m.solve_in(minimize, &SearchConfig::default(), &mut space);
        assert_eq!(first.best_objective, second.best_objective);
        assert_eq!(first.stats.nodes, second.stats.nodes);
        assert_eq!(first.stats.fails, second.stats.fails);
        // and across different models / objectives
        let mut m2 = Model::new();
        let z = m2.new_var(0, 4);
        let out = m2.solve_in(Objective::Maximize(z), &SearchConfig::default(), &mut space);
        assert_eq!(out.best_objective, Some(4));
    }

    #[test]
    fn split_threshold_none_enumerates_exhaustively() {
        // With no split threshold, a Min search over a large domain must try
        // values in ascending order; the first satisfying leaf is the
        // minimum, so exactly one solution is needed.
        let mut m = Model::new();
        let x = m.new_var(0, 200);
        m.linear_ge(&[(1, x)], 150);
        let cfg = SearchConfig {
            split_threshold: None,
            max_solutions: Some(1),
            ..Default::default()
        };
        let out = m.solve_all(&cfg);
        assert_eq!(out.solutions[0].value(x), 150);
    }

    #[test]
    fn split_threshold_controls_bisection() {
        let mut m = Model::new();
        let x = m.new_var(0, 100);
        let obj = m.linear_var(&[(1, x)], 0);
        // Tiny threshold: everything bisects; still finds the optimum.
        let cfg = SearchConfig {
            split_threshold: Some(2),
            ..Default::default()
        };
        let out = m.minimize(obj, &cfg);
        assert_eq!(out.best_objective, Some(0));
    }

    #[test]
    fn deep_search_does_not_overflow_the_stack() {
        // 3000 chained variables forced to fix one by one: the explicit
        // decision stack must handle depth far beyond what recursion could.
        let mut m = Model::new();
        let n = 3000;
        let xs: Vec<VarId> = (0..n).map(|_| m.new_var(0, 1)).collect();
        for w in xs.windows(2) {
            // x_{i+1} >= x_i keeps the tree deep but narrow
            m.linear_le(&[(1, w[0]), (-1, w[1])], 0);
        }
        let out = m.solve_all(&SearchConfig {
            max_solutions: Some(1),
            ..Default::default()
        });
        assert_eq!(out.solutions.len(), 1);
        assert!(out.stats.max_depth >= 1000);
    }

    #[test]
    fn warm_start_finds_same_optimum_with_fewer_nodes() {
        let (m, _, _, obj) = sum_model();
        let cold = m.minimize(obj, &SearchConfig::default());
        let warm_cfg = SearchConfig {
            warm_start: cold.best.clone(),
            ..Default::default()
        };
        let warm = m.minimize(obj, &warm_cfg);
        assert!(warm.stats.warm_start);
        assert_eq!(warm.stop, StopReason::Complete);
        assert_eq!(warm.best_objective, cold.best_objective);
        assert_eq!(warm.best, cold.best, "warm must land on the cold incumbent");
        assert!(
            warm.stats.nodes <= cold.stats.nodes,
            "warm {} vs cold {}",
            warm.stats.nodes,
            cold.stats.nodes
        );
    }

    #[test]
    fn invalid_warm_start_is_ignored() {
        let (m, _, _, obj) = sum_model();
        // wrong coverage: a one-variable assignment for a four-variable model
        let bogus = Assignment { values: vec![0] };
        let cfg = SearchConfig {
            warm_start: Some(bogus),
            ..Default::default()
        };
        let out = m.minimize(obj, &cfg);
        assert!(!out.stats.warm_start);
        assert_eq!(out.best_objective, Some(9));
        // infeasible assignment: violates x + y == 9
        let cold = m.minimize(obj, &SearchConfig::default());
        let mut broken = cold.best.clone().unwrap();
        broken.values[0] += 1;
        let cfg = SearchConfig {
            warm_start: Some(broken),
            ..Default::default()
        };
        let out = m.minimize(obj, &cfg);
        assert!(!out.stats.warm_start);
        assert_eq!(out.best_objective, Some(9));
    }

    #[test]
    fn warm_assignment_survives_a_zero_budget() {
        let (m, _, _, obj) = sum_model();
        let cold = m.minimize(obj, &SearchConfig::default());
        let cfg = SearchConfig {
            warm_start: cold.best.clone(),
            node_limit: Some(0),
            ..Default::default()
        };
        let out = m.minimize(obj, &cfg);
        assert_eq!(out.stop, StopReason::Nodes);
        // the search explored nothing, but the warm incumbent is reported
        assert_eq!(out.best, cold.best);
        assert_eq!(out.best_objective, cold.best_objective);
    }

    #[test]
    fn warm_start_agrees_between_trail_and_reference_searchers() {
        let (m, _, _, obj) = sum_model();
        let cold = m.minimize(obj, &SearchConfig::default());
        let cfg = SearchConfig {
            warm_start: cold.best.clone(),
            ..Default::default()
        };
        let trail = solve(&m, Objective::Minimize(obj), &cfg);
        let reference = solve_reference(&m, Objective::Minimize(obj), &cfg);
        assert_eq!(trail.best_objective, reference.best_objective);
        assert_eq!(trail.solutions, reference.solutions);
        assert_eq!(trail.stats.nodes, reference.stats.nodes);
        assert_eq!(trail.stats.fails, reference.stats.fails);
    }

    #[test]
    fn complete_hints_extends_a_partial_assignment() {
        let (m, x, y, obj) = sum_model();
        let mut space = SearchSpace::new();
        // pin x = 3; propagation forces y = 6
        let warm = complete_hints(&m, Objective::Minimize(obj), &[(x, 3)], &mut space, 64)
            .expect("consistent hints complete");
        assert_eq!(warm.value(x), 3);
        assert_eq!(warm.value(y), 6);
        assert_eq!(warm.value(obj), 15);
        // the completion is a valid warm start for the full search
        let cfg = SearchConfig {
            warm_start: Some(warm),
            ..Default::default()
        };
        let out = m.minimize(obj, &cfg);
        assert!(out.stats.warm_start);
        assert_eq!(out.best_objective, Some(9));
    }

    #[test]
    fn complete_hints_rejects_conflicts_and_empty_hints() {
        let (m, x, y, obj) = sum_model();
        let mut space = SearchSpace::new();
        assert!(complete_hints(&m, Objective::Minimize(obj), &[], &mut space, 64).is_none());
        // x = 5 and y = 5 contradict x + y == 9
        assert!(complete_hints(
            &m,
            Objective::Minimize(obj),
            &[(x, 5), (y, 5)],
            &mut space,
            64
        )
        .is_none());
        // out-of-domain hint
        assert!(complete_hints(&m, Objective::Minimize(obj), &[(x, 42)], &mut space, 64).is_none());
    }

    #[test]
    fn reference_and_trail_searchers_agree() {
        for branching in [Branching::InputOrder, Branching::SmallestDomain] {
            for value_choice in [ValueChoice::Min, ValueChoice::ClosestToZero] {
                for split_threshold in [None, Some(2)] {
                    // `sum_model` bisects at non-negative medians;
                    // `negative_sum_model` at negative ones, where
                    // `ClosestToZero` tries the upper half first.
                    for (m, obj) in
                        [sum_model(), negative_sum_model()].map(|(m, _, _, obj)| (m, obj))
                    {
                        let cfg = SearchConfig {
                            branching,
                            value_choice,
                            split_threshold,
                            ..Default::default()
                        };
                        let trail = solve(&m, Objective::Minimize(obj), &cfg);
                        let reference = solve_reference(&m, Objective::Minimize(obj), &cfg);
                        let ctx = format!("{branching:?}/{value_choice:?}/{split_threshold:?}");
                        assert_eq!(trail.best_objective, reference.best_objective, "{ctx}");
                        assert_eq!(trail.solutions, reference.solutions, "{ctx}");
                        assert_eq!(trail.stats.nodes, reference.stats.nodes, "{ctx}");
                        assert_eq!(trail.stats.fails, reference.stats.fails, "{ctx}");
                        assert_eq!(trail.stats.max_depth, reference.stats.max_depth, "{ctx}");
                    }
                }
            }
        }
    }
}
