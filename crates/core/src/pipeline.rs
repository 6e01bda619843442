//! The staged solve pipeline: cached grounding plan, recycled solver arena,
//! reusable search space, delta-aware grounding reuse, warm-started solving
//! and the per-program search configuration.
//!
//! `invokeSolver` executions recur on every epoch and after every input delta
//! (Sec. 6 of the paper measures exactly this loop), so the runtime splits the
//! ground→solve hot path into stages with different lifetimes:
//!
//! | stage | lifetime | held by |
//! |---|---|---|
//! | compiled program (localized program, analysis, schemas) | per source | every instance and plan built from it, behind an `Arc` |
//! | grounding plan | per instance (until params change) | the pipeline |
//! | grounding scratch (model arena + [`cologne_solver::SearchSpace`]) | across invocations (recycled) | the pipeline |
//! | grounding run → [`GroundedCop`] | one invocation (retained when clean) | caller |
//!
//! [`crate::CologneInstance`] owns one pipeline; its plan is built from the
//! shared compiled program once at construction, reused by every
//! invocation, and only rebuilt after
//! [`crate::CologneInstance::params_mut`] invalidates it. The number of plan
//! builds is observable through [`crate::CologneInstance::pipeline_stats`]
//! so tests and benchmarks can assert that the cache actually hits.
//!
//! # Incremental re-optimization
//!
//! On top of the plan cache the pipeline carries two further pieces of state
//! across invocations — the machinery behind the paper's *continuous*
//! optimization story:
//!
//! * **Grounding reuse.** The pipeline's grounding stage accepts the
//!   engine's [`DeltaSummary`] since the previous grounding. When no
//!   relation the plan marks relevant is dirty, the previous [`GroundedCop`]
//!   (retained when the instance hands it back) is returned as-is; otherwise
//!   the COP is re-grounded live (see [`crate::ground`](mod@crate::ground)'s
//!   module docs). Either way the run counts as an *incremental build*;
//!   runs without usable delta information (first invocation, parameter
//!   change, a previous error) count as *full rebuilds*. The
//!   [`PipelineStats::full_rebuilds`] / [`PipelineStats::incremental_builds`]
//!   counter pair is the observable analogue of
//!   [`PipelineStats::plan_builds`].
//! * **Warm-started solving.** After every feasible solve the pipeline
//!   remembers the best assignment of each `var`-declared row, keyed by the
//!   row's concrete attributes (so the memory survives structural change:
//!   rows that persist across invocations keep their hint, arrived rows
//!   simply have none). The next solve maps the memory onto the new model,
//!   completes it into a full assignment with
//!   [`cologne_solver::complete_hints`], and passes it to the search as
//!   [`cologne_solver::SearchConfig::warm_start`] — the initial bound for
//!   exact branch-and-bound, the initial incumbent for LNS. Disabled via
//!   [`ProgramParams::warm_start`].
//!
//! The [`SearchConfig`] every solve runs under is derived from the
//! [`ProgramParams`] together with the plan: at construction, and again when
//! an invalidated plan is rebuilt.

use std::collections::BTreeMap;
use std::sync::Arc;

use cologne_colog::GoalKind;
use cologne_datalog::{DeltaSummary, Engine, Value};
use cologne_solver::{
    complete_hints, Objective, SearchConfig, SearchOutcome, SolveObserver, VarId,
};

use crate::compiled::CompiledProgram;
use crate::error::CologneError;
use crate::ground::{GroundedCop, GroundingPlan, GroundingScratch};
use crate::params::ProgramParams;

/// Warm memory: for each (`var`-declaration index, solver-attribute
/// position), the remembered value per concrete row key (the row's
/// non-solver attribute values). Row keys are stable across invocations as
/// long as the row itself persists, whatever happens to the rest of the
/// COP; the two-level shape lets the per-solve lookups borrow one key built
/// per row instead of allocating a key per (row, position).
type WarmMemory = BTreeMap<(usize, usize), BTreeMap<Vec<Value>, i64>>;

/// Snapshot of the pipeline's grounding counters — the single observability
/// surface for plan caching and incremental re-optimization, returned by
/// [`crate::CologneInstance::pipeline_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Grounding-plan builds over the pipeline's lifetime: 1 after
    /// construction, +1 per rebuild forced by invalidation. A constant value
    /// across repeated invocations demonstrates plan reuse.
    pub plan_builds: u64,
    /// Groundings that ran without usable delta information: the first
    /// invocation, every invocation after a parameter change, recovery from
    /// a grounding error, and the invocation after a cancelled solve.
    pub full_rebuilds: u64,
    /// Delta-aware groundings: runs that consulted the engine's delta
    /// summary and reused whatever it proved unchanged — up to the entire
    /// previous COP. Steadily increasing counts demonstrate the incremental
    /// re-optimization path is active.
    pub incremental_builds: u64,
}

/// Cached grounding + search state for repeated solver invocations on one
/// program.
pub(crate) struct SolvePipeline {
    plan: GroundingPlan,
    scratch: GroundingScratch,
    plan_builds: u64,
    dirty: bool,
    search: SearchConfig,
    /// The previous invocation's COP, kept whole (not recycled) so a clean
    /// delta summary can reuse it without re-grounding.
    retained: Option<GroundedCop>,
    /// True once a grounding completed since the last invalidation — the
    /// precondition for treating the next delta-aware grounding as
    /// incremental.
    grounded_before: bool,
    /// True when the most recent [`SolvePipeline::ground`] handed back the
    /// retained COP untouched (nothing relevant changed). Search is
    /// deterministic given a COP and configuration, so callers may reuse
    /// their previous solve result outright in that case.
    last_was_reuse: bool,
    full_rebuilds: u64,
    incremental_builds: u64,
    /// Best known value of each `var`-declared solver attribute, keyed by
    /// row identity (see [`WarmMemory`]).
    warm: WarmMemory,
}

impl SolvePipeline {
    /// Build the pipeline (its first plan and search configuration) for a
    /// compiled program.
    pub fn new(compiled: &Arc<CompiledProgram>, params: &ProgramParams) -> Self {
        SolvePipeline {
            plan: GroundingPlan::build(compiled, params),
            scratch: GroundingScratch::default(),
            plan_builds: 1,
            dirty: false,
            search: params.search_config(),
            retained: None,
            grounded_before: false,
            last_was_reuse: false,
            full_rebuilds: 0,
            incremental_builds: 0,
            warm: WarmMemory::new(),
        }
    }

    /// Mark the cached plan stale (parameters changed); it is rebuilt lazily
    /// on the next [`SolvePipeline::ground`]. Every cross-invocation cache —
    /// the retained COP and the warm-start memory — is dropped with it: a
    /// parameter change may alter domains, constants or rule layouts, so the
    /// next grounding is a forced full rebuild.
    pub fn invalidate(&mut self) {
        self.dirty = true;
        self.forget();
    }

    /// Drop every cross-invocation cache — the retained COP, the warm
    /// memory and the incremental precondition — without invalidating the
    /// grounding plan. Called after an observer cancelled a solve: the
    /// cancelled run is not reproducible, so the next grounding must be a
    /// clean full rebuild.
    pub fn forget(&mut self) {
        self.grounded_before = false;
        self.last_was_reuse = false;
        if let Some(cop) = self.retained.take() {
            self.scratch.recycle(cop);
        }
        self.warm.clear();
    }

    /// Snapshot of the grounding counters.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            plan_builds: self.plan_builds,
            full_rebuilds: self.full_rebuilds,
            incremental_builds: self.incremental_builds,
        }
    }

    /// True when the most recent [`SolvePipeline::ground`] returned the
    /// retained previous COP untouched. Since the search is a deterministic
    /// function of the COP and the search configuration, a caller holding
    /// the previous solve's result may reuse it without re-solving.
    pub fn last_ground_was_reuse(&self) -> bool {
        self.last_was_reuse
    }

    /// The search configuration [`SolvePipeline::solve_observed`] runs
    /// under, as derived from the parameters of the current plan.
    pub fn search_config(&self) -> &SearchConfig {
        &self.search
    }

    /// Run the grounding stage against the current engine state, rebuilding
    /// the plan first if it was invalidated.
    ///
    /// `delta` is the engine's delta summary since the previous grounding
    /// (see [`cologne_datalog::Engine::take_delta_summary`]); `None` forces
    /// a full rebuild. With a summary and a previous grounding to reuse, the
    /// run counts as incremental: a summary touching none of the plan's
    /// relevant relations hands back the retained [`GroundedCop`] without
    /// re-grounding, anything else re-grounds live. The produced COP is
    /// byte-identical to a full rebuild in every case.
    pub fn ground(
        &mut self,
        params: &ProgramParams,
        engine: &Engine,
        delta: Option<&DeltaSummary>,
    ) -> Result<GroundedCop, CologneError> {
        if self.dirty {
            params.validate()?;
            self.plan = GroundingPlan::build(&self.plan.compiled, params);
            self.search = params.search_config();
            self.plan_builds += 1;
            self.dirty = false;
        }
        self.last_was_reuse = false;
        let delta = delta.filter(|_| self.grounded_before);
        if let Some(delta) = delta {
            self.incremental_builds += 1;
            if !self.plan.is_affected_by(delta) {
                if let Some(cop) = self.retained.take() {
                    self.last_was_reuse = true;
                    return Ok(cop);
                }
            }
        } else {
            self.full_rebuilds += 1;
        }
        if let Some(cop) = self.retained.take() {
            self.scratch.recycle(cop);
        }
        let result = self.plan.ground(params, engine, &mut self.scratch);
        if result.is_ok() {
            self.grounded_before = true;
        } else {
            // The engine's delta checkpoint was already consumed: drop
            // everything so the next grounding starts from scratch.
            self.grounded_before = false;
            self.warm.clear();
        }
        result
    }

    /// Solve a grounded COP with the pipeline's search configuration,
    /// reusing the scratch's [`cologne_solver::SearchSpace`] so repeated
    /// invocations share one trail/store/queue allocation, with an optional
    /// streaming [`cologne_solver::SolveObserver`] threaded into the search
    /// (exact and LNS alike).
    ///
    /// When [`ProgramParams::warm_start`] is on and a previous solution is
    /// remembered, the remembered values are mapped onto the COP's decision
    /// variables by row identity, completed into a full assignment and
    /// passed to the search as its warm start; a feasible outcome refreshes
    /// the memory. The warm-start completion probe runs unobserved — its
    /// incumbents are hint candidates, not solutions of this solve.
    pub fn solve_observed(
        &mut self,
        cop: &GroundedCop,
        params: &ProgramParams,
        observer: Option<&mut dyn SolveObserver>,
    ) -> SearchOutcome {
        let mut config = self.search.clone();
        if params.warm_start {
            if let Some(objective) = cop_objective(cop) {
                let hints = self.warm_hints(cop);
                if !hints.is_empty() {
                    // The probe's fail budget scales with the model: hint
                    // completion only searches over the (typically few)
                    // unhinted variables, so a budget this size trips only
                    // when the remembered solution is badly obsolete.
                    let fail_limit = 256 + 4 * cop.model.num_vars() as u64;
                    config.warm_start = complete_hints(
                        &cop.model,
                        objective,
                        &hints,
                        &mut self.scratch.space,
                        fail_limit,
                    );
                }
            }
        }
        let outcome = cop.solve_in_observed(&config, &mut self.scratch.space, observer);
        if params.warm_start {
            if let Some(best) = &outcome.best {
                self.remember(cop, best);
            }
        }
        outcome
    }

    /// Map the warm memory onto the COP's decision variables: one hint per
    /// remembered `var`-table row that still exists (by concrete-key
    /// identity) in this grounding.
    fn warm_hints(&self, cop: &GroundedCop) -> Vec<(VarId, i64)> {
        if self.warm.is_empty() {
            return Vec::new();
        }
        let mut hints = Vec::new();
        for (decl, vp) in self.plan.var_plans.iter().enumerate() {
            let Some(rows) = cop.solver_tables.get(&vp.table) else {
                continue;
            };
            for row in rows {
                let key = concrete_key(row, &vp.is_solver_position);
                for (pos, value) in row.iter().enumerate() {
                    let Value::Sym(sym) = value else { continue };
                    if let Some(&hint) = self
                        .warm
                        .get(&(decl, pos))
                        .and_then(|per_row| per_row.get(&key))
                    {
                        hints.push((cop.syms[sym.0 as usize], hint));
                    }
                }
            }
        }
        hints
    }

    /// Refresh the warm memory from a feasible solve: remember the assigned
    /// value of every `var`-declared solver attribute, keyed by row
    /// identity. The memory is replaced wholesale so departed rows do not
    /// linger.
    fn remember(&mut self, cop: &GroundedCop, best: &cologne_solver::Assignment) {
        self.warm.clear();
        for (decl, vp) in self.plan.var_plans.iter().enumerate() {
            let Some(rows) = cop.solver_tables.get(&vp.table) else {
                continue;
            };
            for row in rows {
                let key = concrete_key(row, &vp.is_solver_position);
                for (pos, value) in row.iter().enumerate() {
                    let Value::Sym(sym) = value else { continue };
                    let assigned = best.value(cop.syms[sym.0 as usize]);
                    self.warm
                        .entry((decl, pos))
                        .or_default()
                        .insert(key.clone(), assigned);
                }
            }
        }
    }

    /// Reclaim a finished invocation's COP. The model arena is not reset
    /// here: the COP is retained whole so the next grounding can hand it
    /// back untouched when the delta summary proves nothing relevant
    /// changed; it is recycled into the scratch the moment a re-grounding
    /// becomes necessary.
    pub fn recycle(&mut self, cop: GroundedCop) {
        self.retained = Some(cop);
    }
}

/// The COP's optimization objective in solver terms (`None` for satisfy /
/// trivially-empty goals — warm starts do not apply there).
fn cop_objective(cop: &GroundedCop) -> Option<Objective> {
    match cop.objective {
        Some((GoalKind::Minimize, obj)) => Some(Objective::Minimize(obj)),
        Some((GoalKind::Maximize, obj)) => Some(Objective::Maximize(obj)),
        _ => None,
    }
}

/// The concrete (non-solver) attribute values of a `var`-table row — the
/// row's cross-invocation identity.
fn concrete_key(row: &[Value], is_solver_position: &[bool]) -> Vec<Value> {
    row.iter()
        .zip(is_solver_position.iter())
        .filter(|(_, &solver)| !solver)
        .map(|(v, _)| v.clone())
        .collect()
}
