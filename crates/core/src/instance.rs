//! The per-node Cologne instance.
//!
//! A [`CologneInstance`] is one box in Figure 1 of the paper: it couples a
//! distributed query engine (the incremental Datalog engine of
//! `cologne-datalog`) with a constraint solver (`cologne-solver`). Regular
//! Colog rules run continuously and incrementally on the engine; when the
//! solver is invoked (the paper's `invokeSolver` event), the solver rules are
//! grounded against the current tables, the COP is solved under the
//! configured time budget, and the optimization output (`var` tables and the
//! goal relation) is materialized back into the engine, possibly triggering
//! further rule evaluation and distributed messages.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cologne_colog::{Analysis, Program, RuleClass, SchemaCatalog};
use cologne_datalog::{Engine, NodeId, RemoteTuple, Tuple};
use cologne_solver::{BoundCertificate, SearchStats, SolveObserver, StopReason};

use crate::compiled::CompiledProgram;
use crate::error::CologneError;
use crate::ground::GroundedCop;
use crate::handle::RelationHandle;
use crate::params::ProgramParams;
use crate::pipeline::{PipelineStats, SolvePipeline};
use crate::translate::rule_to_datalog;

/// Result of one `invokeSolver` execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// False when the constraints could not be satisfied.
    pub feasible: bool,
    /// True when there was nothing to solve (no solver variables grounded).
    pub trivial: bool,
    /// Objective value of the best solution found (integer objective; for
    /// `STDEV` goals this is the scaled variance `n·Σx² − (Σx)²`, which has
    /// the same argmin; see `cologne_solver::Model::scaled_variance_var`).
    pub objective: Option<i64>,
    /// True if the search stopped with [`StopReason::Complete`]: it proved
    /// optimality (or infeasibility), or found the requested solutions of a
    /// `satisfy` goal, before any limit was reached.
    pub proven_optimal: bool,
    /// Search statistics for this invocation.
    pub stats: SearchStats,
    /// Certified dual bound computed at the frozen root of this invocation's
    /// search, naming the engine and the binding constraints. `None` when
    /// the bound mode is off (the default), the goal is `satisfy`, or no
    /// engine produced a bound.
    pub certificate: Option<BoundCertificate>,
    /// Materialized solver tables (symbolic attributes resolved to integers).
    pub assignments: BTreeMap<String, Vec<Tuple>>,
    /// Tuples addressed to other nodes produced while re-running the regular
    /// rules after materialization.
    pub outgoing: Vec<RemoteTuple>,
}

impl SolveReport {
    fn empty(trivial: bool) -> Self {
        SolveReport {
            feasible: true,
            trivial,
            objective: None,
            proven_optimal: true,
            stats: SearchStats::default(),
            certificate: None,
            assignments: BTreeMap::new(),
            outgoing: Vec::new(),
        }
    }

    /// Rows of one materialized solver table.
    pub fn table(&self, name: &str) -> &[Tuple] {
        self.assignments.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A single Cologne node: compiled program + Datalog engine + solver glue.
pub struct CologneInstance {
    node: NodeId,
    /// The compiled program, shared with every instance built from the same
    /// source (and with this instance's grounding plan).
    pub(crate) compiled: Arc<CompiledProgram>,
    params: ProgramParams,
    pub(crate) engine: Engine,
    pipeline: SolvePipeline,
    cumulative_stats: SearchStats,
    last_stats: Option<SearchStats>,
    solver_invocations: u64,
    /// The previous invocation's report, replayed verbatim when the
    /// delta-aware grounding proves the COP unchanged (search is a
    /// deterministic function of the COP and configuration, so re-solving
    /// an identical COP reproduces it bit for bit).
    last_report: Option<SolveReport>,
    /// Every tuple currently held because a peer shipped it (inserts minus
    /// deletes through [`CologneInstance::try_receive`]), with the set of
    /// peers currently asserting it — the state a crash wipes and a rejoin
    /// re-syncs from neighbors. The engine underneath counts multiplicities,
    /// so this ledger keeps ingest idempotent *per sender* (at-least-once
    /// delivery redelivers: duplicate packets, rejoin resyncs) while still
    /// holding one multiplicity per distinct asserting peer (one peer's
    /// retraction must not drop a row another peer still asserts).
    remote_rows: BTreeMap<String, BTreeMap<Tuple, BTreeSet<NodeId>>>,
}

impl CologneInstance {
    /// Compile a Colog program and set up the engine for `node`.
    ///
    /// Distributed rules are localized (Sec. 5.5), regular rules (including
    /// the shipping rules produced by localization) are installed on the
    /// incremental engine, and solver rules are kept for per-invocation
    /// grounding. Parameters that fail [`ProgramParams::validate`] are
    /// rejected with [`CologneError::InvalidConfig`].
    pub fn new(node: NodeId, source: &str, params: ProgramParams) -> Result<Self, CologneError> {
        Self::from_compiled(node, CompiledProgram::compile(source)?, params)
    }

    /// Set up the engine for `node` on an already compiled program: install
    /// its regular rules with the constants of `params` resolved into them.
    pub(crate) fn from_compiled(
        node: NodeId,
        compiled: Arc<CompiledProgram>,
        params: ProgramParams,
    ) -> Result<Self, CologneError> {
        params.validate()?;
        let mut engine = Engine::new(node);
        engine.set_schemas(compiled.catalog.schema_set());
        for (idx, rule) in compiled.program.rules.iter().enumerate() {
            if compiled.analysis.class_of(idx) == RuleClass::Regular {
                engine.add_rule(rule_to_datalog(rule, &params)?);
            }
        }
        let pipeline = SolvePipeline::new(&compiled, &params);
        Ok(CologneInstance {
            node,
            compiled,
            params,
            engine,
            pipeline,
            cumulative_stats: SearchStats::default(),
            last_stats: None,
            solver_invocations: 0,
            last_report: None,
            remote_rows: BTreeMap::new(),
        })
    }

    /// The node this instance runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The compiled program (after localization).
    pub fn program(&self) -> &Program {
        &self.compiled.program
    }

    /// The program analysis (rule classes, solver tables).
    pub fn analysis(&self) -> &Analysis {
        &self.compiled.analysis
    }

    /// Program parameters in effect.
    pub fn params(&self) -> &ProgramParams {
        &self.params
    }

    /// Mutable access to the parameters (e.g. to change thresholds or
    /// solver knobs between invocations when exploring policy variants).
    /// Invalidates the cached grounding plan; the next solver invocation
    /// re-validates the parameters and rebuilds the plan and the search
    /// configuration from them.
    ///
    /// Constants read by regular rules were resolved into the engine's
    /// rules at construction, so a changed constant reaches only the solver
    /// rules.
    pub fn params_mut(&mut self) -> &mut ProgramParams {
        self.pipeline.invalidate();
        self.last_report = None;
        &mut self.params
    }

    /// Snapshot of the grounding-pipeline counters (plan builds, full
    /// rebuilds, incremental builds) — the one observability surface for
    /// plan caching and incremental re-optimization.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// The engine's accumulated delta summary since the last grounding
    /// (consumed — and reset — by the next solver invocation).
    pub fn pending_delta(&self) -> &cologne_datalog::DeltaSummary {
        self.engine.delta_summary()
    }

    /// Total solver statistics accumulated over all invocations.
    pub fn cumulative_solver_stats(&self) -> &SearchStats {
        &self.cumulative_stats
    }

    /// Solver statistics of the most recent [`CologneInstance::invoke_solver`]
    /// (nodes, fails, propagations, max depth, ...), or `None` before the
    /// first invocation. Trivial invocations report all-zero stats. This is
    /// the per-invocation "solver effort" figure the paper's Table 2
    /// discussion reports alongside each COP execution.
    pub fn last_solver_stats(&self) -> Option<&SearchStats> {
        self.last_stats.as_ref()
    }

    /// Number of times the solver has been invoked.
    pub fn solver_invocations(&self) -> u64 {
        self.solver_invocations
    }

    /// The search configuration COP solving runs under, derived from
    /// [`CologneInstance::params`] when the grounding plan was last built.
    pub fn search_config(&self) -> &cologne_solver::SearchConfig {
        self.pipeline.search_config()
    }

    /// Statistics of the underlying Datalog engine.
    pub fn engine_stats(&self) -> &cologne_datalog::EngineStats {
        self.engine.stats()
    }

    // ----- relations (typed handles + borrowing reads) ----------------------

    /// The relation schemas derived from the compiled (localized) program:
    /// one entry per relation the program mentions, with per-column kinds,
    /// the location-specifier position and the solver-attribute columns.
    pub fn schema_catalog(&self) -> &SchemaCatalog {
        &self.compiled.catalog
    }

    /// A schema-checked handle on one relation — the typed write surface.
    ///
    /// The name is validated eagerly: a relation the program never mentions
    /// is rejected here with [`CologneError::UnknownRelation`] (including a
    /// did-you-mean suggestion), instead of silently creating a table no
    /// rule will ever read. All writes through the handle validate arity and
    /// column kinds against the derived schema.
    pub fn relation(&mut self, relation: &str) -> Result<RelationHandle<'_>, CologneError> {
        let catalog = &self.compiled.catalog;
        if !catalog.contains(relation) {
            return Err(CologneError::UnknownRelation {
                relation: relation.to_string(),
                suggestion: catalog
                    .suggest(relation)
                    .or_else(|| self.engine.suggest_relation(relation)),
            });
        }
        Ok(RelationHandle::new(self, relation))
    }

    /// Validate one tuple against the derived schema of `relation`.
    pub(crate) fn check_tuple(&self, relation: &str, tuple: &Tuple) -> Result<(), CologneError> {
        if let Some(schema) = self.compiled.catalog.get(relation) {
            schema
                .check(tuple)
                .map_err(cologne_datalog::IngestError::from)?;
        }
        Ok(())
    }

    /// Borrowing iterator over the visible tuples of a relation, in
    /// unspecified order (sort, or use [`RelationHandle::snapshot`], when a
    /// deterministic order matters). No per-call allocation or cloning.
    pub fn scan(&self, relation: &str) -> impl Iterator<Item = &Tuple> {
        self.engine.scan(relation)
    }

    /// Borrowed names of every relation the engine has seen, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.engine.relation_names_ref()
    }

    /// True if a relation contains the tuple.
    pub fn contains(&self, relation: &str, tuple: &Tuple) -> bool {
        self.engine.contains(relation, tuple)
    }

    // ----- distribution ------------------------------------------------------

    /// Accept a tuple shipped by peer `from`, validating it against the
    /// program's relation schemas first: a remote tuple naming an unknown
    /// relation, or violating the relation's arity/kinds, is rejected with
    /// an error instead of corrupting local state.
    ///
    /// Ingest is idempotent per sender. At-least-once delivery redelivers —
    /// duplicated packets, rejoin resyncs — and the engine underneath counts
    /// multiplicities, so naively re-inserting an assertion this peer
    /// already delivered would inflate the count and leave the row visible
    /// after its one legitimate retraction. Re-assertions and retractions of
    /// rows the peer never asserted are therefore no-ops; a row asserted by
    /// several distinct peers keeps one multiplicity per asserting peer.
    pub fn try_receive(&mut self, from: NodeId, remote: &RemoteTuple) -> Result<(), CologneError> {
        // The engine carries the schemas derived from this program (installed
        // at construction), so its validation is the single gate here.
        self.engine
            .validate(&remote.relation, &remote.tuple)
            .map_err(CologneError::from)?;
        // Track what this node only knows because a peer shipped it — the
        // state a crash must drop — and apply only the visibility changes.
        let rows = self.remote_rows.entry(remote.relation.clone()).or_default();
        if remote.insert {
            if rows.entry(remote.tuple.clone()).or_default().insert(from) {
                self.engine
                    .try_insert(&remote.relation, remote.tuple.clone())
                    .map_err(CologneError::from)?;
            }
        } else if let Some(senders) = rows.get_mut(&remote.tuple) {
            if senders.remove(&from) {
                if senders.is_empty() {
                    rows.remove(&remote.tuple);
                }
                self.engine
                    .try_delete(&remote.relation, remote.tuple.clone())
                    .map_err(CologneError::from)?;
            }
        }
        Ok(())
    }

    /// Simulate a process crash and restart: every tuple ingested from peers
    /// is retracted (local base facts survive — a restarted process re-reads
    /// its local configuration), the rules re-run so derived state unwinds,
    /// and all cross-invocation solver caches are dropped. Tuples the crash
    /// produced for other nodes are discarded — a dead node sends nothing.
    /// The driver re-syncs the instance from its neighbors on rejoin.
    pub fn crash_reset(&mut self) {
        let remote = std::mem::take(&mut self.remote_rows);
        for (relation, rows) in remote {
            for (row, senders) in rows {
                // One engine multiplicity per asserting peer (see
                // `remote_rows`), so unwind one retraction per peer. Only
                // tuples that passed validated ingest are tracked, so
                // retraction cannot fail; ignore errors defensively anyway.
                for _ in 0..senders.len() {
                    let _ = self.engine.try_delete(&relation, row.clone());
                }
            }
        }
        self.engine.run();
        let _ = self.engine.take_outbox();
        self.pipeline.forget();
        self.last_report = None;
    }

    /// Run the regular rules to a local fixpoint and return any tuples
    /// addressed to other nodes.
    pub fn run_rules(&mut self) -> Vec<RemoteTuple> {
        self.engine.run();
        self.engine.take_outbox()
    }

    // ----- solver invocation --------------------------------------------------

    /// Ground the solver rules against the current tables without solving
    /// (useful for inspection and benchmarking of the grounding step alone).
    /// The returned COP owns its model and can be solved directly with
    /// [`GroundedCop::solve_in`]; hand it back via
    /// [`CologneInstance::recycle`] to keep the arena reuse of the pipeline.
    pub fn ground_only(&mut self) -> Result<GroundedCop, CologneError> {
        self.engine.run();
        let delta = self.engine.take_delta_summary();
        // This grounding consumes the delta checkpoint, so the memoized
        // report of the last invoke_solver no longer matches what the next
        // clean-delta invocation would reuse: drop it.
        self.last_report = None;
        self.pipeline
            .ground(&self.params, &self.engine, Some(&delta))
    }

    /// Reclaim a [`GroundedCop`] obtained from
    /// [`CologneInstance::ground_only`] so the next grounding reuses its
    /// model arena and symbol table ([`CologneInstance::invoke_solver`] does
    /// this internally).
    pub fn recycle(&mut self, cop: GroundedCop) {
        self.pipeline.recycle(cop);
    }

    /// The paper's `invokeSolver`, staged through the solve pipeline:
    /// ground the COP (reusing the cached plan and recycled model arena), run
    /// branch-and-bound in the pipeline's reused search space under the
    /// configured limits, materialize the result and re-run the rules.
    pub fn invoke_solver(&mut self) -> Result<SolveReport, CologneError> {
        let report = self.invoke_solver_inner(None)?;
        self.last_stats = Some(report.stats.clone());
        Ok(report)
    }

    /// [`CologneInstance::invoke_solver`] with a streaming
    /// [`SolveObserver`]: incumbents, restarts, LNS iterations, budget
    /// exhaustion and periodic progress are reported while the search runs,
    /// and the observer can cancel it cooperatively (the report then carries
    /// the best incumbent found so far and
    /// [`cologne_solver::SearchStats::cancelled`]).
    ///
    /// Cancellation never poisons the instance: every cross-invocation cache
    /// (retained COP, warm memory, memoized report) is
    /// dropped, so the next invocation is a clean full rebuild.
    pub fn invoke_solver_with_observer(
        &mut self,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, CologneError> {
        let report = self.invoke_solver_inner(Some(observer))?;
        self.last_stats = Some(report.stats.clone());
        Ok(report)
    }

    fn invoke_solver_inner(
        &mut self,
        observer: Option<&mut dyn SolveObserver>,
    ) -> Result<SolveReport, CologneError> {
        self.engine.run();
        let delta = self.engine.take_delta_summary();
        let cop = self
            .pipeline
            .ground(&self.params, &self.engine, Some(&delta))?;
        self.solver_invocations += 1;

        // Memoized re-solve: the grounding handed back the previous COP
        // untouched and re-solving would provably reproduce the previous
        // report — either that search completed (proved optimality or
        // infeasibility), or only deterministic limits (node/fail, no wall
        // clock) are configured. Re-apply the materialization (idempotent on
        // an unchanged database) and return the cached report with this
        // invocation's (empty) outgoing tuples. A wall-clock-limited
        // *incomplete* solve is never replayed: a retry gets a fresh budget
        // and may improve the incumbent.
        if self.pipeline.last_ground_was_reuse() {
            let replayable = self
                .last_report
                .as_ref()
                .is_some_and(|r| r.proven_optimal || self.params.solver_max_time.is_none());
            if replayable {
                let cached = self.last_report.clone().expect("checked above");
                let goal_relation = cop.goal_relation.clone();
                self.pipeline.recycle(cop);
                // Mirror the solve path exactly: trivial and infeasible
                // reports never materialized anything (and never drained the
                // outbox), so their replay must not either.
                let outgoing = if cached.feasible && !cached.trivial {
                    self.materialize(&cached.assignments, &goal_relation)
                } else {
                    Vec::new()
                };
                let report = SolveReport { outgoing, ..cached };
                self.last_report = Some(report.clone());
                return Ok(report);
            }
        }

        if cop.is_trivial() {
            self.pipeline.recycle(cop);
            let report = SolveReport::empty(true);
            self.last_report = Some(report.clone());
            return Ok(report);
        }
        let outcome = self.pipeline.solve_observed(&cop, &self.params, observer);
        self.cumulative_stats.merge(&outcome.stats);
        let cancelled = outcome.stop == StopReason::Cancelled;
        let proven_optimal = outcome.stop == StopReason::Complete;
        let Some(best) = outcome.best else {
            self.pipeline.recycle(cop);
            if cancelled {
                self.forget_after_cancellation();
            }
            let report = SolveReport {
                feasible: false,
                trivial: false,
                objective: None,
                proven_optimal,
                stats: outcome.stats,
                certificate: outcome.certificate,
                assignments: BTreeMap::new(),
                outgoing: Vec::new(),
            };
            self.last_report = if cancelled {
                None
            } else {
                Some(report.clone())
            };
            return Ok(report);
        };

        // Materialize solver tables with concrete values and push the `var`
        // tables + goal relation back into the engine.
        let mut assignments: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        for (name, rows) in &cop.solver_tables {
            let resolved: Vec<Tuple> = rows
                .iter()
                .map(|row| row.iter().map(|v| cop.resolve(v, &best)).collect())
                .collect();
            assignments.insert(name.clone(), resolved);
        }
        let objective = outcome
            .best_objective
            .or_else(|| cop.objective.map(|(_, obj)| best.value(obj)));
        let goal_relation = cop.goal_relation.clone();
        self.pipeline.recycle(cop);
        if cancelled {
            self.forget_after_cancellation();
        }
        let outgoing = self.materialize(&assignments, &goal_relation);

        let report = SolveReport {
            feasible: true,
            trivial: false,
            objective,
            proven_optimal,
            stats: outcome.stats,
            certificate: outcome.certificate,
            assignments,
            outgoing,
        };
        self.last_report = if cancelled {
            None
        } else {
            Some(report.clone())
        };
        Ok(report)
    }

    /// Drop every cross-invocation cache after an observer cancelled a
    /// search mid-way: a cancelled solve is not reproducible, so nothing of
    /// it may seed the next invocation. The next grounding is a clean full
    /// rebuild.
    fn forget_after_cancellation(&mut self) {
        self.pipeline.forget();
        self.last_report = None;
    }

    /// Push the `var` tables and the goal relation of a solve back into the
    /// engine, run the regular rules to a fixpoint and collect the tuples
    /// addressed to other nodes.
    fn materialize(
        &mut self,
        assignments: &BTreeMap<String, Vec<Tuple>>,
        goal_relation: &Option<String>,
    ) -> Vec<RemoteTuple> {
        let mut to_materialize: Vec<String> = self
            .compiled
            .program
            .vars
            .iter()
            .map(|v| v.table.name.clone())
            .collect();
        if let Some(goal_rel) = goal_relation {
            to_materialize.push(goal_rel.clone());
        }
        for name in to_materialize {
            if let Some(rows) = assignments.get(&name) {
                self.engine.set_relation(&name, rows.clone());
            }
        }
        self.engine.run();
        self.engine.take_outbox()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::VarDomain;
    use cologne_datalog::Value;

    const ACLOUD: &str = r#"
        goal minimize C in hostStdevCpu(C).
        var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
        r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
        d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
        d2 hostStdevCpu(STDEV<C>) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
        d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
        c1 assignCount(Vid,V) -> V==1.
        d4 hostMem(Hid,SUM<M>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), M==V*Mem.
        c2 hostMem(Hid,Mem) -> hostMemThres(Hid,M), Mem<=M.
    "#;

    fn acloud_instance() -> CologneInstance {
        let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
        let mut inst = CologneInstance::new(NodeId(0), ACLOUD, params).unwrap();
        for (vid, cpu, mem) in [(1, 40, 4), (2, 20, 4), (3, 30, 4)] {
            inst.relation("vm")
                .unwrap()
                .insert(vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)])
                .unwrap();
        }
        for hid in [10, 11, 12] {
            inst.relation("host")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
                .unwrap();
            inst.relation("hostMemThres")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(16)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn compiles_and_installs_regular_rules() {
        let inst = acloud_instance();
        assert_eq!(inst.node(), NodeId(0));
        // only r1 is a regular rule
        assert_eq!(inst.analysis().class_counts(), (1, 4, 2));
        assert_eq!(inst.program().rules.len(), 7);
    }

    #[test]
    fn invoke_solver_assigns_each_vm_exactly_once() {
        let mut inst = acloud_instance();
        let report = inst.invoke_solver().unwrap();
        assert!(report.feasible);
        assert!(!report.trivial);
        assert!(report.proven_optimal);
        let assign = report.table("assign");
        assert_eq!(assign.len(), 9); // 3 VMs x 3 hosts
        for vid in [1i64, 2, 3] {
            let placements: i64 = assign
                .iter()
                .filter(|r| r[0].as_int() == Some(vid))
                .map(|r| r[2].as_int().unwrap())
                .sum();
            assert_eq!(placements, 1, "VM {vid} must run on exactly one host");
        }
        // the optimum spreads the three VMs over three hosts
        let used_hosts: std::collections::BTreeSet<i64> = assign
            .iter()
            .filter(|r| r[2].as_int() == Some(1))
            .map(|r| r[1].as_int().unwrap())
            .collect();
        assert_eq!(used_hosts.len(), 3);
        // the assignment was materialized back into the engine
        assert_eq!(inst.scan("assign").count(), 9);
        assert_eq!(inst.solver_invocations(), 1);
        assert!(inst.cumulative_solver_stats().nodes > 0);
    }

    #[test]
    fn solver_respects_workload_changes_incrementally() {
        let mut inst = acloud_instance();
        inst.invoke_solver().unwrap();
        // a new VM arrives
        inst.relation("vm")
            .unwrap()
            .insert(vec![Value::Int(4), Value::Int(50), Value::Int(4)])
            .unwrap();
        let report = inst.invoke_solver().unwrap();
        let assign = report.table("assign");
        assert_eq!(assign.len(), 12); // 4 VMs x 3 hosts
        let vm4: i64 = assign
            .iter()
            .filter(|r| r[0].as_int() == Some(4))
            .map(|r| r[2].as_int().unwrap())
            .sum();
        assert_eq!(vm4, 1);
    }

    #[test]
    fn empty_workload_is_trivial() {
        let params = ProgramParams::new();
        let mut inst = CologneInstance::new(NodeId(0), ACLOUD, params).unwrap();
        let report = inst.invoke_solver().unwrap();
        assert!(report.trivial);
        assert!(report.feasible);
    }

    #[test]
    fn infeasible_constraints_reported() {
        // memory threshold 0: no VM can be placed anywhere, but each VM must
        // be assigned exactly once -> infeasible.
        let params = ProgramParams::new();
        let mut inst = CologneInstance::new(NodeId(0), ACLOUD, params).unwrap();
        inst.relation("vm")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(40), Value::Int(4)])
            .unwrap();
        inst.relation("host")
            .unwrap()
            .insert(vec![Value::Int(10), Value::Int(0), Value::Int(0)])
            .unwrap();
        inst.relation("hostMemThres")
            .unwrap()
            .insert(vec![Value::Int(10), Value::Int(0)])
            .unwrap();
        let report = inst.invoke_solver().unwrap();
        assert!(!report.feasible);
        assert!(report.assignments.is_empty());
    }

    #[test]
    fn node_limit_prevents_optimality_proof() {
        let params = ProgramParams::new().with_solver_node_limit(Some(3));
        let mut inst = CologneInstance::new(NodeId(0), ACLOUD, params).unwrap();
        for vid in 0..6i64 {
            inst.relation("vm")
                .unwrap()
                .insert(vec![Value::Int(vid), Value::Int(10 + vid), Value::Int(1)])
                .unwrap();
        }
        for hid in [10, 11] {
            inst.relation("host")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
                .unwrap();
            inst.relation("hostMemThres")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(100)])
                .unwrap();
        }
        let report = inst.invoke_solver().unwrap();
        assert!(!report.proven_optimal);
    }

    #[test]
    fn facts_can_be_updated_and_queried() {
        let mut inst = acloud_instance();
        inst.run_rules();
        assert_eq!(inst.scan("vm").count(), 3);
        inst.relation("vm")
            .unwrap()
            .delete(vec![Value::Int(3), Value::Int(30), Value::Int(4)])
            .unwrap();
        inst.run_rules();
        assert_eq!(inst.scan("vm").count(), 2);
        inst.relation("vm")
            .unwrap()
            .set(vec![vec![Value::Int(9), Value::Int(5), Value::Int(1)]])
            .unwrap();
        inst.run_rules();
        assert_eq!(inst.relation("vm").unwrap().snapshot().len(), 1);
        assert!(inst.contains("vm", &vec![Value::Int(9), Value::Int(5), Value::Int(1)]));
        assert!(inst.engine_stats().external_deltas > 0);
        assert!(inst.relation_names().contains(&"vm"));
    }

    #[test]
    fn malformed_remote_tuple_is_rejected_not_ingested() {
        let mut inst = acloud_instance();
        inst.run_rules();
        let before = inst.scan("vm").count();
        let err = inst.try_receive(
            NodeId(1),
            &cologne_datalog::RemoteTuple {
                dest: NodeId(0),
                relation: "vm".into(),
                tuple: vec![Value::Int(1)],
                insert: true,
            },
        );
        assert!(err.is_err(), "arity-1 tuple must fail the vm schema");
        inst.run_rules();
        assert_eq!(inst.scan("vm").count(), before);
    }
}
