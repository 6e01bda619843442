//! `acloud_resolve` and `acloud_scale`: VM cpu demands change, then
//! `CologneInstance::invoke_solver` re-places the VMs. Single node, no
//! network, no server: search (and, at scale, grounding and the dual bound)
//! is all there is.

use std::time::Instant;

use cologne::datalog::{NodeId, Tuple};
use cologne::solver::{compute_root_bound, BoundMode, Objective, SearchConfig, SearchSpace};
use cologne::{
    CologneInstance, ProgramParams, SolveReport, SolverBoundMode, SolverMode, VarDomain,
};
use cologne_usecases::programs::ACLOUD_CENTRALIZED;
use cologne_usecases::{large_acloud_instance, LargeAcloudConfig};

use super::{
    record_engine, record_pipeline, record_search, trace_compile, warmup_ops, Round, Workload,
};
use crate::fixtures::{Cloud, Rng};
use crate::trace::Trace;

/// One output check in this many operations also solves the same facts on a
/// cold, fully rebuilt instance and compares objectives.
const COLD_CHECK_EVERY: u64 = 50;

/// LNS seed of `acloud_scale`: solver configuration, not workload input.
const LNS_SEED: u64 = 23;

pub struct Acloud {
    scale: bool,
    seed: u64,
    ops: usize,
    state: Option<State>,
}

struct State {
    rng: Rng,
    cloud: Cloud,
    instance: CologneInstance,
    staged: Option<Staged>,
    op_index: u64,
}

/// The twin a traced round drives through the staged calls.
struct Staged {
    instance: CologneInstance,
    config: SearchConfig,
    space: SearchSpace,
}

impl Acloud {
    /// 8 VMs on 3 hosts, exact branch-and-bound to the proven optimum.
    pub fn resolve(seed: u64, ops: usize) -> Self {
        Acloud {
            scale: false,
            seed,
            ops,
            state: None,
        }
    }

    /// 120 VMs on 10 hosts, LNS under a node budget, dual bounds on.
    pub fn scale(seed: u64, ops: usize) -> Self {
        Acloud {
            scale: true,
            seed,
            ops,
            state: None,
        }
    }

    /// Draw one round's base facts; the returned builder makes as many
    /// identical cold instances of them as the round needs.
    fn draw(&self, rng: &mut Rng) -> Box<dyn Fn() -> CologneInstance> {
        if self.scale {
            let facts = LargeAcloudConfig {
                vms: 120,
                hosts: 10,
                node_limit: 8000,
                seed: rng.next_u64(),
                workers: None,
            };
            let lns = LargeAcloudConfig {
                seed: LNS_SEED,
                ..facts.clone()
            }
            .lns_params();
            Box::new(move || {
                let mut instance = large_acloud_instance(&facts, SolverMode::Lns(lns.clone()));
                instance.params_mut().solver_bound_mode = SolverBoundMode::Auto;
                instance
            })
        } else {
            let cloud = Cloud::generate(rng, 8, 3, (10, 81));
            Box::new(move || small_instance(&cloud))
        }
    }

    /// The cpu changes of the next operation. At scale four VMs change. The
    /// small configuration redraws every VM, a new monitoring interval: its
    /// search cost hangs on the order and mix of the cpu values, and changing
    /// one VM at a time leaves runs of equal-cost operations whose luck does
    /// not average out within a run.
    fn next_delta(&self, st: &mut State) -> Vec<(Tuple, Tuple)> {
        let (batch, cpu) = if self.scale {
            (4, (5, 60))
        } else {
            (st.cloud.vms.len(), (10, 81))
        };
        let mut picked: Vec<usize> = Vec::with_capacity(batch);
        while picked.len() < batch {
            let vm = st.rng.index(st.cloud.vms.len());
            if !picked.contains(&vm) {
                picked.push(vm);
            }
        }
        picked
            .into_iter()
            .map(|vm| {
                let cpu = st.rng.range(cpu.0, cpu.1);
                st.cloud.set_cpu(vm, cpu)
            })
            .collect()
    }

    /// Count one solve and run the output checks on it.
    fn account(&self, round: &mut Round, st: &mut State, report: &SolveReport) {
        st.op_index += 1;
        if !report.feasible || report.trivial || report.objective.is_none() {
            round.failed += 1;
            return;
        }
        record_solve(round, report);
        round.check("placement", st.cloud.verify(report));
        // The cold comparison needs the small configuration: only a search
        // that proves its optimum is independent of its warm start.
        if !self.scale && st.op_index % COLD_CHECK_EVERY == 1 {
            let cold = small_instance(&st.cloud)
                .invoke_solver()
                .expect("cold instance solves");
            if cold.proven_optimal && report.proven_optimal && cold.objective != report.objective {
                round.errors.push(format!(
                    "incremental objective {:?} differs from a cold rebuild's {:?}",
                    report.objective, cold.objective
                ));
            }
        }
    }
}

/// A cold instance of the small configuration holding `cloud`.
fn small_instance(cloud: &Cloud) -> CologneInstance {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_node_limit(Some(200_000))
        .with_solver_max_time(None);
    let mut instance = CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, params)
        .expect("ACloud program compiles");
    cloud.load(&mut instance);
    instance
}

/// Quality and search counters of one solve report.
pub fn record_solve(round: &mut Round, report: &SolveReport) {
    let stats = &report.stats;
    round.add("n.solves", 1.0);
    round.add("sum.objective", report.objective.unwrap_or(0) as f64);
    round.add("n.proved", f64::from(u8::from(report.proven_optimal)));
    round.add("n.warm", f64::from(u8::from(stats.warm_start)));
    round.add("n.limit", f64::from(u8::from(stats.limit_reached)));
    if let Some(gap) = stats.gap {
        round.add("n.gap", 1.0);
        round.add("sum.gap", gap);
    }
    record_search(round, stats);
}

/// Engine and grounding-pipeline counters an instance accumulated since
/// `before` (taken with [`snapshot`]).
fn record_instance(round: &mut Round, instance: &CologneInstance, before: &Snapshot) {
    record_engine(round, instance.engine_stats(), Some(&before.0));
    record_pipeline(round, instance.pipeline_stats(), Some(before.1));
}

type Snapshot = (cologne::datalog::EngineStats, cologne::PipelineStats);

fn snapshot(instance: &CologneInstance) -> Snapshot {
    (instance.engine_stats().clone(), instance.pipeline_stats())
}

fn apply(instance: &mut CologneInstance, delta: &[(Tuple, Tuple)]) {
    let mut vm = instance.relation("vm").expect("vm is in the schema");
    for (old, new) in delta {
        vm.delete(old.clone()).expect("old row matches the schema");
        vm.insert(new.clone()).expect("new row matches the schema");
    }
}

/// The search configuration `invoke_solver` would use: the instance's
/// heuristics with the limits and bound mode of its parameters.
fn staged_config(instance: &CologneInstance) -> SearchConfig {
    let params = instance.params();
    SearchConfig {
        time_limit: params.solver_max_time,
        node_limit: params.solver_node_limit,
        bound_mode: match params.solver_bound_mode {
            SolverBoundMode::Off => BoundMode::Off,
            SolverBoundMode::Linear => BoundMode::Linear,
            SolverBoundMode::Relaxed => BoundMode::Relaxed,
            SolverBoundMode::Auto => BoundMode::Auto,
        },
        gap_limit: params.solver_gap_limit,
        ..instance.search_config().clone()
    }
}

impl Workload for Acloud {
    fn setup(&mut self, round: u64, traced: bool) {
        self.state = None;
        let mut rng = Rng::new(self.seed, round);
        let make = self.draw(&mut rng);
        let mut instance = make();
        instance.run_rules(); // queued facts become visible to the scan
        let cloud = Cloud::of_instance(&instance);
        let staged = traced.then(|| {
            let instance = make();
            Staged {
                config: staged_config(&instance),
                instance,
                space: SearchSpace::new(),
            }
        });
        let mut st = State {
            rng,
            cloud,
            instance,
            staged,
            op_index: 0,
        };
        let mut scratch = Round::default();
        for warm in 0..=warmup_ops(self.ops) {
            // the first pass is the cold solve of the untouched facts
            let delta = if warm == 0 {
                Vec::new()
            } else {
                self.next_delta(&mut st)
            };
            apply(&mut st.instance, &delta);
            let report = st.instance.invoke_solver().expect("ACloud COP solves");
            if let Some(staged) = &mut st.staged {
                apply(&mut staged.instance, &delta);
                let cop = staged.instance.ground_only().expect("ACloud COP grounds");
                staged.instance.recycle(cop);
            }
            self.account(&mut scratch, &mut st, &report);
        }
        assert!(
            scratch.errors.is_empty() && scratch.failed == 0,
            "warm-up failed: {:?}",
            scratch.errors
        );
        st.op_index = 0;
        self.state = Some(st);
    }

    fn run(&mut self) -> Round {
        let mut st = self.state.take().expect("setup ran");
        let mut round = Round::default();
        let before = snapshot(&st.instance);
        for _ in 0..self.ops {
            let delta = self.next_delta(&mut st);
            let t = Instant::now();
            apply(&mut st.instance, &delta);
            let report = st.instance.invoke_solver();
            round.op_done(t.elapsed().as_nanos() as u64);
            match report {
                Ok(report) => self.account(&mut round, &mut st, &report),
                Err(_) => round.failed += 1,
            }
        }
        record_instance(&mut round, &st.instance, &before);
        round
    }

    fn run_traced(&mut self, trace: &mut Trace) -> Round {
        let mut st = self.state.take().expect("setup ran");
        let mut staged = st.staged.take().expect("traced setup ran");
        let mut round = Round::default();
        let before = snapshot(&st.instance);
        for _ in 0..self.ops {
            let delta = self.next_delta(&mut st);
            trace.next_op();
            let t = Instant::now();
            let op = trace.enter("op");
            trace.span("datalog.apply", || apply(&mut staged.instance, &delta));
            trace.span("datalog.run", || staged.instance.run_rules());
            let cop = trace
                .span("ground", || staged.instance.ground_only())
                .expect("ACloud COP grounds");
            round.add("ground.vars", cop.model.num_vars() as f64);
            round.add("ground.propagators", cop.model.num_propagators() as f64);
            let search = trace.enter("search");
            let outcome = cop.solve_in(&staged.config, &mut staged.space);
            trace.exit(search);
            trace.exit(op);
            round.op_done(t.elapsed().as_nanos() as u64);
            // The search computes its own root bound when bounds are on: time
            // the same computation alone and nest it where it ran, so the
            // search line excludes it and the lines still sum to the
            // operation.
            let (_, objective) = cop.objective.expect("ACloud minimizes");
            let bound = Instant::now();
            std::hint::black_box(compute_root_bound(
                &cop.model,
                Objective::Minimize(objective),
                &staged.config,
                cop.model.domains(),
            ));
            trace.nest(search, "bounds.root", bound.elapsed().as_nanos() as u64);
            staged.instance.recycle(cop);
            trace_compile(trace, ACLOUD_CENTRALIZED);
            if outcome.best.is_none() {
                round.failed += 1;
            }

            // The twin answers the same operation through the one-shot call:
            // its span is the total the staged lines are compared against,
            // and its report feeds the counters and the output checks.
            apply(&mut st.instance, &delta);
            let report = trace
                .span("invoke", || st.instance.invoke_solver())
                .expect("ACloud COP solves");
            self.account(&mut round, &mut st, &report);
        }
        record_instance(&mut round, &st.instance, &before);
        round
    }
}
