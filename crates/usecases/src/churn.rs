//! Churn scenario: ACloud under continuous workload change — the
//! incremental re-optimization workload.
//!
//! The paper's framing of Cologne is *continuous* optimization: monitored
//! state flows through the incremental Datalog engine and every change
//! triggers a re-solve. The Fig. 2/3 experiment approximates this with
//! wholesale table refreshes every 10 minutes; this scenario instead drives
//! genuine per-tick deltas — VM arrivals, VM departures and host-capacity
//! drift — through a [`cologne::Deployment`] (one ACloud
//! controller per data center, ticked by the net simulator's timers), so
//! that consecutive `invokeSolver` executions differ by a handful of tuples.
//!
//! That is exactly the regime the delta-aware grounding and warm-started
//! solving of the `cologne` runtime target. Every re-solve after the first
//! is an incremental grounding; with [`ChurnConfig::warm_start`] on (the
//! default) it also starts its search from the previous tick's placement,
//! with it off every tick cold-starts the search. The tests in this module
//! pin that both produce the same optimization outcomes.

use std::collections::BTreeMap;

use cologne::datalog::{NodeId, Tuple, Value};
use cologne::net::{LinkProps, SimTime, Topology};
use cologne::solver::Branching;
use cologne::{DeploymentBuilder, ProgramParams, SolverMode, TimerOutcome, VarDomain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::programs::ACLOUD_CENTRALIZED;

/// Configuration of the churn scenario.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of data centers — one Cologne node (and one ACloud COP) each.
    pub data_centers: usize,
    /// Hosts per data center.
    pub hosts_per_dc: usize,
    /// Hot (solver-managed) VMs per data center at the start.
    pub initial_vms_per_dc: usize,
    /// Number of re-optimization ticks to simulate.
    pub ticks: u64,
    /// VMs arriving per data center per tick.
    pub arrivals_per_tick: usize,
    /// VMs departing per data center per tick.
    pub departures_per_tick: usize,
    /// Per-tick host memory-capacity drift amplitude in GB (capacities move
    /// by a value in `[-drift, +drift]`, floored so the deployment stays
    /// feasible).
    pub capacity_drift_gb: i64,
    /// Simulated time between ticks.
    pub tick_interval: SimTime,
    /// Branch-and-bound node budget per COP execution (`None` = unlimited;
    /// the wall clock is always disabled for determinism).
    pub solver_node_limit: Option<u64>,
    /// Search mode per COP execution: exact branch-and-bound (the default)
    /// or LNS — the mode of choice for churn instances too large for an
    /// optimality proof per tick. LNS's own `workers` sets the portfolio
    /// size.
    pub solver_mode: SolverMode,
    /// Start each re-solve from the previous tick's placement (the default)
    /// or cold-start every tick's search.
    pub warm_start: bool,
    /// RNG seed for the churn trace.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            data_centers: 2,
            hosts_per_dc: 4,
            initial_vms_per_dc: 10,
            ticks: 8,
            arrivals_per_tick: 1,
            departures_per_tick: 1,
            capacity_drift_gb: 2,
            tick_interval: SimTime::from_secs(1),
            solver_node_limit: None,
            solver_mode: SolverMode::Exact,
            warm_start: true,
            seed: 42,
        }
    }
}

impl ChurnConfig {
    /// A deliberately tiny configuration for unit tests.
    pub fn tiny() -> Self {
        ChurnConfig {
            data_centers: 1,
            hosts_per_dc: 3,
            initial_vms_per_dc: 5,
            ticks: 4,
            ..Default::default()
        }
    }

    /// The same scenario with warm-started solving toggled.
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }
}

/// One VM of the churn trace.
#[derive(Debug, Clone)]
struct ChurnVm {
    id: i64,
    cpu: i64,
    mem: i64,
}

impl ChurnVm {
    fn row(&self) -> Tuple {
        vec![
            Value::Int(self.id),
            Value::Int(self.cpu),
            Value::Int(self.mem),
        ]
    }
}

/// The deltas one node applies at one tick.
#[derive(Debug, Clone, Default)]
struct TickDelta {
    insert_vms: Vec<Tuple>,
    delete_vms: Vec<Tuple>,
    /// `(host index, old capacity, new capacity)` — applied via single-tuple
    /// delete+insert so unchanged hosts produce no deltas at all.
    capacity_updates: Vec<(i64, i64, i64)>,
}

/// What one solver invocation of the scenario observed.
#[derive(Debug, Clone)]
pub struct ChurnTick {
    /// Tick index (0-based).
    pub tick: u64,
    /// The data-center node that solved.
    pub node: NodeId,
    /// Whether the COP was feasible.
    pub feasible: bool,
    /// Objective value of the best placement (scaled CPU variance).
    pub objective: Option<i64>,
    /// Search nodes this invocation explored.
    pub search_nodes: u64,
    /// Whether the solve was warm-started.
    pub warm_started: bool,
}

/// Aggregate result of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// One entry per (tick, data center), in simulation order.
    pub ticks: Vec<ChurnTick>,
    /// Sum of [`cologne::PipelineStats::full_rebuilds`] over all nodes.
    pub full_rebuilds: u64,
    /// Sum of [`cologne::PipelineStats::incremental_builds`] over all nodes.
    pub incremental_builds: u64,
    /// Total search nodes explored across every invocation.
    pub total_search_nodes: u64,
}

impl ChurnOutcome {
    /// True when every invocation found a feasible placement.
    pub fn all_feasible(&self) -> bool {
        self.ticks.iter().all(|t| t.feasible)
    }

    /// Objective values in simulation order (for cross-run comparison).
    pub fn objectives(&self) -> Vec<Option<i64>> {
        self.ticks.iter().map(|t| t.objective).collect()
    }
}

/// Build the per-node churn trace: initial VMs/capacities plus per-tick
/// deltas, all derived deterministically from the seed.
struct NodeTrace {
    initial_vms: Vec<ChurnVm>,
    initial_capacity: i64,
    ticks: Vec<TickDelta>,
}

fn build_traces(config: &ChurnConfig) -> Vec<NodeTrace> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut traces = Vec::with_capacity(config.data_centers);
    for dc in 0..config.data_centers {
        let mut next_id = (dc as i64) * 1_000_000;
        let mut new_vm = |rng: &mut StdRng| {
            let vm = ChurnVm {
                id: next_id,
                cpu: rng.gen_range(10i64..60),
                mem: rng.gen_range(1i64..4),
            };
            next_id += 1;
            vm
        };
        let mut live: Vec<ChurnVm> = (0..config.initial_vms_per_dc)
            .map(|_| new_vm(&mut rng))
            .collect();
        let initial_vms = live.clone();
        // Generous baseline capacity: worst-case memory plus headroom, so
        // drift never makes the COP infeasible.
        let worst_mem = 4
            * (config.initial_vms_per_dc + config.ticks as usize * config.arrivals_per_tick) as i64;
        let initial_capacity = worst_mem / config.hosts_per_dc.max(1) as i64 + 8;
        let mut capacities: Vec<i64> = vec![initial_capacity; config.hosts_per_dc];
        let floor = initial_capacity / 2;

        let mut ticks = Vec::with_capacity(config.ticks as usize);
        for _ in 0..config.ticks {
            let mut delta = TickDelta::default();
            for _ in 0..config.departures_per_tick.min(live.len().saturating_sub(1)) {
                let idx = rng.gen_range(0..live.len());
                let vm = live.swap_remove(idx);
                delta.delete_vms.push(vm.row());
            }
            for _ in 0..config.arrivals_per_tick {
                let vm = new_vm(&mut rng);
                delta.insert_vms.push(vm.row());
                live.push(vm);
            }
            if config.capacity_drift_gb > 0 {
                // Drift one host per tick: a genuinely small delta.
                let host = rng.gen_range(0..config.hosts_per_dc);
                let step = rng.gen_range(-config.capacity_drift_gb..=config.capacity_drift_gb);
                let updated = (capacities[host] + step).max(floor);
                if updated != capacities[host] {
                    delta
                        .capacity_updates
                        .push((host as i64, capacities[host], updated));
                    capacities[host] = updated;
                }
            }
            ticks.push(delta);
        }
        traces.push(NodeTrace {
            initial_vms,
            initial_capacity,
            ticks,
        });
    }
    traces
}

/// Global host id for `(dc, host_in_dc)`.
fn churn_host_id(config: &ChurnConfig, dc: usize, host: usize) -> i64 {
    (dc * config.hosts_per_dc + host) as i64
}

/// Run the churn scenario: build the deployment, replay the trace tick by
/// tick through the net simulator's timers (each tick applies its deltas and
/// invokes the solver on every data-center node), and collect per-invocation
/// metrics plus the grounding counters.
pub fn run_churn(config: &ChurnConfig) -> ChurnOutcome {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(config.solver_node_limit)
        .with_solver_mode(config.solver_mode.clone())
        .with_warm_start(config.warm_start);
    let topology = Topology::line(config.data_centers as u32, LinkProps::default());
    let mut driver = DeploymentBuilder::new(ACLOUD_CENTRALIZED)
        .params(params)
        .topology(topology)
        .build()
        .expect("ACloud program compiles");

    let traces = build_traces(config);
    for (dc, trace) in traces.iter().enumerate() {
        let node = NodeId(dc as u32);
        let inst = driver.instance_mut(node).expect("node exists");
        let mut vm = inst.relation("vm").expect("vm is in the schema");
        for row in &trace.initial_vms {
            vm.insert(row.row()).expect("vm rows match the schema");
        }
        for host in 0..config.hosts_per_dc {
            let hid = churn_host_id(config, dc, host);
            inst.relation("host")
                .expect("host is in the schema")
                .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
                .expect("host rows match the schema");
            inst.relation("hostMemThres")
                .expect("hostMemThres is in the schema")
                .insert(vec![Value::Int(hid), Value::Int(trace.initial_capacity)])
                .expect("hostMemThres rows match the schema");
        }
        driver.schedule_timer(node, config.tick_interval, 0);
    }

    let trace_by_node: BTreeMap<u32, &NodeTrace> = traces
        .iter()
        .enumerate()
        .map(|(dc, t)| (dc as u32, t))
        .collect();
    let mut ticks: Vec<ChurnTick> = Vec::new();
    let horizon = SimTime(config.tick_interval.0 * (config.ticks + 1));
    driver.run_until(horizon, |inst, tag| {
        let trace = trace_by_node[&inst.node().0];
        let Some(delta) = trace.ticks.get(tag as usize) else {
            return TimerOutcome::default();
        };
        let dc = inst.node().0 as usize;
        let mut vm = inst.relation("vm").expect("vm is in the schema");
        for row in &delta.delete_vms {
            vm.delete(row.clone()).expect("vm rows match the schema");
        }
        for row in &delta.insert_vms {
            vm.insert(row.clone()).expect("vm rows match the schema");
        }
        for &(host, old, new) in &delta.capacity_updates {
            let hid = churn_host_id(config, dc, host as usize);
            let mut thres = inst
                .relation("hostMemThres")
                .expect("hostMemThres is in the schema");
            thres
                .delete(vec![Value::Int(hid), Value::Int(old)])
                .expect("hostMemThres rows match the schema");
            thres
                .insert(vec![Value::Int(hid), Value::Int(new)])
                .expect("hostMemThres rows match the schema");
        }
        let report = inst.invoke_solver().expect("churn COP grounds");
        ticks.push(ChurnTick {
            tick: tag,
            node: inst.node(),
            feasible: report.feasible,
            objective: report.objective,
            search_nodes: report.stats.nodes,
            warm_started: report.stats.warm_start,
        });
        let reschedule = (tag + 1 < config.ticks).then(|| (config.tick_interval, tag + 1));
        TimerOutcome {
            outgoing: report.outgoing,
            reschedule,
        }
    });

    let mut full_rebuilds = 0;
    let mut incremental_builds = 0;
    for node in driver.nodes() {
        let stats = driver.instance(node).expect("node exists").pipeline_stats();
        full_rebuilds += stats.full_rebuilds;
        incremental_builds += stats.incremental_builds;
    }
    let total_search_nodes = ticks.iter().map(|t| t.search_nodes).sum();
    ChurnOutcome {
        ticks,
        full_rebuilds,
        incremental_builds,
        total_search_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_runs_every_tick_on_every_node() {
        let config = ChurnConfig::tiny();
        let outcome = run_churn(&config);
        assert_eq!(
            outcome.ticks.len(),
            (config.ticks as usize) * config.data_centers
        );
        assert!(outcome.all_feasible(), "churn must stay feasible");
        // first tick cold, every later tick incremental, per node
        assert_eq!(outcome.full_rebuilds, config.data_centers as u64);
        assert_eq!(
            outcome.incremental_builds,
            (config.ticks - 1) * config.data_centers as u64
        );
        // every re-solve after the first is warm-started
        for t in &outcome.ticks {
            assert_eq!(t.warm_started, t.tick > 0, "tick {} warm flag", t.tick);
        }
    }

    #[test]
    fn incremental_and_cold_runs_agree_on_objectives() {
        let config = ChurnConfig::tiny();
        let warm = run_churn(&config);
        let cold = run_churn(&config.clone().with_warm_start(false));
        assert_eq!(
            warm.objectives(),
            cold.objectives(),
            "incremental re-optimization must not change solution quality"
        );
        // warm starts do not change how the COP is grounded
        assert_eq!(cold.full_rebuilds, warm.full_rebuilds);
        assert_eq!(cold.incremental_builds, warm.incremental_builds);
        assert!(
            warm.total_search_nodes < cold.total_search_nodes,
            "warm re-solves must explore fewer nodes: {} vs {}",
            warm.total_search_nodes,
            cold.total_search_nodes
        );
    }

    #[test]
    fn warm_low_budget_beats_cold_high_budget() {
        // The warm-start claim in miniature: with LNS under a node budget,
        // the warm path re-solves each tick from the previous incumbent, so
        // at a third of the cold budget it still reaches an equal-or-better
        // mean placement and final placement — the accumulated search effort
        // is what the cold path throws away. Single ticks may still go the
        // cold path's way.
        use cologne::solver::LnsConfig;
        let lns = |budget: u64, warm_start: bool| ChurnConfig {
            data_centers: 1,
            hosts_per_dc: 5,
            initial_vms_per_dc: 24,
            ticks: 5,
            solver_node_limit: Some(budget),
            solver_mode: SolverMode::Lns(LnsConfig {
                dive_node_limit: (budget / 8).max(200),
                ..Default::default()
            }),
            warm_start,
            ..ChurnConfig::default()
        };
        let warm = run_churn(&lns(2_000, true));
        let cold = run_churn(&lns(6_000, false));
        assert!(warm.all_feasible() && cold.all_feasible());
        let mean = |o: &ChurnOutcome| {
            let objs: Vec<i64> = o.ticks.iter().filter_map(|t| t.objective).collect();
            objs.iter().sum::<i64>() as f64 / objs.len() as f64
        };
        assert!(
            mean(&warm) <= mean(&cold),
            "warm mean {:.0} must not be worse than cold mean {:.0}",
            mean(&warm),
            mean(&cold)
        );
        let last = |o: &ChurnOutcome| o.ticks.last().and_then(|t| t.objective).unwrap_or(i64::MAX);
        assert!(
            last(&warm) <= last(&cold),
            "final tick: warm {} must not be worse than cold {}",
            last(&warm),
            last(&cold)
        );
        assert!(warm.total_search_nodes < cold.total_search_nodes / 2);
    }

    #[test]
    fn churn_is_deterministic() {
        let config = ChurnConfig::tiny();
        let a = run_churn(&config);
        let b = run_churn(&config);
        assert_eq!(a.objectives(), b.objectives());
        assert_eq!(a.total_search_nodes, b.total_search_nodes);
    }
}
