//! Use case #2: Follow-the-Sun — inter-data-center VM migration
//! (Sec. 3.1.2, 4.3, 6.3).
//!
//! Geographically distributed data centers negotiate pairwise VM migrations
//! so that workloads end up close to their demand while respecting resource
//! capacities and keeping operating + communication + migration cost low.
//! Each node runs the distributed Colog program of Sec. 4.3: periodically a
//! node picks one of its links, solves a *local* COP over that link using its
//! own state plus state shipped from the neighbour (via the localization
//! rewrite), applies the resulting migration, and the process iterates until
//! every link has been negotiated.
//!
//! The experiment reproduces Fig. 4 (normalized total cost as the distributed
//! execution converges, for 2–10 data centers) and Fig. 5 (per-node
//! communication overhead).

use std::collections::BTreeMap;

use cologne::datalog::{NodeId, RemoteTuple, Value};
use cologne::net::{FaultPlan, LinkProps, SimTime, Topology};

use crate::hostile::hostile_barrier;
use cologne::solver::{SearchStats, ValueChoice};
use cologne::{Deployment, DeploymentBuilder, ProgramParams, VarDomain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::programs::{followsun_with_migration_limit, FOLLOWSUN_DISTRIBUTED};

/// Configuration of a Follow-the-Sun run.
#[derive(Debug, Clone)]
pub struct FollowSunConfig {
    /// Number of data centers (the paper sweeps 2–10).
    pub data_centers: u32,
    /// Target average degree of the random topology (paper: 3).
    pub degree: f64,
    /// Resource capacity per data center in VM units (paper: 60).
    pub capacity: i64,
    /// Maximum initial allocation per (data center, demand location)
    /// (paper: 0–10).
    pub max_initial_allocation: i64,
    /// Communication cost range per (data center, demand) (paper: 50–100).
    pub comm_cost: (i64, i64),
    /// Migration cost range per link (paper: 10–20).
    pub mig_cost: (i64, i64),
    /// Operating cost per VM (paper: 10).
    pub op_cost: i64,
    /// Period between link negotiations in seconds (paper: 5).
    pub negotiation_period_secs: u64,
    /// Branch-and-bound node budget per local COP.
    pub solver_node_limit: u64,
    /// Optional per-link migration cap (the `d11`/`c5` policy of Sec. 4.3).
    pub migration_limit: Option<i64>,
    /// Worker threads per local COP search (`None` = sequential). The
    /// negotiated allocations are identical either way; see the solver's
    /// `parallel` module for the determinism contract.
    pub solver_workers: Option<std::num::NonZeroUsize>,
    /// RNG seed.
    pub seed: u64,
    /// Optional network fault plan (loss, duplication, jitter, partitions,
    /// crash/rejoin). `None` keeps the original perfect network byte for
    /// byte; `Some` switches shipping to the at-least-once delivery layer
    /// and makes the negotiation wait for crashed endpoints and for network
    /// quiescence before each local solve, so the execution reconverges to
    /// the fault-free fixpoint. Fault-plan runs also drop the wall-clock
    /// solver cutoff (the node budget alone bounds each search): hostile
    /// executions are compared byte for byte against quiet ones and across
    /// reruns, and a wall clock is schedule-dependent.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for FollowSunConfig {
    fn default() -> Self {
        FollowSunConfig {
            data_centers: 4,
            degree: 3.0,
            capacity: 60,
            max_initial_allocation: 10,
            comm_cost: (50, 100),
            mig_cost: (10, 20),
            op_cost: 10,
            negotiation_period_secs: 5,
            solver_node_limit: 50_000,
            migration_limit: None,
            solver_workers: None,
            seed: 11,
            fault_plan: None,
        }
    }
}

/// The synthetic Follow-the-Sun workload: per-node allocations and costs.
#[derive(Debug, Clone)]
pub struct FollowSunWorkload {
    /// Network of data centers.
    pub topology: Topology,
    /// `alloc[x][d]` = VMs currently hosted at data center `x` serving
    /// demand location `d`.
    pub alloc: Vec<Vec<i64>>,
    /// `comm_cost[x][d]` = cost of serving demand `d` from data center `x`.
    pub comm_cost: Vec<Vec<i64>>,
    /// `mig_cost[x][y]` = per-VM migration cost on link (x, y).
    pub mig_cost: BTreeMap<(u32, u32), i64>,
    /// Per-VM operating cost (uniform across data centers, as in the paper).
    pub op_cost: i64,
    /// Capacity per data center.
    pub capacity: i64,
}

impl FollowSunWorkload {
    /// Generate a workload for the configuration.
    pub fn generate(config: &FollowSunConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.data_centers as usize;
        let topology = Topology::random_connected(
            config.data_centers,
            config.degree,
            config.seed,
            LinkProps::default(),
        );
        let mut alloc: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| rng.gen_range(0..=config.max_initial_allocation))
                    .collect()
            })
            .collect();
        // Initial allocations must respect the per-data-center capacity
        // (constraint (5) of the paper); trim overloaded nodes.
        for row in alloc.iter_mut() {
            while row.iter().sum::<i64>() > config.capacity {
                let d = rng.gen_range(0..n);
                if row[d] > 0 {
                    row[d] -= 1;
                }
            }
        }
        let comm_cost: Vec<Vec<i64>> = (0..n)
            .map(|x| {
                (0..n)
                    .map(|d| {
                        if x == d {
                            // serving local demand is cheap
                            config.comm_cost.0 / 5
                        } else {
                            rng.gen_range(config.comm_cost.0..=config.comm_cost.1)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut mig_cost = BTreeMap::new();
        for (a, b) in topology.links() {
            let c = rng.gen_range(config.mig_cost.0..=config.mig_cost.1);
            mig_cost.insert((a, b), c);
            mig_cost.insert((b, a), c);
        }
        FollowSunWorkload {
            topology,
            alloc,
            comm_cost,
            mig_cost,
            op_cost: config.op_cost,
            capacity: config.capacity,
        }
    }

    /// Operating + communication cost of the current allocation (the part of
    /// the paper's objective that depends on where VMs sit).
    pub fn allocation_cost(&self) -> i64 {
        let mut total = 0;
        for (x, row) in self.alloc.iter().enumerate() {
            for (d, &vms) in row.iter().enumerate() {
                total += vms * (self.op_cost + self.comm_cost[x][d]);
            }
        }
        total
    }

    /// Total VMs at a data center.
    pub fn load_of(&self, x: u32) -> i64 {
        self.alloc[x as usize].iter().sum()
    }

    /// Apply a migration of `r` VMs serving demand `d` from `x` to `y`
    /// (negative `r` migrates in the other direction). Returns the migration
    /// cost incurred.
    pub fn apply_migration(&mut self, x: u32, y: u32, d: usize, r: i64) -> i64 {
        self.alloc[x as usize][d] -= r;
        self.alloc[y as usize][d] += r;
        r.abs() * self.mig_cost.get(&(x, y)).copied().unwrap_or(0)
    }
}

/// One point of the Fig. 4 cost-vs-time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// Simulated time in seconds.
    pub time_secs: f64,
    /// Total cost (allocation cost + cumulative migration cost), normalized
    /// so that the initial value is 100.
    pub normalized_cost: f64,
}

/// Result of one distributed Follow-the-Sun execution.
#[derive(Debug, Clone)]
pub struct FollowSunOutcome {
    /// Normalized total cost over time (Fig. 4).
    pub cost_series: Vec<CostPoint>,
    /// Average per-node communication overhead in KB/s (Fig. 5).
    pub per_node_overhead_kbps: f64,
    /// Time at which the last link negotiation completed.
    pub convergence_secs: f64,
    /// Total VM units migrated.
    pub migrated_vms: i64,
    /// Absolute initial cost.
    pub initial_cost: i64,
    /// Absolute final cost (allocation + cumulative migration).
    pub final_cost: i64,
    /// Aggregate solver effort over every per-node COP invocation of the run
    /// (nodes, fails, propagations, max depth — the paper's Table 2
    /// per-execution figures, summed across the negotiation).
    pub solver_stats: SearchStats,
    /// Total number of `invokeSolver` executions across all nodes.
    pub solver_invocations: u64,
}

impl FollowSunOutcome {
    /// Fractional cost reduction achieved by the distributed execution
    /// (the paper reports 40.4% for 2 DCs down to 11.2% for 10).
    pub fn cost_reduction(&self) -> f64 {
        if self.initial_cost == 0 {
            return 0.0;
        }
        (self.initial_cost - self.final_cost) as f64 / self.initial_cost as f64
    }
}

fn node_facts(workload: &FollowSunWorkload, node: u32) -> Vec<(&'static str, Vec<Value>)> {
    let n = workload.alloc.len();
    let x = Value::Addr(NodeId(node));
    let mut facts = Vec::new();
    for d in 0..n {
        facts.push(("dc", vec![x.clone(), Value::Int(d as i64)]));
        facts.push((
            "curVm",
            vec![
                x.clone(),
                Value::Int(d as i64),
                Value::Int(workload.alloc[node as usize][d]),
            ],
        ));
        facts.push((
            "commCost",
            vec![
                x.clone(),
                Value::Int(d as i64),
                Value::Int(workload.comm_cost[node as usize][d]),
            ],
        ));
    }
    facts.push(("opCost", vec![x.clone(), Value::Int(workload.op_cost)]));
    facts.push(("resource", vec![x.clone(), Value::Int(workload.capacity)]));
    for y in workload.topology.neighbors(node) {
        facts.push(("link", vec![x.clone(), Value::Addr(NodeId(y))]));
        facts.push((
            "migCost",
            vec![
                x.clone(),
                Value::Addr(NodeId(y)),
                Value::Int(workload.mig_cost[&(node, y)]),
            ],
        ));
    }
    facts
}

/// Refresh the `curVm` table of one node from the workload state.
fn refresh_curvm(driver: &mut Deployment, workload: &FollowSunWorkload, node: u32) {
    let n = workload.alloc.len();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|d| {
            vec![
                Value::Addr(NodeId(node)),
                Value::Int(d as i64),
                Value::Int(workload.alloc[node as usize][d]),
            ]
        })
        .collect();
    if let Some(inst) = driver.instance_mut(NodeId(node)) {
        inst.relation("curVm")
            .expect("curVm is in the schema")
            .set(rows)
            .expect("curVm rows match the schema");
        let out = inst.run_rules();
        driver.ship(NodeId(node), out);
    }
}

/// Build the distributed Follow-the-Sun deployment for a workload: one
/// Cologne instance per data center running the Sec. 4.3 program, with every
/// node's base facts installed and the localization shipping rules already
/// exchanged over the simulated network.
///
/// `run_followsun` drives the paper's one-link-at-a-time negotiation on top
/// of this; tests use it to exercise per-node solver invocations directly
/// (e.g. [`cologne::Deployment::solve`] with `SolveRequest::all().parallel()`).
pub fn build_followsun_deployment(
    config: &FollowSunConfig,
    workload: &FollowSunWorkload,
) -> Deployment {
    let source = match config.migration_limit {
        Some(_) => followsun_with_migration_limit(),
        None => FOLLOWSUN_DISTRIBUTED.to_string(),
    };
    // See `FollowSunConfig::fault_plan`: hostile runs must be deterministic,
    // so the wall clock only applies to the fault-free path.
    let max_time = match config.fault_plan {
        Some(_) => None,
        None => Some(std::time::Duration::from_secs(10)),
    };
    // The COP cost is a SUMABS over the migration variables, so `migVm = 0`
    // (ship nothing) is both feasible and cheap: branching toward zero first
    // hands branch-and-bound a near-optimal incumbent right away, and the
    // rest of the search is bound pruning instead of incumbent discovery.
    // Bisection (`split_threshold: 2`) pairs with that: once the incumbent is
    // tight, the half of a domain far from zero is refuted in a single
    // conflict instead of one failed propagation per candidate value.
    let mut params = ProgramParams::new()
        .with_var_domain("migVm", VarDomain::new(-config.capacity, config.capacity))
        .with_solver_node_limit(Some(config.solver_node_limit))
        .with_solver_max_time(max_time)
        .with_solver_value_choice(ValueChoice::ClosestToZero)
        .with_solver_split_threshold(Some(2))
        .with_solver_workers(config.solver_workers)
        // A crashed node re-solves from a cold pipeline; under a fault plan
        // warm incumbents are disabled everywhere so quiet and hostile runs
        // tie-break identically.
        .with_warm_start(config.fault_plan.is_none());
    if let Some(limit) = config.migration_limit {
        params = params.with_constant("max_migrates", limit);
    }

    let mut builder = DeploymentBuilder::new(&source)
        .params(params)
        .topology(workload.topology.clone());
    if let Some(plan) = &config.fault_plan {
        builder = builder.faults(plan.clone());
    }
    let mut driver = builder.build().expect("Follow-the-Sun program compiles");

    // Install the per-node base facts and let the shipping rules distribute
    // neighbour state.
    for node in workload.topology.nodes() {
        for (rel, tuple) in node_facts(workload, node) {
            driver
                .insert(NodeId(node), rel, tuple)
                .expect("base facts match the schema");
        }
    }
    driver.run_messages_until(SimTime::from_secs(1));
    driver
}

/// Run the distributed Follow-the-Sun execution on a generated workload.
pub fn run_followsun(config: &FollowSunConfig) -> FollowSunOutcome {
    let mut workload = FollowSunWorkload::generate(config);
    let mut driver = build_followsun_deployment(config, &workload);

    // Negotiate each link once, on the paper's 5-second cadence; the
    // higher-numbered endpoint initiates (footnote 1 of Sec. 4.3).
    let links = workload.topology.links();
    let mut cumulative_migration_cost = 0i64;
    let mut migrated_vms = 0i64;
    let initial_cost = workload.allocation_cost();
    let mut cost_series = vec![CostPoint {
        time_secs: 0.0,
        normalized_cost: 100.0,
    }];
    let mut convergence_secs = 0.0;

    // Under a fault plan, negotiations must not read a half-synced view:
    // wait out crash windows on the link being negotiated and drive the
    // delivery layer to quiescence (every shipped tuple acked) before each
    // local solve. `fault_horizon` bounds how long a wait can be pushed past
    // a round's nominal deadline by the last scheduled rejoin.
    let hostile = config.fault_plan.is_some();
    let fault_horizon = config
        .fault_plan
        .as_ref()
        .and_then(|p| p.crashes().iter().map(|c| c.up).max())
        .unwrap_or(SimTime::ZERO);
    let period_us = SimTime::from_secs(config.negotiation_period_secs).0;

    for (round, &(a, b)) in links.iter().enumerate() {
        let initiator = a.max(b);
        let peer = a.min(b);
        let mut deadline = SimTime::from_secs((round as u64 + 1) * config.negotiation_period_secs);
        if hostile {
            deadline = hostile_barrier(
                &mut driver,
                deadline,
                fault_horizon,
                period_us,
                [initiator, peer],
            );
        } else {
            driver.run_messages_until(deadline);
        }

        // Start the negotiation: setLink at the initiator triggers r1.
        let set_link = vec![Value::Addr(NodeId(initiator)), Value::Addr(NodeId(peer))];
        driver
            .insert(NodeId(initiator), "setLink", set_link.clone())
            .expect("setLink matches the schema");
        if hostile {
            deadline = hostile_barrier(
                &mut driver,
                deadline,
                fault_horizon,
                period_us,
                [initiator, peer],
            );
        } else {
            driver.run_messages_until(deadline);
        }

        // Local COP at the initiator. The local objective (aggCost) covers
        // operating + communication cost of both endpoints plus migration
        // cost; a proposed migration is only applied if it beats keeping the
        // current allocation (the zero-migration plan), which mirrors the
        // paper's greedy per-link improvement and keeps the global cost
        // non-increasing.
        let zero_migration_cost: i64 = [initiator, peer]
            .iter()
            .map(|&x| {
                (0..workload.alloc.len())
                    .map(|d| {
                        workload.alloc[x as usize][d]
                            * (workload.op_cost + workload.comm_cost[x as usize][d])
                    })
                    .sum::<i64>()
            })
            .sum();
        let report = driver
            .instance_mut(NodeId(initiator))
            .expect("initiator exists")
            .invoke_solver();
        let mut outgoing: Vec<RemoteTuple> = Vec::new();
        if let Ok(report) = report {
            let improves = report
                .objective
                .is_some_and(|obj| obj < zero_migration_cost);
            if report.feasible && !report.trivial && improves {
                for row in report.table("migVm") {
                    let (Some(y), Some(d), Some(r)) =
                        (row[1].as_addr(), row[2].as_int(), row[3].as_int())
                    else {
                        continue;
                    };
                    if r == 0 {
                        continue;
                    }
                    // Paper rule r2: propagate the (negated) result to the
                    // neighbour so both sides agree on the migration.
                    outgoing.push(RemoteTuple {
                        dest: y,
                        relation: "migVm".into(),
                        tuple: vec![
                            Value::Addr(y),
                            Value::Addr(NodeId(initiator)),
                            Value::Int(d),
                            Value::Int(-r),
                        ],
                        insert: true,
                    });
                    cumulative_migration_cost +=
                        workload.apply_migration(initiator, y.0, d as usize, r);
                    migrated_vms += r.abs();
                }
            }
        }
        driver.ship(NodeId(initiator), outgoing);

        // Paper rule r3: both endpoints update their allocations.
        refresh_curvm(&mut driver, &workload, initiator);
        refresh_curvm(&mut driver, &workload, peer);
        driver
            .instance_mut(NodeId(initiator))
            .expect("initiator")
            .relation("setLink")
            .expect("setLink is in the schema")
            .set(vec![])
            .expect("empty refresh is valid");
        if hostile {
            deadline = hostile_barrier(
                &mut driver,
                deadline,
                fault_horizon,
                period_us,
                [initiator, peer],
            );
        } else {
            driver.run_messages_until(deadline);
        }

        let total = workload.allocation_cost() + cumulative_migration_cost;
        let time_secs = driver.now().as_secs_f64().max(deadline.as_secs_f64());
        convergence_secs = time_secs;
        cost_series.push(CostPoint {
            time_secs,
            normalized_cost: 100.0 * total as f64 / initial_cost.max(1) as f64,
        });
    }

    let mut solver_stats = SearchStats::default();
    let mut solver_invocations = 0;
    for node in workload.topology.nodes() {
        if let Some(inst) = driver.instance(NodeId(node)) {
            solver_stats.merge(inst.cumulative_solver_stats());
            solver_invocations += inst.solver_invocations();
        }
    }

    FollowSunOutcome {
        cost_series,
        per_node_overhead_kbps: driver.per_node_overhead_kbps(),
        convergence_secs,
        migrated_vms,
        initial_cost,
        final_cost: workload.allocation_cost() + cumulative_migration_cost,
        solver_stats,
        solver_invocations,
    }
}

/// Run the Fig. 4 / Fig. 5 sweep over network sizes.
pub fn run_followsun_sweep(sizes: &[u32], base: &FollowSunConfig) -> Vec<(u32, FollowSunOutcome)> {
    sizes
        .iter()
        .map(|&n| {
            let config = FollowSunConfig {
                data_centers: n,
                ..base.clone()
            };
            (n, run_followsun(&config))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FollowSunConfig {
        FollowSunConfig {
            data_centers: 3,
            capacity: 30,
            max_initial_allocation: 6,
            solver_node_limit: 20_000,
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn workload_generation_is_deterministic_and_consistent() {
        let config = small_config();
        let w1 = FollowSunWorkload::generate(&config);
        let w2 = FollowSunWorkload::generate(&config);
        assert_eq!(w1.alloc, w2.alloc);
        assert_eq!(w1.comm_cost, w2.comm_cost);
        assert!(w1.topology.is_connected());
        assert!(w1.allocation_cost() > 0);
        // local demand must be cheaper than remote demand on average
        let n = w1.alloc.len();
        for x in 0..n {
            for d in 0..n {
                if x == d {
                    assert!(w1.comm_cost[x][d] <= config.comm_cost.0);
                }
            }
        }
    }

    #[test]
    fn apply_migration_moves_load_and_charges_cost() {
        let config = small_config();
        let mut w = FollowSunWorkload::generate(&config);
        let (a, b) = w.topology.links()[0];
        let before_a = w.alloc[a as usize][0];
        let before_b = w.alloc[b as usize][0];
        let total_before: i64 = w.topology.nodes().iter().map(|&x| w.load_of(x)).sum();
        let cost = w.apply_migration(a, b, 0, 2);
        assert_eq!(w.alloc[a as usize][0], before_a - 2);
        assert_eq!(w.alloc[b as usize][0], before_b + 2);
        assert!(cost >= 2 * config.mig_cost.0);
        let total_after: i64 = w.topology.nodes().iter().map(|&x| w.load_of(x)).sum();
        assert_eq!(total_before, total_after, "migration conserves total VMs");
    }

    #[test]
    fn distributed_execution_reduces_cost() {
        let config = small_config();
        let outcome = run_followsun(&config);
        assert_eq!(
            outcome.cost_series.first().map(|p| p.normalized_cost),
            Some(100.0)
        );
        assert!(
            outcome.final_cost <= outcome.initial_cost,
            "cost must not increase"
        );
        assert!(outcome.cost_reduction() >= 0.0);
        // cost is non-increasing over the series (each negotiation only
        // accepts improving migrations)
        for w in outcome.cost_series.windows(2) {
            assert!(w[1].normalized_cost <= w[0].normalized_cost + 1e-9);
        }
        assert!(outcome.convergence_secs > 0.0);
        assert!(outcome.per_node_overhead_kbps >= 0.0);
    }

    #[test]
    fn migration_limit_reduces_migrated_volume() {
        let unrestricted = run_followsun(&small_config());
        let limited = run_followsun(&FollowSunConfig {
            migration_limit: Some(1),
            ..small_config()
        });
        assert!(
            limited.migrated_vms <= unrestricted.migrated_vms,
            "limited ({}) must migrate no more than unrestricted ({})",
            limited.migrated_vms,
            unrestricted.migrated_vms
        );
    }

    #[test]
    fn sweep_covers_requested_sizes() {
        let base = FollowSunConfig {
            solver_node_limit: 5_000,
            ..small_config()
        };
        let results = run_followsun_sweep(&[2, 3], &base);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, 2);
        assert_eq!(results[1].0, 3);
        for (_, outcome) in &results {
            assert!(outcome.initial_cost > 0);
        }
    }
}
