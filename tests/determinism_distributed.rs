//! Determinism tests for the distributed layer: the combination of
//! per-node solving on scoped threads (`invoke_solvers_parallel`), the
//! discrete-event simulator, and — new in this PR — the LNS solver mode must
//! be a pure function of (program, workload seed, solver seed). Two
//! independent runs are compared fingerprint-for-fingerprint: per-node
//! traffic counters, solver outcomes and materialized tables.

use std::collections::BTreeMap;

use cologne::datalog::{NodeId, RemoteTuple, Value};
use cologne::net::{FaultPlan, LinkFaults, LinkProps, NodeTraffic, SimTime, Topology};
use cologne::solver::{Branching, LnsConfig};
use cologne::{
    CologneInstance, DeploymentBuilder, DistributedCologne, ProgramParams, SolverMode, VarDomain,
};
use cologne_usecases::programs::ACLOUD_CENTRALIZED;
use cologne_usecases::{build_followsun_deployment, FollowSunConfig, FollowSunWorkload};
use proptest::prelude::*;

/// Everything observable about one distributed execution.
type Fingerprint = BTreeMap<
    u32,
    (
        NodeTraffic,
        Option<i64>,                    // objective
        bool,                           // feasible
        (u64, u64, u64, u64),           // nodes, fails, lns iterations, lns improvements
        Vec<(String, Vec<Vec<Value>>)>, // materialized solver tables
    ),
>;

fn fingerprint(
    driver: &DistributedCologne,
    reports: &BTreeMap<NodeId, cologne::SolveReport>,
) -> Fingerprint {
    reports
        .iter()
        .map(|(node, report)| {
            (
                node.0,
                (
                    driver.traffic(*node),
                    report.objective,
                    report.feasible,
                    (
                        report.stats.nodes,
                        report.stats.fails,
                        report.stats.lns_iterations,
                        report.stats.lns_improvements,
                    ),
                    report
                        .assignments
                        .iter()
                        .map(|(name, rows)| (name.clone(), rows.clone()))
                        .collect(),
                ),
            )
        })
        .collect()
}

/// One Follow-the-Sun execution: every link negotiation armed at once, all
/// local COPs solved in parallel, solver outputs shipped through the
/// simulated network and delivered.
fn run_followsun_parallel(config: &FollowSunConfig) -> Fingerprint {
    let workload = FollowSunWorkload::generate(config);
    let mut driver = build_followsun_deployment(config, &workload);
    // Byte-identity holds under *deterministic* limits; the deployment's
    // default 10 s wall clock is schedule-dependent (and actually trips in
    // debug builds), so the node budget alone must bound these searches.
    for node in driver.nodes() {
        driver
            .instance_mut(node)
            .unwrap()
            .params_mut()
            .solver_max_time = None;
    }
    for (a, b) in workload.topology.links() {
        let initiator = a.max(b);
        let peer = a.min(b);
        driver
            .insert(
                NodeId(initiator),
                "setLink",
                vec![Value::Addr(NodeId(initiator)), Value::Addr(NodeId(peer))],
            )
            .unwrap();
    }
    driver.run_messages_until(SimTime::from_secs(60));
    let reports = driver.invoke_parallel().expect("per-node COPs solve");
    driver.run_messages_until(SimTime::from_secs(120));
    fingerprint(driver.network(), &reports)
}

#[test]
fn parallel_followsun_execution_is_deterministic() {
    let config = FollowSunConfig {
        data_centers: 4,
        solver_node_limit: 5_000,
        ..Default::default()
    };
    let first = run_followsun_parallel(&config);
    let second = run_followsun_parallel(&config);
    assert!(
        first.values().any(|(_, objective, ..)| objective.is_some()),
        "at least one node must solve a non-trivial COP"
    );
    assert!(
        first.values().any(|(t, ..)| t.bytes_sent > 0),
        "negotiations must produce network traffic"
    );
    assert_eq!(first, second, "same seed => byte-identical execution");
}

/// Ping relay used by the fault-plan property below: one rule so the
/// deployment compiles, traffic driven by hand-shipped tuples.
const PING: &str = r#"
    r1 pong(@Y,X) <- ping(@X,Y).
"#;

/// One hostile execution of a hand-driven three-node deployment: `n`
/// distinct pings shipped from node 0 to node 2 through the at-least-once
/// delivery layer while the fault plan injects loss, duplication, reorder
/// and (possibly) a crash of a node. Returns everything observable.
#[allow(clippy::type_complexity)]
fn run_hostile_pings(
    plan: &FaultPlan,
    n: i64,
) -> (
    bool,
    cologne::DeliveryStats,
    Vec<NodeTraffic>,
    Vec<Vec<Value>>,
    Vec<cologne::CrashEvent>,
) {
    let mut driver = DeploymentBuilder::new(PING)
        .topology(Topology::full_mesh(3, LinkProps::default()))
        .faults(plan.clone())
        .build()
        .unwrap();
    for i in 0..n {
        driver.ship(
            NodeId(0),
            vec![RemoteTuple {
                dest: NodeId(2),
                relation: "ping".into(),
                tuple: vec![Value::Addr(NodeId(0)), Value::Int(i)],
                insert: true,
            }],
        );
    }
    let settled = driver.settle(SimTime::from_secs(600));
    let mut pings: Vec<Vec<Value>> = driver
        .instance(NodeId(2))
        .unwrap()
        .scan("ping")
        .cloned()
        .collect();
    pings.sort();
    let traffic = driver
        .nodes()
        .into_iter()
        .map(|node| driver.traffic(node))
        .collect();
    let stats = driver.delivery_stats();
    let log = driver.take_crash_log();
    (settled, stats, traffic, pings, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under *any* seeded fault plan — random loss, duplication, reorder
    /// jitter, and an optional crash/rejoin of a node on the path — the
    /// at-least-once delivery layer (a) reconverges to the full fault-free
    /// assertion set and (b) replays byte-identically under the same seed.
    #[test]
    fn random_fault_plans_replay_and_reconverge(
        seed in 1u64..u64::MAX,
        loss in 0.0f64..0.5,
        duplicate in 0.0f64..0.5,
        jitter_us in 0u64..50_000,
        // crash_node 0 means "no crash"; 1 or 2 crashes that node
        crash_node in 0u32..3,
        down in 1u64..4,
        outage in 1u64..6,
        n in 5i64..20,
    ) {
        let mut plan = FaultPlan::seeded(seed).link_faults(LinkFaults {
            loss,
            duplicate,
            jitter_us,
        });
        if crash_node > 0 {
            plan = plan.crash(
                crash_node,
                SimTime::from_secs(down),
                SimTime::from_secs(down + outage),
            );
        }
        let first = run_hostile_pings(&plan, n);
        let second = run_hostile_pings(&plan, n);
        prop_assert_eq!(&first, &second);
        let (settled, _, _, pings, log) = first;
        prop_assert!(settled, "the network must quiesce after the fault horizon");
        let expected: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Addr(NodeId(0)), Value::Int(i)])
            .collect();
        prop_assert_eq!(pings, expected);
        prop_assert_eq!(log.len(), if crash_node > 0 { 2 } else { 0 });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `invoke_solvers_parallel` composed with hostile delivery stays a pure
    /// function of (workload, fault seed): the whole Follow-the-Sun parallel
    /// negotiation — base-fact shipping through loss/duplication/reorder, an
    /// optional crash/rejoin resync, scoped-thread solving, solver-output
    /// delivery — must replay identical traffic, outcomes and tables.
    #[test]
    fn hostile_parallel_solves_are_deterministic(
        seed in 1u64..u64::MAX,
        loss in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        jitter_us in 0u64..30_000,
        crash_node in 0u32..3,
    ) {
        let mut plan = FaultPlan::seeded(seed).link_faults(LinkFaults {
            loss,
            duplicate,
            jitter_us,
        });
        if crash_node > 0 {
            plan = plan.crash(crash_node, SimTime::from_secs(2), SimTime::from_secs(6));
        }
        let config = FollowSunConfig {
            data_centers: 3,
            solver_node_limit: 2_000,
            fault_plan: Some(plan),
            ..Default::default()
        };
        let first = run_followsun_parallel(&config);
        let second = run_followsun_parallel(&config);
        prop_assert_eq!(&first, &second);
        prop_assert!(
            first.values().any(|(t, ..)| t.bytes_sent > 0),
            "negotiations must produce network traffic"
        );
    }
}

/// A two-node deployment whose per-node ACloud COPs run in LNS mode.
fn run_lns_deployment(lns_seed: u64) -> Fingerprint {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_node_limit(Some(2_000))
        .with_solver_max_time(None)
        .with_solver_mode(SolverMode::Lns(LnsConfig {
            seed: lns_seed,
            dive_node_limit: 200,
            repair_fail_base: 16,
            ..Default::default()
        }));
    let topology = Topology::line(2, LinkProps::default());
    let mut driver = DeploymentBuilder::new(ACLOUD_CENTRALIZED)
        .params(params)
        .topology(topology)
        .build()
        .unwrap();
    for node in [NodeId(0), NodeId(1)] {
        let inst: &mut CologneInstance = driver.instance_mut(node).unwrap();
        // Distinct workloads per node so the two COPs differ.
        for vid in 0..12i64 {
            let cpu = 10 + 7 * ((vid + node.0 as i64 * 5) % 8);
            inst.relation("vm")
                .unwrap()
                .insert(vec![Value::Int(vid), Value::Int(cpu), Value::Int(1)])
                .unwrap();
        }
        for hid in 0..4i64 {
            inst.relation("host")
                .unwrap()
                .insert(vec![
                    Value::Int(hid),
                    Value::Int(5 * hid * (node.0 as i64 + 1)),
                    Value::Int(0),
                ])
                .unwrap();
            inst.relation("hostMemThres")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(8)])
                .unwrap();
        }
    }
    let reports = driver.invoke_parallel().expect("per-node LNS COPs solve");
    fingerprint(driver.network(), &reports)
}

#[test]
fn parallel_lns_execution_is_deterministic() {
    let first = run_lns_deployment(77);
    let second = run_lns_deployment(77);
    assert!(
        first
            .values()
            .any(|(_, _, _, (_, _, iters, _), _)| *iters > 0),
        "LNS iterations must actually run"
    );
    assert_eq!(first, second, "same LNS seed => byte-identical reports");
    // A different seed is allowed to explore differently — but must stay
    // feasible and still produce an assignment for every VM.
    let other = run_lns_deployment(78);
    for (_, _, feasible, _, tables) in other.values() {
        assert!(feasible);
        assert!(tables
            .iter()
            .any(|(name, rows)| name == "assign" && !rows.is_empty()));
    }
}
