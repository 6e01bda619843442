//! Acceptance tests for the typed session API: schema-checked relation
//! handles, the unified `DeploymentBuilder`, and streaming solve events.
//!
//! Pins the three contracts the redesign introduced:
//!
//! 1. **Eager validation** — unknown relations and schema mismatches error
//!    at the write (with did-you-mean suggestions), including tuples
//!    received from remote nodes;
//! 2. **Builder equivalence** — a deployment built through
//!    [`DeploymentBuilder`] produces `SolveReport`s byte-identical (modulo
//!    wall-clock micros) to a directly-constructed `CologneInstance` (and,
//!    distributed, to per-node parameter overrides) on all three paper use
//!    cases;
//! 3. **Observer determinism and safe cancellation** — a seeded LNS run on
//!    the large ACloud instance emits the same event sequence twice, and an
//!    observer cancellation never poisons the instance (the next invocation
//!    is a clean full rebuild).

use cologne::datalog::{NodeId, RemoteTuple, Tuple, Value};
use cologne::net::{LinkProps, SimTime, Topology};
use cologne::{
    CologneError, CologneInstance, DeploymentBuilder, EventLog, ProgramParams, SolveEvent,
    SolveReport, SolveRequest, SolverMode, StatsSnapshot, VarDomain,
};
use cologne_usecases::programs::{ACLOUD_CENTRALIZED, FOLLOWSUN_DISTRIBUTED, WIRELESS_CENTRALIZED};
use cologne_usecases::{large_acloud_instance, LargeAcloudConfig};

fn ints(vals: &[i64]) -> Tuple {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

/// Debug rendering of a report with the wall-clock component zeroed — the
/// "byte-identical" comparison unit (every other field, including all
/// deterministic search counters, participates).
fn normalized(report: &SolveReport) -> String {
    let mut r = report.clone();
    r.stats.elapsed_micros = 0;
    format!("{r:?}")
}

// ---------------------------------------------------------------------------
// 1. error paths
// ---------------------------------------------------------------------------

fn acloud_params() -> ProgramParams {
    ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_max_time(None)
}

#[test]
fn unknown_relation_and_schema_mismatch_error_eagerly() {
    let mut inst = CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, acloud_params()).unwrap();
    // typo in the relation name: rejected at handle acquisition
    match inst.relation("hostMemThress").unwrap_err() {
        CologneError::UnknownRelation {
            relation,
            suggestion,
        } => {
            assert_eq!(relation, "hostMemThress");
            assert_eq!(suggestion.as_deref(), Some("hostMemThres"));
        }
        other => panic!("unexpected error: {other:?}"),
    }
    // wrong arity: rejected at the write, nothing queued
    let err = inst.relation("vm").unwrap_err_on_insert(ints(&[1, 40]));
    assert!(matches!(err, CologneError::SchemaMismatch { .. }));
    assert_eq!(inst.scan("vm").count(), 0);
    // the error message names the relation and the violation
    assert!(err.to_string().contains("vm"));
    assert!(err.to_string().contains("arity"));
}

/// Helper so the test above reads linearly.
trait UnwrapErrOnInsert {
    fn unwrap_err_on_insert(self, tuple: Tuple) -> CologneError;
}
impl UnwrapErrOnInsert for Result<cologne::RelationHandle<'_>, CologneError> {
    fn unwrap_err_on_insert(self, tuple: Tuple) -> CologneError {
        self.unwrap().insert(tuple).unwrap_err()
    }
}

#[test]
fn receive_rejects_malformed_remote_tuples() {
    let mut inst = CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, acloud_params()).unwrap();
    inst.relation("vm")
        .unwrap()
        .insert(ints(&[1, 40, 4]))
        .unwrap();
    inst.run_rules();

    // unknown relation from a peer
    let err = inst
        .try_receive(
            NodeId(1),
            &RemoteTuple {
                dest: NodeId(0),
                relation: "vn".into(),
                tuple: ints(&[2, 20, 4]),
                insert: true,
            },
        )
        .unwrap_err();
    assert!(matches!(err, CologneError::UnknownRelation { .. }));

    // malformed tuple (wrong arity) for a known relation
    let err = inst
        .try_receive(
            NodeId(1),
            &RemoteTuple {
                dest: NodeId(0),
                relation: "vm".into(),
                tuple: ints(&[2]),
                insert: true,
            },
        )
        .unwrap_err();
    assert!(matches!(err, CologneError::SchemaMismatch { .. }));

    // state was not corrupted by either rejection
    inst.run_rules();
    assert_eq!(inst.scan("vm").count(), 1);
    assert_eq!(inst.scan("vn").count(), 0);

    // a well-formed remote tuple is applied
    inst.try_receive(
        NodeId(1),
        &RemoteTuple {
            dest: NodeId(0),
            relation: "vm".into(),
            tuple: ints(&[2, 20, 4]),
            insert: true,
        },
    )
    .unwrap();
    inst.run_rules();
    assert_eq!(inst.scan("vm").count(), 2);
}

// ---------------------------------------------------------------------------
// 2. builder equivalence
// ---------------------------------------------------------------------------

#[test]
fn acloud_builder_matches_direct_instance_byte_for_byte() {
    let facts: Vec<(&str, Tuple)> = vec![
        ("vm", ints(&[1, 40, 4])),
        ("vm", ints(&[2, 20, 4])),
        ("vm", ints(&[3, 30, 4])),
        ("host", ints(&[10, 0, 0])),
        ("host", ints(&[11, 0, 0])),
        ("host", ints(&[12, 0, 0])),
        ("hostMemThres", ints(&[10, 16])),
        ("hostMemThres", ints(&[11, 16])),
        ("hostMemThres", ints(&[12, 16])),
    ];

    // direct instance construction
    let direct = {
        let mut inst =
            CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, acloud_params()).unwrap();
        for (rel, tuple) in &facts {
            inst.relation(rel).unwrap().insert(tuple.clone()).unwrap();
        }
        inst.invoke_solver().unwrap()
    };

    // builder surface
    let new = {
        let mut d = DeploymentBuilder::new(ACLOUD_CENTRALIZED)
            .params(acloud_params())
            .build()
            .unwrap();
        let node = d.single_node().unwrap();
        for (rel, tuple) in &facts {
            d.relation(rel).unwrap().insert(tuple.clone()).unwrap();
        }
        d.solve(&SolveRequest::at(node))
            .unwrap()
            .reports
            .remove(&node)
            .unwrap()
    };

    assert_eq!(normalized(&direct), normalized(&new), "acloud");
}

#[test]
fn wireless_builder_matches_direct_instance_byte_for_byte() {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::new(1, 3))
        .with_constant("F_mindiff", 2)
        .with_solver_max_time(None);
    let mut facts: Vec<(&str, Tuple)> = Vec::new();
    for (a, b) in [(1, 2), (2, 3), (1, 3)] {
        facts.push(("link", ints(&[a, b])));
        facts.push(("link", ints(&[b, a])));
    }
    for n in 1..=3 {
        facts.push(("numInterface", ints(&[n, 2])));
    }
    facts.push(("primaryUser", ints(&[1, 2])));

    let direct = {
        let mut inst =
            CologneInstance::new(NodeId(0), WIRELESS_CENTRALIZED, params.clone()).unwrap();
        for (rel, tuple) in &facts {
            inst.relation(rel).unwrap().insert(tuple.clone()).unwrap();
        }
        inst.invoke_solver().unwrap()
    };

    let new = {
        let mut d = DeploymentBuilder::new(WIRELESS_CENTRALIZED)
            .params(params)
            .build()
            .unwrap();
        let node = d.single_node().unwrap();
        for (rel, tuple) in &facts {
            d.relation(rel).unwrap().insert(tuple.clone()).unwrap();
        }
        d.solve(&SolveRequest::at(node))
            .unwrap()
            .reports
            .remove(&node)
            .unwrap()
    };

    assert_eq!(normalized(&direct), normalized(&new), "wireless");
}

/// Per-node Follow-the-Sun base facts for a 2-DC deployment.
fn followsun_facts(node: u32) -> Vec<(&'static str, Tuple)> {
    let x = Value::Addr(NodeId(node));
    let other = Value::Addr(NodeId(1 - node));
    let mut facts: Vec<(&'static str, Tuple)> = vec![
        ("link", vec![x.clone(), other.clone()]),
        ("opCost", vec![x.clone(), Value::Int(10)]),
        ("resource", vec![x.clone(), Value::Int(20)]),
        ("migCost", vec![x.clone(), other, Value::Int(10)]),
    ];
    for d in 0..2i64 {
        facts.push(("dc", vec![x.clone(), Value::Int(d)]));
        facts.push((
            "curVm",
            vec![
                x.clone(),
                Value::Int(d),
                Value::Int(if node == 0 { 6 } else { 1 }),
            ],
        ));
        facts.push((
            "commCost",
            vec![
                x.clone(),
                Value::Int(d),
                Value::Int(if node as i64 == d { 10 } else { 80 }),
            ],
        ));
    }
    facts
}

#[test]
fn followsun_base_params_match_per_node_overrides_byte_for_byte() {
    // Per-node overrides that all equal the base parameters must produce a
    // deployment byte-identical to the homogeneous one.
    let params = ProgramParams::new()
        .with_var_domain("migVm", VarDomain::new(-10, 10))
        .with_solver_node_limit(Some(5_000))
        .with_solver_max_time(None);
    let set_link = |n: u32| {
        (
            "setLink",
            vec![Value::Addr(NodeId(1)), Value::Addr(NodeId(n))],
        )
    };
    let run = |builder: DeploymentBuilder| {
        let mut d = builder
            .topology(Topology::line(2, LinkProps::default()))
            .build()
            .unwrap();
        for node in [0u32, 1] {
            for (rel, tuple) in followsun_facts(node) {
                d.insert(NodeId(node), rel, tuple).unwrap();
            }
        }
        let (rel, tuple) = set_link(0);
        d.insert(NodeId(1), rel, tuple).unwrap();
        d.run_messages_until(SimTime::from_secs(2));
        d.solve(&SolveRequest::all()).unwrap().reports
    };

    let homogeneous = run(DeploymentBuilder::new(FOLLOWSUN_DISTRIBUTED).params(params.clone()));
    let overridden = run(DeploymentBuilder::new(FOLLOWSUN_DISTRIBUTED)
        .node_params(NodeId(0), params.clone())
        .node_params(NodeId(1), params));

    assert_eq!(homogeneous.len(), overridden.len());
    for (node, report) in &homogeneous {
        assert_eq!(
            normalized(report),
            normalized(&overridden[node]),
            "follow-the-sun node {node:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. observer determinism + cancellation
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// 4. the typed solve entry point vs the raw per-instance observer
// ---------------------------------------------------------------------------

fn acloud_deployment_with_facts() -> cologne::Deployment {
    let mut d = DeploymentBuilder::new(ACLOUD_CENTRALIZED)
        .params(acloud_params())
        .build()
        .unwrap();
    for (rel, tuple) in [
        ("vm", ints(&[1, 40, 4])),
        ("vm", ints(&[2, 20, 4])),
        ("vm", ints(&[3, 30, 4])),
        ("host", ints(&[10, 0, 0])),
        ("host", ints(&[11, 0, 0])),
        ("hostMemThres", ints(&[10, 16])),
        ("hostMemThres", ints(&[11, 16])),
    ] {
        d.relation(rel).unwrap().insert(tuple).unwrap();
    }
    d
}

#[test]
fn solve_request_matches_raw_observer_entry_point() {
    // the raw per-instance observer entry point...
    let (old_report, old_events) = {
        let mut d = acloud_deployment_with_facts();
        let node = d.single_node().unwrap();
        let mut log = EventLog::bounded(1024);
        let report = d
            .instance_mut(node)
            .unwrap()
            .invoke_solver_with_observer(&mut log)
            .unwrap();
        (normalized(&report), log.drain())
    };

    // ...and the typed request must produce the identical report and the
    // identical event sequence
    let (new_report, new_events) = {
        let mut d = acloud_deployment_with_facts();
        let node = d.single_node().unwrap();
        let response = d.solve(&SolveRequest::at(node).with_events(1024)).unwrap();
        assert_eq!(response.dropped_events, 0);
        let report = normalized(response.report(node).unwrap());
        let events: Vec<SolveEvent> = response.events.into_iter().map(|(_, e)| e).collect();
        (report, events)
    };

    assert_eq!(old_report, new_report, "reports must be byte-identical");
    assert_eq!(old_events, new_events, "event sequences must be identical");
    assert!(!new_events.is_empty(), "events must actually stream");
}

#[test]
fn solve_request_without_events_matches_invoke() {
    // the raw per-instance entry point...
    let plain = {
        let mut d = acloud_deployment_with_facts();
        let node = d.single_node().unwrap();
        normalized(&d.instance_mut(node).unwrap().invoke_solver().unwrap())
    };
    let typed = {
        let mut d = acloud_deployment_with_facts();
        let node = d.single_node().unwrap();
        let response = d.solve(&SolveRequest::at(node)).unwrap();
        assert!(response.events.is_empty());
        normalized(response.report(node).unwrap())
    };
    assert_eq!(plain, typed);
}

#[test]
fn cancel_after_incumbents_via_request_keeps_first_solution() {
    let mut d = acloud_deployment_with_facts();
    let node = d.single_node().unwrap();
    let response = d
        .solve(&SolveRequest::at(node).cancel_after_incumbents(1))
        .unwrap();
    let report = response.report(node).unwrap();
    assert!(report.stats.cancelled);
    assert!(report.feasible, "the first incumbent is kept");
    assert!(!report.proven_optimal);
    let incumbents = response
        .events
        .iter()
        .filter(|(_, e)| matches!(e, SolveEvent::Incumbent { .. }))
        .count();
    assert_eq!(incumbents, 1, "exactly one incumbent before cancellation");
}

#[test]
fn unified_stats_snapshot_reflects_the_session() {
    let mut d = acloud_deployment_with_facts();
    let node = d.single_node().unwrap();

    let before: StatsSnapshot = d.stats();
    assert_eq!(before.total_invocations(), 0);
    assert_eq!(before.nodes.len(), 1);

    d.solve(&SolveRequest::at(node)).unwrap();
    d.solve(&SolveRequest::at(node)).unwrap();

    let after = d.stats();
    assert_eq!(after.total_invocations(), 2);
    let node_stats = after.node(node).unwrap();
    assert_eq!(node_stats.solver_invocations, 2);
    assert!(node_stats.search_total.nodes > 0, "search effort recorded");
    assert!(
        node_stats.last_search.is_some(),
        "last solve's stats retained"
    );
    assert!(
        node_stats.pipeline.full_rebuilds >= 1,
        "pipeline activity visible in the snapshot"
    );
    // the snapshot renders for operators
    let rendered = format!("{after}");
    assert!(rendered.contains("invocation"), "display impl: {rendered}");
}

fn lns_config() -> LargeAcloudConfig {
    LargeAcloudConfig {
        vms: 60,
        hosts: 6,
        node_limit: 6_000,
        seed: 23,
        workers: None,
    }
}

#[test]
fn seeded_lns_observer_stream_is_deterministic() {
    let run = || {
        let config = lns_config();
        let mut inst = large_acloud_instance(&config, SolverMode::Lns(config.lns_params()));
        let mut log = EventLog::bounded(1 << 16);
        let report = inst.invoke_solver_with_observer(&mut log).unwrap();
        assert_eq!(log.dropped(), 0, "the log must capture every event");
        (normalized(&report), log.drain())
    };
    let (report1, events1) = run();
    let (report2, events2) = run();
    assert_eq!(report1, report2, "reports must be byte-identical");
    assert_eq!(events1, events2, "event sequences must be identical");
    let incumbents = events1
        .iter()
        .filter(|e| matches!(e, SolveEvent::Incumbent { .. }))
        .count();
    assert!(incumbents >= 1, "at least one incumbent must stream out");
    assert!(
        events1
            .iter()
            .any(|e| matches!(e, SolveEvent::LnsIteration { .. })),
        "LNS iterations must be observable"
    );
}

#[test]
fn cancellation_leaves_the_instance_reusable() {
    let config = lns_config();
    let mut inst = large_acloud_instance(&config, SolverMode::Lns(config.lns_params()));

    // Cancel mid-search, right after the first incumbent.
    let mut log = EventLog::bounded(4096).cancel_after_incumbents(1);
    let cancelled = inst.invoke_solver_with_observer(&mut log).unwrap();
    assert!(cancelled.stats.cancelled);
    assert!(!cancelled.proven_optimal);
    assert!(cancelled.feasible, "the first incumbent is kept");
    assert_eq!(inst.pipeline_stats().full_rebuilds, 1);

    // The next invocation is a clean full rebuild: no warm start, no
    // memoized replay, no retained COP — and it completes normally.
    let report = inst.invoke_solver().unwrap();
    let stats = inst.pipeline_stats();
    assert_eq!(
        stats.full_rebuilds, 2,
        "the post-cancellation invocation must be a full rebuild"
    );
    assert!(
        !report.stats.warm_start,
        "a cancelled solve must not seed the warm memory"
    );
    assert!(report.feasible);
    assert!(
        report.stats.nodes > 0,
        "the re-solve must actually search, not replay the cancelled report"
    );
    // and the cancelled run's objective is reachable again (same COP)
    assert!(report.objective.is_some());
}
