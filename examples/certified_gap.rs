//! Certified optimality gaps on the large ACloud instance (120 VMs, 10
//! heterogeneous hosts) solved with LNS.
//!
//! With a bound mode enabled the solver computes a sound dual bound at the
//! frozen root, streams the live optimality gap through the observer's
//! progress heartbeat, and attaches a [`cologne::BoundCertificate`] naming
//! the binding constraints to the final report. A second, small exact run
//! shows gap-driven termination: `gap_limit = 0.05` stops the search as
//! soon as the incumbent is certified within 5% of optimal, skipping the
//! expensive tail of the optimality proof.
//!
//! Run with: `cargo run --release --example certified_gap`

use cologne::datalog::{NodeId, Value};
use cologne::solver::{BoundMode, Branching};
use cologne::{CologneInstance, EventLog, ProgramParams, SolveEvent, SolverMode, VarDomain};
use cologne_usecases::programs::ACLOUD_CENTRALIZED;
use cologne_usecases::{large_acloud_instance, LargeAcloudConfig};

fn main() {
    // --- Live gap stream on the large LNS scenario ---------------------
    let config = LargeAcloudConfig::default();
    println!(
        "large ACloud: {} VMs x {} hosts, node budget {}, bound mode Auto",
        config.vms, config.hosts, config.node_limit
    );
    let mut instance = large_acloud_instance(&config, SolverMode::Lns(config.lns_params()));
    instance.params_mut().solver_bound_mode = BoundMode::Auto;

    let mut log = EventLog::bounded(65536);
    let report = instance
        .invoke_solver_with_observer(&mut log)
        .expect("LNS solve runs");

    // Every progress heartbeat carries the live dual bound and gap.
    let mut streamed = 0usize;
    for event in log.drain() {
        if let SolveEvent::Progress {
            nodes,
            dual_bound: Some(dual),
            gap: Some(gap),
            ..
        } = event
        {
            streamed += 1;
            if streamed <= 5 {
                println!(
                    "  progress: nodes={nodes} dual={dual} gap={:.1}%",
                    gap * 100.0
                );
            }
        }
    }
    println!("streamed {streamed} progress heartbeats with a live gap");
    println!(
        "lns: objective={:?} gap={:?} [{}]",
        report.objective, report.stats.gap, report.stats
    );
    let cert = report
        .certificate
        .as_ref()
        .expect("a bound mode is on: the report carries a certificate");
    println!("certificate: {cert}");

    // --- Gap-driven termination on an exact search ---------------------
    let nodes_of = |gap_limit: Option<f64>| {
        let params = ProgramParams::new()
            .with_var_domain("assign", VarDomain::BOOL)
            .with_solver_branching(Branching::SmallestDomain)
            .with_solver_max_time(None)
            .with_solver_node_limit(Some(200_000))
            .with_solver_bound_mode(if gap_limit.is_some() {
                BoundMode::Auto
            } else {
                BoundMode::Off
            })
            .with_solver_gap_limit(gap_limit);
        let mut inst =
            CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, params).expect("compiles");
        for (vid, cpu) in [40i64, 20, 30, 25, 35, 15, 45, 10, 50, 5, 55, 60]
            .into_iter()
            .enumerate()
        {
            inst.relation("vm")
                .unwrap()
                .insert(vec![
                    Value::Int(vid as i64 + 1),
                    Value::Int(cpu),
                    Value::Int(2),
                ])
                .unwrap();
        }
        for hid in [10i64, 11, 12] {
            inst.relation("host")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
                .unwrap();
            inst.relation("hostMemThres")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(32)])
                .unwrap();
        }
        inst.invoke_solver().expect("solve runs")
    };
    let full = nodes_of(None);
    let gapped = nodes_of(Some(0.05));
    println!(
        "exact 12-VM search (200k-node budget): objective={:?} nodes={}",
        full.objective, full.stats.nodes
    );
    println!(
        "exact gap_limit 5%: objective={:?} nodes={} gap={:?} ({})",
        gapped.objective,
        gapped.stats.nodes,
        gapped.stats.gap,
        gapped
            .certificate
            .as_ref()
            .expect("gap-terminated run is certified")
    );
    assert!(gapped.stats.nodes < full.stats.nodes);
    println!(
        "gap termination searched {:.1}% of the full proof's nodes",
        100.0 * gapped.stats.nodes as f64 / full.stats.nodes as f64
    );
}
