//! Integration test: the ACloud pipeline end-to-end — Colog source → parser →
//! analysis → runtime grounding → branch-and-bound → materialized placement →
//! experiment metrics — spanning `cologne-colog`, `cologne-datalog`,
//! `cologne-solver`, `cologne-core` and `cologne-usecases`.

use cologne::datalog::{NodeId, Value};
use cologne::solver::Branching;
use cologne::{CologneInstance, ProgramParams, VarDomain};
use cologne_usecases::programs::{acloud_with_migration_limit, ACLOUD_CENTRALIZED};
use cologne_usecases::{run_acloud_experiment, AcloudConfig, AcloudPolicy};

fn instance_with(source: &str, params: ProgramParams) -> CologneInstance {
    CologneInstance::new(NodeId(0), source, params).expect("program compiles")
}

fn feed_snapshot(inst: &mut CologneInstance, vms: &[(i64, i64, i64)], hosts: &[i64], mem: i64) {
    let mut vm = inst.relation("vm").unwrap();
    for &(vid, cpu, m) in vms {
        vm.insert(vec![Value::Int(vid), Value::Int(cpu), Value::Int(m)])
            .unwrap();
    }
    for &hid in hosts {
        inst.relation("host")
            .unwrap()
            .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
            .unwrap();
        inst.relation("hostMemThres")
            .unwrap()
            .insert(vec![Value::Int(hid), Value::Int(mem)])
            .unwrap();
    }
}

#[test]
fn acloud_end_to_end_balances_and_respects_memory() {
    let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
    let mut inst = instance_with(ACLOUD_CENTRALIZED, params);
    let vms = [(1, 60, 2), (2, 50, 2), (3, 40, 2), (4, 30, 2)];
    feed_snapshot(&mut inst, &vms, &[10, 11], 4);
    let report = inst.invoke_solver().expect("solve succeeds");
    assert!(report.feasible);

    // each VM exactly once, each host at most 2 VMs (4 GB / 2 GB)
    let assign = report.table("assign");
    let mut per_host_mem = std::collections::BTreeMap::new();
    let mut per_host_cpu = std::collections::BTreeMap::new();
    for row in assign {
        if row[2].as_int() == Some(1) {
            let hid = row[1].as_int().unwrap();
            *per_host_mem.entry(hid).or_insert(0) += 2;
            let vid = row[0].as_int().unwrap();
            let cpu = vms.iter().find(|(v, _, _)| *v == vid).unwrap().1;
            *per_host_cpu.entry(hid).or_insert(0) += cpu;
        }
    }
    for (&hid, &mem) in &per_host_mem {
        assert!(mem <= 4, "host {hid} exceeds memory: {mem}");
    }
    // balanced optimum: 90 / 90 CPU
    let loads: Vec<i64> = per_host_cpu.values().copied().collect();
    assert_eq!(loads.iter().sum::<i64>(), 180);
    assert_eq!(loads[0], 90, "optimal split is 90/90, got {loads:?}");
}

#[test]
fn acloud_migration_limit_enforced_end_to_end() {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_constant("max_migrates", 1);
    let mut inst = instance_with(&acloud_with_migration_limit(), params);
    let vms = [(1, 60, 1), (2, 50, 1), (3, 40, 1), (4, 30, 1)];
    feed_snapshot(&mut inst, &vms, &[10, 11], 16);
    // everything currently on host 10
    for &(vid, _, _) in &vms {
        inst.relation("origin")
            .unwrap()
            .insert(vec![Value::Int(vid), Value::Int(10)])
            .unwrap();
    }
    let report = inst.invoke_solver().expect("solve succeeds");
    assert!(report.feasible);
    let moved = report
        .table("assign")
        .iter()
        .filter(|row| row[2].as_int() == Some(1) && row[1].as_int() != Some(10))
        .count();
    assert!(moved <= 1, "migration limit violated: {moved} moves");
}

#[test]
fn acloud_reoptimizes_incrementally_as_load_changes() {
    let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
    let mut inst = instance_with(ACLOUD_CENTRALIZED, params);
    feed_snapshot(&mut inst, &[(1, 80, 1), (2, 20, 1)], &[10, 11], 8);
    let first = inst.invoke_solver().expect("first solve");
    assert!(first.feasible);
    // VM 2's load spikes; the monitoring layer refreshes the vm table
    inst.relation("vm")
        .unwrap()
        .set(vec![
            vec![Value::Int(1), Value::Int(80), Value::Int(1)],
            vec![Value::Int(2), Value::Int(85), Value::Int(1)],
            vec![Value::Int(3), Value::Int(75), Value::Int(1)],
        ])
        .unwrap();
    let second = inst.invoke_solver().expect("second solve");
    assert!(second.feasible);
    assert_eq!(second.table("assign").len(), 6); // 3 VMs x 2 hosts now
                                                 // the two heavy VMs must not share a host with each other and VM3
    let mut hosts_used = std::collections::BTreeSet::new();
    for row in second.table("assign") {
        if row[2].as_int() == Some(1) {
            hosts_used.insert(row[1].as_int().unwrap());
        }
    }
    assert_eq!(
        hosts_used.len(),
        2,
        "both hosts should be used after the spike"
    );
}

/// `count` VMs with an irregular, fixed spread of cpu demands in 10..80.
fn probe_vms(count: i64) -> Vec<(i64, i64, i64)> {
    (1..=count)
        .map(|vid| (vid, 10 + (13 * vid * vid + 3 * vid) % 71, 1))
        .collect()
}

const PROBE_HOSTS: [i64; 4] = [10, 11, 12, 13];

/// A cold exact solve of `vms` on [`PROBE_HOSTS`] (memory never binds):
/// first-fail branching under a node limit and no clock, so the node count
/// is deterministic.
fn probe_solve(vms: &[(i64, i64, i64)], node_limit: u64) -> cologne::SolveReport {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_node_limit(Some(node_limit))
        .with_solver_max_time(None);
    let mut inst = instance_with(ACLOUD_CENTRALIZED, params);
    feed_snapshot(&mut inst, vms, &PROBE_HOSTS, vms.len() as i64);
    inst.invoke_solver().expect("solve succeeds")
}

/// The scaled variance `n·Σl² − (Σl)²` of the host loads the LPT rule
/// gives: VMs by descending cpu, each onto the least-loaded host.
fn lpt_objective(vms: &[(i64, i64, i64)], hosts: usize) -> i64 {
    let mut cpus: Vec<i64> = vms.iter().map(|&(_, cpu, _)| cpu).collect();
    cpus.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0i64; hosts];
    for cpu in cpus {
        *loads.iter_mut().min().unwrap() += cpu;
    }
    let sum: i64 = loads.iter().sum();
    hosts as i64 * loads.iter().map(|l| l * l).sum::<i64>() - sum * sum
}

#[test]
fn cold_eight_vms_on_four_hosts_prove_within_5000_nodes() {
    // 4⁸ = 65 536 leaves; the square decomposition of the variance needed
    // ~19k nodes here.
    let report = probe_solve(&probe_vms(8), 100_000);
    assert!(report.proven_optimal);
    assert!(
        report.stats.nodes <= 5_000,
        "proof took {} nodes",
        report.stats.nodes
    );
}

#[test]
fn twelve_vms_on_four_hosts_match_lpt_within_100k_nodes() {
    // The square decomposition of the variance ended at 1 576 here, LPT
    // gives 712. 16, 20 and 30 VMs still end above LPT (31 835 vs 259,
    // 113 688 vs 192, 1 695 011 vs 155). The first dive tries `assign = 0`
    // first, declines every host until `c1` forces the last one and so
    // stacks the VMs; branch-and-bound then climbs down from there. That is
    // the value-order item of ROADMAP.md, not the variance bound.
    let vms = probe_vms(12);
    let report = probe_solve(&vms, 100_000);
    let lpt = lpt_objective(&vms, PROBE_HOSTS.len());
    let objective = report.objective.expect("a placement within the budget");
    assert!(objective <= lpt, "solver {objective} vs LPT {lpt}");
}

#[test]
fn full_experiment_beats_or_matches_default_policy() {
    let config = AcloudConfig {
        duration_hours: 0.5,
        ..AcloudConfig::tiny()
    };
    let results = run_acloud_experiment(&config);
    assert_eq!(results.intervals.len(), config.intervals());
    let acloud = results.mean_stdev(AcloudPolicy::ACloud);
    let default = results.mean_stdev(AcloudPolicy::Default);
    assert!(acloud <= default + 1e-9);
    // ACloud(M) obeys the per-DC migration cap in every interval
    for interval in &results.intervals {
        assert!(
            interval.migrations[&AcloudPolicy::ACloudM]
                <= (config.max_migrations_per_dc as u64) * config.data_centers as u64,
            "ACloud (M) exceeded its migration budget"
        );
    }
}
