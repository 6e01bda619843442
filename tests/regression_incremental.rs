//! Regression tests for the incremental re-optimization path: after a
//! single-row delta, `invoke_solver` must take the delta-aware grounding
//! path (`incremental_builds`, not `full_rebuilds`) and still produce a
//! report byte-for-byte identical — outcome flags, objective, materialized
//! tables — to a from-scratch solve of the same database. Search statistics
//! are intentionally exempt: exploring fewer nodes is the point.

use cologne::datalog::{NodeId, Tuple, Value};
use cologne::solver::Branching;
use cologne::{CologneInstance, ProgramParams, SolveReport, VarDomain};
use cologne_usecases::programs::{ACLOUD_CENTRALIZED, WIRELESS_CENTRALIZED};

fn ints(vals: &[i64]) -> Tuple {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

fn acloud_params() -> ProgramParams {
    ProgramParams::new().with_var_domain("assign", VarDomain::BOOL)
}

fn acloud_base_facts() -> Vec<(&'static str, Tuple)> {
    let mut facts = Vec::new();
    for (vid, cpu, mem) in [(1, 40, 4), (2, 20, 4), (3, 30, 4)] {
        facts.push(("vm", ints(&[vid, cpu, mem])));
    }
    for hid in [10, 11, 12] {
        facts.push(("host", ints(&[hid, 0, 0])));
        facts.push(("hostMemThres", ints(&[hid, 16])));
    }
    facts
}

fn wireless_params() -> ProgramParams {
    ProgramParams::new()
        .with_var_domain("assign", VarDomain::new(1, 3))
        .with_constant("F_mindiff", 2)
}

fn wireless_base_facts() -> Vec<(&'static str, Tuple)> {
    // A triangle of links (both directions) on nodes 1..=3, two interfaces
    // per node, one primary-user restriction.
    let mut facts = Vec::new();
    for (a, b) in [(1, 2), (2, 3), (1, 3)] {
        facts.push(("link", ints(&[a, b])));
        facts.push(("link", ints(&[b, a])));
    }
    for n in 1..=3 {
        facts.push(("numInterface", ints(&[n, 2])));
    }
    facts.push(("primaryUser", ints(&[1, 2])));
    facts
}

fn instance(program: &str, params: &ProgramParams, facts: &[(&str, Tuple)]) -> CologneInstance {
    let mut inst = CologneInstance::new(NodeId(0), program, params.clone()).unwrap();
    for (rel, tuple) in facts {
        inst.relation(rel).unwrap().insert(tuple.clone()).unwrap();
    }
    inst
}

/// Byte-for-byte equality of everything a `SolveReport` asserts about the
/// optimization problem. Stats are excluded (see module docs).
fn assert_same_result(incremental: &SolveReport, cold: &SolveReport, context: &str) {
    assert_eq!(incremental.feasible, cold.feasible, "{context}: feasible");
    assert_eq!(incremental.trivial, cold.trivial, "{context}: trivial");
    assert_eq!(
        incremental.objective, cold.objective,
        "{context}: objective"
    );
    assert_eq!(
        incremental.proven_optimal, cold.proven_optimal,
        "{context}: proven_optimal"
    );
    assert_eq!(
        incremental.assignments, cold.assignments,
        "{context}: assignments"
    );
    assert_eq!(incremental.outgoing, cold.outgoing, "{context}: outgoing");
}

/// Drive `program` through the incremental path (solve, apply one delta,
/// re-solve) and compare the re-solve against a from-scratch solve of the
/// final database, with warm starts on and off. The delta inserts one row
/// and then, when `replaced` is given, deletes the row it replaces.
fn check_single_row_delta(
    context: &str,
    program: &str,
    params: &ProgramParams,
    base_facts: &[(&str, Tuple)],
    replaced: Option<Tuple>,
    delta: (&str, Tuple),
) {
    let (rel, tuple) = &delta;
    let resolve_after_delta = |params: &ProgramParams| {
        let mut inst = instance(program, params, base_facts);
        let first = inst.invoke_solver().unwrap();
        assert!(first.feasible, "{context}: base problem must be feasible");
        assert_eq!(
            inst.pipeline_stats().full_rebuilds,
            1,
            "{context}: first grounding is cold"
        );
        assert_eq!(inst.pipeline_stats().incremental_builds, 0, "{context}");

        inst.relation(rel).unwrap().insert(tuple.clone()).unwrap();
        if let Some(old) = &replaced {
            inst.relation(rel).unwrap().delete(old.clone()).unwrap();
        }
        let report = inst.invoke_solver().unwrap();
        assert_eq!(
            inst.pipeline_stats().full_rebuilds,
            1,
            "{context}: the delta re-solve must not be a full rebuild"
        );
        assert_eq!(
            inst.pipeline_stats().incremental_builds,
            1,
            "{context}: the delta re-solve must take the incremental path"
        );
        assert_eq!(
            report.stats.warm_start, params.warm_start,
            "{context}: the re-solve is warm-started exactly when asked"
        );
        report
    };

    // From-scratch reference: a brand-new instance over the final database.
    let mut all_facts: Vec<(&str, Tuple)> = base_facts
        .iter()
        .filter(|(r, t)| !(r == rel && replaced.as_ref() == Some(t)))
        .cloned()
        .collect();
    all_facts.push((rel, tuple.clone()));
    let mut cold = instance(program, params, &all_facts);
    let reference = cold.invoke_solver().unwrap();

    let incremental = resolve_after_delta(params);
    assert_same_result(&incremental, &reference, context);
    // Warm starts only change how much work a solve takes, never its result.
    let plain = resolve_after_delta(&params.clone().with_warm_start(false));
    assert_same_result(&plain, &reference, &format!("{context} (cold start)"));
}

/// One VM's cpu changes: its `vm` row is replaced. Inserting the new row
/// before deleting the old one keeps every `toAssign` row (the `forall`
/// relation of `assign`) visible throughout, so `toAssign` stays clean
/// while `vm`, which the cost rules read, is dirty.
fn check_acloud_cpu_change(context: &str, params: &ProgramParams) {
    let mut probe = instance(ACLOUD_CENTRALIZED, params, &acloud_base_facts());
    probe.invoke_solver().unwrap();
    let mut vm = probe.relation("vm").unwrap();
    vm.insert(ints(&[1, 25, 4])).unwrap();
    vm.delete(ints(&[1, 40, 4])).unwrap();
    probe.run_rules();
    let delta = probe.pending_delta();
    assert!(delta.is_clean("toAssign"), "{context}: {delta:?}");
    assert!(!delta.is_clean("vm"), "{context}: {delta:?}");

    check_single_row_delta(
        context,
        ACLOUD_CENTRALIZED,
        params,
        &acloud_base_facts(),
        Some(ints(&[1, 40, 4])),
        ("vm", ints(&[1, 25, 4])),
    );
}

#[test]
fn acloud_single_vm_arrival_matches_cold_solve() {
    check_single_row_delta(
        "acloud insert",
        ACLOUD_CENTRALIZED,
        &acloud_params(),
        &acloud_base_facts(),
        None,
        ("vm", ints(&[4, 50, 4])),
    );
}

#[test]
fn wireless_single_link_arrival_matches_cold_solve() {
    check_single_row_delta(
        "wireless insert",
        WIRELESS_CENTRALIZED,
        &wireless_params(),
        &wireless_base_facts(),
        None,
        ("link", ints(&[3, 4])),
    );
}

#[test]
fn acloud_first_fail_single_vm_arrival_matches_cold_solve() {
    // The ACloud controllers run with first-fail branching; pin the
    // incremental/cold equivalence under that heuristic too.
    check_single_row_delta(
        "acloud first-fail insert",
        ACLOUD_CENTRALIZED,
        &acloud_params().with_solver_branching(Branching::SmallestDomain),
        &acloud_base_facts(),
        None,
        ("vm", ints(&[4, 50, 4])),
    );
}

#[test]
fn wireless_first_fail_single_link_arrival_matches_cold_solve() {
    check_single_row_delta(
        "wireless first-fail insert",
        WIRELESS_CENTRALIZED,
        &wireless_params().with_solver_branching(Branching::SmallestDomain),
        &wireless_base_facts(),
        None,
        ("link", ints(&[3, 4])),
    );
}

#[test]
fn acloud_single_vm_cpu_change_matches_cold_solve() {
    check_acloud_cpu_change("acloud cpu change", &acloud_params());
}

#[test]
fn acloud_first_fail_single_vm_cpu_change_matches_cold_solve() {
    check_acloud_cpu_change(
        "acloud first-fail cpu change",
        &acloud_params().with_solver_branching(Branching::SmallestDomain),
    );
}

#[test]
fn acloud_single_vm_departure_matches_cold_solve() {
    let params = acloud_params();
    let base = acloud_base_facts();
    let mut warm = instance(ACLOUD_CENTRALIZED, &params, &base);
    warm.invoke_solver().unwrap();
    warm.relation("vm")
        .unwrap()
        .delete(ints(&[3, 30, 4]))
        .unwrap();
    let incremental = warm.invoke_solver().unwrap();
    assert_eq!(warm.pipeline_stats().incremental_builds, 1);
    assert_eq!(warm.pipeline_stats().full_rebuilds, 1);

    let remaining: Vec<(&str, Tuple)> = base
        .into_iter()
        .filter(|(rel, tuple)| !(*rel == "vm" && tuple == &ints(&[3, 30, 4])))
        .collect();
    let mut cold = instance(ACLOUD_CENTRALIZED, &params, &remaining);
    let reference = cold.invoke_solver().unwrap();
    assert_same_result(&incremental, &reference, "acloud delete");
}

#[test]
fn unchanged_inputs_reuse_the_whole_grounded_cop() {
    let mut inst = instance(ACLOUD_CENTRALIZED, &acloud_params(), &acloud_base_facts());
    let first = inst.invoke_solver().unwrap();
    assert!(first.proven_optimal);
    let cumulative_after_first = inst.cumulative_solver_stats().nodes;
    // Materialization dirties only solver tables (assign, hostStdevCpu) —
    // none of them is a grounding input, so the next invocation reuses the
    // retained COP without re-grounding anything, and (the first solve
    // having proved optimality) replays the memoized report without
    // searching.
    let second = inst.invoke_solver().unwrap();
    assert_eq!(inst.pipeline_stats().full_rebuilds, 1);
    assert_eq!(inst.pipeline_stats().incremental_builds, 1);
    assert_same_result(&second, &first, "no-op re-solve");
    assert_eq!(
        inst.cumulative_solver_stats().nodes,
        cumulative_after_first,
        "a memoized replay must not run a search"
    );
}

#[test]
fn ground_only_between_invocations_drops_the_memoized_report() {
    let mut inst = instance(ACLOUD_CENTRALIZED, &acloud_params(), &acloud_base_facts());
    let first = inst.invoke_solver().unwrap();
    // Change the database, then consume the delta checkpoint through
    // ground_only: the next invoke_solver sees an empty summary, but must
    // NOT replay the pre-change report.
    inst.relation("vm")
        .unwrap()
        .insert(ints(&[4, 50, 4]))
        .unwrap();
    let cop = inst.ground_only().unwrap();
    inst.recycle(cop);
    let report = inst.invoke_solver().unwrap();
    assert_ne!(
        report.table("assign").len(),
        first.table("assign").len(),
        "the re-solve must see the post-delta COP, not the memoized report"
    );
    assert_eq!(report.table("assign").len(), 12); // 4 VMs x 3 hosts
}

#[test]
fn wall_clock_limited_incomplete_solves_are_not_memoized() {
    // A node budget too small to prove optimality, combined with the
    // default wall-clock limit: a retry on the unchanged database must
    // re-run the search (a fresh budget may improve the incumbent), not
    // replay the limit-stopped report.
    let params = acloud_params().with_solver_node_limit(Some(3));
    let mut inst = instance(ACLOUD_CENTRALIZED, &params, &acloud_base_facts());
    for vid in 10..16i64 {
        inst.relation("vm")
            .unwrap()
            .insert(ints(&[vid, 10 + vid, 1]))
            .unwrap();
    }
    let first = inst.invoke_solver().unwrap();
    assert!(!first.proven_optimal);
    let cumulative_after_first = inst.cumulative_solver_stats().nodes;
    inst.invoke_solver().unwrap();
    assert!(
        inst.cumulative_solver_stats().nodes > cumulative_after_first,
        "an incomplete wall-clock-limited solve must be re-run on retry"
    );
    // With the wall clock disabled the same bounded search is deterministic
    // and the replay is safe again.
    let deterministic = params.clone().with_solver_max_time(None);
    let mut inst = instance(ACLOUD_CENTRALIZED, &deterministic, &acloud_base_facts());
    for vid in 10..16i64 {
        inst.relation("vm")
            .unwrap()
            .insert(ints(&[vid, 10 + vid, 1]))
            .unwrap();
    }
    inst.invoke_solver().unwrap();
    let cumulative_after_first = inst.cumulative_solver_stats().nodes;
    inst.invoke_solver().unwrap();
    assert_eq!(
        inst.cumulative_solver_stats().nodes,
        cumulative_after_first,
        "deterministically-limited solves replay without searching"
    );
}

#[test]
fn params_change_forces_a_full_rebuild() {
    let mut inst = instance(ACLOUD_CENTRALIZED, &acloud_params(), &acloud_base_facts());
    inst.invoke_solver().unwrap();
    inst.invoke_solver().unwrap();
    let stats = inst.pipeline_stats();
    assert_eq!((stats.full_rebuilds, stats.incremental_builds), (1, 1));
    // A parameter change drops every cross-invocation cache: the next
    // grounding is cold (and not warm-started), the one after is
    // incremental again.
    inst.params_mut().solver_node_limit = Some(1_000_000);
    let after = inst.invoke_solver().unwrap();
    let stats = inst.pipeline_stats();
    assert_eq!((stats.full_rebuilds, stats.incremental_builds), (2, 1));
    assert!(
        !after.stats.warm_start,
        "a params change must clear the warm memory"
    );
    inst.invoke_solver().unwrap();
    let stats = inst.pipeline_stats();
    assert_eq!((stats.full_rebuilds, stats.incremental_builds), (2, 2));
}

#[test]
fn rejected_writes_stay_on_the_reuse_path() {
    let mut inst = instance(ACLOUD_CENTRALIZED, &acloud_params(), &acloud_base_facts());
    let first = inst.invoke_solver().unwrap();
    // A relation the program never mentions is refused on every write
    // surface (that is the point of the schema catalog), and the rejected
    // writes must not dirty anything: the next invocation reuses the
    // previous COP instead of re-grounding.
    assert!(inst.relation("monitoringHeartbeat").is_err());
    assert!(inst
        .try_receive(
            NodeId(1),
            &cologne::datalog::RemoteTuple {
                dest: NodeId(0),
                relation: "monitoringHeartbeat".into(),
                tuple: ints(&[1, 2, 3]),
                insert: true,
            }
        )
        .is_err());
    let second = inst.invoke_solver().unwrap();
    assert_eq!(inst.pipeline_stats().full_rebuilds, 1);
    assert_eq!(inst.pipeline_stats().incremental_builds, 1);
    assert_same_result(&second, &first, "rejected writes");
}
