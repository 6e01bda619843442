//! Determinism suite for the parallel search subsystem (PR 7): enabling
//! `SearchConfig::workers` must not change any observable of a solve. The
//! parallel exact engine is pinned against the sequential searcher on random
//! models and on the paper's three grounded use-case COPs (ACloud, wireless
//! channel selection, Follow-the-Sun), and the parallel LNS portfolio must be
//! byte-identical across reruns at a fixed seed.
//!
//! The worker count under test defaults to 4 and can be overridden through
//! the `COLOGNE_TEST_WORKERS` environment variable (the CI matrix runs this
//! suite with `COLOGNE_TEST_WORKERS=4` explicitly).

use std::num::NonZeroUsize;

use proptest::prelude::*;

use cologne::datalog::{NodeId, Value};
use cologne::solver::{
    Branching, Model, SearchConfig, SearchOutcome, ValueChoice, DEFAULT_SPLIT_THRESHOLD,
};
use cologne::{CologneInstance, ProgramParams, SolveReport, SolverMode, VarDomain};
use cologne_usecases::programs::{ACLOUD_CENTRALIZED, WIRELESS_CENTRALIZED};
use cologne_usecases::{
    build_followsun_deployment, solve_large_acloud, FollowSunConfig, FollowSunWorkload,
    LargeAcloudConfig,
};

/// Worker count exercised by this suite: `COLOGNE_TEST_WORKERS` when set,
/// otherwise 4.
fn test_workers() -> NonZeroUsize {
    std::env::var("COLOGNE_TEST_WORKERS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or_else(|| NonZeroUsize::new(4).unwrap())
}

/// Worker count the engine records for `test_workers()`: a single worker is
/// routed to the sequential engine, which reports 0.
fn recorded_workers() -> u64 {
    match test_workers().get() {
        1 => 0,
        n => n as u64,
    }
}

/// Assert the observables the parallel engine promises to preserve: the
/// incumbent chain, the winning assignment and objective, completeness, and
/// the solution count. (Node/fail totals intentionally stay out: rejected
/// speculative work is not merged, but sibling-subtree work accepted under a
/// weaker entry bound can legitimately differ from the sequential trace.)
fn assert_outcomes_agree(par: &SearchOutcome, seq: &SearchOutcome, context: &str) {
    assert_eq!(
        par.best_objective, seq.best_objective,
        "{context}: objective"
    );
    assert_eq!(par.best, seq.best, "{context}: best assignment");
    assert_eq!(par.solutions, seq.solutions, "{context}: incumbent chain");
    assert_eq!(par.stop, seq.stop, "{context}: stop reason");
    assert_eq!(
        par.stats.solutions, seq.stats.solutions,
        "{context}: solution count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random linear/disequality COPs, under every branching and value
    /// heuristic, `workers = 1` and `workers = COLOGNE_TEST_WORKERS` both
    /// reproduce the sequential incumbent chain, winner and completeness.
    #[test]
    fn random_models_parallel_matches_sequential(
        num_vars in 2usize..6,
        bounds in prop::collection::vec((-4i64..2, 2i64..14), 2..6),
        constraints in prop::collection::vec(
            (prop::collection::vec(-3i64..4, 2..6), -10i64..20, 0u8..4),
            1..6
        ),
        objective_coeffs in prop::collection::vec(-3i64..4, 2..6),
        heuristics in (0u8..2, 0u8..2, 0u8..2),
        maximize in prop::bool::ANY,
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..num_vars)
            .map(|i| {
                let (lo, hi) = bounds[i % bounds.len()];
                m.new_var(lo, hi)
            })
            .collect();
        for (coeffs, bound, kind) in &constraints {
            let terms: Vec<(i64, _)> = coeffs
                .iter()
                .zip(vars.iter())
                .map(|(&c, &v)| (c, v))
                .collect();
            match kind % 4 {
                0 => m.linear_le(&terms, *bound),
                1 => m.linear_ge(&terms, *bound),
                2 => m.linear_eq(&terms, *bound),
                _ => m.linear_ne(&terms, *bound),
            }
        }
        let obj_terms: Vec<(i64, _)> = objective_coeffs
            .iter()
            .zip(vars.iter())
            .map(|(&c, &v)| (c, v))
            .collect();
        let obj = m.linear_var(&obj_terms, 0);
        let base = SearchConfig {
            branching: [Branching::InputOrder, Branching::SmallestDomain][heuristics.0 as usize],
            value_choice: [ValueChoice::Min, ValueChoice::ClosestToZero][heuristics.1 as usize],
            split_threshold: [Some(DEFAULT_SPLIT_THRESHOLD), Some(2)][heuristics.2 as usize],
            ..Default::default()
        };
        let solve = |workers: Option<NonZeroUsize>| {
            let cfg = SearchConfig { workers, ..base.clone() };
            if maximize {
                m.maximize(obj, &cfg)
            } else {
                m.minimize(obj, &cfg)
            }
        };
        let sequential = solve(None);
        for workers in [NonZeroUsize::new(1).unwrap(), test_workers()] {
            let par = solve(Some(workers));
            assert_outcomes_agree(&par, &sequential, &format!("workers={workers}"));
        }
    }
}

/// Fingerprint of a pipeline-level solve, with wall-clock time excluded so
/// reruns can be compared byte-for-byte.
fn report_fingerprint(report: &SolveReport) -> impl PartialEq + std::fmt::Debug {
    let mut stats = report.stats.clone();
    stats.elapsed_micros = 0;
    (
        report.feasible,
        report.objective,
        report.proven_optimal,
        stats,
        report.assignments.clone(),
    )
}

/// Run one instance sequentially and one with the worker knob enabled, and
/// assert the pipeline-level reports agree on everything but wall clock and
/// the parallel-only counters.
fn assert_instance_parallel_matches_sequential(
    make: impl Fn(Option<NonZeroUsize>) -> CologneInstance,
    context: &str,
) {
    let mut seq = make(None);
    let mut par = make(Some(test_workers()));
    let rs = seq.invoke_solver().unwrap();
    let rp = par.invoke_solver().unwrap();
    assert_eq!(rp.feasible, rs.feasible, "{context}: feasibility");
    assert_eq!(rp.objective, rs.objective, "{context}: objective");
    assert_eq!(rp.assignments, rs.assignments, "{context}: assignments");
    assert_eq!(
        rp.proven_optimal, rs.proven_optimal,
        "{context}: optimality proof"
    );
    assert_eq!(
        rp.stats.parallel_workers,
        recorded_workers(),
        "{context}: worker count recorded"
    );
    // The same parallel run must also be reproducible wholesale.
    let mut again = make(Some(test_workers()));
    let ra = again.invoke_solver().unwrap();
    assert_eq!(
        report_fingerprint(&ra),
        report_fingerprint(&rp),
        "{context}: parallel rerun determinism"
    );
}

fn acloud_instance(workers: Option<NonZeroUsize>) -> CologneInstance {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(50_000))
        .with_solver_workers(workers);
    let mut inst = CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, params).unwrap();
    for (vid, cpu, mem) in [(1, 40, 4), (2, 20, 4), (3, 30, 4), (4, 25, 4)] {
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
            .insert(vec![Value::Int(hid), Value::Int(8)])
            .unwrap();
    }
    inst
}

#[test]
fn acloud_cop_parallel_matches_sequential() {
    assert_instance_parallel_matches_sequential(acloud_instance, "acloud");
}

fn wireless_instance(workers: Option<NonZeroUsize>) -> CologneInstance {
    let channels = [1i64, 6, 11];
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::new(1, 11))
        .with_constant("F_mindiff", 3)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(50_000))
        .with_solver_workers(workers);
    let mut inst = CologneInstance::new(NodeId(0), WIRELESS_CENTRALIZED, params).unwrap();
    let mut link = inst.relation("link").unwrap();
    for (a, b) in [(0i64, 1i64), (1, 2), (2, 3)] {
        link.insert(vec![Value::Int(a), Value::Int(b)]).unwrap();
        link.insert(vec![Value::Int(b), Value::Int(a)]).unwrap();
    }
    for n in 0..4i64 {
        inst.relation("numInterface")
            .unwrap()
            .insert(vec![Value::Int(n), Value::Int(2)])
            .unwrap();
    }
    inst.relation("primaryUser")
        .unwrap()
        .insert(vec![Value::Int(1), Value::Int(channels[0])])
        .unwrap();
    inst
}

#[test]
fn wireless_cop_parallel_matches_sequential() {
    assert_instance_parallel_matches_sequential(wireless_instance, "wireless");
}

/// The Follow-the-Sun link-negotiation COP solved on a full deployment: the
/// initiator's solve with `solver_workers` threaded through `ProgramParams`
/// must reproduce the sequential outcome.
#[test]
fn followsun_cop_parallel_matches_sequential() {
    let solve = |workers: Option<NonZeroUsize>| {
        let config = FollowSunConfig {
            data_centers: 3,
            capacity: 30,
            max_initial_allocation: 6,
            solver_node_limit: 20_000,
            seed: 5,
            solver_workers: workers,
            ..FollowSunConfig::default()
        };
        let workload = FollowSunWorkload::generate(&config);
        let mut driver = build_followsun_deployment(&config, &workload);
        let (a, b) = workload.topology.links()[0];
        let (initiator, peer) = (a.max(b), a.min(b));
        driver
            .insert(
                NodeId(initiator),
                "setLink",
                vec![Value::Addr(NodeId(initiator)), Value::Addr(NodeId(peer))],
            )
            .unwrap();
        driver.run_messages_until(cologne::net::SimTime::from_secs(2));
        let inst = driver.instance_mut(NodeId(initiator)).unwrap();
        inst.params_mut().solver_max_time = None;
        let cop = inst.ground_only().unwrap();
        assert!(!cop.is_trivial(), "negotiation must ground a real COP");
        inst.recycle(cop);
        inst.invoke_solver().unwrap()
    };
    let seq = solve(None);
    let par = solve(Some(test_workers()));
    assert_eq!(par.feasible, seq.feasible, "followsun: feasibility");
    assert_eq!(par.objective, seq.objective, "followsun: objective");
    assert_eq!(par.assignments, seq.assignments, "followsun: assignments");
    assert_eq!(
        par.stats.parallel_workers,
        recorded_workers(),
        "followsun: worker count recorded"
    );
}

/// The parallel LNS portfolio on the large ACloud scenario is byte-identical
/// across reruns at a fixed seed (modulo wall-clock time), finds a feasible
/// assignment, and records its portfolio shape in the stats.
#[test]
fn large_acloud_parallel_lns_rerun_is_byte_identical() {
    let config = LargeAcloudConfig {
        vms: 100,
        hosts: 8,
        node_limit: 8_000,
        seed: 23,
        workers: Some(test_workers()),
    };
    let first = solve_large_acloud(&config, SolverMode::Lns(config.lns_params()));
    let second = solve_large_acloud(&config, SolverMode::Lns(config.lns_params()));
    assert!(first.feasible, "portfolio finds a feasible incumbent");
    assert_eq!(first.stats.parallel_workers, recorded_workers());
    if test_workers().get() > 1 {
        assert!(
            first.stats.portfolio_rounds > 0,
            "portfolio rounds recorded"
        );
    }
    assert_eq!(
        report_fingerprint(&first),
        report_fingerprint(&second),
        "same seed, same worker count => byte-identical outcome"
    );
    // The portfolio must stay a sound solver: no worse than the sequential
    // LNS run at the same per-worker seed discipline is not guaranteed, but
    // feasibility of the same COP is.
    let assign = first.table("assign");
    assert_eq!(assign.len(), config.vms * config.hosts);
}
