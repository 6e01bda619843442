//! Tests for the dual-bound subsystem: soundness of the relaxation engines
//! against the reference searcher's proven optimum on random models, and
//! grounded use-case pins showing that (a) `bound_mode = Off` (the default)
//! is bit-identical to a build without the subsystem, (b) a strict
//! `gap_limit = Some(0.0)` never terminates a search early, and (c) a real
//! gap limit stops an exact ACloud search with a certificate in measurably
//! fewer nodes than the full optimality proof.

use proptest::prelude::*;

use cologne::datalog::{NodeId, Value};
use cologne::solver::{
    solve_reference, BoundMode, Branching, DualBound, LinearRelaxation, Model, Objective,
    RelaxedMerge, SearchConfig, StopReason,
};
use cologne::{CologneInstance, ProgramParams, SolveReport, VarDomain};
use cologne_usecases::programs::{ACLOUD_CENTRALIZED, WIRELESS_CENTRALIZED};
use cologne_usecases::{build_followsun_deployment, FollowSunConfig, FollowSunWorkload};

// ---------------------------------------------------------------------------
// Soundness: on random models, no engine ever claims a bound on the wrong
// side of the reference searcher's proven optimum.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both engines produce sound bounds on random linear COPs: for
    /// minimization the dual bound never exceeds the proven optimum, for
    /// maximization it never falls below it — under any branching
    /// configuration (the relaxed diagram reuses the search heuristic).
    #[test]
    fn engine_bounds_never_cross_reference_optimum(
        num_vars in 2usize..5,
        bounds in prop::collection::vec((-4i64..2, 2i64..10), 2..5),
        constraints in prop::collection::vec(
            (prop::collection::vec(-3i64..4, 2..5), -10i64..20, 0u8..4),
            1..6
        ),
        objective_coeffs in prop::collection::vec(-3i64..4, 2..5),
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
        let objective = if maximize {
            Objective::Maximize(obj)
        } else {
            Objective::Minimize(obj)
        };
        let cfg = SearchConfig::default();
        let reference = solve_reference(&m, objective, &cfg);
        prop_assert!(
            reference.stop == StopReason::Complete,
            "small models must be solved to proof"
        );
        let Some(optimum) = reference.best_objective else {
            return Ok(()); // infeasible: any bound is vacuously sound
        };
        let engines: [&dyn DualBound; 2] = [&LinearRelaxation, &RelaxedMerge::default()];
        for engine in engines {
            let Some(cert) = engine.certify(&m, objective, &cfg, m.domains()) else {
                continue; // an engine may decline a model it cannot relax
            };
            if maximize {
                prop_assert!(
                    cert.dual_bound >= optimum,
                    "{}: upper bound {} below optimum {optimum}",
                    cert.engine, cert.dual_bound
                );
            } else {
                prop_assert!(
                    cert.dual_bound <= optimum,
                    "{}: lower bound {} exceeds optimum {optimum}",
                    cert.engine, cert.dual_bound
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Grounded use-case pins.
// ---------------------------------------------------------------------------

fn acloud_params() -> ProgramParams {
    ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(200_000))
}

fn acloud_instance(
    params: ProgramParams,
    vms: &[(i64, i64, i64)],
    hosts: &[i64],
) -> CologneInstance {
    let mut inst = CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, params).unwrap();
    for &(vid, cpu, mem) in vms {
        inst.relation("vm")
            .unwrap()
            .insert(vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)])
            .unwrap();
    }
    for &hid in hosts {
        inst.relation("host")
            .unwrap()
            .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
            .unwrap();
        inst.relation("hostMemThres")
            .unwrap()
            .insert(vec![Value::Int(hid), Value::Int(32)])
            .unwrap();
    }
    inst
}

const SMALL_VMS: [(i64, i64, i64); 4] = [(1, 40, 4), (2, 20, 4), (3, 30, 4), (4, 25, 4)];

/// Twelve VMs over three hosts: the largest exact ACloud scenario in the
/// acceptance criteria, big enough that the optimality *proof* visibly
/// outweighs finding the optimum.
const LARGE_VMS: [(i64, i64, i64); 12] = [
    (1, 40, 2),
    (2, 20, 2),
    (3, 30, 2),
    (4, 25, 2),
    (5, 35, 2),
    (6, 15, 2),
    (7, 45, 2),
    (8, 10, 2),
    (9, 50, 2),
    (10, 5, 2),
    (11, 55, 2),
    (12, 60, 2),
];

/// The search-trajectory fields a dual bound must never perturb.
fn trajectory(report: &SolveReport) -> (Option<i64>, u64, u64, u64, u64, bool) {
    (
        report.objective,
        report.stats.nodes,
        report.stats.fails,
        report.stats.solutions,
        report.stats.max_depth,
        report.proven_optimal,
    )
}

#[test]
fn default_run_carries_no_bound_artifacts() {
    let mut inst = acloud_instance(acloud_params(), &SMALL_VMS, &[10, 11]);
    let report = inst.invoke_solver().unwrap();
    assert!(report.feasible);
    assert!(report.certificate.is_none(), "Off is the default");
    assert_eq!(report.stats.dual_bound, None);
    assert_eq!(report.stats.gap, None);
}

#[test]
fn explicit_off_is_identical_to_default() {
    let mut default_inst = acloud_instance(acloud_params(), &SMALL_VMS, &[10, 11]);
    let off_params = acloud_params()
        .with_solver_bound_mode(BoundMode::Off)
        .with_solver_gap_limit(None);
    let mut off_inst = acloud_instance(off_params, &SMALL_VMS, &[10, 11]);
    let mut a = default_inst.invoke_solver().unwrap();
    let mut b = off_inst.invoke_solver().unwrap();
    // Only the wall clock may differ between the two runs.
    a.stats.elapsed_micros = 0;
    b.stats.elapsed_micros = 0;
    assert_eq!(a, b);
}

#[test]
fn acloud_gap_zero_reproduces_the_full_search() {
    let mut off = acloud_instance(acloud_params(), &SMALL_VMS, &[10, 11]);
    let gapped_params = acloud_params()
        .with_solver_bound_mode(BoundMode::Auto)
        .with_solver_gap_limit(Some(0.0));
    let mut gapped = acloud_instance(gapped_params, &SMALL_VMS, &[10, 11]);

    let full = off.invoke_solver().unwrap();
    let bounded = gapped.invoke_solver().unwrap();

    // The strict comparison (`gap < limit`) makes 0.0 a no-op: the bound is
    // computed and reported but the search trajectory is byte-identical.
    assert_eq!(trajectory(&full), trajectory(&bounded));
    assert_eq!(full.assignments, bounded.assignments);
    let cert = bounded
        .certificate
        .as_ref()
        .expect("a bound mode is on: the report must carry a certificate");
    assert_eq!(bounded.stats.dual_bound, Some(cert.dual_bound));
    assert!(
        cert.dual_bound <= bounded.objective.unwrap(),
        "dual bound {} must not exceed the optimum {}",
        cert.dual_bound,
        bounded.objective.unwrap()
    );
    assert!(full.certificate.is_none());
}

#[test]
fn wireless_gap_zero_reproduces_the_full_search() {
    let make = |params: ProgramParams| {
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
            .insert(vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        inst
    };
    let base = ProgramParams::new()
        .with_var_domain("assign", VarDomain::new(1, 11))
        .with_constant("F_mindiff", 3)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(50_000));
    let mut off = make(base.clone());
    let mut gapped = make(
        base.with_solver_bound_mode(BoundMode::Relaxed)
            .with_solver_gap_limit(Some(0.0)),
    );
    let full = off.invoke_solver().unwrap();
    let bounded = gapped.invoke_solver().unwrap();
    assert!(full.feasible);
    assert_eq!(trajectory(&full), trajectory(&bounded));
    assert_eq!(full.assignments, bounded.assignments);
    if let Some(cert) = &bounded.certificate {
        assert_eq!(cert.engine, "relaxed_merge");
        assert!(cert.dual_bound <= bounded.objective.unwrap());
    }
}

#[test]
fn followsun_bound_is_sound_on_the_grounded_negotiation_cop() {
    let config = FollowSunConfig {
        data_centers: 3,
        capacity: 30,
        max_initial_allocation: 6,
        solver_node_limit: 20_000,
        seed: 5,
        ..FollowSunConfig::default()
    };
    let workload = FollowSunWorkload::generate(&config);
    let mut driver = build_followsun_deployment(&config, &workload);
    let initiator = {
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
        initiator
    };
    let inst = driver.instance_mut(NodeId(initiator)).unwrap();
    inst.params_mut().solver_max_time = None;
    let cop = inst.ground_only().unwrap();
    assert!(!cop.is_trivial(), "negotiation must ground a real COP");
    let (_, obj) = cop.objective.expect("Follow-the-Sun minimizes a cost");

    let off_cfg = SearchConfig {
        time_limit: None,
        ..inst.search_config().clone()
    };
    let full = cop.model.minimize(obj, &off_cfg);
    let gapped_cfg = SearchConfig {
        bound_mode: BoundMode::Auto,
        gap_limit: Some(0.0),
        ..off_cfg.clone()
    };
    let bounded = cop.model.minimize(obj, &gapped_cfg);

    assert_eq!(full.best_objective, bounded.best_objective);
    assert_eq!(full.stats.nodes, bounded.stats.nodes);
    assert_eq!(full.stats.fails, bounded.stats.fails);
    assert_eq!(full.stop, bounded.stop);
    let cert = bounded
        .certificate
        .as_ref()
        .expect("Auto must bound the linear Follow-the-Sun objective");
    assert!(cert.dual_bound <= bounded.best_objective.unwrap());
    assert_eq!(full.certificate, None);
    inst.recycle(cop);
}

#[test]
fn acloud_gap_limit_stops_the_exact_proof_early_with_a_certificate() {
    let mut off = acloud_instance(acloud_params(), &LARGE_VMS, &[10, 11, 12]);
    let gapped_params = acloud_params()
        .with_solver_bound_mode(BoundMode::Auto)
        .with_solver_gap_limit(Some(0.05));
    let mut gapped = acloud_instance(gapped_params, &LARGE_VMS, &[10, 11, 12]);

    let full = off.invoke_solver().unwrap();
    let bounded = gapped.invoke_solver().unwrap();

    assert!(full.feasible && bounded.feasible);
    let cert = bounded
        .certificate
        .as_ref()
        .expect("gap-terminated run must carry its certificate");
    // The incumbent the gap-limited run stops on is certified within 5% of
    // the dual bound — and the stop saves real work vs. the full proof.
    let gap = bounded.stats.gap.expect("gap is live once a bound exists");
    assert!(gap < 0.05, "terminating gap {gap} must beat the limit");
    assert!(
        bounded.stats.nodes < full.stats.nodes,
        "gap stop at {} nodes must beat the full proof's {} (certificate: {cert})",
        bounded.stats.nodes,
        full.stats.nodes
    );
    assert!(bounded.stats.limit_reached, "the gap is a limit");
    // Soundness on the big instance too: the certified bound never crosses
    // the true optimum the full run proved.
    assert!(cert.dual_bound <= full.objective.unwrap());
}
