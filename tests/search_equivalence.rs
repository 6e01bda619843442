//! Integration tests pinning the trail-based searcher to the retained
//! copy-on-branch reference implementation on the paper's three use cases:
//! the grounded ACloud, Follow-the-Sun and wireless COPs must produce
//! identical incumbent sequences, solution sets and search counters under
//! both state-management schemes, and repeated `invokeSolver` executions must
//! be deterministic. (The sequential-vs-parallel byte-identity of the
//! distributed path is covered by `regression_pipeline.rs`.)

use cologne::datalog::{NodeId, Value};
use cologne::solver::{
    solve_reference, Branching, Objective, SearchConfig, SearchOutcome, ValueChoice,
};
use cologne::{CologneError, CologneInstance, GoalKind, GroundedCop, ProgramParams, VarDomain};
use cologne_usecases::programs::{ACLOUD_CENTRALIZED, WIRELESS_CENTRALIZED};
use cologne_usecases::{build_followsun_deployment, FollowSunConfig, FollowSunWorkload};

/// The search configuration the instance's pipeline solves under, with the
/// wall clock disabled so runs are deterministic.
fn effective_config(inst: &CologneInstance) -> SearchConfig {
    SearchConfig {
        time_limit: None,
        ..inst.search_config().clone()
    }
}

/// Solve `cop` with both searchers and assert they match observable-for-
/// observable.
fn assert_searchers_agree(cop: &GroundedCop, config: &SearchConfig, context: &str) {
    let (kind, obj) = cop.objective.expect("use-case COPs declare a goal");
    let (trail, reference): (SearchOutcome, SearchOutcome) = match kind {
        GoalKind::Minimize => (
            cop.model.minimize(obj, config),
            solve_reference(&cop.model, Objective::Minimize(obj), config),
        ),
        GoalKind::Maximize => (
            cop.model.maximize(obj, config),
            solve_reference(&cop.model, Objective::Maximize(obj), config),
        ),
        GoalKind::Satisfy => (
            cop.model.solve_all(config),
            solve_reference(&cop.model, Objective::Satisfy, config),
        ),
    };
    assert!(trail.best.is_some(), "{context}: COP must be feasible");
    assert_eq!(
        trail.best_objective, reference.best_objective,
        "{context}: best objective"
    );
    assert_eq!(trail.best, reference.best, "{context}: best assignment");
    assert_eq!(
        trail.solutions, reference.solutions,
        "{context}: incumbent sequence"
    );
    assert_eq!(trail.stop, reference.stop, "{context}: stop reason");
    assert_eq!(trail.stats.nodes, reference.stats.nodes, "{context}: nodes");
    assert_eq!(trail.stats.fails, reference.stats.fails, "{context}: fails");
    assert_eq!(
        trail.stats.solutions, reference.stats.solutions,
        "{context}: solutions"
    );
    assert_eq!(
        trail.stats.max_depth, reference.stats.max_depth,
        "{context}: max depth"
    );
}

fn acloud_instance() -> CologneInstance {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(50_000));
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
fn acloud_cop_trail_matches_reference() {
    let mut inst = acloud_instance();
    let config = effective_config(&inst);
    let cop = inst.ground_only().unwrap();
    assert_searchers_agree(&cop, &config, "acloud");
    inst.recycle(cop);
}

#[test]
fn acloud_repeated_invocations_are_deterministic() {
    let mut a = acloud_instance();
    let mut b = acloud_instance();
    a.params_mut().solver_max_time = None;
    b.params_mut().solver_max_time = None;
    let ra = a.invoke_solver().unwrap();
    let rb = b.invoke_solver().unwrap();
    assert_eq!(ra.objective, rb.objective);
    assert_eq!(ra.assignments, rb.assignments);
    assert_eq!(ra.stats.nodes, rb.stats.nodes);
    assert_eq!(ra.stats.fails, rb.stats.fails);
    assert_eq!(
        a.last_solver_stats().map(|s| (s.nodes, s.fails)),
        b.last_solver_stats().map(|s| (s.nodes, s.fails)),
    );
}

#[test]
fn branching_param_change_applies_on_next_invocation() {
    let mut inst = acloud_instance();
    assert_eq!(inst.search_config().branching, Branching::SmallestDomain);
    // params_mut() invalidates the pipeline; the branching change must be
    // picked up on the next invocation together with the plan rebuild.
    inst.params_mut().solver_branching = Branching::InputOrder;
    inst.invoke_solver().unwrap();
    assert_eq!(inst.search_config().branching, Branching::InputOrder);
    // Every solver knob takes the same path, and the rebuild re-validates.
    inst.params_mut().solver_value_choice = ValueChoice::ClosestToZero;
    inst.invoke_solver().unwrap();
    assert_eq!(
        inst.search_config().value_choice,
        ValueChoice::ClosestToZero
    );
    inst.params_mut().solver_split_threshold = Some(1);
    assert!(matches!(
        inst.invoke_solver(),
        Err(CologneError::InvalidConfig(_))
    ));
}

fn wireless_instance() -> CologneInstance {
    let channels = [1i64, 6, 11];
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::new(1, 11))
        .with_constant("F_mindiff", 3)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(50_000));
    let mut inst = CologneInstance::new(NodeId(0), WIRELESS_CENTRALIZED, params).unwrap();
    // A 4-node line topology with one primary user.
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
fn wireless_cop_trail_matches_reference() {
    let mut inst = wireless_instance();
    let config = effective_config(&inst);
    let cop = inst.ground_only().unwrap();
    assert_searchers_agree(&cop, &config, "wireless");
    inst.recycle(cop);
}

#[test]
fn followsun_cop_trail_matches_reference() {
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
    // Start a link negotiation so the initiator's COP is non-trivial.
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
    let search = effective_config(inst);
    let cop = inst.ground_only().unwrap();
    assert!(!cop.is_trivial(), "negotiation must ground a real COP");
    assert_searchers_agree(&cop, &search, "followsun");
    inst.recycle(cop);
}
