//! Benchmarks for the dual-bound subsystem: the cost of computing a root
//! certificate with each engine on the grounded ACloud COP, and the payoff —
//! a `gap_limit = 0.05` exact search terminating with a certificate in
//! measurably fewer nodes (and less time) than the full optimality proof.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cologne::datalog::{NodeId, Value};
use cologne::solver::{
    compute_root_bound, BoundMode, Branching, LnsConfig, Objective, SearchConfig, SolverMode,
};
use cologne::{CologneInstance, GroundedCop, ProgramParams, VarDomain};
use cologne_usecases::programs::ACLOUD_CENTRALIZED;
use cologne_usecases::{large_acloud_instance, LargeAcloudConfig};

/// Twelve VMs over three hosts — the largest exact ACloud scenario of the
/// acceptance criteria (mirrors `tests/dual_bounds.rs`).
const VMS: [(i64, i64, i64); 12] = [
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

fn grounded_acloud(n_vms: usize) -> (GroundedCop, SearchConfig) {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(200_000));
    let mut inst = CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, params).unwrap();
    for &(vid, cpu, mem) in &VMS[..n_vms] {
        inst.relation("vm")
            .unwrap()
            .insert(vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)])
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
    let config = inst.search_config().clone();
    let cop = inst.ground_only().unwrap();
    (cop, config)
}

/// Root-certificate computation must stay cheap next to the search it
/// informs: one call per engine on the grounded 12-VM COP.
fn bench_root_certificate(c: &mut Criterion) {
    let (cop, config) = grounded_acloud(12);
    let (_, obj) = cop.objective.expect("ACloud minimizes");
    let mut group = c.benchmark_group("bounds/root_certificate_12vm");
    for (name, mode) in [
        ("linear", BoundMode::Linear),
        ("relaxed", BoundMode::Relaxed),
        ("auto", BoundMode::Auto),
    ] {
        let cfg = SearchConfig {
            bound_mode: mode,
            ..config.clone()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                black_box(compute_root_bound(
                    &cop.model,
                    Objective::Minimize(obj),
                    cfg,
                    cop.model.domains(),
                ))
            });
        });
    }
    group.finish();
}

/// The acceptance pin, as wall-clock: the same exact search run to its full
/// 200k-node budget vs. terminating once the certified gap drops under 5%.
fn bench_gap_termination(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounds/acloud_exact_12vm");
    for (name, mode, gap) in [
        ("budget_200k", BoundMode::Off, None),
        ("gap_0.05", BoundMode::Auto, Some(0.05)),
    ] {
        let (cop, config) = grounded_acloud(12);
        let (_, obj) = cop.objective.expect("ACloud minimizes");
        let cfg = SearchConfig {
            bound_mode: mode,
            gap_limit: gap,
            ..config
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let out = cop.model.minimize(obj, cfg);
                black_box((out.best_objective, out.stats.nodes))
            });
        });
    }
    group.finish();
}

/// Certificate cost at the other end of the scale: the 120-VM / 10-host
/// large ACloud scenario the LNS mode exists for.
fn bench_root_certificate_large(c: &mut Criterion) {
    let config = LargeAcloudConfig::default();
    let mut inst = large_acloud_instance(&config, SolverMode::Lns(config.lns_params()));
    let search = inst.search_config().clone();
    let cop = inst.ground_only().unwrap();
    let (_, obj) = cop.objective.expect("ACloud minimizes");
    let cfg = SearchConfig {
        bound_mode: BoundMode::Auto,
        ..search
    };
    c.bench_function("bounds/root_certificate_120vm/auto", |b| {
        b.iter(|| {
            black_box(compute_root_bound(
                &cop.model,
                Objective::Minimize(obj),
                &cfg,
                cop.model.domains(),
            ))
        });
    });
}

/// LNS under the same gap criterion: the 12-VM instance is perfectly
/// balanceable, so a gap-limited LNS run stops as soon as a dive lands the
/// certified-optimal incumbent, while the budget run keeps iterating.
fn bench_lns_gap_termination(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounds/acloud_lns_12vm");
    for (name, mode, gap) in [
        ("budget_50k", BoundMode::Off, None),
        ("gap_0.05", BoundMode::Auto, Some(0.05)),
    ] {
        let (cop, config) = grounded_acloud(12);
        let (_, obj) = cop.objective.expect("ACloud minimizes");
        let cfg = SearchConfig {
            mode: SolverMode::Lns(LnsConfig::default()),
            node_limit: Some(50_000),
            bound_mode: mode,
            gap_limit: gap,
            ..config
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let out = cop.model.minimize(obj, cfg);
                black_box((out.best_objective, out.stats.nodes))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_root_certificate, bench_root_certificate_large,
        bench_gap_termination, bench_lns_gap_termination
}
criterion_main!(benches);
