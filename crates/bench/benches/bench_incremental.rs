//! Benchmarks of the incremental re-optimization path: delta-aware grounding
//! reuse and warm-started re-solving against the cold full-rebuild path.
//!
//! The headline pair runs the ACloud churn scenario (per-tick VM
//! arrivals/departures + host-capacity drift through the net simulator, LNS
//! under a node budget): the warm run re-solves each tick from the previous
//! incumbent at a third of the cold run's budget and still reaches
//! equal-or-better placements on every tick (pinned by
//! `cologne_usecases::churn`'s tests) — so its lower latency is a genuine
//! "re-solve faster at equal quality" win, not a quality trade. The
//! remaining benchmarks isolate the two component mechanisms: the memoized
//! no-delta re-solve (whole-COP reuse) and the single-tuple exact re-solve.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cologne::datalog::{NodeId, Value};
use cologne::solver::LnsConfig;
use cologne::{CologneInstance, ProgramParams, SolverMode, VarDomain};
use cologne_usecases::programs::ACLOUD_CENTRALIZED;
use cologne_usecases::{run_churn, ChurnConfig};

/// The churn configuration of `examples/incremental_churn.rs`: 40 hot VMs on
/// 6 hosts, 8 ticks of single-VM churn plus capacity drift, solved with LNS.
fn churn_config(incremental: bool, budget: u64) -> ChurnConfig {
    ChurnConfig {
        data_centers: 1,
        hosts_per_dc: 6,
        initial_vms_per_dc: 40,
        ticks: 8,
        arrivals_per_tick: 1,
        departures_per_tick: 1,
        capacity_drift_gb: 2,
        solver_node_limit: Some(budget),
        solver_mode: SolverMode::Lns(LnsConfig {
            dive_node_limit: (budget / 8).max(500),
            ..Default::default()
        }),
        incremental,
        ..ChurnConfig::default()
    }
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/churn_lns_40vms");
    group.bench_function("warm_budget_8k", |b| {
        b.iter(|| black_box(run_churn(&churn_config(true, 8_000)).total_search_nodes))
    });
    group.bench_function("cold_budget_24k", |b| {
        b.iter(|| black_box(run_churn(&churn_config(false, 24_000)).total_search_nodes))
    });
    group.finish();
}

fn acloud_instance(vms: usize, hosts: usize, incremental: bool) -> CologneInstance {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_max_time(None)
        .with_warm_start(incremental)
        .with_delta_grounding(incremental);
    let mut inst = CologneInstance::new(NodeId(0), ACLOUD_CENTRALIZED, params).unwrap();
    for vid in 0..vms as i64 {
        inst.relation("vm")
            .unwrap()
            .insert(vec![
                Value::Int(vid),
                Value::Int(20 + (vid * 7) % 60),
                Value::Int(1),
            ])
            .unwrap();
    }
    for hid in 0..hosts as i64 {
        inst.relation("host")
            .unwrap()
            .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
            .unwrap();
        inst.relation("hostMemThres")
            .unwrap()
            .insert(vec![Value::Int(hid), Value::Int(100)])
            .unwrap();
    }
    inst
}

/// Re-solve with no delta at all: the delta summary proves the COP
/// unchanged, the retained COP and the memoized report are replayed —
/// grounding and search are both skipped.
fn bench_noop_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/noop_resolve");
    group.bench_function("reuse", |b| {
        let mut inst = acloud_instance(6, 3, true);
        inst.invoke_solver().unwrap();
        b.iter(|| black_box(inst.invoke_solver().unwrap().objective));
    });
    group.bench_function("cold", |b| {
        let mut inst = acloud_instance(6, 3, false);
        inst.invoke_solver().unwrap();
        b.iter(|| black_box(inst.invoke_solver().unwrap().objective));
    });
    group.finish();
}

/// Exact re-solve after a single-tuple delta (one VM arrives, then departs
/// again on the next iteration). Both paths prove optimality, so the
/// reports are identical (pinned by `tests/regression_incremental.rs`); the
/// delta path saves the re-grounding of clean declarations plus the
/// incumbent-discovery phase of the search.
fn bench_single_tuple_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/single_tuple_exact_8vms");
    let delta = || vec![Value::Int(999), Value::Int(33), Value::Int(1)];
    group.bench_function("warm", |b| {
        let mut inst = acloud_instance(8, 3, true);
        inst.invoke_solver().unwrap();
        let mut present = false;
        b.iter(|| {
            if present {
                inst.relation("vm").unwrap().delete(delta()).unwrap();
            } else {
                inst.relation("vm").unwrap().insert(delta()).unwrap();
            }
            present = !present;
            black_box(inst.invoke_solver().unwrap().objective)
        });
    });
    group.bench_function("cold", |b| {
        let mut inst = acloud_instance(8, 3, false);
        inst.invoke_solver().unwrap();
        let mut present = false;
        b.iter(|| {
            if present {
                inst.relation("vm").unwrap().delete(delta()).unwrap();
            } else {
                inst.relation("vm").unwrap().insert(delta()).unwrap();
            }
            present = !present;
            black_box(inst.invoke_solver().unwrap().objective)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_churn, bench_noop_resolve, bench_single_tuple_exact
}
criterion_main!(benches);
