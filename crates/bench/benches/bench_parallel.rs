//! Benchmarks of the parallel search subsystem: the spine-splitting
//! (speculate/validate/redo) exact engine on the ACloud balance COP and the
//! multi-seed LNS portfolio on the large ACloud instance, each swept over
//! worker counts {1, 2, 4}. After the sweep the harness prints the
//! wall-clock speedup of each worker count over the single-worker baseline.
//! Measured on the 2-core reference container: the exact engine runs
//! 1.5-1.7x faster at 2 workers and gains nothing more at 4; the portfolio
//! buys solution quality, not wall clock (README "Parallel search").

use std::num::NonZeroUsize;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cologne::SolverMode;
use cologne_solver::{Model, SearchConfig, SearchSpace};
use cologne_usecases::{solve_large_acloud, LargeAcloudConfig};

const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

/// Balance `vms` binary assignment rows over `hosts` hosts (the ACloud COP
/// core shape, same generator as `bench_solver.rs`).
fn balance_model(vms: usize, hosts: usize) -> (Model, cologne_solver::VarId) {
    let mut m = Model::new();
    let loads: Vec<i64> = (0..vms).map(|i| 20 + (i as i64 * 7) % 60).collect();
    let mut host_terms: Vec<Vec<(i64, cologne_solver::VarId)>> = vec![Vec::new(); hosts];
    for &load in &loads {
        let mut row = Vec::with_capacity(hosts);
        for terms in host_terms.iter_mut() {
            let v = m.new_bool();
            terms.push((load, v));
            row.push((1, v));
        }
        m.linear_eq(&row, 1);
    }
    let host_loads: Vec<_> = host_terms.iter().map(|t| m.linear_var(t, 0)).collect();
    let obj = m.scaled_variance_var(&host_loads);
    (m, obj)
}

fn exact_config(workers: usize) -> SearchConfig {
    SearchConfig {
        node_limit: Some(20_000),
        workers: NonZeroUsize::new(workers),
        ..Default::default()
    }
}

fn lns_scenario(workers: usize) -> LargeAcloudConfig {
    LargeAcloudConfig {
        vms: 120,
        hosts: 10,
        node_limit: 6_000,
        seed: 23,
        workers: NonZeroUsize::new(workers),
    }
}

/// One timed pass of a scenario, used for the speedup report printed after
/// the criterion sweep (criterion's own estimates live in the JSON lines).
fn time_once(mut run: impl FnMut()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64()
}

fn print_speedups(label: &str, baseline: f64, timed: &[(usize, f64)]) {
    for (workers, secs) in timed {
        println!(
            "parallel speedup [{label}] workers={workers}: {:.2}x ({:.3}s vs {:.3}s at 1 worker)",
            baseline / secs,
            secs,
            baseline
        );
    }
}

fn bench_parallel_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/branch_and_bound");
    for &workers in &WORKER_SWEEP {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("10vms_4hosts_w{workers}")),
            &workers,
            |b, &workers| {
                let mut space = SearchSpace::new();
                b.iter(|| {
                    let (m, obj) = balance_model(10, 4);
                    let cfg = exact_config(workers);
                    black_box(m.minimize_in(obj, &cfg, &mut space).best_objective)
                });
            },
        );
    }
    group.finish();

    let timed: Vec<(usize, f64)> = WORKER_SWEEP
        .iter()
        .map(|&workers| {
            let mut space = SearchSpace::new();
            let secs = time_once(|| {
                let (m, obj) = balance_model(10, 4);
                black_box(
                    m.minimize_in(obj, &exact_config(workers), &mut space)
                        .best_objective,
                );
            });
            (workers, secs)
        })
        .collect();
    print_speedups("branch_and_bound/10vms_4hosts", timed[0].1, &timed[1..]);
}

fn bench_parallel_lns(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/lns");
    for &workers in &WORKER_SWEEP {
        let config = lns_scenario(workers);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("120vms_10hosts_w{workers}")),
            &config,
            |b, config| {
                b.iter(|| {
                    black_box(
                        solve_large_acloud(config, SolverMode::Lns(config.lns_params())).objective,
                    )
                });
            },
        );
    }
    group.finish();

    let timed: Vec<(usize, f64)> = WORKER_SWEEP
        .iter()
        .map(|&workers| {
            let config = lns_scenario(workers);
            let secs = time_once(|| {
                black_box(solve_large_acloud(
                    &config,
                    SolverMode::Lns(config.lns_params()),
                ));
            });
            (workers, secs)
        })
        .collect();
    print_speedups("lns/120vms_10hosts", timed[0].1, &timed[1..]);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_exact, bench_parallel_lns
}
criterion_main!(benches);
