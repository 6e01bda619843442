//! Incremental re-optimization demo: the ACloud churn scenario (per-tick VM
//! arrivals/departures + host-capacity drift, driven through the net
//! simulator) solved twice — once with warm-started solving at a third of
//! the node budget, once with cold-started search at the full budget. Both
//! runs ground every tick after the first incrementally.
//!
//! The warm path re-solves each tick starting from the previous tick's
//! incumbent (like a continuous LNS run that absorbs deltas), so on most
//! ticks it reaches an equal-or-better placement while exploring a fraction
//! of the nodes.

use std::time::Instant;

use cologne::solver::LnsConfig;
use cologne::SolverMode;
use cologne_usecases::{run_churn, ChurnConfig};

fn config(warm_start: bool, budget: u64) -> ChurnConfig {
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
        warm_start,
        ..ChurnConfig::default()
    }
}

fn main() {
    let t0 = Instant::now();
    let warm = run_churn(&config(true, 8_000));
    let warm_elapsed = t0.elapsed();

    let t0 = Instant::now();
    let cold = run_churn(&config(false, 24_000));
    let cold_elapsed = t0.elapsed();

    println!("ACloud churn, 40 hot VMs on 6 hosts, 8 ticks of single-VM churn + capacity drift");
    println!();
    println!(
        "{:<26} {:>14} {:>16} {:>12}",
        "mode", "search nodes", "groundings", "wall time"
    );
    for (mode, outcome, elapsed) in [
        ("warm start (budget 8k)", &warm, warm_elapsed),
        ("cold start (budget 24k)", &cold, cold_elapsed),
    ] {
        let groundings = format!(
            "{} full + {} inc",
            outcome.full_rebuilds, outcome.incremental_builds
        );
        println!(
            "{:<26} {:>14} {:>16} {:>12.3?}",
            mode, outcome.total_search_nodes, groundings, elapsed
        );
    }
    println!();
    println!(
        "{:>6} {:>16} {:>16}",
        "tick", "warm objective", "cold objective"
    );
    let mut warm_wins = 0;
    for (w, c) in warm.ticks.iter().zip(cold.ticks.iter()) {
        let better = w.objective.unwrap_or(i64::MAX) <= c.objective.unwrap_or(i64::MAX);
        warm_wins += u32::from(better);
        println!(
            "{:>6} {:>16} {:>16}{}",
            w.tick,
            w.objective.unwrap_or(-1),
            c.objective.unwrap_or(-1),
            if better { "" } else { "  (cold better)" }
        );
    }
    println!();
    println!(
        "warm path: {:.2}x faster, equal-or-better placement on {}/{} ticks",
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9),
        warm_wins,
        warm.ticks.len()
    );
}
