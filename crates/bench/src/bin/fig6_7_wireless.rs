//! Regenerates **Fig. 6** (aggregate throughput vs offered data rate for the
//! five channel-selection protocols on the 30-node mesh) and **Fig. 7**
//! (throughput under policy variations of the cross-layer protocol).
//!
//! ```text
//! cargo run --release -p cologne-bench --bin fig6_7_wireless [--quick]
//! ```

use cologne_bench::format_multi_series;
use cologne_usecases::wireless::ThroughputCurve;
use cologne_usecases::{run_fig6, run_fig7, WirelessConfig, WirelessPolicy, WirelessProtocol};

/// How the negotiation behind a curve ended: at its fixpoint, or at its pass
/// cap with an oscillation cut off. `None` for curves no negotiation made.
fn fixpoint(curve: &ThroughputCurve) -> Option<&'static str> {
    Some(match curve.converged? {
        true => "negotiation reached its fixpoint",
        false => "negotiation stopped at its pass cap, no fixpoint",
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        WirelessConfig {
            rows: 4,
            cols: 4,
            flows: 8,
            solver_node_limit: 10_000,
            ..WirelessConfig::default()
        }
    } else {
        WirelessConfig::default()
    };
    let data_rates: Vec<f64> = if quick {
        vec![1.0, 4.0, 8.0, 12.0]
    } else {
        vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    };
    eprintln!(
        "running wireless experiments on a {}x{} grid ({} nodes), {} flows",
        config.rows,
        config.cols,
        config.nodes(),
        config.flows
    );

    println!(
        "Figure 6: aggregate throughput (Mbps) vs per-flow data rate (Mbps), {} nodes",
        config.nodes()
    );
    let fig6 = run_fig6(&config, &data_rates);
    let protocols = WirelessProtocol::all();
    let names: Vec<&str> = protocols.iter().map(|p| p.name()).collect();
    let series: Vec<Vec<f64>> = protocols
        .iter()
        .map(|p| fig6[p].throughput.clone())
        .collect();
    print!(
        "{}",
        format_multi_series("rate (Mbps)", &names, &data_rates, &series)
    );
    println!();
    for p in protocols {
        let curve = &fig6[&p];
        let note = fixpoint(curve)
            .map(|f| format!(" ({f})"))
            .unwrap_or_default();
        println!(
            "  {:<14} peak throughput {:>6.2} Mbps{note}",
            p.name(),
            curve.peak()
        );
    }
    println!("(paper: Cologne protocols clearly outperform Identical-Ch and 1-Interface;");
    println!(" cross-layer performs best overall)");

    println!();
    println!("Figure 7: aggregate throughput (Mbps) under policy variations (cross-layer)");
    let fig7 = run_fig7(&config, &data_rates);
    let policies = WirelessPolicy::all();
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    let series: Vec<Vec<f64>> = policies
        .iter()
        .map(|p| fig7[p].throughput.clone())
        .collect();
    print!(
        "{}",
        format_multi_series("rate (Mbps)", &names, &data_rates, &series)
    );
    let two = fig7[&WirelessPolicy::TwoHopInterference].peak();
    let restricted = fig7[&WirelessPolicy::RestrictedChannels].peak();
    let onehop = fig7[&WirelessPolicy::OneHopInterference].peak();
    println!();
    for p in policies {
        if let Some(f) = fixpoint(&fig7[&p]) {
            println!("  {:<20} {f}", p.name());
        }
    }
    println!(
        "  restricted channels reduce peak throughput by {:.1}% (paper: 35.9%)",
        100.0 * (two - restricted).max(0.0) / two.max(f64::EPSILON)
    );
    println!(
        "  one-hop interference model reduces peak throughput by a further {:.1}% (paper: 6.9%)",
        100.0 * (restricted - onehop).max(0.0) / restricted.max(f64::EPSILON)
    );
}
