//! Integration test: wireless channel selection end-to-end — centralized and
//! distributed Colog programs, interference model, throughput ordering of the
//! protocols (Fig. 6) and of the policy variations (Fig. 7).

use cologne::net::FaultPlan;
use cologne_usecases::wireless::{
    aggregate_throughput, assignment_for, interference_count, MeshNetwork,
};
use cologne_usecases::{
    networked_distributed_assignment, run_fig6, run_fig7, WirelessConfig, WirelessPolicy,
    WirelessProtocol,
};

fn test_config() -> WirelessConfig {
    WirelessConfig {
        rows: 3,
        cols: 4,
        flows: 6,
        solver_node_limit: 10_000,
        ..WirelessConfig::default()
    }
}

#[test]
fn all_protocols_produce_complete_assignments() {
    let config = test_config();
    let mesh = MeshNetwork::generate(&config);
    for protocol in WirelessProtocol::all() {
        let assignment = assignment_for(&mesh, protocol);
        assert_eq!(
            assignment.len(),
            mesh.links().len(),
            "{}: every link must get a channel",
            protocol.name()
        );
        for channel in assignment.values() {
            assert!(
                config.channels.contains(channel),
                "{}: channel {channel} out of range",
                protocol.name()
            );
        }
    }
}

#[test]
fn colog_selection_reduces_interference_vs_single_channel() {
    let config = test_config();
    let mesh = MeshNetwork::generate(&config);
    let single = assignment_for(&mesh, WirelessProtocol::OneInterface);
    let distributed = assignment_for(&mesh, WirelessProtocol::Distributed);
    let total = |assignment: &std::collections::BTreeMap<(u32, u32), i64>| -> usize {
        mesh.links()
            .into_iter()
            .map(|l| interference_count(&mesh, assignment, l, config.f_mindiff, 2))
            .sum()
    };
    assert!(
        total(&distributed) < total(&single),
        "distributed selection must reduce total interference ({} vs {})",
        total(&distributed),
        total(&single)
    );
}

#[test]
fn fig6_protocol_ordering_matches_paper_shape() {
    let config = test_config();
    let rates = [2.0, 6.0, 10.0];
    let curves = run_fig6(&config, &rates);
    let peak = |p: WirelessProtocol| curves[&p].peak();
    // Cologne-based protocols beat the single-channel baseline, and the
    // cross-layer protocol is at least as good as plain distributed —
    // the qualitative ordering of Fig. 6.
    assert!(peak(WirelessProtocol::Distributed) >= peak(WirelessProtocol::OneInterface));
    assert!(peak(WirelessProtocol::Centralized) >= peak(WirelessProtocol::OneInterface));
    assert!(peak(WirelessProtocol::CrossLayer) >= peak(WirelessProtocol::Distributed));
    assert!(peak(WirelessProtocol::IdenticalCh) >= peak(WirelessProtocol::OneInterface));
}

#[test]
fn fig7_policy_restrictions_cost_throughput() {
    // The 3x4 test mesh and the paper-sized 5x6 mesh of the Fig. 7 run.
    for config in [test_config(), WirelessConfig::default()] {
        let rates = [2.0, 6.0, 10.0];
        let curves = run_fig7(&config, &rates);
        let two_hop = curves[&WirelessPolicy::TwoHopInterference].peak();
        let restricted = curves[&WirelessPolicy::RestrictedChannels].peak();
        // Removing channels cannot help (Fig. 7: 35.9% throughput drop).
        assert!(
            restricted <= two_hop + 1e-9,
            "{}x{}: restricted channels ({restricted:.2}) must not beat the full set ({two_hop:.2})",
            config.rows,
            config.cols
        );
        for curve in curves.values() {
            assert_eq!(curve.throughput.len(), rates.len());
        }
    }
}

/// Regression for the PR 2 wireless-distributed slowdown: per-use-case
/// branching is now explicit — the per-link negotiation runs input-order
/// while the centralized solver keeps first-fail — and the total search
/// effort of a full negotiation (all passes, all nodes) is pinned under a
/// ceiling, so a future heuristic change that makes the renegotiation
/// fixpoint wander again fails loudly instead of only showing up as a
/// slower Fig. 6/7 run. The Fig. 7 restricted-vs-full ordering (already
/// asserted above) is re-checked here on the 3x3 and 4x4 grids the
/// regression was observed on.
#[test]
fn distributed_negotiation_effort_stays_bounded() {
    // Input-order negotiation explores ~340 / ~1 150 nodes on these grids;
    // the ceilings leave 4-6x headroom, far below what a wandering fixpoint
    // costs.
    for (rows, cols, ceiling, converges) in [
        (3u32, 3u32, 2_000u64, true),
        // Known gap (reproduction scorecard): the 4x4 mesh of the `--quick`
        // Fig. 6/7 run oscillates, and its negotiation stops at the pass
        // cap without a fixpoint.
        (4, 4, 5_000, false),
    ] {
        // The full default channel set (the Fig. 6/7 setup), only the grid
        // size varies; `tiny()`'s reduced channel set changes the Fig. 7
        // economics and is not what the regression was observed on.
        let config = WirelessConfig {
            rows,
            cols,
            flows: 8,
            solver_node_limit: 10_000,
            ..WirelessConfig::default()
        };
        let mesh = MeshNetwork::generate(&config);
        let out = networked_distributed_assignment(&mesh, &config.channels, FaultPlan::default());
        assert_eq!(out.assignment.len(), mesh.links().len());
        assert!(
            out.search.nodes < ceiling,
            "{rows}x{cols} negotiation explored {} nodes (ceiling {ceiling})",
            out.search.nodes
        );
        assert_eq!(
            out.converged, converges,
            "{rows}x{cols}: fixpoint after {} passes",
            out.passes
        );

        let rates = [2.0, 6.0, 10.0];
        let curves = run_fig7(&config, &rates);
        let two_hop = curves[&WirelessPolicy::TwoHopInterference].peak();
        let restricted = curves[&WirelessPolicy::RestrictedChannels].peak();
        assert!(
            restricted <= two_hop + 1e-9,
            "{rows}x{cols}: restricted channels ({restricted:.2}) must not beat the full set ({two_hop:.2})"
        );
    }
}

#[test]
fn throughput_model_is_monotone_in_offered_load() {
    let config = test_config();
    let mesh = MeshNetwork::generate(&config);
    let assignment = assignment_for(&mesh, WirelessProtocol::Distributed);
    let mut last = 0.0;
    for rate in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let t = aggregate_throughput(&mesh, &assignment, rate, false);
        assert!(
            t + 1e-9 >= last,
            "throughput decreased when offering more load"
        );
        last = t;
    }
}
