//! The unified statistics surface: [`StatsSnapshot`].
//!
//! Counters used to be scattered across four getters on three types —
//! [`PipelineStats`] and the engine's [`EngineStats`] per instance,
//! cumulative/last [`SearchStats`] per solver, [`DeliveryStats`] on the
//! network — forcing a monitoring client to know the whole object graph.
//! [`crate::Deployment::stats`] folds them into one value that the
//! `cologne-serve` wire protocol ships as a single frame: per-node rows
//! ([`NodeStats`]) plus the network-wide delivery counters.

use cologne_datalog::{EngineStats, NodeId};
use cologne_solver::SearchStats;

use crate::distributed::DeliveryStats;
use crate::pipeline::PipelineStats;

/// Every counter of one node, in one row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// The node the row describes.
    pub node: NodeId,
    /// Number of `invokeSolver` executions so far.
    pub solver_invocations: u64,
    /// Grounding-pipeline counters (plan builds, full vs incremental).
    pub pipeline: PipelineStats,
    /// Datalog-engine counters (deltas, derivations, updates, ...).
    pub engine: EngineStats,
    /// Search statistics accumulated over every invocation.
    pub search_total: SearchStats,
    /// Search statistics of the most recent invocation (`None` before the
    /// first solve).
    pub last_search: Option<SearchStats>,
}

/// One deployment-wide statistics snapshot; see [`crate::Deployment::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Per-node counters in ascending node order.
    pub nodes: Vec<NodeStats>,
    /// Reliable-delivery counters of the simulated network (all zero until
    /// a fault plan, [`crate::DeploymentBuilder::faults`], switches shipping
    /// to the ack/retry layer).
    pub delivery: DeliveryStats,
    /// Remote tuples rejected at reception because they failed the
    /// destination node's schema check.
    pub rejected_remote_tuples: u64,
}

impl StatsSnapshot {
    /// The row of one node.
    pub fn node(&self, node: NodeId) -> Option<&NodeStats> {
        self.nodes.iter().find(|row| row.node == node)
    }

    /// Search statistics merged across every node (the deployment-wide
    /// totals a dashboard would chart).
    pub fn search_merged(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for row in &self.nodes {
            total.merge(&row.search_total);
        }
        total
    }

    /// Total solver invocations across every node.
    pub fn total_invocations(&self) -> u64 {
        self.nodes.iter().map(|row| row.solver_invocations).sum()
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deployment: {} node(s), {} solver invocation(s)",
            self.nodes.len(),
            self.total_invocations()
        )?;
        for row in &self.nodes {
            writeln!(
                f,
                "  {}: invocations={} ground(full={}, incremental={}) \
                 engine(deltas={}, derivations={}, updates={}) \
                 search(nodes={}, fails={}, solutions={})",
                row.node,
                row.solver_invocations,
                row.pipeline.full_rebuilds,
                row.pipeline.incremental_builds,
                row.engine.external_deltas,
                row.engine.derivations,
                row.engine.updates,
                row.search_total.nodes,
                row.search_total.fails,
                row.search_total.solutions,
            )?;
        }
        write!(
            f,
            "  network: data={} retx={} acks={} dup={} rejected={}",
            self.delivery.data_packets_sent,
            self.delivery.retransmits,
            self.delivery.acks_sent,
            self.delivery.duplicates_dropped,
            self.rejected_remote_tuples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_totals() {
        let mut snap = StatsSnapshot::default();
        for (n, inv, nodes) in [(0u32, 2u64, 10u64), (1, 3, 20)] {
            let mut row = NodeStats {
                node: NodeId(n),
                solver_invocations: inv,
                ..Default::default()
            };
            row.search_total.nodes = nodes;
            snap.nodes.push(row);
        }
        assert_eq!(snap.total_invocations(), 5);
        assert_eq!(snap.search_merged().nodes, 30);
        assert_eq!(snap.node(NodeId(1)).unwrap().solver_invocations, 3);
        assert!(snap.node(NodeId(9)).is_none());
        let text = format!("{snap}");
        assert!(text.contains("2 node(s)"));
        assert!(text.contains("5 solver invocation(s)"));
    }
}
