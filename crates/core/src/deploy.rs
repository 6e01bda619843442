//! The deployment surface: [`DeploymentBuilder`] and [`Deployment`].
//!
//! One builder takes the program source, the base [`ProgramParams`] (every
//! solver knob included), a [`Topology`] (defaulting to
//! [`Topology::single`]), optional per-node parameter overrides and an
//! optional fault plan — and produces a [`Deployment`]: one
//! [`CologneInstance`] per topology node over the simulated network, the
//! single-node case being a one-node topology.
//!
//! This module holds the builder, the relation handles and the one solve
//! entry point, [`Deployment::solve`] / [`Deployment::solve_streaming`],
//! which takes the same [`SolveRequest`] the `cologne-serve` wire protocol
//! carries. The network side of the same type — shipping, the event loop,
//! timers, the delivery layer, crash and rejoin — is the second
//! `impl Deployment` block, in [`crate::distributed`].

use std::collections::BTreeMap;

use cologne_datalog::{NodeId, Tuple};
use cologne_net::{Simulator, Topology};

use crate::distributed::{CrashEvent, ReliableDelivery, Wire};
use crate::error::CologneError;
use crate::handle::RelationHandle;
use crate::instance::{CologneInstance, SolveReport};
use crate::params::ProgramParams;
use crate::solve_api::{
    BufferSink, EventSink, SinkObserver, SolveRequest, SolveResponse, SolveTarget,
};
use crate::stats::{NodeStats, StatsSnapshot};

/// Builder for a [`Deployment`] — the one way to stand up Cologne, single
/// node or distributed.
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    source: String,
    params: ProgramParams,
    topology: Option<Topology>,
    node_params: BTreeMap<NodeId, ProgramParams>,
    faults: Option<cologne_net::FaultPlan>,
}

impl DeploymentBuilder {
    /// Start a builder for the given Colog program source.
    pub fn new(source: &str) -> Self {
        DeploymentBuilder {
            source: source.to_string(),
            params: ProgramParams::new(),
            topology: None,
            node_params: BTreeMap::new(),
            faults: None,
        }
    }

    /// Base program parameters for every node (defaults to
    /// [`ProgramParams::new`]).
    pub fn params(mut self, params: ProgramParams) -> Self {
        self.params = params;
        self
    }

    /// The network topology; one instance is created per topology node.
    /// Defaults to [`Topology::single`] (a centralized deployment).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Replace the parameters of one node (the base parameters apply to
    /// every node without an override).
    pub fn node_params(mut self, node: NodeId, params: ProgramParams) -> Self {
        self.node_params.insert(node, params);
        self
    }

    /// Install a seeded fault plan on the simulated network (loss,
    /// duplication, jitter, partitions, crash/rejoin — see
    /// `cologne_net::fault`). This also switches shipping to the
    /// at-least-once delivery layer (see [`crate::distributed`]); the quiet
    /// default plan injects nothing but still runs the full ack/retransmit
    /// machinery, so quiet and hostile runs of a workload compare directly.
    pub fn faults(mut self, plan: cologne_net::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Compile the program on every topology node and wire the instances to
    /// the simulated network. Fails eagerly on an invalid configuration or a
    /// program that does not compile.
    pub fn build(self) -> Result<Deployment, CologneError> {
        let topology = self.topology.unwrap_or_else(Topology::single);
        if topology.num_nodes() == 0 {
            return Err(CologneError::InvalidConfig(
                "topology has no nodes; a deployment needs at least one".into(),
            ));
        }
        for node in self.node_params.keys() {
            if !topology.nodes().contains(&node.0) {
                return Err(CologneError::InvalidConfig(format!(
                    "node_params given for {node}, which is not in the topology"
                )));
            }
        }
        let mut instances = BTreeMap::new();
        for n in topology.nodes() {
            let node = NodeId(n);
            let params = self.node_params.get(&node).unwrap_or(&self.params);
            instances.insert(
                node,
                CologneInstance::new(node, &self.source, params.clone())?,
            );
        }
        let mut sim = Simulator::new(topology);
        let reliable = self.faults.map(|plan| {
            sim.set_fault_plan(plan);
            ReliableDelivery::default()
        });
        Ok(Deployment {
            instances,
            sim,
            reliable,
            rejected_remote_tuples: 0,
            crash_log: Vec::new(),
        })
    }
}

/// A built Cologne system: one instance per topology node over the simulated
/// network, with the single-node case being a one-node topology.
pub struct Deployment {
    pub(crate) instances: BTreeMap<NodeId, CologneInstance>,
    pub(crate) sim: Simulator<Wire>,
    /// The at-least-once delivery layer, present once a fault plan is
    /// installed.
    pub(crate) reliable: Option<ReliableDelivery>,
    pub(crate) rejected_remote_tuples: u64,
    pub(crate) crash_log: Vec<CrashEvent>,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("nodes", &self.nodes())
            .finish_non_exhaustive()
    }
}

impl Deployment {
    /// The sole node of a single-node deployment, or `None` when the
    /// deployment is distributed.
    pub fn single_node(&self) -> Option<NodeId> {
        match self.nodes().as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// The instance on `node`, or an error naming the missing node.
    fn instance_checked(&mut self, node: NodeId) -> Result<&mut CologneInstance, CologneError> {
        self.instances.get_mut(&node).ok_or_else(|| {
            CologneError::InvalidConfig(format!("deployment has no instance on {node}"))
        })
    }

    /// Schema-checked handle on one relation of one node.
    pub fn handle(
        &mut self,
        node: NodeId,
        relation: &str,
    ) -> Result<RelationHandle<'_>, CologneError> {
        self.instance_checked(node)?.relation(relation)
    }

    /// Schema-checked handle on one relation of a *single-node* deployment
    /// (errors on distributed deployments — name the node with
    /// [`Deployment::handle`] there).
    pub fn relation(&mut self, relation: &str) -> Result<RelationHandle<'_>, CologneError> {
        let node = self.single_node().ok_or_else(|| {
            CologneError::InvalidConfig(
                "relation() works on single-node deployments; use handle(node, name)".into(),
            )
        })?;
        self.handle(node, relation)
    }

    /// Run one node's regular rules to a fixpoint and ship any produced
    /// remote tuples into the network — the follow-up to a batch of handle
    /// writes.
    pub fn sync(&mut self, node: NodeId) {
        if let Some(inst) = self.instances.get_mut(&node) {
            let outgoing = inst.run_rules();
            self.ship(node, outgoing);
        }
    }

    /// Insert one validated fact at a node and immediately
    /// [`Deployment::sync`] it (run rules, ship remote tuples).
    pub fn insert(
        &mut self,
        node: NodeId,
        relation: &str,
        tuple: Tuple,
    ) -> Result<(), CologneError> {
        self.handle(node, relation)?.insert(tuple)?;
        self.sync(node);
        Ok(())
    }

    /// Execute one typed [`SolveRequest`], buffering any requested events
    /// into the returned [`SolveResponse`] — the single solve entry point,
    /// used identically in-process and by the `cologne-serve` wire protocol.
    ///
    /// All-nodes targets solve in ascending node order and ship solver
    /// outputs into the network afterwards (in node order); single-node
    /// targets keep their `outgoing` tuples in the report for the caller to
    /// route. Under deterministic limits (node budgets rather than
    /// wall-clock) the response is byte-identical across runs once
    /// normalized with [`SolveResponse::normalized`].
    pub fn solve(&mut self, request: &SolveRequest) -> Result<SolveResponse, CologneError> {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut sink = BufferSink {
            events: &mut events,
            capacity: request.events.map_or(0, |opts| opts.capacity),
            dropped: &mut dropped,
        };
        let reports = self.solve_streaming(request, &mut sink)?.reports;
        Ok(SolveResponse {
            reports,
            events,
            dropped_events: dropped,
        })
    }

    /// [`Deployment::solve`] with events pushed to `sink` as they happen
    /// instead of buffered (the response's `events` stays empty). The sink
    /// can return `false` to cancel the remaining search cooperatively —
    /// this is how the server cancels a solve whose client disconnected.
    /// Requests without event options run unobserved, exactly like
    /// [`Deployment::solve`].
    ///
    /// If a node fails, the first error in node order is returned and
    /// nothing is shipped; local materializations that already happened on
    /// other nodes are kept.
    pub fn solve_streaming(
        &mut self,
        request: &SolveRequest,
        sink: &mut dyn EventSink,
    ) -> Result<SolveResponse, CologneError> {
        request.validate()?;
        let target = request.target;
        if let SolveTarget::Node(node) = target {
            self.instance_checked(node)?;
        }
        let targeted = self
            .instances
            .iter_mut()
            .filter(|(node, _)| target == SolveTarget::All || target == SolveTarget::Node(**node));
        let results: Vec<(NodeId, Result<SolveReport, CologneError>)> = match request.events {
            // Observed searches run one after another in node order, so the
            // merged event stream is deterministic under deterministic
            // limits. The incumbent counter and cancel flag are shared:
            // `cancel_after_incumbents` counts globally and a cancellation
            // keeps cancelling later nodes.
            Some(opts) => {
                let (mut incumbents, mut cancelled) = (0, false);
                targeted
                    .map(|(&node, inst)| {
                        let mut observer = SinkObserver {
                            node,
                            sink: &mut *sink,
                            incumbents: &mut incumbents,
                            cancel_after: opts.cancel_after_incumbents,
                            cancelled: &mut cancelled,
                        };
                        (node, inst.invoke_solver_with_observer(&mut observer))
                    })
                    .collect()
            }
            // One scoped thread per node: the per-node COPs are independent,
            // and outputs still ship after every node finished, in node
            // order — the sequential schedule, so reports and tables are
            // bit-identical to it under deterministic limits.
            None if request.parallel => std::thread::scope(|scope| {
                let handles: Vec<_> = targeted
                    .map(|(&node, inst)| (node, scope.spawn(move || inst.invoke_solver())))
                    .collect();
                handles
                    .into_iter()
                    .map(|(node, handle)| {
                        (
                            node,
                            handle.join().expect("per-node solver thread panicked"),
                        )
                    })
                    .collect()
            }),
            None => targeted
                .map(|(&node, inst)| (node, inst.invoke_solver()))
                .collect(),
        };
        let mut reports = BTreeMap::new();
        for (node, result) in results {
            reports.insert(node, result?);
        }
        if target == SolveTarget::All {
            for (node, report) in reports.iter_mut() {
                let outgoing = std::mem::take(&mut report.outgoing);
                self.ship(*node, outgoing);
            }
        }
        Ok(SolveResponse {
            reports,
            events: Vec::new(),
            dropped_events: 0,
        })
    }

    /// Every counter of the deployment in one serializable value: per-node
    /// pipeline/engine/search statistics plus the network-wide delivery
    /// counters. This is the snapshot the `cologne-serve` stats frame ships
    /// per tenant.
    pub fn stats(&self) -> StatsSnapshot {
        let nodes = self
            .instances
            .iter()
            .map(|(&node, inst)| NodeStats {
                node,
                solver_invocations: inst.solver_invocations(),
                pipeline: inst.pipeline_stats(),
                engine: inst.engine_stats().clone(),
                search_total: inst.cumulative_solver_stats().clone(),
                last_search: inst.last_solver_stats().cloned(),
            })
            .collect();
        StatsSnapshot {
            nodes,
            delivery: self.delivery_stats(),
            rejected_remote_tuples: self.rejected_remote_tuples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::VarDomain;
    use cologne_datalog::Value;
    use cologne_net::{LinkProps, SimTime};
    use cologne_solver::{Branching, ValueChoice};

    const ACLOUD: &str = r#"
        goal minimize C in hostStdevCpu(C).
        var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
        r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
        d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
        d2 hostStdevCpu(STDEV<C>) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
        d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
        c1 assignCount(Vid,V) -> V==1.
    "#;

    const PING: &str = r#"
        r1 pong(@Y,X) <- ping(@X,Y).
    "#;

    #[test]
    fn single_node_deployment_solves() {
        let mut d = DeploymentBuilder::new(ACLOUD)
            .params(ProgramParams::new().with_var_domain("assign", VarDomain::BOOL))
            .build()
            .unwrap();
        let node = d.single_node().expect("one node");
        for (vid, cpu) in [(1, 40), (2, 20)] {
            d.relation("vm")
                .unwrap()
                .insert(vec![Value::Int(vid), Value::Int(cpu), Value::Int(1)])
                .unwrap();
        }
        for hid in [10, 11] {
            d.relation("host")
                .unwrap()
                .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)])
                .unwrap();
        }
        let response = d.solve(&SolveRequest::at(node)).unwrap();
        let report = response.single().unwrap();
        assert!(report.feasible);
        assert_eq!(report.table("assign").len(), 4);
        // handle() with the explicit node reaches the same relation
        assert_eq!(d.handle(node, "vm").unwrap().len(), 2);
        assert!(d.relation("bogus").is_err());
    }

    #[test]
    fn distributed_deployment_ships_messages() {
        let mut d = DeploymentBuilder::new(PING)
            .topology(Topology::line(2, LinkProps::default()))
            .build()
            .unwrap();
        assert_eq!(d.num_instances(), 2);
        assert!(d.single_node().is_none());
        assert!(d.relation("ping").is_err(), "multi-node needs handle()");
        d.insert(
            NodeId(0),
            "ping",
            vec![Value::Addr(NodeId(0)), Value::Addr(NodeId(1))],
        )
        .unwrap();
        let handled = d.run_messages_until(SimTime::from_secs(5));
        assert_eq!(handled, 1);
        assert!(d.instance(NodeId(1)).unwrap().contains(
            "pong",
            &vec![Value::Addr(NodeId(1)), Value::Addr(NodeId(0))]
        ));
    }

    #[test]
    fn per_node_params_override_base() {
        let base = ProgramParams::new()
            .with_var_domain("assign", VarDomain::BOOL)
            .with_solver_node_limit(Some(1234))
            .with_solver_max_time(None)
            .with_solver_branching(Branching::SmallestDomain)
            .with_solver_value_choice(ValueChoice::Max)
            .with_solver_split_threshold(None)
            .with_solver_workers(std::num::NonZeroUsize::new(2));
        let special = base
            .clone()
            .with_constant("tag", 7)
            .with_solver_node_limit(Some(99));
        let d = DeploymentBuilder::new(ACLOUD)
            .topology(Topology::line(3, LinkProps::default()))
            .params(base.clone())
            .node_params(NodeId(1), special.clone())
            .build()
            .unwrap();
        // nodes without an override run the base parameters — and the search
        // configuration derived from them — unchanged
        for node in [NodeId(0), NodeId(2)] {
            let inst = d.instance(node).unwrap();
            assert_eq!(inst.params(), &base);
            assert_eq!(inst.params().constant("tag"), None);
            let search = inst.search_config();
            assert_eq!(search.node_limit, Some(1234));
            assert_eq!(search.time_limit, None);
            assert_eq!(search.branching, Branching::SmallestDomain);
            assert_eq!(search.value_choice, ValueChoice::Max);
            assert_eq!(search.split_threshold, None);
            assert_eq!(search.workers, std::num::NonZeroUsize::new(2));
        }
        // the override replaces them on its node only
        let inst = d.instance(NodeId(1)).unwrap();
        assert_eq!(inst.params(), &special);
        assert_eq!(inst.params().constant("tag"), Some(7));
        assert_eq!(inst.search_config().node_limit, Some(99));
        assert_eq!(inst.search_config().value_choice, ValueChoice::Max);

        // validation happens at build: bad solver knobs in the base or in an
        // override, an empty topology, an override for an absent node, a
        // program that does not compile
        let invalid = |builder: DeploymentBuilder| {
            let err = builder.build().unwrap_err();
            assert!(matches!(err, CologneError::InvalidConfig(_)), "{err:?}");
        };
        let bad = ProgramParams::new().with_solver_split_threshold(Some(1));
        invalid(DeploymentBuilder::new(ACLOUD).params(bad.clone()));
        invalid(DeploymentBuilder::new(ACLOUD).node_params(NodeId(0), bad));
        invalid(DeploymentBuilder::new(ACLOUD).topology(Topology::new()));
        invalid(DeploymentBuilder::new(ACLOUD).node_params(NodeId(7), ProgramParams::new()));
        assert!(DeploymentBuilder::new("goal bogus").build().is_err());
    }
}
