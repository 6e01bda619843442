//! The unified deployment surface: [`DeploymentBuilder`] and [`Deployment`].
//!
//! One builder takes the program source, the base [`ProgramParams`] (every
//! solver knob included), a [`Topology`] (defaulting to
//! [`Topology::single`]) and optional per-node parameter overrides — and
//! produces a [`Deployment`] that owns the single-node and distributed cases
//! behind the same `tick`/`invoke`/`handle` API.
//!
//! Solves go through the typed [`SolveRequest`] → [`SolveResponse`] entry
//! point ([`Deployment::solve`] / [`Deployment::solve_streaming`]), the same
//! request shape the `cologne-serve` wire protocol carries. Every
//! simulation-surface method a deployment needs is an explicit named
//! forwarder (`run_until`, `ship`, `delivery_stats`, ...), and anything more
//! exotic goes through [`Deployment::network`] /
//! [`Deployment::network_mut`] so the dependency is visible at the call
//! site. (The historical `Deref<Target = DistributedCologne>` escape hatch
//! and the `invoke_*_with_observer` spellings have been removed; see the
//! README migration table.)

use std::collections::BTreeMap;

use cologne_datalog::{NodeId, Tuple};
use cologne_net::{NodeTraffic, SimTime, Topology};

use crate::distributed::{CrashEvent, DeliveryStats, DistributedCologne, TimerOutcome};
use crate::error::CologneError;
use crate::handle::RelationHandle;
use crate::instance::{CologneInstance, SolveReport};
use crate::params::ProgramParams;
use crate::solve_api::{
    BufferSink, EventOptions, EventSink, SinkObserver, SolveRequest, SolveResponse, SolveTarget,
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
    /// at-least-once delivery layer, as
    /// [`DistributedCologne::set_fault_plan`] does.
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
        let mut instances = Vec::with_capacity(topology.num_nodes());
        for n in topology.nodes() {
            let node = NodeId(n);
            let params = self
                .node_params
                .get(&node)
                .cloned()
                .unwrap_or_else(|| self.params.clone());
            instances.push(CologneInstance::new(node, &self.source, params)?);
        }
        let mut inner = DistributedCologne::assemble(topology, instances);
        if let Some(plan) = self.faults {
            inner.set_fault_plan(plan);
        }
        Ok(Deployment { inner })
    }
}

/// A built Cologne system: one instance per topology node over the simulated
/// network, with the single-node case being a one-node topology.
///
/// The full simulation surface is exposed through named forwarders
/// ([`Deployment::run_until`], [`Deployment::ship`],
/// [`Deployment::delivery_stats`], ...) and, for anything not forwarded,
/// through [`Deployment::network`] / [`Deployment::network_mut`].
pub struct Deployment {
    inner: DistributedCologne,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("nodes", &self.inner.nodes())
            .finish_non_exhaustive()
    }
}

impl Deployment {
    /// Start a [`DeploymentBuilder`] for a program.
    pub fn builder(source: &str) -> DeploymentBuilder {
        DeploymentBuilder::new(source)
    }

    /// The sole node of a single-node deployment, or `None` when the
    /// deployment is distributed.
    pub fn single_node(&self) -> Option<NodeId> {
        let nodes = self.inner.nodes();
        match nodes.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// The instance on `node`, or an error naming the missing node.
    fn instance_checked(&mut self, node: NodeId) -> Result<&mut CologneInstance, CologneError> {
        self.inner.instance_mut(node).ok_or_else(|| {
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
        if let Some(inst) = self.inner.instance_mut(node) {
            let outgoing = inst.run_rules();
            self.inner.ship(node, outgoing);
        }
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
        request.validate()?;
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let reports = match request.events {
            None => self.solve_plain(request)?,
            Some(opts) => {
                let mut sink = BufferSink {
                    events: &mut events,
                    capacity: opts.capacity,
                    dropped: &mut dropped,
                };
                self.solve_observed(request, opts, &mut sink)?
            }
        };
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
    pub fn solve_streaming(
        &mut self,
        request: &SolveRequest,
        sink: &mut dyn EventSink,
    ) -> Result<SolveResponse, CologneError> {
        request.validate()?;
        let reports = match request.events {
            None => self.solve_plain(request)?,
            Some(opts) => self.solve_observed(request, opts, sink)?,
        };
        Ok(SolveResponse {
            reports,
            events: Vec::new(),
            dropped_events: 0,
        })
    }

    /// The unobserved dispatch: plain sequential, parallel, or single-node.
    fn solve_plain(
        &mut self,
        request: &SolveRequest,
    ) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        match request.target {
            SolveTarget::All if request.parallel => self.inner.invoke_solvers_parallel(),
            SolveTarget::All => self.inner.invoke_solvers(),
            SolveTarget::Node(node) => {
                let report = self.instance_checked(node)?.invoke_solver()?;
                Ok(BTreeMap::from([(node, report)]))
            }
        }
    }

    /// The observed dispatch: thread a per-node [`SinkObserver`] through
    /// every targeted search, sharing the incumbent counter and cancel flag
    /// so `cancel_after_incumbents` counts globally and a cancellation keeps
    /// cancelling later nodes — then finish exactly like the unobserved
    /// paths (first error in node order aborts shipping, otherwise outgoing
    /// tuples ship in ascending node order).
    fn solve_observed(
        &mut self,
        request: &SolveRequest,
        opts: EventOptions,
        sink: &mut dyn EventSink,
    ) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        let mut incumbents = 0u64;
        let mut cancelled = false;
        match request.target {
            SolveTarget::Node(node) => {
                let mut observer = SinkObserver {
                    node,
                    sink,
                    incumbents: &mut incumbents,
                    cancel_after: opts.cancel_after_incumbents,
                    cancelled: &mut cancelled,
                };
                let report = self
                    .instance_checked(node)?
                    .invoke_solver_with_observer(&mut observer)?;
                Ok(BTreeMap::from([(node, report)]))
            }
            SolveTarget::All => {
                let mut results = Vec::with_capacity(self.inner.num_instances());
                for node in self.inner.nodes() {
                    let mut observer = SinkObserver {
                        node,
                        sink,
                        incumbents: &mut incumbents,
                        cancel_after: opts.cancel_after_incumbents,
                        cancelled: &mut cancelled,
                    };
                    let inst = self
                        .inner
                        .instance_mut(node)
                        .expect("nodes() lists only existing instances");
                    results.push((node, inst.invoke_solver_with_observer(&mut observer)));
                }
                let mut reports = BTreeMap::new();
                for (node, result) in results {
                    reports.insert(node, result?);
                }
                for (node, report) in reports.iter_mut() {
                    let outgoing = std::mem::take(&mut report.outgoing);
                    self.inner.ship(*node, outgoing);
                }
                Ok(reports)
            }
        }
    }

    /// Every counter of the deployment in one serializable value: per-node
    /// pipeline/engine/search statistics plus the network-wide delivery
    /// counters. This is the snapshot the `cologne-serve` stats frame ships
    /// per tenant.
    pub fn stats(&self) -> StatsSnapshot {
        let mut nodes = Vec::with_capacity(self.inner.num_instances());
        for node in self.inner.nodes() {
            let inst = self
                .inner
                .instance(node)
                .expect("nodes() lists only existing instances");
            nodes.push(NodeStats {
                node,
                solver_invocations: inst.solver_invocations(),
                pipeline: inst.pipeline_stats(),
                engine: inst.engine_stats().clone(),
                search_total: inst.cumulative_solver_stats().clone(),
                last_search: inst.last_solver_stats().cloned(),
            });
        }
        StatsSnapshot {
            nodes,
            delivery: self.inner.delivery_stats(),
            rejected_remote_tuples: self.inner.rejected_remote_tuples(),
        }
    }

    /// Invoke every node's solver in ascending node order and ship the
    /// outputs — shorthand for [`Deployment::solve`] with
    /// [`SolveRequest::all`].
    pub fn invoke(&mut self) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        self.inner.invoke_solvers()
    }

    /// [`Deployment::invoke`] with the per-node solves running concurrently
    /// — shorthand for [`SolveRequest::all`]`.parallel()`.
    pub fn invoke_parallel(&mut self) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        self.inner.invoke_solvers_parallel()
    }

    /// Invoke the solver of one node without shipping its outputs (the
    /// per-node equivalent of [`CologneInstance::invoke_solver`]; the
    /// returned report keeps its `outgoing` tuples for the caller to route)
    /// — shorthand for [`Deployment::solve`] with [`SolveRequest::at`].
    pub fn invoke_at(&mut self, node: NodeId) -> Result<SolveReport, CologneError> {
        self.instance_checked(node)?.invoke_solver()
    }

    /// Advance the simulated network until `limit`, delivering messages
    /// (alias of [`DistributedCologne::run_messages_until`]).
    pub fn tick(&mut self, limit: SimTime) -> u64 {
        self.inner.run_messages_until(limit)
    }

    /// Convenience: insert one validated fact at a node and immediately
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

    // ----- named simulation-surface forwarders ------------------------------
    //
    // Explicit inherent forwarders onto the simulated network, so the
    // dependency is visible at every call site. Anything not forwarded here
    // is reachable through `network()` / `network_mut()`.

    /// The underlying simulated network and instance map.
    pub fn network(&self) -> &DistributedCologne {
        &self.inner
    }

    /// Mutable access to the underlying simulated network.
    pub fn network_mut(&mut self) -> &mut DistributedCologne {
        &mut self.inner
    }

    /// Number of instances (one per topology node).
    pub fn num_instances(&self) -> usize {
        self.inner.num_instances()
    }

    /// The instance on `node`, if any.
    pub fn instance(&self, node: NodeId) -> Option<&CologneInstance> {
        self.inner.instance(node)
    }

    /// Mutable access to the instance on `node`, if any.
    pub fn instance_mut(&mut self, node: NodeId) -> Option<&mut CologneInstance> {
        self.inner.instance_mut(node)
    }

    /// Every node, in ascending order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// Per-node traffic accounting.
    pub fn traffic(&self, node: NodeId) -> NodeTraffic {
        self.inner.traffic(node)
    }

    /// Mean per-node communication overhead (Fig. 5's metric).
    pub fn per_node_overhead_kbps(&self) -> f64 {
        self.inner.per_node_overhead_kbps()
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    /// Remote tuples rejected at reception by the destination's schema check.
    pub fn rejected_remote_tuples(&self) -> u64 {
        self.inner.rejected_remote_tuples()
    }

    /// Switch shipping to the at-least-once delivery layer.
    pub fn enable_reliable_delivery(&mut self) {
        self.inner.enable_reliable_delivery()
    }

    /// Install a seeded fault plan (also enables reliable delivery).
    pub fn set_fault_plan(&mut self, plan: cologne_net::FaultPlan) {
        self.inner.set_fault_plan(plan)
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&cologne_net::FaultPlan> {
        self.inner.fault_plan()
    }

    /// Counters of the reliable-delivery layer.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.inner.delivery_stats()
    }

    /// Packets currently awaiting acknowledgement.
    pub fn reliable_in_flight(&self) -> u64 {
        self.inner.reliable_in_flight()
    }

    /// True while `node` is crashed under the fault plan.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.inner.is_down(node)
    }

    /// Drain the crash/rejoin event log.
    pub fn take_crash_log(&mut self) -> Vec<CrashEvent> {
        self.inner.take_crash_log()
    }

    /// Run the network until `deadline` or quiescence; true on quiescence.
    pub fn settle(&mut self, deadline: SimTime) -> bool {
        self.inner.settle(deadline)
    }

    /// Wait for a crashed node to rejoin and resync, up to `deadline`.
    pub fn await_node(&mut self, node: NodeId, deadline: SimTime) -> bool {
        self.inner.await_node(node, deadline)
    }

    /// Schedule an application timer on `node`.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimTime, tag: u64) {
        self.inner.schedule_timer(node, delay, tag)
    }

    /// Ship located tuples from `from` into the network.
    pub fn ship(&mut self, from: NodeId, tuples: Vec<cologne_datalog::RemoteTuple>) {
        self.inner.ship(from, tuples)
    }

    /// Run the event loop until `limit`, delivering messages and invoking
    /// `on_timer` for timer events; returns the number of events processed.
    pub fn run_until<F>(&mut self, limit: SimTime, on_timer: F) -> u64
    where
        F: FnMut(&mut CologneInstance, u64) -> TimerOutcome,
    {
        self.inner.run_until(limit, on_timer)
    }

    /// Run the event loop until `limit`, delivering messages only.
    pub fn run_messages_until(&mut self, limit: SimTime) -> u64 {
        self.inner.run_messages_until(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::VarDomain;
    use cologne_datalog::Value;
    use cologne_net::LinkProps;
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
        let report = d.invoke_at(node).unwrap();
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
        let handled = d.tick(SimTime::from_secs(5));
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
