//! Distributed deployment of Cologne instances over the simulated network.
//!
//! In the paper's distributed mode (Fig. 1), one Cologne instance runs per
//! node and instances exchange system state and optimization output through
//! the declarative networking engine over ns-3. [`DistributedCologne`] wires
//! one [`CologneInstance`] per topology node to the discrete-event simulator
//! of `cologne-net`: located rule heads and solver outputs addressed to other
//! nodes become simulated messages with latency, bandwidth and per-node
//! traffic accounting (the substrate for Fig. 4 and Fig. 5).
//!
//! # Delivery guarantees
//!
//! By default tuples ride the simulated network bare, exactly once and in
//! order — the network is perfect, so nothing more is needed and every
//! pre-existing run stays byte-identical. Installing a fault plan
//! ([`DistributedCologne::set_fault_plan`]) makes the network hostile
//! (loss, duplication, reorder, partitions, crashes — see `cologne_net::fault`)
//! and switches shipping to an **at-least-once delivery layer**:
//!
//! * every tuple becomes a sequenced data packet on its directed channel
//!   `(from, to)`;
//! * the receiver acks every packet of the current channel epoch (including
//!   duplicates — an ack can be lost too), delivers in sequence order,
//!   buffers out-of-order arrivals and drops duplicates;
//! * the sender keeps unacked packets and retransmits them on a per-node
//!   timer with capped exponential backoff until acked.
//!
//! # Crash and rejoin
//!
//! A crash ([`cologne_net::Event::NodeDown`], scheduled by the fault plan)
//! drops the node's in-flight state: its delivery channels disappear and the
//! instance forgets everything it had ingested from peers plus all solver
//! caches ([`CologneInstance::crash_reset`]) — only its local base facts
//! survive, as a process restart reading local configuration would. On
//! rejoin the channel epochs touching the node are bumped (stale packets and
//! acks from before the crash are discarded by epoch, not misinterpreted)
//! and the node is **re-synced from its neighbors**: every peer re-ships its
//! current assertion set for the rejoined node — and the rejoined node
//! re-ships its own last assertions — as fresh inserts through the existing
//! schema-validated ingest path. Re-deliveries are set-semantics no-ops, so
//! the resync is idempotent and converges to the pre-crash fixpoint once the
//! node has re-derived its rules.
//!
//! # Determinism contract
//!
//! All retransmit timers, sequence numbers and epochs are functions of the
//! (deterministic) event schedule, and all fault draws come from seeded
//! per-link streams, so a seeded hostile run is byte-identical across
//! reruns: same [`NodeTraffic`], same [`DeliveryStats`], same tables.

use std::collections::{BTreeMap, BTreeSet};

use cologne_datalog::{NodeId, RemoteTuple, Tuple};
use cologne_net::{Event, FaultPlan, NodeTraffic, SimTime, Simulator, Topology};

use crate::error::CologneError;
use crate::instance::{CologneInstance, SolveReport};

/// Timer tag reserved for the delivery layer's retransmit timers. User
/// timers must use tags below this value.
pub const RETX_TIMER_TAG: u64 = u64::MAX;

/// Wire overhead of a data packet (epoch + sequence number) in bytes.
const DATA_HEADER_BYTES: usize = 12;
/// Wire size of an ack packet in bytes.
const ACK_BYTES: usize = 16;
/// Initial retransmit timeout in microseconds (an order of magnitude above
/// the default link RTT).
const RTO_BASE_US: u64 = 25_000;
/// Retransmit backoff cap in microseconds.
const RTO_MAX_US: u64 = 400_000;

/// What a timer handler asks the driver to do next.
#[derive(Debug, Default)]
pub struct TimerOutcome {
    /// Tuples to ship to other nodes (in addition to whatever the instance's
    /// own rule evaluation produced).
    pub outgoing: Vec<RemoteTuple>,
    /// Re-arm the timer after this delay with the given tag.
    pub reschedule: Option<(SimTime, u64)>,
}

/// Counters of the at-least-once delivery layer, all zero until
/// [`DistributedCologne::enable_reliable_delivery`] (or a fault plan)
/// switches it on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Sequenced data packets shipped (first transmissions only).
    pub data_packets_sent: u64,
    /// Retransmissions of unacked packets.
    pub retransmits: u64,
    /// Acks sent by receivers.
    pub acks_sent: u64,
    /// Received packets dropped as already-delivered duplicates.
    pub duplicates_dropped: u64,
    /// Received packets dropped because they carried a pre-crash epoch.
    pub stale_epoch_dropped: u64,
    /// Received packets buffered because they arrived ahead of sequence.
    pub out_of_order_buffered: u64,
    /// Node crashes processed.
    pub crashes: u64,
    /// Node rejoins processed.
    pub rejoins: u64,
    /// Tuples re-shipped to (and by) rejoining nodes during resync.
    pub resync_tuples: u64,
}

/// One entry of [`DistributedCologne::take_crash_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that crashed or rejoined.
    pub node: NodeId,
    /// Simulated time of the event.
    pub at: SimTime,
    /// False for the crash, true for the rejoin.
    pub up: bool,
}

/// What actually travels over the simulated network.
#[derive(Debug, Clone, PartialEq)]
enum Wire {
    /// A bare tuple (reliable delivery off — the default, byte-identical to
    /// the pre-fault-model runtime).
    Raw(RemoteTuple),
    /// A sequenced tuple on a channel epoch.
    Data {
        epoch: u64,
        seq: u64,
        tuple: RemoteTuple,
    },
    /// Acknowledgement of one data packet.
    Ack { epoch: u64, seq: u64 },
}

#[derive(Debug)]
struct PendingPacket {
    tuple: RemoteTuple,
    attempts: u32,
    next_retx: SimTime,
}

#[derive(Debug)]
struct SendChannel {
    epoch: u64,
    next_seq: u64,
    unacked: BTreeMap<u64, PendingPacket>,
}

#[derive(Debug)]
struct RecvChannel {
    epoch: u64,
    next_expected: u64,
    buffer: BTreeMap<u64, RemoteTuple>,
}

#[derive(Debug)]
struct ReliableDelivery {
    rto_base: u64,
    rto_max: u64,
    /// Sender state per directed channel `(from, to)`.
    send: BTreeMap<(NodeId, NodeId), SendChannel>,
    /// Receiver state per directed channel `(from, to)`.
    recv: BTreeMap<(NodeId, NodeId), RecvChannel>,
    /// Nodes with a retransmit timer currently pending.
    retx_armed: BTreeSet<NodeId>,
    /// Bumped on every rejoin; channel epochs are sums of endpoint
    /// incarnations, so post-rejoin channels outrank pre-crash traffic.
    incarnation: BTreeMap<NodeId, u64>,
    /// Current assertion set per channel: every tuple shipped and not since
    /// retracted. This is what a rejoining node is re-synced from.
    outstanding: BTreeMap<(NodeId, NodeId), BTreeMap<String, BTreeSet<Tuple>>>,
    stats: DeliveryStats,
}

impl ReliableDelivery {
    fn new() -> Self {
        ReliableDelivery {
            rto_base: RTO_BASE_US,
            rto_max: RTO_MAX_US,
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            retx_armed: BTreeSet::new(),
            incarnation: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            stats: DeliveryStats::default(),
        }
    }

    fn epoch_of(&self, a: NodeId, b: NodeId) -> u64 {
        self.incarnation.get(&a).copied().unwrap_or(0)
            + self.incarnation.get(&b).copied().unwrap_or(0)
    }
}

/// A set of Cologne instances connected by a simulated network.
pub struct DistributedCologne {
    instances: BTreeMap<NodeId, CologneInstance>,
    sim: Simulator<Wire>,
    rejected_remote_tuples: u64,
    reliable: Option<ReliableDelivery>,
    crash_log: Vec<CrashEvent>,
}

impl DistributedCologne {
    /// Wire explicitly constructed instances to a simulator (the shared tail
    /// of the [`crate::DeploymentBuilder`] and the legacy constructors).
    pub(crate) fn assemble(topology: Topology, instances: Vec<CologneInstance>) -> Self {
        let map = instances.into_iter().map(|i| (i.node(), i)).collect();
        DistributedCologne {
            instances: map,
            sim: Simulator::new(topology),
            rejected_remote_tuples: 0,
            reliable: None,
            crash_log: Vec::new(),
        }
    }

    /// Number of nodes with an instance.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Immutable access to one instance.
    pub fn instance(&self, node: NodeId) -> Option<&CologneInstance> {
        self.instances.get(&node)
    }

    /// Mutable access to one instance.
    pub fn instance_mut(&mut self, node: NodeId) -> Option<&mut CologneInstance> {
        self.instances.get_mut(&node)
    }

    /// All node ids with instances.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.instances.keys().copied().collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Per-node traffic counters (Fig. 5 raw data).
    pub fn traffic(&self, node: NodeId) -> NodeTraffic {
        self.sim.traffic(node.0)
    }

    /// Average per-node communication overhead in KB/s so far.
    pub fn per_node_overhead_kbps(&self) -> f64 {
        self.sim.per_node_overhead_kbps()
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Number of received remote tuples rejected by schema validation (an
    /// unknown relation or a malformed tuple shipped by a peer). Rejected
    /// tuples are dropped instead of corrupting instance state.
    pub fn rejected_remote_tuples(&self) -> u64 {
        self.rejected_remote_tuples
    }

    // ----- fault model & reliable delivery -----------------------------------

    /// Switch shipping to the at-least-once delivery layer (sequence
    /// numbers, acks, retransmits, dedup). Implied by
    /// [`DistributedCologne::set_fault_plan`]; can also be enabled alone to
    /// measure the protocol overhead on a perfect network.
    pub fn enable_reliable_delivery(&mut self) {
        if self.reliable.is_none() {
            self.reliable = Some(ReliableDelivery::new());
        }
    }

    /// Install a fault plan on the simulated network and enable reliable
    /// delivery to survive it. The quiet default plan injects nothing but
    /// still exercises the full ack/retransmit machinery, so quiet and
    /// hostile runs of the same workload are directly comparable.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.enable_reliable_delivery();
        self.sim.set_fault_plan(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.sim.fault_plan()
    }

    /// Counters of the delivery layer (all zero while it is disabled).
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.reliable.as_ref().map(|r| r.stats).unwrap_or_default()
    }

    /// Number of data packets shipped and not yet acked. Zero means every
    /// shipped tuple has been delivered and acknowledged — the network is
    /// quiescent (out-of-order buffers are provably empty too: a buffered
    /// packet was acked, so a sequence gap implies an unacked packet).
    pub fn reliable_in_flight(&self) -> u64 {
        self.reliable
            .as_ref()
            .map(|r| r.send.values().map(|ch| ch.unacked.len() as u64).sum())
            .unwrap_or(0)
    }

    /// True while `node` is crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.sim.is_down(node.0)
    }

    /// Drain the log of crash/rejoin events processed so far.
    pub fn take_crash_log(&mut self) -> Vec<CrashEvent> {
        std::mem::take(&mut self.crash_log)
    }

    /// Run the event loop (messages, retransmits, crash events) until the
    /// network is quiescent — no data packet unacked — or `deadline` is
    /// reached. Returns true when quiescence was reached. With reliable
    /// delivery disabled this is just [`DistributedCologne::run_messages_until`]
    /// (a perfect network is quiescent once its queue drains).
    ///
    /// Unacked packets always have a retransmit timer pending, so this
    /// cannot deadlock: either the acks arrive or the clock reaches
    /// `deadline`. A node that stays crashed past `deadline` keeps its
    /// inbound packets unacked — pick deadlines beyond the rejoin when
    /// settling across a crash window.
    pub fn settle(&mut self, deadline: SimTime) -> bool {
        self.run_messages_until(deadline);
        self.reliable_in_flight() == 0
    }

    /// Process events until `node` is up again (or `deadline` passes);
    /// returns true when the node is up. Messages and retransmits keep
    /// flowing while waiting.
    pub fn await_node(&mut self, node: NodeId, deadline: SimTime) -> bool {
        while self.is_down(node) {
            let Some((_, event)) = self.sim.next_event_until(deadline) else {
                break;
            };
            self.dispatch(event, &mut |_, _| TimerOutcome::default());
        }
        !self.is_down(node)
    }

    /// Schedule a timer at a node. Tags must stay below [`RETX_TIMER_TAG`],
    /// which is reserved for the delivery layer.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimTime, tag: u64) {
        debug_assert!(tag < RETX_TIMER_TAG, "timer tag reserved for retransmits");
        self.sim.schedule_timer(node.0, delay, tag);
    }

    /// Ship remote tuples originating at `from` into the simulated network.
    pub fn ship(&mut self, from: NodeId, tuples: Vec<RemoteTuple>) {
        for t in tuples {
            self.ship_one(from, t);
        }
    }

    fn ship_one(&mut self, from: NodeId, t: RemoteTuple) {
        let Some(r) = self.reliable.as_mut() else {
            let size = t.wire_size();
            self.sim.send_message(from.0, t.dest.0, Wire::Raw(t), size);
            return;
        };
        // A crashed node produces nothing; drop instead of queueing
        // retransmit state that could never be serviced while down.
        if self.sim.is_down(from.0) {
            return;
        }
        let to = t.dest;
        let assertions = r
            .outstanding
            .entry((from, to))
            .or_default()
            .entry(t.relation.clone())
            .or_default();
        if t.insert {
            assertions.insert(t.tuple.clone());
        } else {
            assertions.remove(&t.tuple);
        }
        let epoch = r.epoch_of(from, to);
        let ch = r.send.entry((from, to)).or_insert_with(|| SendChannel {
            epoch,
            next_seq: 0,
            unacked: BTreeMap::new(),
        });
        let seq = ch.next_seq;
        ch.next_seq += 1;
        let next_retx = self.sim.now().plus_us(r.rto_base);
        ch.unacked.insert(
            seq,
            PendingPacket {
                tuple: t.clone(),
                attempts: 0,
                next_retx,
            },
        );
        r.stats.data_packets_sent += 1;
        let epoch = ch.epoch;
        let size = t.wire_size() + DATA_HEADER_BYTES;
        self.sim.send_message(
            from.0,
            to.0,
            Wire::Data {
                epoch,
                seq,
                tuple: t,
            },
            size,
        );
        if r.retx_armed.insert(from) {
            self.sim
                .schedule_timer(from.0, SimTime(r.rto_base), RETX_TIMER_TAG);
        }
    }

    // ----- per-node solver invocation ---------------------------------------

    /// Invoke every instance's solver, one node after another in ascending
    /// node order. Solver outputs addressed to other nodes are shipped into
    /// the simulated network (in node order, after all nodes finished) and
    /// drained from the returned reports.
    ///
    /// Returns the per-node [`SolveReport`]s, or the first error in node
    /// order. On error nothing is shipped; local materializations that
    /// already happened on other nodes are kept (identical to the parallel
    /// path).
    pub fn invoke_solvers(&mut self) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        let mut results = Vec::with_capacity(self.instances.len());
        for (node, inst) in self.instances.iter_mut() {
            results.push((*node, inst.invoke_solver()));
        }
        self.finish_invocations(results)
    }

    /// [`DistributedCologne::invoke_solvers`] with a streaming
    /// [`cologne_solver::SolveObserver`] threaded through every node's
    /// search. Nodes run sequentially in ascending node order, so under
    /// deterministic limits the merged event stream is deterministic too.
    /// An observer cancellation stops the node being solved (its instance
    /// forgets its incremental caches) and still cancels every later node's
    /// search as soon as it starts, since the observer keeps breaking.
    pub fn invoke_solvers_observed(
        &mut self,
        observer: &mut dyn cologne_solver::SolveObserver,
    ) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        let mut results = Vec::with_capacity(self.instances.len());
        for (node, inst) in self.instances.iter_mut() {
            results.push((*node, inst.invoke_solver_with_observer(observer)));
        }
        self.finish_invocations(results)
    }

    /// [`DistributedCologne::invoke_solvers`], but with the per-node
    /// grounding and solving running concurrently (one scoped thread per
    /// node). The per-node COPs of the paper's distributed executions are
    /// independent, so this is safe parallelism; the discrete-event network
    /// stays deterministic because solver outputs are shipped only after
    /// every node finished, in ascending node order — the same schedule as
    /// the sequential path. Reports (and therefore tables) are bit-identical
    /// to the sequential path as long as per-node search limits are
    /// deterministic (node/fail limits rather than wall-clock limits).
    pub fn invoke_solvers_parallel(
        &mut self,
    ) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        let mut results = Vec::with_capacity(self.instances.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .instances
                .iter_mut()
                .map(|(node, inst)| (*node, scope.spawn(move || inst.invoke_solver())))
                .collect();
            for (node, handle) in handles {
                results.push((
                    node,
                    handle.join().expect("per-node solver thread panicked"),
                ));
            }
        });
        self.finish_invocations(results)
    }

    /// Common tail of the sequential and parallel invocation paths: surface
    /// the first error in node order, otherwise drain every report's
    /// outgoing tuples into the network in node order.
    fn finish_invocations(
        &mut self,
        results: Vec<(NodeId, Result<SolveReport, CologneError>)>,
    ) -> Result<BTreeMap<NodeId, SolveReport>, CologneError> {
        let mut reports = BTreeMap::new();
        for (node, result) in results {
            reports.insert(node, result?);
        }
        for (node, report) in reports.iter_mut() {
            let outgoing = std::mem::take(&mut report.outgoing);
            self.ship(*node, outgoing);
        }
        Ok(reports)
    }

    // ----- event loop ---------------------------------------------------------

    /// Run the event loop until `limit`, delivering messages to instances and
    /// invoking `on_timer` for timer events. Returns the number of events
    /// processed. Events scheduled beyond `limit` stay queued for a later
    /// run — they are never consumed and dropped.
    pub fn run_until<F>(&mut self, limit: SimTime, mut on_timer: F) -> u64
    where
        F: FnMut(&mut CologneInstance, u64) -> TimerOutcome,
    {
        let mut handled = 0;
        while let Some((_, event)) = self.sim.next_event_until(limit) {
            self.dispatch(event, &mut on_timer);
            handled += 1;
        }
        handled
    }

    /// Convenience: run with no timer handling (messages only).
    pub fn run_messages_until(&mut self, limit: SimTime) -> u64 {
        self.run_until(limit, |_, _| TimerOutcome::default())
    }

    fn dispatch(
        &mut self,
        event: Event<Wire>,
        on_timer: &mut dyn FnMut(&mut CologneInstance, u64) -> TimerOutcome,
    ) {
        match event {
            Event::Message { src, dest, payload } => match payload {
                Wire::Raw(tuple) => self.deliver(NodeId(src), NodeId(dest), &tuple),
                Wire::Data { epoch, seq, tuple } => {
                    self.on_data(NodeId(src), NodeId(dest), epoch, seq, tuple)
                }
                Wire::Ack { epoch, seq } => {
                    // the ack travels receiver -> sender: `src` is the acker
                    self.on_ack(NodeId(src), NodeId(dest), epoch, seq)
                }
            },
            Event::Timer {
                node,
                tag: RETX_TIMER_TAG,
            } => self.on_retx(NodeId(node)),
            Event::Timer { node, tag } => {
                let node = NodeId(node);
                if let Some(inst) = self.instances.get_mut(&node) {
                    let outcome = on_timer(inst, tag);
                    self.ship(node, outcome.outgoing);
                    if let Some((delay, next_tag)) = outcome.reschedule {
                        self.sim.schedule_timer(node.0, delay, next_tag);
                    }
                }
            }
            Event::NodeDown { node } => self.on_crash(NodeId(node)),
            Event::NodeUp { node } => self.on_rejoin(NodeId(node)),
        }
    }

    /// Hand one tuple to the destination instance through the validated
    /// ingest path; malformed remote tuples are rejected (counted), not
    /// applied — a misbehaving peer cannot corrupt this node's tables.
    fn deliver(&mut self, from: NodeId, node: NodeId, remote: &RemoteTuple) {
        if let Some(inst) = self.instances.get_mut(&node) {
            if inst.try_receive(from, remote).is_err() {
                self.rejected_remote_tuples += 1;
            } else {
                let outgoing = inst.run_rules();
                self.ship(node, outgoing);
            }
        }
    }

    /// A data packet arrived at `to` from `from`.
    fn on_data(&mut self, from: NodeId, to: NodeId, epoch: u64, seq: u64, tuple: RemoteTuple) {
        let Some(r) = self.reliable.as_mut() else {
            // Data framing without the delivery layer (can't normally
            // happen): degrade to direct delivery.
            self.deliver(from, to, &tuple);
            return;
        };
        let expected_epoch = r.epoch_of(from, to);
        let ch = r.recv.entry((from, to)).or_insert_with(|| RecvChannel {
            epoch: expected_epoch,
            next_expected: 0,
            buffer: BTreeMap::new(),
        });
        if epoch < ch.epoch {
            // Pre-crash traffic; not acked, so the sender's (also reset)
            // channel never sees a stale ack either.
            r.stats.stale_epoch_dropped += 1;
            return;
        }
        if epoch > ch.epoch {
            ch.epoch = epoch;
            ch.next_expected = 0;
            ch.buffer.clear();
        }
        // Ack every packet of the current epoch, duplicates included — the
        // previous ack may have been lost.
        r.stats.acks_sent += 1;
        self.sim
            .send_message(to.0, from.0, Wire::Ack { epoch, seq }, ACK_BYTES);
        match seq.cmp(&ch.next_expected) {
            std::cmp::Ordering::Less => {
                r.stats.duplicates_dropped += 1;
            }
            std::cmp::Ordering::Greater => {
                if ch.buffer.insert(seq, tuple).is_none() {
                    r.stats.out_of_order_buffered += 1;
                } else {
                    r.stats.duplicates_dropped += 1;
                }
            }
            std::cmp::Ordering::Equal => {
                let mut ready = vec![tuple];
                ch.next_expected += 1;
                while let Some(t) = ch.buffer.remove(&ch.next_expected) {
                    ready.push(t);
                    ch.next_expected += 1;
                }
                for t in ready {
                    self.deliver(from, to, &t);
                }
            }
        }
    }

    /// `acker` acknowledged packet `seq` of the channel `sender -> acker`.
    fn on_ack(&mut self, acker: NodeId, sender: NodeId, epoch: u64, seq: u64) {
        let Some(r) = self.reliable.as_mut() else {
            return;
        };
        if let Some(ch) = r.send.get_mut(&(sender, acker)) {
            if ch.epoch == epoch {
                ch.unacked.remove(&seq);
            }
        }
    }

    /// The retransmit timer fired at `node`: resend every due unacked packet
    /// with capped exponential backoff, then re-arm for the earliest next
    /// due time while anything stays unacked.
    fn on_retx(&mut self, node: NodeId) {
        let Some(r) = self.reliable.as_mut() else {
            return;
        };
        let now = self.sim.now();
        let mut to_send = Vec::new();
        let mut next_due_us: Option<u64> = None;
        for ((_, to), ch) in r
            .send
            .range_mut((node, NodeId(u32::MIN))..=(node, NodeId(u32::MAX)))
        {
            for (seq, p) in ch.unacked.iter_mut() {
                if p.next_retx <= now {
                    p.attempts += 1;
                    let backoff = (r.rto_base << p.attempts.min(10)).min(r.rto_max);
                    p.next_retx = now.plus_us(backoff);
                    to_send.push((*to, ch.epoch, *seq, p.tuple.clone()));
                }
                let due = p.next_retx.0.saturating_sub(now.0).max(1);
                next_due_us = Some(next_due_us.map_or(due, |d| d.min(due)));
            }
        }
        r.stats.retransmits += to_send.len() as u64;
        if let Some(due) = next_due_us {
            self.sim
                .schedule_timer(node.0, SimTime(due), RETX_TIMER_TAG);
        } else {
            r.retx_armed.remove(&node);
        }
        for (to, epoch, seq, tuple) in to_send {
            let size = tuple.wire_size() + DATA_HEADER_BYTES;
            self.sim
                .send_message(node.0, to.0, Wire::Data { epoch, seq, tuple }, size);
        }
    }

    /// `node` crashed: its delivery state vanishes with it, and the instance
    /// drops everything it had ingested from peers (plus solver caches) —
    /// only local base facts survive the restart.
    fn on_crash(&mut self, node: NodeId) {
        let at = self.sim.now();
        if let Some(r) = self.reliable.as_mut() {
            r.stats.crashes += 1;
            r.send.retain(|(from, _), _| *from != node);
            r.recv.retain(|(_, to), _| *to != node);
            r.retx_armed.remove(&node);
        }
        if let Some(inst) = self.instances.get_mut(&node) {
            inst.crash_reset();
        }
        self.crash_log.push(CrashEvent {
            node,
            at,
            up: false,
        });
    }

    /// `node` rejoined: bump its incarnation (post-rejoin channels outrank
    /// every pre-crash packet and ack), reset all channels touching it, and
    /// re-sync state over the fresh channels — every peer re-ships its
    /// current assertion set for `node`, and `node` re-ships its own
    /// last-known assertions (repairing anything that was in flight when it
    /// died). All re-deliveries go through the schema-validated ingest path
    /// and are set-semantics no-ops where state already agrees.
    fn on_rejoin(&mut self, node: NodeId) {
        let at = self.sim.now();
        let mut resync: Vec<(NodeId, Vec<RemoteTuple>)> = Vec::new();
        if let Some(r) = self.reliable.as_mut() {
            r.stats.rejoins += 1;
            *r.incarnation.entry(node).or_default() += 1;
            r.send.retain(|(from, to), _| *from != node && *to != node);
            r.recv.retain(|(from, to), _| *from != node && *to != node);
            for ((from, to), rels) in r.outstanding.iter() {
                if *from != node && *to != node {
                    continue;
                }
                let tuples: Vec<RemoteTuple> = rels
                    .iter()
                    .flat_map(|(relation, rows)| {
                        rows.iter().map(|row| RemoteTuple {
                            dest: *to,
                            relation: relation.clone(),
                            tuple: row.clone(),
                            insert: true,
                        })
                    })
                    .collect();
                if !tuples.is_empty() {
                    resync.push((*from, tuples));
                }
            }
            r.stats.resync_tuples += resync.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
        }
        self.crash_log.push(CrashEvent { node, at, up: true });
        for (from, tuples) in resync {
            self.ship(from, tuples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{Deployment, DeploymentBuilder};
    use crate::params::ProgramParams;
    use cologne_datalog::Value;
    use cologne_net::{LinkFaults, LinkProps};

    /// A two-rule ping/pong program: every `ping` received at a node derives a
    /// `pong` back at the sender.
    const PING: &str = r#"
        r1 pong(@Y,X) <- ping(@X,Y).
    "#;

    fn two_node_driver() -> Deployment {
        DeploymentBuilder::new(PING)
            .topology(Topology::line(2, LinkProps::default()))
            .build()
            .unwrap()
    }

    fn ship_ping(d: &mut DistributedCologne, n: i64) {
        for i in 0..n {
            d.ship(
                NodeId(0),
                vec![RemoteTuple {
                    dest: NodeId(1),
                    relation: "ping".into(),
                    tuple: vec![Value::Addr(NodeId(0)), Value::Int(i)],
                    insert: true,
                }],
            );
        }
    }

    #[test]
    fn message_round_trip_between_instances() {
        let mut d = two_node_driver();
        assert_eq!(d.num_instances(), 2);
        // node 0 learns ping(@0, 1): rule head pong(@1, 0) must be shipped to node 1
        d.insert(
            NodeId(0),
            "ping",
            vec![Value::Addr(NodeId(0)), Value::Addr(NodeId(1))],
        )
        .unwrap();
        let handled = d.run_messages_until(SimTime::from_secs(5));
        assert_eq!(handled, 1);
        let inst1 = d.instance(NodeId(1)).unwrap();
        assert!(inst1.contains(
            "pong",
            &vec![Value::Addr(NodeId(1)), Value::Addr(NodeId(0))]
        ));
        // traffic was accounted on both ends
        assert!(d.traffic(NodeId(0)).bytes_sent > 0);
        assert!(d.traffic(NodeId(1)).bytes_received > 0);
        assert!(d.per_node_overhead_kbps() > 0.0);
        assert_eq!(d.rejected_remote_tuples(), 0);
        // the delivery layer is off by default
        assert_eq!(d.delivery_stats(), DeliveryStats::default());
    }

    #[test]
    fn malformed_remote_tuples_are_rejected_on_delivery() {
        let mut d = two_node_driver();
        // a peer ships a tuple with the wrong arity for `ping`
        d.ship(
            NodeId(0),
            vec![RemoteTuple {
                dest: NodeId(1),
                relation: "ping".into(),
                tuple: vec![Value::Addr(NodeId(1))],
                insert: true,
            }],
        );
        d.run_messages_until(SimTime::from_secs(5));
        assert_eq!(d.rejected_remote_tuples(), 1);
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 0);
    }

    #[test]
    fn timers_fire_and_reschedule() {
        let mut d = two_node_driver();
        d.schedule_timer(NodeId(0), SimTime::from_secs(1), 7);
        let mut fired = Vec::new();
        d.run_until(SimTime::from_secs(10), |inst, tag| {
            fired.push((inst.node(), tag));
            if tag < 9 {
                TimerOutcome {
                    outgoing: Vec::new(),
                    reschedule: Some((SimTime::from_secs(1), tag + 1)),
                }
            } else {
                TimerOutcome::default()
            }
        });
        assert_eq!(fired, vec![(NodeId(0), 7), (NodeId(0), 8), (NodeId(0), 9)]);
        assert_eq!(d.now(), SimTime::from_secs(3));
    }

    #[test]
    fn timer_outcome_can_ship_tuples() {
        let mut d = two_node_driver();
        d.schedule_timer(NodeId(0), SimTime::from_millis(10), 0);
        d.run_until(SimTime::from_secs(5), |inst, _| TimerOutcome {
            outgoing: vec![RemoteTuple {
                dest: NodeId(1),
                relation: "ping".into(),
                tuple: vec![Value::Addr(NodeId(1)), Value::Addr(inst.node())],
                insert: true,
            }],
            reschedule: None,
        });
        // node 1 received ping(@1, 0) and derived pong(@0, 1), shipped back to node 0
        let inst0 = d.instance(NodeId(0)).unwrap();
        assert!(inst0.contains(
            "pong",
            &vec![Value::Addr(NodeId(0)), Value::Addr(NodeId(1))]
        ));
    }

    #[test]
    fn sparse_deployments_drop_messages_to_missing_nodes() {
        // Topology nodes without an instance are allowed; messages addressed
        // to them are dropped without panicking.
        let topo = Topology::line(3, LinkProps::default());
        let instances = vec![
            CologneInstance::new(NodeId(0), PING, ProgramParams::new()).unwrap(),
            CologneInstance::new(NodeId(2), PING, ProgramParams::new()).unwrap(),
        ];
        let mut d = DistributedCologne::assemble(topo, instances);
        assert_eq!(d.nodes(), vec![NodeId(0), NodeId(2)]);
        assert!(d.instance(NodeId(1)).is_none());
        assert!(d.instance_mut(NodeId(2)).is_some());
        assert_eq!(d.topology().num_nodes(), 3);
        d.ship(
            NodeId(0),
            vec![RemoteTuple {
                dest: NodeId(1),
                relation: "ping".into(),
                tuple: vec![Value::Addr(NodeId(1)), Value::Addr(NodeId(0))],
                insert: true,
            }],
        );
        d.run_messages_until(SimTime::from_secs(1));
        assert_eq!(d.rejected_remote_tuples(), 0);
    }

    #[test]
    fn reliable_delivery_survives_heavy_loss() {
        let mut d = two_node_driver();
        d.set_fault_plan(FaultPlan::seeded(3).link_faults(LinkFaults {
            loss: 0.5,
            ..Default::default()
        }));
        ship_ping(d.network_mut(), 20);
        assert!(d.settle(SimTime::from_secs(60)), "must reach quiescence");
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 20);
        let stats = d.delivery_stats();
        assert_eq!(stats.data_packets_sent, 20);
        assert!(stats.retransmits > 0, "50% loss must force retransmits");
        assert!(d.traffic(NodeId(0)).messages_dropped > 0);
    }

    #[test]
    fn duplicates_are_deduplicated_at_the_receiver() {
        let mut d = two_node_driver();
        d.set_fault_plan(FaultPlan::seeded(4).link_faults(LinkFaults {
            duplicate: 1.0,
            ..Default::default()
        }));
        ship_ping(d.network_mut(), 10);
        assert!(d.settle(SimTime::from_secs(60)));
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 10);
        let stats = d.delivery_stats();
        assert!(stats.duplicates_dropped > 0);
        assert!(d.traffic(NodeId(0)).messages_duplicated > 0);
    }

    #[test]
    fn jitter_reorder_is_masked_by_in_order_delivery() {
        let mut d = two_node_driver();
        d.set_fault_plan(FaultPlan::seeded(7).link_faults(LinkFaults {
            jitter_us: 200_000,
            ..Default::default()
        }));
        ship_ping(d.network_mut(), 30);
        assert!(d.settle(SimTime::from_secs(60)));
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 30);
        assert!(
            d.delivery_stats().out_of_order_buffered > 0,
            "heavy jitter must reorder some packets"
        );
    }

    #[test]
    fn partition_heals_and_traffic_completes() {
        let mut d = two_node_driver();
        d.set_fault_plan(FaultPlan::seeded(8).partition(
            vec![0],
            SimTime::ZERO,
            SimTime::from_secs(2),
        ));
        ship_ping(d.network_mut(), 5);
        // cannot settle inside the partition window
        assert!(!d.settle(SimTime::from_secs(1)));
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 0);
        // after it heals, retransmits get everything through
        assert!(d.settle(SimTime::from_secs(30)));
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 5);
    }

    #[test]
    fn crash_drops_remote_state_and_rejoin_resyncs_it() {
        let mut d = two_node_driver();
        d.set_fault_plan(FaultPlan::seeded(9).crash(
            1,
            SimTime::from_secs(5),
            SimTime::from_secs(10),
        ));
        ship_ping(d.network_mut(), 4);
        assert!(d.settle(SimTime::from_secs(3)));
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 4);

        // cross the crash: ingested remote state is wiped while down
        d.run_messages_until(SimTime::from_secs(6));
        assert!(d.is_down(NodeId(1)));
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 0);

        // rejoin: neighbors re-ship their assertion sets
        assert!(d.await_node(NodeId(1), SimTime::from_secs(20)));
        assert!(d.settle(SimTime::from_secs(30)));
        assert_eq!(d.instance(NodeId(1)).unwrap().scan("ping").count(), 4);
        let stats = d.delivery_stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.rejoins, 1);
        assert!(stats.resync_tuples >= 4);
        let log = d.take_crash_log();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].node, log[0].up), (NodeId(1), false));
        assert_eq!((log[1].node, log[1].up), (NodeId(1), true));
        assert!(d.take_crash_log().is_empty());
    }

    /// Redelivering an assertion a peer already shipped (duplicate packet,
    /// rejoin resync) must be a set-semantics no-op: the engine counts
    /// multiplicities, so a naive re-insert would leave the row visible
    /// after its one legitimate retraction. A row asserted by two distinct
    /// peers, on the other hand, survives one peer's retraction.
    #[test]
    fn redelivered_assertions_are_idempotent_per_sender() {
        let mut d = DeploymentBuilder::new(PING)
            .topology(Topology::full_mesh(3, LinkProps::default()))
            .build()
            .unwrap();
        let row = vec![Value::Addr(NodeId(0)), Value::Int(7)];
        let remote = |insert| RemoteTuple {
            dest: NodeId(2),
            relation: "ping".into(),
            tuple: row.clone(),
            insert,
        };
        // the same sender asserts the same row twice, then retracts once
        d.ship(NodeId(0), vec![remote(true), remote(true)]);
        assert!(d.settle(SimTime::from_secs(5)));
        assert_eq!(d.instance(NodeId(2)).unwrap().scan("ping").count(), 1);
        d.ship(NodeId(0), vec![remote(false)]);
        assert!(d.settle(SimTime::from_secs(10)));
        assert_eq!(
            d.instance(NodeId(2)).unwrap().scan("ping").count(),
            0,
            "one retraction must erase a redelivered assertion"
        );
        // two distinct peers assert the row; one retraction keeps it alive
        d.ship(NodeId(0), vec![remote(true)]);
        d.ship(NodeId(1), vec![remote(true)]);
        assert!(d.settle(SimTime::from_secs(15)));
        d.ship(NodeId(0), vec![remote(false)]);
        assert!(d.settle(SimTime::from_secs(20)));
        assert_eq!(
            d.instance(NodeId(2)).unwrap().scan("ping").count(),
            1,
            "a row another peer still asserts must survive"
        );
        d.ship(NodeId(1), vec![remote(false)]);
        assert!(d.settle(SimTime::from_secs(25)));
        assert_eq!(d.instance(NodeId(2)).unwrap().scan("ping").count(), 0);
    }

    #[test]
    fn quiet_plan_reliable_run_is_deterministic() {
        let run = || {
            let mut d = two_node_driver();
            d.set_fault_plan(
                FaultPlan::seeded(12)
                    .link_faults(LinkFaults {
                        loss: 0.3,
                        duplicate: 0.2,
                        jitter_us: 30_000,
                    })
                    .crash(1, SimTime::from_secs(2), SimTime::from_secs(4)),
            );
            ship_ping(d.network_mut(), 25);
            let settled = d.settle(SimTime::from_secs(120));
            (
                settled,
                d.delivery_stats(),
                d.traffic(NodeId(0)),
                d.traffic(NodeId(1)),
                d.instance(NodeId(1)).unwrap().scan("ping").count(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded hostile runs must be byte-identical");
        assert!(a.0, "hostile run must still settle");
        assert_eq!(a.4, 25);
    }
}
