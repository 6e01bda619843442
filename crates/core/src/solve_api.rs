//! The typed solve entry point: [`SolveRequest`] → [`SolveResponse`].
//!
//! One request/response pair is used identically in-process
//! ([`crate::Deployment::solve`]) and over the `cologne-serve` wire protocol:
//!
//! * [`SolveRequest`] — which nodes to solve ([`SolveTarget`]), whether the
//!   per-node searches may run concurrently, and whether (and how) to
//!   capture streaming [`SolveEvent`]s ([`EventOptions`]).
//! * [`SolveResponse`] — the per-node [`SolveReport`]s plus the captured
//!   event stream and a drop count.
//! * [`EventSink`] — the streaming flavor: events are pushed to the sink as
//!   they happen instead of being buffered, and the sink can request
//!   cooperative cancellation (the building block the server uses to cancel
//!   a solve when its client disconnects).
//!
//! Events are emitted at deterministic points of the search, so two runs of
//! the same node-limited request observe identical event sequences and
//! byte-identical responses once wall-clock fields are normalized
//! ([`SolveResponse::normalized`]).

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use cologne_datalog::NodeId;
use cologne_solver::{SolveEvent, SolveObserver};

use crate::error::CologneError;
use crate::instance::SolveReport;

/// Which nodes a [`SolveRequest`] runs `invokeSolver` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveTarget {
    /// Every node, in ascending node order; solver outputs addressed to
    /// other nodes are shipped into the network afterwards (in node order).
    All,
    /// One node only; its outgoing tuples are *kept* in the report for the
    /// caller to route, as [`crate::CologneInstance::invoke_solver`] does.
    Node(NodeId),
}

/// How a [`SolveRequest`] captures streaming [`SolveEvent`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventOptions {
    /// Maximum number of events buffered in the response; excess events are
    /// counted in [`SolveResponse::dropped_events`] instead of growing the
    /// buffer (streaming sinks apply their own backpressure instead).
    pub capacity: usize,
    /// Cancel the solve cooperatively after this many incumbents have been
    /// observed across all targeted nodes.
    pub cancel_after_incumbents: Option<u64>,
}

impl EventOptions {
    /// Buffer up to `capacity` events, never cancelling.
    pub fn buffered(capacity: usize) -> Self {
        EventOptions {
            capacity,
            cancel_after_incumbents: None,
        }
    }
}

/// One typed solve invocation; build with [`SolveRequest::all`] or
/// [`SolveRequest::at`] and refine with the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveRequest {
    /// Which nodes to solve.
    pub target: SolveTarget,
    /// Run the per-node searches concurrently (scoped threads). Only valid
    /// without event capture: parallel searches interleave their event
    /// streams nondeterministically, which would break the determinism
    /// contract, so [`SolveRequest::validate`] rejects the combination.
    pub parallel: bool,
    /// Capture streaming events (`None` = fire-and-forget solve).
    pub events: Option<EventOptions>,
}

impl SolveRequest {
    /// Solve every node (sequentially, no event capture).
    pub fn all() -> Self {
        SolveRequest {
            target: SolveTarget::All,
            parallel: false,
            events: None,
        }
    }

    /// Solve one node (no event capture).
    pub fn at(node: NodeId) -> Self {
        SolveRequest {
            target: SolveTarget::Node(node),
            parallel: false,
            events: None,
        }
    }

    /// Run per-node searches concurrently (all-nodes targets only, and
    /// incompatible with event capture).
    pub fn parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Capture up to `capacity` streaming events into the response.
    pub fn with_events(mut self, capacity: usize) -> Self {
        self.events = Some(EventOptions::buffered(capacity));
        self
    }

    /// Cancel cooperatively after `n` incumbents (implies event capture; the
    /// buffer defaults to [`SolveRequest::DEFAULT_EVENT_CAPACITY`] when
    /// [`SolveRequest::with_events`] was not called first).
    pub fn cancel_after_incumbents(mut self, n: u64) -> Self {
        let mut opts = self
            .events
            .unwrap_or_else(|| EventOptions::buffered(Self::DEFAULT_EVENT_CAPACITY));
        opts.cancel_after_incumbents = Some(n);
        self.events = Some(opts);
        self
    }

    /// Event buffer size used when cancellation is requested without an
    /// explicit [`SolveRequest::with_events`] capacity.
    pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

    /// Reject combinations that cannot honor the determinism contract.
    pub fn validate(&self) -> Result<(), CologneError> {
        if self.parallel && self.events.is_some() {
            return Err(CologneError::InvalidConfig(
                "parallel solves cannot stream events deterministically; \
                 drop .parallel() or the event options"
                    .into(),
            ));
        }
        if self.parallel && matches!(self.target, SolveTarget::Node(_)) {
            return Err(CologneError::InvalidConfig(
                "parallel solves target all nodes; use SolveRequest::all().parallel()".into(),
            ));
        }
        if let Some(opts) = &self.events {
            if opts.capacity == 0 {
                return Err(CologneError::InvalidConfig(
                    "event capacity must be positive (omit events to disable capture)".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Result of one [`SolveRequest`]: per-node reports plus the captured event
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// Per-node solve reports, keyed by node in ascending order.
    pub reports: BTreeMap<NodeId, SolveReport>,
    /// Captured events in emission order, tagged with the emitting node
    /// (empty unless the request asked for events; streaming solves deliver
    /// events to the sink instead).
    pub events: Vec<(NodeId, SolveEvent)>,
    /// Events discarded because the buffer (or a streaming transport queue)
    /// was full. Transport-dependent: not part of the determinism contract.
    pub dropped_events: u64,
}

impl SolveResponse {
    /// The report of one node.
    pub fn report(&self, node: NodeId) -> Option<&SolveReport> {
        self.reports.get(&node)
    }

    /// The sole report of a single-target response.
    pub fn single(&self) -> Option<&SolveReport> {
        match self.reports.len() {
            1 => self.reports.values().next(),
            _ => None,
        }
    }

    /// Debug rendering with every wall-clock field zeroed — the
    /// byte-identity surface: two deterministic (node-limited) runs of the
    /// same request, local or through the wire, render identically here even
    /// though their elapsed times differ. `dropped_events` is also zeroed
    /// because drop counts depend on transport queue timing.
    pub fn normalized(&self) -> String {
        let mut r = self.clone();
        for report in r.reports.values_mut() {
            report.stats.elapsed_micros = 0;
        }
        r.dropped_events = 0;
        format!("{r:?}")
    }
}

/// Receiver of streaming solve events, the push-flavored counterpart of
/// [`SolveResponse::events`]. Return `false` to request cooperative
/// cancellation of the remaining search.
pub trait EventSink {
    /// One event emitted by `node`'s search.
    fn event(&mut self, node: NodeId, event: SolveEvent) -> bool;
}

/// The buffering sink behind [`crate::Deployment::solve`]: keeps the first
/// `capacity` events, counts the rest.
pub(crate) struct BufferSink<'a> {
    pub(crate) events: &'a mut Vec<(NodeId, SolveEvent)>,
    pub(crate) capacity: usize,
    pub(crate) dropped: &'a mut u64,
}

impl EventSink for BufferSink<'_> {
    fn event(&mut self, node: NodeId, event: SolveEvent) -> bool {
        if self.events.len() < self.capacity {
            self.events.push((node, event));
        } else {
            *self.dropped += 1;
        }
        true
    }
}

/// Adapter threading one node's [`SolveObserver`] hooks into an
/// [`EventSink`], sharing the incumbent counter and cancel flag across the
/// per-node observers of a multi-node request (so `cancel_after_incumbents`
/// counts globally and a cancellation keeps cancelling later nodes).
pub(crate) struct SinkObserver<'a> {
    pub(crate) node: NodeId,
    pub(crate) sink: &'a mut dyn EventSink,
    pub(crate) incumbents: &'a mut u64,
    pub(crate) cancel_after: Option<u64>,
    pub(crate) cancelled: &'a mut bool,
}

impl SinkObserver<'_> {
    fn emit(&mut self, event: SolveEvent) {
        if !self.sink.event(self.node, event) {
            *self.cancelled = true;
        }
    }

    fn flow(&self) -> ControlFlow<()> {
        if *self.cancelled {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

impl SolveObserver for SinkObserver<'_> {
    fn on_incumbent(
        &mut self,
        objective: Option<i64>,
        _best: &cologne_solver::Assignment,
    ) -> ControlFlow<()> {
        *self.incumbents += 1;
        self.emit(SolveEvent::Incumbent { objective });
        if matches!(self.cancel_after, Some(n) if *self.incumbents >= n) {
            *self.cancelled = true;
        }
        self.flow()
    }

    fn on_restart(&mut self, restarts: u64, next_budget: u64) -> ControlFlow<()> {
        self.emit(SolveEvent::Restart {
            restarts,
            next_budget,
        });
        self.flow()
    }

    fn on_lns_iteration(
        &mut self,
        iteration: u64,
        improved: bool,
        best_objective: Option<i64>,
    ) -> ControlFlow<()> {
        self.emit(SolveEvent::LnsIteration {
            iteration,
            improved,
            best_objective,
        });
        self.flow()
    }

    fn on_node_budget(&mut self, stats: &cologne_solver::SearchStats) -> ControlFlow<()> {
        self.emit(SolveEvent::NodeBudget {
            nodes: stats.nodes,
            fails: stats.fails,
        });
        self.flow()
    }

    fn on_progress(&mut self, stats: &cologne_solver::SearchStats) -> ControlFlow<()> {
        self.emit(SolveEvent::Progress {
            nodes: stats.nodes,
            fails: stats.fails,
            solutions: stats.solutions,
            dual_bound: stats.dual_bound,
            gap: stats.gap,
        });
        self.flow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let r = SolveRequest::all();
        assert_eq!(r.target, SolveTarget::All);
        assert!(!r.parallel && r.events.is_none());
        r.validate().unwrap();

        let r = SolveRequest::at(NodeId(3)).with_events(64);
        assert_eq!(r.target, SolveTarget::Node(NodeId(3)));
        assert_eq!(r.events.unwrap().capacity, 64);
        r.validate().unwrap();

        let r = SolveRequest::all().cancel_after_incumbents(2);
        let opts = r.events.unwrap();
        assert_eq!(opts.cancel_after_incumbents, Some(2));
        assert_eq!(opts.capacity, SolveRequest::DEFAULT_EVENT_CAPACITY);

        // with_events first keeps the explicit capacity
        let r = SolveRequest::all()
            .with_events(8)
            .cancel_after_incumbents(1);
        assert_eq!(r.events.unwrap().capacity, 8);
    }

    #[test]
    fn validation_rejects_bad_combinations() {
        for bad in [
            SolveRequest::all().parallel().with_events(16),
            SolveRequest::at(NodeId(0)).parallel(),
            SolveRequest::all().with_events(0),
        ] {
            assert!(matches!(
                bad.validate(),
                Err(CologneError::InvalidConfig(_))
            ));
        }
        SolveRequest::all().parallel().validate().unwrap();
    }

    #[test]
    fn buffer_sink_caps_and_counts() {
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut sink = BufferSink {
            events: &mut events,
            capacity: 2,
            dropped: &mut dropped,
        };
        for i in 0..5 {
            assert!(sink.event(NodeId(0), SolveEvent::Incumbent { objective: Some(i) }));
        }
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn normalized_zeroes_wall_clock() {
        let mut reports = BTreeMap::new();
        let mut report = SolveReport {
            feasible: true,
            trivial: false,
            objective: Some(7),
            proven_optimal: true,
            stats: Default::default(),
            certificate: None,
            assignments: BTreeMap::new(),
            outgoing: Vec::new(),
        };
        report.stats.elapsed_micros = 123;
        reports.insert(NodeId(0), report);
        let a = SolveResponse {
            reports: reports.clone(),
            events: Vec::new(),
            dropped_events: 9,
        };
        let mut b = SolveResponse {
            reports,
            events: Vec::new(),
            dropped_events: 0,
        };
        b.reports.get_mut(&NodeId(0)).unwrap().stats.elapsed_micros = 456;
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.normalized(), b.normalized());
    }
}
