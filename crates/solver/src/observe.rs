//! Streaming solve events: the [`SolveObserver`] trait and the bounded
//! [`EventLog`] adapter.
//!
//! Long solves — node-budgeted exact branch-and-bound and above all LNS runs
//! — were historically fire-and-forget: the caller learned nothing until the
//! final [`crate::SearchOutcome`] came back. A [`SolveObserver`] threaded
//! into [`crate::search::solve_in_observed`] receives the interesting
//! moments as they happen:
//!
//! * [`SolveObserver::on_incumbent`] — every improving solution (or every
//!   solution, for satisfaction searches);
//! * [`SolveObserver::on_restart`] — a geometric budget growth after a
//!   stalled LNS dive or repair;
//! * [`SolveObserver::on_lns_iteration`] — one destroy/repair iteration
//!   finished;
//! * [`SolveObserver::on_node_budget`] — the solve's own node or fail
//!   budget stopped it (once, as it ends; the budget slices of LNS dives,
//!   repairs and parallel workers never fire it);
//! * [`SolveObserver::on_progress`] — a periodic heartbeat every
//!   [`PROGRESS_NODE_INTERVAL`] search nodes with a [`SearchStats`]
//!   snapshot.
//!
//! Every method returns a [`ControlFlow`]: [`ControlFlow::Break`] requests
//! **cooperative cancellation** — the search stops as if a limit had been
//! hit, keeps the best incumbent found so far, and marks
//! [`SearchStats::cancelled`]. Because events are emitted at deterministic
//! points (solution discovery, node counts, iteration boundaries), two runs
//! of the same seeded, node-limited search observe identical event
//! sequences.

use std::ops::ControlFlow;

use crate::search::Assignment;
use crate::stats::SearchStats;

/// Emit [`SolveObserver::on_progress`] every this many search nodes.
pub const PROGRESS_NODE_INTERVAL: u64 = 4096;

/// Receiver of streaming solve events; every hook defaults to a no-op that
/// continues the search. Return [`ControlFlow::Break`] from any hook to
/// cancel the search cooperatively.
pub trait SolveObserver {
    /// A new best solution was recorded. `objective` is its objective value
    /// (`None` for satisfaction searches).
    fn on_incumbent(&mut self, objective: Option<i64>, best: &Assignment) -> ControlFlow<()> {
        let _ = (objective, best);
        ControlFlow::Continue(())
    }

    /// A stalled LNS dive or repair grew its budget geometrically.
    /// `restarts` counts the growths so far; `next_budget` is the budget the
    /// next attempt runs under.
    fn on_restart(&mut self, restarts: u64, next_budget: u64) -> ControlFlow<()> {
        let _ = (restarts, next_budget);
        ControlFlow::Continue(())
    }

    /// One LNS destroy/repair iteration finished. `improved` is true when
    /// the repair found a strictly better incumbent; `best_objective` is the
    /// incumbent objective after the iteration.
    fn on_lns_iteration(
        &mut self,
        iteration: u64,
        improved: bool,
        best_objective: Option<i64>,
    ) -> ControlFlow<()> {
        let _ = (iteration, improved, best_objective);
        ControlFlow::Continue(())
    }

    /// The solve's own node or fail budget stopped it: fired once, as it
    /// ends, with the outcome's statistics (never for the budget slices of
    /// sub-searches). `Break` turns the stop into a cancellation.
    fn on_node_budget(&mut self, stats: &SearchStats) -> ControlFlow<()> {
        let _ = stats;
        ControlFlow::Continue(())
    }

    /// Periodic heartbeat with a statistics snapshot (every
    /// [`PROGRESS_NODE_INTERVAL`] nodes).
    fn on_progress(&mut self, stats: &SearchStats) -> ControlFlow<()> {
        let _ = stats;
        ControlFlow::Continue(())
    }
}

/// Run one observer hook against an optional observer slot, translating
/// [`ControlFlow::Break`] into `true` (cancel requested).
pub(crate) fn notify(
    observer: &mut Option<&mut dyn SolveObserver>,
    hook: impl FnOnce(&mut dyn SolveObserver) -> ControlFlow<()>,
) -> bool {
    match observer.as_deref_mut() {
        Some(obs) => hook(obs).is_break(),
        None => false,
    }
}

/// One recorded solve event (the [`EventLog`] materialization of the
/// [`SolveObserver`] hooks).
///
/// Not `Eq`: [`SolveEvent::Progress`] carries the live optimality gap as an
/// `f64` (never `NaN`, so `PartialEq` behaves totally in practice).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveEvent {
    /// A new best solution; see [`SolveObserver::on_incumbent`].
    Incumbent {
        /// Objective value of the incumbent (`None` for satisfaction).
        objective: Option<i64>,
    },
    /// A geometric budget growth; see [`SolveObserver::on_restart`].
    Restart {
        /// Number of growths so far.
        restarts: u64,
        /// Budget of the next attempt.
        next_budget: u64,
    },
    /// One LNS iteration finished; see [`SolveObserver::on_lns_iteration`].
    LnsIteration {
        /// Iteration number (1-based).
        iteration: u64,
        /// True when the repair improved the incumbent.
        improved: bool,
        /// Incumbent objective after the iteration.
        best_objective: Option<i64>,
    },
    /// The solve's node/fail budget ran out; see
    /// [`SolveObserver::on_node_budget`].
    NodeBudget {
        /// Nodes the solve explored.
        nodes: u64,
        /// Failures the solve recorded.
        fails: u64,
    },
    /// Periodic heartbeat; see [`SolveObserver::on_progress`].
    Progress {
        /// Nodes explored so far.
        nodes: u64,
        /// Failures so far.
        fails: u64,
        /// Solutions recorded so far.
        solutions: u64,
        /// Certified dual bound, when [`crate::SearchConfig::bound_mode`]
        /// enabled one (see [`SearchStats::dual_bound`]).
        dual_bound: Option<i64>,
        /// Live optimality gap (see [`SearchStats::gap`]).
        gap: Option<f64>,
    },
}

/// A bounded-buffer [`SolveObserver`]: events are kept up to a fixed
/// capacity (excess events are counted and dropped, never blocking the
/// search) and read back with [`EventLog::drain`]. Optionally cancels the
/// search after a number of incumbents — the cooperative-cancellation
/// building block used by tests and examples.
pub struct EventLog {
    events: Vec<SolveEvent>,
    capacity: usize,
    dropped: u64,
    incumbents: u64,
    cancel_after: Option<u64>,
}

impl EventLog {
    /// An event log holding at most `capacity` undrained events.
    pub fn bounded(capacity: usize) -> Self {
        EventLog {
            events: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
            incumbents: 0,
            cancel_after: None,
        }
    }

    /// Request cancellation after `n` incumbents have been observed.
    pub fn cancel_after_incumbents(mut self, n: u64) -> Self {
        self.cancel_after = Some(n);
        self
    }

    /// Number of events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of incumbents observed so far.
    pub fn incumbents(&self) -> u64 {
        self.incumbents
    }

    /// Drain every buffered event, in emission order.
    pub fn drain(&mut self) -> Vec<SolveEvent> {
        std::mem::take(&mut self.events)
    }

    fn push(&mut self, event: SolveEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

impl SolveObserver for EventLog {
    fn on_incumbent(&mut self, objective: Option<i64>, _best: &Assignment) -> ControlFlow<()> {
        self.incumbents += 1;
        self.push(SolveEvent::Incumbent { objective });
        match self.cancel_after {
            Some(n) if self.incumbents >= n => ControlFlow::Break(()),
            _ => ControlFlow::Continue(()),
        }
    }

    fn on_restart(&mut self, restarts: u64, next_budget: u64) -> ControlFlow<()> {
        self.push(SolveEvent::Restart {
            restarts,
            next_budget,
        });
        ControlFlow::Continue(())
    }

    fn on_lns_iteration(
        &mut self,
        iteration: u64,
        improved: bool,
        best_objective: Option<i64>,
    ) -> ControlFlow<()> {
        self.push(SolveEvent::LnsIteration {
            iteration,
            improved,
            best_objective,
        });
        ControlFlow::Continue(())
    }

    fn on_node_budget(&mut self, stats: &SearchStats) -> ControlFlow<()> {
        self.push(SolveEvent::NodeBudget {
            nodes: stats.nodes,
            fails: stats.fails,
        });
        ControlFlow::Continue(())
    }

    fn on_progress(&mut self, stats: &SearchStats) -> ControlFlow<()> {
        self.push(SolveEvent::Progress {
            nodes: stats.nodes,
            fails: stats.fails,
            solutions: stats.solutions,
            dual_bound: stats.dual_bound,
            gap: stats.gap,
        });
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{solve_in_observed, Objective, SearchConfig, SearchSpace};
    use crate::{LnsConfig, Model, SolverMode, StopReason};

    fn staircase_model() -> (Model, crate::VarId) {
        // Input-order minimization walks x = 0, 1, 2, ... while the
        // objective 6 - x improves at every leaf: a guaranteed stream of
        // improving incumbents.
        let mut m = Model::new();
        let x = m.new_var(0, 6);
        let obj = m.linear_var(&[(-1, x)], 6);
        (m, obj)
    }

    #[test]
    fn event_log_records_incumbent_stream() {
        let (m, obj) = staircase_model();
        let mut log = EventLog::bounded(256);
        let mut space = SearchSpace::new();
        let out = solve_in_observed(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut space,
            Some(&mut log),
        );
        assert_eq!(out.stop, StopReason::Complete);
        let events = log.drain();
        let incumbents: Vec<Option<i64>> = events
            .iter()
            .filter_map(|e| match e {
                SolveEvent::Incumbent { objective } => Some(*objective),
                _ => None,
            })
            .collect();
        assert_eq!(incumbents.len() as u64, out.stats.solutions);
        assert_eq!(*incumbents.last().unwrap(), out.best_objective);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn cancellation_after_first_incumbent() {
        let (m, obj) = staircase_model();
        let mut log = EventLog::bounded(256).cancel_after_incumbents(1);
        let mut space = SearchSpace::new();
        let out = solve_in_observed(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut space,
            Some(&mut log),
        );
        assert_eq!(out.stop, StopReason::Cancelled);
        assert!(out.stats.cancelled);
        assert_eq!(out.solutions.len(), 1, "stopped after the first incumbent");
        assert!(out.best.is_some());
        // the uncancelled run keeps improving past the first incumbent
        let full = m.minimize(obj, &SearchConfig::default());
        assert!(full.stats.solutions > 1);
    }

    /// The `NodeBudget` events of one solve, and its outcome.
    fn node_budget_events(
        m: &Model,
        obj: crate::VarId,
        cfg: &SearchConfig,
    ) -> (crate::SearchOutcome, Vec<SolveEvent>) {
        let mut log = EventLog::bounded(65536);
        let out = solve_in_observed(
            m,
            Objective::Minimize(obj),
            cfg,
            &mut SearchSpace::new(),
            Some(&mut log),
        );
        let events = log
            .drain()
            .into_iter()
            .filter(|e| matches!(e, SolveEvent::NodeBudget { .. }))
            .collect();
        (out, events)
    }

    /// The event fires exactly once when the solve's own node budget stops
    /// it, with the outcome's counters, and never for the budget slices of
    /// an LNS run's dives and repairs.
    #[test]
    fn node_budget_event_fires() {
        let (m, obj) = staircase_model();
        let cfg = SearchConfig {
            node_limit: Some(3),
            ..Default::default()
        };
        let (out, events) = node_budget_events(&m, obj, &cfg);
        assert_eq!(out.stop, StopReason::Nodes);
        let expected = SolveEvent::NodeBudget {
            nodes: out.stats.nodes,
            fails: out.stats.fails,
        };
        assert_eq!(events, vec![expected]);

        // Tiny dive slices and the repairs' fail slices run out again and
        // again on the way to a proof.
        let (m, obj) = crate::budget::tests::probe_model();
        let lns = |node_limit| SearchConfig {
            mode: SolverMode::Lns(LnsConfig {
                seed: 3,
                dive_node_limit: 4,
                ..Default::default()
            }),
            node_limit: Some(node_limit),
            ..Default::default()
        };
        let (out, events) = node_budget_events(&m, obj, &lns(20_000));
        assert_eq!(out.stop, StopReason::Complete);
        assert_eq!(events, vec![], "child slices must not fire the event");
        let (out, events) = node_budget_events(&m, obj, &lns(500));
        assert_eq!(out.stop, StopReason::Nodes);
        let expected = SolveEvent::NodeBudget {
            nodes: out.stats.nodes,
            fails: out.stats.fails,
        };
        assert_eq!(events, vec![expected]);
    }

    #[test]
    fn bounded_channel_drops_instead_of_blocking() {
        let (m, obj) = staircase_model();
        let mut log = EventLog::bounded(1);
        let mut space = SearchSpace::new();
        let _ = solve_in_observed(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut space,
            Some(&mut log),
        );
        assert!(log.dropped() > 0, "a 1-slot log must overflow");
        assert_eq!(log.drain().len(), 1);
    }

    #[test]
    fn observed_and_unobserved_runs_agree() {
        let (m, obj) = staircase_model();
        let plain = m.minimize(obj, &SearchConfig::default());
        let mut log = EventLog::bounded(256);
        let mut space = SearchSpace::new();
        let observed = solve_in_observed(
            &m,
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut space,
            Some(&mut log),
        );
        assert_eq!(observed.best_objective, plain.best_objective);
        assert_eq!(observed.solutions, plain.solutions);
        assert_eq!(observed.stats.nodes, plain.stats.nodes);
        assert_eq!(observed.stats.fails, plain.stats.fails);
    }
}
