//! One stop policy for every search engine: the [`SearchConfig`] limits
//! become one [`Budget`] per solve. Every engine polls [`Budget::check`] at
//! its own deterministic points (node entry, LNS iterations, portfolio
//! rounds); every sub-search (LNS dive or repair, portfolio dive or worker,
//! warm-start completion probe) runs on a [`Budget::child`];
//! [`Budget::finish`] turns the [`StopReason`] into the [`SearchStats`]
//! flags and the root's `on_node_budget` event.

use std::time::Instant;

use crate::observe::{notify, SolveObserver};
use crate::search::{Objective, SearchConfig, SearchOutcome};
use crate::stats::SearchStats;

/// Why a search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The search space was exhausted: the optimum (or infeasibility) is
    /// proved, or, for `Satisfy`, every requested solution was found.
    Complete,
    /// The certified optimality gap dropped strictly below
    /// [`SearchConfig::gap_limit`].
    Gap,
    /// [`SearchConfig::node_limit`] ran out.
    Nodes,
    /// [`SearchConfig::fail_limit`] ran out.
    Fails,
    /// [`SearchConfig::time_limit`] passed.
    Time,
    /// An optimization recorded [`SearchConfig::max_solutions`] incumbents.
    Solutions,
    /// The LNS driver reached [`crate::LnsConfig::max_iterations`], or had
    /// no neighborhood left to destroy.
    Iterations,
    /// A [`SolveObserver`] cancelled the search.
    Cancelled,
}

/// What a sub-search may spend. Each set cap narrows what remains of the
/// parent's budget; `gap` keeps the parent's gap limit (children run without
/// one otherwise).
#[derive(Clone, Copy, Default)]
pub(crate) struct Slice {
    pub(crate) nodes: Option<u64>,
    pub(crate) fails: Option<u64>,
    pub(crate) solutions: Option<u64>,
    pub(crate) gap: bool,
}

/// The limits of one search; see the module docs.
pub(crate) struct Budget {
    start: Instant,
    deadline: Option<Instant>,
    nodes: Option<u64>,
    fails: Option<u64>,
    gap: Option<f64>,
    solutions: Option<u64>,
    /// A satisfaction search: reaching the solution cap completes it.
    satisfy: bool,
    /// The solve's own budget (not a child): only it reports
    /// [`SolveObserver::on_node_budget`].
    root: bool,
}

/// `limit - used`, narrowed by `cap`.
fn narrowed(limit: Option<u64>, used: u64, cap: Option<u64>) -> Option<u64> {
    let left = limit.map(|l| l.saturating_sub(used));
    left.zip(cap).map(|(l, c)| l.min(c)).or(left).or(cap)
}

impl Budget {
    /// The budget of one solve, from `config`'s limits. The clock starts now.
    pub(crate) fn new(config: &SearchConfig, objective: Objective) -> Self {
        let start = Instant::now();
        Budget {
            start,
            deadline: config.time_limit.and_then(|t| start.checked_add(t)),
            nodes: config.node_limit,
            fails: config.fail_limit,
            gap: config.gap_limit,
            solutions: config.max_solutions.map(|k| k as u64),
            satisfy: matches!(objective, Objective::Satisfy),
            root: true,
        }
    }

    /// What remains after `spent`, as a slice (`gap` unset).
    pub(crate) fn remaining(&self, spent: &SearchStats) -> Slice {
        Slice {
            nodes: narrowed(self.nodes, spent.nodes, None),
            fails: narrowed(self.fails, spent.fails, None),
            solutions: narrowed(self.solutions, spent.solutions, None),
            gap: false,
        }
    }

    /// The budget of a sub-search started after this search spent `spent`:
    /// the same deadline, what remains of the node, fail and solution
    /// budgets narrowed by `slice`, and this gap limit only if `slice.gap`.
    pub(crate) fn child(&self, spent: &SearchStats, slice: Slice) -> Budget {
        Budget {
            start: Instant::now(),
            deadline: self.deadline,
            nodes: narrowed(self.nodes, spent.nodes, slice.nodes),
            fails: narrowed(self.fails, spent.fails, slice.fails),
            gap: self.gap.filter(|_| slice.gap),
            solutions: narrowed(self.solutions, spent.solutions, slice.solutions),
            satisfy: self.satisfy,
            root: false,
        }
    }

    /// Should the search stop, having spent `stats`? Checks, in order: the
    /// gap, the clock (only when `poll_clock`: the searcher polls it every 64
    /// nodes), fails, nodes, the solution cap.
    pub(crate) fn check(&self, stats: &SearchStats, poll_clock: bool) -> Option<StopReason> {
        // Strict comparison: a zero gap limit never stops a search early.
        if matches!((self.gap, stats.gap), (Some(limit), Some(gap)) if gap < limit) {
            return Some(StopReason::Gap);
        }
        if poll_clock && self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::Time);
        }
        if self.fails.is_some_and(|f| stats.fails >= f) {
            return Some(StopReason::Fails);
        }
        if self.nodes.is_some_and(|n| stats.nodes >= n) {
            return Some(StopReason::Nodes);
        }
        self.solutions_done(stats)
    }

    /// The solution cap alone: `Complete` for a satisfaction search that has
    /// every requested solution, `Solutions` for an optimization.
    pub(crate) fn solutions_done(&self, stats: &SearchStats) -> Option<StopReason> {
        let done = self.solutions.is_some_and(|k| stats.solutions >= k);
        done.then_some(if self.satisfy {
            StopReason::Complete
        } else {
            StopReason::Solutions
        })
    }

    /// Close a search: stamp the elapsed time, report a root node or fail
    /// stop to the observer (a `Break` there turns it into `Cancelled`), and
    /// write the [`SearchStats`] flags from the stop reason.
    pub(crate) fn finish(
        &self,
        mut outcome: SearchOutcome,
        observer: &mut Option<&mut dyn SolveObserver>,
    ) -> SearchOutcome {
        let stats = &mut outcome.stats;
        stats.elapsed_micros = self.start.elapsed().as_micros() as u64;
        if self.root
            && matches!(outcome.stop, StopReason::Nodes | StopReason::Fails)
            && notify(observer, |o| o.on_node_budget(stats))
        {
            outcome.stop = StopReason::Cancelled;
        }
        stats.limit_reached = outcome.stop != StopReason::Complete;
        stats.cancelled = outcome.stop == StopReason::Cancelled;
        outcome
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::num::NonZeroUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::bounds::BoundMode;
    use crate::lns::{LnsConfig, SolverMode};
    use crate::observe::EventLog;
    use crate::search::{solve_in_observed, SearchSpace};
    use crate::{Model, VarId};

    /// 12 variables in `0..=3` minimizing `Σ sᵢxᵢ` subject to `Σ sᵢxᵢ ≥ 40`
    /// and `xᵢ + xᵢ₊₁ ≥ 1`, with weights `sᵢ = i + 1`. Exact search proves
    /// the optimum 40 in ~8 000 nodes after two worse incumbents, so every
    /// limit below binds on every engine.
    pub(crate) fn probe_model() -> (Model, VarId) {
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..12).map(|_| m.new_var(0, 3)).collect();
        for w in xs.windows(2) {
            m.linear_ge(&[(1, w[0]), (1, w[1])], 1);
        }
        let terms: Vec<(i64, VarId)> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as i64 + 1, x))
            .collect();
        m.linear_ge(&terms, 40);
        let obj = m.linear_var(&terms, 0);
        (m, obj)
    }

    #[derive(Debug, Clone, Copy)]
    enum Engine {
        Exact,
        Lns,
        Portfolio,
    }

    #[derive(Debug, Clone, Copy)]
    enum Cause {
        None,
        Nodes,
        Fails,
        Time,
        Gap,
        Solutions,
        Cancel,
    }

    const NODE_LIMIT: u64 = 2_000;
    const FAIL_LIMIT: u64 = 100;
    const SOLUTION_CAP: usize = 2;
    const GAP_LIMIT: f64 = 1.0;
    /// Each portfolio worker may overshoot its slice by one polling interval.
    const OVERSHOOT_PER_WORKER: u64 = 64;

    fn config(engine: Engine, cause: Cause) -> SearchConfig {
        let lns = |workers| LnsConfig {
            workers: NonZeroUsize::new(workers),
            ..LnsConfig::default()
        };
        let mode = match engine {
            Engine::Exact => SolverMode::Exact,
            Engine::Lns => SolverMode::Lns(lns(1)),
            Engine::Portfolio => SolverMode::Lns(lns(2)),
        };
        let base = SearchConfig {
            mode,
            ..SearchConfig::default()
        };
        match cause {
            Cause::None | Cause::Cancel => base,
            Cause::Nodes => SearchConfig {
                node_limit: Some(NODE_LIMIT),
                ..base
            },
            Cause::Fails => SearchConfig {
                fail_limit: Some(FAIL_LIMIT),
                ..base
            },
            Cause::Time => SearchConfig {
                time_limit: Some(Duration::ZERO),
                ..base
            },
            Cause::Gap => SearchConfig {
                bound_mode: BoundMode::Auto,
                gap_limit: Some(GAP_LIMIT),
                ..base
            },
            Cause::Solutions => SearchConfig {
                max_solutions: Some(SOLUTION_CAP),
                ..base
            },
        }
    }

    /// Solve on a thread and fail the test if it does not return in time.
    fn run(engine: Engine, cause: Cause) -> SearchOutcome {
        let (tx, rx) = mpsc::channel();
        let solver = std::thread::spawn(move || {
            let (m, obj) = probe_model();
            let mut log = EventLog::bounded(1024).cancel_after_incumbents(match cause {
                Cause::Cancel => 1,
                _ => u64::MAX,
            });
            let out = solve_in_observed(
                &m,
                Objective::Minimize(obj),
                &config(engine, cause),
                &mut SearchSpace::new(),
                Some(&mut log),
            );
            let _ = tx.send(out);
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(out) => {
                solver.join().expect("the solver thread sent its outcome");
                out
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("{engine:?} under {cause:?} did not terminate")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("{engine:?} under {cause:?} panicked")
            }
        }
    }

    /// Every engine reports the same stop reason for the same cause, with
    /// the same flag projections, and respects the budget it stopped on.
    #[test]
    fn stop_policy_table() {
        let table = [
            (Cause::None, StopReason::Complete),
            (Cause::Nodes, StopReason::Nodes),
            (Cause::Fails, StopReason::Fails),
            (Cause::Time, StopReason::Time),
            (Cause::Gap, StopReason::Gap),
            (Cause::Solutions, StopReason::Solutions),
            (Cause::Cancel, StopReason::Cancelled),
        ];
        let engines = [(Engine::Exact, 1), (Engine::Lns, 1), (Engine::Portfolio, 2)];
        for (cause, expected) in table {
            let mut projections = Vec::new();
            for (engine, workers) in engines {
                let out = run(engine, cause);
                let ctx = format!("{engine:?} under {cause:?}: {}", out.stats);
                assert_eq!(out.stop, expected, "{ctx}");
                let projection = (out.stats.limit_reached, out.stats.cancelled);
                assert_eq!(
                    projection,
                    (
                        expected != StopReason::Complete,
                        expected == StopReason::Cancelled
                    ),
                    "{ctx}"
                );
                projections.push(projection);
                let overshoot = OVERSHOOT_PER_WORKER * workers;
                match cause {
                    Cause::None => assert_eq!(out.best_objective, Some(40), "{ctx}"),
                    Cause::Nodes => assert!(out.stats.nodes <= NODE_LIMIT + overshoot, "{ctx}"),
                    Cause::Fails => assert!(out.stats.fails <= FAIL_LIMIT + overshoot, "{ctx}"),
                    Cause::Time => assert!(out.stats.nodes <= overshoot, "{ctx}"),
                    Cause::Gap => assert!(out.stats.gap.is_some_and(|g| g < GAP_LIMIT), "{ctx}"),
                    Cause::Solutions => {
                        assert!(out.solutions.len() <= SOLUTION_CAP, "{ctx}");
                        assert!(out.best.is_some(), "{ctx}");
                    }
                    Cause::Cancel => assert_eq!(out.solutions.len(), 1, "{ctx}"),
                }
            }
            assert!(projections.windows(2).all(|w| w[0] == w[1]));
        }
    }
}
