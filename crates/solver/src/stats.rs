//! Search statistics.
//!
//! The paper reports per-COP solving time, convergence behaviour and the
//! effect of `SOLVER_MAX_TIME`; these counters are the raw material for the
//! paper-figure binaries of `crates/bench` and the `search.*` metrics of the
//! repository benchmark (`BENCHMARK.json`, `benchmark/`).

use std::time::Duration;

/// Counters accumulated during a search.
///
/// Not `Eq`: `gap` is an `f64`. It is never `NaN` (the gap formula divides
/// by `max(1, |primal|)`), so `PartialEq` behaves totally in practice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Number of search-tree nodes explored.
    pub nodes: u64,
    /// Number of failed (inconsistent) nodes.
    pub fails: u64,
    /// Number of propagator executions.
    pub propagations: u64,
    /// Number of individual domain prunings.
    pub prunings: u64,
    /// Number of solutions found.
    pub solutions: u64,
    /// Maximum depth reached in the search tree.
    pub max_depth: u64,
    /// Number of destroy/repair iterations executed by the LNS driver
    /// (0 for exact searches).
    pub lns_iterations: u64,
    /// Number of LNS iterations whose repair found a strictly better
    /// incumbent (0 for exact searches).
    pub lns_improvements: u64,
    /// Wall-clock time spent searching, in microseconds.
    pub elapsed_micros: u64,
    /// True if [`crate::SearchOutcome::stop`] is any [`crate::StopReason`]
    /// but `Complete` (a limit, the solution cap, or a cancellation).
    pub limit_reached: bool,
    /// True if a [`crate::SolveObserver`] cancelled the search cooperatively
    /// ([`crate::StopReason::Cancelled`]; implies `limit_reached`).
    pub cancelled: bool,
    /// True if a [`crate::SearchConfig::warm_start`] assignment seeded this
    /// search (the initial branch-and-bound bound for exact search, the
    /// initial incumbent for LNS).
    pub warm_start: bool,
    /// Number of worker threads the search ran on (0 for the sequential
    /// engines; see [`crate::SearchConfig::workers`]).
    pub parallel_workers: u64,
    /// Number of independent subtrees the parallel exact engine split the
    /// search into (0 for sequential and LNS searches).
    pub subtrees: u64,
    /// Number of synchronized portfolio rounds the parallel LNS engine ran
    /// (0 for sequential and exact searches).
    pub portfolio_rounds: u64,
    /// Certified dual bound on the objective (lower bound for minimization,
    /// upper for maximization), when [`crate::SearchConfig::bound_mode`]
    /// enabled a [`crate::bounds`] engine. `None` with bounds off.
    pub dual_bound: Option<i64>,
    /// Relative optimality gap between the incumbent and `dual_bound` (see
    /// [`crate::bounds::optimality_gap`]). `None` until both an incumbent
    /// and a dual bound exist; `Some(0.0)` certifies optimality.
    pub gap: Option<f64>,
}

impl SearchStats {
    /// Wall-clock search time.
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.elapsed_micros)
    }

    /// Merge another stats record into this one. Used wherever many searches
    /// contribute to one aggregate figure: the parallel engines merge their
    /// per-worker counters in a fixed reduction order, the LNS driver merges
    /// dive and repair stats, and distributed executions merge per-node COP
    /// totals. Counters sum; depth and worker counts take the maximum; flags
    /// or together.
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.fails += other.fails;
        self.propagations += other.propagations;
        self.prunings += other.prunings;
        self.solutions += other.solutions;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.lns_iterations += other.lns_iterations;
        self.lns_improvements += other.lns_improvements;
        self.elapsed_micros += other.elapsed_micros;
        self.limit_reached |= other.limit_reached;
        self.cancelled |= other.cancelled;
        self.warm_start |= other.warm_start;
        self.parallel_workers = self.parallel_workers.max(other.parallel_workers);
        self.subtrees += other.subtrees;
        self.portfolio_rounds += other.portfolio_rounds;
        // Bound fields are not counters: the most recent certified value
        // wins. Workers and LNS repairs carry `None`, so merging them into a
        // driver record preserves the driver's bound and gap.
        self.dual_bound = other.dual_bound.or(self.dual_bound);
        self.gap = other.gap.or(self.gap);
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} fails={} props={} prunings={} solutions={} depth={}",
            self.nodes,
            self.fails,
            self.propagations,
            self.prunings,
            self.solutions,
            self.max_depth,
        )?;
        if self.lns_iterations > 0 {
            write!(
                f,
                " lns_iters={} lns_improved={}",
                self.lns_iterations, self.lns_improvements
            )?;
        }
        if self.parallel_workers > 0 {
            write!(f, " workers={}", self.parallel_workers)?;
            if self.subtrees > 0 {
                write!(f, " subtrees={}", self.subtrees)?;
            }
            if self.portfolio_rounds > 0 {
                write!(f, " rounds={}", self.portfolio_rounds)?;
            }
        }
        if let Some(dual) = self.dual_bound {
            write!(f, " dual={dual}")?;
            if let Some(gap) = self.gap {
                write!(f, " gap={:.2}%", gap * 100.0)?;
            }
        }
        if self.warm_start {
            write!(f, " warm")?;
        }
        if self.cancelled {
            write!(f, " cancelled")?;
        }
        write!(
            f,
            " time={:?}{}",
            self.elapsed(),
            if self.limit_reached { " (limit)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            nodes: 10,
            fails: 2,
            max_depth: 5,
            ..Default::default()
        };
        let b = SearchStats {
            nodes: 7,
            fails: 1,
            max_depth: 9,
            limit_reached: true,
            elapsed_micros: 1500,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes, 17);
        assert_eq!(a.fails, 3);
        assert_eq!(a.max_depth, 9);
        assert!(a.limit_reached);
        assert_eq!(a.elapsed(), Duration::from_micros(1500));
    }

    /// Every field of `SearchStats` must participate in `merge`. The
    /// exhaustive destructuring below fails to compile when a field is added,
    /// and the assertions fail when a field is added to the struct but
    /// forgotten in `merge` (a non-zero source value must leave a trace in
    /// the merged record).
    #[test]
    fn merge_covers_every_field() {
        let source = SearchStats {
            nodes: 1,
            fails: 2,
            propagations: 3,
            prunings: 4,
            solutions: 5,
            max_depth: 6,
            lns_iterations: 7,
            lns_improvements: 8,
            elapsed_micros: 9,
            limit_reached: true,
            cancelled: true,
            warm_start: true,
            parallel_workers: 10,
            subtrees: 11,
            portfolio_rounds: 12,
            dual_bound: Some(13),
            gap: Some(0.25),
        };
        let mut merged = SearchStats::default();
        merged.merge(&source);
        // Exhaustive destructuring: adding a field without extending this
        // test (and `merge`) is a compile error here.
        let SearchStats {
            nodes,
            fails,
            propagations,
            prunings,
            solutions,
            max_depth,
            lns_iterations,
            lns_improvements,
            elapsed_micros,
            limit_reached,
            cancelled,
            warm_start,
            parallel_workers,
            subtrees,
            portfolio_rounds,
            dual_bound,
            gap,
        } = merged;
        assert_eq!(nodes, 1);
        assert_eq!(fails, 2);
        assert_eq!(propagations, 3);
        assert_eq!(prunings, 4);
        assert_eq!(solutions, 5);
        assert_eq!(max_depth, 6);
        assert_eq!(lns_iterations, 7);
        assert_eq!(lns_improvements, 8);
        assert_eq!(elapsed_micros, 9);
        assert!(limit_reached);
        assert!(cancelled);
        assert!(warm_start);
        assert_eq!(parallel_workers, 10);
        assert_eq!(subtrees, 11);
        assert_eq!(portfolio_rounds, 12);
        assert_eq!(dual_bound, Some(13));
        assert_eq!(gap, Some(0.25));
        // Merging into a populated record keeps every field monotone: the
        // merged Debug output must differ from the pre-merge one whenever
        // the source is non-trivial (catches "merge ignores field" bugs for
        // fields whose merged value coincides with the default).
        let mut twice = source.clone();
        twice.merge(&source);
        assert_ne!(format!("{source:?}"), format!("{twice:?}"));
        assert_eq!(twice.nodes, 2);
        assert_eq!(twice.parallel_workers, 10, "worker count merges by max");
        assert_eq!(twice.subtrees, 22);
        assert_eq!(twice.portfolio_rounds, 24);
    }

    #[test]
    fn merge_keeps_bound_fields_most_recent() {
        // A populated driver record merging a `None` worker record keeps its
        // bound; merging a newer certified record adopts the newer values.
        let mut driver = SearchStats {
            dual_bound: Some(40),
            gap: Some(0.5),
            ..Default::default()
        };
        driver.merge(&SearchStats::default());
        assert_eq!(driver.dual_bound, Some(40));
        assert_eq!(driver.gap, Some(0.5));
        driver.merge(&SearchStats {
            dual_bound: Some(45),
            gap: Some(0.1),
            ..Default::default()
        });
        assert_eq!(driver.dual_bound, Some(45));
        assert_eq!(driver.gap, Some(0.1));
    }

    #[test]
    fn display_shows_bound_and_gap() {
        let s = SearchStats {
            dual_bound: Some(95),
            gap: Some(0.05),
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("dual=95"));
        assert!(text.contains("gap=5.00%"));
        assert!(!SearchStats::default().to_string().contains("dual="));
    }

    #[test]
    fn display_mentions_limits() {
        let s = SearchStats {
            limit_reached: true,
            ..Default::default()
        };
        assert!(s.to_string().contains("limit"));
        let s2 = SearchStats::default();
        assert!(!s2.to_string().contains("limit"));
    }
}
