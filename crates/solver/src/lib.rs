//! # cologne-solver
//!
//! A finite-domain integer constraint solver with branch-and-bound optimization.
//!
//! This crate is the reproduction's substitute for the Gecode constraint
//! development environment used by the Cologne paper (Liu et al., VLDB 2012).
//! Cologne only relies on a small, well-defined slice of Gecode:
//!
//! * finite-domain integer variables,
//! * arithmetic and reified constraints generated from Colog selection and
//!   aggregation expressions (Sec. 5.3–5.4 of the paper),
//! * depth-first search with branch-and-bound for `goal minimize`/`maximize`,
//!   and plain satisfaction search for `goal satisfy`,
//! * a configurable time limit (`SOLVER_MAX_TIME` in the paper).
//!
//! All of that is implemented here from scratch with no third-party
//! dependencies.
//!
//! ## Quick example
//!
//! ```
//! use cologne_solver::{Model, SearchConfig};
//!
//! // minimize x + y  subject to  x + y >= 5, x in 0..10, y in 0..10
//! let mut m = Model::new();
//! let x = m.new_var(0, 10);
//! let y = m.new_var(0, 10);
//! m.linear_ge(&[(1, x), (1, y)], 5);
//! let obj = m.linear_var(&[(1, x), (1, y)], 0);
//! let outcome = m.minimize(obj, &SearchConfig::default());
//! let best = outcome.best.expect("feasible");
//! assert_eq!(best.value(obj), 5);
//! ```

pub mod bounds;
mod budget;
pub mod domain;
pub mod expr;
pub mod lns;
pub mod model;
pub mod observe;
pub mod parallel;
pub mod propagator;
pub mod propagators;
pub mod restart;
pub mod search;
pub mod stats;
pub mod store;

pub use bounds::{
    compute_root_bound, optimality_gap, BoundCertificate, BoundMode, DualBound, LinearRelaxation,
    RelaxedMerge,
};
pub use budget::StopReason;
pub use domain::Domain;
pub use expr::LinExpr;
pub use lns::{DestroyStrategy, LnsConfig, SolverMode};
pub use model::{Model, VarId};
pub use observe::{EventLog, SolveEvent, SolveObserver, PROGRESS_NODE_INTERVAL};
pub use propagator::{LinearView, PropStatus, Propagator, PropagatorContext};
pub use restart::GeometricRestarts;
pub use search::{
    complete_hints, solve_in_observed, solve_reference, Assignment, Branching, Objective,
    SearchConfig, SearchOutcome, SearchSpace, ValueChoice, DEFAULT_SPLIT_THRESHOLD,
};
pub use stats::SearchStats;
pub use store::{PropQueue, Store};

/// Errors reported while building or solving a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// A constraint references a variable that does not belong to the model.
    UnknownVariable(VarId),
    /// A variable was created with an empty domain (`lo > hi`).
    EmptyDomain { lo: i64, hi: i64 },
    /// The model was proven infeasible at the root (before search started).
    RootInfeasible,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::UnknownVariable(v) => write!(f, "unknown variable {v:?}"),
            SolverError::EmptyDomain { lo, hi } => {
                write!(f, "empty initial domain [{lo}, {hi}]")
            }
            SolverError::RootInfeasible => write!(f, "model is infeasible at the root node"),
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn doc_example_holds() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let y = m.new_var(0, 10);
        m.linear_ge(&[(1, x), (1, y)], 5);
        let obj = m.linear_var(&[(1, x), (1, y)], 0);
        let outcome = m.minimize(obj, &SearchConfig::default());
        assert_eq!(outcome.best.unwrap().value(obj), 5);
    }

    #[test]
    fn error_display_is_informative() {
        let e = SolverError::EmptyDomain { lo: 3, hi: 1 };
        assert!(e.to_string().contains("[3, 1]"));
    }
}
