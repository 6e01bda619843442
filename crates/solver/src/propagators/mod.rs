//! Built-in propagators.
//!
//! These cover every constraint shape the Colog→COP compilation produces
//! (Sec. 5.3–5.4 of the paper):
//!
//! * [`linear`] — linear equalities/inequalities/disequalities over integer
//!   variables, the workhorse for `SUM<...>` aggregates and arithmetic
//!   selection expressions;
//! * [`arith`] — products, absolute values and min/max, used for
//!   `C == V * Cpu` and the `SUMABS` aggregate;
//! * [`variance`] — the scaled variance `n·Σx² − (Σx)²` behind the `STDEV`
//!   goal: one global propagator over all host loads that, once the loads'
//!   total is known, also filters each load against the incumbent;
//! * [`reified`] — boolean reification of linear constraints, used for
//!   conditional expressions such as `(V==1) == (C==1)` and the interference
//!   cost `(C==1) == (|C1-C2| < F_mindiff)`;
//! * [`counting`] — the number-of-distinct-values constraint backing the
//!   `UNIQUE<...>` aggregate (wireless interface constraint).
//!
//! Every propagator prunes through a [`crate::PropagatorContext`], the view
//! over the search's trail-based [`crate::Store`]: propagators never see the
//! domain vector directly, so each pruning is recorded on the trail (undone
//! on backtrack) and reported to the propagation queue's scheduler.

pub mod arith;
pub mod counting;
pub mod linear;
pub mod reified;
pub mod variance;

pub use arith::{AbsVal, MaxOfArray, MinOfArray, MulVar};
pub use counting::NValues;
pub use linear::{LinearEq, LinearLe, LinearNe};
pub use reified::{ReifLinearEq, ReifLinearLe};
pub use variance::ScaledVariance;
