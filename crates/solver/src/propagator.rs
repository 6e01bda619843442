//! The propagator interface.
//!
//! A propagator observes a set of variables and prunes values that cannot
//! appear in any solution of its constraint. Propagators are scheduled on a
//! fixpoint queue by the [`crate::Model`]: whenever a variable's domain
//! changes, every propagator subscribed to that variable is re-run until no
//! further pruning happens.
//!
//! Propagators never touch domains directly: all mutation goes through a
//! [`PropagatorContext`], a view over the search's trail-based
//! [`Store`] — so every pruning is automatically recorded on the trail (and
//! undone on backtrack) and the engine learns which variables changed in
//! order to schedule dependent propagators.

use crate::domain::Domain;
use crate::model::VarId;
use crate::store::Store;

/// Result of a successful propagation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropStatus {
    /// The propagator may still prune more in the future and must stay
    /// subscribed.
    Active,
    /// The constraint is now entailed (always satisfied regardless of how the
    /// remaining variables are fixed); the propagator never needs to run
    /// again on this subtree.
    Entailed,
}

/// Signals that a propagator detected an inconsistency (some domain became
/// empty or the constraint cannot be satisfied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

/// View over the variable domains handed to a propagator.
///
/// All mutation goes through this context so the engine can track which
/// variables changed and schedule dependent propagators, and so the
/// underlying [`Store`] can trail the previous domains for backtracking.
pub struct PropagatorContext<'a> {
    store: &'a mut Store,
    changed: &'a mut Vec<VarId>,
    prunings: &'a mut u64,
}

impl<'a> PropagatorContext<'a> {
    #[inline]
    pub(crate) fn new(
        store: &'a mut Store,
        changed: &'a mut Vec<VarId>,
        prunings: &'a mut u64,
    ) -> Self {
        PropagatorContext {
            store,
            changed,
            prunings,
        }
    }

    /// Immutable view of a variable's domain.
    #[inline]
    pub fn domain(&self, v: VarId) -> &Domain {
        self.store.domain(v.index())
    }

    /// Current lower bound of `v`.
    #[inline]
    pub fn min(&self, v: VarId) -> i64 {
        self.store.domain(v.index()).min()
    }

    /// Current upper bound of `v`.
    #[inline]
    pub fn max(&self, v: VarId) -> i64 {
        self.store.domain(v.index()).max()
    }

    /// True if `v` is fixed to a single value.
    #[inline]
    pub fn is_fixed(&self, v: VarId) -> bool {
        self.store.domain(v.index()).is_fixed()
    }

    /// The value of `v` if fixed.
    #[inline]
    pub fn fixed_value(&self, v: VarId) -> Option<i64> {
        self.store.domain(v.index()).fixed_value()
    }

    #[inline]
    fn record(&mut self, v: VarId, changed: Result<bool, ()>) -> Result<bool, Conflict> {
        match changed {
            Ok(true) => {
                *self.prunings += 1;
                self.changed.push(v);
                Ok(true)
            }
            Ok(false) => Ok(false),
            Err(()) => Err(Conflict),
        }
    }

    /// Enforce `v >= bound`.
    #[inline]
    pub fn set_min(&mut self, v: VarId, bound: i64) -> Result<bool, Conflict> {
        let r = self.store.remove_below(v.index(), bound);
        self.record(v, r)
    }

    /// Enforce `v <= bound`.
    #[inline]
    pub fn set_max(&mut self, v: VarId, bound: i64) -> Result<bool, Conflict> {
        let r = self.store.remove_above(v.index(), bound);
        self.record(v, r)
    }

    /// Enforce `v == value`.
    #[inline]
    pub fn assign(&mut self, v: VarId, value: i64) -> Result<bool, Conflict> {
        let r = self.store.assign(v.index(), value);
        self.record(v, r)
    }

    /// Enforce `v != value`.
    #[inline]
    pub fn remove_value(&mut self, v: VarId, value: i64) -> Result<bool, Conflict> {
        let r = self.store.remove_value(v.index(), value);
        self.record(v, r)
    }

    /// Enforce `lo <= v <= hi`.
    #[inline]
    pub fn intersect(&mut self, v: VarId, lo: i64, hi: i64) -> Result<bool, Conflict> {
        let r = self.store.intersect_bounds(v.index(), lo, hi);
        self.record(v, r)
    }
}

/// Structural view of a propagator's linear form, when it has one.
///
/// The dual-bound engines of [`crate::bounds`] inspect the model's
/// constraints to recognize the objective-defining equality and the
/// exactly-one packing groups they relax; propagators are stored as trait
/// objects, so this view is the introspection hook that exposes the linear
/// shape without downcasting. Propagators with no linear form simply return
/// `None` from [`Propagator::linear_view`].
#[derive(Debug, Clone, Copy)]
pub enum LinearView<'a> {
    /// `Σ coeff_i · x_i <= bound`
    Le {
        /// The `(coefficient, variable)` terms.
        terms: &'a [(i64, VarId)],
        /// The right-hand side.
        bound: i64,
    },
    /// `Σ coeff_i · x_i == bound`
    Eq {
        /// The `(coefficient, variable)` terms.
        terms: &'a [(i64, VarId)],
        /// The right-hand side.
        bound: i64,
    },
}

/// A constraint propagator.
pub trait Propagator: Send + Sync {
    /// Human-readable name used in debug output.
    fn name(&self) -> &'static str;

    /// Variables whose domain changes should wake this propagator.
    fn dependencies(&self) -> Vec<VarId>;

    /// Prune domains. Returns the propagator status or a conflict.
    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict>;

    /// True if a single [`Propagator::prune`] call always reaches the
    /// propagator's own fixpoint: running it again immediately (with no other
    /// propagator in between) can never prune further. The engine then skips
    /// the self-wakeup a propagator's own prunings would otherwise cause —
    /// on linear-heavy models roughly half of all propagator runs are such
    /// no-op self-reruns. Only return `true` when re-running straight after
    /// a pruning pass is provably a no-op; the default is conservative.
    fn idempotent(&self) -> bool {
        false
    }

    /// Check the constraint on a complete assignment (all dependency
    /// variables fixed). Used by tests and by the final solution validator.
    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool;

    /// The propagator's linear structure, if it has one (see [`LinearView`]).
    /// The conservative default — no linear form — only costs the dual-bound
    /// engines a missed strengthening opportunity, never soundness.
    fn linear_view(&self) -> Option<LinearView<'_>> {
        None
    }

    /// The concrete propagator, for the model-level presolve that hands
    /// some propagators facts derived at the root (see
    /// [`crate::Model::presolve`]). The default opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_tracks_changes_and_conflicts() {
        let mut store = Store::from_domains(vec![Domain::new(0, 10), Domain::new(0, 10)]);
        let mut changed = Vec::new();
        let mut prunings = 0u64;
        let mut ctx = PropagatorContext::new(&mut store, &mut changed, &mut prunings);
        let a = VarId::from_index(0);
        let b = VarId::from_index(1);
        assert_eq!(ctx.set_min(a, 5), Ok(true));
        assert_eq!(ctx.set_min(a, 3), Ok(false));
        assert_eq!(ctx.assign(b, 2), Ok(true));
        assert!(ctx.is_fixed(b));
        assert_eq!(ctx.fixed_value(b), Some(2));
        assert_eq!(ctx.set_min(b, 7), Err(Conflict));
        assert_eq!(changed, vec![a, b]);
        assert_eq!(prunings, 2);
    }

    #[test]
    fn context_remove_value_and_intersect() {
        let mut store = Store::from_domains(vec![Domain::new(0, 5)]);
        let mut changed = Vec::new();
        let mut prunings = 0u64;
        let mut ctx = PropagatorContext::new(&mut store, &mut changed, &mut prunings);
        let v = VarId::from_index(0);
        assert_eq!(ctx.remove_value(v, 3), Ok(true));
        assert_eq!(ctx.intersect(v, 2, 4), Ok(true));
        assert_eq!(ctx.min(v), 2);
        assert_eq!(ctx.max(v), 4);
        assert!(!ctx.domain(v).contains(3));
    }

    // ----- PropQueue scheduling invariants --------------------------------
    //
    // The queue is the fixpoint scheduler every propagator run goes through;
    // these tests pin the three properties `Model::propagate_in` relies on.

    #[test]
    fn prop_queue_pops_in_fifo_order() {
        let mut q = crate::store::PropQueue::new();
        q.ensure_capacity(8);
        for p in [5, 2, 7, 0, 3] {
            q.enqueue(p);
        }
        let drained: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![5, 2, 7, 0, 3], "strict arrival order");
    }

    #[test]
    fn prop_queue_dedups_while_pending_but_not_after_pop() {
        let mut q = crate::store::PropQueue::new();
        q.ensure_capacity(4);
        q.enqueue(1);
        q.enqueue(2);
        // Re-enqueueing a pending propagator must be a no-op...
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.pop(), Some(1));
        // ...but once popped it is runnable again and goes to the *back*
        // (FIFO: it must wait for everything already pending).
        q.enqueue(1);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn prop_queue_clear_mid_drain_leaves_no_stale_entries() {
        let mut q = crate::store::PropQueue::new();
        q.ensure_capacity(6);
        for p in 0..6 {
            q.enqueue(p);
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        // A conflict aborts the fixpoint here; the queue must come back
        // empty AND with every queued-flag reset, or the next propagation
        // would silently skip propagators 2..6.
        q.clear();
        assert_eq!(q.pop(), None);
        for p in 0..6 {
            q.enqueue(p);
        }
        let drained: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn prop_queue_is_clean_across_search_space_reuse() {
        use crate::{Model, Objective, SearchConfig, SearchSpace};
        // First search ends in heavy conflict traffic (infeasible model):
        // every propagation aborts through the queue's clear path.
        let mut space = SearchSpace::new();
        let mut infeasible = Model::new();
        let x = infeasible.new_var(0, 3);
        let y = infeasible.new_var(0, 3);
        infeasible.linear_eq(&[(1, x), (1, y)], 2);
        infeasible.linear_ge(&[(1, x), (1, y)], 9);
        let out = infeasible.satisfy_in(&SearchConfig::default(), &mut space);
        assert!(out.solutions.is_empty());
        assert_eq!(space.queue.pop(), None, "queue drained after conflicts");

        // Reusing the same space on a different model must reach the exact
        // fixpoint a fresh space reaches — any stale pending entry or
        // queued-flag from the first search would change the counters.
        let mut m = Model::new();
        let a = m.new_var(0, 9);
        let b = m.new_var(0, 9);
        m.linear_eq(&[(1, a), (1, b)], 9);
        let obj = m.linear_var(&[(3, a), (1, b)], 0);
        let reused = m.solve_in(
            Objective::Minimize(obj),
            &SearchConfig::default(),
            &mut space,
        );
        let fresh = m.minimize(obj, &SearchConfig::default());
        assert_eq!(reused.best_objective, fresh.best_objective);
        assert_eq!(reused.stats.propagations, fresh.stats.propagations);
        assert_eq!(reused.stats.prunings, fresh.stats.prunings);
        assert_eq!(space.queue.pop(), None, "queue empty after reuse");
    }

    #[test]
    fn context_prunings_are_trailed() {
        let mut store = Store::from_domains(vec![Domain::new(0, 10)]);
        store.push_choice();
        let mut changed = Vec::new();
        let mut prunings = 0u64;
        {
            let mut ctx = PropagatorContext::new(&mut store, &mut changed, &mut prunings);
            ctx.set_min(VarId::from_index(0), 4).unwrap();
        }
        assert_eq!(store.domain(0).min(), 4);
        store.backtrack();
        assert_eq!(store.domain(0).min(), 0);
    }
}
