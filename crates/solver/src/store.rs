//! The trail-based domain store: one mutable copy of every variable domain,
//! plus an undo trail that restores search state in O(changes).
//!
//! Before this existed, the search cloned the full `Vec<Domain>` at every
//! node — O(vars × domain-size) per node, which dominated branch-and-bound
//! wall-clock on the paper's COPs. A [`Store`] instead keeps a single
//! mutable domain vector and records, per decision level, the *previous*
//! domain of each variable the first time that variable is touched at the
//! level. Backtracking pops those saved domains back in, undoing exactly the
//! changes made since the matching [`Store::push_choice`].
//!
//! # Trail invariants
//!
//! * A decision level is opened by [`Store::push_choice`] and closed by
//!   [`Store::backtrack`]; level 0 (no open choice) is the root, and
//!   mutations at the root are *not* trailed — they are permanent for the
//!   lifetime of the search (root propagation, or a model's own domains via
//!   [`crate::Model::propagate_root`]).
//! * Each variable is saved at most once per level (`saved_at` tracks the
//!   level of the most recent save); restoring pops entries in reverse
//!   order, so even a redundant save is harmless — the oldest entry of a
//!   level wins.
//! * Mutating operations check for no-ops *before* saving, so a propagator
//!   that re-derives an existing bound costs no trail traffic.
//!
//! [`PropQueue`] is the companion fixpoint scheduler: a dedup'd pending set
//! of propagator indices with all of its allocations (pending stack, queued
//! flags, changed-variable scratch) owned by the caller and reused across
//! every propagation of a search, instead of being reallocated per node.

use crate::domain::Domain;
use crate::model::VarId;

const UNSAVED: u32 = u32::MAX;

/// A single mutable domain vector with an undo trail.
///
/// All domain mutation during search goes through the store so that changes
/// are trailed and can be undone in O(changes) by [`Store::backtrack`].
#[derive(Debug, Clone, Default)]
pub struct Store {
    domains: Vec<Domain>,
    /// Saved `(var, previous domain)` pairs, grouped by decision level.
    trail: Vec<(u32, Domain)>,
    /// Level at which each variable was last saved (`UNSAVED` if none).
    saved_at: Vec<u32>,
    /// Trail length at the opening of each decision level.
    marks: Vec<usize>,
    /// Per-propagator entailment flags: once a propagator reports
    /// [`crate::PropStatus::Entailed`], it cannot prune (or conflict) anywhere
    /// below the current node, so the fixpoint loop skips it until the mark is
    /// undone. Marks set above the root are trailed (`entailed_trail` /
    /// `entailed_marks`) and cleared by [`Store::backtrack`]; root-level marks
    /// are permanent for the search, like root domain mutations.
    entailed: Vec<bool>,
    /// Propagators marked entailed since each open level, grouped by level.
    entailed_trail: Vec<u32>,
    /// `entailed_trail` length at the opening of each decision level.
    entailed_marks: Vec<usize>,
}

// Mutations mirror the `Domain` API: `Err(())` means the domain was wiped
// out, which callers translate into a propagation `Conflict`.
#[allow(clippy::result_unit_err)]
impl Store {
    /// Empty store; populate with [`Store::reset_from`].
    pub fn new() -> Self {
        Store::default()
    }

    /// Build a store owning `domains`, with an empty trail at the root level.
    pub fn from_domains(domains: Vec<Domain>) -> Self {
        let n = domains.len();
        Store {
            domains,
            trail: Vec::new(),
            saved_at: vec![UNSAVED; n],
            marks: Vec::new(),
            entailed: Vec::new(),
            entailed_trail: Vec::new(),
            entailed_marks: Vec::new(),
        }
    }

    /// Take the domains back out (used by [`crate::Model::propagate_root`]).
    pub fn into_domains(self) -> Vec<Domain> {
        self.domains
    }

    /// Reinitialize from root domains, keeping the store's allocations (the
    /// domain vector, trail and bookkeeping) for reuse across searches.
    pub fn reset_from(&mut self, root: &[Domain]) {
        self.trail.clear();
        self.marks.clear();
        self.saved_at.clear();
        self.saved_at.resize(root.len(), UNSAVED);
        self.entailed.clear();
        self.entailed_trail.clear();
        self.entailed_marks.clear();
        let shared = self.domains.len().min(root.len());
        self.domains.truncate(root.len());
        for (d, r) in self.domains.iter_mut().zip(&root[..shared]) {
            d.clone_from(r);
        }
        for r in &root[shared..] {
            self.domains.push(r.clone());
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// All current domains.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Current domain of the variable at `idx`.
    #[inline]
    pub fn domain(&self, idx: usize) -> &Domain {
        &self.domains[idx]
    }

    /// Current decision level (0 = root; mutations at the root are not
    /// trailed and cannot be undone).
    #[inline]
    pub fn level(&self) -> usize {
        self.marks.len()
    }

    /// Number of trail entries currently saved (diagnostics/tests).
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Open a new decision level.
    #[inline]
    pub fn push_choice(&mut self) {
        self.marks.push(self.trail.len());
        self.entailed_marks.push(self.entailed_trail.len());
    }

    /// Undo every change made since the matching [`Store::push_choice`].
    ///
    /// Panics if no decision level is open.
    pub fn backtrack(&mut self) {
        let mark = self.marks.pop().expect("backtrack without push_choice");
        // Restore in reverse push order so that, if a variable was saved more
        // than once within the level, the oldest (pre-level) domain wins.
        for (var, old) in self.trail.drain(mark..).rev() {
            self.saved_at[var as usize] = UNSAVED;
            self.domains[var as usize] = old;
        }
        let emark = self.entailed_marks.pop().expect("entailed mark underflow");
        for p in self.entailed_trail.drain(emark..) {
            self.entailed[p as usize] = false;
        }
    }

    /// Grow the entailment table to cover `num_props` propagators (called by
    /// the propagation loop before draining the queue).
    #[inline]
    pub(crate) fn ensure_entailed_capacity(&mut self, num_props: usize) {
        if self.entailed.len() < num_props {
            self.entailed.resize(num_props, false);
        }
    }

    /// True if propagator `p` reported entailment at this node or an
    /// ancestor: it cannot prune or conflict until the marking level is
    /// backtracked, so propagation skips it.
    #[inline]
    pub(crate) fn is_entailed(&self, p: usize) -> bool {
        self.entailed[p]
    }

    /// Record that propagator `p` is entailed on the current subtree. Undone
    /// by the [`Store::backtrack`] matching the currently open level;
    /// permanent when set at the root.
    #[inline]
    pub(crate) fn mark_entailed(&mut self, p: usize) {
        if !self.entailed[p] {
            self.entailed[p] = true;
            if !self.marks.is_empty() {
                self.entailed_trail.push(p as u32);
            }
        }
    }

    /// Trail the current domain of `idx` if this is its first mutation at the
    /// current level. No-op at the root level.
    #[inline]
    fn save(&mut self, idx: usize) {
        let level = self.marks.len() as u32;
        if level == 0 {
            return;
        }
        if self.saved_at[idx] != level {
            self.saved_at[idx] = level;
            self.trail.push((idx as u32, self.domains[idx].clone()));
        }
    }

    /// Remove every value `< bound` from the domain of `idx`.
    #[inline]
    pub fn remove_below(&mut self, idx: usize, bound: i64) -> Result<bool, ()> {
        if bound <= self.domains[idx].min() {
            return Ok(false);
        }
        self.save(idx);
        self.domains[idx].remove_below(bound)
    }

    /// Remove every value `> bound` from the domain of `idx`.
    #[inline]
    pub fn remove_above(&mut self, idx: usize, bound: i64) -> Result<bool, ()> {
        if bound >= self.domains[idx].max() {
            return Ok(false);
        }
        self.save(idx);
        self.domains[idx].remove_above(bound)
    }

    /// Remove the single value `v` from the domain of `idx`.
    #[inline]
    pub fn remove_value(&mut self, idx: usize, v: i64) -> Result<bool, ()> {
        if !self.domains[idx].contains(v) {
            return Ok(false);
        }
        if self.domains[idx].is_fixed() {
            return Err(());
        }
        self.save(idx);
        self.domains[idx].remove_value(v)
    }

    /// Reduce the domain of `idx` to the single value `v`.
    #[inline]
    pub fn assign(&mut self, idx: usize, v: i64) -> Result<bool, ()> {
        if !self.domains[idx].contains(v) {
            return Err(());
        }
        if self.domains[idx].is_fixed() {
            return Ok(false);
        }
        self.save(idx);
        self.domains[idx].assign(v)
    }

    /// Intersect the domain of `idx` with `[lo, hi]`.
    #[inline]
    pub fn intersect_bounds(&mut self, idx: usize, lo: i64, hi: i64) -> Result<bool, ()> {
        let d = &self.domains[idx];
        if lo <= d.min() && hi >= d.max() {
            return Ok(false);
        }
        self.save(idx);
        self.domains[idx].intersect_bounds(lo, hi)
    }
}

/// Reusable propagation queue: the dedup'd set of propagators waiting to run
/// to fixpoint, plus the changed-variable scratch used to schedule their
/// dependents.
///
/// One `PropQueue` lives for the whole search (inside
/// [`crate::SearchSpace`]); [`crate::Model`] drains it to a fixpoint per
/// propagation and leaves it empty, so no per-node allocation happens. The
/// scheduling discipline is FIFO: a propagator woken by a domain change
/// waits for everything already pending, which stops two tightly coupled
/// propagators from ping-ponging at the head of the queue while the rest of
/// the model's pruning (which could fail the node outright) starves —
/// measured on the ACloud balance COP this roughly halves propagator runs
/// per search node versus LIFO.
#[derive(Debug, Clone, Default)]
pub struct PropQueue {
    pending: std::collections::VecDeque<usize>,
    queued: Vec<bool>,
    pub(crate) changed: Vec<VarId>,
}

impl PropQueue {
    /// Fresh empty queue.
    pub fn new() -> Self {
        PropQueue::default()
    }

    /// Grow the dedup table to cover `num_props` propagators.
    #[inline]
    pub(crate) fn ensure_capacity(&mut self, num_props: usize) {
        if self.queued.len() < num_props {
            self.queued.resize(num_props, false);
        }
    }

    /// Add a propagator to the pending set unless it is already queued.
    #[inline]
    pub(crate) fn enqueue(&mut self, p: usize) {
        if !self.queued[p] {
            self.queued[p] = true;
            self.pending.push_back(p);
        }
    }

    /// Pop the oldest pending propagator (FIFO).
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let p = self.pending.pop_front()?;
        self.queued[p] = false;
        Some(p)
    }

    /// Drop all pending work (used after a conflict aborts a fixpoint), so
    /// the queue is clean for the next propagation.
    pub(crate) fn clear(&mut self) {
        while let Some(p) = self.pending.pop_front() {
            self.queued[p] = false;
        }
        self.changed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_over(bounds: &[(i64, i64)]) -> Store {
        Store::from_domains(bounds.iter().map(|&(l, h)| Domain::new(l, h)).collect())
    }

    #[test]
    fn root_mutations_are_not_trailed() {
        let mut s = store_over(&[(0, 9)]);
        assert_eq!(s.level(), 0);
        s.remove_below(0, 3).unwrap();
        assert_eq!(s.trail_len(), 0);
        assert_eq!(s.domain(0).min(), 3);
    }

    #[test]
    fn backtrack_restores_exactly_one_level() {
        let mut s = store_over(&[(0, 9), (0, 9)]);
        s.remove_below(0, 2).unwrap(); // root, permanent
        s.push_choice();
        s.assign(0, 5).unwrap();
        s.remove_above(1, 4).unwrap();
        s.push_choice();
        s.assign(1, 0).unwrap();
        assert_eq!(s.domain(0).fixed_value(), Some(5));
        assert_eq!(s.domain(1).fixed_value(), Some(0));
        s.backtrack();
        assert_eq!(s.domain(0).fixed_value(), Some(5), "outer level untouched");
        assert_eq!(s.domain(1).max(), 4);
        s.backtrack();
        assert_eq!(s.domain(0).min(), 2, "root mutation survives");
        assert_eq!(s.domain(0).max(), 9);
        assert_eq!(s.domain(1).max(), 9);
        assert_eq!(s.trail_len(), 0);
    }

    #[test]
    fn repeated_mutations_in_a_level_save_once() {
        let mut s = store_over(&[(0, 100)]);
        s.push_choice();
        s.remove_below(0, 10).unwrap();
        s.remove_below(0, 20).unwrap();
        s.remove_above(0, 50).unwrap();
        assert_eq!(s.trail_len(), 1);
        s.backtrack();
        assert_eq!((s.domain(0).min(), s.domain(0).max()), (0, 100));
    }

    #[test]
    fn noop_mutations_leave_no_trail() {
        let mut s = store_over(&[(0, 9)]);
        s.push_choice();
        assert_eq!(s.remove_below(0, 0), Ok(false));
        assert_eq!(s.remove_above(0, 9), Ok(false));
        assert_eq!(s.remove_value(0, 42), Ok(false));
        assert_eq!(s.intersect_bounds(0, -5, 20), Ok(false));
        assert_eq!(s.trail_len(), 0);
    }

    #[test]
    fn failed_mutation_is_still_restored() {
        let mut s = store_over(&[(0, 9)]);
        s.push_choice();
        // intersect saves before discovering the wipe-out; backtrack must
        // still restore the original domain
        assert!(s.intersect_bounds(0, 20, 30).is_err());
        s.backtrack();
        assert_eq!((s.domain(0).min(), s.domain(0).max()), (0, 9));
    }

    #[test]
    fn reset_from_clears_state_and_reuses_allocations() {
        let mut s = store_over(&[(0, 9), (0, 9)]);
        s.push_choice();
        s.assign(0, 1).unwrap();
        let roots = vec![Domain::new(-3, 3)];
        s.reset_from(&roots);
        assert_eq!(s.num_vars(), 1);
        assert_eq!(s.level(), 0);
        assert_eq!(s.trail_len(), 0);
        assert_eq!((s.domain(0).min(), s.domain(0).max()), (-3, 3));
    }

    #[test]
    fn relevel_after_backtrack_saves_again() {
        // A var saved at level 1, backtracked, then saved at a fresh level 1
        // must restore correctly both times.
        let mut s = store_over(&[(0, 9)]);
        s.push_choice();
        s.assign(0, 3).unwrap();
        s.backtrack();
        s.push_choice();
        s.assign(0, 7).unwrap();
        assert_eq!(s.domain(0).fixed_value(), Some(7));
        s.backtrack();
        assert_eq!((s.domain(0).min(), s.domain(0).max()), (0, 9));
    }

    #[test]
    fn prop_queue_dedups_and_clears() {
        let mut q = PropQueue::new();
        q.ensure_capacity(4);
        q.enqueue(1);
        q.enqueue(3);
        q.enqueue(1); // dedup: still queued
        assert_eq!(q.pop(), Some(1));
        q.enqueue(1);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        q.enqueue(0);
        q.enqueue(2);
        q.clear();
        assert_eq!(q.pop(), None);
        // flags were reset: re-enqueueing works
        q.enqueue(2);
        assert_eq!(q.pop(), Some(2));
    }
}
