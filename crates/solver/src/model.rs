//! The constraint model: variables, propagators and the propagation engine.
//!
//! # Propagation-queue semantics
//!
//! Propagation runs to a fixpoint on a dedup'd pending set of propagators
//! (a [`PropQueue`]): whenever a domain changes, every propagator subscribed
//! to that variable is enqueued (at most once — the queue dedups) and the
//! loop pops pending propagators FIFO until the set drains or a conflict is
//! found. The queue is *seeded* either with every propagator (root
//! propagation, or after the branch-and-bound objective bound tightens) or
//! with only the propagators watching a just-branched variable
//! (`Model::props_watching`, private), so a branching decision never rescans
//! unrelated constraints. All propagation state — the queue itself and the
//! trail-backed domain [`Store`] it mutates — is owned by the caller (a
//! [`crate::SearchSpace`]) and reused across nodes and invocations; the
//! engine performs no per-node allocation.
//!
//! Two classic run-count optimizations sit on top of the plain fixpoint
//! loop, both preserving the fixpoint exactly (bounds-consistent propagators
//! are monotone, so the fixpoint is unique regardless of scheduling):
//!
//! * **Entailment**: a propagator returning [`PropStatus::Entailed`]
//!   is skipped until the search backtracks above the node that marked it
//!   (the mark is trailed on the [`Store`]). An entailed constraint can
//!   neither prune nor conflict on any descendant, so the skips are free.
//! * **Idempotence**: a propagator whose single `prune` call reaches its own
//!   fixpoint ([`crate::Propagator::idempotent`]) is not re-enqueued by its
//!   own prunings — on linear-heavy models roughly half of all propagator
//!   runs used to be exactly such no-op self-wakeups.

use crate::domain::Domain;
use crate::expr::LinExpr;
use crate::propagator::{Conflict, LinearView, PropStatus, PropagatorContext};
use crate::propagators::variance::variance_cap;
use crate::propagators::{
    AbsVal, LinearEq, LinearLe, LinearNe, MaxOfArray, MinOfArray, MulVar, NValues, ReifLinearEq,
    ReifLinearLe, ScaledVariance,
};
use crate::search::{self, Objective, SearchConfig, SearchOutcome, SearchSpace};
use crate::stats::SearchStats;
use crate::store::{PropQueue, Store};
use crate::Propagator;

/// The equality `y + Σ cⱼ·vⱼ == bound` defining a variable `y`, as its other
/// terms and its bound: `y == bound − Σ cⱼ·vⱼ`.
type Definition<'a> = (&'a [(i64, VarId)], i64);

/// Handle to an integer decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// Index of the variable inside the model's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a `VarId` from a raw index (used by the engine and tests).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        VarId(i as u32)
    }
}

/// A constraint optimization model.
///
/// Mirrors the role of a Gecode `Space` in the paper: the Cologne runtime
/// creates one `Model` per COP invocation, posts variables and constraints
/// derived from the Colog program, then runs branch-and-bound search.
pub struct Model {
    domains: Vec<Domain>,
    propagators: Vec<Box<dyn Propagator>>,
    /// var index -> propagator indices subscribed to it
    subscriptions: Vec<Vec<usize>>,
    /// Variables marked as *decision* variables ([`Model::mark_decision`]):
    /// the neighborhood pool of the LNS mode. Empty means "no marking" —
    /// LNS then treats every root-unfixed variable as a decision variable.
    decisions: Vec<VarId>,
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

impl Model {
    /// Create an empty model.
    pub fn new() -> Self {
        Model {
            domains: Vec::new(),
            propagators: Vec::new(),
            subscriptions: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Number of posted propagators.
    pub fn num_propagators(&self) -> usize {
        self.propagators.len()
    }

    /// Clear all variables and propagators while keeping the backing
    /// allocations (domain/propagator vectors and the per-variable
    /// subscription lists), so the arena is recycled across repeated COP
    /// invocations instead of being reallocated from scratch.
    pub fn reset(&mut self) {
        self.domains.clear();
        self.propagators.clear();
        self.decisions.clear();
        for subs in &mut self.subscriptions {
            subs.clear();
        }
    }

    fn push_var_storage(&mut self, domain: Domain) -> VarId {
        let id = VarId(self.domains.len() as u32);
        self.domains.push(domain);
        // After a reset, cleared subscription slots from the previous
        // generation are reused in place.
        if self.subscriptions.len() < self.domains.len() {
            self.subscriptions.push(Vec::new());
        }
        id
    }

    /// Create a new variable with domain `[lo, hi]`.
    pub fn new_var(&mut self, lo: i64, hi: i64) -> VarId {
        self.push_var_storage(Domain::new(lo, hi))
    }

    /// Create a 0/1 boolean variable.
    pub fn new_bool(&mut self) -> VarId {
        self.new_var(0, 1)
    }

    /// Create a variable constrained to an explicit value set.
    pub fn new_var_from_values(&mut self, values: &[i64]) -> VarId {
        self.push_var_storage(Domain::from_values(values))
    }

    /// Create a variable already fixed to `v`.
    pub fn new_const(&mut self, v: i64) -> VarId {
        self.new_var(v, v)
    }

    /// Mark `v` as a *decision* variable: part of the neighborhood pool the
    /// LNS mode destroys and repairs. Auxiliary variables (linear-expression
    /// results, reified booleans, aggregate values) are functionally
    /// determined by the decisions and should stay unmarked — freezing them
    /// alongside their decisions would pin the very quantities a repair must
    /// be free to change. A model with no marked variables falls back to
    /// treating every root-unfixed variable as a decision.
    pub fn mark_decision(&mut self, v: VarId) {
        self.decisions.push(v);
    }

    /// Variables marked with [`Model::mark_decision`], in marking order.
    pub fn decision_vars(&self) -> &[VarId] {
        &self.decisions
    }

    /// Current (root) domain of a variable.
    pub fn domain(&self, v: VarId) -> &Domain {
        &self.domains[v.index()]
    }

    /// Root domains of every variable, indexed by [`VarId`]. This is the
    /// domain slice external [`crate::bounds::DualBound`] callers hand to an
    /// engine when they have not propagated a tighter root themselves.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Indices of the propagators subscribed to the variable at `var_idx`
    /// (used by the search to seed the propagation queue after a branching
    /// decision without rescanning every propagator's dependencies).
    #[inline]
    pub(crate) fn props_watching(&self, var_idx: usize) -> &[usize] {
        &self.subscriptions[var_idx]
    }

    /// The posted propagators. Exposed so callers (tests, validators) can
    /// re-check a complete assignment against every constraint.
    pub fn propagators(&self) -> &[Box<dyn Propagator>] {
        &self.propagators
    }

    /// Post a propagator.
    pub fn post<P: Propagator + 'static>(&mut self, p: P) {
        let idx = self.propagators.len();
        for v in p.dependencies() {
            assert!(
                v.index() < self.domains.len(),
                "propagator references unknown variable {v:?}"
            );
            self.subscriptions[v.index()].push(idx);
        }
        self.propagators.push(Box::new(p));
    }

    // ----- convenience constraint posting ---------------------------------

    /// `Σ terms <= bound`
    pub fn linear_le(&mut self, terms: &[(i64, VarId)], bound: i64) {
        self.post(LinearLe::new(terms.to_vec(), bound));
    }

    /// `Σ terms >= bound`
    pub fn linear_ge(&mut self, terms: &[(i64, VarId)], bound: i64) {
        let neg: Vec<(i64, VarId)> = terms.iter().map(|&(c, v)| (-c, v)).collect();
        self.post(LinearLe::new(neg, -bound));
    }

    /// `Σ terms == bound`
    pub fn linear_eq(&mut self, terms: &[(i64, VarId)], bound: i64) {
        self.post(LinearEq::new(terms.to_vec(), bound));
    }

    /// `Σ terms != bound`
    pub fn linear_ne(&mut self, terms: &[(i64, VarId)], bound: i64) {
        self.post(LinearNe::new(terms.to_vec(), bound));
    }

    /// `b <=> (Σ terms <= bound)`
    pub fn reif_linear_le(&mut self, b: VarId, terms: &[(i64, VarId)], bound: i64) {
        self.post(ReifLinearLe::new(b, terms.to_vec(), bound));
    }

    /// `b <=> (Σ terms == bound)`
    pub fn reif_linear_eq(&mut self, b: VarId, terms: &[(i64, VarId)], bound: i64) {
        self.post(ReifLinearEq::new(b, terms.to_vec(), bound));
    }

    /// Returns a fresh variable constrained to equal the linear expression
    /// `Σ terms + constant`.
    pub fn linear_var(&mut self, terms: &[(i64, VarId)], constant: i64) -> VarId {
        let mut lo = constant;
        let mut hi = constant;
        for &(c, v) in terms {
            let (dl, dh) = (self.domain(v).min(), self.domain(v).max());
            if c >= 0 {
                lo += c * dl;
                hi += c * dh;
            } else {
                lo += c * dh;
                hi += c * dl;
            }
        }
        let z = self.new_var(lo, hi);
        // z - Σ terms == constant
        let mut eq_terms = vec![(1i64, z)];
        for &(c, v) in terms {
            eq_terms.push((-c, v));
        }
        self.linear_eq(&eq_terms, constant);
        z
    }

    /// Returns a fresh variable constrained to equal `expr`.
    pub fn expr_var(&mut self, expr: &LinExpr) -> VarId {
        let n = expr.normalized();
        self.linear_var(&n.terms, n.constant)
    }

    /// Returns a fresh variable `z == |x|`.
    pub fn abs_var(&mut self, x: VarId) -> VarId {
        let (l, h) = (self.domain(x).min(), self.domain(x).max());
        let hi = l.abs().max(h.abs());
        let z = self.new_var(0, hi);
        self.post(AbsVal::new(z, x));
        z
    }

    /// Returns a fresh variable `z == x * y`.
    pub fn mul_var(&mut self, x: VarId, y: VarId) -> VarId {
        let (xl, xu) = (self.domain(x).min(), self.domain(x).max());
        let (yl, yu) = (self.domain(y).min(), self.domain(y).max());
        let cands = [xl * yl, xl * yu, xu * yl, xu * yu];
        let z = self.new_var(*cands.iter().min().unwrap(), *cands.iter().max().unwrap());
        self.post(MulVar::new(z, x, y));
        z
    }

    /// Returns a fresh variable equal to `Σ |x_i|` (the `SUMABS` aggregate).
    pub fn sum_abs_var(&mut self, xs: &[VarId]) -> VarId {
        let abs_vars: Vec<VarId> = xs.iter().map(|&x| self.abs_var(x)).collect();
        let terms: Vec<(i64, VarId)> = abs_vars.into_iter().map(|v| (1, v)).collect();
        self.linear_var(&terms, 0)
    }

    /// Returns a fresh variable equal to the number of distinct values among
    /// `xs` (the `UNIQUE` aggregate).
    pub fn nvalues_var(&mut self, xs: &[VarId]) -> VarId {
        let n = self.new_var(1, xs.len() as i64);
        self.post(NValues::new(n, xs.to_vec()));
        n
    }

    /// Returns a fresh variable equal to `max(xs)`.
    pub fn max_var(&mut self, xs: &[VarId]) -> VarId {
        let lo = xs.iter().map(|&x| self.domain(x).min()).max().unwrap();
        let hi = xs.iter().map(|&x| self.domain(x).max()).max().unwrap();
        let z = self.new_var(lo.min(hi), hi);
        self.post(MaxOfArray::new(z, xs.to_vec()));
        z
    }

    /// Returns a fresh variable equal to `min(xs)`.
    pub fn min_var(&mut self, xs: &[VarId]) -> VarId {
        let lo = xs.iter().map(|&x| self.domain(x).min()).min().unwrap();
        let hi = xs.iter().map(|&x| self.domain(x).max()).min().unwrap();
        let z = self.new_var(lo, hi.max(lo));
        self.post(MinOfArray::new(z, xs.to_vec()));
        z
    }

    /// Returns a fresh variable equal to the scaled variance
    /// `k·Σ x_i² − (Σ x_i)²` where `k = xs.len()`.
    ///
    /// Minimizing this integer expression is equivalent to minimizing the
    /// standard deviation of `xs`; it is how the Colog `STDEV` goal of the
    /// ACloud program (rule `d2`) is lowered onto an integer solver. One
    /// [`ScaledVariance`] propagator bounds it over all of `xs` at once;
    /// [`Model::presolve`] gives it the total of `xs` when the model fixes
    /// one.
    pub fn scaled_variance_var(&mut self, xs: &[VarId]) -> VarId {
        let boxes = xs
            .iter()
            .map(|&x| (self.domain(x).min(), self.domain(x).max()));
        // Root propagation lifts the floor. An overflowing cap stops short of
        // `i64::MAX`, keeping the domain size representable.
        let cap = variance_cap(boxes).and_then(|c| i64::try_from(c).ok());
        let z = self.new_var(0, cap.unwrap_or(i64::MAX - 1));
        self.post(ScaledVariance::new(z, xs.to_vec()));
        z
    }

    // ----- propagation -----------------------------------------------------

    /// Run the propagation fixpoint on a trail-backed store.
    ///
    /// The queue is seeded with every propagator (`seed: None`) or with an
    /// explicit set of propagator indices, then drained to a fixpoint. On a
    /// conflict the queue is emptied before returning, so it is always clean
    /// for the next propagation. Prunings performed before the conflict stay
    /// on the store's trail and are undone by the caller's backtrack.
    pub(crate) fn propagate_in(
        &self,
        store: &mut Store,
        queue: &mut PropQueue,
        stats: &mut SearchStats,
        seed: Option<&[usize]>,
    ) -> Result<(), Conflict> {
        queue.ensure_capacity(self.propagators.len());
        store.ensure_entailed_capacity(self.propagators.len());
        match seed {
            None => {
                for p in 0..self.propagators.len() {
                    queue.enqueue(p);
                }
            }
            Some(s) => {
                for &p in s {
                    queue.enqueue(p);
                }
            }
        }
        while let Some(pidx) = queue.pop() {
            // An entailed propagator cannot prune or conflict anywhere below
            // the node that marked it; skip until backtrack clears the mark.
            if store.is_entailed(pidx) {
                continue;
            }
            stats.propagations += 1;
            // Temporarily detach the changed-variable scratch so the context
            // can borrow it alongside the queue's other fields.
            let mut changed = std::mem::take(&mut queue.changed);
            changed.clear();
            let result = {
                let mut ctx = PropagatorContext::new(store, &mut changed, &mut stats.prunings);
                self.propagators[pidx].prune(&mut ctx)
            };
            match result {
                Ok(status) => {
                    if status == PropStatus::Entailed {
                        store.mark_entailed(pidx);
                    }
                    // A propagator whose single run reaches its own fixpoint
                    // (and an entailed one, which can never prune again on
                    // this subtree) skips the wakeup its own prunings would
                    // otherwise trigger.
                    let skip_self =
                        status == PropStatus::Entailed || self.propagators[pidx].idempotent();
                    for v in changed.drain(..) {
                        for &dep in &self.subscriptions[v.index()] {
                            if !(skip_self && dep == pidx) {
                                queue.enqueue(dep);
                            }
                        }
                    }
                    queue.changed = changed;
                }
                Err(conflict) => {
                    changed.clear();
                    queue.changed = changed;
                    queue.clear();
                    return Err(conflict);
                }
            }
        }
        Ok(())
    }

    /// Propagate directly on the model's root domains (used by tests and to
    /// detect root infeasibility before search).
    pub fn propagate_root(&mut self) -> Result<(), Conflict> {
        let mut stats = SearchStats::default();
        let mut store = Store::from_domains(std::mem::take(&mut self.domains));
        let mut queue = PropQueue::new();
        let result = self.propagate_in(&mut store, &mut queue, &mut stats, None);
        self.domains = store.into_domains();
        result
    }

    /// Give every [`ScaledVariance`] the total of its operands when the
    /// root fixpoint fixes one, so it also filters the loads against the
    /// incumbent. The operands are expanded through their definitions (the
    /// equalities [`Model::linear_var`] posts) down to leaves, and the
    /// leaves must fall into fixed plain sums whose unfixed members share
    /// one coefficient: in ACloud, each VM's host count, fixed to 1 by rule
    /// c1 (see `fixed_total`). The root domains become that
    /// fixpoint, and the searches find their root already propagated. A
    /// model where no total is found is left untouched, as is one whose root
    /// conflicts (the search reports it). Returns each variance's total, in
    /// posting order; a variance that has one keeps it. The grounder calls
    /// this once per grounded model.
    pub fn presolve(&mut self) -> Vec<Option<i64>> {
        let variances: Vec<usize> = (0..self.propagators.len())
            .filter(|&i| self.variance_mut(i).is_some())
            .collect();
        if variances.is_empty() {
            return Vec::new();
        }
        let mut store = Store::from_domains(self.domains.clone());
        let (mut queue, mut stats) = (PropQueue::new(), SearchStats::default());
        let root_ok = self
            .propagate_in(&mut store, &mut queue, &mut stats, None)
            .is_ok();
        let root = store.into_domains();
        let mut totals = Vec::with_capacity(variances.len());
        let mut learned = false;
        for &i in &variances {
            let variance = self.variance_mut(i).expect("a variance");
            if variance.total.is_none() && root_ok {
                let xs = std::mem::take(&mut variance.xs);
                let total = self.fixed_total(&root, &xs);
                let variance = self.variance_mut(i).expect("a variance");
                (variance.xs, variance.total) = (xs, total);
                if total.is_some() {
                    let z = variance.z;
                    self.subscriptions[z.index()].push(i);
                    learned = true;
                }
            }
            totals.push(self.variance_mut(i).expect("a variance").total);
        }
        if learned {
            // The floor over the boxes cut by the total lifts `z` at the root.
            let mut store = Store::from_domains(root);
            let _ = self.propagate_in(&mut store, &mut queue, &mut stats, Some(&variances));
            self.domains = store.into_domains();
        }
        totals
    }

    fn variance_mut(&mut self, i: usize) -> Option<&mut ScaledVariance> {
        self.propagators[i].as_any_mut()?.downcast_mut()
    }

    /// `Σ xs`, when the `root` domains fix it.
    ///
    /// The sum is expanded through the variables' definitions: `y` is
    /// defined by the equality whose first term is `(1, y)` and whose other
    /// variables are all older (the shape [`Model::linear_var`] posts), and
    /// fixed variables are constants. What is left are leaves. Each leaf
    /// must belong to a *group*: the members of a fixed plain sum
    /// `s == b + Σ members` (every coefficient 1; in ACloud `assignCount(v)`,
    /// fixed to 1 by rule c1), whose unfixed members all carry the same
    /// coefficient in the expansion. Then `Σ xs` is the constant plus each
    /// group's coefficient times its members' fixed sum. Anything else, or
    /// an overflow, gives `None`. Linear in the model's size.
    fn fixed_total(&self, root: &[Domain], xs: &[VarId]) -> Option<i64> {
        let n = root.len();
        let fixed = |v: usize| root[v].fixed_value().map(i128::from);
        let mut defs: Vec<Option<Definition>> = vec![None; n];
        for p in &self.propagators {
            if let Some(LinearView::Eq { terms, bound }) = p.linear_view() {
                if let Some((&(1, y), rest)) = terms.split_first() {
                    if rest.iter().all(|&(_, v)| v < y) && defs[y.index()].is_none() {
                        defs[y.index()] = Some((rest, bound));
                    }
                }
            }
        }
        // Newest first, so a definition is expanded after every use of it.
        let mut coef = vec![0i128; n];
        for &x in xs {
            coef[x.index()] += 1;
        }
        let mut constant = 0i128;
        for y in (0..n).rev() {
            let c = coef[y];
            if c == 0 {
                continue;
            }
            if let Some(value) = fixed(y) {
                constant = constant.checked_add(c.checked_mul(value)?)?;
            } else if let Some((rest, bound)) = defs[y] {
                // y == bound − Σ cⱼ·vⱼ
                constant = constant.checked_add(c.checked_mul(bound.into())?)?;
                for &(cj, v) in rest {
                    let term = c.checked_mul(cj.into())?;
                    coef[v.index()] = coef[v.index()].checked_sub(term)?;
                }
            } else {
                continue;
            }
            coef[y] = 0;
        }
        // The fixed plain sums, and the first one each variable is a member of.
        let groups: Vec<(usize, Definition)> = (0..n)
            .filter_map(|s| {
                let (rest, bound) = defs[s]?;
                let plain = fixed(s).is_some() && rest.iter().all(|&(c, _)| c == -1);
                plain.then_some((s, (rest, bound)))
            })
            .collect();
        let mut group_of = vec![usize::MAX; n];
        for (g, &(_, (rest, _))) in groups.iter().enumerate() {
            for &(_, v) in rest {
                if group_of[v.index()] == g {
                    return None; // a repeated member
                }
                if group_of[v.index()] == usize::MAX {
                    group_of[v.index()] = g;
                }
            }
        }
        let mut group_coef: Vec<Option<i128>> = vec![None; groups.len()];
        for leaf in (0..n).filter(|&v| coef[v] != 0) {
            let slot = group_coef.get_mut(group_of[leaf])?;
            if *slot.get_or_insert(coef[leaf]) != coef[leaf] {
                return None;
            }
        }
        let mut total = constant;
        for (g, (&(s, (rest, bound)), a)) in groups.iter().zip(group_coef).enumerate() {
            let Some(a) = a else { continue };
            let mut members = fixed(s)? - i128::from(bound);
            for &(_, v) in rest {
                match fixed(v.index()) {
                    Some(value) => members -= value,
                    None if group_of[v.index()] == g && coef[v.index()] == a => {}
                    None => return None,
                }
            }
            total = total.checked_add(a.checked_mul(members)?)?;
        }
        i64::try_from(total).ok()
    }

    // ----- search entry points ---------------------------------------------

    /// Run a search for `objective`, reusing the caller's [`SearchSpace`]
    /// (trail-backed store, propagation queue and decision stack) across
    /// invocations. This is the repeated-invocation hot path; the
    /// convenience wrappers below allocate a fresh space per call.
    pub fn solve_in(
        &self,
        objective: Objective,
        config: &SearchConfig,
        space: &mut SearchSpace,
    ) -> SearchOutcome {
        search::solve_in(self, objective, config, space)
    }

    /// Minimize the variable `obj` under the model's constraints.
    pub fn minimize(&self, obj: VarId, config: &SearchConfig) -> SearchOutcome {
        search::solve(self, Objective::Minimize(obj), config)
    }

    /// Maximize the variable `obj` under the model's constraints.
    pub fn maximize(&self, obj: VarId, config: &SearchConfig) -> SearchOutcome {
        search::solve(self, Objective::Maximize(obj), config)
    }

    /// Find one solution satisfying the constraints (the `goal satisfy` form).
    pub fn satisfy(&self, config: &SearchConfig) -> SearchOutcome {
        let mut space = SearchSpace::new();
        self.satisfy_in(config, &mut space)
    }

    /// [`Model::satisfy`] with a caller-provided reusable [`SearchSpace`].
    pub fn satisfy_in(&self, config: &SearchConfig, space: &mut SearchSpace) -> SearchOutcome {
        let cfg = SearchConfig {
            max_solutions: Some(config.max_solutions.unwrap_or(1)),
            ..config.clone()
        };
        self.solve_in(Objective::Satisfy, &cfg, space)
    }

    /// Enumerate solutions (bounded by `config.max_solutions` if set).
    pub fn solve_all(&self, config: &SearchConfig) -> SearchOutcome {
        search::solve(self, Objective::Satisfy, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchConfig, StopReason};

    #[test]
    fn var_creation_and_lookup() {
        let mut m = Model::new();
        let a = m.new_var(0, 5);
        let b = m.new_bool();
        let c = m.new_const(42);
        let d = m.new_var_from_values(&[2, 4, 8]);
        assert_eq!(m.num_vars(), 4);
        assert_eq!(m.domain(a).size(), 6);
        assert_eq!(m.domain(b).size(), 2);
        assert_eq!(m.domain(c).fixed_value(), Some(42));
        assert_eq!(m.domain(d).size(), 3);
    }

    #[test]
    fn linear_var_bounds_are_tight() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let y = m.new_var(-2, 2);
        let z = m.linear_var(&[(2, x), (-3, y)], 1);
        assert_eq!(m.domain(z).min(), 1 - 6);
        assert_eq!(m.domain(z).max(), 1 + 6 + 6);
    }

    #[test]
    fn expr_var_matches_linear_var() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let e = LinExpr::scaled_var(2, x).plus(&LinExpr::constant(5));
        let z = m.expr_var(&e);
        m.propagate_root().unwrap();
        assert_eq!(m.domain(z).min(), 5);
        assert_eq!(m.domain(z).max(), 11);
    }

    #[test]
    fn scaled_variance_minimized_by_balanced_assignment() {
        // Two hosts, total load 10 split x + y = 10; variance minimal at 5/5.
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let y = m.new_var(0, 10);
        m.linear_eq(&[(1, x), (1, y)], 10);
        let var = m.scaled_variance_var(&[x, y]);
        let out = m.minimize(var, &SearchConfig::default());
        let best = out.best.unwrap();
        assert_eq!(best.value(x), 5);
        assert_eq!(best.value(y), 5);
        assert_eq!(best.value(var), 0);
    }

    /// ACloud in miniature: VM `v` on host `h` adds `cpu(v, h)` to the
    /// host's load over its base; with `one_host` each VM's host count is
    /// fixed to 1 through a reified equality, as rule c1 grounds it.
    fn placement(
        m: &mut Model,
        vms: usize,
        bases: &[i64],
        cpu: impl Fn(usize, usize) -> i64,
        one_host: bool,
    ) -> VarId {
        let assign: Vec<Vec<VarId>> = (0..vms)
            .map(|_| bases.iter().map(|_| m.new_bool()).collect())
            .collect();
        for row in &assign {
            let terms: Vec<(i64, VarId)> = row.iter().map(|&a| (1, a)).collect();
            let count = m.linear_var(&terms, 0);
            if one_host {
                let b = m.new_bool();
                m.reif_linear_eq(b, &[(1, count)], 1);
                m.linear_eq(&[(1, b)], 1);
            }
        }
        let loads: Vec<VarId> = (0..bases.len())
            .map(|h| {
                let terms: Vec<(i64, VarId)> =
                    (0..vms).map(|v| (cpu(v, h), assign[v][h])).collect();
                let cpu = m.linear_var(&terms, 0);
                m.linear_var(&[(1, cpu)], bases[h])
            })
            .collect();
        m.scaled_variance_var(&loads)
    }

    #[test]
    fn presolve_learns_the_total_of_a_placement() {
        let (cpus, bases) = ([4, 7, 9, 5], [1, 0, 3]);
        let build = |m: &mut Model| placement(m, 4, &bases, |v, _| cpus[v], true);
        let mut m = Model::new();
        let z = build(&mut m);
        assert_eq!(m.presolve(), vec![Some(25 + 4)]);
        assert_eq!(m.presolve(), vec![Some(29)], "a variance keeps its total");
        let learned = m.minimize(z, &SearchConfig::default());
        let mut plain = Model::new();
        let plain_z = build(&mut plain);
        let reference = plain.minimize(plain_z, &SearchConfig::default());
        assert_eq!(learned.stop, StopReason::Complete);
        assert_eq!(learned.best_objective, reference.best_objective);
        assert!(learned.stats.nodes < reference.stats.nodes);
        // A VM that weighs differently on different hosts leaves the total
        // open.
        let mut skewed = Model::new();
        placement(&mut skewed, 4, &bases, |v, h| cpus[v] + h as i64, true);
        assert_eq!(skewed.presolve(), vec![None]);
    }

    #[test]
    fn presolve_without_a_total_leaves_the_model_untouched() {
        // Without the one-host rule a VM may sit nowhere: the total is open.
        let run = |presolve: bool| {
            let mut m = Model::new();
            let z = placement(&mut m, 4, &[1, 0, 3], |v, _| [4, 7, 9, 5][v], false);
            if presolve {
                assert_eq!(m.presolve(), vec![None]);
            }
            let out = m.minimize(z, &SearchConfig::default());
            let s = out.stats;
            (
                out.best_objective,
                s.nodes,
                s.fails,
                s.propagations,
                s.prunings,
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn satisfy_returns_single_solution() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let y = m.new_var(0, 3);
        m.linear_eq(&[(1, x), (1, y)], 3);
        let out = m.satisfy(&SearchConfig::default());
        assert_eq!(out.solutions.len(), 1);
        let s = &out.solutions[0];
        assert_eq!(s.value(x) + s.value(y), 3);
    }

    #[test]
    fn solve_all_enumerates_everything() {
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_var(0, 2);
        m.linear_le(&[(1, x), (1, y)], 2);
        let out = m.solve_all(&SearchConfig::default());
        // pairs with x+y<=2: (0,0)(0,1)(0,2)(1,0)(1,1)(2,0) = 6
        assert_eq!(out.solutions.len(), 6);
        assert_eq!(out.stop, StopReason::Complete);
    }

    #[test]
    fn root_infeasible_detected() {
        let mut m = Model::new();
        let x = m.new_var(0, 1);
        m.linear_ge(&[(1, x)], 5);
        assert!(m.propagate_root().is_err());
        let out = m.satisfy(&SearchConfig::default());
        assert!(out.solutions.is_empty());
        assert!(out.best.is_none());
    }

    #[test]
    #[should_panic]
    fn posting_unknown_variable_panics() {
        let mut m = Model::new();
        let mut other = Model::new();
        let _x = m.new_var(0, 1);
        let y = other.new_var(0, 1);
        let z = other.new_var(0, 1);
        let _ = (y, z);
        // y/z do not exist in m (index out of bounds)
        m.linear_le(&[(1, VarId::from_index(5))], 1);
    }

    #[test]
    fn reset_recycles_arena_and_rebuilds_identically() {
        let build = |m: &mut Model| {
            let x = m.new_var(0, 9);
            let y = m.new_var(0, 9);
            m.linear_eq(&[(1, x), (1, y)], 9);
            m.linear_var(&[(3, x), (1, y)], 0)
        };
        let mut fresh = Model::new();
        let obj_fresh = build(&mut fresh);
        let expected = fresh
            .minimize(obj_fresh, &SearchConfig::default())
            .best_objective;

        let mut recycled = Model::new();
        let _ = build(&mut recycled);
        recycled.reset();
        assert_eq!(recycled.num_vars(), 0);
        assert_eq!(recycled.num_propagators(), 0);
        let obj = build(&mut recycled);
        assert_eq!(recycled.num_vars(), 3);
        let out = recycled.minimize(obj, &SearchConfig::default());
        assert_eq!(out.best_objective, expected);
        assert_eq!(out.stop, StopReason::Complete);
    }

    #[test]
    fn max_min_helper_vars() {
        let mut m = Model::new();
        let a = m.new_var(1, 3);
        let b = m.new_var(2, 5);
        let mx = m.max_var(&[a, b]);
        let mn = m.min_var(&[a, b]);
        m.propagate_root().unwrap();
        assert!(m.domain(mx).min() >= 2);
        assert!(m.domain(mn).max() <= 3);
    }

    #[test]
    fn sum_abs_var_over_mixed_signs() {
        let mut m = Model::new();
        let a = m.new_var(-3, -3);
        let b = m.new_var(4, 4);
        let s = m.sum_abs_var(&[a, b]);
        m.propagate_root().unwrap();
        assert_eq!(m.domain(s).fixed_value(), Some(7));
    }
}
