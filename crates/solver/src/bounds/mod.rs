//! Dual (relaxation) bounds and certified optimality gaps.
//!
//! Branch-and-bound reports an incumbent, but an incumbent alone says
//! nothing about *quality*: a node-budgeted exact search or an LNS run ends
//! with "best found so far" and no proof of how far from optimal it landed.
//! This module closes that hole with cheap, **sound** dual bounds — a lower
//! bound on the objective for `minimize` goals, an upper bound for
//! `maximize` — computed once per propagated (frozen) root and threaded
//! through the search as a certified optimality gap.
//!
//! # Engines
//!
//! Two [`DualBound`] engines are provided, selectable per search through
//! [`crate::SearchConfig::bound_mode`]:
//!
//! * [`LinearRelaxation`] — drops integrality and relaxes the model to its
//!   linear skeleton: the objective-defining linear equality (recognized via
//!   [`crate::propagator::LinearView`]) is minimized over the propagated
//!   domain box, strengthened group-by-group over the *exactly-one* packing
//!   constraints posted as plain equalities (`Σ x_i == 1` over 0/1
//!   variables): exactly one member of each group is 1, so the group
//!   contributes at least its smallest objective coefficient instead of the
//!   naive per-variable interval minimum. The Colog groundings post none:
//!   ACloud's rule c1 becomes a reified equality on a count variable that
//!   only root propagation fixes, so there the engine reduces to the
//!   interval bound.
//! * [`RelaxedMerge`] — a ddo-style relaxed decision diagram over the top
//!   decision levels: the root is expanded breadth-first with the search's
//!   own branching heuristic, each layer is propagated, and layers wider
//!   than the width cap are *merged* by interval hull — a superset of the
//!   merged nodes' solution sets, hence a relaxation. The bound is the best
//!   objective bound over the final layer (plus any exact leaves met on the
//!   way).
//!
//! [`BoundMode::Auto`] runs both and keeps the tighter result.
//!
//! # Soundness contract
//!
//! Every engine guarantees `dual_bound <= true optimum` for minimization
//! (`>=` for maximization) on the model restricted to the domains it was
//! given. The engines only ever *relax* — drop constraints, widen merged
//! domains, take per-group minima that every feasible assignment dominates —
//! so no feasible solution is ever excluded. The property tests pin this
//! against the reference searcher's proven optimum on random models.
//!
//! Both engines start from the propagated objective domain, sound by itself.
//! Non-linear objectives are bounded there: for `STDEV` goals the
//! [`crate::propagators::ScaledVariance`] propagator lifts the domain's
//! floor to the variance's real minimum over the load boxes, cut by the
//! loads' fixed total when [`crate::Model::presolve`] found one.
//!
//! # Determinism
//!
//! Bound computation is a pure function of the model, the objective, the
//! configuration and the propagated root domains. Gap-driven termination
//! ([`crate::SearchConfig::gap_limit`]) compares the *live* gap — updated
//! only when the incumbent or the bound changes, both deterministic events —
//! at exactly the points where budget limits are already checked, so a
//! gap-limited run is itself rerun-deterministic, and `gap_limit =
//! Some(0.0)` never terminates early (the comparison is strict:
//! `gap < limit`). With the default [`BoundMode::Off`] no bound is computed
//! and every search is byte-identical to previous releases.

mod linear;
mod relaxed;

pub use linear::LinearRelaxation;
pub use relaxed::RelaxedMerge;

use crate::domain::Domain;
use crate::model::Model;
use crate::search::{Objective, SearchConfig};
use crate::stats::SearchStats;
use crate::store::{PropQueue, Store};

/// Which dual-bound engine a search runs at its frozen root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// No bound computation (the default): every run is byte-identical to a
    /// build without the bounds subsystem.
    #[default]
    Off,
    /// The linear/packing relaxation ([`LinearRelaxation`]).
    Linear,
    /// The ddo-style relaxed-merge diagram ([`RelaxedMerge`]).
    Relaxed,
    /// Run both engines and keep the tighter bound (ties prefer the linear
    /// engine, whose certificate names concrete constraints).
    Auto,
}

/// A sound dual bound together with the constraints that pin it — the
/// explainability payload carried into the `SolveReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCertificate {
    /// Name of the engine that produced the bound
    /// (see [`DualBound::name`]).
    pub engine: String,
    /// The certified dual bound: a lower bound on the optimum for
    /// minimization, an upper bound for maximization.
    pub dual_bound: i64,
    /// Human-readable names of the binding constraints / relaxation
    /// decisions behind the bound, e.g. `linear_eq#12 (exactly-one)` for a
    /// packing group that tightened the linear relaxation.
    pub binding: Vec<String>,
}

impl std::fmt::Display for BoundCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} dual_bound={}", self.engine, self.dual_bound)?;
        if !self.binding.is_empty() {
            write!(f, " binding=[{}]", self.binding.join(", "))?;
        }
        Ok(())
    }
}

/// Raw result of one engine run: the bound plus the binding constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundResult {
    /// The dual bound (lower for minimize, upper for maximize).
    pub bound: i64,
    /// Names of the constraints that pin the bound.
    pub binding: Vec<String>,
}

/// A dual-bound engine: computes a sound relaxation bound on the objective
/// over the model restricted to the given (propagated) domains.
pub trait DualBound {
    /// Engine name recorded in the [`BoundCertificate`].
    fn name(&self) -> &'static str;

    /// Compute the bound, or `None` when the engine does not apply
    /// (satisfaction objectives, or a relaxation it cannot evaluate). The
    /// `domains` are the propagated frozen-root domains the search starts
    /// from; `config` supplies the branching heuristics diagram-based
    /// engines mirror.
    fn compute(
        &self,
        model: &Model,
        objective: Objective,
        config: &SearchConfig,
        domains: &[Domain],
    ) -> Option<BoundResult>;

    /// [`DualBound::compute`] packaged as a [`BoundCertificate`].
    fn certify(
        &self,
        model: &Model,
        objective: Objective,
        config: &SearchConfig,
        domains: &[Domain],
    ) -> Option<BoundCertificate> {
        let result = self.compute(model, objective, config, domains)?;
        Some(BoundCertificate {
            engine: self.name().to_string(),
            dual_bound: result.bound,
            binding: result.binding,
        })
    }
}

/// True when `candidate` is a strictly tighter dual bound than `current`:
/// larger for minimization (the lower bound climbs toward the optimum),
/// smaller for maximization.
fn tighter(objective: Objective, candidate: i64, current: i64) -> bool {
    match objective {
        Objective::Minimize(_) => candidate > current,
        Objective::Maximize(_) => candidate < current,
        Objective::Satisfy => false,
    }
}

/// Run the configured engine(s) against an already-propagated root.
///
/// `domains` must be the fixpoint the search starts from (its frozen root);
/// the bound is recomputed whenever that root moves — each exact solve, each
/// LNS phase-2 freeze — because the caller re-enters through here.
pub fn compute_root_bound(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
    domains: &[Domain],
) -> Option<BoundCertificate> {
    match config.bound_mode {
        BoundMode::Off => None,
        BoundMode::Linear => LinearRelaxation.certify(model, objective, config, domains),
        BoundMode::Relaxed => RelaxedMerge::default().certify(model, objective, config, domains),
        BoundMode::Auto => {
            let lin = LinearRelaxation.certify(model, objective, config, domains);
            let rel = RelaxedMerge::default().certify(model, objective, config, domains);
            match (lin, rel) {
                (Some(a), Some(b)) => {
                    // Ties keep the linear certificate (concrete constraint
                    // names beat diagram traces for explainability).
                    if tighter(objective, b.dual_bound, a.dual_bound) {
                        Some(b)
                    } else {
                        Some(a)
                    }
                }
                (a, b) => a.or(b),
            }
        }
    }
}

/// [`compute_root_bound`] for callers that have not propagated the root yet
/// (the LNS portfolio's coordinator): propagates the model's root into a scratch
/// store first. Returns `None` on root infeasibility — the search itself
/// will discover and report that.
pub(crate) fn compute_at_root(
    model: &Model,
    objective: Objective,
    config: &SearchConfig,
) -> Option<BoundCertificate> {
    if config.bound_mode == BoundMode::Off {
        return None;
    }
    let mut store = Store::from_domains(model.domains().to_vec());
    let mut queue = PropQueue::new();
    let mut scratch = SearchStats::default();
    if model
        .propagate_in(&mut store, &mut queue, &mut scratch, None)
        .is_err()
    {
        return None;
    }
    compute_root_bound(model, objective, config, store.domains())
}

/// The relative optimality gap between an incumbent (`primal`) and a dual
/// bound: `max(0, distance) / max(1, |primal|)`, where the distance is
/// `primal - dual` for minimization and `dual - primal` for maximization.
/// `0.0` means the incumbent provably matches the bound; satisfaction
/// objectives have no gap and report `0.0`.
pub fn optimality_gap(objective: Objective, primal: i64, dual: i64) -> f64 {
    let distance = match objective {
        Objective::Minimize(_) => primal.saturating_sub(dual),
        Objective::Maximize(_) => dual.saturating_sub(primal),
        Objective::Satisfy => 0,
    };
    distance.max(0) as f64 / primal.abs().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::search::SearchConfig;

    fn assign_model() -> (Model, crate::model::VarId) {
        // Two items, each assigned to exactly one of two bins, with distinct
        // costs: minimize total cost. Optimum picks the cheap bin per item.
        let mut m = Model::new();
        let a0 = m.new_bool();
        let a1 = m.new_bool();
        let b0 = m.new_bool();
        let b1 = m.new_bool();
        m.linear_eq(&[(1, a0), (1, a1)], 1);
        m.linear_eq(&[(1, b0), (1, b1)], 1);
        let obj = m.linear_var(&[(3, a0), (5, a1), (2, b0), (7, b1)], 0);
        (m, obj)
    }

    #[test]
    fn off_mode_computes_nothing() {
        let (m, obj) = assign_model();
        let cfg = SearchConfig::default();
        assert_eq!(cfg.bound_mode, BoundMode::Off);
        assert!(compute_at_root(&m, Objective::Minimize(obj), &cfg).is_none());
    }

    #[test]
    fn all_engines_bound_the_packing_optimum() {
        let (m, obj) = assign_model();
        let optimum = m
            .minimize(obj, &SearchConfig::default())
            .best_objective
            .unwrap();
        assert_eq!(optimum, 5); // 3 + 2
        for mode in [BoundMode::Linear, BoundMode::Relaxed, BoundMode::Auto] {
            let cfg = SearchConfig {
                bound_mode: mode,
                ..Default::default()
            };
            let cert = compute_at_root(&m, Objective::Minimize(obj), &cfg)
                .unwrap_or_else(|| panic!("{mode:?} must produce a bound"));
            assert!(
                cert.dual_bound <= optimum,
                "{mode:?}: dual {} exceeds optimum {optimum}",
                cert.dual_bound
            );
        }
    }

    #[test]
    fn linear_engine_uses_exactly_one_groups() {
        let (m, obj) = assign_model();
        let cfg = SearchConfig {
            bound_mode: BoundMode::Linear,
            ..Default::default()
        };
        let cert = compute_at_root(&m, Objective::Minimize(obj), &cfg).unwrap();
        // The naive interval bound is 0 (every 0/1 variable can be 0); the
        // exactly-one groups force 3 + 2 = 5 — the true optimum here.
        assert_eq!(cert.dual_bound, 5);
        assert!(
            cert.binding.iter().any(|b| b.contains("exactly-one")),
            "binding must name the packing groups: {:?}",
            cert.binding
        );
    }

    #[test]
    fn auto_keeps_the_tighter_bound() {
        let (m, obj) = assign_model();
        let bound_of = |mode| {
            let cfg = SearchConfig {
                bound_mode: mode,
                ..Default::default()
            };
            compute_at_root(&m, Objective::Minimize(obj), &cfg)
                .unwrap()
                .dual_bound
        };
        let auto = bound_of(BoundMode::Auto);
        assert!(auto >= bound_of(BoundMode::Linear));
        assert!(auto >= bound_of(BoundMode::Relaxed));
    }

    #[test]
    fn maximization_bounds_from_above() {
        let (m, obj) = assign_model();
        let optimum = m
            .maximize(obj, &SearchConfig::default())
            .best_objective
            .unwrap();
        assert_eq!(optimum, 12); // 5 + 7
        for mode in [BoundMode::Linear, BoundMode::Relaxed, BoundMode::Auto] {
            let cfg = SearchConfig {
                bound_mode: mode,
                ..Default::default()
            };
            let cert = compute_at_root(&m, Objective::Maximize(obj), &cfg).unwrap();
            assert!(
                cert.dual_bound >= optimum,
                "{mode:?}: upper bound {} below optimum {optimum}",
                cert.dual_bound
            );
        }
    }

    #[test]
    fn gap_is_relative_and_clamped() {
        let o = Objective::Minimize(crate::model::VarId::from_index(0));
        assert_eq!(optimality_gap(o, 100, 95), 0.05);
        assert_eq!(optimality_gap(o, 100, 100), 0.0);
        // a dual above the incumbent (possible transiently under warm
        // starts) clamps to zero instead of going negative
        assert_eq!(optimality_gap(o, 100, 120), 0.0);
        // primal 0 divides by 1, not 0
        assert_eq!(optimality_gap(o, 0, -3), 3.0);
        let mx = Objective::Maximize(crate::model::VarId::from_index(0));
        assert_eq!(optimality_gap(mx, 95, 100), 100.0 * 0.05 / 95.0);
        assert_eq!(optimality_gap(o, 100, 0), 1.0);
    }

    #[test]
    fn certificate_display_names_engine_and_binding() {
        let cert = BoundCertificate {
            engine: "linear_relaxation".into(),
            dual_bound: 42,
            binding: vec!["linear_eq#1 (exactly-one)".into()],
        };
        let text = cert.to_string();
        assert!(text.contains("linear_relaxation"));
        assert!(text.contains("42"));
        assert!(text.contains("exactly-one"));
    }

    #[test]
    fn variance_objectives_are_bounded_by_their_propagated_domain() {
        // Balance 10 across two vars: the load boxes overlap, so the
        // propagated floor of n·Σx² − (Σx)² is 0, which is the optimum.
        let mut m = Model::new();
        let a = m.new_var(0, 10);
        let b = m.new_var(0, 10);
        m.linear_eq(&[(1, a), (1, b)], 10);
        let z = m.scaled_variance_var(&[a, b]);
        m.propagate_root().unwrap();
        assert_eq!(m.domain(z).min(), 0);
        for mode in [BoundMode::Linear, BoundMode::Relaxed, BoundMode::Auto] {
            let cfg = SearchConfig {
                bound_mode: mode,
                ..Default::default()
            };
            let cert = compute_at_root(&m, Objective::Minimize(z), &cfg)
                .unwrap_or_else(|| panic!("{mode:?} must produce a bound"));
            assert!(
                cert.dual_bound >= 0,
                "{mode:?}: variance bound {} is negative",
                cert.dual_bound
            );
            assert_eq!(cert.dual_bound, 0, "{mode:?}: the floor is tight here");
        }
    }

    #[test]
    fn satisfy_objectives_have_no_bound() {
        let (m, _) = assign_model();
        let cfg = SearchConfig {
            bound_mode: BoundMode::Auto,
            ..Default::default()
        };
        assert!(compute_at_root(&m, Objective::Satisfy, &cfg).is_none());
    }
}
