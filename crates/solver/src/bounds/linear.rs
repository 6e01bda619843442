//! The linear/packing relaxation engine.
//!
//! Drops integrality and every non-linear constraint, keeping only the
//! objective-defining linear equality and the *exactly-one* packing groups
//! posted as plain equalities (`Σ x_i == 1` over 0/1 variables). Over that
//! skeleton the bound is computable greedily: each packing group contributes
//! the best objective coefficient among its members that can still be
//! selected, everything else contributes its interval extremum. The Colog
//! groundings post no such equality: ACloud's "every VM on exactly one
//! host" (rule c1) is a reified equality on a count variable, fixed only by
//! root propagation, so the recognizer matches nothing there.
//! [`crate::Model::presolve`] reads that shape instead.

use super::{BoundResult, DualBound};
use crate::domain::Domain;
use crate::model::{Model, VarId};
use crate::propagator::LinearView;
use crate::search::{Objective, SearchConfig};

/// Linear/packing relaxation bound (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearRelaxation;

impl DualBound for LinearRelaxation {
    fn name(&self) -> &'static str {
        "linear_relaxation"
    }

    fn compute(
        &self,
        model: &Model,
        objective: Objective,
        _config: &SearchConfig,
        domains: &[Domain],
    ) -> Option<BoundResult> {
        let z = match objective {
            Objective::Minimize(v) | Objective::Maximize(v) => v,
            Objective::Satisfy => return None,
        };
        let minimize = matches!(objective, Objective::Minimize(_));
        let zdom = &domains[z.index()];
        // The propagated objective domain is itself a sound interval
        // relaxation (bounds consistency); everything below only tries to
        // beat it.
        let base = if minimize { zdom.min() } else { zdom.max() };

        let Some((obj_idx, obj_terms, obj_const)) = objective_equality(model, z) else {
            return Some(BoundResult {
                bound: base,
                binding: vec!["objective domain (bounds consistency)".into()],
            });
        };

        // `z = obj_const + Σ c_i · v_i` with `c_i` the negated stored
        // coefficient (the lowering posts `z - Σ c_i v_i == obj_const`).
        // Summed per variable in i128 so repeated terms and extreme
        // coefficients cannot wrap.
        let mut coeff = vec![0i128; domains.len()];
        for &(c, v) in obj_terms {
            if v != z {
                coeff[v.index()] -= c as i128;
            }
        }

        let mut total: i128 = obj_const as i128;
        let mut used = vec![false; domains.len()];
        let mut binding = vec![format!(
            "{}#{obj_idx} (objective)",
            model.propagators()[obj_idx].name()
        )];

        // Exactly-one groups: exactly one member is selected, so the group
        // contributes *some* member's objective coefficient — at least the
        // best one among members whose domain still contains 1. That
        // dominates the naive per-variable interval sum for any coefficient
        // signs, because the naive sum also admits "select nothing".
        for (idx, p) in model.propagators().iter().enumerate() {
            if idx == obj_idx {
                continue;
            }
            let Some(LinearView::Eq { terms, bound: 1 }) = p.linear_view() else {
                continue;
            };
            if terms.len() < 2 || terms.iter().any(|&(c, _)| c != 1) {
                continue;
            }
            // Each variable strengthens at most one group; members must be
            // 0/1 so "exactly one is 1, the rest are 0" holds.
            if terms.iter().any(|&(_, v)| {
                let d = &domains[v.index()];
                used[v.index()] || v == z || d.min() < 0 || d.max() > 1
            }) {
                continue;
            }
            let mut best: Option<i128> = None;
            for &(_, v) in terms {
                if !domains[v.index()].contains(1) {
                    continue;
                }
                let c = coeff[v.index()];
                best = Some(match best {
                    None => c,
                    Some(b) if minimize => b.min(c),
                    Some(b) => b.max(c),
                });
            }
            // A group with no selectable member is a conflict propagation
            // will surface; it cannot strengthen anything here.
            let Some(contribution) = best else { continue };
            for &(_, v) in terms {
                used[v.index()] = true;
            }
            total += contribution;
            binding.push(format!("{}#{idx} (exactly-one)", p.name()));
        }

        // Everything outside the strengthened groups falls back to its
        // interval extremum — the plain linear relaxation.
        for &(c, v) in obj_terms {
            if v == z || used[v.index()] {
                continue;
            }
            let d = &domains[v.index()];
            let ci = -(c as i128);
            let (a, b) = (ci * d.min() as i128, ci * d.max() as i128);
            total += if minimize { a.min(b) } else { a.max(b) };
        }

        let bound = match i64::try_from(total) {
            Ok(s) if (minimize && s > base) || (!minimize && s < base) => s,
            // Strengthening lost to (or overflowed past) the propagated
            // domain bound — keep the tighter, already-sound base.
            _ => {
                binding = vec!["objective domain (bounds consistency)".into()];
                base
            }
        };
        Some(BoundResult { bound, binding })
    }
}

/// Propagator index, terms and constant of a linear `==`.
type LinearEquality<'a> = (usize, &'a [(i64, VarId)], i64);

/// Find the equality that defines the objective variable: a linear `==`
/// whose terms mention `z` exactly once, with coefficient `+1` (the shape
/// `Model::linear_var` posts).
fn objective_equality(model: &Model, z: VarId) -> Option<LinearEquality<'_>> {
    for (idx, p) in model.propagators().iter().enumerate() {
        if let Some(LinearView::Eq { terms, bound }) = p.linear_view() {
            let mentions = terms.iter().filter(|&&(_, v)| v == z).count();
            if mentions == 1 && terms.iter().any(|&(c, v)| v == z && c == 1) {
                return Some((idx, terms, bound));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::BoundMode;
    use crate::model::Model;
    use crate::search::SearchConfig;

    fn cfg() -> SearchConfig {
        SearchConfig {
            bound_mode: BoundMode::Linear,
            ..Default::default()
        }
    }

    #[test]
    fn falls_back_to_domain_bound_without_linear_objective() {
        // Objective variable constrained only by bounds: the engine has no
        // linear equality to relax and reports the propagated domain bound.
        let mut m = Model::new();
        let z = m.new_var(7, 20);
        let cert = crate::bounds::compute_at_root(&m, Objective::Minimize(z), &cfg()).unwrap();
        assert_eq!(cert.dual_bound, 7);
        assert_eq!(cert.binding, vec!["objective domain (bounds consistency)"]);
    }

    #[test]
    fn skips_groups_with_wide_member_domains() {
        // On the *unpropagated* root, x still ranges over 0..2, so the
        // exactly-one guard must reject the group (propagation would narrow
        // x to 0/1, which is why `compute_at_root` propagates first).
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_bool();
        m.linear_eq(&[(1, x), (1, y)], 1);
        let z = m.linear_var(&[(4, x), (9, y)], 0);
        let optimum = m
            .minimize(z, &SearchConfig::default())
            .best_objective
            .unwrap();
        let raw = LinearRelaxation
            .compute(&m, Objective::Minimize(z), &cfg(), m.domains())
            .unwrap();
        assert!(raw.bound <= optimum);
        assert!(!raw.binding.iter().any(|b| b.contains("exactly-one")));
    }

    #[test]
    fn skips_groups_with_non_unit_coefficients() {
        // 3x + y + w == 1 is not an exactly-one group (coefficient 3); the
        // engine must not pretend it is, and its bound must stay sound.
        let mut m = Model::new();
        let x = m.new_bool();
        let y = m.new_bool();
        let w = m.new_bool();
        m.linear_eq(&[(3, x), (1, y), (1, w)], 1);
        let z = m.linear_var(&[(4, x), (9, y), (6, w)], 0);
        let optimum = m
            .minimize(z, &SearchConfig::default())
            .best_objective
            .unwrap();
        let cert = crate::bounds::compute_at_root(&m, Objective::Minimize(z), &cfg()).unwrap();
        assert!(cert.dual_bound <= optimum);
        assert!(!cert.binding.iter().any(|b| b.contains("exactly-one")));
    }

    #[test]
    fn negative_coefficients_stay_sound() {
        let mut m = Model::new();
        let a = m.new_bool();
        let b = m.new_bool();
        m.linear_eq(&[(1, a), (1, b)], 1);
        let z = m.linear_var(&[(-5, a), (3, b)], 10);
        for obj in [Objective::Minimize(z), Objective::Maximize(z)] {
            let out = match obj {
                Objective::Minimize(_) => m.minimize(z, &SearchConfig::default()),
                _ => m.maximize(z, &SearchConfig::default()),
            };
            let optimum = out.best_objective.unwrap();
            let cert = crate::bounds::compute_at_root(&m, obj, &cfg()).unwrap();
            match obj {
                Objective::Minimize(_) => assert!(cert.dual_bound <= optimum),
                _ => assert!(cert.dual_bound >= optimum),
            }
        }
    }

    #[test]
    fn fixed_member_pins_the_group_contribution() {
        let mut m = Model::new();
        let a = m.new_bool();
        let b = m.new_bool();
        m.linear_eq(&[(1, a), (1, b)], 1);
        let z = m.linear_var(&[(8, a), (2, b)], 0);
        // Force the expensive member: propagation fixes b = 0, so the only
        // selectable member is `a` and the group contributes 8, not min(8,2).
        m.linear_eq(&[(1, a)], 1);
        let cert = crate::bounds::compute_at_root(&m, Objective::Minimize(z), &cfg()).unwrap();
        assert_eq!(cert.dual_bound, 8);
    }
}
