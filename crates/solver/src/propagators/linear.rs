//! Linear arithmetic propagators with bounds-consistency.

use crate::model::VarId;
use crate::propagator::{Conflict, LinearView, PropStatus, Propagator, PropagatorContext};

fn term_min(coeff: i64, ctx: &PropagatorContext<'_>, v: VarId) -> i64 {
    if coeff >= 0 {
        coeff * ctx.min(v)
    } else {
        coeff * ctx.max(v)
    }
}

fn term_max(coeff: i64, ctx: &PropagatorContext<'_>, v: VarId) -> i64 {
    if coeff >= 0 {
        coeff * ctx.max(v)
    } else {
        coeff * ctx.min(v)
    }
}

/// `Σ coeff_i · x_i <= bound`
#[derive(Debug, Clone)]
pub struct LinearLe {
    pub terms: Vec<(i64, VarId)>,
    pub bound: i64,
}

impl LinearLe {
    pub fn new(terms: Vec<(i64, VarId)>, bound: i64) -> Self {
        LinearLe { terms, bound }
    }
}

impl Propagator for LinearLe {
    fn name(&self) -> &'static str {
        "linear_le"
    }

    fn dependencies(&self) -> Vec<VarId> {
        self.terms.iter().map(|&(_, v)| v).collect()
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        // Sum of minimal contributions; if it already exceeds the bound the
        // constraint is violated.
        let total_min: i64 = self.terms.iter().map(|&(c, v)| term_min(c, ctx, v)).sum();
        if total_min > self.bound {
            return Err(Conflict);
        }
        let total_max: i64 = self.terms.iter().map(|&(c, v)| term_max(c, ctx, v)).sum();
        if total_max <= self.bound {
            return Ok(PropStatus::Entailed);
        }
        // For each term, the slack left by the other terms bounds its value.
        for &(c, v) in &self.terms {
            if c == 0 {
                continue;
            }
            let rest_min = total_min - term_min(c, ctx, v);
            let slack = self.bound - rest_min;
            // Unit coefficients (the overwhelmingly common case in the
            // models the Colog lowering produces) skip the division.
            if c == 1 {
                ctx.set_max(v, slack)?;
            } else if c == -1 {
                ctx.set_min(v, -slack)?;
            } else if c > 0 {
                // c*x <= slack  =>  x <= slack / c
                ctx.set_max(v, slack.div_euclid(c))?;
            } else {
                // c*x <= slack with c < 0  =>  x >= slack / c
                ctx.set_min(v, ceil_div(slack, c))?;
            }
        }
        Ok(PropStatus::Active)
    }

    // A pruning pass only moves the bound that does NOT feed `term_min`
    // (the max of positive-coefficient vars, the min of negative ones), so
    // every slack is unchanged by the pass itself and a re-run replays the
    // exact same bounds.
    fn idempotent(&self) -> bool {
        true
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        let s: i64 = self.terms.iter().map(|&(c, v)| c * values(v)).sum();
        s <= self.bound
    }

    fn linear_view(&self) -> Option<LinearView<'_>> {
        Some(LinearView::Le {
            terms: &self.terms,
            bound: self.bound,
        })
    }
}

/// Ceiling division that is correct for negative divisors.
fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q
    } else if a % b != 0 {
        q + 1
    } else {
        q
    }
}

/// `Σ coeff_i · x_i == bound`
#[derive(Debug, Clone)]
pub struct LinearEq {
    pub terms: Vec<(i64, VarId)>,
    pub bound: i64,
}

impl LinearEq {
    pub fn new(terms: Vec<(i64, VarId)>, bound: i64) -> Self {
        LinearEq { terms, bound }
    }
}

impl Propagator for LinearEq {
    fn name(&self) -> &'static str {
        "linear_eq"
    }

    fn dependencies(&self) -> Vec<VarId> {
        self.terms.iter().map(|&(_, v)| v).collect()
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        // Iterate to this propagator's own fixpoint: a pass prunes with the
        // totals computed at its start, and any pruning it makes tightens
        // those totals, so the loop repeats until a pass changes nothing.
        // (That inner loop is what makes `idempotent` sound — the queue never
        // needs to wake the propagator for its own prunings.)
        loop {
            let total_min: i64 = self.terms.iter().map(|&(c, v)| term_min(c, ctx, v)).sum();
            let total_max: i64 = self.terms.iter().map(|&(c, v)| term_max(c, ctx, v)).sum();
            if total_min > self.bound || total_max < self.bound {
                return Err(Conflict);
            }
            if total_min == self.bound && total_max == self.bound {
                return Ok(PropStatus::Entailed);
            }
            let mut changed = false;
            for &(c, v) in &self.terms {
                if c == 0 {
                    continue;
                }
                let rest_min = total_min - term_min(c, ctx, v);
                let rest_max = total_max - term_max(c, ctx, v);
                // c*x must lie within [bound - rest_max, bound - rest_min]
                let lo_c = self.bound - rest_max;
                let hi_c = self.bound - rest_min;
                // Unit coefficients dominate in lowered models; skip the
                // divisions for them.
                let (lo, hi) = if c == 1 {
                    (lo_c, hi_c)
                } else if c == -1 {
                    (-hi_c, -lo_c)
                } else if c > 0 {
                    (ceil_div(lo_c, c), hi_c.div_euclid(c))
                } else {
                    (ceil_div(hi_c, c), lo_c.div_euclid(c))
                };
                changed |= ctx.intersect(v, lo, hi)?;
            }
            if !changed {
                return Ok(PropStatus::Active);
            }
        }
    }

    fn idempotent(&self) -> bool {
        true
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        let s: i64 = self.terms.iter().map(|&(c, v)| c * values(v)).sum();
        s == self.bound
    }

    fn linear_view(&self) -> Option<LinearView<'_>> {
        Some(LinearView::Eq {
            terms: &self.terms,
            bound: self.bound,
        })
    }
}

/// `Σ coeff_i · x_i != bound`
#[derive(Debug, Clone)]
pub struct LinearNe {
    pub terms: Vec<(i64, VarId)>,
    pub bound: i64,
}

impl LinearNe {
    pub fn new(terms: Vec<(i64, VarId)>, bound: i64) -> Self {
        LinearNe { terms, bound }
    }
}

impl Propagator for LinearNe {
    fn name(&self) -> &'static str {
        "linear_ne"
    }

    fn dependencies(&self) -> Vec<VarId> {
        self.terms.iter().map(|&(_, v)| v).collect()
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        // Only propagates when all variables but one are fixed.
        let mut unfixed: Option<(i64, VarId)> = None;
        let mut fixed_sum = 0i64;
        for &(c, v) in &self.terms {
            match ctx.fixed_value(v) {
                Some(val) => fixed_sum += c * val,
                None => {
                    if unfixed.is_some() {
                        return Ok(PropStatus::Active);
                    }
                    unfixed = Some((c, v));
                }
            }
        }
        match unfixed {
            // With no unfixed term, or only one whose coefficient is 0, the
            // sum is already decided.
            None | Some((0, _)) => {
                if fixed_sum == self.bound {
                    Err(Conflict)
                } else {
                    Ok(PropStatus::Entailed)
                }
            }
            Some((c, v)) => {
                let remaining = self.bound - fixed_sum;
                if remaining % c == 0 {
                    ctx.remove_value(v, remaining / c)?;
                }
                Ok(PropStatus::Entailed)
            }
        }
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        let s: i64 = self.terms.iter().map(|&(c, v)| c * values(v)).sum();
        s != self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, SearchConfig};

    #[test]
    fn ceil_div_matches_f64() {
        for a in -20..=20 {
            for b in [-7i64, -3, -1, 1, 2, 5] {
                let expected = (a as f64 / b as f64).ceil() as i64;
                assert_eq!(ceil_div(a, b), expected, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn linear_le_prunes_upper_bounds() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let y = m.new_var(0, 10);
        m.linear_le(&[(2, x), (3, y)], 6);
        assert!(m.propagate_root().is_ok());
        assert!(m.domain(x).max() <= 3);
        assert!(m.domain(y).max() <= 2);
    }

    #[test]
    fn linear_le_negative_coefficients() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let y = m.new_var(0, 10);
        // x - y <= -4  =>  y >= x + 4 >= 4
        m.linear_le(&[(1, x), (-1, y)], -4);
        assert!(m.propagate_root().is_ok());
        assert!(m.domain(y).min() >= 4);
        assert!(m.domain(x).max() <= 6);
    }

    #[test]
    fn linear_eq_fixes_last_variable() {
        let mut m = Model::new();
        let x = m.new_var(3, 3);
        let y = m.new_var(0, 10);
        m.linear_eq(&[(1, x), (1, y)], 8);
        assert!(m.propagate_root().is_ok());
        assert_eq!(m.domain(y).fixed_value(), Some(5));
    }

    #[test]
    fn linear_eq_detects_conflict() {
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_var(0, 2);
        m.linear_eq(&[(1, x), (1, y)], 10);
        assert!(m.propagate_root().is_err());
    }

    #[test]
    fn linear_ne_removes_value() {
        let mut m = Model::new();
        let x = m.new_var(4, 4);
        let y = m.new_var(0, 10);
        m.linear_ne(&[(1, x), (1, y)], 7);
        assert!(m.propagate_root().is_ok());
        assert!(!m.domain(y).contains(3));
        assert!(m.domain(y).contains(4));
    }

    #[test]
    fn linear_ne_conflict_when_all_fixed_equal() {
        let mut m = Model::new();
        let x = m.new_var(2, 2);
        let y = m.new_var(5, 5);
        m.linear_ne(&[(1, x), (1, y)], 7);
        assert!(m.propagate_root().is_err());
    }

    #[test]
    fn linear_ne_zero_coefficient_term_cannot_rescue_a_decided_sum() {
        // 3·x0 + 0·x1 ≠ 0 with x0 = 0: x1 cannot change the sum, so every
        // completion violates the constraint.
        let mut m = Model::new();
        let x0 = m.new_var(0, 0);
        let x1 = m.new_var(0, 7);
        m.linear_ne(&[(3, x0), (0, x1)], 0);
        assert!(m.propagate_root().is_err());
        assert!(m.satisfy(&SearchConfig::default()).solutions.is_empty());
        // With x0 free the constraint only removes x0 = 0.
        let mut m = Model::new();
        let x0 = m.new_var(0, 4);
        let x1 = m.new_var(0, 7);
        m.linear_ne(&[(3, x0), (0, x1)], 0);
        let out = m.solve_all(&SearchConfig::default());
        assert_eq!(out.solutions.len(), 4 * 8);
        assert!(out.solutions.iter().all(|s| s.value(x0) != 0));
    }

    #[test]
    fn solve_small_knapsack_like_problem() {
        // maximize 3a + 4b subject to 2a + 3b <= 12, a,b in 0..5
        let mut m = Model::new();
        let a = m.new_var(0, 5);
        let b = m.new_var(0, 5);
        m.linear_le(&[(2, a), (3, b)], 12);
        let obj = m.linear_var(&[(3, a), (4, b)], 0);
        let out = m.maximize(obj, &SearchConfig::default());
        let best = out.best.unwrap();
        // best is a=3,b=2 (17) or a=5? 2*5=10 <=12 leaves b=0 -> 15; a=3,b=2 -> 6+6=12 -> 17
        assert_eq!(best.value(obj), 17);
        assert!(LinearLe::new(vec![(2, a), (3, b)], 12).check(&|v| best.value(v)));
    }
}
