//! Non-linear arithmetic propagators: products, absolute values, and
//! min/max over arrays of variables.

use crate::model::VarId;
use crate::propagator::{Conflict, PropStatus, Propagator, PropagatorContext};

/// `z == x * y` with bounds-consistency.
#[derive(Debug, Clone)]
pub struct MulVar {
    pub z: VarId,
    pub x: VarId,
    pub y: VarId,
}

impl MulVar {
    pub fn new(z: VarId, x: VarId, y: VarId) -> Self {
        MulVar { z, x, y }
    }
}

fn product_bounds(xl: i64, xu: i64, yl: i64, yu: i64) -> (i64, i64) {
    let candidates = [xl * yl, xl * yu, xu * yl, xu * yu];
    (
        *candidates.iter().min().unwrap(),
        *candidates.iter().max().unwrap(),
    )
}

impl Propagator for MulVar {
    fn name(&self) -> &'static str {
        "mul_var"
    }

    fn dependencies(&self) -> Vec<VarId> {
        vec![self.z, self.x, self.y]
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        // z bounds from x, y.
        let (zl, zu) = product_bounds(
            ctx.min(self.x),
            ctx.max(self.x),
            ctx.min(self.y),
            ctx.max(self.y),
        );
        ctx.intersect(self.z, zl, zu)?;
        // If one factor is fixed and non-zero, tighten the other by division.
        for (fixed, other) in [(self.x, self.y), (self.y, self.x)] {
            if let Some(f) = ctx.fixed_value(fixed) {
                if f != 0 {
                    let zmin = ctx.min(self.z);
                    let zmax = ctx.max(self.z);
                    let a = div_floor(zmin, f);
                    let b = div_ceil(zmin, f);
                    let c = div_floor(zmax, f);
                    let d = div_ceil(zmax, f);
                    let lo = a.min(b).min(c).min(d);
                    let hi = a.max(b).max(c).max(d);
                    ctx.intersect(other, lo, hi)?;
                } else {
                    // x == 0 => z == 0
                    ctx.assign(self.z, 0)?;
                }
            }
        }
        if ctx.is_fixed(self.x) && ctx.is_fixed(self.y) {
            let v = ctx.fixed_value(self.x).unwrap() * ctx.fixed_value(self.y).unwrap();
            ctx.assign(self.z, v)?;
            return Ok(PropStatus::Entailed);
        }
        Ok(PropStatus::Active)
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        values(self.z) == values(self.x) * values(self.y)
    }
}

fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// `z == |x|`, used by the `SUMABS` aggregate (Follow-the-Sun migration cost).
#[derive(Debug, Clone)]
pub struct AbsVal {
    pub z: VarId,
    pub x: VarId,
}

impl AbsVal {
    pub fn new(z: VarId, x: VarId) -> Self {
        AbsVal { z, x }
    }
}

impl Propagator for AbsVal {
    fn name(&self) -> &'static str {
        "abs"
    }

    fn dependencies(&self) -> Vec<VarId> {
        vec![self.z, self.x]
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        let xl = ctx.min(self.x);
        let xu = ctx.max(self.x);
        let zl = if xl <= 0 && xu >= 0 {
            0
        } else {
            xl.abs().min(xu.abs())
        };
        let zu = xl.abs().max(xu.abs());
        ctx.intersect(self.z, zl.max(0), zu)?;
        // x is confined to [-z_max, z_max].
        let zmax = ctx.max(self.z);
        ctx.intersect(self.x, -zmax, zmax)?;
        if ctx.is_fixed(self.x) {
            ctx.assign(self.z, ctx.fixed_value(self.x).unwrap().abs())?;
            return Ok(PropStatus::Entailed);
        }
        Ok(PropStatus::Active)
    }

    // One pass reaches the propagator's fixpoint: clipping `x` to
    // `[-z_max, z_max]` either leaves an endpoint whose magnitude is exactly
    // `z_max` (so the recomputed `z` upper bound cannot drop further) or does
    // not move it, and a clip never changes which side of zero `x` sits on
    // (so the recomputed `z` lower bound is unchanged too).
    fn idempotent(&self) -> bool {
        true
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        values(self.z) == values(self.x).abs()
    }
}

/// `z == max(xs)`.
#[derive(Debug, Clone)]
pub struct MaxOfArray {
    pub z: VarId,
    pub xs: Vec<VarId>,
}

impl MaxOfArray {
    pub fn new(z: VarId, xs: Vec<VarId>) -> Self {
        assert!(!xs.is_empty());
        MaxOfArray { z, xs }
    }
}

impl Propagator for MaxOfArray {
    fn name(&self) -> &'static str {
        "max_of_array"
    }

    fn dependencies(&self) -> Vec<VarId> {
        let mut v = self.xs.clone();
        v.push(self.z);
        v
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        let max_of_maxes = self.xs.iter().map(|&x| ctx.max(x)).max().unwrap();
        let max_of_mins = self.xs.iter().map(|&x| ctx.min(x)).max().unwrap();
        ctx.intersect(self.z, max_of_mins, max_of_maxes)?;
        let zmax = ctx.max(self.z);
        for &x in &self.xs {
            ctx.set_max(x, zmax)?;
        }
        let all_fixed = self.xs.iter().all(|&x| ctx.is_fixed(x));
        if all_fixed {
            let v = self
                .xs
                .iter()
                .map(|&x| ctx.fixed_value(x).unwrap())
                .max()
                .unwrap();
            ctx.assign(self.z, v)?;
            return Ok(PropStatus::Entailed);
        }
        Ok(PropStatus::Active)
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        values(self.z) == self.xs.iter().map(|&x| values(x)).max().unwrap()
    }
}

/// `z == min(xs)`.
#[derive(Debug, Clone)]
pub struct MinOfArray {
    pub z: VarId,
    pub xs: Vec<VarId>,
}

impl MinOfArray {
    pub fn new(z: VarId, xs: Vec<VarId>) -> Self {
        assert!(!xs.is_empty());
        MinOfArray { z, xs }
    }
}

impl Propagator for MinOfArray {
    fn name(&self) -> &'static str {
        "min_of_array"
    }

    fn dependencies(&self) -> Vec<VarId> {
        let mut v = self.xs.clone();
        v.push(self.z);
        v
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        let min_of_mins = self.xs.iter().map(|&x| ctx.min(x)).min().unwrap();
        let min_of_maxes = self.xs.iter().map(|&x| ctx.max(x)).min().unwrap();
        ctx.intersect(self.z, min_of_mins, min_of_maxes)?;
        let zmin = ctx.min(self.z);
        for &x in &self.xs {
            ctx.set_min(x, zmin)?;
        }
        let all_fixed = self.xs.iter().all(|&x| ctx.is_fixed(x));
        if all_fixed {
            let v = self
                .xs
                .iter()
                .map(|&x| ctx.fixed_value(x).unwrap())
                .min()
                .unwrap();
            ctx.assign(self.z, v)?;
            return Ok(PropStatus::Entailed);
        }
        Ok(PropStatus::Active)
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        values(self.z) == self.xs.iter().map(|&x| values(x)).min().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, SearchConfig};

    #[test]
    fn div_helpers() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_floor(7, -2), -4);
        assert_eq!(div_ceil(7, -2), -3);
    }

    #[test]
    fn mul_fixed_factors() {
        let mut m = Model::new();
        let x = m.new_var(3, 3);
        let y = m.new_var(-2, -2);
        let z = m.new_var(-100, 100);
        m.post(MulVar::new(z, x, y));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(z).fixed_value(), Some(-6));
    }

    #[test]
    fn mul_zero_factor_forces_zero() {
        let mut m = Model::new();
        let x = m.new_var(0, 0);
        let y = m.new_var(-5, 5);
        let z = m.new_var(-100, 100);
        m.post(MulVar::new(z, x, y));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(z).fixed_value(), Some(0));
    }

    #[test]
    fn mul_bounds_negative_ranges() {
        let mut m = Model::new();
        let x = m.new_var(-3, 2);
        let y = m.new_var(-4, 5);
        let z = m.new_var(-1000, 1000);
        m.post(MulVar::new(z, x, y));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(z).min(), -15);
        assert_eq!(m.domain(z).max(), 12);
    }

    #[test]
    fn abs_bounds_and_entailment() {
        let mut m = Model::new();
        let x = m.new_var(-7, 3);
        let z = m.new_var(0, 100);
        m.post(AbsVal::new(z, x));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(z).max(), 7);
        assert_eq!(m.domain(z).min(), 0);
        let mut m2 = Model::new();
        let x2 = m2.new_var(-5, -5);
        let z2 = m2.new_var(0, 100);
        m2.post(AbsVal::new(z2, x2));
        m2.propagate_root().unwrap();
        assert_eq!(m2.domain(z2).fixed_value(), Some(5));
    }

    #[test]
    fn max_min_of_array() {
        let mut m = Model::new();
        let a = m.new_var(1, 4);
        let b = m.new_var(2, 6);
        let c = m.new_var(0, 3);
        let mx = m.new_var(-100, 100);
        let mn = m.new_var(-100, 100);
        m.post(MaxOfArray::new(mx, vec![a, b, c]));
        m.post(MinOfArray::new(mn, vec![a, b, c]));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(mx).min(), 2);
        assert_eq!(m.domain(mx).max(), 6);
        assert_eq!(m.domain(mn).min(), 0);
        assert_eq!(m.domain(mn).max(), 3);
    }

    #[test]
    fn minimize_sum_of_abs() {
        // minimize |x| + |y| subject to x + y == 4, x,y in [-10, 10]
        let mut m = Model::new();
        let x = m.new_var(-10, 10);
        let y = m.new_var(-10, 10);
        m.linear_eq(&[(1, x), (1, y)], 4);
        let ax = m.abs_var(x);
        let ay = m.abs_var(y);
        let obj = m.linear_var(&[(1, ax), (1, ay)], 0);
        let out = m.minimize(obj, &SearchConfig::default());
        assert_eq!(out.best.unwrap().value(obj), 4);
    }
}
