//! Non-linear arithmetic propagators: products, the scaled variance,
//! absolute values, and min/max over arrays of variables.

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

/// `z == n·Σxᵢ² − (Σxᵢ)²` over the `n` variables `xs`: the scaled integer
/// variance Colog's `STDEV` goal is lowered to (the standard deviation's
/// argmin, in integers). `z` is bounded below by the real minimum over the
/// whole box `Π [loᵢ, hiᵢ]`, not term by term. Only `z` is pruned and `z` is
/// not watched: a tightened upper bound conflicts in the store itself.
#[derive(Debug, Clone)]
pub struct ScaledVariance {
    pub z: VarId,
    pub xs: Vec<VarId>,
}

impl ScaledVariance {
    pub fn new(z: VarId, xs: Vec<VarId>) -> Self {
        assert!(!xs.is_empty());
        ScaledVariance { z, xs }
    }
}

/// The least integer `≥` the real minimum of `n·Σxᵢ² − (Σxᵢ)²` over the `n`
/// boxes `xᵢ ∈ [loᵢ, hiᵢ]`, or `None` if an intermediate overflows `i128`.
///
/// That minimum is `n·min_t Σ dist(t, [loᵢ, hiᵢ])²`: each `xᵢ` is clamped to
/// one level `t`, their mean. The excess `Σ (clamp(t, loᵢ, hiᵢ) − t)` falls
/// with `t` and is zero there, so the largest box end with a nonnegative
/// excess starts the segment holding `t`. On it the boxes pinned at a bound
/// (count `m`, sum `a`, sum of squares `p`) give `t = a/m` and the minimum
/// `n·(m·p − a²)/m`, 0 when all boxes overlap. `O(n²)`, no allocation.
fn variance_floor(boxes: impl Iterator<Item = (i64, i64)> + Clone) -> Option<i128> {
    let boxes = boxes.map(|(lo, hi)| (i128::from(lo), i128::from(hi)));
    let excess = |t: i128| -> i128 { boxes.clone().map(|(lo, hi)| t.clamp(lo, hi) - t).sum() };
    // The smallest lower end always qualifies.
    let ends = boxes.clone().flat_map(|(lo, hi)| [lo, hi]);
    let level = ends.filter(|&e| excess(e) >= 0).max()?;
    let pin = |(lo, hi): (i128, i128)| (hi <= level).then_some(hi).or((lo > level).then_some(lo));
    let pinned = boxes.clone().filter_map(pin);
    let (m, a) = (pinned.clone().count() as i128, pinned.clone().sum::<i128>());
    let p = pinned.map(|v| v * v).try_fold(0i128, i128::checked_add)?;
    let spread = m.checked_mul(p)?.checked_sub(a.checked_mul(a)?)?;
    // `m ≥ 1` and `spread ≥ 0` (Cauchy–Schwarz), so this rounds up.
    Some(((boxes.count() as i128).checked_mul(spread)? + m - 1) / m)
}

/// `n·Σ max(loᵢ², hiᵢ²) − min (Σxᵢ)²` over the same boxes: an upper bound on
/// the scaled variance, or `None` if it overflows `i128`.
pub(crate) fn variance_cap(boxes: impl Iterator<Item = (i64, i64)>) -> Option<i128> {
    let (mut n, mut sum_lo, mut sum_hi, mut max_sq) = (0i128, 0i128, 0i128, 0i128);
    for (lo, hi) in boxes.map(|(lo, hi)| (i128::from(lo), i128::from(hi))) {
        (n, sum_lo, sum_hi) = (n + 1, sum_lo + lo, sum_hi + hi);
        max_sq = max_sq.checked_add((lo * lo).max(hi * hi))?;
    }
    let min_sum = 0.clamp(sum_lo, sum_hi);
    n.checked_mul(max_sq)?
        .checked_sub(min_sum.checked_mul(min_sum)?)
}

impl Propagator for ScaledVariance {
    fn name(&self) -> &'static str {
        "scaled_variance"
    }

    fn dependencies(&self) -> Vec<VarId> {
        self.xs.clone()
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        let boxes = self.xs.iter().map(|&x| (ctx.min(x), ctx.max(x)));
        let (floor, cap) = (variance_floor(boxes.clone()), variance_cap(boxes));
        if let Some(floor) = floor {
            // Past `i64::MAX` `z` has no value; over point boxes it is exact.
            let floor = i64::try_from(floor).map_err(|_| Conflict)?;
            if self.xs.iter().all(|&x| ctx.is_fixed(x)) {
                ctx.assign(self.z, floor)?;
                return Ok(PropStatus::Entailed);
            }
            ctx.set_min(self.z, floor)?;
        }
        if let Some(cap) = cap.and_then(|c| i64::try_from(c).ok()) {
            ctx.set_max(self.z, cap)?;
        }
        Ok(PropStatus::Active)
    }

    // Prunes only `z`, which feeds no bound: one pass is a fixpoint.
    fn idempotent(&self) -> bool {
        true
    }

    // Over point boxes the floor is the exact value.
    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        let points = self.xs.iter().map(|&x| (values(x), values(x)));
        variance_floor(points) == Some(values(self.z).into())
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

    /// Calls `visit` with every multiset of `h` boxes drawn from `boxes`
    /// (the floor is symmetric in its boxes, so order does not matter).
    fn each_multiset<F: FnMut(&[(i64, i64)])>(
        boxes: &[(i64, i64)],
        h: usize,
        chosen: &mut Vec<(i64, i64)>,
        visit: &mut F,
    ) {
        if chosen.len() == h {
            return visit(chosen);
        }
        for (i, &b) in boxes.iter().enumerate() {
            chosen.push(b);
            each_multiset(&boxes[i..], h, chosen, visit);
            chosen.pop();
        }
    }

    #[test]
    fn variance_floor_is_the_rounded_up_box_minimum() {
        let boxes: Vec<(i64, i64)> = (-3..=6)
            .flat_map(|lo| (lo..=6).map(move |hi| (lo, hi)))
            .collect();
        let mut cases = 0;
        for h in 1..=4usize {
            let n = h as i64;
            each_multiset(&boxes, h, &mut Vec::new(), &mut |bs| {
                cases += 1;
                let floor = variance_floor(bs.iter().copied()).unwrap();
                // Both minima are n·min_t Σ(xᵢ(t) − t)², where xᵢ(t) is the
                // point of box i nearest to t: over the reals (the clamp of
                // t), or over the integers (the clamp of t rounded). Either
                // way the best t is the mean of at most four numbers inside
                // the boxes' hull, a multiple of 1/12, so scanning t = k/12
                // there finds both exactly, in units of 1/144.
                let (mut real_144, mut integer_144) = (i64::MAX, i64::MAX);
                let hull =
                    bs.iter().map(|b| b.0).min().unwrap()..=bs.iter().map(|b| b.1).max().unwrap();
                for k in 12 * hull.start()..=12 * hull.end() {
                    let (mut real, mut integer) = (0, 0);
                    for &(lo, hi) in bs {
                        let d = (12 * lo - k).max(k - 12 * hi).max(0);
                        real += d * d;
                        let d = k - 12 * ((k + 6).div_euclid(12)).clamp(lo, hi);
                        integer += d * d;
                    }
                    real_144 = real_144.min(real);
                    integer_144 = integer_144.min(integer);
                }
                let real_ceil = (n * real_144 + 143) / 144;
                assert_eq!(floor, i128::from(real_ceil), "boxes {bs:?}");
                assert_eq!(n * integer_144 % 144, 0, "boxes {bs:?}");
                let exact = n * integer_144 / 144;
                assert!(
                    floor <= i128::from(exact),
                    "boxes {bs:?}: {floor} > {exact}"
                );
            });
        }
        assert_eq!(cases, 55 + 1540 + 29_260 + 424_270);
    }

    #[test]
    fn scaled_variance_check_matches_the_formula() {
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..3).map(|_| m.new_var(-5, 9)).collect();
        let z = m.new_var(-1000, 1000);
        let p = ScaledVariance::new(z, xs.clone());
        for (a, b, c) in [(0, 0, 0), (3, -5, 9), (7, 7, 8), (-2, 4, 1)] {
            let value = 3 * (a * a + b * b + c * c) - (a + b + c) * (a + b + c);
            let at = |z_value: i64| {
                move |v: VarId| match v.index() {
                    0 => a,
                    1 => b,
                    2 => c,
                    _ => z_value,
                }
            };
            assert!(p.check(&at(value)), "({a}, {b}, {c}) = {value}");
            assert!(!p.check(&at(value + 1)));
        }
    }

    #[test]
    fn scaled_variance_bounds_and_fixes_z() {
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_var(5, 9);
        let z = m.scaled_variance_var(&[x, y]);
        m.propagate_root().unwrap();
        // Closest loads are 2 and 5: 2·(4 + 25) − 49 = 9. Farthest are 0
        // and 9: 2·81 − 81 = 81; the cap 2·(4 + 81) − 25 lies above it.
        assert_eq!(m.domain(z).min(), 9);
        assert_eq!(m.domain(z).max(), 145);
        m.linear_eq(&[(1, x)], 1);
        m.linear_eq(&[(1, y)], 6);
        m.propagate_root().unwrap();
        assert_eq!(m.domain(z).fixed_value(), Some(2 * (1 + 36) - 49));
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
