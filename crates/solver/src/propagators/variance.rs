//! The scaled variance `n·Σxᵢ² − (Σxᵢ)²` that Colog's `STDEV` goal is
//! lowered to, as one global propagator.
//!
//! Alone, the propagator bounds `z` below by the real minimum over the load
//! boxes `Π [loᵢ, hiᵢ]`. Given the loads' fixed total `Σxᵢ = T` (in ACloud
//! every VM sits on exactly one host; [`crate::Model::presolve`] derives it)
//! it is the SPREAD constraint with a known mean (Pesant & Régin, CP 2005;
//! Schaus et al., CPAIOR 2007): the floor is the minimum over the boxes cut
//! by `Σxᵢ = T`, and every load is filtered against `max(z)`.
//!
//! Both come from water-filling. The minimum of `Σxᵢ²` under `Σxᵢ = T`
//! clamps every load to one level `λ`, the one where
//! `Σ clamp(λ, loᵢ, hiᵢ) = T`. Between consecutive box ends the loads pinned
//! at a bound (sum `a`, squares `p`) and the `m` free ones at `λ` are fixed,
//! so the level is `(T − a)/m` and the floor a closed form. Forcing `xᵢ = u`
//! above its optimum lowers the others' level; each piece the level then
//! crosses is again a closed form, a quadratic in `u`, whose root is the
//! largest `u` the incumbent allows. Every bound is checked exactly in
//! `i128` before it prunes.

use crate::model::VarId;
use crate::propagator::{Conflict, PropStatus, Propagator, PropagatorContext};

/// `z == n·Σxᵢ² − (Σxᵢ)²` over the `n` variables `xs`: the scaled integer
/// variance Colog's `STDEV` goal is lowered to (the standard deviation's
/// argmin, in integers). `z` is bounded below by the real minimum over the
/// whole box `Π [loᵢ, hiᵢ]`, not term by term.
///
/// Without a `total`, only `z` is pruned and `z` is not watched: a tightened
/// upper bound conflicts in the store itself. With one, the propagator also
/// watches `z`, raises the floor to the minimum over the boxes cut by
/// `Σxᵢ = total` and narrows each `xᵢ` to the values whose floor stays
/// within `max(z)` (see the module docs). `Σxᵢ = total` must be implied by
/// the model; the propagator leaves enforcing it to the model's own
/// constraints and only fails when the boxes cannot reach it. Ends beyond
/// `±2⁴⁰` or more than 4 096 loads fall back to the behaviour without a
/// total.
#[derive(Debug, Clone)]
pub struct ScaledVariance {
    pub z: VarId,
    pub xs: Vec<VarId>,
    /// `Σxs`, when every solution of the model has the same one.
    pub total: Option<i64>,
}

impl ScaledVariance {
    pub fn new(z: VarId, xs: Vec<VarId>) -> Self {
        assert!(!xs.is_empty());
        ScaledVariance { z, xs, total: None }
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

/// Box ends beyond this magnitude, or more than [`EXACT_LOADS`] loads, leave
/// the total unused: within both, no quantity below overflows `i128`.
const EXACT_END: u64 = 1 << 40;
const EXACT_LOADS: usize = 1 << 12;

/// Box ends a spread sorts on the stack; larger spreads sort on the heap.
const STACK_ENDS: usize = 64;

/// One end of a load's box.
#[derive(Debug, Clone, Copy, Default)]
struct End {
    value: i64,
    load: u32,
    upper: bool,
}

/// The loads at one water level: `m` free at the level, the rest pinned at
/// a box end, with sum `a` and sum of squares `p`.
#[derive(Debug, Clone, Copy)]
struct Piece {
    m: i128,
    a: i128,
    p: i128,
}

impl Piece {
    /// Moves the level down across a box end of value `v`: a load leaves
    /// its upper end, or settles on its lower one.
    fn cross(&mut self, v: i128, upper: bool) {
        let (dm, dv) = if upper { (1, -1) } else { (-1, 1) };
        self.m += dm;
        self.a += dv * v;
        self.p += dv * v * v;
    }
}

/// A spread with total `t`, seen by a level that sweeps down the box ends:
/// `sign = 1` sees the loads, `sign = −1` their negations, whose upper
/// bounds are the loads' lower bounds negated.
struct Sweep<'a> {
    /// Every box end, by value, largest first.
    ends: &'a [End],
    sign: i64,
    n: i128,
    t: i128,
    /// `max(z) + T²`: a point fits when `n·Σxᵢ² ≤ zmax_t2`.
    zmax_t2: i128,
}

impl Sweep<'_> {
    /// The `k`-th end the level meets: value, load, whether it is an upper end.
    fn end(&self, k: usize) -> (i128, usize, bool) {
        let e = if self.sign > 0 {
            self.ends[k]
        } else {
            self.ends[self.ends.len() - 1 - k]
        };
        let value = i128::from(self.sign * e.value);
        (value, e.load as usize, (self.sign > 0) == e.upper)
    }

    /// The piece the optimum's level lies on, its lower edge `e`, and the
    /// index of the first end at `e`. `top` has every load at its upper
    /// end; `Σ loᵢ ≤ T` guarantees a stop by the last end.
    fn level(&self, top: Piece) -> (Piece, i128, usize) {
        let (mut piece, mut k) = (top, 0);
        loop {
            let e = self.end(k).0;
            if piece.a + piece.m * e <= self.t {
                return (piece, e, k);
            }
            while k < self.ends.len() && self.end(k).0 == e {
                let (v, _, upper) = self.end(k);
                piece.cross(v, upper);
                k += 1;
            }
        }
    }

    /// `⌈n·Σxᵢ² − T²⌉` at the optimum on `piece`.
    fn floor(&self, piece: Piece) -> i128 {
        let Piece { m, a, p } = piece;
        if m == 0 {
            return self.n * p - self.t * self.t;
        }
        let d = self.t - a;
        ceil_div(self.n * (m * p + d * d) - m * self.t * self.t, m)
    }

    /// Whether `xᵢ = u` fits under `max(z)` when the other loads, on
    /// `piece`, sum to `T − u`; `r = T − a`. Exact for `u` on the piece.
    fn fits(&self, piece: Piece, r: i128, u: i128) -> bool {
        let sq = u * u + piece.p;
        if piece.m == 0 {
            return u == r && self.n * sq <= self.zmax_t2;
        }
        self.n * (piece.m * sq + (r - u) * (r - u)) <= piece.m * self.zmax_t2
    }

    /// The largest value `u ≤ hi` of load `i`, box `[lo, hi]`, that fits,
    /// given the optimum's piece `at` from [`Sweep::level`]. Below the
    /// optimum it answers `⌈x*ᵢ⌉ − 1`: the other sweep covers that side.
    /// Past the values the other loads can balance (all at their lower
    /// ends) it keeps the box: `Σxᵢ = T` is the model's own constraint, and
    /// its propagators enforce it.
    fn last(&self, at: (Piece, i128, usize), i: usize, lo: i128, hi: i128) -> i128 {
        let (global, e, mut k) = at;
        let mut piece = global;
        // Take load `i` out; `start` is the first integer at or past its optimum.
        let mut start = if hi <= e {
            (piece.a, piece.p) = (piece.a - hi, piece.p - hi * hi);
            hi
        } else if lo > e {
            (piece.a, piece.p) = (piece.a - lo, piece.p - lo * lo);
            lo
        } else {
            piece.m -= 1;
            ceil_div(self.t - global.a, global.m)
        };
        let mut edge = Some(e);
        loop {
            // The others sit at a level λ ≥ edge of this piece, so
            // u = r − m·λ grows as the level falls to the edge.
            let r = self.t - piece.a;
            let b = edge.map_or(r, |e| r - piece.m * e).min(hi);
            if !self.fits(piece, r, b) {
                return self.last_fit(piece, r, start, b);
            }
            let Some(e) = edge.filter(|_| b < hi) else {
                return hi;
            };
            start = b;
            while k < self.ends.len() && self.end(k).0 == e {
                let (v, load, upper) = self.end(k);
                if load != i {
                    piece.cross(v, upper);
                }
                k += 1;
            }
            edge = (k < self.ends.len()).then(|| self.end(k).0);
        }
    }

    /// The largest `u` in `[start, b)` that fits on `piece`, or `start − 1`.
    /// `b` does not fit, and fitting is monotone (true, then false) there.
    fn last_fit(&self, piece: Piece, r: i128, start: i128, b: i128) -> i128 {
        let (mut ok, mut bad) = (start - 1, b);
        if piece.m > 0 && bad - ok > 1 {
            // Probe at the floor of the quadratic's real root and its
            // successor, which settles it unless rounding moved the root.
            let (m, n, r_f) = (piece.m as f64, self.n as f64, r as f64);
            let inner =
                m * ((m + 1.0) * (self.zmax_t2 as f64 - n * piece.p as f64) - n * r_f * r_f);
            let root = (r_f + (inner.max(0.0) / n).sqrt()) / (m + 1.0);
            let guess = (root.floor() as i128).clamp(ok + 1, bad - 1);
            if self.fits(piece, r, guess) {
                ok = guess;
                if guess + 1 < bad && !self.fits(piece, r, guess + 1) {
                    return guess;
                }
            } else {
                bad = guess;
            }
        }
        while bad - ok > 1 {
            let mid = ok + (bad - ok) / 2;
            if self.fits(piece, r, mid) {
                ok = mid;
            } else {
                bad = mid;
            }
        }
        ok
    }
}

fn ceil_div(a: i128, m: i128) -> i128 {
    -(-a).div_euclid(m)
}

impl ScaledVariance {
    /// [`Propagator::prune`] with the loads' total; `None` when the boxes
    /// leave the range where it is exact.
    fn prune_spread(
        &self,
        total: i64,
        ctx: &mut PropagatorContext<'_>,
    ) -> Result<Option<PropStatus>, Conflict> {
        let n = self.xs.len();
        if n > EXACT_LOADS {
            return Ok(None);
        }
        let (mut stack, mut heap) = ([End::default(); STACK_ENDS], Vec::new());
        let ends: &mut [End] = if 2 * n <= STACK_ENDS {
            &mut stack[..2 * n]
        } else {
            heap.resize(2 * n, End::default());
            &mut heap
        };
        let (mut sum_lo, mut sum_hi, mut sq_lo, mut sq_hi, mut sq_max) = (0, 0, 0, 0, 0i128);
        for (j, &x) in self.xs.iter().enumerate() {
            let (lo, hi) = (ctx.min(x), ctx.max(x));
            if lo.unsigned_abs().max(hi.unsigned_abs()) > EXACT_END {
                return Ok(None);
            }
            ends[2 * j] = End {
                value: lo,
                load: j as u32,
                upper: false,
            };
            ends[2 * j + 1] = End {
                value: hi,
                load: j as u32,
                upper: true,
            };
            let (lo, hi) = (i128::from(lo), i128::from(hi));
            (sum_lo, sum_hi) = (sum_lo + lo, sum_hi + hi);
            (sq_lo, sq_hi, sq_max) = (
                sq_lo + lo * lo,
                sq_hi + hi * hi,
                sq_max + (lo * lo).max(hi * hi),
            );
        }
        let (n, t) = (n as i128, i128::from(total));
        if t < sum_lo || t > sum_hi {
            return Err(Conflict);
        }
        if sum_lo == sum_hi {
            ctx.assign(
                self.z,
                i64::try_from(n * sq_lo - t * t).map_err(|_| Conflict)?,
            )?;
            return Ok(Some(PropStatus::Entailed));
        }
        ends.sort_unstable_by_key(|end| std::cmp::Reverse(end.value));
        let mut down = Sweep {
            ends,
            sign: 1,
            n,
            t,
            zmax_t2: 0,
        };
        let at_down = down.level(Piece {
            m: 0,
            a: sum_hi,
            p: sq_hi,
        });
        ctx.set_min(
            self.z,
            i64::try_from(down.floor(at_down.0)).map_err(|_| Conflict)?,
        )?;
        if let Ok(cap) = i64::try_from(n * sq_max - t * t) {
            ctx.set_max(self.z, cap)?;
        }
        let zmax_t2 = i128::from(ctx.max(self.z)) + t * t;
        if n * sq_max <= zmax_t2 {
            // Under the cap every point fits.
            return Ok(Some(PropStatus::Active));
        }
        down.zmax_t2 = zmax_t2;
        let up = Sweep {
            ends,
            sign: -1,
            n,
            t: -t,
            zmax_t2,
        };
        let at_up = up.level(Piece {
            m: 0,
            a: -sum_lo,
            p: sq_lo,
        });
        for (j, &x) in self.xs.iter().enumerate() {
            let (lo, hi) = (i128::from(ctx.min(x)), i128::from(ctx.max(x)));
            let new_hi = down.last(at_down, j, lo, hi);
            let new_lo = -up.last(at_up, j, -hi, -lo);
            // Both lie within `[lo − 1, hi + 1]`, well inside `i64`.
            ctx.intersect(x, new_lo as i64, new_hi as i64)?;
        }
        Ok(Some(PropStatus::Active))
    }
}

impl Propagator for ScaledVariance {
    fn name(&self) -> &'static str {
        "scaled_variance"
    }

    fn dependencies(&self) -> Vec<VarId> {
        let mut deps = self.xs.clone();
        deps.extend(self.total.map(|_| self.z));
        deps
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        if let Some(total) = self.total {
            if let Some(status) = self.prune_spread(total, ctx)? {
                return Ok(status);
            }
        }
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

    // Without a total only `z` is pruned, which feeds no bound: one pass is
    // a fixpoint. With one, narrowed loads can raise the floor again.
    fn idempotent(&self) -> bool {
        self.total.is_none()
    }

    // Over point boxes the floor is the exact value.
    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        let points = self.xs.iter().map(|&x| (values(x), values(x)));
        variance_floor(points) == Some(values(self.z).into())
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Model, Store};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Runs one `prune` of a `ScaledVariance` with `total` over `boxes` and
    /// `z ∈ [0, zmax]`; the boxes after it, then `z`'s.
    fn prune_once(boxes: &[(i64, i64)], total: i64, zmax: i64) -> Option<Vec<(i64, i64)>> {
        let n = boxes.len();
        let mut domains: Vec<Domain> = boxes.iter().map(|&(lo, hi)| Domain::new(lo, hi)).collect();
        domains.push(Domain::new(0, zmax));
        let mut store = Store::from_domains(domains);
        let p = ScaledVariance {
            z: VarId::from_index(n),
            xs: (0..n).map(VarId::from_index).collect(),
            total: Some(total),
        };
        let (mut changed, mut prunings) = (Vec::new(), 0);
        p.prune(&mut PropagatorContext::new(
            &mut store,
            &mut changed,
            &mut prunings,
        ))
        .ok()?;
        Some(
            (0..=n)
                .map(|i| (store.domain(i).min(), store.domain(i).max()))
                .collect(),
        )
    }

    /// `min n·(144·Σxᵢ²)` over the reals with `Σxᵢ = total` in the boxes
    /// (`None` if none sum to it), scaled by 144 to stay integral: with at
    /// most four loads the optimal level is a multiple of 1/12, so scanning
    /// `λ = k/12` finds it. An oracle independent of the sweep.
    fn real_min_144(boxes: &[(i64, i64)], total: i64) -> Option<i64> {
        if boxes.is_empty() {
            return (total == 0).then_some(0);
        }
        let lo = boxes.iter().map(|b| b.0).min().unwrap();
        let hi = boxes.iter().map(|b| b.1).max().unwrap();
        (12 * lo..=12 * hi)
            .filter_map(|k| {
                let xs = boxes.iter().map(|&(lo, hi)| k.clamp(12 * lo, 12 * hi));
                (xs.clone().sum::<i64>() == 12 * total).then(|| xs.map(|x| x * x).sum())
            })
            .min()
    }

    /// One prune is exact: `z`'s floor is the real minimum over the boxes
    /// cut by `Σxᵢ = T`, rounded up, and each load keeps exactly the values
    /// `u` whose real minimum with `xᵢ = u` stays within `max(z)`, and those
    /// past the values the other loads can balance.
    #[test]
    fn one_prune_is_exact_against_a_scanning_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..20_000 {
            let n = rng.gen_range(1..=4usize);
            let boxes: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range(-3..=6i64);
                    (lo, lo + rng.gen_range(0..=6i64))
                })
                .collect();
            let (sum_lo, sum_hi): (i64, i64) = (
                boxes.iter().map(|b| b.0).sum(),
                boxes.iter().map(|b| b.1).sum(),
            );
            let total = rng.gen_range(sum_lo - 1..=sum_hi + 1);
            let zmax = rng.gen_range(0..=40 * n as i64);
            let got = prune_once(&boxes, total, zmax);
            let ctx = format!("case {case}: boxes {boxes:?}, total {total}, zmax {zmax}: {got:?}");
            let (nn, t2) = (n as i64, total * total);
            let Some(min_144) = real_min_144(&boxes, total) else {
                assert_eq!(got, None, "{ctx}");
                continue;
            };
            let floor = (nn * min_144 - 144 * t2 + 143).div_euclid(144);
            if floor > zmax {
                assert_eq!(got, None, "{ctx}");
                continue;
            }
            let mut expected = Vec::new();
            for (i, &(lo, hi)) in boxes.iter().enumerate() {
                let mut others = boxes.clone();
                others.remove(i);
                let fits = |u: i64| {
                    real_min_144(&others, total - u)
                        .is_some_and(|m| nn * (144 * u * u + m) <= 144 * (zmax + t2))
                };
                let kept: Vec<i64> = (lo..=hi).filter(|&u| fits(u)).collect();
                // The floor is convex in `u`: what fits is an interval. Past
                // the values the others can balance the box is kept.
                assert!(kept.windows(2).all(|w| w[1] == w[0] + 1), "{ctx}");
                let rest = |end: fn(&(i64, i64)) -> i64| others.iter().map(end).sum::<i64>();
                let (lowest, highest) = (total - rest(|b| b.1), total - rest(|b| b.0));
                expected.push(kept.first().zip(kept.last()).map(|(&a, &b)| {
                    let a = if a == lowest && lowest > lo { lo } else { a };
                    (a, if b == highest && highest < hi { hi } else { b })
                }));
            }
            if expected.contains(&None) {
                assert_eq!(got, None, "{ctx}");
                continue;
            }
            let got = got.unwrap_or_else(|| panic!("{ctx}"));
            let expected: Vec<(i64, i64)> = expected.into_iter().flatten().collect();
            assert_eq!(&got[..n], &expected[..], "{ctx}");
            assert_eq!(
                got[n].0,
                if sum_lo == sum_hi {
                    nn * boxes.iter().map(|b| b.0 * b.0).sum::<i64>() - t2
                } else {
                    floor
                },
                "{ctx}"
            );
        }
    }

    /// Every value that appears in an integer point with `Σxᵢ = T` and
    /// `n·Σxᵢ² − T² ≤ zmax` survives propagation to the fixpoint, and `z`'s
    /// floor never passes the integer minimum nor falls below the floor
    /// without the total.
    #[test]
    fn propagation_keeps_every_supported_value() {
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..5_000 {
            let n = rng.gen_range(1..=4usize);
            let boxes: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range(-3..=6i64);
                    (lo, lo + rng.gen_range(0..=6i64))
                })
                .collect();
            let (sum_lo, sum_hi): (i64, i64) = (
                boxes.iter().map(|b| b.0).sum(),
                boxes.iter().map(|b| b.1).sum(),
            );
            let total = rng.gen_range(sum_lo..=sum_hi);
            let zmax = rng.gen_range(0..=40 * n as i64);
            // Every integer point of the boxes on `Σxᵢ = T`, with its value.
            let mut points: Vec<(Vec<i64>, i64)> = Vec::new();
            let mut x: Vec<i64> = boxes.iter().map(|b| b.0).collect();
            loop {
                if x.iter().sum::<i64>() == total {
                    let sq: i64 = x.iter().map(|v| v * v).sum();
                    points.push((x.clone(), n as i64 * sq - total * total));
                }
                let Some(i) = (0..n).find(|&i| x[i] < boxes[i].1) else {
                    break;
                };
                x[i] += 1;
                for (j, v) in x.iter_mut().enumerate().take(i) {
                    *v = boxes[j].0;
                }
            }
            let exact_min = points.iter().map(|p| p.1).min().unwrap();
            let mut m = Model::new();
            let xs: Vec<VarId> = boxes.iter().map(|&(lo, hi)| m.new_var(lo, hi)).collect();
            let z = m.new_var(0, zmax);
            m.post(ScaledVariance {
                z,
                xs: xs.clone(),
                total: Some(total),
            });
            let ctx = format!("case {case}: boxes {boxes:?}, total {total}, zmax {zmax}");
            let supported: Vec<&Vec<i64>> = points
                .iter()
                .filter(|p| p.1 <= zmax)
                .map(|p| &p.0)
                .collect();
            if m.propagate_root().is_err() {
                assert!(supported.is_empty(), "{ctx}: conflict with {supported:?}");
                continue;
            }
            for point in supported {
                for (&x, &v) in xs.iter().zip(point) {
                    assert!(m.domain(x).contains(v), "{ctx}: lost {v} of {point:?}");
                }
            }
            let floor = m.domain(z).min();
            assert!(floor <= exact_min, "{ctx}: floor {floor} > {exact_min}");
            let free = variance_floor(boxes.iter().copied()).unwrap();
            assert!(i128::from(floor) >= free, "{ctx}: floor {floor} < {free}");
        }
    }

    #[test]
    fn a_fixed_total_narrows_the_loads_to_the_incumbent() {
        // Three loads in [0, 10] summing to 15 under z ≤ 6: with x₀ = 7 the
        // others share 8, and 3·(49 + 2·16) − 225 = 18 > 6; with x₀ = 6 they
        // share 9 and the floor is 4.5. Symmetrically x₀ ≥ 4.
        let got = prune_once(&[(0, 10); 3], 15, 6).unwrap();
        assert_eq!(got, vec![(4, 6), (4, 6), (4, 6), (0, 6)]);
        // 40 loads sort on the heap: the level is 1.5, and a load at 0 or 3
        // leaves the other 39 a floor of 92.3 > 20.
        let got = prune_once(&[(0, 3); 40], 60, 20).unwrap();
        assert!(got[..40].iter().all(|&b| b == (1, 2)), "{got:?}");
        assert_eq!(got[40], (0, 20));
        // Ends past ±2⁴⁰ leave the total unused: only `z` moves.
        let huge = 1 << 41;
        let got = prune_once(&[(0, huge), (0, huge)], huge, 6).unwrap();
        assert_eq!(got, vec![(0, huge), (0, huge), (0, 6)]);
        // Without the total only `z` moves.
        let mut m = Model::new();
        let xs: Vec<VarId> = (0..3).map(|_| m.new_var(0, 10)).collect();
        let z = m.new_var(0, 6);
        m.post(ScaledVariance::new(z, xs.clone()));
        m.propagate_root().unwrap();
        assert!(xs
            .iter()
            .all(|&x| (m.domain(x).min(), m.domain(x).max()) == (0, 10)));
    }
}
