//! Integer variable domains.
//!
//! A [`Domain`] is a finite set of `i64` values represented as an inclusive
//! interval `[lo, hi]` together with a sorted list of interior *hole ranges*
//! (maximal runs of values strictly between `lo` and `hi` that have been
//! removed). This representation supports the two kinds of pruning the
//! Cologne propagators need: cheap bounds tightening (for linear arithmetic)
//! and individual value removal (for disequalities such as the primary-user
//! constraint `C != C2` in the wireless use case) — while staying compact for
//! sparse wide-range domains: `Domain::from_values(&[0, 1_000_000])` stores a
//! single hole range, not a million individual holes.
//!
//! Invariants maintained by every operation:
//!
//! * hole ranges lie strictly inside the bounds (`lo < s <= e < hi`), so the
//!   bounds themselves are always members;
//! * ranges are sorted, disjoint and non-adjacent (separated by at least one
//!   present value), so the representation of a value set is canonical and
//!   `PartialEq` on domains is set equality;
//! * `removed` caches the total number of values covered by the hole ranges,
//!   making [`Domain::size`] O(1) — which is what lets first-fail branching
//!   ([`crate::Branching::SmallestDomain`]) scan domain sizes cheaply at
//!   every search node.

/// A finite integer domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    lo: i64,
    hi: i64,
    /// Number of values covered by `holes` (cached for O(1) `size`).
    removed: u64,
    /// Maximal removed runs strictly inside `(lo, hi)`: sorted, disjoint,
    /// non-adjacent `(start, end)` inclusive ranges.
    holes: Vec<(i64, i64)>,
}

// The mutating operations signal "domain wiped out" with `Err(())`: the
// emptiness itself is the entire failure payload (propagators immediately
// translate it into a `Conflict`), so a dedicated error type would carry no
// information.
#[allow(clippy::result_unit_err)]
impl Domain {
    /// Create the interval domain `[lo, hi]`. Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty initial domain [{lo}, {hi}]");
        Domain {
            lo,
            hi,
            removed: 0,
            holes: Vec::new(),
        }
    }

    /// Create a singleton domain `{v}`.
    pub fn singleton(v: i64) -> Self {
        Domain {
            lo: v,
            hi: v,
            removed: 0,
            holes: Vec::new(),
        }
    }

    /// Create a domain from an explicit set of values. Panics if empty.
    ///
    /// Holes are built from the *gaps* between consecutive sorted values, so
    /// the cost is O(n log n) in the number of values — independent of how
    /// wide the value range is.
    pub fn from_values(values: &[i64]) -> Self {
        assert!(!values.is_empty(), "domain must contain at least one value");
        let mut sorted: Vec<i64> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let lo = sorted[0];
        let hi = *sorted.last().unwrap();
        let mut holes = Vec::new();
        let mut removed = 0u64;
        for w in sorted.windows(2) {
            if w[1] > w[0] + 1 {
                holes.push((w[0] + 1, w[1] - 1));
                removed += (w[1] - w[0] - 1) as u64;
            }
        }
        Domain {
            lo,
            hi,
            removed,
            holes,
        }
    }

    /// Smallest value in the domain.
    #[inline]
    pub fn min(&self) -> i64 {
        self.lo
    }

    /// Largest value in the domain.
    #[inline]
    pub fn max(&self) -> i64 {
        self.hi
    }

    /// Number of values in the domain (O(1): the hole count is cached).
    #[inline]
    pub fn size(&self) -> u64 {
        (self.hi - self.lo + 1) as u64 - self.removed
    }

    /// True if the domain contains exactly one value.
    #[inline]
    pub fn is_fixed(&self) -> bool {
        self.lo == self.hi
    }

    /// The single value of a fixed domain, or `None`.
    #[inline]
    pub fn fixed_value(&self) -> Option<i64> {
        if self.is_fixed() {
            Some(self.lo)
        } else {
            None
        }
    }

    /// True if `v` belongs to the domain.
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        if v < self.lo || v > self.hi {
            return false;
        }
        let idx = self.holes.partition_point(|&(s, _)| s <= v);
        idx == 0 || self.holes[idx - 1].1 < v
    }

    /// Iterate over all values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let starts = std::iter::once(self.lo).chain(self.holes.iter().map(|&(_, e)| e + 1));
        let ends = self
            .holes
            .iter()
            .map(|&(s, _)| s - 1)
            .chain(std::iter::once(self.hi));
        starts.zip(ends).flat_map(|(a, b)| a..=b)
    }

    fn wipe_out(&mut self) {
        self.holes.clear();
        self.removed = 0;
    }

    /// Remove every value `< bound`. Returns `true` if the domain changed,
    /// `Err(())` if it became empty.
    #[inline]
    pub fn remove_below(&mut self, bound: i64) -> Result<bool, ()> {
        if bound <= self.lo {
            return Ok(false);
        }
        if bound > self.hi {
            self.lo = bound;
            self.wipe_out();
            return Err(());
        }
        let mut new_lo = bound;
        let mut drop = 0;
        for &(s, e) in &self.holes {
            if e < new_lo {
                // hole entirely below the new bound
                self.removed -= (e - s + 1) as u64;
                drop += 1;
            } else if s <= new_lo {
                // the new bound lands inside a hole: jump past it
                self.removed -= (e - s + 1) as u64;
                drop += 1;
                new_lo = e + 1;
                break;
            } else {
                break;
            }
        }
        self.holes.drain(..drop);
        self.lo = new_lo;
        debug_assert!(self.lo <= self.hi);
        Ok(true)
    }

    /// Remove every value `> bound`. Returns `true` if the domain changed,
    /// `Err(())` if it became empty.
    #[inline]
    pub fn remove_above(&mut self, bound: i64) -> Result<bool, ()> {
        if bound >= self.hi {
            return Ok(false);
        }
        if bound < self.lo {
            self.hi = bound;
            self.wipe_out();
            return Err(());
        }
        let mut new_hi = bound;
        let mut keep = self.holes.len();
        for &(s, e) in self.holes.iter().rev() {
            if s > new_hi {
                self.removed -= (e - s + 1) as u64;
                keep -= 1;
            } else if e >= new_hi {
                self.removed -= (e - s + 1) as u64;
                keep -= 1;
                new_hi = s - 1;
                break;
            } else {
                break;
            }
        }
        self.holes.truncate(keep);
        self.hi = new_hi;
        debug_assert!(self.lo <= self.hi);
        Ok(true)
    }

    /// Remove a single value. Returns `true` if the domain changed,
    /// `Err(())` if it became empty.
    pub fn remove_value(&mut self, v: i64) -> Result<bool, ()> {
        if !self.contains(v) {
            return Ok(false);
        }
        if self.is_fixed() {
            return Err(());
        }
        if v == self.lo {
            self.lo += 1;
            // pull the bound over an adjoining hole (at most one: ranges are
            // maximal, so the next range cannot also start at the new bound)
            if let Some(&(s, e)) = self.holes.first() {
                if s == self.lo {
                    self.removed -= (e - s + 1) as u64;
                    self.lo = e + 1;
                    self.holes.remove(0);
                }
            }
        } else if v == self.hi {
            self.hi -= 1;
            if let Some(&(s, e)) = self.holes.last() {
                if e == self.hi {
                    self.removed -= (e - s + 1) as u64;
                    self.hi = s - 1;
                    self.holes.pop();
                }
            }
        } else {
            // interior removal: insert a unit hole, merging with neighbours
            let idx = self.holes.partition_point(|&(s, _)| s < v);
            let merge_prev = idx > 0 && self.holes[idx - 1].1 == v - 1;
            let merge_next = idx < self.holes.len() && self.holes[idx].0 == v + 1;
            match (merge_prev, merge_next) {
                (true, true) => {
                    self.holes[idx - 1].1 = self.holes[idx].1;
                    self.holes.remove(idx);
                }
                (true, false) => self.holes[idx - 1].1 = v,
                (false, true) => self.holes[idx].0 = v,
                (false, false) => self.holes.insert(idx, (v, v)),
            }
            self.removed += 1;
        }
        debug_assert!(self.lo <= self.hi);
        Ok(true)
    }

    /// Reduce the domain to the single value `v`. Returns `true` if the
    /// domain changed, `Err(())` if `v` is not a member.
    #[inline]
    pub fn assign(&mut self, v: i64) -> Result<bool, ()> {
        if !self.contains(v) {
            return Err(());
        }
        if self.is_fixed() {
            return Ok(false);
        }
        self.lo = v;
        self.hi = v;
        self.wipe_out();
        Ok(true)
    }

    /// Intersect with the interval `[lo, hi]`.
    #[inline]
    pub fn intersect_bounds(&mut self, lo: i64, hi: i64) -> Result<bool, ()> {
        let a = self.remove_below(lo)?;
        let b = self.remove_above(hi)?;
        Ok(a || b)
    }

    /// Median value of the current bounds, used for domain bisection.
    pub fn median(&self) -> i64 {
        // Midpoint of bounds; always a valid split point for bisection
        // (`<= mid` / `> mid`) even if it happens to be a hole.
        self.lo + (self.hi - self.lo) / 2
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_fixed() {
            write!(f, "{{{}}}", self.lo)
        } else if self.holes.is_empty() {
            write!(f, "[{}, {}]", self.lo, self.hi)
        } else {
            write!(f, "[{}, {}]\\{{", self.lo, self.hi)?;
            for (i, &(s, e)) in self.holes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if s == e {
                    write!(f, "{s}")?;
                } else {
                    write!(f, "{s}..{e}")?;
                }
            }
            write!(f, "}}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_interval_basics() {
        let d = Domain::new(-3, 4);
        assert_eq!(d.min(), -3);
        assert_eq!(d.max(), 4);
        assert_eq!(d.size(), 8);
        assert!(!d.is_fixed());
        assert!(d.contains(0));
        assert!(!d.contains(5));
    }

    #[test]
    #[should_panic]
    fn empty_interval_panics() {
        let _ = Domain::new(2, 1);
    }

    #[test]
    fn singleton_is_fixed() {
        let d = Domain::singleton(7);
        assert!(d.is_fixed());
        assert_eq!(d.fixed_value(), Some(7));
        assert_eq!(d.size(), 1);
    }

    #[test]
    fn from_values_builds_holes() {
        let d = Domain::from_values(&[1, 3, 6, 3]);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 6);
        assert_eq!(d.size(), 3);
        assert!(d.contains(3));
        assert!(!d.contains(2));
        assert!(!d.contains(4));
        let values: Vec<i64> = d.iter().collect();
        assert_eq!(values, vec![1, 3, 6]);
    }

    #[test]
    fn from_values_sparse_wide_range_is_compact() {
        // Regression: the old representation pushed every missing integer in
        // [lo, hi] as an individual hole — O(range) memory/time. Gap-based
        // construction stores one range per gap.
        let d = Domain::from_values(&[0, 1_000_000]);
        assert_eq!(d.size(), 2);
        assert_eq!(d.holes.len(), 1);
        assert_eq!(d.holes[0], (1, 999_999));
        assert!(d.contains(0));
        assert!(d.contains(1_000_000));
        assert!(!d.contains(1));
        assert!(!d.contains(999_999));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 1_000_000]);

        let d2 = Domain::from_values(&[-5_000_000, 0, 7, 12_345_678]);
        assert_eq!(d2.size(), 4);
        assert_eq!(d2.holes.len(), 3);
        assert_eq!(
            d2.iter().collect::<Vec<_>>(),
            vec![-5_000_000, 0, 7, 12_345_678]
        );
    }

    #[test]
    fn sparse_domain_ops_preserve_compactness() {
        let mut d = Domain::from_values(&[0, 500, 1_000_000]);
        assert_eq!(d.remove_value(500), Ok(true));
        assert_eq!(d.size(), 2);
        assert_eq!(d.holes.len(), 1, "adjacent hole ranges must merge");
        assert_eq!(d.remove_below(1), Ok(true));
        assert_eq!(d.fixed_value(), Some(1_000_000));
    }

    #[test]
    fn remove_below_above() {
        let mut d = Domain::new(0, 10);
        assert_eq!(d.remove_below(3), Ok(true));
        assert_eq!(d.remove_above(7), Ok(true));
        assert_eq!(d.min(), 3);
        assert_eq!(d.max(), 7);
        assert_eq!(d.remove_below(3), Ok(false));
        assert!(d.remove_below(8).is_err());
    }

    #[test]
    fn bounds_land_inside_holes() {
        let mut d = Domain::new(0, 10);
        for v in [4, 5, 6] {
            d.remove_value(v).unwrap();
        }
        // removing below 5 must pull lo past the whole hole run to 7
        assert_eq!(d.remove_below(5), Ok(true));
        assert_eq!(d.min(), 7);
        assert_eq!(d.size(), 4);
        let mut d2 = Domain::new(0, 10);
        for v in [4, 5, 6] {
            d2.remove_value(v).unwrap();
        }
        assert_eq!(d2.remove_above(5), Ok(true));
        assert_eq!(d2.max(), 3);
        assert_eq!(d2.size(), 4);
    }

    #[test]
    fn remove_value_creates_hole_and_adjusts_bounds() {
        let mut d = Domain::new(0, 4);
        assert_eq!(d.remove_value(2), Ok(true));
        assert!(!d.contains(2));
        assert_eq!(d.size(), 4);
        // removing the bound shifts it over existing holes
        assert_eq!(d.remove_value(0), Ok(true));
        assert_eq!(d.min(), 1);
        assert_eq!(d.remove_value(1), Ok(true));
        assert_eq!(d.min(), 3); // 2 was a hole, skipped
        assert_eq!(d.remove_value(4), Ok(true));
        assert!(d.is_fixed());
        assert_eq!(d.fixed_value(), Some(3));
        assert!(d.remove_value(3).is_err());
    }

    #[test]
    fn assign_behaviour() {
        let mut d = Domain::new(0, 9);
        assert_eq!(d.assign(5), Ok(true));
        assert_eq!(d.fixed_value(), Some(5));
        assert_eq!(d.assign(5), Ok(false));
        let mut d2 = Domain::from_values(&[1, 3, 5]);
        assert!(d2.assign(2).is_err());
    }

    #[test]
    fn intersect_bounds_combines() {
        let mut d = Domain::new(0, 100);
        assert_eq!(d.intersect_bounds(10, 20), Ok(true));
        assert_eq!(d.min(), 10);
        assert_eq!(d.max(), 20);
        assert!(d.intersect_bounds(30, 40).is_err());
    }

    #[test]
    fn median_is_within_bounds() {
        let d = Domain::new(-10, 11);
        let m = d.median();
        assert!(m >= d.min() && m <= d.max());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Domain::singleton(3).to_string(), "{3}");
        assert_eq!(Domain::new(1, 4).to_string(), "[1, 4]");
        let mut d = Domain::new(0, 9);
        d.remove_value(3).unwrap();
        d.remove_value(5).unwrap();
        d.remove_value(6).unwrap();
        assert_eq!(d.to_string(), "[0, 9]\\{3, 5..6}");
    }

    #[test]
    fn iter_skips_holes_after_bound_updates() {
        let mut d = Domain::new(0, 6);
        d.remove_value(3).unwrap();
        d.remove_below(1).unwrap();
        d.remove_above(5).unwrap();
        let values: Vec<i64> = d.iter().collect();
        assert_eq!(values, vec![1, 2, 4, 5]);
        assert_eq!(d.size(), 4);
    }

    #[test]
    fn size_stays_consistent_with_iter() {
        let mut d = Domain::new(-5, 15);
        for v in [0, 1, 2, 7, 9, 8, -5, 15, 14] {
            let _ = d.remove_value(v);
        }
        assert_eq!(d.size() as usize, d.iter().count());
        d.remove_below(-1).unwrap();
        assert_eq!(d.size() as usize, d.iter().count());
        d.remove_above(10).unwrap();
        assert_eq!(d.size() as usize, d.iter().count());
    }
}
