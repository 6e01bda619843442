//! Order statistics over latency samples and over repeated rounds.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median`: how far the repetitions of one measurement
/// disagree, as a share of the value reported for them.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Nanosecond samples as ascending milliseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn median_of_three_ignores_the_outlier() {
        assert_eq!(median(&[10.0, 500.0, 11.0]), 11.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 12.0, 11.0]), 2.0 / 11.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
