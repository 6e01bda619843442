//! # cologne-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! Cologne paper's evaluation (Sec. 6). Each experiment has a binary that
//! prints the same rows/series the paper reports (the three figure binaries
//! take `--quick` for a reduced run):
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 2 (rule counts; the paper's C++ LOC quoted) | `cargo run -p cologne-bench --bin table2_compactness` |
//! | Fig. 2 / Fig. 3 (ACloud)   | `cargo run --release -p cologne-bench --bin fig2_3_acloud` |
//! | Fig. 4 / Fig. 5 (Follow-the-Sun) | `cargo run --release -p cologne-bench --bin fig4_5_followsun` |
//! | Fig. 6 / Fig. 7 (wireless) | `cargo run --release -p cologne-bench --bin fig6_7_wireless` |
//!
//! Timing lives elsewhere: the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`) is the one place anything here is measured.

use std::fmt::Write as _;

/// Format a data series as an aligned two-column table for harness output.
pub fn format_series(x_label: &str, y_label: &str, points: &[(f64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{x_label:>12} {y_label:>16}");
    for (x, y) in points {
        let _ = writeln!(out, "{x:>12.2} {y:>16.2}");
    }
    out
}

/// Format several named series sharing the same x-axis (one column per name).
pub fn format_multi_series(
    x_label: &str,
    names: &[&str],
    xs: &[f64],
    series: &[Vec<f64>],
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{x_label:>12}");
    for n in names {
        let _ = write!(out, " {n:>16}");
    }
    let _ = writeln!(out);
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x:>12.2}");
        for s in series {
            let _ = write!(out, " {:>16.2}", s.get(i).copied().unwrap_or(f64::NAN));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_formatting_is_aligned() {
        let s = format_series("time", "cost", &[(0.0, 100.0), (5.0, 87.5)]);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("100.00"));
    }

    #[test]
    fn multi_series_handles_missing_points() {
        let s = format_multi_series(
            "rate",
            &["a", "b"],
            &[1.0, 2.0],
            &[vec![3.0, 4.0], vec![5.0]],
        );
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("NaN"));
    }
}
