//! Sample summaries and the regression-bound rule.

/// Median, quartiles and range of a small sample of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `xs`; `None` when it is empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let (q1, median, q3) = quartiles(&v);
        Some(Summary {
            n: v.len(),
            median,
            q1,
            q3,
            min,
            max,
        })
    }
}

/// Median of an unsorted sample (mean of the middle pair when even);
/// 0.0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).map_or(0.0, |s| s.median)
}

/// First quartile, median, third quartile of a sorted, non-empty sample,
/// by the same "exclusive" interpolation as Python's
/// `statistics.quantiles(data, n=4)`, so the numbers this benchmark
/// prints match the ones a comparison script computes. A single sample
/// is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// As a share of the baseline value.
    Relative(f64),
    /// In the metric's own unit.
    Absolute(f64),
}

/// Whether `value` is worse than `baseline` by more than `bound`.
pub fn regressed(baseline: f64, value: f64, bound: Bound, higher_is_better: bool) -> bool {
    let worse_by = if higher_is_better {
        baseline - value
    } else {
        value - baseline
    };
    match bound {
        Bound::Relative(share) => worse_by > share * baseline.abs(),
        Bound::Absolute(amount) => worse_by > amount,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[2.0, 3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn summary_reports_range_and_count() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0]).unwrap();
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 9.0));
        assert_eq!(Summary::of(&[2.0]).unwrap().q3, 2.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn relative_bound_respects_direction() {
        let b = Bound::Relative(0.10);
        // Lower is better: 10% slower passes, 11% fails.
        assert!(!regressed(100.0, 110.0, b, false));
        assert!(regressed(100.0, 111.0, b, false));
        assert!(!regressed(100.0, 50.0, b, false));
        // Higher is better: a 10% drop passes, 11% fails.
        assert!(!regressed(100.0, 90.0, b, true));
        assert!(regressed(100.0, 89.0, b, true));
        assert!(!regressed(100.0, 150.0, b, true));
    }

    #[test]
    fn absolute_bound_ignores_baseline_scale() {
        // A zero baseline with a zero absolute bound: any increase fails.
        let b = Bound::Absolute(0.0);
        assert!(!regressed(0.0, 0.0, b, false));
        assert!(regressed(0.0, 1e-9, b, false));
        // A relative bound on a zero baseline is equally strict.
        assert!(regressed(0.0, 1e-9, Bound::Relative(0.5), false));
        assert!(!regressed(10.0, 12.0, Bound::Absolute(2.0), false));
        assert!(regressed(10.0, 12.5, Bound::Absolute(2.0), false));
    }
}
