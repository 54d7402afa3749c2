//! Summary statistics, the bound rule and the `compare` verdicts.

use crate::metrics::Better;

/// Median of `v` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(min, max)` of `v`.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so the benchmark's spread matches the one its users compute.
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of nothing");
    let s = sorted(v);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let q = |i: i64| {
        let (n, m) = (4i64, ld as i64 + 1);
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative for two values: Python extrapolates there, and so must
        // this to agree with it.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound must exceed.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The bound rule: a metric keeps its starting bound unless the observed
/// spread is more than a third of it, in which case the bound rises to
/// three times the spread, rounded up to a whole percent.
///
/// # Errors
///
/// Returns an error when that would exceed `cap`: such a metric needs a
/// longer run, not a wider bound.
pub fn derive_bound(start: f64, observed_spread: f64, cap: f64) -> Result<f64, String> {
    let needed = (observed_spread * 3.0 * 100.0).ceil() / 100.0;
    let bound = start.max(needed);
    if bound > cap {
        Err(format!(
            "spread {observed_spread:.4} needs a bound of {bound:.2}, above the cap {cap:.2}"
        ))
    } else {
        Ok(bound)
    }
}

/// How a metric moved between a baseline `A` and a candidate `B`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by the gain rule.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound, and no gain shown.
    Unchanged,
    /// A side's spread exceeds the bound, and B does not beat A on
    /// every sample.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for printing.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges samples `b` against baseline samples `a`.
///
/// * When either side's spread exceeds `bound`, the metric is
///   unresolved unless every sample of B beats every sample of A.
/// * Worse: B's median is worse than A's by more than `bound`.
/// * Better: B wins at least nine tenths of the index-aligned pairs
///   (ties count for neither) and the medians differ by more than A's
///   interquartile distance.
/// * Otherwise unchanged.
///
/// # Panics
///
/// Panics when either side is empty.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let beats_all = b.iter().all(|&x| a.iter().all(|&y| better.improves(x, y)));
    if spread(a) > bound || spread(b) > bound {
        return if beats_all { Verdict::Better } else { Verdict::Unresolved };
    }
    let (ma, mb) = (median(a), median(b));
    if better.regression(mb, ma) > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better.improves(y, x)).count();
    let (q1, q3) = quartiles(a);
    if wins * 10 >= pairs * 9 && better.improves(mb, ma) && (mb - ma).abs() > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_rule_keeps_raises_or_refuses() {
        assert_eq!(derive_bound(0.10, 0.02, 0.25), Ok(0.10));
        assert_eq!(derive_bound(0.10, 0.041, 0.25), Ok(0.13));
        assert!(derive_bound(0.10, 0.09, 0.25).is_err());
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0))).collect()
    }

    #[test]
    fn verdict_table() {
        let a = around(100.0, 10);
        // Same distribution: unchanged.
        assert_eq!(verdict(&a, &around(100.0, 10), Better::Lower, 0.07), Verdict::Unchanged);
        // 20% slower against a 7% bound: worse.
        assert_eq!(verdict(&a, &around(120.0, 10), Better::Lower, 0.07), Verdict::Worse);
        // 5% faster on every pair, beyond A's spread: better.
        assert_eq!(verdict(&a, &around(95.0, 10), Better::Lower, 0.07), Verdict::Better);
        // The same numbers read as throughput are a regression.
        assert_eq!(verdict(&a, &around(80.0, 10), Better::Higher, 0.07), Verdict::Worse);
        // 5% slower but within the bound: unchanged, not better.
        assert_eq!(verdict(&a, &around(105.0, 10), Better::Lower, 0.07), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_sample() {
        let a = vec![80.0, 90.0, 100.0, 110.0, 120.0, 130.0];
        let b = vec![85.0, 95.0, 100.0, 105.0, 115.0, 125.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.07), Verdict::Unresolved);
        let far = vec![40.0, 45.0, 50.0, 55.0, 60.0, 70.0];
        assert_eq!(verdict(&a, &far, Better::Lower, 0.07), Verdict::Better);
    }
}
