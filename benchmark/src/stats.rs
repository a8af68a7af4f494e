//! Exact order statistics over raw samples, and the summaries the two clocks
//! use: nearest-rank quantiles for virtual-time latencies, best-of-R for
//! host-time costs, and Python-compatible quartiles for the noise report.

/// Fewest samples that must lie beyond a percentile for it to be reported as
/// a distinct tail figure (below that it is one outlier, not a percentile).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample such
/// that at least `q` of the samples are at or below it. No interpolation and
/// no bucketing, so a one-nanosecond shift in the distribution shows.
///
/// # Panics
/// If `sorted` is empty or `q` is outside `(0, 1]`.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q` sample.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// A reported percentile with the evidence behind it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The nearest-rank sample, in nanoseconds.
    pub ns: u64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond `ns`.
    pub beyond: usize,
}

impl Tail {
    /// Quantile `q` of an ascending, non-empty sample.
    pub fn of(sorted: &[u64], q: f64) -> Tail {
        Tail {
            ns: quantile(sorted, q),
            n: sorted.len(),
            beyond: beyond(sorted.len(), q),
        }
    }

    /// The value in microseconds.
    pub fn us(&self) -> f64 {
        self.ns as f64 / 1e3
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond the value.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }

    /// `"n=… beyond=…"`, with a warning when the tail is too thin.
    pub fn evidence(&self) -> String {
        let warn = if self.supported() {
            ""
        } else {
            " UNSUPPORTED: fewer than 10 samples beyond"
        };
        format!("n={} beyond={}{warn}", self.n, self.beyond)
    }
}

/// Smallest of the repetitions: the run the machine disturbed least.
///
/// # Panics
/// If `values` is empty.
pub fn best_of(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of no repetitions");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of the repetitions (mean of the middle two when even).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the noise report agrees with the
/// pipeline that judges it. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the spread the pipeline
/// compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.50), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.001), 1);
        // Five samples: p50 is the third, p99 the fifth.
        let t = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&t, 0.5), 30);
        assert_eq!(quantile(&t, 0.99), 50);
        assert_eq!(quantile(&[7], 0.5), 7);
    }

    #[test]
    fn quantiles_are_raw_samples_not_bucket_edges() {
        // Two values 0.3 % apart: a 5 % log-bucketed histogram reports one
        // number for both; exact order statistics keep them apart.
        let mut s = vec![345_600u64; 98];
        s.extend([346_700, 346_700]);
        assert_ne!(quantile(&s, 0.50), quantile(&s, 0.99));
    }

    #[test]
    fn beyond_guard_counts_the_tail() {
        assert_eq!(beyond(2000, 0.99), 20);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(2000, 0.999), 2);
        assert_eq!(beyond(10_000, 0.999), 10);
        let s: Vec<u64> = (0..500).collect();
        let t = Tail::of(&s, 0.99);
        assert_eq!((t.n, t.beyond), (500, 5));
        assert!(!t.supported());
        assert!(t.evidence().contains("n=500"));
        assert!(t.evidence().contains("UNSUPPORTED"));
    }

    #[test]
    fn best_of_and_median() {
        assert_eq!(best_of(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "spread {s}");
    }
}
