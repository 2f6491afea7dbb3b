//! Order statistics used by every workload's report.

/// Sorts a copy of `v` ascending (NaN-free input assumed: every value is
/// a measured duration, rate or count).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    s
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `v`, interpolating linearly
/// between the two closest ranks (the numpy default). Empty input gives 0.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The tail percentile reported for `n` samples: the highest percentile,
/// up to p99, that still has at least ten samples beyond it, so a tail is
/// never one or two samples. With fewer than 20 samples no percentile
/// above the median qualifies and the tail is the maximum.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        return 100.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).min(99.0)
}

/// The three quartile cut points of `v`, exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two values");
    let s = sorted(v);
    let ld = s.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot = (s[j as usize - 1] * (n - delta) as f64 + s[j as usize] * delta as f64) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median: the spread measure
/// the benchmark's bounds are checked against.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let q = quartiles(v);
    (q[2] - q[0]) / q[1].abs()
}

/// One line about a run's samples: count, median, the tail percentile the
/// run reports and the within-run quartile spread.
pub fn describe(v: &[f64]) -> String {
    let spread = if v.len() >= 2 { quartile_spread(v) } else { 0.0 };
    let p = tail_percentile(v.len());
    format!("n={} p50={:.6} p{p}={:.6} spread={spread:.4}", v.len(), median(v), percentile(v, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1.0)
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!(close(percentile(&v, 0.0), 1.0));
        assert!(close(percentile(&v, 100.0), 4.0));
        assert!(close(percentile(&v, 50.0), 2.5));
        // rank 0.99 * 3 = 2.97 -> 3 + 0.97 * (4 - 3)
        assert!(close(percentile(&v, 99.0), 3.97));
        assert!(close(median(&[7.0]), 7.0));
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 100.0);
        assert_eq!(tail_percentile(19), 100.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert!((tail_percentile(400) - 97.5).abs() < 1e-12);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.0);
        // Exactly ten of n samples lie beyond the reported rank.
        for n in [20usize, 64, 100, 400, 1000] {
            let rank = tail_percentile(n) / 100.0 * (n - 1) as f64;
            assert!(n as f64 - 1.0 - rank >= 10.0 - 1.0 - 1e-9, "n={n}");
        }
    }

    // Expected values computed with Python 3.11:
    //   statistics.quantiles(v, n=4)
    #[test]
    fn quartiles_match_python_statistics() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert!(close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0), "{q:?}");
        let q = quartiles(&[10.0, 20.0]);
        assert!(close(q[0], 7.5) && close(q[1], 15.0) && close(q[2], 22.5), "{q:?}");
        let q = quartiles(&[1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0]);
        assert!(close(q[0], 1.0) && close(q[1], 3.0) && close(q[2], 8.0), "{q:?}");
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!(close(quartile_spread(&v), (8.25 - 2.75) / 5.5));
    }
}
