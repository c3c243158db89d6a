//! Order statistics for timings: medians, quartiles and the tail rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the ones an external checker computes from the same values.

/// Standard percentiles the tail rule chooses from, lowest first.
const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile must leave above it before it is reported.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` by Python's exclusive quantile method. With fewer than
/// two values every quartile is that value (0 when empty).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// 1-based nearest rank of percentile `p` (in percent, to 0.1) in `n`
/// samples, in integer arithmetic so p99.9 of 10000 is exactly 9990.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (in percent); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(p, v.len()).clamp(1, v.len()) - 1]
}

/// The highest standard percentile that leaves at least ten samples above
/// it in `n` samples: p50 from 20 samples, p99 only from 1000.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// One-line timing summary: median, the tail percentile when the sample
/// count allows one, and the sample count.
pub fn describe(values: &[f64], unit: &str) -> String {
    let n = values.len();
    let tail = match tail_percentile(n) {
        Some(p) if p > 50.0 => format!("p{p} {:.3} {unit}", percentile(values, p)),
        _ => "no tail percentile above p50".to_string(),
    };
    format!("p50 {:.3} {unit}, {tail} (n={n})", median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[5.0; 8]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[4.0, 9.0], 99.0), 9.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn describe_prints_the_sample_count() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = describe(&v, "ms");
        assert!(s.contains("n=20") && s.contains("p50"), "{s}");
        assert!(describe(&[1.0], "ms").contains("no tail percentile"));
    }
}
