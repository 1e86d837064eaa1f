//! Order statistics: the percentile rule, medians and quartiles.

/// The tail percentile a sample of `n` supports: the highest whole
/// percentile `p ≤ cap` that still has at least ten samples beyond it.
/// `None` when even the median does not (fewer than 20 samples).
pub fn supported_percentile(n: usize, cap: u32) -> Option<u32> {
    (50..=cap)
        .rev()
        .find(|&p| n - rank_of(n, p) >= TAIL_SAMPLES)
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank_of(n: usize, p: u32) -> usize {
    ((n as u64 * u64::from(p)).div_ceil(100) as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank_of(sorted.len(), p) - 1]
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` judges spreads by the same rule the acceptance driver uses.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based terms, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1 000 samples leaves exactly 10 beyond it; 999 does not.
        assert_eq!(supported_percentile(1_000, 99), Some(99));
        assert_eq!(supported_percentile(999, 99), Some(98));
        assert_eq!(supported_percentile(100, 99), Some(90));
        assert_eq!(supported_percentile(20, 99), Some(50));
        assert_eq!(supported_percentile(19, 99), None);
        // The cap wins when the sample would support more.
        assert_eq!(supported_percentile(1_000_000, 99), Some(99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 90), 90.0);
        assert_eq!(percentile(&sorted, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q2 - 1.5).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
