//! Order statistics behind every reported figure: medians, percentiles
//! under the "at least ten samples beyond" tail rule, and the open-loop
//! lateness test.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// closest ranks; NaN for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (rank - lo as f64)
}

/// The median; NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile not above `wanted` that still leaves
/// [`TAIL_BEYOND`] samples beyond it, never below the median.
pub fn tail_rank(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let supported = 100.0 * (1.0 - TAIL_BEYOND / n as f64);
    wanted.min(supported).max(50.0)
}

/// A tail percentile under [`tail_rank`]: `(value, percentile used)`.
pub fn tail(samples: &[f64], wanted: f64) -> (f64, f64) {
    let p = tail_rank(samples.len(), wanted);
    (percentile(samples, p), p)
}

/// Whether an open-loop generator fell further behind as it went: the
/// median lateness of the last third of the schedule exceeds that of
/// the first third by more than `slack_ms`. `lateness_ms` is in
/// schedule order.
pub fn lateness_growing(lateness_ms: &[f64], slack_ms: f64) -> bool {
    let third = lateness_ms.len() / 3;
    if third == 0 {
        return false;
    }
    let first = median(&lateness_ms[..third]);
    let last = median(&lateness_ms[lateness_ms.len() - third..]);
    last - first > slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(1000, 99.0), 99.0);
        assert_eq!(tail_rank(100, 90.0), 90.0);
        assert!((tail_rank(200, 99.0) - 95.0).abs() < 1e-9);
        assert_eq!(tail_rank(12, 90.0), 50.0);
        assert_eq!(tail_rank(0, 99.0), 50.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs, 99.0);
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9);
    }

    #[test]
    fn lateness_growth_compares_first_and_last_thirds() {
        let steady = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0];
        assert!(!lateness_growing(&steady, 5.0));
        let growing: Vec<f64> = (0..30).map(|i| f64::from(i) * 10.0).collect();
        assert!(lateness_growing(&growing, 5.0));
        assert!(!lateness_growing(&growing, 1000.0));
        assert!(!lateness_growing(&[100.0, 0.0], 5.0));
    }
}
