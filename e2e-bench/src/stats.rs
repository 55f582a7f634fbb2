//! Summaries of latency samples.
//!
//! A tail percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it; with fewer, one outlier would
//! decide it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median, one tail percentile, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for even `n`); `NaN` when
    /// `n == 0`.
    pub median: f64,
    /// The requested percentile (nearest rank), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub tail: Option<f64>,
}

/// Summarizes `samples` with the median and the `q`-quantile
/// (`0 < q < 1`, e.g. `0.95`).
pub fn summarize(samples: &[f64], q: f64) -> Summary {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    };
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it; everything after its position lies beyond it. The
    // epsilon keeps q·n = 190 from rounding up to rank 191.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    let tail = (n > 0 && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1]);
    Summary { n, median, tail }
}

/// Median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples, 0.5).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        let s = summarize(&xs, 0.95);
        assert_eq!(s.n, 199);
        assert_eq!(s.tail, None, "rank 190 of 199 leaves only 9 beyond");

        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&xs, 0.95);
        assert_eq!(
            s.tail,
            Some(190.0),
            "rank 190 of 200 leaves exactly 10 beyond"
        );
        assert_eq!(s.median, 100.5);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut xs: Vec<f64> = (0..500).map(|i| f64::from((i * 7919) % 500)).collect();
        let a = summarize(&xs, 0.9);
        xs.reverse();
        assert_eq!(a, summarize(&xs, 0.9));
        assert_eq!(a.tail, Some(449.0));
    }
}
