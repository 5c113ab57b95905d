//! Bootstrap confidence intervals for the evaluation's scalar comparisons
//! (e.g. "is CrowdLearn's delay reduction real or run-to-run noise?").

use serde::{Deserialize, Serialize};

/// A percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Nominal confidence level (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether the interval excludes `value` — e.g. pass `0.0` to check
    /// whether a paired difference is distinguishable from zero.
    pub fn excludes(&self, value: f64) -> bool {
        value < self.lower || value > self.upper
    }
}

/// Percentile bootstrap over a generic statistic of a sample.
///
/// Deterministic in `seed` (SplitMix64 resampling, no external RNG crate
/// needed at this layer).
///
/// # Panics
///
/// Panics if `samples` is empty, `level` is outside `(0, 1)`, or
/// `resamples == 0`.
fn bootstrap_ci<F>(
    samples: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
    statistic: F,
) -> ConfidenceInterval
where
    F: Fn(&[f64]) -> f64,
{
    assert!(!samples.is_empty(), "need at least one sample");
    assert!(
        (0.0..1.0).contains(&level) && level > 0.0,
        "level must be in (0, 1)"
    );
    assert!(resamples > 0, "need at least one resample");

    let point = statistic(samples);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next_index = |n: usize| -> usize {
        state = splitmix64(state);
        (state % n as u64) as usize
    };

    let mut stats = Vec::with_capacity(resamples);
    let mut buffer = vec![0.0; samples.len()];
    for _ in 0..resamples {
        for slot in buffer.iter_mut() {
            *slot = samples[next_index(samples.len())];
        }
        let s = statistic(&buffer);
        assert!(!s.is_nan(), "statistic must not produce NaN");
        stats.push(s);
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("no NaN statistics"));

    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((alpha * resamples as f64) as usize).min(resamples - 1);
    let hi_idx = (((1.0 - alpha) * resamples as f64) as usize).min(resamples - 1);
    ConfidenceInterval {
        point,
        lower: stats[lo_idx],
        upper: stats[hi_idx],
        level,
    }
}

/// Bootstrap CI for the difference of means between paired samples
/// (`a[i] - b[i]`) — the right tool for same-seed scheme comparisons.
/// Deterministic in `seed` (SplitMix64 resampling, no external RNG crate
/// needed at this layer).
///
/// # Example
///
/// ```
/// use crowdlearn_metrics::bootstrap_paired_diff_ci;
///
/// let slow = [330.0, 340.0, 325.0, 335.0, 350.0, 320.0, 345.0, 328.0];
/// let fast = [300.0, 310.0, 295.0, 305.0, 320.0, 290.0, 315.0, 298.0];
/// let ci = bootstrap_paired_diff_ci(&slow, &fast, 0.95, 2000, 7);
/// assert!(ci.lower <= ci.point && ci.point <= ci.upper);
/// assert!(ci.excludes(0.0));
/// ```
///
/// # Panics
///
/// Panics if the slices are empty or have different lengths, `level` is
/// outside `(0, 1)`, or `resamples == 0`.
pub fn bootstrap_paired_diff_ci(
    a: &[f64],
    b: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> ConfidenceInterval {
    assert_eq!(a.len(), b.len(), "paired samples must have equal length");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| x - y).collect();
    bootstrap_ci(&diffs, level, resamples, seed, |xs| {
        xs.iter().sum::<f64>() / xs.len() as f64
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn interval_brackets_the_point_estimate() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ci = bootstrap_ci(&xs, 0.95, 1000, 3, mean);
        assert!(ci.lower <= ci.point && ci.point <= ci.upper);
        assert!((ci.point - 24.5).abs() < 1e-12);
    }

    #[test]
    fn tight_data_gives_tight_intervals() {
        let tight = vec![10.0; 40];
        let ci = bootstrap_ci(&tight, 0.95, 500, 1, mean);
        assert!((ci.upper - ci.lower).abs() < 1e-12);
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let xs: Vec<f64> = (0..60).map(|i| (i % 13) as f64).collect();
        let narrow = bootstrap_ci(&xs, 0.80, 2000, 5, mean);
        let wide = bootstrap_ci(&xs, 0.99, 2000, 5, mean);
        assert!(wide.upper - wide.lower >= narrow.upper - narrow.lower);
    }

    #[test]
    fn deterministic_in_seed() {
        let xs: Vec<f64> = (0..30).map(|i| (i * 7 % 11) as f64).collect();
        let a = bootstrap_ci(&xs, 0.95, 500, 9, mean);
        let b = bootstrap_ci(&xs, 0.95, 500, 9, mean);
        assert_eq!(a, b);
    }

    #[test]
    fn paired_diff_detects_a_real_gap() {
        let a: Vec<f64> = (0..40).map(|i| 100.0 + (i % 7) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| 90.0 + (i % 5) as f64).collect();
        let ci = bootstrap_paired_diff_ci(&a, &b, 0.95, 2000, 2);
        assert!(ci.excludes(0.0), "gap of ~8 must be detected: {ci:?}");
        assert!(ci.point > 0.0);
    }

    #[test]
    fn paired_diff_accepts_no_gap() {
        let a: Vec<f64> = (0..40).map(|i| (i % 9) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| ((i + 4) % 9) as f64).collect();
        let ci = bootstrap_paired_diff_ci(&a, &b, 0.95, 2000, 2);
        assert!(!ci.excludes(0.0), "no systematic gap: {ci:?}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        bootstrap_ci(&[], 0.95, 100, 0, mean);
    }
}
