//! Wilcoxon signed-rank test for paired samples.
//!
//! Section IV-B of the paper uses this test to show the label quality of
//! adjacent incentive levels is not significantly different (p = 0.12, 0.45,
//! 0.77, 0.25 between 2→4, 4→6, 6→8 and 8→10 cents). The Figure 6 section
//! of the `experiments` bench binary reruns exactly this analysis on the
//! simulated platform.

use serde::{Deserialize, Serialize};

/// Result of a two-sided Wilcoxon signed-rank test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WilcoxonOutcome {
    /// Sum of ranks of positive differences (`W+`).
    pub w_plus: f64,
    /// Sum of ranks of negative differences (`W-`).
    pub w_minus: f64,
    /// Number of non-zero paired differences actually ranked.
    pub n_effective: usize,
    /// Two-sided p-value from the normal approximation with tie correction.
    pub p_value: f64,
    /// Standardized test statistic `z`.
    pub z: f64,
}

impl WilcoxonOutcome {
    /// Whether the difference is significant at the given level (the paper
    /// uses `alpha = 0.05`).
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value <= alpha
    }
}

/// Two-sided Wilcoxon signed-rank test on paired samples `a[i]` vs `b[i]`.
///
/// Zero differences are dropped (Wilcoxon's original treatment); tied
/// absolute differences receive average ranks, and the normal-approximation
/// variance includes the standard tie correction. With fewer than 5 effective
/// pairs the test cannot reject anything at conventional levels, so the
/// p-value is reported as `1.0`.
///
/// # Example
///
/// ```
/// use crowdlearn_metrics::wilcoxon_signed_rank;
///
/// let a = [0.81, 0.78, 0.83, 0.80, 0.79, 0.82];
/// let b = [0.80, 0.79, 0.82, 0.81, 0.80, 0.81];
/// let out = wilcoxon_signed_rank(&a, &b);
/// assert!(!out.significant(0.05));
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths or contain NaN.
pub fn wilcoxon_signed_rank(a: &[f64], b: &[f64]) -> WilcoxonOutcome {
    assert_eq!(a.len(), b.len(), "paired samples must have equal length");
    assert!(
        a.iter().chain(b.iter()).all(|x| !x.is_nan()),
        "samples must not contain NaN"
    );

    // Non-zero differences with their magnitudes.
    let diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| x - y)
        .filter(|d| *d != 0.0)
        .collect();
    let n = diffs.len();
    if n < 5 {
        let (w_plus, w_minus) = small_sample_ranks(&diffs);
        return WilcoxonOutcome {
            w_plus,
            w_minus,
            n_effective: n,
            p_value: 1.0,
            z: 0.0,
        };
    }

    // Rank |d| ascending with average ranks for ties.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        diffs[i]
            .abs()
            .partial_cmp(&diffs[j].abs())
            .expect("no NaN differences")
    });
    let mut ranks = vec![0.0; n];
    let mut tie_correction = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j < n && diffs[order[j]].abs() == diffs[order[i]].abs() {
            j += 1;
        }
        let avg_rank = (i + 1 + j) as f64 / 2.0; // average of ranks i+1..=j
        for &idx in &order[i..j] {
            ranks[idx] = avg_rank;
        }
        let t = (j - i) as f64;
        tie_correction += t * t * t - t;
        i = j;
    }

    let w_plus: f64 = diffs
        .iter()
        .zip(&ranks)
        .filter(|(d, _)| **d > 0.0)
        .map(|(_, r)| r)
        .sum();
    let w_minus: f64 = diffs
        .iter()
        .zip(&ranks)
        .filter(|(d, _)| **d < 0.0)
        .map(|(_, r)| r)
        .sum();

    let nf = n as f64;
    let mean = nf * (nf + 1.0) / 4.0;
    let var = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 24.0 - tie_correction / 48.0;
    let w = w_plus.min(w_minus);
    let z = if var > 0.0 {
        // Continuity correction of 0.5 toward the mean.
        let num = w - mean;
        let corrected = if num.abs() <= 0.5 {
            0.0
        } else {
            num.abs() - 0.5
        };
        -(corrected / var.sqrt())
    } else {
        0.0
    };
    // Two-sided p from standard normal.
    let p_value = (2.0 * standard_normal_cdf(z)).clamp(0.0, 1.0);

    WilcoxonOutcome {
        w_plus,
        w_minus,
        n_effective: n,
        p_value,
        z,
    }
}

fn small_sample_ranks(diffs: &[f64]) -> (f64, f64) {
    let n = diffs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        diffs[i]
            .abs()
            .partial_cmp(&diffs[j].abs())
            .expect("no NaN differences")
    });
    let mut w_plus = 0.0;
    let mut w_minus = 0.0;
    for (rank0, &idx) in order.iter().enumerate() {
        let rank = (rank0 + 1) as f64;
        if diffs[idx] > 0.0 {
            w_plus += rank;
        } else {
            w_minus += rank;
        }
    }
    (w_plus, w_minus)
}

/// CDF of the standard normal distribution via the complementary error
/// function (Abramowitz & Stegun 7.1.26 rational approximation, |err| < 1.5e-7).
fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let result = poly * (-x * x).exp();
    if sign_negative {
        2.0 - result
    } else {
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_are_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let out = wilcoxon_signed_rank(&a, &a);
        assert_eq!(out.n_effective, 0);
        assert_eq!(out.p_value, 1.0);
        assert!(!out.significant(0.05));
    }

    #[test]
    fn clearly_shifted_samples_are_significant() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64 + 10.0).collect();
        let out = wilcoxon_signed_rank(&a, &b);
        assert!(out.significant(0.05), "p = {}", out.p_value);
        assert_eq!(out.w_plus, 0.0);
    }

    #[test]
    fn symmetric_noise_is_not_significant() {
        // Alternating +1/-1 differences: W+ == W-.
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..20)
            .map(|i| i as f64 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = wilcoxon_signed_rank(&a, &b);
        assert_eq!(out.w_plus, out.w_minus);
        assert!(out.p_value > 0.9);
    }

    #[test]
    fn rank_sums_total_n_n_plus_one_over_two() {
        let a = [5.0, 3.0, 8.0, 1.0, 9.0, 2.0, 7.0];
        let b = [4.0, 6.0, 2.0, 3.0, 5.0, 9.0, 1.0];
        let out = wilcoxon_signed_rank(&a, &b);
        let n = out.n_effective as f64;
        assert!((out.w_plus + out.w_minus - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn small_samples_never_reject() {
        let out = wilcoxon_signed_rank(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(out.p_value, 1.0);
    }

    #[test]
    fn textbook_example_matches_known_statistic() {
        // Classic example (e.g. from Siegel): differences with known W.
        let a = [
            125.0, 115.0, 130.0, 140.0, 140.0, 115.0, 140.0, 125.0, 140.0, 135.0,
        ];
        let b = [
            110.0, 122.0, 125.0, 120.0, 140.0, 124.0, 123.0, 137.0, 135.0, 145.0,
        ];
        let out = wilcoxon_signed_rank(&a, &b);
        // One zero difference dropped -> 9 effective pairs.
        assert_eq!(out.n_effective, 9);
        let n = 9.0f64;
        assert!((out.w_plus + out.w_minus - n * (n + 1.0) / 2.0).abs() < 1e-9);
        assert!(out.p_value > 0.05, "this example is not significant");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_length_mismatch() {
        wilcoxon_signed_rank(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }
}
