//! Summary statistics for delay measurements (Table III, Figures 5, 8, 11).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Collects samples and reports mean/std/min/max/percentiles.
///
/// The mean and variance use Welford's online algorithm so the summary stays
/// numerically stable for long delay traces; percentiles retain the raw
/// samples (delay traces in this reproduction are small, at most tens of
/// thousands of points).
///
/// # Empty and single-sample contract
///
/// Queries on degenerate summaries never panic, and return one of two
/// documented shapes:
///
/// * Order statistics — [`min`](Self::min), [`max`](Self::max),
///   [`quantile`](Self::quantile), [`median`](Self::median) — return
///   `None` when empty (there is no sample to report).
/// * [`mean`](Self::mean) and [`std_dev`](Self::std_dev) return the `0.0`
///   sentinel when undefined (empty, or fewer than two samples for the
///   standard deviation), because delay aggregations routinely sum and
///   tabulate them. Use [`try_mean`](Self::try_mean) /
///   [`try_std_dev`](Self::try_std_dev) where "no data" must stay
///   distinguishable from "measured zero".
///
/// # Example
///
/// ```
/// use crowdlearn_metrics::SummaryStats;
///
/// let stats: SummaryStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
/// assert!((stats.mean() - 2.5).abs() < 1e-12);
/// assert_eq!(stats.len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    samples: Vec<f64>,
    mean: f64,
    m2: f64,
}

impl SummaryStats {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "summary statistics reject NaN samples");
        self.samples.push(value);
        let n = self.samples.len() as f64;
        let delta = value - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; `0.0` when empty (see the type docs for the
    /// sentinel contract — [`SummaryStats::try_mean`] is the `Option` form).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn try_mean(&self) -> Option<f64> {
        (!self.samples.is_empty()).then_some(self.mean)
    }

    /// Sample standard deviation (n-1 denominator); `0.0` with fewer than two
    /// samples (see the type docs — [`SummaryStats::try_std_dev`] is the
    /// `Option` form).
    pub fn std_dev(&self) -> f64 {
        self.try_std_dev().unwrap_or(0.0)
    }

    /// Sample standard deviation, or `None` with fewer than two samples
    /// (a single sample has no dispersion to estimate).
    pub fn try_std_dev(&self) -> Option<f64> {
        (self.samples.len() >= 2).then(|| (self.m2 / (self.samples.len() as f64 - 1.0)).sqrt())
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// The `q`-th quantile (nearest-rank with linear interpolation), `q` in
    /// `[0, 1]`, over the samples in [`f64::total_cmp`] order (`-0.0`
    /// before `0.0`). Returns `None` when empty. Selects the two order
    /// statistics it reads instead of sorting: linear time.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_in_place(&mut self.samples.clone(), q)
    }

    /// Median (0.5 quantile); `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Read-only access to the raw samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &SummaryStats) {
        for &s in &other.samples {
            self.push(s);
        }
    }
}

/// The `q`-th quantile of `samples`, as [`SummaryStats::quantile`] reads
/// it (nearest-rank with linear interpolation, [`f64::total_cmp`] order),
/// selected in the caller's buffer: it reorders `samples` and allocates
/// nothing. Returns `None` when `samples` is empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or NaN.
pub fn quantile_in_place(samples: &mut [f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must lie in [0, 1], got {q}"
    );
    if samples.is_empty() {
        return None;
    }
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut at_lo, above) = samples.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return Some(at_lo);
    }
    // `hi == lo + 1`: the smallest sample above `lo`'s.
    let at_hi = above.iter().copied().min_by(f64::total_cmp)?;
    let t = pos - lo as f64;
    Some(at_lo * (1.0 - t) + at_hi * t)
}

impl FromIterator<f64> for SummaryStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = SummaryStats::new();
        for v in iter {
            stats.push(v);
        }
        stats
    }
}

impl Extend<f64> for SummaryStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl fmt::Display for SummaryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0 (no samples)");
        }
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} p50={:.3} max={:.3}",
            self.len(),
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.median().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = SummaryStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.try_mean(), None);
        assert_eq!(s.try_std_dev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.sum(), 0.0);
        assert_eq!(format!("{s}"), "n=0 (no samples)");
    }

    #[test]
    fn single_sample_queries_are_exact_and_total() {
        let s: SummaryStats = [3.5].into_iter().collect();
        assert_eq!(s.try_mean(), Some(3.5));
        // One sample has no dispersion estimate: Option form says so, the
        // sentinel form keeps the documented 0.0.
        assert_eq!(s.try_std_dev(), None);
        assert_eq!(s.std_dev(), 0.0);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(s.quantile(q), Some(3.5));
        }
        // A measured zero stays distinguishable from "no samples".
        let zero: SummaryStats = [0.0].into_iter().collect();
        assert_eq!(zero.try_mean(), Some(0.0));
        assert_eq!(zero.mean(), SummaryStats::new().mean());
        assert_ne!(zero.try_mean(), SummaryStats::new().try_mean());
    }

    #[test]
    fn mean_and_std_match_closed_form() {
        let s: SummaryStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of that classic example is 32/7.
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let s: SummaryStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert!((s.median().unwrap() - 2.5).abs() < 1e-12);
    }

    proptest::proptest! {
        /// Selection reads the same bits as the order statistics of a full
        /// sort, on samples drawn from a few values (ties, both zeros)
        /// and at quantiles on and between ranks.
        #[test]
        fn quantile_selects_the_sorted_order_statistics(
            picks in proptest::collection::vec(0usize..7, 1..80),
            q in 0.0f64..1.0,
        ) {
            const VALUES: [f64; 7] = [-0.0, 0.0, 1.5, 1.5, 2.0, 30.25, 1e9];
            let samples: Vec<f64> = picks.iter().map(|&i| VALUES[i]).collect();
            let stats: SummaryStats = samples.iter().copied().collect();
            let mut sorted = samples;
            sorted.sort_by(f64::total_cmp);
            for q in [q, 0.0, 0.5, 0.9, 1.0] {
                let pos = q * (sorted.len() - 1) as f64;
                let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
                let t = pos - lo as f64;
                let want = if lo == hi {
                    sorted[lo]
                } else {
                    sorted[lo] * (1.0 - t) + sorted[hi] * t
                };
                let got = stats.quantile(q).expect("non-empty");
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "q {}", q);
            }
        }
    }

    proptest::proptest! {
        /// Selecting in a caller's buffer reads the same bits as the
        /// summary's own quantile, on samples with ties and both zeros.
        #[test]
        fn quantile_in_place_agrees_with_the_summary(
            picks in proptest::collection::vec(0usize..7, 0..80),
            q in 0.0f64..1.0,
        ) {
            const VALUES: [f64; 7] = [-0.0, 0.0, 0.0, 3.5, 3.5, 600.0, -2.25];
            let mut samples: Vec<f64> = picks.iter().map(|&i| VALUES[i]).collect();
            let stats: SummaryStats = samples.iter().copied().collect();
            for q in [q, 0.0, 0.9, 1.0] {
                let want = stats.quantile(q).map(f64::to_bits);
                let got = quantile_in_place(&mut samples, q).map(f64::to_bits);
                proptest::prop_assert_eq!(got, want, "q {}", q);
            }
        }
    }

    #[test]
    fn merge_is_equivalent_to_concatenation() {
        let mut a: SummaryStats = [1.0, 2.0].into_iter().collect();
        let b: SummaryStats = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        let c: SummaryStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert!((a.mean() - c.mean()).abs() < 1e-12);
        assert!((a.std_dev() - c.std_dev()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reject NaN")]
    fn push_rejects_nan() {
        SummaryStats::new().push(f64::NAN);
    }

    #[test]
    fn single_sample_std_is_zero() {
        let s: SummaryStats = [42.0].into_iter().collect();
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn extend_appends() {
        let mut s = SummaryStats::new();
        s.extend([1.0, 5.0]);
        assert_eq!(s.len(), 2);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }
}
