//! Streaming quantile estimation for live delay views.

use std::fmt;

/// A deterministic fixed-grid streaming quantile estimator.
///
/// [`SummaryStats`](crate::SummaryStats) keeps every sample, which is fine
/// for end-of-run reports but wrong for a per-event metrics tap that must
/// stay O(1) no matter how long the trace runs. `QuantileSketch` instead
/// bins samples on a fixed uniform grid over `[lo, hi)` and reconstructs
/// order statistics from the cumulative bin counts, so memory is bounded by
/// the bin count and every operation is deterministic — no randomized
/// compaction, no RNG, no iteration-order dependence.
///
/// # Accuracy contract
///
/// As long as no sample fell outside the grid (`clamped() == 0`), every
/// quantile estimate lies within one [`bin_width`](Self::bin_width) of the
/// exact sample quantile that [`SummaryStats::quantile`](crate::SummaryStats::quantile)
/// computes over the same samples: the true order statistic lives in the
/// same bin as the reconstruction, and both interpolate between adjacent
/// order statistics the same way. Out-of-range samples are clamped into the
/// edge bins (and counted), which voids the bound for quantiles landing
/// there — size the grid generously instead.
///
/// The query contract mirrors `SummaryStats`: quantiles, `min` and `max`
/// return `None` when empty; [`mean`](Self::mean) returns the documented
/// `0.0` sentinel when empty (with [`try_mean`](Self::try_mean) as the
/// `Option` form). Minimum and maximum are tracked exactly, not binned.
///
/// # Example
///
/// ```
/// use crowdlearn_metrics::QuantileSketch;
///
/// let mut sketch = QuantileSketch::new(0.0, 100.0, 200);
/// for i in 0..1000 {
///     sketch.push(f64::from(i % 100));
/// }
/// let median = sketch.quantile(0.5).unwrap();
/// assert!((median - 49.5).abs() <= sketch.bin_width());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
    clamped: u64,
    min: f64,
    max: f64,
    mean: f64,
}

impl QuantileSketch {
    /// An empty sketch over the grid `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if the range is not finite and increasing, or `bins` is zero.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "sketch range must be finite and increasing, got [{lo}, {hi})"
        );
        assert!(bins > 0, "sketch needs at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
            clamped: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite (a binned estimator has no
    /// meaningful cell for non-finite samples).
    pub fn push(&mut self, value: f64) {
        assert!(
            value.is_finite(),
            "quantile sketch rejects non-finite samples"
        );
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.mean += (value - self.mean) / self.count as f64;
        let idx = if value < self.lo {
            self.clamped += 1;
            0
        } else if value >= self.hi {
            self.clamped += 1;
            self.bins.len() - 1
        } else {
            let frac = (value - self.lo) / (self.hi - self.lo);
            ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1)
        };
        self.bins[idx] += 1;
    }

    /// Number of samples absorbed.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Samples that fell outside `[lo, hi)` and were clamped into an edge
    /// bin. While this is zero the one-bin-width accuracy bound holds.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Width of one grid bin — the quantile error bound while
    /// [`clamped`](Self::clamped) is zero.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Arithmetic mean (exact, not binned); `0.0` when empty — the same
    /// sentinel [`SummaryStats::mean`](crate::SummaryStats::mean) documents.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn try_mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Smallest sample (exact); `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (exact); `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-th quantile estimate, `q` in `[0, 1]`; `None` when empty.
    ///
    /// Matches the rank convention of
    /// [`SummaryStats::quantile`](crate::SummaryStats::quantile): linear
    /// interpolation between the order statistics at `floor(q·(n-1))` and
    /// `ceil(q·(n-1))`, each reconstructed from the cumulative bin counts
    /// and clamped to the exact observed `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must lie in [0, 1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let pos = q * (self.count - 1) as f64;
        let lo_rank = pos.floor() as u64;
        let hi_rank = pos.ceil() as u64;
        let lo_val = self.value_at_rank(lo_rank);
        if lo_rank == hi_rank {
            return Some(lo_val);
        }
        let hi_val = self.value_at_rank(hi_rank);
        let t = pos - lo_rank as f64;
        Some(lo_val * (1.0 - t) + hi_val * t)
    }

    /// Median (0.5 quantile) estimate; `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Reconstructs the 0-based order statistic `k` from the bin counts:
    /// the sample's bin is located by cumulative count, its position within
    /// the bin interpolated, and the result clamped to the exact extremes.
    fn value_at_rank(&self, k: u64) -> f64 {
        debug_assert!(k < self.count);
        // The first and last order statistics are the exactly-tracked
        // extremes — report them exactly, as SummaryStats does for q=0/q=1.
        if k == 0 {
            return self.min;
        }
        if k == self.count - 1 {
            return self.max;
        }
        let width = self.bin_width();
        let mut cum = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if k < cum + c {
                let within = (k - cum) as f64 + 0.5;
                let est = self.lo + width * (i as f64 + within / c as f64);
                return est.clamp(self.min, self.max);
            }
            cum += c;
        }
        // invariant: count == sum(bins), so some bin contains rank k.
        unreachable!("rank {k} beyond the {} binned samples", self.count)
    }

    /// The sketch's grid: `(lo, hi, bins)`. Two sketches are mergeable iff
    /// their grids are equal (bit-exact edges, same bin count).
    pub fn grid(&self) -> (f64, f64, usize) {
        (self.lo, self.hi, self.bins.len())
    }

    /// Whether `other` was built over the same grid as `self`, i.e. whether
    /// the two can merge.
    pub fn same_grid(&self, other: &QuantileSketch) -> bool {
        self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len()
    }

    /// Merges another sketch into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were built over different grids.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.same_grid(other),
            "merged sketches must share one grid, got {:?} and {:?}",
            self.grid(),
            other.grid()
        );
        if other.count == 0 {
            return;
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        let total = self.count + other.count;
        self.mean =
            (self.mean * self.count as f64 + other.mean * other.count as f64) / total as f64;
        self.count = total;
        self.clamped += other.clamped;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0 (no samples)");
        }
        write!(
            f,
            "n={} mean={:.3} min={:.3} p50={:.3} p90={:.3} max={:.3} (±{:.3})",
            self.count,
            self.mean(),
            self.min,
            self.median().unwrap_or(f64::NAN),
            self.quantile(0.9).unwrap_or(f64::NAN),
            self.max,
            self.bin_width()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SummaryStats;

    fn filled(values: &[f64]) -> (QuantileSketch, SummaryStats) {
        let mut sketch = QuantileSketch::new(0.0, 100.0, 500);
        let mut exact = SummaryStats::new();
        for &v in values {
            sketch.push(v);
            exact.push(v);
        }
        (sketch, exact)
    }

    #[test]
    fn empty_sketch_matches_the_summary_stats_contract() {
        let s = QuantileSketch::new(0.0, 10.0, 4);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.try_mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.clamped(), 0);
        assert_eq!(format!("{s}"), "n=0 (no samples)");
    }

    #[test]
    fn single_sample_is_exact() {
        let mut s = QuantileSketch::new(0.0, 10.0, 4);
        s.push(7.25);
        assert_eq!(s.min(), Some(7.25));
        assert_eq!(s.max(), Some(7.25));
        assert_eq!(s.try_mean(), Some(7.25));
        // One sample: every quantile clamps to the exact extremes.
        assert_eq!(s.quantile(0.0), Some(7.25));
        assert_eq!(s.quantile(0.5), Some(7.25));
        assert_eq!(s.quantile(1.0), Some(7.25));
    }

    #[test]
    fn quantiles_track_the_exact_summary_within_one_bin() {
        let values: Vec<f64> = (0..997).map(|i| (i * 37 % 1000) as f64 / 10.0).collect();
        let (sketch, exact) = filled(&values);
        assert_eq!(sketch.clamped(), 0);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let got = sketch.quantile(q).unwrap();
            let want = exact.quantile(q).unwrap();
            assert!(
                (got - want).abs() <= sketch.bin_width() + 1e-12,
                "q={q}: sketch {got} vs exact {want} (bin width {})",
                sketch.bin_width()
            );
        }
        assert_eq!(sketch.min(), exact.min());
        assert_eq!(sketch.max(), exact.max());
        assert!((sketch.mean() - exact.mean()).abs() < 1e-9);
    }

    #[test]
    fn extreme_quantiles_are_exact() {
        let (sketch, exact) = filled(&[3.0, 99.9, 41.5, 0.2, 77.0]);
        assert_eq!(sketch.quantile(0.0), exact.min());
        assert_eq!(sketch.quantile(1.0), exact.max());
    }

    #[test]
    fn out_of_range_samples_clamp_and_count() {
        let mut s = QuantileSketch::new(0.0, 10.0, 10);
        s.push(-5.0);
        s.push(15.0);
        s.push(5.0);
        assert_eq!(s.clamped(), 2);
        assert_eq!(s.len(), 3);
        // Exact extremes still report the raw values.
        assert_eq!(s.min(), Some(-5.0));
        assert_eq!(s.max(), Some(15.0));
        // Estimates stay within the observed range even for clamped bins.
        let p = s.quantile(1.0).unwrap();
        assert!((-5.0..=15.0).contains(&p));
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = QuantileSketch::new(0.0, 100.0, 50);
        let mut b = QuantileSketch::new(0.0, 100.0, 50);
        let mut both = QuantileSketch::new(0.0, 100.0, 50);
        for i in 0..40 {
            let v = (i * 13 % 100) as f64;
            if i % 2 == 0 {
                a.push(v)
            } else {
                b.push(v)
            }
            both.push(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), both.len());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert!((a.mean() - both.mean()).abs() < 1e-9);
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
    }

    #[test]
    #[should_panic(expected = "share one grid")]
    fn merge_panics_on_mismatched_grids() {
        let mut a = QuantileSketch::new(0.0, 100.0, 50);
        a.merge(&QuantileSketch::new(0.0, 100.0, 49));
    }

    #[test]
    #[should_panic(expected = "share one grid")]
    fn merge_panics_on_mismatched_edges() {
        let mut a = QuantileSketch::new(0.0, 100.0, 50);
        a.push(10.0);
        let mut b = QuantileSketch::new(0.0, 200.0, 50);
        b.push(150.0);
        assert!(!a.same_grid(&b));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        QuantileSketch::new(0.0, 1.0, 2).push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and increasing")]
    fn inverted_range_rejected() {
        QuantileSketch::new(5.0, 1.0, 2);
    }
}
