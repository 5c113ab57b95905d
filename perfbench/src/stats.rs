//! Order statistics for timing samples: median, quartiles, and the tail
//! percentile rule (report the highest percentile that still has at least
//! ten samples beyond it).

/// Samples beyond a tail percentile needed before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between the
/// closest ranks; `None` on empty input.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The arithmetic mean; NaN on empty input.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median; `None` on empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method); `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Python: m = n + 1; cut i at rank (i*m)/4, clamped to 1..n-1 and
        // interpolated (or extrapolated past the clamp) with exact
        // integer weights.
        let m = n + 1;
        let j = ((i * m) / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The highest candidate tail percentile with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// lowest candidate has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
}

/// The tail percentile of `values` under [`tail_percentile`], with the
/// percentile it reports.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(values.len())?;
    Some((p, quantile(values, p / 100.0)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.125), Some(15.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, value) = tail(&v).expect("1000 samples have a p99");
        assert_eq!(p, 99.0);
        assert!(v.iter().filter(|&&x| x > value).count() >= TAIL_MIN_BEYOND);
    }
}
