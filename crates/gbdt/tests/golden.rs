//! Golden pins: FNV-1a-64 digests of `GbdtClassifier::to_bytes()` for a
//! spread of configurations on small synthetic sets.
//!
//! A fitted model is a pure function of its inputs and configuration, so any
//! change to split search, summation order, tie-breaking or node numbering
//! shows up here as a changed digest. The cases cover tied and few distinct
//! values (including `-0.0` next to `0.0`), many distinct values, row and
//! column subsampling, depth-0 trees, a binding `min_child_weight` and
//! histogram splitting.

use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig, SplitMode};
use serde::binary::Encode;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A deterministic pseudo-random stream (SplitMix64), independent of the
/// `rand` crate so the pinned inputs never move with it.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` rows of `features` columns over `classes` labels. With `levels`
/// set, every feature takes one of that many values (and value 0 alternates
/// between `0.0` and `-0.0`); otherwise values are continuous. Labels follow
/// the first two features plus noise.
fn synthetic(
    seed: u64,
    n: usize,
    features: usize,
    classes: usize,
    levels: Option<u64>,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut s = Stream(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = (0..features)
            .map(|_| match levels {
                Some(k) => match s.next() % k {
                    0 if i % 2 == 1 => -0.0,
                    v => v as f64 / (k - 1).max(1) as f64,
                },
                None => s.unit() * 4.0 - 2.0,
            })
            .collect();
        let signal = row[0] + 0.5 * row[features.min(2) - 1] + 0.3 * s.unit();
        let label = ((signal.abs() * classes as f64) as usize) % classes;
        rows.push(row);
        labels.push(label);
    }
    (rows, labels)
}

fn digest(rows: &[Vec<f64>], labels: &[usize], classes: usize, config: &GbdtConfig) -> u64 {
    fnv1a64(&GbdtClassifier::fit(rows, labels, classes, config).to_bytes())
}

#[test]
fn fitted_model_bytes_match_the_pinned_digests() {
    let cases = [
        (
            "ties and few distinct values, signed zeros",
            synthetic(1, 160, 4, 3, Some(3)),
            3,
            GbdtConfig::small(),
            0x2e1c_80c7_e498_7e41,
        ),
        (
            "many distinct values, no subsampling",
            synthetic(2, 300, 5, 3, None),
            3,
            GbdtConfig {
                rounds: 25,
                max_depth: 5,
                subsample: 1.0,
                colsample: 1.0,
                ..GbdtConfig::small()
            },
            0x82b0_4dd6_72b9_3792,
        ),
        (
            "row and column subsampling, four classes",
            synthetic(3, 240, 8, 4, Some(7)),
            4,
            GbdtConfig {
                rounds: 30,
                subsample: 0.6,
                colsample: 0.5,
                seed: 99,
                ..GbdtConfig::small()
            },
            0x3a6f_49d5_494a_a869,
        ),
        (
            "depth-0 trees",
            synthetic(4, 90, 3, 2, None),
            2,
            GbdtConfig {
                max_depth: 0,
                rounds: 10,
                ..GbdtConfig::small()
            },
            0x0490_b819_bda8_ab85,
        ),
        (
            "binding min_child_weight with gamma",
            synthetic(5, 200, 6, 3, Some(12)),
            3,
            GbdtConfig {
                min_child_weight: 4.0,
                gamma: 0.05,
                max_depth: 6,
                rounds: 20,
                ..GbdtConfig::small()
            },
            0x4574_e807_17d7_e3b8,
        ),
        (
            "histogram splitting",
            synthetic(6, 220, 5, 3, None),
            3,
            GbdtConfig {
                split_mode: SplitMode::Histogram { bins: 16 },
                rounds: 20,
                ..GbdtConfig::small()
            },
            0x6f97_c589_8d65_596e,
        ),
    ];
    let mut failures = Vec::new();
    for (name, (rows, labels), classes, config, pinned) in &cases {
        let got = digest(rows, labels, *classes, config);
        if got != *pinned {
            failures.push(format!("{name}: digest {got:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
