//! The incentive→delay response surface, calibrated to the pilot study
//! (paper Figure 5).

use crate::IncentiveLevel;
use crowdlearn_dataset::{gaussian, TemporalContext};
use rand::rngs::StdRng;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// Mean per-HIT response delay (seconds) for every
/// `(temporal context, incentive level)` cell, plus multiplicative noise.
///
/// The paper-calibrated surface ([`DelayModel::paper`]) encodes Figure 5's
/// two regimes:
///
/// * **Morning / afternoon**: workers are scarce and selective, so delay
///   falls steeply and monotonically with incentive.
/// * **Evening / midnight**: an abundant night-owl population takes almost
///   any HIT, so all mid-range incentives perform similarly; only the
///   1-cent level is notably slower and the 20-cent level notably faster.
///
/// This asymmetry is exactly what makes a context-aware incentive policy
/// worthwhile: money moved from flat contexts to sensitive contexts buys a
/// large delay reduction (Figure 8, Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    /// `base_secs[context][incentive]`.
    base_secs: [[f64; IncentiveLevel::COUNT]; TemporalContext::COUNT],
    /// Std-dev of the multiplicative log-normal noise.
    noise_sigma: f64,
}

impl DelayModel {
    /// The paper-calibrated surface (see type docs).
    pub fn paper() -> Self {
        Self {
            base_secs: [
                // 1c      2c      4c     6c     8c    10c    20c
                [1400.0, 1150.0, 900.0, 620.0, 430.0, 330.0, 160.0], // morning
                [1250.0, 1000.0, 780.0, 530.0, 380.0, 300.0, 170.0], // afternoon
                [480.0, 250.0, 242.0, 238.0, 235.0, 232.0, 195.0],   // evening
                [520.0, 260.0, 252.0, 248.0, 244.0, 240.0, 200.0],   // midnight
            ],
            noise_sigma: 0.18,
        }
    }

    /// Builds a custom surface (for ablations / stress tests).
    ///
    /// # Panics
    ///
    /// Panics with the message of [`DelayModel::check`] if it rejects the
    /// surface.
    pub fn from_table(
        base_secs: [[f64; IncentiveLevel::COUNT]; TemporalContext::COUNT],
        noise_sigma: f64,
    ) -> Self {
        let model = Self {
            base_secs,
            noise_sigma,
        };
        model.check().unwrap_or_else(|e| panic!("{e}"));
        model
    }

    /// The one validity rule: [`DelayModel::from_table`] panics with its
    /// message, the snapshot decoder reports `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        let positive = |d: &f64| d.is_finite() && *d > 0.0;
        if !self.base_secs.iter().flatten().all(positive) {
            Err("mean delays must be positive and finite")
        } else if !(self.noise_sigma.is_finite() && self.noise_sigma >= 0.0) {
            Err("noise sigma must be non-negative and finite")
        } else {
            Ok(())
        }
    }

    /// The mean per-HIT delay of a cell (before worker speed and noise).
    pub fn mean_secs(&self, context: TemporalContext, incentive: IncentiveLevel) -> f64 {
        self.base_secs[context.index()][incentive.index()]
    }

    /// Samples one worker's response delay: cell mean × worker speed factor
    /// × log-normal noise.
    ///
    /// # Panics
    ///
    /// Panics if `speed_factor` is not positive.
    pub fn sample_secs(
        &self,
        context: TemporalContext,
        incentive: IncentiveLevel,
        speed_factor: f64,
        rng: &mut StdRng,
    ) -> f64 {
        assert!(speed_factor > 0.0, "speed factor must be positive");
        let mean = self.mean_secs(context, incentive);
        let noise = (self.noise_sigma * gaussian(rng)).exp();
        mean * speed_factor * noise
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        Self::paper()
    }
}

// Snapshot codec: decoding runs `DelayModel::check` and reports `Invalid`
// instead of panicking.
impl Encode for DelayModel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.base_secs.encode(out);
        self.noise_sigma.encode(out);
    }
}

impl Decode for DelayModel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let model = Self {
            base_secs: <[[f64; IncentiveLevel::COUNT]; TemporalContext::COUNT]>::decode(r)?,
            noise_sigma: f64::decode(r)?,
        };
        model.check().map_err(|_| DecodeError::Invalid)?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn morning_delay_is_monotone_in_incentive() {
        let model = DelayModel::paper();
        for ctx in [TemporalContext::Morning, TemporalContext::Afternoon] {
            let delays: Vec<f64> = IncentiveLevel::ALL
                .iter()
                .map(|&l| model.mean_secs(ctx, l))
                .collect();
            assert!(
                delays.windows(2).all(|w| w[0] > w[1]),
                "{ctx}: {delays:?} must decrease"
            );
        }
    }

    #[test]
    fn night_mid_range_is_flat() {
        let model = DelayModel::paper();
        for ctx in [TemporalContext::Evening, TemporalContext::Midnight] {
            // Levels 2c..=10c within 10% of each other.
            let mids: Vec<f64> = IncentiveLevel::ALL[1..6]
                .iter()
                .map(|&l| model.mean_secs(ctx, l))
                .collect();
            let max = mids.iter().copied().fold(0.0, f64::max);
            let min = mids.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(
                (max - min) / min < 0.1,
                "{ctx} mid-range not flat: {mids:?}"
            );
            // But the extremes deviate.
            assert!(model.mean_secs(ctx, IncentiveLevel::C1) > 1.5 * max);
            assert!(model.mean_secs(ctx, IncentiveLevel::C20) < min);
        }
    }

    #[test]
    fn night_is_faster_than_morning_at_low_incentives() {
        let model = DelayModel::paper();
        for level in [IncentiveLevel::C1, IncentiveLevel::C2, IncentiveLevel::C4] {
            assert!(
                model.mean_secs(TemporalContext::Evening, level)
                    < model.mean_secs(TemporalContext::Morning, level)
            );
        }
    }

    #[test]
    fn samples_scatter_around_the_mean() {
        let model = DelayModel::paper();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 4000;
        let mean_hat: f64 = (0..n)
            .map(|_| model.sample_secs(TemporalContext::Evening, IncentiveLevel::C4, 1.0, &mut rng))
            .sum::<f64>()
            / n as f64;
        // Log-normal mean is base * exp(sigma^2 / 2).
        let expected = 242.0 * (0.18f64 * 0.18 / 2.0).exp();
        assert!(
            (mean_hat - expected).abs() / expected < 0.05,
            "sampled mean {mean_hat}, expected {expected}"
        );
    }

    #[test]
    fn slow_workers_take_longer() {
        let model = DelayModel::paper();
        let mut rng = StdRng::seed_from_u64(3);
        let fast = model.sample_secs(TemporalContext::Morning, IncentiveLevel::C4, 0.5, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let slow = model.sample_secs(TemporalContext::Morning, IncentiveLevel::C4, 2.0, &mut rng);
        assert!(slow > fast);
        assert!((slow / fast - 4.0).abs() < 1e-9);
    }

    #[test]
    fn check_agrees_with_the_snapshot_decoder() {
        let paper = DelayModel::paper();
        let mut cases = vec![paper.clone()];
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 0.18] {
            let mut model = paper.clone();
            model.base_secs[2][3] = x;
            cases.push(model);
            cases.push(DelayModel {
                noise_sigma: x,
                ..paper.clone()
            });
        }
        for model in &cases {
            let decoded = DelayModel::from_bytes(&model.to_bytes());
            assert_eq!(
                model.check().is_ok(),
                decoded.is_ok(),
                "{model:?}: check {:?}, decode {decoded:?}",
                model.check()
            );
        }
    }

    #[test]
    #[should_panic(expected = "noise sigma must be non-negative and finite")]
    fn infinite_sigma_rejected() {
        DelayModel::from_table(DelayModel::paper().base_secs, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "mean delays must be positive")]
    fn zero_mean_rejected() {
        let mut table = DelayModel::paper().base_secs;
        table[0][0] = 0.0;
        DelayModel::from_table(table, 0.1);
    }
}
