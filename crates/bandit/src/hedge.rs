//! Exponential-weights (Hedge) updates — the "classical exponential weight
//! update rule [Cesa-Bianchi & Lugosi]" that MIC uses for its dynamic expert
//! weights (paper Section IV-D).

use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// A Hedge learner over a fixed set of experts.
///
/// Weights start uniform; after each round every expert reports a loss in
/// `[0, 1]` and its weight is multiplied by `exp(-eta * loss)`, then the
/// vector is renormalized. The normalized weights are exactly the expert
/// weights `w_m^t` of the paper's committee vote (Eq. 2).
///
/// # Example
///
/// ```
/// use crowdlearn_bandit::ExpWeights;
///
/// let mut hedge = ExpWeights::new(3, 0.5);
/// hedge.update(&[0.9, 0.1, 0.5]); // expert 1 was the most accurate
/// let w = hedge.weights();
/// assert!(w[1] > w[0] && w[1] > w[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpWeights {
    weights: Vec<f64>,
    eta: f64,
    rounds: u64,
}

impl ExpWeights {
    /// Creates a learner over `experts` experts with learning rate `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `experts == 0` or `eta <= 0`.
    pub fn new(experts: usize, eta: f64) -> Self {
        assert!(experts > 0, "need at least one expert");
        assert!(eta > 0.0 && eta.is_finite(), "eta must be positive");
        Self {
            weights: vec![1.0 / experts as f64; experts],
            eta,
            rounds: 0,
        }
    }

    /// Number of experts.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are no experts (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The current normalized weights (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Rounds of feedback incorporated so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Applies one round of losses (each in `[0, 1]`; values are clamped).
    ///
    /// # Panics
    ///
    /// Panics if `losses.len() != self.len()` or any loss is NaN.
    pub fn update(&mut self, losses: &[f64]) {
        assert_eq!(losses.len(), self.weights.len(), "one loss per expert");
        assert!(losses.iter().all(|l| !l.is_nan()), "losses must not be NaN");
        for (w, &loss) in self.weights.iter_mut().zip(losses) {
            *w *= (-self.eta * loss.clamp(0.0, 1.0)).exp();
        }
        let sum: f64 = self.weights.iter().sum();
        if sum <= f64::MIN_POSITIVE {
            // All weights underflowed (pathological loss streak): reset to
            // uniform rather than dividing by zero.
            let n = self.weights.len() as f64;
            self.weights.fill(1.0 / n);
        } else {
            for w in &mut self.weights {
                *w /= sum;
            }
        }
        self.rounds += 1;
    }
}

// Snapshot codec: the normalized weight vector travels bit-exactly (no
// re-normalization on decode) with the round counter; the learning rate is
// the rebuilt learner's. The simplex invariant is only checked.
impl ExpWeights {
    /// Appends the learned state: the weights and the round counter.
    pub fn encode_learned(&self, out: &mut Vec<u8>) {
        self.weights.encode(out);
        self.rounds.encode(out);
    }

    /// Restores [`ExpWeights::encode_learned`] bytes onto a learner built
    /// over the same experts and learning rate.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] for a weight count other than the
    /// learner's, or weights that are not a probability vector.
    pub fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let weights = Vec::<f64>::decode(r)?;
        let rounds = u64::decode(r)?;
        let valid = weights.len() == self.weights.len()
            && weights.iter().all(|w| w.is_finite() && *w >= 0.0)
            && (weights.iter().sum::<f64>() - 1.0).abs() < 1e-6;
        if !valid {
            return Err(DecodeError::Invalid);
        }
        self.weights = weights;
        self.rounds = rounds;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_uniform() {
        let h = ExpWeights::new(4, 0.5);
        for &w in h.weights() {
            assert!((w - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_stay_normalized() {
        let mut h = ExpWeights::new(3, 0.8);
        for round in 0..50 {
            let losses = [0.1 * (round % 3) as f64, 0.5, 0.9];
            h.update(&losses);
            let sum: f64 = h.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "round {round}: sum {sum}");
            assert!(h.weights().iter().all(|w| *w >= 0.0));
        }
    }

    #[test]
    fn consistently_better_expert_dominates() {
        let mut h = ExpWeights::new(2, 0.5);
        for _ in 0..30 {
            h.update(&[0.2, 0.8]);
        }
        assert!(h.weights()[0] > 0.95, "weights {:?}", h.weights());
    }

    #[test]
    fn equal_losses_leave_weights_unchanged() {
        let mut h = ExpWeights::new(3, 0.5);
        h.update(&[0.4, 0.4, 0.4]);
        for &w in h.weights() {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn losses_are_clamped() {
        let mut h = ExpWeights::new(2, 0.5);
        h.update(&[-5.0, 7.0]); // clamp to [0, 1]
        let w01 = h.weights().to_vec();
        let mut g = ExpWeights::new(2, 0.5);
        g.update(&[0.0, 1.0]);
        assert_eq!(w01, g.weights());
    }

    #[test]
    fn survives_long_extreme_loss_streaks() {
        let mut h = ExpWeights::new(2, 10.0);
        for _ in 0..10_000 {
            h.update(&[1.0, 1.0]);
        }
        let sum: f64 = h.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(h.weights().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn learned_state_restores_onto_a_rebuilt_learner_of_its_size() {
        let mut h = ExpWeights::new(3, 0.5);
        h.update(&[0.9, 0.1, 0.5]);
        let mut bytes = Vec::new();
        h.encode_learned(&mut bytes);
        let mut rebuilt = ExpWeights::new(3, 0.5);
        rebuilt
            .decode_learned(&mut Reader::new(&bytes))
            .expect("same experts");
        assert_eq!(rebuilt, h);
        let mut two = ExpWeights::new(2, 0.5);
        assert_eq!(
            two.decode_learned(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid)
        );
    }

    #[test]
    #[should_panic(expected = "one loss per expert")]
    fn rejects_wrong_arity() {
        ExpWeights::new(2, 0.5).update(&[0.1]);
    }
}
