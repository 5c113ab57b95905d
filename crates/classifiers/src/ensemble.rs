//! The boosted Ensemble baseline (Table II), aggregating VGG16 + BoVW + DDM
//! with confidence-rated weights in the spirit of Schapire & Singer (1999).

use crate::{ClassDistribution, Classifier, SimulatedExpert};
use crowdlearn_dataset::{DamageLabel, EvidenceMatrix, LabeledImage, SyntheticImage};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Seconds of aggregation overhead added on top of the slowest member, tuned
/// so the Ensemble's per-cycle delay matches Table III's 85.82 s. (The paper
/// runs members concurrently but pays a boosting/aggregation cost.)
const DEFAULT_OVERHEAD_SECS: f64 = 33.2;

/// A boosting-style aggregation of DDA experts.
///
/// Each member receives a weight `alpha_m = ln((1 - err_m) / err_m) +
/// ln(K - 1)` (the SAMME multi-class boosting weight) computed on a
/// validation set; prediction is the alpha-weighted mixture of the members'
/// votes.
///
/// # Example
///
/// ```
/// use crowdlearn_classifiers::{profiles, BoostedEnsemble, Classifier};
/// use crowdlearn_dataset::{Dataset, DatasetConfig, LabeledImage};
///
/// let dataset = Dataset::generate(&DatasetConfig::paper());
/// let train: Vec<_> = dataset.train().iter().cloned()
///     .map(LabeledImage::ground_truth).collect();
/// let mut ensemble = BoostedEnsemble::new(profiles::paper_committee(0));
/// ensemble.retrain(&train);
/// let vote = ensemble.predict(&dataset.test()[0]);
/// assert!((vote.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BoostedEnsemble {
    members: Vec<SimulatedExpert>,
    alphas: Vec<f64>,
    /// Every labeled sample ever seen, as the evidence a member's vote reads
    /// (id and block means), so weight refits use the whole history and a
    /// handful of noisy crowd labels cannot destroy the calibration.
    validation: EvidenceMatrix,
    /// The label of each `validation` sample, in the same order.
    labels: Vec<DamageLabel>,
}

impl BoostedEnsemble {
    /// Creates an ensemble over `members` with uniform initial weights.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<SimulatedExpert>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let n = members.len();
        Self {
            members,
            alphas: vec![1.0; n],
            validation: EvidenceMatrix::default(),
            labels: Vec::new(),
        }
    }

    /// The current per-member boosting weights.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Read access to the members.
    pub fn members(&self) -> &[SimulatedExpert] {
        &self.members
    }

    /// Recomputes the SAMME boosting weights on the validation buffer, each
    /// member predicting it through the batch path (bit-identical to mapping
    /// `predict`, so the error counts are the scalar path's).
    ///
    /// Errors are clamped away from 0 and 1 so weights stay finite. Members
    /// performing at or below chance receive weight ~0.
    fn refit_weights(&mut self) {
        let k = DamageLabel::COUNT as f64;
        let samples = self.labels.len() as f64;
        self.alphas = self
            .members
            .iter()
            .map(|m| {
                let errors = m
                    .predict_evidence(&self.validation)
                    .iter()
                    .zip(&self.labels)
                    .filter(|(vote, label)| vote.argmax() != **label)
                    .count();
                let err = (errors as f64 / samples).clamp(0.02, 0.98);
                (((1.0 - err) / err).ln() + (k - 1.0).ln()).max(0.0)
            })
            .collect();
        // Guard against the degenerate all-zero case (all members at chance).
        if self.alphas.iter().all(|a| *a == 0.0) {
            self.alphas.fill(1.0);
        }
    }
}

impl Classifier for BoostedEnsemble {
    fn name(&self) -> &str {
        "Ensemble"
    }

    fn predict(&self, image: &SyntheticImage) -> ClassDistribution {
        let votes: Vec<ClassDistribution> = self.members.iter().map(|m| m.predict(image)).collect();
        ClassDistribution::weighted_mixture(self.alphas.iter().copied().zip(votes.iter()))
    }

    /// Every member predicts the whole batch off the shared matrix, then
    /// each image's member votes are mixed under the alphas in member order
    /// — the same mixture-accumulation order as the scalar `predict`, so the
    /// result is bit-identical to mapping it.
    fn predict_evidence(&self, evidence: &EvidenceMatrix) -> Vec<ClassDistribution> {
        let member_votes: Vec<Vec<ClassDistribution>> = self
            .members
            .iter()
            .map(|m| m.predict_evidence(evidence))
            .collect();
        (0..evidence.len())
            .map(|i| {
                ClassDistribution::weighted_mixture(
                    self.alphas
                        .iter()
                        .copied()
                        .zip(member_votes.iter().map(|votes| &votes[i])),
                )
            })
            .collect()
    }

    /// Retrains every member on the samples and refits the boosting weights
    /// on the accumulated labeled history (all samples seen so far), so that
    /// incremental crowd feedback refines rather than replaces the weight
    /// calibration.
    fn retrain(&mut self, samples: &[LabeledImage]) {
        for m in &mut self.members {
            m.retrain(samples);
        }
        for sample in samples {
            self.validation.push(&sample.image);
            self.labels.push(sample.label);
        }
        if !self.labels.is_empty() {
            self.refit_weights();
        }
    }

    /// Members run concurrently, so the batch delay is the slowest member
    /// plus aggregation overhead (calibrated to Table III).
    fn execution_delay_secs(&self, batch_size: usize, cycle: u64) -> f64 {
        let slowest = self
            .members
            .iter()
            .map(|m| m.execution_delay_secs(batch_size, cycle))
            .fold(0.0, f64::max);
        slowest + DEFAULT_OVERHEAD_SECS
    }

    fn training_samples(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.training_samples())
            .max()
            .unwrap_or(0)
    }

    /// The member count and each member's learned state, the alphas, then
    /// the validation buffer: its evidence and its labels.
    fn encode_learned(&self, out: &mut Vec<u8>) {
        self.members.len().encode(out);
        for m in &self.members {
            m.encode_learned(out);
        }
        self.alphas.encode(out);
        self.validation.encode(out);
        self.labels.encode(out);
    }

    /// Refuses a member or alpha count other than this ensemble's, an alpha
    /// the mixture would reject (non-finite, negative, or all zero) and a
    /// label count other than the buffer's.
    fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        if usize::decode(r)? != self.members.len() {
            return Err(DecodeError::Invalid);
        }
        for m in &mut self.members {
            m.decode_learned(r)?;
        }
        let alphas = Vec::<f64>::decode(r)?;
        let validation = EvidenceMatrix::decode(r)?;
        let labels = Vec::<DamageLabel>::decode(r)?;
        let valid = alphas.len() == self.members.len()
            && alphas.iter().all(|a| a.is_finite() && *a >= 0.0)
            && alphas.iter().any(|a| *a > 0.0)
            && labels.len() == validation.len();
        if !valid {
            return Err(DecodeError::Invalid);
        }
        self.alphas = alphas;
        self.validation = validation;
        self.labels = labels;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crowdlearn_dataset::{Dataset, DatasetConfig};
    use crowdlearn_metrics::ConfusionMatrix;

    fn trained_ensemble(ds: &Dataset) -> BoostedEnsemble {
        let mut e = BoostedEnsemble::new(profiles::paper_committee(0));
        let train: Vec<_> = ds
            .train()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        e.retrain(&train);
        e
    }

    fn accuracy(c: &impl Classifier, ds: &Dataset) -> f64 {
        let mut cm = ConfusionMatrix::new(3);
        for img in ds.test() {
            cm.record(img.truth().index(), c.predict(img).argmax().index());
        }
        cm.accuracy()
    }

    #[test]
    fn ensemble_beats_every_member_or_nearly_so() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let ensemble = trained_ensemble(&ds);
        let acc_ensemble = accuracy(&ensemble, &ds);
        // Paper Table II: Ensemble 0.815, best single (DDM) 0.807.
        assert!(
            (acc_ensemble - 0.815).abs() < 0.05,
            "ensemble accuracy {acc_ensemble}"
        );
        for (member, alpha) in ensemble.members().iter().zip(ensemble.alphas()) {
            let acc_m = accuracy(member, &ds);
            assert!(
                acc_ensemble >= acc_m - 0.01,
                "ensemble {acc_ensemble} must not trail member {} at {acc_m} (alpha {alpha})",
                member.name()
            );
        }
    }

    #[test]
    fn stronger_members_get_larger_alphas() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let ensemble = trained_ensemble(&ds);
        let alphas = ensemble.alphas();
        // Order of members: VGG16, BoVW, DDM — DDM strongest, BoVW weakest.
        assert!(alphas[2] > alphas[0], "DDM must outweigh VGG16: {alphas:?}");
        assert!(
            alphas[0] > alphas[1],
            "VGG16 must outweigh BoVW: {alphas:?}"
        );
    }

    #[test]
    fn delay_is_slowest_member_plus_overhead() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let ensemble = trained_ensemble(&ds);
        let mean: f64 = (0..40)
            .map(|c| ensemble.execution_delay_secs(10, c))
            .sum::<f64>()
            / 40.0;
        // Paper Table III: 85.82 s per 10-image cycle.
        assert!((mean - 85.82).abs() / 85.82 < 0.1, "ensemble delay {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_is_rejected() {
        BoostedEnsemble::new(vec![]);
    }

    #[test]
    fn learned_state_round_trips_onto_a_rebuilt_ensemble() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut trained = trained_ensemble(&ds);
        let crowd: Vec<_> = ds.test()[..20]
            .iter()
            .cloned()
            .map(|image| LabeledImage::new(image, DamageLabel::Severe))
            .collect();
        trained.retrain(&crowd);
        let mut bytes = Vec::new();
        trained.encode_learned(&mut bytes);

        let mut rebuilt = BoostedEnsemble::new(profiles::paper_committee(0));
        let mut r = Reader::new(&bytes);
        assert_eq!(rebuilt.decode_learned(&mut r), Ok(()));
        assert!(r.is_empty());
        assert_eq!(rebuilt.members(), trained.members());
        assert_eq!(rebuilt.alphas(), trained.alphas());
        assert_eq!(rebuilt.labels.len(), ds.train().len() + crowd.len());
        let mut again = Vec::new();
        rebuilt.encode_learned(&mut again);
        assert_eq!(again, bytes);

        // The restored buffer refits exactly as the live one does.
        let more: Vec<_> = ds.test()[20..30]
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        trained.retrain(&more);
        rebuilt.retrain(&more);
        assert_eq!(rebuilt.alphas(), trained.alphas());
        let image = &ds.test()[0];
        assert_eq!(rebuilt.predict(image), trained.predict(image));
    }

    #[test]
    fn decode_refuses_state_the_ensemble_cannot_hold() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let trained = trained_ensemble(&ds);
        let learned = |e: &BoostedEnsemble| e.members[0].learned_state();
        // Writes a learned state with each part open to an edit.
        let encode = |members: usize, alphas: &[f64], means: Option<f64>, labels: usize| {
            let mut out = Vec::new();
            members.encode(&mut out);
            for _ in 0..members {
                learned(&trained).encode(&mut out);
            }
            alphas.to_vec().encode(&mut out);
            let mut validation = Vec::new();
            trained.validation.encode(&mut validation);
            if let Some(bad) = means {
                // The first mean sits after the id vector and the means'
                // length prefix.
                let at = 8 + 4 * trained.validation.len() + 8;
                validation[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&validation);
            trained.labels[..labels].to_vec().encode(&mut out);
            out
        };
        let n = trained.labels.len();
        let decode = |bytes: Vec<u8>| {
            BoostedEnsemble::new(profiles::paper_committee(0))
                .decode_learned(&mut Reader::new(&bytes))
        };
        assert_eq!(decode(encode(3, trained.alphas(), None, n)), Ok(()));
        let cases = [
            ("two members", encode(2, trained.alphas(), None, n)),
            ("four members", encode(4, trained.alphas(), None, n)),
            ("two alphas", encode(3, &trained.alphas()[..2], None, n)),
            ("a NaN alpha", encode(3, &[1.0, f64::NAN, 1.0], None, n)),
            (
                "an infinite alpha",
                encode(3, &[f64::INFINITY, 1.0, 1.0], None, n),
            ),
            ("a negative alpha", encode(3, &[1.0, -0.5, 1.0], None, n)),
            ("all-zero alphas", encode(3, &[0.0; 3], None, n)),
            ("a NaN mean", encode(3, trained.alphas(), Some(f64::NAN), n)),
            (
                "an infinite mean",
                encode(3, trained.alphas(), Some(f64::INFINITY), n),
            ),
            ("a label short", encode(3, trained.alphas(), None, n - 1)),
        ];
        for (what, bytes) in cases {
            assert_eq!(decode(bytes), Err(DecodeError::Invalid), "{what}");
        }
    }
}
