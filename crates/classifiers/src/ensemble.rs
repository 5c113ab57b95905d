//! The boosted Ensemble baseline (Table II), aggregating VGG16 + BoVW + DDM
//! with confidence-rated weights in the spirit of Schapire & Singer (1999).

use crate::{ClassDistribution, Classifier, SimulatedExpert};
use crowdlearn_dataset::{EvidenceMatrix, LabeledImage, SyntheticImage};

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
    /// All labeled samples ever seen; weight refits use the whole history so
    /// a handful of noisy crowd labels cannot destroy the calibration.
    validation_buffer: Vec<LabeledImage>,
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
            validation_buffer: Vec::new(),
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

    /// Recomputes the SAMME boosting weights on a labeled validation set.
    ///
    /// Errors are clamped away from 0 and 1 so weights stay finite. Members
    /// performing at or below chance receive weight ~0.
    ///
    /// # Panics
    ///
    /// Panics if `validation` is empty.
    pub fn refit_weights(&mut self, validation: &[LabeledImage]) {
        assert!(!validation.is_empty(), "validation set must be non-empty");
        let k = crowdlearn_dataset::DamageLabel::COUNT as f64;
        self.alphas = self
            .members
            .iter()
            .map(|m| {
                let errors = validation
                    .iter()
                    .filter(|s| m.predict(&s.image).argmax() != s.label)
                    .count();
                let err = (errors as f64 / validation.len() as f64).clamp(0.02, 0.98);
                (((1.0 - err) / err).ln() + (k - 1.0).ln()).max(0.0)
            })
            .collect();
        // Guard against the degenerate all-zero case (all members at chance).
        if self.alphas.iter().all(|a| *a == 0.0) {
            self.alphas.fill(1.0);
        }
    }

    /// Batch prediction over a pre-gathered evidence matrix: every member
    /// predicts the whole batch off the shared matrix, then each image's
    /// member votes are mixed under the alphas in member order — the same
    /// mixture-accumulation order as the scalar `predict`, so the result is
    /// bit-identical to mapping it.
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
}

impl Classifier for BoostedEnsemble {
    fn name(&self) -> &str {
        "Ensemble"
    }

    fn predict(&self, image: &SyntheticImage) -> ClassDistribution {
        let votes: Vec<ClassDistribution> = self.members.iter().map(|m| m.predict(image)).collect();
        ClassDistribution::weighted_mixture(self.alphas.iter().copied().zip(votes.iter()))
    }

    fn predict_batch_refs(&self, images: &[&SyntheticImage]) -> Vec<ClassDistribution> {
        self.predict_evidence(&EvidenceMatrix::from_refs(images.iter().copied()))
    }

    /// Retrains every member on the samples and refits the boosting weights
    /// on the accumulated labeled history (all samples seen so far), so that
    /// incremental crowd feedback refines rather than replaces the weight
    /// calibration.
    fn retrain(&mut self, samples: &[LabeledImage]) {
        for m in &mut self.members {
            m.retrain(samples);
        }
        self.validation_buffer.extend_from_slice(samples);
        if !self.validation_buffer.is_empty() {
            let buffer = std::mem::take(&mut self.validation_buffer);
            self.refit_weights(&buffer);
            self.validation_buffer = buffer;
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
    fn refit_on_empty_validation_panics() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut ensemble = trained_ensemble(&ds);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ensemble.refit_weights(&[])));
        assert!(result.is_err());
    }
}
