//! The interface CrowdLearn uses to talk to black-box DDA algorithms.

use crate::ClassDistribution;
use crowdlearn_dataset::{EvidenceMatrix, LabeledImage, SyntheticImage};
use serde::binary::{DecodeError, Reader};

/// A black-box damage-assessment classifier.
///
/// This is the full surface the CrowdLearn framework is allowed to touch: it
/// may ask for a probabilistic vote, feed back labeled samples for
/// retraining, account for execution delay, and checkpoint what retraining
/// changed. It may *not* inspect the model internals — that is the
/// "black-box AI" premise of the paper.
///
/// Implementations must be deterministic: calling [`Classifier::predict`]
/// twice on the same image without an intervening retrain must return the
/// same vote. The simulated experts achieve this by hashing the image id and
/// the training version into their noise terms.
pub trait Classifier: Send {
    /// Short human-readable identifier (e.g. `"VGG16"`), used in reports.
    fn name(&self) -> &str;

    /// Produces the expert vote for one image (Definition 6): a normalized
    /// probability distribution over the damage classes.
    fn predict(&self, image: &SyntheticImage) -> ClassDistribution;

    /// Produces one vote per image of a batch, read off the batch's
    /// [`EvidenceMatrix`] — the one batch method. A committee builds the
    /// matrix once per sensing cycle and every member shares it.
    ///
    /// Contract: the result must be **bit-identical** to mapping
    /// [`Classifier::predict`] over the images the matrix was built from,
    /// in order — batching is a performance hint, never a semantic one
    /// (DESIGN.md "Batched committee inference").
    fn predict_evidence(&self, evidence: &EvidenceMatrix) -> Vec<ClassDistribution>;

    /// Fine-tunes the model on additional labeled samples. Labels may come
    /// from ground truth (initial training) or from the crowd (MIC's model
    /// retraining strategy). Implementations decide how much each sample
    /// helps; mislabeled samples may hurt.
    fn retrain(&mut self, samples: &[LabeledImage]);

    /// Simulated execution time, in seconds, for classifying one batch of
    /// `batch_size` images. Deterministic per `(self, cycle)` pair; `cycle`
    /// lets implementations vary delay across sensing cycles without
    /// interior mutability.
    fn execution_delay_secs(&self, batch_size: usize, cycle: u64) -> f64;

    /// Number of labeled samples this classifier has been trained on so far.
    fn training_samples(&self) -> usize;

    /// Appends what the classifier has learned since it was built — all a
    /// checkpoint carries of it; whatever built it (its profile, its
    /// members) is rebuilt from the configuration that chose it.
    fn encode_learned(&self, out: &mut Vec<u8>);

    /// Restores [`Classifier::encode_learned`] bytes onto a classifier
    /// built the same way, refusing out-of-contract values with
    /// [`DecodeError::Invalid`] rather than panicking.
    fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_dataset::DamageLabel;
    use serde::binary::{Decode, Encode};

    /// A trivial in-test implementation to pin down object safety.
    struct ConstantClassifier(usize);

    impl Classifier for ConstantClassifier {
        fn name(&self) -> &str {
            "constant"
        }
        fn predict(&self, _image: &SyntheticImage) -> ClassDistribution {
            ClassDistribution::delta(DamageLabel::NoDamage)
        }
        fn predict_evidence(&self, evidence: &EvidenceMatrix) -> Vec<ClassDistribution> {
            vec![ClassDistribution::delta(DamageLabel::NoDamage); evidence.len()]
        }
        fn retrain(&mut self, samples: &[LabeledImage]) {
            self.0 += samples.len();
        }
        fn execution_delay_secs(&self, batch_size: usize, _cycle: u64) -> f64 {
            batch_size as f64
        }
        fn training_samples(&self) -> usize {
            self.0
        }
        fn encode_learned(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
            self.0 = usize::decode(r)?;
            Ok(())
        }
    }

    #[test]
    fn classifier_is_object_safe() {
        let boxed: Box<dyn Classifier> = Box::new(ConstantClassifier(0));
        assert_eq!(boxed.name(), "constant");
        assert_eq!(boxed.execution_delay_secs(10, 0), 10.0);
    }

    #[test]
    fn retrain_accumulates_samples() {
        let mut c = ConstantClassifier(0);
        c.retrain(&[]);
        assert_eq!(c.training_samples(), 0);
    }

    #[test]
    fn learned_state_round_trips_through_the_trait_object() {
        let trained: Box<dyn Classifier> = Box::new(ConstantClassifier(7));
        let mut bytes = Vec::new();
        trained.encode_learned(&mut bytes);
        let mut rebuilt: Box<dyn Classifier> = Box::new(ConstantClassifier(0));
        let mut r = Reader::new(&bytes);
        assert_eq!(rebuilt.decode_learned(&mut r), Ok(()));
        assert!(r.is_empty());
        assert_eq!(rebuilt.training_samples(), 7);
    }
}
