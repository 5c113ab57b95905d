//! The interface CrowdLearn uses to talk to black-box DDA algorithms.

use crate::ClassDistribution;
use crowdlearn_dataset::{LabeledImage, SyntheticImage};

/// A black-box damage-assessment classifier.
///
/// This is the full surface the CrowdLearn framework is allowed to touch: it
/// may ask for a probabilistic vote, feed back labeled samples for
/// retraining, and account for execution delay. It may *not* inspect the
/// model internals — that is the "black-box AI" premise of the paper.
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

    /// Produces one vote per image of a batch of image *references* —
    /// sensing cycles hand out scattered references into the dataset, so
    /// the runtime cannot form a contiguous `&[SyntheticImage]` without
    /// cloning.
    ///
    /// Contract: the result must be **bit-identical** to mapping
    /// [`Classifier::predict`] over `images` in order — batching is a
    /// performance hint, never a semantic one (DESIGN.md "Batched committee
    /// inference"). The default per-image loop satisfies this trivially, so
    /// external implementations keep working; implementations with a cheaper
    /// whole-batch formulation (e.g. [`SimulatedExpert`] over an
    /// [`EvidenceMatrix`]) override it.
    ///
    /// [`SimulatedExpert`]: crate::SimulatedExpert
    /// [`EvidenceMatrix`]: crowdlearn_dataset::EvidenceMatrix
    fn predict_batch_refs(&self, images: &[&SyntheticImage]) -> Vec<ClassDistribution> {
        images.iter().map(|image| self.predict(image)).collect()
    }

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

    /// The concrete [`SimulatedExpert`](crate::SimulatedExpert) behind this
    /// classifier, if it is one. This is the (object-safe) hook runtime
    /// snapshots use to serialize committee members; classifiers without a
    /// serialized form return `None` (the default), and a snapshot
    /// containing them fails with an explicit error instead of panicking.
    fn as_simulated(&self) -> Option<&crate::SimulatedExpert> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_dataset::DamageLabel;

    /// A trivial in-test implementation to pin down object safety and the
    /// default behavior contract.
    struct ConstantClassifier(usize);

    impl Classifier for ConstantClassifier {
        fn name(&self) -> &str {
            "constant"
        }
        fn predict(&self, _image: &SyntheticImage) -> ClassDistribution {
            ClassDistribution::delta(DamageLabel::NoDamage)
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
    fn default_batch_methods_map_predict() {
        use crowdlearn_dataset::{visual_layout, ImageAttribute, ImageId};
        let images: Vec<SyntheticImage> = (0..4)
            .map(|i| {
                SyntheticImage::from_latents(
                    ImageId(i),
                    DamageLabel::NoDamage,
                    ImageAttribute::Plain,
                    DamageLabel::NoDamage,
                    false,
                    vec![0.0; visual_layout::VISUAL_DIM],
                    vec![0.0; SyntheticImage::CONTEXTUAL_DIM],
                )
            })
            .collect();
        let c: Box<dyn Classifier> = Box::new(ConstantClassifier(0));
        let expected: Vec<ClassDistribution> = images.iter().map(|i| c.predict(i)).collect();
        let refs: Vec<&SyntheticImage> = images.iter().collect();
        assert_eq!(c.predict_batch_refs(&refs), expected);
    }
}
