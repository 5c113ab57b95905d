//! The query-by-committee of DDA experts with Hedge-maintained weights
//! (paper Definitions 4-8, Eq. 2-3).

use crowdlearn_bandit::ExpWeights;
use crowdlearn_classifiers::{ClassDistribution, Classifier};
use crowdlearn_dataset::{EvidenceMatrix, LabeledImage, SyntheticImage};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// A weighted committee of black-box classifiers.
///
/// The committee produces, per image, the member votes (Definition 6) and
/// the weighted, renormalized committee vote of Eq. 2; its entropy (Eq. 3)
/// is the uncertainty signal QSS ranks on. Weights are maintained by a
/// Hedge learner and updated by MIC each cycle.
pub struct Committee {
    members: Vec<Box<dyn Classifier>>,
    hedge: ExpWeights,
}

impl Committee {
    /// Builds a committee with uniform initial weights.
    ///
    /// `eta` is the Hedge learning rate for the dynamic expert-weight
    /// updates (paper §IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `eta <= 0`.
    pub fn new(members: Vec<Box<dyn Classifier>>, eta: f64) -> Self {
        assert!(!members.is_empty(), "committee needs at least one expert");
        let hedge = ExpWeights::new(members.len(), eta);
        Self { members, hedge }
    }

    /// Appends what the committee has learned: the member count, each
    /// member's [`Classifier::encode_learned`] state, then the Hedge
    /// weights ([`ExpWeights::encode_learned`]).
    pub fn encode_learned(&self, out: &mut Vec<u8>) {
        self.members.len().encode(out);
        for m in &self.members {
            m.encode_learned(out);
        }
        self.hedge.encode_learned(out);
    }

    /// Restores [`Committee::encode_learned`] bytes onto a committee built
    /// by [`Committee::new`] from the configuration that booted it: each
    /// member restores its learned state, and the Hedge learner its
    /// weights. Refuses a member or weight count other than this
    /// committee's.
    pub fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        if usize::decode(r)? != self.members.len() {
            return Err(DecodeError::Invalid);
        }
        for m in &mut self.members {
            m.decode_learned(r)?;
        }
        self.hedge.decode_learned(r)
    }

    /// Labeled samples the members have been trained on so far (they all
    /// retrain on the same ones).
    pub fn training_samples(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.training_samples())
            .max()
            .unwrap_or(0)
    }

    /// Number of experts.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the committee is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member names, in weight order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|m| m.name()).collect()
    }

    /// The current expert weights `w_m^t` (sum to 1).
    pub fn weights(&self) -> &[f64] {
        self.hedge.weights()
    }

    /// Every member's vote for one image.
    pub fn votes(&self, image: &SyntheticImage) -> Vec<ClassDistribution> {
        self.members.iter().map(|m| m.predict(image)).collect()
    }

    /// Every member's vote for every image of a batch, image-major: result
    /// `[i]` is the member-ordered vote vector for `images[i]`, bit-identical
    /// to `votes(images[i])`.
    ///
    /// This is the sensing-cycle hot path: the batch's visual evidence is
    /// gathered once into an [`EvidenceMatrix`] and shared by every member
    /// ([`Classifier::predict_evidence`]), so the per-member cost drops to
    /// its weighted sums plus its own noise draws.
    pub fn votes_batch(&self, images: &[&SyntheticImage]) -> Vec<Vec<ClassDistribution>> {
        let evidence = EvidenceMatrix::from_refs(images.iter().copied());
        let member_votes: Vec<Vec<ClassDistribution>> = self
            .members
            .iter()
            .map(|m| m.predict_evidence(&evidence))
            .collect();
        // `vec![...; n]` clones, and a clone of an empty Vec drops its
        // capacity — build each row explicitly so no push reallocates.
        let mut votes: Vec<Vec<ClassDistribution>> = (0..images.len())
            .map(|_| Vec::with_capacity(self.members.len()))
            .collect();
        for member in member_votes {
            for (image_votes, vote) in votes.iter_mut().zip(member) {
                image_votes.push(vote);
            }
        }
        votes
    }

    /// Committee entropy (Eq. 3) for every image of a batch, bit-identical
    /// to mapping [`Committee::entropy`].
    pub fn entropies_batch(&self, images: &[&SyntheticImage]) -> Vec<f64> {
        self.votes_batch(images)
            .iter()
            .map(|votes| self.mix(votes).entropy())
            .collect()
    }

    /// The committee vote of Eq. 2 over already-cast member votes: the
    /// weight-mixed, renormalized label distribution under the current
    /// weights. A committee of one passes its member's vote through
    /// unchanged, so a single classifier run as a committee keeps its bits.
    ///
    /// # Panics
    ///
    /// Panics if `votes.len()` differs from the committee size.
    pub fn mix(&self, votes: &[ClassDistribution]) -> ClassDistribution {
        assert_eq!(votes.len(), self.len(), "one vote per committee member");
        match votes {
            [only] => only.clone(),
            _ => {
                ClassDistribution::weighted_mixture(self.hedge.weights().iter().copied().zip(votes))
            }
        }
    }

    /// The committee vote of Eq. 2 for one image ([`Committee::mix`] of its
    /// fresh member votes).
    pub fn committee_vote(&self, image: &SyntheticImage) -> ClassDistribution {
        self.mix(&self.votes(image))
    }

    /// Committee entropy of Eq. 3 — the uncertainty score QSS ranks by.
    pub fn entropy(&self, image: &SyntheticImage) -> f64 {
        self.committee_vote(image).entropy()
    }

    /// Retrains every member on the same labeled samples (MIC's model
    /// retraining strategy feeds crowd-derived labels through here).
    pub fn retrain(&mut self, samples: &[LabeledImage]) {
        for m in &mut self.members {
            m.retrain(samples);
        }
    }

    /// Applies one Hedge round with per-expert losses in `[0, 1]`
    /// (computed by the MIC calibrator from Eq. 5).
    ///
    /// # Panics
    ///
    /// Panics if `losses.len() != self.len()`.
    pub fn update_weights(&mut self, losses: &[f64]) {
        self.hedge.update(losses);
    }

    /// The slowest member's batch execution delay — members run concurrently
    /// in the paper's deployment, so this is the committee's inference time.
    pub fn execution_delay_secs(&self, batch_size: usize, cycle: u64) -> f64 {
        self.members
            .iter()
            .map(|m| m.execution_delay_secs(batch_size, cycle))
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Debug for Committee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Committee")
            .field("members", &self.member_names())
            .field("weights", &self.weights())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_classifiers::profiles;
    use crowdlearn_dataset::{Dataset, DatasetConfig};

    fn committee(ds: &Dataset) -> Committee {
        let train: Vec<_> = ds
            .train()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        let members: Vec<Box<dyn Classifier>> = profiles::paper_committee(0)
            .into_iter()
            .map(|mut e| {
                e.retrain(&train);
                Box::new(e) as Box<dyn Classifier>
            })
            .collect();
        Committee::new(members, 0.6)
    }

    #[test]
    fn starts_with_uniform_weights() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let c = committee(&ds);
        for &w in c.weights() {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn committee_vote_is_normalized() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let c = committee(&ds);
        for img in ds.test().iter().take(20) {
            let vote = c.committee_vote(img);
            assert!((vote.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn entropy_is_higher_on_ambiguous_images() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let c = committee(&ds);
        // Low-resolution images carry weak evidence, so the committee should
        // be more uncertain about them than about plain images on average.
        let mean_entropy = |pred: &dyn Fn(&crowdlearn_dataset::SyntheticImage) -> bool| {
            let imgs: Vec<_> = ds.test().iter().filter(|i| pred(i)).collect();
            c.entropies_batch(&imgs).iter().sum::<f64>() / imgs.len() as f64
        };
        let lowres =
            mean_entropy(&|i| i.attribute() == crowdlearn_dataset::ImageAttribute::LowResolution);
        let plain = mean_entropy(&|i| i.attribute() == crowdlearn_dataset::ImageAttribute::Plain);
        assert!(
            lowres > plain,
            "low-res entropy {lowres} must exceed plain entropy {plain}"
        );
    }

    #[test]
    fn deceptive_images_have_low_entropy() {
        // The paper's motivation for epsilon-greedy: the committee is
        // *confidently* wrong on fakes, so their entropy looks like easy
        // images.
        let ds = Dataset::generate(&DatasetConfig::paper());
        let c = committee(&ds);
        let mean_entropy = |pred: &dyn Fn(&crowdlearn_dataset::SyntheticImage) -> bool| {
            let imgs: Vec<_> = ds.test().iter().filter(|i| pred(i)).collect();
            c.entropies_batch(&imgs).iter().sum::<f64>() / imgs.len() as f64
        };
        let fake = mean_entropy(&|i| i.attribute() == crowdlearn_dataset::ImageAttribute::Fake);
        let lowres =
            mean_entropy(&|i| i.attribute() == crowdlearn_dataset::ImageAttribute::LowResolution);
        assert!(
            fake < lowres,
            "fake entropy {fake} must look 'easy' vs low-res {lowres}"
        );
    }

    #[test]
    fn weight_updates_shift_the_vote() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut c = committee(&ds);
        let img = &ds.test()[0];
        let before = c.committee_vote(img);
        // Punish the first two experts hard.
        c.update_weights(&[1.0, 1.0, 0.0]);
        c.update_weights(&[1.0, 1.0, 0.0]);
        let after = c.committee_vote(img);
        assert_ne!(before, after);
        assert!(c.weights()[2] > 0.5);
    }

    #[test]
    fn execution_delay_is_the_slowest_member() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let c = committee(&ds);
        let expected = profiles::paper_committee(0)
            .iter()
            .map(|m| {
                use crowdlearn_classifiers::Classifier as _;
                m.execution_delay_secs(10, 3)
            })
            .fold(0.0, f64::max);
        assert!((c.execution_delay_secs(10, 3) - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn empty_committee_rejected() {
        Committee::new(vec![], 0.5);
    }

    #[test]
    fn batch_votes_and_entropies_match_per_image_bits() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut c = committee(&ds);
        // Skew the weights so entropies_batch exercises a non-uniform mix.
        c.update_weights(&[0.8, 0.1, 0.4]);
        let batch: Vec<_> = ds.test().iter().take(10).collect();
        let votes = c.votes_batch(&batch);
        let entropies = c.entropies_batch(&batch);
        assert_eq!(votes.len(), batch.len());
        for ((img, image_votes), entropy) in batch.iter().zip(&votes).zip(&entropies) {
            let scalar = c.votes(img);
            assert_eq!(image_votes.len(), scalar.len());
            for (b, s) in image_votes.iter().zip(&scalar) {
                for (pb, ps) in b.probs().iter().zip(s.probs()) {
                    assert_eq!(pb.to_bits(), ps.to_bits());
                }
            }
            assert_eq!(entropy.to_bits(), c.entropy(img).to_bits());
        }
    }

    #[test]
    fn batch_paths_handle_empty_batches() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let c = committee(&ds);
        assert!(c.votes_batch(&[]).is_empty());
        assert!(c.entropies_batch(&[]).is_empty());
    }
}
