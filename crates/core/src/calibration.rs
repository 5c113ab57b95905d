//! Machine Intelligence Calibration (paper §IV-D): use the crowd's truthful
//! labels to re-weight, retrain, and override the AI committee.

use crate::Committee;
use crowdlearn_classifiers::ClassDistribution;
use crowdlearn_dataset::{LabeledImage, SyntheticImage};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// Maps a symmetric KL divergence to the `[0, 1]` loss scale — the `delta`
/// normalization of Eq. 5. `1 - exp(-kl)` is 0 for identical distributions
/// and approaches 1 as the divergence grows.
///
/// # Panics
///
/// Panics if `kl` is negative or NaN.
pub fn normalized_symmetric_kl(kl: f64) -> f64 {
    assert!(kl >= 0.0 && !kl.is_nan(), "KL divergence must be >= 0");
    1.0 - (-kl).exp()
}

/// When MIC retrains the committee on a cycle's crowd answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Retrain {
    /// Never: the committee stays as booted.
    Off,
    /// On every answer, labelled with its truthful argmax (CrowdLearn).
    Answers,
    /// Only on answers whose top vote share is at least
    /// [`Retrain::CONFIDENT_SHARE`] (Hybrid-AL's active-learning hygiene
    /// against annotation noise). A cycle with none skips the retrain, as
    /// every retrain reshuffles the simulated models' prediction noise.
    ConfidentMajority,
}

impl Retrain {
    /// The vote share a [`Retrain::ConfidentMajority`] answer needs: 4 of
    /// 5 workers agreeing.
    pub const CONFIDENT_SHARE: f64 = 0.8;
}

/// Which answered images MIC lets the crowd label instead of the AI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Offload {
    /// None: the AI's labels are always the output (Hybrid-AL).
    Off,
    /// Every timely answer replaces its image's AI label (CrowdLearn).
    Answers,
    /// Hybrid-Para's complexity index: a timely answer replaces the AI
    /// label only when the committee vote's entropy exceeds
    /// [`Offload::COMPLEX_ENTROPY`]; simple images keep the AI label.
    Complex,
}

impl Offload {
    /// The committee-vote entropy, in nats, above which an image counts as
    /// complex.
    pub const COMPLEX_ENTROPY: f64 = 0.35;
}

/// Which of MIC's three strategies are active — the ablation switchboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CalibratorConfig {
    /// Dynamic expert-weight updates (Hedge over Eq. 5 losses).
    pub update_weights: bool,
    /// Model retraining with crowd labels.
    pub retrain: Retrain,
    /// Crowd offloading: replace AI labels with CQC labels on the query set.
    pub offload: Offload,
}

impl CalibratorConfig {
    /// The full CrowdLearn configuration: all three strategies on.
    pub fn paper() -> Self {
        Self {
            update_weights: true,
            retrain: Retrain::Answers,
            offload: Offload::Answers,
        }
    }

    /// Everything off (the committee degenerates to a static ensemble).
    pub fn disabled() -> Self {
        Self {
            update_weights: false,
            retrain: Retrain::Off,
            offload: Offload::Off,
        }
    }
}

impl Default for CalibratorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl Encode for Retrain {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Retrain::Off => 0,
            Retrain::Answers => 1,
            Retrain::ConfidentMajority => 2,
        };
        tag.encode(out);
    }
}

impl Decode for Retrain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Retrain::Off),
            1 => Ok(Retrain::Answers),
            2 => Ok(Retrain::ConfidentMajority),
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for Offload {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Offload::Off => 0,
            Offload::Answers => 1,
            Offload::Complex => 2,
        };
        tag.encode(out);
    }
}

impl Decode for Offload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Offload::Off),
            1 => Ok(Offload::Answers),
            2 => Ok(Offload::Complex),
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for CalibratorConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.update_weights.encode(out);
        self.retrain.encode(out);
        self.offload.encode(out);
    }
}

impl Decode for CalibratorConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            update_weights: bool::decode(r)?,
            retrain: Retrain::decode(r)?,
            offload: Offload::decode(r)?,
        })
    }
}

/// One crowd-answered query, carrying the member votes that were *cached
/// when the cycle started*.
///
/// MIC must score the committee on the votes that actually produced the
/// cycle's labels. Re-predicting at calibration time looks equivalent under
/// a blocking loop, but with `inflight_window > 1` an overlapping cycle's
/// retrain can land in between — the re-predicted votes would then belong to
/// a *newer* model version than the labels being judged, and Hedge would be
/// updated on losses the cycle never incurred (besides paying O(members ×
/// queries) redundant predicts). Threading the cached votes through makes
/// vote staleness impossible by construction.
#[derive(Debug, Clone)]
pub struct QueriedImage<'a> {
    /// The queried image (retraining clones it into a labeled sample).
    pub image: &'a SyntheticImage,
    /// The member votes cached at `start_cycle`, in committee member order.
    pub member_votes: &'a [ClassDistribution],
    /// The CQC truthful distribution the crowd produced for this image.
    pub truthful: ClassDistribution,
}

/// The MIC module. Stateless apart from its configuration; all state lives
/// in the [`Committee`] it calibrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Calibrator {
    config: CalibratorConfig,
}

impl Calibrator {
    /// Creates a calibrator with the given strategy switches.
    pub fn new(config: CalibratorConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> CalibratorConfig {
        self.config
    }

    /// Per-expert losses from Eq. 5: the mean normalized symmetric KL
    /// divergence between each expert's *cached* vote and the CQC truthful
    /// distribution, over the cycle's query set.
    ///
    /// # Panics
    ///
    /// Panics if `queried` is empty or any entry's vote count differs from
    /// the committee size.
    pub fn expert_losses(&self, committee: &Committee, queried: &[QueriedImage<'_>]) -> Vec<f64> {
        assert!(!queried.is_empty(), "need at least one queried image");
        let mut losses = vec![0.0; committee.len()];
        for q in queried {
            assert_eq!(
                q.member_votes.len(),
                committee.len(),
                "one cached vote per committee member"
            );
            for (loss, vote) in losses.iter_mut().zip(q.member_votes) {
                *loss += normalized_symmetric_kl(vote.symmetric_kl(&q.truthful));
            }
        }
        for loss in &mut losses {
            *loss /= queried.len() as f64;
        }
        losses
    }

    /// The retraining samples MIC draws from a cycle's answers under
    /// [`CalibratorConfig::retrain`]: each qualifying image labelled with
    /// its truthful argmax, in answer order. Empty means no retrain.
    pub fn retrain_samples<'a, I>(&self, answers: I) -> Vec<LabeledImage>
    where
        I: IntoIterator<Item = (&'a SyntheticImage, &'a ClassDistribution)>,
    {
        answers
            .into_iter()
            .filter(|(_, truthful)| match self.config.retrain {
                Retrain::Off => false,
                Retrain::Answers => true,
                Retrain::ConfidentMajority => truthful.max_prob() >= Retrain::CONFIDENT_SHARE,
            })
            .map(|(image, truthful)| LabeledImage::new(image.clone(), truthful.argmax()))
            .collect()
    }

    /// Whether a timely crowd answer replaces the AI label of an image whose
    /// committee vote is `ai_vote`, under [`CalibratorConfig::offload`].
    pub fn offloads(&self, ai_vote: &ClassDistribution) -> bool {
        match self.config.offload {
            Offload::Off => false,
            Offload::Answers => true,
            Offload::Complex => ai_vote.entropy() > Offload::COMPLEX_ENTROPY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_classifiers::{profiles, Classifier};
    use crowdlearn_dataset::{DamageLabel, Dataset, DatasetConfig};

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
    fn normalization_maps_to_unit_interval() {
        assert_eq!(normalized_symmetric_kl(0.0), 0.0);
        assert!(normalized_symmetric_kl(0.5) > 0.0);
        assert!(normalized_symmetric_kl(100.0) <= 1.0);
        let a = normalized_symmetric_kl(0.3);
        let b = normalized_symmetric_kl(0.6);
        assert!(a < b, "normalization must be monotone");
    }

    /// Pairs each image with its cached committee votes and a ground-truth
    /// delta as the "truthful" distribution — the shape `finalize_cycle`
    /// hands to the calibrator.
    fn queried<'a>(
        images: &[&'a crowdlearn_dataset::SyntheticImage],
        votes: &'a [Vec<ClassDistribution>],
    ) -> Vec<QueriedImage<'a>> {
        images
            .iter()
            .zip(votes)
            .map(|(img, member_votes)| QueriedImage {
                image: img,
                member_votes,
                truthful: ClassDistribution::delta(img.truth()),
            })
            .collect()
    }

    #[test]
    fn accurate_experts_receive_lower_losses() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let committee = committee(&ds);
        let calibrator = Calibrator::new(CalibratorConfig::paper());
        // Use ground truth as the "truthful" distribution over many plain
        // images: DDM (most accurate) must incur a smaller loss than BoVW.
        let images: Vec<_> = ds.test().iter().take(60).collect();
        let votes = committee.votes_batch(&images);
        let losses = calibrator.expert_losses(&committee, &queried(&images, &votes));
        // Member order: VGG16, BoVW, DDM.
        assert!(
            losses[2] < losses[1],
            "DDM loss {} must be below BoVW loss {}",
            losses[2],
            losses[1]
        );
    }

    #[test]
    fn calibration_shifts_weights_toward_better_experts() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut committee = committee(&ds);
        let calibrator = Calibrator::new(CalibratorConfig::paper());
        for chunk in ds.test().chunks(20).take(5) {
            let images: Vec<_> = chunk.iter().collect();
            // One MIC round as a sensing cycle runs it: votes cached first,
            // then the Hedge update and the retrain, so the next round
            // re-caches from the updated members.
            let votes = committee.votes_batch(&images);
            let entries = queried(&images, &votes);
            let losses = calibrator.expert_losses(&committee, &entries);
            committee.update_weights(&losses);
            let answers = entries.iter().map(|q| (q.image, &q.truthful));
            committee.retrain(&calibrator.retrain_samples(answers));
        }
        let w = committee.weights();
        assert!(
            w[2] > w[1],
            "DDM weight {} must exceed BoVW weight {} after calibration: {w:?}",
            w[2],
            w[1]
        );
    }

    #[test]
    fn paper_calibrator_offloads_and_retrains_on_every_answer() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let committee = committee(&ds);
        let calibrator = Calibrator::new(CalibratorConfig::paper());
        let image = &ds.test()[0];
        let truthful = ClassDistribution::delta(DamageLabel::Severe);
        assert!(calibrator.offloads(&committee.committee_vote(image)));
        let samples = calibrator.retrain_samples([(image, &truthful)]);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].image.id(), image.id());
        assert_eq!(samples[0].label, DamageLabel::Severe);
    }

    #[test]
    fn disabled_calibrator_changes_nothing() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let committee = committee(&ds);
        let calibrator = Calibrator::new(CalibratorConfig::disabled());
        let image = &ds.test()[0];
        let truthful = ClassDistribution::delta(DamageLabel::NoDamage);
        assert!(!calibrator.config().update_weights);
        assert!(!calibrator.offloads(&committee.committee_vote(image)));
        assert!(calibrator.retrain_samples([(image, &truthful)]).is_empty());
    }

    #[test]
    fn cached_vote_losses_match_fresh_predictions_without_an_interleaved_retrain() {
        // Golden window-1 pin: under a blocking loop (or inflight window 1)
        // nothing retrains between vote caching and calibration, so scoring
        // the cached votes reproduces the old re-predicting implementation
        // bit for bit.
        let ds = Dataset::generate(&DatasetConfig::paper());
        let committee = committee(&ds);
        let calibrator = Calibrator::new(CalibratorConfig::paper());
        let images: Vec<_> = ds.test().iter().take(30).collect();
        let votes = committee.votes_batch(&images);
        let entries = queried(&images, &votes);
        let threaded = calibrator.expert_losses(&committee, &entries);
        // The old implementation, inlined: re-predict every member per image.
        let mut fresh = vec![0.0; committee.len()];
        for entry in &entries {
            for (loss, vote) in fresh.iter_mut().zip(&committee.votes(entry.image)) {
                *loss += normalized_symmetric_kl(vote.symmetric_kl(&entry.truthful));
            }
        }
        for loss in &mut fresh {
            *loss /= entries.len() as f64;
        }
        for (t, f) in threaded.iter().zip(&fresh) {
            assert_eq!(t.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn losses_are_scored_on_cached_votes_after_an_overlapping_retrain() {
        // Window > 1 regression: an overlapping cycle's retrain lands
        // between vote caching and calibration. Hedge losses must be scored
        // on the votes that produced the cycle's labels (the cached ones) —
        // the old implementation re-predicted with the *newer* model and
        // judged the cycle on votes it never cast.
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut committee = committee(&ds);
        let calibrator = Calibrator::new(CalibratorConfig::paper());
        let images: Vec<_> = ds.test().iter().take(30).collect();
        let votes = committee.votes_batch(&images);
        let entries = queried(&images, &votes);
        let expected = calibrator.expert_losses(&committee, &entries);

        // The overlapping cycle's retrain: bumps every member's version, so
        // fresh predictions no longer match the cached votes.
        let samples: Vec<LabeledImage> = ds.test()[30..40]
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        committee.retrain(&samples);

        let after_retrain = calibrator.expert_losses(&committee, &entries);
        for (a, e) in after_retrain.iter().zip(&expected) {
            assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "losses must depend only on the cached votes"
            );
        }
        // And the stale-vote hazard is real: re-predicting now would score
        // different votes entirely.
        let stale_votes = committee.votes_batch(&images);
        let stale = calibrator.expert_losses(&committee, &queried(&images, &stale_votes));
        assert_ne!(
            stale, expected,
            "retrain must shift the fresh predictions the old code would have scored"
        );
    }

    #[test]
    #[should_panic(expected = "one cached vote per committee member")]
    fn vote_count_mismatch_is_rejected() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let committee = committee(&ds);
        let calibrator = Calibrator::new(CalibratorConfig::paper());
        let short = vec![ClassDistribution::delta(DamageLabel::NoDamage); committee.len() - 1];
        let entries = vec![QueriedImage {
            image: &ds.test()[0],
            member_votes: &short,
            truthful: ClassDistribution::delta(DamageLabel::NoDamage),
        }];
        calibrator.expert_losses(&committee, &entries);
    }
}
