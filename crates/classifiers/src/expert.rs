//! The statistical engine behind every simulated DDA expert.

use crate::{ClassDistribution, Classifier};
use crowdlearn_dataset::visual_layout::{dim, BLOCK, FAMILIES};
use crowdlearn_dataset::{DamageLabel, EvidenceMatrix, LabeledImage, SyntheticImage, MEANS_ROW};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// Execution-delay model of an expert: per-image seconds with deterministic
/// per-cycle jitter, calibrated against Table III of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayProfile {
    /// Mean seconds to classify one image.
    pub per_image_secs: f64,
    /// Relative jitter amplitude (e.g. `0.1` = ±10% across cycles).
    pub jitter_frac: f64,
}

impl DelayProfile {
    /// Creates a delay profile.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`DelayProfile::check`] if it rejects the
    /// profile.
    pub fn new(per_image_secs: f64, jitter_frac: f64) -> Self {
        let profile = Self {
            per_image_secs,
            jitter_frac,
        };
        profile.check().unwrap_or_else(|e| panic!("{e}"));
        profile
    }

    /// The one validity rule, shared by [`DelayProfile::new`] and
    /// [`SimulatedExpert::new`]. The delay must be finite: `+inf` would
    /// poison every downstream delay sum.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.per_image_secs.is_finite() && self.per_image_secs > 0.0) {
            Err("delay must be positive and finite")
        } else if !(0.0..1.0).contains(&self.jitter_frac) {
            Err("jitter must be in [0, 1)")
        } else {
            Ok(())
        }
    }
}

/// Static description of a simulated expert's behaviour.
///
/// Construct via the presets in [`crate::profiles`] or build a custom profile
/// for failure-injection tests. See the crate docs for how each knob maps to
/// a property of real DDA models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpertProfile {
    /// Display name (e.g. `"VGG16"`).
    pub name: String,
    /// Relative attention over the three visual feature families
    /// (deep texture, handcrafted, spatial); normalized internally.
    pub family_weights: [f64; FAMILIES],
    /// Logit scale: higher values produce more confident (lower entropy)
    /// votes.
    pub confidence_gain: f64,
    /// Standard deviation of the expert's own per-class perception noise in
    /// evidence units, at training factor 1.
    pub perception_noise: f64,
    /// Prior toward "no damage" in evidence units; models the fact that
    /// feature-based DDA models report no damage when nothing fires (which
    /// is what happens on low-resolution images, paper Fig. 1c).
    pub no_damage_bias: f64,
    /// Noise multiplier floor approached with infinite training data.
    pub noise_floor: f64,
    /// Noise multiplier for a completely untrained model.
    pub noise_ceiling: f64,
    /// Sample-count scale of the exponential training curve.
    pub training_tau: f64,
    /// Execution-delay model.
    pub delay: DelayProfile,
    /// Seed decorrelating this expert's noise from its committee peers.
    pub seed: u64,
}

impl ExpertProfile {
    /// The one validity rule, the [`DelayProfile`]'s included:
    /// [`SimulatedExpert::new`] panics with its message.
    pub fn check(&self) -> Result<(), &'static str> {
        let weights = &self.family_weights;
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !(weights.iter().all(|w| w.is_finite() && *w >= 0.0)
            && weights.iter().sum::<f64>() > 0.0)
        {
            Err("family weights must be non-negative and finite with positive sum")
        } else if !positive(self.confidence_gain) {
            Err("gain must be positive and finite")
        } else if !(self.perception_noise.is_finite() && self.perception_noise >= 0.0) {
            Err("noise must be >= 0 and finite")
        } else if !(positive(self.noise_floor) && positive(self.noise_ceiling))
            || self.noise_ceiling < self.noise_floor
        {
            Err("noise factors must be finite and satisfy 0 < floor <= ceiling")
        } else if !positive(self.training_tau) {
            Err("training tau must be positive and finite")
        } else {
            self.delay.check()
        }
    }
}

/// A simulated black-box DDA expert (see crate docs for the model).
///
/// # Example
///
/// ```
/// use crowdlearn_classifiers::{profiles, Classifier};
/// use crowdlearn_dataset::{Dataset, DatasetConfig};
///
/// let dataset = Dataset::generate(&DatasetConfig::paper());
/// let expert = profiles::ddm(0);
/// let vote = expert.predict(&dataset.test()[0]);
/// assert_eq!(vote, expert.predict(&dataset.test()[0])); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulatedExpert {
    profile: ExpertProfile,
    learned: LearnedState,
}

/// What a [`SimulatedExpert`] has learned since it was built: everything
/// `retrain` changes, and all a checkpoint carries of it — the profile is
/// rebuilt from the configuration that chose it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LearnedState {
    /// Effective training mass: correct labels add 1, wrong labels subtract
    /// 0.5 (noisy feedback hurts fine-tuning), floored at 0.
    effective_samples: f64,
    /// Raw count of samples ever fed to `retrain`.
    seen_samples: usize,
    /// Bumped on every retrain so the noise realization changes, the way a
    /// fine-tuned CNN's individual predictions shift.
    version: u64,
}

impl SimulatedExpert {
    /// Creates an untrained expert from a profile.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`ExpertProfile::check`] if it rejects the
    /// profile.
    pub fn new(profile: ExpertProfile) -> Self {
        profile.check().unwrap_or_else(|e| panic!("{e}"));
        Self {
            profile,
            learned: LearnedState::default(),
        }
    }

    /// The expert's static profile.
    pub fn profile(&self) -> &ExpertProfile {
        &self.profile
    }

    /// What the expert has learned since it was built.
    pub fn learned_state(&self) -> LearnedState {
        self.learned
    }

    /// Current noise multiplier given the training curve: decays
    /// exponentially from `noise_ceiling` to `noise_floor` as effective
    /// training samples accumulate. This is the only thing retraining can
    /// improve — the *innate* deception failure is untouched by training,
    /// matching the paper's observation that "no matter how many training
    /// samples are added, the AI performance will not increase" for flawed
    /// models.
    pub fn noise_factor(&self) -> f64 {
        let p = &self.profile;
        p.noise_floor
            + (p.noise_ceiling - p.noise_floor)
                * (-self.learned.effective_samples / p.training_tau).exp()
    }

    fn evidence_scores(&self, image: &SyntheticImage) -> [f64; DamageLabel::COUNT] {
        let weights = normalized(self.profile.family_weights);
        let visual = image.visual_evidence();
        let mut scores = [0.0; DamageLabel::COUNT];
        for (class, score) in scores.iter_mut().enumerate() {
            for (family, w) in weights.iter().enumerate() {
                let mut block_mean = 0.0;
                for k in 0..BLOCK {
                    block_mean += visual[dim(family, class, k)];
                }
                block_mean /= BLOCK as f64;
                *score += w * block_mean;
            }
        }
        scores
    }
}

impl Classifier for SimulatedExpert {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn predict(&self, image: &SyntheticImage) -> ClassDistribution {
        let scores = self.evidence_scores(image);
        let noise_scale = self.profile.perception_noise * self.noise_factor();
        let mut logits = [0.0; DamageLabel::COUNT];
        for (class, logit) in logits.iter_mut().enumerate() {
            // Fine-tuning shifts a model's individual predictions, but most
            // of its per-image idiosyncrasy persists: blend a version-stable
            // component with a version-dependent one (coefficients keep unit
            // variance). This keeps retraining gains visible instead of
            // burying them under full prediction reshuffles.
            let stable = hash_gaussian(
                self.profile.seed,
                image.id().0 as u64,
                0x0057_ab1e,
                class as u64,
            );
            let versioned = hash_gaussian(
                self.profile.seed,
                image.id().0 as u64,
                self.learned.version.wrapping_add(1),
                class as u64,
            );
            let noise = (0.8 * stable + 0.6 * versioned) * noise_scale;
            *logit = self.profile.confidence_gain * (scores[class] + noise);
        }
        logits[DamageLabel::NoDamage.index()] +=
            self.profile.confidence_gain * self.profile.no_damage_bias;
        ClassDistribution::from_logits(logits)
    }

    /// This is the committee hot path: the matrix is built once per sensing
    /// cycle and shared by every member, so each expert only pays for the
    /// sums and its own noise draws. Three ingredients make it fast without
    /// perturbing a single bit relative to the scalar path:
    ///
    /// * per-expert invariants (normalized family weights, noise scale, the
    ///   no-damage bias term) are computed once — they are pure functions of
    ///   expert state, so hoisting reproduces the same values;
    /// * evidence block means come precomputed from
    ///   [`EvidenceMatrix::block_means`] — they are member-independent, so the
    ///   matrix sums each `(image, family, class)` block exactly once for the
    ///   whole committee, `k` ascending before the single divide (the exact
    ///   float-op sequence of `evidence_scores`); the weighting below then
    ///   accumulates families in index order 0..FAMILIES like the scalar path;
    /// * the splitmix64 noise chains share hoisted prefixes (see `mix_b`/
    ///   `mix_c`/`mix_d`): 4 chain heads per image instead of 4 full chains
    ///   per class, cutting the per-image hash steps from 48 to 18.
    fn predict_evidence(&self, evidence: &EvidenceMatrix) -> Vec<ClassDistribution> {
        let weights = normalized(self.profile.family_weights);
        let noise_scale = self.profile.perception_noise * self.noise_factor();
        let gain = self.profile.confidence_gain;
        let bias = gain * self.profile.no_damage_bias;

        // Hoisted chain prefixes: `predict` draws, per class, two gaussians
        // keyed (seed, id, STABLE, class) and (seed, id, version+1, class),
        // each needing a main and an ALT_CHAIN uniform. Seed- and id-stages
        // are shared across all of an image's draws.
        const STABLE: u64 = 0x0057_ab1e;
        let head_main = splitmix64(self.profile.seed);
        let head_alt = splitmix64(self.profile.seed ^ ALT_CHAIN);
        let versioned_key = self.learned.version.wrapping_add(1);

        let mut votes = Vec::with_capacity(evidence.len());
        let means = evidence.block_means().chunks_exact(MEANS_ROW);
        for (img_means, id) in means.zip(evidence.ids()) {
            let id = u64::from(id.0);
            let img_main = mix_b(head_main, id);
            let img_alt = mix_b(head_alt, id);
            let stable_main = mix_c(img_main, STABLE);
            let stable_alt = mix_c(img_alt, STABLE);
            let versioned_main = mix_c(img_main, versioned_key);
            let versioned_alt = mix_c(img_alt, versioned_key);

            let mut logits = [0.0; DamageLabel::COUNT];
            for (class, logit) in logits.iter_mut().enumerate() {
                let mut score = 0.0;
                for (family, w) in weights.iter().enumerate() {
                    score += w * img_means[family * DamageLabel::COUNT + class];
                }
                let class = class as u64;
                let stable = box_muller(
                    unit_open(mix_d(stable_main, class)),
                    unit_open(mix_d(stable_alt, class)),
                );
                let versioned = box_muller(
                    unit_open(mix_d(versioned_main, class)),
                    unit_open(mix_d(versioned_alt, class)),
                );
                let noise = (0.8 * stable + 0.6 * versioned) * noise_scale;
                *logit = gain * (score + noise);
            }
            logits[DamageLabel::NoDamage.index()] += bias;
            votes.push(ClassDistribution::from_logits(logits));
        }
        votes
    }

    fn retrain(&mut self, samples: &[LabeledImage]) {
        if samples.is_empty() {
            return;
        }
        let learned = &mut self.learned;
        for sample in samples {
            if sample.label == sample.image.truth() {
                learned.effective_samples += 1.0;
            } else {
                learned.effective_samples = (learned.effective_samples - 0.5).max(0.0);
            }
        }
        learned.seen_samples += samples.len();
        learned.version += 1;
    }

    fn execution_delay_secs(&self, batch_size: usize, cycle: u64) -> f64 {
        let jitter = hash_uniform(self.profile.seed, cycle, 0x000d_e1a1, 1) * 2.0 - 1.0;
        self.profile.per_image_delay()
            * batch_size as f64
            * (1.0 + self.profile.delay.jitter_frac * jitter)
    }

    fn training_samples(&self) -> usize {
        self.learned.seen_samples
    }

    fn encode_learned(&self, out: &mut Vec<u8>) {
        self.learned.encode(out);
    }

    fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.learned = LearnedState::decode(r)?;
        Ok(())
    }
}

// Snapshot codec: only the learned state travels. Decoding must not panic —
// out-of-contract values surface as `DecodeError::Invalid`.
impl Encode for LearnedState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.effective_samples.encode(out);
        self.seen_samples.encode(out);
        self.version.encode(out);
    }
}

impl Decode for LearnedState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let effective_samples = f64::decode(r)?;
        // `is_finite`: `effective_samples = +inf` would freeze the training
        // curve at the noise floor forever and survive every re-encode.
        if !effective_samples.is_finite() || effective_samples < 0.0 {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            effective_samples,
            seen_samples: usize::decode(r)?,
            version: u64::decode(r)?,
        })
    }
}

impl ExpertProfile {
    fn per_image_delay(&self) -> f64 {
        self.delay.per_image_secs
    }
}

fn normalized(weights: [f64; FAMILIES]) -> [f64; FAMILIES] {
    let sum: f64 = weights.iter().sum();
    weights.map(|w| w / sum)
}

/// SplitMix64 hash step.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// The 4-tuple hash is a chain of four splitmix64 steps, one per key
// component. The chain is exposed as explicit stages so the batch path can
// hoist shared prefixes (per-expert `a`, per-image `a,b`, per-variant
// `a,b,c`) and still produce the exact bits of `hash_uniform(a, b, c, d)` —
// the composition is identical, only the sharing differs.
fn mix_b(h: u64, b: u64) -> u64 {
    splitmix64(h ^ b.wrapping_mul(0x9e37_79b9))
}

fn mix_c(h: u64, c: u64) -> u64 {
    splitmix64(h ^ c.wrapping_mul(0x85eb_ca6b))
}

fn mix_d(h: u64, d: u64) -> u64 {
    splitmix64(h ^ d.wrapping_mul(0xc2b2_ae35))
}

/// Alternate-chain seed offset: decorrelates the second Box-Muller uniform
/// from the first.
const ALT_CHAIN: u64 = 0xdead_beef;

/// Maps a hash to the open interval `(0, 1)`.
///
/// Uses the top 52 bits centered on the bucket midpoint: `(m + 0.5) / 2^52`
/// lies strictly inside `(0, 1)` for every `m in 0..2^52`, so `ln` in
/// Box-Muller never sees 0 or 1. (The previous `((h >> 11) + 1) / 2^53`
/// mapping reached exactly `1.0` at the all-ones hash, making
/// `hash_gaussian` emit an exact `0.0` via `ln(1) = 0`. 52 bits, not 53:
/// half-integers are only exactly representable below `2^52`, so the 53-bit
/// midpoint `(2^53 - 1) + 0.5` would round back up to `2^53`.)
fn unit_open(h: u64) -> f64 {
    ((h >> 12) as f64 + 0.5) / (1u64 << 52) as f64
}

/// Deterministic uniform sample in `(0, 1)` from a 4-tuple key.
fn hash_uniform(a: u64, b: u64, c: u64, d: u64) -> f64 {
    unit_open(mix_d(mix_c(mix_b(splitmix64(a), b), c), d))
}

/// Box-Muller transform over two uniforms in `(0, 1)`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Deterministic standard-normal sample from a 4-tuple key (Box-Muller over
/// two decorrelated uniforms).
pub(crate) fn hash_gaussian(a: u64, b: u64, c: u64, d: u64) -> f64 {
    let u1 = hash_uniform(a, b, c, d);
    let u2 = hash_uniform(a ^ ALT_CHAIN, b, c, d);
    box_muller(u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crowdlearn_dataset::{Dataset, DatasetConfig, ImageAttribute};

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::paper())
    }

    fn trained(mut expert: SimulatedExpert, ds: &Dataset) -> SimulatedExpert {
        let train: Vec<_> = ds
            .train()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        expert.retrain(&train);
        expert
    }

    #[test]
    fn predictions_are_deterministic() {
        let ds = dataset();
        let expert = trained(profiles::vgg16(3), &ds);
        let img = &ds.test()[0];
        assert_eq!(expert.predict(img), expert.predict(img));
    }

    #[test]
    fn retraining_changes_the_noise_realization() {
        let ds = dataset();
        let mut expert = trained(profiles::vgg16(3), &ds);
        let img = ds.test()[0].clone();
        let before = expert.predict(&img);
        expert.retrain(&[LabeledImage::ground_truth(img.clone())]);
        let after = expert.predict(&img);
        assert_ne!(before, after, "version bump must reshuffle noise");
    }

    #[test]
    fn training_reduces_noise_factor_monotonically() {
        let ds = dataset();
        let mut expert = profiles::vgg16(3);
        let untrained_factor = expert.noise_factor();
        assert!((untrained_factor - expert.profile().noise_ceiling).abs() < 1e-9);
        let train: Vec<_> = ds
            .train()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        expert.retrain(&train);
        let trained_factor = expert.noise_factor();
        assert!(trained_factor < untrained_factor);
        assert!(trained_factor >= expert.profile().noise_floor);
    }

    #[test]
    fn wrong_labels_hurt_training() {
        let ds = dataset();
        let img = ds.train()[0].clone();
        let wrong_label = DamageLabel::from_index((img.truth().index() + 1) % DamageLabel::COUNT);
        let mut a = profiles::vgg16(3);
        let mut b = profiles::vgg16(3);
        a.retrain(&[LabeledImage::ground_truth(img.clone())]);
        b.retrain(&[LabeledImage::new(img, wrong_label)]);
        assert!(a.noise_factor() < b.noise_factor());
    }

    #[test]
    fn experts_are_confidently_wrong_on_deceptive_images() {
        let ds = dataset();
        let experts = [
            trained(profiles::vgg16(1), &ds),
            trained(profiles::bovw(2), &ds),
            trained(profiles::ddm(3), &ds),
        ];
        for expert in &experts {
            let mut fooled = 0usize;
            let mut total = 0usize;
            let mut confidence_sum = 0.0;
            // Measure over every fake in the dataset: the test split alone
            // holds ~13 fakes, too few for a stable rate.
            for img in ds
                .train()
                .iter()
                .chain(ds.test().iter())
                .filter(|i| i.attribute() == ImageAttribute::Fake)
            {
                let vote = expert.predict(img);
                total += 1;
                if vote.argmax() == DamageLabel::Severe {
                    fooled += 1;
                }
                confidence_sum += vote.max_prob();
            }
            assert!(
                fooled as f64 / total as f64 > 0.9,
                "{} must be fooled by nearly all fakes: {fooled}/{total}",
                expert.name()
            );
            assert!(
                confidence_sum / total as f64 > 0.8,
                "{} must be *confidently* wrong on fakes",
                expert.name()
            );
        }
    }

    #[test]
    fn retraining_does_not_fix_deceptive_failures() {
        let ds = dataset();
        let mut expert = trained(profiles::ddm(3), &ds);
        // Feed it every test ground truth five times over — far more data
        // than any crowd could provide.
        let all: Vec<_> = ds
            .test()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        for _ in 0..5 {
            expert.retrain(&all);
        }
        let mut wrong = 0;
        let mut total = 0;
        for img in ds.test().iter().filter(|i| i.misleads_ai()) {
            total += 1;
            if expert.predict(img).argmax() != img.truth() {
                wrong += 1;
            }
        }
        assert!(
            wrong as f64 / total as f64 > 0.9,
            "deceptive images must stay broken: {wrong}/{total}"
        );
    }

    #[test]
    fn delay_scales_with_batch_and_stays_near_mean() {
        let expert = profiles::vgg16(1);
        let d1 = expert.execution_delay_secs(10, 0);
        let per_image = expert.profile().delay.per_image_secs;
        assert!((d1 / 10.0 - per_image).abs() / per_image < 0.2);
        assert_eq!(
            expert.execution_delay_secs(10, 0),
            d1,
            "deterministic per cycle"
        );
        assert_ne!(
            expert.execution_delay_secs(10, 1),
            d1,
            "varies across cycles"
        );
    }

    #[test]
    fn hash_gaussian_has_roughly_standard_moments() {
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|i| hash_gaussian(42, i, 7, 1)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn different_seeds_decorrelate_experts() {
        let ds = dataset();
        let a = trained(profiles::vgg16(1), &ds);
        let b = trained(profiles::vgg16(2), &ds);
        let img = &ds.test()[5];
        assert_ne!(a.predict(img), b.predict(img));
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn zero_family_weights_rejected() {
        let mut p = profiles::vgg16(1).profile().clone();
        p.family_weights = [0.0; FAMILIES];
        SimulatedExpert::new(p);
    }

    #[test]
    fn unit_open_is_a_genuinely_open_interval() {
        // Regression: the old `(m + 1) / 2^53` mapping hit exactly 1.0 at the
        // all-ones hash, so `ln(u1) = 0` collapsed Box-Muller to exactly 0.
        assert!(unit_open(u64::MAX) < 1.0, "top hash must stay below 1");
        assert!(unit_open(0) > 0.0, "bottom hash must stay above 0");
        for h in [0, 1, u64::MAX - 1, u64::MAX, 1u64 << 63, (1u64 << 53) - 1] {
            let u = unit_open(h);
            assert!(u > 0.0 && u < 1.0, "unit_open({h}) = {u} escaped (0, 1)");
            let g = box_muller(u, u);
            assert!(g.is_finite(), "box_muller over extreme uniforms: {g}");
        }
        // The extreme draw itself must be a genuine (finite, nonzero-capable)
        // gaussian: u1 at the top of the range no longer forces 0.
        assert!((-2.0 * unit_open(u64::MAX).ln()).sqrt() > 0.0);
    }

    #[test]
    fn batch_paths_are_bit_identical_to_scalar() {
        let ds = dataset();
        for expert in [
            profiles::vgg16(1),
            trained(profiles::bovw(2), &ds),
            trained(profiles::ddm(3), &ds),
        ] {
            let batch = &ds.test()[..25];
            let scalar: Vec<ClassDistribution> = batch.iter().map(|i| expert.predict(i)).collect();
            let batched = expert.predict_evidence(&EvidenceMatrix::from_refs(batch));
            assert_eq!(batched.len(), scalar.len());
            for (b, s) in batched.iter().zip(&scalar) {
                for (pb, ps) in b.probs().iter().zip(s.probs()) {
                    assert_eq!(pb.to_bits(), ps.to_bits(), "{}", expert.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "delay must be positive and finite")]
    fn infinite_delay_profile_rejected() {
        DelayProfile::new(f64::INFINITY, 0.1);
    }

    #[test]
    #[should_panic(expected = "delay must be positive and finite")]
    fn expert_rejects_a_negative_delay_profile() {
        // `ExpertProfile` used not to check its `delay` at construction.
        let mut p = profiles::vgg16(1).profile().clone();
        p.delay = DelayProfile {
            per_image_secs: -1.0,
            jitter_frac: 0.1,
        };
        SimulatedExpert::new(p);
    }

    #[test]
    fn decode_rejects_non_finite_effective_samples() {
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            // Crafted frame: an out-of-contract training mass, then
            // well-formed trailing fields.
            let mut bytes = Vec::new();
            bad.encode(&mut bytes);
            0usize.encode(&mut bytes);
            0u64.encode(&mut bytes);
            assert_eq!(
                LearnedState::from_bytes(&bytes),
                Err(DecodeError::Invalid),
                "effective_samples = {bad} must be rejected"
            );
        }
        let ds = dataset();
        let learned = trained(profiles::vgg16(1), &ds).learned_state();
        assert_eq!(LearnedState::from_bytes(&learned.to_bytes()), Ok(learned));
        // Restored onto a rebuilt expert, it is the trained expert again.
        let mut rebuilt = profiles::vgg16(1);
        let bytes = learned.to_bytes();
        assert_eq!(rebuilt.decode_learned(&mut Reader::new(&bytes)), Ok(()));
        assert_eq!(rebuilt, trained(profiles::vgg16(1), &ds));
    }
}
