//! Generative model and train/test split for the synthetic dataset.

use crate::{DamageLabel, ImageAttribute, ImageId, SyntheticImage};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Layout of the visual-evidence vector shared with classifier simulators.
///
/// The vector is organized as `FAMILIES` feature families — deep texture
/// (family 0), handcrafted gradient/SIFT-like (family 1) and spatial/heatmap
/// (family 2) — each containing one `BLOCK`-dimensional sub-block per damage
/// class. Different simulated classifiers weight different families, which is
/// what makes the query-by-committee disagreement meaningful.
pub mod visual_layout {
    use crate::DamageLabel;

    /// Number of feature families.
    pub const FAMILIES: usize = 3;
    /// Dimensions per (family, class) sub-block.
    pub const BLOCK: usize = 2;
    /// Total dimension of the visual-evidence vector.
    pub const VISUAL_DIM: usize = FAMILIES * DamageLabel::COUNT * BLOCK;

    /// Index of dimension `k` of class `class` within family `family`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn dim(family: usize, class: usize, k: usize) -> usize {
        assert!(family < FAMILIES, "family out of range");
        assert!(class < DamageLabel::COUNT, "class out of range");
        assert!(k < BLOCK, "block offset out of range");
        family * DamageLabel::COUNT * BLOCK + class * BLOCK + k
    }
}

pub(crate) use visual_layout::{BLOCK, FAMILIES, VISUAL_DIM};

/// Configuration for [`Dataset::generate`].
///
/// Use [`DatasetConfig::paper`] to match the paper's setup (960 images,
/// 560/400 split, balanced classes) and override fields with the `with_*`
/// builder methods.
///
/// # Example
///
/// ```
/// use crowdlearn_dataset::DatasetConfig;
///
/// let cfg = DatasetConfig::paper().with_seed(42).with_fake_rate(0.1);
/// assert_eq!(cfg.total(), 960);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    total: usize,
    train_count: usize,
    fake_rate: f64,
    low_resolution_rate: f64,
    implicit_rate: f64,
    family_drift: bool,
    seed: u64,
}

impl DatasetConfig {
    /// Fraction of images that are misleading close-ups.
    pub const CLOSE_UP_RATE: f64 = 0.025;
    /// Mean of the visual evidence in the depicted class's dimensions.
    pub const SIGNAL: f64 = 1.0;
    /// Standard deviation of the visual evidence (higher = harder for AI).
    pub const NOISE: f64 = 0.55;
    /// Visual-signal multiplier on deceptive images (fake, close-up,
    /// implicit): they look *more* convincing than average.
    pub const DECEPTIVE_BOOST: f64 = 1.5;
    /// Visual-signal multiplier on low-resolution images.
    pub const LOW_RESOLUTION_ATTENUATION: f64 = 0.3;
    /// Fraction of *plain* images lying on an ambiguous severity boundary —
    /// hard for AI (attenuated visual evidence) and for humans (correlated
    /// confusion with the adjacent class) alike.
    pub const AMBIGUITY_RATE: f64 = 0.25;
    /// Visual-signal multiplier on ambiguous images.
    pub const AMBIGUITY_ATTENUATION: f64 = 0.55;
    /// Mean contextual score of the true class and the true attribute
    /// (higher = easier for humans).
    pub const CONTEXT_FIDELITY: f64 = 0.92;
    /// Standard deviation of the contextual scores.
    pub const CONTEXT_NOISE: f64 = 0.08;

    /// The paper's dataset shape: 960 images, 560 train / 400 test, balanced
    /// classes, with failure-mode rates chosen so that AI-only accuracy lands
    /// in the high-0.7s/low-0.8s band of Table II.
    pub fn paper() -> Self {
        Self {
            total: 960,
            train_count: 560,
            fake_rate: 0.035,
            low_resolution_rate: 0.08,
            implicit_rate: 0.03,
            family_drift: false,
            seed: 0x0ec0ada,
        }
    }

    /// Total number of images to generate.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of images reserved for the training split.
    pub fn train_count(&self) -> usize {
        self.train_count
    }

    /// RNG seed used for generation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fraction of images that are fake (photoshopped).
    pub fn fake_rate(&self) -> f64 {
        self.fake_rate
    }

    /// Fraction of images that are low-resolution.
    pub fn low_resolution_rate(&self) -> f64 {
        self.low_resolution_rate
    }

    /// Fraction of images with implicit (context-only) damage.
    pub fn implicit_rate(&self) -> f64 {
        self.implicit_rate
    }

    /// Whether feature-family drift is enabled (see
    /// [`DatasetConfig::with_family_drift`]).
    pub fn family_drift(&self) -> bool {
        self.family_drift
    }

    /// Enables *feature-family drift* across the test stream: as the
    /// disaster unfolds, the informative visual evidence migrates from the
    /// deep-texture family toward the handcrafted-gradient family (think:
    /// early close-range smartphone shots giving way to distant/aerial
    /// footage). Classifiers that lean on one family lose accuracy over
    /// time while others gain — the non-stationarity that MIC's *dynamic*
    /// expert-weight updates exist to track (paper §IV-D). Training-split
    /// images are generated at phase 0, so models are calibrated to the
    /// early regime.
    pub fn with_family_drift(mut self, enabled: bool) -> Self {
        self.family_drift = enabled;
        self
    }

    /// Sets the total image count.
    pub fn with_total(mut self, total: usize) -> Self {
        self.total = total;
        self
    }

    /// Sets the training-split size.
    pub fn with_train_count(mut self, train_count: usize) -> Self {
        self.train_count = train_count;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fake-image rate.
    pub fn with_fake_rate(mut self, rate: f64) -> Self {
        self.fake_rate = rate;
        self
    }

    /// Sets the low-resolution rate.
    pub fn with_low_resolution_rate(mut self, rate: f64) -> Self {
        self.low_resolution_rate = rate;
        self
    }

    /// Sets the implicit-damage rate.
    pub fn with_implicit_rate(mut self, rate: f64) -> Self {
        self.implicit_rate = rate;
        self
    }

    fn validate(&self) {
        assert!(self.total >= DamageLabel::COUNT, "dataset too small");
        assert!(
            self.train_count < self.total,
            "train split must leave a non-empty test set"
        );
        let rates = [
            self.fake_rate,
            Self::CLOSE_UP_RATE,
            self.low_resolution_rate,
            self.implicit_rate,
        ];
        assert!(
            rates.iter().all(|r| (0.0..=1.0).contains(r)),
            "attribute rates must be in [0, 1]"
        );
        assert!(
            rates.iter().sum::<f64>() <= 1.0,
            "attribute rates must sum to at most 1"
        );
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A generated dataset with a stratified train/test split.
///
/// Images are stored in split order: indices `0..train_count` are the
/// training set and the remainder is the test set. [`ImageId`]s are stable
/// indices into this order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    images: Vec<SyntheticImage>,
    train_count: usize,
    config: DatasetConfig,
}

impl Dataset {
    /// Generates a dataset from `config`. Deterministic in `config.seed()`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`DatasetConfig`]
    /// field docs: rates in `[0, 1]` summing to at most 1, train split
    /// smaller than the total).
    pub fn generate(config: &DatasetConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Balanced ground-truth labels.
        let mut truths: Vec<DamageLabel> = (0..config.total)
            .map(|i| DamageLabel::from_index(i % DamageLabel::COUNT))
            .collect();
        truths.shuffle(&mut rng);

        // Assign failure-mode attributes to compatible truth classes:
        // Fake/CloseUp require NoDamage ground truth; LowResolution/Implicit
        // require actual damage.
        let mut attributes = vec![ImageAttribute::Plain; config.total];
        let mut no_damage_pool: Vec<usize> = truths
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == DamageLabel::NoDamage)
            .map(|(i, _)| i)
            .collect();
        let mut damaged_pool: Vec<usize> = truths
            .iter()
            .enumerate()
            .filter(|(_, t)| **t != DamageLabel::NoDamage)
            .map(|(i, _)| i)
            .collect();
        no_damage_pool.shuffle(&mut rng);
        damaged_pool.shuffle(&mut rng);

        let count_for = |rate: f64| (rate * config.total as f64).round() as usize;
        for _ in 0..count_for(config.fake_rate).min(no_damage_pool.len()) {
            attributes[no_damage_pool.pop().expect("pool checked")] = ImageAttribute::Fake;
        }
        for _ in 0..count_for(DatasetConfig::CLOSE_UP_RATE).min(no_damage_pool.len()) {
            attributes[no_damage_pool.pop().expect("pool checked")] = ImageAttribute::CloseUp;
        }
        for _ in 0..count_for(config.low_resolution_rate).min(damaged_pool.len()) {
            attributes[damaged_pool.pop().expect("pool checked")] = ImageAttribute::LowResolution;
        }
        for _ in 0..count_for(config.implicit_rate).min(damaged_pool.len()) {
            attributes[damaged_pool.pop().expect("pool checked")] = ImageAttribute::Implicit;
        }

        // Stratified split: interleave classes so both splits stay balanced.
        let mut order: Vec<usize> = Vec::with_capacity(config.total);
        {
            let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); DamageLabel::COUNT];
            for (i, t) in truths.iter().enumerate() {
                by_class[t.index()].push(i);
            }
            for class in &mut by_class {
                class.shuffle(&mut rng);
            }
            let mut cursors = [0usize; DamageLabel::COUNT];
            while order.len() < config.total {
                for (c, class) in by_class.iter().enumerate() {
                    if cursors[c] < class.len() {
                        order.push(class[cursors[c]]);
                        cursors[c] += 1;
                    }
                }
            }
        }

        let images = order
            .iter()
            .enumerate()
            .map(|(new_idx, &old_idx)| {
                // Drift phase: 0 for the whole training split, then advancing
                // 0..1 across the test split in stream order.
                let phase = if config.family_drift && new_idx >= config.train_count {
                    (new_idx - config.train_count) as f64
                        / (config.total - config.train_count).max(1) as f64
                } else {
                    0.0
                };
                generate_image(
                    ImageId(new_idx as u32),
                    truths[old_idx],
                    attributes[old_idx],
                    phase,
                    &mut rng,
                )
            })
            .collect();

        Self {
            images,
            train_count: config.train_count,
            config: config.clone(),
        }
    }

    /// Total number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty (never true for generated datasets).
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// All images in split order (train first, then test).
    pub fn images(&self) -> &[SyntheticImage] {
        &self.images
    }

    /// The training split.
    pub fn train(&self) -> &[SyntheticImage] {
        &self.images[..self.train_count]
    }

    /// The held-out test split, streamed through sensing cycles.
    pub fn test(&self) -> &[SyntheticImage] {
        &self.images[self.train_count..]
    }

    /// Looks up an image by id. Returns `None` for unknown ids.
    pub fn image(&self, id: ImageId) -> Option<&SyntheticImage> {
        self.images.get(id.0 as usize)
    }

    /// The configuration that generated this dataset.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Counts of images per attribute across the whole dataset.
    pub fn attribute_counts(&self) -> [(ImageAttribute, usize); 5] {
        let mut out = ImageAttribute::ALL.map(|a| (a, 0usize));
        for img in &self.images {
            let slot = out
                .iter_mut()
                .find(|(a, _)| *a == img.attribute())
                .expect("every attribute is enumerated");
            slot.1 += 1;
        }
        out
    }

    /// Counts of images per ground-truth class across the whole dataset.
    pub fn class_counts(&self) -> [usize; DamageLabel::COUNT] {
        let mut out = [0usize; DamageLabel::COUNT];
        for img in &self.images {
            out[img.truth().index()] += 1;
        }
        out
    }
}

fn generate_image(
    id: ImageId,
    truth: DamageLabel,
    attribute: ImageAttribute,
    drift_phase: f64,
    rng: &mut StdRng,
) -> SyntheticImage {
    // What do the low-level features depict?
    let visual_label = match attribute {
        ImageAttribute::Plain | ImageAttribute::LowResolution => truth,
        ImageAttribute::Fake | ImageAttribute::CloseUp => DamageLabel::Severe,
        ImageAttribute::Implicit => DamageLabel::NoDamage,
    };

    // A fraction of ordinary images sits on an ambiguous severity boundary:
    // weak visual signal for AI, correlated confusion for humans.
    let ambiguous =
        attribute == ImageAttribute::Plain && rng.gen::<f64>() < DatasetConfig::AMBIGUITY_RATE;

    let (signal_scale, noise_scale) = match attribute {
        ImageAttribute::Plain if ambiguous => (DatasetConfig::AMBIGUITY_ATTENUATION, 1.2),
        ImageAttribute::Plain => (1.0, 1.0),
        // Deceptive images look *more* convincing than average, which is why
        // every committee member confidently agrees on the wrong answer.
        ImageAttribute::Fake | ImageAttribute::CloseUp | ImageAttribute::Implicit => {
            (DatasetConfig::DECEPTIVE_BOOST, 0.8)
        }
        ImageAttribute::LowResolution => (DatasetConfig::LOW_RESOLUTION_ATTENUATION, 1.6),
    };

    // Family-drift scaling: the deep family fades while the handcrafted
    // family strengthens as the phase advances; the spatial family is
    // stable. At phase 0 (no drift / training split) all scales are the
    // baseline ones.
    let family_scale = |family: usize| -> f64 {
        if drift_phase <= 0.0 {
            return 1.0;
        }
        match family {
            0 => 1.0 - 0.85 * drift_phase,
            1 => 1.0 + 0.85 * drift_phase,
            _ => 1.0,
        }
    };

    let mut visual = vec![0.0f64; VISUAL_DIM];
    for family in 0..FAMILIES {
        for class in 0..DamageLabel::COUNT {
            for k in 0..BLOCK {
                let dim = family * DamageLabel::COUNT * BLOCK + class * BLOCK + k;
                let mean = if class == visual_label.index() {
                    DatasetConfig::SIGNAL * signal_scale * family_scale(family)
                } else {
                    0.0
                };
                visual[dim] = mean + gaussian(rng) * DatasetConfig::NOISE * noise_scale;
            }
        }
    }

    // Contextual evidence: class context scores then attribute cues.
    let mut contextual = vec![0.0f64; SyntheticImage::CONTEXTUAL_DIM];
    for (class, slot) in contextual.iter_mut().enumerate().take(DamageLabel::COUNT) {
        let mean = if class == truth.index() {
            DatasetConfig::CONTEXT_FIDELITY
        } else {
            (1.0 - DatasetConfig::CONTEXT_FIDELITY) / (DamageLabel::COUNT - 1) as f64
        };
        *slot = (mean + gaussian(rng) * DatasetConfig::CONTEXT_NOISE).clamp(0.0, 1.0);
    }
    for (slot, attr) in ImageAttribute::ALL.iter().enumerate() {
        let mean = if *attr == attribute {
            DatasetConfig::CONTEXT_FIDELITY
        } else {
            1.0 - DatasetConfig::CONTEXT_FIDELITY
        };
        contextual[DamageLabel::COUNT + slot] =
            (mean + gaussian(rng) * DatasetConfig::CONTEXT_NOISE).clamp(0.0, 1.0);
    }

    SyntheticImage::from_latents(
        id,
        truth,
        attribute,
        visual_label,
        ambiguous,
        visual,
        contextual,
    )
}

/// Standard normal sample via Box-Muller (keeps the workspace independent of
/// `rand_distr`, which is not in the offline dependency set). Shared with the
/// classifier and crowd simulators.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_produces_paper_shape() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        assert_eq!(ds.len(), 960);
        assert_eq!(ds.train().len(), 560);
        assert_eq!(ds.test().len(), 400);
    }

    #[test]
    fn classes_are_balanced() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let counts = ds.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), 960);
        for c in counts {
            assert_eq!(c, 320);
        }
    }

    #[test]
    fn split_is_roughly_stratified() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        for split in [ds.train(), ds.test()] {
            let mut counts = [0usize; DamageLabel::COUNT];
            for img in split {
                counts[img.truth().index()] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap() as f64;
            assert!(max - min <= 2.0, "split not balanced: {counts:?}");
        }
    }

    #[test]
    fn attribute_rates_are_respected() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let counts = ds.attribute_counts();
        let cfg = ds.config();
        let get = |a: ImageAttribute| counts.iter().find(|(x, _)| *x == a).unwrap().1;
        assert_eq!(
            get(ImageAttribute::Fake),
            (cfg.fake_rate() * 960.0).round() as usize
        );
        assert_eq!(
            get(ImageAttribute::CloseUp),
            (DatasetConfig::CLOSE_UP_RATE * 960.0).round() as usize
        );
        assert_eq!(
            get(ImageAttribute::LowResolution),
            (cfg.low_resolution_rate() * 960.0).round() as usize
        );
        assert_eq!(
            get(ImageAttribute::Implicit),
            (cfg.implicit_rate() * 960.0).round() as usize
        );
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = Dataset::generate(&DatasetConfig::paper().with_seed(9));
        let b = Dataset::generate(&DatasetConfig::paper().with_seed(9));
        assert_eq!(a, b);
        let c = Dataset::generate(&DatasetConfig::paper().with_seed(10));
        assert_ne!(a, c);
    }

    #[test]
    fn fake_images_have_no_damage_truth_and_severe_visuals() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        for img in ds.images() {
            match img.attribute() {
                ImageAttribute::Fake | ImageAttribute::CloseUp => {
                    assert_eq!(img.truth(), DamageLabel::NoDamage);
                    assert_eq!(img.visual_label(), DamageLabel::Severe);
                    assert!(img.misleads_ai());
                }
                ImageAttribute::Implicit => {
                    assert_ne!(img.truth(), DamageLabel::NoDamage);
                    assert_eq!(img.visual_label(), DamageLabel::NoDamage);
                    assert!(img.misleads_ai());
                }
                ImageAttribute::LowResolution => {
                    assert_ne!(img.truth(), DamageLabel::NoDamage);
                    assert_eq!(img.visual_label(), img.truth());
                }
                ImageAttribute::Plain => {
                    assert_eq!(img.visual_label(), img.truth());
                }
            }
        }
    }

    #[test]
    fn plain_visual_evidence_peaks_in_true_class_block_on_average() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut per_class_signal = [0.0f64; DamageLabel::COUNT];
        let mut per_class_count = [0usize; DamageLabel::COUNT];
        for img in ds
            .images()
            .iter()
            .filter(|i| i.attribute() == ImageAttribute::Plain && !i.is_ambiguous())
        {
            let t = img.truth().index();
            // Average the dims of the true-class blocks across families.
            let mut own = 0.0;
            for family in 0..FAMILIES {
                for k in 0..BLOCK {
                    own +=
                        img.visual_evidence()[family * DamageLabel::COUNT * BLOCK + t * BLOCK + k];
                }
            }
            per_class_signal[t] += own / (FAMILIES * BLOCK) as f64;
            per_class_count[t] += 1;
        }
        for c in 0..DamageLabel::COUNT {
            let mean = per_class_signal[c] / per_class_count[c] as f64;
            assert!(mean > 0.7, "class {c} mean signal {mean} too weak");
        }
    }

    #[test]
    fn contextual_evidence_identifies_truth_and_attribute() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut correct_class = 0usize;
        let mut correct_attr = 0usize;
        for img in ds.images() {
            let ctx = img.contextual_evidence();
            let class_argmax = (0..DamageLabel::COUNT)
                .max_by(|&a, &b| ctx[a].partial_cmp(&ctx[b]).unwrap())
                .unwrap();
            if class_argmax == img.truth().index() {
                correct_class += 1;
            }
            let attr_argmax = (0..ImageAttribute::ALL.len())
                .max_by(|&a, &b| {
                    ctx[DamageLabel::COUNT + a]
                        .partial_cmp(&ctx[DamageLabel::COUNT + b])
                        .unwrap()
                })
                .unwrap();
            if ImageAttribute::ALL[attr_argmax] == img.attribute() {
                correct_attr += 1;
            }
        }
        let n = ds.len() as f64;
        assert!(
            correct_class as f64 / n > 0.95,
            "context must identify truth"
        );
        assert!(
            correct_attr as f64 / n > 0.95,
            "context must identify attribute"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty test set")]
    fn rejects_train_count_equal_to_total() {
        Dataset::generate(&DatasetConfig::paper().with_total(10).with_train_count(10));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rejects_excessive_rates() {
        Dataset::generate(
            &DatasetConfig::paper()
                .with_fake_rate(0.9)
                .with_implicit_rate(0.2),
        );
    }

    #[test]
    fn drift_fades_deep_family_and_boosts_handcrafted() {
        let plain_signal = |ds: &Dataset, family: usize, slice: &[SyntheticImage]| {
            let imgs: Vec<_> = slice
                .iter()
                .filter(|i| i.attribute() == ImageAttribute::Plain && !i.is_ambiguous())
                .collect();
            let _ = ds;
            imgs.iter()
                .map(|img| {
                    let t = img.truth().index();
                    (0..BLOCK)
                        .map(|k| {
                            img.visual_evidence()
                                [family * DamageLabel::COUNT * BLOCK + t * BLOCK + k]
                        })
                        .sum::<f64>()
                        / BLOCK as f64
                })
                .sum::<f64>()
                / imgs.len() as f64
        };
        let ds = Dataset::generate(&DatasetConfig::paper().with_family_drift(true));
        let early = &ds.test()[..100];
        let late = &ds.test()[300..];
        // Deep family (0) fades, handcrafted (1) strengthens, spatial (2)
        // stays put.
        assert!(plain_signal(&ds, 0, early) > plain_signal(&ds, 0, late) + 0.3);
        assert!(plain_signal(&ds, 1, late) > plain_signal(&ds, 1, early) + 0.3);
        assert!((plain_signal(&ds, 2, early) - plain_signal(&ds, 2, late)).abs() < 0.2);
        // Training split is generated at phase 0: same as a drift-free set.
        let baseline = Dataset::generate(&DatasetConfig::paper());
        assert_eq!(ds.train(), baseline.train());
    }

    #[test]
    fn drift_disabled_is_the_default() {
        assert!(!DatasetConfig::paper().family_drift());
        let a = Dataset::generate(&DatasetConfig::paper());
        let b = Dataset::generate(&DatasetConfig::paper().with_family_drift(false));
        assert_eq!(a, b);
    }

    #[test]
    fn image_lookup_round_trips() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        for img in ds.images() {
            assert_eq!(ds.image(img.id()).unwrap().id(), img.id());
        }
        assert!(ds.image(ImageId(99_999)).is_none());
    }
}
