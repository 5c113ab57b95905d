//! Fixed-form evidence questionnaires (paper Figure 3 / Section IV-C).
//!
//! "We not only ask the crowd to provide direct labels of data samples, but
//! also provide their evidence. … we use the format of fixed-form
//! questionnaire rather than free-form input to eliminate the challenge of
//! parsing natural language."

use crowdlearn_dataset::{DamageLabel, ImageAttribute, SyntheticImage};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// One worker's answers to the five evidence questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuestionnaireAnswers {
    /// "Is the image photoshopped (i.e., a fake image)?"
    pub photoshopped: bool,
    /// "Is this a close-up shot that hides the surrounding scene?"
    pub close_up: bool,
    /// "Is the image resolution too low to judge details?"
    pub low_resolution: bool,
    /// "Does this image show structural damage (roads, buildings)?"
    pub structural_damage: bool,
    /// "Are people shown affected or injured?"
    pub people_affected: bool,
}

impl QuestionnaireAnswers {
    /// Number of questions.
    pub const COUNT: usize = 5;

    /// The factually correct answers for an image — what a perfectly
    /// attentive annotator would report.
    ///
    /// The artifact questions (fake / close-up / low-resolution) follow the
    /// image attribute exactly; the scene-content questions are only
    /// *correlated* with severity — not every severe image shows people,
    /// not every damaged scene shows its structures — so the questionnaire
    /// narrows the label without fully determining it (which keeps CQC in
    /// the paper's ~0.93 accuracy regime rather than a perfect decoder).
    /// Answers are a fixed property of the image (hash-derived), so all
    /// attentive workers agree on them.
    pub fn ground_truth(image: &SyntheticImage) -> Self {
        let attr = image.attribute();
        let h1 = hash01(image.id().0 as u64 ^ 0x51de);
        let h2 = hash01(image.id().0 as u64 ^ 0xfade);
        let structural_damage = match (image.truth(), attr) {
            (_, ImageAttribute::Implicit) => false,
            (DamageLabel::NoDamage, _) => h1 < 0.04,
            (DamageLabel::Moderate, _) => h1 < 0.80,
            (DamageLabel::Severe, _) => h1 < 0.97,
        };
        let people_affected = match (image.truth(), attr) {
            (_, ImageAttribute::Implicit) => true,
            (DamageLabel::NoDamage, _) => h2 < 0.04,
            (DamageLabel::Moderate, _) => h2 < 0.15,
            (DamageLabel::Severe, _) => h2 < 0.88,
        };
        Self {
            photoshopped: attr == ImageAttribute::Fake,
            close_up: attr == ImageAttribute::CloseUp,
            low_resolution: attr == ImageAttribute::LowResolution,
            structural_damage,
            people_affected,
        }
    }

    /// The answers in declaration order, `true` for "yes".
    pub fn answers(&self) -> [bool; Self::COUNT] {
        [
            self.photoshopped,
            self.close_up,
            self.low_resolution,
            self.structural_damage,
            self.people_affected,
        ]
    }

    /// Encodes the answers as 0/1 features in declaration order.
    pub fn as_features(&self) -> [f64; Self::COUNT] {
        self.answers().map(f64::from)
    }

    /// Flips answer `index` (used to inject per-question worker noise).
    ///
    /// # Panics
    ///
    /// Panics if `index >= COUNT`.
    pub fn flip(&mut self, index: usize) {
        match index {
            0 => self.photoshopped = !self.photoshopped,
            1 => self.close_up = !self.close_up,
            2 => self.low_resolution = !self.low_resolution,
            3 => self.structural_damage = !self.structural_damage,
            4 => self.people_affected = !self.people_affected,
            _ => panic!("question index {index} out of range"),
        }
    }
}

// Snapshot codec: the five answers in declaration order.
impl Encode for QuestionnaireAnswers {
    fn encode(&self, out: &mut Vec<u8>) {
        self.photoshopped.encode(out);
        self.close_up.encode(out);
        self.low_resolution.encode(out);
        self.structural_damage.encode(out);
        self.people_affected.encode(out);
    }
}

impl Decode for QuestionnaireAnswers {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            photoshopped: bool::decode(r)?,
            close_up: bool::decode(r)?,
            low_resolution: bool::decode(r)?,
            structural_damage: bool::decode(r)?,
            people_affected: bool::decode(r)?,
        })
    }
}

/// Deterministic hash of a key to `[0, 1)` (SplitMix64 finalizer).
fn hash01(key: u64) -> f64 {
    let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_dataset::{Dataset, DatasetConfig};

    #[test]
    fn ground_truth_flags_fake_images() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        for img in ds.images() {
            let q = QuestionnaireAnswers::ground_truth(img);
            assert_eq!(q.photoshopped, img.attribute() == ImageAttribute::Fake);
            assert_eq!(q.close_up, img.attribute() == ImageAttribute::CloseUp);
            assert_eq!(
                q.low_resolution,
                img.attribute() == ImageAttribute::LowResolution
            );
        }
    }

    #[test]
    fn implicit_damage_shows_people_not_structures() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        for img in ds
            .images()
            .iter()
            .filter(|i| i.attribute() == ImageAttribute::Implicit)
        {
            let q = QuestionnaireAnswers::ground_truth(img);
            assert!(q.people_affected);
            assert!(!q.structural_damage);
        }
    }

    #[test]
    fn scene_questions_correlate_with_severity_without_determining_it() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let rate = |label: crowdlearn_dataset::DamageLabel| {
            let imgs: Vec<_> = ds
                .images()
                .iter()
                .filter(|i| i.truth() == label && i.attribute() == ImageAttribute::Plain)
                .collect();
            let yes = imgs
                .iter()
                .filter(|i| QuestionnaireAnswers::ground_truth(i).people_affected)
                .count();
            yes as f64 / imgs.len() as f64
        };
        let severe = rate(crowdlearn_dataset::DamageLabel::Severe);
        let none = rate(crowdlearn_dataset::DamageLabel::NoDamage);
        assert!(severe > none + 0.3, "severe {severe} vs none {none}");
        assert!(severe < 0.95, "must not be deterministic: {severe}");
    }

    #[test]
    fn features_are_binary_and_ordered() {
        let q = QuestionnaireAnswers {
            photoshopped: true,
            close_up: false,
            low_resolution: true,
            structural_damage: false,
            people_affected: true,
        };
        assert_eq!(q.as_features(), [1.0, 0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flip_toggles_each_question() {
        let mut q = QuestionnaireAnswers::ground_truth(
            &Dataset::generate(&DatasetConfig::paper()).images()[0].clone(),
        );
        for i in 0..QuestionnaireAnswers::COUNT {
            let before = q.as_features()[i];
            q.flip(i);
            assert_ne!(q.as_features()[i], before);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_rejects_bad_index() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut q = QuestionnaireAnswers::ground_truth(&ds.images()[0]);
        q.flip(5);
    }
}
