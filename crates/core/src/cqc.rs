//! Crowd Quality Control (paper §IV-C): distill truthful labels from noisy
//! worker responses using labels *plus* questionnaire evidence.

use crowdlearn_classifiers::ClassDistribution;
use crowdlearn_crowd::{QueryResponse, QuestionnaireAnswers};
use crowdlearn_dataset::DamageLabel;
use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Feature extraction from one crowd query response.
///
/// The feature vector fed to the gradient-boosting model is:
///
/// | slot | meaning |
/// |------|---------|
/// | 0..3 | per-class vote fraction |
/// | 3..8 | per-question mean "yes" rate across workers |
/// | 8    | entropy of the vote histogram |
/// | 9    | top vote share |
/// | 10   | incentive cents / 20 (quality dips at very low pay) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryFeatures;

impl QueryFeatures {
    /// Dimensionality of the extracted feature vector.
    pub const DIM: usize = DamageLabel::COUNT + QuestionnaireAnswers::COUNT + 3;

    /// Extracts the CQC feature vector from a response.
    ///
    /// # Panics
    ///
    /// Panics if the response has no worker responses.
    pub fn extract(response: &QueryResponse) -> Vec<f64> {
        assert!(
            !response.responses.is_empty(),
            "cannot extract features from an empty response"
        );
        let n = response.responses.len() as f64;

        let mut votes = [0.0f64; DamageLabel::COUNT];
        for r in &response.responses {
            votes[r.label.index()] += 1.0;
        }
        for v in &mut votes {
            *v /= n;
        }

        let mut questions = [0.0f64; QuestionnaireAnswers::COUNT];
        for r in &response.responses {
            for (q, a) in questions.iter_mut().zip(r.questionnaire.as_features()) {
                *q += a;
            }
        }
        for q in &mut questions {
            *q /= n;
        }

        let entropy: f64 = -votes
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>();
        let top_share = votes.iter().copied().fold(0.0, f64::max);

        let mut features = Vec::with_capacity(Self::DIM);
        features.extend_from_slice(&votes);
        features.extend_from_slice(&questions);
        features.push(entropy);
        features.push(top_share);
        features.push(f64::from(response.incentive.cents()) / 20.0);
        features
    }
}

/// The CQC module: a gradient-boosting classifier over [`QueryFeatures`],
/// with majority voting as the untrained fallback.
///
/// Train it once on responses with known ground truth (the paper uses the
/// training split for this), then call [`QualityController::infer`] on live
/// query responses to obtain the truthful-label distribution
/// `D(TL_i^t)` that MIC consumes.
#[derive(Debug, Clone)]
pub struct QualityController {
    config: GbdtConfig,
    model: Option<GbdtClassifier>,
}

impl QualityController {
    /// Creates an untrained controller.
    pub fn new(config: GbdtConfig) -> Self {
        Self {
            config,
            model: None,
        }
    }

    /// The paper's configuration (XGBoost-like defaults on small tabular
    /// data). Deeper and longer than `GbdtConfig::small()` because the
    /// decisive signal on ambiguous images is an interaction between the
    /// vote split and the questionnaire bits.
    pub fn paper() -> Self {
        Self::new(GbdtConfig {
            rounds: 150,
            max_depth: 5,
            learning_rate: 0.12,
            ..GbdtConfig::small()
        })
    }

    /// Whether [`QualityController::train`] has been called.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Trains the boosting model on responses with known true labels.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or any response is empty.
    pub fn train(&mut self, examples: &[(QueryResponse, DamageLabel)]) {
        assert!(
            !examples.is_empty(),
            "CQC needs at least one training example"
        );
        let rows: Vec<Vec<f64>> = examples
            .iter()
            .map(|(resp, _)| QueryFeatures::extract(resp))
            .collect();
        let labels: Vec<usize> = examples.iter().map(|(_, l)| l.index()).collect();
        self.model = Some(GbdtClassifier::fit(
            &rows,
            &labels,
            DamageLabel::COUNT,
            &self.config,
        ));
    }

    /// The truthful-label distribution for a live response. Untrained
    /// controllers fall back to the normalized vote histogram (majority
    /// voting).
    ///
    /// # Panics
    ///
    /// Panics if the response has no worker responses.
    pub fn infer(&self, response: &QueryResponse) -> ClassDistribution {
        match &self.model {
            Some(model) => {
                let probs = model.predict_proba(&QueryFeatures::extract(response));
                ClassDistribution::from_weights([probs[0], probs[1], probs[2]])
            }
            None => {
                let mut votes = [0.0f64; DamageLabel::COUNT];
                for r in &response.responses {
                    votes[r.label.index()] += 1.0;
                }
                ClassDistribution::from_weights(votes)
            }
        }
    }

    /// Convenience: the argmax truthful label.
    pub fn truthful_label(&self, response: &QueryResponse) -> DamageLabel {
        self.infer(response).argmax()
    }
}

// Snapshot codec: the boosting configuration plus the (optionally trained)
// model, both already validated by their own decoders.
impl Encode for QualityController {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        self.model.encode(out);
    }
}

impl Decode for QualityController {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            config: GbdtConfig::decode(r)?,
            model: Option::<GbdtClassifier>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
    use crowdlearn_dataset::{Dataset, DatasetConfig, TemporalContext};

    fn gather(
        platform: &mut Platform,
        images: &[crowdlearn_dataset::SyntheticImage],
    ) -> Vec<(QueryResponse, DamageLabel)> {
        images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let ctx = TemporalContext::from_index(i % TemporalContext::COUNT);
                (platform.submit(img, IncentiveLevel::C6, ctx), img.truth())
            })
            .collect()
    }

    #[test]
    fn features_have_fixed_dimension() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(31));
        let resp = platform.submit(&ds.test()[0], IncentiveLevel::C4, TemporalContext::Morning);
        let f = QueryFeatures::extract(&resp);
        assert_eq!(f.len(), QueryFeatures::DIM);
        // Vote fractions sum to 1.
        assert!((f[..3].iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn untrained_controller_is_majority_voting() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(32));
        let cqc = QualityController::paper();
        assert!(!cqc.is_trained());
        let resp = platform.submit(&ds.test()[1], IncentiveLevel::C6, TemporalContext::Evening);
        let mut votes = [0usize; 3];
        for r in &resp.responses {
            votes[r.label.index()] += 1;
        }
        let majority = votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(cqc.truthful_label(&resp).index(), majority);
    }

    #[test]
    fn trained_cqc_beats_majority_voting() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(33));
        let train_examples = gather(&mut platform, ds.train());
        let test_examples = gather(&mut platform, ds.test());

        let mut cqc = QualityController::paper();
        cqc.train(&train_examples);

        let mut cqc_correct = 0usize;
        let mut voting_correct = 0usize;
        let voting = QualityController::new(GbdtConfig::small()); // untrained = voting
        for (resp, truth) in &test_examples {
            cqc_correct += usize::from(cqc.truthful_label(resp) == *truth);
            voting_correct += usize::from(voting.truthful_label(resp) == *truth);
        }
        let n = test_examples.len() as f64;
        let acc_cqc = cqc_correct as f64 / n;
        let acc_voting = voting_correct as f64 / n;
        // Paper Table I: CQC 0.935 vs Voting 0.8425 (>= 5.75 points better).
        assert!(
            acc_cqc > acc_voting + 0.03,
            "CQC {acc_cqc} must clearly beat voting {acc_voting}"
        );
        assert!(
            (acc_cqc - 0.935).abs() < 0.05,
            "CQC accuracy {acc_cqc} outside the Table I band"
        );
    }

    #[test]
    fn inference_is_deterministic() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(34));
        let train_examples = gather(&mut platform, &ds.train()[..100]);
        let mut cqc = QualityController::paper();
        cqc.train(&train_examples);
        let resp = platform.submit(&ds.test()[5], IncentiveLevel::C8, TemporalContext::Midnight);
        assert_eq!(cqc.infer(&resp), cqc.infer(&resp));
    }

    /// Golden pin: the paper CQC model exactly as the system boot fits it
    /// (1 120 responses from the default dataset and platform seeds). The
    /// digest is FNV-1a-64 over `GbdtClassifier::to_bytes()`.
    #[test]
    fn boot_cqc_model_bytes_match_the_pinned_digest() {
        let config = crate::CrowdLearnConfig::paper();
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(config.platform_seed));
        let train = ds.train();
        let examples: Vec<_> = (0..config.cqc_training_queries)
            .map(|i| {
                let img = &train[i % train.len()];
                let context = TemporalContext::from_index(i % TemporalContext::COUNT);
                let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
                (platform.submit(img, level, context), img.truth())
            })
            .collect();
        assert_eq!(examples.len(), 1120);
        let mut cqc = QualityController::paper();
        cqc.train(&examples);
        let bytes = cqc.model.as_ref().expect("trained").to_bytes();
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            digest, 0x0533_2998_6ddb_0c10,
            "CQC model digest {digest:#018x}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one training example")]
    fn empty_training_rejected() {
        QualityController::paper().train(&[]);
    }

    #[test]
    fn snapshot_codec_round_trips_trained_and_untrained() {
        let untrained = QualityController::paper();
        let back = QualityController::from_bytes(&untrained.to_bytes()).expect("round trip");
        assert!(!back.is_trained());

        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(35));
        let mut cqc = QualityController::paper();
        cqc.train(&gather(&mut platform, &ds.train()[..80]));
        let back = QualityController::from_bytes(&cqc.to_bytes()).expect("round trip");
        assert!(back.is_trained());
        let resp = platform.submit(
            &ds.test()[2],
            IncentiveLevel::C6,
            TemporalContext::Afternoon,
        );
        assert_eq!(cqc.infer(&resp), back.infer(&resp));
    }
}
