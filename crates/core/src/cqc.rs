//! Crowd Quality Control (paper §IV-C): distill truthful labels from noisy
//! worker responses using labels *plus* questionnaire evidence.

use crowdlearn_classifiers::ClassDistribution;
use crowdlearn_crowd::{IncentiveLevel, QueryResponse, QuestionnaireAnswers};
use crowdlearn_dataset::DamageLabel;
use crowdlearn_gbdt::{FitJob, GbdtClassifier, GbdtConfig};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// One crowd answer as CQC reads it: the workers' votes per label, their
/// "yes" answers per question and the incentive paid. Every
/// [`QueryFeatures`] slot is a function of these counts, so a cycle keeps
/// its answers as tallies until CQC scores them at the cycle's close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerTally {
    votes: [u8; DamageLabel::COUNT],
    yes: [u8; QuestionnaireAnswers::COUNT],
    incentive: IncentiveLevel,
}

impl AnswerTally {
    /// Tallies a response.
    ///
    /// # Panics
    ///
    /// Panics if the response has no worker responses, or more than 255.
    pub fn of(response: &QueryResponse) -> Self {
        assert!(
            !response.responses.is_empty(),
            "cannot extract features from an empty response"
        );
        assert!(
            response.responses.len() <= usize::from(u8::MAX),
            "a tally counts at most 255 workers"
        );
        let mut votes = [0u8; DamageLabel::COUNT];
        let mut yes = [0u8; QuestionnaireAnswers::COUNT];
        for r in &response.responses {
            votes[r.label.index()] += 1;
            for (yes, answer) in yes.iter_mut().zip(r.questionnaire.answers()) {
                *yes += u8::from(answer);
            }
        }
        Self {
            votes,
            yes,
            incentive: response.incentive,
        }
    }

    /// Workers who answered: the votes' sum.
    fn workers(&self) -> u32 {
        self.votes.iter().map(|&v| u32::from(v)).sum()
    }
}

// Snapshot codec: the counts, then the incentive's level index. The decoder
// refuses a tally no response has: no workers, or more "yes" answers to a
// question than workers (the level decoder refuses an unknown incentive).
impl Encode for AnswerTally {
    fn encode(&self, out: &mut Vec<u8>) {
        self.votes.encode(out);
        self.yes.encode(out);
        self.incentive.encode(out);
    }
}

impl Decode for AnswerTally {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tally = Self {
            votes: <[u8; DamageLabel::COUNT]>::decode(r)?,
            yes: <[u8; QuestionnaireAnswers::COUNT]>::decode(r)?,
            incentive: IncentiveLevel::decode(r)?,
        };
        let workers = tally.workers();
        if workers == 0 || tally.yes.iter().any(|&y| u32::from(y) > workers) {
            return Err(DecodeError::Invalid);
        }
        Ok(tally)
    }
}

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

    /// Extracts the CQC feature vector from a response: the features of
    /// its [`AnswerTally`].
    ///
    /// # Panics
    ///
    /// Panics if the response has no worker responses.
    pub fn extract(response: &QueryResponse) -> [f64; Self::DIM] {
        Self::of(&AnswerTally::of(response))
    }

    /// The CQC feature vector of a tallied answer. Counts of 0/1 values
    /// divide by the worker count to the same bits as their means.
    pub(crate) fn of(tally: &AnswerTally) -> [f64; Self::DIM] {
        let n = f64::from(tally.workers());
        let votes = tally.votes.map(|v| f64::from(v) / n);
        let questions = tally.yes.map(|y| f64::from(y) / n);

        let entropy: f64 = -votes
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>();
        let top_share = votes.iter().copied().fold(0.0, f64::max);

        let incentive = f64::from(tally.incentive.cents()) / 20.0;
        let tail = [entropy, top_share, incentive];
        let mut features = [0.0; Self::DIM];
        for (slot, &value) in features
            .iter_mut()
            .zip(votes.iter().chain(&questions).chain(&tail))
        {
            *slot = value;
        }
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
    model: Option<GbdtClassifier>,
}

impl QualityController {
    /// The boosting configuration [`QualityController::train`] fits with
    /// (XGBoost-like defaults on small tabular data). Deeper and longer than
    /// `GbdtConfig::small()` because the decisive signal on ambiguous images
    /// is an interaction between the vote split and the questionnaire bits.
    pub const CONFIG: GbdtConfig = GbdtConfig {
        rounds: 150,
        max_depth: 5,
        learning_rate: 0.12,
        ..GbdtConfig::small()
    };

    /// An untrained controller: majority voting until
    /// [`QualityController::train`] fits it.
    pub fn paper() -> Self {
        Self { model: None }
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
        let set = Self::training_set(examples);
        let mut trained = Self::fit_batch(&[(&set.0, &set.1)]);
        *self = trained
            .pop()
            .expect("invariant: the batch trains one controller per set");
    }

    /// The boosting rows and labels of `examples`.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or any response is empty.
    pub(crate) fn training_set(
        examples: &[(QueryResponse, DamageLabel)],
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        assert!(
            !examples.is_empty(),
            "CQC needs at least one training example"
        );
        let rows = examples
            .iter()
            .map(|(resp, _)| QueryFeatures::extract(resp).to_vec())
            .collect();
        let labels = examples.iter().map(|(_, l)| l.index()).collect();
        (rows, labels)
    }

    /// One trained controller per [`QualityController::training_set`], in
    /// order, their models fitted in one [`GbdtClassifier::fit_batch`]: each
    /// is the controller [`QualityController::train`] fits on its set.
    pub(crate) fn fit_batch(sets: &[(&[Vec<f64>], &[usize])]) -> Vec<Self> {
        let jobs: Vec<FitJob<'_>> = sets
            .iter()
            .map(|&(rows, labels)| FitJob {
                rows,
                labels,
                classes: DamageLabel::COUNT,
                config: &Self::CONFIG,
            })
            .collect();
        let models = GbdtClassifier::fit_batch(&jobs);
        models
            .into_iter()
            .map(|model| Self { model: Some(model) })
            .collect()
    }

    /// The truthful-label distribution for a live response: a batch of one
    /// (see [`QualityController::infer_batch`]). Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the response has no worker responses.
    pub fn infer(&self, response: &QueryResponse) -> ClassDistribution {
        let mut truthful = [ClassDistribution::uniform()];
        self.infer_batch([&AnswerTally::of(response)], &mut truthful);
        let [truthful] = truthful;
        truthful
    }

    /// The truthful-label distribution of each tallied answer, written to
    /// `out` in order. A trained controller scores the answers in batched
    /// passes over its trees, each distribution bit for bit the one the
    /// answer gets alone; an untrained one falls back to the normalized
    /// vote histogram (majority voting). Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `answers` and `out` differ in length.
    pub fn infer_batch<'a>(
        &self,
        answers: impl IntoIterator<Item = &'a AnswerTally, IntoIter: ExactSizeIterator>,
        out: &mut [ClassDistribution],
    ) {
        let mut answers = answers.into_iter();
        assert_eq!(answers.len(), out.len(), "one distribution per tally");
        let Some(model) = &self.model else {
            for (out, answer) in out.iter_mut().zip(answers) {
                *out = ClassDistribution::from_weights(answer.votes.map(f64::from));
            }
            return;
        };
        // One pass of the model's width at a time, its buffers on the stack.
        const PASS: usize = GbdtClassifier::BATCH;
        for out in out.chunks_mut(PASS) {
            let n = out.len();
            let mut rows = [[0.0; QueryFeatures::DIM]; PASS];
            for (row, answer) in rows[..n].iter_mut().zip(answers.by_ref()) {
                *row = QueryFeatures::of(answer);
            }
            let mut probs = [[0.0; DamageLabel::COUNT]; PASS];
            model.predict_proba_batch_into(rows[..n].as_flattened(), probs[..n].as_flattened_mut());
            for (out, probs) in out.iter_mut().zip(probs) {
                *out = ClassDistribution::from_weights(probs);
            }
        }
    }

    /// Convenience: the argmax truthful label.
    pub fn truthful_label(&self, response: &QueryResponse) -> DamageLabel {
        self.infer(response).argmax()
    }
}

// Snapshot codec: the (optionally trained) model, already validated by its
// own decoder and held to CQC's shape: one score per label over
// `QueryFeatures`. The boosting configuration is the constant.
impl Encode for QualityController {
    fn encode(&self, out: &mut Vec<u8>) {
        self.model.encode(out);
    }
}

impl Decode for QualityController {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let model = Option::<GbdtClassifier>::decode(r)?;
        let shaped = |m: &GbdtClassifier| {
            m.classes() == DamageLabel::COUNT && m.features() == QueryFeatures::DIM
        };
        if !model.as_ref().is_none_or(shaped) {
            return Err(DecodeError::Invalid);
        }
        Ok(Self { model })
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

    /// The features as they were computed before tallies: per-response
    /// sums of 0/1 floats, divided by the response count.
    fn summed_features(response: &QueryResponse) -> [f64; QueryFeatures::DIM] {
        let n = response.responses.len() as f64;
        let mut votes = [0.0f64; DamageLabel::COUNT];
        let mut questions = [0.0f64; QuestionnaireAnswers::COUNT];
        for r in &response.responses {
            votes[r.label.index()] += 1.0;
            for (q, a) in questions.iter_mut().zip(r.questionnaire.as_features()) {
                *q += a;
            }
        }
        for v in votes.iter_mut().chain(&mut questions) {
            *v /= n;
        }
        let entropy: f64 = -votes
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>();
        let top_share = votes.iter().copied().fold(0.0, f64::max);
        let incentive = f64::from(response.incentive.cents()) / 20.0;
        let mut features = [0.0; QueryFeatures::DIM];
        let tail = [entropy, top_share, incentive];
        for (slot, &value) in features
            .iter_mut()
            .zip(votes.iter().chain(&questions).chain(&tail))
        {
            *slot = value;
        }
        features
    }

    /// `count` responses to train-split images at every incentive level
    /// and context, from a platform seeded `seed`.
    fn responses(seed: u64, count: usize) -> Vec<QueryResponse> {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(seed));
        let train = ds.train();
        (0..count)
            .map(|i| {
                let img = &train[(i * 7 + seed as usize) % train.len()];
                let context = TemporalContext::from_index(i % TemporalContext::COUNT);
                let level = IncentiveLevel::from_index(i % IncentiveLevel::COUNT);
                platform.submit(img, level, context)
            })
            .collect()
    }

    #[test]
    fn tallied_features_are_the_summed_features_bit_for_bit() {
        let bits = |f: [f64; QueryFeatures::DIM]| f.map(f64::to_bits);
        for response in responses(36, 600) {
            assert_eq!(
                bits(QueryFeatures::extract(&response)),
                bits(summed_features(&response)),
                "{response:?}"
            );
        }
    }

    /// A controller trained on 150 responses, once for the tests.
    fn trained() -> &'static QualityController {
        static TRAINED: std::sync::OnceLock<QualityController> = std::sync::OnceLock::new();
        TRAINED.get_or_init(|| {
            let ds = Dataset::generate(&DatasetConfig::paper());
            let mut platform = Platform::new(PlatformConfig::paper().with_seed(37));
            let mut cqc = QualityController::paper();
            cqc.train(&gather(&mut platform, &ds.train()[..150]));
            cqc
        })
    }

    proptest::proptest! {
        /// `infer_batch` gives every tallied answer bit for bit the
        /// distribution `infer` gives its response alone, at every batch
        /// size from one to past the model's pass width, for a trained
        /// controller and for the untrained one's majority vote.
        #[test]
        fn a_batch_infers_each_answer_as_it_infers_alone(
            seed in 0u64..u64::MAX,
            size in 1usize..2 * GbdtClassifier::BATCH + 2,
        ) {
            let live = responses(seed, 3 * size);
            let tallies: Vec<AnswerTally> = live.iter().map(AnswerTally::of).collect();
            let bits = |d: &ClassDistribution| d.probs().map(f64::to_bits);
            for cqc in [trained(), &QualityController::paper()] {
                for (batch, tallies) in live.chunks(size).zip(tallies.chunks(size)) {
                    let mut out = vec![ClassDistribution::uniform(); batch.len()];
                    cqc.infer_batch(tallies, &mut out);
                    for (response, got) in batch.iter().zip(&out) {
                        proptest::prop_assert_eq!(bits(got), bits(&cqc.infer(response)));
                    }
                }
            }
        }
    }

    #[test]
    fn untrained_batches_are_the_normalized_vote_histogram() {
        let live = responses(38, 40);
        let tallies: Vec<AnswerTally> = live.iter().map(AnswerTally::of).collect();
        let mut out = vec![ClassDistribution::uniform(); live.len()];
        QualityController::paper().infer_batch(&tallies, &mut out);
        for (response, got) in live.iter().zip(&out) {
            let mut votes = [0.0; DamageLabel::COUNT];
            for r in &response.responses {
                votes[r.label.index()] += 1.0;
            }
            assert_eq!(*got, ClassDistribution::from_weights(votes));
        }
    }

    #[test]
    #[should_panic(expected = "one distribution per tally")]
    fn a_batch_needs_one_slot_per_answer() {
        let tallies: Vec<AnswerTally> = responses(39, 3).iter().map(AnswerTally::of).collect();
        let mut out = vec![ClassDistribution::uniform(); 2];
        QualityController::paper().infer_batch(&tallies, &mut out);
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
        let voting = QualityController::paper(); // untrained = voting
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

    /// The paper CQC model exactly as the system boot fits it (1 120
    /// responses from the default dataset and platform seeds), with the
    /// feature rows it was fit on.
    fn boot_model() -> (GbdtClassifier, Vec<Vec<f64>>) {
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
        let rows = examples
            .iter()
            .map(|(resp, _)| QueryFeatures::extract(resp).to_vec())
            .collect();
        (cqc.model.expect("trained"), rows)
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Golden pin: FNV-1a-64 over the boot model's `to_bytes()`.
    #[test]
    fn boot_cqc_model_bytes_match_the_pinned_digest() {
        let digest = fnv1a64(&boot_model().0.to_bytes());
        assert_eq!(
            digest, 0x675a_820c_d4de_efbf,
            "CQC model digest {digest:#018x}"
        );
    }

    /// Golden pin: FNV-1a-64 over the bits of the boot model's
    /// `predict_proba` on its 1 120 training rows plus 400 rows spread over
    /// `[-0.25, 1.25)` in every feature. Unlike the model bytes, this digest
    /// does not move with the wire format.
    #[test]
    fn boot_cqc_predictions_match_the_pinned_digest() {
        let (model, mut rows) = boot_model();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..400 {
            let row = (0..QueryFeatures::DIM).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 1.5 - 0.25
            });
            rows.push(row.collect());
        }
        let bits: Vec<u8> = rows
            .iter()
            .flat_map(|row| model.predict_proba(row))
            .flat_map(|p| p.to_bits().to_le_bytes())
            .collect();
        let digest = fnv1a64(&bits);
        assert_eq!(
            digest, 0x87c8_81ab_d892_2494,
            "CQC prediction digest {digest:#018x}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one training example")]
    fn empty_training_rejected() {
        QualityController::paper().train(&[]);
    }

    #[test]
    fn a_model_of_another_shape_is_refused() {
        let rows = vec![vec![0.0], vec![1.0], vec![0.0], vec![1.0]];
        let model = GbdtClassifier::fit(&rows, &[0, 1, 0, 1], 2, &GbdtConfig::small());
        assert_eq!(
            QualityController::from_bytes(&Some(model).to_bytes()).map(|c| c.is_trained()),
            Err(DecodeError::Invalid)
        );
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
