//! The black-box platform API: submit a query, get worker responses.

use crate::{DelayModel, IncentiveLevel, QualityModel, QuestionnaireAnswers, WorkerPool};
use crowdlearn_dataset::{DamageLabel, ImageAttribute, ImageId, SyntheticImage, TemporalContext};
use crowdlearn_truth::WorkerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// Workers in the pool [`Platform::new`] generates.
const PAPER_POOL_SIZE: usize = 80;
const _: () = assert!(PlatformConfig::WORKERS_PER_QUERY <= PAPER_POOL_SIZE);

/// Configuration of the simulated platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    seed: u64,
    churn_rate: f64,
    delay_model: DelayModel,
}

impl PlatformConfig {
    /// Workers answering each query ("each query is allowed to be answered
    /// by 5 workers").
    pub const WORKERS_PER_QUERY: usize = 5;

    /// The paper's setup: an 80-worker anonymous pool, 5 workers per query,
    /// and the pilot-calibrated delay surface; the quality surface is
    /// always [`QualityModel::PAPER`].
    pub fn paper() -> Self {
        Self {
            seed: 0x7c0_4d5,
            churn_rate: 0.0,
            delay_model: DelayModel::paper(),
        }
    }

    /// Sets the RNG seed (decorrelates repeated experiment runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the delay model (for ablations).
    pub fn with_delay_model(mut self, model: DelayModel) -> Self {
        self.delay_model = model;
        self
    }

    /// Sets the worker-churn rate: the per-query probability that one
    /// randomly chosen worker leaves the platform and a brand-new one (fresh
    /// id, fresh traits, no history) signs up. Churn is what defeats
    /// history-based quality schemes — "workers are new to the platform and
    /// do not have sufficient labeling history" (paper §IV-C).
    ///
    /// # Panics
    ///
    /// [`Platform::new`] panics if the rate is outside `[0, 1]` (see
    /// [`PlatformConfig::check`]).
    pub fn with_churn_rate(mut self, rate: f64) -> Self {
        self.churn_rate = rate;
        self
    }

    /// The one validity rule: [`Platform::new`] panics with its message, the
    /// snapshot decoder reports `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        if (0.0..=1.0).contains(&self.churn_rate) {
            Ok(())
        } else {
            Err("churn rate must be in [0, 1]")
        }
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One worker's response to a query: a damage label, the questionnaire, and
/// the time it took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerResponse {
    /// The responding worker.
    pub worker: WorkerId,
    /// The damage label the worker assigned.
    pub label: DamageLabel,
    /// The worker's fixed-form evidence answers.
    pub questionnaire: QuestionnaireAnswers,
    /// Seconds between posting the HIT and this response.
    pub delay_secs: f64,
}

/// The platform's answer to one query (paper Definition 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// The queried image.
    pub image_id: ImageId,
    /// The incentive that was paid.
    pub incentive: IncentiveLevel,
    /// All worker responses.
    pub responses: Vec<WorkerResponse>,
    /// Seconds until the *last* worker answered — the query is only usable
    /// once every response is in, so this is the query's delay `d_x^t`.
    pub completion_delay_secs: f64,
}

impl QueryResponse {
    /// The workers' labels, in response order.
    pub fn labels(&self) -> Vec<DamageLabel> {
        self.responses.iter().map(|r| r.label).collect()
    }

    /// Mean per-worker response delay.
    pub fn mean_worker_delay_secs(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        self.responses.iter().map(|r| r.delay_secs).sum::<f64>() / self.responses.len() as f64
    }
}

/// A HIT that has been posted (and paid for) but whose answers have not yet
/// been *observed* by the requester.
///
/// [`Platform::post`] draws the complete worker outcome — labels,
/// questionnaires, and per-worker delays — at post time, exactly as
/// [`Platform::submit`] does, so posting consumes the same RNG stream in the
/// same order. What a `PendingHit` adds is the *temporal* view: an
/// event-driven runtime can schedule the answer for virtual time
/// `post_time + completion_delay_secs()` and, in the meantime, ask which
/// worker responses would already be visible at any earlier deadline via
/// [`PendingHit::responses_by`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingHit {
    response: QueryResponse,
    context: TemporalContext,
}

impl PendingHit {
    /// The queried image.
    pub fn image_id(&self) -> ImageId {
        self.response.image_id
    }

    /// The incentive paid for this HIT.
    pub fn incentive(&self) -> IncentiveLevel {
        self.response.incentive
    }

    /// The temporal context the HIT was posted under.
    pub fn context(&self) -> TemporalContext {
        self.context
    }

    /// Seconds (from posting) until the last worker answers — when the
    /// query becomes usable.
    pub fn completion_delay_secs(&self) -> f64 {
        self.response.completion_delay_secs
    }

    /// The worker responses that have arrived within `deadline_secs` of
    /// posting (a partial view of an expired or still-running HIT).
    pub fn responses_by(&self, deadline_secs: f64) -> Vec<&WorkerResponse> {
        self.response
            .responses
            .iter()
            .filter(|r| r.delay_secs <= deadline_secs)
            .collect()
    }

    /// Borrows the full (eventual) response.
    pub fn response(&self) -> &QueryResponse {
        &self.response
    }

    /// Defers every worker response (and hence the completion) by
    /// `wait_secs`: the HIT sat in a queue for that long before any worker
    /// picked it up. This is how a fleet orchestrator layers cross-stream
    /// worker contention on top of the pilot-calibrated delay model without
    /// touching the platform's RNG stream — the drawn labels and relative
    /// per-worker timings are untouched, everything just happens later.
    ///
    /// # Panics
    ///
    /// Panics if `wait_secs` is negative or non-finite.
    pub fn defer_by(&mut self, wait_secs: f64) {
        assert!(
            wait_secs.is_finite() && wait_secs >= 0.0,
            "queue wait must be finite and non-negative"
        );
        if wait_secs == 0.0 {
            return;
        }
        for r in &mut self.response.responses {
            r.delay_secs += wait_secs;
        }
        self.response.completion_delay_secs += wait_secs;
    }

    /// Consumes the HIT, waiting out the full completion delay — the
    /// blocking view [`Platform::submit`] returns.
    pub fn into_response(self) -> QueryResponse {
        self.response
    }
}

/// The simulated black-box crowdsourcing platform.
///
/// The requester-visible API is intentionally narrow — submit a query with
/// an incentive, receive responses, watch the money drain — mirroring the
/// paper's observation that "the requester can only submit tasks and define
/// the incentives for each task".
#[derive(Debug, Clone)]
pub struct Platform {
    pool: WorkerPool,
    config: PlatformConfig,
    rng: StdRng,
    spent_cents: u64,
    queries_served: u64,
    next_worker_id: u32,
}

impl Platform {
    /// Boots a platform with a freshly generated population of the paper's
    /// 80 workers.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`PlatformConfig::check`] if it rejects
    /// the configuration.
    pub fn new(config: PlatformConfig) -> Self {
        let pool = WorkerPool::generate(PAPER_POOL_SIZE, config.seed ^ 0x9e37_79b9);
        Self::with_pool(config, pool)
    }

    /// Boots a platform over an explicit worker pool (failure injection).
    ///
    /// # Panics
    ///
    /// Panics with the message of [`PlatformConfig::check`] if it rejects
    /// the configuration, or if the pool has fewer than
    /// [`PlatformConfig::WORKERS_PER_QUERY`] workers.
    pub fn with_pool(config: PlatformConfig, pool: WorkerPool) -> Self {
        config.check().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            pool.len() >= PlatformConfig::WORKERS_PER_QUERY,
            "the pool must hold a query's fan-out of workers"
        );
        Self {
            next_worker_id: pool.len() as u32,
            pool,
            rng: StdRng::seed_from_u64(config.seed),
            spent_cents: 0,
            queries_served: 0,
            config,
        }
    }

    /// Total cents charged so far.
    pub fn spent_cents(&self) -> u64 {
        self.spent_cents
    }

    /// Number of queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// The worker population (visible to the simulator owner, *not* part of
    /// the requester-facing black-box surface).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Submits one image query at `incentive` under `context` and blocks
    /// until every worker has answered; returns all worker responses.
    /// Charges `incentive.cents()` to the ledger. Equivalent to
    /// [`Platform::post`] followed by [`PendingHit::into_response`].
    pub fn submit(
        &mut self,
        image: &SyntheticImage,
        incentive: IncentiveLevel,
        context: TemporalContext,
    ) -> QueryResponse {
        self.post(image, incentive, context).into_response()
    }

    /// Posts one image query at `incentive` under `context` *without*
    /// waiting for the answers: the returned [`PendingHit`] carries the full
    /// worker outcome plus the virtual delay after which it becomes
    /// observable. Charges `incentive.cents()` to the ledger immediately
    /// (HITs are paid on posting) and consumes exactly the same RNG draws as
    /// [`Platform::submit`], so a posted-then-awaited query is
    /// byte-identical to a blocking one.
    pub fn post(
        &mut self,
        image: &SyntheticImage,
        incentive: IncentiveLevel,
        context: TemporalContext,
    ) -> PendingHit {
        self.spent_cents += u64::from(incentive.cents());
        self.queries_served += 1;

        // Worker churn: occasionally one freelancer leaves and a new one
        // (fresh id, no history anywhere) takes their slot.
        if self.config.churn_rate > 0.0 && self.rng.gen::<f64>() < self.config.churn_rate {
            let slot = self.rng.gen_range(0..self.pool.len());
            let id = WorkerId(self.next_worker_id);
            self.next_worker_id += 1;
            let replacement = crate::Worker::generate(id, &mut self.rng);
            self.pool.replace(slot, replacement);
        }

        let workers = self
            .pool
            .sample(PlatformConfig::WORKERS_PER_QUERY, context, &mut self.rng);
        // Collect worker traits first so we can reborrow the RNG mutably.
        let traits: Vec<(WorkerId, f64, f64)> = workers
            .iter()
            .map(|w| (w.id(), w.reliability(), w.speed_factor()))
            .collect();

        let mut responses = Vec::with_capacity(traits.len());
        let mut completion = 0.0f64;
        for (id, reliability, speed) in traits {
            let delay =
                self.config
                    .delay_model
                    .sample_secs(context, incentive, speed, &mut self.rng);
            completion = completion.max(delay);

            let p_correct =
                QualityModel::PAPER.correct_probability(reliability, incentive, context);
            let label = self.sample_label(image, p_correct);
            let questionnaire = self.sample_questionnaire(image, p_correct);
            responses.push(WorkerResponse {
                worker: id,
                label,
                questionnaire,
                delay_secs: delay,
            });
        }

        PendingHit {
            response: QueryResponse {
                image_id: image.id(),
                incentive,
                responses,
                completion_delay_secs: completion,
            },
            context,
        }
    }

    /// Per-image human difficulty and the *correlated* wrong label workers
    /// gravitate to when they err.
    ///
    /// Severity grading is genuinely ambiguous for a fraction of ordinary
    /// images (the moderate/severe and none/moderate boundaries), and
    /// deceptive or degraded images mislead humans in a *consistent*
    /// direction (the visual artifact). This correlation is what pulls
    /// majority voting down to the paper's Table I level (~0.84) even though
    /// individual workers average ~0.8 — independent errors would let five
    /// votes wash them out.
    fn image_difficulty(image: &SyntheticImage) -> (f64, DamageLabel) {
        match image.attribute() {
            ImageAttribute::Plain => {
                if image.is_ambiguous() {
                    // Ambiguous severity: confusion flows to the adjacent
                    // class (fixed per image).
                    let confusion = match image.truth() {
                        DamageLabel::NoDamage => DamageLabel::Moderate,
                        DamageLabel::Moderate => {
                            if hash01(image.id().0 as u64 ^ 0xabcd) < 0.5 {
                                DamageLabel::Severe
                            } else {
                                DamageLabel::NoDamage
                            }
                        }
                        DamageLabel::Severe => DamageLabel::Moderate,
                    };
                    (0.45, confusion)
                } else {
                    (0.02, DamageLabel::Moderate)
                }
            }
            // Deceptive images mislead toward what they *show*.
            ImageAttribute::Fake | ImageAttribute::CloseUp => (0.20, image.visual_label()),
            ImageAttribute::Implicit => (0.20, DamageLabel::NoDamage),
            // Low resolution hides the damage.
            ImageAttribute::LowResolution => (0.25, DamageLabel::NoDamage),
        }
    }

    /// A correct worker reads the contextual evidence and reports the truth;
    /// an incorrect one reports the image's correlated confusion label with
    /// probability 0.85 (workers err the same way on the same artifact) or a
    /// uniformly random other class.
    fn sample_label(&mut self, image: &SyntheticImage, p_correct: f64) -> DamageLabel {
        let (difficulty, confusion) = Self::image_difficulty(image);
        if self.rng.gen::<f64>() < p_correct * (1.0 - difficulty) {
            return image.truth();
        }
        if confusion != image.truth() && self.rng.gen::<f64>() < 0.85 {
            return confusion;
        }
        // A uniformly random label different from the truth.
        let offset = self.rng.gen_range(1..DamageLabel::COUNT);
        DamageLabel::from_index((image.truth().index() + offset) % DamageLabel::COUNT)
    }

    /// Each questionnaire answer independently matches the ground truth with
    /// probability `min(p_correct + 0.05, 0.99)` — evidence questions are a
    /// little easier than severity grading.
    fn sample_questionnaire(
        &mut self,
        image: &SyntheticImage,
        p_correct: f64,
    ) -> QuestionnaireAnswers {
        let mut answers = QuestionnaireAnswers::ground_truth(image);
        let p_answer = (p_correct + 0.05).min(0.99);
        for q in 0..QuestionnaireAnswers::COUNT {
            if self.rng.gen::<f64>() >= p_answer {
                answers.flip(q);
            }
        }
        answers
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs (`serde::binary`): everything a resumed run needs to keep
// serving byte-identical responses — the worker pool, the configuration, the
// ledger, and the RNG mid-stream state. Decoding runs each config's
// `check()` and reports `Invalid` instead of panicking.

impl Encode for PlatformConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seed.encode(out);
        self.churn_rate.encode(out);
        self.delay_model.encode(out);
    }
}

impl Decode for PlatformConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            seed: u64::decode(r)?,
            churn_rate: f64::decode(r)?,
            delay_model: DelayModel::decode(r)?,
        };
        config.check().map_err(|_| DecodeError::Invalid)?;
        Ok(config)
    }
}

impl Encode for WorkerResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        self.worker.0.encode(out);
        self.label.encode(out);
        self.questionnaire.encode(out);
        self.delay_secs.encode(out);
    }
}

impl Decode for WorkerResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let worker = WorkerId(u32::decode(r)?);
        let label = DamageLabel::decode(r)?;
        let questionnaire = QuestionnaireAnswers::decode(r)?;
        let delay_secs = f64::decode(r)?;
        if !delay_secs.is_finite() || delay_secs < 0.0 {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            worker,
            label,
            questionnaire,
            delay_secs,
        })
    }
}

impl Encode for QueryResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        self.image_id.encode(out);
        self.incentive.encode(out);
        self.responses.encode(out);
        self.completion_delay_secs.encode(out);
    }
}

impl Decode for QueryResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let image_id = ImageId::decode(r)?;
        let incentive = IncentiveLevel::decode(r)?;
        let responses = Vec::<WorkerResponse>::decode(r)?;
        let completion_delay_secs = f64::decode(r)?;
        // The platform asks exactly a query's fan-out of workers.
        if !completion_delay_secs.is_finite()
            || completion_delay_secs < 0.0
            || responses.len() != PlatformConfig::WORKERS_PER_QUERY
        {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            image_id,
            incentive,
            responses,
            completion_delay_secs,
        })
    }
}

impl Encode for PendingHit {
    fn encode(&self, out: &mut Vec<u8>) {
        self.response.encode(out);
        self.context.encode(out);
    }
}

impl Decode for PendingHit {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            response: QueryResponse::decode(r)?,
            context: TemporalContext::decode(r)?,
        })
    }
}

impl Encode for Platform {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pool.encode(out);
        self.config.encode(out);
        self.rng.state().encode(out);
        self.spent_cents.encode(out);
        self.queries_served.encode(out);
        self.next_worker_id.encode(out);
    }
}

impl Decode for Platform {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pool = WorkerPool::decode(r)?;
        let config = PlatformConfig::decode(r)?;
        let rng = StdRng::from_state(<[u64; 4]>::decode(r)?);
        let spent_cents = u64::decode(r)?;
        let queries_served = u64::decode(r)?;
        let next_worker_id = u32::decode(r)?;
        if pool.len() < PlatformConfig::WORKERS_PER_QUERY {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            pool,
            config,
            rng,
            spent_cents,
            queries_served,
            next_worker_id,
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
    use crate::Worker;
    use crowdlearn_dataset::{Dataset, DatasetConfig, ImageAttribute};

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::paper())
    }

    fn platform(seed: u64) -> Platform {
        Platform::new(PlatformConfig::paper().with_seed(seed))
    }

    #[test]
    fn submit_returns_five_responses_and_charges() {
        let ds = dataset();
        let mut p = platform(1);
        let r = p.submit(&ds.test()[0], IncentiveLevel::C6, TemporalContext::Morning);
        assert_eq!(r.responses.len(), 5);
        assert_eq!(p.spent_cents(), 6);
        assert_eq!(p.queries_served(), 1);
        assert!(r.completion_delay_secs >= r.mean_worker_delay_secs());
    }

    #[test]
    fn crowd_accuracy_is_around_80_percent() {
        let ds = dataset();
        let mut p = platform(2);
        let mut correct = 0usize;
        let mut total = 0usize;
        for img in ds.train().iter().take(100) {
            let r = p.submit(img, IncentiveLevel::C6, TemporalContext::Afternoon);
            for resp in &r.responses {
                total += 1;
                if resp.label == img.truth() {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        // Attentive workers land near 0.8; the ~8% spammer subpopulation and
        // per-image ambiguity pull the blended mean to the mid-0.7s.
        assert!((acc - 0.78).abs() < 0.06, "crowd accuracy {acc}");
    }

    #[test]
    fn crowd_sees_through_fake_images_usually() {
        let ds = dataset();
        let mut p = platform(3);
        let mut correct = 0usize;
        let mut total = 0usize;
        for img in ds
            .images()
            .iter()
            .filter(|i| i.attribute() == ImageAttribute::Fake)
        {
            let r = p.submit(img, IncentiveLevel::C6, TemporalContext::Evening);
            for resp in &r.responses {
                total += 1;
                if resp.label == img.truth() {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(
            acc > 0.65,
            "humans must usually out-judge fakes, accuracy {acc}"
        );
    }

    #[test]
    fn higher_incentive_is_faster_in_the_morning() {
        let ds = dataset();
        let mut p = platform(4);
        let mean_delay = |p: &mut Platform, level| {
            let mut sum = 0.0;
            for img in ds.train().iter().take(40) {
                sum += p
                    .submit(img, level, TemporalContext::Morning)
                    .mean_worker_delay_secs();
            }
            sum / 40.0
        };
        let cheap = mean_delay(&mut p, IncentiveLevel::C1);
        let rich = mean_delay(&mut p, IncentiveLevel::C20);
        assert!(
            rich < cheap / 2.0,
            "morning 20c ({rich}) must be much faster than 1c ({cheap})"
        );
    }

    #[test]
    fn evening_mid_incentives_are_similar() {
        let ds = dataset();
        let mut p = platform(5);
        let mean_delay = |p: &mut Platform, level| {
            let mut sum = 0.0;
            for img in ds.train().iter().take(60) {
                sum += p
                    .submit(img, level, TemporalContext::Evening)
                    .mean_worker_delay_secs();
            }
            sum / 60.0
        };
        let c2 = mean_delay(&mut p, IncentiveLevel::C2);
        let c10 = mean_delay(&mut p, IncentiveLevel::C10);
        assert!(
            (c2 - c10).abs() / c10 < 0.15,
            "evening 2c ({c2}) and 10c ({c10}) must be close"
        );
    }

    #[test]
    fn questionnaires_mostly_match_ground_truth() {
        let ds = dataset();
        let mut p = platform(6);
        let mut agree = 0usize;
        let mut total = 0usize;
        for img in ds.train().iter().take(80) {
            let truth = QuestionnaireAnswers::ground_truth(img).as_features();
            let r = p.submit(img, IncentiveLevel::C6, TemporalContext::Midnight);
            for resp in &r.responses {
                for (a, b) in resp.questionnaire.as_features().iter().zip(&truth) {
                    total += 1;
                    if a == b {
                        agree += 1;
                    }
                }
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.8, "questionnaire agreement {rate}");
    }

    #[test]
    fn adversarial_pool_breaks_label_quality() {
        let ds = dataset();
        let adversaries: Vec<Worker> = (0..10)
            .map(|i| Worker::from_traits(WorkerId(i), 0.05, 1.0, [1.0; 4]))
            .collect();
        let mut p = Platform::with_pool(
            PlatformConfig::paper().with_seed(8),
            WorkerPool::from_workers(adversaries),
        );
        let mut correct = 0usize;
        let mut total = 0usize;
        for img in ds.train().iter().take(50) {
            let r = p.submit(img, IncentiveLevel::C10, TemporalContext::Morning);
            for resp in &r.responses {
                total += 1;
                correct += usize::from(resp.label == img.truth());
            }
        }
        assert!(
            (correct as f64 / total as f64) < 0.3,
            "adversaries must poison labels"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let mut a = platform(9);
        let mut b = platform(9);
        let ra = a.submit(&ds.test()[3], IncentiveLevel::C8, TemporalContext::Evening);
        let rb = b.submit(&ds.test()[3], IncentiveLevel::C8, TemporalContext::Evening);
        assert_eq!(ra, rb);
    }

    #[test]
    fn defer_by_shifts_every_response_and_the_completion() {
        let ds = dataset();
        let mut p = platform(18);
        let mut hit = p.post(&ds.train()[0], IncentiveLevel::C6, TemporalContext::Evening);
        let base: Vec<f64> = hit
            .response()
            .responses
            .iter()
            .map(|r| r.delay_secs)
            .collect();
        let completion = hit.completion_delay_secs();
        hit.defer_by(0.0); // no-op
        assert_eq!(hit.completion_delay_secs().to_bits(), completion.to_bits());
        hit.defer_by(42.5);
        assert_eq!(hit.completion_delay_secs(), completion + 42.5);
        for (r, b) in hit.response().responses.iter().zip(&base) {
            assert_eq!(r.delay_secs, b + 42.5);
        }
    }

    #[test]
    #[should_panic(expected = "queue wait must be finite")]
    fn defer_by_rejects_negative_waits() {
        let ds = dataset();
        let mut p = platform(19);
        let mut hit = p.post(&ds.train()[0], IncentiveLevel::C6, TemporalContext::Evening);
        hit.defer_by(-1.0);
    }

    #[test]
    fn churn_rotates_the_population() {
        let ds = dataset();
        let mut p = Platform::new(PlatformConfig::paper().with_seed(11).with_churn_rate(0.5));
        let before: Vec<WorkerId> = p.pool().workers().iter().map(|w| w.id()).collect();
        for img in ds.train().iter().take(100) {
            let _ = p.submit(img, IncentiveLevel::C4, TemporalContext::Evening);
        }
        let after: Vec<WorkerId> = p.pool().workers().iter().map(|w| w.id()).collect();
        let replaced = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(replaced > 20, "only {replaced} workers churned");
        // Fresh ids continue past the initial range.
        assert!(after.iter().any(|id| id.0 >= before.len() as u32));
    }

    #[test]
    fn zero_churn_keeps_the_population_stable() {
        let ds = dataset();
        let mut p = Platform::new(PlatformConfig::paper().with_seed(12));
        let before: Vec<WorkerId> = p.pool().workers().iter().map(|w| w.id()).collect();
        for img in ds.train().iter().take(50) {
            let _ = p.submit(img, IncentiveLevel::C4, TemporalContext::Morning);
        }
        let after: Vec<WorkerId> = p.pool().workers().iter().map(|w| w.id()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn check_agrees_with_the_snapshot_decoder() {
        let paper = PlatformConfig::paper();
        let mut cases = vec![paper.clone()];
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -1.0,
            1.0,
            0.5,
        ] {
            cases.push(paper.clone().with_churn_rate(x));
        }
        for config in &cases {
            let decoded = PlatformConfig::from_bytes(&config.to_bytes());
            assert_eq!(
                config.check().is_ok(),
                decoded.is_ok(),
                "{config:?}: check {:?}, decode {decoded:?}",
                config.check()
            );
        }
    }

    #[test]
    #[should_panic(expected = "churn rate must be in [0, 1]")]
    fn bad_churn_rate_rejected() {
        Platform::new(PlatformConfig::paper().with_churn_rate(1.5));
    }

    #[test]
    #[should_panic(expected = "churn rate must be in [0, 1]")]
    fn explicit_pool_platform_checks_its_config() {
        // `with_pool` used to skip the check its decoder applies.
        let pool = WorkerPool::generate(10, 1);
        Platform::with_pool(PlatformConfig::paper().with_churn_rate(2.0), pool);
    }

    #[test]
    #[should_panic(expected = "a query's fan-out of workers")]
    fn rejects_a_pool_smaller_than_the_query_fanout() {
        let pool = WorkerPool::generate(PlatformConfig::WORKERS_PER_QUERY - 1, 1);
        Platform::with_pool(PlatformConfig::paper(), pool);
    }

    #[test]
    fn snapshot_codec_resumes_mid_stream_byte_identically() {
        use serde::binary::Decode;
        let ds = dataset();
        let mut live = Platform::new(PlatformConfig::paper().with_seed(21).with_churn_rate(0.3));
        for img in ds.train().iter().take(17) {
            let _ = live.submit(img, IncentiveLevel::C6, TemporalContext::Evening);
        }
        let mut resumed =
            Platform::from_bytes(&serde::binary::Encode::to_bytes(&live)).expect("round trip");
        for img in ds.train().iter().skip(17).take(10) {
            let a = live.submit(img, IncentiveLevel::C8, TemporalContext::Morning);
            let b = resumed.submit(img, IncentiveLevel::C8, TemporalContext::Morning);
            assert_eq!(a, b);
        }
        assert_eq!(live.spent_cents(), resumed.spent_cents());
        assert_eq!(live.pool(), resumed.pool());
    }

    #[test]
    fn snapshot_codec_rejects_corrupt_payloads() {
        use serde::binary::{Decode, DecodeError, Encode};
        let p = platform(22);
        let bytes = serde::binary::Encode::to_bytes(&p);
        assert!(matches!(
            Platform::from_bytes(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        ));

        // A response of other than a query's fan-out of workers.
        let response = platform(23).submit(
            &Dataset::generate(&DatasetConfig::paper()).test()[0],
            IncentiveLevel::C6,
            TemporalContext::Morning,
        );
        assert_eq!(
            QueryResponse::from_bytes(&response.to_bytes()),
            Ok(response.clone())
        );
        for workers in [0, PlatformConfig::WORKERS_PER_QUERY - 1] {
            let mut short = response.clone();
            short.responses.truncate(workers);
            let refused = QueryResponse::from_bytes(&short.to_bytes());
            assert_eq!(refused, Err(DecodeError::Invalid), "{workers} workers");
        }
        let mut long = response.clone();
        long.responses.push(response.responses[0].clone());
        let refused = QueryResponse::from_bytes(&long.to_bytes());
        assert_eq!(refused, Err(DecodeError::Invalid), "one worker too many");

        // A pool smaller than a query's fan-out, spliced in on the wire.
        let fanout = WorkerPool::generate(PlatformConfig::WORKERS_PER_QUERY, 1);
        let bytes = Platform::with_pool(PlatformConfig::paper(), fanout.clone()).to_bytes();
        let mut short = WorkerPool::generate(PlatformConfig::WORKERS_PER_QUERY - 1, 1).to_bytes();
        short.extend_from_slice(&bytes[fanout.to_bytes().len()..]);
        assert!(matches!(
            Platform::from_bytes(&short),
            Err(DecodeError::Invalid)
        ));
    }
}
