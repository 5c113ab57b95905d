//! The closed-loop CrowdLearn system (paper Figure 4).

use crate::report::{CycleOutcome, ImageOutcome};
use crate::{
    AnswerTally, Calibrator, CalibratorConfig, Committee, IncentivePolicy, Offload,
    QualityController, QueriedImage, QuerySetSelector, Retrain, Selection,
};
use crowdlearn_bandit::BanditConfig;
use crowdlearn_classifiers::{
    profiles, BoostedEnsemble, ClassDistribution, Classifier, SimulatedExpert,
};
use crowdlearn_crowd::{IncentiveLevel, PendingHit, Platform, PlatformConfig, QueryResponse};
use crowdlearn_dataset::{Dataset, LabeledImage, SensingCycle, TemporalContext};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Which incentive policy drives IPD — CrowdLearn proper uses
/// [`IncentivePolicyKind::UcbAlp`]; the others are the Figure 8 comparisons
/// and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncentivePolicyKind {
    /// The constrained contextual bandit (UCB + adaptive LP) of §IV-B.
    UcbAlp,
    /// Budget-aware contextual ε-greedy (ablation).
    EpsilonGreedy,
    /// Fixed incentive: the largest level affordable at `budget / horizon`
    /// per query (the paper's fixed baseline).
    FixedMax,
    /// Uniformly random affordable incentives.
    Random,
}

/// The AI a run boots: the paper's committee, or one of the §V-A
/// competitors' models run as a committee of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Model {
    /// VGG16, BoVW and DDM under Hedge weights (CrowdLearn).
    Committee,
    /// VGG16 alone.
    Vgg16,
    /// BoVW alone.
    Bovw,
    /// DDM alone.
    Ddm,
    /// The three experts boosted into one classifier (the Ensemble row and
    /// the hybrids' AI).
    Ensemble,
}

impl Model {
    /// The untrained members, built from `seed` — at boot and, before their
    /// learned state is restored, at resume.
    fn members(self, seed: u64) -> Vec<Box<dyn Classifier>> {
        fn boxed(expert: SimulatedExpert) -> Box<dyn Classifier> {
            Box::new(expert)
        }
        match self {
            Model::Committee => profiles::paper_committee(seed)
                .into_iter()
                .map(boxed)
                .collect(),
            Model::Vgg16 => vec![boxed(profiles::vgg16(seed))],
            Model::Bovw => vec![boxed(profiles::bovw(seed))],
            Model::Ddm => vec![boxed(profiles::ddm(seed))],
            Model::Ensemble => vec![Box::new(BoostedEnsemble::new(profiles::paper_committee(
                seed,
            )))],
        }
    }
}

/// Full configuration of a CrowdLearn run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrowdLearnConfig {
    /// The AI model.
    pub model: Model,
    /// Images sent to the crowd per sensing cycle (paper: 5 of 10).
    pub queries_per_cycle: usize,
    /// How QSS picks the query set (paper: ε-greedy entropy, ε = 0.2).
    pub selection: Selection,
    /// Hedge learning rate for MIC's expert-weight updates.
    pub hedge_eta: f64,
    /// Total crowd budget for the evaluation run, in cents.
    pub budget_cents: f64,
    /// Expected total number of queries (the bandit horizon `T`).
    pub horizon_queries: u64,
    /// The incentive policy driving IPD.
    pub policy: IncentivePolicyKind,
    /// Which MIC strategies are active.
    pub calibration: CalibratorConfig,
    /// Bandit warm-up observations per (context, incentive) cell, taken on
    /// training images before the evaluation run (the paper trains IPD on
    /// the training split).
    pub warmup_per_cell: usize,
    /// Training-split queries used to fit the CQC boosting model.
    pub cqc_training_queries: usize,
    /// Seconds of per-cycle overhead for the QSS/IPD/CQC/MIC modules
    /// (calibrated so Table III's CrowdLearn algorithm delay ≈ 55.62 s).
    pub module_overhead_secs: f64,
    /// Optional actionability deadline, in seconds: a crowd answer can only
    /// *offload* (replace the AI label of) its image if it arrives within
    /// this window — a late answer still trains CQC-facing feedback paths
    /// (weight updates, retraining) but the cycle's labels have already been
    /// delegated to responders (paper Definition 1: a sensing cycle lasts 10
    /// minutes). `None` (the paper evaluation's setting, where all measured
    /// delays fit the cycle) disables the cutoff.
    pub offload_deadline_secs: Option<f64>,
    /// Seed for QSS/committee randomness.
    pub seed: u64,
    /// Seed for the simulated platform.
    pub platform_seed: u64,
}

impl CrowdLearnConfig {
    /// The paper's evaluation setup: 5 queries per 10-image cycle, a 200
    /// query horizon (40 cycles), a $10 crowd budget, and all calibration
    /// strategies on.
    pub fn paper() -> Self {
        Self {
            model: Model::Committee,
            queries_per_cycle: 5,
            selection: Selection::Entropy { epsilon: 0.2 },
            hedge_eta: 0.1,
            budget_cents: 1000.0,
            horizon_queries: 200,
            policy: IncentivePolicyKind::UcbAlp,
            calibration: CalibratorConfig::paper(),
            warmup_per_cell: 12,
            cqc_training_queries: 1120,
            module_overhead_secs: 3.05,
            offload_deadline_secs: None,
            seed: 0xc0ffee,
            platform_seed: 0x5eed,
        }
    }

    /// An AI-only competitor of Tables II–III: `model`, trained on the
    /// training split, labels every image and nothing goes to the crowd.
    pub fn ai_only(model: Model) -> Self {
        Self {
            queries_per_cycle: 0,
            ..Self::baseline(
                model,
                Selection::Entropy { epsilon: 0.0 },
                CalibratorConfig::disabled(),
                0.0,
            )
        }
    }

    /// `Hybrid-AL` (Laws et al. 2011): active learning with crowd labels.
    ///
    /// Per cycle the boosted Ensemble's most uncertain images go to the
    /// crowd at a fixed incentive, and majority-voted labels retrain the
    /// model for later cycles (only confident majorities:
    /// [`Retrain::ConfidentMajority`]). There is no offloading: the AI's
    /// own, possibly innately flawed labels are always the output, which is
    /// why its Figure 9 curve stays flat. Wrapped around the strongest AI,
    /// it is the best-performing baseline, as in Table II.
    pub fn hybrid_al() -> Self {
        Self::baseline(
            Model::Ensemble,
            Selection::Entropy { epsilon: 0.0 },
            CalibratorConfig {
                update_weights: false,
                retrain: Retrain::ConfidentMajority,
                offload: Offload::Off,
            },
            1.0,
        )
    }

    /// `Hybrid-Para` (Jarrett et al. 2014): humans and AI label
    /// independently and a complexity index merges the two streams.
    ///
    /// A random sample of each cycle's images goes to the crowd
    /// ([`Selection::Random`]: no uncertainty targeting), and for sampled
    /// images the complexity index routes the decision
    /// ([`Offload::Complex`]): complex images take the crowd's raw majority
    /// label, simple images keep the AI label. Because genuinely complex
    /// images are hard for the crowd too, and confidently wrong AI
    /// (deceptive images) looks simple to the index, the integration buys
    /// little, which is why Hybrid-Para trails the adaptive schemes in
    /// Table II and stays flat in Figure 9.
    pub fn hybrid_para() -> Self {
        Self::baseline(
            Model::Ensemble,
            Selection::Random,
            CalibratorConfig {
                update_weights: false,
                retrain: Retrain::Off,
                offload: Offload::Complex,
            },
            8.5,
        )
    }

    /// The competitors' shared set-up: seed 0, the paper's fixed incentive
    /// ("the total budget divided by the number of queries"), and no CQC fit
    /// or bandit warm-up, so CQC falls back to majority voting and the
    /// platform's stream starts fresh at the evaluation.
    fn baseline(
        model: Model,
        selection: Selection,
        calibration: CalibratorConfig,
        module_overhead_secs: f64,
    ) -> Self {
        Self {
            model,
            selection,
            calibration,
            module_overhead_secs,
            policy: IncentivePolicyKind::FixedMax,
            warmup_per_cell: 0,
            cqc_training_queries: 0,
            seed: 0,
            ..Self::paper()
        }
    }

    /// Sets the number of crowd queries per cycle (Figure 9 sweep), scaling
    /// the bandit horizon and the budget so the per-query budget share stays
    /// at the paper's default (5 cents over a 40-cycle run). Override the
    /// budget afterwards with [`CrowdLearnConfig::with_budget_cents`] if a
    /// different share is wanted.
    pub fn with_queries_per_cycle(mut self, n: usize) -> Self {
        self.queries_per_cycle = n;
        self.horizon_queries = (40 * n).max(1) as u64;
        self.budget_cents = (200 * n) as f64;
        self
    }

    /// Sets the total budget in cents (Figures 10-11 sweep).
    pub fn with_budget_cents(mut self, cents: f64) -> Self {
        self.budget_cents = cents;
        self
    }

    /// Sets the incentive policy (Figure 8 comparison).
    pub fn with_policy(mut self, policy: IncentivePolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the MIC strategy switches (ablations).
    pub fn with_calibration(mut self, calibration: CalibratorConfig) -> Self {
        self.calibration = calibration;
        self
    }

    /// Sets entropy selection at exploration rate `epsilon` (ablation).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.selection = Selection::Entropy { epsilon };
        self
    }

    /// Sets the offload-actionability deadline (see the field docs).
    pub fn with_offload_deadline_secs(mut self, deadline: Option<f64>) -> Self {
        self.offload_deadline_secs = deadline;
        self
    }

    /// Sets both RNG seeds from one value (repeated-trial decorrelation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.platform_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(1);
        self
    }

    /// The one validity rule: [`CrowdLearnSystem::with_platform`] panics
    /// with its message, the snapshot decoder reports `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        self.selection.check()?;
        if !positive(self.hedge_eta) {
            Err("hedge eta must be positive and finite")
        } else if !non_negative(self.budget_cents) {
            Err("budget must be non-negative and finite")
        } else if self.horizon_queries == 0 {
            Err("horizon must be positive")
        } else if !non_negative(self.module_overhead_secs) {
            Err("module overhead must be non-negative and finite")
        } else if !self.offload_deadline_secs.is_none_or(positive) {
            Err("offload deadline must be positive and finite")
        } else {
            Ok(())
        }
    }
}

impl Default for CrowdLearnConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl Encode for IncentivePolicyKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            IncentivePolicyKind::UcbAlp => 0,
            IncentivePolicyKind::EpsilonGreedy => 1,
            IncentivePolicyKind::FixedMax => 2,
            IncentivePolicyKind::Random => 3,
        };
        tag.encode(out);
    }
}

impl Decode for IncentivePolicyKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(IncentivePolicyKind::UcbAlp),
            1 => Ok(IncentivePolicyKind::EpsilonGreedy),
            2 => Ok(IncentivePolicyKind::FixedMax),
            3 => Ok(IncentivePolicyKind::Random),
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for Model {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Model::Committee => 0,
            Model::Vgg16 => 1,
            Model::Bovw => 2,
            Model::Ddm => 3,
            Model::Ensemble => 4,
        };
        tag.encode(out);
    }
}

impl Decode for Model {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Model::Committee),
            1 => Ok(Model::Vgg16),
            2 => Ok(Model::Bovw),
            3 => Ok(Model::Ddm),
            4 => Ok(Model::Ensemble),
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for CrowdLearnConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.model.encode(out);
        self.queries_per_cycle.encode(out);
        self.selection.encode(out);
        self.hedge_eta.encode(out);
        self.budget_cents.encode(out);
        self.horizon_queries.encode(out);
        self.policy.encode(out);
        self.calibration.encode(out);
        self.warmup_per_cell.encode(out);
        self.cqc_training_queries.encode(out);
        self.module_overhead_secs.encode(out);
        self.offload_deadline_secs.encode(out);
        self.seed.encode(out);
        self.platform_seed.encode(out);
    }
}

impl Decode for CrowdLearnConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            model: Model::decode(r)?,
            queries_per_cycle: usize::decode(r)?,
            selection: Selection::decode(r)?,
            hedge_eta: f64::decode(r)?,
            budget_cents: f64::decode(r)?,
            horizon_queries: u64::decode(r)?,
            policy: IncentivePolicyKind::decode(r)?,
            calibration: CalibratorConfig::decode(r)?,
            warmup_per_cell: usize::decode(r)?,
            cqc_training_queries: usize::decode(r)?,
            module_overhead_secs: f64::decode(r)?,
            offload_deadline_secs: Option::<f64>::decode(r)?,
            seed: u64::decode(r)?,
            platform_seed: u64::decode(r)?,
        };
        config.check().map_err(|_| DecodeError::Invalid)?;
        Ok(config)
    }
}

/// A crowd query posted by [`CrowdLearnSystem::post_next_query`] (or
/// reposted by [`CrowdLearnSystem::repost_query`]) whose answer has not yet
/// been absorbed. The caller decides *when* the answer is observed: an
/// event-driven runtime schedules it at
/// `now + pending.completion_delay_secs()`.
#[derive(Debug, Clone, PartialEq)]
pub struct PostedQuery {
    /// Index of the queried image within its sensing cycle.
    pub image_index: usize,
    /// The incentive paid.
    pub incentive: IncentiveLevel,
    /// The posted HIT, carrying the eventual worker responses and the
    /// virtual delay until they are complete.
    pub pending: PendingHit,
}

/// In-progress state of one sensing cycle, produced by
/// [`CrowdLearnSystem::start_cycle`] and driven to a [`CycleOutcome`] by the
/// reentrant stage methods. Multiple `CycleWork` values may be live at once
/// (the pipelined runtime overlaps cycles); each one only touches shared
/// module state (QSS/IPD/CQC/MIC) through the system methods it is passed
/// to, so interleavings stay deterministic for a fixed event order.
#[derive(Debug, Clone)]
pub struct CycleWork {
    context: TemporalContext,
    member_votes: Vec<Vec<ClassDistribution>>,
    picked: Vec<usize>,
    next_pick: usize,
    budget_exhausted: bool,
    /// Every absorbed answer, in absorb order; its completion delay is in
    /// `query_delays` at the same place.
    answers: Vec<Answer>,
    query_delays: Vec<f64>,
    spent_cents: u64,
    outstanding: usize,
}

impl CycleWork {
    /// Images in the cycle: one cached set of committee votes each.
    pub fn images(&self) -> usize {
        self.member_votes.len()
    }

    /// The cycle's temporal context.
    pub fn context(&self) -> TemporalContext {
        self.context
    }

    /// Queries posted but not yet absorbed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Whether no further queries will be posted (query set exhausted or
    /// budget denied) — reposts of outstanding queries may still happen.
    pub fn posting_done(&self) -> bool {
        self.budget_exhausted || self.next_pick >= self.picked.len()
    }

    /// Images posted so far, in post order (reposts not repeated).
    pub fn posted(&self) -> &[usize] {
        &self.picked[..self.next_pick]
    }

    /// Crowd answers absorbed so far.
    pub fn answers_absorbed(&self) -> usize {
        self.answers.len()
    }

    /// Completion delay of every answer absorbed so far, in absorb order:
    /// what [`CycleOutcome::query_delay_secs`] reports once the cycle closes.
    pub fn query_delays(&self) -> &[f64] {
        &self.query_delays
    }

    /// Cents spent on this cycle's posts (including reposts) so far.
    pub fn spent_cents(&self) -> u64 {
        self.spent_cents
    }
}

/// One absorbed crowd answer of a live cycle: the image it labels, its
/// tally, which CQC scores with the cycle's other answers at
/// [`CrowdLearnSystem::finalize_cycle`], and whether it may offload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    image: usize,
    tally: AnswerTally,
    timely: bool,
}

impl Encode for Answer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.image.encode(out);
        self.tally.encode(out);
        self.timely.encode(out);
    }
}

impl Decode for Answer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            image: usize::decode(r)?,
            tally: AnswerTally::decode(r)?,
            timely: bool::decode(r)?,
        })
    }
}

// Snapshot codec: everything a live cycle carries, so a checkpointed runtime
// can park in-flight cycles mid-crowd-wait and resume them byte-identically.
impl Encode for CycleWork {
    fn encode(&self, out: &mut Vec<u8>) {
        self.context.encode(out);
        self.member_votes.encode(out);
        self.picked.encode(out);
        self.next_pick.encode(out);
        self.budget_exhausted.encode(out);
        self.answers.encode(out);
        self.query_delays.encode(out);
        self.spent_cents.encode(out);
        self.outstanding.encode(out);
    }
}

impl Decode for CycleWork {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let work = Self {
            context: TemporalContext::decode(r)?,
            member_votes: Vec::<Vec<ClassDistribution>>::decode(r)?,
            picked: Vec::<usize>::decode(r)?,
            next_pick: usize::decode(r)?,
            budget_exhausted: bool::decode(r)?,
            answers: Vec::<Answer>::decode(r)?,
            query_delays: Vec::<f64>::decode(r)?,
            spent_cents: u64::decode(r)?,
            outstanding: usize::decode(r)?,
        };
        let images = work.member_votes.len();
        let valid = work.next_pick <= work.picked.len()
            && work.picked.iter().all(|&i| i < images)
            && work.answers.iter().all(|a| a.image < images)
            && work.query_delays.len() == work.answers.len()
            && work.query_delays.iter().all(|d| d.is_finite() && *d >= 0.0);
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(work)
    }
}

/// The assembled CrowdLearn system: committee + QSS + IPD + CQC + MIC over a
/// simulated platform. See the crate docs for the per-cycle workflow.
pub struct CrowdLearnSystem {
    config: CrowdLearnConfig,
    committee: Committee,
    qss: QuerySetSelector,
    ipd: IncentivePolicy,
    cqc: QualityController,
    calibrator: Calibrator,
    platform: Platform,
    bootstrap_spent_cents: u64,
}

/// The paper platform [`CrowdLearnSystem::new`] boots on, seeded with
/// `config.platform_seed`.
fn paper_platform(config: &CrowdLearnConfig) -> Platform {
    Platform::new(PlatformConfig::paper().with_seed(config.platform_seed))
}

/// A system booted up to its CQC fit: the committee trained, the CQC
/// training set sampled from the platform, and the incentive bandit warmed
/// up. The warm-up never reads CQC, so it runs before the fit and moves no
/// platform draw.
struct Unfitted {
    config: CrowdLearnConfig,
    committee: Committee,
    platform: Platform,
    ipd: IncentivePolicy,
    /// CQC's boosting rows and labels, `None` when the configuration asks
    /// for no training queries.
    cqc_set: Option<(Vec<Vec<f64>>, Vec<usize>)>,
    bootstrap_spent_cents: u64,
}

impl Unfitted {
    /// The three uses the paper assigns to the training set (§V-B), short
    /// of the CQC fit itself.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`CrowdLearnConfig::check`] if it rejects
    /// the configuration, or if the dataset's training split is empty.
    fn boot(dataset: &Dataset, config: CrowdLearnConfig, mut platform: Platform) -> Self {
        config.check().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            !dataset.train().is_empty(),
            "training split must be non-empty"
        );

        // 1. Train the committee members on ground-truth labels.
        let train: Vec<LabeledImage> = dataset
            .train()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        let mut committee = Committee::new(config.model.members(config.seed), config.hedge_eta);
        committee.retrain(&train);

        // 2. Sample CQC's training set: crowd responses over training
        //    images (truth known).
        let mut cqc_examples = Vec::with_capacity(config.cqc_training_queries);
        for i in 0..config.cqc_training_queries {
            let img = &dataset.train()[i % dataset.train().len()];
            let context = TemporalContext::from_index(i % TemporalContext::COUNT);
            let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
            let resp = platform.submit(img, level, context);
            cqc_examples.push((resp, img.truth()));
        }
        let cqc_set =
            (!cqc_examples.is_empty()).then(|| QualityController::training_set(&cqc_examples));

        // 3. Build the incentive bandit and warm it up with observed delays
        //    from the training split (observations are free of budget).
        let mut ipd = IncentivePolicy::new(config.policy, bandit_config(&config), config.seed);
        let mut warm_i = 0usize;
        for _ in 0..config.warmup_per_cell {
            for &context in &TemporalContext::ALL {
                for &level in &IncentiveLevel::ALL {
                    let img = &dataset.train()[warm_i % dataset.train().len()];
                    warm_i += 1;
                    let resp = platform.submit(img, level, context);
                    ipd.report_delay(context, level, resp.completion_delay_secs);
                }
            }
        }

        Self {
            bootstrap_spent_cents: platform.spent_cents(),
            config,
            committee,
            platform,
            ipd,
            cqc_set,
        }
    }

    /// The booted system, with `cqc` fitted on `cqc_set`.
    fn with_cqc(self, cqc: QualityController) -> CrowdLearnSystem {
        CrowdLearnSystem {
            qss: QuerySetSelector::new(self.config.seed ^ self.config.selection.seed_salt()),
            calibrator: Calibrator::new(self.config.calibration),
            committee: self.committee,
            ipd: self.ipd,
            cqc,
            platform: self.platform,
            bootstrap_spent_cents: self.bootstrap_spent_cents,
            config: self.config,
        }
    }
}

impl CrowdLearnSystem {
    /// Boots the system: trains `config.model` on the training split, fits
    /// CQC on training-split crowd responses, and warms up the incentive
    /// bandit — exactly the three uses the paper assigns to its training
    /// set (§V-B).
    ///
    /// # Panics
    ///
    /// Panics with the message of [`CrowdLearnConfig::check`] if it rejects
    /// the configuration, or if the dataset's training split is empty.
    pub fn new(dataset: &Dataset, config: CrowdLearnConfig) -> Self {
        let platform = paper_platform(&config);
        Self::with_platform(dataset, config, platform)
    }

    /// One [`CrowdLearnSystem::new`] per `(dataset, config)` pair, in
    /// order, with every system's CQC model fitted in one
    /// [`GbdtClassifier::fit_batch`](crowdlearn_gbdt::GbdtClassifier::fit_batch):
    /// each system is the one `new` boots alone, byte for byte.
    ///
    /// # Panics
    ///
    /// Panics as [`CrowdLearnSystem::new`] does on any pair.
    pub fn new_batch<'a>(
        boots: impl IntoIterator<Item = (&'a Dataset, CrowdLearnConfig)>,
    ) -> Vec<Self> {
        Self::boot_batch(boots.into_iter().map(|(dataset, config)| {
            let platform = paper_platform(&config);
            (dataset, config, platform)
        }))
    }

    /// [`CrowdLearnSystem::new`] over an already-booted [`Platform`] — a
    /// custom delay surface or churn rate (`Platform::new` of a
    /// [`PlatformConfig`]; `new` passes the paper platform seeded with
    /// `config.platform_seed`), or an explicit worker pool
    /// ([`Platform::with_pool`]), e.g. uniform-speed populations that make
    /// crowd delays exactly equal to the delay-table means in boundary
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`CrowdLearnConfig::check`] if it rejects
    /// the configuration, or if the dataset's training split is empty.
    pub fn with_platform(dataset: &Dataset, config: CrowdLearnConfig, platform: Platform) -> Self {
        let mut systems = Self::boot_batch([(dataset, config, platform)]);
        systems
            .pop()
            .expect("invariant: the batch boots one system per boot")
    }

    /// Boots each `(dataset, config, platform)` up to its CQC fit, on the
    /// calling thread, then fits every CQC model in one batch.
    fn boot_batch<'a>(
        boots: impl IntoIterator<Item = (&'a Dataset, CrowdLearnConfig, Platform)>,
    ) -> Vec<Self> {
        let prepared: Vec<Unfitted> = boots
            .into_iter()
            .map(|(dataset, config, platform)| Unfitted::boot(dataset, config, platform))
            .collect();
        let sets: Vec<(&[Vec<f64>], &[usize])> = prepared
            .iter()
            .filter_map(|system| system.cqc_set.as_ref())
            .map(|(rows, labels)| (rows.as_slice(), labels.as_slice()))
            .collect();
        let mut fitted = QualityController::fit_batch(&sets).into_iter();
        prepared
            .into_iter()
            .map(|system| {
                let cqc = match system.cqc_set {
                    Some(_) => fitted
                        .next()
                        .expect("invariant: the batch trains one controller per set"),
                    None => QualityController::paper(),
                };
                system.with_cqc(cqc)
            })
            .collect()
    }

    /// Labeled samples the AI has been trained on so far: the training
    /// split at boot, plus every crowd-labeled sample MIC retrained it on.
    pub fn training_samples(&self) -> usize {
        self.committee.training_samples()
    }

    /// The committee's current Hedge weights.
    pub fn committee_weights(&self) -> &[f64] {
        self.committee.weights()
    }

    /// Crowd budget still available for the evaluation run, in cents.
    pub fn remaining_budget_cents(&self) -> f64 {
        self.ipd.remaining_budget_cents()
    }

    /// Removes up to `cents` from the incentive bandit's remaining budget —
    /// the fault-injection `BudgetShock` path (a sponsor pulling funds or a
    /// platform reversing a refund mid-run). Returns the amount actually
    /// clawed back; the ledger clamps at zero, and the learner's statistics
    /// are untouched, so the policy simply paces against the smaller budget
    /// from its next selection.
    ///
    /// # Panics
    ///
    /// Panics if `cents` is negative or not finite.
    pub fn clawback_budget_cents(&mut self, cents: f64) -> f64 {
        self.ipd.clawback_cents(cents)
    }

    /// Cents spent on evaluation queries so far (bootstrap spending on the
    /// training split is excluded, as in the paper).
    pub fn evaluation_spent_cents(&self) -> u64 {
        self.platform.spent_cents() - self.bootstrap_spent_cents
    }

    /// The active configuration.
    pub fn config(&self) -> &CrowdLearnConfig {
        &self.config
    }

    /// Total delay observations fed to the incentive learner so far (both
    /// the absorb path and the censored timeout path) — exposed so runtimes
    /// can assert exactly-one-observation-per-attempt accounting.
    pub fn delay_observations(&self) -> u64 {
        self.ipd.observations()
    }

    /// Appends the system's complete learning state to `out`: the config,
    /// what each committee member has learned and the Hedge weights, the QSS
    /// and platform RNGs, what the incentive bandit has learned with its
    /// budget ledger, CQC's trained model, and the bootstrap spending
    /// baseline. What `config` fixes does not travel: the members' profiles,
    /// the Hedge learning rate, the bandit's kind and problem.
    /// [`CrowdLearnSystem::decode_state`] rebuilds an equivalent system that
    /// continues byte-identically — no dataset or re-bootstrapping needed.
    ///
    /// Every system encodes; the `Result` never holds an error.
    pub fn encode_state(&self, out: &mut Vec<u8>) -> Result<(), Infallible> {
        self.config.encode(out);
        self.committee.encode_learned(out);
        self.qss.encode(out);
        self.ipd.encode_learned(out);
        self.cqc.encode(out);
        self.platform.encode(out);
        self.bootstrap_spent_cents.encode(out);
        Ok(())
    }

    /// Rebuilds a system from [`CrowdLearnSystem::encode_state`] bytes. What
    /// `config` fixes is built exactly as boot builds it — the committee
    /// `config.model` boots from `config.seed` under `config.hedge_eta`, the
    /// incentive policy `config.policy` over the config's budget and horizon
    /// — and only the learned state is restored onto it. All constructor
    /// invariants are re-checked, and state the rebuilt modules cannot hold
    /// surfaces as [`DecodeError::Invalid`] rather than a panic.
    pub fn decode_state(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = CrowdLearnConfig::decode(r)?;
        let mut committee = Committee::new(config.model.members(config.seed), config.hedge_eta);
        committee.decode_learned(r)?;
        let qss = QuerySetSelector::decode(r)?;
        let mut ipd = IncentivePolicy::new(config.policy, bandit_config(&config), config.seed);
        ipd.decode_learned(r)?;
        let cqc = QualityController::decode(r)?;
        let platform = Platform::decode(r)?;
        let bootstrap_spent_cents = u64::decode(r)?;
        Ok(Self {
            calibrator: Calibrator::new(config.calibration),
            committee,
            qss,
            ipd,
            cqc,
            platform,
            bootstrap_spent_cents,
            config,
        })
    }

    /// Starts a sensing cycle: computes (and caches) the committee's votes,
    /// runs QSS over the vote entropies, and returns the [`CycleWork`] that
    /// the other stage methods ([`CrowdLearnSystem::post_next_query`],
    /// [`CrowdLearnSystem::absorb_answer`],
    /// [`CrowdLearnSystem::finalize_cycle`]) drive to completion.
    ///
    /// The staged API exists so an event-driven runtime can interleave
    /// several cycles' crowd waits; `crowdlearn_runtime::PipelinedSystem`
    /// drives these four stages, and at an in-flight window of one it runs
    /// them back to back, each query waiting out its answer.
    pub fn start_cycle(&mut self, cycle: &SensingCycle, dataset: &Dataset) -> CycleWork {
        let images = cycle.images(dataset);

        // Expert votes are computed once per cycle and cached: final labels
        // mix these cached votes under the *updated* weights (the paper uses
        // updated weights for the current cycle's labels, but retrained
        // models only from the next cycle on). The batch path gathers the
        // cycle's visual evidence once and shares it across every member —
        // bit-identical to per-image `votes` (see `Committee::votes_batch`).
        let member_votes: Vec<Vec<ClassDistribution>> = self.committee.votes_batch(&images);
        let entropies: Vec<f64> = member_votes
            .iter()
            .map(|votes| self.committee.mix(votes).entropy())
            .collect();

        // ① QSS selects the query set.
        let picked = self.qss.select(
            self.config.selection,
            &entropies,
            self.config.queries_per_cycle,
        );

        // One answer comes back per posted pick at most, so absorbing one
        // allocates nothing.
        let answers = picked.len();
        CycleWork {
            context: cycle.context,
            member_votes,
            picked,
            next_pick: 0,
            budget_exhausted: false,
            answers: Vec::with_capacity(answers),
            query_delays: Vec::with_capacity(answers),
            spent_cents: 0,
            outstanding: 0,
        }
    }

    /// ② Posts the cycle's next crowd query: IPD chooses an incentive
    /// (charging the budget) and the platform posts the HIT. Returns `None`
    /// when the query set is exhausted or the budget cannot afford another
    /// query (remaining picks then stay AI-labeled, as in the paper).
    pub fn post_next_query(
        &mut self,
        work: &mut CycleWork,
        cycle: &SensingCycle,
        dataset: &Dataset,
    ) -> Option<PostedQuery> {
        if work.budget_exhausted || work.next_pick >= work.picked.len() {
            return None;
        }
        let Some(level) = self.ipd.choose(work.context) else {
            work.budget_exhausted = true;
            return None;
        };
        let idx = work.picked[work.next_pick];
        work.next_pick += 1;
        let images = cycle.images(dataset);
        let pending = self.platform.post(images[idx], level, work.context);
        work.outstanding += 1;
        work.spent_cents += u64::from(level.cents());
        Some(PostedQuery {
            image_index: idx,
            incentive: level,
            pending,
        })
    }

    /// Reposts an already-posted query at a (typically escalated) incentive
    /// after its HIT timed out. The cost is force-charged to the same IPD
    /// budget that [`CrowdLearnSystem::post_next_query`] draws from; returns
    /// `None` without posting when the budget cannot afford it. The original
    /// attempt keeps its outstanding slot — exactly one answer per posted
    /// query is eventually absorbed.
    pub fn repost_query(
        &mut self,
        work: &mut CycleWork,
        cycle: &SensingCycle,
        dataset: &Dataset,
        image_index: usize,
        level: IncentiveLevel,
    ) -> Option<PostedQuery> {
        assert!(work.outstanding > 0, "no outstanding query to repost");
        if !self.ipd.try_charge(level) {
            return None;
        }
        let images = cycle.images(dataset);
        let pending = self.platform.post(images[image_index], level, work.context);
        work.spent_cents += u64::from(level.cents());
        Some(PostedQuery {
            image_index,
            incentive: level,
            pending,
        })
    }

    /// Whether a crowd answer arrived in time to *offload* (replace the AI
    /// label of) its image, per `config.offload_deadline_secs`.
    pub fn answer_is_timely(&self, response: &QueryResponse) -> bool {
        self.config
            .offload_deadline_secs
            .is_none_or(|d| response.completion_delay_secs <= d)
    }

    /// ③ Absorbs one crowd answer: IPD learns the observed delay and the
    /// answer is kept as its [`AnswerTally`], which CQC distills into a
    /// truthful label distribution with the cycle's other answers when
    /// [`CrowdLearnSystem::finalize_cycle`] closes it. `timely` gates whether
    /// the answer may offload its image at finalization — a late answer still
    /// feeds weight updates and retraining (see
    /// [`CrowdLearnConfig::offload_deadline_secs`]).
    pub fn absorb_answer(
        &mut self,
        work: &mut CycleWork,
        image_index: usize,
        response: &QueryResponse,
        timely: bool,
    ) {
        assert!(work.outstanding > 0, "no outstanding query to absorb");
        work.outstanding -= 1;
        self.ipd.report_delay(
            work.context,
            response.incentive,
            response.completion_delay_secs,
        );
        work.query_delays.push(response.completion_delay_secs);
        work.answers.push(Answer {
            image: image_index,
            tally: AnswerTally::of(response),
            timely,
        });
    }

    /// ③ (late variant) Absorbs the answer of a HIT whose censored delay
    /// observation (delay = the timeout) was already fed to IPD via
    /// [`CrowdLearnSystem::observe_crowd_delay`] at the timeout instant —
    /// the runtime's out-of-attempts path. Everything except the IPD report
    /// happens as in [`CrowdLearnSystem::absorb_answer`]: the cycle's delay
    /// statistics record the *true* completion delay, and the answer still
    /// feeds CQC/MIC, but it never offloads (it is not timely).
    pub fn absorb_late_answer(
        &mut self,
        work: &mut CycleWork,
        image_index: usize,
        response: &QueryResponse,
    ) {
        assert!(work.outstanding > 0, "no outstanding query to absorb");
        work.outstanding -= 1;
        work.query_delays.push(response.completion_delay_secs);
        work.answers.push(Answer {
            image: image_index,
            tally: AnswerTally::of(response),
            timely: false,
        });
    }

    /// ③ (abandon variant) Retires one outstanding query *without* an
    /// answer: the runtime's answer-loss path, where a posted attempt is
    /// known to never come back and its censored delay observation (delay =
    /// the timeout) was already fed to IPD via
    /// [`CrowdLearnSystem::observe_crowd_delay`]. The image keeps its AI
    /// label at finalization exactly like a never-posted image — no delay
    /// statistic, no truthful inference, no weight update from this query.
    ///
    /// # Panics
    ///
    /// Panics if no query is outstanding.
    pub fn abandon_query(&mut self, work: &mut CycleWork) {
        assert!(work.outstanding > 0, "no outstanding query to abandon");
        work.outstanding -= 1;
    }

    /// Feeds a delay observation to IPD outside the absorb path — used by
    /// the runtime to report a censored observation (delay = the timeout)
    /// for a HIT that was abandoned and reposted.
    pub fn observe_crowd_delay(
        &mut self,
        context: TemporalContext,
        incentive: IncentiveLevel,
        delay_secs: f64,
    ) {
        self.ipd.report_delay(context, incentive, delay_secs);
    }

    /// Expected algorithm delay of a cycle (committee inference + module
    /// overhead) — what an event-driven runtime schedules `InferenceDone`
    /// with. Matches the `algorithm_delay_secs` the finalized
    /// [`CycleOutcome`] reports.
    pub fn algorithm_delay_secs(&self, batch: usize, cycle_index: u64) -> f64 {
        self.committee.execution_delay_secs(batch, cycle_index) + self.config.module_overhead_secs
    }

    /// ④ Finalizes a drained cycle: CQC scores every absorbed answer's
    /// tally in one batched pass ([`QualityController::infer_batch`]), MIC
    /// updates the Hedge weights from the Eq. 5 losses, final labels are
    /// assembled (crowd answers offloading the timely-answered queries), and
    /// the committee retrains for the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if posted queries are still outstanding.
    pub fn finalize_cycle(
        &mut self,
        work: CycleWork,
        cycle: &SensingCycle,
        dataset: &Dataset,
    ) -> CycleOutcome {
        assert_eq!(
            work.outstanding, 0,
            "cannot finalize a cycle with outstanding queries"
        );
        let images = cycle.images(dataset);
        let CycleWork {
            member_votes,
            answers,
            query_delays,
            spent_cents,
            ..
        } = work;

        // ③ CQC: the truthful-label distribution of every answer, in absorb
        // order, scored together.
        let mut distributions = vec![ClassDistribution::uniform(); answers.len()];
        let tallies = answers.iter().map(|answer| &answer.tally);
        self.cqc.infer_batch(tallies, &mut distributions);
        let truthful = || answers.iter().zip(&distributions);

        // ④ MIC: Hedge weight update from the Eq. 5 losses, scored on the
        // votes cached at `start_cycle` — under an inflight window > 1 an
        // overlapping cycle's retrain may already have landed, and the
        // committee must be judged on the votes that produced this cycle's
        // labels, not on re-predictions from a newer model.
        if self.calibrator.config().update_weights && !answers.is_empty() {
            let queried: Vec<QueriedImage<'_>> = truthful()
                .map(|(answer, dist)| QueriedImage {
                    image: images[answer.image],
                    member_votes: &member_votes[answer.image],
                    truthful: dist.clone(),
                })
                .collect();
            let losses = self.calibrator.expert_losses(&self.committee, &queried);
            self.committee.update_weights(&losses);
        }

        // Final labels: committee vote under updated weights, with crowd
        // offloading overriding the query set.
        let mut outcomes = Vec::with_capacity(images.len());
        for (i, img) in images.iter().enumerate() {
            let ai_vote = self.committee.mix(&member_votes[i]);
            let offloaded = truthful()
                .find(|(answer, _)| answer.image == i)
                .filter(|(answer, _)| answer.timely && self.calibrator.offloads(&ai_vote))
                .map(|(_, dist)| dist);
            let distribution = offloaded.cloned().unwrap_or(ai_vote);
            outcomes.push(ImageOutcome {
                image: img.id(),
                truth: img.truth(),
                predicted: distribution.argmax(),
                distribution,
                queried: answers.iter().any(|answer| answer.image == i),
            });
        }

        // ④ (continued) MIC: retrain the committee for the next cycle.
        let samples = self
            .calibrator
            .retrain_samples(truthful().map(|(answer, dist)| (images[answer.image], dist)));
        if !samples.is_empty() {
            self.committee.retrain(&samples);
        }

        let algorithm_delay_secs = self
            .committee
            .execution_delay_secs(images.len(), cycle.index as u64)
            + self.config.module_overhead_secs;
        let crowd_delay_secs = if query_delays.is_empty() {
            None
        } else {
            Some(query_delays.iter().sum::<f64>() / query_delays.len() as f64)
        };

        CycleOutcome {
            cycle: cycle.index,
            context: cycle.context,
            images: outcomes,
            algorithm_delay_secs,
            crowd_delay_secs,
            query_delay_secs: query_delays,
            spent_cents,
        }
    }
}

/// The incentive bandit's problem: one action per incentive level, one
/// context per temporal context, the run's budget and query horizon. The
/// paper's temporal contexts are uniform by construction (10 cycles each),
/// so the bandit is told so; otherwise the block ordering of contexts would
/// poison its empirical estimate.
fn bandit_config(config: &CrowdLearnConfig) -> BanditConfig {
    BanditConfig::new(
        TemporalContext::COUNT,
        IncentiveLevel::costs(),
        config.budget_cents,
        config.horizon_queries,
    )
    .with_context_distribution(vec![
        1.0 / TemporalContext::COUNT as f64;
        TemporalContext::COUNT
    ])
}

impl std::fmt::Debug for CrowdLearnSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrowdLearnSystem")
            .field("config", &self.config)
            .field("committee", &self.committee)
            .field("remaining_budget_cents", &self.remaining_budget_cents())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_bandit::{ExpWeights, UcbAlp};
    use crowdlearn_dataset::{DatasetConfig, SensingCycleStream};

    #[test]
    fn start_cycle_caches_bit_exact_scalar_votes() {
        // The cached `CycleWork::member_votes` now come from the batch path;
        // they must carry the exact bits of the per-image `Committee::votes`
        // (everything downstream — QSS ranking, Eq. 5 losses, final labels —
        // reads these).
        let dataset = Dataset::generate(&DatasetConfig::paper());
        let stream = SensingCycleStream::paper(&dataset);
        let mut system = CrowdLearnSystem::new(&dataset, CrowdLearnConfig::paper());
        let cycle = stream.iter().next().expect("paper stream has cycles");
        let work = system.start_cycle(cycle, &dataset);
        for (img, cached) in cycle.images(&dataset).iter().zip(&work.member_votes) {
            let scalar = system.committee.votes(img);
            assert_eq!(cached.len(), scalar.len());
            for (c, s) in cached.iter().zip(&scalar) {
                for (pc, ps) in c.probs().iter().zip(s.probs()) {
                    assert_eq!(pc.to_bits(), ps.to_bits());
                }
            }
        }
    }

    /// A live cycle whose answers are absorbed decodes to itself, and its
    /// decoder refuses a tally no response has: the answer's bytes are
    /// found on the wire as its image index followed by its tally.
    #[test]
    fn cycle_work_decode_refuses_a_tally_no_answer_has() {
        let dataset = Dataset::generate(&DatasetConfig::paper());
        let stream = SensingCycleStream::paper(&dataset);
        let mut config = CrowdLearnConfig::paper();
        config.cqc_training_queries = 50;
        config.warmup_per_cell = 1;
        let mut system = CrowdLearnSystem::new(&dataset, config);
        let cycle = stream.iter().next().expect("paper stream has cycles");
        let mut work = system.start_cycle(cycle, &dataset);
        while let Some(posted) = system.post_next_query(&mut work, cycle, &dataset) {
            let response = posted.pending.into_response();
            system.absorb_answer(&mut work, posted.image_index, &response, true);
        }
        assert_eq!(work.answers_absorbed(), 5);
        let bytes = work.to_bytes();
        let decoded = CycleWork::from_bytes(&bytes).expect("round trip");
        assert_eq!(decoded.answers, work.answers);
        assert_eq!(decoded.to_bytes(), bytes);

        let answer = work.answers[2];
        let needle = [
            (answer.image as u64).to_le_bytes().as_slice(),
            &answer.tally.to_bytes(),
        ]
        .concat();
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("the answer is on the wire")
            + 8;
        // The tally's wire form: three vote counts, five "yes" counts, the
        // incentive level's index.
        let workers: u8 = bytes[at..at + 3].iter().sum();
        let cases: [(&str, usize, u8); 5] = [
            ("no workers: no votes", at, 0),
            ("a yes count above the workers", at + 3, workers + 1),
            ("the last yes count above the workers", at + 7, u8::MAX),
            ("an incentive level past the last", at + 8, 7),
            ("an incentive level far out of range", at + 8, u8::MAX),
        ];
        for (name, offset, value) in cases {
            let mut corrupt = bytes.clone();
            if offset == at {
                corrupt[at..at + 3].fill(value);
            } else {
                corrupt[offset] = value;
            }
            assert_eq!(
                CycleWork::from_bytes(&corrupt).map(|w| w.answers_absorbed()),
                Err(DecodeError::Invalid),
                "{name}"
            );
        }
    }

    #[test]
    fn state_codec_rejects_truncation() {
        let dataset = Dataset::generate(&DatasetConfig::paper());
        let mut config = CrowdLearnConfig::paper();
        config.cqc_training_queries = 50;
        config.warmup_per_cell = 1;
        let system = CrowdLearnSystem::new(&dataset, config);
        let mut bytes = Vec::new();
        system.encode_state(&mut bytes).expect("checkpointable");
        let truncated = &bytes[..bytes.len() / 2];
        assert!(CrowdLearnSystem::decode_state(&mut Reader::new(truncated)).is_err());
    }

    #[test]
    fn decode_refuses_a_committee_or_learned_state_its_config_does_not_boot() {
        let dataset = Dataset::generate(&DatasetConfig::paper());
        let config = |edit: fn(&mut CrowdLearnConfig)| {
            let mut config = CrowdLearnConfig::paper();
            config.cqc_training_queries = 50;
            config.warmup_per_cell = 1;
            edit(&mut config);
            config
        };
        let boot = |edit: fn(&mut CrowdLearnConfig)| {
            let config = config(edit);
            let mut state = Vec::new();
            CrowdLearnSystem::new(&dataset, config.clone())
                .encode_state(&mut state)
                .expect("checkpointable");
            (config.to_bytes().len(), state)
        };
        let decodes = |state: &[u8]| CrowdLearnSystem::decode_state(&mut Reader::new(state));
        let (prefix, state) = boot(|_| {});
        assert!(decodes(&state).is_ok());
        // The other system's config (the first field of its state) over
        // this system's three-expert committee: a single-model and a
        // boosted-Ensemble config.
        let edits: [fn(&mut CrowdLearnConfig); 2] =
            [|c| c.model = Model::Ddm, |c| c.model = Model::Ensemble];
        for edit in edits {
            let (other_prefix, other) = boot(edit);
            let mut spliced = other[..other_prefix].to_vec();
            spliced.extend_from_slice(&state[prefix..]);
            assert!(matches!(decodes(&spliced), Err(DecodeError::Invalid)));
        }

        // Learned state the modules rebuilt from the config cannot hold,
        // written in place of the booted system's own.
        let system = CrowdLearnSystem::new(&dataset, config(|_| {}));
        type Writer<'a> = &'a dyn Fn(&mut Vec<u8>);
        let state_with = |committee: Writer<'_>, ipd: Writer<'_>| {
            let mut out = Vec::new();
            system.config.encode(&mut out);
            committee(&mut out);
            system.qss.encode(&mut out);
            ipd(&mut out);
            system.cqc.encode(&mut out);
            system.platform.encode(&mut out);
            system.bootstrap_spent_cents.encode(&mut out);
            out
        };
        let own_committee = |out: &mut Vec<u8>| system.committee.encode_learned(out);
        let own_ipd = |out: &mut Vec<u8>| system.ipd.encode_learned(out);
        assert!(decodes(&state_with(&own_committee, &own_ipd)).is_ok());
        let two_weights = |out: &mut Vec<u8>| {
            // The Hedge state ends the committee's: three weights (a length
            // and 3 × 8 B) and the round counter.
            let start = out.len();
            system.committee.encode_learned(out);
            out.truncate(out.len() - (8 + 3 * 8 + 8));
            assert!(out.len() > start);
            ExpWeights::new(2, 0.1).encode_learned(out);
        };
        let two_actions = |out: &mut Vec<u8>| {
            let two = BanditConfig::new(TemporalContext::COUNT, vec![1.0, 2.0], 1000.0, 200);
            UcbAlp::new(two, 0).encode_learned(out);
            0u64.encode(out);
        };
        let twice_the_budget = |out: &mut Vec<u8>| {
            let rich = config(|c| c.budget_cents *= 2.0);
            IncentivePolicy::new(rich.policy, bandit_config(&rich), rich.seed).encode_learned(out);
        };
        let cases: [(&str, Writer<'_>, Writer<'_>); 3] = [
            ("Hedge weights for two experts", &two_weights, &own_ipd),
            (
                "bandit tables for two incentives",
                &own_committee,
                &two_actions,
            ),
            (
                "a remaining budget above the config's",
                &own_committee,
                &twice_the_budget,
            ),
        ];
        for (what, committee, ipd) in cases {
            assert!(
                matches!(
                    decodes(&state_with(committee, ipd)),
                    Err(DecodeError::Invalid)
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn check_agrees_with_the_snapshot_decoder() {
        let paper = CrowdLearnConfig::paper();
        let mut cases = vec![
            paper.clone(),
            CrowdLearnConfig {
                horizon_queries: 0,
                ..paper.clone()
            },
            CrowdLearnConfig::ai_only(Model::Vgg16),
            CrowdLearnConfig::ai_only(Model::Bovw),
            CrowdLearnConfig::ai_only(Model::Ddm),
            CrowdLearnConfig::ai_only(Model::Ensemble),
            CrowdLearnConfig::hybrid_al(),
            CrowdLearnConfig::hybrid_para(),
        ];
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 0.2] {
            let with = |edit: fn(&mut CrowdLearnConfig, f64)| {
                let mut c = paper.clone();
                edit(&mut c, x);
                c
            };
            cases.extend([
                with(|c, x| c.selection = Selection::Entropy { epsilon: x }),
                with(|c, x| c.hedge_eta = x),
                with(|c, x| c.budget_cents = x),
                with(|c, x| c.module_overhead_secs = x),
                with(|c, x| c.offload_deadline_secs = Some(x)),
            ]);
        }
        for config in &cases {
            let decoded = CrowdLearnConfig::from_bytes(&config.to_bytes());
            assert_eq!(
                config.check().is_ok(),
                decoded.is_ok(),
                "{config:?}: check {:?}, decode {decoded:?}",
                config.check()
            );
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn invalid_epsilon_rejected() {
        let dataset = Dataset::generate(&DatasetConfig::paper());
        CrowdLearnSystem::new(&dataset, CrowdLearnConfig::paper().with_epsilon(2.0));
    }
}
