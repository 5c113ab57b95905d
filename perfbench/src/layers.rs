//! Calls into each layer's public functions, with optional spans around
//! them: the stage-API replay of one run, the boot's parts rebuilt from
//! the same public constructors the boot uses, and per-call costs of the
//! committee, bandit, platform and CQC on those rebuilt parts.

use crate::trace::Tracer;
use crowdlearn::{Committee, CrowdLearnConfig, CrowdLearnSystem, CycleOutcome, QualityController};
use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
use crowdlearn_classifiers::{profiles, Classifier};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig, QueryResponse};
use crowdlearn_dataset::{Dataset, LabeledImage, SensingCycleStream, TemporalContext};
use crowdlearn_runtime::PipelinedSystem;
use serde::binary::Reader;

/// Opens a span when tracing.
fn begin(tracer: &mut Option<&mut Tracer>, name: &'static str) {
    if let Some(t) = tracer {
        t.begin(name);
    }
}

/// Closes the innermost span when tracing.
fn end(tracer: &mut Option<&mut Tracer>) {
    if let Some(t) = tracer {
        t.end();
    }
}

/// The learned state of a booted system's modules, as bytes.
pub fn system_state(system: &PipelinedSystem) -> Vec<u8> {
    let mut out = Vec::new();
    system
        .system()
        .encode_state(&mut out)
        .expect("paper systems encode");
    out
}

/// A fresh system decoded from [`system_state`] bytes.
pub fn decode_system(state: &[u8]) -> CrowdLearnSystem {
    CrowdLearnSystem::decode_state(&mut Reader::new(state)).expect("state decodes")
}

/// One crowd query of a replay, kept for the per-call layer costs.
pub struct Query {
    /// Cycle index in the stream.
    pub cycle: usize,
    /// Image index within the cycle.
    pub image: usize,
    /// The cycle's temporal context.
    pub context: TemporalContext,
    /// The incentive paid.
    pub incentive: IncentiveLevel,
    /// The workers' answer.
    pub response: QueryResponse,
}

/// Replays a whole stream through the public stage API in window-1 order
/// (every answer awaited before the next post), which is exactly what the
/// runtime does under `WindowPolicy::Static(1)`. Spans go around each
/// stage call when `tracer` is given; posted queries land in `queries`.
pub fn stage_replay(
    system: &mut CrowdLearnSystem,
    dataset: &Dataset,
    stream: &SensingCycleStream,
    mut tracer: Option<&mut Tracer>,
    mut queries: Option<&mut Vec<Query>>,
) -> Vec<CycleOutcome> {
    let mut outcomes = Vec::with_capacity(stream.cycles().len());
    for cycle in stream.cycles() {
        begin(&mut tracer, "core.start_cycle");
        let mut work = system.start_cycle(cycle, dataset);
        end(&mut tracer);
        loop {
            begin(&mut tracer, "core.post_next_query");
            let posted = system.post_next_query(&mut work, cycle, dataset);
            end(&mut tracer);
            let Some(posted) = posted else { break };
            let response = posted.pending.into_response();
            let timely = system.answer_is_timely(&response);
            begin(&mut tracer, "core.absorb_answer");
            system.absorb_answer(&mut work, posted.image_index, &response, timely);
            end(&mut tracer);
            if let Some(q) = queries.as_deref_mut() {
                q.push(Query {
                    cycle: cycle.index,
                    image: posted.image_index,
                    context: cycle.context,
                    incentive: posted.incentive,
                    response,
                });
            }
        }
        begin(&mut tracer, "core.finalize_cycle");
        outcomes.push(system.finalize_cycle(work, cycle, dataset));
        end(&mut tracer);
    }
    outcomes
}

/// The boot's parts, rebuilt from the public constructors
/// `CrowdLearnSystem::new` uses, in its order and with its seeds.
pub struct BootParts {
    /// The trained committee.
    pub committee: Committee,
    /// The platform after the CQC sample and the bandit warm-up.
    pub platform: Platform,
    /// The fitted quality controller.
    pub cqc: QualityController,
    /// The warmed-up incentive bandit.
    pub bandit: UcbAlp,
}

/// Rebuilds the boot of a paper system on `dataset` part by part inside a
/// `core.boot_rebuilt` span, with a span around each part:
/// `classifiers.train`, `crowd.cqc_sample`, `gbdt.cqc_fit` and
/// `bandit.warmup`.
pub fn boot_parts(dataset: &Dataset, tracer: &mut Tracer) -> BootParts {
    tracer.begin("core.boot_rebuilt");
    let config = CrowdLearnConfig::paper();
    let train_split = dataset.train();

    tracer.begin("classifiers.train");
    let train: Vec<LabeledImage> = train_split
        .iter()
        .cloned()
        .map(LabeledImage::ground_truth)
        .collect();
    let members: Vec<Box<dyn Classifier>> = profiles::paper_committee(config.seed)
        .into_iter()
        .map(|mut e| {
            e.retrain(&train);
            Box::new(e) as Box<dyn Classifier>
        })
        .collect();
    let committee = Committee::new(members, config.hedge_eta);
    tracer.end();

    tracer.begin("crowd.cqc_sample");
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(config.platform_seed));
    let examples: Vec<_> = (0..config.cqc_training_queries)
        .map(|i| {
            let img = &train_split[i % train_split.len()];
            let context = TemporalContext::from_index(i % TemporalContext::COUNT);
            let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
            (platform.submit(img, level, context), img.truth())
        })
        .collect();
    tracer.end();

    tracer.begin("gbdt.cqc_fit");
    let mut cqc = QualityController::paper();
    cqc.train(&examples);
    tracer.end();

    tracer.begin("bandit.warmup");
    let bandit_config = BanditConfig::new(
        TemporalContext::COUNT,
        IncentiveLevel::costs(),
        config.budget_cents,
        config.horizon_queries,
    )
    .with_context_distribution(vec![
        1.0 / TemporalContext::COUNT as f64;
        TemporalContext::COUNT
    ]);
    let mut bandit = UcbAlp::new(bandit_config, config.seed ^ 0xa1);
    let normalizer = crowdlearn::PayoffNormalizer::paper();
    let mut warm_i = 0usize;
    for _ in 0..config.warmup_per_cell {
        for &context in &TemporalContext::ALL {
            for &level in &IncentiveLevel::ALL {
                let img = &train_split[warm_i % train_split.len()];
                warm_i += 1;
                let resp = platform.submit(img, level, context);
                bandit.observe(
                    context.index(),
                    level.index(),
                    normalizer.payoff(resp.completion_delay_secs),
                );
            }
        }
    }
    tracer.end();
    tracer.end();

    BootParts {
        committee,
        platform,
        cqc,
        bandit,
    }
}

/// Per-call costs on the rebuilt parts, replaying one run's calls: the
/// committee's `votes_batch` per cycle, then per query the bandit's
/// `select` (fed the observed payoff after), the platform's `post`, and
/// CQC's `infer` on the answer the run absorbed.
pub fn call_costs(
    parts: &mut BootParts,
    dataset: &Dataset,
    stream: &SensingCycleStream,
    queries: &[Query],
    tracer: &mut Tracer,
) {
    let normalizer = crowdlearn::PayoffNormalizer::paper();
    for cycle in stream.cycles() {
        let images = cycle.images(dataset);
        tracer.span("classifiers.votes_batch", || {
            std::hint::black_box(parts.committee.votes_batch(&images))
        });
    }
    for q in queries {
        let context = q.context.index();
        tracer.span("bandit.select", || {
            std::hint::black_box(parts.bandit.select(context))
        });
        parts.bandit.observe(
            context,
            q.incentive.index(),
            normalizer.payoff(q.response.completion_delay_secs),
        );
        let image = stream.cycles()[q.cycle].images(dataset)[q.image];
        tracer.span("crowd.post", || {
            std::hint::black_box(parts.platform.post(image, q.incentive, q.context))
        });
        tracer.span("gbdt.cqc_infer", || {
            std::hint::black_box(parts.cqc.infer(&q.response))
        });
    }
}
