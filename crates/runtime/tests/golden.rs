//! Golden equivalence: the event runtime at an in-flight window of one
//! (`RuntimeConfig::sequential`) must reproduce a plain stage-by-stage loop
//! *exactly* — the same per-image labels and distributions, delays, spend,
//! and committee weights after every cycle — and that loop's analytic
//! makespan, across the configurations the experiments run. The reference
//! loop lives here, test-only: the runtime is the one public way to run a
//! stream.

use crowdlearn::{
    CalibratorConfig, CrowdLearnConfig, CrowdLearnSystem, CycleOutcome, IncentivePolicyKind, Model,
};
use crowdlearn_crowd::{DelayModel, IncentiveLevel, PlatformConfig};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{MetricsTap, PipelinedSystem, RuntimeConfig, RuntimeReport};

/// The reference: the core stages composed back to back, each query
/// waiting out its answer before the next posts. Returns every cycle's
/// outcome and the committee weights after it, plus the system.
fn reference_run(
    mut system: CrowdLearnSystem,
    dataset: &Dataset,
    stream: &SensingCycleStream,
) -> (Vec<CycleOutcome>, Vec<Vec<f64>>, CrowdLearnSystem) {
    let mut outcomes = Vec::new();
    let mut weights = Vec::new();
    for cycle in stream {
        let mut work = system.start_cycle(cycle, dataset);
        while let Some(posted) = system.post_next_query(&mut work, cycle, dataset) {
            let response = posted.pending.into_response();
            let timely = system.answer_is_timely(&response);
            system.absorb_answer(&mut work, posted.image_index, &response, timely);
        }
        outcomes.push(system.finalize_cycle(work, cycle, dataset));
        weights.push(system.committee_weights().to_vec());
    }
    (outcomes, weights, system)
}

/// The reference loop's virtual-time makespan: each cycle starts at the
/// later of its arrival and its predecessor's completion, then serially
/// waits out inference plus every crowd answer (the exact per-query sum).
fn reference_makespan_secs(outcomes: &[CycleOutcome], cycle_period_secs: f64) -> f64 {
    let mut t = 0.0f64;
    for (k, outcome) in outcomes.iter().enumerate() {
        let arrival = k as f64 * cycle_period_secs;
        let crowd_sum: f64 = outcome.query_delay_secs.iter().sum();
        t = arrival.max(t) + outcome.algorithm_delay_secs + crowd_sum;
    }
    t
}

/// The runtime at window one, with the committee weights recorded each
/// time a cycle closes.
fn runtime_run(
    system: CrowdLearnSystem,
    dataset: &Dataset,
    stream: &SensingCycleStream,
) -> (RuntimeReport, Vec<Vec<f64>>, PipelinedSystem) {
    let mut pipelined = PipelinedSystem::from_system(system, RuntimeConfig::sequential());
    pipelined.attach_metrics_tap(MetricsTap::new());
    let mut weights = Vec::new();
    while pipelined.step(dataset, stream) {
        let closed = pipelined.metrics_tap().map_or(0, MetricsTap::cycles_closed);
        if closed as usize > weights.len() {
            weights.push(pipelined.system().committee_weights().to_vec());
        }
    }
    let run = pipelined.run(dataset, stream);
    (run, weights, pipelined)
}

/// Morning/afternoon HITs ~2400 s, evening/midnight ~60 s: the `adaptive`
/// bench's bursty crowd.
fn bursty_platform(config: &CrowdLearnConfig) -> PlatformConfig {
    let day = [2400.0; IncentiveLevel::COUNT];
    let night = [60.0; IncentiveLevel::COUNT];
    PlatformConfig::paper()
        .with_seed(config.platform_seed)
        .with_delay_model(DelayModel::from_table([day, day, night, night], 0.18))
}

struct Case {
    name: &'static str,
    dataset: Dataset,
    stream: SensingCycleStream,
    config: CrowdLearnConfig,
    platform: PlatformConfig,
}

fn cases() -> Vec<Case> {
    let paper = Dataset::generate(&DatasetConfig::paper());
    let drifted = Dataset::generate(&DatasetConfig::paper().with_family_drift(true));
    // The small fixture of `tests/properties.rs`: 6 cycles of 4 images, a
    // cheap boot.
    let mut small = CrowdLearnConfig::paper();
    small.cqc_training_queries = 200;
    small.warmup_per_cell = 2;
    let calibration = |update_weights| {
        small.clone().with_calibration(CalibratorConfig {
            update_weights,
            ..CalibratorConfig::paper()
        })
    };
    let small_cases = [
        ("small", &paper, small.clone()),
        ("budget 0", &paper, small.clone().with_budget_cents(0.0)),
        ("budget 200", &paper, small.clone().with_budget_cents(200.0)),
        ("0 queries", &paper, small.clone().with_queries_per_cycle(0)),
        ("8 queries", &paper, small.clone().with_queries_per_cycle(8)),
        (
            "deadline 1 s",
            &paper,
            small.clone().with_offload_deadline_secs(Some(1.0)),
        ),
        (
            "epsilon-greedy",
            &paper,
            small
                .clone()
                .with_policy(IncentivePolicyKind::EpsilonGreedy),
        ),
        (
            "fixed max",
            &paper,
            small.clone().with_policy(IncentivePolicyKind::FixedMax),
        ),
        (
            "random",
            &paper,
            small.clone().with_policy(IncentivePolicyKind::Random),
        ),
        ("no Hedge", &paper, calibration(false)),
        ("drifted dataset", &drifted, small.clone()),
    ];
    let mut cases: Vec<Case> = small_cases
        .into_iter()
        .map(|(name, dataset, config)| Case {
            name,
            stream: SensingCycleStream::new(dataset, 6, 4),
            dataset: dataset.clone(),
            platform: PlatformConfig::paper().with_seed(config.platform_seed),
            config,
        })
        .collect();
    cases.push(Case {
        name: "bursty platform",
        stream: SensingCycleStream::new(&paper, 6, 4),
        dataset: paper.clone(),
        platform: bursty_platform(&small),
        config: small,
    });
    // The paper configuration and its six competitors, on the paper stream.
    let paper_cases = [
        ("paper", CrowdLearnConfig::paper()),
        ("VGG16", CrowdLearnConfig::ai_only(Model::Vgg16)),
        ("BoVW", CrowdLearnConfig::ai_only(Model::Bovw)),
        ("DDM", CrowdLearnConfig::ai_only(Model::Ddm)),
        ("Ensemble", CrowdLearnConfig::ai_only(Model::Ensemble)),
        ("Hybrid-Para", CrowdLearnConfig::hybrid_para()),
        ("Hybrid-AL", CrowdLearnConfig::hybrid_al()),
    ];
    cases.extend(paper_cases.into_iter().map(|(name, config)| Case {
        name,
        stream: SensingCycleStream::paper(&paper),
        platform: PlatformConfig::paper().with_seed(config.platform_seed),
        dataset: paper.clone(),
        config,
    }));
    cases
}

#[test]
fn window_one_reproduces_the_reference_loop_byte_for_byte() {
    for case in cases() {
        let boot = || {
            CrowdLearnSystem::with_platform_config(
                &case.dataset,
                case.config.clone(),
                case.platform.clone(),
            )
        };
        let name = case.name;
        let (outcomes, weights, reference) = reference_run(boot(), &case.dataset, &case.stream);
        let (run, run_weights, pipelined) = runtime_run(boot(), &case.dataset, &case.stream);

        // CycleOutcome equality covers every per-image label, the full
        // class distributions, the delays, and the cents spent.
        assert_eq!(run.outcomes.len(), outcomes.len(), "{name}");
        for (runtime_outcome, reference_outcome) in run.outcomes.iter().zip(&outcomes) {
            assert_eq!(
                runtime_outcome, reference_outcome,
                "{name}: cycle {} diverged from the reference loop",
                reference_outcome.cycle
            );
        }
        assert_eq!(run_weights, weights, "{name}: committee weights diverged");
        let system = pipelined.system();
        assert_eq!(
            system.remaining_budget_cents().to_bits(),
            reference.remaining_budget_cents().to_bits(),
            "{name}"
        );
        assert_eq!(
            system.evaluation_spent_cents(),
            reference.evaluation_spent_cents(),
            "{name}"
        );

        // The runtime sums a cycle's waits as they happen, the reference
        // per cycle: equal up to the last bits.
        let expected = reference_makespan_secs(&outcomes, RuntimeConfig::CYCLE_PERIOD_SECS);
        assert!(
            (run.makespan_secs - expected).abs() < 1e-6 * expected.max(1.0),
            "{name}: window-1 makespan {} vs reference {expected}",
            run.makespan_secs
        );
        assert_eq!(run.peak_cycles_in_flight, 1, "{name}");
        assert!(run.peak_hits_in_flight <= 1, "{name}");
        assert_eq!(run.timeouts, 0, "{name}");
    }
}

#[test]
fn pipelining_beats_the_reference_makespan() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);

    let mut pipelined =
        PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), RuntimeConfig::paper());
    let run = pipelined.run(&dataset, &stream);

    // The reference: same outcomes, waits serialized.
    let (outcomes, _, _) = reference_run(
        CrowdLearnSystem::new(&dataset, CrowdLearnConfig::paper()),
        &dataset,
        &stream,
    );
    let blocking_makespan = reference_makespan_secs(&outcomes, RuntimeConfig::CYCLE_PERIOD_SECS);

    assert!(
        run.makespan_secs < blocking_makespan,
        "pipelined makespan {} should beat blocking {}",
        run.makespan_secs,
        blocking_makespan
    );
    assert!(
        run.peak_cycles_in_flight > 1,
        "window 4 should overlap cycles"
    );
    assert_eq!(run.outcomes.len(), 40);
}

#[test]
fn pipelined_runs_are_deterministic() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);
    let run = |window: usize| {
        let mut system = PipelinedSystem::new(
            &dataset,
            CrowdLearnConfig::paper(),
            RuntimeConfig::paper().with_inflight_window(window),
        );
        system.run(&dataset, &stream)
    };
    let (a, b) = (run(4), run(4));
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.makespan_secs, b.makespan_secs);
    assert_eq!(a.events_processed, b.events_processed);
}
