//! Failure-injection integration tests: the system must degrade gracefully,
//! never panic, under hostile or degenerate conditions.

use crowdlearn::{CalibratorConfig, CrowdLearnConfig};
use crowdlearn_classifiers::{profiles, Classifier};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig, Worker, WorkerPool};
use crowdlearn_dataset::{
    visual_layout, DamageLabel, Dataset, DatasetConfig, ImageAttribute, ImageId,
    SensingCycleStream, SyntheticImage, TemporalContext,
};
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};
use crowdlearn_truth::WorkerId;

/// Boots the system under `config` for a sequential run.
fn sequential(dataset: &Dataset, config: CrowdLearnConfig) -> PipelinedSystem {
    PipelinedSystem::new(dataset, config, RuntimeConfig::sequential())
}

#[test]
fn zero_budget_still_labels_everything() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);
    let mut system = sequential(&dataset, CrowdLearnConfig::paper().with_budget_cents(0.0));
    let report = system.run(&dataset, &stream).report;
    assert_eq!(report.confusion.total(), 400);
    assert_eq!(report.spent_cents, 0);
    assert_eq!(report.queries_issued, 0);
    // Without crowd help, accuracy falls back to committee level.
    assert!(report.accuracy() > 0.7);
}

#[test]
fn all_calibration_disabled_is_a_pure_committee() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);
    let mut system = sequential(
        &dataset,
        CrowdLearnConfig::paper().with_calibration(CalibratorConfig::disabled()),
    );
    let report = system.run(&dataset, &stream).report;
    // Queries are still issued (and paid for) but nothing is used.
    assert!(report.spent_cents > 0);
    // Weights must remain uniform.
    for &w in system.system().committee_weights() {
        assert!((w - 1.0 / 3.0).abs() < 1e-9);
    }
}

#[test]
fn adversarial_worker_pool_degrades_but_does_not_crash() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let adversaries: Vec<Worker> = (0..40)
        .map(|i| Worker::from_traits(WorkerId(i), 0.05, 1.0, [1.0; 4]))
        .collect();
    let mut platform = Platform::with_pool(
        PlatformConfig::paper().with_seed(3),
        WorkerPool::from_workers(adversaries),
    );
    // Labels from a hostile crowd are mostly wrong.
    let mut wrong = 0usize;
    let mut total = 0usize;
    for img in dataset.test().iter().take(60) {
        let resp = platform.submit(img, IncentiveLevel::C10, TemporalContext::Evening);
        for r in &resp.responses {
            total += 1;
            wrong += usize::from(r.label != img.truth());
        }
    }
    assert!(wrong as f64 / total as f64 > 0.6);
}

/// Builds a hand-crafted deceptive image (strong fake-severe visuals).
fn handcrafted_fake(id: u32) -> SyntheticImage {
    let mut visual = vec![0.0; visual_layout::VISUAL_DIM];
    for family in 0..visual_layout::FAMILIES {
        for k in 0..visual_layout::BLOCK {
            visual[visual_layout::dim(family, DamageLabel::Severe.index(), k)] = 1.6;
        }
    }
    let mut contextual = vec![0.05; SyntheticImage::CONTEXTUAL_DIM];
    contextual[DamageLabel::NoDamage.index()] = 0.9;
    contextual[DamageLabel::COUNT + 1] = 0.9; // "fake" attribute cue
    SyntheticImage::from_latents(
        ImageId(id),
        DamageLabel::NoDamage,
        ImageAttribute::Fake,
        DamageLabel::Severe,
        false,
        visual,
        contextual,
    )
}

#[test]
fn committee_is_confidently_fooled_by_handcrafted_fakes() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let train: Vec<_> = dataset
        .train()
        .iter()
        .cloned()
        .map(crowdlearn_dataset::LabeledImage::ground_truth)
        .collect();
    for mut expert in profiles::paper_committee(1) {
        expert.retrain(&train);
        let vote = expert.predict(&handcrafted_fake(7000));
        assert_eq!(
            vote.argmax(),
            DamageLabel::Severe,
            "{} must read the fake at face value",
            expert.name()
        );
        assert!(vote.max_prob() > 0.8, "{}: {vote}", expert.name());
        // And the entropy must be LOW — the failure QSS's entropy ranking
        // cannot see, motivating epsilon-greedy.
        assert!(
            vote.entropy() < 0.4,
            "{}: entropy {}",
            expert.name(),
            vote.entropy()
        );
    }
}

#[test]
fn single_expert_committee_works() {
    use crowdlearn::Committee;
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let train: Vec<_> = dataset
        .train()
        .iter()
        .cloned()
        .map(crowdlearn_dataset::LabeledImage::ground_truth)
        .collect();
    let mut solo = profiles::ddm(0);
    solo.retrain(&train);
    let committee = Committee::new(vec![Box::new(solo)], 0.3);
    assert_eq!(committee.len(), 1);
    let vote = committee.committee_vote(&dataset.test()[0]);
    assert!((vote.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert_eq!(committee.weights(), &[1.0]);
}

#[test]
fn tiny_stream_and_tiny_dataset_work() {
    let dataset = Dataset::generate(
        &DatasetConfig::paper()
            .with_total(120)
            .with_train_count(60)
            .with_seed(5),
    );
    let stream = SensingCycleStream::new(&dataset, 4, 5);
    let mut system = sequential(
        &dataset,
        CrowdLearnConfig {
            horizon_queries: 8,
            budget_cents: 64.0,
            cqc_training_queries: 60,
            warmup_per_cell: 1,
            ..CrowdLearnConfig::paper()
        },
    );
    let report = system.run(&dataset, &stream).report;
    assert_eq!(report.confusion.total(), 20);
}
