//! Integration coverage for `offload_deadline_secs` (paper Definition 1):
//! a crowd answer that misses the actionability deadline must still feed
//! MIC's learning paths — Hedge weight updates and committee retraining —
//! while never overriding the AI label of its image.

use crowdlearn::{CalibratorConfig, CrowdLearnConfig, CycleOutcome, Offload};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};

fn run_outcomes(dataset: &Dataset, config: CrowdLearnConfig) -> (Vec<CycleOutcome>, Vec<f64>) {
    let stream = SensingCycleStream::paper(dataset);
    let mut system = PipelinedSystem::new(dataset, config, RuntimeConfig::sequential());
    let outcomes = system.run(dataset, &stream).outcomes;
    let weights = system.system().committee_weights().to_vec();
    (outcomes, weights)
}

#[test]
fn late_answers_update_hedge_weights_but_never_override_ai_labels() {
    let dataset = Dataset::generate(&DatasetConfig::paper());

    // A 1-second deadline no crowd answer can meet: every answer is late.
    let (late, late_weights) = run_outcomes(
        &dataset,
        CrowdLearnConfig::paper().with_offload_deadline_secs(Some(1.0)),
    );
    // No deadline: every answer offloads its image (the paper evaluation).
    let (unlimited, unlimited_weights) = run_outcomes(&dataset, CrowdLearnConfig::paper());
    // Offloading disabled outright, no deadline: the label-path reference.
    let mut no_offload_config = CrowdLearnConfig::paper();
    no_offload_config.calibration = CalibratorConfig {
        offload: Offload::Off,
        ..CalibratorConfig::paper()
    };
    let (no_offload, no_offload_weights) = run_outcomes(&dataset, no_offload_config);

    // 1. Labels: an impossible deadline is label-equivalent to disabling
    //    offloading — late answers never replace the AI label.
    for (late_outcome, reference) in late.iter().zip(&no_offload) {
        for (a, b) in late_outcome.images.iter().zip(&reference.images) {
            assert_eq!(
                a.predicted, b.predicted,
                "cycle {} image {:?}: a late answer overrode the AI label",
                late_outcome.cycle, a.image
            );
        }
    }

    // 2. Learning: the deadline gates *offloading only*. The same answers
    //    are absorbed either way, so the Hedge weights land exactly where
    //    the unlimited run's do — and far from uniform.
    assert_eq!(late_weights, unlimited_weights);
    assert_eq!(late_weights, no_offload_weights);
    let uniform = 1.0 / late_weights.len() as f64;
    assert!(
        late_weights.iter().any(|w| (w - uniform).abs() > 0.01),
        "weights never moved off uniform: {late_weights:?}"
    );

    // 3. The deadline had bite: with offloading live, some queried images
    //    carry crowd labels that differ from the AI labels.
    let overridden = unlimited
        .iter()
        .zip(&late)
        .flat_map(|(u, l)| u.images.iter().zip(&l.images))
        .filter(|(u, l)| {
            assert_eq!(u.image, l.image);
            u.queried && u.predicted != l.predicted
        })
        .count();
    assert!(
        overridden > 0,
        "offloading never changed a label; the deadline test is vacuous"
    );

    // 4. Late answers are still paid for.
    let late_spent: u64 = late.iter().map(|o| o.spent_cents).sum();
    let unlimited_spent: u64 = unlimited.iter().map(|o| o.spent_cents).sum();
    assert_eq!(late_spent, unlimited_spent);
    assert!(late_spent > 0);
}
