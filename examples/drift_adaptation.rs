//! Drift adaptation: watch MIC's expert weights track a shifting domain.
//!
//! ```text
//! cargo run --release --example drift_adaptation
//! ```
//!
//! The dataset's feature-family drift makes the deep-texture evidence fade
//! and the handcrafted evidence strengthen over the disaster's 40 cycles.
//! VGG16 (deep-heavy) degrades; BoVW (handcrafted-heavy) improves. This
//! example prints the committee's Hedge weights every few cycles so the
//! adaptation is visible, then compares the final accuracy against a frozen
//! uniform-weight committee.

use crowdlearn::{CalibratorConfig, CrowdLearnConfig};
use crowdlearn_runtime::{MetricsTap, PipelinedSystem, RuntimeConfig};
use crowdlearn_suite::scenarios;

fn main() {
    let (dataset, stream) = scenarios::paper_with_drift();

    // Step the sequential runtime and record the committee weights each
    // time a cycle closes — the weight trajectory, cycle by cycle.
    let mut system = PipelinedSystem::new(
        &dataset,
        CrowdLearnConfig::paper(),
        RuntimeConfig::sequential(),
    );
    system.attach_metrics_tap(MetricsTap::new());
    let mut weights: Vec<Vec<f64>> = Vec::new();
    while system.step(&dataset, &stream) {
        let closed = system.metrics_tap().map_or(0, MetricsTap::cycles_closed);
        if closed as usize > weights.len() {
            weights.push(system.system().committee_weights().to_vec());
        }
    }
    let run = system.run(&dataset, &stream);
    let report = run.report;

    // Per-cycle accuracy, smoothed over a trailing 8-cycle window.
    let accuracy: Vec<f64> = run
        .outcomes
        .iter()
        .map(|o| {
            let correct = o.images.iter().filter(|i| i.predicted == i.truth).count();
            correct as f64 / o.images.len().max(1) as f64
        })
        .collect();
    println!("cycle  context    VGG16   BoVW    DDM   acc(8-cycle window)");
    for (t, (c, w)) in run.outcomes.iter().zip(&weights).enumerate() {
        if c.cycle % 5 == 0 || c.cycle == stream.cycles().len() - 1 {
            let window = &accuracy[(t + 1).saturating_sub(8)..=t];
            let smoothed = window.iter().sum::<f64>() / window.len() as f64;
            println!(
                "{:>5}  {:<9} {:>6.3} {:>6.3} {:>6.3} {:>8.3}",
                c.cycle,
                c.context.to_string(),
                w[0],
                w[1],
                w[2],
                smoothed
            );
        }
    }
    let dynamic_accuracy = report.accuracy();

    // The same run with the weight update disabled.
    let mut frozen = PipelinedSystem::new(
        &dataset,
        CrowdLearnConfig::paper().with_calibration(CalibratorConfig {
            update_weights: false,
            ..CalibratorConfig::paper()
        }),
        RuntimeConfig::sequential(),
    );
    let frozen_report = frozen.run(&dataset, &stream).report;

    println!();
    println!("dynamic weights accuracy: {dynamic_accuracy:.3}");
    println!("frozen weights accuracy:  {:.3}", frozen_report.accuracy());
    println!(
        "adaptation gain:          {:+.3}",
        dynamic_accuracy - frozen_report.accuracy()
    );
}
