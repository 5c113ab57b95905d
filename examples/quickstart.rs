//! Quickstart: boot the full CrowdLearn system and run one evaluation pass.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the smallest end-to-end use of the public API: generate the
//! paper-shaped dataset, build the closed-loop system (committee + QSS +
//! IPD + CQC + MIC over the simulated crowdsourcing platform), stream the
//! 40 sensing cycles, and print the headline numbers.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};
use crowdlearn_suite::scenarios;

fn main() {
    // 1. The synthetic stand-in for the paper's 960 Ecuador-earthquake
    //    images (560 train / 400 test, balanced classes), streamed as the
    //    paper's 40 sensing cycles of 10 images each.
    let (dataset, stream) = scenarios::paper();
    println!(
        "dataset: {} images ({} train / {} test)",
        dataset.len(),
        dataset.train().len(),
        dataset.test().len()
    );

    // 2. Boot CrowdLearn. This trains the committee on the training split,
    //    fits the CQC boosting model on training-split crowd responses, and
    //    warms up the incentive bandit — then runs the closed loop one
    //    cycle at a time, each crowd answer waited out (the sequential
    //    runtime; wider windows overlap cycles, see `adaptive_window`).
    let mut system = PipelinedSystem::new(
        &dataset,
        CrowdLearnConfig::paper(),
        RuntimeConfig::sequential(),
    );
    let report = system.run(&dataset, &stream).report;

    println!();
    println!("=== CrowdLearn evaluation ===");
    println!("accuracy:        {:.3}", report.accuracy());
    println!("macro F1:        {:.3}", report.macro_f1());
    println!("macro AUC:       {:.3}", report.roc().auc());
    println!(
        "algorithm delay: {:.1} s per cycle",
        report.mean_algorithm_delay_secs()
    );
    if let Some(crowd) = report.mean_crowd_delay_secs() {
        println!("crowd delay:     {crowd:.1} s per cycle");
    }
    println!(
        "crowd spend:     ${:.2} for {} queries",
        report.spent_usd(),
        report.queries_issued
    );
    println!(
        "expert weights:  {:?} (VGG16 / BoVW / DDM)",
        system
            .system()
            .committee_weights()
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
}
