//! Extension experiment: MIC's dynamic expert weights under domain drift.
//!
//! On the paper's stationary evaluation the Hedge weight update is roughly
//! neutral (see `ablations`): the experts' relative quality never changes,
//! so there is nothing for a *dynamic* weighting to track. This experiment
//! enables the dataset's feature-family drift — the informative visual
//! evidence migrates from the deep-texture family to the handcrafted family
//! as the disaster unfolds — and shows that the paper's design choice pays
//! off exactly when the committee's relative reliability is non-stationary.

#![forbid(unsafe_code)]

use crowdlearn::{CalibratorConfig, CrowdLearnConfig};
use crowdlearn_bench::banner;
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};

fn main() {
    banner(
        "Extension: dynamic expert weights under feature-family drift",
        "paper §IV-D motivates dynamic weights; drift is where they matter",
    );

    let drifted = Dataset::generate(&DatasetConfig::paper().with_family_drift(true));
    let stream = SensingCycleStream::paper(&drifted);

    let run = |update_weights: bool| {
        let config = CrowdLearnConfig::paper().with_calibration(CalibratorConfig {
            update_weights,
            ..CalibratorConfig::paper()
        });
        let mut system = PipelinedSystem::new(&drifted, config, RuntimeConfig::sequential());
        let report = system.run(&drifted, &stream).report;
        (report, system.system().committee_weights().to_vec())
    };

    let (with_hedge, final_weights) = run(true);
    let (without_hedge, static_weights) = run(false);

    println!("{:<28} {:>9} {:>9}", "variant", "accuracy", "F1");
    println!(
        "{:<28} {:>9.3} {:>9.3}",
        "dynamic weights (Hedge)",
        with_hedge.accuracy(),
        with_hedge.macro_f1()
    );
    println!(
        "{:<28} {:>9.3} {:>9.3}",
        "static uniform weights",
        without_hedge.accuracy(),
        without_hedge.macro_f1()
    );
    println!();
    println!(
        "final expert weights (VGG16 / BoVW / DDM): dynamic {:?}, static {:?}",
        round3(&final_weights),
        round3(&static_weights)
    );
    println!();
    println!(
        "Shape check: under drift, Hedge must track the migrating evidence \
         ({:+.3} accuracy)",
        with_hedge.accuracy() - without_hedge.accuracy()
    );
    assert!(
        with_hedge.accuracy() > without_hedge.accuracy(),
        "dynamic weights must win under drift"
    );
    // The deep-texture expert (VGG16) fades as its family does: its final
    // weight must be below uniform.
    assert!(
        final_weights[0] < 1.0 / 3.0,
        "VGG16's weight must have been reduced: {final_weights:?}"
    );
}

fn round3(w: &[f64]) -> Vec<f64> {
    w.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
