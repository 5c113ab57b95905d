//! Shared harness for the `experiments` binary, which regenerates every
//! table and figure of the paper's evaluation (Section V) plus the event
//! runtime's sections (pipelining, fleet contention, adaptive window,
//! outage degradation), and for the `inference` wall-clock gate.
//!
//! `experiments` prints the paper's reported values side by side with the
//! values measured on this reproduction. Absolute numbers are not expected
//! to match (the substrate is a simulator, not the authors' MTurk testbed);
//! the *shape* — who wins, by roughly what factor, where curves bend — is
//! the reproduction target. `EXPERIMENTS.md` records the comparison and
//! `crates/bench/experiments.txt` the exact output, which CI diffs against:
//!
//! ```text
//! cargo run --release -p crowdlearn-bench --bin experiments
//! ```

//! Determinism: `detlint`-checked (DESIGN.md "Determinism invariants");
//! the one crate exempt from the wall-clock rule D2 — timing harnesses
//! measure real elapsed time by design.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crowdlearn::{CrowdLearnConfig, Model, SchemeReport};
use crowdlearn_classifiers::{Classifier, SimulatedExpert};
use crowdlearn_dataset::{Dataset, DatasetConfig, LabeledImage, SensingCycleStream};
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};

/// The shared experiment fixture: the paper-shaped dataset and stream.
pub struct Fixture {
    /// The generated dataset (960 images, 560/400 split).
    pub dataset: Dataset,
    /// The 40-cycle evaluation stream.
    pub stream: SensingCycleStream,
}

impl Fixture {
    /// Builds the canonical paper fixture (the same seeds the calibration
    /// tests pin, so bench output matches the tested bands).
    pub fn paper_default() -> Self {
        let dataset = Dataset::generate(&DatasetConfig::paper());
        let stream = SensingCycleStream::paper(&dataset);
        Self { dataset, stream }
    }

    /// Builds a re-seeded fixture (for repeated-trial experiments).
    pub fn paper(seed: u64) -> Self {
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed));
        let stream = SensingCycleStream::paper(&dataset);
        Self { dataset, stream }
    }

    /// Ground-truth-labeled training split (for classifier training).
    pub fn train_labels(&self) -> Vec<LabeledImage> {
        self.dataset
            .train()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect()
    }

    /// A committee expert trained on the training split.
    pub fn trained_expert(
        &self,
        builder: fn(u64) -> SimulatedExpert,
        seed: u64,
    ) -> SimulatedExpert {
        let mut e = builder(seed);
        e.retrain(&self.train_labels());
        e
    }

    /// Runs CrowdLearn with `config` over the stream on the paper's
    /// sequential runtime (one sensing cycle at a time).
    pub fn run_crowdlearn(&self, config: CrowdLearnConfig) -> SchemeReport {
        let mut system = PipelinedSystem::new(&self.dataset, config, RuntimeConfig::sequential());
        system.run(&self.dataset, &self.stream).report
    }

    /// Runs all seven Table II schemes with the canonical paper
    /// configurations and returns their reports in the table's row order,
    /// each named after its row.
    pub fn run_all_schemes(&self) -> Vec<SchemeReport> {
        let configs = [
            CrowdLearnConfig::paper(),
            CrowdLearnConfig::ai_only(Model::Vgg16),
            CrowdLearnConfig::ai_only(Model::Bovw),
            CrowdLearnConfig::ai_only(Model::Ddm),
            CrowdLearnConfig::ai_only(Model::Ensemble),
            CrowdLearnConfig::hybrid_para(),
            CrowdLearnConfig::hybrid_al(),
        ];
        configs
            .into_iter()
            .zip(paper_reference::SCHEMES)
            .map(|(config, name)| SchemeReport {
                name: name.to_owned(),
                ..self.run_crowdlearn(config)
            })
            .collect()
    }
}

/// Paper-reported reference values for the seven Table II/III schemes, in
/// the same order as [`Fixture::run_all_schemes`].
pub mod paper_reference {
    /// Scheme names in table order.
    pub const SCHEMES: [&str; 7] = [
        "CrowdLearn",
        "VGG16",
        "BoVW",
        "DDM",
        "Ensemble",
        "Hybrid-Para",
        "Hybrid-AL",
    ];
    /// Table II: (accuracy, precision, recall, F1).
    pub const TABLE2: [(f64, f64, f64, f64); 7] = [
        (0.877, 0.904, 0.885, 0.894),
        (0.770, 0.845, 0.744, 0.791),
        (0.670, 0.707, 0.744, 0.725),
        (0.807, 0.891, 0.765, 0.823),
        (0.815, 0.892, 0.778, 0.831),
        (0.797, 0.849, 0.795, 0.821),
        (0.823, 0.883, 0.803, 0.841),
    ];
    /// Table III: (algorithm delay, crowd delay; `None` = N/A).
    pub const TABLE3: [(f64, Option<f64>); 7] = [
        (55.62, Some(342.77)),
        (47.83, None),
        (37.55, None),
        (52.57, None),
        (85.82, None),
        (94.28, Some(588.75)),
        (53.54, Some(527.61)),
    ];
    /// Table I: aggregated label accuracy
    /// (morning, afternoon, evening, midnight, overall) per scheme.
    pub const TABLE1: [(&str, [f64; 5]); 4] = [
        ("CQC", [0.93, 0.92, 0.94, 0.94, 0.9350]),
        ("Voting", [0.82, 0.83, 0.85, 0.87, 0.8425]),
        ("TD-EM", [0.86, 0.85, 0.85, 0.89, 0.8625]),
        ("Filtering", [0.84, 0.86, 0.88, 0.90, 0.8775]),
    ];
}

/// Prints a header banner for an experiment binary.
pub fn banner(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("(paper reference: {paper_ref})");
    println!("{}", "=".repeat(78));
}

/// Formats a measured-vs-paper cell as `measured (paper X)`.
pub fn vs(measured: f64, paper: f64) -> String {
    format!("{measured:.3} (paper {paper:.3})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_the_paper_shape() {
        let f = Fixture::paper_default();
        assert_eq!(f.dataset.len(), 960);
        assert_eq!(f.stream.cycles().len(), 40);
        assert_eq!(f.train_labels().len(), 560);
    }

    #[test]
    fn vs_formats_both_numbers() {
        assert_eq!(vs(0.5, 0.75), "0.500 (paper 0.750)");
    }
}
