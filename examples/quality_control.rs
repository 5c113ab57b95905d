//! Quality control: compare every label-aggregation scheme on the same
//! stream of noisy crowd responses.
//!
//! ```text
//! cargo run --release --example quality_control
//! ```
//!
//! This example exercises the `crowdlearn-truth` baselines (majority voting,
//! Dawid-Skene EM, worker filtering) against the trained CQC module from the
//! core crate, on identical worker responses — the comparison behind the
//! paper's Table I. It also shows how each scheme copes with an injected
//! population of adversarial workers.

use crowdlearn::QualityController;
use crowdlearn_crowd::{
    IncentiveLevel, Platform, PlatformConfig, QueryResponse, Worker, WorkerPool,
};
use crowdlearn_dataset::{DamageLabel, Dataset, TemporalContext};
use crowdlearn_suite::scenarios;
use crowdlearn_truth::{
    Aggregator, Annotation, DawidSkeneEm, MajorityVoting, WorkerFiltering, WorkerId,
};

fn main() {
    let (dataset, _stream) = scenarios::paper();

    println!("=== normal worker population ===");
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(5));
    compare(&dataset, &mut platform);

    // Failure injection: a pool where a third of the workers are random
    // clickers. Voting suffers; reliability-aware schemes recover more.
    println!();
    println!("=== 33% adversarial workers ===");
    let mut workers: Vec<Worker> = WorkerPool::generate(200, 9).workers().to_vec();
    for (i, w) in workers.iter_mut().enumerate() {
        if i % 3 == 0 {
            *w = Worker::from_traits(w.id(), 0.15, w.speed_factor(), [1.0; 4]);
        }
    }
    let mut hostile = Platform::with_pool(
        PlatformConfig::paper().with_seed(10),
        WorkerPool::from_workers(workers),
    );
    compare(&dataset, &mut hostile);
}

fn compare(dataset: &Dataset, platform: &mut Platform) {
    // Gather training responses (for CQC) and evaluation responses.
    let gather = |platform: &mut Platform,
                  images: &[crowdlearn_dataset::SyntheticImage]|
     -> Vec<(QueryResponse, DamageLabel)> {
        images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let ctx = TemporalContext::from_index(i % TemporalContext::COUNT);
                (platform.submit(img, IncentiveLevel::C6, ctx), img.truth())
            })
            .collect()
    };
    let train = gather(platform, dataset.train());
    let eval = gather(platform, dataset.test());

    let mut cqc = QualityController::paper();
    cqc.train(&train);
    let cqc_acc = eval
        .iter()
        .filter(|(resp, truth)| cqc.truthful_label(resp) == *truth)
        .count() as f64
        / eval.len() as f64;

    // Flatten to annotations for the aggregation baselines.
    let annotations: Vec<Annotation> = eval
        .iter()
        .enumerate()
        .flat_map(|(item, (resp, _))| {
            resp.responses
                .iter()
                .map(move |r| Annotation::new(r.worker, item, r.label.index()))
        })
        .collect();
    let truths: Vec<usize> = eval.iter().map(|(_, t)| t.index()).collect();

    let accuracy_of = |aggregator: &mut dyn Aggregator| {
        let estimates = aggregator.aggregate(&annotations, eval.len(), DamageLabel::COUNT);
        estimates
            .iter()
            .zip(&truths)
            .filter(|(e, &t)| e.label() == t)
            .count() as f64
            / truths.len() as f64
    };

    println!("{:<22} {:>9}", "scheme", "accuracy");
    println!("{:<22} {:>9.3}", "CQC (GBDT + evidence)", cqc_acc);
    println!(
        "{:<22} {:>9.3}",
        "majority voting",
        accuracy_of(&mut MajorityVoting)
    );
    println!(
        "{:<22} {:>9.3}",
        "Dawid-Skene EM",
        accuracy_of(&mut DawidSkeneEm::default())
    );
    // Give filtering a history pass first (it is useless without history).
    let mut filtering = WorkerFiltering::paper_default();
    let _ = filtering.aggregate(&annotations, eval.len(), DamageLabel::COUNT);
    println!(
        "{:<22} {:>9.3}",
        "worker filtering",
        accuracy_of(&mut filtering)
    );

    // Peek at what filtering learned.
    let blacklisted: Vec<WorkerId> = platform
        .pool()
        .workers()
        .iter()
        .map(|w| w.id())
        .filter(|&id| filtering.is_blacklisted(id))
        .collect();
    println!("workers blacklisted by filtering: {}", blacklisted.len());
}
