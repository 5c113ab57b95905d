//! Criterion micro-benchmarks for the hot paths of every substrate:
//! committee voting + entropy, GBDT training/inference, Dawid-Skene EM,
//! UCB-ALP steps, and platform query simulation. Whole runs are measured
//! end to end by `perfbench/` and the `makespan` bench.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use crowdlearn::{Committee, QualityController};
use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
use crowdlearn_classifiers::{profiles, Classifier};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
use crowdlearn_dataset::{Dataset, DatasetConfig, LabeledImage, TemporalContext};
use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
use crowdlearn_truth::{Aggregator, Annotation, DawidSkeneEm, WorkerId};
use std::hint::black_box;

fn dataset() -> Dataset {
    Dataset::generate(&DatasetConfig::paper())
}

fn trained_committee(ds: &Dataset) -> Committee {
    let train: Vec<_> = ds
        .train()
        .iter()
        .cloned()
        .map(LabeledImage::ground_truth)
        .collect();
    let members: Vec<Box<dyn Classifier>> = profiles::paper_committee(0)
        .into_iter()
        .map(|mut e| {
            e.retrain(&train);
            Box::new(e) as Box<dyn Classifier>
        })
        .collect();
    Committee::new(members, 0.1)
}

fn bench_committee(c: &mut Criterion) {
    let ds = dataset();
    let committee = trained_committee(&ds);
    let image = &ds.test()[0];
    c.bench_function("committee_vote_and_entropy", |b| {
        b.iter(|| {
            let vote = committee.committee_vote(black_box(image));
            black_box(vote.entropy())
        })
    });
}

fn bench_dataset_generation(c: &mut Criterion) {
    c.bench_function("dataset_generate_960", |b| {
        b.iter(|| black_box(Dataset::generate(&DatasetConfig::paper().with_seed(1))))
    });
}

fn bench_gbdt(c: &mut Criterion) {
    // CQC-shaped training problem: 400 rows x 11 features, 3 classes.
    let rows: Vec<Vec<f64>> = (0..400)
        .map(|i| {
            (0..11)
                .map(|j| ((i * 31 + j * 7) % 100) as f64 / 100.0)
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..400).map(|i| i % 3).collect();
    let config = GbdtConfig::small();
    c.bench_function("gbdt_fit_400x11", |b| {
        b.iter(|| black_box(GbdtClassifier::fit(&rows, &labels, 3, &config)))
    });
    let model = GbdtClassifier::fit(&rows, &labels, 3, &config);
    c.bench_function("gbdt_predict", |b| {
        b.iter(|| black_box(model.predict_proba(&rows[7])))
    });
}

fn bench_dawid_skene(c: &mut Criterion) {
    let mut annotations = Vec::new();
    for item in 0..100usize {
        for w in 0..5u32 {
            annotations.push(Annotation::new(
                WorkerId(w * 13 % 40),
                item,
                (item + usize::from(w % 3 == 0)) % 3,
            ));
        }
    }
    c.bench_function("dawid_skene_em_100x5", |b| {
        b.iter_batched(
            DawidSkeneEm::default,
            |mut em| black_box(em.aggregate(&annotations, 100, 3)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_bandit(c: &mut Criterion) {
    c.bench_function("ucb_alp_select_observe", |b| {
        b.iter_batched(
            || {
                let config = BanditConfig::new(4, IncentiveLevel::costs(), 1000.0, 200)
                    .with_context_distribution(vec![0.25; 4]);
                let mut bandit = UcbAlp::new(config, 3);
                for z in 0..4 {
                    for a in 0..IncentiveLevel::COUNT {
                        bandit.observe(z, a, 0.5);
                    }
                }
                bandit
            },
            |mut bandit| {
                for r in 0..50u64 {
                    if let Some(a) = bandit.select((r % 4) as usize) {
                        bandit.observe((r % 4) as usize, a, 0.6);
                    }
                }
                black_box(bandit.remaining_budget())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_platform(c: &mut Criterion) {
    let ds = dataset();
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(2));
    let image = ds.test()[0].clone();
    c.bench_function("platform_submit_query", |b| {
        b.iter(|| {
            black_box(platform.submit(
                black_box(&image),
                IncentiveLevel::C6,
                TemporalContext::Evening,
            ))
        })
    });
}

fn bench_cqc(c: &mut Criterion) {
    let ds = dataset();
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(3));
    let examples: Vec<_> = ds
        .train()
        .iter()
        .take(200)
        .enumerate()
        .map(|(i, img)| {
            let ctx = TemporalContext::from_index(i % 4);
            (platform.submit(img, IncentiveLevel::C6, ctx), img.truth())
        })
        .collect();
    let mut cqc = QualityController::paper();
    cqc.train(&examples);
    let response = platform.submit(&ds.test()[0], IncentiveLevel::C6, TemporalContext::Morning);
    c.bench_function("cqc_infer", |b| {
        b.iter(|| black_box(cqc.infer(black_box(&response))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_committee, bench_dataset_generation, bench_gbdt, bench_dawid_skene,
              bench_bandit, bench_platform, bench_cqc
}
criterion_main!(benches);
