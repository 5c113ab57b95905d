//! CQC inference allocates nothing: after a warm-up, 1 000
//! `QualityController::infer` calls on live crowd responses, and batched
//! `QualityController::infer_batch` calls over the same answers' tallies,
//! make no heap allocation, counted per thread by a wrapping global
//! allocator, for a trained controller (the boosting model's mask table)
//! and an untrained one (majority voting).

use crowdlearn::{AnswerTally, QualityController};
use crowdlearn_classifiers::ClassDistribution;
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig, QueryResponse};
use crowdlearn_dataset::{DamageLabel, Dataset, DatasetConfig, TemporalContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing to count then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: each method passes its arguments unchanged to the system
// allocator, so the guarantees its caller gives are exactly the ones
// `System` requires, and it returns what `System` returns. Counting touches
// only a thread-local `Cell` that has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: usize = 100;
const CALLS: usize = 1_000;

/// `n` responses to the training images in turn, at every incentive level
/// and temporal context in turn, with their true labels.
fn responses(
    platform: &mut Platform,
    dataset: &Dataset,
    n: usize,
) -> Vec<(QueryResponse, DamageLabel)> {
    let images = dataset.train();
    (0..n)
        .map(|i| {
            let image = &images[i % images.len()];
            let context = TemporalContext::from_index(i % TemporalContext::COUNT);
            let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
            (platform.submit(image, level, context), image.truth())
        })
        .collect()
}

/// The allocations of `CALLS` inferences after `WARMUP` of them, cycling
/// through `live`.
fn allocations(cqc: &QualityController, live: &[(QueryResponse, DamageLabel)]) -> u64 {
    let mut calls = live.iter().cycle();
    for (response, _) in calls.by_ref().take(WARMUP) {
        std::hint::black_box(cqc.infer(response));
    }
    let before = ALLOCATIONS.with(Cell::get);
    for (response, _) in calls.take(CALLS) {
        std::hint::black_box(cqc.infer(response));
    }
    ALLOCATIONS.with(Cell::get) - before
}

/// The allocations of `infer_batch` over the tallies of `live`, five answers
/// (a paper cycle's) then `GbdtClassifier::BATCH + 3` a call, after as many
/// calls to warm up.
fn batch_allocations(cqc: &QualityController, live: &[(QueryResponse, DamageLabel)]) -> u64 {
    let tallies: Vec<AnswerTally> = live.iter().map(|(r, _)| AnswerTally::of(r)).collect();
    let mut out = vec![ClassDistribution::uniform(); tallies.len()];
    let mut before = 0;
    for warm in [true, false] {
        if !warm {
            before = ALLOCATIONS.with(Cell::get);
        }
        for size in [5, crowdlearn_gbdt::GbdtClassifier::BATCH + 3] {
            for (tallies, out) in tallies.chunks(size).zip(out.chunks_mut(size)) {
                cqc.infer_batch(tallies, out);
            }
        }
        std::hint::black_box(&out);
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn cqc_inference_allocates_nothing() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(0xa110c));
    let train = responses(&mut platform, &dataset, 300);
    let live = responses(&mut platform, &dataset, 200);

    assert_eq!(
        allocations(&QualityController::paper(), &live),
        0,
        "majority voting"
    );
    assert_eq!(
        batch_allocations(&QualityController::paper(), &live),
        0,
        "majority voting, batched"
    );

    let mut cqc = QualityController::paper();
    cqc.train(&train);
    assert_eq!(allocations(&cqc, &live), 0, "the trained model");
    assert_eq!(
        batch_allocations(&cqc, &live),
        0,
        "the trained model, batched"
    );
    // The model does score: it agrees with the truth on most live answers.
    let right = live
        .iter()
        .filter(|(response, truth)| cqc.truthful_label(response) == *truth)
        .count();
    assert!(right > live.len() / 2, "{right} of {} right", live.len());
}
