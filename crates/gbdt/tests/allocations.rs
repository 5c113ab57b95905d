//! What a boot-shaped fit allocates, counted per thread by a wrapping
//! global allocator: the calling thread sizes every buffer, so its count
//! and bytes are pinned as upper bounds (and printed: run with
//! `--nocapture`), and the helper threads that grow class trees allocate
//! nothing at all. A helper that allocates gets a glibc arena of its own,
//! which raises the process's peak RSS.

use crowdlearn_gbdt::{FitJob, GbdtClassifier, GbdtConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Allocations and bytes on every thread.
static ALL: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

fn count(bytes: usize) {
    let bytes = bytes as u64;
    ALL[0].fetch_add(1, Ordering::SeqCst);
    ALL[1].fetch_add(bytes, Ordering::SeqCst);
    // A thread being torn down has no counter left; the totals above still
    // count it.
    let _ = ALLOCATIONS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes));
    });
}

// SAFETY: each method passes its arguments unchanged to the system
// allocator, so the guarantees its caller gives are exactly the ones
// `System` requires, and it returns what `System` returns. Counting touches
// only atomics and a thread-local `Cell` that has no destructor and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// CQC's boot fit: 1 120 responses, eleven features of a few values each
/// (vote shares and questionnaire means in fifths, seven incentive levels),
/// three classes, 150 rounds at depth 5. `seed` draws the responses.
fn boot_shaped(seed: u64) -> (Vec<Vec<f64>>, Vec<usize>, GbdtConfig) {
    let mut state = seed;
    let mut next = move |n: u64| {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..1_120 {
        let label = next(3) as usize;
        let row: Vec<f64> = (0..11)
            .map(|f| match f {
                0..=2 => (next(6) + u64::from(label == f)).min(5) as f64 / 5.0,
                3 => next(7) as f64,
                _ => next(6) as f64 / 5.0,
            })
            .collect();
        rows.push(row);
        labels.push(label);
    }
    let config = GbdtConfig {
        rounds: 150,
        max_depth: 5,
        learning_rate: 0.12,
        ..GbdtConfig::small()
    };
    (rows, labels, config)
}

/// The calling thread's allocations and bytes for a lone boot-shaped fit
/// on `workers` threads: `BASE` for the fit on one, `PER_HELPER` for each
/// helper's spawn. One worker reads 719 allocations of 3 833 888 bytes,
/// two read 722 of 3 834 008; a spawn has read two allocations more in
/// some runs of the test harness, and the bound allows for them. Before
/// each fit kept its softmax buffers across rounds, one worker read 1 004
/// allocations of 3 716 720 bytes: each class now grows in buffers of its
/// own, one more set of about 61 KB per class past the first.
fn bound(workers: u64) -> (u64, u64) {
    const BASE: (u64, u64) = (719, 3_833_888);
    const PER_HELPER: (u64, u64) = (5, 192);
    let helpers = workers - 1;
    (
        BASE.0 + PER_HELPER.0 * helpers,
        BASE.1 + PER_HELPER.1 * helpers,
    )
}

/// Runs `fit` and returns the calling thread's allocations and bytes, and
/// every other thread's.
fn counted(fit: impl FnOnce()) -> ((u64, u64), (u64, u64)) {
    let before = ALLOCATIONS.with(Cell::get);
    let all_before = [ALL[0].load(Ordering::SeqCst), ALL[1].load(Ordering::SeqCst)];
    fit();
    let after = ALLOCATIONS.with(Cell::get);
    let all_after = [ALL[0].load(Ordering::SeqCst), ALL[1].load(Ordering::SeqCst)];
    let calling = (after.0 - before.0, after.1 - before.1);
    let helpers = (
        all_after[0] - all_before[0] - calling.0,
        all_after[1] - all_before[1] - calling.1,
    );
    (calling, helpers)
}

/// A lone boot-shaped fit, then a second one on other responses, then
/// both in one batch: no helper allocates, the first fit stays within
/// `bound`, and the batch's calling thread within the two lone fits' sum.
/// One test, so that no other test's threads allocate while it counts.
#[test]
fn boot_shaped_fits_allocate_on_the_calling_thread_only() {
    let (rows, labels, config) = boot_shaped(0x5eed);
    let (rows_b, labels_b, _) = boot_shaped(0xb007);
    let jobs = [
        FitJob {
            rows: &rows,
            labels: &labels,
            classes: 3,
            config: &config,
        },
        FitJob {
            rows: &rows_b,
            labels: &labels_b,
            classes: 3,
            config: &config,
        },
    ];
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get) as u64;
    // A first fit makes the thread's one-time allocations (its handle,
    // which spawning helpers reads) before any is counted.
    GbdtClassifier::fit(&rows[..30], &labels[..30], 3, &GbdtConfig::small());

    let fit = |jobs: &[FitJob<'_>]| {
        let (calling, helpers) = counted(|| {
            std::hint::black_box(GbdtClassifier::fit_batch(jobs));
        });
        // A fit uses at most one worker per class.
        let workers = cpus.min(3 * jobs.len() as u64);
        println!(
            "{} fit(s) on {workers} workers: calling thread {} allocations, {} bytes; \
             helpers {} allocations, {} bytes",
            jobs.len(),
            calling.0,
            calling.1,
            helpers.0,
            helpers.1
        );
        assert_eq!(helpers, (0, 0), "a helper thread allocated");
        (calling, workers)
    };
    let (first, workers) = fit(&jobs[..1]);
    let (most, most_bytes) = bound(workers);
    assert!(first.0 <= most, "{} allocations, bound {most}", first.0);
    assert!(
        first.1 <= most_bytes,
        "{} bytes, bound {most_bytes}",
        first.1
    );
    let (second, _) = fit(&jobs[1..]);
    let (both, _) = fit(&jobs);
    assert!(
        both.0 <= first.0 + second.0 && both.1 <= first.1 + second.1,
        "the batch's calling thread made {both:?}, the lone fits {first:?} and {second:?}"
    );
}
