//! What a boot-shaped fit allocates, counted per thread by a wrapping
//! global allocator: the calling thread sizes every buffer, so its count
//! and bytes are pinned as upper bounds (and printed: run with
//! `--nocapture`), and the helper threads that grow class trees allocate
//! nothing at all. A helper that allocates gets a glibc arena of its own,
//! which raises the process's peak RSS.

use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
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
/// three classes, 150 rounds at depth 5.
fn boot_shaped() -> (Vec<Vec<f64>>, Vec<usize>, GbdtConfig) {
    let mut state = 0x5eed_u64;
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

/// The calling thread's allocations and bytes for one fit on `workers`
/// threads: `BASE` for the fit, `PER_WORKER` for each worker's scratch and
/// each helper's spawn. One worker reads 1 004 allocations of 3 716 720
/// bytes; two read 1 012 of 3 777 952 or, in some runs of the test
/// harness, 1 014 of 3 778 024, and the bound takes the larger.
fn bound(workers: u64) -> (u64, u64) {
    const BASE: (u64, u64) = (994, 3_655_416);
    const PER_WORKER: (u64, u64) = (10, 61_304);
    (
        BASE.0 + PER_WORKER.0 * workers,
        BASE.1 + PER_WORKER.1 * workers,
    )
}

#[test]
fn a_boot_shaped_fit_allocates_on_the_calling_thread_only() {
    let (rows, labels, config) = boot_shaped();
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let workers = workers.min(3) as u64;
    // A first fit makes the thread's one-time allocations (its handle,
    // which spawning helpers reads) before any is counted.
    GbdtClassifier::fit(&rows[..30], &labels[..30], 3, &GbdtConfig::small());
    let before = ALLOCATIONS.with(Cell::get);
    let all_before = [ALL[0].load(Ordering::SeqCst), ALL[1].load(Ordering::SeqCst)];
    let model = GbdtClassifier::fit(&rows, &labels, 3, &config);
    let after = ALLOCATIONS.with(Cell::get);
    let all_after = [ALL[0].load(Ordering::SeqCst), ALL[1].load(Ordering::SeqCst)];
    std::hint::black_box(model);

    let calling = (after.0 - before.0, after.1 - before.1);
    let helpers = (
        all_after[0] - all_before[0] - calling.0,
        all_after[1] - all_before[1] - calling.1,
    );
    println!(
        "fit on {workers} workers: calling thread {} allocations, {} bytes; helpers {} allocations, {} bytes",
        calling.0, calling.1, helpers.0, helpers.1
    );
    assert_eq!(helpers, (0, 0), "a helper thread allocated");
    let (most, most_bytes) = bound(workers);
    assert!(calling.0 <= most, "{} allocations, bound {most}", calling.0);
    assert!(
        calling.1 <= most_bytes,
        "{} bytes, bound {most_bytes}",
        calling.1
    );
}
