//! The checkpoint codec's heap cost, counted rather than timed: the
//! allocations and bytes of one mid-run paper checkpoint's
//! `snapshot().to_bytes()`, `RuntimeSnapshot::from_bytes` and
//! `PipelinedSystem::resume`, counted per thread by a wrapping global
//! allocator. Unlike wall time these counts do not move with the host or
//! the heap's state, so each is held to an upper bound: a change that
//! lowers one lowers its bound.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{MetricsTap, PipelinedSystem, RunBound, RuntimeConfig, RuntimeSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing to count then.
    let _ = ALLOCATIONS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: each method passes its arguments unchanged to the system
// allocator, so the guarantees its caller gives are exactly the ones
// `System` requires, and it returns what `System` returns. Counting touches
// only a thread-local `Cell` that has no destructor and never allocates.
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

/// `f`'s result with the allocations and bytes it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (calls, bytes) = ALLOCATIONS.with(Cell::get);
    let value = f();
    let (after_calls, after_bytes) = ALLOCATIONS.with(Cell::get);
    (value, (after_calls - calls, after_bytes - bytes))
}

/// Upper bounds, `(allocations, bytes)`, at the counts this codec makes.
const TO_BYTES: (u64, u64) = (3, 2_244_310);
const FROM_BYTES: (u64, u64) = (1, 146_458);
const RESUME: (u64, u64) = (176, 414_356);

#[test]
fn a_paper_checkpoint_round_trip_allocates_within_its_bounds() {
    // The paper stream at the benchmark's seed, window 4, tap on, paused
    // halfway through its 320 events.
    let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(0x0ec0ada));
    let stream = SensingCycleStream::paper(&dataset);
    let mut system =
        PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), RuntimeConfig::paper());
    system.attach_metrics_tap(MetricsTap::new());
    assert!(system
        .run_until(&dataset, &stream, RunBound::Events(160))
        .is_none());

    let (bytes, to_bytes) = counted(|| {
        system
            .snapshot()
            .expect("paper systems snapshot")
            .to_bytes()
    });
    let (snapshot, from_bytes) =
        counted(|| RuntimeSnapshot::from_bytes(&bytes).expect("frame validates"));
    let (resumed, resume) =
        counted(|| PipelinedSystem::resume(&snapshot, &stream).expect("resumes"));
    println!("checkpoint of {} B: (allocations, bytes)", bytes.len());
    println!("  snapshot().to_bytes(): {to_bytes:?}");
    println!("  RuntimeSnapshot::from_bytes: {from_bytes:?}");
    println!("  PipelinedSystem::resume: {resume:?}");
    assert_eq!(
        resumed
            .snapshot()
            .expect("resumed systems snapshot")
            .to_bytes(),
        bytes
    );
    for (what, counts, bound) in [
        ("to_bytes", to_bytes, TO_BYTES),
        ("from_bytes", from_bytes, FROM_BYTES),
        ("resume", resume, RESUME),
    ] {
        assert!(
            counts.0 <= bound.0 && counts.1 <= bound.1,
            "{what}: {counts:?} over {bound:?}"
        );
    }
}
