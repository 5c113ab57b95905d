//! The run path's heap cost, counted rather than timed: the allocations and
//! bytes a booted system makes while it runs a stream, by stage. Each event
//! is one `PipelinedSystem::step`, named, as perfbench's traced run names
//! its steps, by the first metrics-tap counter it moved:
//!
//! - `finalize`: a cycle closed (`finalize_cycle`: CQC scores the cycle's
//!   answers, MIC updates the weights and retrains);
//! - `absorb`: an answer was absorbed (`absorb_answer` or
//!   `absorb_late_answer`), and the cycle's next query posted or its
//!   retrain queued;
//! - `start`: a fresh HIT went up without an answer: mostly a cycle's
//!   committee inference landing (`start_cycle` and its first
//!   `post_next_query`);
//! - `timeout`: a HIT timed out, and was reposted or abandoned;
//! - `admit`: a cycle entered the window;
//! - `other`: anything else (an arrival queued behind the window, a fault
//!   boundary, a breaker probe), and starting the execution.
//!
//! `finish` is the call that turns the drained execution into its report.
//! Boot is not counted. The counts do not move with the host or the heap's
//! state, so each is held to an upper bound: a change that lowers one lowers
//! its bound. `-- --nocapture` prints them.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{
    FaultEpisode, FaultPlan, MetricsTap, PipelinedSystem, RunBound, RuntimeConfig, WindowPolicy,
};
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

/// The stages, in report order.
const STAGES: [&str; 7] = [
    "admit", "start", "absorb", "timeout", "finalize", "finish", "other",
];

/// `(allocations, bytes)` per stage, in [`STAGES`] order.
type Counts = [(u64, u64); 7];

/// The tap counters that name a step's stage, most significant first, with
/// each one's stage.
fn tap_counters(system: &PipelinedSystem) -> [(u64, usize); 5] {
    let tap = system.metrics_tap().expect("the tap is attached");
    [
        (tap.cycles_closed(), 4),
        (tap.hits_answered() + tap.late_answers(), 2),
        (tap.hits_posted(), 1),
        (tap.hits_timed_out() + tap.hits_reposted(), 3),
        (tap.cycles_admitted(), 0),
    ]
}

/// Boots `runtime` on the paper stream of the benchmark's dataset, with a
/// tap, and counts its run by stage.
fn run_counts(runtime: RuntimeConfig) -> Counts {
    let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(0x0ec0ada));
    let stream = SensingCycleStream::paper(&dataset);
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), runtime);
    system.attach_metrics_tap(MetricsTap::new());
    let mut counts = [(0, 0); 7];
    let mut add = |stage: usize, (calls, bytes): (u64, u64)| {
        counts[stage].0 += calls;
        counts[stage].1 += bytes;
    };
    add(6, counted(|| system.start(&stream)).1);
    loop {
        let before = tap_counters(&system);
        let (stepped, step) = counted(|| system.step(&dataset, &stream));
        if !stepped {
            break;
        }
        let after = tap_counters(&system);
        let moved = before.iter().zip(&after).find(|(b, a)| b.0 != a.0);
        add(moved.map_or(6, |(_, a)| a.1), step);
    }
    let (report, finish) = counted(|| system.run_until(&dataset, &stream, RunBound::Events(0)));
    assert!(report.is_some(), "the drained execution reports");
    add(5, finish);
    counts
}

/// The benchmark's chaos run: attrition, an outage and answer loss, a
/// 900 s timeout with three escalating attempts, an adaptive 1..8 window.
fn chaos() -> RuntimeConfig {
    let plan = FaultPlan::new(
        0xC4A05,
        vec![
            FaultEpisode::WorkerAttrition {
                fraction: 0.5,
                from_secs: 3_000.0,
                until_secs: 6_600.0,
            },
            FaultEpisode::PlatformOutage {
                from_secs: 6_600.0,
                until_secs: 9_000.0,
            },
            FaultEpisode::AnswerLoss {
                prob: 0.3,
                from_secs: 9_000.0,
                until_secs: 13_200.0,
            },
        ],
    );
    RuntimeConfig::paper()
        .with_window_policy(WindowPolicy::adaptive(1, 8))
        .with_hit_timeout(Some(900.0), 3)
        .with_faults(plan)
}

/// Upper bounds per stage, in [`STAGES`] order, at the counts the run
/// path makes: 3 063 allocations (482 922 bytes) over the paper run's 320
/// events, 3 147 (499 858 bytes) over the chaos run's.
const PAPER: Counts = [
    (1, 32),
    (1_122, 160_664),
    (800, 160_000),
    (0, 0),
    (685, 104_672),
    (448, 49_426),
    (7, 8_128),
];
const CHAOS: Counts = [
    (1, 32),
    (1_132, 162_664),
    (711, 142_032),
    (192, 35_440),
    (653, 101_688),
    (448, 49_426),
    (10, 8_576),
];

fn check(run: &str, counts: Counts, bounds: Counts) {
    let total = counts
        .iter()
        .fold((0, 0), |sum, c| (sum.0 + c.0, sum.1 + c.1));
    println!("{run} run: {total:?} (allocations, bytes)");
    for (stage, c) in STAGES.iter().zip(&counts) {
        println!("  {stage}: {c:?}");
    }
    for ((stage, c), bound) in STAGES.iter().zip(&counts).zip(&bounds) {
        assert!(
            c.0 <= bound.0 && c.1 <= bound.1,
            "{run} {stage}: {c:?} over {bound:?}"
        );
    }
}

#[test]
fn the_paper_run_allocates_within_its_bounds_at_every_stage() {
    let counts = run_counts(RuntimeConfig::paper());
    assert_eq!(run_counts(RuntimeConfig::paper()), counts, "counts repeat");
    check("paper", counts, PAPER);
}

#[test]
fn the_chaos_run_allocates_within_its_bounds_at_every_stage() {
    let counts = run_counts(chaos());
    assert_eq!(run_counts(chaos()), counts, "counts repeat");
    check("chaos", counts, CHAOS);
}
