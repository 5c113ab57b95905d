//! The event runtime beyond the paper's blocking loop: the Figure 4 loop
//! pipelined at wider in-flight windows, cross-stream contention in a
//! fleet, the adaptive window controller and graceful degradation under a
//! crowd outage.
//!
//! Every number here is virtual time, accuracy, spend or an event count
//! from the deterministic simulation, so each gate is exact and
//! machine-independent. perfbench times the same runs on the wall clock.

use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem, SchemeReport};
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_crowd::{DelayModel, IncentiveLevel, Platform, PlatformConfig};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream, TemporalContext};
use crowdlearn_runtime::{
    ArbitrationPolicy, BreakerState, FaultEpisode, FaultPlan, FleetConfig, FleetOrchestrator,
    FleetReport, MetricsTap, ParallelSweep, PipelinedSystem, RunBound, RuntimeConfig,
    RuntimeReport, RuntimeSnapshot, ShardSpec, WindowPolicy,
};

/// The paper's 40-cycle run under `runtime`, optionally with a streaming
/// metrics tap attached.
fn paper_run(fixture: &Fixture, runtime: RuntimeConfig, tap: bool) -> RuntimeReport {
    let mut system = PipelinedSystem::new(&fixture.dataset, CrowdLearnConfig::paper(), runtime);
    if tap {
        system.attach_metrics_tap(MetricsTap::new());
    }
    system.run(&fixture.dataset, &fixture.stream)
}

/// Virtual-time makespan of the paper's 40-cycle run at increasing
/// in-flight windows. Window 1 is the paper's blocking loop (every crowd
/// answer awaited serially) and the sequential baseline.
///
/// Returns the tapped window-4 run: `RuntimeConfig::paper()` with a metrics
/// tap, which is also the [`faults`] section's fault-free hybrid.
pub fn makespan(fixture: &Fixture) -> RuntimeReport {
    banner(
        "Pipelined runtime: virtual-time makespan, sequential vs pipelined",
        "cycle period 600 s; crowd waits overlap later cycles' inference and selection",
    );

    let measured = ParallelSweep::auto().run(&[1usize, 2, 4, 8], |_, &window| {
        let runtime = RuntimeConfig::paper().with_inflight_window(window);
        (window, paper_run(fixture, runtime, false))
    });
    // Window 1 is the blocking loop: each cycle waits for its predecessor
    // and serializes every crowd wait (`tests/golden.rs` pins it against a
    // stage-by-stage reference loop and its analytic makespan).
    let sequential = measured[0].1.makespan_secs;
    println!(
        "sequential (blocking loop): {:>9.0} s  (speedup 1.00x)",
        sequential
    );

    println!(
        "{:<28} {:>11} {:>9} {:>13} {:>8}",
        "runtime", "makespan(s)", "speedup", "peak cycles", "events"
    );
    for (window, run) in &measured {
        println!(
            "{:<28} {:>11.0} {:>8.2}x {:>13} {:>8}",
            format!("pipelined (window {window})"),
            run.makespan_secs,
            sequential / run.makespan_secs,
            run.peak_cycles_in_flight,
            run.events_processed,
        );
    }

    // The same window-4 run with a streaming metrics tap attached: the
    // simulation must be bit-identical (the tap observes, it never steers).
    let untapped = &measured[2];
    assert_eq!(untapped.0, 4);
    let tapped = paper_run(fixture, RuntimeConfig::paper(), true);
    assert_eq!(
        tapped.outcomes, untapped.1.outcomes,
        "attaching a tap must not perturb the simulation"
    );
    let tap = tapped.metrics.as_ref().expect("tapped run returns its tap");
    println!(
        "\ntap (window 4): {} records, p50 crowd delay {:.0} s",
        tap.records(),
        tapped.report.query_delay.median().unwrap_or(f64::NAN),
    );

    println!();
    println!(
        "Shape check: window 1 reproduces the blocking makespan ({sequential:.0} s), \
         wider windows hide crowd latency behind later cycles"
    );
    // Acceptance: the pipeline must beat the sequential system.
    for (window, run) in &measured[1..] {
        assert!(
            run.makespan_secs < sequential,
            "window-{window} makespan {} must beat sequential {sequential}",
            run.makespan_secs
        );
    }
    tapped
}

/// Cycles per fleet shard stream: short enough that a 6-shard fleet boots
/// and drains in seconds, long enough that every context recurs.
const FLEET_CYCLES: usize = 8;
const FLEET_IMAGES_PER_CYCLE: usize = 5;
const FLEET_SEED: u64 = 7;

/// Builds and runs an `n`-shard fleet of identically seeded disasters. The
/// fleet budget scales with `n` so every shard keeps the paper quota and
/// budget exhaustion never masks the contention signal.
fn contended_run(n: usize, arbitration: ArbitrationPolicy, window: usize) -> FleetReport {
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::generate(&DatasetConfig::paper().with_seed(FLEET_SEED)))
        .collect();
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, FLEET_CYCLES, FLEET_IMAGES_PER_CYCLE))
        .collect();
    let specs: Vec<ShardSpec> = (0..n)
        .map(|_| {
            ShardSpec::new(
                CrowdLearnConfig::paper(),
                RuntimeConfig::paper().with_inflight_window(window),
            )
        })
        .collect();
    let config = FleetConfig::new(CrowdLearnConfig::paper().budget_cents * n as f64)
        .with_arbitration(arbitration);
    FleetOrchestrator::new(specs, config, &datasets).run(&datasets, &streams)
}

/// Fleet contention versus shard count, and a window × budget-split sweep
/// over a 3-disaster fleet.
///
/// With the pool capacity fixed, adding concurrent disaster streams must
/// raise the queue wait every posted HIT suffers: monotonically in the
/// shard count, and exactly zero for a lone shard. Every shard runs the
/// *same* seed, so the base delay draws are symmetric across fleet sizes
/// and the per-query crowd delay isolates the contention term.
pub fn fleet() {
    banner(
        "Fleet orchestrator: contention vs shard count, window x budget-split sweep",
        "identical seeds per shard; the pool capacity stays fixed while shards multiply",
    );

    // Shard-count scaling at a fixed pool.
    println!(
        "{:<8} {:>10} {:>12} {:>14} {:>12} {:>10}",
        "shards", "posts", "mean wait(s)", "mean delay(s)", "makespan(s)", "peak busy"
    );
    let mut scaling = Vec::new();
    let reports = ParallelSweep::auto().run(&[1usize, 2, 4, 6], |_, &n| {
        (n, contended_run(n, ArbitrationPolicy::FairShare, 4))
    });
    for (n, report) in reports {
        let mean_delay = report.rollup_crowd_delay.mean();
        println!(
            "{:<8} {:>10} {:>12.1} {:>14.1} {:>12.0} {:>10}",
            n,
            report.contention.posts,
            report.contention.mean_wait_secs(),
            mean_delay,
            report.makespan_secs,
            report.contention.peak_busy_workers,
        );
        scaling.push((n, report, mean_delay));
    }

    // Window x budget-split sweep on a 3-shard fleet.
    let points: Vec<(usize, &str)> =
        vec![(2, "fair"), (2, "priority"), (4, "fair"), (4, "priority")];
    let sweep = ParallelSweep::new(2).run(&points, |_, &(window, split)| {
        let arbitration = match split {
            "fair" => ArbitrationPolicy::FairShare,
            _ => ArbitrationPolicy::Priority(vec![3.0, 2.0, 1.0]),
        };
        (window, split, contended_run(3, arbitration, window))
    });
    println!("\n3-shard sweep: in-flight window x budget arbitration");
    println!(
        "{:<8} {:<9} {:>12} {:>14} {:>22}",
        "window", "split", "makespan(s)", "mean wait(s)", "spend by shard (cents)"
    );
    for (window, split, report) in &sweep {
        let spends: Vec<u64> = (0..report.ledger.shards())
            .map(|i| report.ledger.spent_cents(i))
            .collect();
        println!(
            "{:<8} {:<9} {:>12.0} {:>14.1} {:>22}",
            window,
            split,
            report.makespan_secs,
            report.contention.mean_wait_secs(),
            format!("{spends:?}"),
        );
    }

    println!();
    let lone = &scaling[0];
    assert_eq!(lone.0, 1);
    assert_eq!(
        lone.1.contention.mean_wait_secs(),
        0.0,
        "a lone shard must suffer zero cross-stream queue wait"
    );
    for pair in scaling.windows(2) {
        let (n_lo, lo, delay_lo) = &pair[0];
        let (n_hi, hi, delay_hi) = &pair[1];
        assert!(
            hi.contention.mean_wait_secs() > lo.contention.mean_wait_secs(),
            "mean queue wait must grow with shard count: {n_lo} shards {:.1} s vs {n_hi} shards {:.1} s",
            lo.contention.mean_wait_secs(),
            hi.contention.mean_wait_secs()
        );
        assert!(
            delay_hi > delay_lo,
            "per-query crowd delay must grow with shard count: {n_lo} shards {delay_lo:.1} s \
             vs {n_hi} shards {delay_hi:.1} s"
        );
    }
    println!(
        "Shape check: zero wait alone, queue wait and per-query delay grow \
         monotonically with shard count ✓"
    );
}

/// Uniform ~15 s crowd: far under the 600 s cadence in every context.
fn stable_profile() -> DelayModel {
    DelayModel::from_table([[15.0; IncentiveLevel::COUNT]; TemporalContext::COUNT], 0.1)
}

/// Bimodal diurnal crowd: day contexts 4x over the cadence, night contexts
/// 10x under it. Contexts rotate round-robin cycle by cycle.
fn bursty_profile() -> DelayModel {
    DelayModel::from_table(
        [
            [2400.0; IncentiveLevel::COUNT],
            [2400.0; IncentiveLevel::COUNT],
            [60.0; IncentiveLevel::COUNT],
            [60.0; IncentiveLevel::COUNT],
        ],
        0.18,
    )
}

struct WindowRun {
    label: String,
    makespan_secs: f64,
    peak_window: usize,
}

/// Runs the paper's 40-cycle stream over `delays` once per policy and
/// prints one row each, with the speedup over the first policy.
fn window_sweep(
    fixture: &Fixture,
    delays: &DelayModel,
    policies: &[(String, WindowPolicy)],
) -> Vec<WindowRun> {
    println!(
        "{:<22} {:>12} {:>9} {:>11} {:>8}",
        "policy", "makespan(s)", "speedup", "peak window", "events"
    );
    let runs = ParallelSweep::auto().run(policies, |_, (_, policy)| {
        let platform = PlatformConfig::paper().with_delay_model(delays.clone());
        let system = CrowdLearnSystem::with_platform(
            &fixture.dataset,
            CrowdLearnConfig::paper(),
            Platform::new(platform),
        );
        PipelinedSystem::from_system(system, RuntimeConfig::paper().with_window_policy(*policy))
            .run(&fixture.dataset, &fixture.stream)
    });
    let mut measured = Vec::new();
    let mut reference = None;
    for ((label, _), run) in policies.iter().zip(runs) {
        let reference = *reference.get_or_insert(run.makespan_secs);
        let peak_window = run.window_trajectory.iter().max().copied().unwrap_or(0);
        println!(
            "{:<22} {:>12.0} {:>8.2}x {:>11} {:>8}",
            label,
            run.makespan_secs,
            reference / run.makespan_secs,
            peak_window,
            run.events_processed,
        );
        measured.push(WindowRun {
            label: label.clone(),
            makespan_secs: run.makespan_secs,
            peak_window,
        });
    }
    measured
}

/// Makespan under static windows versus the delay-driven
/// [`WindowPolicy::Adaptive`] controller, across two crowd-delay profiles.
///
/// * **stable**: every cell answers in ~15 s, the window never binds, and
///   adaptive must be no worse than the best static window (it opens at
///   its floor and holds).
/// * **bursty**: day HITs take ~2400 s and night ones ~60 s, so a static
///   bet is either flooded or starved; adaptive must beat the *worst*
///   static window by >= 1.2x makespan.
pub fn adaptive(fixture: &Fixture) {
    banner(
        "Adaptive window controller: makespan vs static windows, per delay profile",
        "600 s cadence; the controller re-bets the in-flight window from streamed delay quantiles",
    );

    let statics = [1usize, 2, 4, 8];
    let mut policies: Vec<(String, WindowPolicy)> = statics
        .iter()
        .map(|&n| (format!("static window {n}"), WindowPolicy::Static(n)))
        .collect();
    policies.push(("adaptive [1, 8]".to_string(), WindowPolicy::adaptive(1, 8)));

    println!("\n-- stable profile: every context ~15 s, window never binds --");
    let stable = window_sweep(fixture, &stable_profile(), &policies);
    println!("\n-- bursty profile: day ~2400 s, night ~60 s, contexts rotate per cycle --");
    let bursty = window_sweep(fixture, &bursty_profile(), &policies);

    let (stable_static, stable_adaptive) = stable.split_at(statics.len());
    let (bursty_static, bursty_adaptive) = bursty.split_at(statics.len());
    let stable_adaptive = &stable_adaptive[0];
    let bursty_adaptive = &bursty_adaptive[0];
    let best_stable_static = stable_static
        .iter()
        .min_by(|a, b| a.makespan_secs.total_cmp(&b.makespan_secs))
        .expect("non-empty sweep");
    let worst_bursty_static = bursty_static
        .iter()
        .max_by(|a, b| a.makespan_secs.total_cmp(&b.makespan_secs))
        .expect("non-empty sweep");
    let bursty_speedup = worst_bursty_static.makespan_secs / bursty_adaptive.makespan_secs;

    println!(
        "\nstable:  adaptive {:.0} s vs best static ({}) {:.0} s",
        stable_adaptive.makespan_secs, best_stable_static.label, best_stable_static.makespan_secs
    );
    println!(
        "bursty:  adaptive {:.0} s vs worst static ({}) {:.0} s -- {bursty_speedup:.2}x",
        bursty_adaptive.makespan_secs, worst_bursty_static.label, worst_bursty_static.makespan_secs
    );

    // 1. On the stable profile the controller must not lose to any static
    //    window: the crowd beats the cadence, the window never binds, and
    //    the adaptive run holds its floor — same makespan, same bits.
    assert!(
        stable_adaptive.makespan_secs <= best_stable_static.makespan_secs * (1.0 + 1e-9),
        "adaptive ({} s) must never lose to the best static window ({} at {} s) on a stable profile",
        stable_adaptive.makespan_secs,
        best_stable_static.label,
        best_stable_static.makespan_secs
    );
    // 2. On the bursty profile the controller must rescue the worst static
    //    bet by a factor of at least 1.2.
    assert!(
        bursty_speedup >= 1.2,
        "adaptive must beat the worst static window by >= 1.2x on the bursty profile, got {bursty_speedup:.3}x"
    );
    // 3. The controller must have actually moved on the bursty profile —
    //    the speedup has to come from widening, not from luck.
    assert!(
        bursty_adaptive.peak_window > 1,
        "the bursty profile must drive the controller off its floor"
    );
    println!("\nGates: stable no-loss ok, bursty {bursty_speedup:.2}x >= 1.2x ok");
}

/// Outage window: the platform goes dark for ten sensing cycles starting
/// one fifth into the 40-cycle stream.
const OUTAGE_FROM_SECS: f64 = 3000.0;
const OUTAGE_UNTIL_SECS: f64 = 9000.0;

fn outage_plan() -> FaultPlan {
    FaultPlan::new(
        0xFA_0175,
        vec![FaultEpisode::PlatformOutage {
            from_secs: OUTAGE_FROM_SECS,
            until_secs: OUTAGE_UNTIL_SECS,
        }],
    )
}

/// Graceful degradation to AI-only labeling under a ten-cycle platform
/// outage injected mid-run: the circuit breaker opens, arrivals degrade to
/// AI-only labeling, interrupted cycles park and re-post on recovery.
///
/// `fault_free` is the tapped paper run from [`makespan`] and `ai_only` the
/// Table II Ensemble row, the floor the degradation ladder must hold. The
/// faulted hybrid must stay at or above that floor, its makespan must
/// recover to within the outage plus four cycle periods of the fault-free
/// run, and a checkpoint taken while the breaker is open must resume
/// byte-identically.
pub fn faults(fixture: &Fixture, fault_free: &RuntimeReport, ai_only: &SchemeReport) {
    banner(
        "Fault injection: accuracy and makespan under a mid-run crowd outage",
        "degradation ladder holds the AI-only floor; breaker recovers the crowd path",
    );

    let faulted_runtime = RuntimeConfig::paper().with_faults(outage_plan());
    let cycle_period = RuntimeConfig::CYCLE_PERIOD_SECS;
    let outage_len = OUTAGE_UNTIL_SECS - OUTAGE_FROM_SECS;
    println!(
        "\noutage: platform dark {OUTAGE_FROM_SECS:.0}-{OUTAGE_UNTIL_SECS:.0} s \
         ({:.0} cycles of the {cycle_period:.0} s cadence)\n",
        outage_len / cycle_period
    );

    let faulted = paper_run(fixture, faulted_runtime.clone(), true);

    println!(
        "{:<18} {:>9} {:>13} {:>9} {:>10}",
        "run", "accuracy", "makespan(s)", "rejected", "degraded"
    );
    for (label, run) in [
        ("hybrid fault-free", fault_free),
        ("hybrid faulted", &faulted),
    ] {
        println!(
            "{:<18} {:>9.3} {:>13.0} {:>9} {:>10}",
            label,
            run.report.accuracy(),
            run.makespan_secs,
            run.posts_rejected,
            run.degraded_cycles,
        );
    }
    println!(
        "{:<18} {:>9.3} {:>13} {:>9} {:>10}",
        "AI-only (Ensemble)",
        ai_only.accuracy(),
        "-",
        "-",
        "-"
    );

    // Mid-outage checkpoint: pause with the breaker open, serialize,
    // restore from bytes, and finish — the finished report must match the
    // uninterrupted faulted run byte for byte.
    let mid_outage = (OUTAGE_FROM_SECS + OUTAGE_UNTIL_SECS) / 2.0;
    let mut interrupted =
        PipelinedSystem::new(&fixture.dataset, CrowdLearnConfig::paper(), faulted_runtime);
    interrupted.attach_metrics_tap(MetricsTap::new());
    let paused = interrupted.run_until(
        &fixture.dataset,
        &fixture.stream,
        RunBound::VirtualTime(mid_outage),
    );
    assert!(paused.is_none(), "the outage must not drain the run");
    assert_eq!(
        interrupted.breaker_state(),
        Some(BreakerState::Open),
        "mid-outage the breaker must be open"
    );
    let bytes = interrupted
        .snapshot()
        .expect("the paper configuration is checkpointable")
        .to_bytes();
    drop(interrupted);
    let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
    let mut resumed = PipelinedSystem::resume(&snapshot, &fixture.stream).expect("payload decodes");
    let resumed_report = resumed.run(&fixture.dataset, &fixture.stream);
    let resume_identical = format!("{resumed_report:?}") == format!("{faulted:?}");
    println!(
        "\nmid-outage checkpoint at {mid_outage:.0} s: {} bytes, resume identical: {}",
        bytes.len(),
        resume_identical
    );

    // Makespan recovery: the outage may cost at most its own length plus a
    // short drain tail of parked/re-posted work.
    let recovery_bound = outage_len + 4.0 * cycle_period;
    let makespan_delta = faulted.makespan_secs - fault_free.makespan_secs;
    println!(
        "makespan delta {makespan_delta:.0} s (bound: outage {outage_len:.0} s + 4 cycles = {recovery_bound:.0} s)"
    );

    // 1. The ladder actually engaged: the outage rejected posts and some
    //    cycles were labeled AI-only.
    assert!(
        faulted.posts_rejected > 0 && faulted.degraded_cycles > 0,
        "the outage must reject posts and degrade cycles (got {} rejected, {} degraded)",
        faulted.posts_rejected,
        faulted.degraded_cycles
    );
    // 2. Degrading holds the AI-only floor: losing the crowd for a third
    //    of the run must never be worse than never having it.
    assert!(
        faulted.report.accuracy() >= ai_only.accuracy(),
        "faulted hybrid ({:.3}) must hold the AI-only floor ({:.3})",
        faulted.report.accuracy(),
        ai_only.accuracy()
    );
    // 3. Makespan recovers: the outage costs at most its own length plus a
    //    four-cycle drain tail.
    assert!(
        makespan_delta <= recovery_bound,
        "faulted makespan must recover within {recovery_bound:.0} s of fault-free, \
         got +{makespan_delta:.0} s"
    );
    // 4. The mid-outage checkpoint resumes byte-identically.
    assert!(
        resume_identical,
        "mid-outage resume diverged from the uninterrupted faulted run"
    );
    println!(
        "\nGates: ladder engaged ok, AI-only floor held (+{:.3}), \
         recovery {makespan_delta:+.0} s <= {recovery_bound:.0} s ok, resume identical ok",
        faulted.report.accuracy() - ai_only.accuracy()
    );
}
