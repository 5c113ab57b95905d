//! Same-seed-twice regression: the determinism invariant the detlint pass
//! (DESIGN.md "Determinism invariants") exists to protect. Two runs of the
//! same seeded pipeline must produce *byte-identical* reports — not merely
//! equal summary statistics — so that any nondeterministic iteration order,
//! wall-clock read, or entropy-seeded RNG that sneaks past review shows up
//! as a hard test failure, label by label.

use crowdlearn::{CrowdLearnConfig, Model};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{
    frame_checksum, FleetConfig, FleetOrchestrator, FleetSnapshot, MetricsTap, PipelinedSystem,
    RunBound, RuntimeConfig, RuntimeReport, RuntimeSnapshot, ShardSpec, SnapshotError,
    WindowPolicy, SNAPSHOT_FORMAT_VERSION,
};

fn dataset(seed: u64) -> Dataset {
    Dataset::generate(&DatasetConfig::paper().with_seed(seed))
}

/// A window-3 runtime with a HIT timeout tight enough that timeouts,
/// escalated reposts, *and* waited-out late answers all occur — so
/// checkpoints cover the full event vocabulary and timed-out HITs that
/// stay on the board until their late answer.
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::paper()
        .with_inflight_window(3)
        .with_hit_timeout(Some(150.0), 2)
}

fn fresh_system(dataset: &Dataset) -> PipelinedSystem {
    PipelinedSystem::new(dataset, CrowdLearnConfig::paper(), runtime_config())
}

fn short_run(seed: u64) -> RuntimeReport {
    let dataset = dataset(seed);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let mut system = fresh_system(&dataset);
    system.run(&dataset, &stream)
}

#[test]
fn same_seed_twice_is_byte_identical() {
    let (a, b) = (short_run(7), short_run(7));

    // Byte-for-byte: the full Debug rendering covers every field of the
    // report, every cycle outcome, every per-image label and distribution,
    // and every f64 exactly (Debug prints shortest round-trip form).
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "two same-seed runs rendered different reports"
    );

    // Make the label-level claim explicit too, so a diff pinpoints the
    // first diverging image instead of a megabyte of Debug output.
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa, ob, "cycle {} diverged between same-seed runs", oa.cycle);
    }
    assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn different_seeds_actually_differ() {
    // Guards the test above against vacuity (e.g. a run that ignores its
    // seed entirely would trivially pass the byte-identity check).
    let (a, b) = (short_run(7), short_run(8));
    assert_ne!(
        format!("{a:?}"),
        format!("{b:?}"),
        "seed must reach the pipeline"
    );
}

#[test]
fn checkpoint_resume_is_byte_identical_at_sampled_event_boundaries() {
    let baseline = short_run(7);
    assert!(
        baseline.timeouts > 0 && baseline.reposts > 0,
        "fixture must exercise the timeout/repost machinery"
    );
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let total = baseline.events_processed;

    // Pause at event boundaries spread across the whole run — including
    // before the first event and exactly at the last — serialize through
    // bytes, resume in a fresh system, and finish. Every resumed run must
    // render the byte-identical report.
    let cuts = [0, 1, total / 4, total / 2, (3 * total) / 4, total - 1];
    for cut in cuts {
        let mut system = fresh_system(&dataset);
        let paused = system.run_until(&dataset, &stream, RunBound::Events(cut));
        assert!(
            paused.is_none(),
            "cut {cut} of {total} must pause, not drain"
        );
        let bytes = system
            .snapshot()
            .expect("paper system is checkpointable")
            .to_bytes();
        let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
        let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("payload validates");
        let report = resumed.run(&dataset, &stream);
        assert_eq!(
            format!("{report:?}"),
            format!("{baseline:?}"),
            "resume from event boundary {cut}/{total} diverged"
        );
    }
}

/// An AI-only competitor is a configuration of the runtime, so it
/// checkpoints and resumes like the paper's system.
#[test]
fn ai_only_checkpoint_resume_is_byte_identical() {
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let system = || {
        PipelinedSystem::new(
            &dataset,
            CrowdLearnConfig::ai_only(Model::Ddm),
            runtime_config(),
        )
    };
    let baseline = system().run(&dataset, &stream);
    let mut paused = system();
    let cut = baseline.events_processed / 2;
    assert!(paused
        .run_until(&dataset, &stream, RunBound::Events(cut))
        .is_none());
    let bytes = paused.snapshot().expect("DDM is checkpointable").to_bytes();
    let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
    let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("payload validates");
    assert_eq!(
        format!("{:?}", resumed.run(&dataset, &stream)),
        format!("{baseline:?}")
    );
}

#[test]
fn checkpoint_resume_at_a_virtual_time_boundary() {
    let baseline = short_run(7);
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);

    // Pause mid-run at a wall of virtual time instead of an event count.
    let mut system = fresh_system(&dataset);
    let paused = system.run_until(&dataset, &stream, RunBound::VirtualTime(1500.0));
    assert!(
        paused.is_none(),
        "the run extends past 1500 virtual seconds"
    );
    assert!(system.virtual_now_secs().expect("running") <= 1500.0);
    assert!(system.events_processed().expect("running") < baseline.events_processed);

    let snapshot = system.snapshot().expect("checkpointable");
    let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("valid");
    let report = resumed.run(&dataset, &stream);
    assert_eq!(format!("{report:?}"), format!("{baseline:?}"));
}

#[test]
fn metrics_tap_replays_byte_identically_across_checkpoint_resume() {
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);

    // Uninterrupted tapped run: the report hands the tap back.
    let mut system = fresh_system(&dataset);
    system.attach_metrics_tap(MetricsTap::new());
    let baseline = system.run(&dataset, &stream);
    let baseline_tap = baseline.metrics.as_ref().expect("tap rides the report");
    assert!(
        baseline_tap.records() > 0 && !baseline.report.query_delay.is_empty(),
        "fixture must actually stream metrics"
    );
    // Attaching a tap must observe the run, not perturb it.
    let untapped = short_run(7);
    assert_eq!(baseline.outcomes, untapped.outcomes);
    assert_eq!(baseline.events_processed, untapped.events_processed);

    // Cut the tapped run at event boundaries across the whole run. The tap
    // rides inside the snapshot, so the resumed run continues the metric
    // stream — final tap state and report must be byte-identical.
    let total = baseline.events_processed;
    for cut in [1, total / 3, (2 * total) / 3, total - 1] {
        let mut system = fresh_system(&dataset);
        system.attach_metrics_tap(MetricsTap::new());
        assert!(system
            .run_until(&dataset, &stream, RunBound::Events(cut))
            .is_none());
        let mid_records = system.metrics_tap().expect("tap attached").records();
        let bytes = system.snapshot().expect("checkpointable").to_bytes();
        let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
        let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("payload validates");
        assert_eq!(
            resumed.metrics_tap().expect("tap restored").records(),
            mid_records,
            "resume must restore the tap mid-stream, not restart it"
        );
        let report = resumed.run(&dataset, &stream);
        assert_eq!(
            report.metrics.as_ref().expect("tap rides the report"),
            baseline_tap,
            "tap state diverged after resume from event boundary {cut}/{total}"
        );
        assert_eq!(
            format!("{report:?}"),
            format!("{baseline:?}"),
            "tapped resume from event boundary {cut}/{total} diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Adaptive window controller: determinism and snapshot coverage over a run
// where the controller actually moves the window.

/// An adaptive runtime over `[1, 4]`: on the short 8x5 paper fixture the
/// paper crowd's p90 delay exceeds half the 600 s cadence with arrivals
/// queued, so the controller widens, one step per cooldown, up to its bound.
fn adaptive_runtime_config() -> RuntimeConfig {
    RuntimeConfig::paper().with_window_policy(WindowPolicy::adaptive(1, 4))
}

fn adaptive_run(seed: u64) -> RuntimeReport {
    let dataset = dataset(seed);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let mut system = PipelinedSystem::new(
        &dataset,
        CrowdLearnConfig::paper(),
        adaptive_runtime_config(),
    );
    system.run(&dataset, &stream)
}

#[test]
fn adaptive_same_seed_twice_is_byte_identical_and_the_window_moves() {
    let (a, b) = (adaptive_run(7), adaptive_run(7));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "two same-seed adaptive runs rendered different reports"
    );

    // The test is vacuous unless the controller actually moved: the
    // paper's crowd delays exceed half the cadence, and a window of 1
    // queues arrivals immediately, so the window opens up, one step per
    // cooldown, to its bound.
    assert_eq!(
        a.window_trajectory,
        [2, 2, 3, 3, 4, 4, 4, 4],
        "the controller must move on this fixture"
    );
    assert!(
        a.metrics.is_none(),
        "the controller needs no tap, so an untapped adaptive run has none"
    );
    // The decisions are part of the deterministic surface too.
    assert_eq!(a.window_trajectory, b.window_trajectory);
}

#[test]
fn adaptive_checkpoint_resume_is_byte_identical_at_sampled_event_boundaries() {
    // Snapshot format v4 carries the controller state (effective window,
    // cooldown, last decision, trajectory); resuming mid-run with the
    // controller active must replay the identical report — window moves
    // included — from every sampled boundary.
    let baseline = adaptive_run(7);
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let total = baseline.events_processed;

    for cut in [1, total / 4, total / 2, (3 * total) / 4, total - 1] {
        let mut system = PipelinedSystem::new(
            &dataset,
            CrowdLearnConfig::paper(),
            adaptive_runtime_config(),
        );
        assert!(system
            .run_until(&dataset, &stream, RunBound::Events(cut))
            .is_none());
        let window_at_cut = system.effective_window().expect("running");
        let bytes = system.snapshot().expect("checkpointable").to_bytes();
        let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
        let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("payload validates");
        assert_eq!(
            resumed.effective_window().expect("running"),
            window_at_cut,
            "resume must restore the controller's effective window at cut {cut}"
        );
        let report = resumed.run(&dataset, &stream);
        assert_eq!(
            format!("{report:?}"),
            format!("{baseline:?}"),
            "adaptive resume from event boundary {cut}/{total} diverged"
        );
    }
}

/// A 2-shard fleet fixture over distinct disaster seeds, sharing the
/// default pool with the paper budget quota per shard.
fn fleet_fixture(seeds: &[u64]) -> (Vec<Dataset>, Vec<SensingCycleStream>, FleetOrchestrator) {
    let datasets: Vec<Dataset> = seeds.iter().map(|&s| dataset(s)).collect();
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, 8, 5))
        .collect();
    let specs: Vec<ShardSpec> = seeds
        .iter()
        .map(|_| ShardSpec::new(CrowdLearnConfig::paper(), runtime_config()))
        .collect();
    let budget = CrowdLearnConfig::paper().budget_cents * seeds.len() as f64;
    let mut fleet = FleetOrchestrator::new(specs, FleetConfig::new(budget), &datasets);
    fleet.attach_metrics_taps();
    (datasets, streams, fleet)
}

#[test]
fn one_shard_fleet_matches_the_bare_runtime_byte_for_byte() {
    // The golden parity claim: a fleet of one — fair-share quota, nobody
    // else on the pool — must be indistinguishable from the standalone
    // pipelined runtime, down to the last bit of every f64.
    let baseline = short_run(7);
    let datasets = vec![dataset(7)];
    let streams = vec![SensingCycleStream::new(&datasets[0], 8, 5)];
    let specs = vec![ShardSpec::new(CrowdLearnConfig::paper(), runtime_config())];
    let mut fleet = FleetOrchestrator::new(
        specs,
        FleetConfig::new(CrowdLearnConfig::paper().budget_cents),
        &datasets,
    );
    assert_eq!(
        fleet.ledger().quota_cents(0).to_bits(),
        CrowdLearnConfig::paper().budget_cents.to_bits(),
        "the lone shard's quota must be the untouched paper budget"
    );
    let report = fleet.run(&datasets, &streams);

    assert_eq!(report.shards.len(), 1);
    assert_eq!(
        format!("{:?}", report.shards[0]),
        format!("{baseline:?}"),
        "a 1-shard fleet diverged from the bare pipelined runtime"
    );
    assert_eq!(report.contention.waits_applied, 0);
    assert_eq!(report.contention.total_wait_secs, 0.0);
    assert!(report.contention.posts > 0);
    assert_eq!(
        report.ledger.spent_cents(0),
        report.shards[0]
            .outcomes
            .iter()
            .map(|o| o.spent_cents)
            .sum::<u64>(),
        "the fleet ledger must agree with the shard's own spend"
    );
}

#[test]
fn fleet_same_seeds_twice_is_byte_identical_and_contention_is_real() {
    let (datasets, streams, mut fleet_a) = fleet_fixture(&[7, 8]);
    let a = fleet_a.run(&datasets, &streams);
    let (_, _, mut fleet_b) = fleet_fixture(&[7, 8]);
    let b = fleet_b.run(&datasets, &streams);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "two same-seed fleet runs rendered different reports"
    );

    // The shared pool must actually couple the shards: cross-stream
    // contention defers completions, so shard 7's report differs from its
    // uncontended standalone run.
    assert!(a.contention.waits_applied > 0, "no queue waits applied");
    assert!(a.contention.total_wait_secs > 0.0);
    assert!(a.contention.peak_busy_workers > 0);
    let solo = short_run(7);
    assert_ne!(
        format!("{:?}", a.shards[0].outcomes),
        format!("{:?}", solo.outcomes),
        "a contended shard must not match its uncontended solo run"
    );

    // Per-shard attribution and the delay rollup cover the whole fleet.
    for (i, shard) in a.shards.iter().enumerate() {
        assert_eq!(
            a.ledger.spent_cents(i),
            shard.outcomes.iter().map(|o| o.spent_cents).sum::<u64>(),
            "shard {i} ledger spend diverged from its outcomes"
        );
        assert_eq!(
            fleet_a.shard_usage(i).spent_cents,
            fleet_a.shard(i).system().evaluation_spent_cents(),
            "shard {i} attributed spend diverged from its own platform's"
        );
        assert!(fleet_a.shard_usage(i).worker_seconds > 0.0);
        assert!(a.ledger.spent_cents(i) as f64 <= a.ledger.quota_cents(i));
    }
    let attempts: u64 = (0..fleet_a.shards())
        .map(|i| fleet_a.shard_usage(i))
        .map(|u| u.queries + u.reposts)
        .sum();
    assert_eq!(
        attempts, a.contention.posts,
        "every posted attempt is attributed to one shard"
    );
    let rollup = &a.rollup_crowd_delay;
    let per_shard: Vec<f64> = a
        .shards
        .iter()
        .flat_map(|s| s.report.query_delay.samples().iter().copied())
        .collect();
    assert_eq!(
        rollup.samples(),
        &per_shard[..],
        "rollup must merge every shard's delays"
    );
    assert!(!rollup.is_empty(), "rollup must absorb real delay samples");
}

#[test]
fn fleet_snapshot_resume_is_byte_identical_at_sampled_event_boundaries() {
    let (datasets, streams, mut fleet) = fleet_fixture(&[7, 8]);
    let baseline = fleet.run(&datasets, &streams);
    let total = baseline.events_processed;
    assert!(
        baseline.contention.waits_applied > 0,
        "fixture must checkpoint under real contention"
    );

    // Pause at global event boundaries spread across the merged timeline —
    // including before the first event — serialize through bytes, resume,
    // finish, compare byte-for-byte.
    let cuts = [0, 1, total / 4, total / 2, (3 * total) / 4, total - 1];
    for cut in cuts {
        let (_, _, mut fleet) = fleet_fixture(&[7, 8]);
        let paused = fleet.run_until(&datasets, &streams, RunBound::Events(cut));
        assert!(
            paused.is_none(),
            "cut {cut} of {total} must pause, not drain"
        );
        let bytes = fleet
            .snapshot()
            .expect("paper fleet is checkpointable")
            .to_bytes();
        let snapshot = FleetSnapshot::from_bytes(&bytes).expect("frame validates");
        let mut resumed =
            FleetOrchestrator::resume(&snapshot, &streams).expect("payload validates");
        let report = resumed.run(&datasets, &streams);
        assert_eq!(
            format!("{report:?}"),
            format!("{baseline:?}"),
            "fleet resume from event boundary {cut}/{total} diverged"
        );
    }
}

#[test]
fn fleet_shards_run_their_own_window_policies_deterministically() {
    // One shard on the static paper window, one on an adaptive controller:
    // policies are per-shard state, so a mixed fleet must stay
    // same-seed-reproducible and resume byte-identically mid-run.
    let mixed_fleet = |datasets: &[Dataset]| {
        let specs = vec![
            ShardSpec::new(CrowdLearnConfig::paper(), runtime_config()),
            ShardSpec::new(CrowdLearnConfig::paper(), adaptive_runtime_config()),
        ];
        let budget = CrowdLearnConfig::paper().budget_cents * 2.0;
        let mut fleet = FleetOrchestrator::new(specs, FleetConfig::new(budget), datasets);
        fleet.attach_metrics_taps();
        fleet
    };
    let datasets = vec![dataset(7), dataset(8)];
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, 8, 5))
        .collect();

    let baseline = mixed_fleet(&datasets).run(&datasets, &streams);
    let again = mixed_fleet(&datasets).run(&datasets, &streams);
    assert_eq!(
        format!("{baseline:?}"),
        format!("{again:?}"),
        "two same-seed mixed-policy fleet runs rendered different reports"
    );
    assert_eq!(
        baseline.shards[0].window_trajectory,
        vec![3; 8],
        "the static shard's window must not move"
    );
    assert!(
        baseline.shards[1].window_trajectory.iter().any(|&w| w != 1),
        "the adaptive shard's controller must move: {:?}",
        baseline.shards[1].window_trajectory
    );

    // Mid-run resume with one controller active.
    let total = baseline.events_processed;
    let mut fleet = mixed_fleet(&datasets);
    assert!(fleet
        .run_until(&datasets, &streams, RunBound::Events(total / 2))
        .is_none());
    let bytes = fleet.snapshot().expect("checkpointable").to_bytes();
    let snapshot = FleetSnapshot::from_bytes(&bytes).expect("frame validates");
    let mut resumed = FleetOrchestrator::resume(&snapshot, &streams).expect("payload validates");
    let report = resumed.run(&datasets, &streams);
    assert_eq!(
        format!("{report:?}"),
        format!("{baseline:?}"),
        "mixed-policy fleet resume diverged"
    );
}

#[test]
fn fleet_snapshot_rejects_tampering_and_mismatched_shard_sets() {
    let (datasets, streams, mut fleet) = fleet_fixture(&[7, 8]);
    assert!(fleet
        .run_until(&datasets, &streams, RunBound::Events(60))
        .is_none());
    let bytes = fleet.snapshot().expect("checkpointable").to_bytes();

    let mut wrong_version = bytes.clone();
    wrong_version[8] ^= 0x40;
    assert!(matches!(
        FleetSnapshot::from_bytes(&wrong_version),
        Err(SnapshotError::VersionMismatch { .. })
    ));

    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    assert_eq!(
        FleetSnapshot::from_bytes(&corrupt),
        Err(SnapshotError::ChecksumMismatch)
    );

    // Resuming a 2-shard fleet against one stream is refused before any
    // shard state is rebuilt.
    let snapshot = FleetSnapshot::from_bytes(&bytes).expect("untampered frame validates");
    assert!(matches!(
        FleetOrchestrator::resume(&snapshot, &streams[..1]),
        Err(SnapshotError::ShardCountMismatch {
            expected: 2,
            found: 1
        })
    ));
}

#[test]
fn snapshot_rejects_tampering_and_mismatched_streams() {
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let mut system = fresh_system(&dataset);
    assert!(system
        .run_until(&dataset, &stream, RunBound::Events(40))
        .is_none());
    let bytes = system.snapshot().expect("checkpointable").to_bytes();

    // Version drift must be detected before any payload is trusted.
    let mut wrong_version = bytes.clone();
    wrong_version[8] ^= 0x40;
    assert!(matches!(
        RuntimeSnapshot::from_bytes(&wrong_version),
        Err(SnapshotError::VersionMismatch { .. })
    ));

    // A flipped payload bit fails the checksum.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    assert_eq!(
        RuntimeSnapshot::from_bytes(&corrupt),
        Err(SnapshotError::ChecksumMismatch)
    );

    // Resuming against a stream with a different cycle count is refused.
    let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("untampered frame validates");
    let short_stream = SensingCycleStream::new(&dataset, 5, 5);
    assert!(matches!(
        PipelinedSystem::resume(&snapshot, &short_stream),
        Err(SnapshotError::CycleCountMismatch {
            expected: 8,
            found: 5
        })
    ));
}

/// Forward and backward compatibility: a frame stamped with a *future*
/// format version — one written by a newer build whose payload layout this
/// build cannot know — or with the previous one (v15, whose queue carried a
/// `HitPosted` marker per post) must come back as a typed
/// `VersionMismatch` carrying the found version, refused by the frame
/// before any payload decoder runs: never a panic or a silent misparse.
/// Both frames stamp the one `SNAPSHOT_FORMAT_VERSION`.
#[test]
fn snapshots_reject_future_format_versions_with_typed_errors() {
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let mut system = fresh_system(&dataset);
    assert!(system
        .run_until(&dataset, &stream, RunBound::Events(40))
        .is_none());
    let bytes = system.snapshot().expect("checkpointable").to_bytes();
    for found in [SNAPSHOT_FORMAT_VERSION + 1, SNAPSHOT_FORMAT_VERSION - 1] {
        let mut bytes = bytes.clone();
        // The u32 version field sits right after the 8-byte magic.
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes),
            Err(SnapshotError::VersionMismatch { found })
        );
    }

    let (datasets, streams, mut fleet) = fleet_fixture(&[7, 8]);
    assert!(fleet
        .run_until(&datasets, &streams, RunBound::Events(60))
        .is_none());
    let mut bytes = fleet.snapshot().expect("checkpointable").to_bytes();
    let future = SNAPSHOT_FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    assert!(matches!(
        FleetSnapshot::from_bytes(&bytes),
        Err(SnapshotError::VersionMismatch { found }) if found == future
    ));
}

/// A configuration the snapshot decoder would reject must not boot: an
/// infinite budget used to construct, run and checkpoint, and only then
/// fail its own resume with `Corrupt(Invalid)`.
#[test]
#[should_panic(expected = "budget must be non-negative and finite")]
fn infinite_budget_is_rejected_at_construction_not_at_resume() {
    let dataset = dataset(7);
    PipelinedSystem::new(
        &dataset,
        CrowdLearnConfig::paper().with_budget_cents(f64::INFINITY),
        runtime_config(),
    );
}

// ---------------------------------------------------------------------------
// Fault injection: the empty-plan golden pin, faulted-run determinism, the
// mid-outage checkpoint, per-shard fleet plans, and a seeded corruption
// sweep over both snapshot codecs.
// ---------------------------------------------------------------------------

use crowdlearn_runtime::{BreakerState, FaultEpisode, FaultPlan};

/// A mid-run fault scenario for the 8-cycle fixture (period 600 s): a
/// platform outage across cycles 2-3, worker attrition through the
/// recovery, answer losses near the tail, and a budget shock inside the
/// outage.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(
        0xFA017,
        vec![
            FaultEpisode::PlatformOutage {
                from_secs: 900.0,
                until_secs: 2_100.0,
            },
            FaultEpisode::WorkerAttrition {
                fraction: 0.5,
                from_secs: 2_100.0,
                until_secs: 3_300.0,
            },
            FaultEpisode::AnswerLoss {
                prob: 0.5,
                from_secs: 3_300.0,
                until_secs: 4_500.0,
            },
            FaultEpisode::BudgetShock {
                at_secs: 1_500.0,
                cents: 40.0,
            },
        ],
    )
}

fn faulted_config() -> RuntimeConfig {
    runtime_config().with_faults(fault_plan())
}

fn faulted_run(seed: u64) -> RuntimeReport {
    let dataset = dataset(seed);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), faulted_config());
    system.attach_metrics_tap(MetricsTap::new());
    system.run(&dataset, &stream)
}

#[test]
fn empty_fault_plan_is_byte_identical_to_the_default_config() {
    // The golden pin for the fault machinery's zero-cost claim: a config
    // that *names* a fault plan — nonzero seed but zero episodes — schedules no fault events and draws nothing, so the
    // whole run renders byte-identically to the default config's.
    let baseline = short_run(7);
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let runtime = runtime_config().with_faults(FaultPlan::new(0xDEAD_BEEF, Vec::new()));
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), runtime);
    let report = system.run(&dataset, &stream);
    assert_eq!(
        format!("{report:?}"),
        format!("{baseline:?}"),
        "an empty fault plan must not perturb the run"
    );
    assert_eq!(report.posts_rejected, 0);
    assert_eq!(report.degraded_cycles, 0);
}

/// The paper's hybrid competitors are configurations of the runtime, so
/// they run pipelined (window 4) under a fault plan: every streamed image
/// still receives exactly one final label, and the spend stays within the
/// budget and reconciles with the platform's books.
#[test]
fn hybrid_schemes_run_pipelined_under_a_fault_plan() {
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let runtime = RuntimeConfig::paper()
        .with_hit_timeout(Some(150.0), 2)
        .with_faults(fault_plan());
    for config in [
        CrowdLearnConfig::hybrid_al(),
        CrowdLearnConfig::hybrid_para(),
    ] {
        let budget = config.budget_cents;
        let mut system = PipelinedSystem::new(&dataset, config, runtime.clone());
        let run = system.run(&dataset, &stream);
        assert!(run.posts_rejected > 0, "the outage must refuse posts");
        let mut seen = std::collections::BTreeSet::new();
        assert_eq!(run.outcomes.len(), stream.cycles().len());
        for (cycle, outcome) in stream.cycles().iter().zip(&run.outcomes) {
            assert_eq!(outcome.images.len(), cycle.image_ids.len());
            for img in &outcome.images {
                assert!(seen.insert(img.image), "duplicate label for {}", img.image);
            }
        }
        let streamed: usize = stream.cycles().iter().map(|c| c.image_ids.len()).sum();
        assert_eq!(seen.len(), streamed);
        assert!(run.report.spent_cents as f64 <= budget);
        assert_eq!(
            run.report.spent_cents,
            system.system().evaluation_spent_cents()
        );
    }
}

#[test]
fn faulted_same_seed_twice_is_byte_identical_and_the_ladder_engages() {
    let (a, b) = (faulted_run(7), faulted_run(7));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "two same-seed faulted runs rendered different reports"
    );

    // The scenario must actually bite: refused posts, degraded cycles, and
    // a report that differs from the fault-free run.
    assert!(a.posts_rejected > 0, "the outage must refuse posts");
    assert!(a.degraded_cycles > 0, "some cycle must degrade to AI-only");
    assert_ne!(
        format!("{:?}", a.outcomes),
        format!("{:?}", short_run(7).outcomes),
        "the fault plan must perturb the run it covers"
    );

    // The metrics tap saw every transition: all four episodes started, the
    // three windowed ones ended, and the breaker trip plus each probe's
    // Open->HalfProbe->(Closed|Open) dance left at least three records.
    let tap = a.metrics.as_ref().expect("tap was attached");
    assert_eq!(tap.faults_started(), 4);
    assert_eq!(tap.faults_ended(), 3);
    assert!(tap.breaker_transitions() >= 3);
    assert_eq!(tap.degraded_cycles(), a.degraded_cycles);
    assert!(tap.hits_abandoned() <= tap.hits_timed_out());
}

#[test]
fn breaker_probes_back_off_one_two_four_eight_eight_cycles_then_recover() {
    // A 20-cycle outage from the second arrival on: the first refused post
    // trips the breaker, and every probe is one event that moves it
    // Open -> HalfProbe -> (Open | Closed) — two transitions at once.
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 4, 5);
    let period = RuntimeConfig::CYCLE_PERIOD_SECS;
    let outage_end = 21.0 * period;
    let runtime = RuntimeConfig::sequential().with_faults(FaultPlan::new(
        1,
        vec![FaultEpisode::PlatformOutage {
            from_secs: period,
            until_secs: outage_end,
        }],
    ));
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), runtime);
    system.attach_metrics_tap(MetricsTap::new());
    let transitions = |s: &PipelinedSystem| s.metrics_tap().expect("tap").breaker_transitions();
    let mut trip = None;
    let mut probes = Vec::new();
    loop {
        let before = transitions(&system);
        if !system.step(&dataset, &stream) {
            break;
        }
        let now = system.virtual_now_secs().expect("running");
        match transitions(&system) - before {
            0 => {}
            1 => {
                assert_eq!(trip, None, "the breaker trips once");
                trip = Some(now);
            }
            2 => probes.push((now, system.breaker_state().expect("running"))),
            n => panic!("{n} breaker transitions in one event"),
        }
    }

    let mut last = trip.expect("the outage must trip the breaker");
    let gaps: Vec<f64> = probes
        .iter()
        .map(|&(at, _)| (at - std::mem::replace(&mut last, at)) / period)
        .collect();
    assert_eq!(gaps.len(), 5, "probe gaps {gaps:?}");
    for (gap, expected) in gaps.iter().zip([1.0, 2.0, 4.0, 8.0, 8.0]) {
        assert!((gap - expected).abs() < 1e-9, "probe gaps {gaps:?}");
    }
    let (recovered_at, recovered) = probes[4];
    assert!(probes[..4]
        .iter()
        .all(|&(at, state)| at < outage_end && state == BreakerState::Open));
    assert!(recovered_at >= outage_end && recovered == BreakerState::Closed);
    let report = system.run(&dataset, &stream);
    assert!(report.posts_rejected > 0, "the outage must refuse posts");
}

#[test]
fn mid_outage_checkpoint_resume_is_byte_identical() {
    let baseline = faulted_run(7);
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);

    // Pause inside the outage window (900-2100 s), with the breaker open
    // and cycles parked or degraded, and carry the whole degradation
    // ladder through bytes.
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), faulted_config());
    system.attach_metrics_tap(MetricsTap::new());
    let paused = system.run_until(&dataset, &stream, RunBound::VirtualTime(1_450.0));
    assert!(paused.is_none(), "the run extends past the outage");
    assert_eq!(
        system.breaker_state(),
        Some(BreakerState::Open),
        "the checkpoint must land with the breaker open"
    );

    let bytes = system.snapshot().expect("checkpointable").to_bytes();
    let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
    let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("payload validates");
    assert_eq!(resumed.breaker_state(), Some(BreakerState::Open));
    let report = resumed.run(&dataset, &stream);
    assert_eq!(
        format!("{report:?}"),
        format!("{baseline:?}"),
        "mid-outage resume diverged"
    );
}

/// The seven Table II schemes, in the table's row order.
fn every_scheme() -> [CrowdLearnConfig; 7] {
    [
        CrowdLearnConfig::paper(),
        CrowdLearnConfig::ai_only(Model::Vgg16),
        CrowdLearnConfig::ai_only(Model::Bovw),
        CrowdLearnConfig::ai_only(Model::Ddm),
        CrowdLearnConfig::ai_only(Model::Ensemble),
        CrowdLearnConfig::hybrid_para(),
        CrowdLearnConfig::hybrid_al(),
    ]
}

/// Every scheme checkpoints through the one path: each preset, run under
/// the fault plan with a HIT timeout, pauses at event boundaries across the
/// run (the same live run, checkpointed at each) and resumes from bytes to
/// the uninterrupted run's byte-identical report.
#[test]
fn every_scheme_resumes_byte_identically_under_a_fault_plan() {
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let trained_at_boot = dataset.train().len();
    for config in every_scheme() {
        let retrains = config == CrowdLearnConfig::hybrid_al();
        let baseline =
            PipelinedSystem::new(&dataset, config.clone(), faulted_config()).run(&dataset, &stream);
        assert!(
            baseline.posts_rejected > 0 || config.queries_per_cycle == 0,
            "the outage must refuse a crowd scheme's posts"
        );
        let total = baseline.events_processed;
        let mut live = PipelinedSystem::new(&dataset, config, faulted_config());
        let mut retrained_cuts = 0;
        for _ in 0..3 {
            // Pauses at a quarter, a half and three quarters of the run.
            assert!(live
                .run_until(&dataset, &stream, RunBound::Events(total / 4))
                .is_none());
            let cut = live.events_processed().expect("running");
            if live.system().training_samples() > trained_at_boot {
                retrained_cuts += 1;
            }
            let bytes = live.snapshot().expect("infallible").to_bytes();
            let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
            let mut resumed =
                PipelinedSystem::resume(&snapshot, &stream).expect("payload validates");
            assert_eq!(
                format!("{:?}", resumed.run(&dataset, &stream)),
                format!("{baseline:?}"),
                "{:?} resume from event boundary {cut}/{total} diverged",
                live.system().config().model
            );
        }
        assert!(
            !retrains || retrained_cuts > 0,
            "Hybrid-AL must checkpoint after its first retrain"
        );
    }
}

/// A fleet whose second shard runs Hybrid-AL — the boosted Ensemble, its
/// validation buffer grown by crowd retraining — resumes byte-identically.
#[test]
fn fleet_with_a_hybrid_al_shard_resumes_byte_identically() {
    let datasets = vec![dataset(7), dataset(8)];
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, 8, 5))
        .collect();
    let fleet = || {
        let specs = vec![
            ShardSpec::new(CrowdLearnConfig::paper(), faulted_config()),
            ShardSpec::new(CrowdLearnConfig::hybrid_al(), faulted_config()),
        ];
        let budget = CrowdLearnConfig::paper().budget_cents * 2.0;
        FleetOrchestrator::new(specs, FleetConfig::new(budget), &datasets)
    };
    let baseline = fleet().run(&datasets, &streams);
    let total = baseline.events_processed;
    let mut live = fleet();
    // Pauses half way and at seven eighths of the run, the second after
    // the Hybrid-AL shard's first retrain.
    for step in [total / 2, (3 * total) / 8] {
        assert!(live
            .run_until(&datasets, &streams, RunBound::Events(step))
            .is_none());
        let bytes = live.snapshot().expect("infallible").to_bytes();
        let snapshot = FleetSnapshot::from_bytes(&bytes).expect("frame validates");
        let mut resumed =
            FleetOrchestrator::resume(&snapshot, &streams).expect("payload validates");
        assert_eq!(
            format!("{:?}", resumed.run(&datasets, &streams)),
            format!("{baseline:?}"),
            "fleet resume diverged"
        );
    }
    assert!(
        live.shard(1).system().training_samples() > datasets[1].train().len(),
        "the last checkpoint must land after the Hybrid-AL shard's first retrain"
    );
}

#[test]
fn fleet_shards_run_their_own_fault_plans_and_resume_mid_outage() {
    // Shard 0 rides the outage scenario, shard 1 stays clean: faults are
    // per-shard state, and the shared pool must not leak one shard's
    // outage into the other's crowd path.
    let seeds = [7u64, 8];
    let datasets: Vec<Dataset> = seeds.iter().map(|&s| dataset(s)).collect();
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, 8, 5))
        .collect();
    let specs = || {
        vec![
            ShardSpec::new(CrowdLearnConfig::paper(), faulted_config()),
            ShardSpec::new(CrowdLearnConfig::paper(), runtime_config()),
        ]
    };
    let budget = CrowdLearnConfig::paper().budget_cents * 2.0;
    let mut fleet = FleetOrchestrator::new(specs(), FleetConfig::new(budget), &datasets);
    fleet.attach_metrics_taps();
    let baseline = fleet.run(&datasets, &streams);
    assert!(
        baseline.shards[0].posts_rejected > 0,
        "the faulted shard must hit its outage"
    );
    assert_eq!(
        baseline.shards[1].posts_rejected, 0,
        "the clean shard must never see a refusal"
    );

    // Checkpoint the fleet mid-outage and finish from bytes.
    let total = baseline.events_processed;
    for cut in [total / 3, total / 2] {
        let mut fleet = FleetOrchestrator::new(specs(), FleetConfig::new(budget), &datasets);
        fleet.attach_metrics_taps();
        assert!(fleet
            .run_until(&datasets, &streams, RunBound::Events(cut))
            .is_none());
        let bytes = fleet.snapshot().expect("checkpointable").to_bytes();
        let snapshot = FleetSnapshot::from_bytes(&bytes).expect("frame validates");
        let mut resumed =
            FleetOrchestrator::resume(&snapshot, &streams).expect("payload validates");
        let report = resumed.run(&datasets, &streams);
        assert_eq!(
            format!("{report:?}"),
            format!("{baseline:?}"),
            "fleet resume from event boundary {cut}/{total} diverged"
        );
    }
}

/// SplitMix64 — a tiny seeded position generator for the corruption sweep.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn snapshot_decode_survives_a_seeded_corruption_sweep() {
    // A mid-faulted-run checkpoint covers the richest payload: in-flight
    // HITs (some lost), an open breaker, parked cycles, fault counters.
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), faulted_config());
    system.attach_metrics_tap(MetricsTap::new());
    assert!(system
        .run_until(&dataset, &stream, RunBound::VirtualTime(1_450.0))
        .is_none());
    let bytes = system.snapshot().expect("checkpointable").to_bytes();
    const HEADER: usize = 8 + 4 + 8 + 8;

    let mut rng = 0xC0FFEEu64;

    // Raw single-bit flips anywhere in the frame: the magic, version,
    // length, or checksum check must catch every one with a typed error.
    for _ in 0..512 {
        let pos = (splitmix64(&mut rng) as usize) % bytes.len();
        let bit = (splitmix64(&mut rng) % 8) as u32;
        let mut evil = bytes.clone();
        evil[pos] ^= 1 << bit;
        assert!(
            RuntimeSnapshot::from_bytes(&evil).is_err(),
            "flipped bit {bit} at byte {pos} slipped through the frame checks"
        );
    }

    // Truncations at every kind of boundary: strictly shorter frames must
    // always fail typed, never panic on a short read.
    for _ in 0..128 {
        let cut = (splitmix64(&mut rng) as usize) % bytes.len();
        assert!(
            RuntimeSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes slipped through the frame checks"
        );
    }

    // Checksum-repaired payload flips: the frame validates, so the payload
    // decoders themselves face the corruption. Resume must return a typed
    // result — `Ok` when the flip lands in a don't-care bit, a
    // `SnapshotError` otherwise — and never panic.
    let mut rejected = 0u32;
    for _ in 0..256 {
        let pos = HEADER + (splitmix64(&mut rng) as usize) % (bytes.len() - HEADER);
        let bit = (splitmix64(&mut rng) % 8) as u32;
        let mut evil = bytes.clone();
        evil[pos] ^= 1 << bit;
        let sum = frame_checksum(&evil[HEADER..]);
        evil[20..28].copy_from_slice(&sum.to_le_bytes());
        let snapshot = RuntimeSnapshot::from_bytes(&evil).expect("repaired frame validates");
        if PipelinedSystem::resume(&snapshot, &stream).is_err() {
            rejected += 1;
        }
    }
    assert!(
        rejected > 0,
        "the sweep must actually reach the payload validators"
    );
}

#[test]
fn fleet_snapshot_decode_survives_a_seeded_corruption_sweep() {
    let seeds = [7u64, 8];
    let datasets: Vec<Dataset> = seeds.iter().map(|&s| dataset(s)).collect();
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, 8, 5))
        .collect();
    let specs = vec![
        ShardSpec::new(CrowdLearnConfig::paper(), faulted_config()),
        ShardSpec::new(CrowdLearnConfig::paper(), runtime_config()),
    ];
    let budget = CrowdLearnConfig::paper().budget_cents * 2.0;
    let mut fleet = FleetOrchestrator::new(specs, FleetConfig::new(budget), &datasets);
    fleet.attach_metrics_taps();
    // 196 events reach 8 270.44 virtual s, with crowd answers in flight.
    assert!(fleet
        .run_until(&datasets, &streams, RunBound::Events(196))
        .is_none());
    let in_flight = |i: usize| fleet.shard(i).metrics_tap().map(|t| t.hits_in_flight());
    assert!(
        in_flight(0).unwrap_or(0) + in_flight(1).unwrap_or(0) > 0,
        "the pause has a HIT on the board"
    );
    let bytes = fleet.snapshot().expect("checkpointable").to_bytes();
    const HEADER: usize = 8 + 4 + 8 + 8;

    let mut rng = 0xF1EE7u64;
    for _ in 0..512 {
        let pos = (splitmix64(&mut rng) as usize) % bytes.len();
        let bit = (splitmix64(&mut rng) % 8) as u32;
        let mut evil = bytes.clone();
        evil[pos] ^= 1 << bit;
        assert!(
            FleetSnapshot::from_bytes(&evil).is_err(),
            "flipped bit {bit} at byte {pos} slipped through the fleet frame checks"
        );
    }
    for _ in 0..128 {
        let cut = (splitmix64(&mut rng) as usize) % bytes.len();
        assert!(
            FleetSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes slipped through the fleet frame checks"
        );
    }
    // The fleet payload holds each shard's payload inline, under the one
    // checksum repaired here, so nearly every flip lands in shard bytes.
    let mut shard_rejected = 0u32;
    for _ in 0..256 {
        let pos = HEADER + (splitmix64(&mut rng) as usize) % (bytes.len() - HEADER);
        let bit = (splitmix64(&mut rng) % 8) as u32;
        let mut evil = bytes.clone();
        evil[pos] ^= 1 << bit;
        let sum = frame_checksum(&evil[HEADER..]);
        evil[20..28].copy_from_slice(&sum.to_le_bytes());
        let snapshot = FleetSnapshot::from_bytes(&evil).expect("repaired frame validates");
        if let Err(SnapshotError::Shard { error, .. }) =
            FleetOrchestrator::resume(&snapshot, &streams)
        {
            if matches!(*error, SnapshotError::Corrupt(_)) {
                shard_rejected += 1;
            }
        }
    }
    assert!(
        shard_rejected > 0,
        "the sweep must actually reach the shard payload decoders"
    );
}
