//! Resume is total: a checkpoint that decodes runs to its end. Each mutant
//! XORs one payload byte, at a drawn offset (every offset can be drawn),
//! with a drawn non-zero value and re-seals the checksum; resume may refuse
//! it, and one it accepts may run to a different report, but it runs until
//! its event queue drains, and never panics. There is no event cap: every
//! fault episode ends by `FaultEpisode::HORIZON_SECS`, so no mutated window
//! keeps the breaker probing past it, and a mutant that did not drain would
//! hang the test. The fixtures are `tests/determinism.rs`'s faulted 8 × 5
//! runtime paused mid-outage and its 2-shard fleet paused with HITs on the
//! board.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{
    frame_checksum, FaultEpisode, FaultPlan, FleetConfig, FleetOrchestrator, FleetSnapshot,
    MetricsTap, PipelinedSystem, RunBound, RuntimeConfig, RuntimeSnapshot, ShardSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS: usize = 3_000;

/// The frame header both snapshot kinds share; its last 8 bytes are the
/// payload's [`frame_checksum`].
const HEADER: usize = 8 + 4 + 8 + 8;

fn streamed(seed: u64) -> (Dataset, SensingCycleStream) {
    let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed));
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    (dataset, stream)
}

/// Window 3 with a 150 s timeout and two attempts: reposts and waited-out
/// answers occur.
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::paper()
        .with_inflight_window(3)
        .with_hit_timeout(Some(150.0), 2)
}

fn faulted_config() -> RuntimeConfig {
    use FaultEpisode::*;
    let episodes = vec![
        PlatformOutage {
            from_secs: 900.0,
            until_secs: 2_100.0,
        },
        WorkerAttrition {
            fraction: 0.5,
            from_secs: 2_100.0,
            until_secs: 3_300.0,
        },
        AnswerLoss {
            prob: 0.5,
            from_secs: 3_300.0,
            until_secs: 4_500.0,
        },
        BudgetShock {
            at_secs: 1_500.0,
            cents: 40.0,
        },
    ];
    runtime_config().with_faults(FaultPlan::new(0xFA017, episodes))
}

/// Resumes and runs `MUTANTS` mutants of the framed `bytes` through
/// `resume_and_run` (`false` when resume refuses one) and asserts that none
/// panicked and that some were refused and some ran.
fn sweep(bytes: &[u8], mut rng: u64, resume_and_run: impl Fn(&[u8]) -> bool) {
    let mut draw = || {
        // SplitMix64.
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (rng ^ (rng >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let (mut ran, mut refused, mut panics) = (0, 0, Vec::new());
    for _ in 0..MUTANTS {
        let offset = HEADER + (draw() as usize) % (bytes.len() - HEADER);
        let xor = 1 + (draw() % 255) as u8;
        let mut mutant = bytes.to_vec();
        mutant[offset] ^= xor;
        let checksum = frame_checksum(&mutant[HEADER..]);
        mutant[HEADER - 8..HEADER].copy_from_slice(&checksum.to_le_bytes());
        match catch_unwind(AssertUnwindSafe(|| resume_and_run(&mutant))) {
            Ok(true) => ran += 1,
            Ok(false) => refused += 1,
            Err(e) => {
                let message = e.downcast_ref::<&str>().map(|s| s.to_string());
                let message = message.or_else(|| e.downcast_ref::<String>().cloned());
                panics.push((offset, xor, message));
            }
        }
    }
    assert!(panics.is_empty(), "{} panics: {panics:?}", panics.len());
    assert!(ran > 0 && refused > 0, "{ran} ran, {refused} refused");
}

#[test]
fn every_runtime_mutant_that_resumes_runs_to_the_end() {
    let (dataset, stream) = streamed(7);
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), faulted_config());
    system.attach_metrics_tap(MetricsTap::new());
    let bound = RunBound::VirtualTime(1_450.0);
    assert!(system.run_until(&dataset, &stream, bound).is_none());
    let bytes = system.snapshot().expect("checkpointable").to_bytes();
    sweep(&bytes, 0x5EED_0001, |mutant| {
        let snapshot = RuntimeSnapshot::from_bytes(mutant).expect("a re-sealed frame opens");
        let resumed = PipelinedSystem::resume(&snapshot, &stream);
        resumed
            .map(|mut system| system.run(&dataset, &stream))
            .is_ok()
    });
}

#[test]
fn every_fleet_mutant_that_resumes_runs_to_the_end() {
    let ((d7, s7), (d8, s8)) = (streamed(7), streamed(8));
    let (datasets, streams) = (vec![d7, d8], vec![s7, s8]);
    let specs = vec![
        ShardSpec::new(CrowdLearnConfig::paper(), faulted_config()),
        ShardSpec::new(CrowdLearnConfig::paper(), runtime_config()),
    ];
    let budget = CrowdLearnConfig::paper().budget_cents * 2.0;
    let mut fleet = FleetOrchestrator::new(specs, FleetConfig::new(budget), &datasets);
    fleet.attach_metrics_taps();
    let bound = RunBound::Events(196);
    assert!(fleet.run_until(&datasets, &streams, bound).is_none());
    let bytes = fleet.snapshot().expect("checkpointable").to_bytes();
    sweep(&bytes, 0x5EED_0002, |mutant| {
        let snapshot = FleetSnapshot::from_bytes(mutant).expect("a re-sealed frame opens");
        let resumed = FleetOrchestrator::resume(&snapshot, &streams);
        resumed
            .map(|mut fleet| fleet.run(&datasets, &streams))
            .is_ok()
    });
}
