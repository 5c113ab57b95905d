//! Checkpoint/resume: pause the event-driven runtime mid-run, serialize it,
//! and finish the run from the snapshot — byte-identically.
//!
//! ```text
//! cargo run --release --example checkpoint_resume
//! ```
//!
//! Long sweeps (and preemptible compute) want the pipelined runtime to
//! survive a process restart. This example drives half the event stream,
//! snapshots at the event boundary, drops the original system entirely,
//! restores from the serialized bytes as a crashed-and-restarted process
//! would, and verifies the resumed run's report matches an uninterrupted
//! reference run byte for byte — for the paper's CrowdLearn and for the
//! Hybrid-AL competitor, whose boosted Ensemble has retrained on crowd
//! labels by the pause.

use crowdlearn::{CrowdLearnConfig, Retrain};
use crowdlearn_runtime::{PipelinedSystem, RunBound, RuntimeSnapshot};
use crowdlearn_suite::scenarios;

fn main() {
    for (name, config) in [
        ("CrowdLearn", CrowdLearnConfig::paper()),
        ("Hybrid-AL", CrowdLearnConfig::hybrid_al()),
    ] {
        println!("{name}:");
        resume_half_way(config);
    }
}

fn resume_half_way(config: CrowdLearnConfig) {
    // A short stream with a HIT timeout so the checkpoint covers the whole
    // event vocabulary: arrivals, inference, HITs in flight, timeouts,
    // escalated reposts, and waited-out late answers.
    let (dataset, stream) = scenarios::demo(7);
    let runtime = scenarios::demo_runtime();

    // Reference: one uninterrupted run.
    let mut reference = PipelinedSystem::new(&dataset, config.clone(), runtime.clone());
    let expected = reference.run(&dataset, &stream);
    println!(
        "  reference run:   {} events, makespan {:.0} s, accuracy {:.3}",
        expected.events_processed,
        expected.makespan_secs,
        expected.report.accuracy()
    );

    // Interrupted run: stop halfway through the event stream...
    let mut system = PipelinedSystem::new(&dataset, config, runtime);
    let half = expected.events_processed / 2;
    let paused = system.run_until(&dataset, &stream, RunBound::Events(half));
    assert!(paused.is_none(), "half the events must not drain the queue");
    let trained = system.system().training_samples();
    println!(
        "  paused:          {} events, virtual time {:.0} s, {} training samples",
        system.events_processed().expect("running"),
        system.virtual_now_secs().expect("running"),
        trained
    );
    if system.system().config().calibration.retrain != Retrain::Off {
        assert!(
            trained > dataset.train().len(),
            "a retraining scheme must have retrained by the pause"
        );
    }

    // ...serialize, discard the live system, restore from bytes.
    let bytes = system.snapshot().expect("infallible").to_bytes();
    println!(
        "  snapshot:        {} bytes (framed + checksummed)",
        bytes.len()
    );
    drop(system);

    let snapshot = RuntimeSnapshot::from_bytes(&bytes).expect("frame validates");
    let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("payload validates");
    let report = resumed.run(&dataset, &stream);
    println!(
        "  resumed run:     {} events, makespan {:.0} s, accuracy {:.3}",
        report.events_processed,
        report.makespan_secs,
        report.report.accuracy()
    );

    assert_eq!(
        format!("{report:?}"),
        format!("{expected:?}"),
        "resumed run diverged from the uninterrupted reference"
    );
    println!("  resume is byte-identical to the uninterrupted run ✓");
}
