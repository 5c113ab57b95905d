//! Multi-stream fleet: three concurrent disasters on one worker pool and
//! one budget, with a mid-run fleet checkpoint.
//!
//! ```text
//! cargo run --release --example multi_stream
//! ```
//!
//! The paper evaluates one disaster at a time; a deployed platform serves
//! several at once, and they compete — for the same crowd workers and the
//! same requester budget. This example boots a three-shard
//! `FleetOrchestrator` (three independently seeded disaster streams),
//! splits the fleet budget by priority (the freshest disaster gets the
//! biggest quota), runs the merged deterministic event loop, pauses halfway
//! to checkpoint the *whole fleet* through bytes, resumes, and prints the
//! per-shard attribution: who got which workers, who spent what, and how
//! much queue wait cross-stream contention added.

use std::error::Error;

use crowdlearn::CrowdLearnConfig;
use crowdlearn_runtime::{
    ArbitrationPolicy, FleetConfig, FleetOrchestrator, FleetSnapshot, RunBound, ShardSpec,
};
use crowdlearn_suite::scenarios;

fn main() -> Result<(), Box<dyn Error>> {
    // Three disasters, three independently seeded streams and platforms.
    let seeds = [7u64, 8, 9];
    let (datasets, streams): (Vec<_>, Vec<_>) = seeds.iter().map(|&s| scenarios::demo(s)).unzip();
    let specs: Vec<ShardSpec> = seeds
        .iter()
        .map(|_| ShardSpec::new(CrowdLearnConfig::paper(), scenarios::demo_runtime()))
        .collect();

    // One budget for the whole fleet, split 3:2:1 by disaster priority.
    let fleet_config = FleetConfig::new(3.0 * CrowdLearnConfig::paper().budget_cents)
        .with_arbitration(ArbitrationPolicy::Priority(vec![3.0, 2.0, 1.0]));
    let mut fleet = FleetOrchestrator::new(specs.clone(), fleet_config.clone(), &datasets);
    fleet.attach_metrics_taps();
    println!(
        "fleet: {} shards, {} workers shared, budget {:.0} ¢",
        fleet.shards(),
        fleet.fleet_config().pool_capacity,
        fleet.ledger().fleet_budget_cents()
    );
    for i in 0..fleet.shards() {
        println!(
            "  shard {i}: quota {:>6.0} ¢",
            fleet.ledger().quota_cents(i)
        );
    }

    // Reference: one uninterrupted fleet run.
    let expected = fleet.run(&datasets, &streams);

    // Interrupted run: pause at the halfway event boundary, serialize the
    // whole fleet (every shard + pool + ledger), restore from bytes — the
    // `?`s thread `SnapshotError` through `Box<dyn Error>`.
    let mut fleet = FleetOrchestrator::new(specs, fleet_config, &datasets);
    fleet.attach_metrics_taps();
    let half = expected.events_processed / 2;
    assert!(fleet
        .run_until(&datasets, &streams, RunBound::Events(half))
        .is_none());
    let bytes = fleet.snapshot()?.to_bytes();
    println!(
        "\ncheckpoint at event {half}: {} bytes (one frame: config, spend, pool, 3 shard payloads)",
        bytes.len()
    );
    drop(fleet);
    let mut resumed = FleetOrchestrator::resume(&FleetSnapshot::from_bytes(&bytes)?, &streams)?;
    let report = resumed.run(&datasets, &streams);
    assert_eq!(
        format!("{report:?}"),
        format!("{expected:?}"),
        "fleet resume diverged from the uninterrupted run"
    );
    println!("resume is byte-identical to the uninterrupted fleet run ✓");

    // Per-shard attribution: each shard's platform books its own usage
    // under its submitter id, and the fleet ledger audits the quotas.
    println!("\nshard  accuracy  queries  reposts  worker-s   spent ¢   quota ¢  makespan s");
    for (i, shard) in report.shards.iter().enumerate() {
        let platform_usage = resumed.shard_usage(i);
        println!(
            "{i:>5}  {:>8.3}  {:>7}  {:>7}  {:>8.0}  {:>8}  {:>8.0}  {:>10.0}",
            shard.report.accuracy(),
            platform_usage.queries,
            platform_usage.reposts,
            platform_usage.worker_seconds,
            report.ledger.spent_cents(i),
            report.ledger.quota_cents(i),
            shard.makespan_secs,
        );
    }

    let contention = report.contention;
    println!(
        "\ncontention: {} of {} posts queued, {:.0} s total wait ({:.1} s mean), peak {} busy workers",
        contention.waits_applied,
        contention.posts,
        contention.total_wait_secs,
        contention.mean_wait_secs(),
        contention.peak_busy_workers,
    );
    if let Some(rollup) = &report.rollup_crowd_delay {
        println!(
            "fleet crowd delay: n={}, p50 {:.0} s, p90 {:.0} s",
            rollup.len(),
            rollup.quantile(0.5).unwrap_or(f64::NAN),
            rollup.quantile(0.9).unwrap_or(f64::NAN),
        );
    }
    Ok(())
}
