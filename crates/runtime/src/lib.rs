//! # crowdlearn-runtime
//!
//! An event-driven, virtual-time runtime for the CrowdLearn closed loop.
//!
//! The paper's closed loop waits out every crowd answer before touching
//! the next query, so a sensing cycle's wall time is dominated by serial
//! crowd latency. In the paper's deployment those waits overlap: cycle
//! `k`'s HITs are still out on the platform while cycle `k+1`'s imagery
//! arrives and runs AI inference. This crate runs the loop either way —
//! blocking at an in-flight window of one, or overlapped — *deterministically*
//! as a discrete-event simulation, and [`PipelinedSystem`] is the one way
//! to run a stream:
//!
//! ```no_run
//! use crowdlearn::CrowdLearnConfig;
//! use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
//! use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};
//!
//! let dataset = Dataset::generate(&DatasetConfig::paper());
//! let stream = SensingCycleStream::paper(&dataset);
//! let mut system =
//!     PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), RuntimeConfig::sequential());
//! let run = system.run(&dataset, &stream);
//! println!("accuracy = {:.3}", run.report.confusion.accuracy());
//! println!("weights  = {:?}", system.system().committee_weights());
//! ```
//!
//! The pieces:
//!
//! - [`VirtualClock`] — monotone virtual seconds; wall time plays no role.
//! - [`EventQueue`] — a binary-heap queue of typed [`Event`]s ordered by
//!   `(due time, scheduling order)`, so simultaneous events resolve
//!   deterministically; it owns the run's one clock and counts the events
//!   popped.
//! - [`EventKind`] — the event vocabulary of the loop: cycle arrivals,
//!   inference completions, HIT answers (late ones of waited-out HITs
//!   too) and timeouts, one of which resolves each posted HIT, retrain
//!   completions, fault-episode boundaries, and breaker probes.
//! - [`PipelinedSystem`] — the CrowdLearn modules (QSS/IPD/CQC/MIC)
//!   re-driven as event handlers over the reentrant cycle stages the core
//!   crate exposes, with bounded cycle overlap (backpressure), per-HIT
//!   timeouts, and incentive-escalated reposts charged to the same budget.
//!   The overlap bound is governed by a [`WindowPolicy`]: a static window,
//!   or an adaptive one over `[min, max]` whose deterministic controller
//!   widens/narrows the effective window at `CycleClosed` boundaries from
//!   the run's p90 crowd delay, at one constant tuning
//!   ([`WindowPolicy::PERCENTILE`] and its siblings; [`WindowDecision`] is
//!   its vocabulary, [`RuntimeReport::window_trajectory`] its audit trail).
//!   Execution is reentrant ([`PipelinedSystem::step`] /
//!   [`PipelinedSystem::run_until`]) and checkpointable at any event
//!   boundary into a versioned, checksummed [`RuntimeSnapshot`] that
//!   [`PipelinedSystem::resume`] restores to a byte-identical continuation,
//!   after checking the controller's window and cooldown against the
//!   policy.
//! - [`ParallelSweep`] — scoped-thread executor running one independently
//!   seeded experiment per sweep point, returning results in input order.
//! - [`FleetOrchestrator`] — N concurrent shards (one [`PipelinedSystem`]
//!   per disaster stream) multiplexed into a single deterministic global
//!   event order over a shared worker pool (cross-stream contention defers
//!   HIT completions) and a shared budget ledger ([`FleetLedger`], split
//!   into per-shard quotas by an [`ArbitrationPolicy`], booking each
//!   shard's [`ShardUsage`] on every attempt it posts). The whole fleet
//!   checkpoints into a [`FleetSnapshot`]: one frame under the same
//!   [`SNAPSHOT_FORMAT_VERSION`], carrying each shard's runtime payload
//!   inline; a 1-shard fleet is byte-identical to the bare pipelined
//!   runtime (`tests/determinism.rs`).
//! - [`FaultPlan`] — deterministic fault injection: a seeded, virtual-time
//!   schedule of typed [`FaultEpisode`]s (platform outages, worker
//!   attrition, answer loss, budget shocks) consulted by the driver at
//!   event boundaries, answered with a crowd-path circuit
//!   breaker ([`BreakerState`], probing after one cycle and doubling its
//!   backoff up to eight) and a
//!   degradation ladder down to AI-only labeling — an empty plan is
//!   byte-identical to a run with no fault machinery at all (DESIGN.md
//!   "Fault model & degradation ladder").
//! - [`MetricsTap`] — a deterministic streaming-metrics sink fed by the
//!   driver at every event boundary: per-kind counters, spend pacing
//!   against the budget ledger, window occupancy and queue depth with
//!   high-water marks. The tap observes and never steers: attaching,
//!   replacing or detaching it leaves the run unchanged. It rides inside
//!   [`RuntimeSnapshot`], so a resumed run replays the identical metric
//!   stream ([`MetricsSink`] is the extension point for custom consumers).
//!   Crowd-delay quantiles are a view of the run, not of the tap:
//!   [`PipelinedSystem::crowd_delay`] (live) and the finished report's
//!   [`query_delay`](crowdlearn::SchemeReport::query_delay) are exact
//!   summaries of every absorbed answer's delay.
//!
//! ## The blocking loop is a window of one
//!
//! With [`RuntimeConfig::sequential`] (an in-flight window of one, no HIT
//! timeout) cycles never overlap and each query waits out its answer: the
//! paper's blocking loop, which every experiment that does not study
//! pipelining runs. `tests/golden.rs` pins it, outcome for outcome and
//! committee weight for weight, against a private reference loop over the
//! core crate's stage API. Wider windows change only *when* module calls
//! interleave across cycles, never the per-call arithmetic, and cut the
//! virtual-time makespan by overlapping crowd waits
//! (the `experiments` binary's pipelined-runtime section quantifies it).

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants"), including D4 — library code must surface
//! errors or state its `expect` invariant, never panic mid-cycle.
//!
#![forbid(unsafe_code)]

mod clock;
mod config;
mod event;
mod faults;
mod fleet;
mod frame;
mod hit;
mod metrics;
mod pipeline;
mod queue;
mod snapshot;
mod sweep;

pub use clock::VirtualClock;
pub use config::{RuntimeConfig, WindowPolicy};
pub use event::{Event, EventKind};
pub use faults::{BreakerState, FaultEpisode, FaultPlan};
pub use fleet::{
    ArbitrationPolicy, ContentionStats, FleetConfig, FleetLedger, FleetOrchestrator, FleetReport,
    FleetSnapshot, ShardSpec, ShardUsage,
};
pub use frame::frame_checksum;
pub use hit::HitId;
pub use metrics::{MetricKind, MetricRecord, MetricsSink, MetricsTap};
pub use pipeline::{PipelinedSystem, RunBound, RuntimeReport, WindowDecision};
pub use queue::EventQueue;
pub use snapshot::{RuntimeSnapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION};
pub use sweep::ParallelSweep;
