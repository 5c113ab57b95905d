//! The fleet orchestrator: N concurrent disaster streams over one shared
//! worker pool and one budget ledger.
//!
//! The paper evaluates CrowdLearn one disaster at a time; a production
//! deployment serves many. This module runs N independent
//! [`crate::PipelinedSystem`]s as *shards* — one per
//! [`SensingCycleStream`] — multiplexed into a single deterministic global
//! event order, with two fleet-level couplings the single-stream runtime
//! cannot express:
//!
//! * **Shared worker pool.** Crowd workers are a finite resource. Each
//!   shard keeps its own RNG-private [`Platform`](crowdlearn_crowd::Platform)
//!   (so its drawn labels and base delays are exactly the single-stream
//!   ones), while the fleet tracks how many workers *other* shards have
//!   busy and defers every posted HIT by a queue wait that grows with that
//!   cross-stream utilization ([`PendingHit::defer_by`]
//!   (crowdlearn_crowd::PendingHit::defer_by)). A 1-shard fleet sees zero
//!   contention and is byte-identical to the bare pipelined run — pinned by
//!   `tests/determinism.rs`.
//! * **Shared budget ledger.** The fleet's crowd budget is split into
//!   per-shard quotas by an [`ArbitrationPolicy`] (fair-share or priority
//!   weights) at boot; each shard's incentive bandit plans against its
//!   quota, and the [`FleetLedger`] books every posted attempt as its
//!   shard's [`ShardUsage`] and audits the spend against the quota.
//!
//! Global determinism: each shard's `ExecState` keeps its own event queue;
//! the orchestrator always steps the shard whose next event is due
//! earliest, breaking virtual-time ties by shard index. That merge
//! preserves every shard's internal event order (so per-shard behavior
//! matches the standalone runtime wherever contention is zero) and is a
//! pure function of the shard set — same seeds, same shards, byte-identical
//! fleet report.
//!
//! The whole fleet checkpoints into a [`FleetSnapshot`]: one frame (own
//! magic, the shared [`crate::SNAPSHOT_FORMAT_VERSION`], one XXH64
//! checksum) over the fleet config, the ledger's per-shard usage, the
//! pool's live state and every shard's runtime payload inline; resume
//! rebuilds the rest from the config and is byte-identical at any global
//! event boundary.

use crate::frame;
use crate::{MetricsTap, PipelinedSystem, RunBound, RuntimeConfig, RuntimeReport, SnapshotError};
use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem, PostedQuery};
use crowdlearn_dataset::{Dataset, SensingCycleStream};
use crowdlearn_metrics::SummaryStats;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use std::convert::Infallible;

// ---------------------------------------------------------------------------
// Configuration

/// How the fleet budget is split into per-shard quotas at boot.
#[derive(Debug, Clone, PartialEq)]
pub enum ArbitrationPolicy {
    /// Every shard gets an equal share of the fleet budget.
    FairShare,
    /// Shard `i` gets `weights[i] / Σweights` of the fleet budget — e.g. a
    /// just-struck disaster outranks a week-old one. Weights must be
    /// positive and finite, one per shard.
    Priority(Vec<f64>),
}

impl ArbitrationPolicy {
    /// The per-shard budget quotas, in cents.
    fn quotas_cents(&self, fleet_budget_cents: f64, shards: usize) -> Vec<f64> {
        match self {
            ArbitrationPolicy::FairShare => {
                // `budget × (1/N)` so the 1-shard quota is the budget to
                // the last bit (`× 1.0` is exact) — the parity test relies
                // on the shard's bandit seeing the untouched budget.
                let share = 1.0 / shards as f64;
                (0..shards).map(|_| fleet_budget_cents * share).collect()
            }
            ArbitrationPolicy::Priority(weights) => {
                assert_eq!(
                    weights.len(),
                    shards,
                    "one priority weight per shard required"
                );
                let total: f64 = weights.iter().sum();
                weights
                    .iter()
                    .map(|w| fleet_budget_cents * (w / total))
                    .collect()
            }
        }
    }

    /// The one validity rule, shared by [`FleetConfig::check`] and the
    /// snapshot decoder.
    pub fn check(&self) -> Result<(), &'static str> {
        match self {
            ArbitrationPolicy::Priority(weights)
                if weights.is_empty() || !weights.iter().all(|w| w.is_finite() && *w > 0.0) =>
            {
                Err("priority weights must be positive and finite")
            }
            _ => Ok(()),
        }
    }
}

/// Fleet-level configuration: the shared pool's capacity and the budget
/// arbitration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Workers the shared pool holds. Contention kicks in as other shards'
    /// busy workers approach this capacity.
    pub pool_capacity: usize,
    /// Total crowd budget across the fleet, in cents.
    pub fleet_budget_cents: f64,
    /// How the budget splits into per-shard quotas.
    pub arbitration: ArbitrationPolicy,
}

impl FleetConfig {
    /// Contention strength α: a posted HIT whose competitors have
    /// utilization `u` of the pool waits `α · base_completion · u/(1−u)`
    /// extra seconds (u clamped at 0.95).
    pub(crate) const CONTENTION_ALPHA: f64 = 1.0;

    /// A fleet sharing the paper platform's 80-worker pool, fair-share
    /// budget split.
    pub fn new(fleet_budget_cents: f64) -> Self {
        Self {
            pool_capacity: 80,
            fleet_budget_cents,
            arbitration: ArbitrationPolicy::FairShare,
        }
    }

    /// Sets the shared pool capacity.
    pub fn with_pool_capacity(mut self, workers: usize) -> Self {
        self.pool_capacity = workers;
        self
    }

    /// Sets the budget arbitration policy.
    pub fn with_arbitration(mut self, arbitration: ArbitrationPolicy) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// The one validity rule, the arbitration policy's included:
    /// [`FleetOrchestrator::new`] panics with its message, the snapshot
    /// decoder reports `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.pool_capacity == 0 {
            Err("pool capacity must be positive")
        } else if !(self.fleet_budget_cents.is_finite() && self.fleet_budget_cents >= 0.0) {
            Err("fleet budget must be finite and non-negative")
        } else {
            self.arbitration.check()
        }
    }
}

/// One shard's own configuration: the CrowdLearn system settings (its
/// `budget_cents` is *overridden* by the shard's fleet quota at boot) and
/// the runtime scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// The shard's CrowdLearn configuration (seeds, queries per cycle, …).
    pub config: CrowdLearnConfig,
    /// The shard's event-loop scheduling (window, timeout, cadence).
    pub runtime: RuntimeConfig,
}

impl ShardSpec {
    /// Bundles a shard's system and runtime configuration.
    pub fn new(config: CrowdLearnConfig, runtime: RuntimeConfig) -> Self {
        Self { config, runtime }
    }
}

// ---------------------------------------------------------------------------
// Shared worker pool

/// One shard's claim on pool workers until a virtual instant.
#[derive(Debug, Clone, PartialEq)]
struct BusyInterval {
    shard: usize,
    workers: usize,
    until_secs: f64,
}

/// The fleet's capacity model of the crowd: who has how many workers busy
/// until when, and how much queue wait that inflicted on whom.
///
/// Contention is *cross-stream only*: a shard's wait is driven by the
/// workers **other** shards have busy — within-stream load is already part
/// of each platform's pilot-calibrated delay model, and counting it here
/// would double-book it (and break 1-shard parity with the standalone
/// runtime).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SharedWorkerPool {
    capacity: usize,
    busy: Vec<BusyInterval>,
    total_wait_secs: f64,
    waits_applied: u64,
    posts: u64,
    peak_busy_workers: usize,
}

impl SharedWorkerPool {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            busy: Vec::new(),
            total_wait_secs: 0.0,
            waits_applied: 0,
            posts: 0,
            peak_busy_workers: 0,
        }
    }

    /// Drops claims that have expired by `now`. Retention preserves
    /// insertion order, so the surviving list is deterministic.
    fn expire(&mut self, now_secs: f64) {
        self.busy.retain(|b| b.until_secs > now_secs);
    }

    /// The queue wait a HIT posted by `shard` at `now` suffers before any
    /// worker picks it up: `α · base · u/(1−u)` where `u` is the *other*
    /// shards' busy share of capacity, clamped at 0.95 so a saturated pool
    /// yields a large-but-finite (19α·base) multiplier.
    fn queue_wait_secs(&mut self, shard: usize, base_completion_secs: f64, now_secs: f64) -> f64 {
        self.expire(now_secs);
        self.posts += 1;
        let others: usize = self
            .busy
            .iter()
            .filter(|b| b.shard != shard)
            .map(|b| b.workers)
            .sum();
        let u = (others as f64 / self.capacity as f64).min(0.95);
        let wait = FleetConfig::CONTENTION_ALPHA * base_completion_secs * (u / (1.0 - u));
        if wait > 0.0 {
            self.total_wait_secs += wait;
            self.waits_applied += 1;
        }
        wait
    }

    /// Claims `workers` for `shard` until `until_secs` (the HIT's deferred
    /// completion instant).
    fn occupy(&mut self, shard: usize, workers: usize, until_secs: f64) {
        assert!(
            until_secs.is_finite() && until_secs >= 0.0,
            "busy-until must be finite and non-negative"
        );
        self.busy.push(BusyInterval {
            shard,
            workers,
            until_secs,
        });
        let busy_now: usize = self.busy.iter().map(|b| b.workers).sum();
        self.peak_busy_workers = self.peak_busy_workers.max(busy_now);
    }

    /// Whether each shard's claims include the ones its board says it must
    /// hold ([`PipelinedSystem::pool_claims`]) at the fleet's clock, the
    /// latest of the shards': each such HIT matched to a claim of its own
    /// with its worker count and completion instant. A claim can outlive
    /// its HIT (a reposted or lost attempt leaves the board at its
    /// timeout), so the pool may hold more.
    fn holds_claims_of(&self, shards: &[PipelinedSystem]) -> bool {
        let now = shards
            .iter()
            .filter_map(PipelinedSystem::virtual_now_secs)
            .fold(0.0, f64::max);
        shards.iter().enumerate().all(|(shard, system)| {
            let mut held: Vec<(usize, u64)> = (self.busy.iter())
                .filter(|b| b.shard == shard)
                .map(|b| (b.workers, b.until_secs.to_bits()))
                .collect();
            let mut owed: Vec<(usize, u64)> = (system.pool_claims(now))
                .map(|(workers, until)| (workers, until.to_bits()))
                .collect();
            held.sort_unstable();
            owed.sort_unstable();
            let mut held = held.into_iter().peekable();
            owed.into_iter().all(|claim| {
                while held.next_if(|&other| other < claim).is_some() {}
                held.next_if_eq(&claim).is_some()
            })
        })
    }

    fn contention(&self) -> ContentionStats {
        ContentionStats {
            posts: self.posts,
            waits_applied: self.waits_applied,
            total_wait_secs: self.total_wait_secs,
            peak_busy_workers: self.peak_busy_workers,
        }
    }
}

/// Fleet-level contention telemetry, exposed on [`FleetReport`] and via
/// [`FleetOrchestrator::contention`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContentionStats {
    /// HITs posted across the fleet (every attempt, reposts included).
    pub posts: u64,
    /// Posts that suffered a non-zero queue wait.
    pub waits_applied: u64,
    /// Total queue-wait seconds inflicted by cross-stream contention.
    pub total_wait_secs: f64,
    /// Most pool workers ever simultaneously busy (all shards).
    pub peak_busy_workers: usize,
}

impl ContentionStats {
    /// Mean queue wait per posted HIT, in seconds (zero before any post).
    pub fn mean_wait_secs(&self) -> f64 {
        if self.posts == 0 {
            return 0.0;
        }
        self.total_wait_secs / self.posts as f64
    }
}

// ---------------------------------------------------------------------------
// Budget ledger

/// One shard's share of the crowd's traffic during its sensing cycles,
/// booked by the [`FleetLedger`] on every posted attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardUsage {
    /// First-attempt queries the shard posted.
    pub queries: u64,
    /// Reposts (retries of timed-out HITs) the shard posted, kept apart
    /// from `queries` so a retried query is still one logical query.
    pub reposts: u64,
    /// Worker-seconds the shard consumed: every sampled worker's drawn
    /// service time across its attempts, before any queue wait.
    pub worker_seconds: f64,
    /// Cents the shard was charged, reposts included.
    pub spent_cents: u64,
}

/// The fleet's budget book: per-shard quotas (set once, by the arbitration
/// policy) and per-shard [`ShardUsage`] (booked on every posted attempt).
///
/// Enforcement is delegated: each shard's incentive bandit is booted with
/// its quota as its whole budget, so a shard can never outspend its share —
/// the ledger is the audit trail that proves it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetLedger {
    fleet_budget_cents: f64,
    quotas_cents: Vec<f64>,
    usage: Vec<ShardUsage>,
}

impl FleetLedger {
    fn new(fleet_budget_cents: f64, arbitration: &ArbitrationPolicy, shards: usize) -> Self {
        Self {
            fleet_budget_cents,
            quotas_cents: arbitration.quotas_cents(fleet_budget_cents, shards),
            usage: vec![ShardUsage::default(); shards],
        }
    }

    /// Books one posted attempt (`attempt` 1 is the first post, later ones
    /// are reposts) of `worker_seconds` drawn service time at `cents`.
    fn charge(&mut self, shard: usize, attempt: u32, cents: u64, worker_seconds: f64) {
        let usage = &mut self.usage[shard];
        if attempt == 1 {
            usage.queries += 1;
        } else {
            usage.reposts += 1;
        }
        usage.worker_seconds += worker_seconds;
        usage.spent_cents += cents;
        debug_assert!(
            (usage.spent_cents as f64) <= self.quotas_cents[shard] + 1e-9,
            "shard {shard} outspent its quota"
        );
    }

    /// Number of shards the ledger books.
    pub fn shards(&self) -> usize {
        self.quotas_cents.len()
    }

    /// The whole fleet's budget, in cents.
    pub fn fleet_budget_cents(&self) -> f64 {
        self.fleet_budget_cents
    }

    /// Shard `i`'s budget quota, in cents.
    pub fn quota_cents(&self, shard: usize) -> f64 {
        self.quotas_cents[shard]
    }

    /// Cents shard `i` has spent on evaluation posts so far.
    pub fn spent_cents(&self, shard: usize) -> u64 {
        self.usage[shard].spent_cents
    }

    /// Cents shard `i` still has under its quota.
    pub fn remaining_cents(&self, shard: usize) -> f64 {
        (self.quotas_cents[shard] - self.spent_cents(shard) as f64).max(0.0)
    }

    /// Total evaluation cents spent across the fleet.
    pub fn total_spent_cents(&self) -> u64 {
        self.usage.iter().map(|u| u.spent_cents).sum()
    }
}

// ---------------------------------------------------------------------------
// The per-step hook the pipeline driver calls

/// The fleet context a shard's driver sees while handling one event:
/// contention deferral and ledger booking for every HIT it posts.
pub(crate) struct FleetHook<'a> {
    pub(crate) shard: usize,
    pub(crate) pool: &'a mut SharedWorkerPool,
    pub(crate) ledger: &'a mut FleetLedger,
}

impl FleetHook<'_> {
    /// Applies the shared pool to a freshly posted HIT: compute the queue
    /// wait from *other* shards' busy workers, defer the HIT's worker
    /// responses by it, and book the attempt against the shard. The wait
    /// scales the completion the HIT has before fault injection defers it;
    /// [`FleetHook::claim_workers`] then books the workers.
    pub(crate) fn absorb_post(&mut self, now_secs: f64, posted: &mut PostedQuery, attempt: u32) {
        let responses = &posted.pending.response().responses;
        let worker_seconds: f64 = responses.iter().map(|r| r.delay_secs).sum();
        let base = posted.pending.completion_delay_secs();
        let wait = self.pool.queue_wait_secs(self.shard, base, now_secs);
        posted.pending.defer_by(wait);
        let cents = u64::from(posted.incentive.cents());
        self.ledger
            .charge(self.shard, attempt, cents, worker_seconds);
    }

    /// Claims a posted HIT's `workers` until `until_secs`, its completion
    /// after every deferral, worker attrition's included.
    pub(crate) fn claim_workers(&mut self, workers: usize, until_secs: f64) {
        self.pool.occupy(self.shard, workers, until_secs);
    }
}

// ---------------------------------------------------------------------------
// The orchestrator

/// What a fleet run produced: per-shard reports plus the fleet-level view.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Each shard's full [`RuntimeReport`], in shard order.
    pub shards: Vec<RuntimeReport>,
    /// Virtual time at which the *last* shard finished.
    pub makespan_secs: f64,
    /// Events processed across all shards.
    pub events_processed: u64,
    /// The final budget book: quotas and per-shard spend.
    pub ledger: FleetLedger,
    /// Cross-stream contention telemetry.
    pub contention: ContentionStats,
    /// Fleet-level crowd-delay rollup: every shard report's
    /// [`query_delay`](crowdlearn::SchemeReport::query_delay), merged in
    /// shard order.
    pub rollup_crowd_delay: SummaryStats,
}

/// N concurrent [`PipelinedSystem`] shards over one shared worker pool and
/// one budget ledger, stepped as a single deterministic event loop.
///
/// ```text
/// let mut fleet = FleetOrchestrator::new(specs, config, &datasets);
/// let report = fleet.run(&datasets, &streams);
/// ```
///
/// Like its single-stream counterpart, execution is reentrant
/// ([`FleetOrchestrator::step`] / [`FleetOrchestrator::run_until`]) and
/// checkpointable between any two events
/// ([`FleetOrchestrator::snapshot`] / [`FleetOrchestrator::resume`]).
pub struct FleetOrchestrator {
    config: FleetConfig,
    shards: Vec<PipelinedSystem>,
    pool: SharedWorkerPool,
    ledger: FleetLedger,
}

impl FleetOrchestrator {
    /// Boots one [`PipelinedSystem`] per spec (committee training, CQC fit,
    /// bandit warm-up — each on its shard's private platform), overriding
    /// each spec's `budget_cents` with the shard's fleet quota. The shards
    /// boot through one [`CrowdLearnSystem::new_batch`], which fits their
    /// CQC models on one pool of threads; each shard is the system
    /// [`PipelinedSystem::new`] would boot alone.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`FleetConfig::check`] if it rejects the
    /// fleet config, or when `specs` is empty, `specs`/`datasets` lengths
    /// differ, or a priority arbitration has the wrong number of weights.
    pub fn new(specs: Vec<ShardSpec>, config: FleetConfig, datasets: &[Dataset]) -> Self {
        config.check().unwrap_or_else(|e| panic!("{e}"));
        assert!(!specs.is_empty(), "a fleet needs at least one shard");
        assert_eq!(
            specs.len(),
            datasets.len(),
            "one dataset per shard required"
        );
        let ledger = FleetLedger::new(config.fleet_budget_cents, &config.arbitration, specs.len());
        let boots = specs
            .iter()
            .zip(datasets)
            .enumerate()
            .map(|(i, (spec, dataset))| {
                let shard_config = spec.config.clone().with_budget_cents(ledger.quota_cents(i));
                (dataset, shard_config)
            });
        let systems = CrowdLearnSystem::new_batch(boots);
        let shards: Vec<PipelinedSystem> = systems
            .into_iter()
            .zip(specs)
            .map(|(system, spec)| PipelinedSystem::from_system(system, spec.runtime))
            .collect();
        let pool = SharedWorkerPool::new(config.pool_capacity);
        Self {
            config,
            shards,
            pool,
            ledger,
        }
    }

    /// Number of shards in the fleet.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrows shard `i`'s pipelined system (its learned modules, its tap).
    pub fn shard(&self, i: usize) -> &PipelinedSystem {
        &self.shards[i]
    }

    /// Shard `i`'s crowd usage — queries, reposts, worker-seconds, spend —
    /// as the ledger booked it on every attempt the shard posted. Boot-time
    /// characterization posts on the shard's platform before the fleet
    /// runs, so this is cycle-time work only.
    pub fn shard_usage(&self, i: usize) -> ShardUsage {
        self.ledger.usage[i]
    }

    /// The fleet configuration.
    pub fn fleet_config(&self) -> &FleetConfig {
        &self.config
    }

    /// The budget book so far.
    pub fn ledger(&self) -> &FleetLedger {
        &self.ledger
    }

    /// Contention telemetry so far.
    pub fn contention(&self) -> ContentionStats {
        self.pool.contention()
    }

    /// Events processed across all shards so far.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.events_processed().unwrap_or(0))
            .sum()
    }

    /// The fleet's virtual "now": the latest shard clock, or `None` before
    /// the first step.
    pub fn virtual_now_secs(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(|s| s.virtual_now_secs())
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Attaches a fresh [`MetricsTap`] to every shard. Attach before the
    /// first step to count whole runs; the crowd-delay rollup covers the
    /// whole run with or without taps.
    pub fn attach_metrics_taps(&mut self) {
        for shard in &mut self.shards {
            shard.attach_metrics_tap(MetricsTap::new());
        }
    }

    /// Begins every shard's execution if not already begun.
    pub fn start(&mut self, streams: &[SensingCycleStream]) {
        assert_eq!(
            streams.len(),
            self.shards.len(),
            "one stream per shard required"
        );
        for (shard, stream) in self.shards.iter_mut().zip(streams) {
            shard.start(stream);
        }
    }

    /// The shard holding the globally next-due event, with its due time:
    /// earliest virtual due time, ties broken by shard index. `None` when
    /// every queue has drained.
    fn next_shard(&self) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(due) = shard.next_event_due_secs() else {
                continue;
            };
            // Strict `<` keeps the lowest index on equal due times.
            if best.is_none_or(|(t, _)| due < t) {
                best = Some((due, i));
            }
        }
        best
    }

    /// Steps shard `i`, which holds the globally next event, once under
    /// the fleet hook.
    fn step_shard(&mut self, i: usize, datasets: &[Dataset], streams: &[SensingCycleStream]) {
        let stepped = self.shards[i].step_with(
            &datasets[i],
            &streams[i],
            Some(FleetHook {
                shard: i,
                pool: &mut self.pool,
                ledger: &mut self.ledger,
            }),
        );
        debug_assert!(stepped, "peeked shard must pop an event");
    }

    /// Processes the globally next event (the earliest-due shard steps
    /// once, under the fleet hook). Returns `false` when every shard's
    /// queue has drained — the next [`FleetOrchestrator::run_until`] (or
    /// [`FleetOrchestrator::run`]) call produces the report.
    pub fn step(&mut self, datasets: &[Dataset], streams: &[SensingCycleStream]) -> bool {
        self.start(streams);
        let Some((_, i)) = self.next_shard() else {
            return false;
        };
        self.step_shard(i, datasets, streams);
        true
    }

    /// Drives the global event loop until `bound` is exhausted or every
    /// shard drains. Returns the report on completion, `None` on a pause —
    /// ready for more `run_until` calls or a
    /// [`FleetOrchestrator::snapshot`]. Bounds are global: `Events(n)`
    /// processes at most `n` events fleet-wide, `VirtualTime(t)` processes
    /// every event due at or before `t` on the merged timeline.
    pub fn run_until(
        &mut self,
        datasets: &[Dataset],
        streams: &[SensingCycleStream],
        bound: RunBound,
    ) -> Option<FleetReport> {
        self.start(streams);
        let mut remaining = match bound {
            RunBound::Events(n) => n,
            RunBound::VirtualTime(_) => u64::MAX,
        };
        while let Some((due, i)) = self.next_shard() {
            if remaining == 0 {
                return None;
            }
            if let RunBound::VirtualTime(t) = bound {
                if due > t {
                    return None;
                }
            }
            self.step_shard(i, datasets, streams);
            remaining -= 1;
        }
        Some(self.finish())
    }

    /// Runs every shard to completion and reports.
    pub fn run(&mut self, datasets: &[Dataset], streams: &[SensingCycleStream]) -> FleetReport {
        self.run_until(datasets, streams, RunBound::Events(u64::MAX))
            .expect("invariant: an unbounded run drains every shard queue")
    }

    /// Closes out all (drained) shard executions into the fleet report.
    fn finish(&mut self) -> FleetReport {
        let reports: Vec<RuntimeReport> = self.shards.iter_mut().map(|s| s.finish()).collect();
        let makespan_secs = reports.iter().map(|r| r.makespan_secs).fold(0.0, f64::max);
        let events_processed = reports.iter().map(|r| r.events_processed).sum();
        let mut rollup_crowd_delay = SummaryStats::new();
        for report in &reports {
            rollup_crowd_delay.merge(&report.report.query_delay);
        }
        FleetReport {
            shards: reports,
            makespan_secs,
            events_processed,
            ledger: self.ledger.clone(),
            contention: self.pool.contention(),
            rollup_crowd_delay,
        }
    }

    /// Serializes the whole fleet at the current global event boundary:
    /// `FleetConfig ‖ per-shard usage ‖ pool live state ‖ shard payloads`,
    /// each shard payload exactly the bytes its own
    /// [`PipelinedSystem::snapshot`] would seal. Every fleet checkpoints;
    /// the `Result` never holds an error.
    pub fn snapshot(&self) -> Result<FleetSnapshot, Infallible> {
        let mut payload = Vec::with_capacity(self.shards.len() * PipelinedSystem::PAYLOAD_RESERVE);
        self.config.encode(&mut payload);
        self.ledger.usage.encode(&mut payload);
        self.pool.encode_live(&mut payload);
        for system in &self.shards {
            system.encode_payload(&mut payload);
        }
        Ok(FleetSnapshot::seal(payload))
    }

    /// Rebuilds a fleet from a snapshot, against the same per-shard streams
    /// the snapshotted fleet was processing (streams regenerate
    /// deterministically from dataset + seed; resume cross-checks shard and
    /// cycle counts). The ledger and pool are the ones [`Self::new`] boots
    /// from the decoded config, with the usage and live pool state restored
    /// onto them.
    pub fn resume(
        snapshot: &FleetSnapshot,
        streams: &[SensingCycleStream],
    ) -> Result<Self, SnapshotError> {
        let corrupt = SnapshotError::Corrupt;
        let mut r = Reader::new(snapshot.payload());
        let config = FleetConfig::decode(&mut r).map_err(corrupt)?;
        let usage = Vec::<ShardUsage>::decode(&mut r).map_err(corrupt)?;
        let n = usage.len();
        let weights_fit = match &config.arbitration {
            ArbitrationPolicy::Priority(weights) => weights.len() == n,
            ArbitrationPolicy::FairShare => true,
        };
        if n == 0 || !weights_fit {
            return Err(corrupt(DecodeError::Invalid));
        }
        let mut ledger = FleetLedger::new(config.fleet_budget_cents, &config.arbitration, n);
        // `charge` holds every shard to its quota.
        let over_quota = usage
            .iter()
            .zip(&ledger.quotas_cents)
            .any(|(u, &quota)| u.spent_cents as f64 > quota + 1e-9);
        if over_quota {
            return Err(corrupt(DecodeError::Invalid));
        }
        ledger.usage = usage;
        let pool = SharedWorkerPool::new(config.pool_capacity)
            .decode_live(&mut r)
            .map_err(corrupt)?;
        // Every attempt the ledger booked went through the pool.
        let attempts = ledger.usage.iter().try_fold(0u64, |sum, u| {
            sum.checked_add(u.queries)?.checked_add(u.reposts)
        });
        if pool.busy.iter().any(|b| b.shard >= n) || attempts != Some(pool.posts) {
            return Err(corrupt(DecodeError::Invalid));
        }
        if streams.len() != n {
            return Err(SnapshotError::ShardCountMismatch {
                expected: n,
                found: streams.len(),
            });
        }
        let mut shards = Vec::with_capacity(n);
        for (shard, stream) in streams.iter().enumerate() {
            let system = PipelinedSystem::decode_payload(&mut r, stream).map_err(|error| {
                SnapshotError::Shard {
                    shard,
                    error: Box::new(error),
                }
            })?;
            // `new` boots every shard at its quota, and the ledger booked
            // every cent the shard has spent since.
            let booted = system.system().config().budget_cents.to_bits()
                == ledger.quota_cents(shard).to_bits()
                && ledger.spent_cents(shard) == system.system().evaluation_spent_cents();
            if !booted {
                return Err(corrupt(DecodeError::Invalid));
            }
            shards.push(system);
        }
        if !r.is_empty() || !pool.holds_claims_of(&shards) {
            return Err(corrupt(DecodeError::Invalid));
        }
        Ok(Self {
            config,
            shards,
            pool,
            ledger,
        })
    }
}

// ---------------------------------------------------------------------------
// Fleet snapshot framing

/// Leading bytes of every fleet snapshot.
const FLEET_MAGIC: [u8; 8] = *b"CLFLEET\x00";

/// A sealed fleet snapshot: the [`crate::RuntimeSnapshot`] frame (format
/// version, payload length, XXH64 checksum) under its own magic, so a
/// later process can validate the bytes before trusting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    payload: Vec<u8>,
}

impl FleetSnapshot {
    fn seal(payload: Vec<u8>) -> Self {
        Self { payload }
    }

    fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The snapshot's serialized size in bytes, framing included.
    pub fn serialized_len(&self) -> usize {
        frame::HEADER_LEN + self.payload.len()
    }

    /// Serializes the snapshot with its magic/version/length/checksum
    /// frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::seal(&FLEET_MAGIC, &self.payload)
    }

    /// Validates the frame (magic, version, length, checksum) and returns
    /// the snapshot; payload *contents* are validated by
    /// [`FleetOrchestrator::resume`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = frame::open(&FLEET_MAGIC, bytes)?;
        Ok(Self {
            payload: payload.to_vec(),
        })
    }
}

// ---------------------------------------------------------------------------
// Codecs

impl Encode for ArbitrationPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ArbitrationPolicy::FairShare => 0u8.encode(out),
            ArbitrationPolicy::Priority(weights) => {
                1u8.encode(out);
                weights.encode(out);
            }
        }
    }
}

impl Decode for ArbitrationPolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(ArbitrationPolicy::FairShare),
            1 => {
                let weights = Vec::<f64>::decode(r)?;
                let policy = ArbitrationPolicy::Priority(weights);
                policy.check().map_err(|_| DecodeError::Invalid)?;
                Ok(policy)
            }
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for FleetConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pool_capacity.encode(out);
        self.fleet_budget_cents.encode(out);
        self.arbitration.encode(out);
    }
}

impl Decode for FleetConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            pool_capacity: usize::decode(r)?,
            fleet_budget_cents: f64::decode(r)?,
            arbitration: ArbitrationPolicy::decode(r)?,
        };
        config.check().map_err(|_| DecodeError::Invalid)?;
        Ok(config)
    }
}

impl Encode for BusyInterval {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.workers.encode(out);
        self.until_secs.encode(out);
    }
}

impl Decode for BusyInterval {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let interval = Self {
            shard: usize::decode(r)?,
            workers: usize::decode(r)?,
            until_secs: f64::decode(r)?,
        };
        if !interval.until_secs.is_finite() || interval.until_secs < 0.0 {
            return Err(DecodeError::Invalid);
        }
        Ok(interval)
    }
}

impl Encode for ShardUsage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.queries.encode(out);
        self.reposts.encode(out);
        self.worker_seconds.encode(out);
        self.spent_cents.encode(out);
    }
}

impl Decode for ShardUsage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let usage = Self {
            queries: u64::decode(r)?,
            reposts: u64::decode(r)?,
            worker_seconds: f64::decode(r)?,
            spent_cents: u64::decode(r)?,
        };
        if !usage.worker_seconds.is_finite() || usage.worker_seconds < 0.0 {
            return Err(DecodeError::Invalid);
        }
        Ok(usage)
    }
}

impl SharedWorkerPool {
    /// Writes the pool's live state — busy claims and contention counters;
    /// the capacity is the `FleetConfig`'s.
    fn encode_live(&self, out: &mut Vec<u8>) {
        self.busy.encode(out);
        self.total_wait_secs.encode(out);
        self.waits_applied.encode(out);
        self.posts.encode(out);
        self.peak_busy_workers.encode(out);
    }

    /// Restores the live state [`Self::encode_live`] wrote onto a pool
    /// freshly booted by [`Self::new`].
    fn decode_live(self, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pool = Self {
            busy: Vec::<BusyInterval>::decode(r)?,
            total_wait_secs: f64::decode(r)?,
            waits_applied: u64::decode(r)?,
            posts: u64::decode(r)?,
            peak_busy_workers: usize::decode(r)?,
            ..self
        };
        let valid = pool.total_wait_secs.is_finite()
            && pool.total_wait_secs >= 0.0
            && pool.waits_applied <= pool.posts;
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_shard_never_waits() {
        let mut pool = SharedWorkerPool::new(80);
        let w1 = pool.queue_wait_secs(0, 100.0, 0.0);
        pool.occupy(0, 5, 100.0);
        // Own busy workers never count against the same shard.
        let w2 = pool.queue_wait_secs(0, 100.0, 10.0);
        assert_eq!((w1, w2), (0.0, 0.0));
        assert_eq!(pool.contention().waits_applied, 0);
        assert_eq!(pool.contention().posts, 2);
    }

    #[test]
    fn waits_grow_with_other_shards_utilization() {
        let mut pool = SharedWorkerPool::new(80);
        pool.occupy(1, 20, 1_000.0);
        let light = pool.queue_wait_secs(0, 100.0, 0.0);
        pool.occupy(2, 40, 1_000.0);
        let heavy = pool.queue_wait_secs(0, 100.0, 0.0);
        // u = 20/80 → wait = 100·(0.25/0.75); u = 60/80 → 100·(0.75/0.25).
        assert!((light - 100.0 / 3.0).abs() < 1e-9, "light wait {light}");
        assert!((heavy - 300.0).abs() < 1e-9, "heavy wait {heavy}");
        assert!(heavy > light);
    }

    #[test]
    fn saturated_pool_clamps_at_the_utilization_cap() {
        let mut pool = SharedWorkerPool::new(10);
        pool.occupy(1, 500, 1_000.0);
        let wait = pool.queue_wait_secs(0, 100.0, 0.0);
        // Clamped at u = 0.95 → ×19 multiplier.
        assert!((wait - 1_900.0).abs() < 1e-9, "clamped wait {wait}");
    }

    #[test]
    fn expired_claims_release_their_workers() {
        let mut pool = SharedWorkerPool::new(80);
        pool.occupy(1, 40, 50.0);
        assert!(pool.queue_wait_secs(0, 100.0, 0.0) > 0.0);
        // At t=50 the claim has lapsed (strict `until > now`).
        assert_eq!(pool.queue_wait_secs(0, 100.0, 50.0), 0.0);
    }

    #[test]
    fn fair_share_splits_evenly_and_priority_by_weight() {
        let fair = FleetLedger::new(1_200.0, &ArbitrationPolicy::FairShare, 3);
        for i in 0..3 {
            assert!((fair.quota_cents(i) - 400.0).abs() < 1e-9);
        }
        let prio = FleetLedger::new(
            1_200.0,
            &ArbitrationPolicy::Priority(vec![3.0, 2.0, 1.0]),
            3,
        );
        assert!((prio.quota_cents(0) - 600.0).abs() < 1e-9);
        assert!((prio.quota_cents(1) - 400.0).abs() < 1e-9);
        assert!((prio.quota_cents(2) - 200.0).abs() < 1e-9);
        assert!((prio.fleet_budget_cents() - 1_200.0).abs() < 1e-9);
    }

    #[test]
    fn single_shard_fair_share_quota_is_bitwise_exact() {
        // The 1-shard parity chain needs the quota to equal the budget to
        // the last bit, or the shard's bandit would plan differently.
        let ledger = FleetLedger::new(1_000.0, &ArbitrationPolicy::FairShare, 1);
        assert_eq!(ledger.quota_cents(0).to_bits(), 1_000.0f64.to_bits());
    }

    #[test]
    fn ledger_books_spend_per_shard() {
        let mut ledger = FleetLedger::new(100.0, &ArbitrationPolicy::FairShare, 2);
        ledger.charge(0, 1, 6, 30.5);
        ledger.charge(0, 2, 4, 12.25);
        ledger.charge(1, 1, 20, 8.0);
        assert_eq!(ledger.spent_cents(0), 10);
        assert_eq!(ledger.spent_cents(1), 20);
        assert_eq!(ledger.total_spent_cents(), 30);
        assert!((ledger.remaining_cents(0) - 40.0).abs() < 1e-9);
        // The repost is its own tally; its cents and worker time add up.
        let shard0 = ledger.usage[0];
        assert_eq!((shard0.queries, shard0.reposts), (1, 1));
        assert_eq!(shard0.worker_seconds, 42.75);
        let shard1 = ledger.usage[1];
        assert_eq!((shard1.queries, shard1.reposts), (1, 0));
        assert_eq!(shard1.worker_seconds, 8.0);
    }

    #[test]
    #[should_panic(expected = "one priority weight per shard")]
    fn priority_weight_count_must_match_shards() {
        FleetLedger::new(100.0, &ArbitrationPolicy::Priority(vec![1.0, 2.0]), 3);
    }

    #[test]
    fn pool_and_config_codecs_round_trip() {
        let mut pool = SharedWorkerPool::new(80);
        pool.occupy(1, 20, 700.0);
        let _ = pool.queue_wait_secs(0, 100.0, 10.0);
        let mut bytes = Vec::new();
        pool.encode_live(&mut bytes);
        let decoded = SharedWorkerPool::new(80)
            .decode_live(&mut Reader::new(&bytes))
            .expect("pool codec round trips");
        assert_eq!(pool, decoded);

        let config = FleetConfig::new(900.0)
            .with_pool_capacity(40)
            .with_arbitration(ArbitrationPolicy::Priority(vec![2.0, 1.0]));
        let decoded = FleetConfig::from_bytes(&config.to_bytes()).expect("config codec");
        assert_eq!(config, decoded);
    }

    #[test]
    fn fleet_frame_round_trips_and_rejects_tampering() {
        let snap = FleetSnapshot::seal(vec![7; 24]);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.serialized_len());
        assert_eq!(FleetSnapshot::from_bytes(&bytes), Ok(snap));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            FleetSnapshot::from_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        );

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

        assert_eq!(
            FleetSnapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Corrupt(DecodeError::Truncated))
        );
    }

    /// A fleet of `shards` identical shards over one dataset (capacity 80,
    /// `budget_cents`) paused after 5 events, and its streams.
    fn paused_fleet(
        budget_cents: f64,
        shards: usize,
    ) -> (FleetOrchestrator, Vec<SensingCycleStream>) {
        paused_fleet_under(RuntimeConfig::paper(), budget_cents, shards, 5)
    }

    /// The paper runtime with half the worker pool gone for the whole run,
    /// so every answer takes twice as long, and the events after which
    /// each of two shards has posted under it.
    fn under_attrition() -> (RuntimeConfig, u64) {
        let attrition = crate::FaultEpisode::WorkerAttrition {
            fraction: 0.5,
            from_secs: 0.0,
            until_secs: 1e5,
        };
        let plan = crate::FaultPlan::new(3, vec![attrition]);
        (RuntimeConfig::paper().with_faults(plan), 8)
    }

    /// [`paused_fleet`] with each shard on `runtime`, paused after
    /// `events` events.
    fn paused_fleet_under(
        runtime: RuntimeConfig,
        budget_cents: f64,
        shards: usize,
        events: u64,
    ) -> (FleetOrchestrator, Vec<SensingCycleStream>) {
        use crowdlearn_dataset::DatasetConfig;
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(7));
        let streams = vec![SensingCycleStream::new(&dataset, 6, 4); shards];
        let mut config = CrowdLearnConfig::paper();
        config.cqc_training_queries = 200;
        config.warmup_per_cell = 2;
        let datasets = vec![dataset; shards];
        let specs = vec![ShardSpec::new(config, runtime); shards];
        let mut fleet = FleetOrchestrator::new(specs, FleetConfig::new(budget_cents), &datasets);
        assert!(fleet
            .run_until(&datasets, &streams, RunBound::Events(events))
            .is_none());
        (fleet, streams)
    }

    /// A fleet snapshot payload taken apart: config, per-shard usage, pool
    /// live state, and each shard's runtime payload.
    struct Parts {
        config: FleetConfig,
        usage: Vec<ShardUsage>,
        pool: SharedWorkerPool,
        shards: Vec<Vec<u8>>,
    }

    impl Parts {
        fn split(snapshot: &FleetSnapshot, streams: &[SensingCycleStream]) -> Self {
            let payload = snapshot.payload();
            let mut r = Reader::new(payload);
            let config = FleetConfig::decode(&mut r).expect("config");
            let usage = Vec::<ShardUsage>::decode(&mut r).expect("usage");
            let pool = SharedWorkerPool::new(config.pool_capacity)
                .decode_live(&mut r)
                .expect("pool");
            let shards = streams
                .iter()
                .map(|stream| {
                    let start = payload.len() - r.remaining();
                    PipelinedSystem::decode_payload(&mut r, stream).expect("shard payload");
                    payload[start..payload.len() - r.remaining()].to_vec()
                })
                .collect();
            assert!(r.is_empty(), "the shard payloads end the fleet payload");
            Self {
                config,
                usage,
                pool,
                shards,
            }
        }

        fn seal(&self) -> FleetSnapshot {
            let mut payload = Vec::new();
            self.config.encode(&mut payload);
            self.usage.encode(&mut payload);
            self.pool.encode_live(&mut payload);
            for shard in &self.shards {
                payload.extend_from_slice(shard);
            }
            FleetSnapshot::seal(payload)
        }
    }

    /// The payload parts of a 1-shard [`paused_fleet`] of `budget_cents`.
    fn paused_parts(budget_cents: f64) -> Parts {
        let (fleet, streams) = paused_fleet(budget_cents, 1);
        Parts::split(&fleet.snapshot().expect("checkpointable"), &streams)
    }

    /// An edit to the parts of a fleet snapshot payload.
    type Splice = fn(&mut Parts);

    /// Resumes a 1000 ¢ [`paused_fleet`] of `shards` after `edit` rewrote
    /// the parts of its payload.
    fn resume_respliced(shards: usize, edit: Splice) -> Result<FleetOrchestrator, SnapshotError> {
        resume_respliced_under((RuntimeConfig::paper(), 5), shards, edit)
    }

    /// [`resume_respliced`] with each shard on `runtime`, paused after
    /// `events` events.
    fn resume_respliced_under(
        (runtime, events): (RuntimeConfig, u64),
        shards: usize,
        edit: Splice,
    ) -> Result<FleetOrchestrator, SnapshotError> {
        let (fleet, streams) = paused_fleet_under(runtime, 1000.0, shards, events);
        let mut parts = Parts::split(&fleet.snapshot().expect("checkpointable"), &streams);
        edit(&mut parts);
        FleetOrchestrator::resume(&parts.seal(), &streams)
    }

    #[test]
    fn fleet_payload_inlines_each_shards_own_snapshot_payload() {
        let (fleet, streams) = paused_fleet(1000.0, 1);
        let parts = Parts::split(&fleet.snapshot().expect("checkpointable"), &streams);
        let own = fleet.shard(0).snapshot().expect("checkpointable");
        assert_eq!(parts.shards, [own.payload().to_vec()]);
        assert_eq!(parts.usage, [fleet.shard_usage(0)]);
    }

    #[test]
    fn resume_rejects_pool_and_ledger_state_its_config_never_booted() {
        let resumed = resume_respliced(1, |_| {}).expect("untouched payload resumes");
        assert_eq!(resumed.fleet_config(), &FleetConfig::new(1000.0));
        let cases: [(&str, Splice); 9] = [
            ("busy interval of a shard the fleet lacks", |parts| {
                parts.pool.occupy(1, 3, 1e6);
            }),
            ("spend above the shard's quota", |parts| {
                parts.usage[0].spent_cents = 1001;
            }),
            ("spend under quota the shard never charged", |parts| {
                parts.usage[0].spent_cents += 1;
            }),
            ("an attempt the pool never saw", |parts| {
                parts.usage[0].reposts += 1;
            }),
            ("no shards", |parts| {
                parts.usage.clear();
                parts.shards.clear();
            }),
            ("priority weights for two shards", |parts| {
                parts.config.arbitration = ArbitrationPolicy::Priority(vec![1.0, 1.0]);
            }),
            // `new` boots each shard at its quota: 1000 ¢ here.
            ("shard booted with another budget", |parts| {
                parts.shards = paused_parts(999.0).shards;
            }),
            ("fleet budget its shard was not booted at", |parts| {
                parts.config.fleet_budget_cents = 999.0;
            }),
            (
                "a claim its shard's HIT holds, gone from the pool",
                |parts| {
                    parts.pool.busy.clear();
                },
            ),
        ];
        for (what, edit) in cases {
            assert_eq!(
                resume_respliced(1, edit).err(),
                Some(SnapshotError::Corrupt(DecodeError::Invalid)),
                "{what}"
            );
        }
    }

    /// Two shards of one config and quota that have spent the same, with
    /// different HITs in flight, cannot trade payloads: each board's HITs
    /// must match the pool's claims of its own slot, at full strength and
    /// under worker attrition alike.
    #[test]
    fn resume_rejects_shards_that_swapped_payloads() {
        for (what, (runtime, events)) in [
            ("full strength", (RuntimeConfig::paper(), 5)),
            ("attrition", under_attrition()),
        ] {
            let (fleet, streams) = paused_fleet_under(runtime.clone(), 1000.0, 2, events);
            let parts = Parts::split(&fleet.snapshot().expect("checkpointable"), &streams);
            assert_eq!(
                parts.usage[0].spent_cents, parts.usage[1].spent_cents,
                "{what}"
            );
            assert_ne!(parts.shards[0], parts.shards[1], "{what}");
            let owed = |shard: usize| fleet.shard(shard).pool_claims(0.0).count();
            assert!(
                owed(0) > 0 && owed(1) > 0,
                "{what}: both shards have HITs in flight"
            );
            let resumed = resume_respliced_under((runtime.clone(), events), 2, |_| {})
                .expect("untouched payload resumes");
            assert_eq!(resumed.shard_usage(1), fleet.shard_usage(1), "{what}");
            assert_eq!(
                resume_respliced_under((runtime, events), 2, |parts| parts.shards.swap(0, 1)).err(),
                Some(SnapshotError::Corrupt(DecodeError::Invalid)),
                "{what}"
            );
        }
    }

    /// A HIT posted during worker attrition keeps its workers claimed in
    /// the shared pool until its deferred completion, not until the
    /// instant it would have completed at full strength.
    #[test]
    fn a_post_under_attrition_claims_its_workers_until_its_deferred_completion() {
        let (runtime, events) = under_attrition();
        let (fleet, _) = paused_fleet_under(runtime, 1000.0, 2, events);
        for shard in 0..2 {
            // Each board HIT's workers and deferred completion instant.
            let board: Vec<(usize, f64)> = fleet.shard(shard).pool_claims(0.0).collect();
            assert!(!board.is_empty(), "shard {shard} has HITs in flight");
            for (workers, until) in board {
                let claimed = (fleet.pool.busy.iter())
                    .any(|b| b.shard == shard && b.workers == workers && b.until_secs == until);
                assert!(
                    claimed,
                    "shard {shard}: {workers} workers busy until {until}"
                );
            }
        }
    }

    #[test]
    fn resume_holds_each_shard_to_its_window_policy() {
        // The shard runs the paper's `Static(4)` window.
        let resumed = resume_respliced(1, |parts| {
            let shard = crate::RuntimeSnapshot::seal(parts.shards[0].clone());
            parts.shards[0] = crate::pipeline::splice_window(&shard, 50)
                .payload()
                .to_vec();
        });
        assert_eq!(
            resumed.err(),
            Some(SnapshotError::Shard {
                shard: 0,
                error: Box::new(SnapshotError::Corrupt(DecodeError::Invalid)),
            })
        );
    }

    #[test]
    fn fleet_errors_format_and_chain() {
        use std::error::Error;
        let e = SnapshotError::Shard {
            shard: 2,
            error: Box::new(SnapshotError::ChecksumMismatch),
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(e.source().is_some(), "shard errors expose their source");
        let boxed: Box<dyn Error> = Box::new(e);
        assert!(boxed.to_string().contains("checksum"));
    }
}
