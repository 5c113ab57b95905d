//! The pipelined CrowdLearn system: the paper's closed loop re-driven as a
//! discrete-event simulation so crowd waits overlap computation.

use crate::faults::{BreakerState, FaultEpisode, FaultInjector};
use crate::fleet::FleetHook;
use crate::hit::HitBoard;
use crate::{
    Event, EventKind, EventQueue, HitId, MetricKind, MetricRecord, MetricsSink, MetricsTap,
    RuntimeConfig, RuntimeSnapshot, SnapshotError, WindowPolicy,
};
use crowdlearn::{
    CrowdLearnConfig, CrowdLearnSystem, CycleOutcome, CycleWork, PostedQuery, SchemeReport,
};
use crowdlearn_crowd::{IncentiveLevel, SubmitterId};
use crowdlearn_dataset::{Dataset, SensingCycle, SensingCycleStream};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

/// What a pipelined run produced, beyond the usual quality report: the
/// virtual-time makespan and the pipelining/repost telemetry.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The run's quality report (accuracy, F1, spend) — the same
    /// [`SchemeReport`] every baseline produces.
    pub report: SchemeReport,
    /// Per-cycle outcomes in cycle order: every per-image label and
    /// distribution, the delays, and the cents spent.
    pub outcomes: Vec<CycleOutcome>,
    /// Virtual time at which the last cycle finalized.
    pub makespan_secs: f64,
    /// Virtual completion time of each cycle, in cycle order.
    pub completed_at_secs: Vec<f64>,
    /// Events the loop processed.
    pub events_processed: u64,
    /// Most sensing cycles ever simultaneously admitted.
    pub peak_cycles_in_flight: usize,
    /// Most HITs ever simultaneously in flight.
    pub peak_hits_in_flight: usize,
    /// HITs that reached their timeout.
    pub timeouts: u64,
    /// Timed-out HITs that were reposted.
    pub reposts: u64,
    /// HIT posts and reposts the crowd path refused while unavailable
    /// (breaker open or a platform outage active). Zero on a fault-free
    /// run.
    pub posts_rejected: u64,
    /// Cycles that fell back to AI-only labeling while the breaker was
    /// open (the degradation ladder's bottom rung). Zero on a fault-free
    /// run.
    pub degraded_cycles: u64,
    /// The run's streaming metrics, when a [`MetricsTap`] was attached
    /// (via [`PipelinedSystem::attach_metrics_tap`]) for the whole run.
    /// Always `Some` under an adaptive window policy — the controller
    /// needs the tap, so [`PipelinedSystem::start`] attaches one.
    pub metrics: Option<MetricsTap>,
    /// The effective in-flight window after each `CycleClosed` decision,
    /// in cycle-close order — the window controller's trajectory. Constant
    /// under [`WindowPolicy::Static`].
    pub window_trajectory: Vec<usize>,
}

/// The window controller's most recent move at a `CycleClosed` boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowDecision {
    /// No adjustment: static policy, cooldown, hysteresis dead zone, or a
    /// bound was hit.
    Held,
    /// The effective window grew by one cycle.
    Widened,
    /// The effective window shrank by one cycle.
    Narrowed,
}

impl Encode for WindowDecision {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WindowDecision::Held => 0u8.encode(out),
            WindowDecision::Widened => 1u8.encode(out),
            WindowDecision::Narrowed => 2u8.encode(out),
        }
    }
}

impl Decode for WindowDecision {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(WindowDecision::Held),
            1 => Ok(WindowDecision::Widened),
            2 => Ok(WindowDecision::Narrowed),
            _ => Err(DecodeError::Invalid),
        }
    }
}

/// How far [`PipelinedSystem::run_until`] drives the event loop before
/// yielding control back to the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunBound {
    /// Process at most this many further events.
    Events(u64),
    /// Process events due at or before this virtual time (seconds).
    VirtualTime(f64),
}

/// The CrowdLearn closed loop driven by an event queue over virtual time.
///
/// Within a cycle, queries chain: the next query posts only once the
/// previous answer is absorbed, because IPD's choice for query *n+1*
/// depends on the delay observed for query *n*. Pipelining comes from
/// *cycles overlapping*: while cycle `k`'s crowd answers are pending,
/// cycles `k+1..k+window-1` arrive, run inference, and post their own
/// queries. With `WindowPolicy::Static(1)` ([`RuntimeConfig::sequential`])
/// cycles run strictly one after another, every crowd answer waited out
/// before the next query posts — the paper's blocking loop, and what the
/// golden test pins against a plain stage-by-stage reference loop. Under [`WindowPolicy::Adaptive`] the effective window
/// itself moves at `CycleClosed` boundaries, steered by the metrics tap
/// (see [`RuntimeConfig`] and DESIGN.md "Adaptive window control").
///
/// Execution is reentrant: [`PipelinedSystem::run`] is a convenience over
/// [`PipelinedSystem::step`]/[`PipelinedSystem::run_until`], which pause at
/// any event boundary. A paused system can be checkpointed with
/// [`PipelinedSystem::snapshot`] and later rebuilt — in another process —
/// with [`PipelinedSystem::resume`]; the resumed run replays the remaining
/// events identically, byte for byte.
pub struct PipelinedSystem {
    system: CrowdLearnSystem,
    config: RuntimeConfig,
    exec: Option<ExecState>,
    tap: Option<MetricsTap>,
}

impl PipelinedSystem {
    /// Boots the underlying [`CrowdLearnSystem`] (committee training, CQC
    /// fit, bandit warm-up — [`CrowdLearnSystem::new`]) under `runtime`
    /// scheduling.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`RuntimeConfig::check`] or
    /// [`CrowdLearnConfig::check`] if either rejects its configuration.
    pub fn new(dataset: &Dataset, config: CrowdLearnConfig, runtime: RuntimeConfig) -> Self {
        runtime.check().unwrap_or_else(|e| panic!("{e}"));
        Self {
            system: CrowdLearnSystem::new(dataset, config),
            config: runtime,
            exec: None,
            tap: None,
        }
    }

    /// Wraps an already-booted system.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`RuntimeConfig::check`] if it rejects
    /// `runtime`.
    pub fn from_system(system: CrowdLearnSystem, runtime: RuntimeConfig) -> Self {
        runtime.check().unwrap_or_else(|e| panic!("{e}"));
        Self {
            system,
            config: runtime,
            exec: None,
            tap: None,
        }
    }

    /// Attaches a streaming [`MetricsTap`]: from here on the driver feeds
    /// it one [`MetricRecord`] per event-boundary transition. Attach
    /// *before* the first [`PipelinedSystem::step`] to observe the whole
    /// run. The tap is part of the runtime state — it rides inside
    /// [`PipelinedSystem::snapshot`], and [`PipelinedSystem::run`] hands it
    /// back on [`RuntimeReport::metrics`]. Replaces any previous tap.
    pub fn attach_metrics_tap(&mut self, tap: MetricsTap) {
        self.tap = Some(tap);
    }

    /// The attached metrics tap, for polling between
    /// [`PipelinedSystem::run_until`] slices.
    pub fn metrics_tap(&self) -> Option<&MetricsTap> {
        self.tap.as_ref()
    }

    /// Detaches and returns the metrics tap, stopping the stream.
    pub fn take_metrics_tap(&mut self) -> Option<MetricsTap> {
        self.tap.take()
    }

    /// The runtime configuration.
    pub fn runtime_config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The underlying system.
    pub fn system(&self) -> &CrowdLearnSystem {
        &self.system
    }

    /// Events processed so far in the current execution, or `None` when no
    /// execution is in progress.
    pub fn events_processed(&self) -> Option<u64> {
        self.exec.as_ref().map(|e| e.queue.events_popped())
    }

    /// The current virtual time, or `None` when no execution is in
    /// progress.
    pub fn virtual_now_secs(&self) -> Option<f64> {
        self.exec.as_ref().map(|e| e.queue.now_secs())
    }

    /// Begins an execution over `stream` if none is in progress: schedules
    /// every cycle's arrival on the sensing cadence. Idempotent while an
    /// execution is running.
    ///
    /// An adaptive window policy is driven by the metrics tap, so when the
    /// caller did not attach one, `start` attaches the default
    /// [`MetricsTap::new`] — adaptive runs therefore always report
    /// `Some` on [`RuntimeReport::metrics`]. (Detaching the tap mid-run
    /// freezes the controller at its current window.)
    pub fn start(&mut self, stream: &SensingCycleStream) {
        if self.exec.is_none() {
            if self.config.window_policy.is_adaptive() && self.tap.is_none() {
                self.tap = Some(MetricsTap::new());
            }
            self.exec = Some(ExecState::start(&self.config, stream.cycles().len()));
        }
    }

    /// The controller's current effective in-flight window, or `None` when
    /// no execution is in progress. Constant under
    /// [`WindowPolicy::Static`]; poll between
    /// [`PipelinedSystem::run_until`] slices to watch an adaptive
    /// controller move.
    pub fn effective_window(&self) -> Option<usize> {
        self.exec.as_ref().map(|e| e.window(&self.config))
    }

    /// The window controller's decision at the most recent `CycleClosed`
    /// boundary, or `None` when no execution is in progress.
    pub fn last_window_decision(&self) -> Option<WindowDecision> {
        self.exec.as_ref().map(|e| e.last_window_decision)
    }

    /// The crowd-path circuit breaker's current state, or `None` when no
    /// execution is in progress. `Closed` on every fault-free run; poll
    /// between [`PipelinedSystem::run_until`] slices to watch the
    /// degradation ladder engage under a [`crate::FaultPlan`].
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.exec.as_ref().map(|e| e.breaker)
    }

    /// Cycles currently parked mid-crowd behind an open breaker, waiting
    /// for recovery to resume posting; `None` when no execution is in
    /// progress.
    pub fn parked_cycles(&self) -> Option<usize> {
        self.exec.as_ref().map(|e| e.parked.len())
    }

    /// Processes the next event. Returns `false` when the event queue has
    /// drained — the execution is complete and the next
    /// [`PipelinedSystem::run_until`] (or [`PipelinedSystem::run`]) call
    /// produces the report.
    ///
    /// # Panics
    ///
    /// Panics if `stream` has a different cycle count than the stream this
    /// execution started (or resumed) with.
    pub fn step(&mut self, dataset: &Dataset, stream: &SensingCycleStream) -> bool {
        self.step_with(dataset, stream, None)
    }

    /// [`PipelinedSystem::step`] with an optional fleet context: when a
    /// [`crate::FleetOrchestrator`] drives this system as a shard, the hook
    /// layers shared-worker-pool contention onto every posted HIT and books
    /// the spend into the fleet ledger. `None` (the standalone path) is
    /// byte-identical to the pre-fleet loop.
    pub(crate) fn step_with(
        &mut self,
        dataset: &Dataset,
        stream: &SensingCycleStream,
        fleet: Option<FleetHook<'_>>,
    ) -> bool {
        self.start(stream);
        let exec = self
            .exec
            .as_mut()
            .expect("invariant: start() installs the execution state");
        assert_eq!(
            stream.cycles().len(),
            exec.outcomes.len(),
            "stream/execution cycle-count mismatch"
        );
        let Some(event) = exec.queue.pop() else {
            return false;
        };
        Driver {
            system: &mut self.system,
            config: &self.config,
            dataset,
            cycles: stream.cycles(),
            exec,
            tap: self.tap.as_mut(),
            fleet,
        }
        .handle(event.kind);
        true
    }

    /// Virtual due time of the next pending event, or `None` when no
    /// execution is in progress or its queue has drained. The fleet
    /// orchestrator merges shard queues by `(due, shard index)` off this.
    pub(crate) fn next_event_due_secs(&self) -> Option<f64> {
        self.exec.as_ref()?.queue.peek().map(|e| e.at_secs)
    }

    /// Tags the underlying platform with the shard's identity so
    /// `PlatformStats` attributes worker-seconds per shard.
    pub(crate) fn set_platform_submitter(&mut self, submitter: SubmitterId) {
        self.system.set_platform_submitter(submitter);
    }

    /// Drives the event loop until `bound` is exhausted or the queue
    /// drains. Returns the report when the execution completes, `None` when
    /// it pauses at an event boundary — ready for more `run_until` calls or
    /// a [`PipelinedSystem::snapshot`].
    pub fn run_until(
        &mut self,
        dataset: &Dataset,
        stream: &SensingCycleStream,
        bound: RunBound,
    ) -> Option<RuntimeReport> {
        self.start(stream);
        let mut remaining = match bound {
            RunBound::Events(n) => n,
            RunBound::VirtualTime(_) => u64::MAX,
        };
        loop {
            {
                let exec = self
                    .exec
                    .as_ref()
                    .expect("invariant: start() installs the execution state");
                let Some(next) = exec.queue.peek() else {
                    break;
                };
                if remaining == 0 {
                    return None;
                }
                if let RunBound::VirtualTime(t) = bound {
                    if next.at_secs > t {
                        return None;
                    }
                }
            }
            let stepped = self.step(dataset, stream);
            debug_assert!(stepped, "peeked event must pop");
            remaining -= 1;
        }
        Some(self.finish())
    }

    /// Runs the whole stream through the event loop and reports quality
    /// plus virtual-time telemetry.
    pub fn run(&mut self, dataset: &Dataset, stream: &SensingCycleStream) -> RuntimeReport {
        self.run_until(dataset, stream, RunBound::Events(u64::MAX))
            .expect("invariant: an unbounded run drains the event queue")
    }

    /// Closes out a drained execution into its report. Crate-visible so the
    /// fleet orchestrator can finalize its shards.
    pub(crate) fn finish(&mut self) -> RuntimeReport {
        let exec = self
            .exec
            .take()
            .expect("invariant: finish() only follows a drained execution");
        assert!(exec.waiting.is_empty(), "cycles left waiting at drain");
        assert!(exec.parked.is_empty(), "cycles left parked at drain");
        assert_eq!(exec.board.in_flight(), 0, "HITs left in flight at drain");
        let outcomes: Vec<CycleOutcome> = exec
            .outcomes
            .into_iter()
            .map(|o| {
                o.expect("invariant: every admitted cycle is finalized before the queue drains")
            })
            .collect();
        let mut report = SchemeReport::new("CrowdLearn");
        for outcome in &outcomes {
            report.record_cycle(outcome);
        }
        let makespan_secs = exec.completed_at_secs.iter().copied().fold(0.0, f64::max);
        RuntimeReport {
            report,
            outcomes,
            makespan_secs,
            completed_at_secs: exec.completed_at_secs,
            events_processed: exec.queue.events_popped(),
            peak_cycles_in_flight: exec.peak_cycles_in_flight,
            peak_hits_in_flight: exec.board.peak_in_flight(),
            timeouts: exec.timeouts,
            reposts: exec.reposts,
            posts_rejected: exec.posts_rejected,
            degraded_cycles: exec.degraded_cycles,
            metrics: self.tap.take(),
            window_trajectory: exec.window_trajectory,
        }
    }

    /// Serializes the whole system — learned module state plus any
    /// in-progress execution — at the current event boundary. Every
    /// configuration checkpoints; the `Result` never holds an error.
    pub fn snapshot(&self) -> Result<RuntimeSnapshot, Infallible> {
        let mut payload = Vec::with_capacity(Self::SNAPSHOT_RESERVE);
        self.encode_payload(&mut payload);
        Ok(RuntimeSnapshot::seal(payload))
    }

    /// Rebuilds a system from a snapshot, against the same stream the
    /// snapshotted run was processing (the stream itself is not serialized:
    /// it regenerates deterministically from its dataset + seed, and resume
    /// cross-checks the cycle count).
    pub fn resume(
        snapshot: &RuntimeSnapshot,
        stream: &SensingCycleStream,
    ) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(snapshot.payload());
        let system = Self::decode_payload(&mut r, stream)?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(DecodeError::Invalid));
        }
        Ok(system)
    }

    /// Bytes a checkpoint payload reserves per system. A paper-sized
    /// payload is about 240 KB: reserving it up front spares it some 18
    /// doubling reallocations, which copy up to twice its final size and
    /// fragment the heap.
    pub(crate) const PAYLOAD_RESERVE: usize = 256 * 1024;

    /// Bytes [`Self::snapshot`] reserves: eight systems' worth, so that a
    /// checkpoint's cost does not turn on the heap's layout. glibc's malloc
    /// serves the first such request from a fresh mapping and, when that is
    /// freed, raises its mmap threshold to the mapping's size and its heap
    /// trim threshold to twice that. With one system's worth the trim
    /// threshold (about 520 KB) sat just above a checkpoint's payload plus
    /// its framed copy, so whether the heap handed their pages back to the
    /// kernel between two checkpoints, and the next one took some 100 page
    /// faults (+30 % on a paper-sized checkpoint), depended on where
    /// unrelated allocations had landed. At 2 MiB the checkpoints, resumes
    /// and runs of a paper-sized stream stay under the trim threshold and
    /// take no page faults once warm. Reserved pages that are never written
    /// never become resident.
    const SNAPSHOT_RESERVE: usize = 8 * Self::PAYLOAD_RESERVE;

    /// Appends the checkpoint payload — `RuntimeConfig ‖ system state ‖
    /// execution ‖ tap` — that a [`RuntimeSnapshot`] seals and a fleet
    /// checkpoint carries inline per shard.
    pub(crate) fn encode_payload(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        let Ok(()) = self.system.encode_state(out);
        self.exec.encode(out);
        self.tap.encode(out);
    }

    /// Reads one [`PipelinedSystem::encode_payload`] payload off `r` and
    /// holds it to every resume check; the caller checks what follows it.
    pub(crate) fn decode_payload(
        r: &mut Reader<'_>,
        stream: &SensingCycleStream,
    ) -> Result<Self, SnapshotError> {
        let config = RuntimeConfig::decode(r).map_err(SnapshotError::Corrupt)?;
        let system = CrowdLearnSystem::decode_state(r).map_err(SnapshotError::Corrupt)?;
        let exec = Option::<ExecState>::decode(r).map_err(SnapshotError::Corrupt)?;
        let tap = Option::<MetricsTap>::decode(r).map_err(SnapshotError::Corrupt)?;
        if let Some(exec) = &exec {
            // The controller's state must be one its policy can reach, and
            // every queued fault event must name an episode of the plan.
            let windows = config.window_policy.window_range();
            let episodes = config.faults.episodes().len();
            let names_an_episode = |event: &Event| match event.kind {
                EventKind::FaultStart { episode } | EventKind::FaultEnd { episode } => {
                    episode < episodes
                }
                _ => true,
            };
            if !exec.window_trajectory.iter().all(|w| windows.contains(w))
                || exec.window_cooldown > WindowPolicy::COOLDOWN_CYCLES
                || !exec.queue.iter().all(names_an_episode)
            {
                return Err(SnapshotError::Corrupt(DecodeError::Invalid));
            }
            if exec.outcomes.len() != stream.cycles().len() {
                return Err(SnapshotError::CycleCountMismatch {
                    expected: exec.outcomes.len(),
                    found: stream.cycles().len(),
                });
            }
        }
        Ok(Self {
            system,
            config,
            exec,
            tap,
        })
    }
}

/// All the mutable state of one event-loop execution — everything that
/// must survive a pause/snapshot for the run to continue identically. Each
/// fact is held once: the queue owns the clock and counts the events
/// processed, the trajectory's last entry is the effective window, a HIT's
/// cycle is on its board entry, and the fault plan is the config's.
struct ExecState {
    /// The event queue and the run's virtual clock.
    queue: EventQueue,
    board: HitBoard,
    /// Cycles whose inference has completed and whose queries are live.
    active: BTreeMap<usize, CycleWork>,
    /// Cycles that have arrived but exceed the in-flight window.
    waiting: VecDeque<usize>,
    /// Cycles admitted (inference scheduled or active) and not yet retired:
    /// the active cycles plus the queued `InferenceDone` events. Kept for
    /// the admission loop, recounted on resume rather than carried.
    slots_used: usize,
    /// `CycleClosed` boundaries left before the controller may move again.
    window_cooldown: u32,
    /// The controller's most recent decision.
    last_window_decision: WindowDecision,
    /// Effective window after each `CycleClosed` decision, in close order;
    /// its last entry is the current effective window.
    window_trajectory: Vec<usize>,
    outcomes: Vec<Option<CycleOutcome>>,
    completed_at_secs: Vec<f64>,
    peak_cycles_in_flight: usize,
    timeouts: u64,
    reposts: u64,
    /// The live position of the configured fault plan's loss stream.
    injector: FaultInjector,
    /// The crowd-path circuit breaker (see DESIGN.md "Fault model &
    /// degradation ladder"). `Closed` for the whole of a fault-free run.
    breaker: BreakerState,
    /// The breaker's current probe backoff, in cycle periods: reset to
    /// [`BreakerState::FIRST_BACKOFF_CYCLES`] on recovery, doubled (up to
    /// [`BreakerState::MAX_BACKOFF_CYCLES`]) on every failed probe.
    breaker_backoff_cycles: u32,
    /// Cycles parked mid-crowd behind an open breaker, in park order; the
    /// probe that closes the breaker re-enters them into posting.
    parked: VecDeque<usize>,
    /// Posts and reposts refused while the crowd path was unavailable.
    posts_rejected: u64,
    /// Cycles that degraded to AI-only labeling.
    degraded_cycles: u64,
}

impl ExecState {
    /// A fresh execution: every cycle's arrival scheduled on the cadence,
    /// plus the fault plan's episode boundaries. An empty plan schedules
    /// nothing extra, so its event sequence — and therefore the whole run —
    /// is byte-identical to one with no fault machinery at all.
    fn start(config: &RuntimeConfig, n_cycles: usize) -> Self {
        let mut queue = EventQueue::new();
        for k in 0..n_cycles {
            queue.schedule(
                k as f64 * RuntimeConfig::CYCLE_PERIOD_SECS,
                EventKind::CycleArrival { cycle: k },
            );
        }
        for (i, episode) in config.faults.episodes().iter().enumerate() {
            queue.schedule(episode.start_secs(), EventKind::FaultStart { episode: i });
            if let Some(until) = episode.end_secs() {
                queue.schedule(until, EventKind::FaultEnd { episode: i });
            }
        }
        Self {
            queue,
            board: HitBoard::new(),
            active: BTreeMap::new(),
            waiting: VecDeque::new(),
            slots_used: 0,
            window_cooldown: 0,
            last_window_decision: WindowDecision::Held,
            window_trajectory: Vec::new(),
            outcomes: (0..n_cycles).map(|_| None).collect(),
            completed_at_secs: vec![0.0; n_cycles],
            peak_cycles_in_flight: 0,
            timeouts: 0,
            reposts: 0,
            injector: FaultInjector::new(&config.faults),
            breaker: BreakerState::Closed,
            breaker_backoff_cycles: BreakerState::FIRST_BACKOFF_CYCLES,
            parked: VecDeque::new(),
            posts_rejected: 0,
            degraded_cycles: 0,
        }
    }

    /// The current effective in-flight window: the controller's latest
    /// decision, or the policy's initial window before the first close.
    fn window(&self, config: &RuntimeConfig) -> usize {
        self.window_trajectory
            .last()
            .copied()
            .unwrap_or_else(|| config.initial_window())
    }
}

impl Encode for ExecState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.queue.encode(out);
        self.board.encode(out);
        self.active.encode(out);
        self.waiting.encode(out);
        self.window_cooldown.encode(out);
        self.last_window_decision.encode(out);
        self.window_trajectory.encode(out);
        self.outcomes.encode(out);
        self.completed_at_secs.encode(out);
        self.peak_cycles_in_flight.encode(out);
        self.timeouts.encode(out);
        self.reposts.encode(out);
        self.injector.encode(out);
        self.breaker.encode(out);
        self.breaker_backoff_cycles.encode(out);
        self.parked.encode(out);
        self.posts_rejected.encode(out);
        self.degraded_cycles.encode(out);
    }
}

impl Decode for ExecState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut state = Self {
            queue: EventQueue::decode(r)?,
            board: HitBoard::decode(r)?,
            active: BTreeMap::<usize, CycleWork>::decode(r)?,
            waiting: VecDeque::<usize>::decode(r)?,
            slots_used: 0,
            window_cooldown: u32::decode(r)?,
            last_window_decision: WindowDecision::decode(r)?,
            window_trajectory: Vec::<usize>::decode(r)?,
            outcomes: Vec::<Option<CycleOutcome>>::decode(r)?,
            completed_at_secs: Vec::<f64>::decode(r)?,
            peak_cycles_in_flight: usize::decode(r)?,
            timeouts: u64::decode(r)?,
            reposts: u64::decode(r)?,
            injector: FaultInjector::decode(r)?,
            breaker: BreakerState::decode(r)?,
            breaker_backoff_cycles: u32::decode(r)?,
            parked: VecDeque::<usize>::decode(r)?,
            posts_rejected: u64::decode(r)?,
            degraded_cycles: u64::decode(r)?,
        };
        let n = state.outcomes.len();
        // Each queued HIT event resolves a HIT on the board, and each HIT
        // on the board belongs to an active cycle.
        let hits_resolve = state
            .queue
            .iter()
            .filter_map(|e| e.kind.hit())
            .all(|hit| state.board.contains(hit))
            && state
                .board
                .hits()
                .all(|hit| state.active.contains_key(&hit.cycle));
        let cycle_indices_in_range = state.active.keys().all(|&k| k < n)
            && state.waiting.iter().all(|&k| k < n)
            && state.parked.iter().all(|&k| k < n)
            && state.completed_at_secs.len() == n;
        // The trajectory (whose last entry is the effective window) is
        // checked against the policy on resume.
        let window_ok = state.window_trajectory.len() <= n;
        let breaker_ok = (BreakerState::FIRST_BACKOFF_CYCLES..=BreakerState::MAX_BACKOFF_CYCLES)
            .contains(&state.breaker_backoff_cycles)
            && (state.breaker == BreakerState::Closed || state.parked.len() <= n)
            && (state.breaker != BreakerState::Closed || state.parked.is_empty());
        if !hits_resolve
            || !cycle_indices_in_range
            || !window_ok
            || !breaker_ok
            || state.peak_cycles_in_flight < state.active.len()
            || state
                .completed_at_secs
                .iter()
                .any(|t| !t.is_finite() || *t < 0.0)
        {
            return Err(DecodeError::Invalid);
        }
        let inferring = state
            .queue
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InferenceDone { .. }))
            .count();
        state.slots_used = state.active.len() + inferring;
        Ok(state)
    }
}

/// A transient view over one [`PipelinedSystem`]'s modules, inputs, and
/// execution state — the event handlers. Rebuilt per event, so the system
/// can pause (and snapshot) between any two events.
struct Driver<'a> {
    system: &'a mut CrowdLearnSystem,
    config: &'a RuntimeConfig,
    dataset: &'a Dataset,
    cycles: &'a [SensingCycle],
    exec: &'a mut ExecState,
    tap: Option<&'a mut MetricsTap>,
    /// Fleet context when this system runs as a shard: shared-pool
    /// contention deferral and fleet-ledger booking on every post.
    fleet: Option<FleetHook<'a>>,
}

impl Driver<'_> {
    /// Feeds the attached tap one record: the transition plus the
    /// instantaneous gauges sampled *after* it took effect. A single
    /// branch-on-`None` when no tap is attached, so the untapped loop pays
    /// nothing measurable (perfbench's `metrics.tap_overhead_s` measures it).
    fn emit(&mut self, kind: MetricKind) {
        let Some(tap) = self.tap.as_deref_mut() else {
            return;
        };
        tap.record(&MetricRecord {
            at_secs: self.exec.queue.now_secs(),
            queue_depth: self.exec.queue.len(),
            window_occupancy: self.exec.slots_used,
            hits_in_flight: self.exec.board.in_flight(),
            kind,
        });
    }

    /// Emits the `SpendCharged` record for a just-posted HIT. The ledger
    /// lookup only happens when a tap is listening.
    fn emit_spend(&mut self, k: usize, incentive: IncentiveLevel) {
        if self.tap.is_some() {
            let remaining = self.system.remaining_budget_cents();
            self.emit(MetricKind::SpendCharged {
                cycle: k,
                cents: incentive.cents(),
                remaining_budget_cents: remaining,
            });
        }
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::CycleArrival { cycle } => {
                self.exec.waiting.push_back(cycle);
                self.try_admit();
            }
            EventKind::InferenceDone { cycle } => {
                let work = self.system.start_cycle(&self.cycles[cycle], self.dataset);
                self.exec.active.insert(cycle, work);
                self.exec.peak_cycles_in_flight =
                    self.exec.peak_cycles_in_flight.max(self.exec.active.len());
                self.post_or_finalize(cycle);
            }
            // Informational marker emitted when a HIT goes up; the
            // posting itself happened when it was scheduled.
            EventKind::HitPosted { .. } => {}
            EventKind::HitAnswered { hit } => self.on_answered(hit),
            EventKind::HitTimedOut { hit } => self.on_timed_out(hit),
            EventKind::LateAnswer { hit } => self.on_late_answer(hit),
            EventKind::RetrainDone { cycle } => {
                let work = self
                    .exec
                    .active
                    .remove(&cycle)
                    .expect("invariant: RetrainDone only fires for an active cycle");
                let outcome = self
                    .system
                    .finalize_cycle(work, &self.cycles[cycle], self.dataset);
                self.exec.completed_at_secs[cycle] = self.exec.queue.now_secs();
                let spent_cents = outcome.spent_cents;
                let queries = outcome.images.iter().filter(|i| i.queried).count();
                self.exec.outcomes[cycle] = Some(outcome);
                self.exec.slots_used -= 1;
                self.emit(MetricKind::CycleClosed {
                    cycle,
                    spent_cents,
                    queries,
                });
                let window = self.control_window();
                self.exec.window_trajectory.push(window);
                self.try_admit();
            }
            EventKind::FaultStart { episode } => self.on_fault_start(episode),
            EventKind::FaultEnd { episode } => self.emit(MetricKind::FaultEnded { episode }),
            EventKind::BreakerProbe => self.on_breaker_probe(),
        }
    }

    /// A fault episode takes effect. Windowed episodes act through the
    /// injector's time queries, so the event only announces them; the
    /// instantaneous [`FaultEpisode::BudgetShock`] lands here, clawing its
    /// cents back from the incentive ledger.
    fn on_fault_start(&mut self, episode: usize) {
        let kind = *self
            .config
            .faults
            .episodes()
            .get(episode)
            .expect("invariant: fault events only reference plan episodes");
        if let FaultEpisode::BudgetShock { cents, .. } = kind {
            self.system.clawback_budget_cents(cents);
        }
        self.emit(MetricKind::FaultStarted { episode });
    }

    /// The first refused post while `Closed` trips the breaker: crowd
    /// posting stops, and a probe is scheduled after the current backoff.
    fn trip_breaker(&mut self, now: f64) {
        if self.exec.breaker != BreakerState::Closed {
            return;
        }
        self.exec.breaker = BreakerState::Open;
        self.emit(MetricKind::BreakerTransition {
            from: BreakerState::Closed,
            to: BreakerState::Open,
        });
        self.schedule_probe(now);
    }

    fn schedule_probe(&mut self, now: f64) {
        let backoff =
            f64::from(self.exec.breaker_backoff_cycles) * RuntimeConfig::CYCLE_PERIOD_SECS;
        self.exec
            .queue
            .schedule(now + backoff, EventKind::BreakerProbe);
    }

    /// The scheduled probe fires: the breaker passes through `HalfProbe`
    /// and either closes (recovery — the backoff resets and parked cycles
    /// resume posting) or re-opens with doubled backoff. Exactly one probe
    /// is in flight whenever the breaker is not `Closed`, and every outage
    /// window ends at a finite virtual time, so the machine cannot stall.
    fn on_breaker_probe(&mut self) {
        let now = self.exec.queue.now_secs();
        debug_assert_eq!(self.exec.breaker, BreakerState::Open);
        self.exec.breaker = BreakerState::HalfProbe;
        self.emit(MetricKind::BreakerTransition {
            from: BreakerState::Open,
            to: BreakerState::HalfProbe,
        });
        if self.config.faults.outage_active(now) {
            self.exec.breaker = BreakerState::Open;
            self.emit(MetricKind::BreakerTransition {
                from: BreakerState::HalfProbe,
                to: BreakerState::Open,
            });
            self.exec.breaker_backoff_cycles = self
                .exec
                .breaker_backoff_cycles
                .saturating_mul(2)
                .min(BreakerState::MAX_BACKOFF_CYCLES);
            self.schedule_probe(now);
            return;
        }
        self.exec.breaker = BreakerState::Closed;
        self.emit(MetricKind::BreakerTransition {
            from: BreakerState::HalfProbe,
            to: BreakerState::Closed,
        });
        self.exec.breaker_backoff_cycles = BreakerState::FIRST_BACKOFF_CYCLES;
        while let Some(k) = self.exec.parked.pop_front() {
            self.post_or_finalize(k);
        }
    }

    /// The adaptive window controller, consulted at every `CycleClosed`
    /// boundary (after the close was emitted, before admission). Under
    /// [`WindowPolicy::Adaptive`] it compares the tap's rolling crowd-delay
    /// [`WindowPolicy::PERCENTILE`] against the low/high thresholds
    /// (multiples of the cycle period) and moves the effective window one
    /// step within `[min, max]`:
    ///
    /// * **widen** when the watched percentile exceeds
    ///   [`WindowPolicy::HIGH_THRESHOLD`] *and* arrivals are queued behind
    ///   the window — crowd waits outlast the cadence and admission is the
    ///   bottleneck;
    /// * **narrow** when the percentile is below
    ///   [`WindowPolicy::LOW_THRESHOLD`] and no backlog is queued — the crowd
    ///   beats the cadence, so overlap only inflates HIT-board and budget
    ///   exposure;
    /// * **hold** otherwise (the hysteresis dead zone between the
    ///   thresholds), and always for [`WindowPolicy::COOLDOWN_CYCLES`] closes
    ///   after a move.
    ///
    /// The decision is a pure function of the streamed metrics and the
    /// execution state — no wall clock, no RNG — so it preserves the
    /// runtime's same-seed byte-identity, and its state (trajectory,
    /// cooldown, last decision) rides inside the snapshot for identical
    /// resume. Returns the effective window after the decision.
    fn control_window(&mut self) -> usize {
        let window = self.exec.window(self.config);
        let WindowPolicy::Adaptive { min, max } = self.config.window_policy else {
            return window;
        };
        let exec = &mut *self.exec;
        if exec.window_cooldown > 0 {
            exec.window_cooldown -= 1;
            exec.last_window_decision = WindowDecision::Held;
            return window;
        }
        // No tap (detached mid-run) or no absorbed answer yet: no signal,
        // hold at the current window.
        let Some(delay_p) = self
            .tap
            .as_deref()
            .and_then(|tap| tap.crowd_delay().quantile(WindowPolicy::PERCENTILE))
        else {
            exec.last_window_decision = WindowDecision::Held;
            return window;
        };
        let period = RuntimeConfig::CYCLE_PERIOD_SECS;
        let backlog = !exec.waiting.is_empty();
        let (decision, next) =
            if delay_p > WindowPolicy::HIGH_THRESHOLD * period && backlog && window < max {
                (WindowDecision::Widened, window + 1)
            } else if delay_p < WindowPolicy::LOW_THRESHOLD * period && !backlog && window > min {
                // No eviction on narrow: admission simply stops until
                // occupancy drops below the new window.
                (WindowDecision::Narrowed, window - 1)
            } else {
                (WindowDecision::Held, window)
            };
        if decision != WindowDecision::Held {
            exec.window_cooldown = WindowPolicy::COOLDOWN_CYCLES;
        }
        exec.last_window_decision = decision;
        next
    }

    /// Admits waiting cycles while the effective pipeline window has room,
    /// scheduling each one's `InferenceDone` after the committee's
    /// execution delay.
    fn try_admit(&mut self) {
        while self.exec.slots_used < self.exec.window(self.config) {
            let Some(k) = self.exec.waiting.pop_front() else {
                return;
            };
            self.exec.slots_used += 1;
            let batch = self.cycles[k].image_ids.len();
            let delay = self.system.algorithm_delay_secs(batch, k as u64);
            self.exec.queue.schedule(
                self.exec.queue.now_secs() + delay,
                EventKind::InferenceDone { cycle: k },
            );
            self.emit(MetricKind::CycleAdmitted { cycle: k });
        }
    }

    /// Posts cycle `k`'s next query, or — when nothing is left to post and
    /// nothing is outstanding — closes the cycle out. When the crowd path
    /// is unavailable (breaker not `Closed`, or a platform outage covers
    /// this instant) the degradation ladder takes over instead:
    /// [`Driver::degrade_or_park`].
    fn post_or_finalize(&mut self, k: usize) {
        let now = self.exec.queue.now_secs();
        if self.exec.breaker != BreakerState::Closed || self.config.faults.outage_active(now) {
            self.degrade_or_park(k, now);
            return;
        }
        let work = self
            .exec
            .active
            .get_mut(&k)
            .expect("invariant: HIT events only target active cycles");
        match self
            .system
            .post_next_query(work, &self.cycles[k], self.dataset)
        {
            Some(posted) => self.launch(k, posted, 1),
            None => {
                if work.outstanding() == 0 {
                    self.exec
                        .queue
                        .schedule(now, EventKind::RetrainDone { cycle: k });
                }
            }
        }
    }

    /// Puts a posted (`attempt` 1) or reposted query on the board at the
    /// current instant: the fleet hook sees the post, fault injection draws
    /// whether the answer is lost and defers it under attrition, the HIT's
    /// resolution is scheduled, and the post and its spend are emitted.
    fn launch(&mut self, k: usize, mut posted: PostedQuery, attempt: u32) {
        let now = self.exec.queue.now_secs();
        if let Some(hook) = self.fleet.as_mut() {
            hook.absorb_post(now, &mut posted);
        }
        let lost = self.exec.injector.answer_lost(&self.config.faults, now);
        let factor = self.config.faults.attrition_factor(now);
        if factor > 1.0 {
            posted
                .pending
                .defer_by(posted.pending.completion_delay_secs() * (factor - 1.0));
        }
        let delay = posted.pending.completion_delay_secs();
        let incentive = posted.incentive;
        let hit = self.exec.board.post(
            k,
            posted.image_index,
            incentive,
            now,
            attempt,
            lost,
            posted.pending,
        );
        self.schedule_hit_events(hit, now, delay, lost);
        self.emit(if attempt == 1 {
            MetricKind::HitPosted {
                cycle: k,
                hit,
                incentive,
                attempt,
            }
        } else {
            MetricKind::HitReposted {
                cycle: k,
                hit,
                incentive,
                attempt,
            }
        });
        self.emit_spend(k, incentive);
    }

    /// The degradation ladder at a would-post boundary while the crowd
    /// path is unavailable. The first refusal trips the breaker; then the
    /// cycle takes the highest rung it can reach:
    ///
    /// 1. posting already finished — drain normally (and wait out any
    ///    in-flight answer exactly as a healthy run would);
    /// 2. an answer is still in flight — wait; its absorption re-enters
    ///    this ladder;
    /// 3. the crowd was never consulted — degrade to AI-only labeling:
    ///    `finalize_cycle` labels every image from the committee vote, no
    ///    HIT is posted, no budget spent;
    /// 4. otherwise the cycle is mid-crowd — park it; the probe that
    ///    closes the breaker re-posts its remaining queries through the
    ///    existing escalation machinery.
    fn degrade_or_park(&mut self, k: usize, now: f64) {
        self.trip_breaker(now);
        let work = self
            .exec
            .active
            .get(&k)
            .expect("invariant: HIT events only target active cycles");
        let posting_done = work.posting_done();
        let outstanding = work.outstanding();
        let untouched = work.spent_cents() == 0 && work.answers_absorbed() == 0;
        if posting_done {
            // Nothing further would have posted: this is the normal drain
            // check, not a refused post.
            if outstanding == 0 {
                self.exec
                    .queue
                    .schedule(now, EventKind::RetrainDone { cycle: k });
            }
            return;
        }
        self.exec.posts_rejected += 1;
        if outstanding > 0 {
            return;
        }
        if untouched {
            self.exec.degraded_cycles += 1;
            self.emit(MetricKind::DegradedCycle { cycle: k });
            self.exec
                .queue
                .schedule(now, EventKind::RetrainDone { cycle: k });
            return;
        }
        self.exec.parked.push_back(k);
    }

    /// Emits the `HitPosted` marker and schedules the HIT's resolution:
    /// `HitAnswered` when every worker *beats* the timeout (`delay <
    /// timeout`), `HitTimedOut` otherwise — an answer landing exactly at
    /// the timeout instant is censored, matching the IPD contract's
    /// "delay >= timeout" (`CrowdLearnSystem::observe_crowd_delay`).
    /// A `lost` attempt ([`FaultEpisode::AnswerLoss`]) never answers at
    /// all, so only its timeout is scheduled. Exactly one resolution event
    /// is scheduled per posted HIT.
    fn schedule_hit_events(&mut self, hit: HitId, posted_at: f64, delay: f64, lost: bool) {
        let queue = &mut self.exec.queue;
        queue.schedule(posted_at, EventKind::HitPosted { hit });
        if lost {
            let timeout = self
                .config
                .hit_timeout_secs
                .expect("invariant: an AnswerLoss plan requires a configured HIT timeout");
            queue.schedule(posted_at + timeout, EventKind::HitTimedOut { hit });
            return;
        }
        match self.config.hit_timeout_secs {
            Some(timeout) if delay >= timeout => {
                queue.schedule(posted_at + timeout, EventKind::HitTimedOut { hit })
            }
            _ => queue.schedule(posted_at + delay, EventKind::HitAnswered { hit }),
        };
    }

    fn on_answered(&mut self, hit: HitId) {
        let inflight = self.exec.board.take(hit);
        let k = inflight.cycle;
        let context = inflight.pending.context();
        let response = inflight.pending.into_response();
        let timely = self.system.answer_is_timely(&response);
        let delay_secs = response.completion_delay_secs;
        let work = self
            .exec
            .active
            .get_mut(&k)
            .expect("invariant: HIT events only target active cycles");
        self.system
            .absorb_answer(work, inflight.image_index, &response, timely);
        self.emit(MetricKind::HitAnswered {
            cycle: k,
            hit,
            context,
            delay_secs,
            timely,
        });
        self.post_or_finalize(k);
    }

    /// A HIT expired. If attempts, budget, and the crowd path allow,
    /// repost it at an escalated incentive. Either way the expired attempt
    /// feeds IPD a censored delay observation — all we learned *at the
    /// timeout* is "longer than the timeout" — so every posted attempt
    /// produces exactly one IPD observation. When the HIT is not reposted
    /// it is abandoned (emitting [`MetricKind::HitAbandoned`] with the
    /// attempt count) and one of two things happens: a *lost* attempt
    /// ([`FaultEpisode::AnswerLoss`]) has no answer coming, so its
    /// outstanding slot is released and posting resumes immediately; a
    /// live attempt is waited out — its workers still answer at the
    /// attempt's true completion time, so a `LateAnswer` is scheduled
    /// there rather than absorbing the answer at the timeout instant.
    fn on_timed_out(&mut self, hit: HitId) {
        self.exec.timeouts += 1;
        let timeout = self
            .config
            .hit_timeout_secs
            .expect("invariant: HitTimedOut is only scheduled when a timeout is configured");
        let inflight = self.exec.board.take(hit);
        let k = inflight.cycle;
        let now = self.exec.queue.now_secs();
        self.system
            .observe_crowd_delay(inflight.pending.context(), inflight.incentive, timeout);
        self.emit(MetricKind::HitTimedOut {
            cycle: k,
            hit,
            incentive: inflight.incentive,
            censored_delay_secs: timeout,
        });

        if inflight.attempt < self.config.max_post_attempts {
            let crowd_available =
                self.exec.breaker == BreakerState::Closed && !self.config.faults.outage_active(now);
            if crowd_available {
                let level = if self.config.escalate_on_repost {
                    escalate(inflight.incentive)
                } else {
                    inflight.incentive
                };
                let work = self
                    .exec
                    .active
                    .get_mut(&k)
                    .expect("invariant: HIT events only target active cycles");
                if let Some(posted) = self.system.repost_query(
                    work,
                    &self.cycles[k],
                    self.dataset,
                    inflight.image_index,
                    level,
                ) {
                    self.exec.reposts += 1;
                    self.launch(k, posted, inflight.attempt + 1);
                    return;
                }
            } else {
                // The repost was refused outright: count it, trip the
                // breaker if this is the first refusal, and fall through
                // to the abandon ladder below.
                self.trip_breaker(now);
                self.exec.posts_rejected += 1;
            }
        }

        // Out of attempts, budget, or crowd path: the requester gives up
        // on this query.
        self.emit(MetricKind::HitAbandoned {
            cycle: k,
            hit,
            attempts: inflight.attempt,
        });
        if inflight.lost {
            // A lost attempt has no answer coming — ever. Release its
            // outstanding slot so the cycle's query chain moves on; the
            // unanswered image falls back to its AI label at finalize.
            let work = self
                .exec
                .active
                .get_mut(&k)
                .expect("invariant: HIT events only target active cycles");
            self.system.abandon_query(work);
            self.post_or_finalize(k);
            return;
        }

        // A live attempt is waited out after all. Its answer completes at
        // `posted_at + delay` — at or after the timeout, since
        // `HitTimedOut` is scheduled when the delay reaches the timeout —
        // so absorption is deferred to a `LateAnswer` there instead of
        // happening inside the timeout handler. At the exact boundary
        // (`delay == timeout`) both events share a due time and the
        // queue's scheduling-order tiebreak absorbs the late answer after
        // this timeout, keeping the censor-then-absorb order.
        let due = inflight.posted_at_secs + inflight.pending.completion_delay_secs();
        let id = inflight.id;
        self.exec.board.reinstate(inflight);
        self.exec
            .queue
            .schedule(due, EventKind::LateAnswer { hit: id });
    }

    /// A waited-out HIT's workers finally answered: absorb the late answer
    /// at its true completion time. IPD already got this attempt's censored
    /// observation at the timeout, so the late absorb skips the IPD report.
    fn on_late_answer(&mut self, hit: HitId) {
        let inflight = self.exec.board.take(hit);
        let k = inflight.cycle;
        let context = inflight.pending.context();
        let response = inflight.pending.into_response();
        let delay_secs = response.completion_delay_secs;
        let work = self
            .exec
            .active
            .get_mut(&k)
            .expect("invariant: HIT events only target active cycles");
        self.system
            .absorb_late_answer(work, inflight.image_index, &response);
        self.emit(MetricKind::LateAnswerAbsorbed {
            cycle: k,
            hit,
            context,
            delay_secs,
        });
        self.post_or_finalize(k);
    }
}

/// One incentive level up, saturating at the most generous.
fn escalate(level: IncentiveLevel) -> IncentiveLevel {
    IncentiveLevel::from_index((level.index() + 1).min(IncentiveLevel::COUNT - 1))
}

/// Re-seals `snapshot` with its execution state rewritten by `edit`.
#[cfg(test)]
fn splice_exec(snapshot: &RuntimeSnapshot, edit: impl FnOnce(&mut ExecState)) -> RuntimeSnapshot {
    let payload = snapshot.payload();
    let mut r = Reader::new(payload);
    RuntimeConfig::decode(&mut r).expect("config");
    CrowdLearnSystem::decode_state(&mut r).expect("system");
    let head = &payload[..payload.len() - r.remaining()];
    let mut exec = Option::<ExecState>::decode(&mut r)
        .expect("execution")
        .expect("a running execution");
    let tail = &payload[payload.len() - r.remaining()..];
    edit(&mut exec);
    let mut spliced = head.to_vec();
    Some(exec).encode(&mut spliced);
    spliced.extend_from_slice(tail);
    RuntimeSnapshot::seal(spliced)
}

/// Re-seals `snapshot` with its effective window set to `window`: a
/// controller decision appended to the trajectory.
#[cfg(test)]
pub(crate) fn splice_window(snapshot: &RuntimeSnapshot, window: usize) -> RuntimeSnapshot {
    splice_exec(snapshot, |exec| exec.window_trajectory.push(window))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_dataset::DatasetConfig;

    /// An edit to the execution state inside a runtime snapshot payload.
    type Splice = fn(&mut ExecState);

    /// Resumes a 6-cycle run under `policy`, paused after 5 events, after
    /// `edit` rewrote the execution state in its payload.
    fn resume_respliced(
        policy: WindowPolicy,
        edit: Splice,
    ) -> Result<PipelinedSystem, SnapshotError> {
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(7));
        let stream = SensingCycleStream::new(&dataset, 6, 4);
        let mut config = CrowdLearnConfig::paper();
        config.cqc_training_queries = 200;
        config.warmup_per_cell = 2;
        let runtime = RuntimeConfig::paper().with_window_policy(policy);
        let mut system = PipelinedSystem::new(&dataset, config, runtime);
        assert!(system
            .run_until(&dataset, &stream, RunBound::Events(5))
            .is_none());
        let snapshot = system.snapshot().expect("checkpointable");
        PipelinedSystem::resume(&splice_exec(&snapshot, edit), &stream)
    }

    #[test]
    fn resume_holds_the_window_controller_to_its_policy() {
        let adaptive = WindowPolicy::adaptive(1, 8);
        let cases: [(&str, WindowPolicy, Splice, bool); 10] = [
            ("untouched", adaptive, |_| {}, true),
            (
                "window at max",
                adaptive,
                |e| e.window_trajectory = vec![8],
                true,
            ),
            (
                "cooldown at the constant",
                adaptive,
                |e| e.window_cooldown = 1,
                true,
            ),
            (
                "window above max",
                adaptive,
                |e| e.window_trajectory = vec![50],
                false,
            ),
            (
                "window below min",
                adaptive,
                |e| e.window_trajectory = vec![0],
                false,
            ),
            (
                "trajectory above max",
                adaptive,
                |e| e.window_trajectory = vec![1, 9],
                false,
            ),
            (
                "cooldown above the constant",
                adaptive,
                |e| e.window_cooldown = 2,
                false,
            ),
            (
                "frozen controller",
                adaptive,
                |e| e.window_cooldown = u32::MAX,
                false,
            ),
            (
                "static window moved",
                WindowPolicy::Static(4),
                |e| e.window_trajectory = vec![3],
                false,
            ),
            (
                "static trajectory moved",
                WindowPolicy::Static(4),
                |e| e.window_trajectory = vec![4, 5],
                false,
            ),
        ];
        for (what, policy, edit, valid) in cases {
            match resume_respliced(policy, edit) {
                Ok(_) => assert!(valid, "{what}: resumed"),
                Err(e) => {
                    assert!(!valid, "{what}: refused with {e:?}");
                    assert_eq!(e, SnapshotError::Corrupt(DecodeError::Invalid), "{what}");
                }
            }
        }
    }

    #[test]
    fn resume_holds_queued_events_and_the_board_to_what_they_name() {
        let untouched = resume_respliced(WindowPolicy::Static(4), |_| {}).expect("resumes");
        let exec = untouched.exec.as_ref().expect("a running execution");
        assert!(
            exec.board.in_flight() > 0,
            "the pause has a HIT on the board"
        );
        let cases: [(&str, Splice); 4] = [
            ("a fault start the config's plan lacks", |e| {
                let at = e.queue.now_secs() + 1.0;
                e.queue.schedule(at, EventKind::FaultStart { episode: 0 });
            }),
            ("a fault end the config's plan lacks", |e| {
                let at = e.queue.now_secs() + 1.0;
                e.queue.schedule(at, EventKind::FaultEnd { episode: 3 });
            }),
            ("an answer for a HIT not on the board", |e| {
                let at = e.queue.now_secs() + 1.0;
                e.queue
                    .schedule(at, EventKind::HitAnswered { hit: HitId(999) });
            }),
            ("a HIT of a cycle that is not active", |e| {
                let id = e.board.hits().next().expect("a HIT in flight").id;
                let hit = e.board.take(id);
                e.board
                    .reinstate(crate::hit::InFlightHit { cycle: 5, ..hit });
            }),
        ];
        for (what, edit) in cases {
            assert_eq!(
                resume_respliced(WindowPolicy::Static(4), edit).err(),
                Some(SnapshotError::Corrupt(DecodeError::Invalid)),
                "{what}"
            );
        }
    }

    #[test]
    fn exec_state_decoder_holds_the_breaker_backoff_to_its_constants() {
        let mut exec = ExecState::start(&RuntimeConfig::paper(), 2);
        for (backoff, valid) in [(0, false), (1, true), (8, true), (9, false)] {
            exec.breaker_backoff_cycles = backoff;
            let decoded = ExecState::from_bytes(&exec.to_bytes());
            assert_eq!(decoded.is_ok(), valid, "backoff {backoff} cycles");
        }
    }
}
