//! Streaming per-event observability for the pipelined runtime.
//!
//! The paper's evaluation lives on delay and cost measurements (Table III,
//! Figures 5, 8, 11), but an end-of-run [`crate::RuntimeReport`] only shows
//! them post-hoc. This module taps the event loop itself: every state
//! transition the [`crate::PipelinedSystem`] driver makes — HIT posted,
//! answered, timed out, reposted, cycle admitted/closed, budget charged —
//! emits one typed [`MetricRecord`] into a [`MetricsSink`]. The bundled
//! [`MetricsTap`] sink folds those records into rolling crowd-delay
//! quantiles (per context and overall), spend pacing against the budget
//! ledger, window occupancy, and queue depth — all in O(1) memory via
//! [`QuantileSketch`], all deterministically, and all checkpointable: the
//! tap state has `Encode`/`Decode` codecs and rides inside the runtime
//! snapshot, so a resumed run replays the identical metric stream.

use crate::faults::BreakerState;
use crate::HitId;
use crowdlearn_crowd::IncentiveLevel;
use crowdlearn_dataset::TemporalContext;
use crowdlearn_metrics::QuantileSketch;
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// One event-boundary observation from the runtime driver.
///
/// Every record carries the instantaneous gauges (virtual time, event-queue
/// depth, pipeline-window occupancy, HITs in flight) sampled *after* the
/// transition took effect, plus the typed transition itself.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Virtual time of the transition, in seconds.
    pub at_secs: f64,
    /// Events still pending in the queue.
    pub queue_depth: usize,
    /// Sensing cycles currently admitted to the pipeline window.
    pub window_occupancy: usize,
    /// HITs currently out on the platform.
    pub hits_in_flight: usize,
    /// What happened.
    pub kind: MetricKind,
}

/// The typed transition behind a [`MetricRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricKind {
    /// A sensing cycle entered the pipeline window.
    CycleAdmitted {
        /// Cycle index.
        cycle: usize,
    },
    /// A sensing cycle finalized (labels assembled, committee retrained).
    CycleClosed {
        /// Cycle index.
        cycle: usize,
        /// Cents the cycle spent on the crowd (reposts included).
        spent_cents: u64,
        /// Crowd answers the cycle absorbed.
        queries: usize,
    },
    /// A fresh HIT went up on the platform.
    HitPosted {
        /// Cycle index.
        cycle: usize,
        /// The HIT.
        hit: HitId,
        /// Incentive paid.
        incentive: IncentiveLevel,
        /// Posting attempt (1 for the first post).
        attempt: u32,
    },
    /// A HIT's workers answered within the timeout.
    HitAnswered {
        /// Cycle index.
        cycle: usize,
        /// The HIT.
        hit: HitId,
        /// Temporal context of the cycle.
        context: TemporalContext,
        /// Observed completion delay, in seconds.
        delay_secs: f64,
        /// Whether the answer beat the offload deadline.
        timely: bool,
    },
    /// A HIT reached its timeout; all the runtime learned at this instant
    /// is the censored "delay ≥ timeout".
    HitTimedOut {
        /// Cycle index.
        cycle: usize,
        /// The HIT.
        hit: HitId,
        /// Incentive of the expired attempt.
        incentive: IncentiveLevel,
        /// The censored delay observation (the timeout itself), in seconds.
        censored_delay_secs: f64,
    },
    /// A timed-out HIT was reposted (typically at an escalated incentive).
    HitReposted {
        /// Cycle index.
        cycle: usize,
        /// The *new* HIT.
        hit: HitId,
        /// Incentive of the new attempt.
        incentive: IncentiveLevel,
        /// Posting attempt of the new HIT (2 for the first repost).
        attempt: u32,
    },
    /// A waited-out HIT's answer was finally absorbed at its true
    /// completion time.
    LateAnswerAbsorbed {
        /// Cycle index.
        cycle: usize,
        /// The HIT.
        hit: HitId,
        /// Temporal context of the cycle.
        context: TemporalContext,
        /// True completion delay, in seconds.
        delay_secs: f64,
    },
    /// The budget ledger was charged for a post or repost.
    SpendCharged {
        /// Cycle index.
        cycle: usize,
        /// Cents charged.
        cents: u32,
        /// Evaluation budget remaining after the charge, in cents.
        remaining_budget_cents: f64,
    },
    /// A query's crowd resolution was given up: the HIT ran out of posting
    /// attempts (or its answer was lost to fault injection) and no further
    /// repost will be tried. Degraded runs audit these to account for every
    /// posted attempt.
    HitAbandoned {
        /// Cycle index.
        cycle: usize,
        /// The abandoned HIT.
        hit: HitId,
        /// Posting attempts consumed, counting the original post.
        attempts: u32,
    },
    /// A scheduled fault episode began (see [`crate::FaultPlan`]).
    FaultStarted {
        /// Index of the episode in the plan.
        episode: usize,
    },
    /// A scheduled fault episode ended.
    FaultEnded {
        /// Index of the episode in the plan.
        episode: usize,
    },
    /// The crowd-path circuit breaker moved between typed states.
    BreakerTransition {
        /// State before the transition.
        from: BreakerState,
        /// State after the transition.
        to: BreakerState,
    },
    /// A cycle fell back to AI-only labeling (committee vote, no HIT spend)
    /// because the breaker was open when its crowd phase would have begun.
    DegradedCycle {
        /// Cycle index.
        cycle: usize,
    },
}

/// A consumer of runtime metric records.
///
/// Implementations must be deterministic for the runtime's determinism
/// guarantee to extend to them: the record stream itself is a pure function
/// of the seeded simulation.
pub trait MetricsSink {
    /// Absorbs one record.
    fn record(&mut self, record: &MetricRecord);
}

/// The simplest sink: keep every record (tests, offline analysis).
impl MetricsSink for Vec<MetricRecord> {
    fn record(&mut self, record: &MetricRecord) {
        self.push(record.clone());
    }
}

/// The deterministic streaming-metrics sink the runtime can carry across
/// checkpoints.
///
/// Folds the record stream into:
///
/// * rolling crowd-delay quantiles, overall and per temporal context
///   ([`QuantileSketch`] — O(1) memory, one-bin-width accuracy). Only
///   *absorbed* answers feed the sketches (the same samples a cycle's
///   `query_delay_secs` reports); censored timeout observations do not,
///   since their true delay is unknown at the timeout instant.
/// * spend pacing: cumulative cents, the ledger's remaining budget after
///   the latest charge, and cents per virtual hour.
/// * occupancy gauges with high-water marks: pipeline-window occupancy,
///   HITs in flight, event-queue depth.
/// * per-kind event counters.
///
/// Determinism contract: the tap is a pure fold over the record stream —
/// no wall clock, no RNG, no iteration over unordered containers — so two
/// same-seed runs produce byte-identical tap states, and a checkpointed
/// run resumes to the same final state as an uninterrupted one. The codecs
/// round-trip every field bit-exactly (f64 as IEEE bits).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsTap {
    records: u64,
    last_at_secs: f64,
    cycles_admitted: u64,
    cycles_closed: u64,
    hits_posted: u64,
    hits_answered: u64,
    hits_timed_out: u64,
    hits_reposted: u64,
    late_answers: u64,
    timely_answers: u64,
    spend_events: u64,
    spent_cents: u64,
    remaining_budget_cents: Option<f64>,
    queue_depth: usize,
    window_occupancy: usize,
    hits_in_flight: usize,
    peak_queue_depth: usize,
    peak_window_occupancy: usize,
    peak_hits_in_flight: usize,
    delay_all: QuantileSketch,
    delay_by_context: Vec<QuantileSketch>,
    hits_abandoned: u64,
    faults_started: u64,
    faults_ended: u64,
    breaker_transitions: u64,
    degraded_cycles: u64,
}

impl MetricsTap {
    /// The `(lo, hi, bins)` grid every delay sketch is built over:
    /// `[0, 7200)` seconds in 1024 bins, ≈ 7 s quantile resolution. The
    /// paper's delay surface tops out around 1400 s mean × worker speed ×
    /// log-normal noise, so the ceiling leaves generous headroom before any
    /// sample clamps. One grid for every tap is what lets a fleet merge its
    /// shards' sketches.
    pub const DELAY_GRID: (f64, f64, usize) = (0.0, 7200.0, 1024);

    /// An empty tap.
    pub fn new() -> Self {
        let (lo, hi, bins) = Self::DELAY_GRID;
        let sketch = || QuantileSketch::new(lo, hi, bins);
        Self {
            records: 0,
            last_at_secs: 0.0,
            cycles_admitted: 0,
            cycles_closed: 0,
            hits_posted: 0,
            hits_answered: 0,
            hits_timed_out: 0,
            hits_reposted: 0,
            late_answers: 0,
            timely_answers: 0,
            spend_events: 0,
            spent_cents: 0,
            remaining_budget_cents: None,
            queue_depth: 0,
            window_occupancy: 0,
            hits_in_flight: 0,
            peak_queue_depth: 0,
            peak_window_occupancy: 0,
            peak_hits_in_flight: 0,
            delay_all: sketch(),
            delay_by_context: (0..TemporalContext::COUNT).map(|_| sketch()).collect(),
            hits_abandoned: 0,
            faults_started: 0,
            faults_ended: 0,
            breaker_transitions: 0,
            degraded_cycles: 0,
        }
    }

    /// Records absorbed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Virtual time of the latest record, in seconds (0 before any record).
    pub fn last_at_secs(&self) -> f64 {
        self.last_at_secs
    }

    /// Rolling quantile sketch over every absorbed crowd delay.
    pub fn crowd_delay(&self) -> &QuantileSketch {
        &self.delay_all
    }

    /// Rolling quantile sketch over one temporal context's crowd delays
    /// (the Figure 8 series, live).
    pub fn crowd_delay_in(&self, context: TemporalContext) -> &QuantileSketch {
        &self.delay_by_context[context.index()]
    }

    /// Cycles admitted to the pipeline window so far.
    pub fn cycles_admitted(&self) -> u64 {
        self.cycles_admitted
    }

    /// Cycles finalized so far.
    pub fn cycles_closed(&self) -> u64 {
        self.cycles_closed
    }

    /// Fresh HITs posted so far (reposts not included).
    pub fn hits_posted(&self) -> u64 {
        self.hits_posted
    }

    /// Answers absorbed within their timeout so far.
    pub fn hits_answered(&self) -> u64 {
        self.hits_answered
    }

    /// HITs that reached their timeout so far.
    pub fn hits_timed_out(&self) -> u64 {
        self.hits_timed_out
    }

    /// Timed-out HITs reposted so far.
    pub fn hits_reposted(&self) -> u64 {
        self.hits_reposted
    }

    /// Waited-out answers absorbed late so far.
    pub fn late_answers(&self) -> u64 {
        self.late_answers
    }

    /// Absorbed answers that beat the offload deadline so far.
    pub fn timely_answers(&self) -> u64 {
        self.timely_answers
    }

    /// Cumulative cents charged to the budget ledger.
    pub fn spent_cents(&self) -> u64 {
        self.spent_cents
    }

    /// Evaluation budget remaining after the latest charge, in cents;
    /// `None` before any charge.
    pub fn remaining_budget_cents(&self) -> Option<f64> {
        self.remaining_budget_cents
    }

    /// Spend pacing in cents per virtual hour, over the run so far; `None`
    /// before any virtual time has elapsed.
    pub fn spend_rate_cents_per_hour(&self) -> Option<f64> {
        (self.last_at_secs > 0.0).then(|| self.spent_cents as f64 * 3600.0 / self.last_at_secs)
    }

    /// Event-queue depth after the latest record.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Pipeline-window occupancy after the latest record.
    pub fn window_occupancy(&self) -> usize {
        self.window_occupancy
    }

    /// HITs in flight after the latest record.
    pub fn hits_in_flight(&self) -> usize {
        self.hits_in_flight
    }

    /// Deepest the event queue has been at a record boundary.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Most cycles ever simultaneously admitted, as seen by the tap.
    pub fn peak_window_occupancy(&self) -> usize {
        self.peak_window_occupancy
    }

    /// Most HITs ever simultaneously in flight, as seen by the tap.
    pub fn peak_hits_in_flight(&self) -> usize {
        self.peak_hits_in_flight
    }

    /// HITs whose crowd resolution was given up (out of attempts, or a
    /// fault-lost answer) so far.
    pub fn hits_abandoned(&self) -> u64 {
        self.hits_abandoned
    }

    /// Fault episodes that have taken effect so far.
    pub fn faults_started(&self) -> u64 {
        self.faults_started
    }

    /// Fault episodes that have ended so far (instantaneous episodes never
    /// emit an end).
    pub fn faults_ended(&self) -> u64 {
        self.faults_ended
    }

    /// Circuit-breaker state transitions so far.
    pub fn breaker_transitions(&self) -> u64 {
        self.breaker_transitions
    }

    /// Cycles that fell back to AI-only labeling so far.
    pub fn degraded_cycles(&self) -> u64 {
        self.degraded_cycles
    }
}

impl Default for MetricsTap {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSink for MetricsTap {
    fn record(&mut self, record: &MetricRecord) {
        self.records += 1;
        self.last_at_secs = record.at_secs;
        self.queue_depth = record.queue_depth;
        self.window_occupancy = record.window_occupancy;
        self.hits_in_flight = record.hits_in_flight;
        self.peak_queue_depth = self.peak_queue_depth.max(record.queue_depth);
        self.peak_window_occupancy = self.peak_window_occupancy.max(record.window_occupancy);
        self.peak_hits_in_flight = self.peak_hits_in_flight.max(record.hits_in_flight);
        match record.kind {
            MetricKind::CycleAdmitted { .. } => self.cycles_admitted += 1,
            MetricKind::CycleClosed { .. } => self.cycles_closed += 1,
            MetricKind::HitPosted { .. } => self.hits_posted += 1,
            MetricKind::HitAnswered {
                context,
                delay_secs,
                timely,
                ..
            } => {
                self.hits_answered += 1;
                self.timely_answers += u64::from(timely);
                self.delay_all.push(delay_secs);
                self.delay_by_context[context.index()].push(delay_secs);
            }
            MetricKind::HitTimedOut { .. } => self.hits_timed_out += 1,
            MetricKind::HitReposted { .. } => self.hits_reposted += 1,
            MetricKind::LateAnswerAbsorbed {
                context,
                delay_secs,
                ..
            } => {
                self.late_answers += 1;
                self.delay_all.push(delay_secs);
                self.delay_by_context[context.index()].push(delay_secs);
            }
            MetricKind::SpendCharged {
                cents,
                remaining_budget_cents,
                ..
            } => {
                self.spend_events += 1;
                self.spent_cents += u64::from(cents);
                self.remaining_budget_cents = Some(remaining_budget_cents);
            }
            MetricKind::HitAbandoned { .. } => self.hits_abandoned += 1,
            MetricKind::FaultStarted { .. } => self.faults_started += 1,
            MetricKind::FaultEnded { .. } => self.faults_ended += 1,
            MetricKind::BreakerTransition { .. } => self.breaker_transitions += 1,
            MetricKind::DegradedCycle { .. } => self.degraded_cycles += 1,
        }
    }
}

// Snapshot codec: the tap rides inside the runtime snapshot so that a
// checkpointed run resumes its metric stream byte-identically.
impl Encode for MetricsTap {
    fn encode(&self, out: &mut Vec<u8>) {
        self.records.encode(out);
        self.last_at_secs.encode(out);
        self.cycles_admitted.encode(out);
        self.cycles_closed.encode(out);
        self.hits_posted.encode(out);
        self.hits_answered.encode(out);
        self.hits_timed_out.encode(out);
        self.hits_reposted.encode(out);
        self.late_answers.encode(out);
        self.timely_answers.encode(out);
        self.spend_events.encode(out);
        self.spent_cents.encode(out);
        self.remaining_budget_cents.encode(out);
        self.queue_depth.encode(out);
        self.window_occupancy.encode(out);
        self.hits_in_flight.encode(out);
        self.peak_queue_depth.encode(out);
        self.peak_window_occupancy.encode(out);
        self.peak_hits_in_flight.encode(out);
        self.delay_all.encode(out);
        self.delay_by_context.encode(out);
        self.hits_abandoned.encode(out);
        self.faults_started.encode(out);
        self.faults_ended.encode(out);
        self.breaker_transitions.encode(out);
        self.degraded_cycles.encode(out);
    }
}

impl Decode for MetricsTap {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tap = Self {
            records: u64::decode(r)?,
            last_at_secs: f64::decode(r)?,
            cycles_admitted: u64::decode(r)?,
            cycles_closed: u64::decode(r)?,
            hits_posted: u64::decode(r)?,
            hits_answered: u64::decode(r)?,
            hits_timed_out: u64::decode(r)?,
            hits_reposted: u64::decode(r)?,
            late_answers: u64::decode(r)?,
            timely_answers: u64::decode(r)?,
            spend_events: u64::decode(r)?,
            spent_cents: u64::decode(r)?,
            remaining_budget_cents: Option::<f64>::decode(r)?,
            queue_depth: usize::decode(r)?,
            window_occupancy: usize::decode(r)?,
            hits_in_flight: usize::decode(r)?,
            peak_queue_depth: usize::decode(r)?,
            peak_window_occupancy: usize::decode(r)?,
            peak_hits_in_flight: usize::decode(r)?,
            delay_all: QuantileSketch::decode(r)?,
            delay_by_context: Vec::<QuantileSketch>::decode(r)?,
            hits_abandoned: u64::decode(r)?,
            faults_started: u64::decode(r)?,
            faults_ended: u64::decode(r)?,
            breaker_transitions: u64::decode(r)?,
            degraded_cycles: u64::decode(r)?,
        };
        let gauges_ok = tap.last_at_secs.is_finite()
            && tap.last_at_secs >= 0.0
            && tap.queue_depth <= tap.peak_queue_depth
            && tap.window_occupancy <= tap.peak_window_occupancy
            && tap.hits_in_flight <= tap.peak_hits_in_flight
            && tap
                .remaining_budget_cents
                .is_none_or(|b| b.is_finite() && b >= 0.0);
        // Every sketch must sit on the one delay grid (the `new`
        // invariant), or a fleet rollup could not merge it.
        let grid = Self::DELAY_GRID;
        let sketches_ok = tap.delay_by_context.len() == TemporalContext::COUNT
            && tap.delay_all.grid() == grid
            && tap.delay_by_context.iter().all(|s| s.grid() == grid)
            && tap.delay_all.len() == tap.hits_answered + tap.late_answers
            && tap
                .delay_by_context
                .iter()
                .map(QuantileSketch::len)
                .sum::<u64>()
                == tap.delay_all.len();
        let counters_ok = tap.timely_answers <= tap.hits_answered
            && tap.hits_reposted <= tap.hits_timed_out
            && tap.cycles_closed <= tap.cycles_admitted
            && tap.hits_abandoned <= tap.hits_timed_out
            && tap.faults_ended <= tap.faults_started
            && tap.degraded_cycles <= tap.cycles_admitted;
        if !gauges_ok || !sketches_ok || !counters_ok {
            return Err(DecodeError::Invalid);
        }
        Ok(tap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at: f64, kind: MetricKind) -> MetricRecord {
        MetricRecord {
            at_secs: at,
            queue_depth: 3,
            window_occupancy: 2,
            hits_in_flight: 1,
            kind,
        }
    }

    fn answered(at: f64, delay: f64, context: TemporalContext) -> MetricRecord {
        record(
            at,
            MetricKind::HitAnswered {
                cycle: 0,
                hit: HitId(1),
                context,
                delay_secs: delay,
                timely: true,
            },
        )
    }

    #[test]
    fn tap_folds_delays_and_spend() {
        let mut tap = MetricsTap::new();
        tap.record(&answered(100.0, 250.0, TemporalContext::Morning));
        tap.record(&answered(200.0, 350.0, TemporalContext::Evening));
        tap.record(&record(
            250.0,
            MetricKind::SpendCharged {
                cycle: 0,
                cents: 8,
                remaining_budget_cents: 992.0,
            },
        ));
        assert_eq!(tap.records(), 3);
        assert_eq!(tap.hits_answered(), 2);
        assert_eq!(tap.crowd_delay().len(), 2);
        assert_eq!(tap.crowd_delay_in(TemporalContext::Morning).len(), 1);
        assert_eq!(tap.crowd_delay_in(TemporalContext::Afternoon).len(), 0);
        assert_eq!(tap.spent_cents(), 8);
        assert_eq!(tap.remaining_budget_cents(), Some(992.0));
        // 8 cents over 250 virtual seconds.
        let rate = tap.spend_rate_cents_per_hour().unwrap();
        assert!((rate - 8.0 * 3600.0 / 250.0).abs() < 1e-9);
        assert_eq!(tap.peak_queue_depth(), 3);
    }

    #[test]
    fn censored_timeouts_do_not_feed_the_delay_sketch() {
        let mut tap = MetricsTap::new();
        tap.record(&record(
            50.0,
            MetricKind::HitTimedOut {
                cycle: 0,
                hit: HitId(9),
                incentive: IncentiveLevel::C4,
                censored_delay_secs: 150.0,
            },
        ));
        assert_eq!(tap.hits_timed_out(), 1);
        assert!(tap.crowd_delay().is_empty());
    }

    #[test]
    fn empty_tap_matches_the_empty_stats_contract() {
        let tap = MetricsTap::new();
        assert_eq!(tap.crowd_delay().quantile(0.5), None);
        assert_eq!(tap.remaining_budget_cents(), None);
        assert_eq!(tap.spend_rate_cents_per_hour(), None);
    }

    #[test]
    fn codec_round_trips_and_validates() {
        let mut tap = MetricsTap::new();
        tap.record(&answered(10.0, 300.0, TemporalContext::Midnight));
        tap.record(&record(20.0, MetricKind::CycleAdmitted { cycle: 1 }));
        let mut bytes = Vec::new();
        tap.encode(&mut bytes);
        let back = MetricsTap::decode(&mut Reader::new(&bytes)).expect("round trip");
        assert_eq!(back, tap);

        // A delay-count/counter mismatch is rejected.
        let mut tampered = tap.clone();
        tampered.hits_answered += 1;
        let mut bytes = Vec::new();
        tampered.encode(&mut bytes);
        assert_eq!(
            MetricsTap::decode(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid)
        );
    }

    #[test]
    fn fault_events_fold_into_their_counters() {
        let mut tap = MetricsTap::new();
        // An abandoned HIT follows its own timeout.
        tap.record(&record(
            50.0,
            MetricKind::HitTimedOut {
                cycle: 0,
                hit: HitId(3),
                incentive: IncentiveLevel::C4,
                censored_delay_secs: 150.0,
            },
        ));
        tap.record(&record(
            50.0,
            MetricKind::HitAbandoned {
                cycle: 0,
                hit: HitId(3),
                attempts: 2,
            },
        ));
        tap.record(&record(60.0, MetricKind::FaultStarted { episode: 0 }));
        tap.record(&record(
            60.0,
            MetricKind::BreakerTransition {
                from: BreakerState::Closed,
                to: BreakerState::Open,
            },
        ));
        tap.record(&record(61.0, MetricKind::CycleAdmitted { cycle: 1 }));
        tap.record(&record(61.0, MetricKind::DegradedCycle { cycle: 1 }));
        tap.record(&record(90.0, MetricKind::FaultEnded { episode: 0 }));
        assert_eq!(tap.hits_abandoned(), 1);
        assert_eq!(tap.faults_started(), 1);
        assert_eq!(tap.faults_ended(), 1);
        assert_eq!(tap.breaker_transitions(), 1);
        assert_eq!(tap.degraded_cycles(), 1);

        // The whole state round-trips, and an impossible counter pair
        // (more ends than starts) is rejected on the wire.
        let mut bytes = Vec::new();
        tap.encode(&mut bytes);
        assert_eq!(
            MetricsTap::decode(&mut Reader::new(&bytes)),
            Ok(tap.clone())
        );
        let mut tampered = tap;
        tampered.faults_ended += 1;
        let mut bytes = Vec::new();
        tampered.encode(&mut bytes);
        assert_eq!(
            MetricsTap::decode(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid)
        );
    }

    #[test]
    fn decode_rejects_sketches_off_the_config_grid() {
        let mut tap = MetricsTap::new();
        tap.record(&answered(5.0, 100.0, TemporalContext::Morning));
        assert_eq!(tap.crowd_delay().grid(), MetricsTap::DELAY_GRID);
        assert_eq!(MetricsTap::from_bytes(&tap.to_bytes()), Ok(tap.clone()));

        // The overall sketch on a {3600 s, 512} grid, its sample kept.
        let mut tampered = tap.clone();
        tampered.delay_all = QuantileSketch::new(0.0, 3600.0, 512);
        tampered.delay_all.push(100.0);
        assert_eq!(
            MetricsTap::from_bytes(&tampered.to_bytes()),
            Err(DecodeError::Invalid)
        );

        // One per-context sketch off the grid is enough.
        let mut tampered = tap;
        tampered.delay_by_context[2] = QuantileSketch::new(0.0, 3600.0, 512);
        assert_eq!(
            MetricsTap::from_bytes(&tampered.to_bytes()),
            Err(DecodeError::Invalid)
        );
    }

    #[test]
    fn vec_sink_keeps_the_raw_stream() {
        let mut sink: Vec<MetricRecord> = Vec::new();
        let r = answered(5.0, 100.0, TemporalContext::Morning);
        sink.record(&r);
        assert_eq!(sink, vec![r]);
    }
}
