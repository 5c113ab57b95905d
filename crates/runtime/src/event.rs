//! The typed event vocabulary of the pipelined runtime.

use crate::HitId;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use std::cmp::Ordering;

/// What happens at a virtual instant.
///
/// Five event kinds cover the whole CrowdLearn loop once crowd waits are
/// asynchronous: cycles arrive on the sensing cadence, AI inference
/// completes after the committee's execution delay, a posted HIT is
/// answered or expires on the platform (an expired HIT that is waited out
/// is answered late, by the same `HitAnswered` kind), and retraining
/// closes a cycle out. Three more carry the fault-injection machinery:
/// scheduled fault episodes start and end ([`crate::FaultPlan`]), and the
/// crowd-path circuit breaker probes the platform after backing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A sensing cycle's imagery arrived (paper Definition 1: one batch
    /// every cycle period).
    CycleArrival {
        /// Index of the arriving cycle.
        cycle: usize,
    },
    /// Committee inference + QSS/IPD bookkeeping for a cycle finished; its
    /// crowd queries may start posting.
    InferenceDone {
        /// Index of the inferred cycle.
        cycle: usize,
    },
    /// Every worker on a HIT has answered; the response is observable. The
    /// answer of a HIT that timed out and was waited out lands here too, at
    /// its true completion time.
    HitAnswered {
        /// The answered HIT.
        hit: HitId,
    },
    /// A HIT reached its timeout with workers still pending; the runtime
    /// may repost it at an escalated incentive.
    HitTimedOut {
        /// The expired HIT.
        hit: HitId,
    },
    /// MIC finished the cycle's weight update + retrain; the cycle's
    /// pipeline slot is free.
    RetrainDone {
        /// Index of the finalized cycle.
        cycle: usize,
    },
    /// A scheduled fault episode begins (see [`crate::FaultPlan`]); the
    /// driver flips the injector's view of the world at this instant.
    FaultStart {
        /// Index of the episode in the plan.
        episode: usize,
    },
    /// A scheduled fault episode ends.
    FaultEnd {
        /// Index of the episode in the plan.
        episode: usize,
    },
    /// The crowd-path circuit breaker's backoff elapsed; the driver tests
    /// whether the platform accepts posts again (Open → HalfProbe).
    BreakerProbe,
}

impl EventKind {
    /// The sensing cycle this event names, or `None` for the HIT events
    /// (their cycle is the HIT's, on the HIT board) and the
    /// fault-injection events, which belong to the run rather than a cycle.
    pub fn cycle(&self) -> Option<usize> {
        match *self {
            EventKind::CycleArrival { cycle }
            | EventKind::InferenceDone { cycle }
            | EventKind::RetrainDone { cycle } => Some(cycle),
            _ => None,
        }
    }

    /// The HIT a HIT event resolves.
    pub fn hit(&self) -> Option<HitId> {
        match *self {
            EventKind::HitAnswered { hit } | EventKind::HitTimedOut { hit } => Some(hit),
            _ => None,
        }
    }
}

/// A scheduled event: a kind, a virtual due time, and a tie-breaking
/// sequence number.
///
/// Events order by `(at_secs, seq)`. The sequence number is assigned at
/// scheduling time, so simultaneous events pop in the order they were
/// scheduled — which makes the whole simulation a deterministic function of
/// the seeds, independent of heap internals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual due time, seconds.
    pub at_secs: f64,
    /// Scheduling order, the tie-breaker for simultaneous events.
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at_secs
            .total_cmp(&other.at_secs)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// Snapshot codec: each kind is a stable u8 tag followed by its fields.
// Tags 2 and 6 belonged to the retired `HitPosted` marker and `LateAnswer`
// event and stay unused, so every surviving kind keeps its tag.
impl Encode for EventKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            EventKind::CycleArrival { cycle } => {
                0u8.encode(out);
                cycle.encode(out);
            }
            EventKind::InferenceDone { cycle } => {
                1u8.encode(out);
                cycle.encode(out);
            }
            EventKind::HitAnswered { hit } => {
                3u8.encode(out);
                hit.encode(out);
            }
            EventKind::HitTimedOut { hit } => {
                4u8.encode(out);
                hit.encode(out);
            }
            EventKind::RetrainDone { cycle } => {
                5u8.encode(out);
                cycle.encode(out);
            }
            EventKind::FaultStart { episode } => {
                7u8.encode(out);
                episode.encode(out);
            }
            EventKind::FaultEnd { episode } => {
                8u8.encode(out);
                episode.encode(out);
            }
            EventKind::BreakerProbe => 9u8.encode(out),
        }
    }
}

impl Decode for EventKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(EventKind::CycleArrival {
                cycle: usize::decode(r)?,
            }),
            1 => Ok(EventKind::InferenceDone {
                cycle: usize::decode(r)?,
            }),
            3 => Ok(EventKind::HitAnswered {
                hit: HitId::decode(r)?,
            }),
            4 => Ok(EventKind::HitTimedOut {
                hit: HitId::decode(r)?,
            }),
            5 => Ok(EventKind::RetrainDone {
                cycle: usize::decode(r)?,
            }),
            7 => Ok(EventKind::FaultStart {
                episode: usize::decode(r)?,
            }),
            8 => Ok(EventKind::FaultEnd {
                episode: usize::decode(r)?,
            }),
            9 => Ok(EventKind::BreakerProbe),
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        self.at_secs.encode(out);
        self.seq.encode(out);
        self.kind.encode(out);
    }
}

impl Decode for Event {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at_secs = f64::decode(r)?;
        let seq = u64::decode(r)?;
        let kind = EventKind::decode(r)?;
        if at_secs.is_nan() || at_secs < 0.0 {
            return Err(DecodeError::Invalid);
        }
        Ok(Self { at_secs, seq, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_seq() {
        let a = Event {
            at_secs: 1.0,
            seq: 5,
            kind: EventKind::CycleArrival { cycle: 0 },
        };
        let b = Event {
            at_secs: 1.0,
            seq: 6,
            kind: EventKind::CycleArrival { cycle: 1 },
        };
        let c = Event {
            at_secs: 0.5,
            seq: 7,
            kind: EventKind::CycleArrival { cycle: 2 },
        };
        assert!(c < a && a < b);
    }

    #[test]
    fn kind_reports_cycle_and_hit() {
        assert_eq!(EventKind::RetrainDone { cycle: 7 }.cycle(), Some(7));
        assert_eq!(EventKind::HitAnswered { hit: HitId(9) }.cycle(), None);
        assert_eq!(
            EventKind::HitTimedOut { hit: HitId(2) }.hit(),
            Some(HitId(2))
        );
        assert_eq!(EventKind::RetrainDone { cycle: 7 }.hit(), None);
        assert_eq!(EventKind::FaultStart { episode: 0 }.cycle(), None);
        assert_eq!(EventKind::FaultEnd { episode: 1 }.cycle(), None);
        assert_eq!(EventKind::BreakerProbe.cycle(), None);
    }

    #[test]
    fn codec_round_trips_every_kind() {
        let kinds = [
            EventKind::CycleArrival { cycle: 1 },
            EventKind::InferenceDone { cycle: 2 },
            EventKind::HitAnswered { hit: HitId(11) },
            EventKind::HitTimedOut { hit: HitId(12) },
            EventKind::RetrainDone { cycle: 6 },
            EventKind::FaultStart { episode: 0 },
            EventKind::FaultEnd { episode: 1 },
            EventKind::BreakerProbe,
        ];
        for (seq, kind) in kinds.into_iter().enumerate() {
            let event = Event {
                at_secs: 100.5 * (seq as f64 + 1.0),
                seq: seq as u64,
                kind,
            };
            assert_eq!(Event::from_bytes(&event.to_bytes()), Ok(event));
        }
        assert_eq!(Event::from_bytes(&[7u8]), Err(DecodeError::Truncated));
        // The retired tags and the first unused one decode to a typed
        // error, not a panic.
        for tag in [2u8, 6, 10] {
            let mut bad = Vec::new();
            1.5f64.encode(&mut bad);
            0u64.encode(&mut bad);
            tag.encode(&mut bad);
            HitId(10).encode(&mut bad);
            assert_eq!(
                Event::from_bytes(&bad),
                Err(DecodeError::Invalid),
                "tag {tag}"
            );
        }
    }
}
