//! In-flight HIT tracking.

use crowdlearn_crowd::PendingHit;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use std::collections::BTreeMap;

/// Identifier of a posted HIT, unique within one runtime run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HitId(pub u64);

/// A HIT the runtime has posted and not yet resolved: its one queued
/// resolution (`HitAnswered` or `HitTimedOut`) names it. A timed-out HIT
/// that is waited out stays here until its answer lands.
#[derive(Debug, Clone)]
pub(crate) struct InFlightHit {
    /// The HIT's id.
    pub id: HitId,
    /// Sensing cycle the query belongs to.
    pub cycle: usize,
    /// Index of the queried image within its cycle.
    pub image_index: usize,
    /// Virtual time the HIT was posted.
    pub posted_at_secs: f64,
    /// 1 for the original post, +1 per repost.
    pub attempt: u32,
    /// Whether fault injection lost this attempt: the workers will never
    /// answer, and only the timeout path can retire the HIT (see
    /// [`crate::FaultEpisode::AnswerLoss`]).
    pub lost: bool,
    /// The platform's pending answer; it carries the attempt's incentive.
    pub pending: PendingHit,
}

/// The board of in-flight HITs.
///
/// Backed by a `BTreeMap` so iteration order (and therefore anything
/// derived from it) is deterministic. The board also tracks its own
/// high-water mark, which the bounded-window property tests assert against.
#[derive(Debug, Default)]
pub(crate) struct HitBoard {
    inflight: BTreeMap<HitId, InFlightHit>,
    next_id: u64,
    peak: usize,
}

impl HitBoard {
    /// An empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a newly posted HIT and returns its id.
    pub fn post(
        &mut self,
        cycle: usize,
        image_index: usize,
        posted_at_secs: f64,
        attempt: u32,
        lost: bool,
        pending: PendingHit,
    ) -> HitId {
        let id = HitId(self.next_id);
        self.next_id += 1;
        self.inflight.insert(
            id,
            InFlightHit {
                id,
                cycle,
                image_index,
                posted_at_secs,
                attempt,
                lost,
                pending,
            },
        );
        self.peak = self.peak.max(self.inflight.len());
        id
    }

    /// A HIT in flight, left on the board; `None` if `id` is not in flight.
    pub fn get(&self, id: HitId) -> Option<&InFlightHit> {
        self.inflight.get(&id)
    }

    /// Removes and returns a HIT: when it is answered, reposted, or
    /// abandoned as lost.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in flight — each HIT on the board has
    /// exactly one queued `HitAnswered` or `HitTimedOut`, and a waited-out
    /// timeout queues the `HitAnswered` that takes it, so a miss means an
    /// event was duplicated or lost.
    pub fn take(&mut self, id: HitId) -> InFlightHit {
        self.inflight
            .remove(&id)
            .expect("invariant: a HIT is resolved twice or was never posted")
    }

    /// HITs currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The most HITs ever simultaneously in flight.
    pub fn peak_in_flight(&self) -> usize {
        self.peak
    }

    /// The HITs in flight, in id order.
    pub fn hits(&self) -> impl Iterator<Item = &InFlightHit> {
        self.inflight.values()
    }
}

impl Encode for HitId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for HitId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self(u64::decode(r)?))
    }
}

impl Encode for InFlightHit {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.cycle.encode(out);
        self.image_index.encode(out);
        self.posted_at_secs.encode(out);
        self.attempt.encode(out);
        self.lost.encode(out);
        self.pending.encode(out);
    }
}

impl Decode for InFlightHit {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let hit = Self {
            id: HitId::decode(r)?,
            cycle: usize::decode(r)?,
            image_index: usize::decode(r)?,
            posted_at_secs: f64::decode(r)?,
            attempt: u32::decode(r)?,
            lost: bool::decode(r)?,
            pending: PendingHit::decode(r)?,
        };
        if !hit.posted_at_secs.is_finite() || hit.posted_at_secs < 0.0 || hit.attempt < 1 {
            return Err(DecodeError::Invalid);
        }
        Ok(hit)
    }
}

// The board serializes as its in-flight HITs (already id-sorted by the
// BTreeMap) plus the id counter and high-water mark.
impl Encode for HitBoard {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inflight.len().encode(out);
        for hit in self.inflight.values() {
            hit.encode(out);
        }
        self.next_id.encode(out);
        self.peak.encode(out);
    }
}

impl Decode for HitBoard {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = usize::decode(r)?;
        let mut inflight = BTreeMap::new();
        for _ in 0..n {
            let hit = InFlightHit::decode(r)?;
            if inflight.insert(hit.id, hit).is_some() {
                return Err(DecodeError::Invalid);
            }
        }
        let next_id = u64::decode(r)?;
        let peak = usize::decode(r)?;
        if inflight.keys().any(|id| id.0 >= next_id) || peak < inflight.len() {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            inflight,
            next_id,
            peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
    use crowdlearn_dataset::{Dataset, DatasetConfig, TemporalContext};

    fn pending() -> PendingHit {
        let ds = Dataset::generate(&DatasetConfig::paper().with_seed(1));
        let mut p = Platform::new(PlatformConfig::paper().with_seed(1));
        p.post(&ds.test()[0], IncentiveLevel::C6, TemporalContext::Morning)
    }

    #[test]
    fn ids_are_sequential_and_peak_tracks() {
        let mut board = HitBoard::new();
        let a = board.post(0, 1, 0.0, 1, false, pending());
        let b = board.post(0, 2, 1.0, 1, false, pending());
        assert_eq!((a, b), (HitId(0), HitId(1)));
        assert_eq!(board.in_flight(), 2);
        board.take(a);
        assert_eq!(board.in_flight(), 1);
        assert_eq!(board.peak_in_flight(), 2);
    }

    #[test]
    #[should_panic(expected = "resolved twice")]
    fn double_take_panics() {
        let mut board = HitBoard::new();
        let id = board.post(0, 0, 0.0, 1, false, pending());
        board.take(id);
        board.take(id);
    }

    #[test]
    fn codec_round_trips_the_board() {
        let mut board = HitBoard::new();
        board.post(0, 1, 0.0, 1, false, pending());
        let gone = board.post(1, 2, 12.5, 2, false, pending());
        board.post(2, 3, 40.0, 1, false, pending());
        board.take(gone);

        let back = HitBoard::from_bytes(&board.to_bytes()).expect("round trip");
        assert_eq!(back.in_flight(), board.in_flight());
        assert_eq!(back.peak_in_flight(), board.peak_in_flight());
        let ids: Vec<HitId> = back.inflight.keys().copied().collect();
        assert_eq!(ids, vec![HitId(0), HitId(2)]);
    }
}
