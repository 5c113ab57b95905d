//! In-flight HIT tracking.

use crowdlearn_crowd::{IncentiveLevel, PendingHit};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use std::collections::BTreeMap;

/// Identifier of a posted HIT, unique within one runtime run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HitId(pub u64);

/// A HIT the runtime has posted and not yet resolved (answered, expired, or
/// abandoned).
#[derive(Debug, Clone)]
pub(crate) struct InFlightHit {
    /// The HIT's id.
    pub id: HitId,
    /// Sensing cycle the query belongs to.
    pub cycle: usize,
    /// Index of the queried image within its cycle.
    pub image_index: usize,
    /// Incentive paid for this attempt.
    pub incentive: IncentiveLevel,
    /// Virtual time the HIT was posted.
    pub posted_at_secs: f64,
    /// 1 for the original post, +1 per repost.
    pub attempt: u32,
    /// Whether fault injection lost this attempt: the workers will never
    /// answer, and only the timeout path can retire the HIT (see
    /// [`crate::FaultEpisode::AnswerLoss`]).
    pub lost: bool,
    /// The platform's pending answer.
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
    // Eight arguments: the full identity of a posted attempt (the `lost`
    // flag pushed it past clippy's limit); a builder would move the same
    // fields one call away without making any of them optional.
    #[allow(clippy::too_many_arguments)]
    pub fn post(
        &mut self,
        cycle: usize,
        image_index: usize,
        incentive: IncentiveLevel,
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
                incentive,
                posted_at_secs,
                attempt,
                lost,
                pending,
            },
        );
        self.peak = self.peak.max(self.inflight.len());
        id
    }

    /// Removes and returns a HIT.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in flight — every scheduled
    /// `HitAnswered`/`HitTimedOut` event must resolve exactly one HIT, so a
    /// miss means an event was duplicated or lost.
    pub fn take(&mut self, id: HitId) -> InFlightHit {
        self.inflight
            .remove(&id)
            .expect("invariant: a HIT is resolved twice or was never posted")
    }

    /// Puts a previously taken HIT back in flight under its original id —
    /// the waited-out-timeout path, where the expired HIT stays on the board
    /// until its `LateAnswer` event fires.
    ///
    /// # Panics
    ///
    /// Panics if the id is already in flight.
    pub fn reinstate(&mut self, hit: InFlightHit) {
        let prior = self.inflight.insert(hit.id, hit);
        assert!(prior.is_none(), "cannot reinstate a HIT already in flight");
        self.peak = self.peak.max(self.inflight.len());
    }

    /// HITs currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The most HITs ever simultaneously in flight.
    pub fn peak_in_flight(&self) -> usize {
        self.peak
    }

    /// Whether `id` is in flight.
    pub fn contains(&self, id: HitId) -> bool {
        self.inflight.contains_key(&id)
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
        self.incentive.encode(out);
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
            incentive: IncentiveLevel::decode(r)?,
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
    use crowdlearn_crowd::{Platform, PlatformConfig};
    use crowdlearn_dataset::{Dataset, DatasetConfig, TemporalContext};

    fn pending() -> PendingHit {
        let ds = Dataset::generate(&DatasetConfig::paper().with_seed(1));
        let mut p = Platform::new(PlatformConfig::paper().with_seed(1));
        p.post(&ds.test()[0], IncentiveLevel::C6, TemporalContext::Morning)
    }

    #[test]
    fn ids_are_sequential_and_peak_tracks() {
        let mut board = HitBoard::new();
        let a = board.post(0, 1, IncentiveLevel::C6, 0.0, 1, false, pending());
        let b = board.post(0, 2, IncentiveLevel::C6, 1.0, 1, false, pending());
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
        let id = board.post(0, 0, IncentiveLevel::C1, 0.0, 1, false, pending());
        board.take(id);
        board.take(id);
    }

    #[test]
    fn reinstate_restores_the_same_id() {
        let mut board = HitBoard::new();
        let id = board.post(2, 5, IncentiveLevel::C8, 30.0, 1, false, pending());
        let hit = board.take(id);
        assert_eq!(board.in_flight(), 0);
        board.reinstate(hit);
        assert_eq!(board.in_flight(), 1);
        let back = board.take(id);
        assert_eq!(back.id, id);
        assert_eq!(back.image_index, 5);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn reinstate_of_live_hit_panics() {
        let mut board = HitBoard::new();
        let id = board.post(0, 0, IncentiveLevel::C1, 0.0, 1, false, pending());
        let copy = InFlightHit {
            pending: pending(),
            ..board.take(id)
        };
        board.reinstate(copy);
        let dup = InFlightHit {
            pending: pending(),
            id,
            cycle: 0,
            image_index: 0,
            incentive: IncentiveLevel::C1,
            posted_at_secs: 0.0,
            attempt: 1,
            lost: false,
        };
        board.reinstate(dup);
    }

    #[test]
    fn codec_round_trips_the_board() {
        let mut board = HitBoard::new();
        board.post(0, 1, IncentiveLevel::C6, 0.0, 1, false, pending());
        let gone = board.post(1, 2, IncentiveLevel::C10, 12.5, 2, false, pending());
        board.post(2, 3, IncentiveLevel::C2, 40.0, 1, false, pending());
        board.take(gone);

        let back = HitBoard::from_bytes(&board.to_bytes()).expect("round trip");
        assert_eq!(back.in_flight(), board.in_flight());
        assert_eq!(back.peak_in_flight(), board.peak_in_flight());
        let ids: Vec<HitId> = back.inflight.keys().copied().collect();
        assert_eq!(ids, vec![HitId(0), HitId(2)]);
    }
}
