//! The deterministic event queue.

use crate::{Event, EventKind, VirtualClock};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A priority queue of [`Event`]s ordered by `(due time, scheduling
/// order)`, and the run's one [`VirtualClock`].
///
/// Determinism contract: for a fixed sequence of [`EventQueue::schedule`]
/// calls, [`EventQueue::pop`] yields a fixed sequence of events —
/// simultaneous events break ties by scheduling order, never by heap
/// layout. `pop` advances the clock to each event's due time, and
/// `schedule` refuses a time before it, which pins the simulation to
/// causal order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    clock: VirtualClock,
}

impl EventQueue {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at virtual time `at_secs`; returns the event's
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `at_secs` is NaN or earlier than the clock — scheduling
    /// into the past would break causality.
    pub fn schedule(&mut self, at_secs: f64, kind: EventKind) -> u64 {
        assert!(!at_secs.is_nan(), "event time must not be NaN");
        assert!(
            at_secs >= self.clock.now_secs(),
            "cannot schedule into the past: {at_secs} < {}",
            self.clock.now_secs()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { at_secs, seq, kind }));
        seq
    }

    /// The earliest waiting event without removing it, or `None` when the
    /// queue is empty — how `run_until` decides whether the next event is
    /// within its virtual-time bound before committing to process it.
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek().map(|Reverse(event)| event)
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// due time, or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Event> {
        let Reverse(event) = self.heap.pop()?;
        self.clock.advance_to(event.at_secs);
        Some(event)
    }

    /// The current virtual time: the due time of the last popped event.
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// Events currently waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Events popped over the queue's lifetime: every event ever scheduled
    /// has a sequence number below the counter and is either waiting or
    /// popped.
    pub fn events_popped(&self) -> u64 {
        self.next_seq - self.heap.len() as u64
    }

    /// The waiting events, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter().map(|Reverse(event)| event)
    }
}

// Snapshot codec: the heap serializes as its events in sorted pop order —
// a canonical form independent of heap layout — then the sequence counter
// and the clock. Decode re-checks the queue's standing invariants
// (causality, distinct seq numbers below the counter) so a corrupt snapshot
// surfaces as `Invalid` instead of a mid-run panic.
impl Encode for EventQueue {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut events: Vec<Event> = self.iter().copied().collect();
        events.sort_unstable();
        events.encode(out);
        self.next_seq.encode(out);
        self.clock.encode(out);
    }
}

impl Decode for EventQueue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let events = Vec::<Event>::decode(r)?;
        let next_seq = u64::decode(r)?;
        let clock = VirtualClock::decode(r)?;
        let mut seen = std::collections::BTreeSet::new();
        for event in &events {
            if event.at_secs < clock.now_secs() || event.seq >= next_seq || !seen.insert(event.seq)
            {
                return Err(DecodeError::Invalid);
            }
        }
        Ok(Self {
            heap: events.into_iter().map(Reverse).collect(),
            next_seq,
            clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(5.0, EventKind::CycleArrival { cycle: 0 });
        q.schedule(1.0, EventKind::CycleArrival { cycle: 1 });
        q.schedule(5.0, EventKind::CycleArrival { cycle: 2 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .filter_map(|e| e.kind.cycle())
            .collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn counts_pops_and_advances_the_clock() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(i as f64, EventKind::CycleArrival { cycle: i });
        }
        q.pop();
        q.pop();
        assert_eq!(q.events_popped(), 2);
        assert_eq!(q.len(), 8);
        assert_eq!(q.now_secs(), 1.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_scheduling_before_popped_time() {
        let mut q = EventQueue::new();
        q.schedule(10.0, EventKind::CycleArrival { cycle: 0 });
        q.pop();
        q.schedule(5.0, EventKind::CycleArrival { cycle: 1 });
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        q.schedule(5.0, EventKind::CycleArrival { cycle: 0 });
        q.schedule(1.0, EventKind::CycleArrival { cycle: 1 });
        assert_eq!(q.peek().and_then(|e| e.kind.cycle()), Some(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().and_then(|e| e.kind.cycle()), Some(1));
    }

    #[test]
    fn codec_round_trips_mid_drain_and_preserves_pop_order() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule((i % 3) as f64 * 7.0, EventKind::CycleArrival { cycle: i });
        }
        q.pop();
        q.pop();
        let mut back = EventQueue::from_bytes(&q.to_bytes()).expect("round trip");
        assert_eq!(back.events_popped(), q.events_popped());
        assert_eq!(back.now_secs(), q.now_secs());
        let expect: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        let got: Vec<Event> = std::iter::from_fn(|| back.pop()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn codec_rejects_an_event_before_the_clock_or_a_reused_seq() {
        let mut q = EventQueue::new();
        q.schedule(1.0, EventKind::CycleArrival { cycle: 0 });
        q.schedule(5.0, EventKind::CycleArrival { cycle: 1 });
        let bytes = q.to_bytes();
        // The clock ends the encoding: move it past the first event.
        let mut ahead = bytes[..bytes.len() - 8].to_vec();
        2.0f64.encode(&mut ahead);
        // The counter precedes it: lower it onto the second event's seq.
        let mut reused = bytes[..bytes.len() - 16].to_vec();
        1u64.encode(&mut reused);
        0.0f64.encode(&mut reused);
        for bad in [ahead, reused] {
            assert!(matches!(
                EventQueue::from_bytes(&bad),
                Err(DecodeError::Invalid)
            ));
        }
    }
}
