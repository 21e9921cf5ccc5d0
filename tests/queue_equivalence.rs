//! Property test: the event queue (a calendar of near-future buckets in
//! front of a 4-ary heap) is observationally identical to a textbook
//! binary-heap implementation under arbitrary interleavings of
//! schedules and pops. The FIFO tie-break at equal times, and the lane
//! order before it, are part of the contract — simulations rely on
//! them for bit-for-bit reproducibility.

// Integration tests exercise the public API end-to-end: unwrap on
// already-validated setup and exact float comparison (bit-identity is
// the property under test) are the point here, not defects.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use treadmill::sim::{EventQueue, SimTime};

/// The calendar's window: 256 buckets of 128 ns.
const RING_SPAN_NS: u64 = 256 * 128;

/// The straightforward reference: a max-heap of inverted
/// `(time, lane, seq)` keys.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(u64, u16, u64)>>,
    next_seq: u64,
}

impl ReferenceQueue {
    /// Schedules at `at` in `lane`; returns the entry's sequence number.
    fn schedule(&mut self, at: u64, lane: u16) -> u64 {
        let seq = self.next_seq;
        self.heap.push(Reverse((at, lane, seq)));
        self.next_seq += 1;
        seq
    }

    /// Pops `(time, seq)`, the pair a queue entry whose payload is its
    /// sequence number exposes.
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((at, _, seq))| (at, seq))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

fn popped(queue: &mut EventQueue<u64>) -> Option<(u64, u64)> {
    queue.pop().map(|s| (s.at.as_nanos(), s.event))
}

/// Where an op schedules, relative to the last popped instant `now`.
fn op_time(kind: u64, value: u64, now: u64) -> u64 {
    match kind {
        // Dense collisions a few nanoseconds ahead, as in a burst.
        0 => now + value % 64,
        // Anywhere over several ring spans.
        1 => now + value % (4 * RING_SPAN_NS),
        // Far beyond the window (ticks, timeouts).
        2 => now + 50 * RING_SPAN_NS + value,
        // At or behind the last popped instant.
        _ => now - (value % (2 * RING_SPAN_NS)).min(now),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ops` drives both queues. Each op packs `kind` (`op % 6`), `lane`
    /// (`op / 6 % 4`) and `value` (`op / 24`): `kind` 4 or 5 pops,
    /// anything else schedules in `lane` at a time [`op_time`] places
    /// near, far ahead of, at or behind the last popped instant. Every
    /// pop must agree on `(time, seq)`.
    #[test]
    fn indexed_heap_matches_reference(
        ops in prop::collection::vec(0u64..(24 << 20), 1..600),
    ) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut now = 0u64;
        for &op in &ops {
            let (kind, lane, value) = (op % 6, (op / 6 % 4) as u16, op / 24);
            if kind < 4 {
                // Event payload = its sequence number, so a pop exposes
                // exactly which entry surfaced.
                let at = op_time(kind, value, now);
                let seq = reference.schedule(at, lane);
                queue.schedule_in_lane(SimTime::from_nanos(at), lane, seq);
            } else {
                let got = popped(&mut queue);
                prop_assert_eq!(got, reference.pop());
                if let Some((at, _)) = got {
                    now = at;
                }
            }
            prop_assert_eq!(queue.len(), reference.heap.len());
        }
        // Drain both: the tail must agree too, and lengths must match.
        loop {
            let want = reference.pop();
            prop_assert_eq!(popped(&mut queue), want);
            if want.is_none() {
                break;
            }
        }
    }

    /// `pop_at_or_before` must behave as peek-then-pop: it pops exactly
    /// when the reference's minimum is within the horizon. Each of
    /// `times` packs a far flag (`t % 2`), a lane (`t / 2 % 4`) and a
    /// time (`t / 8`): times and horizons cross many bucket boundaries
    /// and a few ring spans, and far events land beyond the window.
    #[test]
    fn horizon_pop_matches_peek_then_pop(
        times in prop::collection::vec(0u64..(8 * 3 * RING_SPAN_NS), 1..200),
        horizons in prop::collection::vec(0u64..(4 * RING_SPAN_NS), 1..300),
    ) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for &t in &times {
            let (far, lane) = (t % 2 == 1, (t / 2 % 4) as u16);
            let at = if far { t / 8 + 50 * RING_SPAN_NS } else { t / 8 };
            let seq = reference.schedule(at, lane);
            queue.schedule_in_lane(SimTime::from_nanos(at), lane, seq);
        }
        for &h in &horizons {
            let got = queue
                .pop_at_or_before(SimTime::from_nanos(h))
                .map(|s| (s.at.as_nanos(), s.event));
            let within = reference.peek_time().is_some_and(|t| t <= h);
            let want = if within { reference.pop() } else { None };
            prop_assert_eq!(got, want);
            prop_assert_eq!(queue.peek_time().map(SimTime::as_nanos), reference.peek_time());
        }
    }
}
