//! The event queue: a time-ordered priority queue with stable FIFO
//! ordering among events scheduled for the same instant.
//!
//! Every pending event carries a packed `(time, lane, seq)` `u128` key:
//! firing time in the high 64 bits, a 16-bit ordering lane at bits
//! 48..64, and a 48-bit schedule sequence number in the low bits. One
//! comparison orders time, lane and FIFO tie-break together, and no two
//! keys are equal, so a pop always returns the smallest pending key: the
//! pop sequence is a pure function of the pending key set, whichever
//! structure below happens to hold each event.
//!
//! Simulated events mostly land a short, bounded distance ahead of the
//! last popped instant (in a loaded single-server run, 99% within
//! 32 µs and 10% at that same instant), so the queue is a calendar
//! (Brown, CACM 31(10), 1988) for that window in front of a 4-ary heap
//! for everything else:
//!
//! * **The calendar** is a ring of 256 buckets of 128 ns each, covering
//!   the buckets from the last popped instant's onwards. A bucket is a
//!   key-sorted singly linked list of nodes in a dense slab, and a
//!   two-level occupancy bitmap finds the next non-empty bucket in a few
//!   word operations. A schedule walks one short list; a pop reads the
//!   bitmap and unlinks a list head. Both are O(1) for the event
//!   densities the simulator produces.
//! * **The heap** is an implicit 4-ary min-heap over a dense key array,
//!   with payloads in a parallel array moved in lockstep. It takes every
//!   event outside the calendar's window: the far future (governor and
//!   thermal ticks, timeouts, crash windows) and an event scheduled
//!   behind the last popped instant's bucket.
//!
//! A pop takes the smaller of the calendar's first key and the heap's
//! root. The calendar's cursor (the last popped instant's bucket) never
//! moves backwards: whichever half yields the minimum, every calendar
//! entry sorts after it, so each stays inside the advanced window.
//!
//! The lane exists for sharded parallel simulation: events injected
//! from another shard carry `lane = source shard + 1`, so simultaneous
//! cross-shard arrivals order by source shard first and per-source
//! sequence second — a total order independent of thread scheduling.
//! Plain [`EventQueue::schedule`] uses lane 0, which contributes
//! nothing to the key, so single-shard runs keep the exact key values
//! (and pop sequence) of the pre-lane format.

use crate::time::SimTime;

/// An event together with the instant it fires at.
///
/// Returned by [`EventQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub event: E,
}

/// Bits of the packed key holding the FIFO sequence number.
const SEQ_BITS: u32 = 48;
/// Mask isolating the sequence lane of a packed key's low 64 bits.
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// log2 of a calendar bucket's width in nanoseconds (128 ns).
const BUCKET_SHIFT: u32 = 7;
/// log2 of the calendar's ring size (256 buckets, a 32.768 µs window).
const RING_BITS: u32 = 8;
const BUCKETS: usize = 1 << RING_BITS;
/// Takes an absolute bucket number to its ring slot.
const SLOT_MASK: u64 = (1 << RING_BITS) - 1;
/// Words in the occupancy bitmap's lower level.
const WORDS: usize = BUCKETS / 64;
/// The end of a bucket's list.
const NIL: u32 = u32::MAX;

const ARITY: usize = 4;

#[inline]
fn pack(at: SimTime, lane: u16, seq: u64) -> u128 {
    debug_assert!(seq <= SEQ_MASK, "sequence lane overflow");
    (u128::from(at.as_nanos()) << 64) | (u128::from(lane) << SEQ_BITS) | u128::from(seq)
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// The absolute calendar bucket a key's firing time falls in.
#[inline]
fn bucket_of(key: u128) -> u64 {
    (key >> (64 + BUCKET_SHIFT)) as u64
}

#[inline]
fn ring_slot(bucket: u64) -> usize {
    (bucket & SLOT_MASK) as usize
}

/// A deterministic event queue.
///
/// Events scheduled for the same [`SimTime`] pop in the order they were
/// scheduled, which keeps simulations reproducible regardless of queue
/// internals: the packed key gives every entry a unique total order, so
/// each pop returns the smallest pending key, and the pop sequence is a
/// pure function of the keys pending.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_micros(2), "late");
/// queue.schedule(SimTime::from_micros(1), "early");
/// assert_eq!(queue.pop().unwrap().event, "early");
/// assert_eq!(queue.pop().unwrap().event, "late");
/// assert!(queue.pop().is_none());
/// ```
pub struct EventQueue<E> {
    calendar: Calendar<E>,
    heap: Heap<E>,
    next_seq: u64,
}

/// Where the smallest pending key lives.
enum Head {
    /// At the head of this ring slot's bucket.
    Calendar(usize),
    /// At the heap's root.
    Heap,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            calendar: Calendar::new(),
            heap: Heap::default(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at` (ordering lane 0).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_in_lane(at, 0, event);
    }

    /// Schedules `event` at instant `at` in ordering lane `lane`.
    ///
    /// Among events firing at the same instant, lower lanes pop first,
    /// and within a lane the FIFO schedule order applies. Sharded
    /// simulation uses lane `source shard + 1` for injected cross-shard
    /// messages so that simultaneous arrivals from different shards
    /// take a total order that no thread interleaving can perturb;
    /// everything else stays in lane 0.
    #[inline]
    pub fn schedule_in_lane(&mut self, at: SimTime, lane: u16, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(pack(at, lane, seq), event);
    }

    #[inline]
    fn insert(&mut self, key: u128, event: E) {
        if let Err(event) = self.calendar.insert(key, event) {
            self.heap.push(key, event);
        }
    }

    /// The smallest pending key and where it lives.
    #[inline]
    fn head(&self) -> Option<(u128, Head)> {
        let root = self.heap.peek();
        match self.calendar.head() {
            Some((key, slot)) if root.is_none_or(|root| key < root) => {
                Some((key, Head::Calendar(slot)))
            }
            _ => root.map(|root| (root, Head::Heap)),
        }
    }

    /// Removes the entry `head` located.
    #[inline]
    fn take(&mut self, head: Head) -> Option<ScheduledEvent<E>> {
        let (key, event) = match head {
            Head::Calendar(slot) => self.calendar.pop_head(slot),
            Head::Heap => {
                let (key, event) = self.heap.pop()?;
                self.calendar.advance_to(bucket_of(key));
                (key, event)
            }
        };
        Some(ScheduledEvent {
            at: unpack_time(key),
            event,
        })
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (_, head) = self.head()?;
        self.take(head)
    }

    /// Pops the earliest event only if it fires at or before `horizon` —
    /// one lookup of the earliest key instead of a separate peek and pop.
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let (key, head) = self.head()?;
        if unpack_time(key) > horizon {
            return None;
        }
        self.take(head)
    }

    /// The firing instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(key, _)| unpack_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.nodes.len() + self.heap.keys.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.calendar.clear();
        self.heap.keys.clear();
        self.heap.events.clear();
    }

    /// The pending events for checkpointing, as packed keys with their
    /// payloads in ascending key order (the order they will pop in), and
    /// the schedule counter. The order depends only on the keys, not on
    /// which half of the queue holds each event.
    pub fn snapshot_slots(&self) -> (Vec<(u128, &E)>, u64) {
        let calendar = self.calendar.nodes.iter();
        let heap = self.heap.keys.iter().copied().zip(&self.heap.events);
        let mut entries: Vec<(u128, &E)> = calendar
            .map(|node| (node.key, &node.event))
            .chain(heap)
            .collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        (entries, self.next_seq)
    }

    /// Overwrites this queue with pending events captured by
    /// [`EventQueue::snapshot_slots`]: `keys[i]` is the packed key of
    /// `events[i]`. The entries may come in any order (ascending, an
    /// older build's heap layout, shuffled): the pop sequence depends
    /// only on the keys, so the restored queue pops, and numbers later
    /// schedules, exactly as the snapshotted one would have.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `events` differ in length, or if `next_seq`
    /// is not beyond every restored sequence number — either would
    /// corrupt the queue's determinism contract.
    pub fn restore_slots(&mut self, keys: Vec<u128>, events: Vec<E>, next_seq: u64) {
        assert_eq!(keys.len(), events.len(), "keys and events stay parallel");
        assert!(
            keys.iter().all(|&k| (k & u128::from(SEQ_MASK)) < u128::from(next_seq)),
            "next_seq must exceed every restored sequence number"
        );
        self.clear();
        for (key, event) in keys.into_iter().zip(events) {
            self.insert(key, event);
        }
        self.next_seq = next_seq;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

/// The near-future half of the queue: a ring of `BUCKETS` buckets of
/// `1 << BUCKET_SHIFT` ns holding absolute buckets
/// `cursor..=cursor + SLOT_MASK`, so each ring slot holds one bucket.
struct Calendar<E> {
    /// The bucket of the last popped event; it never decreases.
    cursor: u64,
    /// Each ring slot's first node, or `NIL`.
    heads: [u32; BUCKETS],
    /// Bit `s % 64` of word `s / 64` is set while ring slot `s` is
    /// non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` is set while `occupied[w]` is non-zero.
    summary: u64,
    /// The slab. It stays dense: removing a node moves the last one into
    /// its place.
    nodes: Vec<Node<E>>,
}

/// A calendar entry: its packed key, the next node of its bucket
/// (`NIL` at the end) and its payload, kept together so walking a list
/// or popping its head reads one node.
struct Node<E> {
    key: u128,
    next: u32,
    event: E,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            cursor: 0,
            heads: [NIL; BUCKETS],
            occupied: [0; WORDS],
            summary: 0,
            nodes: Vec::new(),
        }
    }

    /// Files `event` under `key` in its bucket's sorted list, or hands
    /// it back if the bucket lies outside the window (or the slab has
    /// run out of `u32` node numbers).
    #[inline]
    fn insert(&mut self, key: u128, event: E) -> Result<(), E> {
        let bucket = bucket_of(key);
        let node = match u32::try_from(self.nodes.len()) {
            Ok(node) if node != NIL && bucket.wrapping_sub(self.cursor) <= SLOT_MASK => node,
            _ => return Err(event),
        };
        let slot = ring_slot(bucket);
        let mut prev = NIL;
        let mut at = self.heads[slot];
        while at != NIL && self.nodes[at as usize].key < key {
            prev = at;
            at = self.nodes[at as usize].next;
        }
        self.nodes.push(Node {
            key,
            next: at,
            event,
        });
        if prev == NIL {
            self.heads[slot] = node;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.summary |= 1 << (slot / 64);
        } else {
            self.nodes[prev as usize].next = node;
        }
        Ok(())
    }

    /// The earliest key and its ring slot: the first non-empty slot
    /// from the cursor's slot round the ring.
    #[inline]
    fn head(&self) -> Option<(u128, usize)> {
        let from = ring_slot(self.cursor);
        let slot = self
            .first_occupied_from(from)
            .or_else(|| self.first_occupied_from(0))?;
        Some((self.nodes[self.heads[slot] as usize].key, slot))
    }

    /// The first non-empty ring slot at or after `from`, without
    /// wrapping.
    #[inline]
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.occupied[word] & (u64::MAX << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        let words = self.summary & (u64::MAX << (word + 1));
        if words == 0 {
            return None;
        }
        let word = words.trailing_zeros() as usize;
        Some(word * 64 + self.occupied[word].trailing_zeros() as usize)
    }

    /// Removes the first node of `slot`'s bucket, which must hold the
    /// calendar's earliest key, and moves the cursor to its bucket.
    #[inline]
    fn pop_head(&mut self, slot: usize) -> (u128, E) {
        let head = self.heads[slot];
        let node = head as usize;
        // `swap_remove` moves the last node into `node`: point its
        // predecessor (or its bucket's head) at the new position.
        let last = self.nodes.len() - 1;
        if node != last {
            let moved = ring_slot(bucket_of(self.nodes[last].key));
            if self.heads[moved] as usize == last {
                self.heads[moved] = head;
            } else {
                let mut at = self.heads[moved] as usize;
                while self.nodes[at].next as usize != last {
                    at = self.nodes[at].next as usize;
                }
                self.nodes[at].next = head;
            }
        }
        let Node { key, next, event } = self.nodes.swap_remove(node);
        self.cursor = bucket_of(key);
        self.heads[slot] = next;
        if next == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            if self.occupied[slot / 64] == 0 {
                self.summary &= !(1 << (slot / 64));
            }
        }
        (key, event)
    }

    /// Moves the cursor forward to `bucket` (never back), after the heap
    /// yielded an event from it: every calendar key sorts after that
    /// event's, so each stays in the window.
    #[inline]
    fn advance_to(&mut self, bucket: u64) {
        self.cursor = self.cursor.max(bucket);
    }

    fn clear(&mut self) {
        self.heads = [NIL; BUCKETS];
        self.occupied = [0; WORDS];
        self.summary = 0;
        self.nodes.clear();
    }
}

/// The far-future half: an implicit 4-ary min-heap of packed keys with
/// payloads in a parallel array moved in lockstep, so the
/// comparison-heavy sift loops stay off the event type.
struct Heap<E> {
    keys: Vec<u128>,
    events: Vec<E>,
}

impl<E> Default for Heap<E> {
    fn default() -> Self {
        Heap {
            keys: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl<E> Heap<E> {
    fn peek(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    fn push(&mut self, key: u128, event: E) {
        self.keys.push(key);
        self.events.push(event);
        self.sift_up(self.keys.len() - 1);
    }

    fn pop(&mut self) -> Option<(u128, E)> {
        if self.keys.is_empty() {
            return None;
        }
        let key = self.keys.swap_remove(0);
        let event = self.events.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        Some((key, event))
    }

    // Both sifts move the travelling key through a "hole" — one store
    // per level instead of a three-move swap — and cache the keys they
    // compare so each level does the minimum number of `u128` loads.

    fn sift_up(&mut self, mut idx: usize) {
        let key = self.keys[idx];
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            let parent_key = self.keys[parent];
            if parent_key <= key {
                break;
            }
            self.keys[idx] = parent_key;
            self.events.swap(idx, parent);
            idx = parent;
        }
        self.keys[idx] = key;
    }

    fn sift_down(&mut self, mut idx: usize) {
        let len = self.keys.len();
        let key = self.keys[idx];
        loop {
            let first = idx * ARITY + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut min = first;
            let mut min_key = self.keys[first];
            for child in first + 1..last {
                let child_key = self.keys[child];
                if child_key < min_key {
                    min = child;
                    min_key = child_key;
                }
            }
            if key <= min_key {
                break;
            }
            self.keys[idx] = min_key;
            self.events.swap(idx, min);
            idx = min;
        }
        self.keys[idx] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A xorshift step: deterministic pseudo-random test inputs.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.pop().unwrap().at, SimTime::from_nanos(7));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.schedule(SimTime::from_secs(1), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.scheduled_total(), 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(30), "c");
        assert_eq!(q.pop().unwrap().event, "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "early");
        q.schedule(SimTime::from_nanos(30), "late");
        let hit = q.pop_at_or_before(SimTime::from_nanos(10)).unwrap();
        assert_eq!(hit.event, "early");
        assert!(q.pop_at_or_before(SimTime::from_nanos(20)).is_none());
        assert_eq!(q.len(), 1, "miss must not remove the event");
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(30)).unwrap().event, "late");
    }

    #[test]
    fn large_shuffled_load_pops_sorted() {
        // Dense collisions stress FIFO ordering; times spread over
        // several ring spans send some events to the heap.
        for span in [1_000u64, 200_000] {
            let mut q = EventQueue::new();
            let mut x: u64 = 0x243F_6A88_85A3_08D3;
            let mut expect: Vec<u64> = Vec::new();
            for i in 0..10_000u64 {
                let t = next(&mut x) % span;
                q.schedule(SimTime::from_nanos(t), (t, i));
                expect.push((t << 32) | i);
            }
            expect.sort_unstable();
            let mut popped = Vec::new();
            while let Some(s) = q.pop() {
                let (t, i) = s.event;
                assert_eq!(s.at, SimTime::from_nanos(t));
                popped.push((t << 32) | i);
            }
            assert_eq!(popped, expect, "span {span}");
        }
    }

    #[test]
    fn events_behind_the_cursor_still_pop_first() {
        // Popping at 100 µs moves the cursor there; an event scheduled
        // before that instant, and one at it in a lower lane, both sort
        // ahead of what the calendar holds.
        let mut q = EventQueue::new();
        q.schedule_in_lane(SimTime::from_micros(100), 1, "popped");
        q.schedule(SimTime::from_micros(101), "calendar");
        assert_eq!(q.pop().unwrap().event, "popped");
        q.schedule(SimTime::from_micros(50), "behind");
        q.schedule(SimTime::from_micros(100), "same instant, lane 0");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["behind", "same instant, lane 0", "calendar"]);
    }

    /// Drives `q` through a fixed script of schedules and pops near and
    /// far from `from`, then drains it; returns every popped event.
    fn continue_script(q: &mut EventQueue<u64>, from: u64) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        let mut x: u64 = 0xD1B5_4A32_D192_ED03;
        for i in 0..300u64 {
            let r = next(&mut x);
            q.schedule(SimTime::from_nanos(from + r % 80_000), 1_000_000 + i);
            if r.is_multiple_of(3) {
                out.extend(q.pop().map(|s| (s.at, s.event)));
            }
        }
        out.extend(std::iter::from_fn(|| q.pop().map(|s| (s.at, s.event))));
        out
    }

    #[test]
    fn restored_slots_pop_identically_from_any_order() {
        // A queue and a bare 4-ary heap see the same history: the heap's
        // slots are the layout checkpoints held before the calendar.
        let mut q = EventQueue::new();
        let mut legacy = Heap::default();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut now = 0u64;
        for i in 0..3_000u64 {
            let r = next(&mut x);
            if r.is_multiple_of(3) {
                let got = q.pop().map(|s| (s.at, s.event));
                let want = legacy.pop().map(|(key, e)| (unpack_time(key), e));
                assert_eq!(got, want);
                now = got.map_or(now, |(at, _)| at.as_nanos());
            } else {
                // Mostly within a few ring spans; one in eight far ahead
                // or behind the last popped instant.
                let t = if r % 8 == 1 {
                    r % 5_000_000
                } else {
                    now + r % 100_000
                };
                let seq = q.scheduled_total();
                q.schedule(SimTime::from_nanos(t), i);
                legacy.push(pack(SimTime::from_nanos(t), 0, seq), i);
            }
        }
        let (entries, next_seq) = q.snapshot_slots();
        assert!(entries.len() > 100, "{} pending", entries.len());
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "ascending keys"
        );
        let (keys, events): (Vec<u128>, Vec<u64>) = entries.iter().map(|&(k, &e)| (k, e)).unzip();
        assert_eq!(keys.len(), legacy.keys.len());
        assert_ne!(keys, legacy.keys, "the heap layout is not sorted");
        let mut shuffled: Vec<(u128, u64)> = keys.iter().copied().zip(events).collect();
        for i in (1..shuffled.len()).rev() {
            let j = (next(&mut x) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let layouts = [
            shuffled.into_iter().unzip(),
            (legacy.keys.clone(), legacy.events.clone()),
        ];
        let mut restored: Vec<EventQueue<u64>> = Vec::new();
        for (keys, events) in layouts {
            let mut r = EventQueue::new();
            r.restore_slots(keys, events, next_seq);
            restored.push(r);
        }
        let want = continue_script(&mut q, now);
        for mut r in restored {
            assert_eq!(r.scheduled_total(), next_seq);
            assert_eq!(continue_script(&mut r, now), want);
        }
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn restore_slots_rejects_length_mismatch() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.restore_slots(vec![0u128], vec![], 1);
    }

    #[test]
    fn lanes_order_simultaneous_events_by_lane_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        q.schedule_in_lane(t, 2, "lane2-first");
        q.schedule_in_lane(t, 1, "lane1-first");
        q.schedule(t, "lane0");
        q.schedule_in_lane(t, 1, "lane1-second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["lane0", "lane1-first", "lane1-second", "lane2-first"]);
    }

    #[test]
    fn lane_zero_keys_match_legacy_packing() {
        // `schedule` must keep producing the pre-lane key layout so
        // existing snapshots and golden seeds stay bit-identical.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(7), ());
        let (entries, _) = q.snapshot_slots();
        let keys: Vec<u128> = entries.iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, vec![7u128 << 64, (7u128 << 64) | 1]);
    }

    #[test]
    fn lane_beats_sequence_at_same_instant() {
        // An earlier-scheduled high-lane event still pops after a
        // later-scheduled low-lane event at the same instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        q.schedule_in_lane(t, 5, "high");
        for _ in 0..100 {
            q.schedule_in_lane(t, 1, "low");
        }
        assert_eq!(q.pop().unwrap().event, "low");
        let mut last = "";
        while let Some(s) = q.pop() {
            last = s.event;
        }
        assert_eq!(last, "high");
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
