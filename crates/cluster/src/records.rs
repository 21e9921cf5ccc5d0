//! The in-memory store of one client's completed-request records.
//!
//! A run keeps one [`ResponseRecord`] per response, and those records
//! are the largest thing a run holds. The value type takes 72 B, but
//! 32 B hold a record of a real run exactly. [`RecordStore`] keeps each
//! record in that packed form and rebuilds the value on every read.
//!
//! *Entries.* Records sit in chunks, and each chunk carries a base
//! `(id, t_generated)`: the values of the record that opened it. An
//! entry stores its `id` and `t_generated` as `i32` offsets from that
//! base (ids of one client's neighbouring responses differ by little,
//! and their `t_generated` by well under ±2³¹ ns ≈ ±2.1 s at any rate
//! above a few hundred responses a second), `conn` and `attempts` as
//! `u32`, and `t_delivered`, `t_nic_out`, `t_nic_in` and `server_time`
//! as `u32` nanoseconds after `t_generated`. `network_time` is the NIC
//! round trip minus `server_time`, and `client` is the client whose
//! store holds the record.
//!
//! *Chunks.* The first chunk holds 64 entries and each later one twice
//! its predecessor's, up to 1,024 entries (32 KiB). A chunk is
//! allocated once, at its scheduled size, and never grows, so a push
//! never copies earlier records, and a chunk stays below glibc's
//! 128 KiB mmap threshold: freeing a run's chunks returns them to the
//! heap for the next run rather than raising that threshold, which a
//! large freed `Vec` buffer does. The schedule alone, not a buffer's
//! capacity, says where a chunk ends, so `get`, `len` and an iterator's
//! `nth`, `skip` and `last` find any record in O(1), in a clone too.
//!
//! A record the packed form cannot give back exactly — an `id` or
//! `t_generated` beyond ±2³¹ of its chunk's base, a stamp before
//! `t_generated` or 2³² − 1 ns or more after it, a `server_time` of
//! 2³² ns or more, any other `network_time`, a foreign `client` — is
//! kept whole, in order, so every read returns exactly what was pushed.
//! The layout is private to this module; the checkpoint codec writes
//! the value type's 68-B form and is unaffected by it.

use treadmill_sim_core::{SimDuration, SimTime};

use crate::request::{RequestId, ResponseRecord};

/// The `delivered` offset that marks an entry whose record is kept
/// whole; the entry's `conn` and `attempts` then hold the low and high
/// halves of its index in [`RecordStore`]'s `whole`. No packed stamp
/// takes this offset.
const WHOLE: u32 = u32::MAX;

/// Entries in a store's first chunk.
const FIRST_CHUNK: usize = 64;
/// Entries in every chunk from the fifth on: 32 KiB of entries.
const FULL_CHUNK: usize = 1_024;
/// Chunks before the first full one: 64, 128, 256 and 512 entries.
const RAMP_CHUNKS: usize = (FULL_CHUNK / FIRST_CHUNK).ilog2() as usize;
/// Entries those chunks hold together.
const RAMP: usize = FULL_CHUNK - FIRST_CHUNK;

/// Entries chunk `k` is allocated for.
fn capacity(k: usize) -> usize {
    FIRST_CHUNK << k.min(RAMP_CHUNKS)
}

/// The index of chunk `k`'s first entry.
fn start(k: usize) -> usize {
    if k < RAMP_CHUNKS {
        (FIRST_CHUNK << k) - FIRST_CHUNK
    } else {
        RAMP + (k - RAMP_CHUNKS) * FULL_CHUNK
    }
}

/// The chunk holding entry `index`, and the entry's place in it.
fn locate(index: usize) -> (usize, usize) {
    let k = if index < RAMP {
        (index / FIRST_CHUNK + 1).ilog2() as usize
    } else {
        RAMP_CHUNKS + (index - RAMP) / FULL_CHUNK
    };
    (k, index - start(k))
}

/// One record in 32 B: `id` and `t_generated` as offsets from the
/// chunk's base, the three stamps after `t_generated` and
/// `server_time` as `u32` nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: i32,
    t_generated: i32,
    conn: u32,
    attempts: u32,
    delivered: u32,
    nic_out: u32,
    nic_in: u32,
    server_time: u32,
}

impl Entry {
    // The halves of a `u64` index: `conn` takes the low 32 bits.
    #[allow(clippy::cast_possible_truncation)]
    fn whole(index: usize) -> Entry {
        let index = index as u64;
        Entry {
            id: 0,
            t_generated: 0,
            conn: index as u32,
            attempts: (index >> 32) as u32,
            delivered: WHOLE,
            nic_out: 0,
            nic_in: 0,
            server_time: 0,
        }
    }

    // A whole entry's index was a `usize` when it was pushed.
    #[allow(clippy::cast_possible_truncation)]
    fn whole_index(&self) -> usize {
        ((u64::from(self.attempts) << 32) | u64::from(self.conn)) as usize
    }
}

/// The `(id, t_generated)` a chunk's entries are offsets from.
#[derive(Debug, Clone, Copy, Default)]
struct Base {
    id: u64,
    t_generated: u64,
}

impl Base {
    /// Packs `record` for the store of `client`, or `None` if unpacking
    /// would not give the record back exactly. Each condition below is
    /// one field [`Base::unpack`] could not restore.
    fn pack(self, record: &ResponseRecord, client: u32) -> Option<Entry> {
        let t_generated = record.t_generated.as_nanos();
        let offset = |t: SimTime| {
            t.as_nanos()
                .checked_sub(t_generated)
                .and_then(|d| u32::try_from(d).ok())
                .filter(|&d| d != WHOLE)
        };
        let nic_out = offset(record.t_nic_out)?;
        let nic_in = offset(record.t_nic_in)?;
        let server_time = u32::try_from(record.server_time.as_nanos()).ok()?;
        let network_time = nic_in.saturating_sub(nic_out).saturating_sub(server_time);
        if record.client != client || record.network_time.as_nanos() != u64::from(network_time) {
            return None;
        }
        Some(Entry {
            id: i32::try_from(record.id.0.wrapping_sub(self.id).cast_signed()).ok()?,
            t_generated: i32::try_from(t_generated.wrapping_sub(self.t_generated).cast_signed())
                .ok()?,
            conn: record.conn,
            attempts: record.attempts,
            delivered: offset(record.t_delivered)?,
            nic_out,
            nic_in,
            server_time,
        })
    }

    fn unpack(self, entry: &Entry, client: u32) -> ResponseRecord {
        let t_generated = self
            .t_generated
            .wrapping_add_signed(i64::from(entry.t_generated));
        let at = |offset: u32| SimTime::from_nanos(t_generated + u64::from(offset));
        let round_trip = entry.nic_in.saturating_sub(entry.nic_out);
        ResponseRecord {
            id: RequestId(self.id.wrapping_add_signed(i64::from(entry.id))),
            client,
            conn: entry.conn,
            attempts: entry.attempts,
            t_generated: SimTime::from_nanos(t_generated),
            t_delivered: at(entry.delivered),
            t_nic_out: at(entry.nic_out),
            t_nic_in: at(entry.nic_in),
            server_time: SimDuration::from_nanos(u64::from(entry.server_time)),
            network_time: SimDuration::from_nanos(u64::from(
                round_trip.saturating_sub(entry.server_time),
            )),
        }
    }
}

/// Up to [`capacity`] entries, allocated once at that size.
#[derive(Debug, Clone)]
struct Chunk {
    base: Base,
    entries: Vec<Entry>,
}

/// One client's completed-request records, in push order, at 32 B per
/// record (see the module docs for the few kept whole).
///
/// Reads return [`ResponseRecord`] values: [`RecordStore::get`] by
/// index, or [`RecordStore::iter`] (`&store` as an iterator).
///
/// # Examples
///
/// ```
/// use treadmill_cluster::{RecordStore, Request, RequestId, ResponseRecord};
/// use treadmill_sim_core::SimTime;
/// use treadmill_workloads::{OpClass, RequestProfile};
///
/// let profile = RequestProfile {
///     class: OpClass::Read,
///     request_bytes: 100,
///     response_bytes: 200,
///     cpu_ns: 10_000.0,
///     mem_ns: 4_000.0,
/// };
/// let request = Request::new(RequestId(7), 0, 1, profile, SimTime::from_micros(5));
/// let record = ResponseRecord::from_request(&request);
/// let mut store = RecordStore::new(0);
/// store.push(record);
/// assert_eq!(store.get(0), Some(record));
/// assert_eq!(store.iter().collect::<Vec<_>>(), [record]);
/// ```
#[derive(Clone)]
pub struct RecordStore {
    /// The client whose records these are.
    client: u32,
    len: usize,
    /// Chunk `k` holds entries `start(k)..start(k + 1)`; all but the
    /// last are full.
    chunks: Vec<Chunk>,
    /// Records the packed form cannot hold, in push order.
    whole: Vec<ResponseRecord>,
}

impl RecordStore {
    /// An empty store for the records of client `client`.
    pub fn new(client: u32) -> Self {
        RecordStore {
            client,
            len: 0,
            chunks: Vec::new(),
            whole: Vec::new(),
        }
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no record was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `record`.
    pub fn push(&mut self, record: ResponseRecord) {
        let k = self.chunks.len();
        if self.len == start(k) {
            self.chunks.push(Chunk {
                base: Base {
                    id: record.id.0,
                    t_generated: record.t_generated.as_nanos(),
                },
                entries: Vec::with_capacity(capacity(k)),
            });
        }
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last];
        let entry = chunk.base.pack(&record, self.client).unwrap_or_else(|| {
            self.whole.push(record);
            Entry::whole(self.whole.len() - 1)
        });
        chunk.entries.push(entry);
        self.len += 1;
    }

    /// The `index`-th record pushed, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<ResponseRecord> {
        let (k, offset) = locate(index);
        let chunk = self.chunks.get(k)?;
        let entry = chunk.entries.get(offset)?;
        Some(self.read(chunk.base, entry))
    }

    /// The records in push order; the same as `&store` as an iterator.
    pub fn iter(&self) -> Iter<'_> {
        self.into_iter()
    }

    /// An iterator over the records from the `index`-th on.
    fn iter_from(&self, index: usize) -> Iter<'_> {
        let (k, offset) = locate(index);
        match self.chunks.get(k) {
            Some(chunk) if index < self.len => Iter {
                store: self,
                base: chunk.base,
                entries: chunk.entries[offset..].iter(),
                next_chunk: k + 1,
            },
            _ => Iter {
                store: self,
                base: Base::default(),
                entries: [].iter(),
                next_chunk: self.chunks.len(),
            },
        }
    }

    fn read(&self, base: Base, entry: &Entry) -> ResponseRecord {
        if entry.delivered == WHOLE {
            self.whole[entry.whole_index()]
        } else {
            base.unpack(entry, self.client)
        }
    }
}

/// Two stores are equal when they hold the same records in the same
/// order.
impl PartialEq for RecordStore {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl std::fmt::Debug for RecordStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// By-value iterator over a [`RecordStore`], in push order. It walks
/// one chunk at a time; `skip`, `nth` and `last` jump without reading
/// the records they pass.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    store: &'a RecordStore,
    /// The base of the chunk `entries` walks.
    base: Base,
    entries: std::slice::Iter<'a, Entry>,
    /// The chunk after the one `entries` walks.
    next_chunk: usize,
}

impl<'a> Iter<'a> {
    fn remaining(&self) -> usize {
        self.entries.len() + self.store.len.saturating_sub(start(self.next_chunk))
    }

    /// Moves to the next chunk and takes its first entry (no chunk is
    /// empty).
    #[cold]
    fn first_of_next_chunk(&mut self) -> Option<&'a Entry> {
        let chunk = self.store.chunks.get(self.next_chunk)?;
        self.base = chunk.base;
        self.entries = chunk.entries.iter();
        self.next_chunk += 1;
        self.entries.next()
    }
}

impl Iterator for Iter<'_> {
    type Item = ResponseRecord;

    #[inline]
    fn next(&mut self) -> Option<ResponseRecord> {
        let entry = match self.entries.next() {
            Some(entry) => entry,
            None => self.first_of_next_chunk()?,
        };
        Some(self.store.read(self.base, entry))
    }

    fn nth(&mut self, n: usize) -> Option<ResponseRecord> {
        if n < self.entries.len() {
            let entry = self.entries.nth(n)?;
            return Some(self.store.read(self.base, entry));
        }
        let index = (self.store.len - self.remaining()).saturating_add(n);
        *self = self.store.iter_from(index);
        self.next()
    }

    fn last(self) -> Option<ResponseRecord> {
        if self.remaining() == 0 {
            return None;
        }
        self.store.get(self.store.len - 1)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a RecordStore {
    type Item = ResponseRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter_from(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// The client whose store the generated records are pushed to.
    const CLIENT: u32 = 1;

    /// A record whose stamps are `t_generated` plus `nic_out`, then
    /// `round_trip` more, then `callback` more (saturating), with the
    /// round trip split into `server` and the derived network time.
    fn consistent(
        t_generated: u64,
        nic_out: u64,
        round_trip: u64,
        callback: u64,
        server: u64,
    ) -> ResponseRecord {
        let t_nic_out = t_generated.saturating_add(nic_out);
        let t_nic_in = t_nic_out.saturating_add(round_trip);
        let server = server.min(t_nic_in - t_nic_out);
        ResponseRecord {
            id: RequestId(t_generated ^ nic_out),
            client: CLIENT,
            conn: 3,
            attempts: 1,
            t_generated: SimTime::from_nanos(t_generated),
            t_delivered: SimTime::from_nanos(t_nic_in.saturating_add(callback)),
            t_nic_out: SimTime::from_nanos(t_nic_out),
            t_nic_in: SimTime::from_nanos(t_nic_in),
            server_time: SimDuration::from_nanos(server),
            network_time: SimDuration::from_nanos(t_nic_in - t_nic_out - server),
        }
    }

    fn whole_count(store: &RecordStore) -> usize {
        store.whole.len()
    }

    /// An offset in nanoseconds: a real run's, one at the edge of the
    /// packed range, or anything.
    fn offset(rng: &mut TestRng) -> u64 {
        let x = rng.next_u64();
        match x % 3 {
            0 => x % 300_000_000,
            1 => (1 << 32) - 3 + x % 6,
            _ => rng.next_u64(),
        }
    }

    /// A record generated at `t` with id `id`, with every way out of
    /// the packed form well covered: stamps 2³² − 1 ns or more after
    /// `t_generated` or before it, a long server time, a network time
    /// other than the derived one, and a foreign client.
    fn any_record(rng: &mut TestRng, t: u64, id: u64) -> ResponseRecord {
        let (a, b, c, s) = (offset(rng), offset(rng), offset(rng), offset(rng));
        let mut r = consistent(t, a, b, c, s);
        r.id = RequestId(id);
        r.conn = rng.next_u64() as u32;
        r.attempts = rng.next_u64() as u32;
        let x = rng.next_u64();
        match rng.next_u64() % 6 {
            0 => r.client = (x % 3) as u32,
            1 => r.network_time = SimDuration::from_nanos(x),
            2 => r.t_delivered = SimTime::from_nanos(t.saturating_sub(x % 1_000 + 1)),
            3 => r.t_nic_out = SimTime::from_nanos(t.saturating_sub(x % 1_000 + 1)),
            4 => r.server_time = SimDuration::from_nanos(x),
            _ => {}
        }
        r
    }

    /// Up to ~3,000 records, enough to fill the ramp's chunks and a few
    /// full ones. Most follow a run's clock and id counter, a few
    /// microseconds and ids apart: half are a real run's records, which
    /// pack, and the rest are any record. One in eight has its id or
    /// its `t_generated` anywhere, so that offset from the chunk's base
    /// misses the `i32` range, and some of those open a chunk.
    struct AnySequence;

    impl Strategy for AnySequence {
        type Value = Vec<ResponseRecord>;

        fn sample(&self, rng: &mut TestRng) -> Vec<ResponseRecord> {
            let len = (rng.next_u64() % 3_100) as usize;
            let mut clock = rng.next_u64() % (u64::MAX / 2);
            let mut ids = rng.next_u64();
            (0..len)
                .map(|_| {
                    clock = clock.saturating_add(rng.next_u64() % 4_000);
                    ids = ids.wrapping_add(rng.next_u64() % 16);
                    let t = clock.saturating_sub(rng.next_u64() % 1_000_000);
                    let mut small = || rng.next_u64() % 100_000;
                    let (a, b, c, s) = (small(), small(), small(), small());
                    match rng.next_u64() % 8 {
                        0 => {
                            let far = rng.next_u64();
                            let (t, id) = if far.is_multiple_of(2) {
                                (far % (u64::MAX / 2), ids)
                            } else {
                                (t, far)
                            };
                            any_record(rng, t, id)
                        }
                        1..=3 => any_record(rng, t, ids),
                        _ => ResponseRecord {
                            id: RequestId(ids),
                            ..consistent(t, a, b, c, s)
                        },
                    }
                })
                .collect()
        }
    }

    /// Asserts that `store` holds exactly `records`, read every way.
    fn assert_holds(store: &RecordStore, records: &[ResponseRecord]) {
        assert_eq!(store.len(), records.len());
        assert_eq!(store.is_empty(), records.is_empty());
        assert_eq!(store.iter().len(), records.len());
        assert_eq!(store.iter().collect::<Vec<_>>(), records);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(store.get(i), Some(*r), "get({i})");
            assert_eq!(store.iter().nth(i), Some(*r), "nth({i})");
        }
        assert_eq!(store.get(records.len()), None);
        assert_eq!(store.iter().nth(records.len()), None);
        assert_eq!(store.iter().last(), records.last().copied());
        for tail in [records.len() / 2, records.len().saturating_sub(70)] {
            let skipped = store.iter().skip(tail);
            assert_eq!(skipped.len(), records.len() - tail);
            assert_eq!(skipped.collect::<Vec<_>>(), records[tail..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn records_round_trip_in_order(records in AnySequence) {
            let mut store = RecordStore::new(CLIENT);
            for &r in &records {
                store.push(r);
            }
            assert_holds(&store, &records);
        }
    }

    #[test]
    fn records_pack_into_32_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 32);
        assert_eq!(std::mem::size_of::<ResponseRecord>(), 72);
    }

    #[test]
    fn records_the_packed_form_cannot_hold_are_kept_whole() {
        let base = consistent(5_000, 10_000, 40_000, 15_000, 18_000);
        let mut odd = [base; 6];
        odd[0].client = CLIENT + 1;
        odd[1].network_time += SimDuration::from_nanos(1);
        odd[2].t_nic_out = SimTime::from_nanos(4_999);
        odd[3].t_delivered = base.t_generated + SimDuration::from_nanos(u64::from(WHOLE));
        odd[4].t_nic_in = base.t_generated + SimDuration::from_nanos(1 << 32);
        odd[5].server_time = SimDuration::from_nanos(1 << 32);
        for (case, odd) in odd.into_iter().enumerate() {
            // In a chunk's middle, and opening the chunk: its base is
            // then a record kept whole, and the rest still pack.
            for records in [[base, odd, base], [odd, base, base]] {
                let mut store = RecordStore::new(CLIENT);
                for r in records {
                    store.push(r);
                }
                assert_eq!(whole_count(&store), 1, "case {case}");
                assert_holds(&store, &records);
            }
        }
        // The last offset the packed form holds.
        let mut store = RecordStore::new(CLIENT);
        store.push(consistent(0, 0, 0, u64::from(WHOLE) - 1, 0));
        assert_eq!(whole_count(&store), 0);
    }

    #[test]
    fn id_and_generation_offsets_pack_up_to_the_i32_edges() {
        const T: u64 = 1 << 40;
        // Ids wrap around u64: offsets from 5 reach below zero.
        const ID: u64 = 5;
        let record = |id: i64, t: i64| {
            let mut r = consistent(T.wrapping_add_signed(t), 100, 2_000, 300, 900);
            r.id = RequestId(ID.wrapping_add_signed(id));
            r
        };
        let (max, min) = (i64::from(i32::MAX), i64::from(i32::MIN));
        let cases = [
            (max, 0, true),
            (min, 0, true),
            (max + 1, 0, false),
            (min - 1, 0, false),
            (0, max, true),
            (0, min, true),
            (0, max + 1, false),
            (0, min - 1, false),
            (min, max, true),
        ];
        for (id, t, packs) in cases {
            let records = [record(0, 0), record(id, t), record(1, 1)];
            let mut store = RecordStore::new(CLIENT);
            for r in records {
                store.push(r);
            }
            assert_eq!(
                whole_count(&store),
                usize::from(!packs),
                "offsets {id}, {t}"
            );
            assert_holds(&store, &records);
        }
    }

    /// Record `i` of a run-like sequence that always packs.
    fn nth_record(i: u64) -> ResponseRecord {
        let mut r = consistent(1_000_000 + 500 * i, 1_000, 40_000, 2_000, 20_000);
        r.id = RequestId(i);
        r
    }

    #[test]
    fn a_clone_fills_its_chunks_on_the_schedule() {
        let records: Vec<ResponseRecord> = (0..3_100).map(nth_record).collect();
        // 100 records end mid-way through the second chunk; a clone
        // keeps their entries but not the chunk's spare capacity.
        let mut store = RecordStore::new(CLIENT);
        for &r in &records[..100] {
            store.push(r);
        }
        let mut clone = store.clone();
        for &r in &records[100..] {
            store.push(r);
            clone.push(r);
        }
        for s in [&store, &clone] {
            assert_holds(s, &records);
            let sizes: Vec<usize> = s.chunks.iter().map(|c| c.entries.len()).collect();
            assert_eq!(sizes, [64, 128, 256, 512, 1_024, 1_024, 92]);
        }
        assert_eq!(whole_count(&store), 0);
    }

    #[test]
    fn chunks_never_move() {
        let mut store = RecordStore::new(CLIENT);
        for i in 0..3_000 {
            store.push(nth_record(i));
        }
        let placed: Vec<(*const Entry, usize)> = store
            .chunks
            .iter()
            .map(|c| (c.entries.as_ptr(), c.entries.capacity()))
            .collect();
        let scheduled: Vec<usize> = (0..placed.len()).map(capacity).collect();
        assert_eq!(scheduled, [64, 128, 256, 512, 1_024, 1_024]);
        for i in 3_000..8_000 {
            store.push(nth_record(i));
        }
        for (k, chunk) in store.chunks.iter().enumerate() {
            assert_eq!(chunk.entries.capacity(), capacity(k), "chunk {k}");
            if let Some(&(ptr, _)) = placed.get(k) {
                assert_eq!(chunk.entries.as_ptr(), ptr, "chunk {k} moved");
            }
        }
    }

    #[test]
    fn records_of_a_faulty_retrying_run_all_pack() {
        use crate::{
            ClientSpec, ClusterBuilder, FaultSpec, InterArrival, OpenLoopSource, RetryPolicy,
        };
        use std::sync::Arc;
        use treadmill_workloads::Memcached;

        let mut builder = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(21)
            .faults(FaultSpec {
                uplink_loss: 0.05,
                ..FaultSpec::default()
            })
            .retry_policy(RetryPolicy {
                timeout_us: 1_000.0,
                max_retries: 3,
                ..RetryPolicy::default()
            })
            .duration(SimDuration::from_millis(40));
        for _ in 0..2 {
            builder = builder.client(
                ClientSpec::default(),
                Box::new(OpenLoopSource::new(InterArrival::Exponential { rate_rps: 200_000.0 }, 8)),
            );
        }
        let result = builder.run();
        assert!(
            result.all_records().any(|r| r.attempts > 1),
            "no retried response"
        );
        for store in &result.client_records {
            assert!(store.len() > 1_000);
            assert_eq!(whole_count(store), 0);
        }
    }
}
