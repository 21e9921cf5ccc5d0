//! The in-memory store of one client's completed-request records.
//!
//! A run keeps one [`ResponseRecord`] per response, and those records
//! are the largest thing a run holds. The value type takes 72 B, but
//! 40 B hold a record of a real run exactly: every stamp lies within
//! 2³² ns (≈4.29 s) after its `t_generated`, `network_time` is the NIC
//! round trip minus `server_time`, and `client` is the client whose
//! store holds the record. [`RecordStore`] keeps each record in that
//! packed form and rebuilds the value on every read.
//!
//! A record the packed form cannot give back exactly — a stamp before
//! `t_generated` or 2³² − 1 ns or more after it, a `server_time` of
//! 2³² ns or more, any other `network_time`, a foreign `client` — is
//! kept whole, in order, so every read returns exactly what was pushed.
//! The layout is private to this module; the checkpoint codec writes
//! the value type's 68-B form and is unaffected by it.

use treadmill_sim_core::{SimDuration, SimTime};

use crate::request::{RequestId, ResponseRecord};

/// The `delivered` offset that marks an entry whose record is kept
/// whole; the entry's `id` then indexes [`RecordStore`]'s `whole`. No
/// packed stamp takes this offset.
const WHOLE: u32 = u32::MAX;

/// One record in 40 B: the three stamps after `t_generated` and
/// `server_time` as `u32` nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Packed {
    id: u64,
    t_generated: u64,
    conn: u32,
    attempts: u32,
    delivered: u32,
    nic_out: u32,
    nic_in: u32,
    server_time: u32,
}

impl Packed {
    /// Packs `record` for the store of `client`, or `None` if unpacking
    /// would not give the record back exactly.
    fn pack(record: &ResponseRecord, client: u32) -> Option<Packed> {
        let base = record.t_generated.as_nanos();
        let offset = |t: SimTime| {
            t.as_nanos()
                .checked_sub(base)
                .and_then(|d| u32::try_from(d).ok())
                .filter(|&d| d != WHOLE)
        };
        let packed = Packed {
            id: record.id.0,
            t_generated: base,
            conn: record.conn,
            attempts: record.attempts,
            delivered: offset(record.t_delivered)?,
            nic_out: offset(record.t_nic_out)?,
            nic_in: offset(record.t_nic_in)?,
            server_time: u32::try_from(record.server_time.as_nanos()).ok()?,
        };
        (packed.unpack(client) == *record).then_some(packed)
    }

    fn unpack(&self, client: u32) -> ResponseRecord {
        let t_generated = SimTime::from_nanos(self.t_generated);
        let at = |offset: u32| t_generated + SimDuration::from_nanos(u64::from(offset));
        let round_trip = self.nic_in.saturating_sub(self.nic_out);
        ResponseRecord {
            id: RequestId(self.id),
            client,
            conn: self.conn,
            attempts: self.attempts,
            t_generated,
            t_delivered: at(self.delivered),
            t_nic_out: at(self.nic_out),
            t_nic_in: at(self.nic_in),
            server_time: SimDuration::from_nanos(u64::from(self.server_time)),
            network_time: SimDuration::from_nanos(u64::from(
                round_trip.saturating_sub(self.server_time),
            )),
        }
    }
}

/// One client's completed-request records, in push order, at 40 B per
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
    packed: Vec<Packed>,
    /// Records the packed form cannot hold, in push order.
    whole: Vec<ResponseRecord>,
}

impl RecordStore {
    /// An empty store for the records of client `client`.
    pub fn new(client: u32) -> Self {
        RecordStore {
            client,
            packed: Vec::new(),
            whole: Vec::new(),
        }
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True if no record was pushed.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Appends `record`.
    pub fn push(&mut self, record: ResponseRecord) {
        let entry = Packed::pack(&record, self.client).unwrap_or_else(|| {
            self.whole.push(record);
            Packed {
                id: self.whole.len() as u64 - 1,
                t_generated: 0,
                conn: 0,
                attempts: 0,
                delivered: WHOLE,
                nic_out: 0,
                nic_in: 0,
                server_time: 0,
            }
        });
        self.packed.push(entry);
    }

    /// The `index`-th record pushed, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<ResponseRecord> {
        self.packed.get(index).map(|entry| self.read(entry))
    }

    /// The records in push order; the same as `&store` as an iterator.
    pub fn iter(&self) -> Iter<'_> {
        self.into_iter()
    }

    // A whole entry's `id` was a `usize` index when it was pushed.
    #[allow(clippy::cast_possible_truncation)]
    fn read(&self, entry: &Packed) -> ResponseRecord {
        if entry.delivered == WHOLE {
            self.whole[entry.id as usize]
        } else {
            entry.unpack(self.client)
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

/// By-value iterator over a [`RecordStore`], in push order. `skip`,
/// `nth` and `last` jump without reading the records they pass.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    store: &'a RecordStore,
    entries: std::slice::Iter<'a, Packed>,
}

impl Iterator for Iter<'_> {
    type Item = ResponseRecord;

    fn next(&mut self) -> Option<ResponseRecord> {
        self.entries.next().map(|entry| self.store.read(entry))
    }

    fn nth(&mut self, n: usize) -> Option<ResponseRecord> {
        self.entries.nth(n).map(|entry| self.store.read(entry))
    }

    fn last(self) -> Option<ResponseRecord> {
        self.entries.last().map(|entry| self.store.read(entry))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a RecordStore {
    type Item = ResponseRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        Iter {
            store: self,
            entries: self.packed.iter(),
        }
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

    /// Any record, with every way out of the packed form well covered:
    /// stamps 2³² − 1 ns or more after `t_generated` or before it, a
    /// long server time, a network time other than the derived one,
    /// and a foreign client.
    struct AnyRecord;

    impl Strategy for AnyRecord {
        type Value = ResponseRecord;

        fn sample(&self, rng: &mut TestRng) -> ResponseRecord {
            let t = rng.next_u64() % (u64::MAX / 2);
            let (a, b, c, s) = (offset(rng), offset(rng), offset(rng), offset(rng));
            let mut r = consistent(t, a, b, c, s);
            r.id = RequestId(rng.next_u64());
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn records_round_trip_in_order(records in prop::collection::vec(AnyRecord, 0..64)) {
            let mut store = RecordStore::new(CLIENT);
            for &r in &records {
                store.push(r);
            }
            prop_assert_eq!(store.len(), records.len());
            prop_assert_eq!(store.is_empty(), records.is_empty());
            prop_assert_eq!(store.iter().collect::<Vec<_>>(), records.clone());
            for (i, r) in records.iter().enumerate() {
                prop_assert_eq!(store.get(i), Some(*r));
                prop_assert_eq!(store.iter().nth(i), Some(*r));
            }
            prop_assert_eq!(store.get(records.len()), None);
            let tail = records.len() / 2;
            prop_assert_eq!(
                store.iter().skip(tail).collect::<Vec<_>>(),
                records[tail..].to_vec()
            );
        }
    }

    #[test]
    fn records_pack_into_40_bytes() {
        assert!(std::mem::size_of::<Packed>() <= 40);
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
            let mut store = RecordStore::new(CLIENT);
            for r in [base, odd, base] {
                store.push(r);
            }
            assert_eq!(whole_count(&store), 1, "case {case}");
            assert_eq!(
                store.iter().collect::<Vec<_>>(),
                [base, odd, base],
                "case {case}"
            );
        }
        // The last offset the packed form holds.
        let mut store = RecordStore::new(CLIENT);
        store.push(consistent(0, 0, 0, u64::from(WHOLE) - 1, 0));
        assert_eq!(whole_count(&store), 0);
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
