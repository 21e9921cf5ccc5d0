//! Deterministic checkpoint/resume for cluster simulations.
//!
//! An engine's mutable state splits in two, because the two halves grow
//! differently:
//!
//! * **record chunks** — [`write_chunk`] encodes the response and
//!   failure records each client completed past a [`RecordCursor`], and
//!   advances the cursor. A run appends one chunk per checkpoint to an
//!   append-only segment, so a checkpoint costs its *new* records only;
//!   [`read_chunk`] appends a chunk's records back onto the clients.
//! * **state** — [`write_state`] serialises everything else, in
//!   sections: the world counters; each component's own section (the
//!   client machines' RNG streams, bookkeeping, in-flight requests and
//!   record and failure counts, the cursor the segment must reach; the
//!   fault plan's cursors; the link queues; the server's cores, run
//!   queues and thermal state); then the clock, the pending events (in
//!   ascending key order; the keys carry the FIFO tie-breaks, so a
//!   restore may take them in any order) and the shard counters. A
//!   component writes its section with a `save` beside its fields and
//!   reads it back with a `load`; this module keeps the section order
//!   and the value codecs the sections share (profiles, requests, core
//!   jobs, events, records, failures). The state's size follows what is
//!   pending, not how long the run has been going.
//!
//! A checkpoint is one or more chunks on a record segment plus one
//! state sealed in an envelope (see [`treadmill_sim_core::snapshot`]);
//! `treadmill_core`'s `ResumableRun` is the one place that assembles
//! them.
//!
//! Restoring targets a *freshly built* engine for the same
//! configuration. Everything that is a pure function of the
//! configuration and the master seed (placement state, pre-drawn crash
//! windows, link topology, server geometry) is regenerated by
//! [`crate::ClusterBuilder::build`]; the chunks and the state then
//! overwrite only the mutable state. A run killed at any event and
//! resumed from its last checkpoint executes the exact same remaining
//! event sequence — bit-identical records, quantiles, and diagnostics.
//!
//! The decoder never trusts length fields blindly. Each section is
//! checked against the rebuilt world as it is read: client, link, core
//! and busy-baseline counts, a fault plan and a frequency trace present
//! on both sides or on neither, each client's record counts against the
//! records it holds. The envelope's checksum rejects torn or corrupted
//! files before any field is read. A section is applied as soon as it
//! is read, so an engine a restore fails on holds part of the state and
//! must be discarded, as after a failed [`read_chunk`].

use std::io::{self, Read, Write};

use rand::rngs::SmallRng;
use treadmill_sim_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::{Engine, SimDuration, SimTime};
use treadmill_workloads::{OpClass, RequestProfile};

use crate::request::{Request, RequestId, ResponseRecord};
use crate::server::core::CoreJob;
use crate::world::{ClusterWorld, Event};
use crate::{FailureKind, FailureRecord, FaultPlan};

/// How far one client's records have been written to a segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordCursor {
    /// Response records already written.
    pub records: usize,
    /// Failure records already written.
    pub failures: usize,
}

/// Leading bytes of each engine's section of a record chunk.
const CHUNK_MAGIC: [u8; 4] = *b"TMLR";

/// Writes the records and failures each client of `engine` completed
/// past its cursor in `cursors` as one chunk section, and advances the
/// cursors to the end. `cursors` holds one entry per client; an empty
/// vector starts every client at its first record.
///
/// Layout: `"TMLR" | clients u32`, then per client `records u64 |
/// records × 68 B | failures u64 | failures × 37 B`. Records go to `out`
/// one at a time, so a buffered `out` bounds the memory this takes.
///
/// # Errors
///
/// Whatever `out` returns; the cursors then say nothing reliable about
/// what reached it.
pub fn write_chunk<W: Write>(
    engine: &Engine<ClusterWorld>,
    cursors: &mut Vec<RecordCursor>,
    out: &mut W,
) -> io::Result<()> {
    let clients = &engine.world().clients;
    cursors.resize(clients.len(), RecordCursor::default());
    out.write_all(&CHUNK_MAGIC)?;
    out.write_all(
        &u32::try_from(clients.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    )?;
    for (client, cursor) in clients.iter().zip(cursors.iter_mut()) {
        let records = client.records.iter().skip(cursor.records);
        out.write_all(&(records.len() as u64).to_le_bytes())?;
        for record in records {
            out.write_all(&encode_record(&record))?;
        }
        let failures = client.failures.get(cursor.failures..).unwrap_or_default();
        out.write_all(&(failures.len() as u64).to_le_bytes())?;
        for failure in failures {
            out.write_all(&encode_failure(failure))?;
        }
        *cursor = RecordCursor {
            records: client.records.len(),
            failures: client.failures.len(),
        };
    }
    Ok(())
}

/// Reads one chunk section written by [`write_chunk`] from `r` and
/// appends its records and failures to `engine`'s clients.
///
/// # Errors
///
/// [`SnapshotError::Truncated`] if `r` ends inside the section;
/// [`SnapshotError::Malformed`] for a missing magic, a client count
/// other than the engine's, an unknown failure kind, or a read error.
pub fn read_chunk<R: Read>(
    engine: &mut Engine<ClusterWorld>,
    r: &mut R,
) -> Result<(), SnapshotError> {
    let mut head = [0u8; 8];
    read_bytes(r, &mut head)?;
    if head[..4] != CHUNK_MAGIC {
        return Err(SnapshotError::Malformed("record chunk without its magic"));
    }
    let clients = &mut engine.world_mut().clients;
    if u32::from_le_bytes(fixed(&head[4..])) as usize != clients.len() {
        return Err(SnapshotError::Malformed("client count mismatch"));
    }
    for client in clients.iter_mut() {
        let n = read_count(r)?;
        let mut buf = [0u8; RECORD_BYTES];
        for _ in 0..n {
            read_bytes(r, &mut buf)?;
            client.records.push(decode_record(&buf));
        }
        let n = read_count(r)?;
        client.failures.reserve(n.min(RESERVE_CAP));
        let mut buf = [0u8; FAILURE_BYTES];
        for _ in 0..n {
            read_bytes(r, &mut buf)?;
            client.failures.push(decode_failure(&buf)?);
        }
    }
    Ok(())
}

/// Counts in a chunk are read before the checksum can vouch for them,
/// so reservations are capped; a corrupt count runs into the end of the
/// input instead of into the allocator.
const RESERVE_CAP: usize = 1 << 16;

fn read_bytes<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), SnapshotError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => SnapshotError::Truncated,
        _ => SnapshotError::Malformed("record segment unreadable"),
    })
}

fn read_count<R: Read>(r: &mut R) -> Result<usize, SnapshotError> {
    let mut buf = [0u8; 8];
    read_bytes(r, &mut buf)?;
    checked_len(u64::from_le_bytes(buf))
}

fn fixed<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    out
}

/// Writes the engine's state — everything but the records themselves —
/// into `w`: the envelope half of a checkpoint. Each client's record
/// and failure counts stand in for the records, so a restore can check
/// that the chunks it read reach exactly this far.
pub fn write_state(engine: &Engine<ClusterWorld>, w: &mut SnapshotWriter) {
    let world = engine.world();
    w.put_u64(world.next_id);
    w.put_u32(world.outstanding);
    w.put_u64(world.outstanding_samples.len() as u64);
    for &(at, n) in &world.outstanding_samples {
        w.put_time(at);
        w.put_u32(n);
    }
    w.put_u64(world.clients.len() as u64);
    for client in &world.clients {
        client.save(w);
    }
    FaultPlan::save(world.faults.as_ref(), w);
    world.network.save(w);
    world.server.save(w);

    // Engine clock and pending events in ascending key order. The keys
    // carry every FIFO tie-break, and a sorted array is also a valid
    // 4-ary heap, the layout older builds wrote and read here.
    let (now, executed) = engine.clock_state();
    w.put_time(now);
    w.put_u64(executed);
    let (entries, next_seq) = engine.queue().snapshot_slots();
    w.put_u64(next_seq);
    w.put_u64(entries.len() as u64);
    for &(key, _) in &entries {
        w.put_u128(key);
    }
    for &(_, event) in &entries {
        put_event(w, event);
    }

    // Shard context: conservation counters only. The static fields
    // (index, shard count, lookahead) are rebuild-time configuration,
    // not state. Checkpoints are only taken at round boundaries, where
    // every cross-shard message has been drained and injected — enforce
    // that here so a resumed run can never silently lose in-transit
    // messages.
    assert!(
        world.shard.outbox.is_empty(),
        "checkpoint with undrained cross-shard outbox"
    );
    w.put_u64(world.shard.sent);
    w.put_u64(world.shard.received);
}

/// Reads a state written by [`write_state`] from `r` into `engine`,
/// whose clients must already hold the records the state counts
/// (restored through [`read_chunk`]). Each section is checked against
/// the rebuilt engine as it is read and applied, so on `Err` the engine
/// holds part of the state and must be discarded, as after a failed
/// [`read_chunk`].
///
/// # Errors
///
/// Returns a [`SnapshotError`] if the state disagrees structurally with
/// the rebuilt engine (wrong client/core/link count, a fault plan or
/// frequency trace on one side only, unknown tag) or a client's record
/// counts differ from the records it holds.
pub fn read_state(
    engine: &mut Engine<ClusterWorld>,
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    let world = engine.world_mut();
    world.next_id = r.get_u64()?;
    world.outstanding = r.get_u32()?;
    let n_samples = r.get_u64()?;
    world.outstanding_samples = Vec::with_capacity(checked_len(n_samples)?);
    for _ in 0..n_samples {
        world
            .outstanding_samples
            .push((r.get_time()?, r.get_u32()?));
    }
    if r.get_u64()? != world.clients.len() as u64 {
        return Err(SnapshotError::Malformed("client count mismatch"));
    }
    for client in &mut world.clients {
        client.load(r)?;
    }
    FaultPlan::load(world.faults.as_mut(), r)?;
    world.network.load(r)?;
    world.server.load(r)?;

    let now = r.get_time()?;
    let executed = r.get_u64()?;
    let next_seq = r.get_u64()?;
    let n_events = r.get_u64()?;
    let mut keys = Vec::with_capacity(checked_len(n_events)?);
    for _ in 0..n_events {
        keys.push(r.get_u128()?);
    }
    let mut events = Vec::with_capacity(checked_len(n_events)?);
    for _ in 0..n_events {
        events.push(get_event(r)?);
    }
    engine.restore_clock_state(now, executed);
    engine.queue_mut().restore_slots(keys, events, next_seq);

    let shard = &mut engine.world_mut().shard;
    shard.sent = r.get_u64()?;
    shard.received = r.get_u64()?;
    shard.outbox.clear();
    Ok(())
}

// The snapshot framing uses u64 lengths; reject anything that cannot be
// a length on this platform before reserving memory for it.
pub(crate) fn checked_len(n: u64) -> Result<usize, SnapshotError> {
    usize::try_from(n).map_err(|_| SnapshotError::Malformed("length overflows usize"))
}

pub(crate) fn put_rng(w: &mut SnapshotWriter, rng: &SmallRng) {
    for word in rng.state() {
        w.put_u64(word);
    }
}

pub(crate) fn get_rng(r: &mut SnapshotReader<'_>) -> Result<SmallRng, SnapshotError> {
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = r.get_u64()?;
    }
    Ok(SmallRng::from_state(state))
}

pub(crate) fn put_profile(w: &mut SnapshotWriter, profile: &RequestProfile) {
    w.put_u8(match profile.class {
        OpClass::Read => 0,
        OpClass::Write => 1,
        OpClass::Route => 2,
    });
    w.put_u32(profile.request_bytes);
    w.put_u32(profile.response_bytes);
    w.put_f64(profile.cpu_ns);
    w.put_f64(profile.mem_ns);
}

pub(crate) fn get_profile(r: &mut SnapshotReader<'_>) -> Result<RequestProfile, SnapshotError> {
    let class = match r.get_u8()? {
        0 => OpClass::Read,
        1 => OpClass::Write,
        2 => OpClass::Route,
        _ => return Err(SnapshotError::Malformed("unknown op class")),
    };
    Ok(RequestProfile {
        class,
        request_bytes: r.get_u32()?,
        response_bytes: r.get_u32()?,
        cpu_ns: r.get_f64()?,
        mem_ns: r.get_f64()?,
    })
}

fn put_request(w: &mut SnapshotWriter, req: &Request) {
    w.put_u64(req.id.0);
    w.put_u32(req.client);
    w.put_u32(req.conn);
    put_profile(w, &req.profile);
    w.put_u32(req.attempt);
    w.put_u32(req.home_shard);
    w.put_time(req.t_generated);
    w.put_time(req.t_client_nic_out);
    w.put_time(req.t_server_nic_in);
    w.put_time(req.t_irq_done);
    w.put_time(req.t_service_start);
    w.put_time(req.t_server_nic_out);
    w.put_time(req.t_client_nic_in);
    w.put_time(req.t_delivered);
}

fn get_request(r: &mut SnapshotReader<'_>) -> Result<Box<Request>, SnapshotError> {
    Ok(Box::new(Request {
        id: RequestId(r.get_u64()?),
        client: r.get_u32()?,
        conn: r.get_u32()?,
        profile: get_profile(r)?,
        attempt: r.get_u32()?,
        home_shard: r.get_u32()?,
        t_generated: r.get_time()?,
        t_client_nic_out: r.get_time()?,
        t_server_nic_in: r.get_time()?,
        t_irq_done: r.get_time()?,
        t_service_start: r.get_time()?,
        t_server_nic_out: r.get_time()?,
        t_client_nic_in: r.get_time()?,
        t_delivered: r.get_time()?,
    }))
}

/// Encoded size of one [`ResponseRecord`]: 1 × u64 + 3 × u32 + 6 × u64
/// timestamps/durations. Records dominate a run's checkpoint volume, so
/// each is assembled in a stack buffer and written with a single copy.
const RECORD_BYTES: usize = 8 + 3 * 4 + 6 * 8;

fn encode_record(record: &ResponseRecord) -> [u8; RECORD_BYTES] {
    let mut buf = [0u8; RECORD_BYTES];
    buf[0..8].copy_from_slice(&record.id.0.to_le_bytes());
    buf[8..12].copy_from_slice(&record.client.to_le_bytes());
    buf[12..16].copy_from_slice(&record.conn.to_le_bytes());
    buf[16..20].copy_from_slice(&record.attempts.to_le_bytes());
    buf[20..28].copy_from_slice(&record.t_generated.as_nanos().to_le_bytes());
    buf[28..36].copy_from_slice(&record.t_delivered.as_nanos().to_le_bytes());
    buf[36..44].copy_from_slice(&record.t_nic_out.as_nanos().to_le_bytes());
    buf[44..52].copy_from_slice(&record.t_nic_in.as_nanos().to_le_bytes());
    buf[52..60].copy_from_slice(&record.server_time.as_nanos().to_le_bytes());
    buf[60..68].copy_from_slice(&record.network_time.as_nanos().to_le_bytes());
    buf
}

fn decode_record(buf: &[u8; RECORD_BYTES]) -> ResponseRecord {
    let u64_at = |at: usize| u64::from_le_bytes(fixed(&buf[at..at + 8]));
    let u32_at = |at: usize| u32::from_le_bytes(fixed(&buf[at..at + 4]));
    ResponseRecord {
        id: RequestId(u64_at(0)),
        client: u32_at(8),
        conn: u32_at(12),
        attempts: u32_at(16),
        t_generated: SimTime::from_nanos(u64_at(20)),
        t_delivered: SimTime::from_nanos(u64_at(28)),
        t_nic_out: SimTime::from_nanos(u64_at(36)),
        t_nic_in: SimTime::from_nanos(u64_at(44)),
        server_time: SimDuration::from_nanos(u64_at(52)),
        network_time: SimDuration::from_nanos(u64_at(60)),
    }
}

/// Encoded size of one [`FailureRecord`]: u64 id, two u32s, two
/// timestamps, u32 attempts and a one-byte kind.
const FAILURE_BYTES: usize = 8 + 2 * 4 + 2 * 8 + 4 + 1;

fn encode_failure(failure: &FailureRecord) -> [u8; FAILURE_BYTES] {
    let mut buf = [0u8; FAILURE_BYTES];
    buf[0..8].copy_from_slice(&failure.id.0.to_le_bytes());
    buf[8..12].copy_from_slice(&failure.client.to_le_bytes());
    buf[12..16].copy_from_slice(&failure.conn.to_le_bytes());
    buf[16..24].copy_from_slice(&failure.t_generated.as_nanos().to_le_bytes());
    buf[24..32].copy_from_slice(&failure.t_failed.as_nanos().to_le_bytes());
    buf[32..36].copy_from_slice(&failure.attempts.to_le_bytes());
    buf[36] = match failure.kind {
        FailureKind::TimedOut => 0,
        FailureKind::ConnectionReset => 1,
    };
    buf
}

fn decode_failure(buf: &[u8; FAILURE_BYTES]) -> Result<FailureRecord, SnapshotError> {
    let u64_at = |at: usize| u64::from_le_bytes(fixed(&buf[at..at + 8]));
    let u32_at = |at: usize| u32::from_le_bytes(fixed(&buf[at..at + 4]));
    Ok(FailureRecord {
        id: RequestId(u64_at(0)),
        client: u32_at(8),
        conn: u32_at(12),
        t_generated: SimTime::from_nanos(u64_at(16)),
        t_failed: SimTime::from_nanos(u64_at(24)),
        attempts: u32_at(32),
        kind: match buf[36] {
            0 => FailureKind::TimedOut,
            1 => FailureKind::ConnectionReset,
            _ => return Err(SnapshotError::Malformed("unknown failure kind")),
        },
    })
}

pub(crate) fn put_job(w: &mut SnapshotWriter, job: &CoreJob) {
    match job {
        CoreJob::Irq(req) => {
            w.put_u8(0);
            put_request(w, req);
        }
        CoreJob::Work(req) => {
            w.put_u8(1);
            put_request(w, req);
        }
        CoreJob::Stall(d) => {
            w.put_u8(2);
            w.put_duration(*d);
        }
    }
}

pub(crate) fn get_job(r: &mut SnapshotReader<'_>) -> Result<CoreJob, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => CoreJob::Irq(get_request(r)?),
        1 => CoreJob::Work(get_request(r)?),
        2 => CoreJob::Stall(r.get_duration()?),
        _ => return Err(SnapshotError::Malformed("unknown core-job tag")),
    })
}

fn put_event(w: &mut SnapshotWriter, event: &Event) {
    match event {
        Event::SendFire { client, conn } => {
            w.put_u8(0);
            w.put_u32(*client);
            w.put_u32(*conn);
        }
        Event::ClientTxNic(req) => {
            w.put_u8(1);
            put_request(w, req);
        }
        Event::ServerNicArrive(req) => {
            w.put_u8(2);
            put_request(w, req);
        }
        Event::CoreEnqueue { core, job } => {
            w.put_u8(3);
            w.put_usize(*core);
            put_job(w, job);
        }
        Event::CoreJobDone { core, start, job } => {
            w.put_u8(4);
            w.put_usize(*core);
            w.put_time(*start);
            put_job(w, job);
        }
        Event::ClientNicArrive(req) => {
            w.put_u8(5);
            put_request(w, req);
        }
        Event::ClientRxUser(req) => {
            w.put_u8(6);
            put_request(w, req);
        }
        Event::Delivered(req) => {
            w.put_u8(7);
            put_request(w, req);
        }
        Event::GovernorTick => w.put_u8(8),
        Event::ThermalTick => w.put_u8(9),
        Event::RequestTimeout { client, id, attempt } => {
            w.put_u8(10);
            w.put_u32(*client);
            w.put_u64(id.0);
            w.put_u32(*attempt);
        }
        Event::RetryFire { client, id } => {
            w.put_u8(11);
            w.put_u32(*client);
            w.put_u64(id.0);
        }
        Event::HedgeFire { client, id } => {
            w.put_u8(12);
            w.put_u32(*client);
            w.put_u64(id.0);
        }
        Event::FaultStall => w.put_u8(13),
        Event::ServerCrash => w.put_u8(14),
        Event::ConnReset(req) => {
            w.put_u8(15);
            put_request(w, req);
        }
    }
}

fn get_event(r: &mut SnapshotReader<'_>) -> Result<Event, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => Event::SendFire {
            client: r.get_u32()?,
            conn: r.get_u32()?,
        },
        1 => Event::ClientTxNic(get_request(r)?),
        2 => Event::ServerNicArrive(get_request(r)?),
        3 => Event::CoreEnqueue {
            core: r.get_usize()?,
            job: get_job(r)?,
        },
        4 => Event::CoreJobDone {
            core: r.get_usize()?,
            start: r.get_time()?,
            job: get_job(r)?,
        },
        5 => Event::ClientNicArrive(get_request(r)?),
        6 => Event::ClientRxUser(get_request(r)?),
        7 => Event::Delivered(get_request(r)?),
        8 => Event::GovernorTick,
        9 => Event::ThermalTick,
        10 => Event::RequestTimeout {
            client: r.get_u32()?,
            id: RequestId(r.get_u64()?),
            attempt: r.get_u32()?,
        },
        11 => Event::RetryFire {
            client: r.get_u32()?,
            id: RequestId(r.get_u64()?),
        },
        12 => Event::HedgeFire {
            client: r.get_u32()?,
            id: RequestId(r.get_u64()?),
        },
        13 => Event::FaultStall,
        14 => Event::ServerCrash,
        15 => Event::ConnReset(get_request(r)?),
        _ => return Err(SnapshotError::Malformed("unknown event tag")),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{ClientSpec, ServerSpec};
    use crate::source::{InterArrival, OpenLoopSource};
    use crate::world::{extract_result, ClusterBuilder, RunResult};
    use crate::{FaultSpec, RetryPolicy};
    use std::sync::Arc;
    use treadmill_sim_core::snapshot;
    use treadmill_sim_core::SimDuration;
    use treadmill_workloads::Memcached;

    /// The whole engine in one sealed envelope: one chunk of every
    /// record, then the state.
    pub(crate) fn snapshot(engine: &Engine<ClusterWorld>) -> Vec<u8> {
        let mut records = Vec::new();
        write_chunk(engine, &mut Vec::new(), &mut records).expect("writing to memory");
        let mut w = SnapshotWriter::new();
        w.put_raw(&records);
        write_state(engine, &mut w);
        w.into_sealed()
    }

    /// Restores a [`snapshot`] onto a freshly built engine for the same
    /// configuration.
    pub(crate) fn restore(
        engine: &mut Engine<ClusterWorld>,
        bytes: &[u8],
    ) -> Result<(), SnapshotError> {
        let mut payload = snapshot::open(bytes)?;
        read_chunk(engine, &mut payload)?;
        let mut r = SnapshotReader::new(payload);
        read_state(engine, &mut r)?;
        r.finish()
    }

    /// A configuration exercising every stateful subsystem: two clients
    /// (one cross-rack), faults on every channel, retries and hedging.
    fn builder(faulty: bool) -> ClusterBuilder {
        let mut b = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(77)
            .client(
                ClientSpec::default(),
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential { rate_rps: 120_000.0 },
                    16,
                )),
            )
            .client(
                ClientSpec {
                    rack: 1,
                    ..Default::default()
                },
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential { rate_rps: 120_000.0 },
                    16,
                )),
            )
            .duration(SimDuration::from_millis(40))
            .sample_outstanding(true)
            .trace_frequencies(true);
        if faulty {
            b = b
                .faults(FaultSpec {
                    uplink_loss: 0.002,
                    downlink_loss: 0.002,
                    stall_rate_hz: 2_000.0,
                    stall_us: 150.0,
                    crash_rate_hz: 100.0,
                    crash_downtime_us: 400.0,
                    ..FaultSpec::default()
                })
                .retry_policy(RetryPolicy {
                    timeout_us: 2_000.0,
                    max_retries: 2,
                    hedge_after_us: 1_200.0,
                    ..RetryPolicy::default()
                });
        }
        b
    }

    fn assert_identical(a: &RunResult, b: &RunResult) {
        assert_eq!(a.events_executed, b.events_executed);
        assert_eq!(a.completed_at, b.completed_at);
        assert_eq!(a.client_records, b.client_records);
        assert_eq!(a.client_failures, b.client_failures);
        assert_eq!(a.fault_summary, b.fault_summary);
        assert_eq!(a.outstanding, b.outstanding);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.frequency_trace, b.frequency_trace);
        assert_eq!(a.final_heat.to_bits(), b.final_heat.to_bits());
        assert_eq!(
            a.server_utilization.to_bits(),
            b.server_utilization.to_bits()
        );
    }

    fn kill_and_resume_matches(faulty: bool, cut_events: u64) {
        let golden = builder(faulty).run();

        // "Crash" a run after cut_events by abandoning the engine, then
        // resume from its snapshot on a freshly built engine.
        let bytes = {
            let mut victim = builder(faulty).build();
            victim.run_events(cut_events);
            snapshot(&victim)
        };
        let mut resumed = builder(faulty).build();
        restore(&mut resumed, &bytes).expect("snapshot restores");
        resumed.run_to_completion();
        let result = extract_result(resumed);

        assert!(result.audit_findings.is_empty(), "{:?}", result.audit_findings);
        assert_identical(&golden, &result);
    }

    #[test]
    fn resume_from_mid_run_is_bit_identical() {
        kill_and_resume_matches(false, 30_000);
    }

    #[test]
    fn resume_with_faults_and_retries_is_bit_identical() {
        kill_and_resume_matches(true, 25_000);
    }

    #[test]
    fn resume_from_event_zero_and_near_drain() {
        kill_and_resume_matches(false, 0);
        kill_and_resume_matches(false, u64::MAX / 2);
    }

    /// A 4-ary heap layout of `keys` (as indices into it), built by
    /// inserting them in schedule order: how checkpoints written before
    /// the calendar queue listed pending events.
    fn heap_order(keys: &[u128]) -> Vec<usize> {
        let mut by_seq: Vec<usize> = (0..keys.len()).collect();
        by_seq.sort_by_key(|&i| keys[i] as u64 & ((1 << 48) - 1));
        let mut heap: Vec<usize> = Vec::new();
        for i in by_seq {
            heap.push(i);
            let mut at = heap.len() - 1;
            while at > 0 && keys[heap[(at - 1) / 4]] > keys[heap[at]] {
                heap.swap(at, (at - 1) / 4);
                at = (at - 1) / 4;
            }
        }
        heap
    }

    #[test]
    fn a_queue_section_in_heap_order_resumes_bit_identically() {
        // Version-5 checkpoints from before the calendar queue hold the
        // pending events in heap slot order rather than sorted: re-seal
        // a state with its queue section permuted that way, and resume.
        let golden = builder(true).run();
        let mut victim = builder(true).build();
        victim.run_events(25_000);
        let (entries, next_seq) = victim.queue().snapshot_slots();
        let keys: Vec<u128> = entries.iter().map(|&(key, _)| key).collect();
        let section = |order: &[usize]| {
            let mut w = SnapshotWriter::new();
            w.put_u64(next_seq);
            w.put_u64(order.len() as u64);
            for &i in order {
                w.put_u128(keys[i]);
            }
            for &i in order {
                put_event(&mut w, entries[i].1);
            }
            snapshot::open(&w.into_sealed()).expect("sealed").to_vec()
        };
        let sorted = section(&(0..keys.len()).collect::<Vec<_>>());
        let order = heap_order(&keys);
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "the heap layout is not sorted"
        );

        let mut state = SnapshotWriter::new();
        write_state(&victim, &mut state);
        let mut state = snapshot::open(&state.into_sealed()).expect("sealed").to_vec();
        let at = state
            .windows(sorted.len())
            .position(|bytes| bytes == sorted.as_slice())
            .expect("the queue section is written in ascending key order");
        state[at..at + sorted.len()].copy_from_slice(&section(&order));

        let mut records = Vec::new();
        write_chunk(&victim, &mut Vec::new(), &mut records).expect("writing to memory");
        let mut w = SnapshotWriter::new();
        w.put_raw(&records);
        w.put_raw(&state);
        let mut resumed = builder(true).build();
        restore(&mut resumed, &w.into_sealed()).expect("a heap-ordered section restores");
        resumed.run_to_completion();
        assert_identical(&golden, &extract_result(resumed));
    }

    #[test]
    fn double_checkpoint_round_trip() {
        // checkpoint → resume → checkpoint again later → resume: state
        // must survive arbitrarily many generations.
        let golden = builder(true).run();
        let first = {
            let mut engine = builder(true).build();
            engine.run_events(10_000);
            snapshot(&engine)
        };
        let second = {
            let mut engine = builder(true).build();
            restore(&mut engine, &first).expect("first restore");
            engine.run_events(15_000);
            snapshot(&engine)
        };
        let mut engine = builder(true).build();
        restore(&mut engine, &second).expect("second restore");
        engine.run_to_completion();
        assert_identical(&golden, &extract_result(engine));
    }

    #[test]
    fn chunks_past_cursors_restore_like_one_snapshot() {
        // Two chunks taken at different points carry each record once,
        // and restore the same engine a whole snapshot does. Losses
        // without retries, so failure records ride along.
        let lossy = || {
            builder(false)
                .faults(FaultSpec {
                    uplink_loss: 0.01,
                    ..FaultSpec::default()
                })
                .retry_policy(RetryPolicy {
                    timeout_us: 1_000.0,
                    ..RetryPolicy::default()
                })
        };
        let golden = lossy().run();
        let mut engine = lossy().build();
        let mut cursors = Vec::new();
        let mut segment = Vec::new();
        engine.run_events(12_000);
        write_chunk(&engine, &mut cursors, &mut segment).expect("first chunk");
        let first = segment.len();
        engine.run_events(60_000);
        write_chunk(&engine, &mut cursors, &mut segment).expect("second chunk");
        let records: usize = engine.world().clients.iter().map(|c| c.records.len()).sum();
        let failures: usize = engine
            .world()
            .clients
            .iter()
            .map(|c| c.failures.len())
            .sum();
        assert!(failures > 0, "the lossy run failed no request");
        assert_eq!(
            segment.len(),
            2 * (8 + 16 * 2) + records * RECORD_BYTES + failures * FAILURE_BYTES
        );
        let mut state = SnapshotWriter::new();
        write_state(&engine, &mut state);
        let state = state.into_sealed();
        let state = snapshot::open(&state).expect("sealed state");

        let mut resumed = lossy().build();
        let mut input = segment.as_slice();
        read_chunk(&mut resumed, &mut input).expect("first chunk");
        assert_eq!(segment.len() - input.len(), first);
        read_chunk(&mut resumed, &mut input).expect("second chunk");
        assert!(input.is_empty());
        let mut r = SnapshotReader::new(state);
        read_state(&mut resumed, &mut r).expect("state");
        r.finish().expect("whole state read");
        resumed.run_to_completion();
        assert_identical(&golden, &extract_result(resumed));

        // The state counts records: without the second chunk it does
        // not match what the clients hold.
        let mut short = lossy().build();
        read_chunk(&mut short, &mut &segment[..first]).expect("first chunk");
        assert!(matches!(
            read_state(&mut short, &mut SnapshotReader::new(state)),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn damaged_chunks_are_typed_errors() {
        let mut engine = builder(false).build();
        engine.run_events(5_000);
        let mut chunk = Vec::new();
        write_chunk(&engine, &mut Vec::new(), &mut chunk).expect("chunk");
        for cut in [0, 3, 8, 20, chunk.len() - 1] {
            let mut fresh = builder(false).build();
            assert_eq!(
                read_chunk(&mut fresh, &mut &chunk[..cut]),
                Err(SnapshotError::Truncated),
                "cut at {cut}"
            );
        }
        let mut bad_magic = chunk.clone();
        bad_magic[0] ^= 1;
        let mut wrong_clients = chunk.clone();
        wrong_clients[4] = 3;
        for bytes in [bad_magic, wrong_clients] {
            let mut fresh = builder(false).build();
            assert!(matches!(
                read_chunk(&mut fresh, &mut bytes.as_slice()),
                Err(SnapshotError::Malformed(_))
            ));
        }
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let mut engine = builder(false).build();
        engine.run_events(5_000);
        let mut bytes = snapshot(&engine);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let mut fresh = builder(false).build();
        assert!(matches!(
            restore(&mut fresh, &bytes),
            Err(SnapshotError::ChecksumMismatch)
        ));
    }

    #[test]
    fn each_structural_check_rejects_its_mismatch() {
        // The engine restored onto differs from the one the snapshot
        // was taken of in one respect; the check for it names it.
        let fewer_cores = ServerSpec {
            cores_per_socket: 4,
            ..ServerSpec::default()
        };
        let cases = [
            (true, builder(false), "fault-plan presence mismatch"),
            (
                false,
                builder(false).server_spec(fewer_cores),
                "core count mismatch",
            ),
            (
                false,
                builder(false).trace_frequencies(false),
                "frequency-trace presence mismatch",
            ),
        ];
        for (faulty, other, message) in cases {
            let mut engine = builder(faulty).build();
            engine.run_events(5_000);
            let bytes = snapshot(&engine);
            assert_eq!(
                restore(&mut other.build(), &bytes),
                Err(SnapshotError::Malformed(message))
            );
        }
    }

    #[test]
    fn structural_mismatch_is_rejected() {
        // A snapshot of a 2-client cluster must not restore onto a
        // 1-client engine.
        let mut engine = builder(false).build();
        engine.run_events(1_000);
        let bytes = snapshot(&engine);
        let mut other = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(77)
            .client(
                ClientSpec::default(),
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential { rate_rps: 120_000.0 },
                    16,
                )),
            )
            .duration(SimDuration::from_millis(40))
            .build();
        assert!(matches!(
            restore(&mut other, &bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
