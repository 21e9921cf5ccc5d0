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
//! * **state** — [`write_state`] serialises everything else: clock,
//!   event heap (verbatim slot order, so FIFO tie-breaks survive), every
//!   RNG stream position, client bookkeeping and in-flight requests,
//!   fault-plan cursors, link queues, core run queues, the thermal state,
//!   and each client's record and failure counts (the cursor the
//!   segment must reach). Its size follows what is pending, not how long
//!   the run has been going.
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
//! The decoder never trusts length fields blindly: element counts are
//! validated against the rebuilt world's structure (client count, core
//! count, link count, restored records), and the envelope's checksum
//! rejects torn or corrupted files before any field is read.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use treadmill_sim_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::{Engine, RateQueueState, SimDuration, SimTime, UtilizationState};
use treadmill_workloads::{OpClass, RequestProfile};

use crate::client::InFlight;
use crate::fault::FaultPlanState;
use crate::request::{Request, RequestId, ResponseRecord};
use crate::server::core::CoreJob;
use crate::server::FrequencyEvent;
use crate::world::{ClusterWorld, Event};
use crate::{FailureKind, FailureRecord};

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

    // World-level counters.
    w.put_u64(world.next_id);
    w.put_u32(world.outstanding);
    w.put_u64(world.outstanding_samples.len() as u64);
    for &(at, n) in &world.outstanding_samples {
        w.put_time(at);
        w.put_u32(n);
    }

    // Clients.
    w.put_u64(world.clients.len() as u64);
    for client in &world.clients {
        for word in client.rng.state() {
            w.put_u64(word);
        }
        put_rate_queue(w, client.cpu_state());
        w.put_u64(client.sent());
        w.put_usize(client.records.len());
        w.put_usize(client.failures.len());
        w.put_u64(client.in_flight.len() as u64);
        for (&id, entry) in &client.in_flight {
            w.put_u64(id.0);
            w.put_u32(entry.conn);
            put_profile(w, &entry.profile);
            w.put_time(entry.t_first);
            w.put_u32(entry.attempt);
            w.put_bool(entry.hedged);
        }
        w.put_u64(client.retries_sent);
        w.put_u64(client.hedges_sent);
        w.put_u64(client.timeouts);
        w.put_u64(client.resets);
        w.put_u64(client.source.checkpoint_word());
    }

    // Fault plan (mutable part only; windows regenerate from the seed).
    match &world.faults {
        Some(plan) => {
            w.put_bool(true);
            let state = plan.checkpoint_state();
            for word in state.rng {
                w.put_u64(word);
            }
            w.put_u64(state.crash_cursor);
            w.put_time(state.last_crash_at);
            w.put_u64(state.uplink_drops);
            w.put_u64(state.downlink_drops);
            w.put_u64(state.nic_drops);
            w.put_u64(state.crash_drops);
            w.put_u64(state.crashes);
            w.put_u64(state.stalls);
        }
        None => w.put_bool(false),
    }

    // Network link queues.
    let links = world.network.checkpoint_state();
    w.put_u64(links.len() as u64);
    for link in links {
        put_rate_queue(w, link);
    }

    // Server cores.
    w.put_u64(world.server.cores.len() as u64);
    for core in &world.server.cores {
        let jobs: Vec<&CoreJob> = core.queued_jobs().collect();
        w.put_u64(jobs.len() as u64);
        for job in jobs {
            put_job(w, job);
        }
        w.put_bool(core.is_busy());
        w.put_f64(core.freq_ghz());
        put_util(w, core.util.state());
        w.put_u64(core.jobs_done());
        w.put_u64(core.transitions());
    }

    // Server-level thermal / tick state.
    let (heat, prev_busy, last_thermal, trace) = world.server.checkpoint_state();
    w.put_f64(heat);
    w.put_u64(prev_busy.len() as u64);
    for &busy in prev_busy {
        w.put_duration(busy);
    }
    w.put_time(last_thermal);
    match trace {
        Some(events) => {
            w.put_bool(true);
            w.put_u64(events.len() as u64);
            for event in events {
                w.put_time(event.at);
                w.put_u8(event.core);
                w.put_f64(event.ghz);
            }
        }
        None => w.put_bool(false),
    }

    // Engine clock and event heap (raw slot order: restoring verbatim
    // preserves FIFO tie-breaks among simultaneous events).
    let (now, executed) = engine.clock_state();
    w.put_time(now);
    w.put_u64(executed);
    let (keys, events, next_seq) = engine.queue().snapshot_slots();
    w.put_u64(next_seq);
    w.put_u64(keys.len() as u64);
    for &key in keys {
        w.put_u128(key);
    }
    for event in events {
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

/// Decodes a state written by [`write_state`] from `r` and applies it
/// to `engine`, whose clients must already hold the records the state
/// counts (restored through [`read_chunk`]). Fields are decoded and
/// structurally validated in full before any engine state is
/// overwritten; on `Err` the engine may nevertheless be partially stale
/// and must be discarded.
///
/// # Errors
///
/// Returns a [`SnapshotError`] if the state disagrees structurally with
/// the rebuilt engine (wrong client/core/link count, unknown tag) or a
/// client's record counts differ from the records it holds.
pub fn read_state(
    engine: &mut Engine<ClusterWorld>,
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    let next_id = r.get_u64()?;
    let outstanding = r.get_u32()?;
    let n_samples = r.get_u64()?;
    let mut outstanding_samples = Vec::with_capacity(checked_len(n_samples)?);
    for _ in 0..n_samples {
        let at = r.get_time()?;
        let n = r.get_u32()?;
        outstanding_samples.push((at, n));
    }

    let n_clients = r.get_u64()?;
    if n_clients != engine.world().clients.len() as u64 {
        return Err(SnapshotError::Malformed("client count mismatch"));
    }
    struct ClientState {
        rng: [u64; 4],
        cpu: RateQueueState,
        sent: u64,
        in_flight: Vec<(RequestId, InFlight)>,
        retries_sent: u64,
        hedges_sent: u64,
        timeouts: u64,
        resets: u64,
        source_word: u64,
    }
    let mut clients = Vec::with_capacity(checked_len(n_clients)?);
    for machine in &engine.world().clients {
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.get_u64()?;
        }
        let cpu = get_rate_queue(r)?;
        let sent = r.get_u64()?;
        let cursor = RecordCursor {
            records: r.get_usize()?,
            failures: r.get_usize()?,
        };
        let restored = RecordCursor {
            records: machine.records.len(),
            failures: machine.failures.len(),
        };
        if cursor != restored {
            return Err(SnapshotError::Malformed(
                "record counts disagree with the restored records",
            ));
        }
        let n_in_flight = r.get_u64()?;
        let mut in_flight = Vec::with_capacity(checked_len(n_in_flight)?);
        for _ in 0..n_in_flight {
            let id = RequestId(r.get_u64()?);
            let conn = r.get_u32()?;
            let profile = get_profile(r)?;
            let t_first = r.get_time()?;
            let attempt = r.get_u32()?;
            let hedged = r.get_bool()?;
            in_flight.push((
                id,
                InFlight {
                    conn,
                    profile,
                    t_first,
                    attempt,
                    hedged,
                },
            ));
        }
        clients.push(ClientState {
            rng,
            cpu,
            sent,
            in_flight,
            retries_sent: r.get_u64()?,
            hedges_sent: r.get_u64()?,
            timeouts: r.get_u64()?,
            resets: r.get_u64()?,
            source_word: r.get_u64()?,
        });
    }

    let faults_present = r.get_bool()?;
    if faults_present != engine.world().faults.is_some() {
        return Err(SnapshotError::Malformed("fault-plan presence mismatch"));
    }
    let fault_state = if faults_present {
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.get_u64()?;
        }
        Some(FaultPlanState {
            rng,
            crash_cursor: r.get_u64()?,
            last_crash_at: r.get_time()?,
            uplink_drops: r.get_u64()?,
            downlink_drops: r.get_u64()?,
            nic_drops: r.get_u64()?,
            crash_drops: r.get_u64()?,
            crashes: r.get_u64()?,
            stalls: r.get_u64()?,
        })
    } else {
        None
    };

    let n_links = r.get_u64()?;
    if n_links != 2 * n_clients + 2 {
        return Err(SnapshotError::Malformed("link count mismatch"));
    }
    let mut links = Vec::with_capacity(checked_len(n_links)?);
    for _ in 0..n_links {
        links.push(get_rate_queue(r)?);
    }

    let n_cores = r.get_u64()?;
    if n_cores != engine.world().server.cores.len() as u64 {
        return Err(SnapshotError::Malformed("core count mismatch"));
    }
    struct CoreState {
        queue: VecDeque<CoreJob>,
        busy: bool,
        freq_ghz: f64,
        util: UtilizationState,
        jobs_done: u64,
        transitions: u64,
    }
    let mut cores = Vec::with_capacity(checked_len(n_cores)?);
    for _ in 0..n_cores {
        let n_jobs = r.get_u64()?;
        let mut queue = VecDeque::with_capacity(checked_len(n_jobs)?);
        for _ in 0..n_jobs {
            queue.push_back(get_job(r)?);
        }
        cores.push(CoreState {
            queue,
            busy: r.get_bool()?,
            freq_ghz: r.get_f64()?,
            util: get_util(r)?,
            jobs_done: r.get_u64()?,
            transitions: r.get_u64()?,
        });
    }

    let heat = r.get_f64()?;
    let n_busy = r.get_u64()?;
    if n_busy != n_cores {
        return Err(SnapshotError::Malformed("busy-baseline count mismatch"));
    }
    let mut prev_busy = Vec::with_capacity(checked_len(n_busy)?);
    for _ in 0..n_busy {
        prev_busy.push(r.get_duration()?);
    }
    let last_thermal = r.get_time()?;
    let trace_present = r.get_bool()?;
    if trace_present != engine.world().server.frequency_trace().is_some() {
        return Err(SnapshotError::Malformed("frequency-trace presence mismatch"));
    }
    let freq_trace = if trace_present {
        let n_events = r.get_u64()?;
        let mut events = Vec::with_capacity(checked_len(n_events)?);
        for _ in 0..n_events {
            events.push(FrequencyEvent {
                at: r.get_time()?,
                core: r.get_u8()?,
                ghz: r.get_f64()?,
            });
        }
        Some(events)
    } else {
        None
    };

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

    let shard_sent = r.get_u64()?;
    let shard_received = r.get_u64()?;

    // All fields decoded and validated — now overwrite the engine.
    {
        let world = engine.world_mut();
        world.next_id = next_id;
        world.outstanding = outstanding;
        world.outstanding_samples = outstanding_samples;
        for (machine, state) in world.clients.iter_mut().zip(clients) {
            machine.rng = rand::rngs::SmallRng::from_state(state.rng);
            machine.restore_cpu_state(state.cpu, state.sent);
            machine.in_flight = state.in_flight.into_iter().collect();
            machine.retries_sent = state.retries_sent;
            machine.hedges_sent = state.hedges_sent;
            machine.timeouts = state.timeouts;
            machine.resets = state.resets;
            machine.source.restore_checkpoint_word(state.source_word);
        }
        if let (Some(plan), Some(state)) = (&mut world.faults, fault_state) {
            plan.restore_checkpoint_state(&state);
        }
        world.network.restore_checkpoint_state(&links);
        for (core, state) in world.server.cores.iter_mut().zip(cores) {
            core.restore_runtime_state(
                state.queue,
                state.busy,
                state.freq_ghz,
                state.jobs_done,
                state.transitions,
            );
            core.util.restore_state(state.util);
        }
        world
            .server
            .restore_checkpoint_state(heat, prev_busy, last_thermal, freq_trace);
        world.shard.sent = shard_sent;
        world.shard.received = shard_received;
        world.shard.outbox.clear();
    }
    engine.restore_clock_state(now, executed);
    engine.queue_mut().restore_slots(keys, events, next_seq);
    Ok(())
}

// The snapshot framing uses u64 lengths; reject anything that cannot be
// a length on this platform before reserving memory for it.
fn checked_len(n: u64) -> Result<usize, SnapshotError> {
    usize::try_from(n).map_err(|_| SnapshotError::Malformed("length overflows usize"))
}

fn put_rate_queue(w: &mut SnapshotWriter, state: RateQueueState) {
    w.put_time(state.free_at);
    w.put_duration(state.busy);
    w.put_u64(state.jobs);
    w.put_duration(state.total_queueing);
    w.put_time(state.last_arrival);
}

fn get_rate_queue(r: &mut SnapshotReader<'_>) -> Result<RateQueueState, SnapshotError> {
    Ok(RateQueueState {
        free_at: r.get_time()?,
        busy: r.get_duration()?,
        jobs: r.get_u64()?,
        total_queueing: r.get_duration()?,
        last_arrival: r.get_time()?,
    })
}

fn put_util(w: &mut SnapshotWriter, state: UtilizationState) {
    w.put_duration(state.busy_total);
    w.put_time(state.window_start);
    w.put_duration(state.window_busy);
}

fn get_util(r: &mut SnapshotReader<'_>) -> Result<UtilizationState, SnapshotError> {
    Ok(UtilizationState {
        busy_total: r.get_duration()?,
        window_start: r.get_time()?,
        window_busy: r.get_duration()?,
    })
}

fn put_profile(w: &mut SnapshotWriter, profile: &RequestProfile) {
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

fn get_profile(r: &mut SnapshotReader<'_>) -> Result<RequestProfile, SnapshotError> {
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

fn put_job(w: &mut SnapshotWriter, job: &CoreJob) {
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

fn get_job(r: &mut SnapshotReader<'_>) -> Result<CoreJob, SnapshotError> {
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
    use crate::config::ClientSpec;
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
