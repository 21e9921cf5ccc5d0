//! Conservative parallel execution of sharded cluster worlds.
//!
//! A [`ShardedCluster`] owns `n` complete [`ClusterWorld`]s — one
//! server each, with its own clients, links and event heap — and
//! advances them on scoped worker threads. Synchronization is
//! *conservative* (Chandy–Misra style with a global window): the
//! inter-shard propagation delay is the lookahead `L`, so with `T` the
//! earliest pending event across all shards, every shard can safely
//! execute events strictly before `H = T + L` — any message generated
//! at `t ≥ T` arrives at `t + L ≥ H` and cannot affect the window.
//!
//! Determinism is the headline guarantee: a seeded run is bit-identical
//! at any thread count, because
//!
//! - the round boundaries (`T`, `H`) are pure functions of global event
//!   times, never of thread scheduling;
//! - each shard's heap is mutated only by its owner within a round;
//! - cross-shard messages are drained and injected by a single
//!   coordinator in the canonical `(arrival, source shard, emission
//!   order)` order, landing in per-source heap lanes (see
//!   [`treadmill_sim_core::EventQueue::schedule_in_lane`]) so
//!   same-instant ties break identically everywhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use treadmill_sim_core::{Engine, SimDuration, SimTime};

use crate::fault::FaultSummary;
use crate::world::{ClusterWorld, RunResult};

/// Propagation delay between shards — the conservative lookahead. It
/// exceeds the worst intra-shard propagation (cross-rack 23 µs) so
/// cross-shard hops are never optimistically fast.
pub const INTER_SHARD_PROPAGATION: SimDuration = SimDuration::from_micros(25);

/// Horizon sentinel: the run is finished or the event budget is spent.
const DONE: u64 = u64::MAX;

fn lock(shard: &Mutex<Engine<ClusterWorld>>) -> MutexGuard<'_, Engine<ClusterWorld>> {
    // Worlds are lock-private to one thread per round; a poisoned lock
    // can only mean a panicking sibling, and the panic itself already
    // aborts the run.
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A partitioned cluster advancing `n` single-server worlds in
/// parallel under conservative time synchronization.
#[derive(Debug)]
pub struct ShardedCluster {
    shards: Vec<Mutex<Engine<ClusterWorld>>>,
    threads: usize,
    lookahead: SimDuration,
    /// False when no connection can cross shards — the shards are then
    /// independent simulations and run without windowing.
    windowed: bool,
    rounds: u64,
    injected: u64,
}

impl ShardedCluster {
    /// Wraps pre-built shard engines for parallel execution on
    /// `threads` workers (clamped to `[1, n_shards]`).
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or a world's shard context
    /// `(index, n_shards)` disagrees with its position.
    pub fn new(engines: Vec<Engine<ClusterWorld>>, threads: usize) -> Self {
        assert!(!engines.is_empty(), "sharded cluster needs at least one shard");
        assert!(engines.len() < usize::from(u16::MAX), "shard count exceeds heap lane space");
        let mut windowed = false;
        for (i, engine) in engines.iter().enumerate() {
            let ctx = &engine.world().shard;
            assert_eq!(ctx.index as usize, i, "shard context index mismatch");
            assert_eq!(ctx.n_shards as usize, engines.len(), "shard count mismatch");
            if ctx.n_shards > 1 && ctx.remote_every > 0 {
                windowed = true;
            }
        }
        let n = engines.len();
        ShardedCluster {
            shards: engines.into_iter().map(Mutex::new).collect(),
            threads: threads.clamp(1, n),
            lookahead: INTER_SHARD_PROPAGATION,
            windowed,
            rounds: 0,
            injected: 0,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads used per call.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Synchronization rounds executed so far (windowed mode only).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cross-shard messages injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Exclusive access to one shard's engine (restores, fault
    /// injection in tests).
    pub fn engine_mut(&mut self, shard: usize) -> &mut Engine<ClusterWorld> {
        self.shards[shard].get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shared access to one shard's engine (checkpointing, audits).
    /// No worker thread runs outside [`ShardedCluster::run`], so the
    /// lock is always uncontended here.
    pub fn engine(&self, shard: usize) -> MutexGuard<'_, Engine<ClusterWorld>> {
        lock(&self.shards[shard])
    }

    /// Total events executed across all shards.
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).events_executed()).sum()
    }

    /// True when every shard's heap is drained and no cross-shard
    /// message is awaiting injection.
    pub fn is_finished(&self) -> bool {
        self.shards.iter().all(|s| {
            let engine = lock(s);
            engine.pending_events() == 0 && engine.world().shard.outbox.is_empty()
        })
    }

    /// Advances the cluster by roughly `budget` events (the windowed
    /// protocol stops at the first round boundary past the budget, so
    /// outboxes are always drained when this returns). Returns the
    /// number of events executed by this call.
    pub fn run(&mut self, budget: u64) -> u64 {
        if self.windowed {
            self.run_windowed(budget)
        } else {
            self.run_independent(budget)
        }
    }

    /// Runs every shard to completion.
    pub fn run_to_completion(&mut self) {
        self.run(u64::MAX);
        debug_assert!(self.is_finished(), "run(u64::MAX) must drain the cluster");
    }

    /// Consumes the cluster, extracting one [`RunResult`] per shard in
    /// shard order.
    pub fn into_results(self) -> Vec<RunResult> {
        self.shards
            .into_iter()
            .map(|m| {
                let engine = m.into_inner().unwrap_or_else(PoisonError::into_inner);
                crate::world::extract_result(engine)
            })
            .collect()
    }

    /// No cross-shard traffic is possible: the shards are independent
    /// simulations, each executed with an equal slice of the budget.
    fn run_independent(&mut self, budget: u64) -> u64 {
        let n = self.shards.len();
        let threads = self.threads;
        let per_shard = (budget / n as u64).saturating_add(1).min(budget);
        let executed = AtomicU64::new(0);
        let shards = &self.shards;
        let worker = |w: usize| {
            for i in (w..n).step_by(threads) {
                let mut engine = lock(&shards[i]);
                let c = engine.run_events(per_shard);
                executed.fetch_add(c, Ordering::Relaxed);
            }
        };
        let worker = &worker;
        std::thread::scope(|s| {
            for w in 1..threads {
                s.spawn(move || worker(w));
            }
            worker(0);
        });
        executed.into_inner()
    }

    /// The conservative global-window protocol. Per round, worker 0
    /// (the coordinator) drains every outbox, injects the messages in
    /// canonical order, and publishes the next horizon `H = T + L`;
    /// then all workers execute their shards' events strictly before
    /// `H` in parallel. Two barriers per round keep the phases honest.
    fn run_windowed(&mut self, budget: u64) -> u64 {
        let n = self.shards.len();
        let threads = self.threads;
        let lookahead = self.lookahead;
        let shards = &self.shards;
        let barrier = Barrier::new(threads);
        let horizon = AtomicU64::new(0);
        let executed = AtomicU64::new(0);
        let injected = AtomicU64::new(0);
        let rounds = AtomicU64::new(0);
        let barrier = &barrier;
        let horizon = &horizon;
        let executed_ref = &executed;
        let injected_ref = &injected;
        let rounds_ref = &rounds;
        let worker = move |w: usize| loop {
            if w == 0 {
                let h = coordinate(shards, lookahead, budget, executed_ref, injected_ref, rounds_ref);
                horizon.store(h, Ordering::SeqCst);
            }
            barrier.wait();
            let h = horizon.load(Ordering::SeqCst);
            if h == DONE {
                break;
            }
            // `run_until` is inclusive; the window is events < H.
            let window_end = SimTime::from_nanos(h - 1);
            for i in (w..n).step_by(threads) {
                let mut engine = lock(&shards[i]);
                let c = engine.run_until(window_end);
                executed_ref.fetch_add(c, Ordering::Relaxed);
            }
            barrier.wait();
        };
        let worker = &worker;
        std::thread::scope(|s| {
            for w in 1..threads {
                s.spawn(move || worker(w));
            }
            worker(0);
        });
        self.rounds += rounds.into_inner();
        self.injected += injected.into_inner();
        executed.into_inner()
    }
}

/// One coordination step: drain outboxes, inject in canonical order,
/// and compute the next horizon (or [`DONE`]). Runs single-threaded
/// between the barriers, so every lock below is uncontended.
fn coordinate(
    shards: &[Mutex<Engine<ClusterWorld>>],
    lookahead: SimDuration,
    budget: u64,
    executed: &AtomicU64,
    injected: &AtomicU64,
    rounds: &AtomicU64,
) -> u64 {
    // Canonical message order: arrival instant, then source shard,
    // then emission order within the source. Everything is already
    // deterministic per shard; the sort only serializes across shards.
    let mut pending: Vec<(u64, u32, u64, u32, crate::world::ShardMsg)> = Vec::new();
    for (src, shard) in shards.iter().enumerate() {
        let mut engine = lock(shard);
        for (pos, (at, dst, msg)) in engine.world_mut().shard.outbox.drain(..).enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let src_id = src as u32;
            pending.push((at.as_nanos(), src_id, pos as u64, dst, msg));
        }
    }
    pending.sort_by_key(|e| (e.0, e.1, e.2));
    for (at, src, _pos, dst, msg) in pending {
        let mut engine = lock(&shards[dst as usize]);
        // Lane = source shard + 1: same-instant injections from
        // different sources order by source id, and all sort after
        // lane-0 events the destination scheduled for itself.
        #[allow(clippy::cast_possible_truncation)]
        let lane = (src + 1) as u16;
        engine.schedule_in_lane(SimTime::from_nanos(at), lane, msg.into_event());
        engine.world_mut().shard.received += 1;
        injected.fetch_add(1, Ordering::Relaxed);
    }
    // The budget check sits after injection so a paused cluster always
    // has empty outboxes — checkpoints only see round boundaries.
    if executed.load(Ordering::Relaxed) >= budget {
        return DONE;
    }
    let mut earliest: Option<u64> = None;
    for shard in shards {
        let engine = lock(shard);
        if let Some(at) = engine.queue().peek_time() {
            let t = at.as_nanos();
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        }
    }
    match earliest {
        Some(t) => {
            rounds.fetch_add(1, Ordering::Relaxed);
            t.saturating_add(lookahead.as_nanos()).min(DONE - 1)
        }
        None => DONE,
    }
}

/// Merges per-shard [`RunResult`]s into one cluster-wide result, in
/// shard order — the deterministic reduction the measurement pipeline
/// consumes. Per-client vectors concatenate shard-major; counters sum;
/// utilisation-style gauges average over shards with a fixed
/// left-to-right fold.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn merge_results(mut results: Vec<RunResult>) -> RunResult {
    assert!(!results.is_empty(), "merge_results needs at least one shard result");
    let n = results.len();
    let mut merged = results.remove(0);
    if n == 1 {
        return merged;
    }
    let mut util_sum = merged.server_utilization;
    let mut heat_sum = merged.final_heat;
    let mut remote_sum = merged.run_remote_fraction;
    merged.audit_findings = merged
        .audit_findings
        .drain(..)
        .map(|f| format!("shard 0: {f}"))
        .collect();
    for (i, r) in results.into_iter().enumerate() {
        let shard = i + 1;
        merged.client_records.extend(r.client_records);
        merged.client_failures.extend(r.client_failures);
        merged.client_cpu_utilization.extend(r.client_cpu_utilization);
        merged.per_core.extend(r.per_core);
        merged.frequency_trace.extend(r.frequency_trace);
        merged.outstanding.extend(r.outstanding);
        merged.delivered_in_window += r.delivered_in_window;
        merged.events_executed += r.events_executed;
        merged.frequency_transitions += r.frequency_transitions;
        add_fault_summaries(&mut merged.fault_summary, &r.fault_summary);
        merged.sending_stopped_at = merged.sending_stopped_at.max(r.sending_stopped_at);
        merged.completed_at = merged.completed_at.max(r.completed_at);
        util_sum += r.server_utilization;
        heat_sum += r.final_heat;
        remote_sum += r.run_remote_fraction;
        merged
            .audit_findings
            .extend(r.audit_findings.into_iter().map(|f| format!("shard {shard}: {f}")));
    }
    // Stable sort: same-instant samples keep shard order.
    merged.outstanding.sort_by_key(|&(t, _)| t);
    let count = n as f64;
    merged.server_utilization = util_sum / count;
    merged.final_heat = heat_sum / count;
    merged.run_remote_fraction = remote_sum / count;
    merged
}

fn add_fault_summaries(into: &mut FaultSummary, from: &FaultSummary) {
    into.uplink_drops += from.uplink_drops;
    into.downlink_drops += from.downlink_drops;
    into.nic_drops += from.nic_drops;
    into.crash_drops += from.crash_drops;
    into.crashes += from.crashes;
    into.stalls += from.stalls;
    into.retries += from.retries;
    into.hedges += from.hedges;
    into.timeouts += from.timeouts;
    into.resets += from.resets;
    into.failed_requests += from.failed_requests;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientSpec;
    use crate::source::{InterArrival, OpenLoopSource};
    use crate::world::ClusterBuilder;
    use std::sync::Arc;
    use treadmill_sim_core::{SeedStream, SimDuration};
    use treadmill_workloads::Memcached;

    fn shard_engines(n: u32, remote_every: u32, seed: u64) -> Vec<Engine<ClusterWorld>> {
        (0..n)
            .map(|i| {
                // Shard 0 keeps the run seed so a 1-shard cluster is
                // bit-identical to a bare world built with that seed.
                let shard_seed = if i == 0 {
                    seed
                } else {
                    SeedStream::new(seed).derive("shard", u64::from(i))
                };
                ClusterBuilder::new(Arc::new(Memcached::default()))
                    .seed(shard_seed)
                    .client(
                        ClientSpec::default(),
                        Box::new(OpenLoopSource::new(
                            InterArrival::Exponential { rate_rps: 150_000.0 },
                            16,
                        )),
                    )
                    .duration(SimDuration::from_millis(25))
                    .shard(i, n, remote_every)
                    .build()
            })
            .collect()
    }

    fn run_merged(n: u32, remote_every: u32, seed: u64, threads: usize) -> (RunResult, u64) {
        let mut cluster = ShardedCluster::new(shard_engines(n, remote_every, seed), threads);
        cluster.run_to_completion();
        let injected = cluster.injected();
        (merge_results(cluster.into_results()), injected)
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (base, injected) = run_merged(3, 4, 99, 1);
        assert!(injected > 0, "no cross-shard traffic flowed");
        for threads in [2usize, 8] {
            let (r, inj) = run_merged(3, 4, 99, threads);
            assert_eq!(inj, injected);
            assert_eq!(r.events_executed, base.events_executed);
            assert_eq!(r.total_responses(), base.total_responses());
            assert_eq!(
                r.user_latencies_us(SimTime::ZERO),
                base.user_latencies_us(SimTime::ZERO),
                "latency stream differs at {threads} threads"
            );
        }
    }

    #[test]
    fn single_shard_matches_a_bare_world() {
        let bare = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(7)
            .client(
                ClientSpec::default(),
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential { rate_rps: 150_000.0 },
                    16,
                )),
            )
            .duration(SimDuration::from_millis(25))
            .run();
        let (sharded, injected) = run_merged(1, 8, 7, 1);
        assert_eq!(injected, 0, "one shard can never cross");
        assert_eq!(sharded.events_executed, bare.events_executed);
        assert_eq!(
            sharded.user_latencies_us(SimTime::ZERO),
            bare.user_latencies_us(SimTime::ZERO)
        );
    }

    #[test]
    fn stepped_run_matches_one_shot() {
        let (oneshot, _) = run_merged(2, 4, 11, 2);
        let mut cluster = ShardedCluster::new(shard_engines(2, 4, 11), 2);
        while !cluster.is_finished() {
            cluster.run(3_000);
        }
        let stepped = merge_results(cluster.into_results());
        assert_eq!(stepped.events_executed, oneshot.events_executed);
        assert_eq!(
            stepped.user_latencies_us(SimTime::ZERO),
            oneshot.user_latencies_us(SimTime::ZERO)
        );
    }

    #[test]
    fn remote_latency_reflects_inter_shard_hops() {
        // Remote connections pay 2 × 25 µs propagation instead of the
        // same-rack 2 × 5 µs: the remote population's floor is visibly
        // higher. conn % 4 == 0 designates the remote connections.
        let (r, injected) = run_merged(2, 4, 5, 1);
        assert!(injected > 0);
        let (mut remote, mut local) = (Vec::new(), Vec::new());
        for rec in r.all_records() {
            if rec.conn % 4 == 0 {
                remote.push(rec.user_latency_us());
            } else {
                local.push(rec.user_latency_us());
            }
        }
        assert!(!remote.is_empty() && !local.is_empty());
        let min_remote = remote.iter().cloned().fold(f64::INFINITY, f64::min);
        let min_local = local.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            min_remote > min_local + 30.0,
            "remote floor {min_remote}µs vs local floor {min_local}µs"
        );
    }

    #[test]
    fn audit_sharded_passes_on_healthy_cluster() {
        let mut cluster = ShardedCluster::new(shard_engines(3, 4, 17), 2);
        cluster.run(10_000);
        let findings = crate::audit::audit_sharded(&cluster, usize::MAX);
        assert_eq!(findings, Vec::<String>::new());
        cluster.run_to_completion();
        let findings = crate::audit::audit_sharded(&cluster, usize::MAX);
        assert_eq!(findings, Vec::<String>::new());
    }

    #[test]
    fn audit_sharded_catches_conservation_skew() {
        let mut cluster = ShardedCluster::new(shard_engines(2, 4, 17), 1);
        cluster.run(5_000);
        cluster.engine_mut(0).world_mut().shard.sent += 1;
        let findings = crate::audit::audit_sharded(&cluster, usize::MAX);
        assert!(
            findings.iter().any(|f| f.contains("cross-shard conservation")),
            "{findings:?}"
        );
    }

    #[test]
    fn checkpoint_mid_run_resumes_bit_identically() {
        // Run a windowed cluster partway, snapshot every shard at the
        // round boundary, restore onto fresh engines, and finish both:
        // the resumed cluster must match the uninterrupted one exactly.
        let mut reference = ShardedCluster::new(shard_engines(2, 4, 23), 2);
        reference.run_to_completion();
        let reference = merge_results(reference.into_results());

        let mut original = ShardedCluster::new(shard_engines(2, 4, 23), 2);
        original.run(8_000);
        let blobs: Vec<Vec<u8>> = (0..original.n_shards())
            .map(|i| crate::checkpoint::tests::snapshot(original.engine_mut(i)))
            .collect();
        let mut resumed_engines = shard_engines(2, 4, 23);
        for (engine, blob) in resumed_engines.iter_mut().zip(&blobs) {
            crate::checkpoint::tests::restore(engine, blob).unwrap();
        }
        let mut resumed = ShardedCluster::new(resumed_engines, 1);
        resumed.run_to_completion();
        let resumed = merge_results(resumed.into_results());
        assert_eq!(resumed.events_executed, reference.events_executed);
        assert_eq!(
            resumed.user_latencies_us(SimTime::ZERO),
            reference.user_latencies_us(SimTime::ZERO)
        );
    }
}
