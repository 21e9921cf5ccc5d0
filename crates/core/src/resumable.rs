//! Stepped, checkpointable execution of one load-test run.
//!
//! [`ResumableRun`] drives the same cluster [`LoadTest::run`] would
//! build, but in bounded event batches, with three extras a long
//! unattended run needs:
//!
//! * **checkpointing** — [`ResumableRun::checkpoint`] writes a
//!   checkpoint in two parts. The records completed since the previous
//!   checkpoint go onto an append-only *record segment* as one chunk
//!   ([`treadmill_cluster::checkpoint::write_chunk`]), streamed through
//!   a fixed-size buffer; everything else — engine state, the per-client
//!   cursors, the segment's committed length and checksum, the
//!   streaming tail estimator — comes back as one small sealed
//!   *envelope*. A checkpoint therefore costs its new records in bytes
//!   and time and a constant in memory, however long the run.
//!   [`ResumableRun::resume`] restores both into a freshly built
//!   cluster, so a run killed at any event and resumed from its last
//!   checkpoint finishes with a bit-identical [`LoadTestReport`]. Each
//!   section is checked as it is applied; a resume that fails drops its
//!   half-restored cluster and returns the error;
//! * **live tail monitoring** — a constant-memory P² p99 estimate
//!   over the post-warm-up user latencies, available mid-run without
//!   touching the record vectors;
//! * **auditing** — [`ResumableRun::audit`] runs the cluster invariant
//!   checks against the live engines, e.g. at every checkpoint.
//!
//! Records stay in memory until the report: its quantiles are exact, so
//! they need every sample.

use std::io::{self, BufReader, BufWriter, Read, Write};

use treadmill_cluster::checkpoint::{self, RecordCursor};
use treadmill_cluster::{merge_results, ClientMachine, ShardedCluster};
use treadmill_sim_core::snapshot::{
    self, Checksum64, SnapshotError, SnapshotReader, SnapshotWriter,
};
use treadmill_sim_core::SimTime;
use treadmill_stats::{P2Quantile, P2State};

use crate::runner::{LoadTest, LoadTestReport};

/// The fixed buffer a checkpoint streams its records through, and a
/// resume reads them back through.
const SEGMENT_BUFFER_BYTES: usize = 64 * 1024;

/// Passes bytes through to `inner` and folds each one into `sum`, so
/// the segment's checksum is kept without a second pass over it.
struct Hashed<'a, T> {
    inner: T,
    sum: &'a mut Checksum64,
}

impl<T: Write> Write for Hashed<'_, T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Read> Read for Hashed<'_, T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }
}

/// A constant-memory P² p99 estimate over the measurement-window
/// latencies, fed incrementally as records arrive.
#[derive(Debug, Clone)]
pub struct TailMonitor {
    p99: P2Quantile,
}

impl TailMonitor {
    fn new() -> Self {
        TailMonitor {
            p99: P2Quantile::new(0.99),
        }
    }

    fn observe(&mut self, latency_us: f64) {
        self.p99.record(latency_us);
    }

    /// Samples observed so far.
    pub fn count(&self) -> u64 {
        self.p99.count() as u64
    }

    /// The P² running p99 estimate (µs). NaN until the first sample
    /// lands — an early checkpoint (mid-warmup, say) has no tail yet,
    /// and a monitoring read must not abort the sweep.
    pub fn p99_us(&self) -> f64 {
        if self.p99.count() == 0 {
            return f64::NAN;
        }
        self.p99.estimate()
    }

    fn write(&self, w: &mut SnapshotWriter) {
        let p = self.p99.state();
        w.put_f64(p.p);
        for group in [&p.heights, &p.positions, &p.desired, &p.increments] {
            for &v in group {
                w.put_f64(v);
            }
        }
        w.put_usize(p.count);
        w.put_u64(p.initial.len() as u64);
        for &v in &p.initial {
            w.put_f64(v);
        }
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let p = r.get_f64()?;
        let mut groups = [[0.0f64; 5]; 4];
        for group in &mut groups {
            for v in group.iter_mut() {
                *v = r.get_f64()?;
            }
        }
        let count = r.get_usize()?;
        let n_initial = r.get_u64()?;
        if n_initial > 5 {
            return Err(SnapshotError::Malformed("oversized P2 warm-up buffer"));
        }
        let mut initial = Vec::with_capacity(5);
        for _ in 0..n_initial {
            initial.push(r.get_f64()?);
        }
        let p99 = P2Quantile::from_state(P2State {
            p,
            heights: groups[0],
            positions: groups[1],
            desired: groups[2],
            increments: groups[3],
            count,
            initial,
        });
        Ok(TailMonitor { p99 })
    }
}

/// One load-test run executing in bounded steps with checkpoint/resume.
#[derive(Debug)]
pub struct ResumableRun {
    test: LoadTest,
    run_seed: u64,
    cluster: ShardedCluster,
    /// Per-shard, per-client folded-record counts. The monitor is fed
    /// in shard-then-client order, a pure function of simulated state —
    /// thread count never changes the observation stream.
    consumed: Vec<Vec<usize>>,
    /// Per-shard, per-client cursors of the records already on the
    /// record segment.
    persisted: Vec<Vec<RecordCursor>>,
    /// Length and running checksum of the segment's committed bytes.
    segment: Checksum64,
    monitor: TailMonitor,
}

/// Folds each client's not-yet-seen records into the monitor.
fn fold_records(
    monitor: &mut TailMonitor,
    warmup: SimTime,
    consumed: &mut [usize],
    clients: &[ClientMachine],
) {
    for (consumed, client) in consumed.iter_mut().zip(clients) {
        for record in client.records.iter().skip(*consumed) {
            if record.t_generated >= warmup {
                monitor.observe(record.user_latency_us());
            }
        }
        *consumed = client.records.len();
    }
}

impl ResumableRun {
    /// Starts run number `run_index` of `test` from event zero, on the
    /// same [`ShardedCluster`] [`LoadTest::run`] builds.
    pub fn new(test: LoadTest, run_index: u64) -> Self {
        let run_seed = test.derive_run_seed(run_index);
        let cluster = test.build_sharded(run_seed);
        let consumed = (0..cluster.n_shards())
            .map(|i| vec![0; cluster.engine(i).world().clients.len()])
            .collect();
        let persisted = vec![Vec::new(); cluster.n_shards()];
        ResumableRun {
            test,
            run_seed,
            cluster,
            consumed,
            persisted,
            segment: Checksum64::new(),
            monitor: TailMonitor::new(),
        }
    }

    /// Executes up to `max_events` events and folds newly completed
    /// records into the tail monitor. Returns the number executed;
    /// `0` means the run has drained. A one-server run executes exactly
    /// `max_events` until it drains; a multi-server run stops at the
    /// first synchronization-round boundary past the budget, so it may
    /// slightly overshoot.
    pub fn step(&mut self, max_events: u64) -> u64 {
        let executed = self.cluster.run(max_events);
        let warmup = SimTime::ZERO + self.test.warmup_window();
        for (i, consumed) in self.consumed.iter_mut().enumerate() {
            let engine = self.cluster.engine(i);
            fold_records(&mut self.monitor, warmup, consumed, &engine.world().clients);
        }
        executed
    }

    /// True once every event has drained.
    pub fn is_finished(&self) -> bool {
        self.cluster.is_finished()
    }

    /// Events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.cluster.events_executed()
    }

    /// The live tail monitor.
    pub fn tail(&self) -> &TailMonitor {
        &self.monitor
    }

    /// Runs the cluster invariant auditor against the live engines. See
    /// [`treadmill_cluster::audit_sharded`]: every shard's invariants
    /// plus cross-shard message conservation.
    pub fn audit(&self, max_pending: usize) -> Vec<String> {
        treadmill_cluster::audit_sharded(&self.cluster, max_pending)
    }

    /// Takes a checkpoint: streams the records completed since the
    /// previous checkpoint onto `segment` as one chunk (every shard's
    /// section, through a fixed-size buffer), then returns the sealed
    /// envelope that commits it — engine state, cursors, the segment's
    /// committed length and checksum, and the tail monitor.
    ///
    /// `segment` continues the bytes earlier checkpoints of this run
    /// wrote (or that [`ResumableRun::resume`] read back). Make them
    /// durable before publishing the envelope: an envelope must never
    /// commit bytes a crash can lose.
    ///
    /// # Errors
    ///
    /// Whatever `segment` returns. The run no longer knows where its
    /// segment ends; take no further checkpoint from it.
    pub fn checkpoint<W: Write>(&mut self, segment: &mut W) -> io::Result<Vec<u8>> {
        let mut out = BufWriter::with_capacity(
            SEGMENT_BUFFER_BYTES,
            Hashed {
                inner: segment,
                sum: &mut self.segment,
            },
        );
        // One chunk per checkpoint, shard sections in shard order. A
        // checkpoint is only ever taken at a round boundary (outboxes
        // empty), so each shard's state is self-contained.
        for (i, cursors) in self.persisted.iter_mut().enumerate() {
            checkpoint::write_chunk(&self.cluster.engine(i), cursors, &mut out)?;
        }
        out.flush()?;
        drop(out);

        let mut w = SnapshotWriter::new();
        w.put_u64(self.run_seed);
        w.put_u64(self.segment.len());
        w.put_u64(self.segment.value());
        w.put_u32(u32::try_from(self.cluster.n_shards()).unwrap_or(u32::MAX));
        for i in 0..self.cluster.n_shards() {
            checkpoint::write_state(&self.cluster.engine(i), &mut w);
        }
        self.monitor.write(&mut w);
        Ok(w.into_sealed())
    }

    /// Bytes of record segment this run's checkpoints have committed.
    pub fn segment_len(&self) -> u64 {
        self.segment.len()
    }

    /// Restores a run from a [`ResumableRun::checkpoint`] envelope and
    /// its record segment. Exactly the segment's committed prefix is
    /// read, so bytes a crash appended past it are ignored; cut them off
    /// (to [`ResumableRun::segment_len`]) before the next checkpoint
    /// appends. `test` and `run_index` must describe the same
    /// configuration the checkpoint was taken from.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the envelope is corrupt or was
    /// taken under a different seed, if the segment is shorter than the
    /// envelope commits ([`SnapshotError::Truncated`]) or its committed
    /// prefix does not match the envelope's checksum, or if either
    /// disagrees structurally with the configuration.
    pub fn resume<R: Read>(
        test: LoadTest,
        run_index: u64,
        envelope: &[u8],
        segment: R,
    ) -> Result<Self, SnapshotError> {
        let payload = snapshot::open(envelope)?;
        let mut r = SnapshotReader::new(payload);
        let run_seed = r.get_u64()?;
        if run_seed != test.derive_run_seed(run_index) {
            return Err(SnapshotError::Malformed(
                "checkpoint was taken under a different run seed",
            ));
        }
        let committed = r.get_u64()?;
        let checksum = r.get_u64()?;
        if r.get_u32()? != test.server_count() {
            return Err(SnapshotError::Malformed("shard count mismatch"));
        }
        let mut cluster = test.build_sharded(run_seed);

        let mut sum = Checksum64::new();
        let mut input = Hashed {
            inner: BufReader::with_capacity(SEGMENT_BUFFER_BYTES, segment.take(committed)),
            sum: &mut sum,
        };
        while input.sum.len() < committed {
            for i in 0..cluster.n_shards() {
                checkpoint::read_chunk(cluster.engine_mut(i), &mut input)?;
            }
        }
        if sum.value() != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut consumed = Vec::with_capacity(cluster.n_shards());
        let mut persisted = Vec::with_capacity(cluster.n_shards());
        for i in 0..cluster.n_shards() {
            let engine = cluster.engine_mut(i);
            checkpoint::read_state(engine, &mut r)?;
            let clients = &engine.world().clients;
            consumed.push(clients.iter().map(|c| c.records.len()).collect());
            persisted.push(
                clients
                    .iter()
                    .map(|c| RecordCursor {
                        records: c.records.len(),
                        failures: c.failures.len(),
                    })
                    .collect(),
            );
        }
        let monitor = TailMonitor::read(&mut r)?;
        r.finish()?;
        Ok(ResumableRun {
            test,
            run_seed,
            cluster,
            consumed,
            persisted,
            segment: sum,
            monitor,
        })
    }

    /// Drains the remaining events and assembles the report —
    /// bit-identical to what `test.run(run_index)` would have produced
    /// in one uninterrupted execution.
    pub fn finish(self) -> LoadTestReport {
        let ResumableRun {
            test, mut cluster, ..
        } = self;
        cluster.run_to_completion();
        test.report_from_result(merge_results(cluster.into_results()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use treadmill_sim_core::SimDuration;
    use treadmill_workloads::Memcached;

    fn quick_test() -> LoadTest {
        LoadTest::new(Arc::new(Memcached::default()), 150_000.0)
            .clients(2)
            .duration(SimDuration::from_millis(80))
            .warmup(SimDuration::from_millis(20))
            .seed(9)
    }

    fn assert_reports_identical(a: &LoadTestReport, b: &LoadTestReport) {
        assert_eq!(a.aggregated, b.aggregated);
        assert_eq!(a.per_instance, b.per_instance);
        assert_eq!(a.run.client_records, b.run.client_records);
        assert_eq!(a.run.events_executed, b.run.events_executed);
        assert_eq!(a.run.completed_at, b.run.completed_at);
    }

    #[test]
    fn stepped_run_matches_one_shot_run() {
        let golden = quick_test().run(0);
        let mut run = ResumableRun::new(quick_test(), 0);
        let mut steps = Vec::new();
        loop {
            let executed = run.step(10_000);
            if executed == 0 {
                break;
            }
            steps.push(executed);
        }
        // One server steps exactly: every call before the run drains
        // executes its whole budget, so checkpoint positions and the
        // event counts a sweep reports land on multiples of it.
        let (last, full) = steps.split_last().expect("the run executed events");
        assert!(
            full.iter().all(|&n| n == 10_000),
            "a step before draining missed its budget: {steps:?}"
        );
        assert!(*last <= 10_000);
        assert_eq!(steps.iter().sum::<u64>(), golden.run.events_executed);
        assert!(run.is_finished());
        assert_reports_identical(&golden, &run.finish());
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let golden = quick_test().run(0);

        // Simulate a crash: step partway, checkpoint, drop everything.
        let mut segment = Vec::new();
        let envelope = {
            let mut run = ResumableRun::new(quick_test(), 0);
            run.step(40_000);
            run.checkpoint(&mut segment).expect("checkpoint")
        };
        let mut resumed =
            ResumableRun::resume(quick_test(), 0, &envelope, segment.as_slice()).expect("resume");
        while resumed.step(10_000) > 0 {}
        assert!(resumed.audit(usize::MAX).is_empty());
        assert_reports_identical(&golden, &resumed.finish());
    }

    /// Runs `f`, returning its output and the wall seconds it took.
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        // tml-lint: allow(DET002, test-only timer for the checkpoint budget; no simulated state reads it)
        let start = std::time::Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    }

    /// A sweep cell's steady state: a checkpoint every
    /// DEFAULT_CKPT_EVENTS events, its records streamed to a sink (no
    /// disk, no fsync). Only the checkpoint calls are timed, against the
    /// plain run's wall; minima over `reps` deterministic repetitions
    /// strip scheduler noise. Returns the share of the plain run's wall
    /// spent checkpointing, and the checkpoints per run.
    fn checkpoint_share(test: &LoadTest, reps: usize) -> (f64, usize) {
        let mut plain_wall = f64::INFINITY;
        let mut ckpt_wall = f64::INFINITY;
        let mut checkpoints = 0;
        for _ in 0..reps {
            let (plain, wall) = timed(|| test.run(0));
            plain_wall = plain_wall.min(wall);
            // Only its p99 is compared; the records go before the next run.
            let plain_p99 = plain.aggregated.p99.to_bits();
            drop(plain);

            let mut run = ResumableRun::new(test.clone(), 0);
            checkpoints = 0;
            let mut in_ckpt = 0.0;
            while run.step(crate::sweep::DEFAULT_CKPT_EVENTS) > 0 && !run.is_finished() {
                in_ckpt += timed(|| run.checkpoint(&mut io::sink()).expect("checkpoint")).1;
                checkpoints += 1;
            }
            ckpt_wall = ckpt_wall.min(in_ckpt);
            assert!(checkpoints > 0, "the run took no checkpoint");
            assert_eq!(
                run.finish().aggregated.p99.to_bits(),
                plain_p99,
                "the checkpointed run drifted from the plain run"
            );
        }
        (ckpt_wall / plain_wall, checkpoints)
    }

    #[test]
    fn checkpoint_serialisation_stays_within_five_percent_of_a_run() {
        // The budget holds for optimised code only: under the test
        // profile (opt-level 1) serialisation is relatively slower.
        let test = LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
            .clients(4)
            .duration(SimDuration::from_millis(400))
            .warmup(SimDuration::from_millis(100))
            .seed(2016);
        let (share, _) = checkpoint_share(&test, 3);
        eprintln!(
            "checkpoint serialisation: {:.2}% of the plain run",
            share * 100.0
        );
        if !cfg!(debug_assertions) {
            assert!(
                share <= 0.05,
                "checkpoint serialisation took {:.1}% of the plain run (budget 5%)",
                share * 100.0
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release only: two 3 s runs at 750k rps take minutes unoptimised"
    )]
    fn checkpoint_serialisation_of_a_3_s_run_stays_within_five_percent() {
        // A long run: its share stays flat only if each of its 22
        // checkpoints writes just the records completed since the one
        // before.
        let test = LoadTest::new(Arc::new(Memcached::default()), 750_000.0)
            .duration(SimDuration::from_secs(3))
            .seed(2016);
        let (share, checkpoints) = checkpoint_share(&test, 2);
        eprintln!(
            "checkpoint serialisation, 3 s run: {:.2}% of the plain run over {checkpoints} checkpoints",
            share * 100.0
        );
        assert_eq!(checkpoints, 22);
        assert!(
            share <= 0.05,
            "checkpoint serialisation took {:.1}% of the plain run (budget 5%)",
            share * 100.0
        );
    }

    #[test]
    fn tail_monitor_survives_resume_bit_exactly() {
        // The monitor folds each client's new records at every step
        // boundary, so its observation interleaving depends on the step
        // cadence; both runs must use the same cadence and the property
        // under test is that the checkpoint itself perturbs nothing.
        let mut straight = ResumableRun::new(quick_test(), 0);
        straight.step(33_333);
        while straight.step(5_000) > 0 {}

        // Interrupted at the same point, then resumed.
        let mut segment = Vec::new();
        let envelope = {
            let mut run = ResumableRun::new(quick_test(), 0);
            run.step(33_333);
            run.checkpoint(&mut segment).expect("checkpoint")
        };
        let mut resumed =
            ResumableRun::resume(quick_test(), 0, &envelope, segment.as_slice()).expect("resume");
        while resumed.step(5_000) > 0 {}

        assert_eq!(straight.tail().count(), resumed.tail().count());
        assert_eq!(
            straight.tail().p99_us().to_bits(),
            resumed.tail().p99_us().to_bits()
        );
    }

    /// Response and failure records the run's clients hold, all shards.
    fn record_totals(run: &ResumableRun) -> (usize, usize) {
        let mut totals = (0, 0);
        for i in 0..run.cluster.n_shards() {
            for client in &run.cluster.engine(i).world().clients {
                totals.0 += client.records.len();
                totals.1 += client.failures.len();
            }
        }
        totals
    }

    /// The envelope bound: pending events, in-flight requests and
    /// queues, never records.
    const ENVELOPE_BOUND: usize = 32 * 1024;

    #[test]
    fn checkpoints_write_only_their_new_records() {
        use treadmill_cluster::{FaultSpec, RetryPolicy};
        // Three shards, and losses with retries so failure records ride
        // along with the responses.
        let test = sharded_test(1)
            .faults(FaultSpec {
                uplink_loss: 0.01,
                ..FaultSpec::default()
            })
            .retry_policy(RetryPolicy {
                timeout_us: 1_000.0,
                max_retries: 1,
                ..RetryPolicy::default()
            });
        let golden = test.run(0);
        let mut run = ResumableRun::new(test.clone(), 0);
        // A chunk's fixed part: per shard "TMLR" and a client count, per
        // client a record count and a failure count.
        let header: usize = (0..run.cluster.n_shards())
            .map(|i| 8 + 16 * run.cluster.engine(i).world().clients.len())
            .sum();
        let mut segment = Vec::new();
        let mut envelope = Vec::new();
        let mut checkpoints = 0;
        while run.step(7_000) > 0 && !run.is_finished() {
            envelope = run.checkpoint(&mut segment).expect("checkpoint");
            checkpoints += 1;
            // Every byte so far is a record (68 B), a failure (37 B) or
            // a chunk header: no record was written twice.
            let (records, failures) = record_totals(&run);
            assert_eq!(
                segment.len(),
                checkpoints * header + 68 * records + 37 * failures,
                "checkpoint {checkpoints}"
            );
            assert_eq!(run.segment_len(), segment.len() as u64);
            assert!(envelope.len() < ENVELOPE_BOUND, "{} B", envelope.len());
        }
        assert!(checkpoints >= 5, "only {checkpoints} checkpoints");
        assert!(record_totals(&run).1 > 0, "the run failed no request");
        let resumed = ResumableRun::resume(test, 0, &envelope, segment.as_slice()).expect("resume");
        assert_reports_identical(&golden, &resumed.finish());
    }

    #[test]
    fn envelopes_stay_bounded_while_records_grow() {
        let test = LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
            .clients(4)
            .duration(SimDuration::from_millis(400))
            .warmup(SimDuration::from_millis(100))
            .seed(2016);
        let mut run = ResumableRun::new(test, 0);
        let mut sizes = Vec::new();
        while run.step(crate::sweep::DEFAULT_CKPT_EVENTS / 10) > 0 && !run.is_finished() {
            sizes.push(run.checkpoint(&mut io::sink()).expect("checkpoint").len());
        }
        let records = record_totals(&run).0;
        eprintln!(
            "envelopes {sizes:?} B; {records} records, {} B on the segment",
            run.segment_len()
        );
        assert!(sizes.len() >= 8, "{sizes:?}");
        assert!(sizes.iter().all(|&n| n < ENVELOPE_BOUND), "{sizes:?}");
        // The segment holds the records; the envelopes do not grow with them.
        assert!(run.segment_len() > 100 * ENVELOPE_BOUND as u64);
    }

    fn sharded_test(threads: u32) -> LoadTest {
        LoadTest::new(Arc::new(Memcached::default()), 120_000.0)
            .clients(2)
            .duration(SimDuration::from_millis(60))
            .warmup(SimDuration::from_millis(15))
            .seed(31)
            .servers(3)
            .remote_every(4)
            .threads(threads)
    }

    #[test]
    fn sharded_stepped_run_matches_one_shot_run() {
        let golden = sharded_test(1).run(0);
        let mut run = ResumableRun::new(sharded_test(2), 0);
        while run.step(10_000) > 0 {}
        assert!(run.is_finished());
        assert_reports_identical(&golden, &run.finish());
    }

    #[test]
    fn sharded_kill_and_resume_is_bit_identical() {
        let golden = sharded_test(1).run(0);

        // Crash a 2-thread sweep mid-run, resume it single-threaded:
        // the checkpoint sits at a round boundary, so the thread count
        // on either side of the crash is irrelevant.
        let mut segment = Vec::new();
        let envelope = {
            let mut run = ResumableRun::new(sharded_test(2), 0);
            run.step(30_000);
            assert_eq!(run.audit(usize::MAX), Vec::<String>::new());
            run.checkpoint(&mut segment).expect("checkpoint")
        };
        let mut resumed = ResumableRun::resume(sharded_test(1), 0, &envelope, segment.as_slice())
            .expect("resume");
        while resumed.step(10_000) > 0 {}
        assert!(resumed.audit(usize::MAX).is_empty());
        assert_reports_identical(&golden, &resumed.finish());
    }

    #[test]
    fn checkpoint_rejected_by_another_server_count() {
        let mut run = ResumableRun::new(sharded_test(1), 0);
        run.step(10_000);
        let mut segment = Vec::new();
        let envelope = run.checkpoint(&mut segment).expect("checkpoint");
        let one_server = sharded_test(1).servers(1);
        assert!(matches!(
            ResumableRun::resume(one_server, 0, &envelope, segment.as_slice()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_run_index_is_rejected() {
        let mut run = ResumableRun::new(quick_test(), 0);
        run.step(10_000);
        let mut segment = Vec::new();
        let envelope = run.checkpoint(&mut segment).expect("checkpoint");
        assert!(matches!(
            ResumableRun::resume(quick_test(), 1, &envelope, segment.as_slice()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let mut run = ResumableRun::new(quick_test(), 0);
        run.step(10_000);
        let mut segment = Vec::new();
        let envelope = run.checkpoint(&mut segment).expect("checkpoint");
        let resume = |envelope: &[u8], segment: &[u8]| {
            ResumableRun::resume(quick_test(), 0, envelope, segment).map(|_| ())
        };
        assert!(resume(&envelope[..envelope.len() - 7], &segment).is_err());
        // A segment shorter than the envelope commits fails closed.
        assert_eq!(
            resume(&envelope, &segment[..segment.len() - 7]),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(resume(&envelope, &[]), Err(SnapshotError::Truncated));
    }
}
