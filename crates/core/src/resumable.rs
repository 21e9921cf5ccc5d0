//! Stepped, checkpointable execution of one load-test run.
//!
//! [`ResumableRun`] drives the same cluster [`LoadTest::run`] would
//! build, but in bounded event batches, with three extras a long
//! unattended run needs:
//!
//! * **checkpointing** — [`ResumableRun::checkpoint`] captures the
//!   engine snapshot ([`treadmill_cluster::checkpoint`]) *plus* the
//!   streaming tail estimator into one sealed envelope;
//!   [`ResumableRun::resume`] restores both, so a run killed at any
//!   event and resumed from its last checkpoint finishes with a
//!   bit-identical [`LoadTestReport`];
//! * **live tail monitoring** — a constant-memory P² p99 estimate
//!   over the post-warm-up user latencies, available mid-run without
//!   touching the record vectors;
//! * **auditing** — [`ResumableRun::audit`] runs the cluster invariant
//!   checks against the live engines, e.g. at every checkpoint.

use treadmill_cluster::{checkpoint, merge_results, ClientMachine, ShardedCluster};
use treadmill_sim_core::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::SimTime;
use treadmill_stats::{P2Quantile, P2State};

use crate::runner::{LoadTest, LoadTestReport};

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
        for record in &client.records[*consumed..] {
            if record.t_generated >= warmup {
                monitor.observe(record.user_latency_us());
            }
        }
        *consumed = client.records.len();
    }
}

fn write_consumed(w: &mut SnapshotWriter, consumed: &[usize]) {
    w.put_u64(consumed.len() as u64);
    for &n in consumed {
        w.put_usize(n);
    }
}

fn read_consumed(r: &mut SnapshotReader<'_>) -> Result<Vec<usize>, SnapshotError> {
    let n = r.get_u64()?;
    let n = usize::try_from(n).map_err(|_| SnapshotError::Malformed("length overflows usize"))?;
    let mut consumed = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        consumed.push(r.get_usize()?);
    }
    Ok(consumed)
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
        ResumableRun {
            test,
            run_seed,
            cluster,
            consumed,
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

    /// Captures the full run state — engine snapshot plus the tail
    /// monitor — as one sealed, checksummed envelope. The engine
    /// payload is embedded directly (not double-sealed), so the whole
    /// checkpoint costs one serialisation pass and one checksum.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.checkpoint_into(&mut buf);
        buf
    }

    /// [`ResumableRun::checkpoint`], but recycling `buf`'s allocation.
    /// A loop that checkpoints every few million events should pass the
    /// same buffer each time: reusing the multi-megabyte backing store
    /// avoids a fresh allocation — and its page-fault cost — per
    /// checkpoint, which is most of the snapshot wall time.
    pub fn checkpoint_into(&self, buf: &mut Vec<u8>) {
        let scratch = std::mem::take(buf);
        let hint: usize = (0..self.cluster.n_shards())
            .map(|i| checkpoint::payload_size_hint(&self.cluster.engine(i)))
            .sum();
        let mut w = SnapshotWriter::sealing_reuse(scratch, hint + 8192);
        w.put_u64(self.run_seed);
        // The shard count, then one (payload, consumed) section per
        // shard in shard order. A checkpoint is only ever taken at a
        // round boundary (outboxes empty), so per-shard payloads are
        // self-contained.
        w.put_u32(u32::try_from(self.cluster.n_shards()).unwrap_or(u32::MAX));
        for (i, consumed) in self.consumed.iter().enumerate() {
            checkpoint::write_payload(&self.cluster.engine(i), &mut w);
            write_consumed(&mut w, consumed);
        }
        self.monitor.write(&mut w);
        *buf = w.into_sealed();
    }

    /// Restores a run from a [`ResumableRun::checkpoint`] envelope.
    /// `test` and `run_index` must describe the same configuration the
    /// checkpoint was taken from.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the envelope is corrupt, was
    /// taken under a different seed, or disagrees structurally with
    /// the configuration.
    pub fn resume(test: LoadTest, run_index: u64, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = snapshot::open(bytes)?;
        let mut r = SnapshotReader::new(payload);
        let run_seed = r.get_u64()?;
        if run_seed != test.derive_run_seed(run_index) {
            return Err(SnapshotError::Malformed(
                "checkpoint was taken under a different run seed",
            ));
        }
        if r.get_u32()? != test.server_count() {
            return Err(SnapshotError::Malformed("shard count mismatch"));
        }
        let mut cluster = test.build_sharded(run_seed);
        let mut consumed = Vec::with_capacity(cluster.n_shards());
        for i in 0..cluster.n_shards() {
            let engine = cluster.engine_mut(i);
            checkpoint::read_payload(engine, &mut r)?;
            let c = read_consumed(&mut r)?;
            if c.len() != engine.world().clients.len() {
                return Err(SnapshotError::Malformed("client count mismatch"));
            }
            consumed.push(c);
        }
        let monitor = TailMonitor::read(&mut r)?;
        r.finish()?;
        Ok(ResumableRun {
            test,
            run_seed,
            cluster,
            consumed,
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
        let bytes = {
            let mut run = ResumableRun::new(quick_test(), 0);
            run.step(40_000);
            run.checkpoint()
        };
        let mut resumed = ResumableRun::resume(quick_test(), 0, &bytes).expect("resume");
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

    #[test]
    fn checkpoint_serialisation_stays_within_five_percent_of_a_run() {
        // A sweep cell's steady state: checkpoints every
        // DEFAULT_CKPT_EVENTS events into one recycled buffer. Only the
        // checkpoint calls are timed, against the plain run's wall;
        // minima over three deterministic repetitions strip scheduler
        // noise. The budget holds for optimised code only: under the
        // test profile (opt-level 1) serialisation is relatively slower.
        let test = LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
            .clients(4)
            .duration(SimDuration::from_millis(400))
            .warmup(SimDuration::from_millis(100))
            .seed(2016);
        let mut plain_wall = f64::INFINITY;
        let mut ckpt_wall = f64::INFINITY;
        let mut buf = Vec::new();
        for _ in 0..3 {
            let (plain, wall) = timed(|| test.run(0));
            plain_wall = plain_wall.min(wall);

            let mut run = ResumableRun::new(test.clone(), 0);
            let mut checkpoints = 0;
            let mut in_ckpt = 0.0;
            while run.step(crate::sweep::DEFAULT_CKPT_EVENTS) > 0 && !run.is_finished() {
                in_ckpt += timed(|| run.checkpoint_into(&mut buf)).1;
                checkpoints += 1;
            }
            ckpt_wall = ckpt_wall.min(in_ckpt);
            assert!(checkpoints > 0, "the run took no checkpoint");
            assert_eq!(
                run.finish().aggregated.p99.to_bits(),
                plain.aggregated.p99.to_bits(),
                "the checkpointed run drifted from the plain run"
            );
        }
        let share = ckpt_wall / plain_wall;
        eprintln!("checkpoint serialisation: {:.2}% of the plain run", share * 100.0);
        if !cfg!(debug_assertions) {
            assert!(
                share <= 0.05,
                "checkpoint serialisation took {:.1}% of the plain run (budget 5%)",
                share * 100.0
            );
        }
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
        let bytes = {
            let mut run = ResumableRun::new(quick_test(), 0);
            run.step(33_333);
            run.checkpoint()
        };
        let mut resumed = ResumableRun::resume(quick_test(), 0, &bytes).expect("resume");
        while resumed.step(5_000) > 0 {}

        assert_eq!(straight.tail().count(), resumed.tail().count());
        assert_eq!(
            straight.tail().p99_us().to_bits(),
            resumed.tail().p99_us().to_bits()
        );
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
        let bytes = {
            let mut run = ResumableRun::new(sharded_test(2), 0);
            run.step(30_000);
            assert_eq!(run.audit(usize::MAX), Vec::<String>::new());
            run.checkpoint()
        };
        let mut resumed = ResumableRun::resume(sharded_test(1), 0, &bytes).expect("resume");
        while resumed.step(10_000) > 0 {}
        assert!(resumed.audit(usize::MAX).is_empty());
        assert_reports_identical(&golden, &resumed.finish());
    }

    #[test]
    fn checkpoint_rejected_by_another_server_count() {
        let mut run = ResumableRun::new(sharded_test(1), 0);
        run.step(10_000);
        let bytes = run.checkpoint();
        let one_server = sharded_test(1).servers(1);
        assert!(matches!(
            ResumableRun::resume(one_server, 0, &bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_run_index_is_rejected() {
        let mut run = ResumableRun::new(quick_test(), 0);
        run.step(10_000);
        let bytes = run.checkpoint();
        assert!(matches!(
            ResumableRun::resume(quick_test(), 1, &bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let mut run = ResumableRun::new(quick_test(), 0);
        run.step(10_000);
        let bytes = run.checkpoint();
        assert!(ResumableRun::resume(quick_test(), 0, &bytes[..bytes.len() - 7]).is_err());
    }
}
