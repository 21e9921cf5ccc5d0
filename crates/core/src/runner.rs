//! The multi-instance load-test runner (§III-B).
//!
//! A load test drives one simulated server with several lightly-loaded
//! Treadmill instances — "multiple instances of Treadmill are used to
//! send requests to the same server, where each instance sends a
//! fraction of the desired throughput" — then extracts per-instance
//! metrics and aggregates them.

use std::sync::Arc;

use treadmill_cluster::{
    merge_results, ClientSpec, ClusterBuilder, FaultSpec, HardwareConfig, InterArrival,
    OpenLoopSource, PacketCapture, RetryPolicy, RunResult, ServerSpec, ShardedCluster,
};
use treadmill_sim_core::{SeedStream, SimDuration, SimTime};
use treadmill_stats::LatencySummary;
use treadmill_workloads::Workload;

use crate::aggregation::{aggregate, latencies_per_client, AggregationMethod};
use crate::instance::{InstanceConfig, TreadmillInstance};

/// A configured Treadmill load test against the simulated cluster.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use treadmill_core::LoadTest;
/// use treadmill_workloads::Memcached;
///
/// let report = LoadTest::new(Arc::new(Memcached::default()), 100_000.0)
///     .clients(4)
///     .seed(1)
///     .run(0);
/// assert!(report.aggregated.p99 > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LoadTest {
    workload: Arc<dyn Workload>,
    target_rps: f64,
    clients: usize,
    connections_per_client: u32,
    hardware: HardwareConfig,
    server_spec: ServerSpec,
    client_spec: ClientSpec,
    duration: SimDuration,
    warmup: SimDuration,
    seed: u64,
    servers: u32,
    threads: u32,
    remote_every: u32,
    fault_spec: FaultSpec,
    retry_policy: RetryPolicy,
}

impl LoadTest {
    /// Creates a load test at `target_rps` with the paper's defaults:
    /// 8 Treadmill clients, 16 connections each, 100 ms warm-up,
    /// 500 ms measurement window.
    pub fn new(workload: Arc<dyn Workload>, target_rps: f64) -> Self {
        LoadTest {
            workload,
            target_rps,
            clients: 8,
            connections_per_client: 16,
            hardware: HardwareConfig::default(),
            server_spec: ServerSpec::default(),
            client_spec: ClientSpec::default(),
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(100),
            seed: 0,
            servers: 1,
            threads: 0,
            remote_every: 4,
            fault_spec: FaultSpec::default(),
            retry_policy: RetryPolicy::default(),
        }
    }

    /// Number of Treadmill instances (client machines).
    pub fn clients(mut self, clients: usize) -> Self {
        assert!(clients > 0, "need at least one client");
        self.clients = clients;
        self
    }

    /// Connections each instance keeps open.
    pub fn connections_per_client(mut self, connections: u32) -> Self {
        self.connections_per_client = connections;
        self
    }

    /// Hardware factor configuration under test.
    pub fn hardware(mut self, hardware: HardwareConfig) -> Self {
        self.hardware = hardware;
        self
    }

    /// Overrides the server specification.
    pub fn server_spec(mut self, spec: ServerSpec) -> Self {
        self.server_spec = spec;
        self
    }

    /// Overrides the client machine template.
    pub fn client_spec(mut self, spec: ClientSpec) -> Self {
        self.client_spec = spec;
        self
    }

    /// Total sending window (including warm-up).
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Warm-up discard window.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Master seed; combine with the run index for repeated runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Configures fault injection (default: no faults; the run stays
    /// bit-identical to a fault-free build).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = spec;
        self
    }

    /// Configures client-side timeouts / retries / hedging (default:
    /// disabled).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Number of simulated servers. Each server forms one shard of the
    /// [`ShardedCluster`] with its own replica of the client set, so
    /// `target_rps` is offered load *per server*. 1 (the default) is a
    /// one-shard cluster, which runs unwindowed.
    pub fn servers(mut self, servers: u32) -> Self {
        assert!(servers > 0, "need at least one server");
        self.servers = servers;
        self
    }

    /// Worker threads for sharded execution. 0 (the default) defers to
    /// the `TML_THREADS` environment variable, then to 1. Seeded runs
    /// are bit-identical at any thread count.
    pub fn threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Routes every `remote_every`-th connection to a foreign shard
    /// when `servers > 1` (0 keeps all traffic shard-local).
    pub fn remote_every(mut self, remote_every: u32) -> Self {
        self.remote_every = remote_every;
        self
    }

    /// The target throughput in requests per second.
    pub fn target_rps(&self) -> f64 {
        self.target_rps
    }

    /// The warm-up window.
    pub fn warmup_window(&self) -> SimDuration {
        self.warmup
    }

    /// Executes run number `run_index` (a fresh server start — new
    /// hysteresis state — per the repeated-run procedure).
    pub fn run(&self, run_index: u64) -> LoadTestReport {
        let mut cluster = self.build_sharded(self.derive_run_seed(run_index));
        cluster.run_to_completion();
        self.report_from_result(merge_results(cluster.into_results()))
    }

    /// The cluster seed for run number `run_index`.
    pub(crate) fn derive_run_seed(&self, run_index: u64) -> u64 {
        SeedStream::new(self.seed).derive("run", run_index)
    }

    /// Builds one shard's world: a full server with its own replica of
    /// the client set. Shard 0 reuses the run seed verbatim, so the
    /// golden seeds pinned before sharding existed still hold; shard
    /// `i > 0` draws an independent stream from the run seed.
    fn build_shard_engine(
        &self,
        run_seed: u64,
        index: u32,
    ) -> treadmill_sim_core::Engine<treadmill_cluster::ClusterWorld> {
        let seed = if index == 0 {
            run_seed
        } else {
            SeedStream::new(run_seed).derive("shard", u64::from(index))
        };
        let per_client_rate = self.target_rps / self.clients as f64;
        let mut builder = ClusterBuilder::new(Arc::clone(&self.workload))
            .hardware(self.hardware)
            .server_spec(self.server_spec.clone())
            .seed(seed)
            .duration(self.duration)
            .faults(self.fault_spec)
            .retry_policy(self.retry_policy)
            .shard(index, self.servers, self.remote_every);
        for _ in 0..self.clients {
            let mut spec = self.client_spec.clone();
            spec.connections = self.connections_per_client;
            builder = builder.client(
                spec,
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential {
                        rate_rps: per_client_rate,
                    },
                    self.connections_per_client,
                )),
            );
        }
        builder.build()
    }

    /// The configured server (= shard) count.
    pub(crate) fn server_count(&self) -> u32 {
        self.servers
    }

    /// Resolved worker-thread count: the explicit `threads` setting,
    /// else the `TML_THREADS` environment variable, else 1.
    pub(crate) fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads as usize;
        }
        std::env::var("TML_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(1)
    }

    /// Builds the cluster for one run without executing it — the entry
    /// point for stepped/resumable execution. [`LoadTest::run`] is
    /// exactly `merge_results(build_sharded(seed) → run_to_completion)`
    /// fed through [`LoadTest::report_from_result`], so a stepped run
    /// that ends in the same engine state produces a bit-identical
    /// report.
    pub(crate) fn build_sharded(&self, run_seed: u64) -> ShardedCluster {
        let engines = (0..self.servers)
            .map(|i| self.build_shard_engine(run_seed, i))
            .collect();
        ShardedCluster::new(engines, self.effective_threads())
    }

    /// Assembles the operator-facing report from a finished run. Pure
    /// function of the [`RunResult`]: two bit-identical results yield
    /// bit-identical reports.
    pub(crate) fn report_from_result(&self, result: RunResult) -> LoadTestReport {
        let instance_config = InstanceConfig {
            phases: crate::phases::PhaseConfig { warmup: self.warmup },
        };
        let per_instance: Vec<LatencySummary> = result
            .client_records
            .iter()
            .map(|records| {
                let mut instance = TreadmillInstance::new(instance_config.clone());
                instance.observe_all(records);
                instance.summary()
            })
            .collect();
        let aggregated = aggregate(&per_instance, AggregationMethod::Mean);
        let warmup_time = SimTime::ZERO + self.warmup;
        let ground_truth =
            PacketCapture::from_records(result.all_records(), warmup_time);
        LoadTestReport {
            per_instance,
            aggregated,
            ground_truth,
            run: result,
            warmup: self.warmup,
        }
    }

    /// User-space measurement latencies per client from a report's raw
    /// records (µs), warm-up excluded — for analyses that need raw
    /// samples rather than summaries. Cuts at the exact `SimTime`
    /// warm-up boundary, matching [`LoadTestReport::pooled_latencies`].
    pub fn raw_latencies(&self, report: &LoadTestReport) -> Vec<Vec<f64>> {
        latencies_per_client(&report.run.client_records, SimTime::ZERO + self.warmup)
    }
}

/// Everything one load-test run produced.
#[derive(Debug, Clone)]
pub struct LoadTestReport {
    /// Per-instance latency summaries (the paper's per-client metrics).
    pub per_instance: Vec<LatencySummary>,
    /// The cross-instance aggregate — the run's headline numbers.
    pub aggregated: LatencySummary,
    /// tcpdump-equivalent ground truth over the measurement window.
    pub ground_truth: PacketCapture,
    /// The raw simulation output.
    pub run: RunResult,
    /// The warm-up window used.
    pub warmup: SimDuration,
}

impl LoadTestReport {
    /// Measurement-window user-space latencies pooled across clients
    /// (µs). For per-client vectors use [`LoadTest::raw_latencies`].
    pub fn pooled_latencies(&self) -> Vec<f64> {
        self.run
            .user_latencies_us(SimTime::ZERO + self.warmup)
    }

    /// The offered-vs-achieved throughput ratio over the sending window
    /// (1.0 = every request was answered in time). Only responses
    /// delivered *within* the window count — a backlogged client
    /// delivering stale responses after the test must not pass.
    pub fn completion_ratio(&self, target_rps: f64) -> f64 {
        let stop = self.run.sending_stopped_at;
        let expected = target_rps * stop.as_secs_f64();
        self.run.delivered_in_window as f64 / expected
    }

    /// Fraction of settled requests that ended in failure over the
    /// whole run (0.0 for a clean run).
    pub fn loss_fraction(&self) -> f64 {
        self.run.loss_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_workloads::Memcached;

    fn quick_test(rps: f64) -> LoadTest {
        LoadTest::new(Arc::new(Memcached::default()), rps)
            .clients(4)
            .duration(SimDuration::from_millis(120))
            .warmup(SimDuration::from_millis(30))
            .seed(11)
    }

    #[test]
    fn report_contains_all_views() {
        let report = quick_test(100_000.0).run(0);
        assert_eq!(report.per_instance.len(), 4);
        assert!(report.aggregated.p99 >= report.aggregated.p50);
        assert!(!report.ground_truth.is_empty());
        // Ground truth (NIC) below user view.
        assert!(report.ground_truth.quantile_us(0.5) < report.aggregated.p50);
    }

    #[test]
    fn throughput_is_delivered() {
        let report = quick_test(200_000.0).run(0);
        let ratio = report.completion_ratio(200_000.0);
        assert!(ratio > 0.95 && ratio < 1.05, "completion ratio {ratio}");
    }

    #[test]
    fn repeated_runs_differ_same_run_repeats() {
        let test = quick_test(400_000.0);
        let a = test.run(0);
        let b = test.run(1);
        let a2 = test.run(0);
        assert_eq!(a.aggregated, a2.aggregated, "same run index reproduces");
        assert_ne!(
            a.aggregated.p99, b.aggregated.p99,
            "different run indices draw fresh hysteresis state"
        );
    }

    #[test]
    fn raw_and_pooled_views_agree_on_sample_counts() {
        // A warm-up with a sub-microsecond component: truncating it to
        // integer µs would move the cutoff and the two views would
        // disagree near the boundary. Both must cut at the exact
        // SimTime instant.
        let test = quick_test(100_000.0).warmup(SimDuration::from_nanos(30_000_500));
        let report = test.run(0);
        let per_client = test.raw_latencies(&report);
        let raw_total: usize = per_client.iter().map(Vec::len).sum();
        assert_eq!(raw_total, report.pooled_latencies().len());
        assert_eq!(raw_total, report.ground_truth.len());
    }

    #[test]
    fn completion_ratio_counts_only_in_window_deliveries() {
        let report = quick_test(150_000.0).run(0);
        let stop = report.run.sending_stopped_at;
        let recount = report
            .run
            .all_records()
            .filter(|r| r.t_delivered <= stop)
            .count();
        assert_eq!(report.run.delivered_in_window, recount);
    }

    #[test]
    fn raw_latencies_exclude_warmup() {
        let test = quick_test(100_000.0);
        let report = test.run(0);
        let per_client = test.raw_latencies(&report);
        assert_eq!(per_client.len(), 4);
        let raw_total: usize = per_client.iter().map(Vec::len).sum();
        assert!(raw_total < report.run.total_responses());
        assert!(raw_total > 0);
    }
}
