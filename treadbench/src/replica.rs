//! Traced replicas of the program's run paths, built only from public
//! calls, with one span around each call into a layer.
//!
//! [`run`] reproduces `LoadTest::run` (single world or sharded) and the
//! pooled view `LoadTestReport::pooled_latencies`; [`subsample`]
//! reproduces the subsampler `inference::collect` applies to each
//! experiment. Every replica result is compared bit for bit with the
//! plain path it mirrors, so a drift in either shows up as a failed
//! check rather than as a silently different measurement.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;
use treadmill_cluster::{
    extract_result, merge_results, ClientSpec, ClusterBuilder, ClusterWorld, HardwareConfig,
    NetworkSpec, PacketCapture, RunResult, ServerSpec, ShardedCluster,
};
use treadmill_core::aggregation::{aggregate, AggregationMethod};
use treadmill_core::{
    InstanceConfig, InterArrival, LoadTestConfig, LoadTestReport, OpenLoopSource, PhaseConfig,
    TreadmillInstance,
};
use treadmill_sim_core::{Engine, SeedStream, SimDuration, SimTime};
use treadmill_stats::LatencySummary;
use treadmill_workloads::Workload;

use crate::trace::Tracer;

/// What two runs must agree on to count as the same output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    pub events: u64,
    pub p50_bits: u64,
    pub p99_bits: u64,
    /// Measurement-window responses (the pooled sample count).
    pub window: usize,
}

impl RunDigest {
    /// The digest of a plain `LoadTest::run` report.
    pub fn of(report: &LoadTestReport) -> Self {
        RunDigest {
            events: report.run.events_executed,
            p50_bits: report.aggregated.p50.to_bits(),
            p99_bits: report.aggregated.p99.to_bits(),
            window: report.ground_truth.len(),
        }
    }
}

/// A replica run's digest plus its pooled measurement-window latencies.
pub struct ReplicaRun {
    pub digest: RunDigest,
    pub pooled: Vec<f64>,
}

fn hardware(config: &LoadTestConfig) -> HardwareConfig {
    config
        .hardware
        .map_or_else(HardwareConfig::all_low, |cell| {
            HardwareConfig::from_index(usize::from(cell))
        })
}

fn build_world(
    config: &LoadTestConfig,
    workload: &Arc<dyn Workload>,
    seed: u64,
    shard: Option<u32>,
) -> Engine<ClusterWorld> {
    let per_client_rate = config.target_rps / config.clients as f64;
    let mut builder = ClusterBuilder::new(Arc::clone(workload))
        .hardware(hardware(config))
        .server_spec(ServerSpec::default())
        .network_spec(NetworkSpec::default())
        .seed(seed)
        .duration(SimDuration::from_millis(config.duration_ms))
        .faults(config.faults)
        .retry_policy(config.retry);
    if let Some(index) = shard {
        builder = builder.shard(index, config.servers, config.remote_every);
    }
    for _ in 0..config.clients {
        let spec = ClientSpec {
            connections: config.connections_per_client,
            ..ClientSpec::default()
        };
        builder = builder.client(
            spec,
            Box::new(OpenLoopSource::new(
                InterArrival::Exponential {
                    rate_rps: per_client_rate,
                },
                config.connections_per_client,
            )),
        );
    }
    builder.build()
}

/// Replays `LoadTest::run(run_index)` for `config` on `threads` worker
/// threads (sharded configs only), recording a span per layer call.
pub fn run(
    config: &LoadTestConfig,
    workload: &Arc<dyn Workload>,
    run_index: u64,
    threads: usize,
    tr: &mut Tracer,
) -> ReplicaRun {
    let run_seed = SeedStream::new(config.seed).derive("run", run_index);
    let (result, events) = if config.servers > 1 {
        let engines = tr.span("cluster.build", |_| {
            (0..config.servers)
                .map(|i| {
                    let seed = if i == 0 {
                        run_seed
                    } else {
                        SeedStream::new(run_seed).derive("shard", u64::from(i))
                    };
                    build_world(config, workload, seed, Some(i))
                })
                .collect()
        });
        let mut cluster = ShardedCluster::new(engines, threads);
        tr.span("engine.run", |_| cluster.run_to_completion());
        let events = cluster.events_executed();
        let result = tr.span("cluster.extract", |_| merge_results(cluster.into_results()));
        (result, events)
    } else {
        let mut engine = tr.span("cluster.build", |_| {
            build_world(config, workload, run_seed, None)
        });
        tr.span("engine.run", |_| engine.run_to_completion());
        let events = engine.events_executed();
        (
            tr.span("cluster.extract", |_| extract_result(engine)),
            events,
        )
    };
    report(config, &result, events, tr)
}

/// The report half of `LoadTest::run`: per-client summaries, their
/// aggregate, the ground-truth capture, and the pooled latencies.
fn report(config: &LoadTestConfig, result: &RunResult, events: u64, tr: &mut Tracer) -> ReplicaRun {
    let warmup = SimDuration::from_millis(config.warmup_ms);
    let warmup_time = SimTime::ZERO + warmup;
    let aggregated = tr.span("core.summarise", |_| {
        let per_instance: Vec<LatencySummary> = result
            .client_records
            .iter()
            .map(|records| {
                let mut instance = TreadmillInstance::new(InstanceConfig {
                    phases: PhaseConfig { warmup },
                    ..InstanceConfig::default()
                });
                instance.observe_all(records);
                instance.summary()
            })
            .collect();
        aggregate(&per_instance, AggregationMethod::Mean)
    });
    let capture = tr.span("cluster.capture", |_| {
        PacketCapture::from_records(result.all_records(), warmup_time)
    });
    let pooled = tr.span("core.pooled", |_| result.user_latencies_us(warmup_time));
    ReplicaRun {
        digest: RunDigest {
            events,
            p50_bits: aggregated.p50.to_bits(),
            p99_bits: aggregated.p99.to_bits(),
            window: capture.len(),
        },
        pooled,
    }
}

/// The sparse partial Fisher–Yates draw `inference::collect` uses to keep
/// `n` samples of each experiment.
pub fn subsample<R: Rng>(values: &[f64], n: usize, mut rng: R) -> Vec<f64> {
    if values.len() <= n {
        return values.to_vec();
    }
    let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(2 * n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let j = rng.gen_range(i..values.len());
        let pick = displaced.get(&j).copied().unwrap_or(j);
        let here = displaced.get(&i).copied().unwrap_or(i);
        out.push(values[pick]);
        displaced.insert(j, here);
    }
    out
}
