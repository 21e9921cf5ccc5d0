//! Shared machinery for baseline load testers.
//!
//! Every baseline is described by how it differs from Treadmill:
//! control loop (open vs closed), client count, per-operation client
//! CPU cost (implementation efficiency), and how it aggregates latency
//! samples (exact, or statically binned).

use std::sync::Arc;

use treadmill_cluster::{
    ClientSpec, ClusterBuilder, HardwareConfig, PacketCapture, RunResult, TrafficSource,
};
use treadmill_core::{
    ClosedLoopSource, InterArrival, OpenLoopSource, RateLimitedClosedLoopSource,
};
use treadmill_sim_core::{SimDuration, SimTime};
use treadmill_stats::{LatencySummary, StaticHistogram};
use treadmill_workloads::Workload;

/// Which control loop a tester uses (§II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlLoop {
    /// Precisely-timed sends regardless of responses.
    Open,
    /// One outstanding request per worker connection, paced against a
    /// target-rate schedule (Mutilate/YCSB QPS targets) — falls behind
    /// under load (coordinated omission).
    Closed,
    /// One outstanding request per worker, resent immediately on
    /// response: drives the server as hard as the workers allow.
    ClosedSaturating,
}

/// How a tester aggregates latency samples (§II-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasurementStyle {
    /// Keeps every sample (no binning error).
    RawSamples,
    /// A statically configured histogram: samples outside the bounds
    /// are clamped, truncating the tail at high utilisation.
    StaticHistogram {
        /// Lower bound, µs.
        lower_us: f64,
        /// Upper bound, µs.
        upper_us: f64,
        /// Number of bins.
        bins: usize,
    },
}

/// The shape of a baseline load tester.
#[derive(Debug, Clone, PartialEq)]
pub struct TesterProfile {
    /// Display name.
    pub name: &'static str,
    /// Number of client machines it deploys.
    pub clients: usize,
    /// Worker connections (threads) per client.
    pub connections_per_client: u32,
    /// Per-send client CPU cost, ns (implementation efficiency).
    pub send_cpu_ns: f64,
    /// Per-response client CPU cost, ns.
    pub recv_cpu_ns: f64,
    /// Control loop.
    pub control: ControlLoop,
    /// Sample aggregation.
    pub measurement: MeasurementStyle,
}

/// What one baseline run measured, alongside the ground truth.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Tester name.
    pub name: &'static str,
    /// The latency summary the tester itself would report (including
    /// any binning/clipping error).
    pub measured: LatencySummary,
    /// Latency samples as the tester recorded them (post-binning they
    /// are reconstructed bin values).
    pub measured_latencies_us: Vec<f64>,
    /// Samples clipped by a static histogram (0 for raw testers).
    pub clipped_samples: u64,
    /// tcpdump ground truth for the same run.
    pub ground_truth: PacketCapture,
    /// Achieved throughput over the sending window, RPS.
    pub achieved_rps: f64,
    /// The raw simulation result.
    pub run: RunResult,
}

/// Runs a baseline tester profile against the simulated cluster.
///
/// # Panics
///
/// Panics if the tester collects no measurement samples.
pub fn run_profile(
    profile: &TesterProfile,
    workload: Arc<dyn Workload>,
    target_rps: f64,
    hardware: HardwareConfig,
    duration: SimDuration,
    warmup: SimDuration,
    seed: u64,
) -> BaselineReport {
    let mut builder = ClusterBuilder::new(workload)
        .hardware(hardware)
        .seed(seed)
        .duration(duration);
    let per_client_rate = target_rps / profile.clients as f64;
    for _ in 0..profile.clients {
        let spec = ClientSpec {
            connections: profile.connections_per_client,
            send_cpu_ns: profile.send_cpu_ns,
            recv_cpu_ns: profile.recv_cpu_ns,
            ..Default::default()
        };
        let source: Box<dyn TrafficSource> = match profile.control {
            ControlLoop::Open => Box::new(OpenLoopSource::new(
                InterArrival::Exponential {
                    rate_rps: per_client_rate,
                },
                profile.connections_per_client,
            )),
            ControlLoop::Closed => Box::new(RateLimitedClosedLoopSource::new(
                InterArrival::Exponential {
                    rate_rps: per_client_rate,
                },
                profile.connections_per_client,
            )),
            ControlLoop::ClosedSaturating => {
                Box::new(ClosedLoopSource::new(profile.connections_per_client))
            }
        };
        builder = builder.client(spec, source);
    }
    let run = builder.run();
    let warmup_time = SimTime::ZERO + warmup;

    // Pool across clients (holistic aggregation — every baseline does
    // this; it is pitfall §II-B but faithful to the originals).
    let raw: Vec<f64> = run.user_latencies_us(warmup_time);
    assert!(!raw.is_empty(), "{} collected no samples", profile.name);

    let (measured_latencies_us, clipped) = match profile.measurement {
        MeasurementStyle::RawSamples => (raw.clone(), 0),
        MeasurementStyle::StaticHistogram {
            lower_us,
            upper_us,
            bins,
        } => {
            let mut hist = StaticHistogram::new(lower_us, upper_us, bins);
            for &v in &raw {
                hist.record(v);
            }
            // Reconstruct what the tester believes its samples were:
            // quantile readout through the clipped bins.
            let n = raw.len();
            let values = (0..n)
                .map(|i| hist.quantile((i as f64 + 0.5) / n as f64))
                .collect();
            (values, hist.clipped())
        }
    };
    let measured = LatencySummary::from_samples(&measured_latencies_us);
    let ground_truth = PacketCapture::from_records(run.all_records(), warmup_time);
    // Throughput the tester actually sustained: responses delivered
    // within the sending window (a backlogged client delivers the rest
    // long after the test ends, which must not count).
    let achieved_rps =
        run.delivered_in_window as f64 / run.sending_stopped_at.as_secs_f64();
    BaselineReport {
        name: profile.name,
        measured,
        measured_latencies_us,
        clipped_samples: clipped,
        ground_truth,
        achieved_rps,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_workloads::Memcached;

    fn profile(control: ControlLoop, measurement: MeasurementStyle) -> TesterProfile {
        TesterProfile {
            name: "test",
            clients: 2,
            connections_per_client: 8,
            send_cpu_ns: 1_000.0,
            recv_cpu_ns: 1_000.0,
            control,
            measurement,
        }
    }

    fn run(profile: &TesterProfile, rps: f64) -> BaselineReport {
        run_profile(
            profile,
            Arc::new(Memcached::default()),
            rps,
            HardwareConfig::default(),
            SimDuration::from_millis(80),
            SimDuration::from_millis(20),
            3,
        )
    }

    #[test]
    fn open_loop_raw_profile_measures() {
        let report = run(
            &profile(ControlLoop::Open, MeasurementStyle::RawSamples),
            100_000.0,
        );
        assert!(report.measured.count > 1_000);
        assert_eq!(report.clipped_samples, 0);
        assert!((report.achieved_rps / 100_000.0 - 1.0).abs() < 0.1);
    }

    #[test]
    fn static_histogram_clips_the_tail() {
        let report = run(
            &profile(
                ControlLoop::Open,
                MeasurementStyle::StaticHistogram {
                    lower_us: 0.0,
                    upper_us: 80.0,
                    bins: 80,
                },
            ),
            400_000.0,
        );
        assert!(report.clipped_samples > 0, "bound chosen below the tail");
        assert!(report.measured.p99 <= 80.0, "clipped p99 cannot exceed bound");
        // Ground truth is unaffected by the tester's histogram.
        assert!(report.ground_truth.quantile_us(0.99) > 30.0);
    }

    #[test]
    fn closed_loop_throughput_is_response_gated() {
        let report = run(
            &profile(ControlLoop::Closed, MeasurementStyle::RawSamples),
            100_000.0,
        );
        assert!(report.measured.count > 1_000);
        // At 100k target with ample connections the schedule is mostly
        // respected.
        assert!((report.achieved_rps / 100_000.0 - 1.0).abs() < 0.15,
            "achieved {}", report.achieved_rps);
    }
}
