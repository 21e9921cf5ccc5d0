//! A Treadmill instance: per-client online latency aggregation.

use std::borrow::Borrow;

use treadmill_cluster::ResponseRecord;
use treadmill_sim_core::SimTime;
use treadmill_stats::{AdaptiveHistogram, LatencySummary};

use crate::phases::PhaseConfig;

/// Configuration for a [`TreadmillInstance`].
///
/// Every measurement-phase response is recorded. §II-B samples to bound
/// the measurement overhead of a real load tester; a simulated one pays
/// no such overhead.
#[derive(Debug, Clone, Default)]
pub struct InstanceConfig {
    /// Phase (warm-up) configuration.
    pub phases: PhaseConfig,
}

/// One Treadmill instance's measurement pipeline: discards warm-up
/// samples, calibrates an adaptive histogram, then aggregates latency
/// online, and finally reports per-instance metrics for cross-instance
/// aggregation (§III-B).
///
/// # Examples
///
/// ```
/// use treadmill_core::{InstanceConfig, TreadmillInstance};
///
/// let instance = TreadmillInstance::new(InstanceConfig::default());
/// assert_eq!(instance.samples(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TreadmillInstance {
    config: InstanceConfig,
    histogram: AdaptiveHistogram,
}

impl TreadmillInstance {
    /// Creates an empty instance.
    pub fn new(config: InstanceConfig) -> Self {
        TreadmillInstance {
            histogram: AdaptiveHistogram::new(),
            config,
        }
    }

    /// Observes one completed request. Samples generated during warm-up
    /// are discarded; the rest feed the adaptive histogram.
    pub fn observe(&mut self, record: &ResponseRecord) {
        if record.t_generated < SimTime::ZERO + self.config.phases.warmup {
            return;
        }
        self.histogram.record(record.user_latency_us());
    }

    /// Observes a batch of records: a client's
    /// [`RecordStore`](treadmill_cluster::RecordStore), or a slice.
    pub fn observe_all(&mut self, records: impl IntoIterator<Item = impl Borrow<ResponseRecord>>) {
        for record in records {
            self.observe(record.borrow());
        }
    }

    /// Measurement samples aggregated so far (excluding warm-up).
    pub fn samples(&self) -> u64 {
        self.histogram.count()
    }

    /// This instance's latency summary — the per-client metrics that
    /// the multi-instance procedure aggregates.
    ///
    /// # Panics
    ///
    /// Panics if no measurement samples have been observed.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_cluster::{Request, RequestId};
    use treadmill_sim_core::SimDuration;
    use treadmill_workloads::{OpClass, RequestProfile};

    fn record(gen_us: u64, latency_us: u64) -> ResponseRecord {
        let mut req = Request::new(
            RequestId(gen_us),
            0,
            0,
            RequestProfile {
                class: OpClass::Read,
                request_bytes: 64,
                response_bytes: 64,
                cpu_ns: 1.0,
                mem_ns: 1.0,
            },
            SimTime::from_micros(gen_us),
        );
        req.t_delivered = SimTime::from_micros(gen_us + latency_us);
        req.t_client_nic_out = req.t_generated;
        req.t_client_nic_in = req.t_delivered;
        req.t_server_nic_in = req.t_generated;
        req.t_server_nic_out = req.t_delivered;
        ResponseRecord::from_request(&req)
    }

    fn config(warmup_ms: u64) -> InstanceConfig {
        InstanceConfig {
            phases: PhaseConfig {
                warmup: SimDuration::from_millis(warmup_ms),
            },
        }
    }

    #[test]
    fn warmup_samples_discarded() {
        let mut inst = TreadmillInstance::new(config(1));
        inst.observe(&record(500, 100)); // 0.5ms < 1ms warm-up
        inst.observe(&record(1_500, 100));
        assert_eq!(inst.samples(), 1);
    }

    #[test]
    fn summary_reflects_observations() {
        let mut inst = TreadmillInstance::new(config(0));
        for i in 0..1_000 {
            inst.observe(&record(i * 10, 100 + (i % 100)));
        }
        let summary = inst.summary();
        assert_eq!(summary.count, 1_000);
        assert!(summary.p50 >= 100.0 && summary.p50 <= 200.0);
        assert!(summary.p99 >= summary.p50);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_of_empty_instance_panics() {
        TreadmillInstance::new(InstanceConfig::default()).summary();
    }
}
