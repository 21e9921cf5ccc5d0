//! Property-based integration tests: invariants that must hold for any
//! hardware configuration, seed and (sane) load.

// Integration tests exercise the public API end-to-end: unwrap on
// already-validated setup and exact float comparison (bit-identity is
// the property under test) are the point here, not defects.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)]

use std::sync::Arc;

use proptest::prelude::*;
use treadmill::cluster::{ClientSpec, ClusterBuilder, HardwareConfig, InterArrival, OpenLoopSource};
use treadmill::sim::{SimDuration, SimTime};
use treadmill::workloads::Memcached;

fn run_cluster(config_index: usize, seed: u64, rate: f64) -> treadmill::cluster::RunResult {
    ClusterBuilder::new(Arc::new(Memcached::default()))
        .seed(seed)
        .hardware(HardwareConfig::from_index(config_index))
        .client(
            ClientSpec::default(),
            Box::new(OpenLoopSource::new(InterArrival::Exponential { rate_rps: rate }, 16)),
        )
        .duration(SimDuration::from_millis(25))
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn request_timestamps_are_causally_ordered(
        config in 0usize..16,
        seed in 0u64..1_000,
        rate in 50_000.0f64..500_000.0,
    ) {
        let result = run_cluster(config, seed, rate);
        prop_assert!(result.total_responses() > 0);
        for record in result.all_records() {
            prop_assert!(record.t_nic_out >= record.t_generated);
            prop_assert!(record.t_nic_in > record.t_nic_out);
            prop_assert!(record.t_delivered >= record.t_nic_in);
            prop_assert!(record.user_latency_us() >= record.nic_latency_us());
            prop_assert!(record.server_time_us() >= 0.0);
            prop_assert!(record.network_time_us() > 0.0);
        }
    }

    #[test]
    fn utilisations_are_fractions(
        config in 0usize..16,
        seed in 0u64..1_000,
    ) {
        let result = run_cluster(config, seed, 300_000.0);
        prop_assert!(result.server_utilization >= 0.0);
        prop_assert!(result.server_utilization <= 1.0);
        for &u in &result.client_cpu_utilization {
            prop_assert!((0.0..=1.0).contains(&u));
        }
        for core in &result.per_core {
            prop_assert!((0.0..=1.0).contains(&core.utilization));
            prop_assert!(core.final_freq_ghz >= 1.2 && core.final_freq_ghz <= 3.0);
        }
    }

    #[test]
    fn every_sent_request_completes(
        config in 0usize..16,
        seed in 0u64..1_000,
    ) {
        // The cluster drains after the sending window: conservation of
        // requests (nothing lost, nothing duplicated).
        let result = run_cluster(config, seed, 200_000.0);
        let ids: std::collections::HashSet<_> =
            result.all_records().map(|r| r.id).collect();
        prop_assert_eq!(ids.len(), result.total_responses(), "duplicate ids");
        // Roughly rate × window requests (Poisson noise allowed).
        let expected = 200_000.0 * 0.025;
        let actual = result.total_responses() as f64;
        prop_assert!((actual / expected - 1.0).abs() < 0.25, "{actual} vs {expected}");
    }

    #[test]
    fn warmup_monotone_in_sample_count(
        seed in 0u64..100,
        warmup_ms in 1u64..20,
    ) {
        let result = run_cluster(0, seed, 200_000.0);
        let warmup = SimTime::from_millis(warmup_ms);
        let all = result.user_latencies_us(SimTime::ZERO).len();
        let filtered = result.user_latencies_us(warmup).len();
        prop_assert!(filtered <= all);
        let longer = result.user_latencies_us(warmup + SimDuration::from_millis(2)).len();
        prop_assert!(longer <= filtered);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn per_instance_aggregate_is_bounded_by_extremes(
        seed in 0u64..200,
        clients in 2usize..5,
    ) {
        use treadmill::core::LoadTest;
        let report = LoadTest::new(Arc::new(Memcached::default()), 200_000.0)
            .clients(clients)
            .duration(SimDuration::from_millis(40))
            .warmup(SimDuration::from_millis(10))
            .seed(seed)
            .run(0);
        let p99s: Vec<f64> = report.per_instance.iter().map(|s| s.p99).collect();
        let lo = p99s.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = p99s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(report.aggregated.p99 >= lo - 1e-9);
        prop_assert!(report.aggregated.p99 <= hi + 1e-9);
    }
}
