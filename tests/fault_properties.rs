//! Property tests for the fault-injection subsystem: determinism under
//! faults, the zero-cost guarantee when faults are configured but
//! inactive, and bounded retry budgets.

// Integration tests exercise the public API end-to-end: unwrap on
// already-validated setup and exact float comparison (bit-identity is
// the property under test) are the point here, not defects.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)]

use std::sync::Arc;

use proptest::prelude::*;
use treadmill::cluster::{
    ClientSpec, ClusterBuilder, FaultSpec, InterArrival, OpenLoopSource, RetryPolicy, RunResult,
};
use treadmill::sim::SimDuration;
use treadmill::workloads::Memcached;

fn base(seed: u64, rate: f64) -> ClusterBuilder {
    ClusterBuilder::new(Arc::new(Memcached::default()))
        .seed(seed)
        .client(
            ClientSpec::default(),
            Box::new(OpenLoopSource::new(InterArrival::Exponential { rate_rps: rate }, 16)),
        )
        .duration(SimDuration::from_millis(25))
}

fn latency_bits(result: &RunResult) -> Vec<u64> {
    result
        .all_records()
        .map(|r| r.user_latency_us().to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + same fault plan ⇒ bit-identical latencies, the same
    /// fault counters and the same failure set.
    #[test]
    fn faulty_runs_are_bit_reproducible(
        seed in 0u64..1_000,
        loss in 0.0f64..0.2,
        stall_hz in 0.0f64..500.0,
    ) {
        let spec = FaultSpec {
            uplink_loss: loss,
            downlink_loss: loss / 2.0,
            stall_rate_hz: stall_hz,
            stall_us: 400.0,
            crash_rate_hz: 4.0,
            ..Default::default()
        };
        let policy = RetryPolicy {
            timeout_us: 1_500.0,
            max_retries: 2,
            hedge_after_us: 1_000.0,
            ..Default::default()
        };
        let a = base(seed, 200_000.0).faults(spec).retry_policy(policy).run();
        let b = base(seed, 200_000.0).faults(spec).retry_policy(policy).run();
        prop_assert_eq!(latency_bits(&a), latency_bits(&b));
        prop_assert_eq!(a.fault_summary, b.fault_summary);
        prop_assert_eq!(a.total_failures(), b.total_failures());
        prop_assert_eq!(a.events_executed, b.events_executed);
    }

    /// A zero-probability fault spec plus a disabled retry policy must
    /// be indistinguishable from the engine with no fault layer at all:
    /// no extra events, no extra RNG draws, identical bits.
    #[test]
    fn zero_probability_faults_change_nothing(
        seed in 0u64..1_000,
        rate in 50_000.0f64..400_000.0,
    ) {
        let plain = base(seed, rate).run();
        let gated = base(seed, rate)
            .faults(FaultSpec::default())
            .retry_policy(RetryPolicy::default())
            .run();
        prop_assert_eq!(latency_bits(&plain), latency_bits(&gated));
        prop_assert_eq!(plain.events_executed, gated.events_executed);
        prop_assert_eq!(plain.total_responses(), gated.total_responses());
        prop_assert!(gated.fault_summary.is_quiet());
        prop_assert_eq!(gated.total_failures(), 0);
    }

    /// The retry budget is a hard cap: no response or failure can record
    /// more than `max_retries + 1` attempts, and failures censor at a
    /// non-negative elapsed time. An active loss rate must also inject
    /// drops: a fault layer that silently does nothing would pass the
    /// cap vacuously.
    #[test]
    fn retry_budget_is_bounded(
        seed in 0u64..1_000,
        loss in 0.05f64..0.3,
        max_retries in 0u32..4,
    ) {
        let spec = FaultSpec { uplink_loss: loss, ..Default::default() };
        let policy = RetryPolicy {
            timeout_us: 1_000.0,
            max_retries,
            ..Default::default()
        };
        let result = base(seed, 150_000.0).faults(spec).retry_policy(policy).run();
        prop_assert!(result.fault_summary.total_drops() > 0, "fault config injected nothing");
        for record in result.all_records() {
            prop_assert!(record.attempts >= 1);
            prop_assert!(record.attempts <= max_retries + 1);
        }
        for failures in &result.client_failures {
            for failure in failures {
                prop_assert_eq!(failure.attempts, max_retries + 1);
                prop_assert!(failure.censored_latency_us() >= 0.0);
            }
        }
    }
}
