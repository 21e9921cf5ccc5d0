//! Extension 9: fault-injection sweep — how injected packet loss and
//! server stalls move the measured tail, and how client-side timeouts /
//! retries / hedging recover (or censor) it.
//!
//! Sweeps uplink-loss and stall-rate levels at a fixed load, once with
//! a passive client and once with a timeout+retry policy, and prints
//! p50/p99, loss fraction and the fault counters for every point.
//! `--quick` runs 60 ms experiments over 2 loss × 2 stall levels; the
//! default and `--paper` run 250 ms experiments over 4 × 3.
//!
//! The fault layer's invariants (free when off, reproducible when on,
//! injecting when active, graceful attribution over missing cells) are
//! pinned by tests, not by this binary.

use std::sync::Arc;

use treadmill_bench::{banner, cell, row, BenchArgs, Scale};
use treadmill_cluster::{FaultSpec, RetryPolicy};
use treadmill_core::{LoadTest, LoadTestReport};
use treadmill_sim_core::SimDuration;
use treadmill_workloads::Memcached;

fn base_test(seed: u64, duration_ms: u64) -> LoadTest {
    LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
        .clients(4)
        .duration(SimDuration::from_millis(duration_ms))
        .warmup(SimDuration::from_millis(duration_ms / 4))
        .seed(seed)
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        timeout_us: 2_000.0,
        max_retries: 2,
        hedge_after_us: 1_500.0,
        ..Default::default()
    }
}

fn point(policy: &str, loss: f64, stall_hz: f64, report: &LoadTestReport) {
    let faults = &report.run.fault_summary;
    row([
        policy.to_string(),
        cell(loss, 2),
        cell(stall_hz, 0),
        cell(report.aggregated.p50, 3),
        cell(report.aggregated.p99, 3),
        cell(report.loss_fraction(), 6),
        faults.total_drops().to_string(),
        faults.retries.to_string(),
        faults.hedges.to_string(),
        faults.timeouts.to_string(),
        faults.failed_requests.to_string(),
    ]);
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Extension 9",
        "Tail latency under injected loss and stalls, passive vs retrying client \
         (memcached, 250k RPS)",
        &args,
    );
    let (duration_ms, losses, stalls): (u64, &[f64], &[f64]) = match args.scale {
        Scale::Quick => (60, &[0.0, 0.05], &[0.0, 200.0]),
        Scale::Default | Scale::Paper => (250, &[0.0, 0.01, 0.05, 0.10], &[0.0, 100.0, 500.0]),
    };
    row([
        "policy",
        "uplink_loss",
        "stall_rate_hz",
        "p50_us",
        "p99_us",
        "loss_fraction",
        "drops",
        "retries",
        "hedges",
        "timeouts",
        "failed_requests",
    ]);
    for &loss in losses {
        for &stall_hz in stalls {
            let spec = FaultSpec {
                uplink_loss: loss,
                downlink_loss: loss / 2.0,
                stall_rate_hz: stall_hz,
                stall_us: 500.0,
                ..Default::default()
            };
            let passive = base_test(args.seed, duration_ms).faults(spec).run(0);
            point("passive", loss, stall_hz, &passive);
            let robust = base_test(args.seed, duration_ms)
                .faults(spec)
                .retry_policy(retry_policy())
                .run(0);
            point("robust", loss, stall_hz, &robust);
        }
    }
}
