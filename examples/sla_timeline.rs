//! Operator view: SLA attainment, latency timeline and steady-state
//! detection for one load test.
//!
//! ```sh
//! cargo run --release --example sla_timeline
//! ```

use std::sync::Arc;

use treadmill::cluster::{ClientSpec, ClusterBuilder};
use treadmill::core::timeline::{steady_state_onset, timeline};
use treadmill::core::{InterArrival, OpenLoopSource};
use treadmill::sim::{SimDuration, SimTime};
use treadmill::workloads::Memcached;

fn main() {
    let mut builder = ClusterBuilder::new(Arc::new(Memcached::default()))
        .seed(21)
        .duration(SimDuration::from_millis(400));
    for _ in 0..8 {
        builder = builder.client(
            ClientSpec::default(),
            Box::new(OpenLoopSource::new(
                InterArrival::Exponential {
                    rate_rps: 800_000.0 / 8.0,
                },
                16,
            )),
        );
    }
    let result = builder.run();

    // Latency over time, in 25ms windows.
    let windows = timeline(result.all_records(), SimDuration::from_millis(25));
    println!("window      requests   p50(us)   p99(us)");
    for w in &windows {
        if let Some(summary) = &w.summary {
            println!(
                "{:>6}ms  {:>9}   {:>7.1}   {:>7.1}",
                w.start.as_nanos() / 1_000_000,
                summary.count,
                summary.p50,
                summary.p99
            );
        }
    }
    match steady_state_onset(&windows, 0.10) {
        Some(i) => println!(
            "\nsteady state from window {i} (t = {}ms) — warm-up before that is discarded",
            windows[i].start.as_nanos() / 1_000_000
        ),
        None => println!("\nnever settled — lengthen the run"),
    }

    // SLA attainment at a few deadlines, measurement window only.
    let warmup = SimTime::from_millis(100);
    println!("\ndeadline   attainment");
    for deadline_us in [100u64, 150, 250, 500] {
        let attainment =
            result.sla_attainment(warmup, SimDuration::from_micros(deadline_us));
        println!("{deadline_us:>6}us   {:>8.3}%", attainment * 100.0);
    }
}
