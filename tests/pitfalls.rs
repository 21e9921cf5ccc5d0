//! The four pitfalls of §II, each reproduced as an integration test:
//! wrong inter-arrival generation, broken statistical aggregation,
//! client-side queueing bias, and performance hysteresis.

// Integration tests exercise the public API end-to-end: unwrap on
// already-validated setup and exact float comparison (bit-identity is
// the property under test) are the point here, not defects.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)]

use std::sync::Arc;

use treadmill::baselines::{cloudsuite, mutilate, run_profile, treadmill_shape};
use treadmill::cluster::{ClientSpec, ClusterBuilder, HardwareConfig};
use treadmill::core::{
    holistic_summary, tail_composition, ClosedLoopSource, InterArrival, LoadTest,
    OpenLoopSource,
};
use treadmill::sim::{SimDuration, SimTime};
use treadmill::stats::{LatencySummary, StaticHistogram};
use treadmill::workloads::Memcached;

fn workload() -> Arc<Memcached> {
    Arc::new(Memcached::default())
}

#[test]
fn pitfall_1_closed_loop_caps_outstanding_requests() {
    let run = |source: Box<dyn treadmill::cluster::TrafficSource>| {
        ClusterBuilder::new(workload())
            .seed(5)
            .client(
                ClientSpec {
                    connections: 16,
                    ..Default::default()
                },
                source,
            )
            .duration(SimDuration::from_millis(80))
            .sample_outstanding(true)
            .run()
    };
    let closed = run(Box::new(ClosedLoopSource::new(8)));
    let open = run(Box::new(OpenLoopSource::new(
        InterArrival::Exponential {
            rate_rps: 400_000.0,
        },
        16,
    )));
    let max = |r: &treadmill::cluster::RunResult| {
        r.outstanding.iter().map(|&(_, n)| n).max().unwrap()
    };
    assert!(max(&closed) <= 8, "closed loop leaked past its cap");
    assert!(
        max(&open) > 20,
        "open loop must expose unbounded queueing, saw {}",
        max(&open)
    );
}

#[test]
fn pitfall_2_static_histogram_and_holistic_aggregation_bias() {
    // Static bins clip the tail ...
    let mut hist = StaticHistogram::new(0.0, 200.0, 200);
    let samples: Vec<f64> = (0..10_000)
        .map(|i| if i % 100 == 0 { 900.0 } else { 50.0 })
        .collect();
    for &v in &samples {
        hist.record(v);
    }
    let clipped_p999 = hist.quantile(0.999);
    let true_p999 = LatencySummary::from_samples(&samples).p999;
    assert!(clipped_p999 <= 200.0);
    assert!(true_p999 >= 900.0, "true p99.9 {true_p999}");

    // ... and pooling clients hides which client owns the tail.
    let mut per_client = vec![
        (0..1_000).map(|i| 100.0 + f64::from(i % 10)).collect::<Vec<f64>>(),
        (0..1_000).map(|i| 100.0 + f64::from(i % 10)).collect(),
        (0..1_000).map(|i| 500.0 + f64::from(i % 10)).collect(),
    ];
    let pooled = holistic_summary(&per_client);
    assert!(pooled.p99 > 490.0, "pooled p99 rides the outlier client");
    let composition = tail_composition(&mut per_client, &[0.99]);
    assert!(
        composition[0].shares[2] > 0.9,
        "the decomposition identifies the guilty client: {:?}",
        composition[0].shares
    );
}

#[test]
fn pitfall_3_single_heavy_client_biases_the_tail() {
    let cs = run_profile(
        &cloudsuite(),
        workload(),
        100_000.0,
        HardwareConfig::default(),
        SimDuration::from_millis(100),
        SimDuration::from_millis(25),
        6,
    );
    let tm = run_profile(
        &treadmill_shape(),
        workload(),
        100_000.0,
        HardwareConfig::default(),
        SimDuration::from_millis(100),
        SimDuration::from_millis(25),
        6,
    );
    let cs_err = cs.measured.p99 - cs.ground_truth.quantile_us(0.99);
    let tm_err = tm.measured.p99 - tm.ground_truth.quantile_us(0.99);
    assert!(
        cs_err > tm_err + 20.0,
        "single heavy client must add visible bias: {cs_err} vs {tm_err}"
    );
}

#[test]
fn pitfall_4_hysteresis_across_restarts() {
    let test = LoadTest::new(workload(), 700_000.0)
        .hardware(HardwareConfig::from_index(1)) // interleave NUMA
        .clients(4)
        .duration(SimDuration::from_millis(120))
        .warmup(SimDuration::from_millis(30))
        .seed(12);
    let p99s: Vec<f64> = (0..5).map(|i| test.run(i).aggregated.p99).collect();
    let min = p99s.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = p99s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max / min > 1.02,
        "restarts must not converge to one value: {p99s:?}"
    );
}

#[test]
fn mutilate_closed_loop_underestimates_under_pressure() {
    let mu = run_profile(
        &mutilate(),
        workload(),
        950_000.0,
        HardwareConfig::default(),
        SimDuration::from_millis(150),
        SimDuration::from_millis(40),
        7,
    );
    let tm = run_profile(
        &treadmill_shape(),
        workload(),
        950_000.0,
        HardwareConfig::default(),
        SimDuration::from_millis(150),
        SimDuration::from_millis(40),
        7,
    );
    assert!(
        tm.measured.p99 > mu.measured.p99,
        "open loop must expose a heavier tail"
    );
    assert!(
        mu.achieved_rps < tm.achieved_rps,
        "closed loop falls behind the schedule"
    );
}

#[test]
fn warmup_filtering_is_applied() {
    let report = LoadTest::new(workload(), 100_000.0)
        .clients(2)
        .duration(SimDuration::from_millis(100))
        .warmup(SimDuration::from_millis(50))
        .seed(8)
        .run(0);
    let warmup = SimTime::ZERO + SimDuration::from_millis(50);
    let all = report.run.total_responses();
    let measured = report
        .run
        .all_records()
        .filter(|r| r.t_generated >= warmup)
        .count();
    assert!(measured < all, "warm-up samples must be discarded");
    assert_eq!(report.ground_truth.len(), measured);
}
