//! Extension experiment 3: quantifying the aggregation pitfall.
//!
//! §II-B's Figure 2 shows *that* a cross-rack client dominates the
//! pooled tail; this experiment quantifies the estimate error of
//! holistic pooling against the paper's per-instance aggregation, as
//! the outlier client's rack distance grows.

use treadmill_bench::{banner, cell, memcached, row, BenchArgs, LOW_LOAD_RPS};
use treadmill_cluster::{ClientSpec, ClusterBuilder};
use treadmill_core::{
    aggregation::latencies_per_client, holistic_summary, InterArrival, OpenLoopSource,
};
use treadmill_stats::summary::aggregate_mean;
use treadmill_stats::LatencySummary;

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Extension 3",
        "Holistic vs per-instance aggregation error vs outlier client distance",
        &args,
    );
    row([
        "outlier_rack",
        "per_instance_p99",
        "holistic_p99",
        "bias_us",
        "outlier_share_of_tail",
    ]);
    for rack in [0u8, 1, 2, 4] {
        let mut builder = ClusterBuilder::new(memcached())
            .seed(args.seed)
            .duration(args.duration());
        for i in 0..4 {
            builder = builder.client(
                ClientSpec {
                    rack: if i == 0 { rack } else { 0 },
                    ..Default::default()
                },
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential {
                        rate_rps: LOW_LOAD_RPS / 4.0,
                    },
                    16,
                )),
            );
        }
        let result = builder.run();
        let warmup_at = treadmill_sim_core::SimTime::ZERO + args.warmup();
        let mut per_client = latencies_per_client(&result.client_records, warmup_at);
        let summaries: Vec<LatencySummary> = per_client
            .iter()
            .map(|v| LatencySummary::from_samples(v))
            .collect();
        let correct = aggregate_mean(&summaries);
        let holistic = holistic_summary(&per_client);
        let composition = treadmill_core::tail_composition(&mut per_client, &[0.99]);
        row([
            rack.to_string(),
            cell(correct.p99, 1),
            cell(holistic.p99, 1),
            cell(holistic.p99 - correct.p99, 1),
            cell(composition[0].shares[0], 2),
        ]);
    }
    println!("# the holistic estimate tracks the worst client; the per-instance mean does not");
}
