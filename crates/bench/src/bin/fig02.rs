//! Figure 2: per-client decomposition of the pooled latency
//! distribution — the cross-rack client dominates the high quantiles.

use treadmill_bench::{banner, cell, row, BenchArgs, LOW_LOAD_RPS};
use treadmill_cluster::{ClientSpec, ClusterBuilder};
use treadmill_core::{
    aggregation::latencies_per_client, tail_composition, InterArrival, OpenLoopSource,
};

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Figure 2",
        "Share of pooled-tail samples contributed by each client (client 1 is cross-rack)",
        &args,
    );
    let per_client_rate = LOW_LOAD_RPS / 4.0;
    let mut builder = ClusterBuilder::new(treadmill_bench::memcached())
        .seed(args.seed)
        .duration(args.duration());
    for i in 0..4 {
        let rack = if i == 0 { 2 } else { 0 }; // client 1 on a remote rack
        builder = builder.client(
            ClientSpec {
                rack,
                ..Default::default()
            },
            Box::new(OpenLoopSource::new(
                InterArrival::Exponential {
                    rate_rps: per_client_rate,
                },
                16,
            )),
        );
    }
    let result = builder.run();
    let warmup_at = treadmill_sim_core::SimTime::ZERO + args.warmup();
    let mut per_client = latencies_per_client(&result.client_records, warmup_at);
    let quantiles = [0.50, 0.90, 0.95, 0.99, 0.999];
    let rows = tail_composition(&mut per_client, &quantiles);
    row(["quantile", "latency_us", "client1", "client2", "client3", "client4"]);
    for entry in &rows {
        let mut fields = vec![cell(entry.quantile, 3), cell(entry.latency_us, 1)];
        fields.extend(entry.shares.iter().map(|&s| cell(s, 3)));
        row(fields);
    }
    let p999 = rows.last().expect("quantiles nonempty");
    println!(
        "# cross-rack client's share of the 99.9th-percentile tail: {:.0}%",
        p999.shares[0] * 100.0
    );
}
