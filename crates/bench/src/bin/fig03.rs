//! Figure 3: latency decomposition (server / client / network) vs
//! server utilisation for single-client and multi-client setups.

use treadmill_bench::{banner, cell, row, BenchArgs};
use treadmill_cluster::{ClientSpec, ClusterBuilder, ResponseRecord};
use treadmill_core::{InterArrival, OpenLoopSource};
use treadmill_sim_core::SimTime;

struct Decomposition {
    server: f64,
    client: f64,
    network: f64,
    client_p95: f64,
}

fn run_setup(args: &BenchArgs, rps: f64, clients: usize, per_op_ns: f64) -> Decomposition {
    let mut builder = ClusterBuilder::new(treadmill_bench::memcached())
        .seed(args.seed)
        .duration(args.duration());
    for _ in 0..clients {
        builder = builder.client(
            ClientSpec {
                send_cpu_ns: per_op_ns,
                recv_cpu_ns: per_op_ns,
                ..Default::default()
            },
            Box::new(OpenLoopSource::new(
                InterArrival::Exponential {
                    rate_rps: rps / clients as f64,
                },
                16,
            )),
        );
    }
    let result = builder.run();
    let warmup = SimTime::ZERO + args.warmup();
    let records: Vec<ResponseRecord> = result
        .all_records()
        .filter(|r| r.t_generated >= warmup)
        .collect();
    let n = records.len() as f64;
    let client_components: Vec<f64> =
        records.iter().map(|r| r.client_time_us()).collect();
    Decomposition {
        server: records.iter().map(|r| r.server_time_us()).sum::<f64>() / n,
        client: client_components.iter().sum::<f64>() / n,
        network: records.iter().map(|r| r.network_time_us()).sum::<f64>() / n,
        client_p95: treadmill_stats::quantile::quantile(&client_components, 0.95),
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Figure 3",
        "Mean latency decomposition vs utilisation: single-client vs multi-client",
        &args,
    );
    row([
        "setup",
        "utilisation",
        "server_us",
        "client_us",
        "client_p95_us",
        "network_us",
    ]);
    for util_pct in [70, 75, 80, 85, 90, 95] {
        let rps = 10_000.0 * f64::from(util_pct);
        // Single-client setup: one machine whose CPU capacity matches the
        // server's (per-op cost such that client util tracks server util).
        let single = run_setup(&args, rps, 1, 500.0);
        row([
            "single-client".to_string(),
            format!("{util_pct}%"),
            cell(single.server, 1),
            cell(single.client, 1),
            cell(single.client_p95, 1),
            cell(single.network, 1),
        ]);
    }
    for util_pct in [70, 75, 80, 85, 90, 95] {
        let rps = 10_000.0 * f64::from(util_pct);
        let multi = run_setup(&args, rps, 8, 800.0);
        row([
            "multi-client".to_string(),
            format!("{util_pct}%"),
            cell(multi.server, 1),
            cell(multi.client, 1),
            cell(multi.client_p95, 1),
            cell(multi.network, 1),
        ]);
    }
}
