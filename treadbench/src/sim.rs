//! `loadtest_high` and `sharded_1m`: repeated `LoadTest::run` of
//! Memcached, simulated open loop at a fixed rate.

use std::collections::BTreeMap;
use std::time::Instant;

use treadmill_core::LoadTestConfig;

use crate::replica::{self, RunDigest};
use crate::trace::Tracer;
use crate::{
    end_to_end, fastest, layer_metrics, median, note_timing, peak_rss_mb, Args, Outcome, Setups,
};

/// Run indices the measured loop cycles through, so every index repeats
/// and each repetition is checked against the first.
const CYCLE: u64 = 4;
/// Fewest measured operations, whatever the time budget.
const MIN_OPS: usize = 3;

/// One server at `HIGH_LOAD_RPS` (≈70% utilisation), 8 clients × 16
/// connections, default hardware.
pub fn loadtest_high(args: &Args) -> Outcome {
    // 100 ms is the shortest window whose layer shares match those of
    // the operator's default 600 ms (README.md has the comparison): a
    // shorter run overweights the per-run fixed cost of the report.
    let (duration_ms, warmup_ms) = args.window(if args.smoke { (10, 2) } else { (100, 20) });
    let json = format!(
        r#"{{"workload": {{"workload": "memcached"}}, "target_rps": 750000,
            "clients": 8, "connections_per_client": 16,
            "duration_ms": {duration_ms}, "warmup_ms": {warmup_ms}, "seed": {}}}"#,
        args.seed
    );
    run(args, &json, None)
}

/// 100 servers × 8 clients × 1250 connections = 1M connections, one
/// shard per server, every 4th connection remote. Timed at 1 thread,
/// then checked (and timed for the report) at min(nproc, servers)
/// threads. On a host with few cores an n-thread run needs every core
/// at once, so its time follows the neighbours' load (README.md).
pub fn sharded_1m(args: &Args) -> Outcome {
    let (servers, connections) = if args.smoke { (10, 50) } else { (100, 1250) };
    // A 10 ms window has the layer shares of perf_smoke's 30 ms one
    // (README.md), in a third of the time.
    let (duration_ms, warmup_ms) = args.window(if args.smoke { (5, 1) } else { (10, 3) });
    let json = format!(
        r#"{{"workload": {{"workload": "memcached"}}, "target_rps": 40000,
            "clients": 8, "connections_per_client": {connections},
            "servers": {servers}, "remote_every": 4, "threads": 1,
            "duration_ms": {duration_ms}, "warmup_ms": {warmup_ms}, "seed": {}}}"#,
        args.seed
    );
    run(args, &json, Some(args.threads().min(servers)))
}

/// Pins the first digest seen for `index` and checks later ones against
/// it. `corrupt` flips a bit of the pinned digest (negative control).
fn expect(
    out: &mut Outcome,
    reference: &mut BTreeMap<u64, RunDigest>,
    index: u64,
    digest: RunDigest,
    corrupt: bool,
) {
    match reference.get(&index) {
        Some(pinned) => out.check(
            *pinned == digest,
            &format!("run {index} repeats bit for bit"),
        ),
        None => {
            let mut pinned = digest;
            if corrupt && reference.is_empty() {
                pinned.p99_bits ^= 1;
            }
            reference.insert(index, pinned);
            out.check(true, "");
        }
    }
}

/// Times `json`'s runs on one thread; `parallel`, if given, is the
/// thread count the runs are then checked at, and timed for the report.
fn run(args: &Args, json: &str, parallel: Option<usize>) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = BTreeMap::new();

    // Set-up: parse the generated config, build the test, and run one
    // untimed warm-up of every run index in the cycle. The first set-up
    // pins the reference outputs; later ones are checked against them.
    let set_up = |out: &mut Outcome, reference: &mut BTreeMap<u64, RunDigest>| {
        let config = LoadTestConfig::from_json(json).expect("generated config parses");
        let test = config.build().expect("generated config builds");
        for index in 0..CYCLE {
            let digest = RunDigest::of(&test.run(index));
            expect(out, reference, index, digest, args.corrupt);
        }
        (config, test)
    };
    let mut setups = Setups::new();
    let (config, test) = setups.time(|| set_up(&mut out, &mut reference));
    let peak = peak_rss_mb("self");
    let workload = config.workload.build().expect("generated workload builds");

    let mut tr = Tracer::new();
    let mut events = Vec::new();
    let (mut plain_ms, mut traced_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = args.deadline();
    let mut op = 0u64;
    while plain_ms.len() < MIN_OPS || Instant::now() < deadline {
        if setups.due() {
            setups.time(|| set_up(&mut out, &mut reference));
        }
        let index = op % CYCLE;
        let start = Instant::now();
        let digest = RunDigest::of(&test.run(index));
        let secs = start.elapsed().as_secs_f64();
        plain_ms.push(secs * 1e3);
        rates.push(digest.window as f64 / secs);
        expect(&mut out, &mut reference, index, digest, args.corrupt);
        if args.trace {
            tr.set_op(op);
            let start = Instant::now();
            let replica = replica::run(&config, &workload, index, 1, &mut tr);
            traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
            events.push(replica.digest.events);
            out.check(
                replica.digest == digest,
                "traced replica reproduces the plain run",
            );
        }
        op += 1;
    }

    out.note(format!(
        "threads=1 servers={} ops={op}",
        config.servers
    ));
    note_timing(&mut out, "run_wall_ms", &plain_ms);
    if let Some(n) = parallel {
        // The determinism promise: n threads reproduce the 1-thread runs'
        // events and merged p99 bit for bit.
        let mut many = config.clone();
        many.threads = u32::try_from(n).expect("thread count fits u32");
        let test_n = many.build().expect("n-thread config builds");
        let mut wall_nt = f64::INFINITY;
        for index in 0..CYCLE {
            let start = Instant::now();
            let digest = RunDigest::of(&test_n.run(index));
            wall_nt = wall_nt.min(start.elapsed().as_secs_f64() * 1e3);
            out.check(
                reference.get(&index) == Some(&digest),
                "n threads match 1 thread",
            );
        }
        let wall_1t = fastest(&plain_ms);
        out.note(format!(
            "run_wall_ms_nt: fastest {wall_nt:.3} ms of {CYCLE} runs at {n} threads; \
             shard.speedup {:.3}",
            wall_1t / wall_nt
        ));
        if args.trace {
            let mut tr_nt = Tracer::new();
            let replica = replica::run(&config, &workload, 0, n, &mut tr_nt);
            out.check(
                Some(&replica.digest) == reference.get(&0),
                "n-thread replica matches",
            );
            out.note(format!(
                "layer shard.run_ms_1t {:.3} ms; shard.run_ms_nt {:.3} ms; shard.merge_ms {:.3} ms \
                 -> op_ms on sharded_1m only; loadtest_high must not move",
                median(&mut tr.per_op_ms("engine.run")),
                tr_nt.total_ms("engine.run"),
                median(&mut tr.per_op_ms("cluster.extract")),
            ));
        }
    }

    if args.trace {
        layer_metrics(args, &mut out, &tr, &events, &plain_ms, &traced_ms);
    } else {
        end_to_end(
            &mut out,
            &setups.secs,
            fastest(&plain_ms),
            rates.iter().copied().fold(0.0, f64::max),
            peak,
        );
    }
    out
}
