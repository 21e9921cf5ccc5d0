//! Golden-seed pinning: the event queue, record pipeline and RNG
//! streams together define the simulation's output bit-for-bit. These
//! tests freeze one run's summary so hot-path refactors (queue swaps,
//! buffer reuse) can prove they did not change observable behaviour.
//!
//! If a change *intends* to alter results (new RNG, different physics),
//! update the constants in the same commit and say why:
//! `load_test_run_zero_is_bit_stable` fails with every drifted constant
//! as a line ready to paste.

// Integration tests exercise the public API end-to-end: unwrap on
// already-validated setup and exact float comparison (bit-identity is
// the property under test) are the point here, not defects.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)]

use std::sync::Arc;

use treadmill::core::LoadTest;
use treadmill::sim::SimDuration;
use treadmill::workloads::Memcached;

fn golden_test() -> LoadTest {
    LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
        .clients(4)
        .duration(SimDuration::from_millis(120))
        .warmup(SimDuration::from_millis(30))
        .seed(42)
}

/// A pinned count: `(source text, observed, pinned)`.
macro_rules! count {
    ($observed:expr, $pinned:expr) => {
        (
            stringify!($observed),
            u64::try_from($observed).unwrap(),
            $pinned,
        )
    };
}

#[test]
fn load_test_run_zero_is_bit_stable() {
    let report = golden_test().run(0);
    let agg = &report.aggregated;
    // Captured from the pre-refactor BinaryHeap event queue; the indexed
    // 4-ary queue must reproduce these bits exactly (FIFO tie-break and
    // RNG draw order are load-bearing).
    let golden: &[(&str, f64, u64)] = &[
        ("mean", agg.mean, 0x40501c2ac227e8da),
        ("p50", agg.p50, 0x404dd74f1448d80b),
        ("p90", agg.p90, 0x4054369d4cff4238),
        ("p95", agg.p95, 0x4057610074c6b6e9),
        ("p99", agg.p99, 0x4061dba25512ec6a),
        ("p999", agg.p999, 0x406b8673114d2f5c),
        ("min", agg.min, 0x40461d4fdf3b645a),
        ("max", agg.max, 0x40768db645a1cac1),
    ];
    let counts: &[(&str, u64, u64)] = &[
        count!(agg.count, 22_378),
        count!(report.run.total_responses(), 29_839),
        count!(report.run.events_executed, 298_547),
        count!(report.pooled_latencies().len(), 22_378),
        count!(report.ground_truth.len(), 22_378),
    ];
    // Every drifted constant at once, each as the line that pins its
    // new value, so an intended change is one paste rather than one
    // rerun per constant.
    let mut drifted = Vec::new();
    for &(name, value, bits) in golden {
        if value.to_bits() != bits {
            drifted.push(format!(
                "        (\"{name}\", agg.{name}, 0x{:016x}), // {value:?}, was 0x{bits:016x}",
                value.to_bits()
            ));
        }
    }
    for &(observed, value, pinned) in counts {
        if value != pinned {
            drifted.push(format!(
                "        count!({observed}, {value}), // was {pinned}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} golden constant(s) drifted; if the change is intended, paste these \
         lines over their old ones and say why in the commit:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn zero_fault_config_keeps_the_golden_bits() {
    use treadmill::cluster::{FaultSpec, RetryPolicy};
    // Configuring the fault layer with all-zero probabilities and a
    // disabled retry policy must not perturb a single golden bit: the
    // fault-off path schedules no events and draws no RNG.
    let report = golden_test()
        .faults(FaultSpec::default())
        .retry_policy(RetryPolicy::default())
        .run(0);
    let agg = &report.aggregated;
    assert_eq!(agg.p50.to_bits(), 0x404dd74f1448d80b);
    assert_eq!(agg.p99.to_bits(), 0x4061dba25512ec6a);
    assert_eq!(agg.max.to_bits(), 0x40768db645a1cac1);
    assert_eq!(agg.count, 22_378);
    assert_eq!(report.run.total_responses(), 29_839);
    assert_eq!(report.run.events_executed, 298_547);
    assert!(report.run.fault_summary.is_quiet());
    assert_eq!(report.run.total_failures(), 0);
}

#[test]
fn checkpoint_resume_reproduces_the_golden_bits() {
    use treadmill::core::ResumableRun;
    // Kill-and-resume must land on the exact pinned bits: step partway,
    // snapshot, abandon the engine ("crash"), restore onto a freshly
    // built engine, finish. Any state the snapshot misses — an RNG
    // stream position, a queue tie-break, a fault cursor — shows up
    // here as a drifted bit.
    let mut segment = Vec::new();
    let envelope = {
        let mut run = ResumableRun::new(golden_test(), 0);
        run.step(123_456);
        run.checkpoint(&mut segment).unwrap()
    };
    let mut resumed =
        ResumableRun::resume(golden_test(), 0, &envelope, segment.as_slice()).unwrap();
    while resumed.step(50_000) > 0 {}
    let report = resumed.finish();
    let agg = &report.aggregated;
    assert_eq!(agg.p50.to_bits(), 0x404dd74f1448d80b);
    assert_eq!(agg.p99.to_bits(), 0x4061dba25512ec6a);
    assert_eq!(agg.max.to_bits(), 0x40768db645a1cac1);
    assert_eq!(agg.count, 22_378);
    assert_eq!(report.run.total_responses(), 29_839);
    assert_eq!(report.run.events_executed, 298_547);
    assert!(report.run.audit_findings.is_empty());
}

#[test]
fn checkpoint_bytes_are_pinned() {
    use treadmill::core::ResumableRun;
    use treadmill::sim::snapshot::fnv1a64;
    // The on-disk bytes of a checkpoint, not just what it restores to:
    // a writer or codec refactor that keeps resume working but moves a
    // byte of the envelope or the record segment fails here.
    let mut segment = Vec::new();
    let mut run = ResumableRun::new(golden_test(), 0);
    run.step(100_000);
    run.checkpoint(&mut segment).unwrap();
    run.step(100_000);
    let envelope = run.checkpoint(&mut segment).unwrap();
    let counts: &[(&str, u64, u64)] = &[
        count!(envelope.len(), 4_399),
        // The queue section lists pending events in ascending key order,
        // which every version-5 reader restores (a sorted array is also a
        // valid 4-ary heap, the layout earlier writers used).
        count!(fnv1a64(&envelope), 0x58f2_c460_2d58_4bd7),
        count!(segment.len(), 1_358_784),
        count!(fnv1a64(&segment), 0xc4aa_aa4c_05e9_4c48),
    ];
    let drifted: Vec<String> = counts
        .iter()
        .filter(|&&(_, value, pinned)| value != pinned)
        .map(|&(observed, value, pinned)| {
            if observed.starts_with("fnv1a64") {
                format!("        count!({observed}, 0x{value:016x}), // was 0x{pinned:016x}")
            } else {
                format!("        count!({observed}, {value}), // was {pinned}")
            }
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{} checkpoint constant(s) drifted; if the format change is intended, \
         bump SNAPSHOT_VERSION, paste these lines over their old ones and say why \
         in the commit:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

fn sharded_golden_test(threads: u32) -> LoadTest {
    LoadTest::new(Arc::new(Memcached::default()), 150_000.0)
        .clients(2)
        .duration(SimDuration::from_millis(80))
        .warmup(SimDuration::from_millis(20))
        .seed(42)
        .servers(4)
        .remote_every(4)
        .threads(threads)
}

#[test]
fn sharded_run_is_bit_identical_across_thread_counts() {
    // The headline guarantee of the parallel executor: thread count is
    // a pure performance knob. Same seed → same bits at 1, 2 and 8
    // workers, down to every individual record.
    let base = sharded_golden_test(1).run(0);
    assert_eq!(base.run.client_records.len(), 8, "4 servers × 2 clients");
    assert!(base.run.total_responses() > 0);
    for threads in [2u32, 8] {
        let report = sharded_golden_test(threads).run(0);
        assert_eq!(
            report.aggregated.p50.to_bits(),
            base.aggregated.p50.to_bits(),
            "p50 drifted at {threads} threads"
        );
        assert_eq!(
            report.aggregated.p99.to_bits(),
            base.aggregated.p99.to_bits(),
            "p99 drifted at {threads} threads"
        );
        assert_eq!(
            report.aggregated.max.to_bits(),
            base.aggregated.max.to_bits(),
            "max drifted at {threads} threads"
        );
        assert_eq!(report.aggregated.count, base.aggregated.count);
        assert_eq!(report.per_instance, base.per_instance);
        assert_eq!(report.run.client_records, base.run.client_records);
        assert_eq!(report.run.events_executed, base.run.events_executed);
        assert_eq!(report.run.completed_at, base.run.completed_at);
    }
}

#[test]
fn threshold_zero_screened_sweep_matches_full_factorial_bytes() {
    use std::fs;
    use treadmill::core::{
        run_factorial_sweep_controlled, LoadTestConfig, ScreenedSweepPlan, SweepControl,
        SweepOptions,
    };
    use treadmill::inference::screen_hardware;

    // A screen with threshold 0 flags every cell, so the screened sweep
    // must degenerate to the full factorial exactly: same per-cell
    // seeds, same DES bits, byte-identical artifacts. Any divergence
    // means the screening layer leaks into the measurement (e.g. the
    // per-cell config hash picking up the screen knob).
    let config = LoadTestConfig::from_json(
        r#"{"workload": {"workload": "memcached"},
            "target_rps": 120000, "clients": 2,
            "connections_per_client": 4,
            "duration_ms": 30, "warmup_ms": 10, "seed": 42}"#,
    )
    .unwrap();
    let opts = SweepOptions {
        runs: 1,
        ..SweepOptions::default()
    };
    let base = std::env::temp_dir().join(format!("tml-golden-screen-{}", std::process::id()));
    let full_dir = base.join("full");
    let screened_dir = base.join("screened");
    let _ = fs::remove_dir_all(&base);

    let sweep = |dir: &std::path::Path, plan: Option<&ScreenedSweepPlan>| {
        run_factorial_sweep_controlled(&config, dir, &opts, plan, &mut SweepControl::default())
            .unwrap()
    };
    sweep(&full_dir, None);
    let plan = screen_hardware(&config, 0.0).unwrap();
    assert_eq!(plan.flagged.len(), 16, "threshold 0 must flag every cell");
    sweep(&screened_dir, Some(&plan.to_sweep_plan()));

    let full_factorial = fs::read(full_dir.join("factorial.tsv")).unwrap();
    let screened_factorial = fs::read(screened_dir.join("factorial.tsv")).unwrap();
    assert_eq!(
        full_factorial, screened_factorial,
        "factorial.tsv bytes diverged under a flag-everything screen"
    );
    for cell in 0..16 {
        for artifact in ["summary.tsv", "attribution.tsv", "cell_0.tsv"] {
            let rel = format!("hw_{cell:02}/{artifact}");
            let full = fs::read(full_dir.join(&rel)).unwrap();
            let screened = fs::read(screened_dir.join(&rel)).unwrap();
            assert_eq!(full, screened, "{rel} bytes diverged");
        }
    }
    // The screened run writes its extra prediction artifact; the full
    // factorial must not.
    assert!(screened_dir.join("screen.tsv").exists());
    assert!(!full_dir.join("screen.tsv").exists());

    // A screen that drops cells must still give every kept cell the
    // full factorial's bytes: a cell's seed comes from its hardware
    // index, never from its position among the simulated cells. At
    // threshold 0 every position equals its index, so only a screen
    // that drops a cell in front of a kept one can tell the two apart.
    let dropping_dir = base.join("dropping");
    let plan = screen_hardware(&config, 0.2).unwrap();
    assert_eq!(plan.flagged, vec![0, 1, 2, 3, 8, 9, 10, 11]);
    let outcome = sweep(&dropping_dir, Some(&plan.to_sweep_plan()));
    assert_eq!(outcome.simulated, plan.flagged);
    let mut split: Vec<usize> = outcome
        .simulated
        .iter()
        .chain(&outcome.screened_out)
        .copied()
        .collect();
    split.sort_unstable();
    assert_eq!(
        split,
        (0..16).collect::<Vec<_>>(),
        "simulated and screened_out must split the cells"
    );
    for &cell in &outcome.simulated {
        for artifact in ["summary.tsv", "attribution.tsv", "cell_0.tsv"] {
            let rel = format!("hw_{cell:02}/{artifact}");
            let full = fs::read(full_dir.join(&rel)).unwrap();
            let kept = fs::read(dropping_dir.join(&rel)).unwrap();
            assert_eq!(full, kept, "{rel} bytes diverged under a dropping screen");
        }
    }
    for &cell in &outcome.screened_out {
        let rel = format!("hw_{cell:02}");
        assert!(
            !dropping_dir.join(&rel).exists(),
            "screened-out cell wrote {rel}/"
        );
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn distinct_run_indices_stay_distinct() {
    let test = golden_test();
    let a = test.run(0);
    let b = test.run(1);
    assert_ne!(
        a.aggregated.p99.to_bits(),
        b.aggregated.p99.to_bits(),
        "run indices must derive distinct seed streams"
    );
}
