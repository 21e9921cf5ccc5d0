//! Chaos soak: SIGKILL a sweep at randomized (seeded) points, rerun
//! the same command, and demand byte-identical artifacts.
//!
//! The crash-tolerance claim is end-to-end: a `treadmill-cli sweep`
//! process killed at *any* instant — mid-cell, mid-checkpoint,
//! mid-journal-append — must, once the same command is run again,
//! produce `cell_*.tsv` and `summary.tsv` files byte-for-byte identical
//! to a sweep that was never interrupted. No flag asks for recovery:
//! every sweep replays the journal in its output directory. This test runs the real binary as a child
//! process and kills it with SIGKILL (no chance to clean up), so every
//! durability mechanism is exercised for real: fsynced journal
//! appends, atomic tmp-then-rename artifact writes, checkpoint
//! envelopes, torn-line tolerance.
//!
//! Kill points are drawn from a fixed-seed LCG, not wall-clock
//! entropy, so a failure reproduces. The kill budget is deliberately
//! small for CI; raise `TML_CHAOS_KILLS` locally for a longer soak.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Deterministic kill-delay stream (splitmix-style LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_treadmill-cli")
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_config(dir: &Path) -> PathBuf {
    write_named_config(dir, "config.json", "")
}

/// The same load test, in `dir/name`, with `extra` JSON fields.
fn write_named_config(dir: &Path, name: &str, extra: &str) -> PathBuf {
    let path = dir.join(name);
    fs::write(
        &path,
        format!(
            r#"{{
                "workload": {{ "workload": "memcached" }},
                "target_rps": 300000,
                "clients": 2,
                "duration_ms": 150,
                "warmup_ms": 30{extra}
            }}"#
        ),
    )
    .unwrap();
    path
}

fn sweep_args(config: &Path, out: &Path) -> Vec<String> {
    vec![
        "sweep".to_string(),
        config.display().to_string(),
        "--out".to_string(),
        out.display().to_string(),
        "--runs".to_string(),
        "3".to_string(),
        "--seed".to_string(),
        "7".to_string(),
        "--ckpt-events".to_string(),
        "25000".to_string(),
    ]
}

fn kill_budget() -> u32 {
    std::env::var("TML_CHAOS_KILLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Kills a sweep over `config` at seeded delays until the kill budget
/// is spent, then lets the final rerun finish. Returns the number of
/// kills actually landed.
fn chaos_loop(config: &Path, chaos_dir: &Path, budget: u32, lcg_seed: u64) -> u32 {
    let mut rng = Lcg(lcg_seed);
    let mut kills = 0;
    loop {
        let mut child = Command::new(cli())
            .args(sweep_args(config, chaos_dir))
            .spawn()
            .expect("spawn chaos sweep");
        if kills >= budget {
            let status = child.wait().expect("wait for final sweep");
            assert!(status.success(), "final resumed sweep failed: {status}");
            break;
        }
        let delay_ms = 20 + rng.next() % 240;
        std::thread::sleep(Duration::from_millis(delay_ms));
        match child.try_wait().expect("poll child") {
            Some(status) => {
                // Finished before the kill fired — the sweep is done.
                assert!(status.success(), "chaos sweep failed: {status}");
                break;
            }
            None => {
                child.kill().expect("SIGKILL child");
                let _ = child.wait();
                kills += 1;
            }
        }
    }
    kills
}

#[test]
fn sigkilled_sweep_resumes_to_byte_identical_artifacts() {
    let root = temp_root("soak");
    let config = write_config(&root);

    // Golden: one uninterrupted sweep.
    let golden_dir = root.join("golden");
    let status = Command::new(cli())
        .args(sweep_args(&config, &golden_dir))
        .status()
        .expect("spawn golden sweep");
    assert!(status.success(), "golden sweep failed: {status}");

    // Chaos: kill the sweep at seeded delays, rerun, repeat. After the
    // kill budget is spent, let the final rerun run to completion.
    let chaos_dir = root.join("chaos");
    let kills = chaos_loop(&config, &chaos_dir, kill_budget(), 0x5EED_CAFE);

    // The whole point: bit-identical artifacts despite the carnage —
    // including the per-cell tail-attribution files and the sweep-wide
    // attribution rollup served by treadmill-serve.
    for artifact in [
        "cell_0.tsv",
        "cell_1.tsv",
        "cell_2.tsv",
        "cell_0.attr.tsv",
        "cell_1.attr.tsv",
        "cell_2.attr.tsv",
        "summary.tsv",
        "attribution.tsv",
    ] {
        let golden = fs::read(golden_dir.join(artifact))
            .unwrap_or_else(|e| panic!("golden {artifact}: {e}"));
        let chaos = fs::read(chaos_dir.join(artifact))
            .unwrap_or_else(|e| panic!("chaos {artifact}: {e}"));
        assert_eq!(
            golden, chaos,
            "{artifact} differs between uninterrupted and killed-and-resumed sweeps \
             ({kills} kills)"
        );
    }

    // Provenance headers survive on every artifact.
    for artifact in ["cell_0.tsv", "summary.tsv"] {
        let text = fs::read_to_string(chaos_dir.join(artifact)).unwrap();
        let header = text.lines().next().unwrap_or_default();
        assert!(
            header.starts_with("# seed=") && header.contains("config_hash="),
            "{artifact} lacks a provenance header: {header:?}"
        );
        assert!(header.contains("version="), "{artifact} header: {header:?}");
    }

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn sigkilled_sharded_multithreaded_sweep_resumes_byte_identical() {
    // Same end-to-end crash soak, but the cells run on the sharded
    // parallel executor (3 servers, 2 worker threads). Checkpoints land
    // only at synchronization-round boundaries, so a SIGKILL during a
    // multi-threaded round must resume onto the same bits.
    let root = temp_root("soak-sharded");
    let config = root.join("config.json");
    fs::write(
        &config,
        r#"{
            "workload": { "workload": "memcached" },
            "target_rps": 200000,
            "clients": 2,
            "duration_ms": 100,
            "warmup_ms": 25,
            "servers": 3,
            "threads": 2,
            "remote_every": 4
        }"#,
    )
    .unwrap();

    let golden_dir = root.join("golden");
    let status = Command::new(cli())
        .args(sweep_args(&config, &golden_dir))
        .status()
        .expect("spawn golden sharded sweep");
    assert!(status.success(), "golden sharded sweep failed: {status}");

    let chaos_dir = root.join("chaos");
    // Half the kill budget: the sharded soak triples the per-cell event
    // count, and the one-server soak above already covers the long tail.
    let kills = chaos_loop(&config, &chaos_dir, kill_budget().div_ceil(2), 0xC0FFEE);

    for artifact in [
        "cell_0.tsv",
        "cell_1.tsv",
        "cell_2.tsv",
        "summary.tsv",
        "attribution.tsv",
    ] {
        let golden = fs::read(golden_dir.join(artifact))
            .unwrap_or_else(|e| panic!("golden {artifact}: {e}"));
        let chaos = fs::read(chaos_dir.join(artifact))
            .unwrap_or_else(|e| panic!("chaos {artifact}: {e}"));
        assert_eq!(
            golden, chaos,
            "{artifact} differs between uninterrupted and killed-and-resumed \
             sharded sweeps ({kills} kills)"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// `sweep` of a screened config, one run per flagged cell.
fn screened_args(config: &Path, out: &Path) -> Vec<String> {
    let mut args = sweep_args(config, out);
    args[5] = "1".to_string(); // --runs
    args
}

/// Every `.tsv` under `dir`, keyed by its path relative to `dir`.
fn tsv_files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "tsv") {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn sigterm_interrupts_gracefully_and_resume_is_byte_identical() {
    // The CLI installs SIGTERM/SIGINT handlers for `sweep`, on a plain
    // config and on a screened one: an interrupted sweep seals the
    // in-flight checkpoint and flushes the journal, exits 0, and
    // rerunning the command continues onto the exact bytes an
    // uninterrupted sweep would have produced — the same drain
    // plumbing treadmill-serve uses.
    let root = temp_root("sigterm");
    let config = write_config(&root);
    // The analytic screen flags 8 of the 16 cells at threshold 0.15.
    let screened = write_named_config(
        &root,
        "screened.json",
        r#", "screen": { "threshold": 0.15 }"#,
    );
    type Args = fn(&Path, &Path) -> Vec<String>;
    let inputs: [(&str, &Path, Args, &[&str]); 2] = [
        (
            "sweep",
            &config,
            sweep_args,
            &["cell_0.tsv", "cell_1.tsv", "cell_2.tsv", "summary.tsv", "attribution.tsv"],
        ),
        (
            "screened",
            &screened,
            screened_args,
            &["screen.tsv", "factorial.tsv", "hw_00/summary.tsv"],
        ),
    ];
    for (name, config, args, artifacts) in inputs {
        let golden_dir = root.join(format!("{name}-golden"));
        let status = Command::new(cli())
            .args(args(config, &golden_dir))
            .status()
            .expect("spawn golden sweep");
        assert!(status.success(), "golden {name} failed: {status}");

        let out = root.join(format!("{name}-interrupted"));
        let mut child = Command::new(cli())
            .args(args(config, &out))
            .spawn()
            .expect("spawn sweep to interrupt");
        std::thread::sleep(Duration::from_millis(120));
        let finished_early = match child.try_wait().expect("poll child") {
            Some(status) => {
                assert!(status.success(), "{name} failed before SIGTERM: {status}");
                true
            }
            None => {
                let term = Command::new("kill")
                    .arg("-TERM")
                    .arg(child.id().to_string())
                    .status()
                    .expect("send SIGTERM");
                assert!(term.success(), "kill -TERM failed");
                let status = child.wait().expect("wait for interrupted sweep");
                // Graceful interruption is a clean exit, not a crash.
                assert!(status.success(), "SIGTERM'd {name} exited {status}");
                false
            }
        };

        if !finished_early {
            let status = Command::new(cli())
                .args(args(config, &out))
                .status()
                .expect("spawn resume after SIGTERM");
            assert!(status.success(), "resume of {name} after SIGTERM failed: {status}");
        }

        for artifact in artifacts {
            let golden = fs::read(golden_dir.join(artifact)).unwrap();
            let interrupted = fs::read(out.join(artifact)).unwrap();
            assert_eq!(
                golden, interrupted,
                "{artifact} differs between uninterrupted and SIGTERM'd-then-resumed {name}"
            );
        }
        assert_eq!(
            tsv_files(&golden_dir),
            tsv_files(&out),
            "the .tsv files differ between uninterrupted and SIGTERM'd-then-resumed {name}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn resume_of_a_finished_sweep_is_a_no_op() {
    let root = temp_root("noop");
    let config = write_config(&root);
    let out = root.join("out");
    let status = Command::new(cli())
        .args(sweep_args(&config, &out))
        .status()
        .expect("spawn sweep");
    assert!(status.success());
    let before = fs::read(out.join("summary.tsv")).unwrap();

    let rerun = Command::new(cli())
        .args(sweep_args(&config, &out))
        .output()
        .expect("spawn resume");
    assert!(rerun.status.success(), "rerun of finished sweep failed");
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    for cell in 0..3 {
        assert!(
            stdout.contains(&format!("cell {cell}: skipped (already done)")),
            "{stdout}"
        );
    }
    assert!(
        !stdout.contains("started") && !stdout.contains("resumed at"),
        "{stdout}"
    );
    let after = fs::read(out.join("summary.tsv")).unwrap();
    assert_eq!(before, after, "no-op resume rewrote the summary differently");
    let _ = fs::remove_dir_all(&root);
}
