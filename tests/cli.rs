//! `treadmill-cli` as a user runs it: the built binary, its exit
//! status, its stderr and the files it writes.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_treadmill-cli"))
        .args(args)
        .output()
        .expect("spawn treadmill-cli")
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small load test; `screen` is spliced in as an extra JSON field.
fn write_config(dir: &Path, name: &str, screen: &str) -> String {
    let path = dir.join(name);
    fs::write(
        &path,
        format!(
            r#"{{
                "workload": {{ "workload": "memcached" }},
                "target_rps": 300000,
                "clients": 2,
                "duration_ms": 150,
                "warmup_ms": 30{screen}
            }}"#
        ),
    )
    .unwrap();
    path.display().to_string()
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
fn sweep_of_a_screened_config_runs_the_screened_factorial() {
    // One JSON, one meaning: a config with a `screen` block runs the
    // screened 16-cell factorial from `sweep`, as `treadmill-serve`
    // runs it, and writes what `screen --out` writes at that threshold.
    let root = temp_root("screened-sweep");
    let screened = write_config(
        &root,
        "screened.json",
        r#", "screen": { "threshold": 0.25 }"#,
    );
    let plain = write_config(&root, "plain.json", "");
    let common = ["--runs", "1", "--seed", "7", "--ckpt-events", "25000"];

    let swept = root.join("sweep");
    let mut args = vec!["sweep", &screened, "--out", swept.to_str().unwrap()];
    args.extend(common);
    let out = cli(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let screened_out = root.join("screen");
    let mut args = vec![
        "screen",
        &plain,
        "--threshold",
        "0.25",
        "--out",
        screened_out.to_str().unwrap(),
    ];
    args.extend(common);
    let out = cli(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    assert!(
        swept.join("screen.tsv").exists(),
        "sweep skipped the screen"
    );
    assert!(
        swept.join("factorial.tsv").exists(),
        "sweep wrote no factorial table"
    );
    assert!(
        !swept.join("summary.tsv").exists(),
        "sweep ran a repeated-run sweep"
    );
    let files = tsv_files(&swept);
    assert!(
        files.keys().any(|p| p.starts_with("hw_09")),
        "the flagged cell 9 has no hw_09/ artifacts: {:?}",
        files.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        files,
        tsv_files(&screened_out),
        "sweep and screen --out disagree"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn too_few_runs_are_rejected_before_anything_runs() {
    let root = temp_root("runs");
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/loadtest.json");
    let config = write_config(&root, "config.json", "");
    let out_dir = root.join("out");
    let out = out_dir.to_str().unwrap();
    let cases: [&[&str]; 5] = [
        &["run", example, "--runs", "1"],
        &["attribute", "memcached", "--runs", "0"],
        &["compare", example, "0", "1", "--runs", "1"],
        &["sweep", &config, "--out", out, "--runs", "0"],
        &["screen", &config, "--out", out, "--runs", "0"],
    ];
    for args in cases {
        let result = cli(args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("--runs"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            !out_dir.exists(),
            "{args:?} wrote {out} before rejecting --runs"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_intervals_under_the_floor_are_rejected_before_anything_runs() {
    // At `--ckpt-events 0` a sweep would neither checkpoint nor notice
    // Ctrl-C until its cell ends; the floor is the service's.
    let root = temp_root("ckpt-events");
    let config = write_config(&root, "config.json", "");
    let out_dir = root.join("out");
    let out = out_dir.to_str().unwrap();
    let cases: [&[&str]; 2] = [
        &["sweep", &config, "--out", out, "--ckpt-events", "0"],
        &["screen", &config, "--out", out, "--ckpt-events", "999"],
    ];
    for args in cases {
        let result = cli(args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("--ckpt-events"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            !out_dir.exists(),
            "{args:?} wrote {out} before rejecting --ckpt-events"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// Pulls `"name":"value"` out of a flat JSON body.
fn field_str(body: &str, name: &str) -> Option<String> {
    let marker = format!("\"{name}\":\"");
    let at = body.find(&marker)? + marker.len();
    let rest = &body[at..];
    Some(rest[..rest.find('"')?].to_string())
}

#[test]
fn submit_status_and_fetch_talk_to_a_running_service() {
    let root = temp_root("service");
    let state = root.join("state");
    let handle = treadmill::server::start(treadmill::server::ServeOptions::new(&state)).unwrap();
    let addr = handle.addr().to_string();
    let spec = root.join("spec.json");
    fs::write(
        &spec,
        r#"{"config":{"workload":{"workload":"memcached"},
            "target_rps":50000,"clients":2,"connections_per_client":4,
            "duration_ms":40,"warmup_ms":10,"seed":3},
            "runs":1,"ckpt_events":25000}"#,
    )
    .unwrap();
    let spec = spec.to_str().unwrap();
    let stdout = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();

    // A keyed submission prints its id; the same key again prints that
    // id, deduplicated.
    let submit = ["submit", spec, "--addr", &addr, "--key", "cli-test"];
    let first = cli(&submit);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let id = field_str(&stdout(&first), "id").expect("submit printed no id");
    let again = cli(&submit);
    assert!(
        again.status.success(),
        "{}",
        String::from_utf8_lossy(&again.stderr)
    );
    assert_eq!(
        field_str(&stdout(&again), "id").as_deref(),
        Some(id.as_str())
    );
    assert!(
        stdout(&again).contains("\"deduplicated\":true"),
        "{}",
        stdout(&again)
    );

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let status = cli(&["status", &id, "--addr", &addr]);
        assert!(
            status.status.success(),
            "{}",
            String::from_utf8_lossy(&status.stderr)
        );
        match field_str(&stdout(&status), "status").as_deref() {
            Some("done") => break,
            Some("queued" | "running") if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            other => panic!("job {id} is {other:?}: {}", stdout(&status)),
        }
    }

    let fetched = root.join("attribution.tsv");
    let fetch = cli(&[
        "fetch",
        &id,
        "--addr",
        &addr,
        "--out",
        fetched.to_str().unwrap(),
    ]);
    assert!(
        fetch.status.success(),
        "{}",
        String::from_utf8_lossy(&fetch.stderr)
    );
    assert_eq!(
        fs::read(&fetched).unwrap(),
        fs::read(state.join("jobs").join(&id).join("attribution.tsv")).unwrap()
    );

    // A repeated-run job has no screen table, and no job is "exp-nope".
    let cases: [&[&str]; 2] = [
        &["fetch", &id, "--addr", &addr, "--artifact", "screen"],
        &["status", "exp-nope", "--addr", &addr],
    ];
    for args in cases {
        let result = cli(args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("HTTP 404"), "{args:?}: {stderr}");
    }
    let result = cli(&["status", &id]);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--addr"), "{stderr}");

    handle.drain();
    handle.join().expect("service threads panicked");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn costs_that_overflow_the_clock_are_rejected_by_name() {
    let root = temp_root("costs");
    let cases = [
        ("memcached", r#"{ "base_cpu_ns": 1e25 }"#, "base_cpu_ns"),
        (
            "mcrouter",
            r#"{ "slow_fraction": 1.0, "slow_multiplier": 1e30 }"#,
            "slow_multiplier",
        ),
    ];
    for (workload, overrides, field) in cases {
        let path = root.join(format!("{workload}.json"));
        fs::write(
            &path,
            format!(
                r#"{{ "workload": {{ "workload": "{workload}", "config": {overrides} }},
                      "target_rps": 100000, "clients": 2, "duration_ms": 50, "warmup_ms": 10 }}"#
            ),
        )
        .unwrap();
        let result = cli(&["run", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{overrides}: {stderr}");
        assert!(stderr.contains(field), "{overrides}: {stderr}");
        assert!(!stderr.contains("panicked"), "{overrides}: {stderr}");
    }
    let _ = fs::remove_dir_all(&root);
}
