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

/// The lines of a sweep's progress, without the front end's own: the
/// CLI's notes, interrupted line and artifact paths, and the service's
/// job lines, warnings and stream end.
fn event_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            !["note: ", "wrote ", "interrupted:", "job ", "warning: "]
                .iter()
                .any(|p| l.starts_with(p))
                && *l != "end"
        })
        .collect()
}

#[test]
fn sweep_of_a_screened_config_runs_the_screened_factorial() {
    // One JSON, one meaning, one door: a config with a `screen` block
    // runs the screened 16-cell factorial from `sweep` through the call
    // `treadmill-serve` makes, printing the progress lines a job streams
    // and writing the files a job writes.
    let root = temp_root("screened-sweep");
    let screened = write_config(
        &root,
        "screened.json",
        r#", "screen": { "threshold": 0.25 }, "seed": 7"#,
    );
    let swept = root.join("sweep");
    let out = cli(&[
        "sweep",
        &screened,
        "--out",
        swept.to_str().unwrap(),
        "--runs",
        "1",
        "--seed",
        "7",
        "--ckpt-events",
        "25000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();

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
    assert!(stdout.contains("flagged hardware cells"), "{stdout}");
    assert!(stdout.contains("\nhardware cell 9: "), "{stdout}");

    // The same spec as a service job: the same progress lines and files.
    let state = root.join("state");
    let handle = treadmill::server::start(treadmill::server::ServeOptions::new(&state)).unwrap();
    let addr = handle.addr().to_string();
    let spec = format!(
        r#"{{"config": {}, "runs": 1, "ckpt_events": 25000}}"#,
        fs::read_to_string(&screened).unwrap()
    );
    let submit = |path: &str, method: &str, body: &[u8]| {
        let timeout = std::time::Duration::from_secs(5);
        treadmill::server::client::request(&addr, method, path, &[], body, timeout).unwrap()
    };
    let id = field_str(
        &submit("/experiments", "POST", spec.as_bytes()).text(),
        "id",
    )
    .expect("submit returned no id");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let events = loop {
        let events = submit(&format!("/experiments/{id}/events"), "GET", b"").text();
        if events.ends_with("end\n") {
            break events;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never ended: {events}"
        );
    };
    assert!(events.contains(&format!("job {id}: done")), "{events}");
    assert_eq!(
        event_lines(&stdout),
        event_lines(&events),
        "{stdout}\n{events}"
    );
    assert_eq!(
        files,
        tsv_files(&state.join("jobs").join(&id)),
        "sweep and the service disagree"
    );
    handle.drain();
    handle.join().expect("service threads panicked");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn screen_only_ranks_the_cells() {
    // `screen` writes nothing and takes the config's own threshold; the
    // flags of its former sweep path are errors that name the sweep.
    let root = temp_root("screen-only");
    let config = write_config(&root, "config.json", "");
    let out_dir = root.join("out");
    let out = out_dir.to_str().unwrap();
    let ranked = cli(&["screen", &config]);
    let stdout = String::from_utf8_lossy(&ranked.stdout);
    assert!(
        ranked.status.success(),
        "{}",
        String::from_utf8_lossy(&ranked.stderr)
    );
    assert!(stdout.contains("(threshold 0.250)"), "{stdout}");
    let cases: [(&[&str], &str); 3] = [
        (&["screen", &config, "--out", out], "sweep"),
        (&["screen", "memcached", "--out", out], "sweep"),
        (&["screen", &config, "--threshold", "0.1"], "--threshold"),
    ];
    for (args, named) in cases {
        let result = cli(args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!out_dir.exists(), "{args:?} wrote {out}");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn rates_no_config_accepts_are_rejected_before_anything_runs() {
    // `attribute` and `screen <workload>` build their load tests from
    // `--rps`; each passes the gate every config passes.
    for rps in ["0", "-5", "NaN"] {
        let cases: [&[&str]; 2] = [
            &["attribute", "memcached", "--rps", rps, "--runs", "1"],
            &["screen", "mcrouter", "--rps", rps],
        ];
        for args in cases {
            let result = cli(args);
            let stderr = String::from_utf8_lossy(&result.stderr);
            assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("target_rps") || stderr.contains("--rps"),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn too_few_runs_are_rejected_before_anything_runs() {
    let root = temp_root("runs");
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/loadtest.json");
    let config = write_config(&root, "config.json", "");
    let screened = write_config(&root, "screened.json", r#", "screen": {}"#);
    let out_dir = root.join("out");
    let out = out_dir.to_str().unwrap();
    let cases: [&[&str]; 5] = [
        &["run", example, "--runs", "1"],
        &["attribute", "memcached", "--runs", "0"],
        &["compare", example, "0", "1", "--runs", "1"],
        &["sweep", &config, "--out", out, "--runs", "0"],
        &["sweep", &screened, "--out", out, "--runs", "0"],
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
    let screened = write_config(&root, "screened.json", r#", "screen": {}"#);
    let out_dir = root.join("out");
    let out = out_dir.to_str().unwrap();
    let cases: [&[&str]; 2] = [
        &["sweep", &config, "--out", out, "--ckpt-events", "0"],
        &["sweep", &screened, "--out", out, "--ckpt-events", "999"],
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
