//! In-process integration tests for the `treadmill-serve` HTTP API:
//! a real listener on port 0, real sockets through the minimal
//! client, and the full submit → events → artifact lifecycle.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use treadmill_server::client;
use treadmill_server::service::{start, ServeOptions, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(5);

fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml-api-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn server(tag: &str) -> (ServerHandle, String, PathBuf) {
    let state = temp_state(tag);
    let handle = start(ServeOptions::new(&state)).expect("start service");
    let addr = handle.addr().to_string();
    (handle, addr, state)
}

/// A small, fast spec: 2 cells of 2k requests each.
fn small_spec(seed: u64) -> String {
    format!(
        r#"{{"config":{{"workload":{{"workload":"memcached"}},
            "target_rps":50000,"clients":2,"connections_per_client":4,
            "duration_ms":40,"warmup_ms":10,"seed":{seed}}},
            "runs":2,"ckpt_events":25000}}"#
    )
}

fn get(addr: &str, path: &str) -> client::HttpResponse {
    client::request(addr, "GET", path, &[], b"", TIMEOUT).expect("GET")
}

fn post_spec(addr: &str, spec: &str, key: Option<&str>) -> client::HttpResponse {
    let mut headers = vec![("Content-Type", "application/json")];
    if let Some(key) = key {
        headers.push(("Idempotency-Key", key));
    }
    client::request(addr, "POST", "/experiments", &headers, spec.as_bytes(), TIMEOUT)
        .expect("POST /experiments")
}

/// Pulls `"name":"value"` out of a flat JSON body without leaning on
/// the vendored parser's accessor surface.
fn field_str(body: &str, name: &str) -> Option<String> {
    let marker = format!("\"{name}\":\"");
    let at = body.find(&marker)? + marker.len();
    let rest = &body[at..];
    Some(rest[..rest.find('"')?].to_string())
}

fn wait_done(addr: &str, id: &str) -> client::HttpResponse {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = get(addr, &format!("/experiments/{id}"));
        assert_eq!(resp.status, 200, "status poll failed: {}", resp.text());
        let status = field_str(&resp.text(), "status").unwrap();
        match status.as_str() {
            "done" => return resp,
            "failed" => panic!("experiment failed: {}", resp.text()),
            _ if Instant::now() > deadline => {
                panic!("experiment stuck in {status}: {}", resp.text())
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn shutdown(handle: ServerHandle, state: &PathBuf) {
    handle.drain();
    handle.join().expect("service threads panicked");
    let _ = fs::remove_dir_all(state);
}

#[test]
fn drain_then_join_return_with_no_client_traffic() {
    // The acceptor blocks in `accept`; with no client ever connecting,
    // drain must wake it on its own for join to return.
    let (handle, _addr, state) = server("idle-drain");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.drain();
        let _ = tx.send(handle.join());
    });
    let joined = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("drain then join hung with no client traffic");
    joined.expect("service threads panicked");
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn health_endpoints_respond() {
    let (handle, addr, state) = server("health");
    let resp = get(&addr, "/healthz");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "ok\n");

    let resp = get(&addr, "/readyz");
    assert_eq!(resp.status, 200);
    let body = resp.text();
    assert!(body.contains("\"status\":\"ready\""), "{body}");
    assert!(body.contains("\"queue_cap\""), "{body}");
    shutdown(handle, &state);
}

#[test]
fn invalid_specs_get_typed_400s() {
    let (handle, addr, state) = server("badspec");

    // Malformed JSON.
    let resp = post_spec(&addr, "{not json", None);
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"kind\":\"json\""), "{}", resp.text());

    // Engine-level validation failure names the field.
    let bad = small_spec(1).replace("\"target_rps\":50000", "\"target_rps\":-5");
    let resp = post_spec(&addr, &bad, None);
    assert_eq!(resp.status, 400);
    let body = resp.text();
    assert!(body.contains("\"kind\":\"invalid\""), "{body}");
    assert!(body.contains("\"field\":\"target_rps\""), "{body}");

    // Service-level caps too.
    let bad = small_spec(1).replace("\"runs\":2", "\"runs\":1000");
    let resp = post_spec(&addr, &bad, None);
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"field\":\"runs\""), "{}", resp.text());

    // Non-UTF-8 body.
    let resp = client::request(
        &addr,
        "POST",
        "/experiments",
        &[],
        &[0xff, 0xfe, 0x80],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    shutdown(handle, &state);
}

#[test]
fn unknown_routes_and_methods_are_typed() {
    let (handle, addr, state) = server("routes");
    assert_eq!(get(&addr, "/experiments/exp-999999").status, 404);
    assert_eq!(get(&addr, "/nope").status, 404);
    let resp = client::request(&addr, "DELETE", "/healthz", &[], b"", TIMEOUT).unwrap();
    assert_eq!(resp.status, 405);
    shutdown(handle, &state);
}

#[test]
fn submit_runs_to_done_and_serves_artifacts() {
    let (handle, addr, state) = server("lifecycle");

    // Big enough (3 cells × ~45k requests) that the job is still in
    // flight when the not-ready probe below lands.
    let spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":300000,"clients":2,"duration_ms":150,"warmup_ms":30,
        "seed":7},"runs":3,"ckpt_events":25000}"#;
    let resp = post_spec(&addr, spec, None);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = field_str(&resp.text(), "id").expect("submit body has id");

    // Artifact before completion: typed 409, not a hang or a panic.
    let resp = get(&addr, &format!("/experiments/{id}/attribution"));
    assert_eq!(resp.status, 409);
    assert!(resp.text().contains("not-ready"), "{}", resp.text());

    wait_done(&addr, &id);

    // Artifacts come back byte-identical to what the sweep wrote.
    for (route, file) in [("attribution", "attribution.tsv"), ("summary", "summary.tsv")] {
        let resp = get(&addr, &format!("/experiments/{id}/{route}"));
        assert_eq!(resp.status, 200, "{route}: {}", resp.text());
        assert_eq!(resp.header("content-type"), Some("text/tab-separated-values"));
        let on_disk = fs::read(state.join("jobs").join(&id).join(file)).unwrap();
        assert_eq!(resp.body, on_disk, "{route} differs from {file} on disk");
    }
    // A repeated-run job writes no screen or factorial table.
    for (route, file) in [("screen", "screen.tsv"), ("factorial", "factorial.tsv")] {
        let resp = get(&addr, &format!("/experiments/{id}/{route}"));
        assert_eq!(resp.status, 404, "{route}: {}", resp.text());
        assert!(resp.text().contains("not-found"), "{}", resp.text());
        assert!(resp.text().contains(&format!("{id} has no {file}")), "{}", resp.text());
    }

    // One journal, one line per transition, each stamped: queued,
    // running, done.
    let journal = fs::read_to_string(state.join("jobs.jsonl")).unwrap();
    let statuses: Vec<String> = journal
        .lines()
        .map(|line| {
            assert!(line.contains("\"unix_ms\":"), "{line}");
            field_str(line, "status").unwrap()
        })
        .collect();
    assert_eq!(statuses, ["queued", "running", "done"], "{journal}");
    assert!(!state.join("audit.jsonl").exists());

    // The events stream is chunked and terminates with the sentinel.
    let resp = get(&addr, &format!("/experiments/{id}/events"));
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding").map(str::to_ascii_lowercase),
        Some("chunked".to_string())
    );
    let events = resp.text();
    assert!(events.contains("cell 0:"), "{events}");
    assert!(events.ends_with("end\n"), "{events}");

    shutdown(handle, &state);
}

#[test]
fn done_status_counts_every_final_progress_line() {
    let (handle, addr, state) = server("done-count");
    let resp = post_spec(&addr, &small_spec(5), None);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = field_str(&resp.text(), "id").expect("submit body has id");

    // Poll without pausing, so a read landing between the terminal
    // status and the job's last progress lines would be seen.
    let deadline = Instant::now() + Duration::from_secs(60);
    let body = loop {
        let body = get(&addr, &format!("/experiments/{id}")).text();
        if field_str(&body, "status").as_deref() == Some("done") {
            break body;
        }
        assert!(Instant::now() < deadline, "job never finished: {body}");
    };
    let at = body.find("\"events\":").expect("status body has events") + 9;
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();

    let events = get(&addr, &format!("/experiments/{id}/events")).text();
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(lines.last(), Some(&"end"), "{events}");
    assert_eq!(
        digits.parse::<usize>().unwrap(),
        lines.len() - 1,
        "`done` was published before the last progress line:\n{body}\n{events}"
    );

    shutdown(handle, &state);
}

#[test]
fn screened_spec_runs_two_stage_sweep_and_serves_screen_artifacts() {
    let (handle, addr, state) = server("screened");

    // High threshold: the analytic screen keeps only the worst cells,
    // so the DES stage runs far fewer than 16 sweeps.
    let spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":150000,"clients":2,"connections_per_client":4,
        "duration_ms":40,"warmup_ms":10,"seed":11,
        "screen":{"threshold":0.2}},"runs":1,"ckpt_events":25000}"#;
    let resp = post_spec(&addr, spec, None);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = field_str(&resp.text(), "id").expect("submit body has id");
    wait_done(&addr, &id);

    for (route, file) in [("screen", "screen.tsv"), ("factorial", "factorial.tsv")] {
        let resp = get(&addr, &format!("/experiments/{id}/{route}"));
        assert_eq!(resp.status, 200, "{route}: {}", resp.text());
        let on_disk = fs::read(state.join("jobs").join(&id).join(file)).unwrap();
        assert_eq!(resp.body, on_disk, "{route} differs from {file} on disk");
    }
    // A screened job writes no summary.
    let resp = get(&addr, &format!("/experiments/{id}/summary"));
    assert_eq!(resp.status, 404, "{}", resp.text());
    assert!(resp.text().contains("has no summary.tsv"), "{}", resp.text());
    let screen = get(&addr, &format!("/experiments/{id}/screen")).text();
    assert!(screen.contains("# threshold=0.200000"), "{screen}");
    assert!(screen.contains("flagged"), "{screen}");
    let factorial = get(&addr, &format!("/experiments/{id}/factorial")).text();
    let simulated = factorial
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("cell\t") && !l.is_empty())
        .count();
    let flagged = screen
        .lines()
        .filter(|l| l.ends_with("\t1"))
        .count();
    assert_eq!(simulated, flagged, "{factorial}\n{screen}");
    assert!((1..16).contains(&simulated), "screen must drop some cells: {screen}");

    // The progress stream states the screen's verdict, then names each
    // flagged hardware cell right before that cell's run lines.
    let events = get(&addr, &format!("/experiments/{id}/events")).text();
    let lines: Vec<&str> = events.lines().collect();
    // Each flagged row of screen.tsv: its index and its four levels.
    let rows: Vec<(usize, String)> = screen
        .lines()
        .filter(|l| l.ends_with("\t1"))
        .map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            let hardware = format!(
                "numa-{},turbo-{},dvfs-{},nic-{}",
                cols[1], cols[2], cols[3], cols[4]
            );
            (cols[0].parse().unwrap(), hardware)
        })
        .collect();
    let flagged: Vec<usize> = rows.iter().map(|(index, _)| *index).collect();
    let verdict =
        format!("analytic screen at threshold 0.200 flagged hardware cells {flagged:?} of 16");
    let at = lines
        .iter()
        .position(|l| *l == verdict)
        .unwrap_or_else(|| panic!("no line {verdict:?}:\n{events}"));
    let mut named = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("hardware cell ") else {
            continue;
        };
        let (index, hardware) = rest.split_once(": ").unwrap();
        assert!(i > at, "{line} before the verdict:\n{events}");
        assert!(lines[i + 1].starts_with("cell 0: started"), "{events}");
        named.push((index.parse().unwrap(), hardware.to_string()));
    }
    assert_eq!(named, rows, "{events}");

    shutdown(handle, &state);
}

#[test]
fn drained_screened_job_resumes_where_it_stopped() {
    // Several flagged cells of several checkpoints each, so a drain
    // requested once the first flagged cell is done lands inside the job.
    let spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":150000,"clients":2,"connections_per_client":4,
        "duration_ms":120,"warmup_ms":20,"seed":11,
        "screen":{"threshold":0.2}},"runs":1,"ckpt_events":25000}"#;
    let artifacts = |state: &PathBuf, id: &str| -> Vec<Vec<u8>> {
        ["factorial.tsv", "screen.tsv"]
            .iter()
            .map(|file| fs::read(state.join("jobs").join(id).join(file)).unwrap())
            .collect()
    };
    // Each flagged cell's sweep journal, by cell directory.
    let manifests = |state: &PathBuf, id: &str| -> BTreeMap<String, String> {
        fs::read_dir(state.join("jobs").join(id))
            .unwrap()
            .flatten()
            .filter(|entry| entry.file_name().to_string_lossy().starts_with("hw_"))
            .map(|entry| {
                let text = fs::read_to_string(entry.path().join("manifest.jsonl")).unwrap();
                (entry.file_name().to_string_lossy().into_owned(), text)
            })
            .collect()
    };

    let (handle, addr, golden_state) = server("screened-golden");
    let id = field_str(&post_spec(&addr, spec, None).text(), "id").unwrap();
    wait_done(&addr, &id);
    let golden = artifacts(&golden_state, &id);
    let golden_manifests = manifests(&golden_state, &id);
    assert!(!golden_manifests.is_empty(), "the screen flagged no cell");
    shutdown(handle, &golden_state);

    let (handle, addr, state) = server("screened-resume");
    let id = field_str(&post_spec(&addr, spec, None).text(), "id").unwrap();
    let job_dir = state.join("jobs").join(&id);
    let first_cell_done = || {
        fs::read_dir(&job_dir)
            .into_iter()
            .flatten()
            .flatten()
            .any(|entry| {
                entry.file_name().to_string_lossy().starts_with("hw_")
                    && entry.path().join("summary.tsv").exists()
            })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while !first_cell_done() {
        assert!(Instant::now() < deadline, "no flagged cell finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.drain();
    handle.join().expect("service threads panicked");
    let jobs = fs::read_to_string(state.join("jobs.jsonl")).unwrap();
    assert!(
        !jobs.contains("\"status\":\"done\""),
        "the job finished before the drain; nothing left to resume:\n{jobs}"
    );

    let handle = start(ServeOptions::new(&state)).expect("restart service");
    let addr = handle.addr().to_string();
    wait_done(&addr, &id);
    let events = get(&addr, &format!("/experiments/{id}/events")).text();
    assert!(events.contains("skipped (already done)"), "{events}");
    assert!(events.contains("resuming from journal"), "{events}");
    // Checkpoints sealed before the warm-up ends hold no tail sample.
    assert!(!events.contains("NaN"), "{events}");
    assert_eq!(
        artifacts(&state, &id),
        golden,
        "resumed factorial.tsv / screen.tsv differ from an uninterrupted job's"
    );
    let resumed_manifests = manifests(&state, &id);
    let differing: Vec<&String> = golden_manifests
        .iter()
        .filter(|&(cell, text)| resumed_manifests.get(cell) != Some(text))
        .map(|(cell, _)| cell)
        .collect();
    assert!(
        differing.is_empty() && resumed_manifests.len() == golden_manifests.len(),
        "resumed manifests differ from an uninterrupted job's in {differing:?} \
         ({} cells resumed, {} golden)",
        resumed_manifests.len(),
        golden_manifests.len()
    );
    shutdown(handle, &state);
}

#[test]
fn idempotency_key_deduplicates() {
    let (handle, addr, state) = server("dedup");

    let first = post_spec(&addr, &small_spec(3), Some("k-123"));
    assert_eq!(first.status, 201, "{}", first.text());
    let id = field_str(&first.text(), "id").unwrap();

    let second = post_spec(&addr, &small_spec(3), Some("k-123"));
    assert_eq!(second.status, 200, "{}", second.text());
    let body = second.text();
    assert!(body.contains("\"deduplicated\":true"), "{body}");
    assert_eq!(field_str(&body, "id").unwrap(), id, "dedup returned a new id");

    // A different key is a different experiment.
    let third = post_spec(&addr, &small_spec(3), Some("k-456"));
    assert_eq!(third.status, 201, "{}", third.text());
    assert_ne!(field_str(&third.text(), "id").unwrap(), id);

    wait_done(&addr, &id);
    shutdown(handle, &state);
}

#[test]
fn admission_queue_sheds_with_503_and_retry_after() {
    let state = temp_state("overload");
    let mut opts = ServeOptions::new(&state);
    opts.queue_cap = 1;
    let handle = start(opts).expect("start service");
    let addr = handle.addr().to_string();

    // One deliberately long job occupies the executor; ckpt_events is
    // small so the drain below interrupts it promptly.
    let long_spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":300000,"clients":2,"connections_per_client":4,
        "duration_ms":200,"warmup_ms":40,"seed":11},
        "runs":8,"ckpt_events":25000}"#;
    let resp = post_spec(&addr, long_spec, None);
    assert_eq!(resp.status, 201, "{}", resp.text());

    // Burst past the queue: with the executor busy and cap 1, most of
    // these must shed with 503 + Retry-After rather than queue.
    let mut accepted = 0;
    let mut shed = 0;
    for seed in 100..112u64 {
        let resp = post_spec(&addr, &small_spec(seed), None);
        match resp.status {
            201 => accepted += 1,
            503 => {
                assert!(
                    resp.header("retry-after").is_some(),
                    "503 without Retry-After: {}",
                    resp.text()
                );
                assert!(resp.text().contains("overloaded"), "{}", resp.text());
                shed += 1;
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(shed >= 1, "burst of 12 over cap 1 shed nothing ({accepted} accepted)");

    // The server is still healthy mid-overload.
    assert_eq!(get(&addr, "/healthz").status, 200);

    handle.drain();
    handle.join().expect("service threads panicked");
    let _ = fs::remove_dir_all(&state);
}

/// Three cells of ~45k requests: long enough to hold the executor
/// while a test fills the queue behind it.
const LONG_SPEC: &str = r#"{"config":{"workload":{"workload":"memcached"},
    "target_rps":300000,"clients":2,"duration_ms":150,"warmup_ms":30,
    "seed":7},"runs":3,"ckpt_events":25000}"#;

fn status_of(addr: &str, id: &str) -> String {
    field_str(&get(addr, &format!("/experiments/{id}")).text(), "status").unwrap()
}

fn queue_depth(addr: &str) -> usize {
    let body = get(addr, "/readyz").text();
    let at = body.find("\"queue_depth\":").expect("readyz has queue_depth") + 14;
    body[at..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

/// A cap-1 server whose executor runs [`LONG_SPEC`] and whose queue
/// holds one job, submitted under `key`; returns that job's id.
fn full_queue(tag: &str, key: &str) -> (ServerHandle, String, PathBuf, String) {
    let state = temp_state(tag);
    let mut opts = ServeOptions::new(&state);
    opts.queue_cap = 1;
    let handle = start(opts).expect("start service");
    let addr = handle.addr().to_string();
    let running = field_str(&post_spec(&addr, LONG_SPEC, None).text(), "id").unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while status_of(&addr, &running) != "running" {
        assert!(Instant::now() < deadline, "the long job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = post_spec(&addr, &small_spec(21), Some(key));
    assert_eq!(resp.status, 201, "{}", resp.text());
    assert!(resp.text().contains("\"queue_depth\":1"), "{}", resp.text());
    let queued = field_str(&resp.text(), "id").unwrap();
    (handle, addr, state, queued)
}

#[test]
fn keyed_retry_while_the_queue_is_full_returns_the_original_job() {
    let (handle, addr, state, queued) = full_queue("dedup-full", "k-queued");
    let resp = post_spec(&addr, &small_spec(21), Some("k-queued"));
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = resp.text();
    assert!(body.contains("\"deduplicated\":true"), "{body}");
    assert_eq!(field_str(&body, "id").unwrap(), queued);
    assert_eq!(field_str(&body, "status").as_deref(), Some("queued"), "{body}");
    shutdown(handle, &state);
}

#[test]
fn keyed_submission_shed_at_a_full_queue_is_admitted_on_retry() {
    let (handle, addr, state, _) = full_queue("shed-retry", "k-queued");
    let resp = post_spec(&addr, &small_spec(22), Some("k-shed"));
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(resp.header("retry-after").is_some(), "{}", resp.text());

    // Once the queued job starts, the queue has room: the same key is
    // a new submission, not the shed one.
    let deadline = Instant::now() + Duration::from_secs(60);
    while queue_depth(&addr) > 0 {
        assert!(Instant::now() < deadline, "the queue never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = post_spec(&addr, &small_spec(22), Some("k-shed"));
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = field_str(&resp.text(), "id").expect("retry admitted with an id");
    wait_done(&addr, &id);
    shutdown(handle, &state);
}

#[test]
fn shed_submissions_leave_no_journal_line() {
    let state = temp_state("shed-journal");
    let mut opts = ServeOptions::new(&state);
    opts.queue_cap = 1;
    let handle = start(opts).expect("start service");
    let addr = handle.addr().to_string();
    assert_eq!(post_spec(&addr, LONG_SPEC, None).status, 201);

    let mut shed = Vec::new();
    let mut admitted = 1;
    for seed in 100..112u64 {
        let key = format!("burst-{seed}");
        match post_spec(&addr, &small_spec(seed), Some(&key)).status {
            201 => admitted += 1,
            503 => shed.push(key),
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(!shed.is_empty(), "burst of 12 over cap 1 shed nothing");
    handle.drain();
    handle.join().expect("service threads panicked");

    let journal = fs::read_to_string(state.join("jobs.jsonl")).unwrap();
    for key in &shed {
        assert!(!journal.contains(&format!("\"{key}\"")), "shed {key} was journaled:\n{journal}");
    }
    let submissions = journal.lines().filter(|line| line.contains("\"status\":\"queued\"")).count();
    assert_eq!(submissions, admitted, "{journal}");
    assert!(!journal.contains("\"failed\""), "{journal}");
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn events_of_a_job_finished_before_a_restart_end() {
    let (handle, addr, state) = server("events-restart");
    let id = field_str(&post_spec(&addr, &small_spec(8), None).text(), "id").unwrap();
    wait_done(&addr, &id);
    handle.drain();
    handle.join().expect("service threads panicked");

    let handle = start(ServeOptions::new(&state)).expect("restart service");
    let addr = handle.addr().to_string();
    // The client waits past the stream's 10 s window, so a stream that
    // never ends shows its closing line instead of a client timeout.
    let asked = Instant::now();
    let path = format!("/experiments/{id}/events");
    let events = client::request(&addr, "GET", &path, &[], b"", Duration::from_secs(15))
        .expect("GET /events")
        .text();
    let took = asked.elapsed();
    assert_eq!(events, "end\n");
    assert!(took < Duration::from_secs(1), "/events took {took:?}");
    shutdown(handle, &state);
}
