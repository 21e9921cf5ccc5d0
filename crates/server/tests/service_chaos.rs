//! Chaos tests against the real `treadmill-serve` binary: SIGKILL
//! mid-experiment and demand byte-identical artifacts after a restart
//! on the same state directory (no flag asks for recovery); SIGTERM and
//! demand a clean drain; overload bursts and demand shed-with-503 plus
//! bounded memory.

#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use treadmill_server::client;

const TIMEOUT: Duration = Duration::from_secs(5);

fn serve_bin() -> &'static str {
    env!("CARGO_BIN_EXE_treadmill-serve")
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml-serve-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns the server and waits until it rewrites `addr.txt` and
/// answers `/healthz`. The stale address file is removed first so a
/// restart cannot be confused with the previous incarnation.
#[allow(clippy::zombie_processes)] // every caller waits via wait_exit or kill+wait
fn spawn_server(state: &Path, extra: &[&str]) -> (Child, String) {
    let _ = fs::remove_file(state.join("addr.txt"));
    let mut cmd = Command::new(serve_bin());
    cmd.arg("--state-dir").arg(state);
    cmd.args(extra);
    // Detach stdio: a server leaked by a failing assertion must not
    // hold the test harness's output pipe open.
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    let child = cmd.spawn().expect("spawn treadmill-serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(addr) = fs::read_to_string(state.join("addr.txt")) {
            let addr = addr.trim().to_string();
            if !addr.is_empty()
                && client::request(&addr, "GET", "/healthz", &[], b"", TIMEOUT)
                    .map(|r| r.status == 200)
                    .unwrap_or(false)
            {
                return (child, addr);
            }
        }
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
}

fn wait_exit(child: &mut Child, timeout: Duration) -> ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("poll server") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("server did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn chaos_spec() -> &'static str {
    r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":300000,"clients":2,"duration_ms":150,"warmup_ms":30,
        "seed":7},"runs":3,"ckpt_events":25000}"#
}

fn submit(addr: &str, spec: &str) -> client::HttpResponse {
    client::request(
        addr,
        "POST",
        "/experiments",
        &[("Content-Type", "application/json")],
        spec.as_bytes(),
        TIMEOUT,
    )
    .expect("POST /experiments")
}

/// Submits a spec and returns the accepted experiment id.
fn submit_id(addr: &str, spec: &str) -> String {
    let resp = submit(addr, spec);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let body = resp.text();
    let marker = "\"id\":\"";
    let at = body.find(marker).unwrap() + marker.len();
    body[at..].split('"').next().unwrap().to_string()
}

fn status_of(addr: &str, id: &str) -> String {
    let resp = client::request(addr, "GET", &format!("/experiments/{id}"), &[], b"", TIMEOUT)
        .expect("GET status");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = resp.text();
    let marker = "\"status\":\"";
    let at = body.find(marker).unwrap() + marker.len();
    body[at..].split('"').next().unwrap().to_string()
}

fn wait_done(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match status_of(addr, id).as_str() {
            "done" => return,
            "failed" => panic!("experiment {id} failed"),
            status => {
                assert!(Instant::now() < deadline, "experiment stuck in {status}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn sigkilled_server_resumes_to_byte_identical_artifacts() {
    let root = temp_root("resume");

    // Golden: the same spec through an uninterrupted in-process server.
    let golden_state = root.join("golden");
    let golden = {
        let opts = treadmill_server::ServeOptions::new(&golden_state);
        let handle = treadmill_server::start(opts).expect("start golden server");
        let addr = handle.addr().to_string();
        let id = submit_id(&addr, chaos_spec());
        wait_done(&addr, &id);
        let resp = client::request(
            &addr,
            "GET",
            &format!("/experiments/{id}/attribution"),
            &[],
            b"",
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        handle.drain();
        handle.join().expect("golden server threads panicked");
        resp.body
    };
    assert!(!golden.is_empty(), "golden attribution artifact is empty");

    // Chaos: SIGKILL the real binary mid-experiment, twice, with
    // seeded delays; every restart is the same command.
    let chaos_state = root.join("chaos");
    let (mut child, addr) = spawn_server(&chaos_state, &[]);
    let id = submit_id(&addr, chaos_spec());

    let mut kills = 0;
    let mut addr = addr;
    for delay in [140u64, 260] {
        std::thread::sleep(Duration::from_millis(delay));
        if status_of(&addr, &id) == "done" {
            break; // too fast to kill mid-run; nothing left to interrupt
        }
        child.kill().expect("SIGKILL server");
        let _ = child.wait();
        let (next, next_addr) = spawn_server(&chaos_state, &[]);
        child = next;
        addr = next_addr;
        kills += 1;
    }

    // Let the final incarnation finish the job and serve the artifact.
    wait_done(&addr, &id);
    let resp = client::request(
        &addr,
        "GET",
        &format!("/experiments/{id}/attribution"),
        &[],
        b"",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.body, golden,
        "attribution artifact differs between uninterrupted and SIGKILL'd-then-resumed servers"
    );

    // And what the API serves is exactly what the sweep journaled.
    let on_disk =
        fs::read(chaos_state.join("jobs").join(&id).join("attribution.tsv")).unwrap();
    assert_eq!(resp.body, on_disk);

    // The job journal survived every incarnation: the submission (with
    // its spec), a `running` line per incarnation that picked the job
    // up, and the final completion, each stamped with the wall clock.
    let journal = fs::read_to_string(chaos_state.join("jobs.jsonl")).unwrap();
    let lines: Vec<serde_json::Value> = journal
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .filter(|line: &serde_json::Value| line["id"] == id.as_str())
        .collect();
    assert!(lines.iter().all(|line| line["unix_ms"].as_u64() > Some(0)), "{journal}");
    let spec = treadmill_server::ExperimentSpec::from_json(lines[0]["spec"].as_str().unwrap())
        .unwrap();
    assert_eq!((lines[0]["status"].as_str(), spec.config.seed), (Some("queued"), 7));
    assert_eq!(lines.last().unwrap()["status"], "done", "{journal}");
    let running = lines.iter().filter(|line| line["status"] == "running").count();
    if kills > 0 {
        assert!(running >= 2, "{kills} kills but {running} running lines:\n{journal}");
    }
    assert!(!chaos_state.join("audit.jsonl").exists());

    sigterm(&child);
    let status = wait_exit(&mut child, Duration::from_secs(30));
    assert!(status.success(), "drained server exited {status}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn sigterm_drains_cleanly() {
    let root = temp_root("drain");
    let (mut child, addr) = spawn_server(&root.join("state"), &[]);
    assert_eq!(
        client::request(&addr, "GET", "/readyz", &[], b"", TIMEOUT).unwrap().status,
        200
    );
    sigterm(&child);
    let status = wait_exit(&mut child, Duration::from_secs(30));
    assert!(status.success(), "SIGTERM'd idle server exited {status}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn sigterm_mid_experiment_seals_checkpoint_for_resume() {
    // Drain, not crash: SIGTERM while a job runs must exit 0, leave
    // the job journaled as pending, and a restart must finish it to the
    // same bytes as the golden run above would.
    let root = temp_root("drain-mid");
    let state = root.join("state");
    let (mut child, addr) = spawn_server(&state, &[]);
    let id = submit_id(&addr, chaos_spec());
    std::thread::sleep(Duration::from_millis(120));

    sigterm(&child);
    let status = wait_exit(&mut child, Duration::from_secs(60));
    assert!(status.success(), "mid-experiment drain exited {status}");

    let (mut child, addr) = spawn_server(&state, &[]);
    wait_done(&addr, &id);
    let resp = client::request(
        &addr,
        "GET",
        &format!("/experiments/{id}/attribution"),
        &[],
        b"",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    sigterm(&child);
    let status = wait_exit(&mut child, Duration::from_secs(30));
    assert!(status.success());
    let _ = fs::remove_dir_all(&root);
}

/// VmRSS of a live process, in kilobytes (Linux only).
fn rss_kb(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[test]
fn overload_burst_sheds_and_memory_stays_bounded() {
    let root = temp_root("overload");
    let state = root.join("state");
    let (mut child, addr) = spawn_server(&state, &["--queue-cap", "1"]);

    // Occupy the executor with a long job, then burst 10× the cap.
    let long_spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":300000,"clients":2,"duration_ms":200,"warmup_ms":40,
        "seed":11},"runs":8,"ckpt_events":25000}"#;
    let resp = submit(&addr, long_spec);
    assert_eq!(resp.status, 201, "{}", resp.text());

    let mut shed = 0;
    for seed in 0..10u64 {
        let spec = chaos_spec().replace("\"seed\":7", &format!("\"seed\":{}", 100 + seed));
        let resp = submit(&addr, &spec);
        match resp.status {
            201 => {}
            503 => {
                assert!(
                    resp.header("retry-after").is_some(),
                    "503 without Retry-After: {}",
                    resp.text()
                );
                shed += 1;
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(shed >= 1, "burst of 10 over queue cap 1 shed nothing");

    // Still healthy, and memory is bounded: queued work is ids, not
    // buffered request bodies.
    assert_eq!(
        client::request(&addr, "GET", "/healthz", &[], b"", TIMEOUT).unwrap().status,
        200
    );
    if let Some(kb) = rss_kb(child.id()) {
        assert!(kb < 512 * 1024, "server RSS {kb} kB under a 10x burst");
    }

    sigterm(&child);
    let status = wait_exit(&mut child, Duration::from_secs(60));
    assert!(status.success(), "overloaded server failed to drain: {status}");
    let _ = fs::remove_dir_all(&root);
}
