//! `service_screened`: a `treadmill-serve` on a fresh state directory,
//! driven over HTTP by one closed-loop client (one connection at a
//! time). Each job POSTs a screened-factorial `ExperimentSpec`, polls
//! its status, then GETs `factorial.tsv` and `screen.tsv`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use treadmill_core::{run_factorial_sweep_controlled, SweepControl, SweepEvent, SweepOptions};
use treadmill_server::client::request;
use treadmill_server::ExperimentSpec;

use crate::replica::{self, RunDigest};
use crate::trace::Tracer;
use crate::{
    end_to_end, fastest, layer_metrics, median, note_timing, peak_rss_mb, Args, Outcome,
};

/// Set-ups before the measured loop, each on a fresh server.
const SETUP_REPS: usize = 5;

/// Pause between status polls. A poll cycle (pause plus one request,
/// ~10 ms) quantises the measured turnaround, so jobs are sized to last
/// tens of cycles.
const POLL: Duration = Duration::from_millis(2);
/// Socket timeout of every request, and the longest wait for readiness.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Fewest measured jobs, whatever the time budget.
const MIN_OPS: usize = 4;

/// A running `treadmill-serve`; dropping it kills and reaps the process.
struct Server {
    child: Child,
    addr: String,
    state_dir: PathBuf,
}

impl Server {
    /// Spawns the server on a fresh state directory and waits until
    /// `/readyz` answers 200.
    fn start(bin: &Path, state_dir: PathBuf) -> Server {
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir).expect("create state dir");
        let mut child = Command::new(bin)
            .arg("--state-dir")
            .arg(&state_dir)
            .args(["--addr", "127.0.0.1:0"])
            // glibc's default mmap threshold, pinned: left dynamic, it
            // rises to the size of each large block freed, and the
            // server's peak RSS after a job then varied by 0.17 between
            // seeds (README.md). Pinned, it tracks live memory.
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn treadmill-serve");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the bound address");
        let addr = line
            .split_whitespace()
            .last()
            .unwrap_or_default()
            .to_string();
        let server = Server {
            child,
            addr,
            state_dir,
        };
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match request(&server.addr, "GET", "/readyz", &[], b"", TIMEOUT) {
                Ok(r) if r.status == 200 => return server,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("treadmill-serve never became ready: {other:?}"),
            }
        }
    }

    /// Journal lines the service wrote: jobs plus audit.
    fn journal_lines(&self) -> usize {
        ["jobs.jsonl", "audit.jsonl"]
            .iter()
            .filter_map(|f| std::fs::read_to_string(self.state_dir.join(f)).ok())
            .map(|text| text.lines().count())
            .sum()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One completed job as the client saw it.
struct Job {
    turnaround_ms: f64,
    submit_ms: f64,
    status_ms: Vec<f64>,
    fetch_ms: f64,
    artifacts: (Vec<u8>, Vec<u8>),
}

/// The value of string field `name` in a flat JSON object.
fn json_field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{name}\""))? + name.len() + 2..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(&rest[..rest.find('"')?])
}

/// Runs one job through the HTTP API: POST, poll, GET both artifacts.
/// Counts 503 sheds in `shed`.
fn job(addr: &str, body: &str, shed: &mut u64) -> Result<Job, String> {
    let timed = |method: &str, path: &str, body: &[u8]| {
        let start = Instant::now();
        let r =
            request(addr, method, path, &[], body, TIMEOUT).map_err(|e| format!("{path}: {e}"))?;
        Ok::<_, String>((r, start.elapsed().as_secs_f64() * 1e3))
    };
    let start = Instant::now();
    let (r, submit_ms) = timed("POST", "/experiments", body.as_bytes())?;
    if r.status == 503 {
        *shed += 1;
    }
    if r.status != 201 {
        return Err(format!("submit answered {}: {}", r.status, r.text()));
    }
    let text = r.text();
    let id = json_field(&text, "id")
        .ok_or("submit returned no id")?
        .to_string();
    let mut status_ms = Vec::new();
    loop {
        std::thread::sleep(POLL);
        let (r, ms) = timed("GET", &format!("/experiments/{id}"), b"")?;
        status_ms.push(ms);
        match (r.status, json_field(&r.text(), "status")) {
            (200, Some("done")) => break,
            (200, Some("queued" | "running")) => {}
            (status, _) => return Err(format!("job {id}: status {status}: {}", r.text())),
        }
    }
    let fetch = Instant::now();
    let mut artifacts = Vec::new();
    for name in ["factorial", "screen"] {
        let (r, _) = timed("GET", &format!("/experiments/{id}/{name}"), b"")?;
        if r.status != 200 {
            return Err(format!("GET {name} answered {}", r.status));
        }
        artifacts.push(r.body);
    }
    let end = Instant::now();
    let screen = artifacts.pop().expect("two artifacts");
    let factorial = artifacts.pop().expect("two artifacts");
    Ok(Job {
        turnaround_ms: (end - start).as_secs_f64() * 1e3,
        submit_ms,
        status_ms,
        fetch_ms: (end - fetch).as_secs_f64() * 1e3,
        artifacts: (factorial, screen),
    })
}

/// Measurement-window samples of a `factorial.tsv` (its `samples`
/// column, summed over cells).
fn window_samples(factorial: &[u8]) -> u64 {
    String::from_utf8_lossy(factorial)
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("cell"))
        .filter_map(|l| l.split('\t').nth(6)?.parse::<u64>().ok())
        .sum()
}

/// The one spec every job submits. Repeating the same spec is what lets
/// each job's artifacts be checked against the first job's.
///
/// The screen flags 2 of the 16 cells. A cell simulates ~2.5k events
/// per simulated ms, so `ckpt_events` of 1000 per ms checkpoints each
/// cell twice, at ~40% and ~80% of its events. A checkpoint holds every
/// record so far, so more checkpoints per cell make the job's disk
/// writes grow faster than its simulation: at 7 per cell they took ~40%
/// of a job (README.md).
fn spec_json(args: &Args) -> String {
    let duration_ms = if args.smoke { 30 } else { 600 };
    let seed = treadmill_sim_core::SeedStream::new(args.seed).derive("spec", 0);
    format!(
        r#"{{"config": {{"workload": {{"workload": "memcached"}}, "target_rps": 250000,
            "clients": 2, "connections_per_client": 4, "duration_ms": {duration_ms},
            "warmup_ms": {}, "seed": {seed}, "screen": {{"threshold": 0.25}}}},
            "runs": 1, "ckpt_events": {}}}"#,
        duration_ms / 4,
        duration_ms * 1000
    )
}

/// What the in-process run of a spec produced and cost.
struct InProcess {
    artifacts: (Vec<u8>, Vec<u8>),
    screen_ms: f64,
    sweep_ms: f64,
    checkpoints: u64,
    bytes: u64,
    /// (cell, aggregated p99 bits) of each simulated cell, in order.
    cells: Vec<(usize, u64)>,
}

/// The same spec through `screen_hardware` + `run_factorial_sweep_controlled`
/// in this process, with checkpoints counted through the progress hook.
fn in_process(body: &str, dir: &Path) -> InProcess {
    let spec = ExperimentSpec::from_json(body).expect("generated spec validates");
    let _ = std::fs::remove_dir_all(dir);
    let threshold = spec.config.screen.expect("screened spec").threshold;
    let start = Instant::now();
    let plan = treadmill_inference::screen_hardware(&spec.config, threshold).expect("screen");
    let screen_ms = start.elapsed().as_secs_f64() * 1e3;
    let opts = SweepOptions {
        runs: spec.runs,
        ckpt_events: spec.ckpt_events,
        ..SweepOptions::default()
    };
    let (mut checkpoints, mut p99s) = (0u64, Vec::new());
    let mut on_event = |event: SweepEvent| match event {
        SweepEvent::Checkpointed { .. } => checkpoints += 1,
        SweepEvent::CellDone { p99_us, .. } => p99s.push(p99_us.to_bits()),
        _ => {}
    };
    let mut ctrl = SweepControl {
        cancel: None,
        progress: Some(&mut on_event),
    };
    let start = Instant::now();
    let outcome = run_factorial_sweep_controlled(
        &spec.config,
        dir,
        &opts,
        Some(&plan.to_sweep_plan()),
        &mut ctrl,
    )
    .expect("in-process sweep");
    let sweep_ms = start.elapsed().as_secs_f64() * 1e3;
    let bytes = dir_bytes(dir);
    let read = |p: &Path| std::fs::read(p).expect("read in-process artifact");
    let screen_path = outcome
        .screen_path
        .as_deref()
        .expect("screened sweep writes screen.tsv");
    InProcess {
        artifacts: (read(&outcome.factorial_path), read(screen_path)),
        screen_ms,
        sweep_ms,
        checkpoints,
        bytes,
        // Cells run `runs` times each, in cell order, as the sweep does.
        cells: outcome
            .simulated
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, usize::try_from(spec.runs).unwrap_or(0)))
            .zip(p99s)
            .collect(),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

pub fn run(args: &Args) -> Outcome {
    let bin = args
        .serve_bin
        .clone()
        .expect("--serve-bin names the treadmill-serve binary");
    let spec = spec_json(args);
    let mut out = Outcome::default();
    let mut shed = 0u64;
    let mut failed_jobs = 0u64;
    // The first artifacts fetched; later jobs must match them.
    let mut fetched: Option<(Vec<u8>, Vec<u8>)> = None;
    let mut record = |out: &mut Outcome, result: Result<Job, String>| -> Option<Job> {
        match result {
            Ok(job) => {
                let first = fetched.get_or_insert_with(|| {
                    let mut pinned = job.artifacts.clone();
                    if args.corrupt {
                        pinned.0[0] ^= 1;
                    }
                    pinned
                });
                out.check(
                    *first == job.artifacts,
                    "repeated job fetches the same artifacts",
                );
                Some(job)
            }
            Err(e) => {
                out.check(false, &e);
                None
            }
        }
    };

    // Set-up: process start -> /readyz 200 -> one untimed warm-up job.
    // Each set-up starts a fresh server; the last one serves the run.
    let (mut setup_s, mut peaks) = (Vec::new(), Vec::new());
    let mut server = None;
    for rep in 0..SETUP_REPS {
        drop(server.take());
        let start = Instant::now();
        let s = Server::start(&bin, args.out_dir.join(format!("state-{rep}")));
        let warm = job(&s.addr, &spec, &mut shed);
        setup_s.push(start.elapsed().as_secs_f64());
        peaks.push(peak_rss_mb(&s.child.id().to_string()));
        record(&mut out, warm);
        server = Some(s);
    }
    let server = server.expect("set-up ran");
    let mut submitted = 1u64;

    let (mut turnaround, mut rates, mut status, mut submit, mut fetch) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let deadline = args.deadline();
    while turnaround.len() < MIN_OPS || Instant::now() < deadline {
        submitted += 1;
        let Some(job) = record(&mut out, job(&server.addr, &spec, &mut shed)) else {
            failed_jobs += 1;
            if failed_jobs > 3 {
                break;
            }
            continue;
        };
        rates.push(window_samples(&job.artifacts.0) as f64 / (job.turnaround_ms / 1e3));
        turnaround.push(job.turnaround_ms);
        status.extend(job.status_ms);
        submit.push(job.submit_ms);
        fetch.push(job.fetch_ms);
    }
    let journal_lines = server.journal_lines() as f64 / submitted as f64;
    drop(server);
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(args.out_dir.join(format!("state-{rep}")));
    }

    // The byte-identity promise: what the service served equals what
    // the same sweep writes in process.
    let dir = args.out_dir.join("inproc");
    let reference = in_process(&spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out.check(
        fetched.as_ref() == Some(&reference.artifacts),
        "served factorial.tsv/screen.tsv equal the in-process sweep's",
    );

    let mut tr = Tracer::new();
    let (mut plain_ms, mut traced_ms, mut events) = (0.0, 0.0, 0u64);
    if args.trace {
        // Every simulated cell again, plain and as a traced replica;
        // both must match the sweep's checkpointed run.
        let spec = ExperimentSpec::from_json(&spec).expect("generated spec validates");
        for (run_index, &(cell, p99_bits)) in reference.cells.iter().enumerate() {
            let mut config = spec.config.clone();
            config.hardware = Some(u8::try_from(cell).expect("16 cells"));
            config.screen = None;
            config.seed = treadmill_sim_core::fnv1a64(
                format!("{}/factorial/{cell}", spec.config.seed).as_bytes(),
            );
            let run_index = run_index as u64 % spec.runs;
            let start = Instant::now();
            let digest = RunDigest::of(&config.build().expect("cell config").run(run_index));
            plain_ms += start.elapsed().as_secs_f64() * 1e3;
            let workload = config.workload.build().expect("workload");
            let start = Instant::now();
            let replica = replica::run(&config, &workload, run_index, 1, &mut tr);
            traced_ms += start.elapsed().as_secs_f64() * 1e3;
            events += replica.digest.events;
            out.check(
                replica.digest == digest && digest.p99_bits == p99_bits,
                "cell replica reproduces the sweep's cell",
            );
        }
    }

    out.note(format!(
        "jobs={} poll_ms={}",
        turnaround.len(),
        POLL.as_millis()
    ));
    note_timing(&mut out, "job_turnaround_ms", &turnaround);
    out.note(format!(
        "job_turnaround_ms: fastest {:.3} ms",
        fastest(&turnaround)
    ));
    note_timing(&mut out, "http_ms (status polls)", &status);
    out.note(format!(
        "screen.ms {:.3}; screen.cells_simulated {} of 16; sweep.ms {:.3}; \
         sweep.checkpoints {}; sweep.bytes {} -> op_ms on service_screened only",
        reference.screen_ms,
        reference.cells.len(),
        reference.sweep_ms,
        reference.checkpoints,
        reference.bytes
    ));
    out.note(format!(
        "server.submit_ms {:.3}; server.status_ms {:.3}; server.fetch_ms {:.3}; \
         server.overhead_ms {:.3} (turnaround - in-process screen - sweep); \
         server.journal_lines {journal_lines:.2} per job; server.shed {shed} \
         -> op_ms on service_screened only",
        median(&mut submit),
        median(&mut status.clone()),
        median(&mut fetch),
        median(&mut turnaround.clone()) - (reference.screen_ms + reference.sweep_ms),
    ));
    if args.trace {
        layer_metrics(args, &mut out, &tr, &[events], &[plain_ms], &[traced_ms]);
    } else {
        // The median job, not the fastest: a job spans ~450 ms of a
        // host whose speed changes from job to job, and over six runs
        // the fastest of ~35 jobs spread 0.12 where the median spread
        // 0.03 (README.md).
        end_to_end(
            &mut out,
            &setup_s,
            median(&mut turnaround),
            median(&mut rates),
            median(&mut peaks),
        );
    }
    out
}
