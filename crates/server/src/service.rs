//! The service itself: acceptor, worker pool, executor, router.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! ```text
//! acceptor ──(bounded conn queue)──> 4 http workers ──> router
//!                                        │
//!                    POST /experiments ──┴──(bounded job queue)──> executor
//!                                                                     │
//!                                                     run_sweep_controlled
//! ```
//!
//! Overload behavior is explicit at every hop: the acceptor sheds
//! connections past the cap with an immediate `503`, the job queue
//! sheds submissions with `503` + `Retry-After`, and every socket
//! carries read/write timeouts so no worker blocks past its budget.
//! [`ServerHandle::drain`] runs the graceful-shutdown sequence: stop
//! accepting, answer queued connections, cancel the in-flight sweep
//! at its next checkpoint (sealing it), exit. There is no journal to
//! flush: every append is fsynced on its own.

use std::fs;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use std::collections::BTreeMap;

use serde::Serialize;
use treadmill_core::journal::write_atomic;
use treadmill_core::{
    run_factorial_sweep_controlled, run_sweep_controlled, SweepControl, SweepEvent,
    SweepOptions,
};

use crate::http::{self, HttpError, Request};
use crate::job::{ExperimentSpec, JobStatus};
use crate::queue::{BoundedQueue, Push};
use crate::store::{JobStore, SubmitOutcome};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (written to
    /// `state_dir/addr.txt` for discovery).
    pub addr: String,
    /// Root for the job journal and the per-job artifact dirs.
    pub state_dir: PathBuf,
    /// Admission-queue capacity; submissions beyond it get `503`.
    pub queue_cap: usize,
}

/// HTTP worker threads.
const HTTP_WORKERS: usize = 4;

/// Connection cap (queued + in-flight); accepts beyond it get an
/// immediate `503`.
const MAX_CONNS: usize = 32;

/// Per-socket read and write timeout.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest a `/events` stream stays open before asking the client to
/// reconnect (bounds worker occupancy).
const EVENTS_WINDOW: Duration = Duration::from_secs(10);

impl ServeOptions {
    /// Defaults tuned for tests and small deployments.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            queue_cap: 8,
        }
    }
}

/// In-memory progress buffer for one job, streamed by `/events`.
/// Bounded: past [`MAX_PROGRESS_LINES`] lines, older detail is
/// dropped in favor of a truncation marker (memory stays bounded no
/// matter how long a job runs).
struct Progress {
    lines: Mutex<Vec<String>>,
    dropped: AtomicBool,
    done: AtomicBool,
}

const MAX_PROGRESS_LINES: usize = 4096;

impl Progress {
    fn new() -> Self {
        Progress {
            lines: Mutex::new(Vec::new()),
            dropped: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }

    fn push(&self, line: String) {
        let mut lines =
            self.lines.lock().unwrap_or_else(PoisonError::into_inner);
        if lines.len() >= MAX_PROGRESS_LINES {
            if !self.dropped.swap(true, Ordering::Relaxed) {
                lines.push("… further progress truncated".to_string());
            }
            return;
        }
        lines.push(line);
    }

    /// Lines from `from` onward, plus whether the job is finished.
    fn snapshot(&self, from: usize) -> (Vec<String>, bool) {
        let lines =
            self.lines.lock().unwrap_or_else(PoisonError::into_inner);
        let tail = if from < lines.len() {
            lines[from..].to_vec()
        } else {
            Vec::new()
        };
        (tail, self.done.load(Ordering::SeqCst))
    }

    fn count(&self) -> usize {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
    }
}

struct Shared {
    opts: ServeOptions,
    store: JobStore,
    jobs: BoundedQueue<String>,
    conns: BoundedQueue<TcpStream>,
    draining: AtomicBool,
    progress: Mutex<BTreeMap<String, Arc<Progress>>>,
}

impl Shared {
    fn job_dir(&self, id: &str) -> PathBuf {
        self.opts.state_dir.join("jobs").join(id)
    }

    fn progress_for(&self, id: &str) -> Arc<Progress> {
        let mut map =
            self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(id.to_string())
                .or_insert_with(|| Arc::new(Progress::new())),
        )
    }

    fn find_progress(&self, id: &str) -> Option<Arc<Progress>> {
        self.progress
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .map(Arc::clone)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// A running service. Dropping the handle does NOT stop it; call
/// [`ServerHandle::drain`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful shutdown: stop accepting, drop queued jobs
    /// (they stay journaled), cancel the in-flight sweep at its next
    /// checkpoint boundary.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.jobs.close(false);
        // The acceptor blocks in `accept`: one connection to its own
        // address wakes it to observe the flag, close the connection
        // queue (draining queued connections) and exit.
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }

    /// Waits for every thread to exit. An `Err` means a worker
    /// panicked — a bug, since the panic budget is zero.
    pub fn join(self) -> Result<(), String> {
        let mut panicked = 0usize;
        for t in self.threads {
            if t.join().is_err() {
                panicked += 1;
            }
        }
        if panicked == 0 {
            Ok(())
        } else {
            Err(format!("{panicked} service thread(s) panicked"))
        }
    }
}

/// Starts the service: opens the store (replaying its journal), binds
/// the listener, writes `addr.txt`, re-enqueues the jobs the journal
/// left pending, and spawns the thread pool.
///
/// # Errors
///
/// Filesystem or socket trouble: the state directory, the journal, the
/// listener or a thread.
pub fn start(opts: ServeOptions) -> io::Result<ServerHandle> {
    let (store, report) = JobStore::open(&opts.state_dir)?;

    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    write_atomic(
        &opts.state_dir.join("addr.txt"),
        format!("{addr}\n").as_bytes(),
    )?;

    let shared = Arc::new(Shared {
        jobs: BoundedQueue::new(opts.queue_cap),
        conns: BoundedQueue::new(MAX_CONNS),
        draining: AtomicBool::new(false),
        progress: Mutex::new(BTreeMap::new()),
        store,
        opts,
    });

    // Re-admit journaled pending jobs (recovery bypasses the cap:
    // they were admitted under it originally). The job's next `running`
    // line journals the recovery.
    for id in report.pending {
        if let Some(job) = shared.store.get(&id) {
            shared.progress_for(&id).push(format!(
                "job {id}: recovered from journal ({})",
                job.status
            ));
            shared.jobs.push_unchecked(id);
        }
    }

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("tml-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener))?,
        );
    }
    for i in 0..HTTP_WORKERS {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name(format!("tml-http-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("tml-executor".to_string())
                .spawn(move || executor_loop(&shared))?,
        );
    }

    Ok(ServerHandle { addr, shared, threads })
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    // `accept` blocks until a connection arrives, so a waiting client
    // is served at once; `ServerHandle::drain` connects once to wake it.
    loop {
        let accepted = listener.accept();
        if shared.draining() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
                let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
                match shared.conns.push(stream) {
                    Push::Accepted { .. } => {}
                    Push::Shed(mut stream) | Push::Closed(mut stream) => {
                        // Connection cap reached: shed at the door with
                        // an explicit 503 instead of queueing unboundedly.
                        let _ = shed_response(&mut stream, "connection cap reached");
                    }
                }
            }
            // A failed accept (a peer that reset first, a full file
            // table) is not fatal; the pause keeps a lasting one from
            // spinning.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    // Stop taking new connections but answer the ones already queued.
    shared.conns.close(true);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(mut stream) = shared.conns.pop() {
        handle_conn(shared, &mut stream);
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let req = match http::read_request(stream) {
        Ok(req) => req,
        Err(HttpError::Closed) => return,
        Err(HttpError::Timeout) => {
            let _ = error_response(stream, 408, "timeout", "request timed out");
            return;
        }
        Err(HttpError::TooLarge(what)) => {
            let _ = error_response(stream, 413, "too-large", what);
            return;
        }
        Err(HttpError::Malformed(what)) => {
            let _ = error_response(stream, 400, "malformed", what);
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    route(shared, &req, stream);
}

/// `{"error":{"kind":…,"message":…}}`, every error body but a
/// rejected spec's ([`crate::SpecError::to_json_body`]).
#[derive(Serialize)]
struct ErrorBody {
    error: ErrorDetail,
}

#[derive(Serialize)]
struct ErrorDetail {
    kind: String,
    message: String,
}

/// `GET /readyz`; a draining server reports only its status.
#[derive(Serialize)]
struct ReadyBody {
    status: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    queue_depth: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    queue_cap: Option<usize>,
}

/// `POST /experiments`: a new job reports its queue depth, a
/// deduplicated one says so instead.
#[derive(Serialize)]
struct SubmitBody {
    id: String,
    status: JobStatus,
    #[serde(skip_serializing_if = "Option::is_none")]
    deduplicated: Option<bool>,
    #[serde(skip_serializing_if = "Option::is_none")]
    queue_depth: Option<usize>,
}

/// `GET /experiments/{id}`.
#[derive(Serialize)]
struct StatusBody {
    id: String,
    status: JobStatus,
    detail: Option<String>,
    events: usize,
}

fn error_response(
    stream: &mut TcpStream,
    status: u16,
    kind: &str,
    message: &str,
) -> io::Result<()> {
    json_response(stream, status, &error_body(kind, message), &[])
}

fn error_body(kind: &str, message: &str) -> ErrorBody {
    ErrorBody {
        error: ErrorDetail {
            kind: kind.to_string(),
            message: message.to_string(),
        },
    }
}

fn json_response(
    stream: &mut TcpStream,
    status: u16,
    body: &impl Serialize,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let body = serde_json::to_string(body).unwrap_or_default();
    http::respond(stream, status, "application/json", body.as_bytes(), extra)
}

fn route(shared: &Arc<Shared>, req: &Request, stream: &mut TcpStream) {
    let path = req.path.trim_matches('/').to_string();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let _ = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            http::respond(stream, 200, "text/plain", b"ok\n", &[])
        }
        ("GET", ["readyz"]) => handle_readyz(shared, stream),
        ("POST", ["experiments"]) => handle_submit(shared, req, stream),
        ("GET", ["experiments", id]) => handle_status(shared, id, stream),
        ("GET", ["experiments", id, "events"]) => {
            handle_events(shared, id, stream)
        }
        ("GET", ["experiments", id, "attribution"]) => {
            handle_artifact(shared, id, "attribution.tsv", stream)
        }
        ("GET", ["experiments", id, "summary"]) => {
            handle_artifact(shared, id, "summary.tsv", stream)
        }
        ("GET", ["experiments", id, "screen"]) => {
            handle_artifact(shared, id, "screen.tsv", stream)
        }
        ("GET", ["experiments", id, "factorial"]) => {
            handle_artifact(shared, id, "factorial.tsv", stream)
        }
        ("POST" | "GET", _) => {
            error_response(stream, 404, "not-found", "no such route")
        }
        _ => error_response(stream, 405, "method", "unsupported method"),
    };
}

fn handle_readyz(shared: &Arc<Shared>, stream: &mut TcpStream) -> io::Result<()> {
    if shared.draining() {
        let body = ReadyBody {
            status: "draining".to_string(),
            queue_depth: None,
            queue_cap: None,
        };
        return json_response(stream, 503, &body, &[("Retry-After", "1")]);
    }
    let body = ReadyBody {
        status: "ready".to_string(),
        queue_depth: Some(shared.jobs.depth()),
        queue_cap: Some(shared.jobs.cap()),
    };
    json_response(stream, 200, &body, &[])
}

fn shed_response(stream: &mut TcpStream, why: &str) -> io::Result<()> {
    json_response(
        stream,
        503,
        &error_body("overloaded", why),
        &[("Retry-After", "1")],
    )
}

fn handle_submit(
    shared: &Arc<Shared>,
    req: &Request,
    stream: &mut TcpStream,
) -> io::Result<()> {
    if shared.draining() {
        return shed_response(stream, "server is draining");
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return error_response(stream, 400, "malformed", "body is not UTF-8");
    };
    let spec = match ExperimentSpec::from_json(body) {
        Ok(spec) => spec,
        Err(e) => {
            return http::respond(
                stream,
                400,
                "application/json",
                &e.to_json_body(),
                &[],
            );
        }
    };
    let key = req.header("idempotency-key");
    let outcome = match shared.store.submit(key, &spec.canonical_json()) {
        Ok(outcome) => outcome,
        Err(e) => {
            return error_response(stream, 500, "store", &e.to_string());
        }
    };
    match outcome {
        SubmitOutcome::Deduplicated(job) => {
            let body = SubmitBody {
                id: job.id,
                status: job.status,
                deduplicated: Some(true),
                queue_depth: None,
            };
            json_response(stream, 200, &body, &[])
        }
        SubmitOutcome::Created(job) => {
            shared.progress_for(&job.id).push(format!(
                "job {}: queued ({} cells)",
                job.id, spec.runs
            ));
            match shared.jobs.push(job.id.clone()) {
                Push::Accepted { depth } => {
                    let body = SubmitBody {
                        id: job.id,
                        status: JobStatus::Queued,
                        deduplicated: None,
                        queue_depth: Some(depth),
                    };
                    json_response(stream, 201, &body, &[])
                }
                Push::Shed(_) | Push::Closed(_) => {
                    // Journal the shed so the job is not silently lost,
                    // then tell the client to retry.
                    let _ = shared.store.set_status(
                        &job.id,
                        JobStatus::Failed,
                        Some("shed at admission: queue full"),
                    );
                    shed_response(stream, "admission queue full")
                }
            }
        }
    }
}

fn handle_status(
    shared: &Arc<Shared>,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let Some(job) = shared.store.get(id) else {
        return error_response(stream, 404, "not-found", "no such experiment");
    };
    let body = StatusBody {
        id: job.id,
        status: job.status,
        detail: job.detail,
        events: shared.find_progress(id).map_or(0, |p| p.count()),
    };
    json_response(stream, 200, &body, &[])
}

fn handle_events(
    shared: &Arc<Shared>,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    if shared.store.get(id).is_none() {
        return error_response(stream, 404, "not-found", "no such experiment");
    }
    let progress = shared.progress_for(id);
    let deadline = Instant::now() + EVENTS_WINDOW;
    let mut cursor = 0usize;
    http::start_chunked(stream, 200, "text/plain; charset=utf-8")?;
    loop {
        let (lines, done) = progress.snapshot(cursor);
        cursor += lines.len();
        for line in &lines {
            http::write_chunk(stream, format!("{line}\n").as_bytes())?;
        }
        if done {
            http::write_chunk(stream, b"end\n")?;
            break;
        }
        if shared.draining() {
            http::write_chunk(stream, b"server draining; reconnect later\n")?;
            break;
        }
        if Instant::now() >= deadline {
            http::write_chunk(stream, b"stream window elapsed; reconnect\n")?;
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    http::end_chunked(stream)
}

fn handle_artifact(
    shared: &Arc<Shared>,
    id: &str,
    name: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let Some(job) = shared.store.get(id) else {
        return error_response(stream, 404, "not-found", "no such experiment");
    };
    match job.status {
        JobStatus::Done => {}
        JobStatus::Failed => {
            return error_response(
                stream,
                409,
                "failed",
                job.detail.as_deref().unwrap_or("experiment failed"),
            );
        }
        JobStatus::Queued | JobStatus::Running => {
            return error_response(
                stream,
                409,
                "not-ready",
                "experiment still in progress",
            );
        }
    }
    match fs::read(shared.job_dir(id).join(name)) {
        Ok(bytes) => http::respond(
            stream,
            200,
            "text/tab-separated-values",
            &bytes,
            &[],
        ),
        // A repeated-run job writes no screen or factorial table, and a
        // screened job no summary or attribution.
        Err(e) if e.kind() == io::ErrorKind::NotFound => error_response(
            stream,
            404,
            "not-found",
            &format!("experiment {id} has no {name}"),
        ),
        Err(e) => error_response(stream, 500, "artifact", &e.to_string()),
    }
}

fn executor_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.jobs.pop() {
        execute_job(shared, &id);
    }
}

fn execute_job(shared: &Arc<Shared>, id: &str) {
    let Some(job) = shared.store.get(id) else {
        return;
    };
    let progress = shared.progress_for(id);
    let spec = match ExperimentSpec::from_json(&job.spec_json) {
        Ok(spec) => spec,
        Err(e) => {
            let detail = format!("journaled spec no longer validates: {e}");
            progress.push(format!("job {id}: failed — {detail}"));
            let _ = shared.store.set_status(id, JobStatus::Failed, Some(&detail));
            progress.finish();
            return;
        }
    };
    let out_dir = shared.job_dir(id);
    // A job that already has a directory ran before this attempt (a
    // SIGKILL or a drain stopped it); the sweep replays whatever it
    // journaled there.
    let resumed = out_dir.exists();
    let _ = shared.store.set_status(id, JobStatus::Running, None);
    progress.push(format!(
        "job {id}: running {} cell(s){}",
        spec.runs,
        if resumed { ", resuming from journal" } else { "" }
    ));

    let opts = SweepOptions {
        runs: spec.runs,
        ckpt_events: spec.ckpt_events,
    };
    let mut on_event = |event: SweepEvent| progress.push(event.to_string());
    let mut ctrl = SweepControl {
        cancel: Some(&shared.draining),
        progress: Some(&mut on_event),
    };
    // A spec with a `screen` block runs the two-stage screened
    // factorial sweep (analytic screen, then DES on flagged cells);
    // otherwise the classic repeated-run sweep. The whole computation
    // runs under `catch_unwind`: engine invariant violations abort by
    // panicking, and that must poison only this job — the journal and
    // admission state the service still owns stay consistent because
    // the sweep mutates nothing of `Shared` directly.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || {
            if let Some(screen) = spec.config.screen {
                progress.push(format!(
                    "job {id}: analytic screen over 16 hardware cells (threshold {:.3})",
                    screen.threshold
                ));
                match treadmill_inference::screen_hardware(&spec.config, screen.threshold) {
                    Ok(plan) => {
                        let sweep_plan = plan.to_sweep_plan();
                        progress.push(format!(
                            "job {id}: screen flagged {} of 16 cells for simulation",
                            sweep_plan.cells.iter().filter(|c| c.flagged).count()
                        ));
                        run_factorial_sweep_controlled(
                            &spec.config,
                            &out_dir,
                            &opts,
                            Some(&sweep_plan),
                            &mut ctrl,
                        )
                        .map(|o| (o.interrupted, o.warnings))
                    }
                    Err(e) => Err(treadmill_core::SweepError::Screen {
                        message: e.to_string(),
                    }),
                }
            } else {
                run_sweep_controlled(&spec.config, &out_dir, &opts, &mut ctrl)
                    .map(|o| (o.interrupted, o.warnings))
            }
        },
    ));
    let result: Result<(bool, Vec<String>), String> = match caught {
        Ok(outcome) => outcome.map_err(|e| e.to_string()),
        Err(payload) => Err(format!(
            "sweep aborted by engine invariant panic: {}",
            panic_text(&payload)
        )),
    };
    match result {
        Ok((interrupted, _)) if interrupted => {
            // Deliberately left `running`: the journal + sealed
            // checkpoint are exactly what a restart picks up.
            progress.push(format!(
                "job {id}: interrupted by drain; a restart continues it"
            ));
        }
        // Every final line lands before the terminal status is
        // published, so a client that reads `done` (or sees the
        // `/events` stream end) has every line to read.
        Ok((_, warnings)) => {
            for warning in &warnings {
                progress.push(format!("warning: {warning}"));
            }
            progress.push(format!("job {id}: done"));
            let _ = shared.store.set_status(id, JobStatus::Done, None);
            progress.finish();
        }
        Err(detail) => {
            progress.push(format!("job {id}: failed — {detail}"));
            let _ = shared.store.set_status(id, JobStatus::Failed, Some(&detail));
            progress.finish();
        }
    }
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// or a formatted message; anything else reports its opacity).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}
