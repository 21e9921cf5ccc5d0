//! The service itself: acceptor, worker pool, executor, router.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! ```text
//! acceptor ──(bounded channel)──> 4 http workers ──> router
//!                                     │
//!                 POST /experiments ──┴──(JobStore's queue)──> executor
//!                                                                  │
//!                                                      run_config_sweep
//! ```
//!
//! Every handler and the executor read and write one record per job,
//! the [`JobStore`]: status, detail and progress lines change under
//! its lock, so `GET /experiments/{id}` and `/events` see them in one
//! snapshot, and an `/events` stream ends with `end` once the status
//! it reads is terminal.
//!
//! Overload behavior is explicit at every hop: the acceptor sheds
//! connections past the cap with an immediate `503`, admission sheds
//! submissions past the job queue's cap with `503` + `Retry-After`
//! (journaling nothing, so a keyed retry is admitted later), and every
//! socket carries read/write timeouts so no worker blocks past its
//! budget. [`ServerHandle::drain`] runs the graceful-shutdown
//! sequence: stop accepting, answer queued connections, cancel the
//! in-flight sweep at its next checkpoint (sealing it), exit. There is
//! no journal to flush: every append is fsynced on its own.

use std::fs;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::TrySendError::{Disconnected, Full};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::Serialize;
use treadmill_core::journal::write_atomic;
use treadmill_core::{SweepControl, SweepEvent, SweepOptions};
use treadmill_inference::run_config_sweep;

use crate::http::{self, HttpError, Request};
use crate::job::{ExperimentSpec, JobStatus};
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

/// Connections queued for the HTTP workers; accepts beyond it get an
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

struct Shared {
    opts: ServeOptions,
    store: JobStore,
    draining: AtomicBool,
}

impl Shared {
    fn job_dir(&self, id: &str) -> PathBuf {
        self.opts.state_dir.join("jobs").join(id)
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
        self.shared.store.close();
        // The acceptor blocks in `accept`: one connection to its own
        // address wakes it to observe the flag and exit, closing the
        // connection channel behind the connections already queued.
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

/// Starts the service: opens the store (replaying its journal and
/// queueing the jobs it left pending), binds the listener, writes
/// `addr.txt`, and spawns the thread pool.
///
/// # Errors
///
/// Filesystem or socket trouble: the state directory, the journal, the
/// listener or a thread.
pub fn start(opts: ServeOptions) -> io::Result<ServerHandle> {
    // A pending job's next `running` line journals its recovery.
    let (store, _) = JobStore::open(&opts.state_dir, opts.queue_cap)?;

    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    write_atomic(
        &opts.state_dir.join("addr.txt"),
        format!("{addr}\n").as_bytes(),
    )?;

    let shared = Arc::new(Shared {
        draining: AtomicBool::new(false),
        store,
        opts,
    });
    let (conns, queued) = mpsc::sync_channel(MAX_CONNS);
    let queued = Arc::new(Mutex::new(queued));

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("tml-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener, conns))?,
        );
    }
    for i in 0..HTTP_WORKERS {
        let shared = Arc::clone(&shared);
        let queued = Arc::clone(&queued);
        threads.push(
            thread::Builder::new()
                .name(format!("tml-http-{i}"))
                .spawn(move || worker_loop(&shared, &queued))?,
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

/// Accepts until a drain, queueing each connection for the workers.
/// Returning drops `conns`: the workers answer the connections already
/// queued, then find the channel closed and exit.
fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener, conns: SyncSender<TcpStream>) {
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
                if let Err(Full(mut stream) | Disconnected(mut stream)) = conns.try_send(stream) {
                    // Connection cap reached: shed at the door with an
                    // explicit 503 instead of queueing unboundedly.
                    let _ = shed_response(&mut stream, "connection cap reached");
                }
            }
            // A failed accept (a peer that reset first, a full file
            // table) is not fatal; the pause keeps a lasting one from
            // spinning.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, queued: &Mutex<Receiver<TcpStream>>) {
    loop {
        // One worker at a time waits in `recv`; the lock is released at
        // the end of this statement, before the request is handled.
        let next = queued.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(mut stream) = next else {
            return;
        };
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
        queue_depth: Some(shared.store.depth()),
        queue_cap: Some(shared.store.cap()),
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
    let note = format!("queued ({} runs)", spec.runs);
    match shared.store.submit(key, &spec.canonical_json(), &note) {
        Ok(SubmitOutcome::Created { job, depth }) => {
            let body = SubmitBody {
                id: job.id,
                status: job.status,
                deduplicated: None,
                queue_depth: Some(depth),
            };
            json_response(stream, 201, &body, &[])
        }
        Ok(SubmitOutcome::Deduplicated(job)) => {
            let body = SubmitBody {
                id: job.id,
                status: job.status,
                deduplicated: Some(true),
                queue_depth: None,
            };
            json_response(stream, 200, &body, &[])
        }
        Ok(SubmitOutcome::Shed) => shed_response(stream, "admission queue full"),
        Ok(SubmitOutcome::Closed) => shed_response(stream, "server is draining"),
        Err(e) => error_response(stream, 500, "store", &e.to_string()),
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
        events: job.events,
    };
    json_response(stream, 200, &body, &[])
}

fn handle_events(
    shared: &Arc<Shared>,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<()> {
    // Lines and status come from one read of the store, and a job's
    // last lines land before its terminal status: a stream that sees
    // `done` or `failed` has already sent every line.
    let Some(mut read) = shared.store.progress(id, 0) else {
        return error_response(stream, 404, "not-found", "no such experiment");
    };
    let deadline = Instant::now() + EVENTS_WINDOW;
    let mut cursor = 0usize;
    http::start_chunked(stream, 200, "text/plain; charset=utf-8")?;
    loop {
        let (lines, status) = read;
        cursor += lines.len();
        for line in &lines {
            http::write_chunk(stream, format!("{line}\n").as_bytes())?;
        }
        if status.is_terminal() {
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
        // Jobs are never removed, so a job read once reads again.
        let Some(next) = shared.store.progress(id, cursor) else {
            break;
        };
        read = next;
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
    while let Some(id) = shared.store.next() {
        execute_job(shared, &id);
    }
}

fn execute_job(shared: &Arc<Shared>, id: &str) {
    let Some(job) = shared.store.get(id) else {
        return;
    };
    let say = |line: String| shared.store.push_progress(id, line);
    let spec = match ExperimentSpec::from_json(&job.spec_json) {
        Ok(spec) => spec,
        Err(e) => {
            let detail = format!("journaled spec no longer validates: {e}");
            say(format!("job {id}: failed — {detail}"));
            let _ = shared.store.set_status(id, JobStatus::Failed, Some(&detail));
            return;
        }
    };
    let out_dir = shared.job_dir(id);
    // A job that already has a directory ran before this attempt (a
    // SIGKILL or a drain stopped it); the sweep replays whatever it
    // journaled there.
    let resumed = out_dir.exists();
    let _ = shared.store.set_status(id, JobStatus::Running, None);
    say(format!(
        "job {id}: running {} run(s){}",
        spec.runs,
        if resumed { ", resuming from journal" } else { "" }
    ));

    let opts = SweepOptions {
        runs: spec.runs,
        ckpt_events: spec.ckpt_events,
    };
    let mut on_event = |event: SweepEvent| say(event.to_string());
    let mut ctrl = SweepControl {
        cancel: Some(&shared.draining),
        progress: Some(&mut on_event),
    };
    // The whole computation runs under `catch_unwind`: engine invariant
    // violations abort by panicking, and that must poison only this job
    // — the journal and admission state the service still owns stay
    // consistent because the sweep mutates nothing of `Shared` directly.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_config_sweep(&spec.config, &out_dir, &opts, &mut ctrl)
    }));
    let result = match caught {
        Ok(outcome) => outcome.map_err(|e| e.to_string()),
        Err(payload) => Err(format!(
            "sweep aborted by engine invariant panic: {}",
            panic_text(&payload)
        )),
    };
    match result {
        Ok(swept) if swept.interrupted => {
            // Deliberately left `running`: the journal + sealed
            // checkpoint are exactly what a restart picks up.
            say(format!("job {id}: interrupted by drain; a restart continues it"));
        }
        // Every final line lands before the terminal status is
        // published, so a client that reads `done` (or sees the
        // `/events` stream end) has every line to read.
        Ok(swept) => {
            for warning in &swept.warnings {
                say(format!("warning: {warning}"));
            }
            say(format!("job {id}: done"));
            let _ = shared.store.set_status(id, JobStatus::Done, None);
        }
        Err(detail) => {
            say(format!("job {id}: failed — {detail}"));
            let _ = shared.store.set_status(id, JobStatus::Failed, Some(&detail));
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
