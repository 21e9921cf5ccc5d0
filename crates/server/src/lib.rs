//! Load testing as a service: `treadmill-serve`.
//!
//! The paper's Treadmill is meant to run *continuously* against
//! production systems; this crate wraps the crash-tolerant sweep
//! orchestration of [`treadmill_core::sweep`] in a long-running HTTP
//! service with submit / monitor / fetch semantics. Robustness is the
//! design driver — a tail-latency tool that adds its own tail (or
//! loses work to a crash) is self-defeating — so every layer degrades
//! gracefully:
//!
//! * **One record per job** ([`store`]): the [`store::JobStore`] holds
//!   each job's spec, status, failure detail and progress lines, and
//!   the queue of ids waiting for the executor, under one lock. It
//!   appends every admitted job and every state transition to an
//!   fsynced `jobs.jsonl` journal before changing memory (the same
//!   [`treadmill_core::journal::Journal`] as the sweep manifest, so
//!   torn lines are sealed and skipped on replay). Each line is
//!   stamped with its wall-clock `unix_ms`, and a submission line holds
//!   the spec, so the journal is also the provenance trail. A server
//!   restarted on the same state directory, after a SIGKILL or a
//!   drain, replays the journal, re-admits the jobs it left pending
//!   and continues in-flight experiments from their checkpoints,
//!   producing byte-identical artifacts. There is no flag for this:
//!   recovery is the only way a server starts. `/events` streams a
//!   job's progress lines and ends with `end` once its status is
//!   terminal, a job finished before a restart included.
//! * **Admission control** ([`store`], [`service`]): admission sheds a
//!   submission past the job queue's cap with `503` + `Retry-After`
//!   instead of growing without bound, and journals nothing for it, so
//!   a keyed retry is admitted once the queue drains; a connection cap
//!   and per-request socket timeouts bound HTTP-side memory and
//!   latency.
//! * **Graceful drain** ([`shutdown`], [`service`]): SIGTERM stops the
//!   acceptor, cancels the in-flight sweep at the next checkpoint
//!   boundary (sealing it to disk), and exits — every journal append
//!   is already fsynced, so the state on disk is a SIGKILL's, minus
//!   the lost batch.
//!
//! The HTTP layer ([`http`]) is dependency-free: a hand-rolled
//! HTTP/1.1 parser over `std::net::TcpListener` with a fixed
//! worker-thread pool. [`client`] is the matching minimal client used
//! by the `treadmill-cli` `submit` / `status` / `fetch` subcommands.

// Unlike the simulation crates this one is allowed to read wall
// clocks (it serves real sockets). Panic budget is zero: handlers must
// degrade, not abort.
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)
)]

pub mod client;
pub mod http;
pub mod job;
pub mod service;
pub mod shutdown;
pub mod store;

pub use job::{ExperimentSpec, JobStatus, SpecError};
pub use service::{start, ServeOptions, ServerHandle};
pub use store::{JobStore, ReplayReport, StoredJob, SubmitOutcome};
