//! A deterministic discrete-event datacenter simulator: the substrate
//! that stands in for the Treadmill paper's production testbed.
//!
//! The paper evaluates load testers and attributes tail latency on real
//! Facebook hardware — dual-socket Xeon servers with Turbo Boost, DVFS
//! governors, NUMA memory policies and RSS NIC steering, driven by
//! racks of client machines over 10 GbE, with tcpdump as ground truth.
//! This crate simulates that entire environment:
//!
//! * [`Server`](server::Server) — 16 cores on 2 sockets with per-core
//!   run queues, a DVFS governor, a turbo/thermal model, NUMA-sensitive
//!   service times, and RSS interrupt steering;
//! * [`Network`] — rate-limited links with rack-distance propagation;
//! * [`ClientMachine`] — load-tester hosts whose own CPU queueing is
//!   part of the model (pitfall §II-C);
//! * [`TrafficSource`] — when a client sends, and [`OpenLoopSource`],
//!   Treadmill's open-loop controller (pitfall §II-A);
//! * [`RunState`] — per-run placement state, the cause of performance
//!   hysteresis (pitfall §II-D);
//! * [`PacketCapture`] — the tcpdump-equivalent NIC-level ground truth;
//! * [`ClusterBuilder`] / [`RunResult`] — the run harness.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use treadmill_cluster::{ClusterBuilder, ClientSpec, InterArrival, OpenLoopSource};
//! use treadmill_sim_core::SimDuration;
//! use treadmill_workloads::Memcached;
//!
//! let source = OpenLoopSource::new(InterArrival::Exponential { rate_rps: 100_000.0 }, 16);
//! let result = ClusterBuilder::new(Arc::new(Memcached::default()))
//!     .seed(1)
//!     .client(ClientSpec::default(), Box::new(source))
//!     .duration(SimDuration::from_millis(20))
//!     .run();
//! assert!(result.total_responses() > 0);
//! ```

#![forbid(unsafe_code)]
// Unit tests unwrap freely and assert exact float equality: bit-exact
// reproducibility is the property under test. Library code is held to
// the workspace lint table (see DESIGN.md, "Static analysis").
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)
)]
#![warn(missing_docs)]

mod audit;
mod capture;
pub mod checkpoint;
mod client;
mod config;
mod fault;
mod hysteresis;
mod network;
mod records;
mod request;
pub mod server;
mod shard;
mod source;
pub mod spec;
mod trace;
mod world;

pub use audit::{audit_invariants, audit_sharded};
pub use capture::{CapturedPair, PacketCapture};
pub use client::ClientMachine;
pub use config::{ClientSpec, HardwareConfig, HysteresisSpec, Level, NetworkSpec, ServerSpec};
pub use fault::{FailureKind, FailureRecord, FaultPlan, FaultSpec, FaultSummary, RetryPolicy};
pub use hysteresis::{ConnectionState, RunState};
pub use network::Network;
pub use records::RecordStore;
pub use request::{Request, RequestId, ResponseRecord};
pub use shard::{merge_results, ShardedCluster, INTER_SHARD_PROPAGATION};
pub use source::{InterArrival, OpenLoopSource, SendOrder, TrafficSource};
pub use trace::TraceSource;
pub use world::{extract_result, ClusterBuilder, ClusterWorld, CoreStats, Event, RunResult};
