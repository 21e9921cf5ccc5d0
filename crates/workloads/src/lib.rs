//! Workload models for the Treadmill reproduction.
//!
//! The paper stresses two properties of Treadmill's workload handling
//! (§III-A): **generality** — "each integration takes less than 200
//! lines of code" — and **configurable workload characteristics** — "a
//! JSON formatted configuration file can be used to describe the
//! workload characteristics (e.g., request size distribution)".
//!
//! This crate provides both:
//!
//! * the [`Workload`] trait — the small surface a new service model must
//!   implement,
//! * [`Memcached`] and [`Mcrouter`] — the two Facebook workloads the
//!   paper evaluates,
//! * [`SizeDistribution`] — composable request/value size distributions,
//! * [`WorkloadSpec`] — the serde/JSON configuration layer that builds a
//!   workload from a config file, rejecting by name every field value a
//!   draw cannot use, so a workload it builds samples without panicking.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use treadmill_workloads::{Memcached, Workload};
//!
//! let workload = Memcached::default();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let profile = workload.sample_request(&mut rng);
//! assert!(profile.cpu_ns > 0.0);
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

mod mcrouter;
mod memcached;
mod profile;
mod sizes;
mod spec;
mod synthetic;

pub use mcrouter::Mcrouter;
pub use memcached::{Memcached, MemcachedOp};
pub use profile::{OpClass, RequestProfile, ServiceMoments, Workload};
pub use sizes::SizeDistribution;
pub use spec::{SpecError, WorkloadSpec, MAX_SERVICE_NS, SERVER_SLOWDOWN};
pub use synthetic::Synthetic;
