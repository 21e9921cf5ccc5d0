//! Deterministic discrete-event simulation engine.
//!
//! This crate is the lowest substrate of the Treadmill reproduction. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a priority queue of timestamped events with stable
//!   FIFO ordering among simultaneous events,
//! * [`Engine`] — a generic run loop driving a [`World`] state machine,
//! * [`SeedStream`] — reproducible per-component random-number streams,
//! * [`RateQueue`] — an analytic FIFO single-server queue used to model
//!   network links, NIC paths and kernel processing,
//! * [`UtilizationTracker`] — busy-time integration for utilisation
//!   accounting.
//!
//! Everything is deterministic: two runs with the same seed execute the
//! exact same event sequence.
//!
//! # Examples
//!
//! ```
//! use treadmill_sim_core::{Engine, EventQueue, SimTime, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, queue: &mut EventQueue<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             queue.schedule(now + treadmill_sim_core::SimDuration::from_micros(5), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.schedule(SimTime::ZERO, Ev::Tick);
//! engine.run_to_completion();
//! assert_eq!(engine.world().fired, 10);
//! assert_eq!(engine.now(), SimTime::from_micros(45));
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

mod engine;
mod event;
mod queue;
mod rng;
pub mod snapshot;
mod time;
mod util;

pub use engine::{Engine, World};
pub use event::{EventQueue, ScheduledEvent};
pub use queue::{QueueOutcome, RateQueue};
pub use rng::{splitmix64, SeedStream};
pub use snapshot::{fnv1a64, SnapshotError, SnapshotReader, SnapshotWriter};
pub use time::{SimDuration, SimTime};
pub use util::UtilizationTracker;
