//! The traffic-source abstraction: how a load tester decides *when* to
//! send requests, and Treadmill's open-loop controller.
//!
//! The paper's first pitfall (§II-A) is exactly this interface: a
//! **closed-loop** source only sends after the previous response on the
//! same connection returns, capping the number of outstanding requests;
//! an **open-loop** source fires at scheduled times regardless of
//! responses. This module defines the trait the simulated client
//! machine drives and the one open-loop controller, [`OpenLoopSource`],
//! with its inter-arrival processes ([`InterArrival`]). The closed-loop
//! comparators live in `treadmill-core`.

use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;
use treadmill_sim_core::{SimDuration, SimTime};
use treadmill_stats::distribution::sample_exponential;

/// An instruction to send one request on a connection at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOrder {
    /// When to initiate the send (user space).
    pub at: SimTime,
    /// Which connection to send on.
    pub conn: u32,
}

/// Decides when requests are sent. Driven by the simulated client
/// machine: [`TrafficSource::start`] seeds the initial sends, then
/// [`TrafficSource::on_sent`] and [`TrafficSource::on_response`] are
/// called as the simulation progresses and may yield follow-up orders.
pub trait TrafficSource: fmt::Debug + Send {
    /// Initial send orders at simulation start.
    fn start(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Vec<SendOrder>;

    /// Called when a send fires. Open-loop sources schedule their next
    /// send here; closed-loop sources return `None`.
    fn on_sent(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SendOrder>;

    /// Called when the response on `conn` is delivered. Closed-loop
    /// sources issue the connection's next request here.
    fn on_response(&mut self, conn: u32, now: SimTime, rng: &mut dyn RngCore)
        -> Option<SendOrder>;

    /// The source's mutable state packed into one word, for
    /// checkpointing. Sources whose send decisions depend on mutable
    /// fields beyond the RNG (a round-robin cursor, a schedule head)
    /// must override this together with
    /// [`TrafficSource::restore_checkpoint_word`]; stateless sources
    /// keep the default.
    fn checkpoint_word(&self) -> u64 {
        0
    }

    /// Restores state captured by [`TrafficSource::checkpoint_word`].
    fn restore_checkpoint_word(&mut self, _word: u64) {}
}

/// An inter-arrival process at a given mean rate.
///
/// Treadmill's control loop "is precisely timed to generate requests at
/// an exponentially distributed inter-arrival rate, which is consistent
/// with the measurements obtained from Google production clusters"
/// (§III-A). The other processes serve sensitivity studies
/// (deterministic pacing underestimates queueing; uniform sits between).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "process", rename_all = "lowercase")]
pub enum InterArrival {
    /// Poisson arrivals: exponential gaps (the paper's choice).
    Exponential {
        /// Mean requests per second.
        rate_rps: f64,
    },
    /// Perfectly paced arrivals: constant gaps.
    Deterministic {
        /// Requests per second.
        rate_rps: f64,
    },
    /// Uniform gaps on `[0, 2/rate]` (same mean, lower variance than
    /// exponential).
    Uniform {
        /// Mean requests per second.
        rate_rps: f64,
    },
}

impl InterArrival {
    /// The process's mean rate in requests per second.
    pub fn rate_rps(&self) -> f64 {
        match *self {
            InterArrival::Exponential { rate_rps }
            | InterArrival::Deterministic { rate_rps }
            | InterArrival::Uniform { rate_rps } => rate_rps,
        }
    }

    /// Draws the gap to the next request. Always at least 1 ns: the
    /// controller timestamps at nanosecond resolution and never issues
    /// two sends at once.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub fn sample_gap(&self, rng: &mut dyn RngCore) -> SimDuration {
        let rate = self.rate_rps();
        assert!(rate > 0.0, "inter-arrival rate must be positive");
        let mean_ns = 1e9 / rate;
        let gap_ns = match self {
            InterArrival::Exponential { .. } => sample_exponential(rng, mean_ns),
            InterArrival::Deterministic { .. } => mean_ns,
            InterArrival::Uniform { .. } => {
                use rand::Rng;
                rng.gen_range(0.0..2.0 * mean_ns)
            }
        };
        SimDuration::from_nanos_f64(gap_ns.max(1.0))
    }
}

/// Treadmill's precisely-timed open-loop controller: sends fire at
/// instants drawn from an inter-arrival process, regardless of response
/// status, so the number of outstanding requests is unbounded and the
/// server's queueing behaviour is properly exercised. Connections are
/// chosen round-robin.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treadmill_cluster::{InterArrival, OpenLoopSource, TrafficSource};
/// use treadmill_sim_core::SimTime;
///
/// let mut source =
///     OpenLoopSource::new(InterArrival::Exponential { rate_rps: 100_000.0 }, 8);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let first = source.start(SimTime::ZERO, &mut rng);
/// assert_eq!(first.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OpenLoopSource {
    process: InterArrival,
    connections: u32,
    next_conn: u32,
}

impl OpenLoopSource {
    /// Creates a controller emitting on `connections` connections.
    ///
    /// # Panics
    ///
    /// Panics if `connections` is zero.
    pub fn new(process: InterArrival, connections: u32) -> Self {
        assert!(connections > 0, "need at least one connection");
        OpenLoopSource {
            process,
            connections,
            next_conn: 0,
        }
    }

    fn next_order(&mut self, now: SimTime, rng: &mut dyn RngCore) -> SendOrder {
        let at = now + self.process.sample_gap(rng);
        let conn = self.next_conn;
        self.next_conn = (self.next_conn + 1) % self.connections;
        SendOrder { at, conn }
    }
}

impl TrafficSource for OpenLoopSource {
    fn start(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Vec<SendOrder> {
        vec![self.next_order(now, rng)]
    }

    fn on_sent(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SendOrder> {
        Some(self.next_order(now, rng))
    }

    fn on_response(
        &mut self,
        _conn: u32,
        _now: SimTime,
        _rng: &mut dyn RngCore,
    ) -> Option<SendOrder> {
        None // open loop: responses never gate sends
    }

    fn checkpoint_word(&self) -> u64 {
        u64::from(self.next_conn)
    }

    fn restore_checkpoint_word(&mut self, word: u64) {
        self.next_conn = u32::try_from(word % u64::from(self.connections)).unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treadmill_stats::StreamingStats;

    fn gaps(process: InterArrival, n: usize) -> StreamingStats {
        let mut rng = SmallRng::seed_from_u64(1);
        (0..n)
            .map(|_| process.sample_gap(&mut rng).as_micros_f64())
            .collect()
    }

    #[test]
    fn exponential_mean_and_cv() {
        let stats = gaps(InterArrival::Exponential { rate_rps: 100_000.0 }, 100_000);
        // Mean gap = 10us; exponential CV = 1.
        assert!((stats.mean() - 10.0).abs() < 0.15, "mean {}", stats.mean());
        let cv = stats.sample_stddev() / stats.mean();
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn deterministic_has_zero_variance() {
        let stats = gaps(InterArrival::Deterministic { rate_rps: 100_000.0 }, 1_000);
        assert!((stats.mean() - 10.0).abs() < 1e-9);
        assert!(stats.sample_stddev() < 1e-9);
    }

    #[test]
    fn uniform_mean_matches_with_lower_cv() {
        let stats = gaps(InterArrival::Uniform { rate_rps: 100_000.0 }, 100_000);
        assert!((stats.mean() - 10.0).abs() < 0.15);
        let cv = stats.sample_stddev() / stats.mean();
        assert!(cv < 0.7, "uniform cv {cv} should be < exponential's 1.0");
    }

    #[test]
    fn gap_never_zero() {
        let mut rng = SmallRng::seed_from_u64(2);
        let process = InterArrival::Exponential { rate_rps: 1e9 };
        for _ in 0..10_000 {
            assert!(process.sample_gap(&mut rng).as_nanos() >= 1);
        }
    }

    #[test]
    fn json_round_trip() {
        let p = InterArrival::Exponential { rate_rps: 12_345.0 };
        let json = serde_json::to_string(&p).unwrap();
        let back: InterArrival = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn open_loop_fires_regardless_of_responses() {
        let mut src = OpenLoopSource::new(
            InterArrival::Exponential { rate_rps: 100_000.0 },
            4,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let start = src.start(SimTime::ZERO, &mut rng);
        assert_eq!(start.len(), 1);
        let next = src.on_sent(start[0].at, &mut rng).unwrap();
        assert!(next.at > start[0].at);
        assert!(src.on_response(0, next.at, &mut rng).is_none());
    }

    #[test]
    fn open_loop_round_robins_connections() {
        let mut src =
            OpenLoopSource::new(InterArrival::Deterministic { rate_rps: 1000.0 }, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut conns = vec![src.start(SimTime::ZERO, &mut rng)[0].conn];
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            let o = src.on_sent(now, &mut rng).unwrap();
            conns.push(o.conn);
            now = o.at;
        }
        assert_eq!(conns, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn open_loop_rate_is_precise() {
        let mut src = OpenLoopSource::new(
            InterArrival::Exponential { rate_rps: 500_000.0 },
            8,
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let mut now = src.start(SimTime::ZERO, &mut rng)[0].at;
        let n = 100_000;
        for _ in 0..n {
            let next = src.on_sent(now, &mut rng).unwrap().at;
            assert!(next > now);
            now = next;
        }
        let rate = f64::from(n) / now.as_secs_f64();
        assert!((rate / 500_000.0 - 1.0).abs() < 0.02, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let mut src = OpenLoopSource::new(InterArrival::Exponential { rate_rps: 0.0 }, 1);
        src.start(SimTime::ZERO, &mut SmallRng::seed_from_u64(4));
    }
}
