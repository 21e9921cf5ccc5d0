//! The closed-loop load controllers of prior testers (§II-A).
//!
//! Treadmill's own controller, [`OpenLoopSource`](crate::OpenLoopSource),
//! lives in `treadmill-cluster` next to the trait it implements: sends
//! fire at precisely scheduled instants regardless of response status.
//! [`ClosedLoopSource`] is the pitfall: each worker (connection) only
//! sends after its previous response returns, so at most `N` requests
//! are ever outstanding — "each thread represents exactly one
//! potentially outstanding request".

use rand::RngCore;
use treadmill_cluster::{InterArrival, SendOrder, TrafficSource};
use treadmill_sim_core::{SimDuration, SimTime};

/// The closed-loop controller of prior load testers (YCSB, Faban,
/// Mutilate): one outstanding request per connection, and the next send
/// fires as soon as the response returns.
#[derive(Debug, Clone)]
pub struct ClosedLoopSource {
    connections: u32,
}

impl ClosedLoopSource {
    /// Creates a closed-loop controller on `connections` workers.
    ///
    /// # Panics
    ///
    /// Panics if `connections` is zero.
    pub fn new(connections: u32) -> Self {
        assert!(connections > 0, "need at least one connection");
        ClosedLoopSource { connections }
    }
}

impl TrafficSource for ClosedLoopSource {
    fn start(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Vec<SendOrder> {
        // Stagger initial sends over 100us so workers don't slam the
        // server in a single burst, as real thread pools ramp up.
        use rand::Rng;
        (0..self.connections)
            .map(|conn| SendOrder {
                at: now + SimDuration::from_nanos_f64(rng.gen_range(0.0..100_000.0)),
                conn,
            })
            .collect()
    }

    fn on_sent(&mut self, _now: SimTime, _rng: &mut dyn RngCore) -> Option<SendOrder> {
        None // sends are gated by responses
    }

    fn on_response(
        &mut self,
        conn: u32,
        now: SimTime,
        _rng: &mut dyn RngCore,
    ) -> Option<SendOrder> {
        Some(SendOrder { at: now, conn })
    }
}

/// A rate-targeted closed-loop controller, as Mutilate and YCSB
/// implement QPS targets: sends follow a precomputed schedule, but a
/// connection may only take its next scheduled send after its previous
/// response returns. When responses lag the schedule, the worker sends
/// "late" and the tester silently falls behind — the classic
/// coordinated-omission behaviour that underestimates tail latency at
/// high load.
#[derive(Debug, Clone)]
pub struct RateLimitedClosedLoopSource {
    process: InterArrival,
    connections: u32,
    schedule_head: SimTime,
}

impl RateLimitedClosedLoopSource {
    /// Creates a controller targeting the process's rate across
    /// `connections` workers.
    ///
    /// # Panics
    ///
    /// Panics if `connections` is zero.
    pub fn new(process: InterArrival, connections: u32) -> Self {
        assert!(connections > 0, "need at least one connection");
        RateLimitedClosedLoopSource {
            process,
            connections,
            schedule_head: SimTime::ZERO,
        }
    }

    fn take_slot(&mut self, rng: &mut dyn RngCore) -> SimTime {
        let slot = self.schedule_head;
        self.schedule_head += self.process.sample_gap(rng);
        slot
    }
}

impl TrafficSource for RateLimitedClosedLoopSource {
    fn start(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Vec<SendOrder> {
        self.schedule_head = now;
        (0..self.connections)
            .map(|conn| {
                let slot = self.take_slot(rng);
                SendOrder {
                    at: slot.max(now),
                    conn,
                }
            })
            .collect()
    }

    fn on_sent(&mut self, _now: SimTime, _rng: &mut dyn RngCore) -> Option<SendOrder> {
        None
    }

    fn on_response(
        &mut self,
        conn: u32,
        now: SimTime,
        rng: &mut dyn RngCore,
    ) -> Option<SendOrder> {
        let slot = self.take_slot(rng);
        Some(SendOrder {
            // Behind schedule: send immediately (and never catch up).
            at: slot.max(now),
            conn,
        })
    }

    fn checkpoint_word(&self) -> u64 {
        self.schedule_head.as_nanos()
    }

    fn restore_checkpoint_word(&mut self, word: u64) {
        self.schedule_head = SimTime::from_nanos(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rate_limited_closed_loop_respects_schedule_when_fast() {
        let mut src = RateLimitedClosedLoopSource::new(
            InterArrival::Deterministic { rate_rps: 10_000.0 },
            4,
        );
        let mut rng = SmallRng::seed_from_u64(9);
        let start = src.start(SimTime::ZERO, &mut rng);
        assert_eq!(start.len(), 4);
        // Responses arrive instantly: next sends follow the schedule
        // (100us apart at 10k RPS).
        let next = src
            .on_response(0, SimTime::from_micros(1), &mut rng)
            .unwrap();
        assert_eq!(next.at, SimTime::from_micros(400));
    }

    #[test]
    fn rate_limited_closed_loop_falls_behind_when_slow() {
        let mut src = RateLimitedClosedLoopSource::new(
            InterArrival::Deterministic { rate_rps: 1_000_000.0 },
            1,
        );
        let mut rng = SmallRng::seed_from_u64(10);
        let _ = src.start(SimTime::ZERO, &mut rng);
        // The response arrives way past the 1us schedule: the send goes
        // out now, not at the scheduled instant — coordinated omission.
        let next = src
            .on_response(0, SimTime::from_micros(500), &mut rng)
            .unwrap();
        assert_eq!(next.at, SimTime::from_micros(500));
    }

    #[test]
    fn closed_loop_starts_one_per_connection() {
        let mut src = ClosedLoopSource::new(12);
        let mut rng = SmallRng::seed_from_u64(4);
        let start = src.start(SimTime::ZERO, &mut rng);
        assert_eq!(start.len(), 12);
        let conns: std::collections::BTreeSet<u32> =
            start.iter().map(|o| o.conn).collect();
        assert_eq!(conns.len(), 12, "one initial send per connection");
    }

    #[test]
    fn closed_loop_gates_on_responses() {
        let mut src = ClosedLoopSource::new(2);
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = src.start(SimTime::ZERO, &mut rng);
        assert!(src.on_sent(SimTime::from_micros(1), &mut rng).is_none());
        let next = src
            .on_response(1, SimTime::from_micros(50), &mut rng)
            .unwrap();
        assert_eq!(next.conn, 1);
        assert_eq!(next.at, SimTime::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "at least one connection")]
    fn zero_connections_rejected() {
        ClosedLoopSource::new(0);
    }
}
