//! Trace-replay traffic source.
//!
//! The precisely-timed open-loop controller can replay a *recorded*
//! send schedule instead of synthesising one — useful for feeding
//! production inter-arrival traces (the paper calibrates its
//! exponential model against Google production measurements) and for
//! replaying the exact same arrival sequence against two system
//! configurations, which removes arrival-process noise from A/B
//! comparisons.

use rand::RngCore;
use treadmill_sim_core::{SimDuration, SimTime};

use crate::source::{SendOrder, TrafficSource};

/// Replays a fixed schedule of send instants, optionally looping.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treadmill_cluster::{TraceSource, TrafficSource};
/// use treadmill_sim_core::{SimDuration, SimTime};
///
/// let gaps = vec![SimDuration::from_micros(10), SimDuration::from_micros(20)];
/// let mut source = TraceSource::new(gaps, 4, false);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let first = source.start(SimTime::ZERO, &mut rng);
/// assert_eq!(first[0].at, SimTime::from_micros(10));
/// ```
#[derive(Debug, Clone)]
pub struct TraceSource {
    gaps: Vec<SimDuration>,
    connections: u32,
    looped: bool,
    next_index: usize,
    next_conn: u32,
}

impl TraceSource {
    /// Creates a source replaying `gaps` (inter-arrival times). With
    /// `looped`, the trace repeats indefinitely; otherwise the source
    /// stops after the last gap.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `connections` is zero.
    pub fn new(gaps: Vec<SimDuration>, connections: u32, looped: bool) -> Self {
        if gaps.is_empty() {
            panic!("empty trace: need at least one send");
        }
        if connections == 0 {
            panic!("need at least one connection");
        }
        TraceSource {
            gaps,
            connections,
            looped,
            next_index: 0,
            next_conn: 0,
        }
    }

    fn next_order(&mut self, now: SimTime) -> Option<SendOrder> {
        if self.next_index >= self.gaps.len() {
            if !self.looped {
                return None;
            }
            self.next_index = 0;
        }
        let gap = self.gaps[self.next_index];
        self.next_index += 1;
        let conn = self.next_conn;
        self.next_conn = (self.next_conn + 1) % self.connections;
        Some(SendOrder {
            at: now + gap,
            conn,
        })
    }
}

impl TrafficSource for TraceSource {
    fn start(&mut self, now: SimTime, _rng: &mut dyn RngCore) -> Vec<SendOrder> {
        self.next_order(now).into_iter().collect()
    }

    fn on_sent(&mut self, now: SimTime, _rng: &mut dyn RngCore) -> Option<SendOrder> {
        self.next_order(now)
    }

    fn on_response(
        &mut self,
        _conn: u32,
        _now: SimTime,
        _rng: &mut dyn RngCore,
    ) -> Option<SendOrder> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    #[test]
    fn replays_gaps_in_order() {
        let gaps = vec![
            SimDuration::from_micros(5),
            SimDuration::from_micros(10),
            SimDuration::from_micros(1),
        ];
        let mut src = TraceSource::new(gaps, 2, false);
        let mut r = rng();
        let a = src.start(SimTime::ZERO, &mut r)[0];
        assert_eq!(a.at, SimTime::from_micros(5));
        assert_eq!(a.conn, 0);
        let b = src.on_sent(a.at, &mut r).unwrap();
        assert_eq!(b.at, SimTime::from_micros(15));
        assert_eq!(b.conn, 1);
        let c = src.on_sent(b.at, &mut r).unwrap();
        assert_eq!(c.at, SimTime::from_micros(16));
        assert!(src.on_sent(c.at, &mut r).is_none(), "trace exhausted");
    }

    #[test]
    fn looping_replays_forever() {
        let mut src = TraceSource::new(vec![SimDuration::from_micros(2)], 1, true);
        let mut r = rng();
        let mut now = src.start(SimTime::ZERO, &mut r)[0].at;
        for i in 2..100u64 {
            let next = src.on_sent(now, &mut r).unwrap();
            assert_eq!(next.at, SimTime::from_micros(2 * i));
            now = next.at;
        }
    }

    #[test]
    fn replay_is_deterministic_across_hardware_configs() {
        use crate::{ClientSpec, ClusterBuilder, HardwareConfig};
        use std::sync::Arc;
        use treadmill_workloads::Memcached;

        let gaps: Vec<SimDuration> =
            (0..2_000).map(|i| SimDuration::from_nanos(5_000 + (i % 7) * 911)).collect();
        let run = |hw: HardwareConfig| {
            ClusterBuilder::new(Arc::new(Memcached::default()))
                .seed(3)
                .hardware(hw)
                .client(
                    ClientSpec::default(),
                    Box::new(TraceSource::new(gaps.clone(), 8, false)),
                )
                .duration(SimDuration::from_millis(100))
                .run()
        };
        let a = run(HardwareConfig::from_index(0));
        let b = run(HardwareConfig::from_index(1));
        // Same arrivals on both sides ...
        assert_eq!(a.total_responses(), b.total_responses());
        // Records arrive in delivery order, which differs between
        // configurations; the *send schedule* must match as a set.
        let mut gen_a: Vec<_> = a.all_records().map(|r| r.t_generated).collect();
        let mut gen_b: Vec<_> = b.all_records().map(|r| r.t_generated).collect();
        gen_a.sort();
        gen_b.sort();
        assert_eq!(gen_a, gen_b, "identical send schedules");
        // ... but different service behaviour.
        let p99 = |r: &crate::RunResult| {
            treadmill_stats::quantile::quantile(
                &r.user_latencies_us(SimTime::ZERO),
                0.99,
            )
        };
        assert_ne!(p99(&a), p99(&b));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        TraceSource::new(Vec::new(), 1, false);
    }

    #[test]
    #[should_panic(expected = "need at least one connection")]
    fn zero_connections_rejected() {
        TraceSource::new(vec![SimDuration::from_micros(1)], 0, false);
    }
}
