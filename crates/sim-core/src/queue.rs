//! An analytic FIFO single-server queue.
//!
//! Network links, NIC ingress paths and kernel processing stages are all
//! work-conserving FIFO servers with a fixed service rate. Rather than
//! simulating them with per-packet start/finish events, [`RateQueue`]
//! computes each job's departure time analytically at arrival time:
//!
//! ```text
//! start     = max(arrival, previous departure)
//! departure = start + service
//! ```
//!
//! which is exact for FIFO order and halves the event count.

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::{SimDuration, SimTime};

/// The result of offering one job to a [`RateQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueOutcome {
    /// When service began (equals the arrival time if the queue was idle).
    pub start: SimTime,
    /// When the job departs the queue.
    pub departure: SimTime,
    /// Time spent waiting behind earlier jobs.
    pub queueing: SimDuration,
    /// Time spent in service.
    pub service: SimDuration,
}

impl QueueOutcome {
    /// Total sojourn time (queueing + service).
    pub fn sojourn(&self) -> SimDuration {
        self.queueing + self.service
    }
}

/// An analytic FIFO single-server queue with utilisation accounting.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::{RateQueue, SimDuration, SimTime};
///
/// let mut link = RateQueue::new("uplink");
/// let first = link.offer(SimTime::ZERO, SimDuration::from_micros(10));
/// assert_eq!(first.queueing, SimDuration::ZERO);
/// // Arrives while the first job is still in service: waits 5us.
/// let second = link.offer(SimTime::from_micros(5), SimDuration::from_micros(10));
/// assert_eq!(second.queueing, SimDuration::from_micros(5));
/// assert_eq!(second.departure, SimTime::from_micros(20));
/// ```
#[derive(Debug, Clone)]
pub struct RateQueue {
    name: String,
    free_at: SimTime,
    busy: SimDuration,
    jobs: u64,
    total_queueing: SimDuration,
    last_arrival: SimTime,
}

impl RateQueue {
    /// Creates an idle queue. `name` appears in debug output only.
    pub fn new(name: impl Into<String>) -> Self {
        RateQueue {
            name: name.into(),
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            jobs: 0,
            total_queueing: SimDuration::ZERO,
            last_arrival: SimTime::ZERO,
        }
    }

    /// The queue's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Offers a job arriving at `arrival` needing `service` time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if arrivals go backwards in time; FIFO
    /// analysis requires monotone arrivals.
    pub fn offer(&mut self, arrival: SimTime, service: SimDuration) -> QueueOutcome {
        debug_assert!(
            arrival >= self.last_arrival,
            "non-monotone arrival at {} ({}), last was {}",
            arrival,
            self.name,
            self.last_arrival,
        );
        self.last_arrival = arrival;
        let start = arrival.max(self.free_at);
        let departure = start + service;
        self.free_at = departure;
        self.busy += service;
        self.jobs += 1;
        let queueing = start.saturating_duration_since(arrival);
        self.total_queueing += queueing;
        QueueOutcome {
            start,
            departure,
            queueing,
            service,
        }
    }

    /// The instant the server becomes idle given jobs offered so far.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Cumulative queueing (waiting) time across all jobs.
    pub fn total_queueing(&self) -> SimDuration {
        self.total_queueing
    }

    /// Mean queueing delay per job, in microseconds.
    pub fn mean_queueing_micros(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_queueing.as_micros_f64() / self.jobs as f64
        }
    }

    /// Utilisation over `[SimTime::ZERO, now]`: busy time divided by
    /// elapsed time, clamped to `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / elapsed as f64).min(1.0)
    }

    /// Writes the mutable state to a checkpoint (the name is
    /// configuration and survives a rebuild).
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_time(self.free_at);
        w.put_duration(self.busy);
        w.put_u64(self.jobs);
        w.put_duration(self.total_queueing);
        w.put_time(self.last_arrival);
    }

    /// Overwrites the mutable state with what [`Self::save`] wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the checkpoint ends early.
    pub fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.free_at = r.get_time()?;
        self.busy = r.get_duration()?;
        self.jobs = r.get_u64()?;
        self.total_queueing = r.get_duration()?;
        self.last_arrival = r.get_time()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_serves_immediately() {
        let mut q = RateQueue::new("q");
        let out = q.offer(SimTime::from_micros(3), SimDuration::from_micros(2));
        assert_eq!(out.start, SimTime::from_micros(3));
        assert_eq!(out.departure, SimTime::from_micros(5));
        assert_eq!(out.queueing, SimDuration::ZERO);
        assert_eq!(out.sojourn(), SimDuration::from_micros(2));
    }

    #[test]
    fn back_to_back_jobs_queue() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(10));
        let second = q.offer(SimTime::from_micros(1), SimDuration::from_micros(10));
        assert_eq!(second.start, SimTime::from_micros(10));
        assert_eq!(second.queueing, SimDuration::from_micros(9));
        let third = q.offer(SimTime::from_micros(2), SimDuration::from_micros(1));
        assert_eq!(third.departure, SimTime::from_micros(21));
    }

    #[test]
    fn idle_gap_resets_wait() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(1));
        let late = q.offer(SimTime::from_micros(100), SimDuration::from_micros(1));
        assert_eq!(late.queueing, SimDuration::ZERO);
    }

    #[test]
    fn accounting() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(10));
        q.offer(SimTime::ZERO, SimDuration::from_micros(10));
        assert_eq!(q.jobs(), 2);
        assert_eq!(q.total_queueing(), SimDuration::from_micros(10));
        assert_eq!(q.mean_queueing_micros(), 5.0);
        // 20us busy over 40us elapsed = 50% utilisation.
        assert_eq!(q.utilization(SimTime::from_micros(40)), 0.5);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(100));
        assert_eq!(q.utilization(SimTime::from_micros(10)), 1.0);
        assert_eq!(RateQueue::new("idle").utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn load_continues_where_save_left_off() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::from_micros(1), SimDuration::from_micros(10));
        q.offer(SimTime::from_micros(2), SimDuration::from_micros(10));
        let mut w = SnapshotWriter::new();
        q.save(&mut w);
        let bytes = w.into_sealed();
        let mut r = SnapshotReader::new(crate::snapshot::open(&bytes).unwrap());
        let mut restored = RateQueue::new("q");
        restored.load(&mut r).unwrap();
        r.finish().unwrap();
        let next = (SimTime::from_micros(3), SimDuration::from_micros(1));
        assert_eq!(restored.offer(next.0, next.1), q.offer(next.0, next.1));
        assert_eq!(restored.total_queueing(), q.total_queueing());
        let now = SimTime::from_micros(40);
        assert_eq!(restored.utilization(now), q.utilization(now));
    }
}
