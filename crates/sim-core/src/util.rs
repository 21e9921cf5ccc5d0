//! Busy-time integration for utilisation accounting.

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::{SimDuration, SimTime};

/// Tracks what fraction of time a resource was busy, both cumulatively
/// and over a sliding sampling window.
///
/// The DVFS governor model uses the windowed view (it reacts to recent
/// utilisation); reports use the cumulative view.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::{SimDuration, SimTime, UtilizationTracker};
///
/// let mut tracker = UtilizationTracker::new();
/// tracker.record_busy(SimTime::ZERO, SimDuration::from_micros(30));
/// assert_eq!(tracker.utilization(SimTime::from_micros(60)), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    busy_total: SimDuration,
    window_start: SimTime,
    window_busy: SimDuration,
}

impl UtilizationTracker {
    /// Creates a tracker with no recorded activity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the resource was busy for `duration` starting at
    /// `start`. Overlapping busy intervals are the caller's bug; the
    /// tracker simply sums.
    pub fn record_busy(&mut self, start: SimTime, duration: SimDuration) {
        self.busy_total += duration;
        // Attribute to the current window the part that overlaps it.
        let end = start + duration;
        if end > self.window_start {
            let overlap_start = start.max(self.window_start);
            self.window_busy += end.duration_since(overlap_start);
        }
    }

    /// Cumulative busy time.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Cumulative utilisation over `[0, now]`, clamped to `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_nanos() == 0 {
            return 0.0;
        }
        (self.busy_total.as_nanos() as f64 / now.as_nanos() as f64).min(1.0)
    }

    /// Utilisation since the last [`Self::restart_window`], clamped to
    /// `[0, 1]`.
    pub fn window_utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_duration_since(self.window_start);
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.window_busy.as_nanos() as f64 / elapsed.as_nanos() as f64).min(1.0)
    }

    /// Starts a new sampling window at `now`.
    pub fn restart_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_busy = SimDuration::ZERO;
    }

    /// Writes the tracker's state to a checkpoint.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_duration(self.busy_total);
        w.put_time(self.window_start);
        w.put_duration(self.window_busy);
    }

    /// Overwrites the tracker with what [`Self::save`] wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the checkpoint ends early.
    pub fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.busy_total = r.get_duration()?;
        self.window_start = r.get_time()?;
        self.window_busy = r.get_duration()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_utilization() {
        let mut t = UtilizationTracker::new();
        t.record_busy(SimTime::ZERO, SimDuration::from_micros(10));
        t.record_busy(SimTime::from_micros(50), SimDuration::from_micros(10));
        assert_eq!(t.busy_total(), SimDuration::from_micros(20));
        assert!((t.utilization(SimTime::from_micros(100)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn windowed_utilization_resets() {
        let mut t = UtilizationTracker::new();
        t.record_busy(SimTime::ZERO, SimDuration::from_micros(10));
        t.restart_window(SimTime::from_micros(100));
        assert_eq!(t.window_utilization(SimTime::from_micros(200)), 0.0);
        t.record_busy(SimTime::from_micros(100), SimDuration::from_micros(50));
        assert!((t.window_utilization(SimTime::from_micros(200)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn busy_interval_straddling_window_start_counts_overlap_only() {
        let mut t = UtilizationTracker::new();
        t.restart_window(SimTime::from_micros(10));
        // Busy 5..15us: only 10..15 overlaps the window.
        t.record_busy(SimTime::from_micros(5), SimDuration::from_micros(10));
        assert!((t.window_utilization(SimTime::from_micros(20)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_is_zero_util() {
        let t = UtilizationTracker::new();
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
        assert_eq!(t.window_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn clamps_to_one() {
        let mut t = UtilizationTracker::new();
        t.record_busy(SimTime::ZERO, SimDuration::from_micros(100));
        assert_eq!(t.utilization(SimTime::from_micros(10)), 1.0);
    }

    #[test]
    fn load_continues_where_save_left_off() {
        let mut t = UtilizationTracker::new();
        t.record_busy(SimTime::ZERO, SimDuration::from_micros(10));
        t.restart_window(SimTime::from_micros(20));
        t.record_busy(SimTime::from_micros(25), SimDuration::from_micros(5));
        let mut w = SnapshotWriter::new();
        t.save(&mut w);
        let bytes = w.into_sealed();
        let mut r = SnapshotReader::new(crate::snapshot::open(&bytes).unwrap());
        let mut restored = UtilizationTracker::new();
        restored.load(&mut r).unwrap();
        r.finish().unwrap();
        let now = SimTime::from_micros(40);
        assert_eq!(restored.busy_total(), t.busy_total());
        assert_eq!(restored.window_utilization(now), t.window_utilization(now));
    }
}
