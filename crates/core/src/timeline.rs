//! Latency-over-time tracking.
//!
//! A single summary hides transients: warm-up effects, governor ramps,
//! thermal throttling onsets. The timeline splits a run into fixed
//! windows and summarises each, which is how the reproduction checks
//! that a run reached steady state before its measurement window — the
//! implicit assumption behind the paper's warm-up phase.

use std::borrow::Borrow;

use treadmill_cluster::ResponseRecord;
use treadmill_sim_core::{SimDuration, SimTime};
use treadmill_stats::LatencySummary;

/// One timeline window's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Summary of requests *generated* within the window, or `None` if
    /// the window saw no completed requests.
    pub summary: Option<LatencySummary>,
}

impl TimelineWindow {
    /// Requests observed in this window.
    pub fn count(&self) -> u64 {
        self.summary.as_ref().map_or(0, |s| s.count)
    }
}

/// Builds a latency timeline from completed-request records: a
/// [`RecordStore`](treadmill_cluster::RecordStore) or a slice. The last
/// window holds the latest `t_generated`.
///
/// # Panics
///
/// Panics if `window` is zero.
///
/// # Examples
///
/// ```
/// use treadmill_cluster::ResponseRecord;
/// use treadmill_core::timeline::timeline;
/// use treadmill_sim_core::SimDuration;
///
/// let windows = timeline(&[] as &[ResponseRecord], SimDuration::from_millis(10));
/// assert!(windows.is_empty());
/// ```
// Window counts (horizon / window width) fit usize on the 64-bit
// targets the simulator supports.
#[allow(clippy::cast_possible_truncation)]
pub fn timeline(
    records: impl IntoIterator<Item = impl Borrow<ResponseRecord>>,
    window: SimDuration,
) -> Vec<TimelineWindow> {
    assert!(!window.is_zero(), "zero-length window");
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for record in records {
        let record = record.borrow();
        let idx = (record.t_generated.as_nanos() / window.as_nanos()) as usize;
        if idx >= buckets.len() {
            buckets.resize(idx + 1, Vec::new());
        }
        buckets[idx].push(record.user_latency_us());
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, samples)| {
            let start = SimTime::from_nanos(i as u64 * window.as_nanos());
            TimelineWindow {
                start,
                end: start + window,
                summary: if samples.is_empty() {
                    None
                } else {
                    Some(LatencySummary::from_samples(&samples))
                },
            }
        })
        .collect()
}

/// Finds the first window index from which the p99 stays within
/// `tolerance` (relative) of the final-third average — a steady-state
/// detector used to validate warm-up window choices.
///
/// Windows with fewer than half the median request count (e.g. the
/// partial window at the end of a run, or the drain period) are
/// ignored: their quantile estimates are too noisy to gate on.
///
/// Returns `None` if the timeline never settles.
pub fn steady_state_onset(windows: &[TimelineWindow], tolerance: f64) -> Option<usize> {
    let mut counts: Vec<u64> = windows.iter().map(TimelineWindow::count).collect();
    counts.sort_unstable();
    let median_count = counts.get(counts.len() / 2).copied().unwrap_or(0);
    let p99s: Vec<Option<f64>> = windows
        .iter()
        .map(|w| {
            w.summary
                .as_ref()
                .filter(|s| s.count * 2 >= median_count)
                .map(|s| s.p99)
        })
        .collect();
    let settled: Vec<f64> = p99s
        .iter()
        .skip(p99s.len() * 2 / 3)
        .flatten()
        .copied()
        .collect();
    if settled.is_empty() {
        return None;
    }
    let reference = settled.iter().sum::<f64>() / settled.len() as f64;
    for (i, p99) in p99s.iter().enumerate() {
        if let Some(p99) = p99 {
            let within = (p99 / reference - 1.0).abs() <= tolerance;
            // All subsequent windows must also be within tolerance.
            if within
                && p99s[i..].iter().flatten().all(|v| {
                    (v / reference - 1.0).abs() <= tolerance
                })
            {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_cluster::{Request, RequestId};
    use treadmill_workloads::{OpClass, RequestProfile};

    fn record(gen_us: u64, latency_us: u64) -> ResponseRecord {
        let mut req = Request::new(
            RequestId(gen_us),
            0,
            0,
            RequestProfile {
                class: OpClass::Read,
                request_bytes: 64,
                response_bytes: 64,
                cpu_ns: 1.0,
                mem_ns: 1.0,
            },
            SimTime::from_micros(gen_us),
        );
        req.t_delivered = SimTime::from_micros(gen_us + latency_us);
        ResponseRecord::from_request(&req)
    }

    #[test]
    fn windows_partition_by_generation_time() {
        let records = vec![record(100, 10), record(5_100, 20), record(5_200, 30)];
        let windows = timeline(&records, SimDuration::from_millis(5));
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].count(), 1);
        assert_eq!(windows[1].count(), 2);
        assert_eq!(windows[0].start, SimTime::ZERO);
        assert_eq!(windows[1].start, SimTime::from_millis(5));
    }

    #[test]
    fn empty_windows_are_none() {
        let records = vec![record(0, 1), record(20_000, 1)];
        let windows = timeline(&records, SimDuration::from_millis(5));
        assert_eq!(windows.len(), 5);
        assert!(windows[1].summary.is_none());
        assert!(windows[2].summary.is_none());
    }

    #[test]
    fn steady_state_detected_after_ramp() {
        // Latency ramps down over the first 4 windows, then settles.
        let mut records = Vec::new();
        for window in 0..12u64 {
            let latency = if window < 4 { 500 - window * 100 } else { 100 };
            for i in 0..50 {
                records.push(record(window * 1_000 + i, latency));
            }
        }
        let windows = timeline(&records, SimDuration::from_millis(1));
        let onset = steady_state_onset(&windows, 0.05).expect("settles");
        assert_eq!(onset, 4, "ramp covers windows 0..4");
    }

    #[test]
    fn never_settling_returns_none() {
        let mut records = Vec::new();
        for window in 0..10u64 {
            for i in 0..20 {
                records.push(record(window * 1_000 + i, 100 + window * 50));
            }
        }
        let windows = timeline(&records, SimDuration::from_millis(1));
        assert!(steady_state_onset(&windows, 0.02).is_none());
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_window_rejected() {
        timeline(&[] as &[ResponseRecord], SimDuration::ZERO);
    }
}
