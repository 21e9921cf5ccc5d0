//! Deterministic fault injection and the client-side robustness policy.
//!
//! Real clusters drop packets, stall cores on GC-like pauses, overflow
//! NIC queues and occasionally lose whole servers — exactly the events
//! a production load tester must survive without corrupting the
//! quantiles it reports. This module provides the fault layer:
//!
//! * [`FaultSpec`] — declarative, serialisable fault probabilities and
//!   rates. The default is all-zero: a run with the default spec
//!   executes the *exact* same event and RNG sequence as a build
//!   without the fault subsystem, so golden-seed outputs stay
//!   bit-identical.
//! * [`FaultPlan`] — the per-run realisation. It owns a dedicated RNG
//!   stream (keyed `"faults"`, like the hysteresis state's
//!   `"hysteresis"` stream) so fault draws never perturb client or
//!   placement randomness, and pre-draws the whole-server crash
//!   windows at build time so they are reproducible regardless of
//!   traffic.
//! * [`RetryPolicy`] — the load tester's timeout / bounded-retry /
//!   hedging configuration. Backoff jitter is a pure hash of
//!   `(request id, attempt)` — deterministic, no RNG draw.
//! * [`FailureRecord`] — a request the tester gave up on. These are
//!   *right-censored* observations (the request would have taken at
//!   least this long) and feed the omission-correction estimator in
//!   `treadmill-core` instead of silently vanishing.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use treadmill_sim_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::{splitmix64, SimDuration, SimTime};

use crate::checkpoint;
use crate::request::RequestId;

/// Declarative fault configuration for one simulated run.
///
/// All probabilities/rates default to zero, which disables the fault
/// subsystem entirely (no extra events, no RNG draws).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultSpec {
    /// Per-packet probability that a request is lost on a client
    /// uplink after serialisation (in `[0, 1]`).
    pub uplink_loss: f64,
    /// Per-packet probability that a response is lost between server
    /// egress and the client NIC (in `[0, 1]`).
    pub downlink_loss: f64,
    /// Server-NIC ingress buffer capacity in bytes; an arriving packet
    /// that would push the backlog past this is tail-dropped.
    /// `0` means unlimited (no overflow drops).
    pub nic_capacity_bytes: f64,
    /// Poisson rate (events per simulated second) of transient
    /// server-side stalls — GC pauses, SMIs — each freezing one
    /// randomly chosen core.
    pub stall_rate_hz: f64,
    /// Duration of each injected stall, microseconds.
    pub stall_us: f64,
    /// Poisson rate (events per simulated second) of whole-server
    /// crash/restart windows.
    pub crash_rate_hz: f64,
    /// Length of each crash window, microseconds. While down, queued
    /// and in-service jobs are lost and arriving packets are answered
    /// with a connection reset.
    pub crash_downtime_us: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            uplink_loss: 0.0,
            downlink_loss: 0.0,
            nic_capacity_bytes: 0.0,
            stall_rate_hz: 0.0,
            stall_us: 1_000.0,
            crash_rate_hz: 0.0,
            crash_downtime_us: 5_000.0,
        }
    }
}

impl FaultSpec {
    /// True if any fault channel is enabled. An inactive spec makes the
    /// builder skip plan generation entirely, preserving bit-identical
    /// no-fault behaviour.
    pub fn is_active(&self) -> bool {
        self.uplink_loss > 0.0
            || self.downlink_loss > 0.0
            || self.nic_capacity_bytes > 0.0
            || (self.stall_rate_hz > 0.0 && self.stall_us > 0.0)
            || self.crash_rate_hz > 0.0
    }

    /// Validates ranges, returning a human-readable message on error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("uplink_loss", self.uplink_loss),
            ("downlink_loss", self.downlink_loss),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        for (name, v) in [
            ("nic_capacity_bytes", self.nic_capacity_bytes),
            ("stall_rate_hz", self.stall_rate_hz),
            ("stall_us", self.stall_us),
            ("crash_rate_hz", self.crash_rate_hz),
            ("crash_downtime_us", self.crash_downtime_us),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        Ok(())
    }
}

/// Client-side robustness: per-request timeouts, bounded retries with
/// exponential backoff and deterministic jitter, and optional hedged
/// (duplicate) requests.
///
/// The default policy is fully disabled: requests are fire-and-forget
/// exactly as in the fault-free engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RetryPolicy {
    /// Per-attempt timeout, microseconds. `0` disables timeouts (and
    /// with them retries).
    pub timeout_us: f64,
    /// Retries allowed after the first attempt times out or is reset.
    pub max_retries: u32,
    /// Base backoff before the first retry, microseconds.
    pub backoff_base_us: f64,
    /// Multiplier applied to the backoff per additional retry.
    pub backoff_factor: f64,
    /// Jitter fraction in `[0, 1)`: each backoff is stretched by up to
    /// this fraction, deterministically per `(request, attempt)`.
    pub jitter_frac: f64,
    /// Delay after which an unanswered request is hedged with a
    /// duplicate send, microseconds. `0` disables hedging.
    pub hedge_after_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_us: 0.0,
            max_retries: 0,
            backoff_base_us: 200.0,
            backoff_factor: 2.0,
            jitter_frac: 0.25,
            hedge_after_us: 0.0,
        }
    }
}

impl RetryPolicy {
    /// True if the policy changes client behaviour at all (timeouts or
    /// hedging are on).
    pub fn enabled(&self) -> bool {
        self.timeout_us > 0.0 || self.hedge_after_us > 0.0
    }

    /// The per-attempt timeout as a duration.
    pub fn timeout(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.timeout_us)
    }

    /// The hedge delay as a duration.
    pub fn hedge_delay(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.hedge_after_us)
    }

    /// The backoff before sending `attempt` (1 = first retry):
    /// `base · factor^(attempt−1)` stretched by deterministic jitter
    /// hashed from the request id — no RNG state is consumed, so the
    /// schedule is a pure function of `(policy, id, attempt)`.
    pub fn backoff(&self, id: RequestId, attempt: u32) -> SimDuration {
        let exponent = attempt.saturating_sub(1);
        let base = self.backoff_base_us * self.backoff_factor.powi(exponent as i32);
        let hash = splitmix64(id.0 ^ (u64::from(attempt) << 32) ^ 0x9e37_79b9_7f4a_7c15);
        let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
        SimDuration::from_micros_f64(base * (1.0 + self.jitter_frac * unit))
    }

    /// Validates ranges, returning a human-readable message on error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("timeout_us", self.timeout_us),
            ("backoff_base_us", self.backoff_base_us),
            ("hedge_after_us", self.hedge_after_us),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(format!(
                "backoff_factor must be >= 1, got {}",
                self.backoff_factor
            ));
        }
        if !(0.0..1.0).contains(&self.jitter_frac) {
            return Err(format!(
                "jitter_frac must be in [0, 1), got {}",
                self.jitter_frac
            ));
        }
        if self.max_retries > 0 && self.timeout_us <= 0.0 {
            return Err("max_retries > 0 requires a positive timeout_us".into());
        }
        Ok(())
    }
}

/// Why the load tester gave up on a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Every attempt exceeded the per-attempt timeout.
    TimedOut,
    /// The server was down and reset the connection (retries, if any,
    /// were also exhausted).
    ConnectionReset,
}

/// A request the load tester abandoned. The elapsed time at abandonment
/// is a *lower bound* on the latency the request would have had — a
/// right-censored observation for the omission-correction estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureRecord {
    /// Request id.
    pub id: RequestId,
    /// Originating client.
    pub client: u32,
    /// Connection within the client.
    pub conn: u32,
    /// When the first attempt was generated.
    pub t_generated: SimTime,
    /// When the tester gave up.
    pub t_failed: SimTime,
    /// Attempts made (1 = no retries).
    pub attempts: u32,
    /// Failure cause.
    pub kind: FailureKind,
}

impl FailureRecord {
    /// The censoring value: elapsed user-space time at abandonment, µs.
    pub fn censored_latency_us(&self) -> f64 {
        self.t_failed.duration_since(self.t_generated).as_micros_f64()
    }
}

/// Aggregate fault-injection and robustness counters for one run.
/// All-zero when no faults were configured and the policy was disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Request packets lost on client uplinks.
    pub uplink_drops: u64,
    /// Response packets lost before the client NIC.
    pub downlink_drops: u64,
    /// Packets tail-dropped at the server-NIC ingress buffer.
    pub nic_drops: u64,
    /// Jobs lost to server crash windows (queued, in service, or
    /// arriving while down).
    pub crash_drops: u64,
    /// Crash windows that began during the run.
    pub crashes: u64,
    /// Transient core stalls injected.
    pub stalls: u64,
    /// Retry packets sent by clients.
    pub retries: u64,
    /// Hedged duplicate packets sent by clients.
    pub hedges: u64,
    /// Per-attempt timeouts that fired.
    pub timeouts: u64,
    /// Connection resets observed by clients.
    pub resets: u64,
    /// Logical requests abandoned (one per [`FailureRecord`]).
    pub failed_requests: u64,
}

impl FaultSummary {
    /// Total packets lost anywhere in the fabric or server.
    pub fn total_drops(&self) -> u64 {
        self.uplink_drops + self.downlink_drops + self.nic_drops + self.crash_drops
    }

    /// True if nothing fault-related happened.
    pub fn is_quiet(&self) -> bool {
        *self == FaultSummary::default()
    }
}

/// The per-run realisation of a [`FaultSpec`]: pre-drawn crash windows,
/// a dedicated RNG stream for online draws (packet loss, stall
/// placement), and counters.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SmallRng,
    crash_windows: Vec<(SimTime, SimTime)>,
    crash_cursor: usize,
    last_crash_at: SimTime,
    first_stall: Option<SimTime>,
    uplink_drops: u64,
    downlink_drops: u64,
    nic_drops: u64,
    crash_drops: u64,
    crashes: u64,
    stalls: u64,
}

fn exp_gap(rng: &mut SmallRng, rate_hz: f64) -> SimDuration {
    let u: f64 = rng.gen::<f64>();
    let secs = -(1.0 - u).ln() / rate_hz;
    SimDuration::from_nanos_f64(secs * 1e9)
}

impl FaultPlan {
    /// Realises a spec over the sending window `[0, horizon]` using a
    /// dedicated RNG stream. Crash windows are drawn up front (a
    /// Poisson process thinned to non-overlapping windows); everything
    /// else draws online in event order, which is deterministic.
    pub fn generate(spec: FaultSpec, horizon: SimDuration, mut rng: SmallRng) -> Self {
        let end = SimTime::ZERO + horizon;
        let mut crash_windows = Vec::new();
        if spec.crash_rate_hz > 0.0 && spec.crash_downtime_us > 0.0 {
            let downtime = SimDuration::from_micros_f64(spec.crash_downtime_us);
            let mut t = SimTime::ZERO + exp_gap(&mut rng, spec.crash_rate_hz);
            while t <= end {
                crash_windows.push((t, t + downtime));
                t = t + downtime + exp_gap(&mut rng, spec.crash_rate_hz);
            }
        }
        let first_stall = if spec.stall_rate_hz > 0.0 && spec.stall_us > 0.0 {
            let t = SimTime::ZERO + exp_gap(&mut rng, spec.stall_rate_hz);
            (t <= end).then_some(t)
        } else {
            None
        };
        FaultPlan {
            spec,
            rng,
            crash_windows,
            crash_cursor: 0,
            last_crash_at: SimTime::ZERO,
            first_stall,
            uplink_drops: 0,
            downlink_drops: 0,
            nic_drops: 0,
            crash_drops: 0,
            crashes: 0,
            stalls: 0,
        }
    }

    /// The spec this plan realises.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Start instants of the pre-drawn crash windows (the builder
    /// schedules one crash event per window).
    pub fn crash_starts(&self) -> Vec<SimTime> {
        self.crash_windows.iter().map(|&(start, _)| start).collect()
    }

    /// When the first injected stall fires, if stalls are enabled and
    /// one lands inside the sending window.
    pub fn first_stall(&self) -> Option<SimTime> {
        self.first_stall
    }

    /// Rolls per-packet uplink loss. Draws RNG only when the
    /// probability is positive.
    pub fn drop_uplink(&mut self) -> bool {
        if self.spec.uplink_loss <= 0.0 {
            return false;
        }
        let dropped = self.rng.gen::<f64>() < self.spec.uplink_loss;
        self.uplink_drops += u64::from(dropped);
        dropped
    }

    /// Rolls per-packet downlink loss. Draws RNG only when the
    /// probability is positive.
    pub fn drop_downlink(&mut self) -> bool {
        if self.spec.downlink_loss <= 0.0 {
            return false;
        }
        let dropped = self.rng.gen::<f64>() < self.spec.downlink_loss;
        self.downlink_drops += u64::from(dropped);
        dropped
    }

    /// Tail-drop check for the server-NIC ingress: true if accepting
    /// `incoming_bytes` on top of `backlog_bytes` would exceed the
    /// configured capacity.
    pub fn nic_overflow(&mut self, backlog_bytes: f64, incoming_bytes: u32) -> bool {
        if self.spec.nic_capacity_bytes <= 0.0 {
            return false;
        }
        let overflow = backlog_bytes + f64::from(incoming_bytes) > self.spec.nic_capacity_bytes;
        self.nic_drops += u64::from(overflow);
        overflow
    }

    /// True if the server is inside a crash window at `now`. Queried
    /// with monotone `now` (event order), so a cursor suffices.
    pub fn server_down_at(&mut self, now: SimTime) -> bool {
        while self.crash_cursor < self.crash_windows.len()
            && self.crash_windows[self.crash_cursor].1 <= now
        {
            self.crash_cursor += 1;
        }
        self.crash_windows
            .get(self.crash_cursor)
            .is_some_and(|&(start, end)| start <= now && now < end)
    }

    /// Records that a crash window began at `now`.
    pub fn note_crash(&mut self, now: SimTime) {
        self.crashes += 1;
        self.last_crash_at = now;
    }

    /// When the most recent crash window began (`SimTime::ZERO` if
    /// none yet) — jobs started before this instant are lost.
    pub fn last_crash_at(&self) -> SimTime {
        self.last_crash_at
    }

    /// Adds to the count of jobs lost to crashes.
    pub fn add_crash_drops(&mut self, n: u64) {
        self.crash_drops += n;
    }

    /// Draws the target core and duration for an injected stall.
    pub fn draw_stall(&mut self, cores: usize) -> (usize, SimDuration) {
        self.stalls += 1;
        let core = self.rng.gen_range(0..cores);
        (core, SimDuration::from_micros_f64(self.spec.stall_us))
    }

    /// Draws the gap until the next injected stall.
    pub fn draw_stall_gap(&mut self) -> SimDuration {
        exp_gap(&mut self.rng, self.spec.stall_rate_hz)
    }

    /// Writes a world's optional plan to a checkpoint: a presence byte,
    /// then the plan's mutable state. The pre-drawn crash windows and
    /// first-stall instant are not written: they are a pure function of
    /// the spec and the seed stream, so a rebuilt world regenerates them
    /// through [`FaultPlan::generate`].
    pub(crate) fn save(plan: Option<&Self>, w: &mut SnapshotWriter) {
        w.put_bool(plan.is_some());
        let Some(plan) = plan else { return };
        checkpoint::put_rng(w, &plan.rng);
        w.put_u64(plan.crash_cursor as u64);
        w.put_time(plan.last_crash_at);
        for count in [
            plan.uplink_drops,
            plan.downlink_drops,
            plan.nic_drops,
            plan.crash_drops,
            plan.crashes,
            plan.stalls,
        ] {
            w.put_u64(count);
        }
    }

    /// Overwrites a world's optional plan with what [`Self::save`]
    /// wrote. The plan must have been regenerated from the same spec and
    /// seed stream.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the checkpoint has a plan and the
    /// world none, or the other way round; [`SnapshotError::Truncated`]
    /// if the checkpoint ends early.
    pub(crate) fn load(
        plan: Option<&mut Self>,
        r: &mut SnapshotReader<'_>,
    ) -> Result<(), SnapshotError> {
        if r.get_bool()? != plan.is_some() {
            return Err(SnapshotError::Malformed("fault-plan presence mismatch"));
        }
        let Some(plan) = plan else { return Ok(()) };
        plan.rng = checkpoint::get_rng(r)?;
        plan.crash_cursor = usize::try_from(r.get_u64()?).unwrap_or(plan.crash_windows.len());
        plan.last_crash_at = r.get_time()?;
        for count in [
            &mut plan.uplink_drops,
            &mut plan.downlink_drops,
            &mut plan.nic_drops,
            &mut plan.crash_drops,
            &mut plan.crashes,
            &mut plan.stalls,
        ] {
            *count = r.get_u64()?;
        }
        Ok(())
    }

    /// The fabric/server-side counter snapshot (client-side counters
    /// live on the client machines).
    pub fn summary_base(&self) -> FaultSummary {
        FaultSummary {
            uplink_drops: self.uplink_drops,
            downlink_drops: self.downlink_drops,
            nic_drops: self.nic_drops,
            crash_drops: self.crash_drops,
            crashes: self.crashes,
            stalls: self.stalls,
            ..FaultSummary::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_spec_is_inactive_and_valid() {
        let spec = FaultSpec::default();
        assert!(!spec.is_active());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn default_policy_is_disabled_and_valid() {
        let policy = RetryPolicy::default();
        assert!(!policy.enabled());
        assert!(policy.validate().is_ok());
    }

    #[test]
    fn spec_validation_rejects_bad_probability() {
        let spec = FaultSpec {
            uplink_loss: 1.5,
            ..FaultSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("uplink_loss"));
    }

    #[test]
    fn policy_validation_rejects_retries_without_timeout() {
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        assert!(policy.validate().unwrap_err().contains("timeout_us"));
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let policy = RetryPolicy {
            timeout_us: 1_000.0,
            max_retries: 3,
            backoff_base_us: 100.0,
            backoff_factor: 2.0,
            jitter_frac: 0.25,
            hedge_after_us: 0.0,
        };
        let id = RequestId(42);
        let b1 = policy.backoff(id, 1);
        let b2 = policy.backoff(id, 2);
        let b3 = policy.backoff(id, 3);
        assert!(b2 > b1 && b3 > b2, "{b1:?} {b2:?} {b3:?}");
        assert_eq!(b1, policy.backoff(id, 1), "jitter must be deterministic");
        // Jitter stays within the configured fraction of the base.
        assert!(b1 >= SimDuration::from_micros(100));
        assert!(b1 <= SimDuration::from_micros(125));
    }

    #[test]
    fn crash_windows_are_sorted_and_disjoint() {
        let spec = FaultSpec {
            crash_rate_hz: 2_000.0,
            crash_downtime_us: 300.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(
            spec,
            SimDuration::from_millis(50),
            SmallRng::seed_from_u64(7),
        );
        let windows = &plan.crash_windows;
        assert!(!windows.is_empty(), "2 kHz over 50 ms should crash");
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "windows overlap: {pair:?}");
        }
    }

    #[test]
    fn server_down_inside_window_only() {
        let spec = FaultSpec {
            crash_rate_hz: 1_000.0,
            crash_downtime_us: 200.0,
            ..FaultSpec::default()
        };
        let mut plan = FaultPlan::generate(
            spec,
            SimDuration::from_millis(50),
            SmallRng::seed_from_u64(3),
        );
        let (start, end) = plan.crash_windows[0];
        assert!(!plan.server_down_at(SimTime::ZERO));
        assert!(plan.server_down_at(start));
        assert!(!plan.server_down_at(end));
    }

    #[test]
    fn same_seed_same_plan() {
        let spec = FaultSpec {
            uplink_loss: 0.1,
            crash_rate_hz: 500.0,
            stall_rate_hz: 1_000.0,
            ..FaultSpec::default()
        };
        let mk = || {
            FaultPlan::generate(spec, SimDuration::from_millis(100), SmallRng::seed_from_u64(9))
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(a.crash_windows, b.crash_windows);
        assert_eq!(a.first_stall(), b.first_stall());
        for _ in 0..1_000 {
            assert_eq!(a.drop_uplink(), b.drop_uplink());
        }
    }

    #[test]
    fn zero_probability_channels_never_draw() {
        // An all-default spec paired with a plan must behave as a
        // no-op: no drops, no RNG consumption observable via counters.
        let mut plan = FaultPlan::generate(
            FaultSpec::default(),
            SimDuration::from_millis(10),
            SmallRng::seed_from_u64(1),
        );
        for _ in 0..100 {
            assert!(!plan.drop_uplink());
            assert!(!plan.drop_downlink());
            assert!(!plan.nic_overflow(1e12, 1_500));
        }
        assert!(plan.summary_base().is_quiet());
    }

    #[test]
    fn censored_latency_measures_elapsed_time() {
        let rec = FailureRecord {
            id: RequestId(1),
            client: 0,
            conn: 0,
            t_generated: SimTime::from_micros(100),
            t_failed: SimTime::from_micros(5_100),
            attempts: 3,
            kind: FailureKind::TimedOut,
        };
        assert_eq!(rec.censored_latency_us(), 5_000.0);
    }
}
