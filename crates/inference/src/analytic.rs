//! Analytic fast-path tail estimator — an M/G/k queueing model of the
//! simulated server that maps a [`LoadTestConfig`] cell directly to
//! predicted p50/p95/p99 latency with no events and no RNG.
//!
//! The point is *screening*, not replacement: a 2^k factorial sweep
//! spends one full DES run per cell, which caps how many factors and
//! scenarios are explorable. Flow/queueing-level approximation
//! ("Scalable Tail Latency Estimation for Data Center Networks")
//! estimates tails orders of magnitude faster than event-level
//! simulation and is accurate enough to *rank* configurations — so
//! [`crate::screening::screen_hardware`] uses this estimator to rank
//! all cells of the factor space and flag the ones whose predicted
//! tail effect crosses a threshold, and `core::sweep` spends full DES
//! runs only on the flagged cells. `tests/analytic_oracle.rs` pins the
//! screen-vs-DES agreement (rank correlation, bounded p99 error,
//! screen recall) as a regression oracle.
//!
//! # Model
//!
//! The server's laws are the simulator's own functions, called rather
//! than restated: the governor's target and 0.1 GHz grid
//! (`dvfs::governor_target`), package heat and turbo headroom
//! (`turbo::heat_input`, `turbo::available_ghz`), the boot clock, the
//! interrupt cores, the mean remote-buffer fraction and rack
//! propagation. What is the screen's own is the queueing approximation
//! around them: two queueing stages plus a fixed client/network
//! pipeline.
//!
//! * **Worker stage** — an M/G/k queue over all `k = 16` cores with
//!   two-moment (Allen–Cunneen) waiting time: the M/M/k Erlang-C wait
//!   scaled by `(1 + CV²)/2`. Service demand comes from
//!   [`ServiceMoments`]: the CPU share scales with the solved core
//!   frequency, the memory share is inflated by the expected NUMA
//!   remote fraction, and half the requests pay the cross-socket
//!   handoff fee.
//! * **Interrupt-path correction** — IRQ handling is its own M/D/k'
//!   stage over the interrupt cores: `k' = 8` when NIC affinity pins
//!   every RSS queue to socket 0 (`nic` Low) and `k' = 16` when queues
//!   spread across both sockets (`nic` High, which instead pays the
//!   expected cross-socket DMA penalty on half its interrupts).
//!   Concentrating interrupt load on one socket is exactly what makes
//!   `nic` a tail factor at high load.
//! * **DVFS/thermal fixed point** — service times depend on frequency,
//!   frequency depends on the governor's view of utilisation, and
//!   utilisation depends on service times. The solver iterates
//!   frequency → service → utilisation → steady-state package heat →
//!   available turbo headroom → governor target to a damped fixed
//!   point, and reports the governor's last target, a step of its grid.
//! * **NIC-overflow correction** — with a finite ingress buffer, the
//!   overflow probability is estimated from the geometric backlog tail
//!   of the interrupt stage; dropped (and crash-reset) requests thin
//!   the arrival stream and bound the reliable quantile range exactly
//!   like the type-I censoring correction in `core::omission` (see
//!   [`censoring_prediction`] for the closed form of that correction,
//!   cross-checked property-wise against `correct_with_censored`).
//!
//! Tail quantiles compose the conditional-exponential wait quantile of
//! each stage with the service-time quantile (lognormal noise × slow-
//! path mixture, inverted by bisection on the closed-form CDF). Sums of
//! per-stage quantiles are a comonotone upper bound rather than a true
//! convolution — a consistent bias that preserves ranking, which is
//! what the differential oracle actually pins.
//!
//! Determinism contract: no RNG, no clocks, no panics (the file is
//! pinned at a zero panic budget in `lint-baseline.toml`), and all
//! float comparisons go through `f64::total_cmp` or plain arithmetic —
//! the fixed-point solver cannot NaN-panic.

use std::fmt;

use treadmill_cluster::server::{dvfs, turbo};
use treadmill_cluster::{
    ClientSpec, FaultSpec, HardwareConfig, Level, NetworkSpec, ServerSpec,
};
use treadmill_core::{ConfigError, LoadTestConfig};
use treadmill_stats::distribution::normal_cdf;
use treadmill_workloads::ServiceMoments;

/// Why the analytic estimator refused an input.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyticError {
    /// The [`LoadTestConfig`] itself does not validate (or its workload
    /// spec does not build).
    Config(String),
    /// A direct [`AnalyticInput`] field is out of range.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for AnalyticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyticError::Config(msg) => write!(f, "config error: {msg}"),
            AnalyticError::Invalid { field, message } => {
                write!(f, "invalid analytic input `{field}`: {message}")
            }
        }
    }
}

impl std::error::Error for AnalyticError {}

impl From<ConfigError> for AnalyticError {
    fn from(e: ConfigError) -> Self {
        AnalyticError::Config(e.to_string())
    }
}

/// Everything the estimator needs about one configuration cell.
/// [`predict_cell`] assembles this from a [`LoadTestConfig`]; tests and
/// callers with non-default hardware specs can fill it directly.
#[derive(Debug, Clone)]
pub struct AnalyticInput {
    /// Open-loop arrival rate offered to one server, requests/second.
    pub arrival_rps: f64,
    /// The factorial hardware cell under prediction.
    pub hardware: HardwareConfig,
    /// Workload service-demand and wire-size moments.
    pub moments: ServiceMoments,
    /// Server hardware parameters (must match the DES spec for the
    /// differential oracle to be meaningful).
    pub server: ServerSpec,
    /// Network parameters.
    pub network: NetworkSpec,
    /// Client-side fixed costs.
    pub client: ClientSpec,
    /// Fault injection settings (losses, NIC buffer, stalls, crashes).
    pub faults: FaultSpec,
    /// Measurement window length, µs — bounds the overload backlog
    /// ramp when the cell is unstable.
    pub duration_us: f64,
}

impl AnalyticInput {
    /// An input with default cluster specs for the given rate, cell and
    /// workload moments — the same defaults the DES runner uses.
    pub fn new(arrival_rps: f64, hardware: HardwareConfig, moments: ServiceMoments) -> Self {
        AnalyticInput {
            arrival_rps,
            hardware,
            moments,
            server: ServerSpec::default(),
            network: NetworkSpec::default(),
            client: ClientSpec::default(),
            faults: FaultSpec::default(),
            duration_us: 600_000.0,
        }
    }
}

/// The estimator's output for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPrediction {
    /// Predicted median end-to-end latency, µs.
    pub p50_us: f64,
    /// Predicted 95th-percentile latency, µs.
    pub p95_us: f64,
    /// Predicted 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Per-core offered utilisation (worker + interrupt work), at the
    /// solved frequency. May exceed 1 for unstable cells.
    pub utilization: f64,
    /// The DVFS/thermal fixed-point core frequency, GHz.
    pub effective_ghz: f64,
    /// Mean queueing wait across both stages, µs.
    pub mean_wait_us: f64,
    /// Predicted fraction of requests lost to link loss, NIC overflow,
    /// or crash resets.
    pub drop_fraction: f64,
    /// Quantiles at or above this rank are lower bounds, not estimates
    /// (the censoring bound implied by `drop_fraction`).
    pub reliable_below: f64,
    /// Whether every stage is below saturation.
    pub stable: bool,
}

const NS_PER_SEC: f64 = 1e9;
/// Erlang-part utilisation clamp: above this the fluid overload ramp
/// takes over (the Erlang wait diverges at 1).
const RHO_CLAMP: f64 = 0.995;

/// Predicts the latency distribution of one `LoadTestConfig` cell at a
/// given hardware configuration, using the same default cluster specs
/// as the DES runner.
///
/// # Errors
///
/// Returns [`AnalyticError::Config`] when the config does not validate
/// or its workload does not build, and [`AnalyticError::Invalid`] for
/// out-of-range analytic inputs (non-finite rate, zero cores).
pub fn predict_cell(
    config: &LoadTestConfig,
    hardware: HardwareConfig,
) -> Result<TailPrediction, AnalyticError> {
    config.validate()?;
    let workload = config
        .workload
        .build()
        .map_err(|e| AnalyticError::Config(e.to_string()))?;
    let mut input = AnalyticInput::new(
        config.target_rps / config.servers.max(1) as f64,
        hardware,
        workload.service_moments(),
    );
    input.faults = config.faults;
    input.duration_us = config.duration_ms.max(1) as f64 * 1_000.0;
    predict(&input)
}

/// Runs the estimator on a fully specified input.
///
/// # Errors
///
/// Returns [`AnalyticError::Invalid`] when the rate or moments are
/// non-finite/non-positive, or the server spec has no cores or clocks
/// that are not finite, positive and ordered
/// `min_ghz ≤ base_ghz ≤ turbo_ghz`.
pub fn predict(input: &AnalyticInput) -> Result<TailPrediction, AnalyticError> {
    validate_input(input)?;
    let spec = &input.server;
    let k_total = spec.total_cores() as f64;
    let k_irq = spec.irq_cores(input.hardware.nic) as f64;

    // Arrival thinning: uplink loss happens before the server sees the
    // packet; NIC overflow and crash resets are solved below.
    let lambda_in = input.arrival_rps * (1.0 - input.faults.uplink_loss.clamp(0.0, 1.0));

    // Stalls and crash windows eat server capacity: inflate service
    // demand by the stolen fraction instead of shrinking k (same
    // first-order utilisation, simpler algebra).
    let stall_frac =
        (input.faults.stall_rate_hz * input.faults.stall_us / 1e6).clamp(0.0, 0.95);
    let crash_frac =
        (input.faults.crash_rate_hz * input.faults.crash_downtime_us / 1e6).clamp(0.0, 0.95);
    let capacity_scale = ((1.0 - stall_frac) * (1.0 - crash_frac)).max(0.05);

    // DVFS/thermal fixed point at the thinned arrival rate (NIC drops
    // are small by the time they matter; folding them into the fixed
    // point would couple the two corrections for negligible gain).
    let solved = solve_frequency(input, lambda_in, capacity_scale);
    let freq = solved.freq_ghz;
    let s_irq = solved.irq_ns;
    let s_work = solved.work_ns;

    // NIC-overflow correction: geometric backlog tail of the interrupt
    // stage, measured in request-sized packets against the buffer.
    let rho_irq_raw = lambda_in * s_irq / (k_irq * NS_PER_SEC);
    let nic_drop = nic_overflow_fraction(
        input.faults.nic_capacity_bytes,
        input.moments.request_bytes,
        rho_irq_raw,
    );
    let lambda_srv = lambda_in * (1.0 - nic_drop);

    let drop_fraction = 1.0
        - (1.0 - input.faults.uplink_loss.clamp(0.0, 1.0))
            * (1.0 - nic_drop)
            * (1.0 - input.faults.downlink_loss.clamp(0.0, 1.0))
            * (1.0 - crash_frac);

    // Stage loads in erlangs (dimensionless servers-worth of work).
    let a_work = lambda_srv * s_work / NS_PER_SEC;
    let a_irq = lambda_srv * s_irq / NS_PER_SEC;
    let rho_work = a_work / k_total;
    let rho_irq = a_irq / k_irq;
    let utilization = rho_work + a_irq / k_total;
    let stable = utilization < 1.0 && rho_irq < 1.0;

    // Effective service-time variability for the wait formula: the
    // workload's cv² plus the NUMA remote-vs-local bimodality.
    let cv2 = input.moments.cv2.max(0.0) + numa_cv2_boost(input, freq);

    let wait = |q: f64| -> f64 {
        stage_wait_quantile(k_total, a_work, s_work, cv2, q)
            + stage_wait_quantile(k_irq, a_irq, s_irq, 0.1, q)
            + overload_ramp(utilization.max(rho_irq), input.duration_us * 1_000.0, q)
    };
    let mean_wait_ns = stage_mean_wait(k_total, a_work, s_work, cv2)
        + stage_mean_wait(k_irq, a_irq, s_irq, 0.1)
        + overload_ramp(utilization.max(rho_irq), input.duration_us * 1_000.0, 0.5);

    let fixed_ns = fixed_path_ns(input);
    let service = ServiceQuantiles::new(&input.moments, s_work);

    let latency_us = |q: f64| -> f64 {
        (fixed_ns + s_irq + wait(q) + service.quantile_ns(q)) / 1_000.0
    };

    Ok(TailPrediction {
        p50_us: latency_us(0.50),
        p95_us: latency_us(0.95),
        p99_us: latency_us(0.99),
        utilization,
        effective_ghz: freq,
        mean_wait_us: mean_wait_ns / 1_000.0,
        drop_fraction,
        reliable_below: 1.0 - drop_fraction,
        stable,
    })
}

fn validate_input(input: &AnalyticInput) -> Result<(), AnalyticError> {
    if !(input.arrival_rps.is_finite() && input.arrival_rps > 0.0) {
        return Err(AnalyticError::Invalid {
            field: "arrival_rps",
            message: format!("must be finite and positive, got {}", input.arrival_rps),
        });
    }
    if !(input.moments.mean_ns.is_finite() && input.moments.mean_ns > 0.0) {
        return Err(AnalyticError::Invalid {
            field: "moments.mean_ns",
            message: format!("must be finite and positive, got {}", input.moments.mean_ns),
        });
    }
    if !input.moments.cv2.is_finite() || input.moments.cv2 < 0.0 {
        return Err(AnalyticError::Invalid {
            field: "moments.cv2",
            message: format!("must be finite and non-negative, got {}", input.moments.cv2),
        });
    }
    let server = &input.server;
    if server.total_cores() == 0 {
        return Err(AnalyticError::Invalid {
            field: "server",
            message: "server spec has zero cores".to_string(),
        });
    }
    // The governor and turbo laws assume this order; any NaN fails it.
    let (min, base, turbo) = (server.min_ghz, server.base_ghz, server.turbo_ghz);
    if !(0.0 < min && min <= base && base <= turbo && turbo.is_finite()) {
        return Err(AnalyticError::Invalid {
            field: "server",
            message: format!(
                "clocks must be finite with 0 < min_ghz <= base_ghz <= turbo_ghz, \
                 got {min} / {base} / {turbo}"
            ),
        });
    }
    if !(input.duration_us.is_finite() && input.duration_us > 0.0) {
        return Err(AnalyticError::Invalid {
            field: "duration_us",
            message: format!("must be finite and positive, got {}", input.duration_us),
        });
    }
    Ok(())
}

/// Mean interrupt service at frequency `f`: the kernel cost scales with
/// frequency; under `all-nodes` affinity half the interrupts land on
/// the socket without the NIC's PCIe attachment and pay the DMA
/// penalty.
fn irq_service_ns(spec: &ServerSpec, hw: HardwareConfig, freq_ghz: f64) -> f64 {
    let cross_fraction = match hw.nic {
        Level::Low => 0.0,
        Level::High => 0.5,
    };
    spec.irq_ns * spec.base_ghz / freq_ghz + cross_fraction * spec.irq_cross_socket_ns
}

/// Mean worker service at frequency `f`: CPU share frequency-scaled,
/// memory share inflated at the run's mean remote fraction (the centre
/// of `RunState`'s jittered draw), plus the expected cross-socket
/// handoff fee (worker cores are drawn uniformly over both sockets, so
/// half the requests cross regardless of NIC affinity).
fn work_service_ns(input: &AnalyticInput, freq_ghz: f64) -> f64 {
    let spec = &input.server;
    let m = &input.moments;
    let (r, _) = spec.hysteresis.remote_fraction(input.hardware.numa);
    let mem_mult = 1.0 + (spec.numa_remote_penalty - 1.0) * r;
    let cpu = m.mean_ns * m.cpu_fraction * spec.base_ghz / freq_ghz;
    let mem = m.mean_ns * (1.0 - m.cpu_fraction) * mem_mult;
    cpu + mem + 0.5 * spec.handoff_cross_socket_ns
}

/// Extra service-time variance (as a cv² increment) from the
/// remote-vs-local NUMA bimodality: a Bernoulli(r) mixture between the
/// local and penalised memory cost.
fn numa_cv2_boost(input: &AnalyticInput, freq_ghz: f64) -> f64 {
    let spec = &input.server;
    let m = &input.moments;
    let (r, _) = spec.hysteresis.remote_fraction(input.hardware.numa);
    let mem = m.mean_ns * (1.0 - m.cpu_fraction);
    let delta = mem * (spec.numa_remote_penalty - 1.0);
    let mean = work_service_ns(input, freq_ghz);
    if mean <= 0.0 {
        return 0.0;
    }
    // Var of a Bernoulli(r) shift of size delta, normalised by the mean.
    r * (1.0 - r) * (delta / mean) * (delta / mean)
}

struct SolvedPoint {
    freq_ghz: f64,
    irq_ns: f64,
    work_ns: f64,
}

/// Damped fixed-point solve of frequency ↔ utilisation ↔ thermal
/// headroom with the simulator's laws: from the boot clock, each step
/// takes the package heat the utilisation sustains at the current
/// clock, the turbo headroom at that heat, and the governor's target
/// under that headroom.
fn solve_frequency(
    input: &AnalyticInput,
    lambda: f64,
    capacity_scale: f64,
) -> SolvedPoint {
    let spec = &input.server;
    let hw = input.hardware;
    let k_total = spec.total_cores() as f64;
    let mut freq = spec.boot_ghz(hw);
    let mut target = freq;
    for _ in 0..64 {
        let s_irq = irq_service_ns(spec, hw, freq) / capacity_scale;
        let s_work = work_service_ns(input, freq) / capacity_scale;
        let util = (lambda * (s_irq + s_work) / (k_total * NS_PER_SEC)).clamp(0.0, 1.0);
        let heat = turbo::heat_input(util, freq, spec.base_ghz);
        let max_avail = turbo::available_ghz(
            spec.base_ghz,
            spec.turbo_ghz,
            hw.turbo.is_high(),
            spec.thermal_throttle_start,
            heat,
        );
        target = dvfs::governor_target(
            hw.dvfs,
            util,
            spec.min_ghz,
            max_avail,
            spec.ondemand_up_threshold,
        );
        let next = 0.5 * freq + 0.5 * target;
        let converged = (next - freq).abs() < 1e-9;
        freq = next;
        if converged {
            break;
        }
    }
    // Land on the governor's quantised step rather than the damped
    // average between steps.
    SolvedPoint {
        freq_ghz: target,
        irq_ns: irq_service_ns(spec, hw, target) / capacity_scale,
        work_ns: work_service_ns(input, target) / capacity_scale,
    }
}

/// Erlang-C probability of waiting for an M/M/k queue offered `a`
/// erlangs, via the numerically stable Erlang-B recurrence.
fn erlang_c(k: f64, a: f64) -> f64 {
    if a <= 0.0 {
        return 0.0;
    }
    if a >= k {
        return 1.0;
    }
    // Server counts are small integers (core counts); the cast cannot
    // truncate anything meaningful and saturates safely if it did.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let servers = k.max(1.0) as usize;
    let mut b = 1.0;
    for n in 1..=servers {
        let n = n as f64;
        b = a * b / (n + a * b);
    }
    let c = k * b / (k - a * (1.0 - b));
    c.clamp(0.0, 1.0)
}

/// Mean M/G/k wait (ns) by the Allen–Cunneen two-moment approximation:
/// Erlang-C × (1+CV²)/2 × s/(k − a).
fn stage_mean_wait(k: f64, a: f64, service_ns: f64, cv2: f64) -> f64 {
    let a = a.min(k * RHO_CLAMP);
    let c = erlang_c(k, a);
    c * (1.0 + cv2) / 2.0 * service_ns / (k - a)
}

/// The `q`-quantile (ns) of the stage's waiting time: exponential
/// conditional wait `P(W > t) = C·exp(−(k−a)t/s)`, zero below the
/// no-wait mass, with the variability scaling folded into the mean of
/// the conditional exponential.
fn stage_wait_quantile(k: f64, a: f64, service_ns: f64, cv2: f64, q: f64) -> f64 {
    let a = a.min(k * RHO_CLAMP);
    let c = erlang_c(k, a);
    if c <= 0.0 || q <= 1.0 - c {
        return 0.0;
    }
    let mean_conditional = (1.0 + cv2) / 2.0 * service_ns / (k - a);
    mean_conditional * (c / (1.0 - q)).max(1.0).ln()
}

/// Fluid overload backlog: past saturation the queue grows linearly for
/// the whole window, so a request at relative position `q` of the run
/// waits `(1 − 1/ρ)·q·D`. Zero for stable cells — continuous at ρ = 1.
fn overload_ramp(rho: f64, duration_ns: f64, q: f64) -> f64 {
    if rho <= 1.0 {
        return 0.0;
    }
    (1.0 - 1.0 / rho) * q.clamp(0.0, 1.0) * duration_ns
}

/// Geometric-tail estimate of the NIC ingress overflow fraction: the
/// probability the interrupt-stage backlog exceeds the buffer, measured
/// in mean-request-size packets. Past saturation the fluid excess
/// `1 − 1/ρ` is dropped outright.
fn nic_overflow_fraction(capacity_bytes: f64, request_bytes: f64, rho_irq: f64) -> f64 {
    if capacity_bytes <= 0.0 {
        return 0.0;
    }
    if rho_irq >= 1.0 {
        return (1.0 - 1.0 / rho_irq).clamp(0.0, 1.0);
    }
    if rho_irq <= 0.0 {
        return 0.0;
    }
    let packets = (capacity_bytes / request_bytes.max(1.0)).max(1.0);
    rho_irq.powf(1.0 + packets).clamp(0.0, 1.0)
}

/// Fixed (load-independent) client + network path cost, ns: user-space
/// send/receive CPU, kernel tx/rx, serialisation of both messages, and
/// propagation each way.
fn fixed_path_ns(input: &AnalyticInput) -> f64 {
    let c = &input.client;
    let n = &input.network;
    let tx = input.moments.request_bytes / n.bytes_per_ns;
    let rx = input.moments.response_bytes / n.bytes_per_ns;
    let prop = 2.0 * n.propagation(c.rack).as_micros_f64() * 1_000.0;
    c.send_cpu_ns
        + c.recv_cpu_ns
        + c.kernel_tx.as_micros_f64() * 1_000.0
        + c.kernel_rx.as_micros_f64() * 1_000.0
        + tx
        + rx
        + prop
}

/// Service-time quantiles: deterministic mean × lognormal(σ_eff) ×
/// slow-path mixture, inverted by bisection on the closed-form CDF.
///
/// σ_eff absorbs *all* fast-path variability (payload spread and
/// multiplicative noise): from the total cv² with the slow mixture
/// factored out, `1 + cv2_fast = (1 + cv²)·E[S]²/E[S²]`, then
/// `σ_eff = √ln(1 + cv2_fast)` — the lognormal with that cv².
struct ServiceQuantiles {
    mean_ns: f64,
    sigma: f64,
    slow_fraction: f64,
    slow_multiplier: f64,
}

impl ServiceQuantiles {
    fn new(moments: &ServiceMoments, work_mean_ns: f64) -> Self {
        let p = moments.slow_fraction.clamp(0.0, 1.0);
        let m = moments.slow_multiplier.max(1.0);
        let e_s = 1.0 + p * (m - 1.0);
        let e_s2 = 1.0 + p * (m * m - 1.0);
        let cv2_fast =
            ((1.0 + moments.cv2.max(0.0)) * e_s * e_s / e_s2 - 1.0).max(0.0);
        // The mixture mean is e_s × the fast-path mean; quantiles are
        // anchored on the fast-path mean so the mixture reproduces the
        // overall work_mean_ns.
        ServiceQuantiles {
            mean_ns: work_mean_ns / e_s,
            sigma: cv2_fast.ln_1p().sqrt(),
            slow_fraction: p,
            slow_multiplier: m,
        }
    }

    /// CDF of the mixture at service time `x` ns.
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if self.sigma <= 0.0 {
            let fast = if x >= self.mean_ns { 1.0 } else { 0.0 };
            let slow = if x >= self.mean_ns * self.slow_multiplier {
                1.0
            } else {
                0.0
            };
            return (1.0 - self.slow_fraction) * fast + self.slow_fraction * slow;
        }
        let z = |scale: f64| {
            ((x / (self.mean_ns * scale)).ln() + self.sigma * self.sigma / 2.0)
                / self.sigma
        };
        (1.0 - self.slow_fraction) * normal_cdf(z(1.0))
            + self.slow_fraction * normal_cdf(z(self.slow_multiplier))
    }

    /// The `q`-quantile in ns, by bisection (the CDF is monotone; 80
    /// halvings of the bracket are far below f64 noise).
    fn quantile_ns(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if self.sigma <= 0.0 {
            return if q < 1.0 - self.slow_fraction {
                self.mean_ns
            } else {
                self.mean_ns * self.slow_multiplier
            };
        }
        let mut lo = self.mean_ns * 1e-3;
        let mut hi =
            self.mean_ns * self.slow_multiplier * (6.0 * self.sigma).exp().max(8.0);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Closed-form prediction of what `core::omission::correct_with_censored`
/// produces for a given set of observed and censored latencies: the
/// corrected sample count (each value `v` backfills `⌈v/I⌉ − 1`
/// coordinated-omission samples) and the reliability bound
/// `1 − censored/(observed + censored)`.
///
/// This is the metamorphic cross-check target for the omission
/// estimator: the iterative subtraction in `correct_with_censored` and
/// this closed form must agree on integer-valued inputs (where float
/// subtraction is exact).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensoringPrediction {
    /// Total corrected sample count (observed + censored + backfill).
    pub corrected_count: usize,
    /// Quantiles at or above this rank are lower bounds.
    pub reliable_below: f64,
}

/// Computes the closed-form censoring prediction.
///
/// # Errors
///
/// Returns [`AnalyticError::Invalid`] when `interval_us` is not finite
/// and positive.
pub fn censoring_prediction(
    observed_us: &[f64],
    censored_us: &[f64],
    interval_us: f64,
) -> Result<CensoringPrediction, AnalyticError> {
    if !(interval_us.is_finite() && interval_us > 0.0) {
        return Err(AnalyticError::Invalid {
            field: "interval_us",
            message: format!("must be finite and positive, got {interval_us}"),
        });
    }
    let backfills = |v: f64| -> usize {
        if v <= 0.0 {
            return 0;
        }
        let n = (v / interval_us).ceil() - 1.0;
        if n <= 0.0 {
            0
        } else {
            // `n` is a non-negative integer-valued f64 (ceil output);
            // saturation at usize::MAX only matters for absurd inputs.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                n as usize
            }
        }
    };
    let mut count = observed_us.len() + censored_us.len();
    for &v in observed_us.iter().chain(censored_us) {
        count += backfills(v);
    }
    let total = observed_us.len() + censored_us.len();
    let reliable_below = if total == 0 {
        1.0
    } else {
        1.0 - censored_us.len() as f64 / total as f64
    };
    Ok(CensoringPrediction {
        corrected_count: count,
        reliable_below,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_workloads::{Memcached, Workload};

    fn input(rps: f64, cell: usize) -> AnalyticInput {
        AnalyticInput::new(
            rps,
            HardwareConfig::from_index(cell),
            Memcached::default().service_moments(),
        )
    }

    #[test]
    fn erlang_c_limits() {
        assert_eq!(erlang_c(16.0, 0.0), 0.0);
        assert_eq!(erlang_c(16.0, 16.0), 1.0);
        // Single server: C = a.
        assert!((erlang_c(1.0, 0.3) - 0.3).abs() < 1e-12);
        // Monotone in offered load.
        assert!(erlang_c(16.0, 12.0) > erlang_c(16.0, 8.0));
    }

    #[test]
    fn light_load_latency_is_near_fixed_path() {
        let p = predict(&input(20_000.0, 0b1111)).expect("predicts");
        // All-high at 20k rps: essentially no queueing; the fixed
        // client/network path is ~40us and service ~15us.
        assert!(p.stable);
        assert!(p.p50_us > 40.0 && p.p50_us < 80.0, "p50 {}", p.p50_us);
        assert!(p.p99_us < 250.0, "p99 {}", p.p99_us);
        assert!(p.utilization < 0.2);
    }

    #[test]
    fn latency_grows_with_load() {
        let cell = 0b1111;
        let mut last = 0.0;
        for rps in [100_000.0, 400_000.0, 700_000.0, 900_000.0] {
            let p = predict(&input(rps, cell)).expect("predicts");
            assert!(p.p99_us > last, "p99 must grow with rate");
            last = p.p99_us;
        }
    }

    #[test]
    fn fast_clocks_beat_slow_clocks() {
        // turbo+performance (index 6) vs ondemand-no-turbo (index 0),
        // same numa/nic: higher solved frequency, lower tail.
        let slow = predict(&input(700_000.0, 0)).expect("predicts");
        let fast = predict(&input(700_000.0, 0b0110)).expect("predicts");
        assert!(
            slow.p99_us > fast.p99_us,
            "slow-clock cell {} must trail fast-clock cell {}",
            slow.p99_us,
            fast.p99_us
        );
        assert!(slow.effective_ghz < fast.effective_ghz);
    }

    #[test]
    fn numa_dominates_the_tail_at_high_load() {
        // Same contrast the DES screening test pins: numa High (remote
        // interleave) vs Low at 750k rps.
        let mut base = input(750_000.0, 0b1110);
        base.hardware.numa = Level::Low;
        let mut remote = input(750_000.0, 0b1110);
        remote.hardware.numa = Level::High;
        let p_local = predict(&base).expect("predicts");
        let p_remote = predict(&remote).expect("predicts");
        assert!(
            p_remote.p99_us > p_local.p99_us * 1.1,
            "remote NUMA {} vs local {}",
            p_remote.p99_us,
            p_local.p99_us
        );
    }

    #[test]
    fn ondemand_parks_low_at_light_load() {
        // dvfs Low + turbo off at light load: the governor parks well
        // below base (ext07 pins 1.3–1.5 GHz in the DES).
        let p = predict(&input(60_000.0, 0)).expect("predicts");
        assert!(
            p.effective_ghz < 1.7,
            "ondemand at light load parked at {}",
            p.effective_ghz
        );
        let perf = predict(&input(60_000.0, 0b0100)).expect("predicts");
        assert!(perf.effective_ghz >= 2.2 - 1e-9);
    }

    #[test]
    fn unstable_cell_saturates_not_panics() {
        let p = predict(&input(3_000_000.0, 0)).expect("predicts");
        assert!(!p.stable);
        assert!(p.utilization > 1.0);
        assert!(p.p99_us > 10_000.0, "overloaded tail {}", p.p99_us);
        assert!(p.p99_us.is_finite());
    }

    #[test]
    fn nic_overflow_thins_and_bounds_reliability() {
        // A buffer of ~2 request-sized packets at ~0.18 interrupt-path
        // utilisation: geometric tail gives a small but non-zero drop.
        let mut faulted = input(800_000.0, 0);
        faulted.faults.nic_capacity_bytes = 256.0;
        let p = predict(&faulted).expect("predicts");
        assert!(p.drop_fraction > 0.0, "finite buffer must drop");
        assert!(p.reliable_below < 1.0);
        let clean = predict(&input(800_000.0, 0)).expect("predicts");
        assert_eq!(clean.drop_fraction, 0.0);
        assert_eq!(clean.reliable_below, 1.0);
    }

    #[test]
    fn losses_compose_into_drop_fraction() {
        let mut faulted = input(100_000.0, 0b1111);
        faulted.faults.uplink_loss = 0.01;
        faulted.faults.downlink_loss = 0.02;
        let p = predict(&faulted).expect("predicts");
        let expect = 1.0 - 0.99 * 0.98;
        assert!((p.drop_fraction - expect).abs() < 1e-9);
    }

    #[test]
    fn deterministic_bitwise() {
        let a = predict(&input(700_000.0, 5)).expect("predicts");
        let b = predict(&input(700_000.0, 5)).expect("predicts");
        assert_eq!(a.p99_us.to_bits(), b.p99_us.to_bits());
        assert_eq!(a.p50_us.to_bits(), b.p50_us.to_bits());
        assert_eq!(a.effective_ghz.to_bits(), b.effective_ghz.to_bits());
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let mut bad = input(0.0, 0);
        assert!(matches!(
            predict(&bad),
            Err(AnalyticError::Invalid { field: "arrival_rps", .. })
        ));
        bad = input(1_000.0, 0);
        bad.moments.mean_ns = f64::NAN;
        assert!(predict(&bad).is_err());
        bad = input(1_000.0, 0);
        bad.moments.cv2 = -1.0;
        assert!(predict(&bad).is_err());
        bad = input(1_000.0, 0);
        bad.duration_us = 0.0;
        assert!(predict(&bad).is_err());
    }

    /// Predicts cells 0, 4, 6 and 12 at 200k rps on `server`, expecting
    /// each to be refused as an invalid server spec.
    fn assert_server_rejected(server: ServerSpec) {
        for cell in [0, 4, 6, 12] {
            let mut bad = input(200_000.0, cell);
            bad.server = server.clone();
            assert!(
                matches!(predict(&bad), Err(AnalyticError::Invalid { field: "server", .. })),
                "cell {cell}: {:?}",
                predict(&bad)
            );
        }
    }

    #[test]
    fn a_nan_min_clock_is_a_typed_error() {
        assert_server_rejected(ServerSpec {
            min_ghz: f64::NAN,
            ..ServerSpec::default()
        });
    }

    #[test]
    fn a_min_clock_above_turbo_is_a_typed_error() {
        assert_server_rejected(ServerSpec {
            min_ghz: 3.5,
            ..ServerSpec::default()
        });
    }

    #[test]
    fn a_zero_base_clock_is_a_typed_error() {
        assert_server_rejected(ServerSpec {
            base_ghz: 0.0,
            ..ServerSpec::default()
        });
    }

    #[test]
    fn turbo_above_twice_base_keeps_the_governor_in_range() {
        // A hot package's headroom `turbo − (turbo − base)` rounds to
        // 0.5999999999999999 here, under `min_ghz`: the governor's
        // `min <= max` assert must not see it.
        let mut hot = input(400_000.0, 0b0110);
        hot.server = ServerSpec {
            base_ghz: 0.6,
            min_ghz: 0.6,
            turbo_ghz: 1.8,
            ..ServerSpec::default()
        };
        let p = predict(&hot).expect("predicts");
        assert!((0.6..=1.8).contains(&p.effective_ghz), "{}", p.effective_ghz);
        assert!(p.p99_us.is_finite());
    }

    #[test]
    fn solved_clocks_without_turbo_are_governor_steps() {
        // Without turbo the available maximum is base, 2.2 GHz, itself a
        // step, so the governor's target and the solved clock must land
        // on its 0.1 GHz grid exactly as the simulator rounds it.
        for rps in [20_000, 60_000, 100_000, 250_000, 400_000] {
            let config = treadmill_core::LoadTestConfig::from_json(&format!(
                r#"{{ "workload": {{ "workload": "memcached" }}, "target_rps": {rps} }}"#
            ))
            .expect("parses");
            for hw in HardwareConfig::all().into_iter().filter(|hw| !hw.turbo.is_high()) {
                let f = predict_cell(&config, hw).expect("predicts").effective_ghz;
                assert_eq!(
                    ((f * 10.0).round() / 10.0).to_bits(),
                    f.to_bits(),
                    "{rps} rps, {hw}: {f} GHz is off the governor's grid"
                );
            }
        }
    }

    #[test]
    fn predict_cell_wires_config_through() {
        let config = treadmill_core::LoadTestConfig::from_json(
            r#"{ "workload": { "workload": "memcached" }, "target_rps": 500000 }"#,
        )
        .expect("parses");
        let p = predict_cell(&config, HardwareConfig::from_index(3)).expect("predicts");
        assert!(p.p99_us > p.p50_us);
        assert!(p.stable);
    }

    #[test]
    fn service_quantiles_monotone_and_anchored() {
        let m = Memcached::default().service_moments();
        let s = ServiceQuantiles::new(&m, m.mean_ns);
        let p50 = s.quantile_ns(0.5);
        let p99 = s.quantile_ns(0.99);
        assert!(p50 < p99);
        // The median of the heavy-tailed mixture sits below the mean.
        assert!(p50 < m.mean_ns, "median {p50} vs mean {}", m.mean_ns);
        // p99 reflects the noise + slow path: several times the median.
        assert!(p99 > 2.0 * p50, "p99 {p99} p50 {p50}");
    }

    #[test]
    fn censoring_prediction_closed_form() {
        // 95us under a 20us schedule: 4 backfills (75, 55, 35, 15).
        let p = censoring_prediction(&[95.0], &[], 20.0).expect("valid");
        assert_eq!(p.corrected_count, 5);
        assert_eq!(p.reliable_below, 1.0);
        // Exact multiples: 6/2 = 3 → 2 backfills, not 3.
        let p = censoring_prediction(&[6.0], &[], 2.0).expect("valid");
        assert_eq!(p.corrected_count, 3);
        // Censored values backfill identically and set the bound.
        let p = censoring_prediction(&[10.0, 12.0, 11.0], &[5_000.0], 1_000.0)
            .expect("valid");
        assert_eq!(p.corrected_count, 8);
        assert!((p.reliable_below - 0.75).abs() < 1e-12);
        assert!(censoring_prediction(&[1.0], &[], 0.0).is_err());
    }
}
