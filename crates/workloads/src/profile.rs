//! The workload trait and per-request resource profiles.

use rand::RngCore;
use std::fmt;

/// Broad classification of an operation, used by reports and by the
/// server model's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A read (e.g. Memcached GET): small request, value-sized response.
    Read,
    /// A write (e.g. Memcached SET): value-sized request, small response.
    Write,
    /// A routing/forwarding operation (mcrouter).
    Route,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpClass::Read => write!(f, "read"),
            OpClass::Write => write!(f, "write"),
            OpClass::Route => write!(f, "route"),
        }
    }
}

/// The simulator-facing resource demand of one request.
///
/// All the latency-relevant behaviour of a service process is captured
/// by four quantities: wire sizes in each direction, CPU work (which
/// scales with core frequency), and memory-bound work (which does *not*
/// scale with frequency but is inflated by remote-NUMA placement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestProfile {
    /// Operation class.
    pub class: OpClass,
    /// Bytes on the wire, client → server.
    pub request_bytes: u32,
    /// Bytes on the wire, server → client.
    pub response_bytes: u32,
    /// Frequency-scalable CPU work, in nanoseconds at the reference
    /// (base) frequency.
    pub cpu_ns: f64,
    /// Memory-bound work in nanoseconds; multiplied by the remote-access
    /// penalty when the connection's buffer lives on the other NUMA node.
    pub mem_ns: f64,
}

/// Closed-form moments of a workload's service-demand and wire-size
/// distributions, exactly those of what [`Workload::sample_request`]
/// draws — the input to the analytic fast-path estimator
/// (`treadmill_inference::analytic`), which needs the mean, the second
/// moment and the CPU/memory split of the demand.
///
/// All quantities are at base frequency with local memory (the same
/// reference point as [`RequestProfile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMoments {
    /// Mean total service demand, ns.
    pub mean_ns: f64,
    /// Squared coefficient of variation of total service demand,
    /// `Var[S] / E[S]²`.
    pub cv2: f64,
    /// Fraction of the mean demand that is frequency-scalable CPU work
    /// (the remainder is memory-bound and NUMA-sensitive).
    pub cpu_fraction: f64,
    /// Mean request size on the wire, client → server, bytes.
    pub request_bytes: f64,
    /// Mean response size on the wire, server → client, bytes.
    pub response_bytes: f64,
    /// Log-scale sigma of the per-request multiplicative noise (0 when
    /// the workload draws none) — shapes the analytic tail quantiles.
    pub noise_sigma: f64,
    /// Fraction of requests on a slow path (0 when none).
    pub slow_fraction: f64,
    /// Service multiplier on the slow path (1 when none).
    pub slow_multiplier: f64,
}

/// A request's demand `B` before its noise and slow path — its mean, its
/// second moment and the CPU part of its mean, in ns and ns² — from
/// which a workload states its [`ServiceMoments`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BaseDemand {
    pub mean_ns: f64,
    pub mean_square: f64,
    pub cpu_ns: f64,
}

impl BaseDemand {
    /// The moments of `B·N·S`: `B` this demand, `N` lognormal noise of
    /// mean 1 and log-scale sigma `noise_sigma` (`E[N²] = e^{σ²}`), `S`
    /// the slow path (`slow_multiplier` with probability
    /// `slow_fraction`, else 1), all independent.
    pub(crate) fn moments(
        self,
        noise_sigma: f64,
        slow_fraction: f64,
        slow_multiplier: f64,
        request_bytes: f64,
        response_bytes: f64,
    ) -> ServiceMoments {
        let e_n2 = (noise_sigma * noise_sigma).exp();
        let e_s = 1.0 + slow_fraction * (slow_multiplier - 1.0);
        let e_s2 = 1.0 + slow_fraction * (slow_multiplier * slow_multiplier - 1.0);
        let mean = self.mean_ns * e_s;
        let second = self.mean_square * e_n2 * e_s2;
        // `max` also takes a zero demand's 0/0 to 0.
        let cv2 = (second / (mean * mean) - 1.0).max(0.0);
        let cpu_fraction = if self.mean_ns > 0.0 {
            self.cpu_ns / self.mean_ns
        } else {
            0.5
        };
        ServiceMoments {
            mean_ns: mean,
            cv2,
            cpu_fraction,
            request_bytes,
            response_bytes,
            noise_sigma,
            slow_fraction,
            slow_multiplier,
        }
    }
}

/// A service workload: something that can generate request profiles.
///
/// Implementations should be cheap to sample (called once per simulated
/// request) and deterministic given the RNG. This is the "less than 200
/// lines of code" integration surface the paper advertises — see
/// [`crate::Memcached`] and [`crate::Mcrouter`].
pub trait Workload: fmt::Debug + Send + Sync {
    /// A short display name (e.g. `"memcached"`).
    fn name(&self) -> &str;

    /// Draws the resource profile of the next request.
    fn sample_request(&self, rng: &mut dyn RngCore) -> RequestProfile;

    /// Closed-form moments of what [`Workload::sample_request`] draws,
    /// for the analytic estimator; their `mean_ns` is the mean total
    /// service demand at base frequency. Each workload states its own:
    /// the screen trusts them as it trusts the simulator.
    fn service_moments(&self) -> ServiceMoments;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_display() {
        assert_eq!(OpClass::Read.to_string(), "read");
        assert_eq!(OpClass::Write.to_string(), "write");
        assert_eq!(OpClass::Route.to_string(), "route");
    }
}
