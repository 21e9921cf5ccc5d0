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
/// distributions — the input to the analytic fast-path estimator
/// (`treadmill_inference::analytic`), which needs second moments and a
/// CPU/memory split that [`Workload::mean_service_ns`] alone cannot
/// provide.
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

    /// Mean total service demand in nanoseconds at base frequency: the
    /// mean the default [`Workload::service_moments`] reports.
    fn mean_service_ns(&self) -> f64;

    /// Closed-form moments for the analytic estimator. The default is a
    /// conservative stand-in (exponential-like variability, even
    /// CPU/memory split, small messages); workloads with exact forms
    /// should override it.
    fn service_moments(&self) -> ServiceMoments {
        ServiceMoments {
            mean_ns: self.mean_service_ns(),
            cv2: 1.0,
            cpu_fraction: 0.5,
            request_bytes: 128.0,
            response_bytes: 256.0,
            noise_sigma: 0.0,
            slow_fraction: 0.0,
            slow_multiplier: 1.0,
        }
    }
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
