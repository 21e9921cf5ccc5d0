//! A fully deterministic synthetic workload for calibration and tests.
//!
//! Real workload models are stochastic; when calibrating the simulator
//! or writing tests that must isolate one mechanism, a fixed-profile
//! workload removes service-time noise entirely.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::profile::{OpClass, RequestProfile, ServiceMoments, Workload};

/// A workload where every request is identical.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treadmill_workloads::{Synthetic, Workload};
///
/// let workload = Synthetic::fixed(10_000.0, 2_000.0);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let a = workload.sample_request(&mut rng);
/// let b = workload.sample_request(&mut rng);
/// assert_eq!(a, b, "every request is identical");
/// assert_eq!(workload.service_moments().mean_ns, 12_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Synthetic {
    /// CPU work per request, ns at base frequency.
    pub cpu_ns: f64,
    /// Memory-bound work per request, ns.
    pub mem_ns: f64,
    /// Request size on the wire, bytes.
    pub request_bytes: u32,
    /// Response size on the wire, bytes.
    pub response_bytes: u32,
}

impl Synthetic {
    /// A fixed-profile workload with the given CPU and memory demand.
    ///
    /// # Panics
    ///
    /// Panics if both components are zero or either is negative.
    pub fn fixed(cpu_ns: f64, mem_ns: f64) -> Self {
        assert!(cpu_ns >= 0.0 && mem_ns >= 0.0, "negative service demand");
        assert!(cpu_ns + mem_ns > 0.0, "zero service demand");
        Synthetic {
            cpu_ns,
            mem_ns,
            request_bytes: 128,
            response_bytes: 128,
        }
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &str {
        "synthetic"
    }

    fn sample_request(&self, _rng: &mut dyn RngCore) -> RequestProfile {
        RequestProfile {
            class: OpClass::Read,
            request_bytes: self.request_bytes,
            response_bytes: self.response_bytes,
            cpu_ns: self.cpu_ns,
            mem_ns: self.mem_ns,
        }
    }

    /// The fixed demand: no variance, no noise, no slow path.
    fn service_moments(&self) -> ServiceMoments {
        let demand = self.cpu_ns + self.mem_ns;
        ServiceMoments {
            mean_ns: demand,
            cv2: 0.0,
            cpu_fraction: self.cpu_ns / demand,
            request_bytes: f64::from(self.request_bytes),
            response_bytes: f64::from(self.response_bytes),
            noise_sigma: 0.0,
            slow_fraction: 0.0,
            slow_multiplier: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn profile_is_constant() {
        let w = Synthetic::fixed(5_000.0, 1_000.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = w.sample_request(&mut rng);
            assert_eq!(p.cpu_ns, 5_000.0);
            assert_eq!(p.mem_ns, 1_000.0);
        }
        assert_eq!(w.name(), "synthetic");
    }

    #[test]
    fn mean_service_is_the_sum_of_components() {
        assert_eq!(
            Synthetic::fixed(10_000.0, 0.0).service_moments().mean_ns,
            10_000.0
        );
        assert_eq!(
            Synthetic::fixed(0.0, 3_000.0).service_moments().mean_ns,
            3_000.0
        );
        // The full-pipeline constant-latency check lives in
        // tests/end_to_end.rs (the workloads crate cannot depend on the
        // cluster simulator).
    }

    #[test]
    fn moments_are_the_fixed_profile() {
        let w = Synthetic::fixed(6_000.0, 2_000.0);
        let p = w.sample_request(&mut SmallRng::seed_from_u64(2));
        let m = w.service_moments();
        assert_eq!(m.mean_ns, p.cpu_ns + p.mem_ns);
        assert_eq!(m.cv2, 0.0, "a fixed demand does not vary");
        assert_eq!(m.cpu_fraction, p.cpu_ns / (p.cpu_ns + p.mem_ns));
        assert_eq!(m.request_bytes, f64::from(p.request_bytes));
        assert_eq!(m.response_bytes, f64::from(p.response_bytes));
        assert_eq!(
            (m.noise_sigma, m.slow_fraction, m.slow_multiplier),
            (0.0, 0.0, 1.0)
        );
    }

    #[test]
    #[should_panic(expected = "zero service demand")]
    fn zero_demand_rejected() {
        Synthetic::fixed(0.0, 0.0);
    }

    #[test]
    fn json_round_trip() {
        let w = Synthetic::fixed(1_000.0, 2_000.0);
        let json = serde_json::to_string(&w).unwrap();
        let back: Synthetic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }
}
