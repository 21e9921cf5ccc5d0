//! The mcrouter workload model.
//!
//! mcrouter is "a configurable protocol router that turns individual
//! cache servers into massive-scale distributed systems" (§V-C). The
//! paper's Finding 8 explains its resource character: "a large fraction
//! of the computation mcrouter needs to do is to deserialize the request
//! structure from network packets, which is CPU-intensive and can easily
//! be accelerated by frequency up-scaling". We therefore model mcrouter
//! with a high CPU share (frequency-sensitive, so Turbo Boost matters
//! most) and a small memory-bound share, with per-byte deserialisation
//! cost.

use rand::RngCore;
use serde::{Deserialize, Serialize};
use treadmill_stats::distribution::sample_lognormal;

use crate::profile::{OpClass, RequestProfile, Workload};
use crate::sizes::SizeDistribution;

/// A configurable mcrouter service model.
///
/// # Examples
///
/// ```
/// use treadmill_workloads::{Mcrouter, Workload};
///
/// let workload = Mcrouter::default();
/// assert_eq!(workload.name(), "mcrouter");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mcrouter {
    /// Routed message size distribution.
    pub message_size: SizeDistribution,
    /// Fixed CPU cost per routed request (deserialise + route lookup),
    /// ns at base frequency.
    pub base_cpu_ns: f64,
    /// Deserialisation CPU per message byte, ns.
    pub cpu_ns_per_byte: f64,
    /// Fixed memory-bound cost (route table, connection state), ns.
    pub base_mem_ns: f64,
    /// Log-scale sigma of multiplicative service-time noise.
    pub service_noise_sigma: f64,
    /// Fraction of requests hitting a slow path (route-map reloads,
    /// connection maintenance).
    pub slow_fraction: f64,
    /// Service-time multiplier on the slow path.
    pub slow_multiplier: f64,
}

impl Default for Mcrouter {
    fn default() -> Self {
        Mcrouter {
            message_size: SizeDistribution::Mixture {
                components: vec![
                    (0.7, SizeDistribution::Uniform { low: 64, high: 512 }),
                    (
                        0.3,
                        SizeDistribution::Pareto {
                            minimum: 512,
                            shape: 1.8,
                            cap: 8_192,
                        },
                    ),
                ],
            },
            base_cpu_ns: 8_000.0,
            cpu_ns_per_byte: 6.0,
            base_mem_ns: 1_200.0,
            service_noise_sigma: 0.40,
            slow_fraction: 0.01,
            slow_multiplier: 5.0,
        }
    }
}

impl Workload for Mcrouter {
    fn name(&self) -> &str {
        "mcrouter"
    }

    fn sample_request(&self, rng: &mut dyn RngCore) -> RequestProfile {
        let message = self.message_size.sample(rng);
        let mut noise = sample_lognormal(
            rng,
            -self.service_noise_sigma * self.service_noise_sigma / 2.0,
            self.service_noise_sigma,
        );
        {
            use rand::Rng;
            if rng.gen::<f64>() < self.slow_fraction {
                noise *= self.slow_multiplier;
            }
        }
        const OVERHEAD: u32 = 64;
        RequestProfile {
            class: OpClass::Route,
            request_bytes: OVERHEAD + message,
            response_bytes: OVERHEAD + message / 4,
            cpu_ns: (self.base_cpu_ns + self.cpu_ns_per_byte * f64::from(message)) * noise,
            mem_ns: self.base_mem_ns * noise,
        }
    }

    fn mean_service_ns(&self) -> f64 {
        let slow_scale = 1.0 + self.slow_fraction * (self.slow_multiplier - 1.0);
        (self.base_cpu_ns + self.cpu_ns_per_byte * self.message_size.mean()
            + self.base_mem_ns)
            * slow_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mcrouter_is_cpu_dominated() {
        let w = Mcrouter::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cpu = 0.0;
        let mut mem = 0.0;
        for _ in 0..10_000 {
            let p = w.sample_request(&mut rng);
            assert_eq!(p.class, OpClass::Route);
            cpu += p.cpu_ns;
            mem += p.mem_ns;
        }
        // Finding 8's mechanism requires the CPU share to dominate.
        assert!(cpu > mem * 5.0, "cpu {cpu} vs mem {mem}");
    }

    #[test]
    fn cpu_scales_with_message_size() {
        let small = Mcrouter {
            message_size: SizeDistribution::Fixed { bytes: 64 },
            service_noise_sigma: 1e-9,
            ..Default::default()
        };
        let big = Mcrouter {
            message_size: SizeDistribution::Fixed { bytes: 4_096 },
            service_noise_sigma: 1e-9,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let ps = small.sample_request(&mut rng);
        let pb = big.sample_request(&mut rng);
        assert!(pb.cpu_ns > ps.cpu_ns * 3.0);
    }

    #[test]
    fn empirical_mean_matches_declared() {
        let w = Mcrouter::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| {
                let r = w.sample_request(&mut rng);
                r.cpu_ns + r.mem_ns
            })
            .sum();
        let empirical = total / f64::from(n);
        let declared = w.mean_service_ns();
        assert!(
            (empirical / declared - 1.0).abs() < 0.15,
            "empirical {empirical} vs declared {declared}"
        );
    }

    #[test]
    fn responses_smaller_than_requests() {
        let w = Mcrouter::default();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..1_000 {
            let p = w.sample_request(&mut rng);
            assert!(p.response_bytes <= p.request_bytes);
        }
    }

    #[test]
    fn json_round_trip() {
        let w = Mcrouter::default();
        let json = serde_json::to_string(&w).unwrap();
        let back: Mcrouter = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }
}
