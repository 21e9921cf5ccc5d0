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

use crate::profile::{BaseDemand, OpClass, RequestProfile, ServiceMoments, Workload};
use crate::sizes::SizeDistribution;

/// Protocol overhead per routed message, in bytes.
pub(crate) const HEADER_BYTES: u32 = 64;

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
        RequestProfile {
            class: OpClass::Route,
            request_bytes: HEADER_BYTES + message,
            response_bytes: HEADER_BYTES + message / 4,
            cpu_ns: (self.base_cpu_ns + self.cpu_ns_per_byte * f64::from(message)) * noise,
            mem_ns: self.base_mem_ns * noise,
        }
    }

    /// Moments of the sampled demand `(b_c + c·M + b_m)·N·S`, exact given
    /// the message size `M`'s mean and mean square; the response's
    /// quarter-message is rounded to within a byte.
    fn service_moments(&self) -> ServiceMoments {
        let em = self.message_size.mean();
        let em2 = self.message_size.mean_square();
        let fixed = self.base_cpu_ns + self.base_mem_ns;
        let (per_byte, header) = (self.cpu_ns_per_byte, f64::from(HEADER_BYTES));
        BaseDemand {
            mean_ns: fixed + per_byte * em,
            mean_square: fixed * fixed + 2.0 * fixed * per_byte * em + per_byte * per_byte * em2,
            cpu_ns: self.base_cpu_ns + per_byte * em,
        }
        .moments(
            self.service_noise_sigma,
            self.slow_fraction,
            self.slow_multiplier,
            header + em,
            header + em / 4.0,
        )
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
        let declared = w.service_moments().mean_ns;
        assert!(
            (empirical / declared - 1.0).abs() < 0.15,
            "empirical {empirical} vs declared {declared}"
        );
    }

    #[test]
    fn moments_match_empirical_distribution() {
        let w = Mcrouter::default();
        let m = w.service_moments();
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 200_000;
        let (mut sum, mut sum_sq, mut cpu, mut req, mut resp) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let p = w.sample_request(&mut rng);
            let s = p.cpu_ns + p.mem_ns;
            sum += s;
            sum_sq += s * s;
            cpu += p.cpu_ns;
            req += f64::from(p.request_bytes);
            resp += f64::from(p.response_bytes);
        }
        let n = f64::from(n);
        let mean = sum / n;
        let cv2 = sum_sq / n / (mean * mean) - 1.0;
        let close = |empirical: f64, closed: f64, tol: f64, what: &str| {
            assert!(
                (empirical / closed - 1.0).abs() < tol,
                "{what}: empirical {empirical} vs closed form {closed}"
            );
        };
        close(mean, m.mean_ns, 0.05, "mean");
        // The second moment is tail-dominated (Pareto messages and the
        // slow path), so its sampling error bound is looser.
        close(cv2, m.cv2, 0.25, "cv²");
        close(cpu / sum, m.cpu_fraction, 0.02, "cpu fraction");
        close(req / n, m.request_bytes, 0.05, "request bytes");
        close(resp / n, m.response_bytes, 0.05, "response bytes");
        assert_eq!(
            (m.noise_sigma, m.slow_fraction, m.slow_multiplier),
            (w.service_noise_sigma, w.slow_fraction, w.slow_multiplier)
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
