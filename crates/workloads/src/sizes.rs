//! Configurable size distributions for keys, values and payloads.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use treadmill_stats::distribution::{sample_lognormal, sample_pareto};

/// A distribution over byte sizes, configurable from JSON (the paper's
/// "request size distribution" knob, §III-A).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treadmill_workloads::SizeDistribution;
///
/// let dist: SizeDistribution =
///     serde_json::from_str(r#"{ "kind": "pareto", "minimum": 64, "shape": 1.5, "cap": 8192 }"#)?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let size = dist.sample(&mut rng);
/// assert!((64..=8192).contains(&size));
/// # Ok::<(), serde_json::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase")]
pub enum SizeDistribution {
    /// Every draw returns the same size.
    Fixed {
        /// The constant size in bytes.
        bytes: u32,
    },
    /// Uniform over `[low, high]` inclusive.
    Uniform {
        /// Smallest size.
        low: u32,
        /// Largest size.
        high: u32,
    },
    /// Pareto (heavy-tailed) with a hard cap; matches the published
    /// Memcached value-size measurements (Atikoglu et al., SIGMETRICS'12).
    Pareto {
        /// Scale (minimum) in bytes.
        minimum: u32,
        /// Tail index; smaller is heavier.
        shape: f64,
        /// Hard upper bound in bytes.
        cap: u32,
    },
    /// Lognormal parameterised by the underlying normal, with a cap.
    Lognormal {
        /// Mean of ln(size).
        mu: f64,
        /// Std dev of ln(size).
        sigma: f64,
        /// Hard upper bound in bytes.
        cap: u32,
    },
    /// A discrete mixture of other distributions with proportional
    /// weights.
    Mixture {
        /// `(weight, distribution)` components; weights need not sum to 1.
        components: Vec<(f64, SizeDistribution)>,
    },
}

impl SizeDistribution {
    /// Draws one size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is malformed (e.g. empty mixture,
    /// uniform with `low > high`).
    // Heavy-tail draws saturate into the configured `cap` right after
    // the f64→u32 cast; truncation of the unbounded tail is the point.
    #[allow(clippy::cast_possible_truncation)]
    pub fn sample(&self, rng: &mut dyn RngCore) -> u32 {
        match self {
            SizeDistribution::Fixed { bytes } => *bytes,
            SizeDistribution::Uniform { low, high } => {
                assert!(low <= high, "uniform with low > high");
                rng.gen_range(*low..=*high)
            }
            SizeDistribution::Pareto { minimum, shape, cap } => {
                let draw = sample_pareto(rng, f64::from(*minimum), *shape);
                (draw as u32).min(*cap).max(*minimum)
            }
            SizeDistribution::Lognormal { mu, sigma, cap } => {
                let draw = sample_lognormal(rng, *mu, *sigma);
                (draw as u32).min(*cap).max(1)
            }
            SizeDistribution::Mixture { components } => {
                assert!(!components.is_empty(), "empty mixture");
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                assert!(total > 0.0, "mixture weights sum to zero");
                let mut pick = rng.gen_range(0.0..total);
                for (weight, dist) in components {
                    if pick < *weight {
                        return dist.sample(rng);
                    }
                    pick -= weight;
                }
                components[components.len() - 1].1.sample(rng)
            }
        }
    }

    /// The largest size a draw can return, once the distribution is
    /// checked to be one [`SizeDistribution::sample`] draws from without
    /// panicking: uniform bounds in order, a positive finite Pareto
    /// shape, finite lognormal parameters, and a mixture with at least
    /// one component and finite, non-negative weights of positive sum.
    ///
    /// # Errors
    ///
    /// The first violated rule, in words.
    pub(crate) fn checked_max(&self) -> Result<u32, String> {
        match self {
            SizeDistribution::Fixed { bytes } => Ok(*bytes),
            SizeDistribution::Uniform { low, high } if low > high => {
                Err(format!("uniform low {low} exceeds high {high}"))
            }
            SizeDistribution::Uniform { high, .. } => Ok(*high),
            SizeDistribution::Pareto { minimum, shape, cap } => {
                if shape.is_finite() && *shape > 0.0 {
                    Ok((*cap).max(*minimum))
                } else {
                    Err(format!("pareto shape must be positive and finite, got {shape}"))
                }
            }
            SizeDistribution::Lognormal { mu, sigma, cap } => {
                if mu.is_finite() && sigma.is_finite() {
                    Ok((*cap).max(1))
                } else {
                    Err(format!("lognormal mu and sigma must be finite, got {mu} and {sigma}"))
                }
            }
            SizeDistribution::Mixture { components } => {
                if components.is_empty() {
                    return Err("empty mixture".to_string());
                }
                let mut total = 0.0_f64;
                let mut largest = 0;
                for (weight, dist) in components {
                    if !weight.is_finite() || *weight < 0.0 {
                        return Err(format!(
                            "mixture weights must be finite and non-negative, got {weight}"
                        ));
                    }
                    total += weight;
                    largest = largest.max(dist.checked_max()?);
                }
                if total > 0.0 && total.is_finite() {
                    Ok(largest)
                } else {
                    Err(format!("mixture weights must have a positive finite sum, got {total}"))
                }
            }
        }
    }

    /// The exact or approximate mean of the distribution, in bytes.
    pub fn mean(&self) -> f64 {
        match self {
            SizeDistribution::Fixed { bytes } => f64::from(*bytes),
            SizeDistribution::Uniform { low, high } => {
                (f64::from(*low) + f64::from(*high)) / 2.0
            }
            SizeDistribution::Pareto { minimum, shape, cap } => {
                if *shape > 1.0 {
                    let uncapped = *shape * f64::from(*minimum) / (*shape - 1.0);
                    uncapped.min(f64::from(*cap))
                } else {
                    // Infinite-mean regime: the cap dominates; use a
                    // crude capped estimate.
                    (f64::from(*minimum) * f64::from(*cap)).sqrt()
                }
            }
            SizeDistribution::Lognormal { mu, sigma, cap } => {
                (mu + sigma * sigma / 2.0).exp().min(f64::from(*cap))
            }
            SizeDistribution::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                components
                    .iter()
                    .map(|(w, d)| w * d.mean())
                    .sum::<f64>()
                    / total
            }
        }
    }

    /// The exact or approximate second moment `E[X²]` of the distribution,
    /// in bytes². Exact for `Fixed`, discrete `Uniform`, capped `Pareto`
    /// (the analytic form of E[min(X, cap)²]) and `Mixture`; for
    /// `Lognormal` the uncapped moment is clipped at `cap²`.
    pub fn mean_square(&self) -> f64 {
        match self {
            SizeDistribution::Fixed { bytes } => {
                let b = f64::from(*bytes);
                b * b
            }
            SizeDistribution::Uniform { low, high } => {
                // Discrete uniform on [low, high]: E[X²] = Σx²/n via the
                // square-pyramidal closed form.
                let sum_sq = |n: f64| n * (n + 1.0) * (2.0 * n + 1.0) / 6.0;
                let (l, h) = (f64::from(*low), f64::from(*high));
                (sum_sq(h) - sum_sq(l - 1.0)) / (h - l + 1.0)
            }
            SizeDistribution::Pareto { minimum, shape, cap } => {
                // E[min(X, c)²] = ∫_m^c x² a m^a x^{-a-1} dx + c² (m/c)^a.
                let (m, c, a) = (f64::from(*minimum), f64::from(*cap), *shape);
                if c <= m {
                    return c * c;
                }
                let tail = c * c * (m / c).powf(a);
                let body = if (a - 2.0).abs() < 1e-9 {
                    // a = 2: the integral degenerates to a logarithm.
                    a * m.powf(a) * (c / m).ln()
                } else {
                    a * m.powf(a) / (2.0 - a) * (c.powf(2.0 - a) - m.powf(2.0 - a))
                };
                body + tail
            }
            SizeDistribution::Lognormal { mu, sigma, cap } => {
                let uncapped = (2.0 * mu + 2.0 * sigma * sigma).exp();
                uncapped.min(f64::from(*cap) * f64::from(*cap))
            }
            SizeDistribution::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                components
                    .iter()
                    .map(|(w, d)| w * d.mean_square())
                    .sum::<f64>()
                    / total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let d = SizeDistribution::Fixed { bytes: 100 };
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 100);
        }
        assert_eq!(d.mean(), 100.0);
    }

    #[test]
    fn uniform_within_bounds_and_mean() {
        let d = SizeDistribution::Uniform { low: 10, high: 20 };
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((10..=20).contains(&s));
            sum += f64::from(s);
        }
        assert!((sum / f64::from(n) - 15.0).abs() < 0.1);
        assert_eq!(d.mean(), 15.0);
    }

    #[test]
    fn pareto_respects_cap_and_minimum() {
        let d = SizeDistribution::Pareto {
            minimum: 64,
            shape: 1.2,
            cap: 4096,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let s = d.sample(&mut rng);
            assert!((64..=4096).contains(&s));
        }
    }

    #[test]
    fn pareto_mean_formula() {
        let d = SizeDistribution::Pareto {
            minimum: 100,
            shape: 2.0,
            cap: 1_000_000,
        };
        // shape/(shape-1) * min = 200.
        assert_eq!(d.mean(), 200.0);
    }

    #[test]
    fn mixture_draws_from_all_components() {
        let d = SizeDistribution::Mixture {
            components: vec![
                (1.0, SizeDistribution::Fixed { bytes: 1 }),
                (1.0, SizeDistribution::Fixed { bytes: 1_000 }),
            ],
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..2_000 {
            match d.sample(&mut rng) {
                1 => small += 1,
                1_000 => large += 1,
                other => panic!("unexpected draw {other}"),
            }
        }
        assert!(small > 800 && large > 800, "small {small}, large {large}");
        assert!((d.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn mean_square_closed_forms() {
        assert_eq!(SizeDistribution::Fixed { bytes: 7 }.mean_square(), 49.0);
        // Discrete uniform on [1, 3]: (1 + 4 + 9)/3.
        let u = SizeDistribution::Uniform { low: 1, high: 3 };
        assert!((u.mean_square() - 14.0 / 3.0).abs() < 1e-9);
        // Mixture: weighted average of component second moments.
        let m = SizeDistribution::Mixture {
            components: vec![
                (1.0, SizeDistribution::Fixed { bytes: 2 }),
                (3.0, SizeDistribution::Fixed { bytes: 4 }),
            ],
        };
        assert!((m.mean_square() - (4.0 + 3.0 * 16.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn mean_square_matches_empirical_pareto() {
        let d = SizeDistribution::Pareto {
            minimum: 512,
            shape: 1.6,
            cap: 16_384,
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 400_000;
        let sum_sq: f64 = (0..n)
            .map(|_| {
                let s = f64::from(d.sample(&mut rng));
                s * s
            })
            .sum();
        let empirical = sum_sq / f64::from(n);
        let declared = d.mean_square();
        assert!(
            (empirical / declared - 1.0).abs() < 0.1,
            "empirical {empirical} vs declared {declared}"
        );
    }

    #[test]
    fn json_round_trip() {
        let d = SizeDistribution::Mixture {
            components: vec![
                (0.9, SizeDistribution::Fixed { bytes: 64 }),
                (
                    0.1,
                    SizeDistribution::Pareto {
                        minimum: 128,
                        shape: 1.5,
                        cap: 8192,
                    },
                ),
            ],
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: SizeDistribution = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    #[should_panic(expected = "empty mixture")]
    fn empty_mixture_panics() {
        let d = SizeDistribution::Mixture { components: vec![] };
        let mut rng = SmallRng::seed_from_u64(5);
        d.sample(&mut rng);
    }
}
