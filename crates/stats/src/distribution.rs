//! Probability distributions: the standard normal (for inference) and
//! the samplers used by workload and service-time models.

use rand::Rng;

/// The error function, via the Abramowitz–Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7, ample for p-values).
///
/// # Examples
///
/// ```
/// use treadmill_stats::distribution::erf;
///
/// assert!((erf(0.0)).abs() < 1e-8);
/// assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
/// ```
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function.
///
/// # Examples
///
/// ```
/// use treadmill_stats::distribution::normal_cdf;
///
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
/// ```
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal quantile function (inverse CDF), via the
/// Acklam/Beasley–Springer–Moro rational approximation.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use treadmill_stats::distribution::normal_quantile;
///
/// assert!(normal_quantile(0.5).abs() < 1e-8);
/// assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal quantile of p={p} outside (0, 1)");
    // Coefficients from Peter Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Two-sided p-value for a z statistic under the standard normal null.
///
/// # Examples
///
/// ```
/// use treadmill_stats::distribution::two_sided_p_value;
///
/// assert!((two_sided_p_value(0.0) - 1.0).abs() < 1e-8);
/// assert!(two_sided_p_value(5.0) < 1e-5);
/// ```
pub fn two_sided_p_value(z: f64) -> f64 {
    (2.0 * (1.0 - normal_cdf(z.abs()))).clamp(0.0, 1.0)
}

/// Draws from an exponential distribution with the given mean.
///
/// The paper generates request inter-arrivals "at an exponentially
/// distributed inter-arrival rate, which is consistent with the
/// measurements obtained from Google production clusters" (§III-A).
///
/// # Panics
///
/// Panics if `mean` is not positive.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Draws from a lognormal distribution parameterised by the mean and
/// standard deviation of the underlying normal.
pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * sample_standard_normal(rng)).exp()
}

/// Draws from a standard normal via Box–Muller.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The largest draw [`sample_standard_normal`] can return: Box–Muller
/// at its smallest uniform, `f64::EPSILON` (about 8.49).
pub fn max_standard_normal() -> f64 {
    (-2.0 * f64::EPSILON.ln()).sqrt()
}

/// Draws from a Pareto distribution with scale `x_min` and shape `alpha`.
///
/// Used for the heavy-tailed component of value-size distributions
/// (Atikoglu et al. report heavy-tailed Memcached value sizes).
///
/// # Panics
///
/// Panics if `x_min` or `alpha` is not positive.
pub fn sample_pareto<R: Rng + ?Sized>(rng: &mut R, x_min: f64, alpha: f64) -> f64 {
    assert!(x_min > 0.0 && alpha > 0.0, "pareto parameters must be positive");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    x_min / u.powf(1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingStats;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn erf_symmetry_and_limits() {
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-9);
        assert!(erf(5.0) > 0.999999);
        assert!(erf(-5.0) < -0.999999);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(-1.0) - 0.158655).abs() < 1e-4);
        assert!((normal_cdf(2.326) - 0.99).abs() < 1e-3);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-4, "p={p}, z={z}");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_bounds() {
        normal_quantile(0.0);
    }

    #[test]
    fn p_values_behave() {
        assert!(two_sided_p_value(1.96) < 0.051);
        assert!(two_sided_p_value(1.96) > 0.049);
        assert!(two_sided_p_value(0.5) > 0.6);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SmallRng::seed_from_u64(1);
        let stats: StreamingStats =
            (0..100_000).map(|_| sample_exponential(&mut rng, 10.0)).collect();
        assert!((stats.mean() - 10.0).abs() < 0.15, "mean {}", stats.mean());
        // Exponential: variance == mean^2.
        assert!((stats.sample_variance() - 100.0).abs() < 5.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(2);
        let stats: StreamingStats =
            (0..100_000).map(|_| sample_standard_normal(&mut rng)).collect();
        assert!(stats.mean().abs() < 0.02);
        assert!((stats.sample_variance() - 1.0).abs() < 0.03);
    }

    #[test]
    fn lognormal_median() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut samples: Vec<f64> =
            (0..50_000).map(|_| sample_lognormal(&mut rng, 2.0, 0.5)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 2.0f64.exp()).abs() < 0.2, "median {median}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..1_000 {
            assert!(sample_pareto(&mut rng, 3.0, 2.0) >= 3.0);
        }
    }

    #[test]
    fn pareto_tail_is_heavy() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 100_000;
        let exceed = (0..n)
            .filter(|_| sample_pareto(&mut rng, 1.0, 1.5) > 10.0)
            .count();
        // P(X > 10) = 10^-1.5 ≈ 0.0316.
        let frac = exceed as f64 / n as f64;
        assert!((frac - 0.0316).abs() < 0.005, "tail fraction {frac}");
    }
}
