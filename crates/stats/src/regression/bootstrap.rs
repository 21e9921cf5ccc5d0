//! Run-level (cluster) bootstrap inference for saturated quantile
//! regression: standard errors and p-values for Table IV.
//!
//! Following the paper's Eq. 3, each experiment contributes one
//! observation — its measured τ-quantile — so the uncertainty that
//! matters is **between-run** (hysteresis) variation. Each bootstrap
//! replicate draws runs with replacement within every cell, recomputes
//! the cell's τ-quantile of per-run quantile estimates, and re-solves
//! the saturated system. The standard error of each coefficient is the
//! standard deviation across replicates, and the p-value is a two-sided
//! normal test of `estimate / std_error`.

use rand::Rng;

use crate::distribution::two_sided_p_value;
use crate::linalg::SolveError;
use crate::quantile::quantile_of_sorted;
use crate::regression::design::FactorialDesign;
use crate::regression::saturated::{
    experiment_quantiles, per_run_quantiles, saturated_matrix, Cell,
};
use crate::streaming::StreamingStats;

/// One row of the coefficient table (Table IV).
#[derive(Debug, Clone, PartialEq)]
pub struct CoefficientEstimate {
    /// Term label, e.g. `"numa:dvfs"`.
    pub term: String,
    /// Point estimate of the coefficient (µs in this library).
    pub estimate: f64,
    /// Bootstrap standard error.
    pub std_error: f64,
    /// Two-sided p-value under the normal null.
    pub p_value: f64,
}

impl CoefficientEstimate {
    /// True if the coefficient is significant at the given level
    /// (the paper bolds p < 0.05).
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Options for [`bootstrap_saturated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapOptions {
    /// Number of bootstrap replicates.
    pub replicates: usize,
}

impl Default for BootstrapOptions {
    fn default() -> Self {
        BootstrapOptions { replicates: 200 }
    }
}

/// Fits the saturated quantile regression and attaches bootstrap
/// standard errors and p-values to every coefficient.
///
/// # Errors
///
/// Returns [`SolveError`] if the design system is singular.
///
/// # Panics
///
/// Panics if `tau` is outside `(0, 1)`, the design is not saturated, or
/// `replicates` is zero.
pub fn bootstrap_saturated<R: Rng + ?Sized>(
    design: &FactorialDesign,
    cells: &[Cell],
    tau: f64,
    options: BootstrapOptions,
    rng: &mut R,
) -> Result<Vec<CoefficientEstimate>, SolveError> {
    assert!(options.replicates > 0, "bootstrap needs at least one replicate");
    let matrix = saturated_matrix(design, cells, tau);
    // Per-run quantile estimates, computed once per cell: the point fit
    // and every replicate resample them.
    let run_quantiles: Vec<Vec<f64>> =
        cells.iter().map(|cell| per_run_quantiles(cell, tau)).collect();
    let point = matrix.solve(&experiment_quantiles(&run_quantiles, tau))?;

    let mut rhs = vec![0.0f64; cells.len()];
    let mut resampled: Vec<f64> = Vec::new();
    bootstrap_coefficients(design, point, options.replicates, || {
        for (ci, quantiles) in run_quantiles.iter().enumerate() {
            let r = quantiles.len();
            resampled.clear();
            resampled.extend((0..r).map(|_| quantiles[rng.gen_range(0..r)]));
            resampled.sort_by(f64::total_cmp);
            rhs[ci] = quantile_of_sorted(&resampled, tau);
        }
        matrix.solve(&rhs)
    })
}

/// The coefficient rows of a fit: `point` holds the estimates, ordered
/// as [`FactorialDesign::term_labels`], and `replicate` is called
/// `replicates` times for one bootstrap replicate of them. Each
/// coefficient's standard error is its sample standard deviation across
/// the replicates, and its p-value the two-sided normal test of
/// `estimate / std_error` (with a zero standard error: 1 for a zero
/// estimate, 0 otherwise).
///
/// # Errors
///
/// The first error `replicate` returns.
pub fn bootstrap_coefficients(
    design: &FactorialDesign,
    point: Vec<f64>,
    replicates: usize,
    mut replicate: impl FnMut() -> Result<Vec<f64>, SolveError>,
) -> Result<Vec<CoefficientEstimate>, SolveError> {
    let mut per_coef: Vec<StreamingStats> =
        (0..design.num_terms()).map(|_| StreamingStats::new()).collect();
    for _ in 0..replicates {
        let beta = replicate()?;
        for (stat, value) in per_coef.iter_mut().zip(&beta) {
            stat.record(*value);
        }
    }
    Ok(design
        .term_labels()
        .into_iter()
        .zip(point)
        .zip(per_coef)
        .map(|((term, estimate), stats)| {
            let std_error = stats.sample_stddev();
            let p_value = if std_error > 0.0 {
                two_sided_p_value(estimate / std_error)
            } else if estimate == 0.0 {
                1.0
            } else {
                0.0
            };
            CoefficientEstimate {
                term,
                estimate,
                std_error,
                p_value,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::experiment_quantile_fit;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Cells for `y = base + effect * a + run_shift + noise`, with
    /// several runs per cell so the cluster bootstrap has variance to
    /// find.
    fn synthetic_cells(
        base: f64,
        effect: f64,
        run_sd: f64,
        runs: usize,
        samples: usize,
        rng: &mut SmallRng,
    ) -> (FactorialDesign, Vec<Cell>) {
        let design = FactorialDesign::full(&["a"]);
        let cells = design
            .all_configurations()
            .into_iter()
            .map(|levels| {
                let center = base + effect * levels[0];
                let run_vecs: Vec<Vec<f64>> = (0..runs)
                    .map(|_| {
                        let shift =
                            crate::distribution::sample_standard_normal(rng) * run_sd;
                        (0..samples)
                            .map(|_| center + shift + rng.gen_range(-1.0..1.0))
                            .collect()
                    })
                    .collect();
                Cell::new(levels, run_vecs)
            })
            .collect();
        (design, cells)
    }

    #[test]
    fn real_effect_is_significant() {
        let mut rng = SmallRng::seed_from_u64(21);
        let (design, cells) = synthetic_cells(100.0, 50.0, 1.0, 20, 200, &mut rng);
        let table = bootstrap_saturated(
            &design,
            &cells,
            0.5,
            BootstrapOptions { replicates: 200 },
            &mut rng,
        )
        .unwrap();
        let effect = &table[1];
        assert_eq!(effect.term, "a");
        assert!((effect.estimate - 50.0).abs() < 5.0, "estimate {}", effect.estimate);
        assert!(effect.is_significant(0.05), "p = {}", effect.p_value);
    }

    #[test]
    fn null_effect_is_insignificant() {
        let mut rng = SmallRng::seed_from_u64(22);
        let (design, cells) = synthetic_cells(100.0, 0.0, 5.0, 20, 200, &mut rng);
        let table = bootstrap_saturated(
            &design,
            &cells,
            0.5,
            BootstrapOptions { replicates: 200 },
            &mut rng,
        )
        .unwrap();
        let effect = &table[1];
        assert!(
            !effect.is_significant(0.01),
            "spurious significance: est {} se {} p {}",
            effect.estimate,
            effect.std_error,
            effect.p_value
        );
    }

    #[test]
    fn standard_error_grows_with_run_variance() {
        let mut rng = SmallRng::seed_from_u64(23);
        let (design, calm_cells) = synthetic_cells(100.0, 10.0, 0.5, 15, 100, &mut rng);
        let (_, noisy_cells) = synthetic_cells(100.0, 10.0, 20.0, 15, 100, &mut rng);
        let opts = BootstrapOptions { replicates: 150 };
        let calm =
            bootstrap_saturated(&design, &calm_cells, 0.5, opts, &mut rng).unwrap();
        let noisy =
            bootstrap_saturated(&design, &noisy_cells, 0.5, opts, &mut rng).unwrap();
        assert!(
            noisy[1].std_error > calm[1].std_error * 2.0,
            "noisy se {} vs calm se {}",
            noisy[1].std_error,
            calm[1].std_error
        );
    }

    #[test]
    fn point_estimate_matches_saturated_fit() {
        let mut rng = SmallRng::seed_from_u64(24);
        let (design, cells) = synthetic_cells(50.0, 7.0, 2.0, 10, 100, &mut rng);
        let direct = experiment_quantile_fit(&design, &cells, 0.9).unwrap();
        let table = bootstrap_saturated(
            &design,
            &cells,
            0.9,
            BootstrapOptions { replicates: 10 },
            &mut rng,
        )
        .unwrap();
        for (row, expected) in table.iter().zip(&direct) {
            assert_eq!(row.estimate, *expected);
        }
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_rejected() {
        let mut rng = SmallRng::seed_from_u64(25);
        let (design, cells) = synthetic_cells(1.0, 1.0, 1.0, 2, 10, &mut rng);
        let _ = bootstrap_saturated(
            &design,
            &cells,
            0.5,
            BootstrapOptions { replicates: 0 },
            &mut rng,
        );
    }
}
