//! Exact quantile regression for saturated factorial designs.
//!
//! The paper's model is saturated: 4 factors, all interactions, 16
//! coefficients — exactly as many as there are factor-level cells. In a
//! saturated design the conditional τ-quantile of each cell is fitted
//! exactly, so the regression reduces to (1) the empirical τ-quantile of
//! the samples pooled within each cell and (2) a 16×16 linear solve that
//! maps cell quantiles to term coefficients. This is both exact and
//! orders of magnitude faster than running an LP over millions of
//! samples.

use crate::linalg::{Matrix, SolveError};
use crate::quantile::quantile_of_sorted;
use crate::regression::design::FactorialDesign;

/// The measurements collected in one factorial cell: one or more
/// experiment runs, each contributing a vector of latency samples.
///
/// Keeping runs separate (rather than pre-pooling) is what lets the
/// bootstrap capture between-run variance — the paper's performance
/// hysteresis (§II-D).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Factor levels for this cell, coded 0.0 / 1.0, one per factor.
    pub levels: Vec<f64>,
    /// Latency samples grouped by experiment run. Each inner vector is
    /// kept **sorted ascending** by [`Cell::new`].
    runs: Vec<Vec<f64>>,
    total: usize,
}

impl Cell {
    /// Creates a cell, sorting each run's samples.
    ///
    /// # Panics
    ///
    /// Panics if there are no runs or any run is empty.
    pub fn new(levels: Vec<f64>, mut runs: Vec<Vec<f64>>) -> Self {
        assert!(!runs.is_empty(), "cell needs at least one run");
        let mut total = 0;
        for run in &mut runs {
            assert!(!run.is_empty(), "cell run with no samples");
            run.sort_by(f64::total_cmp);
            total += run.len();
        }
        Cell { levels, runs, total }
    }

    /// Number of runs in the cell.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total samples across runs.
    pub fn total_samples(&self) -> usize {
        self.total
    }

    /// The sorted sample vectors, one per run.
    pub fn runs(&self) -> &[Vec<f64>] {
        &self.runs
    }

    /// The τ-quantile of all samples pooled across runs.
    pub fn pooled_quantile(&self, tau: f64) -> f64 {
        self.mixture_quantile(tau, &vec![1usize; self.runs.len()])
    }

    /// The τ-quantile of the mixture where run `i` is weighted by
    /// `multiplicity[i]`; [`Self::pooled_quantile`] is the case of every
    /// weight 1. Computed by bisection on the mixture CDF over the
    /// per-run sorted arrays.
    ///
    /// # Panics
    ///
    /// Panics if `multiplicity.len()` differs from the number of runs or
    /// all multiplicities are zero.
    pub fn mixture_quantile(&self, tau: f64, multiplicity: &[usize]) -> f64 {
        assert_eq!(multiplicity.len(), self.runs.len(), "multiplicity length");
        let total: usize = self
            .runs
            .iter()
            .zip(multiplicity)
            .map(|(run, &m)| run.len() * m)
            .sum();
        assert!(total > 0, "mixture with zero total weight");
        let target = tau * total as f64;

        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (run, &m) in self.runs.iter().zip(multiplicity) {
            if m == 0 {
                continue;
            }
            lo = lo.min(run[0]);
            hi = hi.max(run[run.len() - 1]);
        }
        if lo >= hi {
            return lo;
        }
        // Count of samples <= x in the weighted mixture.
        let count_le = |x: f64| -> f64 {
            self.runs
                .iter()
                .zip(multiplicity)
                .map(|(run, &m)| (run.partition_point(|&v| v <= x) * m) as f64)
                .sum()
        };
        // Bisection to ~1e-9 relative width.
        let mut a = lo;
        let mut b = hi;
        for _ in 0..80 {
            let mid = 0.5 * (a + b);
            if count_le(mid) >= target {
                b = mid;
            } else {
                a = mid;
            }
            if (b - a) <= 1e-9 * hi.abs().max(1.0) {
                break;
            }
        }
        b
    }
}

/// Fits the saturated quantile-regression model: returns one coefficient
/// per design term, ordered as [`FactorialDesign::term_labels`].
///
/// # Errors
///
/// Returns [`SolveError`] if the design system is singular (duplicate or
/// missing cells) or cells don't cover every configuration.
///
/// # Panics
///
/// Panics if `tau` is outside `(0, 1)` or the design is not saturated
/// (`num_terms != number of cells`).
///
/// # Examples
///
/// ```
/// use treadmill_stats::regression::{saturated_quantile_fit, Cell, FactorialDesign};
///
/// let design = FactorialDesign::full(&["f"]);
/// let cells = vec![
///     Cell::new(vec![0.0], vec![vec![10.0, 11.0, 12.0]]),
///     Cell::new(vec![1.0], vec![vec![20.0, 21.0, 22.0]]),
/// ];
/// let beta = saturated_quantile_fit(&design, &cells, 0.5)?;
/// assert!((beta[0] - 11.0).abs() < 1e-6); // intercept = low-level median
/// assert!((beta[1] - 10.0).abs() < 1e-6); // effect of f = +10
/// # Ok::<(), treadmill_stats::linalg::SolveError>(())
/// ```
pub fn saturated_quantile_fit(
    design: &FactorialDesign,
    cells: &[Cell],
    tau: f64,
) -> Result<Vec<f64>, SolveError> {
    let matrix = saturated_matrix(design, cells, tau);
    let rhs: Vec<f64> = cells.iter().map(|c| c.pooled_quantile(tau)).collect();
    matrix.solve(&rhs)
}

/// Convenience: the per-run τ-quantiles of a cell (used for hysteresis
/// diagnostics and run-level spread reporting).
pub fn per_run_quantiles(cell: &Cell, tau: f64) -> Vec<f64> {
    cell.runs()
        .iter()
        .map(|run| quantile_of_sorted(run, tau))
        .collect()
}

/// Fits the saturated model on **per-experiment quantile estimates**,
/// the paper's formulation: Eq. 3 defines the prediction error against
/// "the empirically measured quantile y_i^τ" of each experiment, so
/// each of the N = 16 × runs experiments contributes one observation —
/// its measured τ-quantile — and the fitted cell value is the
/// τ-quantile-regression solution over those observations (for a
/// saturated design, the τ-quantile of the cell's per-run quantiles).
///
/// # Errors
///
/// Returns [`SolveError`] if the design system is singular.
///
/// # Panics
///
/// Panics if `tau` is outside `(0, 1)` or the design is not saturated.
pub fn experiment_quantile_fit(
    design: &FactorialDesign,
    cells: &[Cell],
    tau: f64,
) -> Result<Vec<f64>, SolveError> {
    let matrix = saturated_matrix(design, cells, tau);
    let run_quantiles: Vec<Vec<f64>> =
        cells.iter().map(|cell| per_run_quantiles(cell, tau)).collect();
    matrix.solve(&experiment_quantiles(&run_quantiles, tau))
}

/// The design matrix of a saturated fit, one row per cell, after the
/// checks every saturated fit makes.
///
/// # Panics
///
/// Panics if `tau` is outside `(0, 1)` or the design is not saturated
/// (`num_terms != number of cells`).
pub(crate) fn saturated_matrix(design: &FactorialDesign, cells: &[Cell], tau: f64) -> Matrix {
    assert!(tau > 0.0 && tau < 1.0, "quantile level {tau} outside (0, 1)");
    assert_eq!(
        design.num_terms(),
        cells.len(),
        "saturated fit needs exactly one cell per design term"
    );
    let configs: Vec<Vec<f64>> = cells.iter().map(|c| c.levels.clone()).collect();
    design.design_matrix(&configs)
}

/// The τ-quantile of each cell's per-run τ-quantiles: the cell values
/// [`experiment_quantile_fit`] solves for.
pub(crate) fn experiment_quantiles(run_quantiles: &[Vec<f64>], tau: f64) -> Vec<f64> {
    run_quantiles
        .iter()
        .map(|quantiles| {
            let mut sorted = quantiles.clone();
            sorted.sort_by(f64::total_cmp);
            quantile_of_sorted(&sorted, tau)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::quantile_regression_exact;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn make_cells(design: &FactorialDesign, f: impl Fn(&[f64]) -> f64) -> Vec<Cell> {
        design
            .all_configurations()
            .into_iter()
            .map(|levels| {
                let center = f(&levels);
                let samples: Vec<f64> =
                    (0..101).map(|i| center + (i as f64 - 50.0) / 50.0).collect();
                Cell::new(levels, vec![samples])
            })
            .collect()
    }

    #[test]
    fn recovers_additive_effects() {
        let design = FactorialDesign::full(&["a", "b"]);
        let cells = make_cells(&design, |lv| 100.0 + 10.0 * lv[0] - 5.0 * lv[1]);
        let beta = saturated_quantile_fit(&design, &cells, 0.5).unwrap();
        assert!((beta[0] - 100.0).abs() < 1e-6);
        assert!((beta[1] - 10.0).abs() < 1e-6);
        assert!((beta[2] + 5.0).abs() < 1e-6);
        assert!(beta[3].abs() < 1e-6, "no interaction term expected");
    }

    #[test]
    fn recovers_interaction() {
        let design = FactorialDesign::full(&["a", "b"]);
        let cells = make_cells(&design, |lv| 50.0 + 20.0 * lv[0] * lv[1]);
        let beta = saturated_quantile_fit(&design, &cells, 0.5).unwrap();
        assert!(beta[1].abs() < 1e-6);
        assert!(beta[2].abs() < 1e-6);
        assert!((beta[3] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn predictions_interpolate_cell_quantiles() {
        let design = FactorialDesign::full(&["a", "b", "c", "d"]);
        let mut rng = SmallRng::seed_from_u64(10);
        let cells: Vec<Cell> = design
            .all_configurations()
            .into_iter()
            .map(|levels| {
                let samples: Vec<f64> =
                    (0..500).map(|_| rng.gen_range(0.0..100.0)).collect();
                Cell::new(levels, vec![samples])
            })
            .collect();
        for &tau in &[0.5, 0.95, 0.99] {
            let beta = saturated_quantile_fit(&design, &cells, tau).unwrap();
            for cell in &cells {
                let pred = design.predict(&beta, &cell.levels);
                let truth = cell.pooled_quantile(tau);
                assert!(
                    (pred - truth).abs() < 1e-6,
                    "tau {tau}: pred {pred} vs cell quantile {truth}"
                );
            }
        }
    }

    #[test]
    fn matches_lp_oracle() {
        // Saturated solver must agree with the exact LP run on the raw
        // samples.
        let design = FactorialDesign::full(&["a", "b"]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let cells: Vec<Cell> = design
            .all_configurations()
            .into_iter()
            .map(|levels| {
                let samples: Vec<f64> = (0..51)
                    .map(|_| 10.0 * (1.0 + levels[0]) + rng.gen_range(0.0..5.0))
                    .collect();
                for s in &samples {
                    rows.push(levels.clone());
                    y.push(*s);
                }
                Cell::new(levels, vec![samples])
            })
            .collect();
        let matrix = design.design_matrix(&rows);
        let tau = 0.75;
        let lp = quantile_regression_exact(&matrix, &y, tau).unwrap();
        let sat = saturated_quantile_fit(&design, &cells, tau).unwrap();
        // Both minimise the same loss; cell quantile interpolation may
        // pick a different optimum within the flat region, so compare
        // predictions (which are pinned by the data) rather than raw
        // coefficients, allowing one-sample slack in each cell.
        for cell in &cells {
            let a = design.predict(&lp, &cell.levels);
            let b = design.predict(&sat, &cell.levels);
            assert!((a - b).abs() < 0.6, "{a} vs {b}");
        }
    }

    #[test]
    fn mixture_quantile_with_multiplicities() {
        let cell = Cell::new(
            vec![0.0],
            vec![vec![1.0, 2.0, 3.0], vec![10.0, 11.0, 12.0]],
        );
        // Equal weights: median sits between the two runs.
        let even = cell.mixture_quantile(0.5, &[1, 1]);
        assert!((3.0..=10.0).contains(&even), "median {even}");
        // Heavily weight the second run: median moves into it.
        let skewed = cell.mixture_quantile(0.5, &[1, 10]);
        assert!(skewed >= 10.0, "median {skewed}");
        // Zero out the second run entirely.
        let only_first = cell.mixture_quantile(0.99, &[1, 0]);
        assert!(only_first <= 3.0 + 1e-6);
    }

    #[test]
    fn pooled_quantile_matches_direct_computation() {
        let mut rng = SmallRng::seed_from_u64(12);
        let runs: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..200).map(|_| rng.gen_range(0.0..100.0)).collect())
            .collect();
        let mut pooled: Vec<f64> = runs.iter().flatten().copied().collect();
        pooled.sort_by(f64::total_cmp);
        let cell = Cell::new(vec![0.0], runs);
        for &tau in &[0.5, 0.9, 0.99] {
            let direct = quantile_of_sorted(&pooled, tau);
            let mixture = cell.pooled_quantile(tau);
            // Bisection returns the smallest x with CDF >= tau; the
            // interpolated estimator can differ by up to one gap.
            assert!(
                (direct - mixture).abs() < 2.0,
                "tau {tau}: {direct} vs {mixture}"
            );
        }
    }

    #[test]
    fn per_run_quantiles_expose_hysteresis() {
        let cell = Cell::new(
            vec![0.0],
            vec![vec![1.0, 2.0, 3.0], vec![101.0, 102.0, 103.0]],
        );
        let q = per_run_quantiles(&cell, 0.5);
        assert_eq!(q, vec![2.0, 102.0]);
    }

    #[test]
    #[should_panic(expected = "one cell per design term")]
    fn saturation_checked() {
        let design = FactorialDesign::full(&["a", "b"]);
        let cells = vec![Cell::new(vec![0.0, 0.0], vec![vec![1.0]])];
        let _ = saturated_quantile_fit(&design, &cells, 0.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_run_rejected() {
        let _ = Cell::new(vec![0.0], vec![vec![]]);
    }
}
