//! Quantile-regression attribution (Table IV, Figures 7 & 9).

use rand::{Rng, SeedableRng};
use treadmill_cluster::HardwareConfig;
use treadmill_stats::linalg::{Matrix, SolveError};
use treadmill_stats::regression::{
    bootstrap_coefficients, bootstrap_saturated, per_run_quantiles, quantile_regression_irls,
    BootstrapOptions, Cell, CoefficientEstimate, FactorialDesign, IrlsOptions,
};

use crate::dataset::Dataset;

/// The percentiles the paper reports in Table IV.
pub const TABLE_IV_PERCENTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// A fitted attribution model at one quantile.
#[derive(Debug, Clone)]
pub struct AttributionResult {
    /// The quantile fitted (e.g. 0.99).
    pub tau: f64,
    /// Per-term coefficient estimates with bootstrap SEs and p-values —
    /// the rows of Table IV.
    pub coefficients: Vec<CoefficientEstimate>,
    design: FactorialDesign,
}

impl AttributionResult {
    /// The saturated design used.
    pub fn design(&self) -> &FactorialDesign {
        &self.design
    }

    /// Predicts the τ-quantile latency (µs) for a configuration — the
    /// "add up all the qualified estimated coefficients and the
    /// intercept" recipe of §V-B.
    pub fn predict(&self, config: &HardwareConfig) -> f64 {
        let coef: Vec<f64> = self.coefficients.iter().map(|c| c.estimate).collect();
        self.design.predict(&coef, &config.levels())
    }

    /// The coefficient row for a term label (e.g. `"numa:dvfs"`).
    pub fn term(&self, label: &str) -> Option<&CoefficientEstimate> {
        self.coefficients.iter().find(|c| c.term == label)
    }

    /// Predicted latency for all 16 configurations, in index order
    /// (one group of bars in Figures 7/9).
    pub fn predictions_all_configs(&self) -> Vec<f64> {
        HardwareConfig::all()
            .iter()
            .map(|cfg| self.predict(cfg))
            .collect()
    }

    /// The configuration with the lowest predicted latency (the §V-E
    /// tuning recommendation).
    pub fn best_config(&self) -> HardwareConfig {
        let mut best = HardwareConfig::from_index(0);
        let mut best_value = f64::INFINITY;
        for cfg in HardwareConfig::all() {
            let value = self.predict(&cfg);
            if value < best_value {
                best_value = value;
                best = cfg;
            }
        }
        best
    }
}

/// Fits the saturated quantile-regression model with bootstrap
/// inference at one quantile. Observations are the per-experiment
/// measured τ-quantiles (the paper's Eq. 3).
///
/// # Panics
///
/// Panics if the dataset does not have exactly 16 cells.
pub fn attribute(
    dataset: &Dataset,
    tau: f64,
    bootstrap_replicates: usize,
    seed: u64,
) -> AttributionResult {
    assert_eq!(dataset.cells.len(), 16, "dataset must cover all 16 cells");
    let design = FactorialDesign::full(&HardwareConfig::factor_names());
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let coefficients = bootstrap_saturated(
        &design,
        &dataset.cells,
        tau,
        BootstrapOptions {
            replicates: bootstrap_replicates,
        },
        &mut rng,
    )
    .expect("saturated factorial design cannot be singular");
    AttributionResult {
        tau,
        coefficients,
        design,
    }
}

/// The result of [`attribute_graceful`]: the fitted model plus a record
/// of any degradation applied to obtain it.
#[derive(Debug, Clone)]
pub struct AttributionOutcome {
    /// The fitted attribution model (saturated when possible, an IRLS
    /// reduced-order fit otherwise).
    pub result: AttributionResult,
    /// True if the exact saturated solver could not be used.
    pub degraded: bool,
    /// Human-readable notes about what degraded and why. Empty when
    /// `degraded` is false.
    pub warnings: Vec<String>,
}

/// Fits the attribution model, degrading gracefully when the dataset is
/// incomplete instead of panicking.
///
/// A complete 16-cell factorial routes to [`attribute`] (the exact
/// saturated solver); a dataset with missing cells — e.g. because a
/// fault-injected campaign abandoned some configurations — falls back
/// to the IRLS quantile-regression solver over the largest interaction
/// order the surviving cells can identify, with bootstrap standard
/// errors from resampling per-run quantiles within each cell. The
/// outcome records the fallback in `warnings`.
///
/// # Panics
///
/// Panics only if the dataset is empty or too degenerate to fit even a
/// main-effects model.
pub fn attribute_graceful(
    dataset: &Dataset,
    tau: f64,
    bootstrap_replicates: usize,
    seed: u64,
) -> AttributionOutcome {
    let missing = dataset.missing_cells();
    if missing.is_empty() && dataset.cells.len() == 16 {
        return AttributionOutcome {
            result: attribute(dataset, tau, bootstrap_replicates, seed),
            degraded: false,
            warnings: Vec::new(),
        };
    }
    assert!(!dataset.cells.is_empty(), "dataset has no cells at all");
    let names = HardwareConfig::factor_names();
    let available = dataset.cells.len();
    let mut warnings = vec![format!(
        "dataset is missing {} of 16 cells (indices {:?}); falling back from the \
         exact saturated solver to IRLS quantile regression",
        missing.len(),
        missing
    )];

    // Largest interaction order the surviving cells can identify: the
    // design-matrix rank is bounded by the number of distinct cells.
    let mut order = 1;
    for candidate in (1..=4).rev() {
        if FactorialDesign::with_interactions(&names, candidate).num_terms() <= available {
            order = candidate;
            break;
        }
    }
    loop {
        let design = FactorialDesign::with_interactions(&names, order);
        match fit_irls_with_bootstrap(
            &design,
            &dataset.cells,
            tau,
            bootstrap_replicates,
            seed,
        ) {
            Ok(coefficients) => {
                if order < 4 {
                    warnings.push(format!(
                        "interaction terms truncated to order {order} ({} terms); \
                         {available} cells cannot identify all 16 saturated terms",
                        design.num_terms()
                    ));
                }
                return AttributionOutcome {
                    result: AttributionResult {
                        tau,
                        coefficients,
                        design,
                    },
                    degraded: true,
                    warnings,
                };
            }
            Err(err) if order > 1 => {
                warnings.push(format!(
                    "order-{order} IRLS fit was singular ({err:?}); retrying at \
                     order {}",
                    order - 1
                ));
                order -= 1;
            }
            Err(err) => {
                panic!(
                    "cannot fit even a main-effects model on {available} cells: {err:?}"
                );
            }
        }
    }
}

/// The IRLS regressors over per-run quantile observations: one row per
/// run, its cell's design row. `quantiles` runs parallel to `cells`; the
/// matching response is `quantiles.concat()`.
pub(crate) fn run_quantile_matrix(
    design: &FactorialDesign,
    cells: &[Cell],
    quantiles: &[Vec<f64>],
) -> Matrix {
    let rows: usize = quantiles.iter().map(Vec::len).sum();
    let mut matrix = Matrix::zeros(rows, design.num_terms());
    let mut r = 0;
    for (cell, cell_quantiles) in cells.iter().zip(quantiles) {
        let row = design.row(&cell.levels);
        for _ in cell_quantiles {
            for (c, v) in row.iter().enumerate() {
                matrix[(r, c)] = *v;
            }
            r += 1;
        }
    }
    matrix
}

/// IRLS quantile regression of `y` on `matrix` with the paper's 0.01-σ
/// perturbation, for the all-dummy regressors.
pub(crate) fn jittered_irls(matrix: &Matrix, y: &[f64], tau: f64) -> Result<Vec<f64>, SolveError> {
    let options = IrlsOptions {
        jitter: 0.01,
        ..Default::default()
    };
    quantile_regression_irls(matrix, y, tau, &options)
}

/// IRLS point fit over per-run quantile rows plus a cluster bootstrap
/// (resampling runs within each cell, mirroring [`bootstrap_saturated`])
/// for standard errors.
fn fit_irls_with_bootstrap(
    design: &FactorialDesign,
    cells: &[Cell],
    tau: f64,
    replicates: usize,
    seed: u64,
) -> Result<Vec<CoefficientEstimate>, SolveError> {
    let run_quantiles: Vec<Vec<f64>> =
        cells.iter().map(|cell| per_run_quantiles(cell, tau)).collect();
    let matrix = run_quantile_matrix(design, cells, &run_quantiles);
    let point = jittered_irls(&matrix, &run_quantiles.concat(), tau)?;

    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut resampled = run_quantiles.clone();
    bootstrap_coefficients(design, point, replicates.max(1), || {
        for (dst, src) in resampled.iter_mut().zip(&run_quantiles) {
            for slot in dst.iter_mut() {
                *slot = src[rng.gen_range(0..src.len())];
            }
        }
        jittered_irls(&matrix, &resampled.concat(), tau)
    })
}

/// Fits the model at each of the paper's Table IV percentiles.
pub fn attribution_table(
    dataset: &Dataset,
    bootstrap_replicates: usize,
    seed: u64,
) -> Vec<AttributionResult> {
    TABLE_IV_PERCENTILES
        .iter()
        .map(|&tau| attribute(dataset, tau, bootstrap_replicates, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_stats::regression::Cell;

    /// A synthetic dataset with known structure: latency is
    /// `100 + 50*numa + 20*numa*dvfs - 10*turbo` (+ noise), constant
    /// across quantiles.
    fn synthetic_dataset(run_noise: f64) -> Dataset {
        use rand::Rng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let cells = (0..16)
            .map(|i| {
                let cfg = HardwareConfig::from_index(i);
                let lv = cfg.levels();
                let center = 100.0 + 50.0 * lv[0] + 20.0 * lv[0] * lv[2] - 10.0 * lv[1];
                let runs: Vec<Vec<f64>> = (0..8)
                    .map(|_| {
                        let shift = rng.gen_range(-run_noise..=run_noise);
                        (0..200)
                            .map(|_| center + shift + rng.gen_range(-1.0..1.0))
                            .collect()
                    })
                    .collect();
                Cell::new(lv, runs)
            })
            .collect();
        Dataset {
            cells,
            target_rps: 1.0,
            workload_name: "synthetic".into(),
        }
    }

    #[test]
    fn recovers_known_effects() {
        let dataset = synthetic_dataset(0.5);
        let result = attribute(&dataset, 0.5, 100, 1);
        let numa = result.term("numa").unwrap();
        assert!((numa.estimate - 50.0).abs() < 3.0, "numa {}", numa.estimate);
        assert!(numa.is_significant(0.05));
        let interaction = result.term("numa:dvfs").unwrap();
        assert!(
            (interaction.estimate - 20.0).abs() < 4.0,
            "numa:dvfs {}",
            interaction.estimate
        );
        let turbo = result.term("turbo").unwrap();
        assert!((turbo.estimate + 10.0).abs() < 3.0);
        // Null factor: nic has no effect.
        let nic = result.term("nic").unwrap();
        assert!(nic.estimate.abs() < 3.0, "nic {}", nic.estimate);
    }

    #[test]
    fn predictions_follow_the_recipe() {
        let dataset = synthetic_dataset(0.5);
        let result = attribute(&dataset, 0.5, 20, 2);
        // numa high + dvfs high: 100 + 50 + 20 = 170.
        let cfg = HardwareConfig::from_index(0b0101);
        assert!((result.predict(&cfg) - 170.0).abs() < 4.0);
        assert_eq!(result.predictions_all_configs().len(), 16);
    }

    #[test]
    fn best_config_minimises_prediction() {
        let dataset = synthetic_dataset(0.5);
        let result = attribute(&dataset, 0.5, 20, 3);
        let best = result.best_config();
        // Optimal: numa low (avoid +50), turbo high (-10); dvfs/nic
        // don't matter (but dvfs high only hurts with numa high).
        assert!(!best.numa.is_high());
        assert!(best.turbo.is_high());
    }

    #[test]
    fn table_covers_paper_percentiles() {
        let dataset = synthetic_dataset(0.5);
        let table = attribution_table(&dataset, 10, 4);
        assert_eq!(table.len(), 3);
        assert_eq!(table[0].tau, 0.50);
        assert_eq!(table[2].tau, 0.99);
        for result in &table {
            assert_eq!(result.coefficients.len(), 16);
            assert_eq!(result.coefficients[0].term, "(Intercept)");
        }
    }

    #[test]
    fn graceful_full_dataset_matches_exact() {
        let dataset = synthetic_dataset(0.5);
        let outcome = attribute_graceful(&dataset, 0.5, 20, 2);
        assert!(!outcome.degraded);
        assert!(outcome.warnings.is_empty());
        let exact = attribute(&dataset, 0.5, 20, 2);
        assert_eq!(outcome.result.coefficients, exact.coefficients);
    }

    #[test]
    fn graceful_missing_cell_falls_back_to_irls() {
        let mut dataset = synthetic_dataset(0.5);
        dataset.cells.remove(7);
        let outcome = attribute_graceful(&dataset, 0.5, 60, 3);
        assert!(outcome.degraded);
        assert!(
            outcome.warnings.iter().any(|w| w.contains("IRLS")),
            "warnings must name the fallback: {:?}",
            outcome.warnings
        );
        // 15 cells identify the order-3 model (15 terms).
        assert_eq!(outcome.result.coefficients.len(), 15);
        let numa = outcome.result.term("numa").unwrap();
        assert!((numa.estimate - 50.0).abs() < 5.0, "numa {}", numa.estimate);
        assert!(numa.std_error > 0.0);
        let interaction = outcome.result.term("numa:dvfs").unwrap();
        assert!(
            (interaction.estimate - 20.0).abs() < 6.0,
            "numa:dvfs {}",
            interaction.estimate
        );
        // Predictions cover all 16 configurations and stay finite even
        // for the missing cell.
        let predictions = outcome.result.predictions_all_configs();
        assert_eq!(predictions.len(), 16);
        assert!(predictions.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn graceful_handles_heavily_degraded_datasets() {
        let mut dataset = synthetic_dataset(0.5);
        // Keep the even-parity half fraction (8 cells): a resolution-IV
        // design that identifies main effects (5 terms) but cannot
        // support order-2 (11 terms).
        let mut idx = 0usize;
        dataset.cells.retain(|_| {
            let keep = idx.count_ones().is_multiple_of(2);
            idx += 1;
            keep
        });
        let outcome = attribute_graceful(&dataset, 0.5, 30, 4);
        assert!(outcome.degraded);
        assert_eq!(outcome.result.coefficients.len(), 5);
        assert!(
            outcome.warnings.iter().any(|w| w.contains("order 1")),
            "expected a truncation note: {:?}",
            outcome.warnings
        );
    }

    #[test]
    fn noisier_runs_give_larger_standard_errors() {
        let calm = attribute(&synthetic_dataset(0.2), 0.5, 100, 5);
        let noisy = attribute(&synthetic_dataset(20.0), 0.5, 100, 5);
        let se = |r: &AttributionResult| r.term("numa").unwrap().std_error;
        assert!(
            se(&noisy) > se(&calm) * 3.0,
            "noisy {} vs calm {}",
            se(&noisy),
            se(&calm)
        );
    }
}
