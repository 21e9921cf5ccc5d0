//! Reduced-order attribution models and model comparison.
//!
//! The paper's Eq. 1 includes *all* interaction orders, and its
//! findings repeatedly stress that interactions carry real effects
//! ("the estimated coefficients of interactions are sometimes larger
//! than individual factors", Finding 5). This module quantifies that
//! claim: it fits truncated models — main effects only, or up to 2-way
//! interactions — with the general IRLS quantile-regression solver over
//! the per-experiment quantile observations, and compares their
//! pseudo-R² against the saturated model's. If interactions matter, the
//! truncated models must explain visibly less.

use treadmill_cluster::HardwareConfig;
use treadmill_stats::regression::fit::pseudo_r_squared;
use treadmill_stats::regression::{per_run_quantiles, FactorialDesign};

use crate::attribution::{jittered_irls, run_quantile_matrix};
use crate::dataset::Dataset;

/// A fitted reduced-order model.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// Interaction order included (1 = main effects only; 4 = saturated).
    pub max_order: usize,
    /// The quantile fitted.
    pub tau: f64,
    /// Term labels, matching `coefficients`.
    pub terms: Vec<String>,
    /// Fitted coefficients (µs).
    pub coefficients: Vec<f64>,
    /// In-sample pseudo-R² over the per-experiment quantile
    /// observations (Eq. 2).
    pub pseudo_r_squared: f64,
}

impl ReducedModel {
    /// Predicts the τ-quantile for a configuration's levels.
    pub fn predict(&self, levels: &[f64]) -> f64 {
        let design =
            FactorialDesign::with_interactions(&HardwareConfig::factor_names(), self.max_order);
        design.predict(&self.coefficients, levels)
    }
}

/// Fits a model truncated at `max_order` interactions.
///
/// # Panics
///
/// Panics if the dataset is not the full 16-cell factorial, `tau` is
/// outside `(0, 1)`, or `max_order` is not in `1..=4`.
pub fn fit_reduced(dataset: &Dataset, tau: f64, max_order: usize) -> ReducedModel {
    assert!((1..=4).contains(&max_order), "interaction order must be 1..=4");
    assert_eq!(dataset.cells.len(), 16, "dataset must cover all 16 cells");
    let design = FactorialDesign::with_interactions(&HardwareConfig::factor_names(), max_order);

    // Observations: one per experiment — its measured τ-quantile.
    let quantiles: Vec<Vec<f64>> = dataset
        .cells
        .iter()
        .map(|cell| per_run_quantiles(cell, tau))
        .collect();
    let matrix = run_quantile_matrix(&design, &dataset.cells, &quantiles);
    let y = quantiles.concat();
    let coefficients = jittered_irls(&matrix, &y, tau).expect("factorial designs are full rank");
    let predictions = matrix.mul_vec(&coefficients);
    let r2 = pseudo_r_squared(tau, &y, &predictions);
    ReducedModel {
        max_order,
        tau,
        terms: design.term_labels(),
        coefficients,
        pseudo_r_squared: r2,
    }
}

/// One row of the model-comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparisonRow {
    /// Interaction order.
    pub max_order: usize,
    /// Number of model terms.
    pub terms: usize,
    /// Pseudo-R² at the evaluated quantile.
    pub pseudo_r_squared: f64,
}

/// Fits orders 1..=4 and reports each model's explanatory power — the
/// quantitative version of Finding 5.
pub fn model_comparison(dataset: &Dataset, tau: f64) -> Vec<ModelComparisonRow> {
    (1..=4)
        .map(|order| {
            let model = fit_reduced(dataset, tau, order);
            ModelComparisonRow {
                max_order: order,
                terms: model.terms.len(),
                pseudo_r_squared: model.pseudo_r_squared,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_cluster::HardwareConfig;
    use treadmill_stats::regression::Cell;

    fn dataset_with(f: impl Fn(&[f64]) -> f64, noise: f64) -> Dataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(31);
        let cells = (0..16)
            .map(|i| {
                let lv = HardwareConfig::from_index(i).levels();
                let center = f(&lv);
                let runs: Vec<Vec<f64>> = (0..6)
                    .map(|_| {
                        (0..100)
                            .map(|_| center + rng.gen_range(-noise..noise))
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
    fn additive_world_needs_no_interactions() {
        let dataset = dataset_with(|lv| 100.0 + 20.0 * lv[0] - 5.0 * lv[1], 1.0);
        let comparison = model_comparison(&dataset, 0.5);
        assert_eq!(comparison.len(), 4);
        assert_eq!(comparison[0].terms, 5);
        assert_eq!(comparison[3].terms, 16);
        // Main effects already explain nearly everything.
        assert!(comparison[0].pseudo_r_squared > 0.9);
        let gain = comparison[3].pseudo_r_squared - comparison[0].pseudo_r_squared;
        assert!(gain < 0.05, "interactions should add nothing: gain {gain}");
    }

    #[test]
    fn interacting_world_demands_interactions() {
        // Pure 2-way interaction: the main-effects model must miss it.
        let dataset = dataset_with(|lv| 100.0 + 40.0 * lv[0] * lv[2], 1.0);
        let comparison = model_comparison(&dataset, 0.5);
        let main_only = comparison[0].pseudo_r_squared;
        let with_pairs = comparison[1].pseudo_r_squared;
        assert!(
            with_pairs > main_only + 0.1,
            "2-way terms must add power: {main_only} → {with_pairs}"
        );
        assert!(with_pairs > 0.9);
    }

    #[test]
    fn reduced_predictions_match_structure() {
        let dataset = dataset_with(|lv| 50.0 + 10.0 * lv[3], 0.5);
        let model = fit_reduced(&dataset, 0.5, 1);
        assert_eq!(model.terms.len(), 5);
        let low = model.predict(&[0.0, 0.0, 0.0, 0.0]);
        let high = model.predict(&[0.0, 0.0, 0.0, 1.0]);
        assert!((high - low - 10.0).abs() < 1.5, "effect {}", high - low);
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn order_bounds_checked() {
        let dataset = dataset_with(|_| 1.0, 0.1);
        fit_reduced(&dataset, 0.5, 5);
    }
}
