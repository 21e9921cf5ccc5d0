//! Quantile regression and supporting inference (paper §IV).
//!
//! The paper attributes tail-latency variance to hardware factors with
//! quantile regression over a 2-level full-factorial design including all
//! interaction terms (Eq. 1). This module provides:
//!
//! * [`FactorialDesign`] — term construction and design matrices,
//! * [`fit`] — the pinball (check) loss and the paper's pseudo-R² (Eq. 2),
//! * [`irls`] — a smoothed iteratively-reweighted-least-squares solver
//!   for general designs,
//! * [`simplex`] — an exact LP solver used as a small-problem oracle,
//! * [`saturated`] — the exact solver for saturated factorial designs
//!   (the paper's setting), going through per-cell empirical quantiles,
//! * [`bootstrap`] — run-level (cluster) bootstrap standard errors and
//!   p-values for the coefficient table (Table IV),
//! * [`ols`] — ordinary least squares / ANOVA for the comparison the
//!   paper draws with mean-based attribution.

pub mod anova;
pub mod bootstrap;
pub mod design;
pub mod fit;
pub mod irls;
pub mod ols;
pub mod saturated;
pub mod simplex;

pub use anova::{anova, AnovaRow, AnovaTable};
pub use bootstrap::{
    bootstrap_coefficients, bootstrap_saturated, BootstrapOptions, CoefficientEstimate,
};
pub use design::FactorialDesign;
pub use fit::{check_weight, pinball_loss, pseudo_r_squared, total_pinball_loss};
pub use irls::{quantile_regression_irls, IrlsOptions};
pub use ols::{ols_fit, OlsFit};
pub use saturated::{experiment_quantile_fit, per_run_quantiles, saturated_quantile_fit, Cell};
pub use simplex::quantile_regression_exact;
