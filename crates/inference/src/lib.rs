//! Tail-latency attribution via quantile regression (paper §IV–§V).
//!
//! The pipeline:
//!
//! 1. [`factors`] — the four hardware factors and their levels
//!    (Table III);
//! 2. [`dataset`] — the 2⁴ full-factorial experiment campaign: ≥30
//!    independent Treadmill runs per configuration, 20k subsampled
//!    latency samples each (§V-A);
//! 3. [`attribution`] — saturated quantile regression with run-level
//!    bootstrap inference at the 50th/95th/99th percentiles (Table IV),
//!    and predicted latencies for all 16 configurations (Figures 7/9);
//! 4. [`impact`] — average per-factor impact (Figures 8/10);
//! 5. [`goodness`] — the paper's pseudo-R² (Figure 11, Eq. 2);
//! 6. [`tuning`] — before/after validation of the recommended
//!    configuration (Figure 12).
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use treadmill_inference::{attribute, collect, CollectionPlan};
//! use treadmill_workloads::Memcached;
//!
//! let plan = CollectionPlan::new(Arc::new(Memcached::default()), 700_000.0);
//! let dataset = collect(&plan); // 480 experiments
//! let model = attribute(&dataset, 0.99, 200, 0);
//! println!("best config: {}", model.best_config());
//! ```

#![forbid(unsafe_code)]
// Unit tests unwrap freely and assert exact float equality: bit-exact
// reproducibility is the property under test. Library code is held to
// the workspace lint table (see DESIGN.md, "Static analysis").
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)
)]
#![warn(missing_docs)]

pub mod analytic;
pub mod attribution;
pub mod dataset;
pub mod factors;
pub mod goodness;
pub mod impact;
pub mod reduced;
pub mod screening;
pub mod tuning;

pub use analytic::{
    censoring_prediction, predict, predict_cell, AnalyticError, AnalyticInput,
    CensoringPrediction, TailPrediction,
};
pub use attribution::{
    attribute, attribute_graceful, attribution_table, AttributionOutcome,
    AttributionResult, TABLE_IV_PERCENTILES,
};
pub use dataset::{collect, CollectionPlan, Dataset};
pub use factors::{factor_table, Factor};
pub use goodness::model_pseudo_r_squared;
pub use impact::{average_factor_impacts, FactorImpact};
pub use reduced::{fit_reduced, model_comparison, ModelComparisonRow, ReducedModel};
pub use screening::{
    run_config_sweep, screen_cells, screen_factors, screen_hardware, CellPrediction, ConfigSweep,
    ScreenError, ScreenPlan, ScreeningOptions, ScreeningResult,
};
pub use tuning::{validate, ArmSummary, TuningOutcome, TuningPlan};
