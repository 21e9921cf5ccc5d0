//! Statistics substrate for the Treadmill reproduction.
//!
//! The paper's methodology rests on a handful of statistical tools, all
//! implemented here from scratch:
//!
//! * [`AdaptiveHistogram`] — the calibrated, re-binnable latency histogram
//!   Treadmill uses for online aggregation (§III-A, *Statistical
//!   aggregation*), plus [`StaticHistogram`] exhibiting the static-bin
//!   pitfall of prior load testers (§II-B).
//! * [`StreamingStats`] — Welford-style streaming moments.
//! * [`quantile`] — empirical quantile estimation.
//! * [`distribution`] — the normal CDF/quantile, samplers for the
//!   exponential / lognormal / Pareto families used by workload models.
//! * [`linalg`] — dense matrices and LU / least-squares solvers.
//! * [`regression`] — quantile regression (pinball loss, exact saturated
//!   solver, smoothed IRLS, simplex LP), within-cell bootstrap inference,
//!   the paper's pseudo-R² (Eq. 2), and OLS/ANOVA for comparison.
//!
//! # Examples
//!
//! ```
//! use treadmill_stats::quantile::quantile_of_sorted;
//!
//! let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
//! samples.sort_by(f64::total_cmp);
//! let p99 = quantile_of_sorted(&samples, 0.99);
//! assert!((p99 - 99.01).abs() < 1e-9);
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

pub mod ci;
pub mod compare;
pub mod distribution;
pub mod histogram;
pub mod linalg;
pub mod p2;
pub mod quantile;
pub mod regression;
pub mod streaming;
pub mod summary;

pub use histogram::{AdaptiveHistogram, HistogramConfig, StaticHistogram};
pub use p2::{P2Quantile, P2State};
pub use streaming::StreamingStats;
pub use summary::LatencySummary;
