//! Differential oracle: the closed-form analytic estimator
//! (`treadmill::inference::analytic`) versus the discrete-event
//! simulator it screens for.
//!
//! The analytic model is useful only while it keeps *agreeing* with the
//! DES on what matters for screening — the ordering of configurations
//! and the rough magnitude of the stable-regime tail. These tests pin
//! that agreement on a seeded 64-cell grid (16 hardware cells × 4
//! arrival rates) as CI-enforced regression oracles:
//!
//! * rank agreement — Kendall tau between analytic and DES p99
//!   orderings across the whole grid;
//! * bounded relative p99 error in the stable-utilization regime;
//! * screen recall — no cell the DES deems significant is dropped by
//!   the analytic screen;
//! * rank agreement for mcrouter, whose demand the screen reads from
//!   the workload's own closed-form moments as it reads Memcached's;
//!
//! plus proptest metamorphic properties (monotonicity in arrival rate,
//! invariance under factor relabeling, bit-identical determinism) and
//! the 2^5 acceptance scenario: a screened sweep spends ≥5× fewer DES
//! cells than full-factorial while attribution still flags the same
//! dominant factor.

// Integration tests exercise the public API end-to-end: unwrap on
// already-validated setup and exact float comparison (bit-identity is
// the property under test) are the point here, not defects.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)]

use std::sync::Arc;

use proptest::prelude::*;
use treadmill::cluster::HardwareConfig;
use treadmill::core::LoadTestConfig;
use treadmill::inference::{
    attribute, attribute_graceful, censoring_prediction, collect, predict_cell,
    screen_cells, screen_hardware, CollectionPlan, Dataset,
};
use treadmill::sim::SimDuration;
use treadmill::workloads::Memcached;

/// Arrival rates of the seeded grid (per-server RPS). Spans light load
/// through the near-saturation regime where the factors matter.
const GRID_RPS: [f64; 4] = [150_000.0, 350_000.0, 550_000.0, 750_000.0];

fn grid_config(rps: f64) -> LoadTestConfig {
    LoadTestConfig::from_json(&format!(
        r#"{{"workload": {{"workload": "memcached"}},
            "target_rps": {rps},
            "clients": 2,
            "connections_per_client": 4,
            "duration_ms": 60,
            "warmup_ms": 15,
            "seed": 2016}}"#
    ))
    .expect("grid config is valid")
}

/// DES p99 for one hardware cell of a grid config.
fn des_p99(config: &LoadTestConfig, cell: usize) -> f64 {
    let mut config = config.clone();
    config.hardware = Some(cell as u8);
    config.build().expect("buildable").run(0).aggregated.p99
}

/// Kendall tau-a: concordant minus discordant pairs over all pairs.
/// Ties (common within a rate level — some factors are inert) count
/// against agreement, making the oracle conservative.
fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut net = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let s = ((a[i] - a[j]) * (b[i] - b[j])).signum();
            if s > 0.0 {
                net += 1;
            } else if s < 0.0 {
                net -= 1;
            }
        }
    }
    net as f64 / (n * (n - 1) / 2) as f64
}

/// The three grid oracles share one 64-cell analytic + DES evaluation
/// (the DES half is the expensive part), so they live in one test.
#[test]
fn grid_oracles_rank_error_and_recall() {
    let mut analytic_p99 = Vec::with_capacity(64);
    let mut des = Vec::with_capacity(64);
    let mut utilizations = Vec::with_capacity(64);
    for &rps in &GRID_RPS {
        let config = grid_config(rps);
        for cell in 0..16 {
            let hw = HardwareConfig::from_index(cell);
            let pred = predict_cell(&config, hw).expect("analytic prediction");
            analytic_p99.push(pred.p99_us);
            utilizations.push(pred.utilization);
            des.push(des_p99(&config, cell));
        }
    }

    // (a) Rank agreement at every rate level. The screen's job is to
    // order hardware cells *at a given load*, so the oracle is the
    // per-level Kendall tau over the 16 cells (tau-a, so the analytic
    // model's exact ties — e.g. dvfs-inert pairs at high load — count
    // against agreement). Cross-rate ordering is deliberately not
    // pinned: the ondemand governor makes p99 non-monotone in load
    // (finding 3), and the model and the DES disagree on the magnitude
    // of that dip while agreeing on the per-load ranking that drives
    // screening decisions.
    for (level, &rps) in GRID_RPS.iter().enumerate() {
        let tau = kendall_tau(
            &analytic_p99[level * 16..(level + 1) * 16],
            &des[level * 16..(level + 1) * 16],
        );
        println!("kendall tau at {rps} rps: {tau:.4}");
        assert!(tau >= 0.60, "rank agreement collapsed at {rps} rps: tau {tau:.4}");
    }

    // (b) Bounded relative p99 error in the stable regime. The model's
    // smooth two-moment approximation sits systematically below the
    // DES tail (the simulator has burst and scheduling noise the
    // closed form cannot see); the oracle pins the error band, not
    // exactness — a drift past it means the model and simulator have
    // diverged.
    let mut worst = 0.0f64;
    for i in 0..64 {
        if utilizations[i] < 0.70 {
            let rel = (analytic_p99[i] - des[i]).abs() / des[i];
            worst = worst.max(rel);
        }
    }
    println!("worst stable-regime relative p99 error: {worst:.4}");
    assert!(
        worst < 0.60,
        "stable-regime p99 error out of band: {worst:.4}"
    );

    // (c) Screen recall at each rate: every cell whose *measured* tail
    // effect clearly exceeds the screen threshold must be flagged.
    // The slack keeps DES sampling noise from flipping the oracle.
    let threshold = 0.15;
    let slack = 0.15;
    for (level, &rps) in GRID_RPS.iter().enumerate() {
        let config = grid_config(rps);
        let plan = screen_hardware(&config, threshold).expect("screen runs");
        let des_level = &des[level * 16..(level + 1) * 16];
        let baseline = des_level.iter().copied().fold(f64::INFINITY, f64::min);
        for (cell, &measured) in des_level.iter().enumerate() {
            let effect = measured / baseline - 1.0;
            if effect >= threshold + slack {
                assert!(
                    plan.cells[cell].flagged,
                    "screen dropped a DES-significant cell: rps {rps}, cell {cell}, \
                     DES effect {effect:.3}"
                );
            }
        }
    }
}

/// The screen ranks mcrouter's hardware cells as the DES does at a light
/// and a heavy load: per-load Kendall tau over the 16 cells. The bounds
/// come from seven seeds (1–6 and 2016) of this configuration, where
/// tau read 0.88–0.95 at 150k rps and 0.80–0.97 at 600k; a screen fed
/// a stand-in demand (CV² 1, half of it CPU work, 128/256-byte
/// messages) instead of mcrouter's CV² 0.48 and CPU share 0.90 read at
/// most 0.78 and 0.72.
#[test]
fn mcrouter_screen_ranks_cells_as_the_des_does() {
    for (rps, bound) in [(150_000.0, 0.85), (600_000.0, 0.75)] {
        let config = LoadTestConfig::from_json(&format!(
            r#"{{"workload": {{"workload": "mcrouter"}},
                "target_rps": {rps},
                "clients": 4,
                "connections_per_client": 8,
                "duration_ms": 150,
                "warmup_ms": 30,
                "seed": 2016}}"#
        ))
        .expect("mcrouter config is valid");
        let (analytic, des): (Vec<f64>, Vec<f64>) = (0..16)
            .map(|cell| {
                let hw = HardwareConfig::from_index(cell);
                let pred = predict_cell(&config, hw).expect("analytic prediction");
                (pred.p99_us, des_p99(&config, cell))
            })
            .unzip();
        let tau = kendall_tau(&analytic, &des);
        println!("mcrouter kendall tau at {rps} rps: {tau:.4}");
        assert!(
            tau >= bound,
            "mcrouter rank agreement at {rps} rps: tau {tau:.4} < {bound}"
        );
    }
}

/// Acceptance scenario: over a 2^5 factor space (the 4 hardware factors
/// × a load factor), the analytic screen flags few enough cells that a
/// screened sweep runs ≥5× fewer DES cells than full-factorial — and an
/// attribution fitted on only the screened-in hardware cells still
/// flags the same dominant factor as the full 16-cell fit.
#[test]
fn screened_sweep_keeps_the_dominant_factor() {
    // Stage 1: screen the 2^5 space analytically. Factor 5 ("load")
    // switches the arrival rate; bits 0-3 are the hardware factors.
    let low_rps = 350_000.0;
    let high_rps = 700_000.0;
    let plan = screen_cells(
        &["numa", "turbo", "dvfs", "nic", "load"],
        0.23,
        |levels: &[bool], _| {
            let rps = if levels[4] { high_rps } else { low_rps };
            let hw_index = levels[..4]
                .iter()
                .enumerate()
                .fold(0usize, |acc, (b, &on)| acc | (usize::from(on) << b));
            predict_cell(&grid_config(rps), HardwareConfig::from_index(hw_index))
        },
    )
    .expect("screen runs");
    println!("2^5 screen flagged {:?} of 32", plan.flagged);
    assert!(
        !plan.flagged.is_empty() && plan.flagged.len() * 5 <= 32,
        "screen must cut the DES bill ≥5×: flagged {} of 32",
        plan.flagged.len()
    );

    // Stage 2: DES the full 16-cell factorial once (the reference), and
    // refit on only the hardware cells a coarser screen keeps.
    let plan16 = screen_hardware(&grid_config(high_rps), 0.05).expect("screen runs");
    assert!(
        plan16.flagged.len() < 16,
        "hardware screen kept everything; acceptance needs a real cut"
    );
    let dataset = collect(&CollectionPlan {
        runs_per_config: 2,
        samples_per_run: 2_000,
        clients: 2,
        duration: SimDuration::from_millis(60),
        warmup: SimDuration::from_millis(15),
        seed: 2016,
        ..CollectionPlan::new(Arc::new(Memcached::default()), high_rps)
    });
    // "Same dominant factors" is judged on a shared estimand: the
    // paper's average per-factor impact (Figure 8), which both the
    // saturated and the reduced-order model can answer. Comparing raw
    // coefficients would compare different quantities — a saturated
    // dummy-coded main effect is the effect with everything else low,
    // an order-1 fit's is the average effect.
    let dominant = |result: &treadmill::inference::AttributionResult| -> Vec<&'static str> {
        let mut impacts = treadmill::inference::average_factor_impacts(result);
        impacts.sort_by(|a, b| {
            b.average_impact_us.abs().total_cmp(&a.average_impact_us.abs())
        });
        impacts.iter().take(2).map(|i| i.factor).collect()
    };
    let full = attribute(&dataset, 0.99, 100, 7);
    let screened = Dataset {
        cells: (0..16)
            .filter(|&i| plan16.cells[i].flagged)
            .map(|i| dataset.cells[i].clone())
            .collect(),
        target_rps: dataset.target_rps,
        workload_name: dataset.workload_name.clone(),
    };
    let graceful = attribute_graceful(&screened, 0.99, 100, 7);
    assert!(graceful.degraded, "subset fit must take the graceful path");
    let mut full_top = dominant(&full);
    let mut screened_top = dominant(&graceful.result);
    println!("dominant factors: full {full_top:?}, screened {screened_top:?}");
    full_top.sort_unstable();
    screened_top.sort_unstable();
    assert_eq!(
        full_top, screened_top,
        "screening changed the attribution headline"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Metamorphic: predicted p99 is monotone in arrival rate under the
    /// performance governor (dvfs high), where the clock is pinned and
    /// more load can only mean more queueing. The restriction is the
    /// physics, not a cop-out: under ondemand the model reproduces
    /// finding 3 — light load parks the clock low, so p99 legitimately
    /// *falls* as load wakes the governor up.
    #[test]
    fn analytic_p99_is_monotone_in_rate(
        cell in 0usize..16,
        low_rps in 50_000.0f64..400_000.0,
        step in 50_000.0f64..350_000.0,
    ) {
        let hw = HardwareConfig::from_index(cell | 0b0100);
        let a = predict_cell(&grid_config(low_rps), hw).unwrap();
        let b = predict_cell(&grid_config(low_rps + step), hw).unwrap();
        prop_assert!(
            b.p99_us >= a.p99_us - 1e-6,
            "p99 fell with load: {} -> {} (cell {cell})", a.p99_us, b.p99_us
        );
    }

    /// Metamorphic: relabeling (permuting) the factors permutes the
    /// flagged set through the bit mapping but changes nothing else.
    #[test]
    fn screen_is_invariant_under_factor_relabeling(
        rot in 1usize..4,
        threshold in 0.0f64..0.5,
    ) {
        let names = ["numa", "turbo", "dvfs", "nic"];
        let config = grid_config(700_000.0);
        let predict = |levels: &[bool]| {
            let index = names
                .iter()
                .enumerate()
                .fold(0usize, |acc, (canon, &_)| acc | (usize::from(levels[canon]) << canon));
            predict_cell(&config, HardwareConfig::from_index(index))
        };
        let base = screen_cells(&names, threshold, |levels, _| predict(levels)).unwrap();

        // Rotated factor order: bit b of a rotated index is the level
        // of factor (b + rot) % 4.
        let rotated_names: Vec<&str> = (0..4).map(|b| names[(b + rot) % 4]).collect();
        let rotated = screen_cells(&rotated_names, threshold, |levels, _| {
            let mut canonical = [false; 4];
            for (b, &on) in levels.iter().enumerate() {
                canonical[(b + rot) % 4] = on;
            }
            predict(&canonical)
        })
        .unwrap();

        let map_back = |index: usize| -> usize {
            (0..4).fold(0usize, |acc, b| {
                acc | (usize::from(index & (1 << b) != 0) << ((b + rot) % 4))
            })
        };
        let mut remapped: Vec<usize> = rotated.flagged.iter().map(|&i| map_back(i)).collect();
        remapped.sort_unstable();
        prop_assert_eq!(&remapped, &base.flagged, "flagged set moved under relabeling");
        for cell in &rotated.cells {
            let canon = &base.cells[map_back(cell.index)];
            prop_assert_eq!(cell.p99_us, canon.p99_us);
            prop_assert_eq!(cell.flagged, canon.flagged);
        }
    }

    /// Metamorphic: the screen is bit-identical run to run (no RNG, no
    /// clocks, no iteration-order hazards).
    #[test]
    fn screen_is_deterministic(rps in 100_000.0f64..800_000.0, threshold in 0.0f64..0.5) {
        let config = grid_config(rps);
        let a = screen_hardware(&config, threshold).unwrap();
        let b = screen_hardware(&config, threshold).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Cross-check: the analytic closed-form censoring prediction must
    /// agree exactly with `omission::correct_with_censored` on sample
    /// count and reliability rank. Integer-valued inputs keep the
    /// implementation's repeated subtraction exact, so the agreement is
    /// arithmetic, not approximate.
    #[test]
    fn censoring_prediction_matches_omission_correction(
        observed in prop::collection::vec(1u32..5_000, 0..40),
        censored in prop::collection::vec(1u32..20_000, 0..10),
        interval in 1u32..500,
    ) {
        let observed: Vec<f64> = observed.into_iter().map(f64::from).collect();
        let censored: Vec<f64> = censored.into_iter().map(f64::from).collect();
        let interval = f64::from(interval);
        let predicted = censoring_prediction(&observed, &censored, interval).unwrap();
        let corrected =
            treadmill::core::omission::correct_with_censored(&observed, &censored, interval);
        prop_assert_eq!(predicted.corrected_count, corrected.corrected.len());
        prop_assert!(
            (predicted.reliable_below - corrected.reliable_below).abs() < 1e-12,
            "reliability rank diverged: {} vs {}",
            predicted.reliable_below,
            corrected.reliable_below
        );
    }
}
