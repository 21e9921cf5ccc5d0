//! Average per-factor impact (Figures 8 & 10).
//!
//! Because the factors interact, the tail variance cannot simply be
//! decomposed per factor; the paper instead reports, for each factor,
//! the *average* latency change of turning it to high level "assuming
//! each of the other factors have equal probability of being low-level
//! and high-level" (§V-B).

use treadmill_cluster::HardwareConfig;

use crate::attribution::AttributionResult;

/// One bar of Figure 8/10: the average latency change (µs) of raising
/// one factor to its high level.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorImpact {
    /// Factor name.
    pub factor: &'static str,
    /// Average latency change in µs (negative = improvement).
    pub average_impact_us: f64,
}

/// Computes each factor's average impact under the fitted model:
/// the mean over all 8 settings of the other factors of
/// `predict(factor=high) − predict(factor=low)`.
pub fn average_factor_impacts(result: &AttributionResult) -> Vec<FactorImpact> {
    HardwareConfig::factor_names()
        .iter()
        .enumerate()
        .map(|(fi, name)| {
            let mut total = 0.0;
            let mut count = 0;
            for cfg in HardwareConfig::all() {
                // Enumerate configurations where this factor is low;
                // flip it high and diff.
                let levels = cfg.levels();
                if levels[fi] != 0.0 {
                    continue;
                }
                let high_cfg = HardwareConfig::from_index(cfg.index() | (1 << fi));
                total += result.predict(&high_cfg) - result.predict(&cfg);
                count += 1;
            }
            FactorImpact {
                factor: name,
                average_impact_us: total / f64::from(count),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::attribute;
    use crate::dataset::Dataset;
    use treadmill_stats::regression::Cell;

    fn dataset_with(f: impl Fn(&[f64]) -> f64) -> Dataset {
        let cells = (0..16)
            .map(|i| {
                let lv = HardwareConfig::from_index(i).levels();
                let center = f(&lv);
                let runs = vec![
                    (0..50).map(|k| center + (k as f64 - 25.0) / 50.0).collect(),
                    (0..50).map(|k| center + (k as f64 - 25.0) / 60.0).collect(),
                ];
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
    fn additive_effect_reported_exactly() {
        let dataset = dataset_with(|lv| 100.0 + 30.0 * lv[0] - 5.0 * lv[3]);
        let result = attribute(&dataset, 0.5, 10, 1);
        let impacts = average_factor_impacts(&result);
        assert_eq!(impacts.len(), 4);
        assert!((impacts[0].average_impact_us - 30.0).abs() < 1.0, "numa");
        assert!(impacts[1].average_impact_us.abs() < 1.0, "turbo null");
        assert!((impacts[3].average_impact_us + 5.0).abs() < 1.0, "nic");
    }

    #[test]
    fn interaction_averages_over_other_factors() {
        // Effect of numa is +40 only when dvfs is high: average = +20.
        let dataset = dataset_with(|lv| 100.0 + 40.0 * lv[0] * lv[2]);
        let result = attribute(&dataset, 0.5, 10, 2);
        let impacts = average_factor_impacts(&result);
        assert!(
            (impacts[0].average_impact_us - 20.0).abs() < 1.0,
            "numa averaged impact {}",
            impacts[0].average_impact_us
        );
        assert!(
            (impacts[2].average_impact_us - 20.0).abs() < 1.0,
            "dvfs averaged impact {}",
            impacts[2].average_impact_us
        );
    }

    #[test]
    fn each_average_uses_eight_pairs() {
        // Structural check: 16 configs → 8 low-configs per factor.
        let dataset = dataset_with(|_| 100.0);
        let result = attribute(&dataset, 0.5, 10, 3);
        let impacts = average_factor_impacts(&result);
        for impact in impacts {
            assert!(impact.average_impact_us.abs() < 1.0);
        }
    }
}
