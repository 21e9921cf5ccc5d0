//! Cross-instance statistical aggregation — correct and flawed.
//!
//! The paper's procedure (§III-B): "we first compute the interested
//! metrics from each individual Treadmill instance, and then combine
//! them by applying aggregation functions (e.g., mean, median) on these
//! metrics". The **holistic** alternative — pooling all clients'
//! samples into one distribution and reading quantiles off it — is the
//! §II-B pitfall: a single outlier client (e.g. on another rack)
//! dominates the pooled tail (Figure 2). Both are implemented so the
//! bias can be measured.

use std::borrow::Borrow;

use treadmill_cluster::ResponseRecord;
use treadmill_stats::quantile::quantile_of_sorted;
use treadmill_stats::summary::{aggregate_mean, aggregate_median};
use treadmill_stats::LatencySummary;

/// How to combine per-instance metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationMethod {
    /// Mean of each metric across instances (the paper's default).
    #[default]
    Mean,
    /// Median of each metric across instances (robust to one bad
    /// client).
    Median,
}

/// Aggregates per-instance summaries the correct way.
///
/// # Panics
///
/// Panics if `summaries` is empty.
pub fn aggregate(summaries: &[LatencySummary], method: AggregationMethod) -> LatencySummary {
    match method {
        AggregationMethod::Mean => aggregate_mean(summaries),
        AggregationMethod::Median => aggregate_median(summaries),
    }
}

/// The flawed holistic aggregation: pools every client's samples into a
/// single distribution and summarises that.
///
/// # Panics
///
/// Panics if there are no samples.
pub fn holistic_summary(per_client_latencies: &[Vec<f64>]) -> LatencySummary {
    let pooled: Vec<f64> = per_client_latencies.iter().flatten().copied().collect();
    LatencySummary::from_samples(&pooled)
}

/// One row of the Figure 2 decomposition: at a pooled-distribution
/// quantile, which fraction of the samples *above* that quantile each
/// client contributed.
#[derive(Debug, Clone, PartialEq)]
pub struct TailShareRow {
    /// The pooled quantile, e.g. 0.99.
    pub quantile: f64,
    /// The pooled latency at that quantile (µs).
    pub latency_us: f64,
    /// Per-client share of samples above the quantile; sums to ~1.
    pub shares: Vec<f64>,
}

/// Computes the per-client composition of the pooled tail at each given
/// quantile — the measurement behind Figure 2's "Client 1 dominates the
/// high quantiles". Sorts each client's latencies in place.
///
/// # Panics
///
/// Panics if there are no clients or no samples.
pub fn tail_composition(
    per_client_latencies: &mut [Vec<f64>],
    quantiles: &[f64],
) -> Vec<TailShareRow> {
    assert!(!per_client_latencies.is_empty(), "no clients");
    let mut pooled: Vec<f64> = per_client_latencies.iter().flatten().copied().collect();
    assert!(!pooled.is_empty(), "no samples");
    pooled.sort_by(f64::total_cmp);
    for latencies in per_client_latencies.iter_mut() {
        latencies.sort_by(f64::total_cmp);
    }

    quantiles
        .iter()
        .map(|&q| {
            let cut = quantile_of_sorted(&pooled, q);
            let strictly_above = |s: &Vec<f64>| s.len() - s.partition_point(|&v| v <= cut);
            let at_or_above = |s: &Vec<f64>| s.len() - s.partition_point(|&v| v < cut);
            let mut above: Vec<usize> =
                per_client_latencies.iter().map(strictly_above).collect();
            if above.iter().sum::<usize>() == 0 {
                // The cut equals the maximum (heavy ties): fall back to
                // counting the ties so the shares stay meaningful.
                above = per_client_latencies.iter().map(at_or_above).collect();
            }
            let total: usize = above.iter().sum();
            let shares = above
                .iter()
                .map(|&a| if total == 0 { 0.0 } else { a as f64 / total as f64 })
                .collect();
            TailShareRow {
                quantile: q,
                latency_us: cut,
                shares,
            }
        })
        .collect()
}

/// Extracts user-space latencies (µs) per client from raw records,
/// dropping those generated before the `warmup` instant. The cutoff is
/// exact simulation time — the same boundary every other measurement
/// view uses — so per-client and pooled sample counts always agree.
/// Each client's records are a
/// [`RecordStore`](treadmill_cluster::RecordStore) or a slice.
pub fn latencies_per_client(
    client_records: impl IntoIterator<Item = impl IntoIterator<Item = impl Borrow<ResponseRecord>>>,
    warmup: treadmill_sim_core::SimTime,
) -> Vec<Vec<f64>> {
    client_records
        .into_iter()
        .map(|records| {
            records
                .into_iter()
                .filter(|r| r.borrow().t_generated >= warmup)
                .map(|r| r.borrow().user_latency_us())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_summaries(values: &[f64]) -> Vec<LatencySummary> {
        values
            .iter()
            .map(|&v| LatencySummary::from_samples(&[v; 10]))
            .collect()
    }

    #[test]
    fn mean_and_median_aggregation() {
        let summaries = constant_summaries(&[100.0, 100.0, 100.0, 500.0]);
        let mean = aggregate(&summaries, AggregationMethod::Mean);
        let median = aggregate(&summaries, AggregationMethod::Median);
        assert_eq!(mean.p99, 200.0);
        assert_eq!(median.p99, 100.0);
    }

    #[test]
    fn holistic_pooling_biased_by_outlier_client() {
        // 3 clients at ~100us, 1 cross-rack client at ~400us.
        let per_client: Vec<Vec<f64>> = vec![
            (0..1000).map(|i| 95.0 + (i % 10) as f64).collect(),
            (0..1000).map(|i| 97.0 + (i % 10) as f64).collect(),
            (0..1000).map(|i| 99.0 + (i % 10) as f64).collect(),
            (0..1000).map(|i| 395.0 + (i % 10) as f64).collect(),
        ];
        let holistic = holistic_summary(&per_client);
        let correct_summaries: Vec<LatencySummary> = per_client
            .iter()
            .map(|v| LatencySummary::from_samples(v))
            .collect();
        let correct = aggregate(&correct_summaries, AggregationMethod::Mean);
        // Holistic p99 lands in the outlier client's range; the correct
        // aggregate reflects the average client's p99.
        assert!(holistic.p99 > 390.0, "holistic p99 {}", holistic.p99);
        assert!(correct.p99 < 190.0, "correct p99 {}", correct.p99);
    }

    #[test]
    fn tail_composition_identifies_dominating_client() {
        let mut per_client: Vec<Vec<f64>> = vec![
            (0..1000).map(|i| 100.0 + (i % 20) as f64).collect(),
            (0..1000).map(|i| 100.0 + (i % 20) as f64).collect(),
            (0..1000).map(|i| 380.0 + (i % 40) as f64).collect(),
        ];
        let rows = tail_composition(&mut per_client, &[0.5, 0.9, 0.99]);
        assert_eq!(rows.len(), 3);
        // At the median, client 2 contributes every sample above the cut
        // only if the cut exceeds clients 0/1's range; with 1/3 of mass
        // at 380+, the pooled p50 is inside clients 0/1's range.
        let p99_row = &rows[2];
        assert!(
            p99_row.shares[2] > 0.95,
            "outlier client should own the p99 tail: {:?}",
            p99_row.shares
        );
        let total: f64 = p99_row.shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn composition_shares_sum_to_one_at_every_quantile() {
        let mut per_client: Vec<Vec<f64>> = (0..4)
            .map(|c| (0..500).map(|i| (c * 37 + i % 100) as f64).collect())
            .collect();
        for row in tail_composition(&mut per_client, &[0.1, 0.5, 0.9, 0.95, 0.99]) {
            let total: f64 = row.shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "q {}: {total}", row.quantile);
        }
    }

    #[test]
    #[should_panic(expected = "no clients")]
    fn empty_composition_rejected() {
        tail_composition(&mut [], &[0.5]);
    }
}
