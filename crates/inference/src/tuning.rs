//! Tuning validation (Figure 12, §V-E): pick the configuration the
//! attribution recommends, then compare "before" (randomly chosen
//! configurations, as an operator without the analysis would face) vs
//! "after" (the recommended configuration) across many fresh
//! experiments. The paper reports p99 −43% and its standard deviation
//! −93%.

use std::sync::Arc;

use rand::Rng;
use treadmill_cluster::HardwareConfig;
use treadmill_core::LoadTest;
use treadmill_sim_core::{SeedStream, SimDuration};
use treadmill_stats::StreamingStats;
use treadmill_workloads::Workload;

use crate::dataset::run_grid;

/// Parameters of the before/after validation.
#[derive(Debug, Clone)]
pub struct TuningPlan {
    /// Workload under test.
    pub workload: Arc<dyn Workload>,
    /// Target throughput.
    pub target_rps: f64,
    /// Experiments in each arm (the paper uses 100).
    pub experiments: usize,
    /// Treadmill instances per experiment.
    pub clients: usize,
    /// Sending window per experiment.
    pub duration: SimDuration,
    /// Warm-up window.
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl TuningPlan {
    /// Paper-like defaults at the given load.
    pub fn new(workload: Arc<dyn Workload>, target_rps: f64) -> Self {
        TuningPlan {
            workload,
            target_rps,
            experiments: 100,
            clients: 8,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed: 0,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// One arm's distribution of per-experiment percentile estimates.
#[derive(Debug, Clone)]
pub struct ArmSummary {
    /// Per-experiment p50 estimates (µs).
    pub p50s: Vec<f64>,
    /// Per-experiment p99 estimates (µs).
    pub p99s: Vec<f64>,
}

impl ArmSummary {
    /// Mean and standard deviation of the p99 estimates.
    pub fn p99_stats(&self) -> (f64, f64) {
        let stats: StreamingStats = self.p99s.iter().copied().collect();
        (stats.mean(), stats.sample_stddev())
    }

    /// Mean and standard deviation of the p50 estimates.
    pub fn p50_stats(&self) -> (f64, f64) {
        let stats: StreamingStats = self.p50s.iter().copied().collect();
        (stats.mean(), stats.sample_stddev())
    }
}

/// The before/after comparison.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Random-configuration arm.
    pub before: ArmSummary,
    /// Recommended-configuration arm.
    pub after: ArmSummary,
    /// The configuration that was recommended.
    pub recommended: HardwareConfig,
}

impl TuningOutcome {
    /// Fractional reduction in mean p99 (the paper's 43%).
    pub fn p99_reduction(&self) -> f64 {
        let (before, _) = self.before.p99_stats();
        let (after, _) = self.after.p99_stats();
        1.0 - after / before
    }

    /// Fractional reduction in the p99 standard deviation (the paper's
    /// 93%).
    pub fn p99_stddev_reduction(&self) -> f64 {
        let (_, before) = self.before.p99_stats();
        let (_, after) = self.after.p99_stats();
        1.0 - after / before
    }
}

/// Runs both arms: `experiments` runs with random configurations, and
/// `experiments` runs pinned to `recommended`.
pub fn validate(plan: &TuningPlan, recommended: HardwareConfig) -> TuningOutcome {
    let before = run_arm(plan, None, 0x8EF0);
    let after = run_arm(plan, Some(recommended), 0xAF7E);
    TuningOutcome {
        before,
        after,
        recommended,
    }
}

fn run_arm(plan: &TuningPlan, pinned: Option<HardwareConfig>, salt: u64) -> ArmSummary {
    let seeds = SeedStream::new(plan.seed ^ salt);
    let pairs = run_grid(plan.experiments, plan.threads, |i| {
        let hardware = pinned.unwrap_or_else(|| {
            let mut rng = seeds.stream("config-choice", i as u64);
            HardwareConfig::from_index(rng.gen_range(0..16))
        });
        let test = LoadTest::new(Arc::clone(&plan.workload), plan.target_rps)
            .clients(plan.clients)
            .hardware(hardware)
            .duration(plan.duration)
            .warmup(plan.warmup)
            .seed(seeds.derive("tuning-run", i as u64));
        let report = test.run(i as u64);
        (report.aggregated.p50, report.aggregated.p99)
    });
    ArmSummary {
        p50s: pairs.iter().map(|&(p50, _)| p50).collect(),
        p99s: pairs.iter().map(|&(_, p99)| p99).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_workloads::Memcached;

    fn tiny_plan() -> TuningPlan {
        TuningPlan {
            experiments: 8,
            clients: 2,
            duration: SimDuration::from_millis(60),
            warmup: SimDuration::from_millis(20),
            seed: 5,
            threads: 8,
            ..TuningPlan::new(Arc::new(Memcached::default()), 500_000.0)
        }
    }

    #[test]
    fn tuned_arm_beats_random_arm() {
        let plan = tiny_plan();
        // A configuration our simulator physics should favour: local
        // NUMA buffers, turbo on, performance governor.
        let recommended = HardwareConfig::from_index(0b0110);
        let outcome = validate(&plan, recommended);
        assert_eq!(outcome.before.p99s.len(), 8);
        assert_eq!(outcome.after.p99s.len(), 8);
        let reduction = outcome.p99_reduction();
        assert!(
            reduction > 0.0,
            "tuning should reduce mean p99, got {reduction:+.2}"
        );
        let spread_reduction = outcome.p99_stddev_reduction();
        assert!(
            spread_reduction > 0.0,
            "pinning the config should shrink variance, got {spread_reduction:+.2}"
        );
    }

    #[test]
    fn arm_summaries_compute_stats() {
        let arm = ArmSummary {
            p50s: vec![10.0, 12.0],
            p99s: vec![100.0, 120.0],
        };
        let (mean, sd) = arm.p99_stats();
        assert!((mean - 110.0).abs() < 1e-9);
        assert!(sd > 0.0);
        let (mean50, _) = arm.p50_stats();
        assert!((mean50 - 11.0).abs() < 1e-9);
    }
}
