//! Human-readable report rendering for load-test results.
//!
//! Produces the operator-facing text block the CLI prints: per-instance
//! table, cross-instance aggregate, ground-truth comparison and basic
//! health checks (client utilisation, completion ratio) — with the
//! §II pitfalls surfaced as warnings when a run trips them.

use std::fmt::Write as _;

use crate::runner::LoadTestReport;

/// Renders a complete text report for one run.
///
/// `target_rps` is used for the completion-ratio health check.
pub fn render_report(report: &LoadTestReport, target_rps: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== per-instance summaries ==");
    for (i, s) in report.per_instance.iter().enumerate() {
        let _ = writeln!(
            out,
            "  instance {i}: {:>8} samples  p50 {:>7.1}us  p95 {:>7.1}us  p99 {:>7.1}us",
            s.count, s.p50, s.p95, s.p99
        );
    }
    let agg = &report.aggregated;
    let _ = writeln!(out, "== aggregate (mean of per-instance metrics) ==");
    let _ = writeln!(
        out,
        "  p50 {:.1}us  p90 {:.1}us  p95 {:.1}us  p99 {:.1}us  p99.9 {:.1}us",
        agg.p50, agg.p90, agg.p95, agg.p99, agg.p999
    );
    if !report.ground_truth.is_empty() {
        let truth50 = report.ground_truth.quantile_us(0.5);
        let truth99 = report.ground_truth.quantile_us(0.99);
        let _ = writeln!(out, "== ground truth (NIC-to-NIC) ==");
        let _ = writeln!(
            out,
            "  p50 {truth50:.1}us  p99 {truth99:.1}us  (user-space offset {:.1}us / {:.1}us)",
            agg.p50 - truth50,
            agg.p99 - truth99
        );
    }
    let _ = writeln!(out, "== health ==");
    let ratio = report.completion_ratio(target_rps);
    let _ = writeln!(out, "  completion ratio: {:.3}", ratio);
    for warning in health_warnings(report, target_rps) {
        let _ = writeln!(out, "  WARNING: {warning}");
    }
    out
}

/// Checks a run for the §II pitfalls an operator can actually detect
/// from the measurements themselves.
pub fn health_warnings(report: &LoadTestReport, target_rps: f64) -> Vec<String> {
    let mut warnings = Vec::new();
    let ratio = report.completion_ratio(target_rps);
    if ratio < 0.95 {
        warnings.push(format!(
            "only {:.0}% of the offered load completed within the run — the tester or \
             server cannot sustain this rate",
            ratio * 100.0
        ));
    }
    for (i, &util) in report.run.client_cpu_utilization.iter().enumerate() {
        if util > 0.5 {
            warnings.push(format!(
                "client {i} CPU at {:.0}% — client-side queueing is biasing the \
                 measurement (§II-C); add client machines",
                util * 100.0
            ));
        }
    }
    // Per-instance p99 spread: one deviant instance signals a topology
    // outlier (§II-B, the cross-rack client of Figure 2).
    if report.per_instance.len() >= 3 {
        let p99s: Vec<f64> = report.per_instance.iter().map(|s| s.p99).collect();
        let mean = p99s.iter().sum::<f64>() / p99s.len() as f64;
        for (i, &p99) in p99s.iter().enumerate() {
            if p99 > mean * 1.5 {
                warnings.push(format!(
                    "instance {i}'s p99 ({p99:.0}us) is >1.5x the instance mean \
                     ({mean:.0}us) — check its placement before aggregating (§II-B)"
                ));
            }
        }
    }
    let measured = report.aggregated.count;
    if measured < 10_000 {
        warnings.push(format!(
            "only {measured} measurement samples — tail estimates above p99 are \
             unreliable; lengthen the run"
        ));
    }
    let loss = report.loss_fraction();
    if loss > 0.01 {
        warnings.push(format!(
            "{:.1}% of requests were abandoned (timeouts/resets) — reported \
             quantiles in the censored tail are lower bounds; see \
             omission::correct_with_censored",
            loss * 100.0
        ));
    }
    for finding in &report.run.audit_findings {
        warnings.push(format!(
            "invariant auditor: {finding} — treat this run's numbers as corrupt"
        ));
    }
    let faults = &report.run.fault_summary;
    if !faults.is_quiet() {
        warnings.push(format!(
            "fault injection active: {} drops, {} crashes, {} stalls, {} retries, \
             {} hedges — latencies include injected faults",
            faults.total_drops(),
            faults.crashes,
            faults.stalls,
            faults.retries,
            faults.hedges
        ));
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LoadTest;
    use std::sync::Arc;
    use treadmill_cluster::ClientSpec;
    use treadmill_sim_core::SimDuration;
    use treadmill_workloads::Memcached;

    fn healthy_report() -> (LoadTestReport, f64) {
        let rps = 200_000.0;
        let report = LoadTest::new(Arc::new(Memcached::default()), rps)
            .clients(4)
            .duration(SimDuration::from_millis(150))
            .warmup(SimDuration::from_millis(30))
            .seed(3)
            .run(0);
        (report, rps)
    }

    #[test]
    fn healthy_run_renders_without_warnings() {
        let (report, rps) = healthy_report();
        let text = render_report(&report, rps);
        assert!(text.contains("per-instance summaries"));
        assert!(text.contains("ground truth"));
        assert!(!text.contains("WARNING"), "unexpected warnings:\n{text}");
        assert!(health_warnings(&report, rps).is_empty());
    }

    #[test]
    fn overloaded_client_is_flagged() {
        let rps = 400_000.0;
        // One heavy client: per-op 4us × 2 ops × 400k = 3.2x a core.
        let report = LoadTest::new(Arc::new(Memcached::default()), rps)
            .clients(1)
            .client_spec(ClientSpec {
                send_cpu_ns: 4_000.0,
                recv_cpu_ns: 4_000.0,
                ..Default::default()
            })
            .duration(SimDuration::from_millis(120))
            .warmup(SimDuration::from_millis(30))
            .seed(4)
            .run(0);
        let warnings = health_warnings(&report, rps);
        assert!(
            warnings.iter().any(|w| w.contains("client-side queueing")),
            "expected a §II-C warning, got {warnings:?}"
        );
        assert!(
            warnings.iter().any(|w| w.contains("cannot sustain")),
            "expected a completion warning, got {warnings:?}"
        );
    }

    #[test]
    fn faulty_run_is_flagged() {
        use treadmill_cluster::{FaultSpec, RetryPolicy};
        let rps = 150_000.0;
        let report = LoadTest::new(Arc::new(Memcached::default()), rps)
            .clients(4)
            .duration(SimDuration::from_millis(150))
            .warmup(SimDuration::from_millis(30))
            .faults(FaultSpec {
                uplink_loss: 0.05,
                ..Default::default()
            })
            .retry_policy(RetryPolicy {
                timeout_us: 2_000.0,
                max_retries: 1,
                ..Default::default()
            })
            .seed(6)
            .run(0);
        let warnings = health_warnings(&report, rps);
        assert!(
            warnings.iter().any(|w| w.contains("fault injection active")),
            "expected a fault warning, got {warnings:?}"
        );
    }

    #[test]
    fn short_run_is_flagged() {
        let rps = 100_000.0;
        let report = LoadTest::new(Arc::new(Memcached::default()), rps)
            .clients(2)
            .duration(SimDuration::from_millis(40))
            .warmup(SimDuration::from_millis(30))
            .seed(5)
            .run(0);
        let warnings = health_warnings(&report, rps);
        // The count is the measurement window's records, warm-up cut at
        // its exact boundary.
        let warmup = treadmill_sim_core::SimTime::ZERO + SimDuration::from_millis(30);
        let measured = report
            .run
            .all_records()
            .filter(|r| r.t_generated >= warmup)
            .count();
        let expected = format!("only {measured} measurement samples");
        assert!(
            warnings.iter().any(|w| w.starts_with(&expected)),
            "expected {expected:?}, got {warnings:?}"
        );
    }

    #[test]
    fn each_audit_finding_is_reported_once() {
        let (mut report, rps) = healthy_report();
        let finding = "core 3 busy with an empty queue".to_string();
        report.run.audit_findings.push(finding);
        let warnings = health_warnings(&report, rps);
        assert_eq!(
            warnings,
            ["invariant auditor: core 3 busy with an empty queue — treat this run's numbers \
              as corrupt"]
        );
    }
}
