//! Deterministic edge-case tests for the retry/hedging machinery
//! (PR 3): duplicate-completion suppression, exact retry-exhaustion
//! timing, and crash-window resets racing hedged sends. All runs are
//! seeded, so every assertion is exact and reproducible.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use std::collections::BTreeSet;
use std::sync::Arc;

use treadmill_cluster::{
    ClientSpec, ClusterBuilder, FailureKind, FaultSpec, InterArrival, OpenLoopSource,
    RetryPolicy, RunResult,
};
use treadmill_sim_core::SimDuration;
use treadmill_workloads::Memcached;

fn run(seed: u64, faults: Option<FaultSpec>, policy: RetryPolicy) -> RunResult {
    let mut builder = ClusterBuilder::new(Arc::new(Memcached::default()))
        .seed(seed)
        .client(
            ClientSpec::default(),
            Box::new(OpenLoopSource::new(InterArrival::Exponential { rate_rps: 80_000.0 }, 16)),
        )
        .duration(SimDuration::from_millis(30))
        .retry_policy(policy);
    if let Some(spec) = faults {
        builder = builder.faults(spec);
    }
    builder.run()
}

/// Every record and failure settles a distinct logical request: a
/// request id appears at most once across both lists.
fn assert_ids_settle_once(result: &RunResult) {
    let mut seen = BTreeSet::new();
    for rec in result.client_records.iter().flatten() {
        assert!(seen.insert(rec.id), "request {:?} recorded twice", rec.id);
    }
    for f in result.client_failures.iter().flatten() {
        assert!(
            seen.insert(f.id),
            "request {:?} both completed and failed",
            f.id
        );
    }
}

#[test]
fn hedge_where_both_copies_complete_settles_once() {
    // No faults and a hedge delay well below typical end-to-end latency:
    // nearly every request is hedged and BOTH copies come back. The
    // first delivery must settle the logical request; the loser of the
    // race must be swallowed without touching records or counters.
    let policy = RetryPolicy {
        hedge_after_us: 30.0,
        ..RetryPolicy::default()
    };
    let result = run(11, None, policy);

    assert!(
        result.fault_summary.hedges > 100,
        "hedge delay below typical latency should hedge aggressively, got {}",
        result.fault_summary.hedges
    );
    // Both copies complete (no loss anywhere), yet nothing fails and
    // nothing double-counts.
    assert_eq!(result.total_failures(), 0);
    assert_eq!(result.fault_summary.timeouts, 0);
    assert_eq!(result.fault_summary.retries, 0);
    assert_ids_settle_once(&result);
    assert!(
        result.audit_findings.is_empty(),
        "auditor flagged: {:?}",
        result.audit_findings
    );
    // The latency origin of a hedged completion is the FIRST attempt's
    // generation time, so no latency can undercut the pre-hedge floor.
    for rec in result.client_records.iter().flatten() {
        assert!(rec.t_delivered > rec.t_generated);
    }
}

#[test]
fn retry_exhaustion_lands_exactly_on_the_timeout_boundary() {
    // Total uplink loss: no attempt ever reaches the server, so every
    // request walks the full timeout/backoff ladder and is abandoned.
    // With jitter disabled the ladder is exact arithmetic:
    //   3 timeouts of 500us + backoffs of 100us and 200us = 1800us.
    let policy = RetryPolicy {
        timeout_us: 500.0,
        max_retries: 2,
        backoff_base_us: 100.0,
        backoff_factor: 2.0,
        jitter_frac: 0.0,
        hedge_after_us: 0.0,
    };
    let faults = FaultSpec {
        uplink_loss: 1.0,
        ..FaultSpec::default()
    };
    let result = run(12, Some(faults), policy);

    assert_eq!(result.total_responses(), 0, "total loss must answer nothing");
    let failures: Vec<_> = result.client_failures.iter().flatten().collect();
    assert!(!failures.is_empty());
    for f in &failures {
        assert_eq!(f.kind, FailureKind::TimedOut);
        assert_eq!(f.attempts, 3, "initial send + max_retries attempts");
        assert_eq!(
            f.censored_latency_us(),
            1800.0,
            "request {:?} abandoned off the exact boundary",
            f.id
        );
    }
    let n = failures.len() as u64;
    // Exactly one timeout per attempt and one retry per backoff rung —
    // no stray timer fires for superseded attempts.
    assert_eq!(result.fault_summary.timeouts, 3 * n);
    assert_eq!(result.fault_summary.retries, 2 * n);
    assert_eq!(result.fault_summary.uplink_drops, 3 * n);
    assert_ids_settle_once(&result);
    assert!(
        result.audit_findings.is_empty(),
        "auditor flagged: {:?}",
        result.audit_findings
    );
}

#[test]
fn crash_window_reset_racing_a_hedge_stays_conserved() {
    // Crash windows long enough to reset in-flight attempts while the
    // hedge timer is armed: a request's original copy can be RST by a
    // down server while its hedged duplicate is still on the wire (or
    // completes first). Whatever interleaving the seed produces, each
    // logical request must settle exactly once and the conservation
    // auditor must stay quiet.
    let policy = RetryPolicy {
        timeout_us: 2_000.0,
        max_retries: 2,
        backoff_base_us: 100.0,
        backoff_factor: 2.0,
        jitter_frac: 0.25,
        hedge_after_us: 120.0,
    };
    let faults = FaultSpec {
        crash_rate_hz: 400.0,
        crash_downtime_us: 500.0,
        ..FaultSpec::default()
    };
    let result = run(13, Some(faults), policy);

    // The scenario actually has to occur: crashes happened, resets were
    // observed, and hedges were in play at the same time.
    assert!(result.fault_summary.crashes > 0, "no crash window fired");
    assert!(
        result.fault_summary.resets > 0,
        "no RST observed despite {} crashes",
        result.fault_summary.crashes
    );
    assert!(result.fault_summary.hedges > 0, "no hedges sent");
    assert!(
        result.total_responses() > 0,
        "hedges/retries should rescue most requests"
    );
    assert_ids_settle_once(&result);
    for f in result.client_failures.iter().flatten() {
        assert!(
            f.attempts <= 3,
            "request {:?} exceeded the retry budget: {} attempts",
            f.id,
            f.attempts
        );
    }
    assert!(
        result.audit_findings.is_empty(),
        "auditor flagged: {:?}",
        result.audit_findings
    );
}

#[test]
fn edge_case_runs_are_seed_stable() {
    // The three scenarios above are only trustworthy if re-running the
    // same seed reproduces the same interleaving bit-for-bit.
    let policy = RetryPolicy {
        timeout_us: 2_000.0,
        max_retries: 2,
        hedge_after_us: 120.0,
        ..RetryPolicy::default()
    };
    let faults = FaultSpec {
        crash_rate_hz: 400.0,
        crash_downtime_us: 500.0,
        ..FaultSpec::default()
    };
    let a = run(13, Some(faults), policy);
    let b = run(13, Some(faults), policy);
    assert_eq!(a.fault_summary, b.fault_summary);
    assert_eq!(a.total_responses(), b.total_responses());
    assert_eq!(a.events_executed, b.events_executed);
    let la: Vec<u64> = a
        .client_records
        .iter()
        .flatten()
        .map(|r| r.user_latency_us().to_bits())
        .collect();
    let lb: Vec<u64> = b
        .client_records
        .iter()
        .flatten()
        .map(|r| r.user_latency_us().to_bits())
        .collect();
    assert_eq!(la, lb, "latency streams must be bit-identical");
}
