//! Runtime invariant auditing.
//!
//! A long simulation that silently corrupts its bookkeeping produces
//! quantiles that *look* plausible — the worst failure mode for a
//! measurement tool. This module provides cheap conservation and
//! monotonicity checks that a stepped run can execute periodically
//! (e.g. at every checkpoint) and that [`crate::extract_result`] runs
//! once at completion. Findings are returned as human-readable strings
//! and surface through the report layer's health warnings.
//!
//! Invariants checked:
//!
//! 1. **Request conservation** — every injected request is either
//!    delivered, abandoned, or still in flight:
//!    `injected == completed + failed + outstanding`.
//! 2. **In-flight tracking** — with a retry policy active, the
//!    outstanding counter equals the total size of the per-client
//!    tracking maps.
//! 3. **Time monotonicity** — no pending event is scheduled before the
//!    engine clock, and no recorded delivery is in the future.
//! 4. **Queue bound** — the pending-event count stays under a
//!    caller-supplied ceiling (a runaway feedback loop grows the heap
//!    without bound long before it exhausts memory).
//! 5. **Outbox drained** — audits run at synchronization-round
//!    boundaries, where a world's cross-shard outbox must be empty
//!    (see [`crate::ShardedCluster`]).
//!
//! [`audit_sharded`] additionally checks **cross-shard conservation**:
//! every message one shard emitted was injected into another.
//!
//! Checkpoint *integrity* (checksum + version) is verified separately
//! by [`treadmill_sim_core::snapshot::open`] on every restore.

use treadmill_sim_core::Engine;

use crate::shard::ShardedCluster;
use crate::world::ClusterWorld;

/// Runs all invariant checks against a live engine, returning one
/// finding per violated invariant (empty = healthy). `max_pending`
/// bounds the event heap; pass `usize::MAX` to skip the bound check.
pub fn audit_invariants(engine: &Engine<ClusterWorld>, max_pending: usize) -> Vec<String> {
    let mut findings = Vec::new();
    let world = engine.world();
    let now = engine.now();

    // 1. Request conservation.
    let completed: u64 = world.clients.iter().map(|c| c.records.len() as u64).sum();
    let failed: u64 = world.clients.iter().map(|c| c.failures.len() as u64).sum();
    let settled = completed + failed + u64::from(world.outstanding);
    if settled != world.next_id {
        findings.push(format!(
            "request conservation violated: {} injected but {completed} completed + \
             {failed} failed + {} outstanding = {settled}",
            world.next_id, world.outstanding
        ));
    }

    // 2. In-flight tracking agrees with the outstanding counter.
    if world.tracks_in_flight() {
        let tracked: u64 = world.clients.iter().map(|c| c.in_flight.len() as u64).sum();
        if tracked != u64::from(world.outstanding) {
            findings.push(format!(
                "in-flight tracking skewed: maps hold {tracked} requests but the \
                 outstanding counter says {}",
                world.outstanding
            ));
        }
    }

    // 3. Time monotonicity: queue head and recorded deliveries.
    if let Some(head) = engine.queue().peek_time() {
        if head < now {
            findings.push(format!(
                "event heap head at {}ns predates the clock at {}ns",
                head.as_nanos(),
                now.as_nanos()
            ));
        }
    }
    for (i, client) in world.clients.iter().enumerate() {
        if let Some(last) = client.records.iter().last() {
            if last.t_delivered > now {
                findings.push(format!(
                    "client {i} recorded a delivery at {}ns, after the clock at {}ns",
                    last.t_delivered.as_nanos(),
                    now.as_nanos()
                ));
            }
        }
    }

    // 4. Queue bound.
    let pending = engine.pending_events();
    if pending > max_pending {
        findings.push(format!(
            "event heap holds {pending} pending events, over the {max_pending} bound"
        ));
    }

    // 5. Outbox drained: audits happen at round boundaries, where the
    // executor has already moved every cross-shard message.
    if !world.shard.outbox.is_empty() {
        findings.push(format!(
            "shard outbox holds {} undrained cross-shard messages at an audit point",
            world.shard.outbox.len()
        ));
    }

    findings
}

/// Audits every shard of a [`ShardedCluster`] (findings prefixed with
/// the shard index) plus the cross-shard conservation invariant: the
/// total of messages shards emitted must equal the total injected.
pub fn audit_sharded(cluster: &ShardedCluster, max_pending: usize) -> Vec<String> {
    let mut findings = Vec::new();
    let mut sent_total = 0u64;
    let mut received_total = 0u64;
    for i in 0..cluster.n_shards() {
        let engine = cluster.engine(i);
        for f in audit_invariants(&engine, max_pending) {
            findings.push(format!("shard {i}: {f}"));
        }
        sent_total += engine.world().shard.sent;
        received_total += engine.world().shard.received;
    }
    if sent_total != received_total {
        findings.push(format!(
            "cross-shard conservation violated: {sent_total} messages emitted but \
             {received_total} injected"
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientSpec;
    use crate::source::{InterArrival, OpenLoopSource};
    use crate::world::ClusterBuilder;
    use std::sync::Arc;
    use treadmill_sim_core::SimDuration;
    use treadmill_workloads::Memcached;

    fn builder() -> ClusterBuilder {
        ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(21)
            .client(
                ClientSpec::default(),
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential { rate_rps: 150_000.0 },
                    16,
                )),
            )
            .duration(SimDuration::from_millis(30))
    }

    #[test]
    fn healthy_run_audits_clean_at_every_stage() {
        let mut engine = builder().build();
        loop {
            assert_eq!(
                audit_invariants(&engine, usize::MAX),
                Vec::<String>::new(),
                "violation mid-run at {} events",
                engine.events_executed()
            );
            if engine.run_events(2_000) == 0 {
                break;
            }
        }
        assert!(audit_invariants(&engine, usize::MAX).is_empty());
    }

    #[test]
    fn finished_run_result_carries_no_findings() {
        let result = builder().run();
        assert!(result.audit_findings.is_empty(), "{:?}", result.audit_findings);
    }

    #[test]
    fn conservation_violation_is_reported_only_when_audited() {
        // Negative control: skew the counter, finish WITHOUT auditing —
        // the run completes silently and its records look plausible.
        let mut engine = builder().build();
        engine.run_events(5_000);
        engine.world_mut().debug_skew_outstanding(3);
        engine.run_to_completion();
        let silent_responses = {
            let world = engine.world();
            world.clients.iter().map(|c| c.records.len()).sum::<usize>()
        };
        assert!(silent_responses > 1_000, "corrupted run still 'works'");

        // The auditor catches the same corruption.
        let findings = audit_invariants(&engine, usize::MAX);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("conservation"), "{findings:?}");
    }

    #[test]
    fn skewed_run_surfaces_findings_in_result() {
        let mut engine = builder().build();
        engine.run_events(5_000);
        engine.world_mut().debug_skew_outstanding(2);
        engine.run_to_completion();
        let result = crate::world::extract_result(engine);
        assert_eq!(result.audit_findings.len(), 1, "{:?}", result.audit_findings);
    }

    #[test]
    fn queue_bound_violation_reported() {
        let mut engine = builder().build();
        engine.run_events(1_000);
        let pending = engine.pending_events();
        assert!(pending > 1);
        let findings = audit_invariants(&engine, pending - 1);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("pending events"), "{findings:?}");
    }
}
