//! The simulated client (load-tester) machine.
//!
//! A client machine is where load-tester *implementation quality* shows
//! up in measurements (§II-C): every send and every response callback
//! consumes client CPU, modelled as an analytic FIFO queue. An efficient
//! tester (Treadmill's lock-free design) keeps per-op cost low; a heavy
//! single-client tester saturates its own CPU long before the server
//! does, and the resulting client-side queueing contaminates the
//! latency it reports.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;

use treadmill_sim_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::{RateQueue, SimDuration, SimTime};
use treadmill_workloads::RequestProfile;

use crate::checkpoint;
use crate::config::ClientSpec;
use crate::fault::FailureRecord;
use crate::records::RecordStore;
use crate::request::RequestId;
use crate::source::TrafficSource;

/// Robust-mode bookkeeping for one logical request awaiting a response.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    /// Connection the request uses (retries stay on it).
    pub conn: u32,
    /// The sampled resource profile (retries resend the same work).
    pub profile: RequestProfile,
    /// When the first attempt was generated — the latency origin for
    /// whichever attempt eventually completes.
    pub t_first: SimTime,
    /// Current attempt number (0 = first try).
    pub attempt: u32,
    /// Whether a hedged duplicate has already been issued.
    pub hedged: bool,
}

/// One client machine hosting a load-tester instance.
#[derive(Debug)]
pub struct ClientMachine {
    /// Machine parameters.
    pub spec: ClientSpec,
    /// The load tester's send-timing logic.
    pub source: Box<dyn TrafficSource>,
    /// Deterministic per-client RNG stream.
    pub rng: SmallRng,
    cpu: RateQueue,
    /// Completed-request records, in delivery order.
    pub records: RecordStore,
    /// Abandoned-request records (timeouts / resets), in failure order.
    pub failures: Vec<FailureRecord>,
    sent: u64,
    /// Keyed by request id. A `BTreeMap` (not `HashMap`) so that any
    /// future iteration over pending requests is seed-stable; robust
    /// mode touches it per request, where the log-depth walk on a
    /// handful of in-flight entries is noise next to the queue model.
    pub(crate) in_flight: BTreeMap<RequestId, InFlight>,
    pub(crate) retries_sent: u64,
    pub(crate) hedges_sent: u64,
    pub(crate) timeouts: u64,
    pub(crate) resets: u64,
}

impl ClientMachine {
    /// Creates idle client machine number `index` of its world.
    pub fn new(
        index: u32,
        spec: ClientSpec,
        source: Box<dyn TrafficSource>,
        rng: SmallRng,
    ) -> Self {
        ClientMachine {
            spec,
            source,
            rng,
            cpu: RateQueue::new("client-cpu"),
            records: RecordStore::new(index),
            failures: Vec::new(),
            sent: 0,
            in_flight: BTreeMap::new(),
            retries_sent: 0,
            hedges_sent: 0,
            timeouts: 0,
            resets: 0,
        }
    }

    /// Runs the user-space send path at `now`: queues on the client CPU
    /// and returns when the packet reaches the NIC (after the fixed
    /// kernel TX cost).
    pub fn tx_ready_at(&mut self, now: SimTime) -> SimTime {
        self.sent += 1;
        let cpu_done = self
            .cpu
            .offer(now, SimDuration::from_nanos_f64(self.spec.send_cpu_ns))
            .departure;
        cpu_done + self.spec.kernel_tx
    }

    /// Runs the user-space receive path for a packet that finished
    /// kernel RX processing at `now`: queues the response callback on
    /// the client CPU and returns when the load tester observes it.
    pub fn rx_delivered_at(&mut self, now: SimTime) -> SimTime {
        self.cpu
            .offer(now, SimDuration::from_nanos_f64(self.spec.recv_cpu_ns))
            .departure
    }

    /// Requests sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Client CPU utilisation over `[0, now]`.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Writes the client's mutable state to a checkpoint: RNG, CPU
    /// queue, counters, in-flight requests and the source's word. The
    /// records stand in as their counts; they travel in record chunks.
    pub(crate) fn save(&self, w: &mut SnapshotWriter) {
        checkpoint::put_rng(w, &self.rng);
        self.cpu.save(w);
        w.put_u64(self.sent);
        w.put_usize(self.records.len());
        w.put_usize(self.failures.len());
        w.put_u64(self.in_flight.len() as u64);
        for (&id, entry) in &self.in_flight {
            w.put_u64(id.0);
            w.put_u32(entry.conn);
            checkpoint::put_profile(w, &entry.profile);
            w.put_time(entry.t_first);
            w.put_u32(entry.attempt);
            w.put_bool(entry.hedged);
        }
        w.put_u64(self.retries_sent);
        w.put_u64(self.hedges_sent);
        w.put_u64(self.timeouts);
        w.put_u64(self.resets);
        w.put_u64(self.source.checkpoint_word());
    }

    /// Overwrites the client with what [`Self::save`] wrote. The client
    /// must already hold the records the checkpoint counts.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the record or failure count
    /// differs from what the client holds, or on an unknown tag;
    /// [`SnapshotError::Truncated`] if the checkpoint ends early.
    pub(crate) fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng = checkpoint::get_rng(r)?;
        self.cpu.load(r)?;
        self.sent = r.get_u64()?;
        let counts = (r.get_usize()?, r.get_usize()?);
        if counts != (self.records.len(), self.failures.len()) {
            return Err(SnapshotError::Malformed(
                "record counts disagree with the restored records",
            ));
        }
        self.in_flight.clear();
        for _ in 0..r.get_u64()? {
            let id = RequestId(r.get_u64()?);
            let entry = InFlight {
                conn: r.get_u32()?,
                profile: checkpoint::get_profile(r)?,
                t_first: r.get_time()?,
                attempt: r.get_u32()?,
                hedged: r.get_bool()?,
            };
            self.in_flight.insert(id, entry);
        }
        self.retries_sent = r.get_u64()?;
        self.hedges_sent = r.get_u64()?;
        self.timeouts = r.get_u64()?;
        self.resets = r.get_u64()?;
        self.source.restore_checkpoint_word(r.get_u64()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{InterArrival, OpenLoopSource};
    use rand::SeedableRng;

    fn machine(send_ns: f64, recv_ns: f64) -> ClientMachine {
        ClientMachine::new(
            0,
            ClientSpec {
                send_cpu_ns: send_ns,
                recv_cpu_ns: recv_ns,
                ..Default::default()
            },
            Box::new(OpenLoopSource::new(InterArrival::Exponential { rate_rps: 1000.0 }, 1)),
            SmallRng::seed_from_u64(1),
        )
    }

    #[test]
    fn tx_includes_kernel_cost() {
        let mut m = machine(800.0, 800.0);
        let ready = m.tx_ready_at(SimTime::from_micros(10));
        // 0.8us cpu + 12us kernel tx.
        assert_eq!(ready, SimTime::from_nanos(10_000 + 800 + 12_000));
        assert_eq!(m.sent(), 1);
    }

    #[test]
    fn heavy_client_queues_on_its_own_cpu() {
        let mut m = machine(4_000.0, 4_000.0);
        // 10 sends in the same microsecond: each queues behind the last.
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let ready = m.tx_ready_at(SimTime::from_micros(1));
            assert!(ready > last);
            last = ready;
        }
        // 10 × 4us = 40us of CPU; the last send waited ~36us.
        assert!(last >= SimTime::from_nanos(1_000 + 40_000 + 12_000));
        assert!(m.cpu.mean_queueing_micros() > 10.0);
    }

    #[test]
    fn rx_and_tx_share_the_cpu() {
        let mut m = machine(4_000.0, 4_000.0);
        let tx = m.tx_ready_at(SimTime::from_micros(1));
        // An RX callback entering right after the send queues behind it.
        let rx = m.rx_delivered_at(SimTime::from_micros(2));
        assert!(rx > SimTime::from_micros(2) + SimDuration::from_nanos(4_000));
        let _ = tx;
    }

    #[test]
    fn light_client_has_negligible_queueing() {
        let mut m = machine(800.0, 800.0);
        for i in 0..100 {
            let _ = m.tx_ready_at(SimTime::from_micros(i * 100));
        }
        assert!(m.cpu.mean_queueing_micros() < 0.01);
        assert!(m.cpu_utilization(SimTime::from_millis(10)) < 0.05);
    }
}
