//! The network fabric: per-client uplinks/downlinks, the server's shared
//! NIC ingress/egress, and rack-distance propagation.
//!
//! Links are analytic FIFO queues ([`RateQueue`]): a packet's
//! serialisation time is `bytes / bandwidth` and queueing arises
//! naturally when offered load approaches link capacity. Propagation is
//! a fixed one-way delay that grows with rack distance — the mechanism
//! behind Figure 2's cross-rack outlier client.
//!
//! Each hop is offered at the simulation instant the packet reaches it
//! (the world schedules an event per hop), which keeps every queue's
//! arrival sequence monotone.

use treadmill_sim_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::{RateQueue, SimDuration, SimTime};

use crate::config::NetworkSpec;

/// All network links of one simulated cluster.
#[derive(Debug)]
pub struct Network {
    spec: NetworkSpec,
    client_uplinks: Vec<RateQueue>,
    client_downlinks: Vec<RateQueue>,
    server_ingress: RateQueue,
    server_egress: RateQueue,
    racks: Vec<u8>,
}

impl Network {
    /// Creates the fabric for clients at the given rack distances.
    pub fn new(spec: NetworkSpec, client_racks: &[u8]) -> Self {
        Network {
            spec,
            client_uplinks: client_racks
                .iter()
                .enumerate()
                .map(|(i, _)| RateQueue::new(format!("client{i}-uplink")))
                .collect(),
            client_downlinks: client_racks
                .iter()
                .enumerate()
                .map(|(i, _)| RateQueue::new(format!("client{i}-downlink")))
                .collect(),
            server_ingress: RateQueue::new("server-ingress"),
            server_egress: RateQueue::new("server-egress"),
            racks: client_racks.to_vec(),
        }
    }

    /// The network specification.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// One-way propagation delay for a client.
    pub fn propagation(&self, client: usize) -> SimDuration {
        self.spec.propagation(self.racks[client])
    }

    /// Offers a request packet to `client`'s uplink at `now`; returns
    /// when it has fully left the client NIC (the tcpdump TX stamp).
    pub fn uplink_departure(&mut self, client: usize, now: SimTime, bytes: u32) -> SimTime {
        let tx = self.spec.transmission(bytes);
        self.client_uplinks[client].offer(now, tx).departure
    }

    /// Offers an arriving packet to the server NIC ingress at `now`;
    /// returns when it is in server memory.
    pub fn ingress_departure(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let tx = self.spec.transmission(bytes);
        self.server_ingress.offer(now, tx).departure
    }

    /// Offers a response packet to the server NIC egress at `now`;
    /// returns when it has fully left the server NIC.
    pub fn egress_departure(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let tx = self.spec.transmission(bytes);
        self.server_egress.offer(now, tx).departure
    }

    /// Offers an arriving response to `client`'s downlink at `now`;
    /// returns when it has fully arrived at the client NIC (the tcpdump
    /// RX stamp).
    pub fn downlink_departure(&mut self, client: usize, now: SimTime, bytes: u32) -> SimTime {
        let tx = self.spec.transmission(bytes);
        self.client_downlinks[client].offer(now, tx).departure
    }

    /// Bytes still queued (unserialised) at the server-NIC ingress at
    /// `now` — the backlog a bounded NIC buffer would hold. Computed
    /// in O(1) from the analytic queue's free instant.
    pub fn ingress_backlog_bytes(&self, now: SimTime) -> f64 {
        let backlog = self.server_ingress.free_at().saturating_duration_since(now);
        backlog.as_nanos() as f64 * self.spec.bytes_per_ns
    }

    /// Writes every link queue to a checkpoint, in a fixed order:
    /// uplinks, downlinks, server ingress, server egress.
    pub(crate) fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(2 * self.client_uplinks.len() as u64 + 2);
        let server = [&self.server_ingress, &self.server_egress];
        for link in self
            .client_uplinks
            .iter()
            .chain(&self.client_downlinks)
            .chain(server)
        {
            link.save(w);
        }
    }

    /// Overwrites the link queues with what [`Self::save`] wrote. The
    /// fabric must have been rebuilt with the same client set.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the link count differs from this
    /// fabric's; [`SnapshotError::Truncated`] if the checkpoint ends
    /// early.
    pub(crate) fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        if r.get_u64()? != 2 * self.client_uplinks.len() as u64 + 2 {
            return Err(SnapshotError::Malformed("link count mismatch"));
        }
        let server = [&mut self.server_ingress, &mut self.server_egress];
        for link in self
            .client_uplinks
            .iter_mut()
            .chain(&mut self.client_downlinks)
            .chain(server)
        {
            link.load(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network(racks: &[u8]) -> Network {
        Network::new(NetworkSpec::default(), racks)
    }

    #[test]
    fn uplink_serialisation_time() {
        let mut net = network(&[0]);
        let out = net.uplink_departure(0, SimTime::from_micros(10), 125);
        // 125 B at 1.25 B/ns = 100 ns.
        assert_eq!(out, SimTime::from_nanos(10_100));
    }

    #[test]
    fn cross_rack_propagation_is_longer() {
        let net = network(&[0, 2]);
        assert!(net.propagation(1) > net.propagation(0) + SimDuration::from_micros(30));
    }

    #[test]
    fn saturated_uplink_queues() {
        let mut net = network(&[0]);
        let mut last = SimTime::ZERO;
        for _ in 0..1_000 {
            let out = net.uplink_departure(0, SimTime::from_micros(1), 1_250);
            assert!(out >= last);
            last = out;
        }
        // 1000 × 1us of serialisation.
        assert!(last >= SimTime::from_micros(1_000));
        assert!(net.client_uplinks[0].utilization(last) > 0.95);
    }

    #[test]
    fn shared_ingress_multiplexes() {
        let mut net = network(&[0, 0]);
        let a = net.ingress_departure(SimTime::ZERO, 1_250);
        let b = net.ingress_departure(SimTime::ZERO, 1_250);
        assert!(b > a, "second packet serialises behind the first");
    }

    #[test]
    fn egress_and_downlink() {
        let mut net = network(&[1]);
        let out = net.egress_departure(SimTime::from_micros(5), 250);
        assert!(out > SimTime::from_micros(5));
        let arrival = out + net.propagation(0);
        let done = net.downlink_departure(0, arrival, 250);
        assert!(done > arrival);
        assert!(net.server_egress.utilization(done) > 0.0);
        assert!(net.server_ingress.utilization(done) == 0.0);
    }
}
