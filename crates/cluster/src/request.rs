//! In-flight request state and completed-request records.

use treadmill_sim_core::{SimDuration, SimTime};
use treadmill_workloads::RequestProfile;

/// Globally unique request identifier within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// A request travelling through the simulated cluster. Timestamps fill
/// in as it progresses; they are the raw material for both the load
/// tester's view and the tcpdump ground truth.
#[derive(Debug, Clone)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Originating client index.
    pub client: u32,
    /// Connection index within the client.
    pub conn: u32,
    /// Resource demands.
    pub profile: RequestProfile,
    /// Which attempt this packet carries (0 = first try; retries and
    /// hedges reuse the id with a higher attempt).
    pub attempt: u32,
    /// The shard whose client originated this request (0 in a one-shard
    /// world). A foreign server routes the response back here.
    pub home_shard: u32,
    /// When the load tester initiated the send (user space).
    pub t_generated: SimTime,
    /// When the request packet left the client NIC (tcpdump TX stamp).
    pub t_client_nic_out: SimTime,
    /// When the request packet arrived at the server NIC.
    pub t_server_nic_in: SimTime,
    /// When kernel interrupt processing finished on the server.
    pub t_irq_done: SimTime,
    /// When the worker began servicing the request.
    pub t_service_start: SimTime,
    /// When the response left the server NIC.
    pub t_server_nic_out: SimTime,
    /// When the response arrived at the client NIC (tcpdump RX stamp).
    pub t_client_nic_in: SimTime,
    /// When the response callback ran in the load tester (user space).
    pub t_delivered: SimTime,
}

impl Request {
    /// Creates a request at generation time; later stamps default to the
    /// generation instant until filled in.
    pub fn new(
        id: RequestId,
        client: u32,
        conn: u32,
        profile: RequestProfile,
        t_generated: SimTime,
    ) -> Self {
        Request {
            id,
            client,
            conn,
            profile,
            attempt: 0,
            home_shard: 0,
            t_generated,
            t_client_nic_out: t_generated,
            t_server_nic_in: t_generated,
            t_irq_done: t_generated,
            t_service_start: t_generated,
            t_server_nic_out: t_generated,
            t_client_nic_in: t_generated,
            t_delivered: t_generated,
        }
    }
}

/// The completed-request record a client machine emits; one per request.
///
/// Two latency views matter (§III-C): the **load tester's** user-space
/// view and the **tcpdump** NIC-level ground truth, which excludes
/// client-side queueing and kernel interrupt handling. The paper's
/// Figures 5–6 compare exactly these two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseRecord {
    /// Request id.
    pub id: RequestId,
    /// Originating client.
    pub client: u32,
    /// Connection within the client.
    pub conn: u32,
    /// Attempts used to obtain this response (1 = first try succeeded).
    pub attempts: u32,
    /// When the load tester initiated the send.
    pub t_generated: SimTime,
    /// When the user-space callback observed the response.
    pub t_delivered: SimTime,
    /// tcpdump TX stamp (client NIC out).
    pub t_nic_out: SimTime,
    /// tcpdump RX stamp (client NIC in).
    pub t_nic_in: SimTime,
    /// Time spent inside the server (NIC in → NIC out).
    pub server_time: SimDuration,
    /// Time on the wire + in link queues, both directions.
    pub network_time: SimDuration,
}

impl ResponseRecord {
    /// Builds the record from a fully stamped request.
    pub fn from_request(req: &Request) -> Self {
        let server_time = req
            .t_server_nic_out
            .duration_since(req.t_server_nic_in);
        let network_time = req
            .t_server_nic_in
            .duration_since(req.t_client_nic_out)
            + req.t_client_nic_in.duration_since(req.t_server_nic_out);
        ResponseRecord {
            id: req.id,
            client: req.client,
            conn: req.conn,
            attempts: req.attempt + 1,
            t_generated: req.t_generated,
            t_delivered: req.t_delivered,
            t_nic_out: req.t_client_nic_out,
            t_nic_in: req.t_client_nic_in,
            server_time,
            network_time,
        }
    }

    /// The latency the load tester observes (user space → user space),
    /// in microseconds.
    pub fn user_latency_us(&self) -> f64 {
        self.t_delivered.duration_since(self.t_generated).as_micros_f64()
    }

    /// The tcpdump ground-truth latency (NIC → NIC), in microseconds.
    pub fn nic_latency_us(&self) -> f64 {
        self.t_nic_in.duration_since(self.t_nic_out).as_micros_f64()
    }

    /// Server-side time in microseconds (Fig. 3 decomposition).
    pub fn server_time_us(&self) -> f64 {
        self.server_time.as_micros_f64()
    }

    /// Network time in microseconds (Fig. 3 decomposition).
    pub fn network_time_us(&self) -> f64 {
        self.network_time.as_micros_f64()
    }

    /// Client-side time in microseconds: everything the user-space view
    /// adds over the NIC view (Fig. 3 decomposition).
    pub fn client_time_us(&self) -> f64 {
        (self.user_latency_us() - self.server_time_us() - self.network_time_us()).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_workloads::{OpClass, RequestProfile};

    fn profile() -> RequestProfile {
        RequestProfile {
            class: OpClass::Read,
            request_bytes: 100,
            response_bytes: 200,
            cpu_ns: 10_000.0,
            mem_ns: 4_000.0,
        }
    }

    fn stamped_request() -> Request {
        let mut req = Request::new(
            RequestId(1),
            0,
            3,
            profile(),
            SimTime::from_micros(100),
        );
        req.t_client_nic_out = SimTime::from_micros(110);
        req.t_server_nic_in = SimTime::from_micros(116);
        req.t_irq_done = SimTime::from_micros(118);
        req.t_service_start = SimTime::from_micros(120);
        req.t_server_nic_out = SimTime::from_micros(134);
        req.t_client_nic_in = SimTime::from_micros(140);
        req.t_delivered = SimTime::from_micros(155);
        req
    }

    #[test]
    fn record_latency_views() {
        let rec = ResponseRecord::from_request(&stamped_request());
        assert_eq!(rec.user_latency_us(), 55.0);
        assert_eq!(rec.nic_latency_us(), 30.0);
        assert!(rec.user_latency_us() > rec.nic_latency_us());
    }

    #[test]
    fn decomposition_sums_to_user_latency() {
        let rec = ResponseRecord::from_request(&stamped_request());
        let total = rec.server_time_us() + rec.network_time_us() + rec.client_time_us();
        assert!((total - rec.user_latency_us()).abs() < 1e-9);
        assert_eq!(rec.server_time_us(), 18.0);
        assert_eq!(rec.network_time_us(), 12.0);
        assert_eq!(rec.client_time_us(), 25.0);
    }

    #[test]
    fn fresh_request_has_zero_latency() {
        let req = Request::new(RequestId(0), 0, 0, profile(), SimTime::from_micros(5));
        let rec = ResponseRecord::from_request(&req);
        assert_eq!(rec.user_latency_us(), 0.0);
        assert_eq!(rec.nic_latency_us(), 0.0);
    }
}
