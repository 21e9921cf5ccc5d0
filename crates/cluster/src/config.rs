//! Cluster configuration: the paper's four hardware factors (Table III)
//! plus server, network and client machine specifications.

use serde::{Deserialize, Serialize};
use std::fmt;
use treadmill_sim_core::SimDuration;

/// A 2-level factor setting, coded exactly like the paper (§V-A): low
/// level is 0, high level is 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Level {
    /// The factor's low level (coded 0).
    #[default]
    Low,
    /// The factor's high level (coded 1).
    High,
}

impl Level {
    /// Numeric coding for regression design matrices.
    pub fn code(self) -> f64 {
        match self {
            Level::Low => 0.0,
            Level::High => 1.0,
        }
    }

    /// True at the high level.
    pub fn is_high(self) -> bool {
        self == Level::High
    }

    /// Builds a level from a bit.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Level::High
        } else {
            Level::Low
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Low => write!(f, "low"),
            Level::High => write!(f, "high"),
        }
    }
}

/// The hardware feature configuration under test — Table III.
///
/// | Factor | Low level | High level |
/// |---|---|---|
/// | NUMA control (`numa`) | same-node | interleave |
/// | Turbo Boost (`turbo`) | off | on |
/// | DVFS governor (`dvfs`) | ondemand | performance |
/// | NIC affinity (`nic`) | same-node | all-nodes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct HardwareConfig {
    /// NUMA memory allocation policy.
    pub numa: Level,
    /// Turbo Boost frequency up-scaling.
    pub turbo: Level,
    /// DVFS governor.
    pub dvfs: Level,
    /// NIC interrupt-queue affinity.
    pub nic: Level,
}

impl HardwareConfig {
    /// The all-low baseline configuration.
    pub fn all_low() -> Self {
        Self::default()
    }

    /// Builds the configuration whose factor bits are the binary digits
    /// of `index` (numa is bit 0, turbo bit 1, dvfs bit 2, nic bit 3),
    /// matching `FactorialDesign::all_configurations` ordering.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < 16, "configuration index {index} out of range");
        HardwareConfig {
            numa: Level::from_bit(index & 1 != 0),
            turbo: Level::from_bit(index & 2 != 0),
            dvfs: Level::from_bit(index & 4 != 0),
            nic: Level::from_bit(index & 8 != 0),
        }
    }

    /// The inverse of [`Self::from_index`].
    pub fn index(&self) -> usize {
        (self.numa.is_high() as usize)
            | (self.turbo.is_high() as usize) << 1
            | (self.dvfs.is_high() as usize) << 2
            | (self.nic.is_high() as usize) << 3
    }

    /// Factor levels as a regression row `[numa, turbo, dvfs, nic]`.
    pub fn levels(&self) -> Vec<f64> {
        vec![
            self.numa.code(),
            self.turbo.code(),
            self.dvfs.code(),
            self.nic.code(),
        ]
    }

    /// The paper's factor names, in the order used by [`Self::levels`].
    pub fn factor_names() -> [&'static str; 4] {
        ["numa", "turbo", "dvfs", "nic"]
    }

    /// All 16 configurations in index order.
    pub fn all() -> Vec<HardwareConfig> {
        (0..16).map(HardwareConfig::from_index).collect()
    }
}

impl fmt::Display for HardwareConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "numa-{},turbo-{},dvfs-{},nic-{}",
            self.numa, self.turbo, self.dvfs, self.nic
        )
    }
}

/// Magnitudes of the per-run hysteresis sources (§II-D). Defaults match
/// the calibrated reproduction; zeroing fields ablates a source (see the
/// `ext05_hysteresis` experiment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HysteresisSpec {
    /// Mean remote-buffer fraction under the `same-node` NUMA policy.
    pub remote_fraction_same_node: f64,
    /// Mean remote-buffer fraction under `interleave`.
    pub remote_fraction_interleave: f64,
    /// Per-run jitter half-width of the remote fraction, `same-node`.
    pub remote_jitter_same_node: f64,
    /// Per-run jitter half-width of the remote fraction, `interleave`.
    pub remote_jitter_interleave: f64,
    /// Half-width of the run-wide service-time factor (the layout /
    /// STABILIZER effect).
    pub service_jitter: f64,
}

impl Default for HysteresisSpec {
    fn default() -> Self {
        HysteresisSpec {
            remote_fraction_same_node: 0.10,
            remote_fraction_interleave: 0.65,
            remote_jitter_same_node: 0.05,
            remote_jitter_interleave: 0.15,
            service_jitter: 0.03,
        }
    }
}

impl HysteresisSpec {
    /// The mean remote-buffer fraction under NUMA policy `numa` (`Low`
    /// is `same-node`, `High` is `interleave`) and the half-width of the
    /// per-run jitter drawn around it.
    pub fn remote_fraction(&self, numa: Level) -> (f64, f64) {
        match numa {
            Level::Low => (self.remote_fraction_same_node, self.remote_jitter_same_node),
            Level::High => (
                self.remote_fraction_interleave,
                self.remote_jitter_interleave,
            ),
        }
    }

    /// A spec with every per-run variation source zeroed: restarts
    /// become statistically identical (useful for ablations).
    pub fn none() -> Self {
        HysteresisSpec {
            remote_jitter_same_node: 0.0,
            remote_jitter_interleave: 0.0,
            service_jitter: 0.0,
            ..Default::default()
        }
    }
}

/// Static description of the simulated server (Table II stand-in).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// CPU sockets (NUMA nodes).
    pub sockets: u8,
    /// Cores per socket.
    pub cores_per_socket: u8,
    /// Base (non-turbo) frequency in GHz.
    pub base_ghz: f64,
    /// Maximum single-core turbo frequency in GHz.
    pub turbo_ghz: f64,
    /// Lowest DVFS step in GHz.
    pub min_ghz: f64,
    /// NIC hardware RSS queues (the paper's NIC hashes into 2⁴ = 16).
    pub rss_queues: u8,
    /// Kernel interrupt-handling cost per packet, at base frequency.
    pub irq_ns: f64,
    /// Extra interrupt cost when the handling core is on the remote
    /// socket relative to the NIC's PCIe attachment (socket 0).
    pub irq_cross_socket_ns: f64,
    /// Handoff cost when the interrupt core and the worker core are on
    /// different sockets (cache-line transfer of the request).
    pub handoff_cross_socket_ns: f64,
    /// Multiplier on a request's memory-bound work when its connection
    /// buffer is on the remote NUMA node.
    pub numa_remote_penalty: f64,
    /// DVFS governor sampling period.
    pub governor_period: SimDuration,
    /// Stall inserted on a core when the governor changes its frequency.
    pub frequency_transition: SimDuration,
    /// Governor window-utilisation threshold above which it jumps to the
    /// maximum frequency.
    pub ondemand_up_threshold: f64,
    /// Minimum frequency change (GHz) the governor acts on — real
    /// governors have a deadband so thermal jitter does not cause a
    /// transition storm.
    pub governor_deadband_ghz: f64,
    /// Kernel run-queue balancing: when a worker core's queue reaches
    /// this depth, new work is placed on the shallowest queue of the
    /// same socket instead (models CFS load balancing / memcached's
    /// shared worker pools). `usize::MAX` disables balancing.
    pub balance_threshold: usize,
    /// Thermal model update period.
    pub thermal_period: SimDuration,
    /// Exponential cooling time-constant of the package, in seconds.
    pub thermal_tau_s: f64,
    /// Normalised heat above which turbo headroom starts shrinking.
    pub thermal_throttle_start: f64,
    /// Per-run hysteresis source magnitudes.
    pub hysteresis: HysteresisSpec,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec {
            sockets: 2,
            cores_per_socket: 8,
            base_ghz: 2.2,
            turbo_ghz: 3.0,
            min_ghz: 1.2,
            rss_queues: 16,
            irq_ns: 1_800.0,
            irq_cross_socket_ns: 1_200.0,
            handoff_cross_socket_ns: 2_000.0,
            numa_remote_penalty: 1.8,
            governor_period: SimDuration::from_millis(10),
            frequency_transition: SimDuration::from_micros(40),
            ondemand_up_threshold: 0.60,
            governor_deadband_ghz: 0.15,
            balance_threshold: 3,
            thermal_period: SimDuration::from_millis(1),
            thermal_tau_s: 0.05,
            thermal_throttle_start: 0.55,
            hysteresis: HysteresisSpec::default(),
        }
    }
}

impl ServerSpec {
    /// Total core count.
    pub fn total_cores(&self) -> usize {
        usize::from(self.sockets) * usize::from(self.cores_per_socket)
    }

    /// The socket a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    // Socket index fits u8: sockets is itself a u8.
    #[allow(clippy::cast_possible_truncation)]
    pub fn socket_of(&self, core: usize) -> u8 {
        assert!(core < self.total_cores(), "core {core} out of range");
        (core / usize::from(self.cores_per_socket)) as u8
    }

    /// The clock every core boots at in configuration `hw`:
    /// `performance` (dvfs High) starts at the maximum available
    /// frequency, `ondemand` at base (starting at the minimum step would
    /// inject a cold-start backlog transient into every run).
    pub fn boot_ghz(&self, hw: HardwareConfig) -> f64 {
        match (hw.dvfs, hw.turbo) {
            (Level::High, Level::High) => self.turbo_ghz,
            _ => self.base_ghz,
        }
    }

    /// How many cores take NIC interrupts under affinity policy `nic`
    /// (Table III): socket 0's under `same-node` (Low), every core under
    /// `all-nodes` (High). RSS queue `q` interrupts core `q % irq_cores`.
    pub fn irq_cores(&self, nic: Level) -> usize {
        match nic {
            Level::Low => usize::from(self.cores_per_socket),
            Level::High => self.total_cores(),
        }
    }
}

/// Network parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Link bandwidth in bytes per nanosecond (10 GbE = 1.25 B/ns).
    pub bytes_per_ns: f64,
    /// One-way propagation within a rack.
    pub same_rack_propagation: SimDuration,
    /// Extra one-way propagation per rack hop.
    pub cross_rack_extra: SimDuration,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec {
            bytes_per_ns: 1.25,
            same_rack_propagation: SimDuration::from_micros(5),
            cross_rack_extra: SimDuration::from_micros(18),
        }
    }
}

impl NetworkSpec {
    /// Serialisation (transmission) time of a packet of `bytes`.
    pub fn transmission(&self, bytes: u32) -> SimDuration {
        SimDuration::from_nanos_f64(f64::from(bytes) / self.bytes_per_ns)
    }

    /// One-way propagation between the server rack and a client rack.
    pub fn propagation(&self, client_rack: u8) -> SimDuration {
        if client_rack == 0 {
            self.same_rack_propagation
        } else {
            self.same_rack_propagation + self.cross_rack_extra * u64::from(client_rack)
        }
    }
}

/// A client (load-tester) machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Rack distance from the server: 0 = same rack.
    pub rack: u8,
    /// Connections this client keeps open to the server.
    pub connections: u32,
    /// User-space CPU cost to prepare and send one request, ns. This is
    /// where load-tester implementation efficiency shows up (Treadmill's
    /// "lock-free implementation" vs heavier testers).
    pub send_cpu_ns: f64,
    /// User-space CPU cost to run one response callback, ns.
    pub recv_cpu_ns: f64,
    /// Fixed kernel cost from `send()` to the packet reaching the NIC.
    pub kernel_tx: SimDuration,
    /// Fixed kernel cost from NIC interrupt to the user callback.
    pub kernel_rx: SimDuration,
}

impl Default for ClientSpec {
    fn default() -> Self {
        ClientSpec {
            rack: 0,
            connections: 16,
            send_cpu_ns: 800.0,
            recv_cpu_ns: 800.0,
            kernel_tx: SimDuration::from_micros(12),
            kernel_rx: SimDuration::from_micros(16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `treadmill_workloads` bounds a request's worst case with a
    /// slowdown it cannot read from this crate; the default server must
    /// stay within it.
    #[test]
    fn workload_bound_covers_the_slowest_server() {
        let spec = ServerSpec::default();
        let jitter = 1.0 + spec.hysteresis.service_jitter;
        let slowest = (spec.base_ghz / spec.min_ghz).max(spec.numa_remote_penalty) * jitter;
        assert!(slowest <= treadmill_workloads::SERVER_SLOWDOWN, "{slowest}");
    }

    #[test]
    fn level_coding() {
        assert_eq!(Level::Low.code(), 0.0);
        assert_eq!(Level::High.code(), 1.0);
        assert!(Level::from_bit(true).is_high());
        assert_eq!(Level::Low.to_string(), "low");
    }

    #[test]
    fn config_index_round_trips() {
        for i in 0..16 {
            let cfg = HardwareConfig::from_index(i);
            assert_eq!(cfg.index(), i);
        }
        assert_eq!(HardwareConfig::all().len(), 16);
    }

    #[test]
    fn levels_match_bits() {
        let cfg = HardwareConfig::from_index(0b1010);
        assert_eq!(cfg.levels(), vec![0.0, 1.0, 0.0, 1.0]);
        assert!(cfg.turbo.is_high());
        assert!(cfg.nic.is_high());
        assert!(!cfg.numa.is_high());
    }

    #[test]
    fn display_matches_paper_legend_style() {
        let cfg = HardwareConfig::from_index(0b0101);
        assert_eq!(cfg.to_string(), "numa-high,turbo-low,dvfs-high,nic-low");
    }

    #[test]
    fn server_spec_geometry() {
        let spec = ServerSpec::default();
        assert_eq!(spec.total_cores(), 16);
        assert_eq!(spec.socket_of(0), 0);
        assert_eq!(spec.socket_of(7), 0);
        assert_eq!(spec.socket_of(8), 1);
        assert_eq!(spec.socket_of(15), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_of_bounds() {
        ServerSpec::default().socket_of(16);
    }

    #[test]
    fn network_transmission_scales_with_size() {
        let net = NetworkSpec::default();
        let small = net.transmission(125);
        let big = net.transmission(1_250);
        assert_eq!(small.as_nanos(), 100);
        assert_eq!(big.as_nanos(), 1_000);
    }

    #[test]
    fn cross_rack_propagation_is_longer() {
        let net = NetworkSpec::default();
        assert!(net.propagation(1) > net.propagation(0));
        assert!(net.propagation(2) > net.propagation(1));
    }

    #[test]
    fn serde_round_trip() {
        let cfg = HardwareConfig::from_index(9);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: HardwareConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
