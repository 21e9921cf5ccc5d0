//! The simulated server: 16 cores on two sockets, NIC RSS, a DVFS
//! governor, a turbo/thermal model, and NUMA-sensitive service times.

pub mod core;
pub mod dvfs;
pub mod turbo;

use treadmill_sim_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::{SimDuration, SimTime};
use treadmill_workloads::RequestProfile;

use crate::checkpoint;
use crate::config::{HardwareConfig, ServerSpec};
use core::Core;
use turbo::ThermalModel;

/// The server under test.
#[derive(Debug)]
pub struct Server {
    spec: ServerSpec,
    hw: HardwareConfig,
    /// The CPU cores; index = core id.
    pub cores: Vec<Core>,
    thermal: ThermalModel,
    /// Cores taking NIC interrupts ([`ServerSpec::irq_cores`]).
    irq_cores: usize,
    prev_busy: Vec<SimDuration>,
    last_thermal: SimTime,
    freq_trace: Option<Vec<FrequencyEvent>>,
}

/// One recorded frequency transition (when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyEvent {
    /// When the governor applied the change.
    pub at: SimTime,
    /// The core whose frequency changed.
    pub core: u8,
    /// The new frequency, GHz.
    pub ghz: f64,
}

impl Server {
    /// Builds a cold server in the given hardware configuration.
    // Core ids fit u8: ServerSpec bounds cores with u8 fields.
    #[allow(clippy::cast_possible_truncation)]
    pub fn new(spec: ServerSpec, hw: HardwareConfig) -> Self {
        let initial_freq = spec.boot_ghz(hw);
        let cores = (0..spec.total_cores())
            .map(|i| Core::new(i as u8, spec.socket_of(i), initial_freq))
            .collect::<Vec<_>>();
        let thermal = ThermalModel::new(
            spec.base_ghz,
            spec.turbo_ghz,
            hw.turbo.is_high(),
            spec.thermal_tau_s,
            spec.thermal_throttle_start,
        );
        let prev_busy = vec![SimDuration::ZERO; cores.len()];
        Server {
            irq_cores: spec.irq_cores(hw.nic),
            spec,
            hw,
            cores,
            thermal,
            prev_busy,
            last_thermal: SimTime::ZERO,
            freq_trace: None,
        }
    }

    /// Enables recording of every governor frequency transition.
    pub fn enable_frequency_trace(&mut self) {
        self.freq_trace = Some(Vec::new());
    }

    /// The recorded frequency transitions, if tracing was enabled.
    pub fn frequency_trace(&self) -> Option<&[FrequencyEvent]> {
        self.freq_trace.as_deref()
    }

    /// The server specification.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// The hardware configuration under test.
    pub fn hardware(&self) -> HardwareConfig {
        self.hw
    }

    /// The thermal model (for diagnostics).
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Which core handles interrupts for an RSS queue, under the NIC
    /// affinity policy (Table III): `same-node` maps every queue to
    /// socket-0 cores; `all-nodes` spreads queues across both sockets.
    pub fn rss_core(&self, queue: u8) -> usize {
        usize::from(queue) % self.irq_cores
    }

    /// Interrupt-handling duration on `core` at its current frequency.
    /// Handling on a socket other than the NIC's attachment (socket 0)
    /// pays a cross-socket penalty for the DMA'd packet data.
    pub fn irq_duration(&self, core: usize) -> SimDuration {
        let c = &self.cores[core];
        let scale = self.spec.base_ghz / c.freq_ghz();
        let mut ns = self.spec.irq_ns * scale;
        if c.socket != 0 {
            ns += self.spec.irq_cross_socket_ns;
        }
        SimDuration::from_nanos_f64(ns)
    }

    /// Worker service duration for a request on `core`: the CPU
    /// component scales with the core's current frequency, the memory
    /// component is inflated by the remote-NUMA penalty when the
    /// connection's buffer is remote, and a cross-socket handoff fee
    /// applies when the interrupt arrived on the other socket.
    pub fn service_duration(
        &self,
        core: usize,
        profile: &RequestProfile,
        buffer_remote: bool,
        handoff_cross_socket: bool,
    ) -> SimDuration {
        let c = &self.cores[core];
        let cpu = profile.cpu_ns * self.spec.base_ghz / c.freq_ghz();
        let mem = profile.mem_ns
            * if buffer_remote {
                self.spec.numa_remote_penalty
            } else {
                1.0
            };
        let handoff = if handoff_cross_socket {
            self.spec.handoff_cross_socket_ns
        } else {
            0.0
        };
        SimDuration::from_nanos_f64(cpu + mem + handoff)
    }

    /// Runs one governor sampling tick: re-targets every core's
    /// frequency from its window utilisation, inserting a transition
    /// stall on cores whose frequency changed. Returns the ids of cores
    /// that received a stall (the caller must poke their run loops).
    // Core ids fit u8: ServerSpec bounds cores with u8 fields.
    #[allow(clippy::cast_possible_truncation)]
    pub fn governor_tick(&mut self, now: SimTime) -> Vec<usize> {
        let max_avail = self.thermal.available_ghz();
        let mut stalled = Vec::new();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let util = core.util.window_utilization(now);
            let target = dvfs::governor_target(
                self.hw.dvfs,
                util,
                self.spec.min_ghz,
                max_avail,
                self.spec.ondemand_up_threshold,
            );
            // Deadband: ignore sub-threshold retargets so thermal
            // jitter does not cause a transition storm.
            if (target - core.freq_ghz()).abs() < self.spec.governor_deadband_ghz {
                core.util.restart_window(now);
                continue;
            }
            if core.set_freq(target) {
                core.enqueue_front(core::CoreJob::Stall(self.spec.frequency_transition));
                stalled.push(i);
                if let Some(trace) = &mut self.freq_trace {
                    trace.push(FrequencyEvent {
                        at: now,
                        core: i as u8,
                        ghz: target,
                    });
                }
            }
            core.util.restart_window(now);
        }
        stalled
    }

    /// Runs one thermal tick: integrates busy time since the last tick
    /// into the package heat state.
    pub fn thermal_tick(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.last_thermal);
        if dt.is_zero() {
            return;
        }
        let dt_s = dt.as_secs_f64();
        let n = self.cores.len() as f64;
        let mut util_sum = 0.0;
        let mut freq_sum = 0.0;
        for (i, core) in self.cores.iter().enumerate() {
            let busy = core.util.busy_total();
            let delta = busy - self.prev_busy[i];
            self.prev_busy[i] = busy;
            util_sum += (delta.as_secs_f64() / dt_s).min(1.0);
            freq_sum += core.freq_ghz();
        }
        self.thermal.advance(dt_s, util_sum / n, freq_sum / n);
        self.last_thermal = now;
    }

    /// Picks the core that should run a worker job whose connection is
    /// pinned to `preferred`: normally `preferred` itself, but when its
    /// run queue is at least `balance_threshold` deep, the shallowest
    /// queue on the same socket takes the job (kernel load balancing).
    pub fn balanced_worker_core(&self, preferred: usize) -> usize {
        let threshold = self.spec.balance_threshold;
        let depth = |c: &Core| c.queue_len() + usize::from(c.is_busy());
        if depth(&self.cores[preferred]) < threshold {
            return preferred;
        }
        // First balance within the socket (cheap migration, preserves
        // NUMA locality); if the whole socket is deep, migrate anywhere
        // — exactly the escalation CFS performs under pressure. One
        // manual pass finds both minima (this runs for every worker
        // dispatch once the server is loaded); strict `<` keeps the
        // first-minimum tie-break the iterator version had.
        let socket = self.cores[preferred].socket;
        let mut same_socket = preferred;
        let mut same_socket_depth = usize::MAX;
        let mut global = preferred;
        let mut global_depth = usize::MAX;
        for (i, c) in self.cores.iter().enumerate() {
            let d = depth(c);
            if d < global_depth {
                global = i;
                global_depth = d;
            }
            if c.socket == socket && d < same_socket_depth {
                same_socket = i;
                same_socket_depth = d;
            }
        }
        if same_socket_depth < threshold {
            return same_socket;
        }
        global
    }

    /// Writes the server's mutable state to a checkpoint: every core,
    /// then the thermal heat, per-core busy baselines, tick bookkeeping
    /// and the frequency trace when one is kept.
    pub(crate) fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cores.len() as u64);
        for core in &self.cores {
            core.save(w);
        }
        w.put_f64(self.thermal.heat());
        w.put_u64(self.prev_busy.len() as u64);
        for &busy in &self.prev_busy {
            w.put_duration(busy);
        }
        w.put_time(self.last_thermal);
        w.put_bool(self.freq_trace.is_some());
        if let Some(events) = &self.freq_trace {
            w.put_u64(events.len() as u64);
            for event in events {
                w.put_time(event.at);
                w.put_u8(event.core);
                w.put_f64(event.ghz);
            }
        }
    }

    /// Overwrites the server's mutable state with what [`Self::save`]
    /// wrote. The server must have been rebuilt with the same spec,
    /// hardware configuration and tracing choice.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the core or busy-baseline count
    /// or the frequency trace's presence differs from this server's, or
    /// on an unknown job tag; [`SnapshotError::Truncated`] if the
    /// checkpoint ends early.
    pub(crate) fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        if r.get_u64()? != self.cores.len() as u64 {
            return Err(SnapshotError::Malformed("core count mismatch"));
        }
        for core in &mut self.cores {
            core.load(r)?;
        }
        self.thermal.restore_heat(r.get_f64()?);
        if r.get_u64()? != self.prev_busy.len() as u64 {
            return Err(SnapshotError::Malformed("busy-baseline count mismatch"));
        }
        for busy in &mut self.prev_busy {
            *busy = r.get_duration()?;
        }
        self.last_thermal = r.get_time()?;
        if r.get_bool()? != self.freq_trace.is_some() {
            return Err(SnapshotError::Malformed("frequency-trace presence mismatch"));
        }
        if let Some(events) = &mut self.freq_trace {
            let n_events = r.get_u64()?;
            *events = Vec::with_capacity(checkpoint::checked_len(n_events)?);
            for _ in 0..n_events {
                events.push(FrequencyEvent {
                    at: r.get_time()?,
                    core: r.get_u8()?,
                    ghz: r.get_f64()?,
                });
            }
        }
        Ok(())
    }

    /// Mean utilisation across cores over `[0, now]`.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        let n = self.cores.len() as f64;
        self.cores.iter().map(|c| c.util.utilization(now)).sum::<f64>() / n
    }

    /// Total frequency transitions across cores.
    pub fn total_transitions(&self) -> u64 {
        self.cores.iter().map(Core::transitions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Level;

    fn hw(numa: bool, turbo: bool, dvfs: bool, nic: bool) -> HardwareConfig {
        HardwareConfig {
            numa: Level::from_bit(numa),
            turbo: Level::from_bit(turbo),
            dvfs: Level::from_bit(dvfs),
            nic: Level::from_bit(nic),
        }
    }

    fn profile() -> RequestProfile {
        RequestProfile {
            class: treadmill_workloads::OpClass::Read,
            request_bytes: 64,
            response_bytes: 128,
            cpu_ns: 10_000.0,
            mem_ns: 4_000.0,
        }
    }

    #[test]
    fn rss_same_node_stays_on_socket_zero() {
        let server = Server::new(ServerSpec::default(), hw(false, false, false, false));
        for q in 0..16 {
            let core = server.rss_core(q);
            assert_eq!(server.cores[core].socket, 0, "queue {q} → core {core}");
        }
    }

    #[test]
    fn rss_all_nodes_spreads_sockets() {
        let server = Server::new(ServerSpec::default(), hw(false, false, false, true));
        let sockets: std::collections::BTreeSet<u8> =
            (0..16).map(|q| server.cores[server.rss_core(q)].socket).collect();
        assert_eq!(sockets.len(), 2);
    }

    #[test]
    fn interrupts_land_on_exactly_the_irq_cores() {
        let spec = ServerSpec::default();
        for nic in [false, true] {
            let server = Server::new(spec.clone(), hw(false, false, false, nic));
            let cores: std::collections::BTreeSet<usize> =
                (0..spec.rss_queues).map(|q| server.rss_core(q)).collect();
            let expected = spec.irq_cores(Level::from_bit(nic));
            assert_eq!(cores, (0..expected).collect(), "nic {nic}");
        }
        assert_eq!(spec.irq_cores(Level::Low), 8);
        assert_eq!(spec.irq_cores(Level::High), 16);
    }

    #[test]
    fn irq_costs_more_cross_socket() {
        let server = Server::new(ServerSpec::default(), hw(false, false, true, true));
        let local = server.irq_duration(0);
        let remote = server.irq_duration(8);
        assert!(remote > local);
    }

    #[test]
    fn service_duration_components() {
        // performance governor, no turbo: all cores at base frequency.
        let server = Server::new(ServerSpec::default(), hw(false, false, true, false));
        let p = profile();
        let plain = server.service_duration(0, &p, false, false);
        assert_eq!(plain, SimDuration::from_nanos(14_000));
        let remote = server.service_duration(0, &p, true, false);
        assert_eq!(
            remote,
            SimDuration::from_nanos(10_000 + (4_000.0 * 1.8) as u64)
        );
        let handoff = server.service_duration(0, &p, false, true);
        assert!(handoff > plain);
    }

    #[test]
    fn turbo_speeds_up_cpu_component() {
        // performance + turbo: cores start at 3.0 GHz.
        let server = Server::new(ServerSpec::default(), hw(false, true, true, false));
        let p = profile();
        let fast = server.service_duration(0, &p, false, false);
        // cpu 10000 * 2.2/3.0 ≈ 7333; mem unchanged at 4000.
        let expected = 10_000.0 * 2.2 / 3.0 + 4_000.0;
        assert!((fast.as_nanos() as f64 - expected).abs() < 2.0);
    }

    #[test]
    fn initial_frequencies() {
        let ondemand = Server::new(ServerSpec::default(), hw(false, false, false, false));
        assert_eq!(ondemand.cores[0].freq_ghz(), 2.2);
        let perf = Server::new(ServerSpec::default(), hw(false, true, true, false));
        assert_eq!(perf.cores[0].freq_ghz(), 3.0);
        // Only performance with turbo boots above base.
        let spec = ServerSpec::default();
        for cell in HardwareConfig::all() {
            let server = Server::new(spec.clone(), cell);
            let boot = if cell.dvfs.is_high() && cell.turbo.is_high() {
                3.0
            } else {
                2.2
            };
            assert_eq!(spec.boot_ghz(cell), boot, "{cell}");
            assert!(server.cores.iter().all(|c| c.freq_ghz() == boot), "{cell}");
        }
    }

    #[test]
    fn ondemand_downclocks_idle_cores_after_first_tick() {
        let mut server = Server::new(ServerSpec::default(), hw(false, false, false, false));
        let stalled = server.governor_tick(SimTime::from_millis(10));
        assert!(stalled.contains(&3), "idle core should transition down");
        assert_eq!(server.cores[3].freq_ghz(), 1.2);
    }

    #[test]
    fn governor_tick_tracks_window_utilisation() {
        let mut server = Server::new(ServerSpec::default(), hw(false, false, false, false));
        // Core 0 fully busy over the window: stays at the max (base)
        // frequency with no transition.
        server.cores[0]
            .util
            .record_busy(SimTime::ZERO, SimDuration::from_millis(10));
        let stalled = server.governor_tick(SimTime::from_millis(10));
        assert!(!stalled.contains(&0));
        assert_eq!(server.cores[0].freq_ghz(), 2.2);
        // Idle cores get down-clocked to the minimum, paying a
        // transition stall.
        assert!(stalled.contains(&5));
        assert_eq!(server.cores[5].freq_ghz(), 1.2);
    }

    #[test]
    fn thermal_tick_integrates_busy_time() {
        let mut server = Server::new(ServerSpec::default(), hw(false, true, true, false));
        for i in 0..16 {
            server.cores[i]
                .util
                .record_busy(SimTime::ZERO, SimDuration::from_millis(1));
        }
        for step in 1..=200u64 {
            server.thermal_tick(SimTime::from_millis(step));
            for i in 0..16 {
                server.cores[i].util.record_busy(
                    SimTime::from_millis(step),
                    SimDuration::from_millis(1),
                );
            }
        }
        // Fully busy at turbo for 200ms (4 time constants): throttled.
        assert!(server.thermal().heat() > 0.55, "heat {}", server.thermal().heat());
        assert!(server.thermal().available_ghz() < 3.0);
    }

    /// Turbo more than twice base: past heat 1 the headroom
    /// `turbo − (turbo − base)` rounds an ulp under base, and with
    /// `min_ghz` at base the governor must still find room.
    #[test]
    fn a_package_past_full_heat_keeps_the_governor_in_range() {
        let spec = ServerSpec {
            base_ghz: 0.6,
            min_ghz: 0.6,
            turbo_ghz: 1.8,
            ..ServerSpec::default()
        };
        let mut server = Server::new(spec, hw(false, true, true, false));
        let mut hottest = 0.0f64;
        for step in 1..=50u64 {
            for core in &mut server.cores {
                core.util
                    .record_busy(SimTime::from_millis(step - 1), SimDuration::from_millis(1));
            }
            server.thermal_tick(SimTime::from_millis(step));
            hottest = hottest.max(server.thermal().heat());
            server.governor_tick(SimTime::from_millis(step));
            assert!(server.thermal().available_ghz() >= 0.6, "step {step}");
            assert!(server
                .cores
                .iter()
                .all(|c| (0.6..=1.8).contains(&c.freq_ghz())));
        }
        assert!(hottest > 1.0, "the package never passed heat 1: {hottest}");
    }

    #[test]
    fn mean_utilization_averages_cores() {
        let mut server = Server::new(ServerSpec::default(), hw(false, false, true, false));
        server.cores[0]
            .util
            .record_busy(SimTime::ZERO, SimDuration::from_micros(160));
        // One of 16 cores busy 160us over 160us elapsed: mean = 1/16.
        let mean = server.mean_utilization(SimTime::from_micros(160));
        assert!((mean - 1.0 / 16.0).abs() < 1e-9);
    }

    /// p99 user latency (µs) after a 25 ms warm-up of a 100 ms
    /// Memcached run at 650k rps from 8 clients × 4 connections.
    fn loaded_p99(seed: u64, balance_threshold: usize) -> f64 {
        use crate::{ClientSpec, ClusterBuilder, InterArrival, OpenLoopSource};
        let mut builder = ClusterBuilder::new(std::sync::Arc::new(
            treadmill_workloads::Memcached::default(),
        ))
        .seed(seed)
        .server_spec(ServerSpec {
            balance_threshold,
            ..Default::default()
        })
        .duration(SimDuration::from_millis(100));
        for _ in 0..8 {
            builder = builder.client(
                ClientSpec {
                    connections: 4,
                    ..Default::default()
                },
                Box::new(OpenLoopSource::new(
                    InterArrival::Exponential { rate_rps: 650_000.0 / 8.0 },
                    4,
                )),
            );
        }
        let latencies = builder.run().user_latencies_us(SimTime::from_millis(25));
        treadmill_stats::quantile::quantile(&latencies, 0.99)
    }

    #[test]
    fn run_queue_balancing_cuts_the_tail_of_pinned_workers() {
        // Pinning every worker job to its connection's core lets bursts
        // pile up behind one core while its siblings idle; balancing to
        // the shallowest queue is what keeps the loaded tail down.
        // Seeded and deterministic: a fidelity claim, not a timing test.
        let balanced_threshold = ServerSpec::default().balance_threshold;
        for seed in 1..=3 {
            let balanced = loaded_p99(seed, balanced_threshold);
            let pinned = loaded_p99(seed, usize::MAX);
            eprintln!(
                "seed {seed}: pinned/balanced p99 = {:.2}",
                pinned / balanced
            );
            assert!(
                pinned >= 1.2 * balanced,
                "seed {seed}: pinned p99 {pinned:.1} µs is not 1.2x balanced {balanced:.1} µs"
            );
        }
    }
}
