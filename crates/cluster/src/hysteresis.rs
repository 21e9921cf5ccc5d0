//! Per-run system state: the cause of performance hysteresis.
//!
//! The paper (§II-D) traces hysteresis to "changes in underlying system
//! states such as the mapping of logical memory, threads, and
//! connections to physical resources" — state frozen when the server
//! (re)starts and stable for the whole run. We reproduce it by drawing,
//! once per run:
//!
//! * each connection's **worker core** (a shuffled round-robin over all
//!   cores, as a restarted Memcached redistributes connections),
//! * each connection's **RSS queue** (the NIC hash over the connection
//!   tuple, whose ephemeral ports differ every restart),
//! * each connection's **buffer NUMA placement**, whose distribution
//!   depends on the NUMA policy under test.
//!
//! Because these draws are per-run, two runs of the *same* configuration
//! converge to different tail-latency values, no matter how many samples
//! each collects — exactly Figure 4.
//!
//! [`RunState`] keeps one byte and one bit per connection: the RSS queue
//! as a `u8` and the remote-buffer flag in a bitset. The worker core is
//! not stored: connection `i` (counted across clients) runs on
//! `core_order[i % cores]`, the shuffled round-robin, and the remainder
//! is taken by a multiply and a shift (Lemire, Kaser and Kurz, *Faster
//! Remainder by Direct Computation*, 2019), so a request's placement
//! costs no division.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::{HardwareConfig, ServerSpec};

/// Frozen per-connection placement state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionState {
    /// The core whose worker thread services this connection.
    pub worker_core: u8,
    /// The NIC RSS queue this connection's packets hash to.
    pub rss_queue: u8,
    /// True if the connection's buffers were allocated on the NUMA node
    /// remote to its worker core.
    pub buffer_remote: bool,
}

/// All per-run placement state, indexed by `(client, conn)`.
#[derive(Debug, Clone)]
pub struct RunState {
    conn_offsets: Vec<u32>,
    /// Worker cores in round-robin order.
    core_order: Vec<u8>,
    /// `⌊(2⁶⁴ − 1) / cores⌋ + 1` (mod 2⁶⁴), for `i % cores` by
    /// multiplication.
    core_magic: u64,
    /// Each connection's RSS queue.
    rss: Vec<u8>,
    /// Bit `i % 64` of word `i / 64` is set if connection `i`'s buffers
    /// are remote to its worker core.
    remote: Vec<u64>,
    remote_fraction: f64,
    service_factor: f64,
}

impl RunState {
    /// Draws fresh run state for a cluster with the given per-client
    /// connection counts.
    ///
    /// # Panics
    ///
    /// Panics if `connections_per_client` is empty or any entry is zero,
    /// or if `spec` has no core or more than 255.
    // Core counts are bounded by ServerSpec's u8 fields, so the
    // core-id casts below cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    pub fn generate<R: Rng + ?Sized>(
        spec: &ServerSpec,
        hw: HardwareConfig,
        connections_per_client: &[u32],
        rng: &mut R,
    ) -> Self {
        assert!(
            !connections_per_client.is_empty(),
            "run state needs at least one client"
        );
        let total: u32 = connections_per_client.iter().sum();
        assert!(total > 0, "run state needs at least one connection");

        let mut conn_offsets = Vec::with_capacity(connections_per_client.len());
        let mut offset = 0;
        for &c in connections_per_client {
            assert!(c > 0, "client with zero connections");
            conn_offsets.push(offset);
            offset += c;
        }

        // Worker placement: shuffled round-robin over all cores.
        let mut core_order: Vec<u8> = (0..spec.total_cores() as u8).collect();
        assert!(
            core_order.len() == spec.total_cores() && !core_order.is_empty(),
            "a server needs 1 to 255 cores"
        );
        core_order.shuffle(rng);

        // Buffer placement probability per policy. `same-node` mostly
        // succeeds (spilling occasionally under pressure); `interleave`
        // round-robins pages so most multi-page buffers straddle the
        // remote node (Finding 6). The per-run jitter term is a
        // deliberate hysteresis source.
        // The jitter width is itself policy-dependent: `same-node`
        // placements are deterministic-ish (small spill variation),
        // while `interleave` makes buffer placement hostage to the
        // allocator's per-restart state — a much bigger hysteresis
        // source. This is why the paper's tuned (same-node) system also
        // had far lower run-to-run variance (Figure 12).
        let h = &spec.hysteresis;
        let (base_remote, jitter_width) = h.remote_fraction(hw.numa);
        let jitter: f64 = if jitter_width > 0.0 {
            rng.gen_range(-jitter_width..jitter_width)
        } else {
            0.0
        };
        let remote_fraction = (base_remote + jitter).clamp(0.0, 1.0);

        // Run-wide service-time factor: code/heap/stack layout changes
        // across restarts perturb baseline performance (the paper cites
        // STABILIZER for exactly this effect). Queueing amplifies the
        // few-percent service shift into a much larger tail shift.
        let service_factor = if h.service_jitter > 0.0 {
            1.0 + rng.gen_range(-h.service_jitter..h.service_jitter)
        } else {
            1.0
        };

        // Per connection, in index order: its RSS queue, then whether
        // its buffers are remote.
        let total = total as usize;
        let mut rss = Vec::with_capacity(total);
        let mut remote = vec![0u64; total.div_ceil(64)];
        for i in 0..total {
            rss.push(rng.gen_range(0..spec.rss_queues));
            if rng.gen::<f64>() < remote_fraction {
                remote[i / 64] |= 1 << (i % 64);
            }
        }

        RunState {
            conn_offsets,
            core_magic: (u64::MAX / core_order.len() as u64).wrapping_add(1),
            core_order,
            rss,
            remote,
            remote_fraction,
            service_factor,
        }
    }

    /// The placement state of connection `conn` of client `client`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    // The shifted product is a remainder, below the core count.
    #[allow(clippy::cast_possible_truncation)]
    pub fn connection(&self, client: u32, conn: u32) -> ConnectionState {
        let i = self.conn_offsets[client as usize] + conn;
        // `i % cores` for any 32-bit `i`: the low 64 bits of
        // `core_magic · i` are the fraction `i / cores` below one, and
        // their product with `cores` carries the remainder above bit 64.
        let fraction = self.core_magic.wrapping_mul(u64::from(i));
        let cores = self.core_order.len() as u128;
        let worker = ((u128::from(fraction) * cores) >> 64) as usize;
        let i = i as usize;
        ConnectionState {
            worker_core: self.core_order[worker],
            rss_queue: self.rss[i],
            buffer_remote: (self.remote[i / 64] >> (i % 64)) & 1 == 1,
        }
    }

    /// The run's realised remote-buffer probability (diagnostics).
    pub fn remote_fraction(&self) -> f64 {
        self.remote_fraction
    }

    /// The run-wide service-time factor (layout hysteresis).
    pub fn service_factor(&self) -> f64 {
        self.service_factor
    }

    /// Total connections across clients.
    pub fn total_connections(&self) -> usize {
        self.rss.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Level;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn interleave_hw() -> HardwareConfig {
        HardwareConfig {
            numa: Level::High,
            ..Default::default()
        }
    }

    #[test]
    fn workers_cover_all_cores() {
        let spec = ServerSpec::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let state = RunState::generate(&spec, HardwareConfig::default(), &[32], &mut rng);
        let used: std::collections::BTreeSet<u8> =
            (0..32).map(|c| state.connection(0, c).worker_core).collect();
        assert_eq!(used.len(), 16, "32 conns round-robin over 16 cores");
    }

    #[test]
    fn interleave_places_more_buffers_remote() {
        let spec = ServerSpec::default();
        let mut rng = SmallRng::seed_from_u64(2);
        let count_remote = |hw: HardwareConfig, rng: &mut SmallRng| -> usize {
            let state = RunState::generate(&spec, hw, &[512], rng);
            (0..512)
                .filter(|&c| state.connection(0, c).buffer_remote)
                .count()
        };
        let same_node = count_remote(HardwareConfig::default(), &mut rng);
        let interleave = count_remote(interleave_hw(), &mut rng);
        assert!(
            interleave > same_node * 3,
            "interleave {interleave} vs same-node {same_node}"
        );
    }

    #[test]
    fn runs_differ_but_seeds_reproduce() {
        let spec = ServerSpec::default();
        let a = RunState::generate(
            &spec,
            interleave_hw(),
            &[16, 16],
            &mut SmallRng::seed_from_u64(3),
        );
        let b = RunState::generate(
            &spec,
            interleave_hw(),
            &[16, 16],
            &mut SmallRng::seed_from_u64(4),
        );
        let a2 = RunState::generate(
            &spec,
            interleave_hw(),
            &[16, 16],
            &mut SmallRng::seed_from_u64(3),
        );
        let sig = |s: &RunState| -> Vec<(u8, u8, bool)> {
            (0..16)
                .map(|c| {
                    let st = s.connection(1, c);
                    (st.worker_core, st.rss_queue, st.buffer_remote)
                })
                .collect()
        };
        assert_eq!(sig(&a), sig(&a2), "same seed, same state");
        assert_ne!(sig(&a), sig(&b), "different seeds, different state");
    }

    #[test]
    fn remote_fraction_varies_between_runs() {
        let spec = ServerSpec::default();
        let fractions: Vec<f64> = (0..8)
            .map(|seed| {
                RunState::generate(
                    &spec,
                    interleave_hw(),
                    &[64],
                    &mut SmallRng::seed_from_u64(seed),
                )
                .remote_fraction()
            })
            .collect();
        let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fractions.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.02, "hysteresis spread {min}..{max} too small");
    }

    /// The reference the packed layout is checked against: one stored
    /// `ConnectionState` per connection, each worker core taken with a
    /// division, drawn in the order `RunState::generate` draws. Returns
    /// the states, the remote fraction and the service factor.
    #[allow(clippy::cast_possible_truncation)]
    fn per_connection_draws(
        spec: &ServerSpec,
        hw: HardwareConfig,
        connections_per_client: &[u32],
        rng: &mut SmallRng,
    ) -> (Vec<ConnectionState>, f64, f64) {
        let total: u32 = connections_per_client.iter().sum();
        let cores = spec.total_cores() as u32;
        let mut core_order: Vec<u8> = (0..cores as u8).collect();
        core_order.shuffle(rng);
        let h = &spec.hysteresis;
        let (base_remote, jitter_width) = h.remote_fraction(hw.numa);
        let jitter: f64 = if jitter_width > 0.0 {
            rng.gen_range(-jitter_width..jitter_width)
        } else {
            0.0
        };
        let remote_fraction = (base_remote + jitter).clamp(0.0, 1.0);
        let service_factor = if h.service_jitter > 0.0 {
            1.0 + rng.gen_range(-h.service_jitter..h.service_jitter)
        } else {
            1.0
        };
        let states = (0..total)
            .map(|i| ConnectionState {
                worker_core: core_order[(i % cores) as usize],
                rss_queue: rng.gen_range(0..spec.rss_queues),
                buffer_remote: rng.gen::<f64>() < remote_fraction,
            })
            .collect();
        (states, remote_fraction, service_factor)
    }

    #[test]
    fn packed_placement_matches_per_connection_draws() {
        let fifteen_cores = ServerSpec {
            sockets: 3,
            cores_per_socket: 5,
            rss_queues: 7,
            ..ServerSpec::default()
        };
        let one_core = ServerSpec {
            sockets: 1,
            cores_per_socket: 1,
            ..ServerSpec::default()
        };
        let clusters: [&[u32]; 3] = [&[1_250; 8], &[4, 8, 2], &[1]];
        for spec in [ServerSpec::default(), fifteen_cores, one_core] {
            for hw in [HardwareConfig::default(), interleave_hw()] {
                for counts in clusters {
                    for seed in 0..3 {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        let mut reference_rng = rng.clone();
                        let state = RunState::generate(&spec, hw, counts, &mut rng);
                        let (states, remote_fraction, service_factor) =
                            per_connection_draws(&spec, hw, counts, &mut reference_rng);
                        assert_eq!(
                            rng, reference_rng,
                            "the RNG is left where the draws leave it"
                        );
                        assert_eq!(state.remote_fraction().to_bits(), remote_fraction.to_bits());
                        assert_eq!(state.service_factor().to_bits(), service_factor.to_bits());
                        assert_eq!(state.total_connections(), states.len());
                        let mut expected = states.iter();
                        for (client, &n) in (0u32..).zip(counts) {
                            for conn in 0..n {
                                assert_eq!(
                                    Some(&state.connection(client, conn)),
                                    expected.next(),
                                    "{} cores, {hw:?}, {counts:?}, seed {seed}: client {client} conn {conn}",
                                    spec.total_cores()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn placement_takes_one_byte_and_one_bit_per_connection() {
        let spec = ServerSpec::default();
        let counts = [1_250; 8];
        let mut rng = SmallRng::seed_from_u64(7);
        let state = RunState::generate(&spec, interleave_hw(), &counts, &mut rng);
        let n = state.total_connections();
        let held = state.rss.capacity()
            + 8 * state.remote.capacity()
            + 4 * state.conn_offsets.capacity()
            + state.core_order.capacity();
        // The bitset rounds up to whole words; the rest is per client
        // and per core.
        let bound = n + 8 * n.div_ceil(64) + 4 * counts.len() + spec.total_cores();
        assert!(
            held <= bound,
            "{held} B held for {n} connections, bound {bound} B"
        );
    }

    #[test]
    fn multi_client_indexing() {
        let spec = ServerSpec::default();
        let mut rng = SmallRng::seed_from_u64(5);
        let state = RunState::generate(
            &spec,
            HardwareConfig::default(),
            &[4, 8, 2],
            &mut rng,
        );
        assert_eq!(state.total_connections(), 14);
        // Last connection of last client is addressable.
        let _ = state.connection(2, 1);
    }

    #[test]
    fn core_counts_beyond_the_u8_ids_are_rejected() {
        for (sockets, cores_per_socket) in [(0, 8), (2, 128), (3, 100)] {
            let spec = ServerSpec {
                sockets,
                cores_per_socket,
                ..ServerSpec::default()
            };
            let drawn = std::panic::catch_unwind(|| {
                let mut rng = SmallRng::seed_from_u64(8);
                RunState::generate(&spec, HardwareConfig::default(), &[64], &mut rng)
            });
            assert!(
                drawn.is_err(),
                "{sockets} × {cores_per_socket} cores accepted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero connections")]
    fn zero_connection_client_rejected() {
        let mut rng = SmallRng::seed_from_u64(6);
        RunState::generate(
            &ServerSpec::default(),
            HardwareConfig::default(),
            &[4, 0],
            &mut rng,
        );
    }
}
