//! Turbo Boost / package-thermal model.
//!
//! Turbo frequency "heavily depends on the dynamic power and thermal
//! status" (§IV-B). We model the package as a first-order thermal
//! system: normalised heat `h` relaxes toward an input level that grows
//! with aggregate core activity and super-linearly with frequency
//! (dynamic power ≈ f·V² ≈ f³ along the V/f curve). Turbo headroom is
//! full below a throttle threshold and shrinks linearly to zero (base
//! frequency) as `h` approaches 1.
//!
//! This produces the two behaviours the paper reports:
//! * Finding 8 — turbo helps a lot at low load (cool package, full
//!   headroom) and little at high load;
//! * the `turbo:dvfs` interaction — a `performance` governor keeps
//!   frequency pinned high, heating the package and eroding the very
//!   headroom turbo needs.
//!
//! Both laws are free functions, so the analytic screen solves its
//! steady state with the package's own arithmetic.

/// Gain from package activity to heat input (see [`heat_input`]).
const HEATING_GAIN: f64 = 0.85;

/// The heat level the package relaxes toward while its cores run at
/// average utilisation `util` (clamped to `[0, 1]`) and average
/// frequency `freq_ghz`: `HEATING_GAIN · util · (f / base)³`, dynamic
/// power along the V/f curve.
pub fn heat_input(util: f64, freq_ghz: f64, base_ghz: f64) -> f64 {
    let rel_freq = (freq_ghz / base_ghz).max(0.0);
    HEATING_GAIN * util.clamp(0.0, 1.0) * rel_freq.powi(3)
}

/// The maximum frequency available at normalised package `heat`, in
/// GHz. With turbo disabled this is always the base frequency. With
/// turbo enabled it is the full turbo frequency up to `throttle_start`,
/// shrinking linearly to base as heat rises to 1; never under base, even
/// where `turbo − (turbo − base)` rounds an ulp below it or heat is NaN.
pub fn available_ghz(
    base_ghz: f64,
    turbo_ghz: f64,
    turbo_enabled: bool,
    throttle_start: f64,
    heat: f64,
) -> f64 {
    if !turbo_enabled {
        return base_ghz;
    }
    if heat <= throttle_start {
        return turbo_ghz;
    }
    let over = ((heat - throttle_start) / (1.0 - throttle_start)).clamp(0.0, 1.0);
    (turbo_ghz - (turbo_ghz - base_ghz) * over).max(base_ghz)
}

/// The package thermal state and turbo-frequency calculator.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    base_ghz: f64,
    turbo_ghz: f64,
    turbo_enabled: bool,
    tau_s: f64,
    throttle_start: f64,
    heat: f64,
}

impl ThermalModel {
    /// Creates a cold package.
    ///
    /// # Panics
    ///
    /// Panics if `turbo_ghz < base_ghz` or parameters are non-positive.
    pub fn new(
        base_ghz: f64,
        turbo_ghz: f64,
        turbo_enabled: bool,
        tau_s: f64,
        throttle_start: f64,
    ) -> Self {
        assert!(turbo_ghz >= base_ghz, "turbo must not be below base");
        assert!(tau_s > 0.0 && throttle_start > 0.0 && throttle_start < 1.0);
        ThermalModel {
            base_ghz,
            turbo_ghz,
            turbo_enabled,
            tau_s,
            throttle_start,
            heat: 0.0,
        }
    }

    /// Current normalised heat in `[0, ~1.5]`.
    pub fn heat(&self) -> f64 {
        self.heat
    }

    /// Advances the thermal state by `dt_s` seconds given the package's
    /// average core utilisation and average operating frequency over
    /// that interval.
    pub fn advance(&mut self, dt_s: f64, avg_util: f64, avg_freq_ghz: f64) {
        debug_assert!(dt_s >= 0.0);
        let input = heat_input(avg_util, avg_freq_ghz, self.base_ghz);
        let alpha = 1.0 - (-dt_s / self.tau_s).exp();
        self.heat += (input - self.heat) * alpha;
    }

    /// The maximum frequency currently available, in GHz: [`available_ghz`]
    /// at the current heat.
    pub fn available_ghz(&self) -> f64 {
        available_ghz(
            self.base_ghz,
            self.turbo_ghz,
            self.turbo_enabled,
            self.throttle_start,
            self.heat,
        )
    }

    /// True if turbo is enabled in this configuration.
    pub fn turbo_enabled(&self) -> bool {
        self.turbo_enabled
    }

    /// Overwrites the heat state from a checkpoint. All other fields
    /// are configuration and survive a rebuild unchanged.
    pub(crate) fn restore_heat(&mut self, heat: f64) {
        self.heat = heat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(enabled: bool) -> ThermalModel {
        ThermalModel::new(2.2, 3.0, enabled, 0.05, 0.55)
    }

    #[test]
    fn disabled_turbo_pins_base() {
        let mut m = model(false);
        m.advance(1.0, 1.0, 3.0);
        assert_eq!(m.available_ghz(), 2.2);
    }

    #[test]
    fn cold_package_gives_full_turbo() {
        let m = model(true);
        assert_eq!(m.available_ghz(), 3.0);
    }

    #[test]
    fn sustained_high_load_erodes_headroom() {
        let mut m = model(true);
        // Run hot for many time constants: util 0.9 at turbo frequency.
        for _ in 0..100 {
            m.advance(0.01, 0.9, 3.0);
        }
        let hot = m.available_ghz();
        assert!(hot < 3.0, "headroom should shrink, got {hot}");
        assert!(hot >= 2.2, "never below base");
    }

    #[test]
    fn low_load_keeps_full_turbo() {
        let mut m = model(true);
        for _ in 0..100 {
            m.advance(0.01, 0.1, 3.0);
        }
        assert_eq!(m.available_ghz(), 3.0, "heat {}", m.heat());
    }

    #[test]
    fn package_cools_when_idle() {
        let mut m = model(true);
        for _ in 0..100 {
            m.advance(0.01, 1.0, 3.0);
        }
        let throttled = m.available_ghz();
        for _ in 0..100 {
            m.advance(0.01, 0.0, 2.2);
        }
        assert!(m.available_ghz() > throttled, "cooling should restore turbo");
        assert!(m.heat() < 0.1);
    }

    #[test]
    fn higher_frequency_heats_faster() {
        let mut slow = model(true);
        let mut fast = model(true);
        for _ in 0..20 {
            slow.advance(0.01, 0.7, 2.2);
            fast.advance(0.01, 0.7, 3.0);
        }
        assert!(fast.heat() > slow.heat() * 1.5);
    }

    #[test]
    fn the_package_settles_at_its_heat_input() {
        // Twenty time constants at a fixed load: the heat has relaxed
        // onto `heat_input`, the steady state the analytic screen takes.
        let mut m = model(true);
        for _ in 0..100 {
            m.advance(0.01, 0.9, 3.0);
        }
        let settled = heat_input(0.9, 3.0, 2.2);
        let gap = (m.heat() - settled).abs();
        assert!(gap < 1e-6, "settled {settled}, off by {gap}");
        assert!(available_ghz(2.2, 3.0, true, 0.55, settled) < 3.0);
    }

    #[test]
    fn headroom_never_falls_under_base() {
        // 1.8 − (1.8 − 0.6) is 0.5999999999999999 unfloored.
        assert_eq!(available_ghz(0.6, 1.8, true, 0.55, 1.0), 0.6);
        assert_eq!(available_ghz(0.6, 1.8, true, 0.55, 3.0), 0.6);
        assert_eq!(available_ghz(2.2, 3.0, true, 0.55, f64::NAN), 2.2);
        assert_eq!(available_ghz(2.2, 3.0, true, 0.55, 1.0), 2.2);
    }

    #[test]
    #[should_panic(expected = "below base")]
    fn inverted_frequencies_rejected() {
        ThermalModel::new(3.0, 2.2, true, 0.05, 0.55);
    }
}
