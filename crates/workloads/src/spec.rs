//! JSON workload configuration (the paper's §III-A "Configurable
//! workload": "a JSON formatted configuration file can be used to
//! describe the workload characteristics … and fed into Treadmill").

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use treadmill_stats::distribution::max_standard_normal;

use crate::mcrouter::{self, Mcrouter};
use crate::memcached::{self, Memcached};
use crate::profile::Workload;
use crate::sizes::SizeDistribution;

/// Errors from parsing a workload specification.
#[derive(Debug)]
pub enum SpecError {
    /// The JSON was syntactically or structurally invalid.
    Json(serde_json::Error),
    /// The configuration parsed but is semantically invalid.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid workload JSON: {e}"),
            SpecError::Invalid(msg) => write!(f, "invalid workload configuration: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Json(e) => Some(e),
            SpecError::Invalid(_) => None,
        }
    }
}

impl From<serde_json::Error> for SpecError {
    fn from(e: serde_json::Error) -> Self {
        SpecError::Json(e)
    }
}

/// Ceiling on one request's worst-case service time on the simulated
/// server, in ns: 24 hours, the longest run `treadmill_core` accepts
/// (its `MAX_DURATION_MS`), so no request outlasts a run and no finite
/// cost reaches the simulation clock's `u64`-nanosecond limit alone.
pub const MAX_SERVICE_NS: f64 = 86_400_000.0 * 1e6;

/// The most the simulated server (`treadmill_cluster`'s default
/// `ServerSpec`) stretches a request's drawn demand, rounded up: CPU
/// work at the slowest DVFS step (2.2 GHz base over 1.2 GHz, ×1.83) or
/// memory work under the remote-NUMA penalty (×1.8), either under the
/// run's ±3% service jitter.
pub const SERVER_SLOWDOWN: f64 = 2.0;

/// A declarative workload description, loadable from JSON.
///
/// # Examples
///
/// ```
/// use treadmill_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::from_json(
///     r#"{ "workload": "memcached", "config": { "get_fraction": 0.95 } }"#,
/// )?;
/// let workload = spec.build()?;
/// assert_eq!(workload.name(), "memcached");
/// # Ok::<(), treadmill_workloads::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Which workload to build: `"memcached"` or `"mcrouter"`.
    pub workload: String,
    /// Workload-specific overrides, merged over the defaults.
    #[serde(default)]
    pub config: serde_json::Value,
}

impl WorkloadSpec {
    /// Parses a spec from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Json`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Builds the configured workload. A workload this returns samples
    /// requests without panicking: every field a draw reads is checked.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for unknown workload names and for
    /// field values a draw cannot use, naming the field: a size
    /// distribution [`SizeDistribution::sample`] would panic on, sizes
    /// that overflow `u32` once the protocol header is added, a fraction
    /// outside `[0, 1]`, a cost that is negative or not finite, or costs,
    /// noise and slow path whose worst case on the simulated server
    /// passes [`MAX_SERVICE_NS`].
    /// Returns [`SpecError::Json`] for config fields that don't match
    /// the workload's schema.
    pub fn build(&self) -> Result<Arc<dyn Workload>, SpecError> {
        match self.workload.as_str() {
            "memcached" => {
                let w: Memcached = merge_over_default(&self.config, &Memcached::default())?;
                validate_memcached(&w)?;
                Ok(Arc::new(w))
            }
            "mcrouter" => {
                let w: Mcrouter = merge_over_default(&self.config, &Mcrouter::default())?;
                validate_mcrouter(&w)?;
                Ok(Arc::new(w))
            }
            other => Err(SpecError::Invalid(format!(
                "unknown workload {other:?}; expected \"memcached\" or \"mcrouter\""
            ))),
        }
    }
}

fn merge_over_default<T>(overrides: &serde_json::Value, default: &T) -> Result<T, SpecError>
where
    T: Serialize + for<'de> Deserialize<'de>,
{
    let mut base = serde_json::to_value(default)?;
    if let (Some(base_map), Some(over_map)) = (base.as_object_mut(), overrides.as_object()) {
        for (k, v) in over_map {
            base_map.insert(k.clone(), v.clone());
        }
    } else if !overrides.is_null() {
        return Err(SpecError::Invalid(
            "workload config must be a JSON object".to_string(),
        ));
    }
    Ok(serde_json::from_value(base)?)
}

fn validate_memcached(w: &Memcached) -> Result<(), SpecError> {
    validate_fraction("get_fraction", w.get_fraction)?;
    validate_fraction("hit_rate", w.hit_rate)?;
    validate_fraction("slow_fraction", w.slow_fraction)?;
    for (name, cost) in [
        ("base_cpu_ns", w.base_cpu_ns),
        ("cpu_ns_per_byte", w.cpu_ns_per_byte),
        ("base_mem_ns", w.base_mem_ns),
        ("mem_ns_per_byte", w.mem_ns_per_byte),
        ("service_noise_sigma", w.service_noise_sigma),
        ("slow_multiplier", w.slow_multiplier),
    ] {
        validate_cost(name, cost)?;
    }
    let header = memcached::HEADER_BYTES;
    let key = validate_sizes("key_size", &w.key_size, header)?;
    let value = validate_sizes("value_size", &w.value_size, header)?;
    // A SET carries the header, the key and the value in one message.
    if header.checked_add(key).and_then(|b| b.checked_add(value)).is_none() {
        return Err(SpecError::Invalid(format!(
            "key_size plus value_size: a {key}-byte key and a {value}-byte value \
             overflow u32 with the {header}-byte header"
        )));
    }
    // The costliest request is a SET of the largest value.
    let value = f64::from(value);
    let (cpu_scale, mem_scale) = memcached::SET_SCALE;
    let demand = [
        ("base_cpu_ns", w.base_cpu_ns * cpu_scale),
        ("cpu_ns_per_byte", w.cpu_ns_per_byte * value * cpu_scale),
        ("base_mem_ns", w.base_mem_ns * mem_scale),
        ("mem_ns_per_byte", w.mem_ns_per_byte * value * mem_scale),
    ];
    validate_worst_case(&demand, w.service_noise_sigma, w.slow_multiplier)
}

fn validate_mcrouter(w: &Mcrouter) -> Result<(), SpecError> {
    validate_fraction("slow_fraction", w.slow_fraction)?;
    for (name, cost) in [
        ("base_cpu_ns", w.base_cpu_ns),
        ("cpu_ns_per_byte", w.cpu_ns_per_byte),
        ("base_mem_ns", w.base_mem_ns),
        ("service_noise_sigma", w.service_noise_sigma),
        ("slow_multiplier", w.slow_multiplier),
    ] {
        validate_cost(name, cost)?;
    }
    let message = validate_sizes("message_size", &w.message_size, mcrouter::HEADER_BYTES)?;
    let message = f64::from(message);
    let demand = [
        ("base_cpu_ns", w.base_cpu_ns),
        ("cpu_ns_per_byte", w.cpu_ns_per_byte * message),
        ("base_mem_ns", w.base_mem_ns),
    ];
    validate_worst_case(&demand, w.service_noise_sigma, w.slow_multiplier)
}

/// Checks one request's worst-case service time against
/// [`MAX_SERVICE_NS`]: the `demand` terms at the largest payload
/// (already checked finite and non-negative), stretched by
/// [`SERVER_SLOWDOWN`], then by the largest noise factor the lognormal
/// sampler returns at `sigma`, then by the slow path. The error names
/// the largest demand term and each factor applied by the stage that
/// carried it past the bound.
fn validate_worst_case(
    demand: &[(&str, f64)],
    sigma: f64,
    slow_multiplier: f64,
) -> Result<(), SpecError> {
    // Past the largest normal draw, the noise's largest factor shrinks
    // again while its mean correction swamps it.
    let z = max_standard_normal();
    if sigma > z {
        return Err(SpecError::Invalid(format!(
            "service_noise_sigma must be at most {z:.3} (the largest normal draw), got {sigma}"
        )));
    }
    let (field, _) = demand
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("demand", 0.0));
    let mut cause = field.to_string();
    let mut worst: f64 = demand.iter().map(|&(_, ns)| ns).sum();
    for (factor, applied) in [
        (SERVER_SLOWDOWN, String::new()),
        (
            (sigma * (z - sigma / 2.0)).exp(),
            format!(" under service_noise_sigma {sigma:?}"),
        ),
        (
            slow_multiplier.max(1.0),
            format!(" and slow_multiplier {slow_multiplier:?}"),
        ),
    ] {
        worst *= factor;
        cause.push_str(&applied);
        if worst > MAX_SERVICE_NS {
            return Err(SpecError::Invalid(format!(
                "{cause}: one request's worst-case service time of {worst:.3e} ns \
                 passes the {MAX_SERVICE_NS:.3e} ns (24 h) bound"
            )));
        }
    }
    Ok(())
}

fn validate_fraction(name: &str, value: f64) -> Result<(), SpecError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(SpecError::Invalid(format!(
            "{name} must lie in [0, 1], got {value}"
        )))
    }
}

fn validate_cost(name: &str, value: f64) -> Result<(), SpecError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(SpecError::Invalid(format!(
            "{name} must be finite and non-negative, got {value}"
        )))
    }
}

/// Checks a size distribution and that its largest draw plus `header`
/// fits a `u32`; returns the largest draw.
fn validate_sizes(name: &str, dist: &SizeDistribution, header: u32) -> Result<u32, SpecError> {
    let largest = dist
        .checked_max()
        .map_err(|e| SpecError::Invalid(format!("{name}: {e}")))?;
    if largest.checked_add(header).is_none() {
        return Err(SpecError::Invalid(format!(
            "{name}: a {largest}-byte draw overflows u32 with the {header}-byte header"
        )));
    }
    Ok(largest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_default_memcached() {
        let spec = WorkloadSpec::from_json(r#"{ "workload": "memcached" }"#).unwrap();
        let w = spec.build().unwrap();
        assert_eq!(w.name(), "memcached");
    }

    #[test]
    fn builds_mcrouter_with_overrides() {
        let spec = WorkloadSpec::from_json(
            r#"{ "workload": "mcrouter", "config": { "base_cpu_ns": 12000.0 } }"#,
        )
        .unwrap();
        let w = spec.build().unwrap();
        assert_eq!(w.name(), "mcrouter");
        // Mean reflects the override: 12000 + per-byte + mem.
        assert!(w.service_moments().mean_ns > 12_000.0);
    }

    #[test]
    fn overrides_merge_over_defaults() {
        let spec = WorkloadSpec::from_json(
            r#"{ "workload": "memcached", "config": { "get_fraction": 0.5 } }"#,
        )
        .unwrap();
        let value = serde_json::to_value(&spec.config).unwrap();
        assert_eq!(value["get_fraction"], 0.5);
        let w = spec.build().unwrap();
        assert_eq!(w.name(), "memcached");
    }

    #[test]
    fn size_distribution_override() {
        let spec = WorkloadSpec::from_json(
            r#"{
                "workload": "memcached",
                "config": {
                    "value_size": { "kind": "fixed", "bytes": 100 }
                }
            }"#,
        )
        .unwrap();
        assert!(spec.build().is_ok());
    }

    #[test]
    fn unknown_workload_rejected() {
        let spec = WorkloadSpec::from_json(r#"{ "workload": "mysql" }"#).unwrap();
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("mysql"));
    }

    #[test]
    fn invalid_fraction_rejected() {
        let spec = WorkloadSpec::from_json(
            r#"{ "workload": "memcached", "config": { "get_fraction": 1.5 } }"#,
        )
        .unwrap();
        assert!(matches!(spec.build(), Err(SpecError::Invalid(_))));
    }

    /// Every rule `build` enforces, one rejected config each: the error
    /// names the field, and the config would otherwise panic or
    /// mis-size the engine's draws.
    #[test]
    fn hostile_workload_fields_are_rejected_by_name() {
        let rejected = |workload: &str, config: &str, field: &str| {
            let spec = WorkloadSpec::from_json(&format!(
                r#"{{ "workload": "{workload}", "config": {config} }}"#
            ))
            .unwrap();
            match spec.build() {
                Err(SpecError::Invalid(msg)) => {
                    assert!(msg.contains(field), "{config}: {msg} does not name {field}");
                }
                Err(e) => panic!("{config}: expected a field error, got {e}"),
                Ok(_) => panic!("{config}: accepted"),
            }
        };
        let mixture = |weights: [&str; 2]| {
            let fixed = r#"{ "kind": "fixed", "bytes": 64 }"#;
            let components: Vec<String> = weights
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| format!("[{w}, {fixed}]"))
                .collect();
            format!(
                r#"{{ "value_size": {{ "kind": "mixture", "components": [{}] }} }}"#,
                components.join(", ")
            )
        };
        // Size distributions `sample` panics on.
        rejected(
            "memcached",
            r#"{ "key_size": { "kind": "uniform", "low": 40, "high": 16 } }"#,
            "key_size",
        );
        rejected("memcached", &mixture(["", ""]), "value_size");
        rejected("memcached", &mixture(["-1.0", "2.0"]), "value_size");
        rejected("memcached", &mixture(["0.0", ""]), "value_size");
        rejected("memcached", &mixture(["1e308", "1e308"]), "value_size");
        rejected(
            "mcrouter",
            r#"{ "message_size": { "kind": "pareto", "minimum": 64, "shape": 0.0, "cap": 512 } }"#,
            "message_size",
        );
        // Sizes that overflow u32 once the header is added.
        rejected(
            "mcrouter",
            r#"{ "message_size": { "kind": "fixed", "bytes": 4294967295 } }"#,
            "message_size",
        );
        rejected(
            "memcached",
            r#"{ "key_size": { "kind": "fixed", "bytes": 2147483648 },
                 "value_size": { "kind": "fixed", "bytes": 2147483648 } }"#,
            "key_size plus value_size",
        );
        // Fractions outside [0, 1].
        rejected("memcached", r#"{ "hit_rate": 1.5 }"#, "hit_rate");
        rejected("memcached", r#"{ "slow_fraction": -0.1 }"#, "slow_fraction");
        rejected("mcrouter", r#"{ "slow_fraction": 2.0 }"#, "slow_fraction");
        // Negative costs.
        rejected("memcached", r#"{ "mem_ns_per_byte": -1.0 }"#, "mem_ns_per_byte");
        rejected("mcrouter", r#"{ "base_cpu_ns": -8000.0 }"#, "base_cpu_ns");
        // Finite costs, noise and slow paths whose worst case on the
        // simulated server passes 24 hours: each names its field.
        rejected("memcached", r#"{ "base_cpu_ns": 1e25 }"#, "base_cpu_ns");
        rejected("memcached", r#"{ "cpu_ns_per_byte": 1e10 }"#, "cpu_ns_per_byte");
        rejected("memcached", r#"{ "base_mem_ns": 1e13 }"#, "base_mem_ns");
        rejected("memcached", r#"{ "mem_ns_per_byte": 1e300 }"#, "mem_ns_per_byte");
        rejected("mcrouter", r#"{ "base_cpu_ns": 1e13 }"#, "base_cpu_ns");
        rejected("mcrouter", r#"{ "cpu_ns_per_byte": 1e10 }"#, "cpu_ns_per_byte");
        rejected("mcrouter", r#"{ "base_mem_ns": 1e13 }"#, "base_mem_ns");
        rejected("memcached", r#"{ "service_noise_sigma": 3.0 }"#, "service_noise_sigma");
        rejected("mcrouter", r#"{ "service_noise_sigma": 1e300 }"#, "service_noise_sigma");
        let slow = |fraction: f64, multiplier: f64| {
            format!(r#"{{ "slow_fraction": {fraction}, "slow_multiplier": {multiplier:e} }}"#)
        };
        rejected("mcrouter", &slow(1.0, 1e30), "slow_multiplier");
        rejected("memcached", &slow(0.0, 1e9), "slow_multiplier");

        // JSON has no literal for a value that is not finite; a config
        // built in code can still carry one.
        let nan_shape = Memcached {
            value_size: SizeDistribution::Pareto { minimum: 512, shape: f64::NAN, cap: 4096 },
            ..Memcached::default()
        };
        assert!(validate_memcached(&nan_shape).unwrap_err().to_string().contains("value_size"));
        let infinite_sigma = Mcrouter {
            message_size: SizeDistribution::Lognormal { mu: 5.0, sigma: f64::INFINITY, cap: 4096 },
            ..Mcrouter::default()
        };
        assert!(validate_mcrouter(&infinite_sigma)
            .unwrap_err()
            .to_string()
            .contains("message_size"));
        let nan_weight = Memcached {
            key_size: SizeDistribution::Mixture {
                components: vec![(f64::NAN, SizeDistribution::Fixed { bytes: 16 })],
            },
            ..Memcached::default()
        };
        assert!(validate_memcached(&nan_weight).unwrap_err().to_string().contains("key_size"));
        let infinite_cost = Memcached { base_mem_ns: f64::INFINITY, ..Memcached::default() };
        assert!(validate_memcached(&infinite_cost)
            .unwrap_err()
            .to_string()
            .contains("base_mem_ns"));
    }

    /// The bound rejects only what passes 24 hours: a request whose
    /// worst case sits just under it builds, and the same costs a
    /// little higher do not.
    #[test]
    fn worst_case_bound_is_tight_and_spares_realistic_costs() {
        let fixed = r#"{ "kind": "fixed", "bytes": 1000 }"#;
        let mcrouter = |base_cpu_ns: f64| {
            WorkloadSpec::from_json(&format!(
                r#"{{ "workload": "mcrouter", "config": {{ "message_size": {fixed},
                    "base_cpu_ns": {base_cpu_ns}, "cpu_ns_per_byte": 0.0, "base_mem_ns": 0.0,
                    "service_noise_sigma": 0.0, "slow_multiplier": 1.0 }} }}"#
            ))
            .unwrap()
            .build()
        };
        let at_bound = MAX_SERVICE_NS / SERVER_SLOWDOWN;
        assert!(mcrouter(at_bound).is_ok());
        assert!(mcrouter(at_bound * 1.001).is_err());
        // Heavy but plausible settings still build.
        let heavy = WorkloadSpec::from_json(
            r#"{ "workload": "memcached", "config": { "base_cpu_ns": 1e6,
                 "service_noise_sigma": 1.5, "slow_fraction": 0.5, "slow_multiplier": 100.0 } }"#,
        )
        .unwrap();
        assert!(heavy.build().is_ok());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            WorkloadSpec::from_json("{ nope"),
            Err(SpecError::Json(_))
        ));
    }

    #[test]
    fn non_object_config_rejected() {
        let spec = WorkloadSpec::from_json(
            r#"{ "workload": "memcached", "config": [1, 2, 3] }"#,
        )
        .unwrap();
        assert!(matches!(spec.build(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn error_display_is_informative() {
        let err = SpecError::Invalid("boom".to_string());
        assert!(err.to_string().contains("boom"));
    }
}
