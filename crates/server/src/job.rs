//! Experiment specifications and job lifecycle states.
//!
//! An [`ExperimentSpec`] is the `POST /experiments` body: a
//! [`LoadTestConfig`] plus sweep-level knobs. Validation is front-
//! loaded — [`ExperimentSpec::validate`] composes the engine's typed
//! [`LoadTestConfig::validate`] with service-level caps so the `400`
//! path names the offending field and nothing invalid ever reaches a
//! worker thread.

use std::fmt;

use serde::{Deserialize, Serialize};
use treadmill_core::sweep::{DEFAULT_CKPT_EVENTS, MIN_CKPT_EVENTS};
use treadmill_core::{ConfigError, LoadTestConfig};

/// Ceiling on the repeated-run count of one submission.
pub const MAX_RUNS_PER_JOB: u64 = 64;

fn default_runs() -> u64 {
    6
}

fn default_ckpt_events() -> u64 {
    DEFAULT_CKPT_EVENTS
}

/// One submitted experiment: a load-test configuration plus sweep
/// orchestration knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// The load-test configuration to sweep.
    pub config: LoadTestConfig,
    /// Repeated runs of the config, or of each hardware cell a screened
    /// config simulates (the repeated-run procedure; defaults to 6).
    #[serde(default = "default_runs")]
    pub runs: u64,
    /// Events between checkpoints of the running cell.
    #[serde(default = "default_ckpt_events")]
    pub ckpt_events: u64,
}

/// Why a submission was rejected — the typed `4xx` body.
#[derive(Debug)]
pub enum SpecError {
    /// The body was not valid JSON for the spec shape.
    Json(serde_json::Error),
    /// The embedded configuration failed engine validation.
    Config(ConfigError),
    /// A service-level knob is out of range.
    Invalid {
        /// Offending field.
        field: &'static str,
        /// Why it is rejected.
        message: String,
    },
}

impl SpecError {
    /// Machine-readable error kind for structured bodies.
    pub fn kind(&self) -> &'static str {
        match self {
            SpecError::Json(_) => "json",
            SpecError::Config(e) => e.kind(),
            SpecError::Invalid { .. } => "invalid",
        }
    }

    /// The offending field, when one can be named.
    pub fn field(&self) -> Option<&'static str> {
        match self {
            SpecError::Json(_) => None,
            SpecError::Config(e) => e.field(),
            SpecError::Invalid { field, .. } => Some(field),
        }
    }

    /// Renders the structured JSON error body served on the `400` path:
    /// `{"error":{"kind":…,"field":…|null,"message":…}}`.
    pub fn to_json_body(&self) -> Vec<u8> {
        #[derive(Serialize)]
        struct Body {
            error: Detail,
        }
        #[derive(Serialize)]
        struct Detail {
            kind: String,
            field: Option<String>,
            message: String,
        }
        let body = Body {
            error: Detail {
                kind: self.kind().to_string(),
                field: self.field().map(str::to_string),
                message: self.to_string(),
            },
        };
        serde_json::to_string(&body).unwrap_or_default().into_bytes()
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid experiment JSON: {e}"),
            SpecError::Config(e) => write!(f, "{e}"),
            SpecError::Invalid { field, message } => {
                write!(f, "invalid experiment: {field}: {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Json(e) => Some(e),
            SpecError::Config(e) => Some(e),
            SpecError::Invalid { .. } => None,
        }
    }
}

impl ExperimentSpec {
    /// Parses and validates a submission body.
    pub fn from_json(body: &str) -> Result<Self, SpecError> {
        let spec: ExperimentSpec =
            serde_json::from_str(body).map_err(SpecError::Json)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Validates the spec: engine-level config checks plus service
    /// caps on `runs` and `ckpt_events`.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.config.validate().map_err(SpecError::Config)?;
        if self.runs == 0 || self.runs > MAX_RUNS_PER_JOB {
            return Err(SpecError::Invalid {
                field: "runs",
                message: format!(
                    "must be 1..={MAX_RUNS_PER_JOB}, got {}",
                    self.runs
                ),
            });
        }
        if self.ckpt_events < MIN_CKPT_EVENTS {
            return Err(SpecError::Invalid {
                field: "ckpt_events",
                message: format!(
                    "must be >= {MIN_CKPT_EVENTS}, got {}",
                    self.ckpt_events
                ),
            });
        }
        Ok(())
    }

    /// Compact canonical JSON, stored verbatim in the job journal.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

/// Job lifecycle states, journaled on every transition.
///
/// ```text
/// queued ──> running ──> done
///               │
///               └──────> failed
/// ```
///
/// A drain or crash leaves a job `running`; a restart on the same state
/// directory re-enqueues it, journals `running` again, and the sweep
/// continues from its checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum JobStatus {
    /// Admitted, waiting for the executor.
    Queued,
    /// The executor is running (or was running at crash time).
    Running,
    /// All cells finished; artifacts are complete.
    Done,
    /// The sweep returned an error; see the job's `detail`.
    Failed,
}

impl JobStatus {
    /// The lowercase name, as journaled and served.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }

    /// True for states that will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(rps: &str) -> String {
        format!(
            r#"{{"config":{{"workload":{{"workload":"memcached"}},
                 "target_rps":{rps},"clients":2,"connections_per_client":4,
                 "duration_ms":40,"warmup_ms":10,"seed":7}},"runs":2}}"#
        )
    }

    #[test]
    fn valid_spec_parses_with_defaults() {
        let spec = ExperimentSpec::from_json(&spec_json("50000")).unwrap();
        assert_eq!(spec.runs, 2);
        assert_eq!(spec.ckpt_events, DEFAULT_CKPT_EVENTS);
    }

    #[test]
    fn bad_config_is_typed_not_panicking() {
        let err = ExperimentSpec::from_json(&spec_json("-1")).unwrap_err();
        assert_eq!(err.kind(), "invalid");
        assert_eq!(err.field(), Some("target_rps"));
        let body = String::from_utf8(err.to_json_body()).unwrap();
        assert!(body.contains("\"kind\":\"invalid\""), "{body}");
    }

    #[test]
    fn runs_cap_enforced() {
        let mut spec = ExperimentSpec::from_json(&spec_json("50000")).unwrap();
        spec.runs = MAX_RUNS_PER_JOB + 1;
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field(), Some("runs"));
    }

    #[test]
    fn status_roundtrips() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
        ] {
            let json = serde_json::to_string(&s).unwrap();
            assert_eq!(json, format!("\"{}\"", s.as_str()));
            assert_eq!(serde_json::from_str::<JobStatus>(&json).unwrap(), s);
        }
        assert!(JobStatus::Done.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
    }
}
