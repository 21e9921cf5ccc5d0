//! Append-only audit log.
//!
//! Every run-affecting event appends one fsynced JSON line to
//! `audit.jsonl`: what happened, to which job, under which seed and
//! configuration hash, against which snapshot format version. The log
//! is a [`Journal`], so it is never rewritten or truncated and a line
//! torn by a crash is sealed before the next incarnation's first record
//! — it is the service's provenance trail, answering "which bits
//! produced this artifact" long after the job itself is gone.

use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};
use treadmill_core::journal::Journal;
use treadmill_sim_core::snapshot::SNAPSHOT_VERSION;

/// One audit line.
#[derive(Debug, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Wall-clock milliseconds since the Unix epoch. Provenance only —
    /// nothing deterministic reads it back.
    pub unix_ms: u64,
    /// Event tag (`submitted`, `run-started`, `run-done`,
    /// `run-interrupted`, `run-failed`, `recovered`).
    pub event: String,
    /// Job id.
    pub job: String,
    /// The experiment's master seed.
    pub seed: u64,
    /// FNV-1a hash of the configuration JSON — matches the sweep
    /// manifest's `config_hash`.
    pub config_hash: String,
    /// Checkpoint envelope version the run writes ([`SNAPSHOT_VERSION`]).
    pub snapshot_version: u32,
    /// Free-form detail (`fresh` / `resume` / an error message).
    pub detail: String,
}

/// The append-only log writer.
#[derive(Debug)]
pub struct AuditLog {
    journal: Journal<AuditEntry>,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

impl AuditLog {
    /// Opens the audit log at `state_dir/audit.jsonl`, sealing a line
    /// torn by a crash.
    pub fn open(state_dir: &Path) -> io::Result<AuditLog> {
        let (journal, _) = Journal::open(&state_dir.join("audit.jsonl"))?;
        Ok(AuditLog { journal })
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Appends one event, fsynced. Stamps `unix_ms` and
    /// `snapshot_version` itself.
    pub fn record(
        &self,
        event: &str,
        job: &str,
        seed: u64,
        config_hash: &str,
        detail: &str,
    ) -> io::Result<()> {
        self.journal.append(&AuditEntry {
            unix_ms: unix_ms(),
            event: event.to_string(),
            job: job.to_string(),
            seed,
            config_hash: config_hash.to_string(),
            snapshot_version: SNAPSHOT_VERSION,
            detail: detail.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn records_are_appended_with_provenance_fields() {
        let dir = std::env::temp_dir()
            .join(format!("tml-audit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let log = AuditLog::open(&dir).unwrap();
        log.record("submitted", "exp-000000", 7, "00ff", "fresh").unwrap();
        log.record("run-done", "exp-000000", 7, "00ff", "").unwrap();
        let text = fs::read_to_string(log.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["event"], "submitted");
        assert_eq!(first["seed"], 7u64);
        assert_eq!(first["config_hash"], "00ff");
        assert_eq!(first["snapshot_version"], u64::from(SNAPSHOT_VERSION));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_seals_a_torn_tail_before_the_next_record() {
        let dir = std::env::temp_dir()
            .join(format!("tml-audit-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A SIGKILL mid-append leaves a line without its newline.
        fs::write(dir.join("audit.jsonl"), "{\"unix_ms\":1,\"event\":\"run-").unwrap();
        let log = AuditLog::open(&dir).unwrap();
        log.record("recovered", "exp-000000", 7, "00ff", "").unwrap();
        let text = fs::read_to_string(log.path()).unwrap();
        let last = text.lines().last().unwrap();
        let entry: serde_json::Value = serde_json::from_str(last)
            .unwrap_or_else(|e| panic!("last line {last:?} does not parse: {e}"));
        assert_eq!(entry["event"], "recovered");
        assert_eq!(text.lines().count(), 2, "{text}");
        let _ = fs::remove_dir_all(&dir);
    }
}
