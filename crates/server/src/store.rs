//! Job persistence: one [`JobStore`], journaled to `jobs.jsonl` through
//! [`treadmill_core::journal::Journal`] (the crash-safety recipe of the
//! sweep manifest: one fsynced JSON line per transition, torn tails
//! sealed and skipped on replay) or, for `--mem-store`, kept in memory
//! only. Duplicate journal lines are idempotent.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};
use treadmill_core::journal::Journal;

use crate::job::JobStatus;

/// Recovers a poisoned mutex: the protected state is a plain map with
/// no invariants that a panicking writer could half-apply, so the
/// service degrades gracefully instead of cascading the panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One stored job.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredJob {
    /// Stable identifier (`exp-NNNNNN`).
    pub id: String,
    /// The idempotency key it was submitted under, if any.
    pub key: Option<String>,
    /// The validated spec, as canonical JSON.
    pub spec_json: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Failure detail, for `failed` jobs.
    pub detail: Option<String>,
}

/// What a submission did.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// A new job was created.
    Created(StoredJob),
    /// The idempotency key matched an existing job; nothing was
    /// created and the original is returned.
    Deduplicated(StoredJob),
}

/// One journal line: a job state transition. Submission lines carry
/// the spec (and key); later transitions carry only the new status.
#[derive(Debug, Serialize, Deserialize)]
struct JournalLine {
    seq: u64,
    id: String,
    status: JobStatus,
    #[serde(default)]
    key: Option<String>,
    #[serde(default)]
    spec: Option<String>,
    #[serde(default)]
    detail: Option<String>,
}

/// What journal replay found.
#[derive(Debug, Default, Clone)]
pub struct ReplayReport {
    /// Jobs reconstructed.
    pub jobs: usize,
    /// Torn / unparseable lines ignored (crash debris).
    pub torn_lines: usize,
    /// Status lines referencing ids with no submission line (a torn
    /// submission followed by later appends); ignored.
    pub orphan_lines: usize,
    /// Ids of jobs left `queued` or `running` — work to re-enqueue.
    pub pending: Vec<String>,
}

/// The job table. With a journal, every transition is one fsynced
/// line and [`JobStore::open`] replays it, so a SIGKILL'd server
/// reconstructs exactly the admitted state; without one
/// ([`JobStore::in_memory`]) a crash forgets everything, by design.
pub struct JobStore {
    journal: Option<Journal<JournalLine>>,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    next_job: u64,
    next_seq: u64,
    jobs: BTreeMap<String, StoredJob>,
    by_key: BTreeMap<String, String>,
}

impl State {
    fn set_status(&mut self, id: &str, status: JobStatus, detail: Option<&str>) -> bool {
        match self.jobs.get_mut(id) {
            Some(job) => {
                job.status = status;
                job.detail = detail.map(str::to_string);
                true
            }
            None => false,
        }
    }

    /// Replays one journal line. Duplicate submissions are idempotent:
    /// the first wins (a re-sent line cannot change the spec).
    fn apply(&mut self, entry: JournalLine, report: &mut ReplayReport) {
        self.next_seq = self.next_seq.max(entry.seq.saturating_add(1));
        let Some(spec) = entry.spec else {
            if !self.set_status(&entry.id, entry.status, entry.detail.as_deref()) {
                report.orphan_lines += 1;
            }
            return;
        };
        if self.jobs.contains_key(&entry.id) {
            return;
        }
        if let Some(key) = &entry.key {
            self.by_key.insert(key.clone(), entry.id.clone());
        }
        if let Some(n) = entry
            .id
            .strip_prefix("exp-")
            .and_then(|n| n.parse::<u64>().ok())
        {
            self.next_job = self.next_job.max(n + 1);
        }
        let job = StoredJob {
            id: entry.id.clone(),
            key: entry.key,
            spec_json: spec,
            status: entry.status,
            detail: entry.detail,
        };
        self.jobs.insert(entry.id, job);
    }
}

impl JobStore {
    /// A store without a journal, for tests and `--mem-store` runs.
    pub fn in_memory() -> JobStore {
        JobStore {
            journal: None,
            state: Mutex::default(),
        }
    }

    /// Opens (or creates) the journal under `state_dir` and replays
    /// it. Torn lines (unparseable JSON) and status lines for unknown
    /// ids are counted and skipped.
    pub fn open(state_dir: &Path) -> io::Result<(JobStore, ReplayReport)> {
        fs::create_dir_all(state_dir)?;
        let (journal, replay) = Journal::open(&state_dir.join("jobs.jsonl"))?;
        let mut state = State::default();
        let mut report = ReplayReport {
            torn_lines: replay.unparseable,
            ..ReplayReport::default()
        };
        for entry in replay.records {
            state.apply(entry, &mut report);
        }
        report.jobs = state.jobs.len();
        report.pending = state
            .jobs
            .values()
            .filter(|j| !j.status.is_terminal())
            .map(|j| j.id.clone())
            .collect();
        let store = JobStore {
            journal: Some(journal),
            state: Mutex::new(state),
        };
        Ok((store, report))
    }

    /// Journals `line` under the next sequence number (no-op in memory).
    fn append(&self, state: &mut State, mut line: JournalLine) -> io::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        line.seq = state.next_seq;
        state.next_seq += 1;
        journal.append(&line)
    }

    /// Admits a job (or dedups it by idempotency `key`).
    pub fn submit(&self, key: Option<&str>, spec_json: &str) -> io::Result<SubmitOutcome> {
        let mut state = lock(&self.state);
        if let Some(job) = key
            .and_then(|key| state.by_key.get(key))
            .and_then(|id| state.jobs.get(id))
        {
            return Ok(SubmitOutcome::Deduplicated(job.clone()));
        }
        let id = format!("exp-{:06}", state.next_job);
        state.next_job += 1;
        let job = StoredJob {
            id: id.clone(),
            key: key.map(str::to_string),
            spec_json: spec_json.to_string(),
            status: JobStatus::Queued,
            detail: None,
        };
        if let Some(key) = key {
            state.by_key.insert(key.to_string(), id.clone());
        }
        state.jobs.insert(id.clone(), job.clone());
        let line = JournalLine {
            seq: 0,
            id,
            status: job.status,
            key: job.key.clone(),
            spec: Some(job.spec_json.clone()),
            detail: None,
        };
        self.append(&mut state, line)?;
        Ok(SubmitOutcome::Created(job))
    }

    /// Records a lifecycle transition; unknown ids are ignored.
    pub fn set_status(
        &self,
        id: &str,
        status: JobStatus,
        detail: Option<&str>,
    ) -> io::Result<()> {
        let mut state = lock(&self.state);
        if !state.set_status(id, status, detail) {
            return Ok(());
        }
        let line = JournalLine {
            seq: 0,
            id: id.to_string(),
            status,
            key: None,
            spec: None,
            detail: detail.map(str::to_string),
        };
        self.append(&mut state, line)
    }

    /// Fetches one job.
    pub fn get(&self, id: &str) -> Option<StoredJob> {
        lock(&self.state).jobs.get(id).cloned()
    }

    /// All jobs in id order.
    pub fn jobs(&self) -> Vec<StoredJob> {
        lock(&self.state).jobs.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tml-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_dedup_and_status_roundtrip_through_reopen() {
        let dir = tmp_dir("roundtrip");
        let (store, report) = JobStore::open(&dir).unwrap();
        assert_eq!(report.jobs, 0);

        let SubmitOutcome::Created(job) =
            store.submit(Some("k1"), "{\"spec\":1}").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!(job.id, "exp-000000");
        let SubmitOutcome::Deduplicated(dup) =
            store.submit(Some("k1"), "{\"spec\":1}").unwrap()
        else {
            panic!("expected dedup");
        };
        assert_eq!(dup.id, job.id);
        store
            .set_status(&job.id, JobStatus::Running, None)
            .unwrap();

        let (reopened, report) = JobStore::open(&dir).unwrap();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.pending, vec!["exp-000000".to_string()]);
        let job = reopened.get("exp-000000").unwrap();
        assert_eq!(job.status, JobStatus::Running);
        assert_eq!(job.key.as_deref(), Some("k1"));

        // Dedup and id allocation both survive the reopen.
        let SubmitOutcome::Deduplicated(_) =
            reopened.submit(Some("k1"), "{}").unwrap()
        else {
            panic!("dedup lost across reopen");
        };
        let SubmitOutcome::Created(next) =
            reopened.submit(None, "{}").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!(next.id, "exp-000001");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let dir = tmp_dir("torn");
        let (store, _) = JobStore::open(&dir).unwrap();
        store.submit(None, "{}").unwrap();
        let journal = dir.join("jobs.jsonl");
        let mut text = fs::read_to_string(&journal).unwrap();
        text.push_str("{\"seq\":99,\"id\":\"exp-0000"); // torn mid-write
        fs::write(&journal, text).unwrap();

        let (_, report) = JobStore::open(&dir).unwrap();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.torn_lines, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_for_unknown_id_is_orphaned_not_fatal() {
        let dir = tmp_dir("orphan");
        fs::write(
            dir.join("jobs.jsonl"),
            "{\"seq\":0,\"id\":\"exp-000007\",\"status\":\"done\"}\n",
        )
        .unwrap();
        let (store, report) = JobStore::open(&dir).unwrap();
        assert_eq!(report.orphan_lines, 1);
        assert!(store.jobs().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
