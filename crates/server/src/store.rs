//! Job persistence: one [`JobStore`], journaled to `jobs.jsonl` through
//! [`treadmill_core::journal::Journal`] (the crash-safety recipe of the
//! sweep manifest: one fsynced JSON line per transition, torn tails
//! sealed and skipped on replay). Duplicate journal lines are
//! idempotent.
//!
//! The journal is also the service's provenance trail. Each line is
//! stamped with the wall-clock `unix_ms` of its append; a job's
//! submission line holds its spec (seed and configuration included),
//! and every later line is a transition: `running` each time an
//! executor picks the job up (a second one is a recovery after a crash
//! or a drain), then `done` or `failed`. A job whose last line is
//! `running` when the server starts was interrupted.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

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
    /// Wall-clock milliseconds since the Unix epoch at the append.
    /// Provenance only: replay never reads it, and lines written before
    /// it existed replay as 0.
    #[serde(default)]
    unix_ms: u64,
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

/// The job table. Every transition is one fsynced journal line and
/// [`JobStore::open`] replays it, so a SIGKILL'd server reconstructs
/// exactly the admitted state.
pub struct JobStore {
    journal: Journal<JournalLine>,
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
            journal,
            state: Mutex::new(state),
        };
        Ok((store, report))
    }

    /// Journals `line` under the next sequence number, stamped with the
    /// wall clock.
    fn append(&self, state: &mut State, mut line: JournalLine) -> io::Result<()> {
        line.seq = state.next_seq;
        state.next_seq += 1;
        line.unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        self.journal.append(&line)
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
            unix_ms: 0,
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
            unix_ms: 0,
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
    fn every_line_is_stamped_and_an_unstamped_journal_replays_the_same() {
        let dir = tmp_dir("stamped");
        let (store, _) = JobStore::open(&dir).unwrap();
        for (key, status) in [
            ("a", Some(JobStatus::Done)),
            ("b", Some(JobStatus::Running)),
            ("c", None),
            ("d", Some(JobStatus::Failed)),
        ] {
            let SubmitOutcome::Created(job) = store.submit(Some(key), "{}").unwrap() else {
                panic!("expected creation");
            };
            if let Some(status) = status {
                store.set_status(&job.id, JobStatus::Running, None).unwrap();
                store.set_status(&job.id, status, Some("why")).unwrap();
            }
        }
        let journal = dir.join("jobs.jsonl");
        let text = fs::read_to_string(&journal).unwrap();
        let mut unstamped = String::new();
        for line in text.lines() {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(value["unix_ms"].as_u64().unwrap() > 0, "{line}");
            // `"unix_ms":N,` cut out of the line.
            let at = line.find("\"unix_ms\":").unwrap();
            let end = at + line[at..].find(',').unwrap() + 1;
            unstamped.push_str(&format!("{}{}\n", &line[..at], &line[end..]));
        }
        let (stamped, stamped_report) = JobStore::open(&dir).unwrap();

        // The same journal as a build before the stamp wrote it.
        fs::write(&journal, unstamped).unwrap();
        let (parent, parent_report) = JobStore::open(&dir).unwrap();
        assert_eq!(parent.jobs(), stamped.jobs());
        assert_eq!(parent_report.pending, stamped_report.pending);
        assert_eq!(
            parent_report.pending,
            vec!["exp-000001".to_string(), "exp-000002".to_string()]
        );
        assert_eq!(parent_report.torn_lines, 0);
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
