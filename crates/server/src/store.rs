//! Job persistence: the [`JobStore`] trait with an in-memory backend
//! for tests and a file-backed backend whose `jobs.jsonl` journal
//! reuses the crash-safety recipe of the sweep manifest
//! (`core/src/sweep.rs`): append-only JSON lines, fsynced per append,
//! torn trailing lines tolerated and ignored on replay, duplicate
//! lines idempotent.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};
use treadmill_core::sweep::seal_torn_tail;

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

/// Pluggable job persistence.
pub trait JobStore: Send + Sync {
    /// Admits a job (or dedups it by idempotency `key`).
    fn submit(&self, key: Option<&str>, spec_json: &str) -> io::Result<SubmitOutcome>;
    /// Records a lifecycle transition.
    fn set_status(
        &self,
        id: &str,
        status: JobStatus,
        detail: Option<&str>,
    ) -> io::Result<()>;
    /// Fetches one job.
    fn get(&self, id: &str) -> Option<StoredJob>;
    /// All jobs in id order.
    fn jobs(&self) -> Vec<StoredJob>;
}

/// Shared bookkeeping for both backends.
#[derive(Default)]
struct Inner {
    next_job: u64,
    jobs: BTreeMap<String, StoredJob>,
    by_key: BTreeMap<String, String>,
}

impl Inner {
    fn submit(&mut self, key: Option<&str>, spec_json: &str) -> SubmitOutcome {
        if let Some(key) = key {
            if let Some(id) = self.by_key.get(key) {
                if let Some(job) = self.jobs.get(id) {
                    return SubmitOutcome::Deduplicated(job.clone());
                }
            }
        }
        let id = format!("exp-{:06}", self.next_job);
        self.next_job += 1;
        let job = StoredJob {
            id: id.clone(),
            key: key.map(str::to_string),
            spec_json: spec_json.to_string(),
            status: JobStatus::Queued,
            detail: None,
        };
        if let Some(key) = key {
            self.by_key.insert(key.to_string(), id.clone());
        }
        self.jobs.insert(id, job.clone());
        SubmitOutcome::Created(job)
    }

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
}

/// Volatile store for tests and `--mem-store` runs; journal-free, so
/// a crash forgets everything (by design).
#[derive(Default)]
pub struct MemStore {
    inner: Mutex<Inner>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl JobStore for MemStore {
    fn submit(&self, key: Option<&str>, spec_json: &str) -> io::Result<SubmitOutcome> {
        Ok(lock(&self.inner).submit(key, spec_json))
    }

    fn set_status(
        &self,
        id: &str,
        status: JobStatus,
        detail: Option<&str>,
    ) -> io::Result<()> {
        lock(&self.inner).set_status(id, status, detail);
        Ok(())
    }

    fn get(&self, id: &str) -> Option<StoredJob> {
        lock(&self.inner).jobs.get(id).cloned()
    }

    fn jobs(&self) -> Vec<StoredJob> {
        lock(&self.inner).jobs.values().cloned().collect()
    }
}

/// One journal line: a job state transition. Submission lines carry
/// the spec (and key); later transitions carry only the new status.
#[derive(Debug, Serialize, Deserialize)]
struct JournalLine {
    seq: u64,
    id: String,
    status: String,
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

/// Durable store: every transition is one fsynced JSON line in
/// `jobs.jsonl`. [`FileStore::open`] replays the journal, so a
/// SIGKILL'd server reconstructs exactly the admitted state.
pub struct FileStore {
    journal: PathBuf,
    state: Mutex<InnerWithSeq>,
}

struct InnerWithSeq {
    inner: Inner,
    seq: u64,
}

impl FileStore {
    /// Opens (or creates) the journal under `state_dir` and replays it.
    pub fn open(state_dir: &Path) -> io::Result<(FileStore, ReplayReport)> {
        fs::create_dir_all(state_dir)?;
        let journal = state_dir.join("jobs.jsonl");
        let (inner, seq, report) = match fs::read_to_string(&journal) {
            Ok(text) => {
                seal_torn_tail(&journal, &text)?;
                replay(&text)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (Inner::default(), 0, ReplayReport::default())
            }
            Err(e) => return Err(e),
        };
        let store = FileStore {
            journal,
            state: Mutex::new(InnerWithSeq { inner, seq }),
        };
        Ok((store, report))
    }

    fn append(&self, line: &JournalLine) -> io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.journal)?;
        let mut serialized =
            serde_json::to_string(line).map_err(io::Error::other)?;
        serialized.push('\n');
        file.write_all(serialized.as_bytes())?;
        file.sync_all()
    }

    /// Fsyncs the journal file and its directory — the drain path's
    /// final flush (appends are already fsynced; this pins the
    /// directory entry too).
    pub fn flush(&self) -> io::Result<()> {
        if let Ok(file) = File::open(&self.journal) {
            file.sync_all()?;
        }
        if let Some(dir) = self.journal.parent() {
            if let Ok(dir_handle) = File::open(dir) {
                let _ = dir_handle.sync_all();
            }
        }
        Ok(())
    }
}

/// Replays journal text into store state. Torn lines (no trailing
/// newline, unparseable JSON) and status lines for unknown ids are
/// counted and skipped; duplicate submissions of the same id are
/// idempotent.
fn replay(text: &str) -> (Inner, u64, ReplayReport) {
    let mut inner = Inner::default();
    let mut report = ReplayReport::default();
    let mut seq = 0u64;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(entry) = serde_json::from_str::<JournalLine>(line) else {
            report.torn_lines += 1;
            continue;
        };
        seq = seq.max(entry.seq.saturating_add(1));
        let Some(status) = JobStatus::parse(&entry.status) else {
            report.torn_lines += 1;
            continue;
        };
        match entry.spec {
            Some(spec) => {
                // A submission line. Duplicates are idempotent: the
                // first wins (a re-sent line cannot change the spec).
                if !inner.jobs.contains_key(&entry.id) {
                    let job = StoredJob {
                        id: entry.id.clone(),
                        key: entry.key.clone(),
                        spec_json: spec,
                        status,
                        detail: entry.detail,
                    };
                    if let Some(key) = &entry.key {
                        inner.by_key.insert(key.clone(), entry.id.clone());
                    }
                    if let Some(n) = entry
                        .id
                        .strip_prefix("exp-")
                        .and_then(|n| n.parse::<u64>().ok())
                    {
                        inner.next_job = inner.next_job.max(n + 1);
                    }
                    inner.jobs.insert(entry.id, job);
                }
            }
            None => {
                if !inner.set_status(&entry.id, status, entry.detail.as_deref()) {
                    report.orphan_lines += 1;
                }
            }
        }
    }
    report.jobs = inner.jobs.len();
    report.pending = inner
        .jobs
        .values()
        .filter(|j| !j.status.is_terminal())
        .map(|j| j.id.clone())
        .collect();
    (inner, seq, report)
}

impl JobStore for FileStore {
    fn submit(&self, key: Option<&str>, spec_json: &str) -> io::Result<SubmitOutcome> {
        let mut state = lock(&self.state);
        let outcome = state.inner.submit(key, spec_json);
        if let SubmitOutcome::Created(job) = &outcome {
            let seq = state.seq;
            state.seq += 1;
            self.append(&JournalLine {
                seq,
                id: job.id.clone(),
                status: job.status.as_str().to_string(),
                key: job.key.clone(),
                spec: Some(job.spec_json.clone()),
                detail: None,
            })?;
        }
        Ok(outcome)
    }

    fn set_status(
        &self,
        id: &str,
        status: JobStatus,
        detail: Option<&str>,
    ) -> io::Result<()> {
        let mut state = lock(&self.state);
        if !state.inner.set_status(id, status, detail) {
            return Ok(());
        }
        let seq = state.seq;
        state.seq += 1;
        self.append(&JournalLine {
            seq,
            id: id.to_string(),
            status: status.as_str().to_string(),
            key: None,
            spec: None,
            detail: detail.map(str::to_string),
        })
    }

    fn get(&self, id: &str) -> Option<StoredJob> {
        lock(&self.state).inner.jobs.get(id).cloned()
    }

    fn jobs(&self) -> Vec<StoredJob> {
        lock(&self.state).inner.jobs.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (store, report) = FileStore::open(&dir).unwrap();
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

        let (reopened, report) = FileStore::open(&dir).unwrap();
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
        let (store, _) = FileStore::open(&dir).unwrap();
        store.submit(None, "{}").unwrap();
        let journal = dir.join("jobs.jsonl");
        let mut text = fs::read_to_string(&journal).unwrap();
        text.push_str("{\"seq\":99,\"id\":\"exp-0000"); // torn mid-write
        fs::write(&journal, text).unwrap();

        let (_, report) = FileStore::open(&dir).unwrap();
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
        let (store, report) = FileStore::open(&dir).unwrap();
        assert_eq!(report.orphan_lines, 1);
        assert!(store.jobs().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
