//! The one record of every job: one [`JobStore`] holds each job's
//! spec, status, failure detail and progress lines, and the queue of
//! ids waiting for the executor, under one lock, so a reader that sees
//! a terminal status also sees every line pushed before it. Progress
//! lines live in memory only, at most 4096 per job plus a truncation
//! marker.
//!
//! Each admitted job and each transition is one line of `jobs.jsonl`
//! ([`treadmill_core::journal::Journal`]: fsynced, torn tails sealed
//! and skipped on replay), appended first and then applied to memory
//! exactly as replay applies it, so a failed append changes nothing.
//! Duplicate lines are idempotent. A shed submission is not journaled
//! and takes no id.
//!
//! The journal is also the service's provenance trail. Each line is
//! stamped with the wall-clock `unix_ms` of its append; a job's
//! submission line holds its spec (seed and configuration included),
//! and every later line is a transition: `running` each time an
//! executor picks the job up (a second one is a recovery after a crash
//! or a drain), then `done` or `failed`. A job whose last line is
//! `queued` or `running` when the server starts is queued again.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};
use treadmill_core::journal::Journal;

use crate::job::JobStatus;

/// Progress lines kept per job; past it one truncation marker is
/// appended and later lines are dropped, so memory stays bounded no
/// matter how long a job runs.
const MAX_PROGRESS_LINES: usize = 4096;

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
    /// Progress lines recorded so far (what `/events` streams).
    pub events: usize,
}

/// What a submission did.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// A new job was journaled and queued.
    Created {
        /// The new job.
        job: StoredJob,
        /// Queue depth after the push.
        depth: usize,
    },
    /// The idempotency key matched an existing job; nothing was
    /// created and the original is returned.
    Deduplicated(StoredJob),
    /// The queue is full. Nothing was journaled and no id was taken.
    Shed,
    /// The store is closed (the service is draining). Nothing was
    /// journaled and no id was taken.
    Closed,
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

impl JournalLine {
    /// A line moving `id` to `status`; the append stamps `seq` and
    /// `unix_ms`.
    fn new(id: &str, status: JobStatus) -> Self {
        JournalLine {
            seq: 0,
            unix_ms: 0,
            id: id.to_string(),
            status,
            key: None,
            spec: None,
            detail: None,
        }
    }
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
    /// Ids of jobs left `queued` or `running`, queued again in id order.
    pub pending: Vec<String>,
}

/// The job table and the queue of ids the executor has yet to run.
/// Every transition is one fsynced journal line and [`JobStore::open`]
/// replays it, so a SIGKILL'd server reconstructs exactly the admitted
/// state.
pub struct JobStore {
    journal: Journal<JournalLine>,
    /// Submissions beyond this many queued ids are shed.
    cap: usize,
    state: Mutex<State>,
    /// Signalled when an id is queued or the store closes.
    ready: Condvar,
}

#[derive(Default)]
struct State {
    next_job: u64,
    next_seq: u64,
    jobs: BTreeMap<String, Entry>,
    by_key: BTreeMap<String, String>,
    queue: VecDeque<String>,
    closed: bool,
}

/// A job and its progress lines.
struct Entry {
    job: StoredJob,
    lines: Vec<String>,
}

impl Entry {
    fn push(&mut self, line: String) {
        if self.lines.len() < MAX_PROGRESS_LINES {
            self.lines.push(line);
        } else if self.lines.len() == MAX_PROGRESS_LINES {
            self.lines.push("… further progress truncated".to_string());
        }
        self.job.events = self.lines.len();
    }
}

impl State {
    /// Applies one journal line, at replay and after each append; false
    /// for a status line naming an unknown id. Duplicate submissions
    /// are idempotent: the first wins (a re-sent line cannot change the
    /// spec).
    fn apply(&mut self, line: JournalLine) -> bool {
        self.next_seq = self.next_seq.max(line.seq.saturating_add(1));
        let Some(spec) = line.spec else {
            let Some(entry) = self.jobs.get_mut(&line.id) else {
                return false;
            };
            entry.job.status = line.status;
            entry.job.detail = line.detail;
            return true;
        };
        if self.jobs.contains_key(&line.id) {
            return true;
        }
        if let Some(key) = &line.key {
            self.by_key.insert(key.clone(), line.id.clone());
        }
        if let Some(n) = line
            .id
            .strip_prefix("exp-")
            .and_then(|n| n.parse::<u64>().ok())
        {
            self.next_job = self.next_job.max(n + 1);
        }
        let job = StoredJob {
            id: line.id.clone(),
            key: line.key,
            spec_json: spec,
            status: line.status,
            detail: line.detail,
            events: 0,
        };
        self.jobs.insert(line.id, Entry { job, lines: Vec::new() });
        true
    }
}

impl JobStore {
    /// Opens (or creates) the journal under `state_dir` and replays
    /// it. Torn lines (unparseable JSON) and status lines for unknown
    /// ids are counted and skipped. Jobs the journal left `queued` or
    /// `running` are queued again, past `cap` if need be (they were
    /// admitted under it), each with its first progress line.
    /// Submissions beyond `cap` queued ids are shed.
    pub fn open(state_dir: &Path, cap: usize) -> io::Result<(JobStore, ReplayReport)> {
        fs::create_dir_all(state_dir)?;
        let (journal, replay) = Journal::open(&state_dir.join("jobs.jsonl"))?;
        let mut state = State::default();
        let mut report = ReplayReport {
            torn_lines: replay.unparseable,
            ..ReplayReport::default()
        };
        for line in replay.records {
            if !state.apply(line) {
                report.orphan_lines += 1;
            }
        }
        report.jobs = state.jobs.len();
        for (id, entry) in &mut state.jobs {
            if !entry.job.status.is_terminal() {
                entry.push(format!(
                    "job {id}: recovered from journal ({})",
                    entry.job.status
                ));
                report.pending.push(id.clone());
            }
        }
        state.queue.extend(report.pending.iter().cloned());
        let store = JobStore {
            journal,
            cap,
            state: Mutex::new(state),
            ready: Condvar::new(),
        };
        Ok((store, report))
    }

    /// Recovers a poisoned lock: memory changes only by applying a
    /// journaled line, in steps that cannot panic, so the service
    /// degrades gracefully instead of cascading a holder's panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Journals `line` under the next sequence number, stamped with the
    /// wall clock, then applies it to memory.
    fn append(&self, state: &mut State, mut line: JournalLine) -> io::Result<()> {
        line.seq = state.next_seq;
        state.next_seq += 1;
        line.unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        self.journal.append(&line)?;
        state.apply(line);
        Ok(())
    }

    /// Admits a job in one step: a known idempotency `key` returns its
    /// job whatever the queue holds; a closed store or a full queue
    /// sheds, journaling nothing and taking no id; otherwise the
    /// submission is journaled, then recorded with its first progress
    /// line, `job {id}: {note}`, and queued. An id whose append fails
    /// is not used again: the line may still have reached the disk.
    pub fn submit(
        &self,
        key: Option<&str>,
        spec_json: &str,
        note: &str,
    ) -> io::Result<SubmitOutcome> {
        let mut state = self.lock();
        if let Some(entry) = key
            .and_then(|key| state.by_key.get(key))
            .and_then(|id| state.jobs.get(id))
        {
            return Ok(SubmitOutcome::Deduplicated(entry.job.clone()));
        }
        if state.closed {
            return Ok(SubmitOutcome::Closed);
        }
        if state.queue.len() >= self.cap {
            return Ok(SubmitOutcome::Shed);
        }
        let id = format!("exp-{:06}", state.next_job);
        state.next_job += 1;
        let line = JournalLine {
            key: key.map(str::to_string),
            spec: Some(spec_json.to_string()),
            ..JournalLine::new(&id, JobStatus::Queued)
        };
        self.append(&mut state, line)?;
        let Some(entry) = state.jobs.get_mut(&id) else {
            return Err(io::Error::other(format!("{id} vanished after its append")));
        };
        entry.push(format!("job {id}: {note}"));
        let job = entry.job.clone();
        state.queue.push_back(id);
        let depth = state.queue.len();
        drop(state);
        self.ready.notify_one();
        Ok(SubmitOutcome::Created { job, depth })
    }

    /// Blocks until a queued id is ready (`Some`) or the store is
    /// closed (`None`).
    pub fn next(&self) -> Option<String> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            if let Some(id) = state.queue.pop_front() {
                return Some(id);
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the store for a drain: queued ids are dropped (they stay
    /// journaled and are queued again at the next start), later
    /// submissions get [`SubmitOutcome::Closed`], and [`JobStore::next`]
    /// returns `None`.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.queue.clear();
        drop(state);
        self.ready.notify_all();
    }

    /// Records a lifecycle transition; unknown ids are ignored.
    pub fn set_status(
        &self,
        id: &str,
        status: JobStatus,
        detail: Option<&str>,
    ) -> io::Result<()> {
        let mut state = self.lock();
        if !state.jobs.contains_key(id) {
            return Ok(());
        }
        let line = JournalLine {
            detail: detail.map(str::to_string),
            ..JournalLine::new(id, status)
        };
        self.append(&mut state, line)
    }

    /// Appends one progress line to a job; unknown ids are ignored.
    pub fn push_progress(&self, id: &str, line: String) {
        if let Some(entry) = self.lock().jobs.get_mut(id) {
            entry.push(line);
        }
    }

    /// Fetches one job.
    pub fn get(&self, id: &str) -> Option<StoredJob> {
        self.lock().jobs.get(id).map(|entry| entry.job.clone())
    }

    /// A job's progress lines from index `from` on, and its status, in
    /// one read.
    pub fn progress(&self, id: &str, from: usize) -> Option<(Vec<String>, JobStatus)> {
        let state = self.lock();
        let entry = state.jobs.get(id)?;
        let lines = entry.lines.get(from..).unwrap_or_default().to_vec();
        Some((lines, entry.job.status))
    }

    /// Ids queued for the executor.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// The queue depth beyond which submissions are shed.
    pub fn cap(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const CAP: usize = 8;

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
        let (store, report) = JobStore::open(&dir, CAP).unwrap();
        assert_eq!(report.jobs, 0);

        let SubmitOutcome::Created { job, .. } =
            store.submit(Some("k1"), "{\"spec\":1}", "queued").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!(job.id, "exp-000000");
        let SubmitOutcome::Deduplicated(dup) =
            store.submit(Some("k1"), "{\"spec\":1}", "queued").unwrap()
        else {
            panic!("expected dedup");
        };
        assert_eq!(dup.id, job.id);
        store
            .set_status(&job.id, JobStatus::Running, None)
            .unwrap();

        let (reopened, report) = JobStore::open(&dir, CAP).unwrap();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.pending, vec!["exp-000000".to_string()]);
        let job = reopened.get("exp-000000").unwrap();
        assert_eq!(job.status, JobStatus::Running);
        assert_eq!(job.key.as_deref(), Some("k1"));

        // Dedup and id allocation both survive the reopen.
        let SubmitOutcome::Deduplicated(_) =
            reopened.submit(Some("k1"), "{}", "queued").unwrap()
        else {
            panic!("dedup lost across reopen");
        };
        let SubmitOutcome::Created { job: next, .. } =
            reopened.submit(None, "{}", "queued").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!(next.id, "exp-000001");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_line_is_stamped_and_an_unstamped_journal_replays_the_same() {
        let dir = tmp_dir("stamped");
        let (store, _) = JobStore::open(&dir, CAP).unwrap();
        for (key, status) in [
            ("a", Some(JobStatus::Done)),
            ("b", Some(JobStatus::Running)),
            ("c", None),
            ("d", Some(JobStatus::Failed)),
        ] {
            let SubmitOutcome::Created { job, .. } =
                store.submit(Some(key), "{}", "queued").unwrap()
            else {
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
        let (stamped, stamped_report) = JobStore::open(&dir, CAP).unwrap();

        // The same journal as a build before the stamp wrote it.
        fs::write(&journal, unstamped).unwrap();
        let (parent, parent_report) = JobStore::open(&dir, CAP).unwrap();
        assert_eq!((parent_report.jobs, stamped_report.jobs), (4, 4));
        for n in 0..4 {
            let id = format!("exp-{n:06}");
            assert_eq!(parent.get(&id), stamped.get(&id), "{id}");
        }
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
        let (store, _) = JobStore::open(&dir, CAP).unwrap();
        store.submit(None, "{}", "queued").unwrap();
        let journal = dir.join("jobs.jsonl");
        let mut text = fs::read_to_string(&journal).unwrap();
        text.push_str("{\"seq\":99,\"id\":\"exp-0000"); // torn mid-write
        fs::write(&journal, text).unwrap();

        let (_, report) = JobStore::open(&dir, CAP).unwrap();
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
        let (store, report) = JobStore::open(&dir, CAP).unwrap();
        assert_eq!(report.orphan_lines, 1);
        assert_eq!(report.jobs, 0);
        assert_eq!(store.get("exp-000007"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_and_closed_submissions_journal_nothing_and_take_no_id() {
        let dir = tmp_dir("shed");
        let (store, _) = JobStore::open(&dir, 1).unwrap();
        let SubmitOutcome::Created { job, depth } =
            store.submit(Some("a"), "{}", "queued").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!((job.id.as_str(), depth), ("exp-000000", 1));
        let journal = dir.join("jobs.jsonl");
        let admitted = fs::read_to_string(&journal).unwrap();

        // Full: shed, and the key stays free.
        assert!(matches!(
            store.submit(Some("b"), "{}", "queued").unwrap(),
            SubmitOutcome::Shed
        ));
        assert_eq!(fs::read_to_string(&journal).unwrap(), admitted);
        assert_eq!(store.next().as_deref(), Some("exp-000000"));
        let SubmitOutcome::Created { job, .. } =
            store.submit(Some("b"), "{}", "queued").unwrap()
        else {
            panic!("a key shed at a full queue was burned");
        };
        assert_eq!(job.id, "exp-000001", "the shed submission took an id");

        // Closed: a known key still answers, a new one is turned away.
        store.close();
        assert!(matches!(
            store.submit(Some("a"), "{}", "queued").unwrap(),
            SubmitOutcome::Deduplicated(_)
        ));
        let before = fs::read_to_string(&journal).unwrap();
        assert!(matches!(
            store.submit(Some("c"), "{}", "queued").unwrap(),
            SubmitOutcome::Closed
        ));
        assert_eq!(fs::read_to_string(&journal).unwrap(), before);
        assert_eq!(store.next(), None);
        assert_eq!(store.depth(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_sits_beside_the_status_and_stays_bounded() {
        let dir = tmp_dir("progress");
        let (store, _) = JobStore::open(&dir, CAP).unwrap();
        let SubmitOutcome::Created { job, .. } =
            store.submit(None, "{}", "queued (2 runs)").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!(job.events, 1);
        assert_eq!(
            store.progress(&job.id, 0),
            Some((
                vec!["job exp-000000: queued (2 runs)".to_string()],
                JobStatus::Queued
            ))
        );
        for i in 0..2 * MAX_PROGRESS_LINES {
            store.push_progress(&job.id, format!("line {i}"));
        }
        store.set_status(&job.id, JobStatus::Done, None).unwrap();
        let (lines, status) = store.progress(&job.id, MAX_PROGRESS_LINES - 1).unwrap();
        assert_eq!(status, JobStatus::Done);
        let truncated = "… further progress truncated".to_string();
        assert_eq!(lines, [format!("line {}", MAX_PROGRESS_LINES - 2), truncated]);
        assert_eq!(store.get(&job.id).unwrap().events, MAX_PROGRESS_LINES + 1);
        assert_eq!(store.progress(&job.id, usize::MAX).unwrap().0, Vec::<String>::new());

        // Reading or pushing to an unknown id creates nothing.
        store.push_progress("exp-999999", "stray".to_string());
        assert_eq!(store.progress("exp-999999", 0), None);
        assert_eq!(store.get("exp-999999"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_jobs_are_queued_again_with_their_first_line() {
        let dir = tmp_dir("recover");
        let (store, _) = JobStore::open(&dir, 1).unwrap();
        for key in ["a", "b"] {
            store.submit(Some(key), "{}", "queued").unwrap();
            let id = store.next().unwrap();
            store.set_status(&id, JobStatus::Running, None).unwrap();
            if key == "a" {
                store.set_status(&id, JobStatus::Done, None).unwrap();
            }
        }
        store.submit(Some("c"), "{}", "queued").unwrap();
        drop(store);

        // Recovery bypasses the cap: both pending jobs are queued.
        let (store, report) = JobStore::open(&dir, 1).unwrap();
        assert_eq!(report.pending, ["exp-000001", "exp-000002"]);
        assert_eq!(store.depth(), 2);
        assert_eq!(
            store.progress("exp-000001", 0).unwrap(),
            (
                vec!["job exp-000001: recovered from journal (running)".to_string()],
                JobStatus::Running
            )
        );
        assert_eq!(store.get("exp-000000").unwrap().events, 0);
        assert!(matches!(
            store.submit(None, "{}", "queued").unwrap(),
            SubmitOutcome::Shed
        ));
        assert_eq!(store.next().as_deref(), Some("exp-000001"));
        assert_eq!(store.next().as_deref(), Some("exp-000002"));
        let _ = fs::remove_dir_all(&dir);
    }
}
