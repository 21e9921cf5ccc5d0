//! The one crash-tolerant journal, and atomic whole-file writes.
//!
//! The sweep manifest (`manifest.jsonl`) and the service's job journal
//! (`jobs.jsonl`) are the same thing: an append-only file of one JSON
//! record per line that must survive a SIGKILL at any instant.
//! [`Journal`] is that file:
//!
//! * **append** — one serialised line, one write, one fsync, so a
//!   record is on disk once [`Journal::append`] returns;
//! * **open** — a crash mid-append leaves a last line without its
//!   newline; [`Journal::open`] seals it with one, so the next record
//!   starts a line of its own instead of being glued onto the debris;
//! * **replay** — every line that parses is a record; every line that
//!   does not (torn, bit-flipped, not UTF-8, an unknown shape) is
//!   counted and skipped, never fatal.
//!
//! [`write_atomic`] is the companion for whole files (artifacts,
//! checkpoint envelopes): a reader sees the old file or the new one,
//! never a mix. [`append_synced_with`] and [`truncate_synced`] serve
//! binary append-only files (a checkpoint's record segment): a streamed
//! append made durable before anything refers to it, and the cut that
//! drops what a crash appended past the last committed byte.
//! [`remove_synced`] deletes a file for good (a stale checkpoint
//! envelope) before anything is journaled that a crash could otherwise
//! pair with it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// An append-only, fsynced JSON-lines file of `T` records.
#[derive(Debug)]
pub struct Journal<T> {
    path: PathBuf,
    record: PhantomData<fn(&T)>,
}

/// What [`Journal::open`] read back.
#[derive(Debug)]
pub struct Replay<T> {
    /// Every line that parsed as a `T`, in file order.
    pub records: Vec<T>,
    /// Lines that did not parse (crash debris); skipped.
    pub unparseable: usize,
}

impl<T: Serialize + for<'de> Deserialize<'de>> Journal<T> {
    /// Opens the journal at `path` (a missing file is an empty
    /// journal, created by the first append), seals a torn last line
    /// and replays the records.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than the file not existing yet.
    pub fn open(path: &Path) -> io::Result<(Self, Replay<T>)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if bytes.last().is_some_and(|&b| b != b'\n') {
            seal_torn_tail(path)?;
        }
        let mut replay = Replay {
            records: Vec::new(),
            unparseable: 0,
        };
        for line in bytes.split(|&b| b == b'\n') {
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            match std::str::from_utf8(line).map(serde_json::from_str::<T>) {
                Ok(Ok(record)) => replay.records.push(record),
                _ => replay.unparseable += 1,
            }
        }
        let journal = Journal {
            path: path.to_path_buf(),
            record: PhantomData,
        };
        Ok((journal, replay))
    }

    /// Appends `record` as one line and fsyncs it.
    ///
    /// # Errors
    ///
    /// Filesystem errors; the record may then be absent or torn.
    pub fn append(&self, record: &T) -> io::Result<()> {
        let mut line = serde_json::to_string(record).map_err(io::Error::other)?;
        line.push('\n');
        append_synced(&self.path, line.as_bytes())
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Closes a torn last line, so the next append is not glued onto the
/// debris and lost with it on the following replay.
fn seal_torn_tail(path: &Path) -> io::Result<()> {
    append_synced(path, b"\n")
}

/// A durable append of one byte string.
fn append_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    append_synced_with(path, |file| file.write_all(bytes))
}

/// The one durable append: opens the file at `path` for append
/// (creating it if missing), lets `fill` write to it, then fsyncs it.
/// A writer that produces its bytes piece by piece streams them here.
/// Returns `fill`'s value once the bytes are on disk.
///
/// # Errors
///
/// Filesystem errors, or `fill`'s; the appended bytes may then be
/// absent or torn.
pub fn append_synced_with<T>(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let value = fill(&mut file)?;
    file.sync_all()?;
    Ok(value)
}

/// Cuts the file at `path` back to its first `len` bytes and fsyncs
/// the cut, so the next append continues byte `len` instead of landing
/// on whatever lay past it. A shorter file is left as it is, and a
/// missing one stays missing.
///
/// # Errors
///
/// Filesystem errors; the file may then still be longer than `len`.
pub fn truncate_synced(path: &Path, len: u64) -> io::Result<()> {
    let file = match OpenOptions::new().write(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if file.metadata()?.len() > len {
        file.set_len(len)?;
        file.sync_all()?;
    }
    Ok(())
}

/// Writes `contents` to `path` atomically: a `*.tmp` sibling in the
/// same directory, fsync, rename, directory fsync. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
///
/// # Errors
///
/// Filesystem errors; `path` then still holds its previous contents.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent(path);
    Ok(())
}

/// Removes the file at `path`, if there is one, and fsyncs its
/// directory so the removal survives a crash.
///
/// # Errors
///
/// Filesystem errors other than the file not existing; the file may
/// then still be there.
pub fn remove_synced(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    sync_parent(path);
    Ok(())
}

/// Persists a change to `path`'s directory entry (a rename or a
/// removal); without this a crash can forget it even though the data
/// blocks are safe.
fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(dir_handle) = File::open(dir) {
            let _ = dir_handle.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        seq: u64,
        text: String,
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tml-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn records() -> Vec<Rec> {
        vec![
            Rec {
                seq: 0,
                text: "plain".to_string(),
            },
            Rec {
                seq: 1,
                // Every escape the writer emits, plus multi-byte UTF-8
                // so some prefixes end inside a character.
                text: "q\"b\\n\nt\tr\r\u{8}\u{c}\u{1} é 😀".to_string(),
            },
            Rec {
                seq: 2,
                text: String::new(),
            },
        ]
    }

    /// Crash points enumerated, not sampled: the journal is cut after
    /// every byte a crash could have left on disk.
    #[test]
    fn every_byte_prefix_replays_its_complete_records() {
        let dir = tempdir("prefixes");
        let full = dir.join("full.jsonl");
        let (journal, replay) = Journal::<Rec>::open(&full).expect("open");
        assert!(replay.records.is_empty() && replay.unparseable == 0);
        for rec in records() {
            journal.append(&rec).expect("append");
        }
        let bytes = fs::read(&full).expect("read");
        assert!(bytes.contains(&b'\\'), "the escaped record must be escaped");
        // Where each record's JSON ends (its newline's offset).
        let ends: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ends.len(), records().len());

        let extra = Rec {
            seq: 99,
            text: "after the crash".to_string(),
        };
        let cut_path = dir.join("cut.jsonl");
        for cut in 0..=bytes.len() {
            fs::write(&cut_path, &bytes[..cut]).expect("write prefix");
            // A record is complete once its JSON is, newline or not;
            // the bytes after the last complete one are the torn line.
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            let start = ends[..complete].last().map_or(0, |&end| end + 1);
            let torn = usize::from(complete < ends.len() && cut > start);

            let (journal, replay) = Journal::<Rec>::open(&cut_path).expect("reopen");
            assert_eq!(replay.records, records()[..complete], "cut at {cut}");
            assert_eq!(replay.unparseable, torn, "cut at {cut}");

            journal.append(&extra).expect("append after reopen");
            let (_, replay) = Journal::<Rec>::open(&cut_path).expect("reopen again");
            let mut expected = records()[..complete].to_vec();
            expected.push(extra.clone());
            assert_eq!(replay.records, expected, "cut at {cut}");
            assert_eq!(replay.unparseable, torn, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_lines_are_counted_not_fatal() {
        let dir = tempdir("debris");
        let path = dir.join("j.jsonl");
        let mut bytes = b"{\"seq\":0,\"text\":\"a\"}\n\xff\xfe\n{\"seq\":1}\n\n".to_vec();
        bytes.extend_from_slice(b"{\"seq\":2,\"text\":\"b\"}\n");
        fs::write(&path, &bytes).expect("write");
        let (_, replay) = Journal::<Rec>::open(&path).expect("open");
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
        // Invalid UTF-8 and a record of the wrong shape; the blank line
        // is not a record at all.
        assert_eq!(replay.unparseable, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_append_and_truncate_keep_the_committed_prefix() {
        let dir = tempdir("segment");
        let path = dir.join("cell_0.records");
        // Cutting a file that does not exist yet is a no-op.
        truncate_synced(&path, 0).expect("truncate missing");
        assert!(!path.exists());
        let n = append_synced_with(&path, |f| f.write_all(b"first ").map(|()| 6)).expect("append");
        assert_eq!(n, 6);
        append_synced_with(&path, |f| f.write_all(b"debris")).expect("append");
        truncate_synced(&path, 6).expect("truncate");
        // A cut past the end leaves the file alone.
        truncate_synced(&path, 100).expect("truncate past end");
        append_synced_with(&path, |f| f.write_all(b"second")).expect("append");
        assert_eq!(fs::read(&path).expect("read"), b"first second");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let dir = tempdir("atomic");
        let path = dir.join("results.tsv");
        write_atomic(&path, b"# seed=1 config_hash=x version=0\ndata\n").expect("write");
        assert!(path.exists());
        assert!(!dir.join("results.tsv.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
