//! Property tests for the `TMLS` snapshot envelope and the record
//! segment it commits: every way a checkpoint can be damaged on disk —
//! truncation from a torn write, a flipped bit from the storage layer,
//! an envelope from a different format version, a segment cut short or
//! full of garbage — must surface as a typed [`SnapshotError`], never a
//! panic and never silently-wrong state.

#![allow(clippy::unwrap_used)]

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use treadmill::core::{LoadTest, ResumableRun};
use treadmill::sim::snapshot::{open, seal, SnapshotError, ENVELOPE_BYTES, SNAPSHOT_VERSION};
use treadmill::sim::SimDuration;
use treadmill::workloads::Memcached;

fn tiny_test() -> LoadTest {
    LoadTest::new(Arc::new(Memcached::default()), 20_000.0)
        .clients(1)
        .duration(SimDuration::from_millis(5))
        .warmup(SimDuration::from_millis(1))
        .seed(3)
}

/// The second checkpoint of a tiny run: its envelope, and the record
/// segment both checkpoints wrote (exactly the committed bytes).
fn checkpoint() -> &'static (Vec<u8>, Vec<u8>) {
    static CHECKPOINT: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    CHECKPOINT.get_or_init(|| {
        let mut run = ResumableRun::new(tiny_test(), 0);
        let mut segment = Vec::new();
        run.step(300);
        run.checkpoint(&mut segment).unwrap();
        run.step(300);
        let envelope = run.checkpoint(&mut segment).unwrap();
        assert!(!run.is_finished() && segment.len() > 1_000);
        (envelope, segment)
    })
}

fn resume(envelope: &[u8], segment: &[u8]) -> Result<(), SnapshotError> {
    ResumableRun::resume(tiny_test(), 0, envelope, segment).map(|_| ())
}

#[test]
fn intact_checkpoint_resumes_and_ignores_bytes_past_the_committed_prefix() {
    let (envelope, segment) = checkpoint();
    assert_eq!(resume(envelope, segment), Ok(()));
    let mut longer = segment.clone();
    longer.extend_from_slice(b"TMLR debris a crash appended");
    assert_eq!(resume(envelope, &longer), Ok(()));
}

#[test]
fn version_4_envelope_is_refused() {
    let (envelope, segment) = checkpoint();
    let mut old = envelope.clone();
    old[4..8].copy_from_slice(&4u32.to_le_bytes());
    assert_eq!(
        resume(&old, segment),
        Err(SnapshotError::BadVersion { found: 4 })
    );
}

proptest! {
    /// Intact envelopes round-trip to the exact payload.
    #[test]
    fn seal_open_roundtrips(payload in proptest::collection::vec(0u8..=255, 0..512)) {
        let sealed = seal(&payload);
        prop_assert_eq!(open(&sealed).unwrap(), payload.as_slice());
    }

    /// Truncation at any byte — header or payload — is typed.
    #[test]
    fn truncation_is_typed(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        cut in 0usize..512,
    ) {
        let sealed = seal(&payload);
        let cut = cut % sealed.len(); // strictly shorter than intact
        match open(&sealed[..cut]) {
            Err(SnapshotError::Truncated) => {}
            other => prop_assert!(false, "truncated at {}: {:?}", cut, other),
        }
    }

    /// A single flipped bit anywhere in the envelope is caught: bad
    /// magic, bad version, length mismatch, or checksum mismatch —
    /// never a clean open of corrupted bytes.
    #[test]
    fn bit_flip_is_detected(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        at in 0usize..512,
        bit in 0u8..8,
    ) {
        let mut sealed = seal(&payload);
        let at = at % sealed.len();
        sealed[at] ^= 1 << bit;
        match open(&sealed) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::BadVersion { .. }
                | SnapshotError::Truncated
                | SnapshotError::ChecksumMismatch,
            ) => {}
            Ok(_) => prop_assert!(false, "flip at byte {} bit {} opened cleanly", at, bit),
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
        }
    }

    /// Envelopes stamped with any other format version are refused
    /// with the version they carried (even when the checksum is valid
    /// for the payload).
    #[test]
    fn wrong_version_is_refused(
        payload in proptest::collection::vec(0u8..=255, 0..128),
        version in 0u32..=u32::MAX,
    ) {
        let version = if version == SNAPSHOT_VERSION { version + 1 } else { version };
        let mut sealed = seal(&payload);
        sealed[4..8].copy_from_slice(&version.to_le_bytes());
        match open(&sealed) {
            Err(SnapshotError::BadVersion { found }) => prop_assert_eq!(found, version),
            other => prop_assert!(false, "version {}: {:?}", version, other),
        }
    }

    /// Arbitrary bytes — not even an envelope — are always typed.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        match open(&bytes) {
            Ok(payload) => {
                // Only a genuine envelope may open.
                prop_assert!(bytes.len() >= ENVELOPE_BYTES);
                prop_assert_eq!(&bytes[..4], b"TMLS");
                prop_assert_eq!(payload.len(), bytes.len() - ENVELOPE_BYTES);
            }
            Err(e) => { let _ = e.to_string(); }
        }
    }
}

proptest! {
    /// A segment shorter than its envelope's committed length — cut at
    /// any byte of the committed prefix — is truncated, never resumed.
    #[test]
    fn committed_prefix_cut_is_truncated(cut in 0usize..1 << 20) {
        let (envelope, segment) = checkpoint();
        let cut = cut % segment.len();
        prop_assert_eq!(resume(envelope, &segment[..cut]), Err(SnapshotError::Truncated));
    }

    /// A single flipped bit anywhere in the committed prefix is caught:
    /// a count or magic that no longer parses, or a checksum mismatch.
    #[test]
    fn committed_prefix_bit_flip_is_detected(at in 0usize..1 << 20, bit in 0u8..8) {
        let (envelope, segment) = checkpoint();
        let mut flipped = segment.clone();
        let at = at % flipped.len();
        flipped[at] ^= 1 << bit;
        match resume(envelope, &flipped) {
            Err(
                SnapshotError::ChecksumMismatch
                | SnapshotError::Truncated
                | SnapshotError::Malformed(_),
            ) => {}
            other => prop_assert!(false, "flip at byte {} bit {}: {:?}", at, bit, other),
        }
    }

    /// Arbitrary segment bytes under a genuine envelope are always a
    /// typed error.
    #[test]
    fn arbitrary_segment_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..4096)) {
        let (envelope, _) = checkpoint();
        prop_assert!(resume(envelope, &bytes).is_err());
    }
}
