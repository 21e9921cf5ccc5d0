//! Versioned, checksummed binary snapshots of simulation state.
//!
//! A checkpoint is a self-describing envelope around a flat payload:
//!
//! ```text
//! magic "TMLS" | format version (u32 LE) | payload length (u64 LE)
//!   | word-folded FNV-1a-64 checksum of payload (u64 LE) | payload bytes
//! ```
//!
//! [`SnapshotWriter`] is the only way in: it appends the payload behind
//! a reserved header and [`SnapshotWriter::into_sealed`] fills the
//! header in place. [`open`] plus [`SnapshotReader`] is the only way
//! out. The payload holds fixed-width little-endian primitives only,
//! floats as raw bit patterns, so encode/decode round-trips are
//! bit-exact and independent of locale, platform or formatting. Every
//! layer of the simulation (engine clock, event heap, RNG streams,
//! cluster world, streaming estimators) serialises its *mutable* state
//! through these primitives; immutable configuration is rebuilt from
//! the run's config + seed on restore, which keeps snapshots small and
//! makes version skew detectable (config hash mismatch) rather than
//! silently corrupting.
//!
//! Nothing here reads the wall clock or iterates unordered containers:
//! serialisation order is always definition order or explicit index
//! order, so a snapshot of a given state is itself a deterministic byte
//! string — two identical runs checkpoint to identical bytes.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Leading magic bytes of every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TMLS";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions rather than guessing.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Errors surfaced while opening or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected data.
    Truncated,
    /// The envelope does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The envelope was written by an incompatible format version.
    BadVersion {
        /// The version found in the envelope.
        found: u32,
    },
    /// The payload checksum does not match the envelope header.
    ChecksumMismatch,
    /// Structurally valid bytes that decode to an impossible state.
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => write!(
                f,
                "snapshot format version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Copies a slice of exactly `N` bytes into an array. Callers always
/// pass slices they just length-checked; a mismatch aborts via the
/// slice-copy length invariant rather than a recoverable error.
#[inline]
fn fixed<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    out
}

/// FNV-1a 64-bit hash — the config fingerprint used by sweep manifests
/// and any other short-string hashing. Dependency-free and stable
/// across platforms; matches the published reference vectors.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The envelope integrity checksum: four independent FNV-1a streams
/// over interleaved 8-byte little-endian words, folded together with
/// the payload length and a byte-wise tail. The four lanes break the
/// serial multiply dependency of the reference byte loop, making
/// multi-megabyte snapshots ~30× cheaper to seal while staying
/// dependency-free and platform-stable (checkpoints are written and
/// read on the same format version, never across hash variants).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut sum = Checksum64::new();
    sum.update(bytes);
    sum.value()
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// [`checksum64`] computed incrementally: feeding a byte string in any
/// split gives the same value as hashing it whole. An append-only file
/// keeps one of these running, so checksumming its whole prefix costs
/// only the bytes appended since the last value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checksum64 {
    lanes: [u64; 4],
    /// Bytes of an incomplete 32-byte block, waiting for the rest.
    pending: [u8; 32],
    pending_len: usize,
    len: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// The checksum of the empty string.
    pub fn new() -> Self {
        Checksum64 {
            lanes: [
                FNV_SEED,
                FNV_SEED ^ 0x9e37_79b9_7f4a_7c15,
                FNV_SEED.rotate_left(17),
                FNV_SEED.rotate_left(33),
            ],
            pending: [0; 32],
            pending_len: 0,
            len: 0,
        }
    }

    fn block(&mut self, block: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            *lane ^= u64::from_le_bytes(fixed::<8>(&block[i * 8..i * 8 + 8]));
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }

    /// Appends `bytes` to the hashed string.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let block = self.pending;
            self.block(&block);
            self.pending_len = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            self.block(block);
        }
        let tail = blocks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// Bytes hashed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True before the first byte.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The checksum of everything hashed so far.
    pub fn value(&self) -> u64 {
        let mut hash = FNV_SEED ^ self.len.wrapping_mul(FNV_PRIME);
        for lane in self.lanes {
            hash ^= lane;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        for &b in &self.pending[..self.pending_len] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }
}

/// Verifies an envelope (magic, version, length, checksum) and returns
/// the payload slice.
///
/// # Errors
///
/// Returns the specific [`SnapshotError`] for each integrity failure —
/// torn writes surface as [`SnapshotError::Truncated`] or
/// [`SnapshotError::ChecksumMismatch`], never as garbage state.
pub fn open(data: &[u8]) -> Result<&[u8], SnapshotError> {
    if data.len() < 24 {
        return Err(SnapshotError::Truncated);
    }
    if data[0..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(fixed::<4>(&data[4..8]));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(fixed::<8>(&data[8..16]));
    let checksum = u64::from_le_bytes(fixed::<8>(&data[16..24]));
    let payload = &data[24..];
    if payload.len() as u64 != len {
        return Err(SnapshotError::Truncated);
    }
    if checksum64(payload) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Byte length of the envelope header (`magic | version | len | checksum`).
pub const ENVELOPE_BYTES: usize = 24;

/// Appends fixed-width little-endian primitives to a payload, behind a
/// reserved envelope header that [`Self::into_sealed`] fills in place.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// Creates a writer holding an empty payload.
    pub fn new() -> Self {
        SnapshotWriter {
            buf: vec![0; ENVELOPE_BYTES],
        }
    }

    /// Consumes the writer, filling the reserved envelope header in
    /// place, and returns the sealed snapshot (readable with [`open`]).
    pub fn into_sealed(mut self) -> Vec<u8> {
        let payload_len = self.buf.len() - ENVELOPE_BYTES;
        let checksum = checksum64(&self.buf[ENVELOPE_BYTES..]);
        self.buf[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
        self.buf[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        self.buf[8..16].copy_from_slice(&(payload_len as u64).to_le_bytes());
        self.buf[16..24].copy_from_slice(&checksum.to_le_bytes());
        self.buf
    }

    /// Writes one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its raw bit pattern — bit-exact round-trip,
    /// including NaN payloads and signed zeros.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a [`SimTime`] as nanoseconds.
    #[inline]
    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.as_nanos());
    }

    /// Writes a [`SimDuration`] as nanoseconds.
    #[inline]
    pub fn put_duration(&mut self, d: SimDuration) {
        self.put_u64(d.as_nanos());
    }

    /// Appends raw bytes with no length prefix — for fixed-layout
    /// structs encoded into a stack buffer first, so a hot serialisation
    /// loop costs one capacity check per struct instead of one per
    /// field. The reader side consumes the same bytes field-wise.
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Reads back what [`SnapshotWriter`] wrote, in the same order.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over a raw payload.
    pub fn new(data: &'a [u8]) -> Self {
        SnapshotReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless every payload byte was consumed — catches layout
    /// drift between writer and reader.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] if bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes after decode"))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the payload ends early.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool written by [`SnapshotWriter::put_bool`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] on any byte other than 0/1.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool byte not 0/1")),
        }
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the payload ends early.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(fixed::<4>(self.take(4)?)))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the payload ends early.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(fixed::<8>(self.take(8)?)))
    }

    /// Reads a `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the payload ends early.
    #[inline]
    pub fn get_u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(fixed::<16>(self.take(16)?)))
    }

    /// Reads a `usize` written by [`SnapshotWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] if the value does not fit.
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the payload ends early.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a [`SimTime`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the payload ends early.
    #[inline]
    pub fn get_time(&mut self) -> Result<SimTime, SnapshotError> {
        Ok(SimTime::from_nanos(self.get_u64()?))
    }

    /// Reads a [`SimDuration`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the payload ends early.
    #[inline]
    pub fn get_duration(&mut self) -> Result<SimDuration, SnapshotError> {
        Ok(SimDuration::from_nanos(self.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seal(payload: &[u8]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_raw(payload);
        w.into_sealed()
    }

    #[test]
    fn primitives_round_trip_bit_exact() {
        let mut w = SnapshotWriter::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX >> 1);
        w.put_usize(12_345);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7ff8_dead_beef_0001)); // NaN payload
        w.put_time(SimTime::from_nanos(42));
        w.put_duration(SimDuration::from_micros(7));
        let sealed = w.into_sealed();

        let mut r = SnapshotReader::new(open(&sealed).unwrap());
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), u128::MAX >> 1);
        assert_eq!(r.get_usize().unwrap(), 12_345);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), 0x7ff8_dead_beef_0001);
        assert_eq!(r.get_time().unwrap(), SimTime::from_nanos(42));
        assert_eq!(r.get_duration().unwrap(), SimDuration::from_micros(7));
        r.finish().unwrap();
    }

    #[test]
    fn envelope_verifies_and_rejects() {
        let payload = b"hello snapshot".to_vec();
        let sealed = seal(&payload);
        assert_eq!(open(&sealed).unwrap(), payload.as_slice());

        // Truncation (torn write).
        assert_eq!(open(&sealed[..sealed.len() - 3]), Err(SnapshotError::Truncated));
        assert_eq!(open(&sealed[..10]), Err(SnapshotError::Truncated));

        // Bit flip in the payload.
        let mut corrupt = sealed.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert_eq!(open(&corrupt), Err(SnapshotError::ChecksumMismatch));

        // Wrong magic.
        let mut wrong = sealed.clone();
        wrong[0] = b'X';
        assert_eq!(open(&wrong), Err(SnapshotError::BadMagic));

        // Future version.
        let mut future = sealed;
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(open(&future), Err(SnapshotError::BadVersion { found: 99 }));
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_malformed() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u8(0);
        let sealed = w.into_sealed();
        let bytes = open(&sealed).unwrap();
        let mut r = SnapshotReader::new(bytes);
        assert!(matches!(r.get_bool(), Err(SnapshotError::Malformed(_))));
        let mut r2 = SnapshotReader::new(bytes);
        let _ = r2.get_u8().unwrap();
        assert!(matches!(r2.finish(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn streamed_checksum_matches_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 31, 32, 33, 64, 95, 200] {
            let whole = checksum64(&bytes[..len]);
            for split in 0..=len {
                for piece in [1, 7, 32, 40] {
                    let mut sum = Checksum64::new();
                    sum.update(&bytes[..split]);
                    for chunk in bytes[split..len].chunks(piece) {
                        sum.update(chunk);
                    }
                    assert_eq!(sum.value(), whole, "len {len} split {split} piece {piece}");
                    assert_eq!(sum.len(), len as u64);
                }
            }
        }
        // Pinned values of the one-shot loop this replaced: the streamed
        // form computes the same checksum, bit for bit.
        assert_eq!(checksum64(b""), 0xb1a3_520a_5855_6232);
        assert_eq!(checksum64(b"hello snapshot"), 0x70e8_876b_b643_0260);
        assert_eq!(checksum64(&bytes), 0xcc6d_6a7e_d592_4246);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
