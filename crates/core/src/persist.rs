//! Durable sketch snapshots: a versioned, checksummed binary codec plus file
//! helpers, so sketches survive restarts, ship between nodes, and serve cold.
//!
//! Every sketch in this workspace is otherwise process-lifetime state; this module
//! is the persistence layer underneath [`crate::engine::ShardedIngestEngine::checkpoint`] /
//! [`restore`](crate::engine::ShardedIngestEngine::restore), the cold-serving
//! [`ColdSnapshot`] source for [`crate::query::QueryServer`], and the shard-file
//! merge path [`crate::distributed::DistributedSketcher::merge_files`]. Ting's
//! sketches are the ideal unit of durability: the unbiased PPS merge (section 5.5)
//! makes a shard file folded *later* statistically identical to a live merge, so a
//! checkpoint is not an approximation of the stream — it *is* the sketch.
//!
//! # File format
//!
//! Everything is little-endian. A file is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"USSK"
//! 4       2     format version  (currently 1)
//! 6       1     sketch kind     (see below)
//! 7       1     reserved        (0)
//! 8       8     payload length  n
//! 16      n     payload         (kind-specific, see below)
//! 16+n    8     CRC-64/ECMA checksum over bytes [0, 16+n)
//! ```
//!
//! | kind | payload |
//! |------|---------|
//! | 0 `Snapshot` | `capacity u64, rows u64, min_count f64, n u64, n × (item u64, count f64)` |
//! | 1 `Unbiased` | `capacity u64, rows u64, rng [u8; 32], n u64, n × item u64, b u64, b × (value u64, len u32, len × slot u32)` |
//! | 2 `Weighted` | `capacity u64, rows u64, total_weight f64, rng [u8; 32], n u64, n × item u64, n × count f64, n × heap u32` |
//! | 3 `EngineShard` | `shard u64, shards u64, capacity u64, seed u64,` then an `Unbiased` payload |
//! | 4 `Manifest` | `shards u64, capacity u64, seed u64, snapshots u64, rows u64` |
//! | 5 `Decayed` | `lambda f64, landmark f64, last_time f64,` then a `Weighted` payload |
//! | 6 `TemporalShard` | `shard u64,` temporal meta (7 × u64)`, late_rows u64, last_ts u64, f u64, f × (index u64, Unbiased payload), t u64, t × (k u64, k × tier bucket), terminal u8 [, tier bucket]` where a tier bucket is `start u64, end u64, rows u64, n u64, n × (item u64, count f64)` |
//! | 7 `TemporalManifest` | temporal meta (7 × u64)`, snapshots u64, rows u64` |
//! | 8 `TemporalLadderShard` | a `TemporalShard` payload, then `n u64, n × (level u64, tier bucket)` — the dyadic-ladder nodes, level 1 first, ascending starts within a level |
//!
//! The randomized sketches serialize their *full* state — the RNG (xoshiro256++
//! words), the counter-structure layout (bucket chains for the integer sketch, the
//! heap arrangement for the weighted one), not just the `(item, count)` pairs.
//! That is what makes restore bit-compatible: entry iteration order and every
//! min-label tie-break survive the round trip, so a restored sketch makes exactly
//! the decisions an uninterrupted one would, and goldens stay byte-stable across a
//! checkpoint boundary.
//!
//! Decoding never panics: wrong magic, unsupported version, wrong kind, truncated
//! or bit-flipped bytes, and images violating a sketch invariant (mass
//! conservation, heap order, bucket ordering) all come back as [`PersistError`].
//!
//! ```
//! use uss_core::prelude::*;
//! use uss_core::persist;
//!
//! let mut sketch = UnbiasedSpaceSaving::with_seed(64, 7);
//! for row in 0u64..10_000 {
//!     sketch.offer(row % 300);
//! }
//!
//! let dir = std::env::temp_dir().join(format!("uss-doc-persist-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("sketch.uss");
//! persist::save_unbiased(&path, &sketch).unwrap();
//!
//! // A cold file serves queries bit-identically to the live sketch.
//! let cold = persist::ColdSnapshot::open(&path).unwrap();
//! let server = QueryServer::new(cold, QueryServerConfig::new());
//! assert_eq!(server.top_k(5), sketch.snapshot().top_k(5));
//! # std::fs::remove_file(&path).unwrap();
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

use crate::estimator::SketchSnapshot;
use crate::merge::{FOLD_MERGE_SALT, FOLD_OUT_SALT};
use crate::query::SnapshotSource;
use crate::space_saving::{DecayedSpaceSaving, UnbiasedSpaceSaving, WeightedSpaceSaving};
use crate::stream_summary::SummaryDump;
use crate::temporal::{TemporalConfig, TierBucket, WindowConfig, WindowedSketchStore};
use crate::traits::StreamSketch;

/// The four magic bytes opening every sketch file.
pub const MAGIC: [u8; 4] = *b"USSK";

/// The current format version written by [`encode`] and accepted by [`decode`].
pub const FORMAT_VERSION: u16 = 1;

const HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;
const RNG_STATE_LEN: usize = 32;

/// Upper bound on a decoded sketch capacity (bins). Real sketches use at most
/// tens of thousands of bins; this bound exists so a crafted frame declaring an
/// absurd capacity is rejected as [`PersistError::Corrupt`] *before* anything
/// sizes an allocation from it — part of the never-panic totality guarantee.
pub const MAX_DECODED_CAPACITY: u64 = 1 << 26;

/// Validates a capacity field read from a frame: positive, bounded, and
/// convertible to `usize`.
fn checked_capacity(capacity: u64) -> Result<usize, PersistError> {
    if capacity == 0 {
        return Err(PersistError::Corrupt("capacity must be positive".into()));
    }
    if capacity > MAX_DECODED_CAPACITY {
        return Err(PersistError::Corrupt(format!(
            "capacity {capacity} exceeds the decodable maximum {MAX_DECODED_CAPACITY}"
        )));
    }
    capacity
        .try_into()
        .map_err(|_| PersistError::Corrupt(format!("capacity {capacity} overflows usize")))
}

/// What a frame holds; byte 6 of the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SketchKind {
    /// A cold [`SketchSnapshot`]: entries + `N̂_min` + rows. Enough to answer every
    /// estimator query, but not to resume ingest.
    Snapshot = 0,
    /// A full [`UnbiasedSpaceSaving`] including RNG and counter-structure state;
    /// resumable bit-compatibly.
    Unbiased = 1,
    /// A full [`WeightedSpaceSaving`] including RNG and heap state; resumable
    /// bit-compatibly.
    Weighted = 2,
    /// One engine shard: the shard's position and engine configuration echo plus
    /// its full unbiased sketch. Written by
    /// [`crate::engine::ShardedIngestEngine::checkpoint`].
    EngineShard = 3,
    /// The engine checkpoint manifest tying the shard files together.
    Manifest = 4,
    /// A full [`DecayedSpaceSaving`]: the forward-decay parameters (decay rate,
    /// landmark, last-update time) plus the complete inner weighted sketch
    /// (RNG and heap state); resumable bit-compatibly.
    Decayed = 5,
    /// One temporal shard's bucket ring: the fine buckets (each a full
    /// resumable unbiased sketch), the compacted retention tiers and the
    /// terminal bucket, plus the window-geometry echo. Written by
    /// [`crate::temporal::TemporalIngestEngine::checkpoint`].
    TemporalShard = 6,
    /// The temporal checkpoint manifest tying the bucket-ring files together.
    TemporalManifest = 7,
    /// A temporal bucket ring plus its dyadic range-merge ladder: a
    /// [`Self::TemporalShard`] payload followed by the pre-merged ladder
    /// nodes, so a restored shard serves wide ranges at full speed without
    /// rebuilding the index first. Every node is revalidated against the ring
    /// it covers on decode. Written by
    /// [`crate::temporal::TemporalIngestEngine::checkpoint`].
    TemporalLadderShard = 8,
}

impl SketchKind {
    /// The header byte encoding this kind — the inverse of [`Self::from_byte`].
    /// Exists so decode paths compare kind bytes without an `as` cast.
    pub(crate) fn byte(self) -> u8 {
        self as u8
    }

    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Self::Snapshot),
            1 => Some(Self::Unbiased),
            2 => Some(Self::Weighted),
            3 => Some(Self::EngineShard),
            4 => Some(Self::Manifest),
            5 => Some(Self::Decayed),
            6 => Some(Self::TemporalShard),
            7 => Some(Self::TemporalManifest),
            8 => Some(Self::TemporalLadderShard),
            _ => None,
        }
    }
}

impl fmt::Display for SketchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Snapshot => "snapshot",
            Self::Unbiased => "unbiased sketch",
            Self::Weighted => "weighted sketch",
            Self::EngineShard => "engine shard",
            Self::Manifest => "engine manifest",
            Self::Decayed => "decayed sketch",
            Self::TemporalShard => "temporal bucket ring",
            Self::TemporalManifest => "temporal manifest",
            Self::TemporalLadderShard => "temporal bucket ring with dyadic ladder",
        };
        f.write_str(name)
    }
}

/// Everything that can go wrong while persisting or loading a sketch. Decoding is
/// total: malformed input yields one of these, never a panic.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The input is shorter than a minimal frame or than its own declared length.
    Truncated {
        /// Bytes needed for the structure being read.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The frame declares a format version this build does not read.
    UnsupportedVersion(u16),
    /// The frame holds a different kind of sketch than the caller asked for.
    WrongKind {
        /// The kind the caller expected.
        expected: SketchKind,
        /// The kind byte found in the header.
        got: u8,
    },
    /// The CRC-64 over header + payload does not match the stored checksum.
    ChecksumMismatch,
    /// The payload parsed but violates a structural or statistical invariant.
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Truncated { needed, got } => {
                write!(f, "truncated input: needed {needed} bytes, got {got}")
            }
            Self::BadMagic => f.write_str("not a sketch file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(
                f,
                "unsupported format version {v} (this build reads {FORMAT_VERSION})"
            ),
            Self::WrongKind { expected, got } => {
                write!(f, "expected a {expected} frame, found kind byte {got}")
            }
            Self::ChecksumMismatch => f.write_str("checksum mismatch (corrupted frame)"),
            Self::Corrupt(why) => write!(f, "corrupt payload: {why}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

// ----- CRC-64 (ECMA-182 polynomial, unreflected) -----

const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slicing-by-16 tables: `CRC64_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so sixteen input bytes fold into the running
/// CRC with sixteen independent lookups instead of a sixteen-step chain.
const fn crc64_tables() -> [[u64; 256]; 16] {
    let mut tables = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev >> 56) as usize] ^ (prev << 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 16] = crc64_tables();

/// CRC-64 (ECMA-182, unreflected, zero init) over `bytes` — the frame checksum.
///
/// Computed slicing-by-16 (Kounavis & Berry, ISCC 2005) from 32 KiB of
/// const-evaluated tables: each 16-byte block is sixteen independent table
/// lookups XORed together, about five times the throughput of the bytewise
/// loop, and bit-identical to it (`crc64(b"123456789") ==
/// 0x6C40_DF5F_0B49_7347`). There is deliberately no carry-less-multiply
/// path: that would need `unsafe` intrinsics and a second, CPU-selected code
/// path for a checksum that is no longer the bottleneck.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_update(0, bytes)
}

/// Continues a [`crc64`] over more bytes, so a frame can be checksummed in
/// pieces: `crc64_update(crc64(a), b) == crc64(a ++ b)`.
#[must_use]
pub fn crc64_update(mut crc: u64, bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        let lanes = (u128::from_be_bytes(*block) ^ (u128::from(crc) << 64)).to_be_bytes();
        crc = 0;
        for (table, &byte) in CRC64_TABLES.iter().rev().zip(&lanes) {
            crc ^= table[usize::from(byte)];
        }
    }
    for &byte in tail {
        crc = CRC64_TABLES[0][usize::from((crc >> 56) as u8 ^ byte)] ^ (crc << 8);
    }
    crc
}

// ----- little-endian payload writer / reader -----

/// Little-endian frame builder — the writing half of this codec's frame
/// discipline, public so other framed protocols (the wire protocol of
/// `uss-server`) assemble frames with exactly the same byte conventions.
///
/// The payload is written in place behind the reserved 16-byte frame header
/// (layout in the module docs), and [`PayloadWriter::seal`] fills the header
/// in and appends the checksum, so a frame is built in one buffer and never
/// copied.
#[derive(Debug)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl Default for PayloadWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadWriter {
    /// An empty payload inside a frame under construction.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: vec![0; HEADER_LEN],
        }
    }

    /// Reserves room for `additional` more payload bytes plus the checksum
    /// trailer, so a caller that knows its payload size grows the frame once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional + CHECKSUM_LEN);
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Payload bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// Whether no payload byte has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, yielding the complete frame: the header (`magic`,
    /// `version`, `kind`, payload length) patched into the reserved bytes,
    /// the payload, and the CRC-64 trailer.
    #[must_use]
    pub fn seal(self, magic: [u8; 4], version: u16, kind: u8) -> Vec<u8> {
        let payload_len = self.len() as u64;
        let mut buf = self.buf;
        buf[0..4].copy_from_slice(&magic);
        buf[4..6].copy_from_slice(&version.to_le_bytes());
        buf[6] = kind;
        buf[8..16].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }
}

/// Bounds-checked little-endian reader over a payload slice. Every read that would
/// run past the end reports [`PersistError::Truncated`] instead of panicking, and
/// element counts are validated against the bytes actually present *before* any
/// allocation, so a corrupted length field cannot trigger an absurd reservation.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

// lint: total-decode — every reader primitive feeds hostile bytes to callers.
impl<'a> PayloadReader<'a> {
    /// Starts reading at the front of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes the next `n` bytes, or reports how short the payload fell.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes exactly `N` bytes and returns them as a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a `u32` length field, converting to `usize` without a cast.
    pub fn len_u32(&mut self) -> Result<usize, PersistError> {
        let n = self.u32()?;
        usize::try_from(n)
            .map_err(|_| PersistError::Corrupt(format!("length {n} overflows usize")))
    }

    /// Reads a count of elements that each occupy at least `elem_bytes` more bytes,
    /// rejecting counts the remaining payload cannot possibly hold.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let n: usize = n
            .try_into()
            .map_err(|_| PersistError::Corrupt(format!("element count {n} overflows usize")))?;
        if n.checked_mul(elem_bytes).is_none_or(|need| need > self.remaining()) {
            return Err(PersistError::Corrupt(format!(
                "element count {n} exceeds the bytes present"
            )));
        }
        Ok(n)
    }

    /// Rejects any bytes left over once the payload should be exhausted.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ----- frame layer -----

/// Copies a slice the caller has already length-checked into a fixed-size
/// array, so frame readers never reach for `try_into().unwrap()`.
// lint: total-decode
fn header_array<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    out
}

fn seal(w: PayloadWriter, kind: SketchKind) -> Vec<u8> {
    w.seal(MAGIC, FORMAT_VERSION, kind.byte())
}

/// Shared header gate: checks minimal length, magic and version, and returns the
/// kind byte. Every frame reader goes through here, so a future format change
/// (e.g. accepting a version range) lives in exactly one place.
fn check_header(bytes: &[u8]) -> Result<u8, PersistError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(PersistError::Truncated {
            needed: HEADER_LEN + CHECKSUM_LEN,
            got: bytes.len(),
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u16::from_le_bytes(header_array(&bytes[4..6]));
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    Ok(bytes[6])
}

/// Validates magic, version, kind, declared length and checksum; returns the
/// payload slice.
fn decode_frame(bytes: &[u8], expected: SketchKind) -> Result<&[u8], PersistError> {
    let kind_byte = check_header(bytes)?;
    if kind_byte != expected.byte() {
        return Err(PersistError::WrongKind {
            expected,
            got: kind_byte,
        });
    }
    let declared = u64::from_le_bytes(header_array(&bytes[8..16]));
    let body_len = bytes.len() - HEADER_LEN - CHECKSUM_LEN;
    if declared != body_len as u64 {
        return Err(PersistError::Truncated {
            needed: HEADER_LEN
                + CHECKSUM_LEN
                + usize::try_from(declared).unwrap_or(usize::MAX),
            got: bytes.len(),
        });
    }
    let stored = u64::from_le_bytes(header_array(&bytes[bytes.len() - CHECKSUM_LEN..]));
    if crc64(&bytes[..bytes.len() - CHECKSUM_LEN]) != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok(&bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN])
}

/// The kind byte of an encoded frame, after checking magic and version only. Used
/// by loaders that accept several kinds (e.g. [`ColdSnapshot::open`]).
pub fn peek_kind(bytes: &[u8]) -> Result<SketchKind, PersistError> {
    let kind_byte = check_header(bytes)?;
    SketchKind::from_byte(kind_byte).ok_or(PersistError::Corrupt(format!(
        "unknown sketch kind byte {kind_byte}"
    )))
}

// ----- kind payloads -----

/// Encodes a cold [`SketchSnapshot`] frame.
#[must_use]
pub fn encode_snapshot(snapshot: &SketchSnapshot) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(snapshot.capacity() as u64);
    w.u64(snapshot.rows_processed());
    w.f64(snapshot.min_count());
    w.u64(snapshot.entries().len() as u64);
    for &(item, count) in snapshot.entries() {
        w.u64(item);
        w.f64(count);
    }
    seal(w, SketchKind::Snapshot)
}

fn read_snapshot_payload(payload: &[u8]) -> Result<SketchSnapshot, PersistError> {
    let mut r = PayloadReader::new(payload);
    let capacity = r.u64()?;
    let rows = r.u64()?;
    let min_count = r.f64()?;
    if !min_count.is_finite() || min_count < 0.0 {
        return Err(PersistError::Corrupt(format!(
            "min_count {min_count} must be finite and non-negative"
        )));
    }
    let n = r.count(16)?;
    let capacity = checked_capacity(capacity)?;
    if n > capacity {
        return Err(PersistError::Corrupt(format!(
            "{n} entries exceed capacity {capacity}"
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let item = r.u64()?;
        let count = r.f64()?;
        if !count.is_finite() || count < 0.0 {
            return Err(PersistError::Corrupt(format!(
                "count {count} must be finite and non-negative"
            )));
        }
        entries.push((item, count));
    }
    r.finish()?;
    Ok(SketchSnapshot::new(entries, min_count, rows, capacity))
}

/// Decodes a [`SketchSnapshot`] frame.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SketchSnapshot, PersistError> {
    read_snapshot_payload(decode_frame(bytes, SketchKind::Snapshot)?)
}

fn write_unbiased_payload(w: &mut PayloadWriter, sketch: &UnbiasedSpaceSaving) {
    let (dump, rows, rng) = sketch.persist_dump();
    w.u64(dump.capacity as u64);
    w.u64(rows);
    w.bytes(&rng);
    w.u64(dump.counters.len() as u64);
    for &item in &dump.counters {
        w.u64(item);
    }
    w.u64(dump.buckets.len() as u64);
    for (value, chain) in &dump.buckets {
        w.u64(*value);
        w.u32(chain.len() as u32);
        for &slot in chain {
            w.u32(slot);
        }
    }
}

fn read_unbiased_payload(r: &mut PayloadReader<'_>) -> Result<UnbiasedSpaceSaving, PersistError> {
    let capacity = checked_capacity(r.u64()?)?;
    let rows = r.u64()?;
    let rng: [u8; RNG_STATE_LEN] = r.array()?;
    let n = r.count(8)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(r.u64()?);
    }
    let b = r.count(12)?;
    let mut buckets = Vec::with_capacity(b);
    for _ in 0..b {
        let value = r.u64()?;
        let len = r.len_u32()?;
        if len.checked_mul(4).is_none_or(|need| need > r.remaining()) {
            return Err(PersistError::Corrupt(format!(
                "bucket chain length {len} exceeds the bytes present"
            )));
        }
        let mut chain = Vec::with_capacity(len);
        for _ in 0..len {
            chain.push(r.u32()?);
        }
        buckets.push((value, chain));
    }
    UnbiasedSpaceSaving::from_persisted(
        SummaryDump {
            capacity,
            counters,
            buckets,
        },
        rows,
        rng,
    )
    .map_err(PersistError::Corrupt)
}

/// Encodes a full [`UnbiasedSpaceSaving`] frame (RNG and structure included).
#[must_use]
pub fn encode_unbiased(sketch: &UnbiasedSpaceSaving) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    write_unbiased_payload(&mut w, sketch);
    seal(w, SketchKind::Unbiased)
}

/// Decodes an [`UnbiasedSpaceSaving`] frame; the result resumes bit-compatibly.
pub fn decode_unbiased(bytes: &[u8]) -> Result<UnbiasedSpaceSaving, PersistError> {
    let mut r = PayloadReader::new(decode_frame(bytes, SketchKind::Unbiased)?);
    let sketch = read_unbiased_payload(&mut r)?;
    r.finish()?;
    Ok(sketch)
}

fn write_weighted_payload(w: &mut PayloadWriter, sketch: &WeightedSpaceSaving) {
    let (capacity, items, counts, heap, rows, total_weight, rng) = sketch.persist_dump();
    w.u64(capacity as u64);
    w.u64(rows);
    w.f64(total_weight);
    w.bytes(&rng);
    w.u64(items.len() as u64);
    for &item in items {
        w.u64(item);
    }
    for &count in counts {
        w.f64(count);
    }
    for &slot in heap {
        w.u32(slot);
    }
}

fn read_weighted_payload(r: &mut PayloadReader<'_>) -> Result<WeightedSpaceSaving, PersistError> {
    let capacity = checked_capacity(r.u64()?)?;
    let rows = r.u64()?;
    let total_weight = r.f64()?;
    let rng: [u8; RNG_STATE_LEN] = r.array()?;
    let n = r.count(20)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(r.u64()?);
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.f64()?);
    }
    let mut heap = Vec::with_capacity(n);
    for _ in 0..n {
        heap.push(r.u32()?);
    }
    WeightedSpaceSaving::from_persisted(capacity, items, counts, heap, rows, total_weight, rng)
        .map_err(PersistError::Corrupt)
}

/// Encodes a full [`WeightedSpaceSaving`] frame (RNG and heap state included).
#[must_use]
pub fn encode_weighted(sketch: &WeightedSpaceSaving) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    write_weighted_payload(&mut w, sketch);
    seal(w, SketchKind::Weighted)
}

/// Decodes a [`WeightedSpaceSaving`] frame; the result resumes bit-compatibly.
pub fn decode_weighted(bytes: &[u8]) -> Result<WeightedSpaceSaving, PersistError> {
    let mut r = PayloadReader::new(decode_frame(bytes, SketchKind::Weighted)?);
    let sketch = read_weighted_payload(&mut r)?;
    r.finish()?;
    Ok(sketch)
}

/// Encodes a full [`DecayedSpaceSaving`] frame: the forward-decay parameters
/// plus the complete inner weighted sketch (RNG and heap state included).
#[must_use]
pub fn encode_decayed(sketch: &DecayedSpaceSaving) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.f64(sketch.lambda());
    w.f64(sketch.landmark());
    w.f64(sketch.last_time());
    write_weighted_payload(&mut w, sketch.inner());
    seal(w, SketchKind::Decayed)
}

/// Decodes a [`DecayedSpaceSaving`] frame; the result resumes bit-compatibly
/// (same decayed estimates, same rescale points, same random evictions under
/// the same subsequent stream).
pub fn decode_decayed(bytes: &[u8]) -> Result<DecayedSpaceSaving, PersistError> {
    let mut r = PayloadReader::new(decode_frame(bytes, SketchKind::Decayed)?);
    let lambda = r.f64()?;
    let landmark = r.f64()?;
    let last_time = r.f64()?;
    let inner = read_weighted_payload(&mut r)?;
    r.finish()?;
    DecayedSpaceSaving::from_persisted(inner, lambda, landmark, last_time)
        .map_err(PersistError::Corrupt)
}

// ----- engine checkpoint frames -----

/// The engine identity echoed into every shard file and the manifest, so a
/// restore can refuse mismatched directories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMeta {
    /// Number of shards the checkpointing engine ran.
    pub shards: u64,
    /// Bins per shard sketch.
    pub capacity: u64,
    /// The engine's base RNG seed.
    pub seed: u64,
}

/// The manifest tying an engine checkpoint directory together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineManifest {
    /// The engine identity (shards / capacity / seed).
    pub meta: EngineMeta,
    /// Snapshot-counter value at checkpoint time; restored so post-restore
    /// [`crate::engine::ShardedIngestEngine::snapshot`] calls continue the same
    /// merge-salt sequence an uninterrupted engine would use.
    pub snapshots: u64,
    /// Total rows across the shard sketches at checkpoint time.
    pub rows: u64,
}

/// Encodes one engine shard frame.
#[must_use]
pub fn encode_shard(shard: u64, meta: EngineMeta, sketch: &UnbiasedSpaceSaving) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(shard);
    w.u64(meta.shards);
    w.u64(meta.capacity);
    w.u64(meta.seed);
    write_unbiased_payload(&mut w, sketch);
    seal(w, SketchKind::EngineShard)
}

/// Decodes an engine shard frame into its position, engine identity and sketch.
pub fn decode_shard(bytes: &[u8]) -> Result<(u64, EngineMeta, UnbiasedSpaceSaving), PersistError> {
    let mut r = PayloadReader::new(decode_frame(bytes, SketchKind::EngineShard)?);
    let shard = r.u64()?;
    let meta = EngineMeta {
        shards: r.u64()?,
        capacity: r.u64()?,
        seed: r.u64()?,
    };
    if shard >= meta.shards {
        return Err(PersistError::Corrupt(format!(
            "shard index {shard} out of range for {} shards",
            meta.shards
        )));
    }
    let sketch = read_unbiased_payload(&mut r)?;
    r.finish()?;
    if sketch.capacity() as u64 != meta.capacity {
        return Err(PersistError::Corrupt(format!(
            "shard sketch capacity {} disagrees with engine capacity {}",
            sketch.capacity(),
            meta.capacity
        )));
    }
    Ok((shard, meta, sketch))
}

/// Encodes an engine checkpoint manifest frame.
#[must_use]
pub fn encode_manifest(manifest: &EngineManifest) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(manifest.meta.shards);
    w.u64(manifest.meta.capacity);
    w.u64(manifest.meta.seed);
    w.u64(manifest.snapshots);
    w.u64(manifest.rows);
    seal(w, SketchKind::Manifest)
}

/// Decodes an engine checkpoint manifest frame.
pub fn decode_manifest(bytes: &[u8]) -> Result<EngineManifest, PersistError> {
    let mut r = PayloadReader::new(decode_frame(bytes, SketchKind::Manifest)?);
    let meta = EngineMeta {
        shards: r.u64()?,
        capacity: r.u64()?,
        seed: r.u64()?,
    };
    let snapshots = r.u64()?;
    let rows = r.u64()?;
    r.finish()?;
    if meta.shards == 0 {
        return Err(PersistError::Corrupt("manifest declares zero shards".into()));
    }
    if meta.capacity == 0 {
        return Err(PersistError::Corrupt(
            "manifest declares zero capacity".into(),
        ));
    }
    Ok(EngineManifest {
        meta,
        snapshots,
        rows,
    })
}

// ----- temporal checkpoint frames -----

/// The temporal-engine identity echoed into every bucket-ring file and the
/// temporal manifest, so a restore can refuse mismatched directories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalMeta {
    /// Number of shards the checkpointing engine ran.
    pub shards: u64,
    /// Bins per bucket sketch.
    pub capacity: u64,
    /// The engine's base RNG seed.
    pub seed: u64,
    /// Time units per fine bucket.
    pub bucket_width: u64,
    /// Fine buckets retained per shard.
    pub fine_buckets: u64,
    /// Buckets per tier before a group compacts into the next tier.
    pub tier_factor: u64,
    /// Number of retention tiers.
    pub tiers: u64,
}

impl TemporalMeta {
    /// The meta a [`TemporalConfig`] produces (the identity half of the config;
    /// queue depth and batch size are operational and not part of it).
    #[must_use]
    pub fn from_config(config: &TemporalConfig) -> Self {
        Self {
            shards: config.shards as u64,
            capacity: config.window.capacity as u64,
            seed: config.window.seed,
            bucket_width: config.window.bucket_width,
            fine_buckets: config.window.fine_buckets as u64,
            tier_factor: config.window.tier_factor as u64,
            tiers: config.window.tiers as u64,
        }
    }

    /// Reconstructs a [`TemporalConfig`] from the checkpointed identity,
    /// filling the operational knobs (queue depth, batch size) with the engine
    /// defaults. This is how a server boots a stream from a checkpoint
    /// directory without any out-of-band configuration.
    ///
    /// # Errors
    ///
    /// Reports [`PersistError::Corrupt`] when a checkpointed dimension
    /// overflows `usize` on this platform.
    pub fn to_config(&self) -> Result<TemporalConfig, PersistError> {
        fn dim(v: u64, what: &str) -> Result<usize, PersistError> {
            v.try_into()
                .map_err(|_| PersistError::Corrupt(format!("{what} {v} overflows usize")))
        }
        Ok(TemporalConfig {
            window: WindowConfig {
                capacity: dim(self.capacity, "capacity")?,
                seed: self.seed,
                bucket_width: self.bucket_width,
                fine_buckets: dim(self.fine_buckets, "fine bucket count")?,
                tier_factor: dim(self.tier_factor, "tier factor")?,
                tiers: dim(self.tiers, "tier count")?,
            },
            shards: dim(self.shards, "shard count")?,
            queue_depth: 4,
            batch_rows: 4096,
        })
    }
}

/// The manifest tying a temporal checkpoint directory together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalManifest {
    /// The engine identity (shards / window geometry / seed).
    pub meta: TemporalMeta,
    /// Snapshot-counter value at checkpoint time; restored so post-restore
    /// range snapshots continue the same merge-salt sequence.
    pub snapshots: u64,
    /// Total rows across the shard stores at checkpoint time.
    pub rows: u64,
}

fn write_temporal_meta(w: &mut PayloadWriter, meta: TemporalMeta) {
    w.u64(meta.shards);
    w.u64(meta.capacity);
    w.u64(meta.seed);
    w.u64(meta.bucket_width);
    w.u64(meta.fine_buckets);
    w.u64(meta.tier_factor);
    w.u64(meta.tiers);
}

fn read_temporal_meta(r: &mut PayloadReader<'_>) -> Result<TemporalMeta, PersistError> {
    let meta = TemporalMeta {
        shards: r.u64()?,
        capacity: r.u64()?,
        seed: r.u64()?,
        bucket_width: r.u64()?,
        fine_buckets: r.u64()?,
        tier_factor: r.u64()?,
        tiers: r.u64()?,
    };
    if meta.shards == 0 || meta.bucket_width == 0 || meta.fine_buckets == 0 {
        return Err(PersistError::Corrupt(
            "temporal meta declares a zero shard count, bucket width or fine window".into(),
        ));
    }
    // Bounded before anything (the range fold included) sizes an allocation
    // from it.
    let _ = checked_capacity(meta.capacity)?;
    if meta.tier_factor < 2 {
        return Err(PersistError::Corrupt(format!(
            "temporal meta declares tier factor {} (must be at least 2)",
            meta.tier_factor
        )));
    }
    Ok(meta)
}

fn write_tier_bucket(w: &mut PayloadWriter, bucket: &TierBucket) {
    w.u64(bucket.start());
    w.u64(bucket.end());
    w.u64(bucket.rows());
    w.u64(bucket.entries().len() as u64);
    for &(item, count) in bucket.entries() {
        w.u64(item);
        w.f64(count);
    }
}

fn read_tier_bucket(r: &mut PayloadReader<'_>) -> Result<TierBucket, PersistError> {
    let start = r.u64()?;
    let end = r.u64()?;
    let rows = r.u64()?;
    let n = r.count(16)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let item = r.u64()?;
        let count = r.f64()?;
        entries.push((item, count));
    }
    // Span ordering, entry bounds and count validity are re-validated against
    // the window geometry when the whole store image is assembled.
    Ok(TierBucket {
        start,
        end,
        entries,
        rows,
    })
}

fn write_temporal_shard_payload(
    w: &mut PayloadWriter,
    shard: u64,
    meta: TemporalMeta,
    store: &WindowedSketchStore,
) {
    w.u64(shard);
    write_temporal_meta(w, meta);
    w.u64(store.late_rows());
    w.u64(store.last_time());
    let fine: Vec<_> = store.fine_sketches().collect();
    w.u64(fine.len() as u64);
    for (index, sketch) in fine {
        w.u64(index);
        write_unbiased_payload(w, sketch);
    }
    w.u64(meta.tiers);
    for t in 0..meta.tiers as usize {
        let buckets = store.tier_buckets(t);
        w.u64(buckets.len() as u64);
        for bucket in buckets {
            write_tier_bucket(w, bucket);
        }
    }
    match store.terminal_bucket() {
        Some(bucket) => {
            w.buf.push(1);
            write_tier_bucket(w, bucket);
        }
        None => w.buf.push(0),
    }
}

/// Encodes one temporal bucket-ring frame: a shard's complete
/// [`WindowedSketchStore`] — fine buckets as full resumable unbiased payloads,
/// compacted tiers and the terminal bucket as entry lists.
#[must_use]
pub fn encode_temporal_shard(
    shard: u64,
    meta: TemporalMeta,
    store: &WindowedSketchStore,
) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    write_temporal_shard_payload(&mut w, shard, meta, store);
    seal(w, SketchKind::TemporalShard)
}

/// Encodes one temporal bucket-ring frame *with* its dyadic range-merge
/// ladder ([`SketchKind::TemporalLadderShard`]): the full
/// [`encode_temporal_shard`] payload followed by every pre-merged node (level
/// 1 first, ascending starts within a level — a deterministic order, so two
/// encodes of the same store are byte-identical). A restored shard then
/// serves wide ranges at full speed immediately.
#[must_use]
pub fn encode_temporal_shard_indexed(
    shard: u64,
    meta: TemporalMeta,
    store: &WindowedSketchStore,
) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    write_temporal_shard_payload(&mut w, shard, meta, store);
    let levels = store.ladder_levels();
    let nodes: u64 = levels.iter().map(|level| level.len() as u64).sum();
    w.u64(nodes);
    for (idx, level) in levels.iter().enumerate() {
        for node in level.values() {
            w.u64(idx as u64 + 1);
            write_tier_bucket(&mut w, node);
        }
    }
    seal(w, SketchKind::TemporalLadderShard)
}

/// Decodes a temporal bucket-ring frame — with or without a dyadic ladder
/// ([`SketchKind::TemporalShard`] or [`SketchKind::TemporalLadderShard`]) —
/// into its shard position, engine identity and store. The store resumes
/// bit-compatibly (fine buckets keep their RNG and counter-structure state);
/// corrupted images — overlapping spans, out-of-order buckets, capacity
/// violations, ladder nodes misaligned or disagreeing with the leaves they
/// cover — are rejected as [`PersistError::Corrupt`], never a panic.
pub fn decode_temporal_shard(
    bytes: &[u8],
) -> Result<(u64, TemporalMeta, WindowedSketchStore), PersistError> {
    let kind = match peek_kind(bytes)? {
        kind @ (SketchKind::TemporalShard | SketchKind::TemporalLadderShard) => kind,
        other => {
            return Err(PersistError::WrongKind {
                expected: SketchKind::TemporalShard,
                got: other.byte(),
            })
        }
    };
    let mut r = PayloadReader::new(decode_frame(bytes, kind)?);
    let shard = r.u64()?;
    let meta = read_temporal_meta(&mut r)?;
    if shard >= meta.shards {
        return Err(PersistError::Corrupt(format!(
            "shard index {shard} out of range for {} shards",
            meta.shards
        )));
    }
    let late_rows = r.u64()?;
    let last_ts = r.u64()?;
    let f = r.count(8)?;
    let mut fine = Vec::with_capacity(f);
    for _ in 0..f {
        let index = r.u64()?;
        let sketch = read_unbiased_payload(&mut r)?;
        fine.push((index, sketch));
    }
    let t = r.u64()?;
    if t != meta.tiers {
        return Err(PersistError::Corrupt(format!(
            "{t} tiers in the frame but the meta declares {}",
            meta.tiers
        )));
    }
    let tiers_n: usize = t
        .try_into()
        .map_err(|_| PersistError::Corrupt(format!("tier count {t} overflows usize")))?;
    // Each tier occupies at least its own 8-byte bucket count; reject counts the
    // remaining payload cannot possibly hold before any allocation.
    if tiers_n.checked_mul(8).is_none_or(|need| need > r.remaining()) {
        return Err(PersistError::Corrupt(format!(
            "tier count {tiers_n} exceeds the bytes present"
        )));
    }
    let mut tiers = Vec::with_capacity(tiers_n);
    for _ in 0..tiers_n {
        let k = r.count(32)?;
        let mut buckets = Vec::with_capacity(k);
        for _ in 0..k {
            buckets.push(read_tier_bucket(&mut r)?);
        }
        tiers.push(buckets);
    }
    let terminal = match r.take(1)?[0] {
        0 => None,
        1 => Some(read_tier_bucket(&mut r)?),
        other => {
            return Err(PersistError::Corrupt(format!(
                "terminal-bucket flag must be 0 or 1, found {other}"
            )))
        }
    };
    let ladder_nodes = if kind == SketchKind::TemporalLadderShard {
        // Each node occupies at least its level word plus a tier bucket's
        // four fixed u64s.
        let n = r.count(40)?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let level = r.u64()?;
            let level: u32 = level.try_into().map_err(|_| {
                PersistError::Corrupt(format!("ladder level {level} overflows a level index"))
            })?;
            nodes.push((level, read_tier_bucket(&mut r)?));
        }
        nodes
    } else {
        Vec::new()
    };
    r.finish()?;
    let config = WindowConfig {
        capacity: checked_capacity(meta.capacity)?,
        // Wrapping: the sum is RNG material only, and a corrupt frame with a
        // huge seed must decode to Corrupt, never panic on overflow checks.
        seed: meta.seed.wrapping_add(shard),
        bucket_width: meta.bucket_width,
        fine_buckets: usize::try_from(meta.fine_buckets).map_err(|_| {
            PersistError::Corrupt(format!(
                "fine bucket count {} overflows usize",
                meta.fine_buckets
            ))
        })?,
        tier_factor: usize::try_from(meta.tier_factor).map_err(|_| {
            PersistError::Corrupt(format!("tier factor {} overflows usize", meta.tier_factor))
        })?,
        tiers: tiers_n,
    };
    let mut store =
        WindowedSketchStore::from_parts(config, fine, tiers, terminal, late_rows, last_ts)
            .map_err(PersistError::Corrupt)?;
    // Revalidated against the assembled ring: alignment, span-per-level, the
    // sealed retained window, and exact rows/mass agreement with the covered
    // fine leaves.
    store.attach_ladder(ladder_nodes).map_err(PersistError::Corrupt)?;
    Ok((shard, meta, store))
}

/// Encodes a temporal checkpoint manifest frame.
#[must_use]
pub fn encode_temporal_manifest(manifest: &TemporalManifest) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    write_temporal_meta(&mut w, manifest.meta);
    w.u64(manifest.snapshots);
    w.u64(manifest.rows);
    seal(w, SketchKind::TemporalManifest)
}

/// Decodes a temporal checkpoint manifest frame.
pub fn decode_temporal_manifest(bytes: &[u8]) -> Result<TemporalManifest, PersistError> {
    let mut r = PayloadReader::new(decode_frame(bytes, SketchKind::TemporalManifest)?);
    let meta = read_temporal_meta(&mut r)?;
    let snapshots = r.u64()?;
    let rows = r.u64()?;
    r.finish()?;
    Ok(TemporalManifest {
        meta,
        snapshots,
        rows,
    })
}

// ----- file helpers -----

/// Writes an encoded frame to `path` atomically and durably: the bytes land in a
/// sibling temporary file, are fsynced, renamed into place, and the parent
/// directory is fsynced too — so a crash (or power loss) mid-write can leave a
/// stray `.tmp` but never a torn or empty sketch file behind the final name.
/// Returns the number of bytes written (for the `uss_checkpoint_bytes_total`
/// counter).
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<u64, PersistError> {
    use std::io::Write as _;
    let tmp = path.with_extension("uss.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Data must be on disk before the rename becomes visible, or a crash can
        // journal the rename ahead of the contents.
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the directory entry itself (the rename) as well.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(bytes.len() as u64)
}

/// Saves a cold [`SketchSnapshot`] to `path`.
pub fn save_snapshot<P: AsRef<Path>>(path: P, snapshot: &SketchSnapshot) -> Result<(), PersistError> {
    write_file(path.as_ref(), &encode_snapshot(snapshot)).map(|_| ())
}

/// Loads a [`SketchSnapshot`] from `path`.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<SketchSnapshot, PersistError> {
    decode_snapshot(&std::fs::read(path)?)
}

/// Saves a full [`UnbiasedSpaceSaving`] to `path`.
pub fn save_unbiased<P: AsRef<Path>>(
    path: P,
    sketch: &UnbiasedSpaceSaving,
) -> Result<(), PersistError> {
    write_file(path.as_ref(), &encode_unbiased(sketch)).map(|_| ())
}

/// Loads a full [`UnbiasedSpaceSaving`] from `path`.
pub fn load_unbiased<P: AsRef<Path>>(path: P) -> Result<UnbiasedSpaceSaving, PersistError> {
    decode_unbiased(&std::fs::read(path)?)
}

/// Saves a full [`WeightedSpaceSaving`] to `path`.
pub fn save_weighted<P: AsRef<Path>>(
    path: P,
    sketch: &WeightedSpaceSaving,
) -> Result<(), PersistError> {
    write_file(path.as_ref(), &encode_weighted(sketch)).map(|_| ())
}

/// Loads a full [`WeightedSpaceSaving`] from `path`.
pub fn load_weighted<P: AsRef<Path>>(path: P) -> Result<WeightedSpaceSaving, PersistError> {
    decode_weighted(&std::fs::read(path)?)
}

/// A sketch file loaded for cold serving: a [`SnapshotSource`] over yesterday's
/// (or another node's) data, so a [`crate::query::QueryServer`] serves a
/// historical snapshot through exactly the same typed-query API as a live engine.
///
/// Accepts any single-sketch kind — a cold [`SketchKind::Snapshot`], a full
/// [`SketchKind::Unbiased`] / [`SketchKind::Weighted`] / [`SketchKind::Decayed`]
/// sketch (decayed files serve their state as of the last update), a single
/// [`SketchKind::EngineShard`] file (served alone; use
/// [`crate::distributed::DistributedSketcher::merge_files`] to fold a full shard
/// set first), or a single [`SketchKind::TemporalShard`] /
/// [`SketchKind::TemporalLadderShard`] bucket ring (served as the fold of its
/// whole retained history). The file is read once at open time; serving never
/// touches the filesystem again.
#[derive(Debug, Clone)]
pub struct ColdSnapshot {
    path: PathBuf,
    snapshot: SketchSnapshot,
}

impl ColdSnapshot {
    /// Reads and decodes `path`.
    // lint: total-decode — accepts any frame kind straight off disk.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)?;
        let snapshot = match peek_kind(&bytes)? {
            SketchKind::Snapshot => decode_snapshot(&bytes)?,
            SketchKind::Unbiased => decode_unbiased(&bytes)?.snapshot(),
            SketchKind::Weighted => decode_weighted(&bytes)?.snapshot(),
            SketchKind::EngineShard => decode_shard(&bytes)?.2.snapshot(),
            SketchKind::Decayed => {
                let sketch = decode_decayed(&bytes)?;
                sketch.snapshot_at(sketch.last_time())
            }
            SketchKind::TemporalShard | SketchKind::TemporalLadderShard => {
                // Serve the shard's whole retained history: fold every bucket
                // with the unbiased PPS merge under span-derived seeds. (The
                // ladder nodes in a kind-8 frame are an index over the same
                // buckets; the whole-history fold reads the buckets directly.)
                let (shard, meta, store) = decode_temporal_shard(&bytes)?;
                let seed = meta.seed.wrapping_add(shard);
                store
                    .fold_range(0, u64::MAX, seed ^ FOLD_MERGE_SALT, seed ^ FOLD_OUT_SALT)
                    .snapshot()
            }
            kind @ (SketchKind::Manifest | SketchKind::TemporalManifest) => {
                return Err(PersistError::WrongKind {
                    expected: SketchKind::Snapshot,
                    got: kind.byte(),
                })
            }
        };
        Ok(Self { path, snapshot })
    }

    /// The file this snapshot was loaded from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The decoded snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &SketchSnapshot {
        &self.snapshot
    }
}

impl SnapshotSource for ColdSnapshot {
    fn capture(&self) -> SketchSnapshot {
        self.snapshot.clone()
    }

    /// A cold file never grows, so automatic refresh is (correctly) a no-op.
    fn rows_hint(&self) -> u64 {
        self.snapshot.rows_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::StreamSketch;

    fn sample_unbiased() -> UnbiasedSpaceSaving {
        let mut sketch = UnbiasedSpaceSaving::with_seed(32, 11);
        for i in 0..5_000u64 {
            sketch.offer(i % 120);
        }
        sketch
    }

    /// The bytewise CRC-64 the sliced one must reproduce bit for bit: the
    /// checksum every frame and checkpoint on disk was written with.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = 0u64;
        for &b in bytes {
            crc = CRC64_TABLES[0][usize::from((crc >> 56) as u8 ^ b)] ^ (crc << 8);
        }
        crc
    }

    fn random_bytes(len: usize, state: &mut u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                (crate::hash::splitmix64(*state) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc64_known_properties() {
        assert_eq!(crc64(&[]), 0);
        // The CRC-64/ECMA-182 catalogue check value (unreflected, zero init,
        // no final xor): pins the checksum old checkpoints were written with.
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
        assert_eq!(crc64_bytewise(b"123456789"), 0x6C40_DF5F_0B49_7347);
        let a = crc64(b"hello sketch");
        let mut flipped = b"hello sketch".to_vec();
        flipped[3] ^= 0x10;
        assert_ne!(a, crc64(&flipped));
    }

    #[test]
    fn sliced_crc64_matches_the_bytewise_reference() {
        let mut state = 17;
        let backing = random_bytes(300 + 16, &mut state);
        for len in 0..=300 {
            // Every misalignment of the slice start against a 16-byte block.
            for offset in [0, 1, 3, 7, 8, 15] {
                let bytes = &backing[offset..offset + len];
                assert_eq!(crc64(bytes), crc64_bytewise(bytes), "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn crc64_update_continues_at_every_split() {
        let mut state = 5;
        let bytes = random_bytes(131, &mut state);
        let whole = crc64(&bytes);
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(crc64_update(crc64(a), b), whole, "split {split}");
        }
    }

    #[test]
    fn snapshot_frame_round_trips() {
        let snap = sample_unbiased().snapshot();
        let bytes = encode_snapshot(&snap);
        assert_eq!(peek_kind(&bytes).unwrap(), SketchKind::Snapshot);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn unbiased_frame_round_trips_bit_compatibly() {
        let sketch = sample_unbiased();
        let bytes = encode_unbiased(&sketch);
        let mut restored = decode_unbiased(&bytes).unwrap();
        assert_eq!(restored.snapshot(), sketch.snapshot());
        // Continuing both sketches must produce identical states: structure *and*
        // RNG survived the round trip.
        let mut original = sketch;
        for i in 0..5_000u64 {
            original.offer(i.wrapping_mul(31) % 4_000);
            restored.offer(i.wrapping_mul(31) % 4_000);
        }
        assert_eq!(original.entries(), restored.entries());
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn weighted_frame_round_trips_bit_compatibly() {
        use crate::traits::WeightedStreamSketch;
        let mut sketch = WeightedSpaceSaving::with_seed(24, 3);
        for i in 0..4_000u64 {
            sketch.offer_weighted(i % 90, (i % 5 + 1) as f64 * 0.5);
        }
        let bytes = encode_weighted(&sketch);
        let mut restored = decode_weighted(&bytes).unwrap();
        assert_eq!(restored.snapshot(), sketch.snapshot());
        assert_eq!(restored.total_weight(), sketch.total_weight());
        for i in 0..4_000u64 {
            sketch.offer_weighted(i % 333, 1.25);
            restored.offer_weighted(i % 333, 1.25);
        }
        assert_eq!(sketch.entries(), restored.entries());
        assert_eq!(sketch.min_count(), restored.min_count());
    }

    #[test]
    fn shard_and_manifest_frames_round_trip() {
        let meta = EngineMeta {
            shards: 4,
            capacity: 32,
            seed: 9,
        };
        let sketch = {
            let mut s = UnbiasedSpaceSaving::with_seed(32, 9);
            for i in 0..1_000u64 {
                s.offer(i % 50);
            }
            s
        };
        let bytes = encode_shard(2, meta, &sketch);
        let (shard, back_meta, back) = decode_shard(&bytes).unwrap();
        assert_eq!(shard, 2);
        assert_eq!(back_meta, meta);
        assert_eq!(back.snapshot(), sketch.snapshot());

        let manifest = EngineManifest {
            meta,
            snapshots: 7,
            rows: 1_000,
        };
        let bytes = encode_manifest(&manifest);
        assert_eq!(decode_manifest(&bytes).unwrap(), manifest);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let sketch = sample_unbiased();
        let good = encode_unbiased(&sketch);

        assert!(matches!(
            decode_unbiased(&[]),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            decode_unbiased(&good[..good.len() - 1]),
            Err(PersistError::Truncated { .. })
        ));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_unbiased(&bad_magic),
            Err(PersistError::BadMagic)
        ));

        let mut future = good.clone();
        future[4] = 0xFF;
        assert!(matches!(
            decode_unbiased(&future),
            Err(PersistError::UnsupportedVersion(_))
        ));

        assert!(matches!(
            decode_weighted(&good),
            Err(PersistError::WrongKind { .. })
        ));

        let mut flipped = good;
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        assert!(decode_unbiased(&flipped).is_err());
    }

    #[test]
    fn wrong_kind_reports_both_sides() {
        let snap = sample_unbiased().snapshot();
        let bytes = encode_snapshot(&snap);
        match decode_unbiased(&bytes) {
            Err(PersistError::WrongKind { expected, got }) => {
                assert_eq!(expected, SketchKind::Unbiased);
                assert_eq!(got, SketchKind::Snapshot as u8);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn cold_snapshot_serves_any_single_sketch_kind() {
        let sketch = sample_unbiased();
        let dir = std::env::temp_dir().join(format!("uss-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let snap_path = dir.join("cold.uss");
        save_snapshot(&snap_path, &sketch.snapshot()).unwrap();
        let cold = ColdSnapshot::open(&snap_path).unwrap();
        assert_eq!(cold.capture(), sketch.snapshot());
        assert_eq!(cold.rows_hint(), 5_000);
        assert_eq!(cold.path(), snap_path.as_path());

        let full_path = dir.join("full.uss");
        save_unbiased(&full_path, &sketch).unwrap();
        let cold = ColdSnapshot::open(&full_path).unwrap();
        assert_eq!(cold.capture(), sketch.snapshot());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decayed_frame_round_trips_and_serves_cold() {
        let mut sketch = DecayedSpaceSaving::with_seed(16, 0.02, 4);
        for i in 0..3_000u64 {
            sketch.offer_at(i % 60, i as f64 * 0.1);
        }
        let bytes = encode_decayed(&sketch);
        assert_eq!(peek_kind(&bytes).unwrap(), SketchKind::Decayed);
        let decoded = decode_decayed(&bytes).unwrap();
        assert_eq!(decoded.rows_processed(), 3_000);
        assert_eq!(decoded.lambda().to_bits(), sketch.lambda().to_bits());
        assert_eq!(decoded.last_time().to_bits(), sketch.last_time().to_bits());

        let dir = std::env::temp_dir().join(format!("uss-decayed-cold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decayed.uss");
        write_file(&path, &bytes).unwrap();
        let cold = ColdSnapshot::open(&path).unwrap();
        assert_eq!(cold.capture(), sketch.snapshot_at(sketch.last_time()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temporal_manifest_round_trips_and_validates() {
        let config = crate::temporal::TemporalConfig::new(3, 64, 5, 10, 8).with_retention(2, 4);
        let meta = TemporalMeta::from_config(&config);
        let manifest = TemporalManifest {
            meta,
            snapshots: 11,
            rows: 12_345,
        };
        let bytes = encode_temporal_manifest(&manifest);
        assert_eq!(peek_kind(&bytes).unwrap(), SketchKind::TemporalManifest);
        assert_eq!(decode_temporal_manifest(&bytes).unwrap(), manifest);
        // A manifest is not a servable sketch.
        assert!(matches!(
            {
                let dir =
                    std::env::temp_dir().join(format!("uss-tmanifest-{}", std::process::id()));
                std::fs::create_dir_all(&dir).unwrap();
                let path = dir.join("m.uss");
                write_file(&path, &bytes).unwrap();
                let result = ColdSnapshot::open(&path);
                std::fs::remove_dir_all(&dir).unwrap();
                result
            },
            Err(PersistError::WrongKind { .. })
        ));
        // Degenerate geometry is rejected.
        let mut zero_width = manifest;
        zero_width.meta.bucket_width = 0;
        assert!(decode_temporal_manifest(&encode_temporal_manifest(&zero_width)).is_err());
    }

    #[test]
    fn temporal_shard_frame_serves_cold_as_its_full_history() {
        use crate::temporal::{TemporalConfig, WindowConfig, WindowedSketchStore};
        let config = TemporalConfig::new(2, 24, 9, 2, 3).with_retention(1, 2);
        let shard = 1u64;
        let mut store = WindowedSketchStore::new(WindowConfig {
            seed: config.window.seed + shard,
            ..config.window
        });
        for ts in 0u64..40 {
            store.offer_at(ts % 30, ts);
        }
        let meta = TemporalMeta::from_config(&config);
        let bytes = encode_temporal_shard(shard, meta, &store);
        let dir = std::env::temp_dir().join(format!("uss-tshard-cold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("window-0001.uss");
        write_file(&path, &bytes).unwrap();
        let cold = ColdSnapshot::open(&path).unwrap();
        let seed = meta.seed + shard;
        let expected = store
            .fold_range(0, u64::MAX, seed ^ FOLD_MERGE_SALT, seed ^ FOLD_OUT_SALT)
            .snapshot();
        assert_eq!(cold.capture(), expected);
        assert_eq!(cold.rows_hint(), 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_declared_capacities_are_rejected_before_any_allocation() {
        // Regression: a crafted frame with a valid CRC but a huge capacity used
        // to pass decoding and then panic ('capacity overflow') when something
        // downstream — StreamSummary::new, the temporal range fold — sized an
        // allocation from it. The bound turns it into Corrupt at decode time.
        let config = crate::temporal::TemporalConfig::new(2, 24, 9, 2, 3);
        let store = crate::temporal::WindowedSketchStore::new(config.window);
        let mut meta = TemporalMeta::from_config(&config);
        meta.capacity = 1 << 61;
        let bytes = encode_temporal_shard(0, meta, &store);
        assert!(matches!(
            decode_temporal_shard(&bytes),
            Err(PersistError::Corrupt(_))
        ));

        // The single-sketch kinds are bounded the same way: rewrite the
        // capacity field (offset 16 = first payload word) and re-seal the CRC.
        let sketch = sample_unbiased();
        for mut bytes in [encode_unbiased(&sketch), encode_snapshot(&sketch.snapshot())] {
            bytes[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
            let crc_at = bytes.len() - 8;
            let crc = crc64(&bytes[..crc_at]);
            bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                peek_kind(&bytes).and_then(|kind| match kind {
                    SketchKind::Unbiased => decode_unbiased(&bytes).map(|_| ()),
                    _ => decode_snapshot(&bytes).map(|_| ()),
                }),
                Err(PersistError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn error_display_is_informative() {
        let text = PersistError::UnsupportedVersion(9).to_string();
        assert!(text.contains('9'), "{text}");
        let text = PersistError::Corrupt("heap order violated".into()).to_string();
        assert!(text.contains("heap"), "{text}");
    }
}
