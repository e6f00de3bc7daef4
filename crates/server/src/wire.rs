//! The wire protocol: length-prefixed, versioned, CRC-checksummed frames.
//!
//! This is the persist codec's frame discipline lifted onto a socket. Every
//! request and every response is one *frame*, and every decode path is total:
//! truncated, bit-flipped, oversized, wrong-version and garbage frames all come
//! back as a [`WireError`], never a panic. The payload bodies are assembled and
//! parsed with the persist codec's own [`PayloadWriter`] / [`PayloadReader`],
//! so the byte conventions (little-endian everything, counts validated against
//! the bytes actually present before any allocation) are identical to the
//! on-disk format.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"USSW"
//! 4       2     protocol version  (currently 1)
//! 6       1     frame kind        (see below)
//! 7       1     reserved          (0)
//! 8       8     payload length  n (little-endian; at most 16 MiB)
//! 16      n     payload           (kind-specific, see below)
//! 16+n    8     CRC-64/ECMA checksum over bytes [0, 16+n)
//! ```
//!
//! # Frame kinds and payloads
//!
//! Requests occupy `0x01..=0x08`; each response kind is its request kind with
//! bit 6 set (`0x41..=0x48`), and `0x7F` is the error response. A *name* is
//! `len u32, len × utf-8 byte` (at most 128 bytes, `[A-Za-z0-9_.-]`, non-empty
//! — names double as checkpoint directory names, so they must be
//! filesystem-safe). A *spec* is the 7 × u64 stream identity `shards, capacity,
//! seed, bucket_width, fine_buckets, tier_factor, tiers` (the persist layer's
//! [`TemporalMeta`]). A *range* is `tag u8` (`0` = all, `1` = last buckets,
//! `2` = between) followed by `n u64` for tag 1 and `start u64, end u64` for
//! tag 2.
//!
//! | kind | frame | payload |
//! |------|-------|---------|
//! | 0x01 | `Ping` | empty |
//! | 0x02 | `CreateStream` | name, spec |
//! | 0x03 | `ListStreams` | empty |
//! | 0x04 | `Ingest` | name, `n u64, n × (item u64, ts u64)` |
//! | 0x05 | `Query` | name, range, `confidence f64`, query (below) |
//! | 0x06 | `Marginals` | name, range, `confidence f64, shift u8, mask u64` |
//! | 0x07 | `Shutdown` | empty |
//! | 0x08 | `Stats` | empty |
//! | 0x41 | `Pong` | `protocol u16` |
//! | 0x42 | `StreamCreated` | `created u8` (1 = new, 0 = already existed) |
//! | 0x43 | `Streams` | `n u64, n × (name, spec, rows u64)` |
//! | 0x44 | `Ingested` | `rows u64` |
//! | 0x45 | `Answer` | `rows u64`, answer (below) |
//! | 0x46 | `MarginalsAnswer` | `rows u64, n u64, n × (key u64, sum f64, variance f64, in_sketch u64, lower f64, upper f64)` |
//! | 0x47 | `ShuttingDown` | empty |
//! | 0x48 | `StatsReply` | server stats (below) |
//! | 0x7F | `Error` | `code u8`, message (u32-length-prefixed utf-8) |
//!
//! A query is `tag u8` then: `0` subset sum (`n u64, n × item u64`, sorted
//! ascending), `1` proportion (same), `2` top-k (`k u64`), `3` frequent items
//! (`phi f64`, finite, in `(0, 1)`), `4` rank quantile (`q f64`). An answer is
//! `tag u8` then: `0` estimate (`sum f64, variance f64, in_sketch u64,
//! lower f64, upper f64, confidence f64`), `1` items (`n u64, n × (item u64,
//! count f64)`), `2` rank (`present u8 [, item u64, count f64]`).
//!
//! Client-supplied floats that feed panicking estimator contracts (`confidence`,
//! `phi`) are validated *at decode time*, so a hostile frame is rejected with
//! [`WireError::Invalid`] before it can reach an `assert!` in the query layer.
//!
//! Server stats (the `StatsReply` payload) are `connections_accepted u64,
//! connections_closed u64`, [`REQUEST_KIND_COUNT`] × `requests u64` (indexed by
//! request kind − 1), [`ERROR_CODE_COUNT`] × `error_frames u64` (indexed by
//! [`ErrorCode`] − 1), [`REQUEST_KIND_COUNT`] × histogram, then `n u64, n ×
//! stream-stats`. A *histogram* is `m u64, m × (bucket u8, count u64)` (bucket
//! indices strictly increasing, below 64; only occupied buckets are encoded)
//! followed by `count u64, sum u64`. A *stream-stats* is name,
//! `rows_ingested u64`, [`REQUEST_KIND_COUNT`] × `requests u64`, then `s u64,
//! s × (sample-text, value u64)` where sample-text is a u32-length-prefixed
//! utf-8 rendered sample name (`family{labels}`), capped at 4096 bytes.

use std::io::{Read, Write};

use uss_core::persist::{
    crc64, crc64_update, PayloadReader, PayloadWriter, PersistError, TemporalMeta,
};
use uss_core::{HistogramSnapshot, Query, QueryAnswer, SubsetEstimate, TimeRange};
use uss_core::variance::ConfidenceInterval;

/// Frame magic: `USSW` (Unbiased Space Saving, Wire).
pub const MAGIC: [u8; 4] = *b"USSW";
/// Current protocol version.
pub const PROTOCOL_VERSION: u16 = 1;
/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 16;
/// CRC-64 trailer length in bytes.
pub const CHECKSUM_LEN: usize = 8;
/// Hard ceiling on a frame payload. Anything larger is rejected from the header
/// alone, before any allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;
/// Longest permitted stream name, in bytes.
pub const MAX_NAME_LEN: usize = 128;
/// Number of defined request kinds (`0x01..=0x08`). Per-kind stats arrays are
/// indexed by `kind - 1`.
pub const REQUEST_KIND_COUNT: usize = 8;
/// Number of defined [`ErrorCode`] classes (`1..=7`). Per-code stats arrays are
/// indexed by `code - 1`.
pub const ERROR_CODE_COUNT: usize = 7;

/// Decode-time ceilings on client-supplied stream geometry, so a hostile
/// `CreateStream` cannot make the server eagerly allocate absurd state.
pub mod limits {
    /// Most worker shards a client may request per stream.
    pub const MAX_SHARDS: u64 = 64;
    /// Most sketch bins a client may request per bucket.
    pub const MAX_CAPACITY: u64 = 1 << 20;
    /// Most fine buckets a client may request per shard.
    pub const MAX_FINE_BUCKETS: u64 = 1 << 16;
    /// Most buckets-per-tier a client may request.
    pub const MAX_TIER_FACTOR: u64 = 1 << 16;
    /// Most retention tiers a client may request.
    pub const MAX_TIERS: u64 = 64;
}

/// Why a frame failed to decode (or why a socket read could not produce one).
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The bytes ran out before the structure they promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame's version is one this build does not speak.
    UnsupportedVersion(u16),
    /// The frame kind byte is not one of the defined kinds.
    UnknownKind(u8),
    /// The payload length field exceeds [`MAX_PAYLOAD`].
    Oversized(u64),
    /// The CRC-64 trailer does not match the frame bytes.
    BadChecksum,
    /// The payload decoded but violates a protocol rule (bad name, bad float,
    /// geometry over the [`limits`], trailing bytes, …).
    Invalid(String),
    /// The underlying socket failed mid-frame.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            Self::BadMagic => write!(f, "bad frame magic (expected \"USSW\")"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})")
            }
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            Self::Oversized(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte ceiling")
            }
            Self::BadChecksum => write!(f, "frame checksum mismatch"),
            Self::Invalid(why) => write!(f, "invalid payload: {why}"),
            Self::Io(err) => write!(f, "i/o failure mid-frame: {err}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<PersistError> for WireError {
    fn from(err: PersistError) -> Self {
        match err {
            PersistError::Truncated { needed, got } => Self::Truncated { needed, got },
            other => Self::Invalid(other.to_string()),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

/// Machine-readable error classes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame itself could not be decoded.
    BadFrame = 1,
    /// The frame decoded but the request is semantically wrong.
    BadRequest = 2,
    /// The named stream does not exist.
    UnknownStream = 3,
    /// `CreateStream` named an existing stream with a different spec.
    StreamExists = 4,
    /// The supplied stream geometry fails engine validation.
    InvalidConfig = 5,
    /// A worker shard died; the request degraded instead of the daemon.
    ShardDown = 6,
    /// Something else went wrong server-side.
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => Self::BadFrame,
            2 => Self::BadRequest,
            3 => Self::UnknownStream,
            4 => Self::StreamExists,
            5 => Self::InvalidConfig,
            6 => Self::ShardDown,
            7 => Self::Internal,
            other => return Err(WireError::Invalid(format!("unknown error code {other}"))),
        })
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version check.
    Ping,
    /// Create (or idempotently re-open) a named stream with the given identity.
    CreateStream {
        /// The stream name (filesystem-safe, at most [`MAX_NAME_LEN`] bytes).
        name: String,
        /// The stream's engine geometry.
        spec: TemporalMeta,
    },
    /// Enumerate the registry.
    ListStreams,
    /// Append timestamped rows to a stream.
    Ingest {
        /// Target stream.
        name: String,
        /// `(item, timestamp)` rows.
        rows: Vec<(u64, u64)>,
    },
    /// Evaluate one typed query over a time range of a stream.
    Query {
        /// Target stream.
        name: String,
        /// The time range to merge and query.
        range: TimeRange,
        /// Confidence level for interval answers, in `(0, 1)`.
        confidence: f64,
        /// The query itself.
        query: Query,
    },
    /// Keyed marginals (`key = (item >> shift) & mask`) over a time range.
    Marginals {
        /// Target stream.
        name: String,
        /// The time range to merge and query.
        range: TimeRange,
        /// Confidence level for the per-key intervals, in `(0, 1)`.
        confidence: f64,
        /// Right-shift applied to each item before masking (at most 63).
        shift: u8,
        /// Mask applied after the shift.
        mask: u64,
    },
    /// Checkpoint every stream and stop the daemon.
    Shutdown,
    /// Snapshot the server's metrics registry.
    Stats,
}

/// One row of a [`Response::Streams`] listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// The stream name.
    pub name: String,
    /// The stream's engine geometry.
    pub spec: TemporalMeta,
    /// Rows enqueued so far.
    pub rows: u64,
}

/// Per-stream slice of a [`ServerStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// The stream name.
    pub name: String,
    /// Rows enqueued into the stream's engine so far.
    pub rows_ingested: u64,
    /// Requests that named this stream, indexed by request kind − 1.
    pub requests: [u64; REQUEST_KIND_COUNT],
    /// Core metric samples for this stream's engine, rendered as
    /// `(family{labels}, value)` pairs — the same names the Prometheus
    /// exposition endpoint serves, so the two views agree by construction.
    pub samples: Vec<(String, u64)>,
}

/// A point-in-time snapshot of the server's metrics registry, carried by
/// [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted since boot.
    pub connections_accepted: u64,
    /// Connections closed (cleanly or not) since boot.
    pub connections_closed: u64,
    /// Well-formed requests served, indexed by request kind − 1.
    pub requests: [u64; REQUEST_KIND_COUNT],
    /// Error frames sent, indexed by [`ErrorCode`] − 1.
    pub error_frames: [u64; ERROR_CODE_COUNT],
    /// Request-latency histograms, one per request kind (same index as
    /// `requests`), in nanoseconds. Empty only in hand-built values; the
    /// codec always carries exactly [`REQUEST_KIND_COUNT`] entries.
    pub latency: Vec<HistogramSnapshot>,
    /// Per-stream stats, in registry iteration order.
    pub streams: Vec<StreamStats>,
}

/// One keyed marginal: the key, its estimate, and its confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalEntry {
    /// The roll-up key (`(item >> shift) & mask`).
    pub key: u64,
    /// The key's subset estimate (sum, equation-5 variance, entry count).
    pub estimate: SubsetEstimate,
    /// Normal-approximation interval at the request's confidence.
    pub ci: ConfidenceInterval,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply, echoing the protocol version the server speaks.
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u16,
    },
    /// `CreateStream` outcome.
    StreamCreated {
        /// `true` when the stream was created by this request, `false` when it
        /// already existed with an identical spec.
        created: bool,
    },
    /// The registry listing.
    Streams(Vec<StreamInfo>),
    /// Rows accepted by an `Ingest`.
    Ingested {
        /// Rows in the accepted batch.
        rows: u64,
    },
    /// A query answer.
    Answer {
        /// Rows in the snapshot that answered.
        rows: u64,
        /// The answer payload, bit-identical to the in-process
        /// [`uss_core::answer_query`] result for the same snapshot.
        answer: QueryAnswer,
    },
    /// A keyed-marginals answer, in first-seen entry order.
    MarginalsAnswer {
        /// Rows in the snapshot that answered.
        rows: u64,
        /// The per-key estimates.
        entries: Vec<MarginalEntry>,
    },
    /// Shutdown acknowledged; the connection closes after this frame.
    ShuttingDown,
    /// A metrics snapshot answering [`Request::Stats`].
    Stats(ServerStats),
    /// The request failed.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ----- kind bytes -----

const KIND_PING: u8 = 0x01;
const KIND_CREATE_STREAM: u8 = 0x02;
const KIND_LIST_STREAMS: u8 = 0x03;
const KIND_INGEST: u8 = 0x04;
const KIND_QUERY: u8 = 0x05;
const KIND_MARGINALS: u8 = 0x06;
const KIND_SHUTDOWN: u8 = 0x07;
const KIND_STATS: u8 = 0x08;
const KIND_PONG: u8 = 0x41;
const KIND_STREAM_CREATED: u8 = 0x42;
const KIND_STREAMS: u8 = 0x43;
const KIND_INGESTED: u8 = 0x44;
const KIND_ANSWER: u8 = 0x45;
const KIND_MARGINALS_ANSWER: u8 = 0x46;
const KIND_SHUTTING_DOWN: u8 = 0x47;
const KIND_STATS_REPLY: u8 = 0x48;
const KIND_ERROR: u8 = 0x7F;

// ----- frame layer -----

/// Copies a slice the caller has already length-checked into a fixed-size
/// array, so frame readers never reach for `try_into().unwrap()`.
// lint: total-decode
fn header_array<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    out
}

fn seal(w: PayloadWriter, kind: u8) -> Vec<u8> {
    debug_assert!(w.len() <= MAX_PAYLOAD);
    w.seal(MAGIC, PROTOCOL_VERSION, kind)
}

/// Validates a 16-byte frame header, returning `(kind, payload_len)`.
///
/// This is the first gate on hostile bytes: magic, version and the payload
/// ceiling are all checked before a single payload byte is read, so an
/// attacker-controlled length field cannot drive an allocation.
///
/// # Errors
///
/// [`WireError::Truncated`] on a short header, [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`], [`WireError::UnknownKind`] and
/// [`WireError::Oversized`] for each respective violation.
pub fn check_header(header: &[u8]) -> Result<(u8, usize), WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: header.len(),
        });
    }
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(header_array(&header[4..6]));
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = header[6];
    if !matches!(kind, KIND_PING..=KIND_STATS | KIND_PONG..=KIND_STATS_REPLY | KIND_ERROR) {
        return Err(WireError::UnknownKind(kind));
    }
    let len = u64::from_le_bytes(header_array(&header[8..16]));
    if len > MAX_PAYLOAD as u64 {
        return Err(WireError::Oversized(len));
    }
    let len = usize::try_from(len).map_err(|_| WireError::Oversized(len))?;
    Ok((kind, len))
}

/// Decodes one complete frame from a byte slice, returning the kind and the
/// payload slice after validating header and checksum.
fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let (kind, len) = check_header(bytes.get(..HEADER_LEN).unwrap_or(bytes))?;
    let total = HEADER_LEN + len + CHECKSUM_LEN;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(WireError::Invalid(format!(
            "{} trailing bytes after frame",
            bytes.len() - total
        )));
    }
    let body = &bytes[..HEADER_LEN + len];
    let expected = u64::from_le_bytes(header_array(&bytes[HEADER_LEN + len..total]));
    if crc64(body) != expected {
        return Err(WireError::BadChecksum);
    }
    Ok((kind, &bytes[HEADER_LEN..HEADER_LEN + len]))
}

/// Reads one frame from a socket-like reader, returning `(kind, payload)`.
///
/// Hostile or damaged input surfaces as a [`WireError`]; a cleanly closed
/// connection *before any header byte* surfaces as [`WireError::Io`] with
/// [`std::io::ErrorKind::UnexpectedEof`].
///
/// # Errors
///
/// Every header violation from [`check_header`], [`WireError::BadChecksum`]
/// on a corrupted body, and [`WireError::Io`] on transport failures.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<(u8, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    let (kind, len) = check_header(&header)?;
    // Payload and trailer land in one buffer; the checksum runs over the
    // header and the payload in place, then the trailer is cut off.
    let mut payload = vec![0u8; len + CHECKSUM_LEN];
    reader.read_exact(&mut payload)?;
    let (body, trailer) = payload.split_at(len);
    let expected = u64::from_le_bytes(header_array(trailer));
    if crc64_update(crc64(&header), body) != expected {
        return Err(WireError::BadChecksum);
    }
    payload.truncate(len);
    Ok((kind, payload))
}

/// Writes one already-encoded frame to a socket-like writer.
///
/// # Errors
///
/// [`WireError::Io`] on transport failures.
pub fn write_frame<W: Write>(writer: &mut W, frame: &[u8]) -> Result<(), WireError> {
    writer.write_all(frame)?;
    writer.flush()?;
    Ok(())
}

// ----- payload helpers -----

fn write_name(w: &mut PayloadWriter, name: &str) {
    w.u32(name.len() as u32);
    w.bytes(name.as_bytes());
}

fn read_name(r: &mut PayloadReader<'_>) -> Result<String, WireError> {
    let len = r.len_u32()?;
    if len > MAX_NAME_LEN {
        return Err(WireError::Invalid(format!(
            "name length {len} exceeds the {MAX_NAME_LEN}-byte ceiling"
        )));
    }
    let bytes = r.take(len)?;
    let name = std::str::from_utf8(bytes)
        .map_err(|_| WireError::Invalid("name is not valid utf-8".into()))?;
    validate_name(name)?;
    Ok(name.to_string())
}

/// Checks that a stream name is non-empty, at most [`MAX_NAME_LEN`] bytes, and
/// uses only `[A-Za-z0-9_.-]` — names double as checkpoint directory names, so
/// they must be filesystem-safe on every platform.
///
/// # Errors
///
/// [`WireError::Invalid`] describing the violation.
pub fn validate_name(name: &str) -> Result<(), WireError> {
    if name.is_empty() {
        return Err(WireError::Invalid("stream name is empty".into()));
    }
    if name.len() > MAX_NAME_LEN {
        return Err(WireError::Invalid(format!(
            "name length {} exceeds the {MAX_NAME_LEN}-byte ceiling",
            name.len()
        )));
    }
    if name == "." || name == ".." {
        return Err(WireError::Invalid("stream name cannot be \".\" or \"..\"".into()));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    {
        return Err(WireError::Invalid(format!(
            "stream name {name:?} contains characters outside [A-Za-z0-9_.-]"
        )));
    }
    Ok(())
}

fn write_spec(w: &mut PayloadWriter, spec: &TemporalMeta) {
    w.u64(spec.shards);
    w.u64(spec.capacity);
    w.u64(spec.seed);
    w.u64(spec.bucket_width);
    w.u64(spec.fine_buckets);
    w.u64(spec.tier_factor);
    w.u64(spec.tiers);
}

fn read_spec(r: &mut PayloadReader<'_>) -> Result<TemporalMeta, WireError> {
    let spec = TemporalMeta {
        shards: r.u64()?,
        capacity: r.u64()?,
        seed: r.u64()?,
        bucket_width: r.u64()?,
        fine_buckets: r.u64()?,
        tier_factor: r.u64()?,
        tiers: r.u64()?,
    };
    validate_spec(&spec)?;
    Ok(spec)
}

/// Checks a client-supplied stream geometry against the decode-time [`limits`].
///
/// Semantic validation (zero dimensions, tier factor below 2) is left to the
/// engine's typed config errors; this gate only stops a hostile spec from
/// driving huge eager allocations.
///
/// # Errors
///
/// [`WireError::Invalid`] naming the field over its ceiling.
pub fn validate_spec(spec: &TemporalMeta) -> Result<(), WireError> {
    let checks = [
        (spec.shards, limits::MAX_SHARDS, "shards"),
        (spec.capacity, limits::MAX_CAPACITY, "capacity"),
        (spec.fine_buckets, limits::MAX_FINE_BUCKETS, "fine_buckets"),
        (spec.tier_factor, limits::MAX_TIER_FACTOR, "tier_factor"),
        (spec.tiers, limits::MAX_TIERS, "tiers"),
    ];
    for (value, ceiling, what) in checks {
        if value > ceiling {
            return Err(WireError::Invalid(format!(
                "{what} {value} exceeds the wire ceiling {ceiling}"
            )));
        }
    }
    Ok(())
}

fn write_range(w: &mut PayloadWriter, range: &TimeRange) {
    match range {
        TimeRange::All => w.bytes(&[0]),
        TimeRange::LastBuckets(n) => {
            w.bytes(&[1]);
            w.u64(*n);
        }
        TimeRange::Between { start, end } => {
            w.bytes(&[2]);
            w.u64(*start);
            w.u64(*end);
        }
    }
}

fn read_range(r: &mut PayloadReader<'_>) -> Result<TimeRange, WireError> {
    Ok(match r.take(1)?[0] {
        0 => TimeRange::All,
        1 => TimeRange::LastBuckets(r.u64()?),
        2 => TimeRange::Between {
            start: r.u64()?,
            end: r.u64()?,
        },
        other => return Err(WireError::Invalid(format!("unknown time-range tag {other}"))),
    })
}

fn read_confidence(r: &mut PayloadReader<'_>) -> Result<f64, WireError> {
    let confidence = r.f64()?;
    if !(confidence.is_finite() && confidence > 0.0 && confidence < 1.0) {
        return Err(WireError::Invalid(format!(
            "confidence {confidence} is not strictly between 0 and 1"
        )));
    }
    Ok(confidence)
}

fn write_items(w: &mut PayloadWriter, items: &[u64]) {
    w.u64(items.len() as u64);
    for &item in items {
        w.u64(item);
    }
}

fn read_items(r: &mut PayloadReader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.count(8)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(r.u64()?);
    }
    if !items.windows(2).all(|w| w[0] < w[1]) {
        return Err(WireError::Invalid(
            "subset items must be sorted ascending with no duplicates".into(),
        ));
    }
    Ok(items)
}

fn write_query(w: &mut PayloadWriter, query: &Query) {
    match query {
        Query::SubsetSum { items } => {
            w.bytes(&[0]);
            write_items(w, items);
        }
        Query::Proportion { items } => {
            w.bytes(&[1]);
            write_items(w, items);
        }
        Query::TopK { k } => {
            w.bytes(&[2]);
            w.u64(*k as u64);
        }
        Query::FrequentItems { phi } => {
            w.bytes(&[3]);
            w.f64(*phi);
        }
        Query::RankQuantile { q } => {
            w.bytes(&[4]);
            w.f64(*q);
        }
    }
}

fn read_query(r: &mut PayloadReader<'_>) -> Result<Query, WireError> {
    Ok(match r.take(1)?[0] {
        0 => Query::SubsetSum { items: read_items(r)? },
        1 => Query::Proportion { items: read_items(r)? },
        2 => {
            let k = r.u64()?;
            let k: usize = k
                .try_into()
                .map_err(|_| WireError::Invalid(format!("top-k count {k} overflows usize")))?;
            Query::TopK { k }
        }
        3 => {
            let phi = r.f64()?;
            // `frequent_items` asserts phi ∈ (0, 1); gate hostile floats here.
            if !(phi.is_finite() && phi > 0.0 && phi < 1.0) {
                return Err(WireError::Invalid(format!(
                    "frequent-items threshold {phi} is not strictly between 0 and 1"
                )));
            }
            Query::FrequentItems { phi }
        }
        4 => Query::RankQuantile { q: r.f64()? },
        other => return Err(WireError::Invalid(format!("unknown query tag {other}"))),
    })
}

fn write_answer(w: &mut PayloadWriter, answer: &QueryAnswer) {
    match answer {
        QueryAnswer::Estimate { estimate, ci } => {
            w.bytes(&[0]);
            w.f64(estimate.sum);
            w.f64(estimate.variance);
            w.u64(estimate.items_in_sketch as u64);
            w.f64(ci.lower);
            w.f64(ci.upper);
            w.f64(ci.confidence);
        }
        QueryAnswer::Items(items) => {
            w.bytes(&[1]);
            w.u64(items.len() as u64);
            for &(item, count) in items {
                w.u64(item);
                w.f64(count);
            }
        }
        QueryAnswer::Rank(entry) => {
            w.bytes(&[2]);
            match entry {
                Some((item, count)) => {
                    w.bytes(&[1]);
                    w.u64(*item);
                    w.f64(*count);
                }
                None => w.bytes(&[0]),
            }
        }
    }
}

fn read_answer(r: &mut PayloadReader<'_>) -> Result<QueryAnswer, WireError> {
    Ok(match r.take(1)?[0] {
        0 => QueryAnswer::Estimate {
            estimate: SubsetEstimate {
                sum: r.f64()?,
                variance: r.f64()?,
                items_in_sketch: usize::try_from(r.u64()?)
                    .map_err(|_| WireError::Invalid("entry count overflows usize".into()))?,
            },
            ci: ConfidenceInterval {
                lower: r.f64()?,
                upper: r.f64()?,
                confidence: r.f64()?,
            },
        },
        1 => {
            let n = r.count(16)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push((r.u64()?, r.f64()?));
            }
            QueryAnswer::Items(items)
        }
        2 => QueryAnswer::Rank(match r.take(1)?[0] {
            0 => None,
            1 => Some((r.u64()?, r.f64()?)),
            other => {
                return Err(WireError::Invalid(format!("unknown rank-presence tag {other}")))
            }
        }),
        other => return Err(WireError::Invalid(format!("unknown answer tag {other}"))),
    })
}

/// Maps a request kind byte to its stats-array index, or `None` for
/// non-request kinds. The server uses this to bucket per-kind counters and
/// latency histograms.
#[must_use]
pub fn request_kind_index(kind: u8) -> Option<usize> {
    match kind {
        KIND_PING..=KIND_STATS => Some(usize::from(kind) - 1),
        _ => None,
    }
}

fn write_histogram(w: &mut PayloadWriter, h: &HistogramSnapshot) {
    w.u64(h.buckets.len() as u64);
    for &(bucket, count) in &h.buckets {
        w.bytes(&[bucket]);
        w.u64(count);
    }
    w.u64(h.count);
    w.u64(h.sum);
}

fn read_histogram(r: &mut PayloadReader<'_>) -> Result<HistogramSnapshot, WireError> {
    let n = r.count(9)?;
    let mut buckets = Vec::with_capacity(n);
    let mut prev: Option<u8> = None;
    for _ in 0..n {
        let bucket = r.take(1)?[0];
        if bucket >= 64 {
            return Err(WireError::Invalid(format!(
                "histogram bucket index {bucket} exceeds 63"
            )));
        }
        if prev.is_some_and(|p| p >= bucket) {
            return Err(WireError::Invalid(
                "histogram bucket indices must be strictly increasing".into(),
            ));
        }
        prev = Some(bucket);
        buckets.push((bucket, r.u64()?));
    }
    Ok(HistogramSnapshot {
        buckets,
        count: r.u64()?,
        sum: r.u64()?,
    })
}

fn write_server_stats(w: &mut PayloadWriter, stats: &ServerStats) {
    w.u64(stats.connections_accepted);
    w.u64(stats.connections_closed);
    for &count in &stats.requests {
        w.u64(count);
    }
    for &count in &stats.error_frames {
        w.u64(count);
    }
    // The codec always carries exactly one histogram per request kind; pad a
    // hand-built short vector with empties rather than emit a malformed frame.
    let empty = HistogramSnapshot::default();
    for i in 0..REQUEST_KIND_COUNT {
        write_histogram(w, stats.latency.get(i).unwrap_or(&empty));
    }
    w.u64(stats.streams.len() as u64);
    for stream in &stats.streams {
        write_name(w, &stream.name);
        w.u64(stream.rows_ingested);
        for &count in &stream.requests {
            w.u64(count);
        }
        w.u64(stream.samples.len() as u64);
        for (text, value) in &stream.samples {
            write_name_unchecked(w, text);
            w.u64(*value);
        }
    }
}

fn read_server_stats(r: &mut PayloadReader<'_>) -> Result<ServerStats, WireError> {
    let connections_accepted = r.u64()?;
    let connections_closed = r.u64()?;
    let mut requests = [0u64; REQUEST_KIND_COUNT];
    for slot in &mut requests {
        *slot = r.u64()?;
    }
    let mut error_frames = [0u64; ERROR_CODE_COUNT];
    for slot in &mut error_frames {
        *slot = r.u64()?;
    }
    let mut latency = Vec::with_capacity(REQUEST_KIND_COUNT);
    for _ in 0..REQUEST_KIND_COUNT {
        latency.push(read_histogram(r)?);
    }
    let n = r.count(4 + 8 + 8 * REQUEST_KIND_COUNT + 8)?;
    let mut streams = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_name(r)?;
        let rows_ingested = r.u64()?;
        let mut stream_requests = [0u64; REQUEST_KIND_COUNT];
        for slot in &mut stream_requests {
            *slot = r.u64()?;
        }
        let s = r.count(4 + 8)?;
        let mut samples = Vec::with_capacity(s);
        for _ in 0..s {
            samples.push((read_message(r)?, r.u64()?));
        }
        streams.push(StreamStats {
            name,
            rows_ingested,
            requests: stream_requests,
            samples,
        });
    }
    Ok(ServerStats {
        connections_accepted,
        connections_closed,
        requests,
        error_frames,
        latency,
        streams,
    })
}

// ----- request codec -----

fn write_ingest(w: &mut PayloadWriter, name: &str, rows: &[(u64, u64)]) {
    w.reserve(4 + name.len() + 8 + rows.len() * 16);
    write_name(w, name);
    w.u64(rows.len() as u64);
    for &(item, ts) in rows {
        w.u64(item);
        w.u64(ts);
    }
}

/// Encodes an `Ingest` request frame straight from borrowed rows —
/// byte-identical to [`Request::encode`] of the same [`Request::Ingest`],
/// without first copying the rows into an owned request.
#[must_use]
pub fn encode_ingest(name: &str, rows: &[(u64, u64)]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    write_ingest(&mut w, name, rows);
    seal(w, KIND_INGEST)
}

impl Request {
    /// Encodes this request as one complete frame, ready to write to a socket.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        let kind = match self {
            Self::Ping => KIND_PING,
            Self::CreateStream { name, spec } => {
                write_name(&mut w, name);
                write_spec(&mut w, spec);
                KIND_CREATE_STREAM
            }
            Self::ListStreams => KIND_LIST_STREAMS,
            Self::Ingest { name, rows } => {
                write_ingest(&mut w, name, rows);
                KIND_INGEST
            }
            Self::Query {
                name,
                range,
                confidence,
                query,
            } => {
                write_name(&mut w, name);
                write_range(&mut w, range);
                w.f64(*confidence);
                write_query(&mut w, query);
                KIND_QUERY
            }
            Self::Marginals {
                name,
                range,
                confidence,
                shift,
                mask,
            } => {
                write_name(&mut w, name);
                write_range(&mut w, range);
                w.f64(*confidence);
                w.bytes(&[*shift]);
                w.u64(*mask);
                KIND_MARGINALS
            }
            Self::Shutdown => KIND_SHUTDOWN,
            Self::Stats => KIND_STATS,
        };
        seal(w, kind)
    }

    /// Decodes a request from a frame's kind byte and payload, totally: any
    /// violation is a [`WireError`], never a panic.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for response kinds, and the payload errors
    /// documented on the field readers.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = PayloadReader::new(payload);
        let request = match kind {
            KIND_PING => Self::Ping,
            KIND_CREATE_STREAM => Self::CreateStream {
                name: read_name(&mut r)?,
                spec: read_spec(&mut r)?,
            },
            KIND_LIST_STREAMS => Self::ListStreams,
            KIND_INGEST => {
                let name = read_name(&mut r)?;
                let n = r.count(16)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push((r.u64()?, r.u64()?));
                }
                Self::Ingest { name, rows }
            }
            KIND_QUERY => Self::Query {
                name: read_name(&mut r)?,
                range: read_range(&mut r)?,
                confidence: read_confidence(&mut r)?,
                query: read_query(&mut r)?,
            },
            KIND_MARGINALS => {
                let name = read_name(&mut r)?;
                let range = read_range(&mut r)?;
                let confidence = read_confidence(&mut r)?;
                let shift = r.take(1)?[0];
                if shift > 63 {
                    return Err(WireError::Invalid(format!(
                        "marginal shift {shift} exceeds 63"
                    )));
                }
                Self::Marginals {
                    name,
                    range,
                    confidence,
                    shift,
                    mask: r.u64()?,
                }
            }
            KIND_SHUTDOWN => Self::Shutdown,
            KIND_STATS => Self::Stats,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish().map_err(WireError::from)?;
        Ok(request)
    }
}

// ----- response codec -----

impl Response {
    /// Encodes this response as one complete frame, ready to write to a socket.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        let kind = match self {
            Self::Pong { protocol } => {
                w.bytes(&protocol.to_le_bytes());
                KIND_PONG
            }
            Self::StreamCreated { created } => {
                w.bytes(&[u8::from(*created)]);
                KIND_STREAM_CREATED
            }
            Self::Streams(streams) => {
                w.u64(streams.len() as u64);
                for stream in streams {
                    write_name(&mut w, &stream.name);
                    write_spec(&mut w, &stream.spec);
                    w.u64(stream.rows);
                }
                KIND_STREAMS
            }
            Self::Ingested { rows } => {
                w.u64(*rows);
                KIND_INGESTED
            }
            Self::Answer { rows, answer } => {
                w.u64(*rows);
                write_answer(&mut w, answer);
                KIND_ANSWER
            }
            Self::MarginalsAnswer { rows, entries } => {
                w.u64(*rows);
                w.u64(entries.len() as u64);
                for entry in entries {
                    w.u64(entry.key);
                    w.f64(entry.estimate.sum);
                    w.f64(entry.estimate.variance);
                    w.u64(entry.estimate.items_in_sketch as u64);
                    w.f64(entry.ci.lower);
                    w.f64(entry.ci.upper);
                    w.f64(entry.ci.confidence);
                }
                KIND_MARGINALS_ANSWER
            }
            Self::ShuttingDown => KIND_SHUTTING_DOWN,
            Self::Stats(stats) => {
                write_server_stats(&mut w, stats);
                KIND_STATS_REPLY
            }
            Self::Error { code, message } => {
                w.bytes(&[*code as u8]);
                write_name_unchecked(&mut w, message);
                KIND_ERROR
            }
        };
        seal(w, kind)
    }

    /// Decodes a response from a frame's kind byte and payload, totally.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for request kinds, and the payload errors
    /// documented on the field readers.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = PayloadReader::new(payload);
        let response = match kind {
            KIND_PONG => Self::Pong {
                protocol: u16::from_le_bytes(r.array()?),
            },
            KIND_STREAM_CREATED => Self::StreamCreated {
                created: match r.take(1)?[0] {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Invalid(format!("unknown created flag {other}")))
                    }
                },
            },
            KIND_STREAMS => {
                let n = r.count(4 + 7 * 8 + 8)?;
                let mut streams = Vec::with_capacity(n);
                for _ in 0..n {
                    streams.push(StreamInfo {
                        name: read_name(&mut r)?,
                        spec: read_spec(&mut r)?,
                        rows: r.u64()?,
                    });
                }
                Self::Streams(streams)
            }
            KIND_INGESTED => Self::Ingested { rows: r.u64()? },
            KIND_ANSWER => Self::Answer {
                rows: r.u64()?,
                answer: read_answer(&mut r)?,
            },
            KIND_MARGINALS_ANSWER => {
                let rows = r.u64()?;
                let n = r.count(8 * 7)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(MarginalEntry {
                        key: r.u64()?,
                        estimate: SubsetEstimate {
                            sum: r.f64()?,
                            variance: r.f64()?,
                            items_in_sketch: usize::try_from(r.u64()?).map_err(|_| {
                                WireError::Invalid("entry count overflows usize".into())
                            })?,
                        },
                        ci: ConfidenceInterval {
                            lower: r.f64()?,
                            upper: r.f64()?,
                            confidence: r.f64()?,
                        },
                    });
                }
                Self::MarginalsAnswer { rows, entries }
            }
            KIND_SHUTTING_DOWN => Self::ShuttingDown,
            KIND_STATS_REPLY => Self::Stats(read_server_stats(&mut r)?),
            KIND_ERROR => Self::Error {
                code: ErrorCode::from_u8(r.take(1)?[0])?,
                message: read_message(&mut r)?,
            },
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish().map_err(WireError::from)?;
        Ok(response)
    }
}

/// Error messages are free-form utf-8 (not filesystem-constrained names), but
/// still length-capped so a hostile server cannot balloon a client.
fn write_name_unchecked(w: &mut PayloadWriter, message: &str) {
    let bytes = message.as_bytes();
    let len = bytes.len().min(4096);
    w.u32(len as u32);
    w.bytes(&bytes[..len]);
}

fn read_message(r: &mut PayloadReader<'_>) -> Result<String, WireError> {
    let len = r.len_u32()?;
    if len > 4096 {
        return Err(WireError::Invalid(format!(
            "error message length {len} exceeds the 4096-byte ceiling"
        )));
    }
    let bytes = r.take(len)?;
    Ok(String::from_utf8_lossy(bytes).into_owned())
}

/// Encodes a one-shot byte-level round trip for tests and tools: decodes a full
/// frame (header + payload + checksum) into a [`Request`].
///
/// # Errors
///
/// Every frame and payload error the layered decoders produce.
pub fn decode_request_frame(bytes: &[u8]) -> Result<Request, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    Request::decode(kind, payload)
}

/// Decodes a full frame (header + payload + checksum) into a [`Response`].
///
/// # Errors
///
/// Every frame and payload error the layered decoders produce.
pub fn decode_response_frame(bytes: &[u8]) -> Result<Response, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    Response::decode(kind, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TemporalMeta {
        TemporalMeta {
            shards: 2,
            capacity: 64,
            seed: 7,
            bucket_width: 100,
            fine_buckets: 8,
            tier_factor: 4,
            tiers: 2,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::CreateStream {
                name: "clicks".into(),
                spec: spec(),
            },
            Request::ListStreams,
            Request::Ingest {
                name: "clicks".into(),
                rows: vec![(1, 10), (2, 20), (1, 30)],
            },
            Request::Query {
                name: "clicks".into(),
                range: TimeRange::Between { start: 5, end: 50 },
                confidence: 0.95,
                query: Query::SubsetSum { items: vec![1, 2, 9] },
            },
            Request::Marginals {
                name: "clicks".into(),
                range: TimeRange::LastBuckets(4),
                confidence: 0.9,
                shift: 8,
                mask: 0xFF,
            },
            Request::Shutdown,
            Request::Stats,
        ]
    }

    #[test]
    fn request_round_trips() {
        for request in sample_requests() {
            let frame = request.encode();
            assert_eq!(decode_request_frame(&frame).unwrap(), request);
        }
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong {
                protocol: PROTOCOL_VERSION,
            },
            Response::StreamCreated { created: true },
            Response::Streams(vec![StreamInfo {
                name: "clicks".into(),
                spec: spec(),
                rows: 123,
            }]),
            Response::Ingested { rows: 3 },
            Response::Answer {
                rows: 10,
                answer: QueryAnswer::Items(vec![(1, 5.0), (2, 3.0)]),
            },
            Response::Answer {
                rows: 10,
                answer: QueryAnswer::Rank(None),
            },
            Response::MarginalsAnswer {
                rows: 10,
                entries: vec![MarginalEntry {
                    key: 3,
                    estimate: SubsetEstimate {
                        sum: 5.0,
                        variance: 0.5,
                        items_in_sketch: 2,
                    },
                    ci: ConfidenceInterval {
                        lower: 4.0,
                        upper: 6.0,
                        confidence: 0.95,
                    },
                }],
            },
            Response::ShuttingDown,
            Response::Stats(sample_stats()),
            Response::Error {
                code: ErrorCode::UnknownStream,
                message: "no such stream".into(),
            },
        ]
    }

    #[test]
    fn response_round_trips() {
        for response in sample_responses() {
            let frame = response.encode();
            assert_eq!(decode_response_frame(&frame).unwrap(), response);
        }
    }

    #[test]
    fn borrowed_ingest_encoding_is_byte_identical() {
        for rows in [vec![], vec![(1, 10)], (0..1000).map(|i| (i * 7, i)).collect()] {
            let owned = Request::Ingest {
                name: "clicks".into(),
                rows: rows.clone(),
            };
            assert_eq!(encode_ingest("clicks", &rows), owned.encode());
        }
    }

    /// A reader that hands out at most 1–7 bytes per `read` call, cycling,
    /// the way a socket may split a frame anywhere.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.step = self.step % 7 + 1;
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn dribble(bytes: &[u8]) -> Result<(u8, Vec<u8>), WireError> {
        read_frame(&mut Dribble { bytes, step: 0 })
    }

    fn sample_frames() -> Vec<Vec<u8>> {
        let requests = sample_requests().into_iter().map(|r| r.encode());
        requests.chain(sample_responses().iter().map(Response::encode)).collect()
    }

    #[test]
    fn read_frame_under_short_reads_matches_decode_frame() {
        for frame in sample_frames() {
            let (kind, payload) = dribble(&frame).unwrap();
            let (want_kind, want_payload) = decode_frame(&frame).unwrap();
            assert_eq!((kind, payload.as_slice()), (want_kind, want_payload));
        }
    }

    #[test]
    fn read_frame_rejects_every_bit_flip_and_cut() {
        for frame in sample_frames() {
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[byte] ^= 1 << bit;
                    // Only a flipped length field may promise more bytes than
                    // follow, which surfaces as an end-of-stream read.
                    match dribble(&bad) {
                        Err(
                            WireError::BadMagic
                            | WireError::UnsupportedVersion(_)
                            | WireError::UnknownKind(_)
                            | WireError::Oversized(_)
                            | WireError::BadChecksum,
                        ) => {}
                        Err(WireError::Io(err))
                            if err.kind() == std::io::ErrorKind::UnexpectedEof
                                && (8..16).contains(&byte) => {}
                        other => panic!("byte {byte} bit {bit}: {other:?}"),
                    }
                }
            }
            for cut in 0..frame.len() {
                match dribble(&frame[..cut]) {
                    Err(WireError::Io(err)) => {
                        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
                    }
                    other => panic!("cut at {cut}: {other:?}"),
                }
            }
        }
    }

    fn sample_stats() -> ServerStats {
        let mut latency: Vec<HistogramSnapshot> =
            (0..REQUEST_KIND_COUNT).map(|_| HistogramSnapshot::default()).collect();
        latency[4] = HistogramSnapshot {
            buckets: vec![(10, 3), (12, 1)],
            count: 4,
            sum: 9000,
        };
        ServerStats {
            connections_accepted: 5,
            connections_closed: 4,
            requests: [1, 2, 3, 4, 5, 6, 7, 8],
            error_frames: [0, 1, 0, 0, 2, 0, 0],
            latency,
            streams: vec![StreamStats {
                name: "clicks".into(),
                rows_ingested: 1000,
                requests: [0, 0, 0, 9, 2, 0, 0, 0],
                samples: vec![
                    ("uss_ingest_rows_total{stream=\"clicks\"}".into(), 1000),
                    ("uss_temporal_rotations_total{stream=\"clicks\"}".into(), 3),
                ],
            }],
        }
    }

    #[test]
    fn stats_round_trip_is_exact_and_hostile_stats_are_gated() {
        let stats = sample_stats();
        let frame = Response::Stats(stats.clone()).encode();
        assert_eq!(decode_response_frame(&frame).unwrap(), Response::Stats(stats));

        // A short hand-built latency vector is padded to the full kind count
        // on the wire, so it decodes to 8 (empty) histograms, not a panic.
        let short = ServerStats::default();
        match decode_response_frame(&Response::Stats(short).encode()).unwrap() {
            Response::Stats(decoded) => {
                assert_eq!(decoded.latency.len(), REQUEST_KIND_COUNT);
                assert!(decoded.latency.iter().all(|h| h.count == 0));
            }
            other => panic!("expected stats, got {other:?}"),
        }

        // Out-of-range and out-of-order bucket indices are rejected at decode.
        for buckets in [vec![(64u8, 1u64)], vec![(5, 1), (5, 2)], vec![(6, 1), (3, 2)]] {
            let mut bad = sample_stats();
            bad.latency[0] = HistogramSnapshot {
                buckets,
                count: 1,
                sum: 1,
            };
            assert!(matches!(
                decode_response_frame(&Response::Stats(bad).encode()),
                Err(WireError::Invalid(_))
            ));
        }
    }

    #[test]
    fn request_kind_indices_cover_every_request() {
        for kind in 1u8..=REQUEST_KIND_COUNT as u8 {
            assert_eq!(request_kind_index(kind), Some(usize::from(kind) - 1));
        }
        assert_eq!(request_kind_index(0), None);
        assert_eq!(request_kind_index(REQUEST_KIND_COUNT as u8 + 1), None);
        assert_eq!(request_kind_index(KIND_PONG), None);
    }

    #[test]
    fn hostile_frames_decode_to_errors() {
        let frame = Request::Ping.encode();
        // Truncation at every prefix length.
        for cut in 0..frame.len() {
            assert!(decode_request_frame(&frame[..cut]).is_err());
        }
        // A single flipped bit anywhere breaks magic, version, kind, length,
        // payload or checksum — never panics, never passes silently.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode_request_frame(&bad).is_err());
            }
        }
    }

    #[test]
    fn header_gates_reject_before_allocation() {
        let mut oversized = Request::Ping.encode();
        oversized[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            check_header(&oversized[..HEADER_LEN]),
            Err(WireError::Oversized(_))
        ));

        let mut wrong_version = Request::Ping.encode();
        wrong_version[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            check_header(&wrong_version[..HEADER_LEN]),
            Err(WireError::UnsupportedVersion(9))
        ));

        let mut bad_magic = Request::Ping.encode();
        bad_magic[0] = b'X';
        assert!(matches!(
            check_header(&bad_magic[..HEADER_LEN]),
            Err(WireError::BadMagic)
        ));
    }

    #[test]
    fn hostile_floats_and_names_are_gated() {
        let q = Request::Query {
            name: "s".into(),
            range: TimeRange::All,
            confidence: f64::NAN,
            query: Query::TopK { k: 1 },
        };
        assert!(matches!(
            decode_request_frame(&q.encode()),
            Err(WireError::Invalid(_))
        ));

        let q = Request::Query {
            name: "s".into(),
            range: TimeRange::All,
            confidence: 0.95,
            query: Query::FrequentItems { phi: 2.0 },
        };
        assert!(matches!(
            decode_request_frame(&q.encode()),
            Err(WireError::Invalid(_))
        ));

        for bad in ["", "..", "a/b", "x y", "ü"] {
            assert!(validate_name(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(validate_name("ad-clicks_v2.hourly").is_ok());

        let mut spec_over = spec();
        spec_over.shards = limits::MAX_SHARDS + 1;
        assert!(validate_spec(&spec_over).is_err());
    }
}
