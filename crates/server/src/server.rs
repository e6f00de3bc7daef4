//! The sketch daemon: a TCP server hosting a multi-stream registry.
//!
//! Each named stream owns one [`TemporalIngestEngine`]; concurrent clients
//! ingest timestamped rows and run every [`Query`] variant, keyed marginals and
//! [`TimeRange`] queries against it over the [`crate::wire`] protocol. The
//! daemon is built to *degrade* rather than die: hostile frames come back as
//! error responses (the decode paths are total), a dead worker shard turns into
//! an [`ErrorCode::ShardDown`] response (the engine control paths are typed
//! since the panic-path sweep), and an unexpected panic in a request handler is
//! caught at the connection boundary and surfaced as [`ErrorCode::Internal`].
//!
//! Durability: with a data directory configured, shutdown checkpoints every
//! stream into `data_dir/<name>/` via the engine checkpoint API — reporting
//! per-shard failures without aborting the remaining streams' writes — and boot
//! restores every stream the directory holds, reconstructing each engine's
//! config from its checkpoint manifest alone.
//!
//! Observability: every connection, request, error frame and request latency
//! feeds a server-level metrics registry (plus the per-stream engine
//! registries the core maintains). The same snapshot builder answers the wire
//! [`Request::Stats`] frame and renders the optional plaintext Prometheus
//! exposition listener ([`ServerConfig::metrics_addr`]), so the two views
//! cannot drift apart. Request counters and latency histograms are bumped
//! *after* the response is written, so any quiescent snapshot satisfies
//! `requests[k] == latency[k].count` for every kind — the conservation suite
//! depends on this.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use uss_core::metrics::{FamilyDesc, MetricKind, Sample, CORE_FAMILIES};
use uss_core::persist::{self, PersistError, TemporalMeta};
use uss_core::{
    answer_query, Counter, EngineError, Histogram, TemporalIngestEngine, TemporalIngestHandle,
};

use crate::wire::{
    self, read_frame, request_kind_index, write_frame, ErrorCode, MarginalEntry, Request,
    Response, ServerStats, StreamInfo, StreamStats, WireError, ERROR_CODE_COUNT,
    REQUEST_KIND_COUNT,
};
use crate::{log_debug, log_error, log_info, log_warn};

/// How long a connection thread blocks in one socket read before re-checking
/// the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Why the daemon could not start.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// Binding or configuring the listening socket failed.
    Io(std::io::Error),
    /// A checkpoint directory under the data dir failed to restore.
    Restore {
        /// The stream (directory) name that failed.
        stream: String,
        /// What went wrong decoding or rebuilding it.
        error: PersistError,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(err) => write!(f, "server i/o failure: {err}"),
            Self::Restore { stream, error } => {
                write!(f, "restoring stream {stream:?} failed: {error}")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            Self::Restore { error, .. } => Some(error),
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Checkpoint root. `Some(dir)` enables checkpoint-on-shutdown into
    /// `dir/<stream>/` and restore-on-boot from the same layout; `None` runs
    /// the daemon purely in memory.
    pub data_dir: Option<PathBuf>,
    /// When set, a second listener is bound here serving the metrics registry
    /// as plaintext Prometheus exposition (text format 0.0.4) over GET-line
    /// HTTP. Use port 0 for an ephemeral port (see
    /// [`SketchServer::metrics_addr`]).
    pub metrics_addr: Option<String>,
}

/// Human-readable `kind` label values for per-request-kind server metrics,
/// indexed by request kind − 1 (the [`request_kind_index`] convention).
const KIND_NAMES: [&str; REQUEST_KIND_COUNT] = [
    "ping",
    "create_stream",
    "list_streams",
    "ingest",
    "query",
    "marginals",
    "shutdown",
    "stats",
];

/// Human-readable `code` label values for the error-frame counter, indexed by
/// [`ErrorCode`] − 1.
const CODE_NAMES: [&str; ERROR_CODE_COUNT] = [
    "bad_frame",
    "bad_request",
    "unknown_stream",
    "stream_exists",
    "invalid_config",
    "shard_down",
    "internal",
];

/// Stats-array indices for the request kinds that name a stream, so handlers
/// can bump per-stream counters without threading the kind byte through.
const IDX_CREATE_STREAM: usize = 1;
const IDX_INGEST: usize = 3;
const IDX_QUERY: usize = 4;
const IDX_MARGINALS: usize = 5;

/// The server-level metric families, described for the exposition endpoint's
/// `# HELP` / `# TYPE` headers (the core families come from
/// [`CORE_FAMILIES`]).
const SERVER_FAMILIES: &[FamilyDesc] = &[
    FamilyDesc {
        name: "uss_server_connections_accepted_total",
        help: "Client connections accepted since boot.",
        kind: MetricKind::Counter,
        labels: &[],
    },
    FamilyDesc {
        name: "uss_server_connections_closed_total",
        help: "Client connections closed (cleanly or not) since boot.",
        kind: MetricKind::Counter,
        labels: &[],
    },
    FamilyDesc {
        name: "uss_server_requests_total",
        help: "Requests served, counted once the response is written.",
        kind: MetricKind::Counter,
        labels: &["kind"],
    },
    FamilyDesc {
        name: "uss_server_error_frames_total",
        help: "Error responses sent, by error code.",
        kind: MetricKind::Counter,
        labels: &["code"],
    },
    FamilyDesc {
        name: "uss_server_request_latency_nanos",
        help: "Request handling latency in nanoseconds, log2-bucketed.",
        kind: MetricKind::Histogram,
        labels: &["kind"],
    },
];

/// The daemon's own registry: connection lifecycle, per-kind request counts
/// and latency, and error frames by code. Stream-scoped metrics live on each
/// stream's engine registries instead.
struct ServerMetrics {
    connections_accepted: Counter,
    connections_closed: Counter,
    requests: [Counter; REQUEST_KIND_COUNT],
    error_frames: [Counter; ERROR_CODE_COUNT],
    latency: [Histogram; REQUEST_KIND_COUNT],
}

impl ServerMetrics {
    const fn new() -> Self {
        Self {
            connections_accepted: Counter::new(),
            connections_closed: Counter::new(),
            requests: [const { Counter::new() }; REQUEST_KIND_COUNT],
            error_frames: [const { Counter::new() }; ERROR_CODE_COUNT],
            latency: [const { Histogram::new() }; REQUEST_KIND_COUNT],
        }
    }

    fn count_error_frame(&self, code: ErrorCode) {
        self.error_frames[code as usize - 1].inc();
    }
}

/// One registered stream: its wire-visible identity, the live engine, and the
/// per-stream request counters (indexed by request kind − 1).
struct StreamEntry {
    spec: TemporalMeta,
    engine: TemporalIngestEngine,
    requests: [Counter; REQUEST_KIND_COUNT],
}

impl StreamEntry {
    fn new(spec: TemporalMeta, engine: TemporalIngestEngine) -> Self {
        Self {
            spec,
            engine,
            requests: [const { Counter::new() }; REQUEST_KIND_COUNT],
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    registry: RwLock<HashMap<String, Arc<StreamEntry>>>,
    data_dir: Option<PathBuf>,
    shutdown: AtomicBool,
    metrics: ServerMetrics,
}

impl Shared {
    fn streams(&self) -> parking_lot::RwLockReadGuard<'_, HashMap<String, Arc<StreamEntry>>> {
        self.registry.read()
    }

    fn streams_mut(&self) -> parking_lot::RwLockWriteGuard<'_, HashMap<String, Arc<StreamEntry>>> {
        self.registry.write()
    }
}

/// A running daemon. Dropping the handle shuts the daemon down (checkpointing
/// every stream when a data dir is configured).
pub struct SketchServer {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    metrics_thread: Option<std::thread::JoinHandle<()>>,
}

impl SketchServer {
    /// Binds `addr` (use port 0 for an ephemeral port), restores any streams
    /// checkpointed under the configured data dir, and starts serving.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the socket cannot be bound and
    /// [`ServerError::Restore`] when a checkpoint directory is damaged.
    pub fn start<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let mut registry = HashMap::new();
        if let Some(dir) = &config.data_dir {
            restore_streams(dir, &mut registry)?;
        }
        let shared = Arc::new(Shared {
            registry: RwLock::new(registry),
            data_dir: config.data_dir,
            shutdown: AtomicBool::new(false),
            metrics: ServerMetrics::new(),
        });

        let (metrics_addr, metrics_thread) = match &config.metrics_addr {
            Some(spec) => {
                let metrics_listener = TcpListener::bind(spec.as_str())?;
                metrics_listener.set_nonblocking(true)?;
                let bound = metrics_listener.local_addr()?;
                let exposition_shared = Arc::clone(&shared);
                let thread = std::thread::spawn(move || {
                    exposition_loop(&metrics_listener, &exposition_shared);
                });
                log_info!("metrics exposition listening on {bound}");
                (Some(bound), Some(thread))
            }
            None => (None, None),
        };

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        log_info!("listening on {addr}");
        Ok(Self {
            addr,
            metrics_addr,
            shared,
            accept_thread: Some(accept_thread),
            metrics_thread,
        })
    }

    /// The daemon's bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics exposition listener's bound address, when one was
    /// configured via [`ServerConfig::metrics_addr`].
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Test-only fault injection: panics one worker shard of a named stream so
    /// regression tests can prove the daemon degrades to typed error frames
    /// instead of dying. Returns `false` when the stream does not exist.
    #[doc(hidden)]
    pub fn debug_kill_shard(&self, stream: &str, shard: usize) -> bool {
        let Some(entry) = self.shared.streams().get(stream).cloned() else {
            return false;
        };
        entry.engine.debug_kill_shard(shard);
        true
    }

    /// Signals shutdown and blocks until the daemon has stopped accepting,
    /// drained, and (with a data dir) checkpointed every stream.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the daemon shuts down some other way — a client sending a
    /// wire `Shutdown` request. This is the daemon binary's main loop.
    pub fn join(mut self) {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        if let Some(thread) = self.metrics_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for SketchServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Restores every checkpointed stream under `dir` into the registry. A
/// subdirectory without a temporal manifest is ignored (it is not a stream
/// checkpoint); a subdirectory *with* one that fails to decode is a loud error.
fn restore_streams(
    dir: &std::path::Path,
    registry: &mut HashMap<String, Arc<StreamEntry>>,
) -> Result<(), ServerError> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // no data dir yet: first boot
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let manifest_path = path.join(TemporalIngestEngine::MANIFEST_FILE);
        if !path.is_dir() || !manifest_path.exists() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if wire::validate_name(&name).is_err() {
            continue;
        }
        let restore = || -> Result<StreamEntry, PersistError> {
            let manifest = persist::decode_temporal_manifest(&std::fs::read(&manifest_path)?)?;
            let config = manifest.meta.to_config()?;
            let engine = TemporalIngestEngine::restore(&path, config)?;
            Ok(StreamEntry::new(manifest.meta, engine))
        };
        match restore() {
            Ok(stream) => {
                log_info!("restored stream {name:?} from checkpoint");
                registry.insert(name, Arc::new(stream));
            }
            Err(error) => {
                log_error!("restoring stream {name:?} failed: {error}");
                return Err(ServerError::Restore { stream: name, error });
            }
        }
    }
    Ok(())
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                log_debug!("accepted connection from {peer}");
                shared.metrics.connections_accepted.inc();
                let conn_shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || {
                    serve_connection(stream, &conn_shared);
                    conn_shared.metrics.connections_closed.inc();
                }));
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(err) => {
                log_warn!("rejected connection: accept failed: {err}");
                std::thread::sleep(ACCEPT_POLL);
            }
        }
        connections.retain(|conn| !conn.is_finished());
    }
    // Let in-flight requests finish before checkpointing, so a final ingest
    // that was acknowledged is in the checkpoint.
    for conn in connections {
        let _ = conn.join();
    }
    checkpoint_streams(shared);
}

/// Checkpoint-on-shutdown: every stream is attempted, every failure is
/// reported, and no failure aborts the remaining streams' writes.
fn checkpoint_streams(shared: &Shared) {
    let Some(dir) = &shared.data_dir else { return };
    let streams: Vec<(String, Arc<StreamEntry>)> = shared
        .streams()
        .iter()
        .map(|(name, entry)| (name.clone(), Arc::clone(entry)))
        .collect();
    for (name, entry) in streams {
        match entry.engine.checkpoint(dir.join(&name)) {
            Ok(()) => log_info!("checkpointed stream {name:?}"),
            Err(err) => log_error!("checkpointing stream {name:?} failed: {err}"),
        }
    }
}

/// A socket read outcome that distinguishes "orderly close" and "server is
/// shutting down" from real errors.
enum ReadOutcome {
    Frame(u8, Vec<u8>),
    Closed,
    ShuttingDown,
    Bad(WireError),
}

/// Wraps a [`TcpStream`] so `read` retries timeout errors while polling the
/// shutdown flag — turning the 50 ms socket timeout into cancellable blocking.
struct PollingReader<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    interrupted: bool,
}

impl Read for PollingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.interrupted = true;
                // NOT ErrorKind::Interrupted: `read_exact` silently retries
                // that kind, which would spin forever once the flag is up.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "server shutting down",
                ));
            }
            match self.stream.read(buf) {
                Err(err)
                    if matches!(
                        err.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                other => return other,
            }
        }
    }
}

fn read_request(stream: &TcpStream, shared: &Shared) -> ReadOutcome {
    let mut reader = PollingReader {
        stream,
        shared,
        interrupted: false,
    };
    match read_frame(&mut reader) {
        Ok((kind, payload)) => ReadOutcome::Frame(kind, payload),
        Err(WireError::Io(err)) => {
            if reader.interrupted {
                ReadOutcome::ShuttingDown
            } else if err.kind() == std::io::ErrorKind::UnexpectedEof {
                ReadOutcome::Closed
            } else {
                ReadOutcome::Bad(WireError::Io(err))
            }
        }
        Err(other) => ReadOutcome::Bad(other),
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets can inherit the listener's nonblocking flag; clear it so
    // the read timeout below is a 50 ms block, not a busy poll.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    // Per-connection ingest handles (with their stream entry, for per-stream
    // request counting), one per stream touched, so repeated `Ingest` requests
    // reuse their SPSC rings instead of re-registering.
    let mut handles: HashMap<String, (TemporalIngestHandle, Arc<StreamEntry>)> = HashMap::new();

    loop {
        let (kind, payload) = match read_request(&stream, shared) {
            ReadOutcome::Frame(kind, payload) => (kind, payload),
            ReadOutcome::Closed | ReadOutcome::ShuttingDown => return,
            ReadOutcome::Bad(err) => {
                // The byte stream can no longer be trusted to be frame-aligned:
                // answer with a typed error, then close.
                log_warn!("closing connection on unframeable bytes: {err}");
                shared.metrics.count_error_frame(ErrorCode::BadFrame);
                let response = Response::Error {
                    code: ErrorCode::BadFrame,
                    message: err.to_string(),
                };
                let _ = write_frame(&mut stream, &response.encode());
                lingering_close(&stream);
                return;
            }
        };

        let request = match Request::decode(kind, &payload) {
            Ok(request) => request,
            Err(err) => {
                // The frame itself was sound (checksum passed), so the stream
                // is still aligned: report and keep serving.
                let code = match err {
                    WireError::UnknownKind(_) => ErrorCode::BadFrame,
                    _ => ErrorCode::BadRequest,
                };
                shared.metrics.count_error_frame(code);
                let response = Response::Error {
                    code,
                    message: err.to_string(),
                };
                if write_frame(&mut stream, &response.encode()).is_err() {
                    return;
                }
                continue;
            }
        };

        let shutting_down = matches!(request, Request::Shutdown);
        let started = Instant::now();
        // A panicking request handler must not take the daemon down with it:
        // catch at the connection boundary and degrade to a typed error.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, &mut handles, request)
        }))
        .unwrap_or_else(|panic| Response::Error {
            code: ErrorCode::Internal,
            message: panic_message(&panic),
        });
        if let Response::Error { code, message } = &response {
            log_warn!("request failed ({:?}): {message}", code);
            shared.metrics.count_error_frame(*code);
        }
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
        // Start the shard workers on the rows this request enqueued (see
        // `ingest`); a no-op for workers that are not parked.
        for (handle, _) in handles.values() {
            handle.wake();
        }
        // Counted after the write: a quiescent snapshot (all responses
        // received) satisfies requests[k] == latency[k].count exactly, and a
        // Stats snapshot never half-counts the request that produced it.
        if let Some(idx) = request_kind_index(kind) {
            shared.metrics.requests[idx].inc();
            shared.metrics.latency[idx].record(elapsed_nanos(started));
        }
        if shutting_down {
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Nanoseconds since `started`, saturated into a `u64` (580 years of range —
/// the cast cannot truncate a real latency).
fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How long [`lingering_close`] keeps draining a rejected connection.
const LINGER: Duration = Duration::from_millis(250);

/// Closes a connection whose remaining inbound bytes we are abandoning without
/// provoking a TCP RST: half-close the write side, then briefly drain the
/// receive queue. Closing with unread bytes pending turns our FIN into a
/// reset, which can destroy the error frame still in flight to the client.
/// The deadline bounds how long a hostile firehose can hold the drain open.
fn lingering_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 1024];
    let mut reader = stream;
    while Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "request handler panicked".to_string()
    }
}

fn engine_error_response(err: &EngineError) -> Response {
    let code = match err {
        EngineError::ShardDown { .. } => {
            log_error!("worker shard fault: {err}");
            ErrorCode::ShardDown
        }
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: err.to_string(),
    }
}

fn handle_request(
    shared: &Shared,
    handles: &mut HashMap<String, (TemporalIngestHandle, Arc<StreamEntry>)>,
    request: Request,
) -> Response {
    match request {
        Request::Ping => Response::Pong {
            protocol: wire::PROTOCOL_VERSION,
        },
        Request::CreateStream { name, spec } => create_stream(shared, name, spec),
        Request::ListStreams => {
            let mut streams: Vec<StreamInfo> = shared
                .streams()
                .iter()
                .map(|(name, entry)| StreamInfo {
                    name: name.clone(),
                    spec: entry.spec,
                    rows: entry.engine.rows_enqueued(),
                })
                .collect();
            streams.sort_by(|a, b| a.name.cmp(&b.name));
            Response::Streams(streams)
        }
        Request::Ingest { name, rows } => ingest(shared, handles, &name, &rows),
        Request::Query {
            name,
            range,
            confidence,
            query,
        } => {
            let Some(entry) = shared.streams().get(&name).cloned() else {
                return unknown_stream(&name);
            };
            entry.requests[IDX_QUERY].inc();
            match entry.engine.try_range_capture(&range) {
                Ok(snap) => Response::Answer {
                    rows: snap.rows_processed(),
                    answer: answer_query(&snap, &query, confidence),
                },
                Err(err) => engine_error_response(&err),
            }
        }
        Request::Marginals {
            name,
            range,
            confidence,
            shift,
            mask,
        } => {
            let Some(entry) = shared.streams().get(&name).cloned() else {
                return unknown_stream(&name);
            };
            entry.requests[IDX_MARGINALS].inc();
            match entry.engine.try_range_capture(&range) {
                Ok(snap) => {
                    let entries = snap
                        .marginals(|item| Some((item >> shift) & mask))
                        .into_iter()
                        .map(|(key, estimate)| MarginalEntry {
                            key,
                            ci: estimate.confidence_interval(confidence),
                            estimate,
                        })
                        .collect();
                    Response::MarginalsAnswer {
                        rows: snap.rows_processed(),
                        entries,
                    }
                }
                Err(err) => engine_error_response(&err),
            }
        }
        Request::Shutdown => Response::ShuttingDown,
        Request::Stats => Response::Stats(build_server_stats(shared)),
    }
}

/// Builds the wire [`ServerStats`] snapshot. This is the *only* reader of the
/// metrics registries: the Prometheus exposition body is rendered from the
/// same snapshot (see [`render_exposition`]), so the two views agree by
/// construction.
fn build_server_stats(shared: &Shared) -> ServerStats {
    let m = &shared.metrics;
    let mut requests = [0u64; REQUEST_KIND_COUNT];
    let mut latency = Vec::with_capacity(REQUEST_KIND_COUNT);
    for (slot, counter) in requests.iter_mut().zip(&m.requests) {
        *slot = counter.get();
    }
    for hist in &m.latency {
        latency.push(hist.snapshot());
    }
    let mut error_frames = [0u64; ERROR_CODE_COUNT];
    for (slot, counter) in error_frames.iter_mut().zip(&m.error_frames) {
        *slot = counter.get();
    }

    let mut streams: Vec<StreamStats> = shared
        .streams()
        .iter()
        .map(|(name, entry)| {
            let labels = format!("stream=\"{name}\"");
            let mut samples: Vec<Sample> = Vec::new();
            entry.engine.metrics().collect(&labels, &mut samples);
            entry.engine.temporal_metrics().collect(&labels, &mut samples);
            let mut stream_requests = [0u64; REQUEST_KIND_COUNT];
            for (slot, counter) in stream_requests.iter_mut().zip(&entry.requests) {
                *slot = counter.get();
            }
            StreamStats {
                name: name.clone(),
                rows_ingested: entry.engine.rows_enqueued(),
                requests: stream_requests,
                samples,
            }
        })
        .collect();
    streams.sort_by(|a, b| a.name.cmp(&b.name));

    ServerStats {
        connections_accepted: m.connections_accepted.get(),
        connections_closed: m.connections_closed.get(),
        requests,
        error_frames,
        latency,
        streams,
    }
}

fn unknown_stream(name: &str) -> Response {
    Response::Error {
        code: ErrorCode::UnknownStream,
        message: format!("no stream named {name:?}"),
    }
}

fn create_stream(shared: &Shared, name: String, spec: TemporalMeta) -> Response {
    let mut registry = shared.streams_mut();
    if let Some(existing) = registry.get(&name) {
        return if existing.spec == spec {
            existing.requests[IDX_CREATE_STREAM].inc();
            Response::StreamCreated { created: false }
        } else {
            Response::Error {
                code: ErrorCode::StreamExists,
                message: format!(
                    "stream {name:?} already exists with a different spec ({:?})",
                    existing.spec
                ),
            }
        };
    }
    let invalid = |message: String| Response::Error {
        code: ErrorCode::InvalidConfig,
        message,
    };
    let config = match spec.to_config() {
        Ok(config) => config,
        Err(err) => return invalid(err.to_string()),
    };
    if let Err(err) = config.validate() {
        return invalid(err.to_string());
    }
    match TemporalIngestEngine::try_new(config) {
        Ok(engine) => {
            let entry = Arc::new(StreamEntry::new(spec, engine));
            entry.requests[IDX_CREATE_STREAM].inc();
            log_info!("created stream {name:?}");
            registry.insert(name, entry);
            Response::StreamCreated { created: true }
        }
        Err(err) => invalid(err.to_string()),
    }
}

fn ingest(
    shared: &Shared,
    handles: &mut HashMap<String, (TemporalIngestHandle, Arc<StreamEntry>)>,
    name: &str,
    rows: &[(u64, u64)],
) -> Response {
    let (handle, entry) = match handles.entry(name.to_string()) {
        std::collections::hash_map::Entry::Occupied(slot) => slot.into_mut(),
        std::collections::hash_map::Entry::Vacant(slot) => {
            let Some(entry) = shared.streams().get(name).cloned() else {
                return unknown_stream(name);
            };
            match entry.engine.try_handle() {
                Ok(handle) => slot.insert((handle, entry)),
                Err(err) => return engine_error_response(&err),
            }
        }
    };
    entry.requests[IDX_INGEST].inc();
    // Flush after every batch so the acknowledged rows are query-visible and
    // survive a checkpoint the moment the response is on the wire. The sends
    // leave the workers parked; `serve_connection` wakes them once the reply
    // is written, so they do not compete with this thread for the CPU first.
    let result = handle.try_send_quiet(rows);
    match result {
        Ok(()) => Response::Ingested {
            rows: rows.len() as u64,
        },
        Err(err) => {
            // Drop the cached handle: its rings point at a dead worker.
            handles.remove(name);
            engine_error_response(&err)
        }
    }
}

// ----- Prometheus exposition -----

/// How long the exposition listener waits for a scrape's request head.
const SCRAPE_READ_TIMEOUT: Duration = Duration::from_millis(250);

fn metric_type_name(kind: MetricKind) -> &'static str {
    match kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    }
}

fn push_header(out: &mut String, desc: &FamilyDesc) {
    out.push_str("# HELP ");
    out.push_str(desc.name);
    out.push(' ');
    out.push_str(desc.help);
    out.push_str("\n# TYPE ");
    out.push_str(desc.name);
    out.push(' ');
    out.push_str(metric_type_name(desc.kind));
    out.push('\n');
}

/// Renders the whole registry as Prometheus text format 0.0.4. The body is
/// built from the same [`build_server_stats`] snapshot that answers the wire
/// `Stats` request, so the two exposures agree by construction: every
/// per-stream sample line here is byte-for-byte a `(name, value)` pair from
/// [`StreamStats::samples`].
fn render_exposition(shared: &Shared) -> String {
    use std::fmt::Write as _;

    let stats = build_server_stats(shared);
    let mut out = String::new();

    for desc in SERVER_FAMILIES {
        push_header(&mut out, desc);
        match desc.name {
            "uss_server_connections_accepted_total" => {
                let _ = writeln!(out, "{} {}", desc.name, stats.connections_accepted);
            }
            "uss_server_connections_closed_total" => {
                let _ = writeln!(out, "{} {}", desc.name, stats.connections_closed);
            }
            "uss_server_requests_total" => {
                for (i, count) in stats.requests.iter().enumerate() {
                    let _ = writeln!(out, "{}{{kind=\"{}\"}} {count}", desc.name, KIND_NAMES[i]);
                }
            }
            "uss_server_error_frames_total" => {
                for (i, count) in stats.error_frames.iter().enumerate() {
                    let _ = writeln!(out, "{}{{code=\"{}\"}} {count}", desc.name, CODE_NAMES[i]);
                }
            }
            "uss_server_request_latency_nanos" => {
                for (i, hist) in stats.latency.iter().enumerate() {
                    let kind = KIND_NAMES[i];
                    let mut cumulative = 0u64;
                    for &(bucket, count) in &hist.buckets {
                        cumulative += count;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{kind=\"{kind}\",le=\"{}\"}} {cumulative}",
                            desc.name,
                            uss_core::Histogram::bucket_upper_bound(usize::from(bucket)),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{{kind=\"{kind}\",le=\"+Inf\"}} {}",
                        desc.name, hist.count
                    );
                    let _ = writeln!(out, "{}_sum{{kind=\"{kind}\"}} {}", desc.name, hist.sum);
                    let _ =
                        writeln!(out, "{}_count{{kind=\"{kind}\"}} {}", desc.name, hist.count);
                }
            }
            _ => {}
        }
    }

    for desc in CORE_FAMILIES {
        push_header(&mut out, desc);
        let prefix = format!("{}{{", desc.name);
        for stream in &stats.streams {
            for (sample, value) in &stream.samples {
                if sample.starts_with(&prefix) {
                    let _ = writeln!(out, "{sample} {value}");
                }
            }
        }
    }

    out
}

fn exposition_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_scrape(stream, shared),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves one scrape: a GET-line HTTP exchange, deliberately minimal — read
/// the request head, answer one plaintext body, close. Anything that is not a
/// GET gets a 400 so a misdirected wire client fails loudly.
fn serve_scrape(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(SCRAPE_READ_TIMEOUT));
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let (status, body) = if head.starts_with(b"GET ") {
        ("200 OK", render_exposition(shared))
    } else {
        ("400 Bad Request", String::from("metrics endpoint speaks GET only\n"))
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
