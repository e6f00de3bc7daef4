//! A typed client for the sketch daemon.
//!
//! [`SketchClient`] wraps one TCP connection and exposes the wire protocol as
//! ordinary typed methods; every server-side error frame becomes a
//! [`ClientError::Server`] carrying the machine-readable [`ErrorCode`].

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use uss_core::persist::TemporalMeta;
use uss_core::{Query, QueryAnswer, TimeRange};

use crate::wire::{
    encode_ingest, read_frame, write_frame, ErrorCode, MarginalEntry, Request, Response,
    ServerStats, StreamInfo, WireError, MAX_PAYLOAD,
};

/// Rows per `Ingest` frame when a batch is auto-chunked: 8 MiB of rows, half
/// the frame payload ceiling.
const INGEST_CHUNK_ROWS: usize = MAX_PAYLOAD / 2 / 16;

/// Why a client call failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport or the response frame was broken.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong kind.
    UnexpectedResponse(String),
    /// A configured deadline expired: the connect, a read or a write sat
    /// longer than the timeout without the server moving a byte.
    Timeout {
        /// Which operation timed out (`"connect"`, `"read"`, `"write"`).
        operation: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(err) => write!(f, "wire failure: {err}"),
            Self::Server { code, message } => write!(f, "server error ({code:?}): {message}"),
            Self::UnexpectedResponse(got) => write!(f, "unexpected response kind: {got}"),
            Self::Timeout { operation } => write!(f, "{operation} timed out"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        Self::Wire(err)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        Self::Wire(WireError::Io(err))
    }
}

/// One connection to a sketch daemon.
pub struct SketchClient {
    stream: TcpStream,
}

impl SketchClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] wrapping the connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Connects to a daemon with a connect deadline, then applies the same
    /// deadline to every read and write (as [`SketchClient::set_timeout`]
    /// would). A server that accepts but never answers surfaces as
    /// [`ClientError::Timeout`] instead of a stuck client.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the deadline expires mid-connect, and
    /// [`ClientError::Wire`] for other connect failures — including address
    /// resolution yielding no candidates.
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let mut last: Option<std::io::Error> = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let mut client = Self { stream };
                    client.set_timeout(Some(timeout))?;
                    return Ok(client);
                }
                Err(err) => last = Some(err),
            }
        }
        Err(match last {
            Some(err) if is_timeout(&err) => ClientError::Timeout {
                operation: "connect",
            },
            Some(err) => ClientError::Wire(WireError::Io(err)),
            None => ClientError::Wire(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to no candidates",
            ))),
        })
    }

    /// Sets a receive deadline for every subsequent call, turning a hung or
    /// silent server into a [`ClientError::Timeout`] instead of a stuck
    /// client.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] wrapping the socket configuration failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.call_frame(&request.encode())
    }

    fn call_frame(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, frame).map_err(|err| classify(err, "write"))?;
        let (kind, payload) = read_frame(&mut self.stream).map_err(|err| classify(err, "read"))?;
        let response = Response::decode(kind, &payload)?;
        if let Response::Error { code, message } = response {
            return Err(ClientError::Server { code, message });
        }
        Ok(response)
    }

    /// Liveness check; returns the protocol version the server speaks.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn ping(&mut self) -> Result<u16, ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong { protocol } => Ok(protocol),
            other => Err(unexpected(&other)),
        }
    }

    /// Creates a stream (idempotent when the spec matches the existing one).
    /// Returns `true` when this call created it.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::StreamExists`] on a spec mismatch,
    /// [`ErrorCode::InvalidConfig`] on geometry the engine rejects.
    pub fn create_stream(&mut self, name: &str, spec: TemporalMeta) -> Result<bool, ClientError> {
        let request = Request::CreateStream {
            name: name.to_string(),
            spec,
        };
        match self.call(&request)? {
            Response::StreamCreated { created } => Ok(created),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists every registered stream, sorted by name.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn list_streams(&mut self) -> Result<Vec<StreamInfo>, ClientError> {
        match self.call(&Request::ListStreams)? {
            Response::Streams(streams) => Ok(streams),
            other => Err(unexpected(&other)),
        }
    }

    /// Appends `(item, timestamp)` rows to a stream, auto-chunking batches that
    /// would overflow one frame. Returns the total rows acknowledged.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownStream`] for unregistered names,
    /// [`ErrorCode::ShardDown`] when a worker died mid-stream.
    pub fn ingest(&mut self, name: &str, rows: &[(u64, u64)]) -> Result<u64, ClientError> {
        let mut total = 0u64;
        for chunk in rows.chunks(INGEST_CHUNK_ROWS.max(1)) {
            match self.call_frame(&encode_ingest(name, chunk))? {
                Response::Ingested { rows } => total += rows,
                other => return Err(unexpected(&other)),
            }
        }
        Ok(total)
    }

    /// Evaluates one typed query over a time range at 95% confidence.
    /// Returns `(rows_in_snapshot, answer)`.
    ///
    /// # Errors
    ///
    /// As [`SketchClient::query_with_confidence`].
    pub fn query(
        &mut self,
        name: &str,
        range: &TimeRange,
        query: &Query,
    ) -> Result<(u64, QueryAnswer), ClientError> {
        self.query_with_confidence(name, range, query, 0.95)
    }

    /// Evaluates one typed query over a time range at the given confidence.
    /// The answer is bit-identical to what an in-process
    /// [`uss_core::answer_query`] produces from the same range snapshot.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownStream`], [`ErrorCode::BadRequest`] for invalid
    /// floats, [`ErrorCode::ShardDown`] when a worker died.
    pub fn query_with_confidence(
        &mut self,
        name: &str,
        range: &TimeRange,
        query: &Query,
        confidence: f64,
    ) -> Result<(u64, QueryAnswer), ClientError> {
        let request = Request::Query {
            name: name.to_string(),
            range: *range,
            confidence,
            query: query.clone(),
        };
        match self.call(&request)? {
            Response::Answer { rows, answer } => Ok((rows, answer)),
            other => Err(unexpected(&other)),
        }
    }

    /// Keyed marginals over a time range: every item rolls up to
    /// `(item >> shift) & mask`, and each key gets a subset estimate with a
    /// confidence interval. Returns `(rows_in_snapshot, entries)` in
    /// first-seen entry order.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownStream`], [`ErrorCode::BadRequest`] for a shift
    /// over 63, [`ErrorCode::ShardDown`] when a worker died.
    pub fn marginals(
        &mut self,
        name: &str,
        range: &TimeRange,
        shift: u8,
        mask: u64,
        confidence: f64,
    ) -> Result<(u64, Vec<MarginalEntry>), ClientError> {
        let request = Request::Marginals {
            name: name.to_string(),
            range: *range,
            confidence,
            shift,
            mask,
        };
        match self.call(&request)? {
            Response::MarginalsAnswer { rows, entries } => Ok((rows, entries)),
            other => Err(unexpected(&other)),
        }
    }

    /// Snapshots the daemon's metrics registry: connection lifecycle, per-kind
    /// request counts and latency histograms, error frames by code, and every
    /// per-stream core metric (ingest, rings, temporal, checkpoints) rendered
    /// exactly as the Prometheus exposition endpoint would print it.
    ///
    /// ```
    /// # use uss_server::{SketchClient, SketchServer, ServerConfig};
    /// # use uss_core::persist::TemporalMeta;
    /// # let server = SketchServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    /// # let mut client = SketchClient::connect(server.addr()).unwrap();
    /// # client.create_stream("clicks", TemporalMeta {
    /// #     shards: 2, capacity: 256, seed: 42,
    /// #     bucket_width: 60, fine_buckets: 32, tier_factor: 4, tiers: 2,
    /// # }).unwrap();
    /// # use uss_core::{Query, TimeRange};
    /// client.ingest("clicks", &[(7, 0), (8, 0), (7, 1)]).unwrap();
    /// // Quiesce the workers (any query does) so the ingest counters are
    /// // exact, then snapshot.
    /// client.query("clicks", &TimeRange::All, &Query::TopK { k: 1 }).unwrap();
    /// let stats = client.stats().unwrap();
    /// let clicks = stats.streams.iter().find(|s| s.name == "clicks").unwrap();
    /// assert_eq!(clicks.rows_ingested, 3);
    /// // Worker-side row counters conserve the rows the client sent.
    /// let applied: u64 = clicks
    ///     .samples
    ///     .iter()
    ///     .filter(|(name, _)| name.starts_with("uss_ingest_rows_total{"))
    ///     .map(|&(_, value)| value)
    ///     .sum();
    /// assert_eq!(applied, 3);
    /// # server.shutdown();
    /// ```
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to checkpoint every stream and exit.
    ///
    /// # Errors
    ///
    /// Transport failures and server error frames.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::UnexpectedResponse(format!("{response:?}"))
}

/// True for the two `ErrorKind`s a platform reports when a socket deadline
/// expires (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Maps a deadline expiry inside the frame layer to the typed
/// [`ClientError::Timeout`]; everything else stays a wire failure.
fn classify(err: WireError, operation: &'static str) -> ClientError {
    match err {
        WireError::Io(io) if is_timeout(&io) => ClientError::Timeout { operation },
        other => ClientError::Wire(other),
    }
}
