//! Protocol fuzzing against a *live* daemon, in the `persist_properties`
//! style: truncated, single-bit-flipped, wrong-version, oversized-length and
//! pure-garbage frames must all yield a typed error response or a clean
//! connection close — never a panic, never a hang. Every case finishes by
//! pinging the daemon over a fresh connection, proving the hostile bytes did
//! not take the process (or its accept loop) down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use uss_core::persist::TemporalMeta;
use uss_core::{Query, TimeRange};
use uss_server::wire::{
    decode_response_frame, Request, Response, HEADER_LEN, REQUEST_KINDS, RESPONSE_KINDS,
};
use uss_server::{ServerConfig, SketchClient, SketchServer};

/// How long a fuzz connection waits for a response before concluding the
/// server (correctly) chose to wait for more bytes instead of answering.
const HOSTILE_READ_TIMEOUT: Duration = Duration::from_millis(300);

/// One past the highest defined *request* kind, read off the registry, so a
/// new request kind moves the probe with it.
const FIRST_UNDEFINED_REQUEST_KIND: u8 = REQUEST_KINDS[REQUEST_KINDS.len() - 1] + 1;

/// One past the highest defined *response* kind (the error kind `0x7F`
/// aside), read off the registry like its request-side twin.
const FIRST_UNDEFINED_RESPONSE_KIND: u8 = RESPONSE_KINDS[RESPONSE_KINDS.len() - 1] + 1;

/// One daemon shared by every fuzz case: survival across the whole battery is
/// exactly the property under test.
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<SketchServer> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let server =
                SketchServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
            let mut client = SketchClient::connect(server.addr()).expect("connect");
            client
                .create_stream(
                    "fuzz",
                    TemporalMeta {
                        shards: 2,
                        capacity: 64,
                        seed: 3,
                        bucket_width: 10,
                        fine_buckets: 8,
                        tier_factor: 4,
                        tiers: 1,
                    },
                )
                .expect("create fuzz stream");
            client.ingest("fuzz", &[(1, 1), (2, 2), (3, 3)]).expect("seed rows");
            server
        })
        .addr()
}

/// Sends raw bytes, then reads whatever the server answers (if anything)
/// within the hostile timeout. Returns the raw response bytes.
fn exchange(bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(HOSTILE_READ_TIMEOUT))
        .unwrap();
    if let Err(err) = stream.write_all(bytes) {
        // The server may already have rejected and torn the connection down;
        // that is a legitimate outcome for hostile bytes, not a test failure.
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected transport error on write: {err}"
        );
        return Vec::new();
    }
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            // A reset voids whatever partial answer was in flight.
            Err(err) if err.kind() == std::io::ErrorKind::ConnectionReset => return Vec::new(),
            Err(err) => panic!("unexpected transport error: {err}"),
        }
    }
    response
}

/// The server must either stay silent (still waiting for bytes, or it closed
/// the connection after an unrecoverable frame) or answer with well-formed
/// frames whose *first* is a typed error.
fn assert_error_or_silence(response: &[u8]) {
    if response.is_empty() {
        return;
    }
    let decoded = decode_response_frame(response);
    match decoded {
        Ok(Response::Error { .. }) => {}
        Ok(other) => panic!("hostile bytes got a non-error answer: {other:?}"),
        Err(err) => panic!("server sent an undecodable response: {err}"),
    }
}

/// The daemon (and its accept loop) must still serve typed requests after
/// every hostile exchange.
fn assert_server_alive() {
    let mut client = SketchClient::connect(server_addr()).expect("reconnect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    assert_eq!(client.ping().expect("ping"), uss_server::PROTOCOL_VERSION);
    let (rows, _) = client
        .query("fuzz", &TimeRange::All, &Query::TopK { k: 2 })
        .expect("query");
    assert_eq!(rows, 3);
}

/// A pool of well-formed requests whose frames the fuzz cases mutate.
fn valid_frames() -> Vec<Vec<u8>> {
    vec![
        Request::Ping.encode(),
        Request::ListStreams.encode(),
        Request::Ingest {
            name: "fuzz".into(),
            rows: vec![(9, 9), (10, 10)],
        }
        .encode(),
        Request::Query {
            name: "fuzz".into(),
            range: TimeRange::LastBuckets(4),
            confidence: 0.95,
            query: Query::SubsetSum { items: vec![1, 2, 3] },
        }
        .encode(),
        Request::Marginals {
            name: "fuzz".into(),
            range: TimeRange::All,
            confidence: 0.9,
            shift: 1,
            mask: 0xFF,
        }
        .encode(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pure garbage: random bytes are answered with an error frame or silence,
    /// and the daemon survives.
    #[test]
    fn garbage_bytes_never_panic_or_hang(bytes in vec(any::<u8>(), 0..256)) {
        let response = exchange(&bytes);
        assert_error_or_silence(&response);
        assert_server_alive();
    }

    /// Truncation at every kind of boundary: the server either waits for the
    /// rest (silence; the client hangs up) or reports a bad frame. It never
    /// crashes on a partial header, partial payload or partial checksum.
    #[test]
    fn truncated_frames_never_panic_or_hang(which in 0usize..5, cut_frac in 0.0f64..1.0) {
        let frame = &valid_frames()[which];
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        let response = exchange(&frame[..cut]);
        assert_error_or_silence(&response);
        assert_server_alive();
    }

    /// A single flipped bit anywhere in a valid frame is caught by the magic,
    /// version, kind, length or CRC gate — typed error or silence, no panic.
    #[test]
    fn bit_flipped_frames_never_panic_or_hang(
        which in 0usize..5,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut frame = valid_frames()[which].clone();
        let byte = ((frame.len() as f64 * byte_frac) as usize).min(frame.len() - 1);
        frame[byte] ^= 1 << bit;
        let response = exchange(&frame);
        assert_error_or_silence(&response);
        assert_server_alive();
    }

    /// Hostile floats and out-of-range fields inside a structurally sound,
    /// correctly-checksummed frame come back as a typed error response on a
    /// connection that KEEPS SERVING (payload errors do not desync framing).
    #[test]
    fn hostile_payloads_get_typed_errors_and_connection_survives(which in 0usize..6) {
        const HOSTILE_CONFIDENCES: [f64; 6] =
            [f64::NAN, f64::INFINITY, -1.0, 0.0, 1.0, 2.0];
        let bad = Request::Query {
            name: "fuzz".into(),
            range: TimeRange::All,
            confidence: HOSTILE_CONFIDENCES[which],
            query: Query::TopK { k: 1 },
        };
        let mut stream = TcpStream::connect(server_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&bad.encode()).unwrap();
        let (kind, payload) = uss_server::wire::read_frame(&mut stream).expect("error frame");
        let got_error = matches!(Response::decode(kind, &payload), Ok(Response::Error { .. }));
        prop_assert!(got_error, "hostile confidence was not answered with an error frame");
        // Same connection, follow-up valid request: still served.
        stream.write_all(&Request::Ping.encode()).unwrap();
        let (kind, payload) = uss_server::wire::read_frame(&mut stream).expect("pong");
        let got_pong = matches!(Response::decode(kind, &payload), Ok(Response::Pong { .. }));
        prop_assert!(got_pong, "connection stopped serving after a payload error");
    }
}

#[test]
fn wrong_version_frame_is_rejected() {
    let mut frame = Request::Ping.encode();
    frame[4..6].copy_from_slice(&7u16.to_le_bytes());
    let response = exchange(&frame);
    assert!(!response.is_empty(), "wrong version deserves an answer");
    assert_error_or_silence(&response);
    assert_server_alive();
}

#[test]
fn oversized_length_is_rejected_from_the_header_alone() {
    // A header promising a 1 TiB payload: the server must reject it after the
    // 16 header bytes, without waiting for (or allocating) the payload.
    let mut frame = Request::Ping.encode();
    frame.truncate(HEADER_LEN);
    frame[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let response = exchange(&frame);
    assert!(!response.is_empty(), "oversized length deserves an answer");
    assert_error_or_silence(&response);
    assert_server_alive();
}

#[test]
fn unknown_kind_with_valid_checksum_is_rejected() {
    // Build a frame with an undefined kind byte but a *correct* checksum, so
    // only the kind gate can reject it.
    let mut frame = Request::Ping.encode();
    assert!(!REQUEST_KINDS.contains(&0x3F) && !RESPONSE_KINDS.contains(&0x3F));
    frame[6] = 0x3F;
    let body_len = frame.len() - 8;
    let crc = uss_core::persist::crc64(&frame[..body_len]);
    frame[body_len..].copy_from_slice(&crc.to_le_bytes());
    let response = exchange(&frame);
    assert!(!response.is_empty(), "unknown kind deserves an answer");
    assert_error_or_silence(&response);
    assert_server_alive();
}

#[test]
fn first_undefined_kinds_are_rejected() {
    // The first byte past each defined kind range, with a *correct* checksum:
    // exactly the frame a version-skewed peer speaking "one more kind" would
    // send. The kind gate must bounce both before any payload handling.
    for kind in [FIRST_UNDEFINED_REQUEST_KIND, FIRST_UNDEFINED_RESPONSE_KIND] {
        let mut frame = Request::Ping.encode();
        frame[6] = kind;
        let body_len = frame.len() - 8;
        let crc = uss_core::persist::crc64(&frame[..body_len]);
        frame[body_len..].copy_from_slice(&crc.to_le_bytes());
        let response = exchange(&frame);
        assert!(!response.is_empty(), "undefined kind {kind:#04x} deserves an answer");
        assert_error_or_silence(&response);
        assert_server_alive();
    }
}

#[test]
fn response_kind_sent_as_request_is_rejected() {
    // A well-formed *response* frame aimed at the server: correct magic,
    // version and checksum, but a kind the request decoder must refuse.
    let frame = Response::Pong {
        protocol: uss_server::PROTOCOL_VERSION,
    }
    .encode();
    let response = exchange(&frame);
    assert!(!response.is_empty(), "response-kind frame deserves an answer");
    assert_error_or_silence(&response);
    assert_server_alive();
}
