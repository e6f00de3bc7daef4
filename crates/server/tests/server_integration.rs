//! Integration tests for the sketch daemon: wire answers must be bit-identical
//! to in-process `answer_query` answers, concurrent clients must conserve mass,
//! a deliberately-killed worker must degrade to a typed error frame instead of
//! killing the daemon, and checkpoint-on-shutdown / restore-on-boot must
//! round-trip the registry.

use std::time::Duration;

use uss_core::persist::TemporalMeta;
use uss_core::{answer_query, Query, QueryAnswer, TemporalIngestEngine, TimeRange};
use uss_server::{ClientError, ErrorCode, ServerConfig, SketchClient, SketchServer};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn spec(shards: u64, seed: u64) -> TemporalMeta {
    TemporalMeta {
        shards,
        capacity: 128,
        seed,
        bucket_width: 50,
        fine_buckets: 16,
        tier_factor: 4,
        tiers: 2,
    }
}

fn start_server() -> SketchServer {
    SketchServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port")
}

fn connect(server: &SketchServer) -> SketchClient {
    let mut client = SketchClient::connect(server.addr()).expect("connect");
    client.set_timeout(Some(CLIENT_TIMEOUT)).expect("timeout");
    client
}

/// The rows every bit-identity test ingests: a skewed, multi-bucket stream.
fn rows(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| ((i * i + 7) % 97, i / 10)).collect()
}

#[test]
fn wire_answers_are_bit_identical_to_in_process_query_server() {
    let seed = 42;
    let server = start_server();
    let mut client = connect(&server);
    assert!(client.create_stream("clicks", spec(2, seed)).unwrap());
    // Re-creating with the same spec is idempotent; a different spec is typed.
    assert!(!client.create_stream("clicks", spec(2, seed)).unwrap());
    match client.create_stream("clicks", spec(4, seed)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::StreamExists),
        other => panic!("expected StreamExists, got {other:?}"),
    }

    let stream_rows = rows(20_000);
    assert_eq!(client.ingest("clicks", &stream_rows).unwrap(), 20_000);

    // The reference: an in-process engine with the identical config and seed,
    // fed the identical rows, answered in process over the identical time
    // range.
    let config = spec(2, seed).to_config().unwrap();
    let local = TemporalIngestEngine::try_new(config).unwrap();
    let mut handle = local.handle();
    handle.offer_batch_at(&stream_rows);
    handle.flush();

    let queries = [
        Query::SubsetSum {
            items: (0..50).collect(),
        },
        Query::Proportion {
            items: (50..97).collect(),
        },
        Query::TopK { k: 10 },
        Query::FrequentItems { phi: 0.02 },
        Query::RankQuantile { q: 0.5 },
    ];
    for query in &queries {
        let (wire_rows, wire_answer) = client.query("clicks", &TimeRange::All, query).unwrap();
        let local_all = local.range_capture(&TimeRange::All);
        assert_eq!(wire_rows, local_all.rows_processed(), "rows for {query:?}");
        assert_eq!(wire_answer, answer_query(&local_all, query, 0.95), "answer for {query:?}");
    }

    // Sub-range queries answer bit-identically too (both sides fold the same
    // bucket reports under the same salted merge-seed sequence).
    let range = TimeRange::Between { start: 200, end: 1_500 };
    let wire = client
        .query("clicks", &range, &Query::TopK { k: 8 })
        .unwrap();
    let snap = local.range_capture(&range);
    assert_eq!(wire.0, snap.rows_processed());
    assert_eq!(wire.1, answer_query(&snap, &Query::TopK { k: 8 }, 0.95));

    // Keyed marginals: same roll-up, same estimates, same intervals.
    let (marg_rows, entries) = client
        .marginals("clicks", &TimeRange::All, 3, 0xF, 0.95)
        .unwrap();
    let local_snap = local.range_capture(&TimeRange::All);
    assert_eq!(marg_rows, local_snap.rows_processed());
    let local_marginals = local_snap.marginals(|item| Some((item >> 3) & 0xF));
    assert_eq!(entries.len(), local_marginals.len());
    for (wire_entry, (key, estimate)) in entries.iter().zip(&local_marginals) {
        assert_eq!(wire_entry.key, *key);
        assert_eq!(wire_entry.estimate, *estimate);
        assert_eq!(wire_entry.ci, estimate.confidence_interval(0.95));
    }

    server.shutdown();
}

#[test]
fn concurrent_clients_conserve_mass() {
    let server = start_server();
    let mut admin = connect(&server);
    admin.create_stream("mixed", spec(3, 7)).unwrap();

    const WRITERS: u64 = 3;
    const READERS: usize = 2;
    const ROWS_PER_WRITER: u64 = 8_000;

    let addr = server.addr();
    let mut threads = Vec::new();
    for writer in 0..WRITERS {
        threads.push(std::thread::spawn(move || {
            let mut client = SketchClient::connect(addr).expect("writer connect");
            client.set_timeout(Some(CLIENT_TIMEOUT)).unwrap();
            // Each writer owns a congruence class of items so the final
            // marginal structure is predictable; timestamps interleave.
            let rows: Vec<(u64, u64)> = (0..ROWS_PER_WRITER)
                .map(|i| ((i % 30) * WRITERS + writer, i / 20))
                .collect();
            // Split into several requests so ingest interleaves with queries.
            for chunk in rows.chunks(1_000) {
                assert_eq!(client.ingest("mixed", chunk).unwrap(), chunk.len() as u64);
            }
        }));
    }
    for _ in 0..READERS {
        threads.push(std::thread::spawn(move || {
            let mut client = SketchClient::connect(addr).expect("reader connect");
            client.set_timeout(Some(CLIENT_TIMEOUT)).unwrap();
            for _ in 0..20 {
                // Mid-ingest queries must answer (any prefix of the stream).
                let (rows, answer) = client
                    .query("mixed", &TimeRange::All, &Query::TopK { k: 5 })
                    .unwrap();
                if let QueryAnswer::Items(items) = answer {
                    assert!(items.len() <= 5);
                    assert!(items.iter().all(|&(_, count)| count >= 0.0));
                } else {
                    panic!("TopK answered a non-item payload");
                }
                assert!(rows <= WRITERS * ROWS_PER_WRITER);
            }
        }));
    }
    for thread in threads {
        thread.join().expect("client thread");
    }

    // All rows are in: the full-universe subset sum must conserve mass exactly
    // (Unbiased Space Saving never loses total count), and the keyed marginals
    // must partition that mass.
    let total = (WRITERS * ROWS_PER_WRITER) as f64;
    let universe: Vec<u64> = (0..30 * WRITERS).collect();
    let (rows_seen, answer) = admin
        .query("mixed", &TimeRange::All, &Query::SubsetSum { items: universe })
        .unwrap();
    assert_eq!(rows_seen, WRITERS * ROWS_PER_WRITER);
    let QueryAnswer::Estimate { estimate, ci } = answer else {
        panic!("SubsetSum answered a non-estimate payload");
    };
    assert!(
        (estimate.sum - total).abs() < 1e-6,
        "mass not conserved: {} vs {total}",
        estimate.sum
    );
    assert!(ci.lower <= estimate.sum && estimate.sum <= ci.upper);

    let (_, marginals) = admin
        .marginals("mixed", &TimeRange::All, 0, u64::MAX, 0.95)
        .unwrap();
    let marginal_mass: f64 = marginals.iter().map(|entry| entry.estimate.sum).sum();
    assert!(
        (marginal_mass - total).abs() < 1e-6,
        "marginals lost mass: {marginal_mass} vs {total}"
    );

    server.shutdown();
}

#[test]
fn killed_worker_degrades_to_typed_errors_and_daemon_survives() {
    let server = start_server();
    let mut client = connect(&server);
    client.create_stream("fragile", spec(2, 11)).unwrap();
    client.create_stream("healthy", spec(2, 12)).unwrap();
    client.ingest("fragile", &rows(2_000)).unwrap();
    client.ingest("healthy", &rows(2_000)).unwrap();

    assert!(server.debug_kill_shard("fragile", 1));

    // Queries against the damaged stream answer with a typed ShardDown error
    // frame — the request degrades, the daemon does not die.
    match client.query("fragile", &TimeRange::All, &Query::TopK { k: 3 }) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::ShardDown, "{message}");
        }
        other => panic!("expected ShardDown, got {other:?}"),
    }
    // Ingest into the damaged stream degrades the same way.
    match client.ingest("fragile", &rows(500)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShardDown),
        other => panic!("expected ShardDown, got {other:?}"),
    }

    // The same connection keeps serving: ping, the healthy stream, and the
    // registry all still answer.
    assert_eq!(client.ping().unwrap(), uss_server::PROTOCOL_VERSION);
    let (rows_seen, _) = client
        .query("healthy", &TimeRange::All, &Query::TopK { k: 3 })
        .unwrap();
    assert_eq!(rows_seen, 2_000);
    assert_eq!(client.list_streams().unwrap().len(), 2);

    // A fresh connection is not poisoned by the damaged stream either.
    let mut second = connect(&server);
    assert_eq!(second.ping().unwrap(), uss_server::PROTOCOL_VERSION);

    server.shutdown();
}

#[test]
fn checkpoint_on_shutdown_restores_on_boot() {
    let dir = std::env::temp_dir().join(format!(
        "uss-server-ckpt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let total_rows = 12_000;
    let first_boot = SketchServer::start(
        "127.0.0.1:0",
        ServerConfig {
            data_dir: Some(dir.clone()),
            metrics_addr: None,
        },
    )
    .unwrap();
    let mut client = connect(&first_boot);
    client.create_stream("durable", spec(2, 21)).unwrap();
    client.ingest("durable", &rows(total_rows)).unwrap();
    // The wire shutdown request checkpoints every stream and stops the daemon.
    client.shutdown_server().unwrap();
    first_boot.join();

    // Boot a second daemon over the same data dir: the stream must come back
    // with its full history, reconstructed from the manifest alone.
    let second_boot = SketchServer::start(
        "127.0.0.1:0",
        ServerConfig {
            data_dir: Some(dir.clone()),
            metrics_addr: None,
        },
    )
    .unwrap();
    let mut client = connect(&second_boot);
    let streams = client.list_streams().unwrap();
    assert_eq!(streams.len(), 1);
    assert_eq!(streams[0].name, "durable");
    assert_eq!(streams[0].spec, spec(2, 21));
    assert_eq!(streams[0].rows, total_rows);

    // Mass survives the round trip exactly.
    let universe: Vec<u64> = (0..97).collect();
    let (rows_seen, answer) = client
        .query("durable", &TimeRange::All, &Query::SubsetSum { items: universe })
        .unwrap();
    assert_eq!(rows_seen, total_rows);
    let QueryAnswer::Estimate { estimate, .. } = answer else {
        panic!("SubsetSum answered a non-estimate payload");
    };
    assert!((estimate.sum - total_rows as f64).abs() < 1e-6);

    // The restored stream accepts new rows and window queries keep working.
    client.ingest("durable", &rows(1_000)).unwrap();
    let (rows_seen, _) = client
        .query("durable", &TimeRange::LastBuckets(4), &Query::TopK { k: 3 })
        .unwrap();
    assert!(rows_seen <= total_rows + 1_000);

    second_boot.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_configs_and_unknown_streams_answer_typed_errors() {
    let server = start_server();
    let mut client = connect(&server);

    // Zero shards fails engine validation, not the daemon.
    let mut bad = spec(2, 1);
    bad.shards = 0;
    match client.create_stream("bad", bad) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidConfig),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // Tier factor below 2 is a typed window-config error.
    let mut bad = spec(2, 1);
    bad.tier_factor = 1;
    match client.create_stream("bad", bad) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidConfig),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    match client.query("ghost", &TimeRange::All, &Query::TopK { k: 1 }) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownStream),
        other => panic!("expected UnknownStream, got {other:?}"),
    }
    match client.ingest("ghost", &[(1, 1)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownStream),
        other => panic!("expected UnknownStream, got {other:?}"),
    }

    // The connection survived every rejection.
    assert_eq!(client.ping().unwrap(), uss_server::PROTOCOL_VERSION);
    server.shutdown();
}
