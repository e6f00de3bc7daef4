//! Serving sketches over the network: daemon, wire protocol, typed client.
//!
//! Everything earlier examples do in-process — ingest, time-range queries,
//! keyed marginals, checkpoint/restore — is also available over TCP through
//! the [`SketchServer`] daemon and [`SketchClient`]. This example boots a
//! daemon on an ephemeral loopback port, feeds two named streams from
//! separate connections, runs the full query surface over the wire, then
//! shuts the daemon down (checkpointing every stream) and boots a second
//! daemon from the same data dir to show the streams survive a restart.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example server_demo
//! ```

use unbiased_space_saving::core::persist::TemporalMeta;
use unbiased_space_saving::core::{Query, QueryAnswer, TimeRange};
use unbiased_space_saving::server::{ServerConfig, SketchClient, SketchServer};

fn main() {
    let dir = std::env::temp_dir().join(format!("uss-server-demo-{}", std::process::id()));

    // 1. Boot a daemon with a data dir, so shutdown checkpoints every stream.
    let server = SketchServer::start(
        "127.0.0.1:0",
        ServerConfig {
            data_dir: Some(dir.clone()),
            metrics_addr: None,
        },
    )
    .unwrap();
    let addr = server.addr();
    println!("daemon listening on {addr}");

    // 2. Two tenants, two streams, two connections. Stream configs travel over
    //    the wire as the same TemporalMeta the checkpoint manifest uses.
    let spec = TemporalMeta {
        shards: 2,
        capacity: 512,
        seed: 42,
        bucket_width: 60,
        fine_buckets: 32,
        tier_factor: 4,
        tiers: 2,
    };
    let mut clicks = SketchClient::connect(addr).unwrap();
    clicks.create_stream("clicks", spec).unwrap();
    let mut flows = SketchClient::connect(addr).unwrap();
    flows.create_stream("flows", TemporalMeta { seed: 7, ..spec }).unwrap();

    // 3. Concurrent ingest: timestamped (item, second) rows; the client chunks
    //    big batches under the protocol's frame-size ceiling automatically.
    let click_rows: Vec<(u64, u64)> = (0..200_000u64)
        .map(|i| {
            let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
            (if x % 4 == 0 { x % 64 } else { 1_000 + x % 50_000 }, i / 100)
        })
        .collect();
    let flow_rows: Vec<(u64, u64)> = (0..100_000u64).map(|i| (i % 977, i / 50)).collect();
    let t = std::thread::spawn(move || flows.ingest("flows", &flow_rows).unwrap());
    clicks.ingest("clicks", &click_rows).unwrap();
    t.join().unwrap();

    // 4. The full query surface over the wire: every answer is bit-identical
    //    to what in-process `answer_query` produces on the same snapshot.
    let (rows, answer) = clicks
        .query("clicks", &TimeRange::All, &Query::TopK { k: 5 })
        .unwrap();
    println!("clicks: {rows} rows, top-5 over all history:");
    if let QueryAnswer::Items(items) = &answer {
        for (item, count) in items {
            println!("  item {item:>6} ~{count:.0}");
        }
    }
    let recent = TimeRange::LastBuckets(8);
    let (_, answer) = clicks
        .query("clicks", &recent, &Query::SubsetSum { items: (0..64).collect() })
        .unwrap();
    if let QueryAnswer::Estimate { estimate, ci } = answer {
        println!(
            "clicks: heavy head over the last 8 minutes ~{:.0} (95% CI [{:.0}, {:.0}])",
            estimate.sum, ci.lower, ci.upper
        );
    }

    // 5. Keyed marginals: server-side roll-up by (item >> 4) & 0x3, the wire
    //    twin of the Figure-6 marginal experiment.
    let (_, marginals) = clicks.marginals("clicks", &recent, 4, 0x3, 0.95).unwrap();
    for entry in &marginals {
        println!(
            "clicks: key {} ~{:.0} rows (95% CI [{:.0}, {:.0}])",
            entry.key, entry.estimate.sum, entry.ci.lower, entry.ci.upper
        );
    }

    // 6. Restart: shutdown checkpoints both streams into the data dir; a fresh
    //    daemon restores them from the manifests alone and keeps serving.
    let mut admin = SketchClient::connect(addr).unwrap();
    admin.shutdown_server().unwrap();
    server.join();

    let server = SketchServer::start("127.0.0.1:0", ServerConfig { data_dir: Some(dir.clone()), metrics_addr: None })
        .unwrap();
    let mut client = SketchClient::connect(server.addr()).unwrap();
    println!("after restart:");
    for info in client.list_streams().unwrap() {
        println!("  stream {:?} restored with {} rows", info.name, info.rows);
    }
    let (rows, _) = client
        .query("clicks", &TimeRange::All, &Query::TopK { k: 5 })
        .unwrap();
    assert_eq!(rows, 200_000);
    server.shutdown();

    std::fs::remove_dir_all(&dir).unwrap();
}
