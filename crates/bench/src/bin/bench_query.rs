//! Query-serving throughput benchmark with machine-readable output.
//!
//! Measures the read path added by `uss_core::query` — the epoch-versioned cached
//! snapshot serving — in four configurations:
//!
//! 1. `refresh` — full snapshot refreshes/s against a quiesced engine (the cost of
//!    draining the shard queues plus the unbiased PPS merge);
//! 2. `cached_subset_sum` — single-thread subset-sum queries/s (256-item subset,
//!    with variance + 95% CI) against the cached snapshot;
//! 3. `cached_top_k` — single-thread top-10 queries/s against the cached snapshot;
//! 4. `concurrent_mixed` — the serving scenario: 4 reader threads issuing a mix of
//!    subset-sum / proportion / top-k queries (auto-refresh every 50k rows) while 2
//!    producer threads ingest continuously; reports aggregate queries/s and how many
//!    epochs the cache advanced.
//!
//! Each config runs 5 times (3 with `--quick`). The best rep gives the headline
//! `per_sec`; `min_per_sec`/`max_per_sec` record the spread across reps, which
//! for `concurrent_mixed` on a host with fewer cores than threads is wide.
//!
//! Results go to `BENCH_query.json` (override with `--out`) and a human-readable
//! table to stdout. `--quick` shrinks the workload for CI smoke coverage.
//!
//! Usage: `bench_query [--quick] [--bins N] [--items N] [--shards N]
//! [--readers N] [--producers N] [--queries N] [--seed N] [--out PATH]`

use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use uss_bench::{best_of_reps, RepSpread};
use uss_core::engine::{EngineConfig, ShardedIngestEngine};
use uss_core::{Query, QueryAnswer, QueryServer, QueryServerConfig};
use uss_workloads::{shuffled_stream, FrequencyDistribution};

/// One config: `ops` operations per rep, timed best-of-reps, and the epochs
/// the cache advanced during the best rep.
struct Measurement {
    name: &'static str,
    description: String,
    ops: f64,
    spread: RepSpread,
    epochs: u64,
}

struct Options {
    quick: bool,
    bins: usize,
    items: usize,
    shards: usize,
    readers: usize,
    producers: usize,
    queries: usize,
    seed: u64,
    out: String,
}

impl Options {
    fn parse() -> Self {
        let mut opts = Self {
            quick: false,
            bins: 1_000,
            items: 20_000,
            shards: 2,
            readers: 4,
            producers: 2,
            queries: 20_000,
            seed: 11,
            out: "BENCH_query.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut num = |flag: &str| -> usize {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("{flag} requires a numeric argument");
                        std::process::exit(2);
                    })
            };
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--bins" => opts.bins = num("--bins"),
                "--items" => opts.items = num("--items"),
                "--shards" => opts.shards = num("--shards"),
                "--readers" => opts.readers = num("--readers"),
                "--producers" => opts.producers = num("--producers"),
                "--queries" => opts.queries = num("--queries"),
                "--seed" => opts.seed = num("--seed") as u64,
                "--out" => {
                    opts.out = args.next().unwrap_or_else(|| {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    });
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: bench_query [--quick] [--bins N] [--items N] [--shards N] \
                         [--readers N] [--producers N] [--queries N] [--seed N] \
                         [--out PATH]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unrecognised argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        if opts.quick {
            opts.queries = opts.queries.min(2_000);
        }
        opts
    }

    /// Reps per config.
    fn reps(&self) -> usize {
        if self.quick {
            3
        } else {
            5
        }
    }
}

fn build_stream(opts: &Options) -> Vec<u64> {
    let max_count = if opts.quick { 40_000 } else { 400_000 };
    let counts = FrequencyDistribution::Zipf {
        exponent: 1.1,
        max_count,
    }
    .grid_counts(opts.items);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    shuffled_stream(&counts, &mut rng)
}

/// The benchmark's standing query subset: 256 mid-tail items, sorted.
fn query_subset(items: usize) -> Vec<u64> {
    (0..items as u64).filter(|i| i % 8 == 3).take(256).collect()
}

fn main() {
    let opts = Options::parse();
    eprintln!("building stream ({} items)...", opts.items);
    let rows = build_stream(&opts);
    let subset = query_subset(opts.items);
    eprintln!(
        "{} rows; {} single-thread queries per config; concurrent: {} readers x {} queries, {} producers",
        rows.len(),
        opts.queries,
        opts.readers,
        opts.queries,
        opts.producers
    );
    let mut results: Vec<Measurement> = Vec::new();

    // Load the engine once; the cached-read configs serve from its merged snapshot.
    let engine = ShardedIngestEngine::new(EngineConfig::new(opts.shards, opts.bins, opts.seed));
    let mut handle = engine.handle();
    handle.offer_batch(&rows);
    handle.flush();
    drop(handle);

    // 1. Refresh cost (quiesced engine, so this is capture + merge, no queue wait).
    let server = QueryServer::new(&engine, QueryServerConfig::new());
    let refreshes = if opts.quick { 50 } else { 500 };
    let (spread, epochs) = best_of_reps(opts.reps(), || {
        for _ in 0..refreshes {
            let _ = server.refresh();
        }
        refreshes
    });
    results.push(Measurement {
        name: "refresh",
        description: format!(
            "full snapshot refreshes/s ({}-shard drain + unbiased merge, {} bins)",
            opts.shards, opts.bins
        ),
        ops: refreshes as f64,
        spread,
        epochs,
    });

    // 2. Cached subset-sum queries (with variance + CI) from one thread.
    let (spread, ()) = best_of_reps(opts.reps(), || {
        let mut checksum = 0.0f64;
        for _ in 0..opts.queries {
            let (estimate, ci) = server.subset_estimate(&subset);
            checksum += estimate.sum + ci.upper;
        }
        assert!(checksum.is_finite());
    });
    results.push(Measurement {
        name: "cached_subset_sum",
        description: "single-thread 256-item subset sums with 95% CI, cached snapshot".into(),
        ops: opts.queries as f64,
        spread,
        epochs: 0,
    });

    // 3. Cached top-k queries from one thread.
    let (spread, ()) = best_of_reps(opts.reps(), || {
        let mut total_len = 0usize;
        for _ in 0..opts.queries {
            total_len += server.top_k(10).len();
        }
        assert_eq!(total_len, opts.queries * 10);
    });
    results.push(Measurement {
        name: "cached_top_k",
        description: "single-thread top-10 queries, cached snapshot".into(),
        ops: opts.queries as f64,
        spread,
        epochs: 0,
    });
    drop(server);

    // 4. Concurrent serving: readers query while producers keep ingesting.
    let server = QueryServer::new(
        &engine,
        QueryServerConfig::new().refresh_every_rows(50_000),
    );
    let (spread, epochs) = best_of_reps(opts.reps(), || {
        let epoch_before = server.epoch();
        concurrent_mixed(&opts, &engine, &server, &rows, &subset);
        server.epoch() - epoch_before
    });
    results.push(Measurement {
        name: "concurrent_mixed",
        description: format!(
            "{} readers (subset-sum/proportion/top-k mix) while {} producers ingest; \
             auto-refresh every 50k rows",
            opts.readers, opts.producers
        ),
        ops: (opts.readers * opts.queries) as f64,
        spread,
        epochs,
    });
    drop(server);
    let merged = engine.finish();
    eprintln!("engine retired after {} rows", merged_rows(&merged));

    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>12} {:>8}",
        "config", "per_sec", "min_per_sec", "max_per_sec", "elapsed_s", "epochs"
    );
    for m in &results {
        let s = &m.spread;
        println!(
            "{:<20} {:>14.0} {:>14.0} {:>14.0} {:>12.4} {:>8}",
            m.name,
            s.max_per_sec(m.ops),
            s.min_per_sec(m.ops),
            s.max_per_sec(m.ops),
            s.best_sec,
            m.epochs
        );
    }

    let json = render_json(&opts, rows.len(), &results);
    std::fs::write(&opts.out, json).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("wrote {}", opts.out);
}

/// One rep of the serving scenario: `opts.readers` threads each issue
/// `opts.queries` mixed queries while `opts.producers` threads re-ingest the
/// stream until the readers finish.
fn concurrent_mixed(
    opts: &Options,
    engine: &ShardedIngestEngine,
    server: &QueryServer<&ShardedIngestEngine>,
    rows: &[u64],
    subset: &[u64],
) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..opts.producers {
            let mut handle = engine.handle();
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for chunk in rows.chunks(8_192) {
                        handle.offer_batch(chunk);
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                }
                handle.flush();
            });
        }
        let mut reader_handles = Vec::new();
        for reader in 0..opts.readers {
            reader_handles.push(scope.spawn(move || {
                let mut checksum = 0.0f64;
                for q in 0..opts.queries {
                    match (q + reader) % 3 {
                        0 => {
                            let (estimate, ci) = server.subset_estimate(subset);
                            checksum += estimate.sum + ci.lower;
                        }
                        1 => {
                            if let QueryAnswer::Estimate { estimate, .. } = server
                                .execute(&Query::Proportion {
                                    items: subset.to_vec(),
                                })
                                .answer
                            {
                                checksum += estimate.sum;
                            }
                        }
                        _ => {
                            checksum += server.top_k(10).first().map_or(0.0, |(_, c)| *c);
                        }
                    }
                }
                checksum
            }));
        }
        for h in reader_handles {
            assert!(h.join().expect("reader panicked").is_finite());
        }
        stop.store(true, Ordering::Relaxed);
    });
}

fn merged_rows(sketch: &uss_core::WeightedSpaceSaving) -> u64 {
    use uss_core::StreamSketch;
    sketch.rows_processed()
}

/// Hand-rolled JSON (the vendored serde is a marker-only stand-in).
fn render_json(opts: &Options, rows: usize, results: &[Measurement]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"query\",\n");
    out.push_str(&format!("  \"quick\": {},\n", opts.quick));
    out.push_str(&format!("  \"rows_per_stream_pass\": {rows},\n"));
    out.push_str(&format!("  \"distinct_items\": {},\n", opts.items));
    out.push_str(&format!("  \"bins\": {},\n", opts.bins));
    out.push_str(&format!("  \"shards\": {},\n", opts.shards));
    out.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    ));
    out.push_str(&format!("  \"readers\": {},\n", opts.readers));
    out.push_str(&format!("  \"producers\": {},\n", opts.producers));
    out.push_str(&format!("  \"queries_per_reader\": {},\n", opts.queries));
    out.push_str(&format!("  \"reps\": {},\n", opts.reps()));
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str("  \"configs\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", m.name));
        out.push_str(&format!("      \"description\": \"{}\",\n", m.description));
        let (max, min) = (m.spread.max_per_sec(m.ops), m.spread.min_per_sec(m.ops));
        let elapsed = m.spread.best_sec;
        out.push_str(&format!("      \"per_sec\": {max:.0},\n"));
        out.push_str(&format!("      \"min_per_sec\": {min:.0},\n"));
        out.push_str(&format!("      \"max_per_sec\": {max:.0},\n"));
        out.push_str(&format!("      \"elapsed_sec\": {elapsed:.6},\n"));
        out.push_str(&format!("      \"epochs_advanced\": {}\n", m.epochs));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
