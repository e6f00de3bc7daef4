//! Temporal-subsystem throughput benchmark with machine-readable output.
//!
//! Measures the `uss_core::temporal` layer so the cost of time-partitioning is
//! tracked from PR to PR:
//!
//! 1. `ingest_single_bucket` / `ingest_rotating` — engine rows/s with every row
//!    in one bucket vs. timestamps sweeping across many buckets (window
//!    rotation + tier compaction on the ingest path);
//! 2. `range_query_bN` — `range_snapshot` queries/s over one fixed range
//!    spanning 1, 4, 16 or 64 fine buckets at a fixed ingest watermark. The
//!    engine's range cache is bypassed, so every call is a full fold: for
//!    N > 1 each shard pre-merges its span's ladder nodes and boundary leaves
//!    into one report (the nodes themselves are built by the first call and
//!    reused), then the engine folds the shard reports. `b1` is a raw
//!    single-bucket fold;
//! 3. `range_query_b64_leaf` — the same 64-bucket range through the leaf-by-leaf
//!    reference fold (`range_snapshot_leaf`), the pre-ladder baseline: every
//!    call folds all 64 buckets per shard;
//! 4. `range_query_cached` — repeated captures of one range at a fixed ingest
//!    watermark (the merged-range cache hit path);
//! 5. `compaction` — `compact_fold`s/s over a `tier_factor`-bucket group, the
//!    unit of work the retention tiers perform as buckets age.
//!
//! Results go to `BENCH_window.json` (override with `--out`) and a
//! human-readable table to stdout. `--quick` shrinks the workload for CI smoke
//! coverage.
//!
//! Usage: `bench_window [--quick] [--bins N] [--rows N] [--shards N] [--reps N]
//! [--seed N] [--out PATH]`

use std::fmt::Write as _;

use uss_bench::{best_of_reps, RepSpread};
use uss_core::temporal::{
    compact_fold, BucketReport, TemporalConfig, TemporalIngestEngine, TimeRange, WindowConfig,
    WindowedSketchStore,
};
use uss_core::StreamSketch;

/// One operation: `ops` operations per rep, timed best-of-reps.
struct Measurement {
    name: String,
    description: String,
    ops: f64,
    spread: RepSpread,
}

struct Options {
    quick: bool,
    bins: usize,
    rows: u64,
    shards: usize,
    reps: usize,
    seed: u64,
    out: String,
}

impl Options {
    fn parse() -> Self {
        let mut opts = Self {
            quick: false,
            bins: 1_024,
            rows: 2_000_000,
            shards: 4,
            reps: 30,
            seed: 7,
            out: "BENCH_window.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut num = |flag: &str| -> usize {
                args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("{flag} requires a numeric argument");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--bins" => opts.bins = num("--bins"),
                "--rows" => opts.rows = num("--rows") as u64,
                "--shards" => opts.shards = num("--shards"),
                "--reps" => opts.reps = num("--reps"),
                "--seed" => opts.seed = num("--seed") as u64,
                "--out" => {
                    opts.out = args.next().unwrap_or_else(|| {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    });
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: bench_window [--quick] [--bins N] [--rows N] [--shards N] \
                         [--reps N] [--seed N] [--out PATH]"
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
            opts.rows = opts.rows.min(200_000);
            opts.reps = opts.reps.min(5);
        }
        opts
    }
}

fn skewed_item(i: u64) -> u64 {
    let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
    if x.is_multiple_of(4) {
        x % 64
    } else {
        1_000 + x % 50_000
    }
}

fn main() {
    let opts = Options::parse();
    let mut results: Vec<Measurement> = Vec::new();

    // --- ingest: single bucket (no rotation) vs rotating window ---
    for (name, buckets) in [("ingest_single_bucket", 1u64), ("ingest_rotating", 256u64)] {
        let rows_per_bucket = (opts.rows / buckets).max(1);
        let (spread, ()) = best_of_reps(opts.reps.clamp(1, 5), || {
            let engine = TemporalIngestEngine::new(
                TemporalConfig::new(opts.shards, opts.bins, opts.seed, 100, 8)
                    .with_retention(2, 4),
            );
            let mut handle = engine.handle();
            for i in 0..opts.rows {
                handle.offer_at(skewed_item(i), (i / rows_per_bucket) * 100);
            }
            handle.flush();
            let merged = engine.finish();
            assert_eq!(merged.rows_processed(), opts.rows);
        });
        results.push(Measurement {
            name: name.to_string(),
            description: format!(
                "{} rows over {buckets} bucket(s), {}-shard engine (rows/s)",
                opts.rows, opts.shards
            ),
            ops: opts.rows as f64,
            spread,
        });
    }

    // --- range queries vs range length ---
    let engine = TemporalIngestEngine::new(
        TemporalConfig::new(opts.shards, opts.bins, opts.seed, 100, 64).with_retention(2, 4),
    );
    {
        let mut handle = engine.handle();
        // Fill exactly 256 equally sized buckets, so the 1-bucket range below
        // measures a genuinely full bucket rather than a near-empty tail.
        let rows_per_bucket = (opts.rows / 256).max(1);
        for i in 0..rows_per_bucket * 256 {
            handle.offer_at(skewed_item(i), (i / rows_per_bucket) * 100);
        }
        handle.flush();
    }
    let cur = engine.current_bucket();
    let queries: u32 = if opts.quick { 20 } else { 200 };
    for span in [1u64, 4, 16, 64] {
        let range = TimeRange::Between {
            start: cur.saturating_sub(span - 1) * 100,
            end: (cur + 1) * 100,
        };
        let (spread, ()) = best_of_reps(opts.reps, || {
            for _ in 0..queries {
                std::hint::black_box(engine.range_snapshot(std::hint::black_box(&range)));
            }
        });
        results.push(Measurement {
            name: format!("range_query_b{span}"),
            description: if span == 1 {
                "raw 1-bucket range folds, range cache bypassed (queries/s)".to_string()
            } else {
                format!("{span}-bucket range folds over built ladder nodes, range cache bypassed (queries/s)")
            },
            ops: f64::from(queries),
            spread,
        });
    }
    // The pre-ladder baseline: the same widest range folded leaf by leaf.
    // Far slower by design, so it runs fewer queries and reps.
    let leaf_range = TimeRange::Between {
        start: cur.saturating_sub(63) * 100,
        end: (cur + 1) * 100,
    };
    let leaf_queries = (queries / 10).max(2);
    let (spread, ()) = best_of_reps(opts.reps.clamp(1, 5), || {
        for _ in 0..leaf_queries {
            std::hint::black_box(engine.range_snapshot_leaf(std::hint::black_box(&leaf_range)));
        }
    });
    results.push(Measurement {
        name: "range_query_b64_leaf".to_string(),
        description: "uncached 64-bucket leaf-by-leaf reference folds (queries/s)".to_string(),
        ops: f64::from(leaf_queries),
        spread,
    });
    let (spread, ()) = best_of_reps(opts.reps, || {
        for _ in 0..queries {
            std::hint::black_box(engine.range_capture(std::hint::black_box(
                &TimeRange::LastBuckets(16),
            )));
        }
    });
    results.push(Measurement {
        name: "range_query_cached".to_string(),
        description: "repeated 16-bucket captures at a fixed watermark (hits/s)".to_string(),
        ops: f64::from(queries),
        spread,
    });
    drop(engine.finish());

    // --- compaction throughput ---
    let factor = 4usize;
    let group: Vec<BucketReport> = (0..factor as u64)
        .map(|b| {
            let mut store = WindowedSketchStore::new(WindowConfig::new(
                opts.bins,
                opts.seed + b,
                u64::MAX,
                1,
            ));
            for i in 0..(opts.rows / factor as u64).max(1) {
                store.offer_at(skewed_item(i.wrapping_mul(b + 1)), 0);
            }
            let (_, sketch) = store.fine_sketches().next().expect("one bucket");
            BucketReport {
                entries: sketch.entries(),
                rows: sketch.rows_processed(),
            }
        })
        .collect();
    let compactions: u32 = if opts.quick { 20 } else { 200 };
    let (spread, ()) = best_of_reps(opts.reps, || {
        for i in 0..u64::from(compactions) {
            std::hint::black_box(compact_fold(
                opts.bins,
                opts.seed,
                i * factor as u64,
                (i + 1) * factor as u64,
                std::hint::black_box(group.clone()),
            ));
        }
    });
    results.push(Measurement {
        name: "compaction".to_string(),
        description: format!(
            "{factor}-bucket ({}-bin) unbiased compactions (folds/s)",
            opts.bins
        ),
        ops: f64::from(compactions),
        spread,
    });

    println!("{:<22} {:>14} {:>12}", "operation", "ops/s", "elapsed_s");
    for m in &results {
        println!(
            "{:<22} {:>14.0} {:>12.6}",
            m.name,
            m.spread.max_per_sec(m.ops),
            m.spread.best_sec
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"window\",");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"rows\": {},", opts.rows);
    let _ = writeln!(json, "  \"bins\": {},", opts.bins);
    let _ = writeln!(json, "  \"shards\": {},", opts.shards);
    let _ = writeln!(
        json,
        "  \"cores\": {},",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(json, "  \"reps\": {},", opts.reps);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"operations\": [");
    for (i, m) in results.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(json, "      \"description\": \"{}\",", m.description);
        let (max, min) = (m.spread.max_per_sec(m.ops), m.spread.min_per_sec(m.ops));
        let elapsed = m.spread.best_sec;
        let _ = writeln!(json, "      \"ops_per_sec\": {max:.0},");
        let _ = writeln!(json, "      \"min_ops_per_sec\": {min:.0},");
        let _ = writeln!(json, "      \"max_ops_per_sec\": {max:.0},");
        let _ = writeln!(json, "      \"elapsed_sec\": {elapsed:.6}");
        let _ = writeln!(json, "    }}{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("wrote {}", opts.out);
}
