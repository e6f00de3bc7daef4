//! Persistence-path throughput benchmark with machine-readable output.
//!
//! Measures the `uss_core::persist` codec and the engine checkpoint/restore path,
//! so the durability overhead is tracked from PR to PR:
//!
//! 1. `encode_snapshot` / `decode_snapshot` — the cold serving format;
//! 2. `encode_unbiased` / `decode_unbiased` — the full resumable sketch frames
//!    (structure + RNG state);
//! 3. `engine_checkpoint` / `engine_restore` — quiesce N live shards, write one
//!    file per shard plus the manifest, and bring the engine back up.
//!
//! Codec figures are reported in sketch-frames/s and MB/s; checkpoint figures in
//! checkpoints/s (and restores/s). Results go to `BENCH_persist.json` (override
//! with `--out`) and a human-readable table to stdout. `--quick` shrinks the
//! workload for CI smoke coverage.
//!
//! Usage: `bench_persist [--quick] [--bins N] [--rows N] [--shards N] [--reps N]
//! [--seed N] [--out PATH]`

use std::fmt::Write as _;

use uss_bench::{best_of_reps, RepSpread};
use uss_core::engine::{EngineConfig, ShardedIngestEngine};
use uss_core::persist;
use uss_core::{StreamSketch, UnbiasedSpaceSaving};

/// One operation, timed best-of-reps; `frame_bytes` gives codec rows a MB/s.
struct Measurement {
    name: &'static str,
    description: String,
    spread: RepSpread,
    frame_bytes: Option<usize>,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        self.spread.max_per_sec(1.0)
    }

    fn mb_per_sec(&self) -> Option<f64> {
        self.frame_bytes
            .map(|b| b as f64 * self.ops_per_sec() / 1e6)
    }
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
            bins: 4_096,
            rows: 2_000_000,
            shards: 4,
            reps: 200,
            seed: 7,
            out: "BENCH_persist.json".to_string(),
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
                        "usage: bench_persist [--quick] [--bins N] [--rows N] [--shards N] \
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
            opts.reps = opts.reps.min(20);
        }
        opts
    }
}

fn build_sketch(opts: &Options) -> UnbiasedSpaceSaving {
    let mut sketch = UnbiasedSpaceSaving::with_seed(opts.bins, opts.seed);
    for i in 0..opts.rows {
        let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
        sketch.offer(if x % 4 == 0 { x % 64 } else { 1_000 + x % 100_000 });
    }
    sketch
}

fn main() {
    let opts = Options::parse();
    eprintln!("building a {}-bin sketch over {} rows...", opts.bins, opts.rows);
    let sketch = build_sketch(&opts);
    let snapshot = sketch.snapshot();
    let mut results: Vec<Measurement> = Vec::new();

    let snap_bytes = persist::encode_snapshot(&snapshot);
    let (spread, ()) = best_of_reps(opts.reps, || {
        std::hint::black_box(persist::encode_snapshot(std::hint::black_box(&snapshot)));
    });
    results.push(Measurement {
        name: "encode_snapshot",
        description: format!("{}-entry cold snapshot -> {} bytes", snapshot.len(), snap_bytes.len()),
        spread,
        frame_bytes: Some(snap_bytes.len()),
    });

    let (spread, ()) = best_of_reps(opts.reps, || {
        std::hint::black_box(persist::decode_snapshot(std::hint::black_box(&snap_bytes)).unwrap());
    });
    results.push(Measurement {
        name: "decode_snapshot",
        description: "validate checksum + rebuild the snapshot".into(),
        spread,
        frame_bytes: Some(snap_bytes.len()),
    });

    let full_bytes = persist::encode_unbiased(&sketch);
    let (spread, ()) = best_of_reps(opts.reps, || {
        std::hint::black_box(persist::encode_unbiased(std::hint::black_box(&sketch)));
    });
    results.push(Measurement {
        name: "encode_unbiased",
        description: format!(
            "full resumable sketch (structure + RNG) -> {} bytes",
            full_bytes.len()
        ),
        spread,
        frame_bytes: Some(full_bytes.len()),
    });

    let (spread, ()) = best_of_reps(opts.reps, || {
        std::hint::black_box(persist::decode_unbiased(std::hint::black_box(&full_bytes)).unwrap());
    });
    results.push(Measurement {
        name: "decode_unbiased",
        description: "validate + rebuild a bit-compatible resumable sketch".into(),
        spread,
        frame_bytes: Some(full_bytes.len()),
    });

    // Engine checkpoint/restore: a live engine fed once, checkpointed repeatedly.
    let ckpt_dir = std::env::temp_dir().join(format!("uss-bench-persist-{}", std::process::id()));
    let config = EngineConfig::new(opts.shards, opts.bins, opts.seed);
    let engine = ShardedIngestEngine::new(config);
    {
        let mut handle = engine.handle();
        for i in 0..opts.rows {
            let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
            handle.offer(if x % 4 == 0 { x % 64 } else { 1_000 + x % 100_000 });
        }
        handle.flush();
    }
    let ckpt_reps = opts.reps.clamp(3, 50);
    let (spread, ()) = best_of_reps(ckpt_reps, || {
        engine.checkpoint(&ckpt_dir).unwrap();
    });
    results.push(Measurement {
        name: "engine_checkpoint",
        description: format!(
            "quiesce {} shards, write {} shard files + manifest",
            opts.shards, opts.shards
        ),
        spread,
        frame_bytes: None,
    });
    drop(engine.finish());

    let (spread, ()) = best_of_reps(ckpt_reps, || {
        let restored = ShardedIngestEngine::restore(&ckpt_dir, config).unwrap();
        std::hint::black_box(restored.rows_enqueued());
        drop(restored.finish());
    });
    results.push(Measurement {
        name: "engine_restore",
        description: "read + validate all shard files, respawn the workers".into(),
        spread,
        frame_bytes: None,
    });
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    println!(
        "{:<20} {:>12} {:>10} {:>12}",
        "operation", "ops/s", "MB/s", "elapsed_s"
    );
    for m in &results {
        println!(
            "{:<20} {:>12.0} {:>10} {:>12.6}",
            m.name,
            m.ops_per_sec(),
            m.mb_per_sec()
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
            m.spread.best_sec
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"persist\",");
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
    let _ = writeln!(json, "  \"snapshot_frame_bytes\": {},", snap_bytes.len());
    let _ = writeln!(json, "  \"unbiased_frame_bytes\": {},", full_bytes.len());
    let _ = writeln!(json, "  \"operations\": [");
    for (i, m) in results.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(json, "      \"description\": \"{}\",", m.description);
        let _ = writeln!(json, "      \"ops_per_sec\": {:.0},", m.ops_per_sec());
        if let Some(mb) = m.mb_per_sec() {
            let _ = writeln!(json, "      \"mb_per_sec\": {mb:.1},");
        }
        let _ = writeln!(json, "      \"elapsed_sec\": {:.6}", m.spread.best_sec);
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
