//! Durable sketches: checkpoint a live engine, restart, resume, and serve cold.
//!
//! A production collector must survive restarts and deploys without losing its
//! summaries, and yesterday's shard files should still answer queries today. This
//! example walks the whole durability story: feed a [`ShardedIngestEngine`],
//! checkpoint it to disk mid-stream, "crash" the process, restore and finish the
//! stream, then answer typed queries on both the live result and a cold snapshot
//! file through the same `answer_query` — and finally fold per-node shard files with
//! `merge_files`, the multi-node shard-shipping path.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example checkpoint_restore
//! ```

use unbiased_space_saving::core::persist::{self, ColdSnapshot};
use unbiased_space_saving::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("uss-checkpoint-demo");
    std::fs::create_dir_all(&dir).unwrap();

    // 1. A live engine ingesting a skewed stream of 1M events.
    let config = EngineConfig::new(4, 2_000, 42);
    let engine = ShardedIngestEngine::new(config);
    let mut handle = engine.handle();
    for i in 0..1_000_000u64 {
        let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
        handle.offer(if x % 4 == 0 { x % 100 } else { 1_000 + x % 50_000 });
    }
    handle.flush();

    // 2. Checkpoint: each shard drains its queue, flushes its combiner and writes
    //    its full sketch state (entries + RNG + structure) to one file, plus a
    //    manifest. Ingest may continue right through the checkpoint.
    let ckpt = dir.join("engine");
    engine.checkpoint(&ckpt).unwrap();
    println!(
        "checkpointed {} shards to {}",
        engine.shards(),
        ckpt.display()
    );

    // 3. "Crash": throw the live engine away entirely.
    drop(handle);
    drop(engine.finish());

    // 4. Restore and keep ingesting: under the same seeds the restored engine is
    //    bit-compatible with one that never stopped.
    let engine = ShardedIngestEngine::restore(&ckpt, config).unwrap();
    println!("restored engine with {} rows already absorbed", engine.rows_enqueued());
    let mut handle = engine.handle();
    for i in 0..500_000u64 {
        let x = (i.wrapping_mul(0xD135_0965_5F3A_38D1)) >> 33;
        handle.offer(if x % 4 == 0 { x % 100 } else { 1_000 + x % 50_000 });
    }
    handle.flush();
    drop(handle);
    let merged = engine.finish();
    println!("final sketch covers {} rows", merged.rows_processed());

    // 5. Persist the merged result as a cold snapshot and serve it tomorrow: a
    //    ColdSnapshot holds the same SketchSnapshot a live capture does, so the
    //    typed-query API is unchanged — and its answers are bit-identical to the
    //    in-memory snapshot's.
    let live = merged.snapshot();
    let snap_path = dir.join("day-0.uss");
    persist::save_snapshot(&snap_path, &live).unwrap();
    let cold = ColdSnapshot::open(&snap_path).unwrap();
    let query = Query::SubsetSum { items: (0..100).collect() };
    let answer = answer_query(cold.snapshot(), &query, 0.95);
    assert_eq!(answer, answer_query(&live, &query, 0.95));
    if let QueryAnswer::Estimate { estimate, ci } = answer {
        println!(
            "cold-served heavy-head estimate: {:.0} (95% CI [{:.0}, {:.0}])",
            estimate.sum, ci.lower, ci.upper
        );
    }

    // 6. Shard shipping: fold the checkpoint's shard files into one sketch without
    //    any live engine — the unbiased PPS merge makes the folded file set
    //    statistically identical to a live merge.
    let shard_files: Vec<_> = (0..config.shards)
        .map(|i| ckpt.join(ShardedIngestEngine::shard_file_name(i)))
        .collect();
    let folded = DistributedSketcher::new(2_000, 42).merge_files(&shard_files).unwrap();
    println!(
        "folded {} shard files -> {} rows at the checkpoint boundary",
        shard_files.len(),
        folded.rows_processed()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
