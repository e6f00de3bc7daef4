//! End-to-end durability guarantees for `uss_core::persist`:
//!
//! * serving a snapshot from a cold file is **bit-identical** to serving the
//!   in-memory snapshot, for every typed query;
//! * checkpoint → restore → continue matches an uninterrupted engine run's final
//!   entries **exactly** under fixed seeds (combiner disabled, same batch
//!   boundaries);
//! * shard files checkpointed on "different nodes" fold into the same result as a
//!   live reduce of the same sketches;
//! * corrupted files come back as errors, never panics.

use std::path::PathBuf;

use uss_core::persist::{self, ColdSnapshot};
use uss_core::prelude::*;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uss-roundtrip-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn skewed_rows(n: u64, salt: u64) -> Vec<u64> {
    // A deterministic skewed stream: a few heavy items over a long tail.
    (0..n)
        .map(|i| {
            let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt) >> 33;
            if x.is_multiple_of(4) {
                x % 8
            } else {
                100 + x % 5_000
            }
        })
        .collect()
}

#[test]
fn cold_file_serving_is_bit_identical_to_in_memory_serving() {
    let dir = scratch_dir("cold");
    let mut sketch = UnbiasedSpaceSaving::with_seed(128, 21);
    sketch.offer_batch(&skewed_rows(50_000, 1));
    let live = sketch.snapshot();

    let path = dir.join("day-0.uss");
    persist::save_snapshot(&path, &live).unwrap();
    let cold = ColdSnapshot::open(&path).unwrap();

    assert_eq!(live.rows_processed(), cold.snapshot().rows_processed());

    let items: Vec<u64> = (0..8).chain(100..200).collect();
    let queries = [
        Query::SubsetSum { items: items.clone() },
        Query::Proportion { items },
        Query::TopK { k: 20 },
        Query::FrequentItems { phi: 0.01 },
        Query::RankQuantile { q: 0.25 },
    ];
    for query in &queries {
        // Bit-identical answers: the codec writes exact f64 bits and preserves
        // entry order, so every estimate, variance and CI endpoint matches.
        assert_eq!(
            answer_query(&live, query, 0.95),
            answer_query(cold.snapshot(), query, 0.95),
            "{query:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_restore_continue_matches_uninterrupted_run_exactly() {
    let dir = scratch_dir("resume");
    // Combiner disabled: worker ingestion is then row-for-row deterministic per
    // shard, which is the regime where resume promises bit-compatibility.
    let config = EngineConfig::new(4, 64, 77)
        .with_combiner_items(0)
        .with_batch_rows(256);
    let first_half = skewed_rows(40_000, 3);
    let second_half = skewed_rows(40_000, 4);

    // Uninterrupted reference run.
    let reference = {
        let engine = ShardedIngestEngine::new(config);
        let mut handle = engine.handle();
        handle.offer_batch(&first_half);
        // The flush empties the handle's buffers, so the second half hits the same
        // batch boundaries here as it does through the fresh post-restore handle.
        handle.flush();
        handle.offer_batch(&second_half);
        handle.flush();
        engine.finish()
    };

    // Interrupted run: ingest half, checkpoint, tear down, restore, ingest rest.
    let resumed = {
        let engine = ShardedIngestEngine::new(config);
        let mut handle = engine.handle();
        handle.offer_batch(&first_half);
        handle.flush();
        engine.checkpoint(&dir).unwrap();
        drop(handle);
        drop(engine.finish()); // tear the first process down

        let engine = ShardedIngestEngine::restore(&dir, config).unwrap();
        let mut handle = engine.handle();
        handle.offer_batch(&second_half);
        handle.flush();
        engine.finish()
    };

    // Exact equality of the final merged sketch: entries, order, and counts.
    assert_eq!(resumed.entries(), reference.entries());
    assert_eq!(resumed.rows_processed(), reference.rows_processed());
    assert_eq!(resumed.min_count(), reference.min_count());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restored_engine_serves_queries_and_keeps_ingesting() {
    let dir = scratch_dir("serve");
    let config = EngineConfig::new(2, 48, 5).with_batch_rows(128);
    let engine = ShardedIngestEngine::new(config);
    let mut handle = engine.handle();
    handle.offer_batch(&skewed_rows(10_000, 9));
    handle.flush();
    engine.checkpoint(&dir).unwrap();
    drop(handle);
    drop(engine.finish());

    let engine = ShardedIngestEngine::restore(&dir, config).unwrap();
    assert_eq!(engine.snapshot().rows_processed(), 10_000);

    let mut handle = engine.handle();
    handle.offer_batch(&skewed_rows(5_000, 10));
    handle.flush();
    let snap = engine.snapshot().snapshot();
    assert_eq!(snap.rows_processed(), 15_000);
    let mass: f64 = snap.entries().iter().map(|(_, c)| c).sum();
    assert!((mass - 15_000.0).abs() < 1e-6, "mass conservation: {mass}");
    let QueryAnswer::Items(top) = answer_query(&snap, &Query::TopK { k: 3 }, 0.95) else {
        panic!("top-k must answer with items")
    };
    assert_eq!(top.len(), 3);

    drop(engine.finish());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_shipping_merge_files_equals_live_reduce() {
    let dir = scratch_dir("ship");
    // Three "nodes" sketch disjoint partitions and persist their sketches.
    let partitions: Vec<Vec<u64>> = (0..3u64).map(|p| skewed_rows(20_000, 50 + p)).collect();
    let sketches: Vec<UnbiasedSpaceSaving> = partitions
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let mut s = UnbiasedSpaceSaving::with_seed(96, 500 + i as u64);
            s.offer_batch(part);
            s
        })
        .collect();
    let paths: Vec<PathBuf> = sketches
        .iter()
        .enumerate()
        .map(|(i, sketch)| {
            let path = dir.join(format!("node-{i}.uss"));
            persist::save_unbiased(&path, sketch).unwrap();
            path
        })
        .collect();

    let sketcher = DistributedSketcher::new(96, 123);
    let live = sketcher.reduce(sketches);
    let folded = sketcher.merge_files(&paths).unwrap();
    assert_eq!(folded.entries(), live.entries());
    assert_eq!(folded.rows_processed(), 3 * 20_000);

    // The folded file-set answers through the standard estimators.
    let (est, ci) = folded.snapshot().subset_confidence_interval(|i| i < 8, 0.95);
    assert!(est.sum > 0.0);
    assert!(ci.contains(est.sum));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_checkpoint_files_error_cleanly() {
    let dir = scratch_dir("corrupt");
    let config = EngineConfig::new(2, 32, 13);
    let engine = ShardedIngestEngine::new(config);
    let mut handle = engine.handle();
    handle.offer_batch(&skewed_rows(5_000, 2));
    handle.flush();
    engine.checkpoint(&dir).unwrap();
    drop(handle);
    drop(engine.finish());

    // Flip one payload byte in a shard file: restore must fail, not panic.
    let shard_path = dir.join(ShardedIngestEngine::shard_file_name(0));
    let mut bytes = std::fs::read(&shard_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&shard_path, &bytes).unwrap();
    assert!(ShardedIngestEngine::restore(&dir, config).is_err());

    // Truncate the manifest: same story.
    let manifest_path = dir.join(ShardedIngestEngine::MANIFEST_FILE);
    let manifest_bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &manifest_bytes[..manifest_bytes.len() / 2]).unwrap();
    assert!(ShardedIngestEngine::restore(&dir, config).is_err());

    // A missing shard file: restore errors with Io, still no panic.
    std::fs::write(&manifest_path, &manifest_bytes).unwrap();
    std::fs::remove_file(&shard_path).unwrap();
    assert!(matches!(
        ShardedIngestEngine::restore(&dir, config),
        Err(PersistError::Io(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_file_round_trip_preserves_query_layer_marginals() {
    // The fig6-style marginal roll-up must survive persistence byte-for-byte,
    // because it is entry-order sensitive and the codec keeps entry order.
    let dir = scratch_dir("marginals");
    let mut sketch = UnbiasedSpaceSaving::with_seed(64, 8);
    sketch.offer_batch(&skewed_rows(30_000, 6));
    let live = sketch.snapshot();
    let path = dir.join("marginals.uss");
    persist::save_snapshot(&path, &live).unwrap();
    let cold = persist::load_snapshot(&path).unwrap();

    let live_groups = live.marginals(|item| Some(item % 16));
    let cold_groups = cold.marginals(|item| Some(item % 16));
    assert_eq!(live_groups.len(), cold_groups.len());
    for ((k1, e1), (k2, e2)) in live_groups.iter().zip(&cold_groups) {
        assert_eq!(k1, k2);
        assert_eq!(e1.sum.to_bits(), e2.sum.to_bits());
        assert_eq!(e1.variance.to_bits(), e2.variance.to_bits());
        assert_eq!(e1.items_in_sketch, e2.items_in_sketch);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
