//! Metrics-vs-ground-truth conservation: the observability counters must
//! *reconcile exactly* with what the engines actually did. Rows applied
//! across N concurrent producers equal rows sent (quiesce exactness), the
//! temporal counters match a hand-computed model of a designed stream,
//! checkpoint byte/frame counters match the files on disk, histogram bucket
//! sums equal record counts under concurrency, and the dyadic-ladder
//! built/invalidated counters balance against the live node count.

use std::path::PathBuf;
use std::sync::Arc;

use uss_core::engine::{EngineConfig, ShardedIngestEngine};
use uss_core::metrics::Histogram;
use uss_core::temporal::{TemporalConfig, TemporalIngestEngine, TimeRange};
use uss_core::traits::StreamSketch;

/// Scratch directory for checkpoint tests, unique per process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uss-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_producer_rows_are_conserved_exactly() {
    // 4 producer threads, each its own handle, small rings so the slow paths
    // (full, park, wake) actually run. At the snapshot quiesce point the
    // worker-side row counter must equal rows sent *exactly* — not modulo a
    // block, not approximately.
    const PRODUCERS: u64 = 4;
    const ROWS_EACH: u64 = 50_000;
    let engine = Arc::new(ShardedIngestEngine::new(
        EngineConfig::new(3, 128, 42)
            .with_batch_rows(512)
            .with_queue_depth(2),
    ));
    let threads: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut handle = engine.handle();
                for i in 0..ROWS_EACH {
                    handle.offer(p * ROWS_EACH + i);
                }
                handle.flush();
            })
        })
        .collect();
    for t in threads {
        t.join().expect("producer");
    }
    // Snapshot drains a cut of every ring: all previously flushed rows are
    // applied before the counters are read.
    let snapshot = engine.snapshot();
    let sent = PRODUCERS * ROWS_EACH;
    assert_eq!(snapshot.rows_processed(), sent);
    assert_eq!(engine.rows_enqueued(), sent, "enqueue hint");
    let metrics = engine.metrics();
    assert_eq!(metrics.rows_total(), sent, "worker row counters at quiesce");
    // Block accounting: every applied block is non-empty and holds at most
    // BLOCK_CAP (254) rows.
    let blocks = metrics.blocks_total();
    assert!(blocks >= sent.div_ceil(254), "blocks {blocks} too few");
    assert!(blocks <= sent, "blocks {blocks} exceed rows");
    for (id, shard) in metrics.shards.iter().enumerate() {
        // A park is only ever entered after observing the ring full, so the
        // park count can never exceed the full count.
        assert!(
            shard.ring.producer_parks.get() <= shard.ring.try_push_full.get(),
            "shard {id}: parks {} > full events {}",
            shard.ring.producer_parks.get(),
            shard.ring.try_push_full.get()
        );
        // The snapshot quiesce records the sketch's resident size.
        assert!(
            shard.sketch_memory.get() > 0,
            "shard {id}: sketch memory gauge unset after quiesce"
        );
    }
}

#[test]
fn histogram_bucket_sums_equal_record_counts_under_concurrency() {
    static HIST: Histogram = Histogram::new();
    const THREADS: u64 = 8;
    const RECORDS: u64 = 25_000;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut local_sum = 0u64;
                for i in 0..RECORDS {
                    // A deterministic spread over many buckets.
                    let v = (i.wrapping_mul(2_654_435_761) ^ (t << 56)) >> (i % 48);
                    HIST.record(v);
                    local_sum = local_sum.wrapping_add(v);
                }
                local_sum
            })
        })
        .collect();
    let mut expected_sum = 0u64;
    for w in workers {
        expected_sum = expected_sum.wrapping_add(w.join().expect("recorder"));
    }
    let snap = HIST.snapshot();
    assert_eq!(snap.count, THREADS * RECORDS);
    let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
    assert_eq!(bucket_total, snap.count, "bucket sum == record count");
    assert_eq!(snap.sum, expected_sum, "value sum matches the arithmetic total");
    // Quantiles stay inside the recorded range's bucket bounds.
    assert!(snap.quantile(0.5) <= snap.quantile(0.99));
}

#[test]
fn temporal_counters_match_a_designed_stream_exactly() {
    // Single shard + single producer: the SPSC ring preserves offer order, so
    // every temporal counter is a pure function of the stream below.
    //
    // width 10, 4 fine buckets, default retention (2 tiers, factor 4).
    // Buckets 0..=11 in order, 40 rows each:
    //   - 11 forward transitions  -> rotations = 11
    //   - min_live ends at 11-3=8 -> buckets 0..=7 expire: 8 tier-0 pushes,
    //     compacting at the 4th and 8th -> tier_compactions = 2
    // Then 6 rows at bucket 2 (below min_live -> clamped late) and 5 rows at
    // bucket 9 (in-window out-of-order -> placed exactly, NOT late).
    let engine = TemporalIngestEngine::new(
        TemporalConfig::new(1, 64, 9, 10, 4).with_batch_rows(64),
    );
    let mut handle = engine.handle();
    let mut sent = 0u64;
    for b in 0..12u64 {
        for i in 0..40u64 {
            handle.offer_at(100 + (i * 13 + b * 31) % 150, b * 10 + (i % 10));
            sent += 1;
        }
    }
    for i in 0..6u64 {
        handle.offer_at(7_000 + i, 25); // bucket 2: late
        sent += 1;
    }
    for i in 0..5u64 {
        handle.offer_at(8_000 + i, 95); // bucket 9: out-of-order, in window
        sent += 1;
    }
    handle.flush();

    let em = Arc::clone(engine.metrics());
    let tm = Arc::clone(engine.temporal_metrics());

    // First full-range capture quiesces the worker (ring cut + settle) and
    // MISSES the cold range cache; the repeat at the same watermark HITS.
    let first = engine.range_capture(&TimeRange::All);
    assert_eq!(first.rows_processed(), sent);
    assert_eq!(em.rows_total(), sent, "worker row counter at quiesce");
    assert_eq!(engine.rows_enqueued(), sent);
    assert_eq!(tm.rotations.get(), 11);
    assert_eq!(tm.tier_compactions.get(), 2);
    assert_eq!(tm.late_rows.get(), 6);
    assert_eq!(tm.range_cache_misses.get(), 1);
    assert_eq!(tm.range_cache_hits.get(), 0);

    let again = engine.range_capture(&TimeRange::All);
    assert_eq!(tm.range_cache_hits.get(), 1);
    assert_eq!(tm.range_cache_misses.get(), 1, "hit performs no fold");
    assert_eq!(again.rows_processed(), sent);

    // A narrower range is a different cache key: one more miss.
    let _ = engine.range_capture(&TimeRange::Between { start: 40, end: 80 });
    assert_eq!(tm.range_cache_misses.get(), 2);

    // Ladder conservation: every node ever materialised was counted built,
    // every node ever dropped (late-row invalidation or retention retire) was
    // counted invalidated, so with the workers joined the difference is the
    // number of nodes still alive.
    let stores = engine.finish_stores();
    let live: u64 = stores.iter().map(|s| s.ladder_node_count() as u64).sum();
    let built = tm.ladder_nodes_built.get();
    let invalidated = tm.ladder_nodes_invalidated.get();
    assert!(built >= invalidated, "built {built} < invalidated {invalidated}");
    assert_eq!(built - invalidated, live, "ladder node balance");
    assert!(
        tm.ladder_repaired_at_query.get() <= built,
        "query repairs are a subset of builds"
    );
    // And the stream-level ground truth the store itself tracks agrees.
    assert_eq!(stores[0].late_rows(), tm.late_rows.get());
    assert_eq!(stores[0].rows_processed(), sent);
}

#[test]
fn temporal_sketch_memory_gauge_matches_each_store() {
    // The memory gauge is a high-water mark sampled at every quiesce: here the
    // range capture and finish's shutdown. With no ingest after the capture,
    // a store only grows (idle ladder builds), so the high-water equals the
    // final store's resident bytes exactly.
    let engine = TemporalIngestEngine::new(
        TemporalConfig::new(2, 64, 21, 10, 8).with_batch_rows(128),
    );
    let mut handle = engine.handle();
    for i in 0..10_000u64 {
        handle.offer_at(i % 700, i / 100);
    }
    handle.flush();
    let _ = engine.range_capture(&TimeRange::All);
    let metrics = Arc::clone(engine.metrics());
    for (id, shard) in metrics.shards.iter().enumerate() {
        assert!(shard.rows.get() > 0, "shard {id} applied no rows");
        assert!(shard.sketch_memory.get() > 0, "shard {id}: gauge unset after quiesce");
    }
    let stores = engine.finish_stores();
    for (id, (shard, store)) in metrics.shards.iter().zip(&stores).enumerate() {
        assert_eq!(
            shard.sketch_memory.get(),
            store.memory_bytes(),
            "shard {id}: gauge vs store"
        );
    }
}

#[test]
fn range_fold_entries_count_exactly_what_each_fold_takes_in() {
    // 3 shards, capacity 64; items 0..40 once in each of buckets 0..=5, so no
    // sketch evicts and every shard holds its routed items in every bucket.
    // Whatever the routing, the shards' distinct items sum to D = 40:
    //   - [1, 3) is two unaligned leaves per shard: each shard pre-merges its
    //     d_s distinct items (sum D), the engine folds the D-entry
    //     concatenation -> 2D on a cache miss;
    //   - the same range again: a range-cache hit folds nothing;
    //   - range_snapshot bypasses the cache, so the shards pre-merge again
    //     and the engine folds again -> 2D;
    //   - one bucket is a raw report per shard; only the engine fold counts
    //     its D entries.
    const D: u64 = 40;
    let engine = TemporalIngestEngine::new(
        TemporalConfig::new(3, 64, 5, 10, 8).with_batch_rows(64),
    );
    let mut handle = engine.handle();
    for b in 0..6u64 {
        for item in 0..D {
            handle.offer_at(item, b * 10);
        }
    }
    handle.flush();
    let folded = &engine.temporal_metrics().range_fold_entries;
    let span = TimeRange::Between { start: 10, end: 30 };
    assert_eq!(folded.get(), 0);
    let first = engine.range_capture(&span);
    assert_eq!(first.rows_processed(), 2 * D);
    assert_eq!(folded.get(), 2 * D, "shard pre-merges plus the engine fold");
    let _ = engine.range_capture(&span);
    assert_eq!(folded.get(), 2 * D, "a cache hit folds nothing");
    let _ = engine.range_snapshot(&span);
    assert_eq!(folded.get(), 4 * D, "shard pre-merges plus the engine fold, again");
    let _ = engine.range_snapshot(&TimeRange::Between { start: 50, end: 60 });
    assert_eq!(folded.get(), 5 * D, "a raw single-bucket fold");
    let _ = engine.finish();
}

#[test]
fn checkpoint_counters_match_the_files_on_disk() {
    let dir = scratch_dir("ckpt");
    let engine = TemporalIngestEngine::new(TemporalConfig::new(2, 32, 5, 10, 8));
    let mut handle = engine.handle();
    for i in 0..1_000u64 {
        handle.offer_at(i % 50, i / 20);
    }
    handle.flush();
    engine.checkpoint(&dir).expect("checkpoint");

    let metrics = engine.metrics();
    // 2 shard files + 1 manifest.
    assert_eq!(metrics.checkpoint_frames.get(), 3);
    assert_eq!(metrics.checkpoint_failures.get(), 0);
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum();
    assert_eq!(
        metrics.checkpoint_bytes.get(),
        on_disk,
        "byte counter equals the bytes actually on disk"
    );

    // A second checkpoint accumulates (counters are _total).
    engine.checkpoint(&dir).expect("second checkpoint");
    assert_eq!(metrics.checkpoint_frames.get(), 6);
    let _ = engine.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
