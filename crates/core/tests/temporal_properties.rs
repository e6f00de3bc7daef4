//! Temporal-subsystem correctness: mass conservation across bucket boundaries,
//! unbiasedness of range merges (z-tests over ≥50 seeds), tier-compaction
//! equivalence, out-of-order / late-timestamp handling, bit-identity of a
//! whole-stream temporal range with the non-temporal engine, and exact
//! checkpoint→restore→continue of the bucket ring — plus the decayed sketch
//! answering through the same typed queries.

use std::sync::Arc;

use uss_core::engine::{shard_of, EngineConfig, ShardedIngestEngine};
use uss_core::persist::{self, PersistError};
use uss_core::query::{answer_query, Query, QueryAnswer};
use uss_core::temporal::{
    compact_fold, BucketReport, TemporalConfig, TemporalIngestEngine, TimeRange, WindowConfig,
    WindowedSketchStore,
};
use uss_core::traits::StreamSketch;
use uss_core::DecayedSpaceSaving;

/// A deterministic skewed stream: `(item, bucket)` rows spanning `buckets` time
/// buckets of `rows_per_bucket` rows each, with item 7 given `extra` additional
/// rows in every bucket of `[hot_from, hot_to)`.
fn hot_item_stream(
    buckets: u64,
    rows_per_bucket: u64,
    hot_from: u64,
    hot_to: u64,
    extra: u64,
) -> Vec<(u64, u64)> {
    let mut rows = Vec::new();
    for b in 0..buckets {
        for i in 0..rows_per_bucket {
            rows.push((100 + (i * 13 + b * 31) % 150, b));
        }
        if (hot_from..hot_to).contains(&b) {
            for _ in 0..extra {
                rows.push((7, b));
            }
        }
    }
    rows
}

#[test]
fn mass_is_conserved_across_bucket_boundaries_and_compaction() {
    // Rows cross many bucket boundaries and several compaction events; no row
    // may ever be lost or double-counted, in any retained structure.
    let mut store = WindowedSketchStore::new(
        WindowConfig::new(24, 11, 1, 3).with_retention(2, 2),
    );
    let mut offered = 0u64;
    for (item, b) in hot_item_stream(40, 50, 10, 20, 5) {
        store.offer_at(item, b);
        offered += 1;
    }
    assert_eq!(store.rows_processed(), offered);
    // Structure-level accounting: fine + tiers + terminal add up exactly.
    let mut accounted: u64 = store
        .fine_sketches()
        .map(|(_, sk)| sk.rows_processed())
        .sum();
    for t in 0..2 {
        accounted += store.tier_buckets(t).iter().map(|b| b.rows()).sum::<u64>();
    }
    accounted += store.terminal_bucket().map_or(0, |b| b.rows());
    assert_eq!(accounted, offered);
    // The folded full range conserves the mass to float precision, and every
    // compacted entry list conserves its own span's mass exactly (the unbiased
    // merge is mass-preserving by construction).
    let folded = store.fold_range(0, u64::MAX, 1, 2);
    let mass: f64 = folded.entries().iter().map(|(_, c)| c).sum();
    assert!((mass - offered as f64).abs() < 1e-6, "mass {mass} vs {offered}");
    for t in 0..2 {
        for bucket in store.tier_buckets(t) {
            let m: f64 = bucket.entries().iter().map(|(_, c)| c).sum();
            assert!(
                (m - bucket.rows() as f64).abs() < 1e-6,
                "tier {t} span [{}, {}): mass {m} vs rows {}",
                bucket.start(),
                bucket.end(),
                bucket.rows()
            );
        }
    }
}

#[test]
fn range_merge_estimates_are_unbiased_over_many_seeds() {
    // Item 7 receives exactly 30 extra rows in each of buckets 2, 3, 4. The
    // range fold over [2, 5) must estimate its count without bias even though
    // every bucket sketch is lossy (capacity 16 over 150 distinct items) and
    // the fold subsamples again. z-test over 60 sketch seeds (deterministic:
    // the stream is fixed, only the sketch/merge RNG varies with the seed).
    let rows = hot_item_stream(10, 300, 2, 5, 30);
    let truth = 3.0 * 30.0;
    let seeds = 60;
    let mut estimates = Vec::with_capacity(seeds);
    for seed in 0..seeds as u64 {
        let mut store = WindowedSketchStore::new(
            WindowConfig::new(16, seed, 1, 10).with_retention(2, 4),
        );
        for &(item, b) in &rows {
            store.offer_at(item, b);
        }
        let folded = store.fold_range(2, 5, seed ^ 0xAAAA, seed ^ 0xBBBB);
        assert_eq!(folded.rows_processed(), 3 * 300 + 3 * 30);
        estimates.push(folded.estimate(7));
    }
    let n = estimates.len() as f64;
    let mean = estimates.iter().sum::<f64>() / n;
    let var = estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let z = (mean - truth) / (var / n).sqrt().max(1e-9);
    assert!(
        z.abs() < 4.0,
        "range-merge bias detected: mean {mean} vs truth {truth} (z = {z:.2})"
    );
}

#[test]
fn compacted_tier_bucket_equals_direct_merge_of_its_fine_buckets() {
    // Store A retains every fine bucket (window larger than the stream); store
    // B compacts aggressively. Same seed => identical fine sketches while they
    // live, so every compacted bucket in B must equal `compact_fold` applied
    // directly to A's still-retained fine buckets over the same span — the
    // compaction loses nothing beyond the documented unbiased merge.
    let rows = hot_item_stream(12, 120, 0, 12, 10);
    let seed = 77;
    let mut a = WindowedSketchStore::new(
        WindowConfig::new(20, seed, 1, 64).with_retention(2, 2),
    );
    let mut b = WindowedSketchStore::new(
        WindowConfig::new(20, seed, 1, 2).with_retention(2, 2),
    );
    for &(item, bk) in &rows {
        a.offer_at(item, bk);
        b.offer_at(item, bk);
    }
    assert_eq!(a.fine_sketches().count(), 12, "A must retain every bucket");
    type FineImage = (u64, Vec<(u64, f64)>, u64);
    let fine_a: Vec<FineImage> = a
        .fine_sketches()
        .map(|(i, sk)| (i, sk.entries(), sk.rows_processed()))
        .collect();
    let report_for = |index: u64| -> BucketReport {
        let (_, entries, rows) = fine_a
            .iter()
            .find(|(i, _, _)| *i == index)
            .expect("fine bucket retained in A");
        BucketReport {
            entries: entries.clone(),
            rows: *rows,
        }
    };
    // Tier 0 holds raw expired buckets: identical to A's fine entries.
    for bucket in b.tier_buckets(0) {
        assert_eq!(bucket.end(), bucket.start() + 1);
        let expected = report_for(bucket.start());
        assert_eq!(bucket.entries(), &expected.entries[..]);
        assert_eq!(bucket.rows(), expected.rows);
    }
    // Tier 1 holds span-2 compactions: exactly the deterministic fold of the
    // two fine buckets they were built from.
    let tier1 = b.tier_buckets(1);
    assert!(!tier1.is_empty(), "the stream must have forced a tier-1 compaction");
    for bucket in tier1 {
        let span: Vec<BucketReport> =
            (bucket.start()..bucket.end()).map(report_for).collect();
        let expected = compact_fold(20, seed, bucket.start(), bucket.end(), span);
        assert_eq!(bucket, &expected, "span [{}, {})", bucket.start(), bucket.end());
    }
}

#[test]
fn engine_places_out_of_order_rows_exactly_and_clamps_late_ones() {
    // Producers emit timestamps shuffled inside the live window: every row must
    // land in its true bucket (exact per-bucket row counts), and rows older
    // than the window clamp into the oldest retained bucket instead of
    // vanishing.
    // Fine window of 4 buckets: buckets 0 and 1 expire into tier 0 (span-1
    // buckets, so single-bucket range queries stay exact) and a timestamp from
    // bucket 0 arriving at the end is genuinely late.
    let config = TemporalConfig::new(2, 64, 5, 10, 4).with_batch_rows(32);
    let engine = TemporalIngestEngine::new(config);
    let mut handle = engine.handle();
    // 6 buckets × 100 rows, timestamps emitted in a scrambled in-window order.
    let mut rows: Vec<(u64, u64)> = Vec::new();
    for b in 0..6u64 {
        for i in 0..100u64 {
            rows.push((i % 40, b * 10 + (i * 7) % 10));
        }
    }
    // Deterministic shuffle with a reordering horizon under the fine window,
    // so nothing here is late.
    rows.chunks_mut(250).for_each(<[(u64, u64)]>::reverse);
    handle.offer_batch_at(&rows);
    handle.flush();
    for b in 0..6u64 {
        let one = engine.range_snapshot(&TimeRange::Between {
            start: b * 10,
            end: (b + 1) * 10,
        });
        assert_eq!(one.rows_processed(), 100, "bucket {b}");
    }
    // A row far older than the window is clamped, not dropped.
    handle.offer_at(999, 0);
    handle.flush();
    let all = engine.range_snapshot(&TimeRange::All);
    assert_eq!(all.rows_processed(), 601);
    let stores = engine.finish_stores();
    let late: u64 = stores.iter().map(WindowedSketchStore::late_rows).sum();
    assert_eq!(late, 1);
}

/// Feeds the same unit-weight stream to a non-temporal engine (combiner off)
/// and a temporal engine whose bucket width swallows every timestamp, using
/// identical batch geometry.
fn twin_engines(rows: &[u64]) -> (ShardedIngestEngine, TemporalIngestEngine) {
    let plain = ShardedIngestEngine::new(
        EngineConfig::new(3, 48, 42)
            .with_combiner_items(0)
            .with_batch_rows(128),
    );
    let temporal = TemporalIngestEngine::new(
        TemporalConfig::new(3, 48, 42, u64::MAX, 4).with_batch_rows(128),
    );
    let mut ph = plain.handle();
    let mut th = temporal.handle();
    for &item in rows {
        ph.offer(item);
        th.offer_at(item, item % 1_000);
    }
    ph.flush();
    th.flush();
    (plain, temporal)
}

#[test]
fn whole_stream_range_is_bit_identical_to_the_non_temporal_engine() {
    // The acceptance criterion: with every row in one bucket, the bucket
    // sketches are seeded exactly like the plain engine's shard sketches, and a
    // whole-stream range fold uses the same salted merge-seed sequence — so the
    // answers are bit-identical, not merely statistically equal.
    let rows: Vec<u64> = (0..30_000u64)
        .map(|i| if i % 5 == 0 { i % 40 } else { 500 + i % 2_000 })
        .collect();
    let (plain, temporal) = twin_engines(&rows);

    // Direct snapshot vs whole-range snapshot: both consume merge salt 0.
    let p = plain.snapshot();
    let t = temporal.range_snapshot(&TimeRange::All);
    assert_eq!(p.rows_processed(), t.rows_processed());
    assert_eq!(p.entries(), t.entries());

    // Captured comparison: one capture per engine consumes salt 1 on each, so
    // the second captures line up too. All five variants and the marginal
    // group-by must agree bit for bit.
    let ps = plain.snapshot().snapshot();
    let ts = temporal.range_capture(&TimeRange::All);
    assert_eq!(ps.rows_processed(), ts.rows_processed());
    let items: Vec<u64> = (0..40).collect();
    for query in [
        Query::SubsetSum { items: items.clone() },
        Query::Proportion { items },
        Query::TopK { k: 10 },
        Query::FrequentItems { phi: 0.001 },
        Query::RankQuantile { q: 0.5 },
    ] {
        let a = answer_query(&ps, &query, 0.95);
        let b = answer_query(&ts, &query, 0.95);
        assert_eq!(a, b, "{query:?}");
    }
    let ma = ps.marginals(|item| Some(item % 8));
    let mb = ts.marginals(|item| Some(item % 8));
    assert_eq!(ma.len(), mb.len());
    for ((k1, e1), (k2, e2)) in ma.iter().zip(&mb) {
        assert_eq!(k1, k2);
        assert_eq!(e1.sum.to_bits(), e2.sum.to_bits());
        assert_eq!(e1.variance.to_bits(), e2.variance.to_bits());
    }
    let _ = temporal.finish();
    let _ = plain.finish();
}

#[test]
fn sliding_window_server_answers_every_variant_with_correct_rows() {
    let engine = TemporalIngestEngine::new(
        TemporalConfig::new(2, 128, 9, 10, 6).with_batch_rows(64),
    );
    let mut handle = engine.handle();
    for ts in 0u64..120 {
        for i in 0..50u64 {
            handle.offer_at(i % 30, ts);
        }
    }
    handle.flush();
    let window = engine.range_capture(&TimeRange::LastBuckets(3));
    // Buckets 9, 10, 11 (30 ticks × 50 rows).
    let expected_rows: u64 = 3 * 10 * 50;
    assert_eq!(window.rows_processed(), expected_rows);
    let items: Vec<u64> = (0..10).collect();
    let QueryAnswer::Estimate { estimate, ci } =
        answer_query(&window, &Query::SubsetSum { items: items.clone() }, 0.95)
    else {
        panic!("subset sum must answer with an estimate")
    };
    assert!(estimate.sum > 0.0 && ci.upper >= ci.lower);
    let QueryAnswer::Estimate { estimate, .. } =
        answer_query(&window, &Query::Proportion { items }, 0.95)
    else {
        panic!("proportion must answer with an estimate")
    };
    assert!((estimate.sum - 1.0 / 3.0).abs() < 0.15, "proportion {}", estimate.sum);
    let QueryAnswer::Items(top) = answer_query(&window, &Query::TopK { k: 5 }, 0.95) else {
        panic!("top-k must answer with items")
    };
    assert_eq!(top.len(), 5);
    let QueryAnswer::Items(heavy) =
        answer_query(&window, &Query::FrequentItems { phi: 0.02 }, 0.95)
    else {
        panic!("frequent items must answer with items")
    };
    assert!(!heavy.is_empty());
    let QueryAnswer::Rank(rank) = answer_query(&window, &Query::RankQuantile { q: 0.0 }, 0.95)
    else {
        panic!("rank quantile must answer with a rank")
    };
    assert!(rank.is_some());
    let groups = window.marginals(|item| Some(item % 3));
    assert_eq!(groups.len(), 3);
    let group_mass: f64 = groups.iter().map(|(_, e)| e.sum).sum();
    assert!((group_mass - expected_rows as f64).abs() < 1e-6);
    let _ = engine.finish();
}

#[test]
fn checkpoint_restore_continue_matches_an_uninterrupted_run_exactly() {
    let dir = std::env::temp_dir().join(format!("uss-temporal-ckpt-{}", std::process::id()));
    let config = TemporalConfig::new(2, 32, 21, 5, 4)
        .with_retention(2, 2)
        .with_batch_rows(64);
    let first: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 90, i / 50)).collect();
    let second: Vec<(u64, u64)> = (0..4_000u64).map(|i| ((i * 3) % 90, 80 + i / 50)).collect();

    let uninterrupted = TemporalIngestEngine::new(config);
    let mut handle = uninterrupted.handle();
    handle.offer_batch_at(&first);
    handle.flush();
    let _ = uninterrupted.range_snapshot(&TimeRange::All); // advance the salt counter
    uninterrupted.checkpoint(&dir).unwrap();
    handle.offer_batch_at(&second);
    handle.flush();
    drop(handle);

    let restored = TemporalIngestEngine::restore(&dir, config).unwrap();
    assert_eq!(restored.rows_enqueued(), 4_000);
    assert_eq!(restored.max_time(), 79);
    let mut handle = restored.handle();
    handle.offer_batch_at(&second);
    handle.flush();
    drop(handle);

    // The post-checkpoint salted range snapshots continue the same sequence.
    let a = uninterrupted.range_snapshot(&TimeRange::LastBuckets(4));
    let b = restored.range_snapshot(&TimeRange::LastBuckets(4));
    assert_eq!(a.entries(), b.entries());
    assert_eq!(a.rows_processed(), b.rows_processed());

    // And the full per-shard ring state is identical: fine sketches (bit-level
    // entries), every tier bucket, terminal bucket, and the counters.
    let sa = uninterrupted.finish_stores();
    let sb = restored.finish_stores();
    assert_eq!(sa.len(), sb.len());
    for (x, y) in sa.iter().zip(&sb) {
        assert_eq!(x.rows_processed(), y.rows_processed());
        assert_eq!(x.late_rows(), y.late_rows());
        assert_eq!(x.last_time(), y.last_time());
        let fx: Vec<_> = x.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        let fy: Vec<_> = y.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        assert_eq!(fx, fy);
        for t in 0..2 {
            assert_eq!(x.tier_buckets(t), y.tier_buckets(t), "tier {t}");
        }
        assert_eq!(x.terminal_bucket(), y.terminal_bucket());
    }

    // A mismatched identity is refused.
    assert!(TemporalIngestEngine::restore(&dir, TemporalConfig::new(2, 32, 22, 5, 4)).is_err());
    assert!(TemporalIngestEngine::restore(
        &dir,
        TemporalConfig::new(2, 32, 21, 5, 4).with_retention(1, 2)
    )
    .is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restore_rejects_an_item_checkpointed_on_the_wrong_shard() {
    // Range folds concatenate shard reports, trusting that every item lives
    // on the shard `shard_of` routes it to. A checksum-valid checkpoint whose
    // shard 0 holds one extra row is re-written below, its manifest row count
    // kept consistent: with an item that routes to shard 0 it restores; with
    // one that routes to shard 1 it is refused as corrupt.
    let dir = std::env::temp_dir().join(format!("uss-misroute-ckpt-{}", std::process::id()));
    let config = TemporalConfig::new(2, 32, 21, 5, 8).with_batch_rows(64);
    let rows: Vec<(u64, u64)> = (0..3_000u64).map(|i| (i % 90, i / 50)).collect();
    let engine = TemporalIngestEngine::new(config);
    let mut handle = engine.handle();
    handle.offer_batch_at(&rows);
    handle.flush();
    drop(handle);
    let _ = engine.range_snapshot(&TimeRange::All); // checkpoint with a built ladder too
    engine.checkpoint(&dir).unwrap();
    let _ = engine.finish();

    let shard0 = dir.join(TemporalIngestEngine::shard_file_name(0));
    let manifest_path = dir.join(TemporalIngestEngine::MANIFEST_FILE);
    let pristine_shard = std::fs::read(&shard0).unwrap();
    let pristine_manifest = std::fs::read(&manifest_path).unwrap();
    let add_row_to_shard0 = |item: u64| {
        let (index, meta, mut store) = persist::decode_temporal_shard(&pristine_shard).unwrap();
        // A fresh bucket, so the row cannot lose a full sketch's eviction draw.
        store.offer_at(item, store.last_time() + 5);
        persist::write_file(&shard0, &persist::encode_temporal_shard(index, meta, &store))
            .unwrap();
        let mut manifest = persist::decode_temporal_manifest(&pristine_manifest).unwrap();
        manifest.rows += 1;
        persist::write_file(&manifest_path, &persist::encode_temporal_manifest(&manifest))
            .unwrap();
    };
    let owned_by = |shard: usize| (10_000u64..).find(|&i| shard_of(i, 2) == shard).unwrap();

    add_row_to_shard0(owned_by(0));
    let restored = TemporalIngestEngine::restore(&dir, config).unwrap();
    assert_eq!(restored.rows_enqueued(), 3_001);
    let _ = restored.finish();

    let stray = owned_by(1);
    add_row_to_shard0(stray);
    match TemporalIngestEngine::restore(&dir, config) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains(&format!("item {stray}")), "{msg}");
            assert!(msg.contains("routes to shard 1"), "{msg}");
        }
        other => panic!("a misrouted item must be corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn multi_shard_wide_range_answers_are_exact_in_rows_and_mass_and_unbiased() {
    // Three shards, each lossy (capacity 32 against ~50 distinct items per
    // bucket per shard), queried over 10 buckets: every shard pre-merges its
    // span and the engine reduces the concatenated shard reports once more.
    // Rows and total mass must be exact for every seed; across 60 seeds the
    // hot item's estimate must be unbiased (|z| < 4) and the 95% SubsetSum
    // interval must cover the truth in at least 90% of them.
    let rows = hot_item_stream(12, 300, 2, 10, 30);
    let (lo, hi) = (1u64, 11u64);
    let in_range = |b: u64| (lo..hi).contains(&b);
    let range_rows = rows.iter().filter(|&&(_, b)| in_range(b)).count() as u64;
    let hot_truth = 8.0 * 30.0;
    let subset: Vec<u64> = (100..175).collect();
    let subset_truth = rows
        .iter()
        .filter(|&&(item, b)| in_range(b) && subset.binary_search(&item).is_ok())
        .count() as f64;
    let range = TimeRange::Between { start: lo, end: hi };
    let seeds = 60u64;
    let mut estimates = Vec::with_capacity(seeds as usize);
    let mut covered = 0u64;
    for seed in 0..seeds {
        let config = TemporalConfig::new(3, 32, seed, 1, 16).with_batch_rows(64);
        let engine = TemporalIngestEngine::new(config);
        let mut handle = engine.handle();
        handle.offer_batch_at(&rows);
        handle.flush();
        drop(handle);
        let folded = engine.range_snapshot(&range);
        assert_eq!(folded.rows_processed(), range_rows, "seed {seed}");
        assert!(folded.retained_len() <= 32);
        let mass: f64 = folded.entries().iter().map(|&(_, c)| c).sum();
        assert!(
            (mass - range_rows as f64).abs() < 1e-9 * range_rows as f64,
            "seed {seed}: mass {mass} vs rows {range_rows}"
        );
        estimates.push(folded.estimate(7));
        let captured = engine.range_capture(&range);
        assert_eq!(captured.rows_processed(), range_rows);
        let QueryAnswer::Estimate { ci, .. } =
            answer_query(&captured, &Query::SubsetSum { items: subset.clone() }, 0.95)
        else {
            panic!("subset sum must answer with an estimate")
        };
        covered += u64::from(ci.contains(subset_truth));
        let _ = engine.finish();
    }
    let n = estimates.len() as f64;
    let mean = estimates.iter().sum::<f64>() / n;
    let var = estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let z = (mean - hot_truth) / (var / n).sqrt().max(1e-9);
    assert!(
        z.abs() < 4.0,
        "multi-shard range bias: mean {mean} vs truth {hot_truth} (z = {z:.2})"
    );
    assert!(
        covered * 10 >= seeds * 9,
        "95% interval covered the truth in only {covered} of {seeds} seeds"
    );
}

/// A cheap deterministic mixer for "random" interleavings without an RNG dep.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn ladder_answers_conserve_mass_for_random_interleavings() {
    // Random rotation/out-of-order/query interleavings: every resolvable range
    // answered through the ladder reports exactly the rows the leaf path
    // reports, and its total mass equals those rows to float precision. The
    // ladder may re-sample *which* items carry the mass — never how much.
    for seed in 0..8u64 {
        let mut store = WindowedSketchStore::new(
            WindowConfig::new(24, seed, 1, 16).with_retention(2, 3),
        );
        let mut clock = 0u64;
        for step in 0..3_000u64 {
            let r = mix(seed ^ (step << 8));
            match r % 10 {
                // Mostly in-order rows; the clock drifts forward.
                0..=6 => {
                    clock += u64::from(r.is_multiple_of(7));
                    store.offer_at(r >> 32, clock);
                }
                // Out-of-order rows, some inside the window, some late.
                7 | 8 => store.offer_at(r >> 32, clock.saturating_sub(r % 40)),
                // A range query through the ladder at a random span.
                _ => {
                    let width = 1 + r % 16;
                    let start = clock.saturating_sub(width);
                    let (reports, _) = store.indexed_range_reports(start, start + width);
                    let leaf_rows: u64 = store
                        .range_reports(start, start + width)
                        .iter()
                        .map(|b| b.rows)
                        .sum();
                    let rows: u64 = reports.iter().map(|b| b.rows).sum();
                    assert_eq!(rows, leaf_rows, "seed {seed} step {step}");
                    let mass: f64 = reports
                        .iter()
                        .flat_map(|b| &b.entries)
                        .map(|&(_, c)| c)
                        .sum();
                    assert!(
                        (mass - rows as f64).abs() < 1e-6 * (rows as f64).max(1.0),
                        "seed {seed} step {step}: mass {mass} vs rows {rows}"
                    );
                }
            }
        }
    }
}

#[test]
fn ladder_estimates_are_statistically_indistinguishable_from_leaf_folds() {
    // Item 7 receives exactly 30 extra rows in each of buckets 2, 3, 4. Over
    // 60 sketch seeds, the ladder fold of [2, 5) must (a) stay unbiased
    // against the truth and (b) be indistinguishable from the leaf fold: the
    // paired per-seed differences must not drift from zero. Both are z-tests
    // at |z| < 4 — the deterministic stream means only sketch/merge RNG varies.
    let rows = hot_item_stream(10, 300, 2, 5, 30);
    let truth = 3.0 * 30.0;
    let seeds = 60;
    let mut ladder_estimates = Vec::with_capacity(seeds);
    let mut diffs = Vec::with_capacity(seeds);
    for seed in 0..seeds as u64 {
        // A window wide enough to keep buckets 2..5 fine and sealed, so the
        // range decomposes into the level-1 node [2, 4) plus leaf 4.
        let mut store = WindowedSketchStore::new(
            WindowConfig::new(16, seed, 1, 12).with_retention(2, 4),
        );
        for &(item, b) in &rows {
            store.offer_at(item, b);
        }
        let ladder = store.fold_range_indexed(2, 5, seed ^ 0xAAAA, seed ^ 0xBBBB);
        let leaf = store.fold_range(2, 5, seed ^ 0xAAAA, seed ^ 0xBBBB);
        assert_eq!(ladder.rows_processed(), 3 * 300 + 3 * 30);
        assert_eq!(ladder.rows_processed(), leaf.rows_processed());
        ladder_estimates.push(ladder.estimate(7));
        diffs.push(ladder.estimate(7) - leaf.estimate(7));
    }
    let z_of = |xs: &[f64], target: f64| {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean - target) / (var / n).sqrt().max(1e-9)
    };
    let z_truth = z_of(&ladder_estimates, truth);
    assert!(
        z_truth.abs() < 4.0,
        "ladder fold is biased: z = {z_truth:.2} against truth {truth}"
    );
    let z_leaf = z_of(&diffs, 0.0);
    assert!(
        z_leaf.abs() < 4.0,
        "ladder and leaf folds drift apart: z = {z_leaf:.2}"
    );
}

#[test]
fn straddling_batches_account_late_rows_per_item() {
    // One enqueued batch straddles the window boundary: rows at the leading
    // edge advance the window and retroactively make the batch's oldest rows
    // late. Accounting must be per item — identical, row for row and byte for
    // byte, to offering the same rows one at a time.
    let config = TemporalConfig::new(2, 32, 13, 10, 4).with_batch_rows(4096);
    let batched = TemporalIngestEngine::new(config);
    let single = TemporalIngestEngine::new(config);
    let mut rows: Vec<(u64, u64)> = Vec::new();
    for ts in 0u64..80 {
        for i in 0..10u64 {
            rows.push((i * 31 + ts, ts));
        }
    }
    // The straddle: rows behind the (now advanced) window mixed with live
    // ones, inside one batch.
    for k in 0..50u64 {
        rows.push((k, k % 100));
    }
    let mut bh = batched.handle();
    bh.offer_batch_at(&rows);
    bh.flush();
    drop(bh);
    let mut sh = single.handle();
    for &(item, ts) in &rows {
        sh.offer_at(item, ts);
        sh.flush();
    }
    drop(sh);
    let sa = batched.finish_stores();
    let sb = single.finish_stores();
    let late: u64 = sa.iter().map(WindowedSketchStore::late_rows).sum();
    assert!(late > 0, "the stream must actually straddle the window");
    for (x, y) in sa.iter().zip(&sb) {
        assert_eq!(x.rows_processed(), y.rows_processed());
        assert_eq!(x.late_rows(), y.late_rows());
        let fx: Vec<_> = x.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        let fy: Vec<_> = y.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        assert_eq!(fx, fy);
    }
}

/// Offers `rows` through a one-shard engine, which applies each block as
/// per-bucket runs, and one row at a time with `offer_at` into a standalone
/// store of the same geometry (shard 0 is seeded with the base seed). The two
/// stores must end bit-identical. Returns the engine's store.
fn assert_bucket_runs_match_row_offers(
    config: TemporalConfig,
    rows: &[(u64, u64)],
) -> WindowedSketchStore {
    let engine = TemporalIngestEngine::new(config);
    let mut handle = engine.handle();
    handle.offer_batch_at(rows);
    handle.flush();
    drop(handle);
    let stores = engine.finish_stores();
    assert_eq!(stores.len(), 1);
    let x = &stores[0];
    let mut y = WindowedSketchStore::new(config.window);
    for &(item, ts) in rows {
        y.offer_at(item, ts);
    }
    assert_eq!(x.rows_processed(), rows.len() as u64);
    assert_eq!(x.rows_processed(), y.rows_processed());
    assert_eq!(x.late_rows(), y.late_rows());
    assert_eq!(x.last_time(), y.last_time());
    let fine = |s: &WindowedSketchStore| -> Vec<_> {
        s.fine_sketches()
            .map(|(i, sk)| (i, sk.rows_processed(), sk.entries()))
            .collect()
    };
    assert_eq!(fine(x), fine(&y));
    for t in 0..config.window.tiers {
        assert_eq!(x.tier_buckets(t), y.tier_buckets(t), "tier {t}");
    }
    assert_eq!(x.terminal_bucket(), y.terminal_bucket());
    stores.into_iter().next().expect("one shard")
}

#[test]
fn per_bucket_runs_are_bit_identical_to_row_by_row_offers() {
    // Width-10 buckets, 4 fine: timestamps climb about one bucket per 70 rows,
    // so 254-row blocks hold runs that cross bucket boundaries. Every 23rd row
    // steps 1-2 buckets back (in-window out of order) and every 61st row 9
    // buckets back (late, clamped). Retention 2x2 forces tier and terminal
    // compactions.
    let mut rows: Vec<(u64, u64)> = Vec::new();
    for i in 0..6_000u64 {
        let now = i / 7;
        let ts = if i % 61 == 0 {
            now.saturating_sub(90)
        } else if i % 23 == 0 {
            now.saturating_sub(10 + mix(i) % 10)
        } else {
            now
        };
        rows.push((mix(i) % 50 + (i % 3), ts));
    }
    let config = TemporalConfig::new(1, 16, 31, 10, 4).with_retention(2, 2);
    let store = assert_bucket_runs_match_row_offers(config, &rows);
    assert!(store.late_rows() > 0);
    assert!(store.terminal_bucket().is_some());

    // Width-1 buckets at the top of the timestamp range: bucket `u64::MAX`
    // clamps into `u64::MAX - 1`, so rows at `u64::MAX - 1` and `u64::MAX`
    // share a bucket while their runs split. Out-of-order and late rows mix
    // in as above.
    let top = u64::MAX - 60;
    let mut rows: Vec<(u64, u64)> = Vec::new();
    for i in 0..3_000u64 {
        let now = top + i / 50;
        let ts = match i % 17 {
            0 => now - 8,
            5 => now - 1 - mix(i) % 2,
            _ if i >= 2_800 => u64::MAX - (i % 2),
            _ => now,
        };
        rows.push((mix(i) % 40, ts));
    }
    let config = TemporalConfig::new(1, 16, 32, 1, 4).with_retention(1, 2);
    let store = assert_bucket_runs_match_row_offers(config, &rows);
    assert!(store.late_rows() > 0);
    assert_eq!(store.newest_bucket(), Some(u64::MAX - 1));
    assert_eq!(store.last_time(), u64::MAX);
}

#[test]
fn degenerate_ranges_serve_every_query_variant_with_finite_zeros() {
    // The range path's empty-snapshot contract: a captured range that resolves
    // to no buckets (end <= start, or entirely before history) must answer
    // all five query variants with finite zeros — never NaN, never a panic —
    // exactly like a 0-row snapshot.
    let engine = TemporalIngestEngine::new(TemporalConfig::new(2, 32, 3, 10, 6));
    let mut handle = engine.handle();
    for ts in 60u64..120 {
        handle.offer_at(ts % 9, ts);
    }
    handle.flush();
    for range in [
        TimeRange::Between { start: 7, end: 7 },
        TimeRange::Between { start: 9, end: 3 },
        TimeRange::LastBuckets(0),
        // Pre-history: resolvable, but no retained bucket overlaps it.
        TimeRange::Between { start: 0, end: 30 },
    ] {
        let snap = engine.range_capture(&range);
        assert_eq!(snap.rows_processed(), 0, "{range:?}");
        let items: Vec<u64> = vec![1, 2, 3];
        for query in [
            Query::SubsetSum { items: items.clone() },
            Query::Proportion { items: items.clone() },
        ] {
            let QueryAnswer::Estimate { estimate, ci } = answer_query(&snap, &query, 0.95) else {
                panic!("{range:?} {query:?} must answer with an estimate")
            };
            assert_eq!(estimate.sum, 0.0, "{range:?} {query:?}");
            assert_eq!(estimate.variance, 0.0, "{range:?} {query:?}");
            assert!(ci.lower.is_finite() && ci.upper.is_finite(), "{range:?} {query:?}");
            assert_eq!((ci.lower, ci.upper), (0.0, 0.0), "{range:?} {query:?}");
        }
        assert_eq!(
            answer_query(&snap, &Query::TopK { k: 5 }, 0.95),
            QueryAnswer::Items(vec![]),
            "{range:?}"
        );
        assert_eq!(
            answer_query(&snap, &Query::FrequentItems { phi: 0.01 }, 0.95),
            QueryAnswer::Items(vec![]),
            "{range:?}"
        );
        assert_eq!(
            answer_query(&snap, &Query::RankQuantile { q: 0.5 }, 0.95),
            QueryAnswer::Rank(None),
            "{range:?}"
        );
        assert!(snap.marginals(|item| Some(item % 4)).is_empty(), "{range:?}");
    }
    let _ = engine.finish();
}

#[test]
fn ladder_bearing_checkpoint_restore_continues_bit_compatibly() {
    // A checkpoint taken mid-stream, after wide queries built ladder nodes,
    // writes plain bucket rings (frame kind 6): the ladder is derived state.
    // The restored engine, rebuilding its ladder on demand, must continue
    // bit-compatibly with the uninterrupted one across *wide* ranges — the
    // answers that actually travel through the ladder and its span-derived
    // seeds — and the range cache must never serve a pre-restore snapshot
    // (every incarnation starts with an empty cache).
    let dir = std::env::temp_dir().join(format!("uss-ladder-ckpt-{}", std::process::id()));
    let config = TemporalConfig::new(2, 32, 21, 5, 16)
        .with_retention(2, 2)
        .with_batch_rows(64);
    let first: Vec<(u64, u64)> = (0..6_000u64).map(|i| (i % 90, i / 50)).collect();
    let second: Vec<(u64, u64)> = (0..6_000u64).map(|i| ((i * 3) % 90, 120 + i / 50)).collect();

    let uninterrupted = TemporalIngestEngine::new(config);
    let mut handle = uninterrupted.handle();
    handle.offer_batch_at(&first);
    handle.flush();
    // A wide pre-checkpoint query builds ladder nodes in every shard (and
    // advances the salt counter), so the checkpoint is taken with a built
    // ladder. Cached too: the restored engine must not reuse it.
    let wide = TimeRange::LastBuckets(12);
    let pre = uninterrupted.range_capture(&wide);
    assert!(pre.rows_processed() > 0);
    uninterrupted.checkpoint(&dir).unwrap();
    handle.offer_batch_at(&second);
    handle.flush();
    drop(handle);

    // The shard files are plain bucket rings, without the ladder.
    for shard in 0..config.shards {
        let bytes = std::fs::read(dir.join(TemporalIngestEngine::shard_file_name(shard))).unwrap();
        assert_eq!(
            uss_core::persist::peek_kind(&bytes).unwrap(),
            uss_core::persist::SketchKind::TemporalShard,
            "shard {shard}"
        );
    }

    let restored = TemporalIngestEngine::restore(&dir, config).unwrap();
    // The cache regression: this capture carries the *same* (range, rows)
    // key the pre-checkpoint capture was cached under, but the restored
    // incarnation must fold fresh — its own salt draw, not the old bytes.
    let cb = restored.range_capture(&wide);
    assert_eq!(cb.rows_processed(), pre.rows_processed());
    assert_ne!(cb.entries(), pre.entries(), "restored capture replayed a stale slot");
    // The fresh incarnation's cache works on its own terms.
    assert!(Arc::ptr_eq(&cb, &restored.range_capture(&wide)));
    // Keep the salt counters in step for the bit-compat comparison below.
    let _ = uninterrupted.range_snapshot(&wide);

    let mut handle = restored.handle();
    handle.offer_batch_at(&second);
    handle.flush();
    drop(handle);

    // Wide (ladder-served) and narrow (raw) post-checkpoint answers continue
    // the same salted sequence bit for bit.
    for range in [
        TimeRange::LastBuckets(12),
        TimeRange::LastBuckets(16),
        TimeRange::LastBuckets(1),
        TimeRange::All,
    ] {
        let a = uninterrupted.range_snapshot(&range);
        let b = restored.range_snapshot(&range);
        assert_eq!(a.entries(), b.entries(), "{range:?}");
        assert_eq!(a.rows_processed(), b.rows_processed(), "{range:?}");
    }
    // The capture path agrees at the new watermark too.
    let ca = uninterrupted.range_capture(&wide);
    let cc = restored.range_capture(&wide);
    assert_eq!(ca.entries(), cc.entries());
    std::fs::remove_dir_all(&dir).unwrap();
    let _ = uninterrupted.finish();
    let _ = restored.finish();
}

#[test]
fn decayed_sketch_serves_through_the_query_layer() {
    // The smooth-decay alternative to hard windows: a DecayedSpaceSaving shared
    // with a producer through an RwLock, captured at its last update time and
    // answered through the same typed queries.
    let shared = Arc::new(parking_lot::RwLock::new(DecayedSpaceSaving::with_seed(
        64, 0.01, 3,
    )));
    {
        let mut sketch = shared.write();
        for t in 0..200u64 {
            for i in 0..20u64 {
                sketch.offer_at(i % 10, t as f64);
            }
        }
    }
    let capture = || {
        let sketch = shared.read();
        sketch.snapshot_at(sketch.last_time())
    };
    // The captured snapshot is the decayed state at the last update time.
    let snap = capture();
    let direct = shared.read().snapshot_at(shared.read().last_time());
    assert_eq!(
        answer_query(&snap, &Query::TopK { k: 5 }, 0.95),
        QueryAnswer::Items(direct.top_k(5))
    );
    let QueryAnswer::Estimate { estimate, ci } =
        answer_query(&snap, &Query::SubsetSum { items: (0..5).collect() }, 0.95)
    else {
        panic!("subset sum must answer with an estimate")
    };
    assert!(estimate.sum > 0.0 && ci.upper >= ci.lower);
    // Recency: a new heavy item offered much later dominates the decayed top-k
    // of a fresh capture, even though older items have more raw occurrences.
    {
        let mut sketch = shared.write();
        for _ in 0..300 {
            sketch.offer_at(777, 900.0);
        }
    }
    let snap = capture();
    assert_eq!(snap.top_k(1)[0].0, 777);
    let rank = answer_query(&snap, &Query::RankQuantile { q: 0.0 }, 0.95);
    assert_eq!(rank, QueryAnswer::Rank(Some(snap.top_k(1)[0])));
}

#[test]
fn decayed_capture_normalises_min_count_consistently() {
    let mut sketch = DecayedSpaceSaving::with_seed(4, 0.1, 5);
    for i in 0..200u64 {
        sketch.offer_at(i % 20, i as f64 * 0.5);
    }
    let snap = sketch.snapshot_at(sketch.last_time());
    // min_count must be in the same (decayed) units as the entries: no entry
    // may fall below it minus float noise.
    let min_entry = snap
        .entries()
        .iter()
        .map(|(_, c)| *c)
        .fold(f64::INFINITY, f64::min);
    assert!(snap.min_count() <= min_entry + 1e-9);
    assert!(snap.min_count() > 0.0);
    assert_eq!(snap.rows_processed(), 200);
}
