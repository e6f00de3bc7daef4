//! Distributed sketching: map-reduce style sharded ingestion plus unbiased merging.
//!
//! Section 5.5 motivates the unbiased merge by distributed computation: each mapper
//! sketches its partition of the stream independently, and only the small sketches
//! cross the network to be merged at a reducer. This module is the deterministic
//! map-reduce convenience wrapper over the live [`crate::engine`]: each partition is
//! streamed to its own engine shard (one OS thread per partition, combiner disabled so
//! every mapper sketch is row-for-row identical to sequential ingestion), and the
//! shard results are folded together with the unbiased PPS merge. The algorithmic
//! content (what is computed, and that it stays unbiased) is identical to a real
//! deployment; only the transport differs. For continuous multi-producer ingestion
//! with queries *during* the stream, use [`crate::engine::ShardedIngestEngine`]
//! directly.

use crate::engine::{EngineConfig, ShardedIngestEngine};
use crate::merge::{fold_unbiased, FOLD_MERGE_SALT, FOLD_OUT_SALT};
use crate::space_saving::{UnbiasedSpaceSaving, WeightedSpaceSaving};
use crate::traits::StreamSketch;

/// Configuration for sharded sketching.
#[derive(Debug, Clone, Copy)]
pub struct DistributedSketcher {
    /// Number of bins per mapper sketch (and in the merged result).
    pub capacity: usize,
    /// Base RNG seed; mapper `i` uses `seed + i`, the reducer uses `seed ^ FOLD_MERGE_SALT`.
    pub seed: u64,
}

impl DistributedSketcher {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self { capacity, seed }
    }

    /// Rows per batch when streaming a partition to its engine shard.
    const FEED_BATCH_ROWS: usize = 8192;

    /// Sketches each partition on its own engine shard and merges the per-partition
    /// sketches into a single weighted sketch answering queries over the union of
    /// partitions.
    ///
    /// Mapper `i` is engine shard `i` (seeded `seed + i`, combiner disabled), so the
    /// result is identical to sketching each partition sequentially and folding with
    /// [`reduce`](Self::reduce).
    #[must_use]
    pub fn sketch_partitions(&self, partitions: &[Vec<u64>]) -> WeightedSpaceSaving {
        if partitions.is_empty() {
            return self.reduce(std::iter::empty());
        }
        let config = EngineConfig::new(partitions.len(), self.capacity, self.seed)
            .with_combiner_items(0)
            .with_batch_rows(Self::FEED_BATCH_ROWS);
        let engine = ShardedIngestEngine::new(config);
        // One feeding thread per partition, so the shard workers sketch all
        // partitions concurrently (a single feeder would stall shard i+1 behind
        // shard i's bounded queue).
        std::thread::scope(|scope| {
            for (shard, partition) in partitions.iter().enumerate() {
                let engine = &engine;
                scope.spawn(move || {
                    for chunk in partition.chunks(Self::FEED_BATCH_ROWS) {
                        engine.ingest_to_shard(shard, chunk.to_vec());
                    }
                });
            }
        });
        engine.finish()
    }

    /// Merges an iterator of mapper sketches (the reduce step), preserving
    /// unbiasedness at every fold.
    #[must_use]
    pub fn reduce<I>(&self, sketches: I) -> WeightedSpaceSaving
    where
        I: IntoIterator<Item = UnbiasedSpaceSaving>,
    {
        fold_unbiased(
            self.capacity,
            self.seed ^ FOLD_MERGE_SALT,
            self.seed ^ FOLD_OUT_SALT,
            sketches
                .into_iter()
                .map(|sketch| (sketch.entries(), sketch.rows_processed())),
        )
    }

    /// The reduce step over *files*: folds N persisted shard sketches into one
    /// queryable weighted sketch with the unbiased PPS merge, in path order. This
    /// is the multi-node story [`crate::persist`] opens: every node
    /// [`checkpoint`](crate::engine::ShardedIngestEngine::checkpoint)s (or
    /// [`persist::save_unbiased`](crate::persist::save_unbiased)s) its shard
    /// locally, ships the small files, and any node folds them later — by
    /// Theorem 2 the folded result is as unbiased as a live merge of the same
    /// sketches. Accepts every sketch frame kind interchangeably — engine shard
    /// files, full unbiased or weighted sketches, and cold snapshots (the fold
    /// only needs entries and row counts); only a checkpoint manifest is
    /// rejected.
    ///
    /// # Errors
    ///
    /// [`PersistError`](crate::persist::PersistError) if a file cannot be read,
    /// fails checksum/format validation, or holds a checkpoint manifest instead
    /// of a sketch.
    pub fn merge_files<P, I>(&self, paths: I) -> Result<WeightedSpaceSaving, crate::persist::PersistError>
    where
        P: AsRef<std::path::Path>,
        I: IntoIterator<Item = P>,
    {
        use crate::persist::{self, PersistError, SketchKind};
        let mut reports = Vec::new();
        for path in paths {
            let path = path.as_ref();
            let bytes = std::fs::read(path)?;
            let (entries, rows) = match persist::peek_kind(&bytes)? {
                SketchKind::Snapshot => {
                    let snap = persist::decode_snapshot(&bytes)?;
                    (snap.entries().to_vec(), snap.rows_processed())
                }
                SketchKind::Unbiased => {
                    let sketch = persist::decode_unbiased(&bytes)?;
                    (sketch.entries(), sketch.rows_processed())
                }
                SketchKind::Weighted => {
                    let sketch = persist::decode_weighted(&bytes)?;
                    (sketch.entries(), sketch.rows_processed())
                }
                SketchKind::EngineShard => {
                    let sketch = persist::decode_shard(&bytes)?.2;
                    (sketch.entries(), sketch.rows_processed())
                }
                SketchKind::Decayed => {
                    // Decayed counts as of the sketch's last update; merging
                    // mixes decayed units with raw ones, which is the caller's
                    // call to make — the fold itself stays mass-preserving.
                    let sketch = persist::decode_decayed(&bytes)?;
                    let snap = sketch.snapshot_at(sketch.last_time());
                    (snap.entries().to_vec(), snap.rows_processed())
                }
                SketchKind::TemporalShard | SketchKind::TemporalLadderShard => {
                    // A bucket ring folds to its whole retained history first.
                    let (shard, meta, store) = persist::decode_temporal_shard(&bytes)?;
                    let seed = meta.seed.wrapping_add(shard);
                    let folded = store.fold_range(0, u64::MAX, seed ^ FOLD_MERGE_SALT, seed ^ FOLD_OUT_SALT);
                    (folded.entries(), folded.rows_processed())
                }
                kind @ (SketchKind::Manifest | SketchKind::TemporalManifest) => {
                    return Err(PersistError::Corrupt(format!(
                        "{} is a {kind}, not a sketch; pass the shard files",
                        path.display()
                    )))
                }
            };
            reports.push((entries, rows));
        }
        Ok(fold_unbiased(
            self.capacity,
            self.seed ^ FOLD_MERGE_SALT,
            self.seed ^ FOLD_OUT_SALT,
            reports,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partitions() -> Vec<Vec<u64>> {
        // Four partitions with overlapping heavy items and disjoint tails.
        (0..4usize)
            .map(|p| {
                let mut v = Vec::new();
                for i in 0..3000u64 {
                    if i % 3 == 0 {
                        v.push(1); // globally heavy
                    } else if i % 3 == 1 {
                        v.push(2 + p as u64); // heavy within the partition
                    } else {
                        v.push(1000 + p as u64 * 10_000 + i); // unique tail
                    }
                }
                v
            })
            .collect()
    }

    #[test]
    fn sharded_sketch_covers_all_rows() {
        let sketcher = DistributedSketcher::new(50, 7);
        let parts = partitions();
        let total_rows: usize = parts.iter().map(Vec::len).sum();
        let merged = sketcher.sketch_partitions(&parts);
        assert_eq!(merged.rows_processed(), total_rows as u64);
        assert!(merged.retained_len() <= 50);
    }

    #[test]
    fn global_heavy_hitter_is_found_with_accurate_count() {
        let sketcher = DistributedSketcher::new(50, 3);
        let parts = partitions();
        let truth = parts
            .iter()
            .flatten()
            .filter(|&&i| i == 1)
            .count() as f64;
        let merged = sketcher.sketch_partitions(&parts);
        let est = merged.estimate(1);
        assert!(
            (est - truth).abs() / truth < 0.15,
            "estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn distributed_result_matches_single_sketch_statistically() {
        // The subset sum over the per-partition heavy items should be estimated
        // unbiasedly; average over several seeds.
        let parts = partitions();
        let truth: f64 = parts
            .iter()
            .flatten()
            .filter(|&&i| (2..=5).contains(&i))
            .count() as f64;
        let reps = 60;
        let mut sum = 0.0;
        for seed in 0..reps {
            let sketcher = DistributedSketcher::new(40, seed);
            let merged = sketcher.sketch_partitions(&parts);
            sum += merged
                .entries()
                .iter()
                .filter(|(i, _)| (2..=5).contains(i))
                .map(|(_, c)| c)
                .sum::<f64>();
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn sketch_partitions_answers_like_a_sequential_reduce() {
        use crate::query::{answer_query, Query};
        let sketcher = DistributedSketcher::new(50, 11);
        let parts = partitions();
        let sharded = sketcher.sketch_partitions(&parts).snapshot();
        // Mapper i sketched sequentially under seed + i, then reduced: the
        // same sketches and fold seeds, so the same bits.
        let sequential = sketcher
            .reduce(parts.iter().enumerate().map(|(i, part)| {
                let mut sketch = UnbiasedSpaceSaving::with_seed(50, 11 + i as u64);
                sketch.offer_batch(part);
                sketch
            }))
            .snapshot();
        assert_eq!(sharded, sequential);
        for query in [Query::SubsetSum { items: vec![1] }, Query::TopK { k: 5 }] {
            assert_eq!(
                answer_query(&sharded, &query, 0.95),
                answer_query(&sequential, &query, 0.95)
            );
        }
    }

    #[test]
    fn merge_files_is_bit_identical_to_a_live_reduce() {
        use crate::traits::StreamSketch as _;
        // Sketch three partitions, persist each mapper sketch, and fold the files:
        // same seeds on both paths, so the file fold must equal the live fold
        // exactly, not just statistically.
        let sketches: Vec<UnbiasedSpaceSaving> = (0..3u64)
            .map(|p| {
                let mut s = UnbiasedSpaceSaving::with_seed(24, 100 + p);
                for i in 0..2_000u64 {
                    s.offer(p * 1_000 + i % (60 + p * 7));
                }
                s
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("uss-merge-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<_> = sketches
            .iter()
            .enumerate()
            .map(|(i, sketch)| {
                let path = dir.join(format!("mapper-{i}.uss"));
                crate::persist::save_unbiased(&path, sketch).unwrap();
                path
            })
            .collect();

        let sketcher = DistributedSketcher::new(32, 5);
        let live = sketcher.reduce(sketches);
        let from_files = sketcher.merge_files(&paths).unwrap();
        assert_eq!(from_files.entries(), live.entries());
        assert_eq!(from_files.rows_processed(), live.rows_processed());

        // A manifest (or any non-sketch frame) in the path list is an error.
        let manifest_path = dir.join("manifest.uss");
        let manifest = crate::persist::EngineManifest {
            meta: crate::persist::EngineMeta {
                shards: 1,
                capacity: 32,
                seed: 5,
            },
            snapshots: 0,
            rows: 0,
        };
        crate::persist::write_file(&manifest_path, &crate::persist::encode_manifest(&manifest))
            .unwrap();
        assert!(sketcher.merge_files([&manifest_path]).is_err());

        // Weighted and snapshot frames are accepted interchangeably: the fold
        // only needs entries and row counts.
        let weighted_path = dir.join("weighted.uss");
        crate::persist::save_weighted(&weighted_path, &live).unwrap();
        let snap_path = dir.join("snap.uss");
        crate::persist::save_snapshot(&snap_path, &live.snapshot()).unwrap();
        for path in [&weighted_path, &snap_path] {
            let folded = sketcher.merge_files([path]).unwrap();
            assert_eq!(folded.rows_processed(), live.rows_processed());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reduce_of_empty_iterator_is_empty() {
        let sketcher = DistributedSketcher::new(10, 1);
        let merged = sketcher.reduce(std::iter::empty());
        assert_eq!(merged.retained_len(), 0);
        assert_eq!(merged.rows_processed(), 0);
    }

    #[test]
    fn single_partition_equals_plain_sketching_rows() {
        let sketcher = DistributedSketcher::new(20, 5);
        let part: Vec<u64> = (0..500u64).map(|i| i % 37).collect();
        let merged = sketcher.sketch_partitions(std::slice::from_ref(&part));
        assert_eq!(merged.rows_processed(), 500);
        let mass: f64 = merged.entries().iter().map(|(_, c)| c).sum();
        assert!((mass - 500.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = DistributedSketcher::new(0, 1);
    }
}
