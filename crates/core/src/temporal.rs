//! Temporal sketching: windowed ingest, time-range queries, tiered retention.
//!
//! The rest of this crate answers queries over an *entire* stream; this module
//! partitions the stream by time so the dominant monitoring shapes — "top-k over
//! the last hour", "subset sum for yesterday vs. today" — become answerable from
//! the same sketches. It is the hard-window counterpart to the smooth forward
//! decay of [`crate::space_saving::DecayedSpaceSaving`] (the paper's section 5.3
//! observation that the reduction step is a sampling operation and can be swapped
//! for a time-aware one): a window query weights every in-range row 1 and every
//! out-of-range row 0, where forward decay weights rows by `exp(-λ·age)`.
//!
//! Three layers:
//!
//! * [`WindowedSketchStore`] — a single-threaded ring of per-bucket
//!   [`UnbiasedSpaceSaving`] sketches. Rows carry a `u64` timestamp; bucket
//!   `ts / bucket_width` holds the rows of one time slice. The newest
//!   `fine_buckets` buckets stay *fine* (full resumable sketches); older buckets
//!   expire into coarser **tiers**: each tier holds up to `tier_factor - 1`
//!   buckets and compacts groups of `tier_factor` into one bucket of the next
//!   tier with [`compact_fold`]: an exact per-item sum of the group, then one
//!   unbiased PPS reduction ([`crate::merge::fold_unbiased_multiway`]), so
//!   every compacted count stays unbiased (Theorem 2 applies once per
//!   compaction). Buckets that age past the last tier accumulate into a single
//!   *terminal* bucket, compacted the same way. Total memory is therefore
//!   bounded by `(fine_buckets + tiers · (tier_factor - 1) + 1) · capacity`
//!   entries per shard, while the whole history stays queryable — accuracy
//!   degrades gracefully with age: a range query is answered at the granularity
//!   of the retained buckets, so resolution coarsens by `tier_factor` per tier.
//! * [`TemporalIngestEngine`] — the concurrent engine, mirroring
//!   [`crate::engine::ShardedIngestEngine`]: one [`WindowedSketchStore`] per
//!   worker shard, timestamped rows routed by item hash through cloneable
//!   batching [`TemporalIngestHandle`]s, window rotation and compaction running
//!   inside the workers (no locks on the ingest path). Workers, handles,
//!   quiesce cuts and the checkpoint fan-out are the shard runtime both
//!   engines share; its contract is documented once, in `shard.rs`.
//! * Time-range queries — [`TemporalIngestEngine::range_snapshot`] folds every
//!   retained bucket overlapping a [`TimeRange`] across all shards with the
//!   unbiased PPS merge, using the engine's salted snapshot-seed sequence, so a
//!   range answer is exactly the kind of merged sketch a
//!   [`crate::engine::ShardedIngestEngine::snapshot`] produces (equation-5
//!   variance and all). [`TemporalIngestEngine::range_capture`] returns a
//!   range's snapshot behind an `Arc`, so [`crate::query::answer_query`]
//!   answers all five [`crate::query::Query`] variants (and
//!   [`SketchSnapshot::marginals`] the group-by) over any range; a small
//!   merged-range cache makes repeated captures at the same ingest watermark
//!   cheap *and* mutually consistent. When every row lands in one
//!   bucket, a whole-stream range answer is **bit-identical** to the
//!   non-temporal engine's snapshot under the same seeds.
//!
//! Late rows (older than the fine window) are clamped into the oldest retained
//! fine bucket — mass is never dropped, the time smear is bounded by the fine
//! window, and [`WindowedSketchStore::late_rows`] counts the clamps.
//! In-window out-of-order rows land in their true bucket exactly.
//!
//! # The dyadic range-merge ladder
//!
//! A naive range fold touches every overlapping bucket, so wide ranges cost
//! O(window) unbiased merges *per query*. Each store therefore maintains a
//! **dyadic ladder** over the sealed part of its fine window — a segment-tree
//! of pre-merged nodes, one per aligned power-of-two span: level `ℓ ≥ 1` holds
//! at most `(fine_buckets − 1) / 2^ℓ` nodes, each covering fine-bucket span
//! `[s, s + 2^ℓ)` with `s` a multiple of `2^ℓ`, built by one unbiased PPS fold
//! of its two children (level-1 nodes fold two fine leaves). Only *sealed*
//! buckets — strictly older than the newest — are covered, so the
//! still-ingesting bucket never invalidates anything. Nodes are built
//! incrementally: the shard worker builds one node per idle slot between
//! batches (rotation only retires expired nodes, keeping the ingest path
//! cheap), and a range query repairs any node it needs on demand. A node's
//! contents are a *deterministic* function of the current leaf contents — node
//! folds are seeded from the base seed and the span alone — so when an
//! out-of-order or late-clamped row mutates a sealed bucket, the ≤ 1 covering
//! node per level is dropped and rebuilt lazily.
//!
//! Query decomposition is the classical dyadic one: any fine-bucket range
//! `[start, end)` splits into O(log fine_buckets) maximal aligned nodes plus
//! boundary leaves. Each shard then pre-merges the selected reports (nodes +
//! leaves + overlapping tier/terminal buckets) into a **single** span report:
//! it sums them per item into a map pre-sized to their total entry count and
//! hands that list straight to one [`crate::reduction::pps_reduce`] under a
//! span-derived seed, so the report holds at most `capacity` entries and a
//! repeat over unchanged leaves reproduces it bit for bit. The engine then
//! folds the one-report-per-shard set without a combine: items are routed by
//! [`crate::engine::shard_of`], so shard reports are item-disjoint and are
//! simply concatenated, reduced once more by PPS under the engine's salted
//! snapshot-seed sequence, and loaded into the answer sketch (whose load
//! still checks finite counts, at most `capacity` entries and no duplicates;
//! restore refuses a shard file holding another shard's items). A wide-range
//! query therefore costs O(shards) merge work instead of O(shards · window),
//! flat in the span width. Reducing at the shards as well as at the engine
//! keeps the serial engine reduction at O(shards · capacity) entries;
//! reducing only at the engine would grow it with the distinct items of the
//! span.
//!
//! Statistically nothing changes: every ladder node is produced by the same
//! Theorem-2 PPS reduction as a tier compaction, so `E[node count] = `true
//! in-span count for every item, and a fold of unbiased nodes is unbiased by
//! linearity — with *fewer* sampling stages than the leaf-by-leaf fold (a
//! depth-log tree instead of a length-n chain), so per-item variance can only
//! shrink. Equation-5 variance/CI machinery on a ladder-served snapshot stays
//! honest; `temporal_properties.rs` locks this with a z-test over seeds
//! against leaf folds. Ladder memory is bounded by `fine_buckets · capacity`
//! extra entries per shard (the levels form a geometric series). Ranges that
//! resolve to a single bucket per shard keep the exact legacy fold, so
//! single-bucket answers (and the one-bucket bit-identity guarantee) are
//! byte-for-byte unchanged.
//!
//! The whole ring checkpoints and restores through [`crate::persist`] (one
//! bucket-ring frame per shard plus a temporal manifest), bit-compatibly: fine
//! buckets keep their RNG and counter-structure images, so a restored engine
//! continues exactly as an uninterrupted one would. The ladder is not
//! written: every node is a pure function of the leaves the frame already
//! holds, so a restored store starts with an empty ladder, the idle builder
//! refills it and query-time repair builds any node still missing.
//!
//! ```
//! use uss_core::prelude::*;
//! use uss_core::temporal::{TemporalConfig, TemporalIngestEngine, TimeRange};
//!
//! // 2 shards, 256 bins, 10-tick buckets, 6 fine buckets retained.
//! let engine = TemporalIngestEngine::new(TemporalConfig::new(2, 256, 7, 10, 6));
//! let mut handle = engine.handle();
//! for ts in 0u64..100 {
//!     for row in 0u64..200 {
//!         handle.offer_at(row % 50, ts);
//!     }
//! }
//! handle.flush();
//!
//! // Answer typed queries over a sliding window.
//! let window = engine.range_capture(&TimeRange::LastBuckets(3));
//! let QueryAnswer::Items(top) = answer_query(&window, &Query::TopK { k: 5 }, 0.95) else {
//!     unreachable!("top-k answers with items")
//! };
//! assert_eq!(top.len(), 5);
//!
//! // A whole-history range still answers (coarser with age).
//! let all = engine.range_snapshot(&TimeRange::All);
//! assert_eq!(all.rows_processed(), 100 * 200);
//! let _ = engine.finish();
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{shard_of, EngineError};
use crate::estimator::SketchSnapshot;
use crate::hash::{splitmix64, FxHashMap};
use crate::merge::{
    fold_unbiased, fold_unbiased_multiway, FOLD_MERGE_SALT, FOLD_OUT_SALT, LADDER_MERGE_SALT,
    LADDER_OUT_SALT, SPAN_MERGE_SALT, TIER_MERGE_SALT, TIER_OUT_SALT,
};
use crate::metrics::{EngineMetrics, TemporalMetrics};
use crate::persist::{self, PersistError};
use crate::reduction::pps_reduce;
use crate::shard::{self, ShardHandle, ShardRuntime, ShardState, ShardWorker};
use crate::space_saving::{UnbiasedSpaceSaving, WeightedSpaceSaving};
use crate::traits::StreamSketch;

use worker::{TemporalRequest, TemporalShard};

/// Why a [`WindowConfig`] cannot drive a store. Construction through
/// [`WindowConfig::new`] and the builders rejects these values eagerly, but the
/// fields are public — and a serving daemon builds configs from *client-supplied*
/// bytes — so [`WindowConfig::validate`] re-checks and surfaces this typed error
/// instead of panicking, mirroring [`crate::engine::EngineConfigError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WindowConfigError {
    /// `capacity == 0`: bucket sketches cannot hold zero counters.
    ZeroCapacity,
    /// `bucket_width == 0`: every timestamp would divide into a single
    /// degenerate bucket index by zero.
    ZeroBucketWidth,
    /// `fine_buckets == 0`: there would be no bucket to ingest into.
    ZeroFineBuckets,
    /// `tier_factor < 2`: a tier must compact groups of at least two buckets,
    /// or compaction would never terminate.
    TierFactorTooSmall,
}

impl std::fmt::Display for WindowConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroCapacity => write!(f, "capacity must be positive"),
            Self::ZeroBucketWidth => write!(f, "bucket_width must be positive"),
            Self::ZeroFineBuckets => write!(f, "fine_buckets must be positive"),
            Self::TierFactorTooSmall => write!(f, "tier_factor must be at least 2"),
        }
    }
}

impl std::error::Error for WindowConfigError {}

/// Why a [`TemporalConfig`] cannot drive an engine; the temporal analogue of
/// [`crate::engine::EngineConfigError`], returned by [`TemporalConfig::validate`]
/// and [`TemporalIngestEngine::try_new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TemporalConfigError {
    /// `shards == 0`: there would be no worker to route any row to.
    ZeroShards,
    /// `queue_depth == 0`: every send would block forever on a zero-slot queue.
    ZeroQueueDepth,
    /// `batch_rows == 0`: a handle would never accumulate a sendable batch.
    ZeroBatchRows,
    /// The per-shard window geometry is invalid.
    Window(WindowConfigError),
}

impl std::fmt::Display for TemporalConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "engine needs at least one shard"),
            Self::ZeroQueueDepth => write!(f, "queue_depth must be positive"),
            Self::ZeroBatchRows => write!(f, "batch_rows must be positive"),
            Self::Window(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for TemporalConfigError {}

impl From<WindowConfigError> for TemporalConfigError {
    fn from(err: WindowConfigError) -> Self {
        Self::Window(err)
    }
}

/// Per-shard window configuration: bucket geometry and retention tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Bins per bucket sketch (and per merged range answer).
    pub capacity: usize,
    /// Base RNG seed. Bucket 0 of a store seeded `s` sketches with seed `s`
    /// exactly (which is what makes a one-bucket store bit-identical to a plain
    /// sketch with that seed); later buckets derive their seeds from `s` and the
    /// bucket index.
    pub seed: u64,
    /// Time units per fine bucket. Bucket `i` covers `[i·width, (i+1)·width)`.
    pub bucket_width: u64,
    /// Number of fine (full-sketch) buckets retained before expiry.
    pub fine_buckets: usize,
    /// Buckets per tier before a group compacts into the next tier.
    pub tier_factor: usize,
    /// Number of retention tiers between the fine ring and the terminal bucket.
    /// `0` sends expired fine buckets straight to the terminal bucket.
    pub tiers: usize,
}

impl WindowConfig {
    /// A window configuration with the default retention (2 tiers, factor 4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity`, `bucket_width` or `fine_buckets` is zero.
    #[must_use]
    pub fn new(capacity: usize, seed: u64, bucket_width: u64, fine_buckets: usize) -> Self {
        match Self::try_new(capacity, seed, bucket_width, fine_buckets) {
            Ok(config) => config,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`new`](Self::new), for configurations built from untrusted
    /// input (a daemon's client-supplied stream specs): returns the typed error
    /// instead of panicking, mirroring [`crate::engine::EngineConfig`]'s
    /// `try_new`.
    ///
    /// # Errors
    ///
    /// [`WindowConfigError`] when `capacity`, `bucket_width` or `fine_buckets`
    /// is zero.
    pub fn try_new(
        capacity: usize,
        seed: u64,
        bucket_width: u64,
        fine_buckets: usize,
    ) -> Result<Self, WindowConfigError> {
        let config = Self {
            capacity,
            seed,
            bucket_width,
            fine_buckets,
            tier_factor: 4,
            tiers: 2,
        };
        config.validate()?;
        Ok(config)
    }

    /// Overrides the retention geometry: `tiers` coarse tiers, each compacting
    /// groups of `tier_factor` buckets into the next.
    ///
    /// # Panics
    ///
    /// Panics if `tier_factor < 2`.
    #[must_use]
    pub fn with_retention(mut self, tiers: usize, tier_factor: usize) -> Self {
        assert!(tier_factor >= 2, "tier_factor must be at least 2");
        self.tiers = tiers;
        self.tier_factor = tier_factor;
        self
    }

    /// Checks the configuration for values no store can run with. The fields
    /// are public (and a daemon fills them from client bytes), so stores and
    /// engines re-validate before building anything.
    ///
    /// # Errors
    ///
    /// The first [`WindowConfigError`] found, checking capacity, bucket width,
    /// fine buckets, then tier factor.
    pub fn validate(&self) -> Result<(), WindowConfigError> {
        if self.capacity == 0 {
            return Err(WindowConfigError::ZeroCapacity);
        }
        if self.bucket_width == 0 {
            return Err(WindowConfigError::ZeroBucketWidth);
        }
        if self.fine_buckets == 0 {
            return Err(WindowConfigError::ZeroFineBuckets);
        }
        if self.tier_factor < 2 {
            return Err(WindowConfigError::TierFactorTooSmall);
        }
        Ok(())
    }
}

/// The entries and row count of one retained bucket, as reported to a range
/// fold. The temporal analogue of the engine's internal shard report.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketReport {
    /// The bucket's retained `(item, count)` pairs.
    pub entries: Vec<(u64, f64)>,
    /// Rows absorbed by the bucket.
    pub rows: u64,
}

/// A compacted (coarse-tier or terminal) bucket: an entry list covering a span
/// of fine-bucket indices. Compacted buckets are never ingested into again, so
/// they carry no RNG or counter structure — just the unbiased merged entries.
#[derive(Debug, Clone, PartialEq)]
pub struct TierBucket {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) entries: Vec<(u64, f64)>,
    pub(crate) rows: u64,
}

impl TierBucket {
    /// First fine-bucket index covered.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last fine-bucket index covered.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The merged `(item, count)` entries.
    #[must_use]
    pub fn entries(&self) -> &[(u64, f64)] {
        &self.entries
    }

    /// Rows covered by the bucket.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// Compacts a group of bucket reports covering fine-bucket span `[start, end)`
/// into one [`TierBucket`] in one sampling stage: the parts' counts are summed
/// exactly per item, then reduced once by PPS to at most `capacity` entries
/// ([`crate::merge::fold_unbiased_multiway`]). Rows are kept exactly, mass is
/// kept to float rounding, and every item's expected count equals its exact
/// sum (Theorem 2 applied once), so the tier bucket estimates the same totals
/// as a leaf-by-leaf fold with one PPS stage instead of `parts - 1`. The seeds
/// derive deterministically from `base_seed` and the span, so compaction is
/// exactly reproducible: compacting the same bucket contents over the same
/// span always yields the same entries (the tier-compaction equivalence locked
/// by tests). Engine workers and standalone stores both compact through this
/// one function, so their tiers and terminal buckets agree bit for bit.
#[must_use]
pub fn compact_fold(
    capacity: usize,
    base_seed: u64,
    start: u64,
    end: u64,
    parts: Vec<BucketReport>,
) -> TierBucket {
    let salt = splitmix64(start ^ end.rotate_left(32));
    let merged = fold_unbiased_multiway(
        capacity,
        base_seed ^ TIER_MERGE_SALT ^ salt,
        base_seed ^ TIER_OUT_SALT ^ salt,
        parts.into_iter().map(|b| (b.entries, b.rows)),
    );
    TierBucket {
        start,
        end,
        rows: merged.rows_processed(),
        entries: merged.entries(),
    }
}

/// Folds item-disjoint reports — at most one per shard, so no item appears
/// twice — into one weighted sketch: the lists are concatenated, reduced once
/// by PPS under `merge_seed`, and loaded under `out_seed`. On disjoint inputs
/// the exact combine of [`crate::merge::fold_unbiased_multiway`] would only
/// rebuild the same list, so this is the same estimator with one hash pass
/// fewer; the load still asserts finite counts, at most `capacity` entries
/// and no duplicates.
fn fold_disjoint(
    capacity: usize,
    merge_seed: u64,
    out_seed: u64,
    reports: Vec<BucketReport>,
) -> WeightedSpaceSaving {
    let mut entries = Vec::with_capacity(reports.iter().map(|r| r.entries.len()).sum());
    let mut rows = 0u64;
    for report in reports {
        entries.extend(report.entries);
        rows += report.rows;
    }
    let mut rng = StdRng::seed_from_u64(merge_seed);
    let reduced = pps_reduce(entries, capacity, &mut rng);
    let mut out = WeightedSpaceSaving::with_seed(capacity, out_seed);
    out.load_entries(reduced, rows as f64);
    out
}

/// One fine (still-ingesting) bucket: its index and full resumable sketch.
#[derive(Debug, Clone)]
struct FineBucket {
    index: u64,
    sketch: UnbiasedSpaceSaving,
}

/// Deferred-compaction backlog bound: once this many expired-bucket reports
/// are queued, each further expiry settles one inline so the debt (and its
/// memory) stays bounded even when a worker never sees an idle slot.
const MAX_PENDING_EXPIRED: usize = 64;

/// The deepest ladder level for a window of `fine_buckets`: nodes only cover
/// *sealed* buckets (everything except the newest), so the largest node span
/// is the largest power of two that fits in `fine_buckets - 1`. Zero means no
/// ladder (windows of one or two buckets gain nothing from pre-merging).
fn ladder_max_level(fine_buckets: usize) -> u32 {
    let sealed = fine_buckets.saturating_sub(1);
    if sealed < 2 {
        0
    } else {
        sealed.ilog2()
    }
}

/// The dyadic pre-merge index over a store's sealed fine buckets. See the
/// [module docs](self) for the maintenance and decomposition rules.
#[derive(Debug, Clone)]
struct DyadicLadder {
    /// `levels[ℓ-1]`: the level-`ℓ` nodes, keyed by their aligned start index.
    /// Every node is a [`TierBucket`] covering `[start, start + 2^ℓ)`.
    levels: Vec<BTreeMap<u64, TierBucket>>,
    /// Per level, the idle builder's frontier: aligned spans ending at or
    /// before it have been offered to [`WindowedSketchStore::ensure_node`].
    /// Query-time repair may build beyond it; invalidation may remove nodes
    /// behind it (they are rebuilt on demand).
    built: Vec<u64>,
}

impl DyadicLadder {
    fn new(max_level: u32) -> Self {
        Self {
            levels: vec![BTreeMap::new(); max_level as usize],
            built: vec![0; max_level as usize],
        }
    }
}

/// The RNG seed of the fine bucket at `index` in a store seeded `base_seed`.
/// Bucket 0 uses `base_seed` itself so a one-bucket store is bit-identical to a
/// plain sketch (and a one-bucket temporal engine to the non-temporal engine).
fn bucket_seed(base_seed: u64, index: u64) -> u64 {
    if index == 0 {
        base_seed
    } else {
        base_seed ^ splitmix64(index)
    }
}

/// A time-partitioned sketch store: a ring of fine per-bucket
/// [`UnbiasedSpaceSaving`] sketches with tiered compaction of expired buckets.
/// Single-threaded; the unit the [`TemporalIngestEngine`] runs one-per-shard.
/// See the [module docs](self) for the retention geometry and query semantics.
#[derive(Debug, Clone)]
pub struct WindowedSketchStore {
    config: WindowConfig,
    /// Fine buckets, ascending by index (sparse: only buckets that saw rows).
    fine: VecDeque<FineBucket>,
    /// `tiers[t]` holds spans of `tier_factor^(t+1)` fine buckets (ascending);
    /// higher `t` is coarser and older.
    tiers: Vec<VecDeque<TierBucket>>,
    /// Everything older than the last tier, merged into one bucket.
    terminal: Option<TierBucket>,
    /// The dyadic pre-merge index over the sealed fine buckets. Derived
    /// state: never persisted, rebuilt after a restore.
    ladder: DyadicLadder,
    /// Expired fine-bucket reports whose tier compaction is deferred (engine
    /// workers only; see [`set_defer_compaction`](Self::set_defer_compaction)).
    /// Always settled before any query, checkpoint or clone, so the queue is
    /// pure scheduling state — it never reaches persisted images.
    pending_expired: VecDeque<TierBucket>,
    /// When set, [`expire`](Self::expire) queues reports instead of compacting
    /// them inline; idle-slot [`settle_one`](Self::settle_one) calls (and the
    /// pre-query [`settle_all`](Self::settle_all)) do the tier work instead.
    defer_compaction: bool,
    /// One retired fine-bucket sketch kept for reuse: rotation hands the next
    /// [`make_bucket`](Self::make_bucket) recycled allocations instead of a
    /// fresh `capacity`-sized sketch every window advance.
    spare: Option<UnbiasedSpaceSaving>,
    rows: u64,
    late_rows: u64,
    last_ts: u64,
    /// Engine-wide temporal telemetry (rotations, compactions, ladder churn).
    /// Standalone stores get a private block; engine workers share the
    /// engine's. Never persisted; clones share the same block.
    metrics: Arc<TemporalMetrics>,
    /// Whether a dyadic range walk is currently repairing nodes — ladder
    /// builds under this flag count as query-path repairs, not idle builds.
    query_repair: bool,
}

impl WindowedSketchStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`WindowConfig::validate`]).
    #[must_use]
    pub fn new(config: WindowConfig) -> Self {
        if let Err(err) = config.validate() {
            panic!("{err}");
        }
        Self {
            tiers: (0..config.tiers).map(|_| VecDeque::new()).collect(),
            ladder: DyadicLadder::new(ladder_max_level(config.fine_buckets)),
            pending_expired: VecDeque::new(),
            defer_compaction: false,
            spare: None,
            config,
            fine: VecDeque::new(),
            terminal: None,
            rows: 0,
            late_rows: 0,
            last_ts: 0,
            metrics: Arc::new(TemporalMetrics::new()),
            query_repair: false,
        }
    }

    /// Points the store at a shared telemetry block (the engine's, so every
    /// shard's events land in one set of stream-level counters).
    pub(crate) fn set_metrics(&mut self, metrics: Arc<TemporalMetrics>) {
        self.metrics = metrics;
    }

    /// The store's configuration.
    #[must_use]
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// Total rows offered (fine + compacted + terminal; mass is never dropped).
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.rows
    }

    /// Rows that arrived older than the fine window and were clamped into the
    /// oldest retained fine bucket.
    #[must_use]
    pub fn late_rows(&self) -> u64 {
        self.late_rows
    }

    /// The largest timestamp offered so far (0 before any row).
    #[must_use]
    pub fn last_time(&self) -> u64 {
        self.last_ts
    }

    /// The newest fine-bucket index, or `None` before any row.
    #[must_use]
    pub fn newest_bucket(&self) -> Option<u64> {
        self.fine.back().map(|f| f.index)
    }

    /// The fine buckets currently retained, ascending: `(index, sketch)`.
    pub fn fine_sketches(&self) -> impl Iterator<Item = (u64, &UnbiasedSpaceSaving)> {
        self.fine.iter().map(|f| (f.index, &f.sketch))
    }

    /// The buckets of coarse tier `t` (0 = finest coarse tier), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not below the configured tier count.
    #[must_use]
    pub fn tier_buckets(&self, t: usize) -> Vec<&TierBucket> {
        self.tiers[t].iter().collect()
    }

    /// The terminal bucket holding everything older than the last tier.
    #[must_use]
    pub fn terminal_bucket(&self) -> Option<&TierBucket> {
        self.terminal.as_ref()
    }

    /// Offers one row of `item` stamped `ts`.
    pub fn offer_at(&mut self, item: u64, ts: u64) {
        self.rows += 1;
        let (sketch, late) = self.sketch_for_ts(ts);
        sketch.offer(item);
        if late {
            self.late_rows += 1;
            self.metrics.late_rows.inc();
        }
    }

    /// Offers a batch of unit rows all stamped `ts`, exactly equivalent to
    /// calling [`offer_at`](Self::offer_at) per item in order (the bucket lookup
    /// and rotation run once for the batch).
    ///
    /// The store reads a row's timestamp for two things only: the fine bucket
    /// it resolves to, and the watermark `last_time = max(last_time, ts)`. So
    /// rows with *different* timestamps that all resolve to one bucket may be
    /// offered as one batch stamped with their largest timestamp, and the
    /// store ends bit-identical to per-row offers (sketches, tiers, ladder,
    /// `late_rows`, `last_time` and rows). The engine workers apply blocks
    /// this way.
    pub fn offer_batch_at(&mut self, items: &[u64], ts: u64) {
        if items.is_empty() {
            return;
        }
        self.rows += items.len() as u64;
        let (sketch, late) = self.sketch_for_ts(ts);
        sketch.offer_batch(items);
        if late {
            self.late_rows += items.len() as u64;
            self.metrics.late_rows.add(items.len() as u64);
        }
    }

    /// Resolves the fine bucket for `ts`, rotating the window (and compacting
    /// expired buckets) as needed. Returns the sketch and whether the row was
    /// clamped as late.
    fn sketch_for_ts(&mut self, ts: u64) -> (&mut UnbiasedSpaceSaving, bool) {
        self.last_ts = self.last_ts.max(ts);
        // Clamp to the last *representable* bucket: spans are half-open
        // `[index, index + 1)` and the all-history range ends (exclusively) at
        // `u64::MAX`, so index `u64::MAX` itself could neither form a span nor
        // be covered by any range — a `ts / width == u64::MAX` row (width 1,
        // maximal timestamp) lands in the final representable bucket instead
        // of overflowing span arithmetic or silently escaping every query.
        let b = (ts / self.config.bucket_width).min(u64::MAX - 1);
        let Some(back) = self.fine.back() else {
            let bucket = self.make_bucket(b);
            self.fine.push_back(bucket);
            return (&mut self.fine.back_mut().expect("just pushed").sketch, false);
        };
        let newest = back.index;
        if b == newest {
            return (
                &mut self.fine.back_mut().expect("non-empty").sketch,
                false,
            );
        }
        if b > newest {
            self.metrics.rotations.inc();
            // Advance the window: expire everything that falls out of it.
            let min_live = b.saturating_sub(self.config.fine_buckets as u64 - 1);
            while self.fine.front().is_some_and(|f| f.index < min_live) {
                let expired = self.fine.pop_front().expect("front checked");
                self.expire(expired);
            }
            // Rotation does only cheap ladder work: retire the nodes that fell
            // out of retention. New nodes over the freshly sealed buckets are
            // built in worker idle slots or repaired on demand at query time.
            self.ladder_retire(min_live);
            let bucket = self.make_bucket(b);
            self.fine.push_back(bucket);
            return (&mut self.fine.back_mut().expect("just pushed").sketch, false);
        }
        // Out of order. In-window rows land in their true bucket exactly; rows
        // older than the window clamp into the oldest retained fine bucket.
        // Either way a *sealed* bucket mutates, so the covering ladder nodes
        // are dropped (and rebuilt lazily from the new contents).
        let min_live = newest.saturating_sub(self.config.fine_buckets as u64 - 1);
        if b < min_live {
            let front = self.fine.front().expect("non-empty").index;
            self.ladder_invalidate(front);
            return (
                &mut self.fine.front_mut().expect("non-empty").sketch,
                true,
            );
        }
        self.ladder_invalidate(b);
        match self.fine.binary_search_by_key(&b, |f| f.index) {
            Ok(i) => (&mut self.fine[i].sketch, false),
            Err(i) => {
                let bucket = self.make_bucket(b);
                self.fine.insert(i, bucket);
                (&mut self.fine[i].sketch, false)
            }
        }
    }

    fn make_bucket(&mut self, index: u64) -> FineBucket {
        let seed = bucket_seed(self.config.seed, index);
        // Reuse the last retired bucket's allocations when one is available:
        // the reset is bit-identical to a fresh `with_seed` sketch, so the
        // recycled path is indistinguishable from the allocating one.
        let sketch = match self.spare.take() {
            Some(mut sketch) => {
                sketch.reset_with_seed(seed);
                sketch
            }
            None => UnbiasedSpaceSaving::with_seed(self.config.capacity, seed),
        };
        FineBucket { index, sketch }
    }

    /// Moves an expired fine bucket into the retention tiers (or the deferral
    /// queue) and keeps its sketch allocations for the next rotation.
    fn expire(&mut self, bucket: FineBucket) {
        let report = TierBucket {
            start: bucket.index,
            end: bucket.index + 1,
            rows: bucket.sketch.rows_processed(),
            entries: bucket.sketch.entries(),
        };
        if self.spare.is_none() {
            self.spare = Some(bucket.sketch);
        }
        if self.defer_compaction {
            self.pending_expired.push_back(report);
            // Bound the deferral debt: a store rotating continuously with no
            // idle slots still compacts amortized-O(1) per rotation instead of
            // accumulating an unbounded report backlog.
            if self.pending_expired.len() > MAX_PENDING_EXPIRED {
                self.settle_one();
            }
        } else {
            self.push_tier(0, report);
        }
    }

    /// Switches the store between inline tier compaction (the default, what
    /// every standalone-store caller sees) and deferred compaction, where
    /// [`expire`](Self::expire) queues reports for idle-slot settling. Engine
    /// workers enable deferral; they settle before every query, checkpoint and
    /// shutdown, so the two modes produce byte-identical tier state — the tiers
    /// depend only on the sequence of expired reports, which deferral preserves.
    pub(crate) fn set_defer_compaction(&mut self, defer: bool) {
        self.defer_compaction = defer;
        if !defer {
            self.settle_all();
        }
    }

    /// Compacts the oldest deferred expiry report, if any. Returns whether any
    /// work was done. One call is one bounded unit of idle work: a single
    /// tier-0 push, including whatever compaction cascade it triggers.
    pub(crate) fn settle_one(&mut self) -> bool {
        match self.pending_expired.pop_front() {
            Some(report) => {
                self.push_tier(0, report);
                true
            }
            None => false,
        }
    }

    /// Drains the deferral queue completely. Must run before any observation of
    /// tier state (range reports, clones for checkpoints, the final store).
    pub(crate) fn settle_all(&mut self) {
        while self.settle_one() {}
    }

    /// Pushes a bucket onto tier `t`, compacting a full group into tier `t + 1`
    /// (and ultimately into the terminal bucket).
    fn push_tier(&mut self, t: usize, bucket: TierBucket) {
        if t >= self.config.tiers {
            self.terminal = Some(match self.terminal.take() {
                None => bucket,
                Some(term) => self.compact_group(vec![term, bucket]),
            });
            return;
        }
        self.tiers[t].push_back(bucket);
        if self.tiers[t].len() >= self.config.tier_factor {
            self.metrics.tier_compactions.inc();
            let group: Vec<TierBucket> = self.tiers[t].drain(..).collect();
            let merged = self.compact_group(group);
            self.push_tier(t + 1, merged);
        }
    }

    /// Folds a time-ascending group of buckets into one via [`compact_fold`].
    fn compact_group(&self, group: Vec<TierBucket>) -> TierBucket {
        let start = group.first().map_or(0, |b| b.start);
        let end = group.last().map_or(0, |b| b.end);
        compact_fold(
            self.config.capacity,
            self.config.seed,
            start,
            end,
            group
                .into_iter()
                .map(|b| BucketReport {
                    entries: b.entries,
                    rows: b.rows,
                })
                .collect(),
        )
    }

    /// Every retained bucket overlapping the fine-bucket index range
    /// `[start, end)`, oldest first (terminal, then tiers coarsest-first, then
    /// fine buckets). A compacted bucket is included whenever its span overlaps
    /// the range at all — the documented resolution degradation with age.
    #[must_use]
    pub fn range_reports(&self, start: u64, end: u64) -> Vec<BucketReport> {
        let mut out = Vec::new();
        if start >= end {
            return out;
        }
        let overlaps = |s: u64, e: u64| s < end && e > start;
        if let Some(term) = &self.terminal {
            if overlaps(term.start, term.end) {
                out.push(BucketReport {
                    entries: term.entries.clone(),
                    rows: term.rows,
                });
            }
        }
        for tier in self.tiers.iter().rev() {
            for b in tier {
                if overlaps(b.start, b.end) {
                    out.push(BucketReport {
                        entries: b.entries.clone(),
                        rows: b.rows,
                    });
                }
            }
        }
        for f in &self.fine {
            if overlaps(f.index, f.index + 1) {
                out.push(BucketReport {
                    entries: f.sketch.entries(),
                    rows: f.sketch.rows_processed(),
                });
            }
        }
        out
    }

    /// Folds every retained bucket in `[start, end)` (fine-bucket indices) into
    /// one queryable weighted sketch with the unbiased PPS merge under the given
    /// seeds. The single-store form of the engine's range snapshot.
    #[must_use]
    pub fn fold_range(
        &self,
        start: u64,
        end: u64,
        merge_seed: u64,
        out_seed: u64,
    ) -> WeightedSpaceSaving {
        fold_unbiased(
            self.config.capacity,
            merge_seed,
            out_seed,
            self.range_reports(start, end)
                .into_iter()
                .map(|r| (r.entries, r.rows)),
        )
    }

    /// The fine-bucket index below which nothing is retained as fine, given
    /// the newest index (the window's live floor).
    fn min_live(&self, newest: u64) -> u64 {
        newest.saturating_sub(self.config.fine_buckets as u64 - 1)
    }

    /// The report of the fine bucket at `index`, if one is retained.
    fn leaf_report(&self, index: u64) -> Option<BucketReport> {
        self.fine
            .binary_search_by_key(&index, |f| f.index)
            .ok()
            .map(|i| BucketReport {
                entries: self.fine[i].sketch.entries(),
                rows: self.fine[i].sketch.rows_processed(),
            })
    }

    /// Folds parts into a ladder node over `[start, end)`. Seeded from the
    /// base seed and the span alone, so a node's contents are a deterministic
    /// function of the leaves it covers — rebuildable at any time, on any
    /// restore, to the same bytes.
    fn ladder_node_fold(&self, start: u64, end: u64, parts: Vec<BucketReport>) -> TierBucket {
        let salt = splitmix64(start ^ end.rotate_left(32));
        let merged = fold_unbiased(
            self.config.capacity,
            self.config.seed ^ LADDER_MERGE_SALT ^ salt,
            self.config.seed ^ LADDER_OUT_SALT ^ salt,
            parts.into_iter().map(|b| (b.entries, b.rows)),
        );
        TierBucket {
            start,
            end,
            rows: merged.rows_processed(),
            entries: merged.entries(),
        }
    }

    /// Ensures the level-`level` node at aligned `start` exists, building it
    /// (and any missing children, recursively) from the current leaf contents.
    /// Returns `false` when no such node is buildable (out of alignment, out
    /// of the sealed retained window, or no buckets at all).
    fn ensure_node(&mut self, level: u32, start: u64) -> bool {
        let Some(idx) = (level as usize).checked_sub(1) else {
            return false;
        };
        if idx >= self.ladder.levels.len() {
            return false;
        }
        if self.ladder.levels[idx].contains_key(&start) {
            return true;
        }
        let len = 1u64 << level;
        let Some(newest) = self.newest_bucket() else {
            return false;
        };
        let Some(end) = start.checked_add(len) else {
            return false;
        };
        if !start.is_multiple_of(len) || start < self.min_live(newest) || end > newest {
            return false;
        }
        let mut parts: Vec<BucketReport> = Vec::with_capacity(2);
        if level == 1 {
            for b in [start, start + 1] {
                if let Some(r) = self.leaf_report(b) {
                    parts.push(r);
                }
            }
        } else {
            let half = len / 2;
            for s in [start, start + half] {
                if !self.ensure_node(level - 1, s) {
                    return false;
                }
                let child = &self.ladder.levels[idx - 1][&s];
                // Empty children (spans with no retained leaves) contribute
                // nothing and are skipped, so a node's fold sequence depends
                // only on which covered leaves exist and what they hold.
                if child.rows > 0 || !child.entries.is_empty() {
                    parts.push(BucketReport {
                        entries: child.entries.clone(),
                        rows: child.rows,
                    });
                }
            }
        }
        let node = self.ladder_node_fold(start, end, parts);
        self.ladder.levels[idx].insert(start, node);
        self.metrics.ladder_nodes_built.inc();
        if self.query_repair {
            self.metrics.ladder_repaired_at_query.inc();
        }
        true
    }

    /// Drops every ladder node whose span covers `bucket` (at most one per
    /// level) — called when a sealed bucket's contents change, so existing
    /// nodes always equal the canonical fold of the *current* leaves.
    fn ladder_invalidate(&mut self, bucket: u64) {
        for (idx, level) in self.ladder.levels.iter_mut().enumerate() {
            let len = 1u64 << (idx + 1);
            if level.remove(&(bucket - bucket % len)).is_some() {
                self.metrics.ladder_nodes_invalidated.inc();
            }
        }
    }

    /// Retires ladder nodes that fell out of retention (span reaching below
    /// `min_live`) and advances the idle-build frontier past them.
    fn ladder_retire(&mut self, min_live: u64) {
        for idx in 0..self.ladder.levels.len() {
            let len = 1u64 << (idx + 1);
            // split_off keeps keys >= min_live; anything starting below the
            // floor covers at least one expired bucket.
            let keep = self.ladder.levels[idx].split_off(&min_live);
            self.metrics
                .ladder_nodes_invalidated
                .add(self.ladder.levels[idx].len() as u64);
            self.ladder.levels[idx] = keep;
            let frontier = min_live.checked_next_multiple_of(len).unwrap_or(u64::MAX);
            self.ladder.built[idx] = self.ladder.built[idx].max(frontier);
        }
    }

    /// Builds (at most) one missing ladder node over the sealed window,
    /// bottom level first so parents always find their children. Returns
    /// whether there was anything left to do — the shard worker calls this in
    /// idle slots between batches until the ladder is complete.
    pub(crate) fn ladder_idle_step(&mut self) -> bool {
        let Some(newest) = self.newest_bucket() else {
            return false;
        };
        let min_live = self.min_live(newest);
        for idx in 0..self.ladder.levels.len() {
            let len = 1u64 << (idx + 1);
            let floor = min_live.checked_next_multiple_of(len).unwrap_or(u64::MAX);
            let from = self.ladder.built[idx].max(floor);
            let Some(end) = from.checked_add(len) else {
                continue;
            };
            if end <= newest {
                self.ladder.built[idx] = end;
                let _ = self.ensure_node((idx + 1) as u32, from);
                return true;
            }
        }
        false
    }

    /// Number of ladder nodes currently held, across all levels.
    #[must_use]
    pub fn ladder_node_count(&self) -> usize {
        self.ladder.levels.iter().map(BTreeMap::len).sum()
    }

    /// Resident heap size in bytes: the fine-bucket sketches (and the one
    /// spare kept for reuse) plus every tier, terminal and ladder report.
    /// O(retained buckets), with no per-entry walk. Feeds the
    /// `uss_sketch_memory_bytes` gauge.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        let report = |bucket: &TierBucket| {
            (std::mem::size_of::<TierBucket>()
                + bucket.entries.capacity() * std::mem::size_of::<(u64, f64)>()) as u64
        };
        let sketches: u64 = self
            .fine
            .iter()
            .map(|bucket| &bucket.sketch)
            .chain(&self.spare)
            .map(UnbiasedSpaceSaving::memory_bytes)
            .sum();
        let reports: u64 = self
            .tiers
            .iter()
            .flatten()
            .chain(&self.terminal)
            .chain(self.ladder.levels.iter().flat_map(BTreeMap::values))
            .map(report)
            .sum();
        std::mem::size_of::<Self>() as u64 + sketches + reports
    }

    /// Every retained bucket overlapping `[start, end)` with the fine window
    /// served through the dyadic ladder: overlapping terminal/tier buckets as
    /// in [`range_reports`](Self::range_reports), then the fine span covered
    /// by O(log n) maximal pre-merged nodes plus boundary leaves, oldest
    /// first. Missing nodes are (re)built on demand (hence `&mut`). The flag
    /// is `true` when no ladder node was used — the report list is then
    /// exactly what [`range_reports`](Self::range_reports) returns.
    pub fn range_reports_dyadic(&mut self, start: u64, end: u64) -> (Vec<BucketReport>, bool) {
        let mut out = Vec::new();
        let mut used_ladder = false;
        if start >= end {
            return (out, true);
        }
        let overlaps = |s: u64, e: u64| s < end && e > start;
        if let Some(term) = &self.terminal {
            if overlaps(term.start, term.end) {
                out.push(BucketReport {
                    entries: term.entries.clone(),
                    rows: term.rows,
                });
            }
        }
        for tier in self.tiers.iter().rev() {
            for b in tier {
                if overlaps(b.start, b.end) {
                    out.push(BucketReport {
                        entries: b.entries.clone(),
                        rows: b.rows,
                    });
                }
            }
        }
        let Some(newest) = self.newest_bucket() else {
            return (out, true);
        };
        let min_live = self.min_live(newest);
        let max_level = ladder_max_level(self.config.fine_buckets);
        let lo = start.max(min_live);
        let hi = end.min(newest.saturating_add(1));
        // Node builds from here to the end of the walk are query-path repairs
        // (the idle builder didn't get there first).
        self.query_repair = true;
        let mut x = lo;
        while x < hi {
            // The largest aligned node starting at x that stays inside the
            // range and the sealed region (nodes never cover `newest`).
            let node_limit = hi.min(newest);
            let mut level = 0u32;
            if x < node_limit && max_level > 0 {
                let align = x.trailing_zeros(); // 64 for x == 0; capped below
                let span_room = (node_limit - x).ilog2();
                level = align.min(span_room).min(max_level);
            }
            if level >= 1 && self.ensure_node(level, x) {
                let node = &self.ladder.levels[(level - 1) as usize][&x];
                if node.rows > 0 || !node.entries.is_empty() {
                    out.push(BucketReport {
                        entries: node.entries.clone(),
                        rows: node.rows,
                    });
                    used_ladder = true;
                }
                x += 1u64 << level;
            } else {
                if let Some(r) = self.leaf_report(x) {
                    out.push(r);
                }
                x += 1;
            }
        }
        self.query_repair = false;
        (out, !used_ladder)
    }

    /// The shard-side indexed range answer: at most **one** report. Ranges
    /// touching a single retained bucket return it raw (flag `true` —
    /// byte-identical to the leaf path); anything wider is pre-merged through
    /// the dyadic decomposition into a single span report — an exact per-item
    /// sum reduced once by PPS under a deterministic span-derived seed, so
    /// the same span over the same leaves always yields the same report.
    pub fn indexed_range_reports(&mut self, start: u64, end: u64) -> (Vec<BucketReport>, bool) {
        if start >= end {
            return (Vec::new(), true);
        }
        let (reports, raw) = self.range_reports_dyadic(start, end);
        if reports.len() <= 1 {
            return (reports, raw);
        }
        let total: usize = reports.iter().map(|r| r.entries.len()).sum();
        let mut combined = FxHashMap::with_capacity_and_hasher(total, Default::default());
        let mut rows = 0u64;
        for report in reports {
            rows += report.rows;
            for (item, count) in report.entries {
                *combined.entry(item).or_insert(0.0) += count;
            }
        }
        let entries: Vec<(u64, f64)> = combined.into_iter().collect();
        self.metrics.range_fold_entries.add(entries.len() as u64);
        let salt = splitmix64(start ^ end.rotate_left(32));
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ SPAN_MERGE_SALT ^ salt);
        let report = BucketReport {
            entries: pps_reduce(entries, self.config.capacity, &mut rng),
            rows,
        };
        (vec![report], false)
    }

    /// Folds `[start, end)` through the dyadic index into one queryable
    /// weighted sketch — the indexed counterpart of
    /// [`fold_range`](Self::fold_range), matching the engine's fold choice:
    /// a raw single-bucket answer uses the exact sequential fold, anything
    /// pre-merged is reduced once more and loaded as the engine's disjoint
    /// fold does for a one-shard engine.
    #[must_use]
    pub fn fold_range_indexed(
        &mut self,
        start: u64,
        end: u64,
        merge_seed: u64,
        out_seed: u64,
    ) -> WeightedSpaceSaving {
        let (reports, raw) = self.indexed_range_reports(start, end);
        if raw {
            let parts = reports.into_iter().map(|r| (r.entries, r.rows));
            fold_unbiased(self.config.capacity, merge_seed, out_seed, parts)
        } else {
            fold_disjoint(self.config.capacity, merge_seed, out_seed, reports)
        }
    }

    /// The first retained item — in a fine bucket or a tier or terminal
    /// bucket — for which `stray` holds.
    fn find_item(&self, mut stray: impl FnMut(u64) -> bool) -> Option<u64> {
        let fine = self
            .fine
            .iter()
            .flat_map(|f| f.sketch.entries().into_iter().map(|(item, _)| item));
        let buckets = self
            .tiers
            .iter()
            .flatten()
            .chain(&self.terminal)
            .flat_map(|b| b.entries.iter().map(|&(item, _)| item));
        fine.chain(buckets).find(|&item| stray(item))
    }

    /// Rebuilds a store from persisted parts, rejecting images that violate the
    /// structural invariants (ascending spans, tier ordering, capacity bounds).
    pub(crate) fn from_parts(
        config: WindowConfig,
        fine: Vec<(u64, UnbiasedSpaceSaving)>,
        tiers: Vec<Vec<TierBucket>>,
        terminal: Option<TierBucket>,
        late_rows: u64,
        last_ts: u64,
    ) -> Result<Self, String> {
        if config.capacity == 0 || config.bucket_width == 0 || config.fine_buckets == 0 {
            return Err("window geometry must be positive".into());
        }
        if config.tier_factor < 2 {
            return Err("tier_factor must be at least 2".into());
        }
        if tiers.len() != config.tiers {
            return Err(format!(
                "{} tiers in the image but the configuration has {}",
                tiers.len(),
                config.tiers
            ));
        }
        // Occupancy bounds: a live store never exceeds them (the ring expires
        // past `fine_buckets`, a tier compacts on reaching `tier_factor`), so
        // an image that does is corrupt — and would otherwise resurrect as a
        // store violating the documented bounded-memory geometry.
        if fine.len() > config.fine_buckets {
            return Err(format!(
                "{} fine buckets exceed the {}-bucket window",
                fine.len(),
                config.fine_buckets
            ));
        }
        for (t, tier) in tiers.iter().enumerate() {
            if tier.len() >= config.tier_factor {
                return Err(format!(
                    "tier {t} holds {} buckets, at or over the compaction factor {}",
                    tier.len(),
                    config.tier_factor
                ));
            }
        }
        let mut rows = 0u64;
        // Coarse spans must ascend oldest-to-newest: terminal, then tiers
        // coarsest-first, then the fine ring.
        let mut last_end = 0u64;
        let mut check_bucket = |b: &TierBucket, what: &str| -> Result<(), String> {
            if b.start >= b.end {
                return Err(format!("{what} bucket has an empty span"));
            }
            if b.start < last_end {
                return Err(format!("{what} bucket overlaps an older span"));
            }
            if b.entries.len() > config.capacity {
                return Err(format!(
                    "{what} bucket holds {} entries over capacity {}",
                    b.entries.len(),
                    config.capacity
                ));
            }
            for &(_, c) in &b.entries {
                if !c.is_finite() || c < 0.0 {
                    return Err(format!("{what} bucket count {c} must be finite and non-negative"));
                }
            }
            last_end = b.end;
            Ok(())
        };
        if let Some(term) = &terminal {
            check_bucket(term, "terminal")?;
            rows += term.rows;
        }
        for tier in tiers.iter().rev() {
            for b in tier {
                check_bucket(b, "tier")?;
                rows += b.rows;
            }
        }
        let mut prev_fine: Option<u64> = None;
        for (index, sketch) in &fine {
            if *index == u64::MAX {
                return Err("fine bucket index is not representable".into());
            }
            if *index < last_end {
                return Err("fine bucket predates a compacted span".into());
            }
            if prev_fine.is_some_and(|p| *index <= p) {
                return Err("fine bucket indices must ascend".into());
            }
            if sketch.capacity() != config.capacity {
                return Err(format!(
                    "fine bucket capacity {} disagrees with window capacity {}",
                    sketch.capacity(),
                    config.capacity
                ));
            }
            prev_fine = Some(*index);
            rows += sketch.rows_processed();
        }
        Ok(Self {
            ladder: DyadicLadder::new(ladder_max_level(config.fine_buckets)),
            pending_expired: VecDeque::new(),
            defer_compaction: false,
            spare: None,
            config,
            fine: fine
                .into_iter()
                .map(|(index, sketch)| FineBucket { index, sketch })
                .collect(),
            tiers: tiers.into_iter().map(VecDeque::from).collect(),
            terminal,
            rows,
            late_rows,
            last_ts,
            metrics: Arc::new(TemporalMetrics::new()),
            query_repair: false,
        })
    }
}

/// Configuration for a [`TemporalIngestEngine`].
#[derive(Debug, Clone, Copy)]
pub struct TemporalConfig {
    /// The per-shard window geometry. Shard `i`'s store is seeded
    /// `window.seed + i`, exactly as the non-temporal engine seeds its shards.
    pub window: WindowConfig,
    /// Number of worker shards (one OS thread and one store each).
    pub shards: usize,
    /// Bound of each (handle, shard) ring, in batches of `batch_rows` rows: a
    /// producer blocks once its own ring to a shard holds this many batches.
    /// Each handle has its own ring per shard, so a shard's total backlog grows
    /// with the number of live handles.
    pub queue_depth: usize,
    /// Rows buffered per shard inside a [`TemporalIngestHandle`] before a batch
    /// is sent.
    pub batch_rows: usize,
}

impl TemporalConfig {
    /// A configuration with the engine defaults (queue depth 4, 4096-row
    /// batches) and the default retention (2 tiers, factor 4).
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `capacity`, `bucket_width` or `fine_buckets` is zero.
    #[must_use]
    pub fn new(
        shards: usize,
        capacity: usize,
        seed: u64,
        bucket_width: u64,
        fine_buckets: usize,
    ) -> Self {
        match Self::try_new(shards, capacity, seed, bucket_width, fine_buckets) {
            Ok(config) => config,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`new`](Self::new), for configurations built from untrusted
    /// input: the typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`TemporalConfigError`] when `shards` is zero or the window geometry is
    /// invalid.
    pub fn try_new(
        shards: usize,
        capacity: usize,
        seed: u64,
        bucket_width: u64,
        fine_buckets: usize,
    ) -> Result<Self, TemporalConfigError> {
        let config = Self {
            window: WindowConfig::try_new(capacity, seed, bucket_width, fine_buckets)?,
            shards,
            queue_depth: 4,
            batch_rows: 4096,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the configuration for values no engine can run with, mirroring
    /// [`crate::engine::EngineConfig::validate`]. The fields are public (and a
    /// daemon fills them from client bytes), so
    /// [`TemporalIngestEngine::try_new`] re-validates before spawning workers.
    ///
    /// # Errors
    ///
    /// The first [`TemporalConfigError`] found, checking shards, queue depth,
    /// batch size, then the window geometry.
    pub fn validate(&self) -> Result<(), TemporalConfigError> {
        if self.shards == 0 {
            return Err(TemporalConfigError::ZeroShards);
        }
        if self.queue_depth == 0 {
            return Err(TemporalConfigError::ZeroQueueDepth);
        }
        if self.batch_rows == 0 {
            return Err(TemporalConfigError::ZeroBatchRows);
        }
        self.window.validate()?;
        Ok(())
    }

    /// Overrides the retention geometry (see [`WindowConfig::with_retention`]).
    #[must_use]
    pub fn with_retention(mut self, tiers: usize, tier_factor: usize) -> Self {
        self.window = self.window.with_retention(tiers, tier_factor);
        self
    }

    /// Overrides the producer-side batch size, in rows.
    ///
    /// # Panics
    ///
    /// Panics if `batch_rows` is zero.
    #[must_use]
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        assert!(batch_rows > 0, "batch_rows must be positive");
        self.batch_rows = batch_rows;
        self
    }

    /// Overrides the per-(handle, shard) ring bound, in batches.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "queue_depth must be positive");
        self.queue_depth = queue_depth;
        self
    }
}

/// A time range for queries against a [`TemporalIngestEngine`]. Ranges resolve
/// to fine-bucket index ranges; see the [module docs](self) for the resolution
/// semantics over compacted tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeRange {
    /// Everything the engine has ever ingested.
    All,
    /// The newest `n` fine buckets, relative to the largest timestamp enqueued
    /// so far (the sliding-window query).
    LastBuckets(u64),
    /// Rows with timestamps in `[start, end)`, rounded outward to bucket
    /// boundaries.
    Between {
        /// Inclusive start timestamp.
        start: u64,
        /// Exclusive end timestamp.
        end: u64,
    },
}

/// How many distinct folded ranges the engine keeps cached. Small by design: a
/// dashboard polls a handful of ranges, and every cache entry is a full
/// snapshot.
const RANGE_CACHE_SLOTS: usize = 8;

#[derive(Debug)]
struct CacheSlot {
    start: u64,
    end: u64,
    rows: u64,
    snapshot: Arc<SketchSnapshot>,
}

/// A live, concurrently-fed, time-partitioned sharded sketch. The temporal
/// counterpart of [`crate::engine::ShardedIngestEngine`]; see the
/// [module docs](self).
#[derive(Debug)]
pub struct TemporalIngestEngine {
    config: TemporalConfig,
    /// The shard runtime; its `max_time` drives [`TimeRange::LastBuckets`].
    runtime: ShardRuntime<TemporalShard>,
    /// The merged-range cache: repeated range queries at the same ingest
    /// watermark return the identical snapshot without re-folding. Each
    /// incarnation (fresh or restored) starts with an empty one, so no slot
    /// keyed by another incarnation's watermark can be served.
    range_cache: Mutex<VecDeque<CacheSlot>>,
    /// Stream-level temporal telemetry, shared by every shard's store.
    temporal_metrics: Arc<TemporalMetrics>,
}

impl TemporalIngestEngine {
    /// Spawns the worker shards and returns the running engine.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`TemporalConfig::validate`]);
    /// use [`try_new`](Self::try_new) to get the typed error instead.
    #[must_use]
    pub fn new(config: TemporalConfig) -> Self {
        match Self::try_new(config) {
            Ok(engine) => engine,
            Err(err) => panic!("{err}"),
        }
    }

    /// Validates the configuration and spawns the worker shards.
    ///
    /// # Errors
    ///
    /// [`TemporalConfigError`] when `config` carries a zero (or `tier_factor <
    /// 2`) where a positive value is required — caught here, before any worker
    /// thread exists, so a daemon can refuse a client-supplied stream spec with
    /// an error frame instead of panicking.
    pub fn try_new(config: TemporalConfig) -> Result<Self, TemporalConfigError> {
        config.validate()?;
        let stores = (0..config.shards)
            .map(|shard| {
                WindowedSketchStore::new(WindowConfig {
                    // Wrapping, so any base seed is valid — and so the decode
                    // path (which must never panic) derives the same per-shard
                    // seed a live engine uses.
                    seed: config.window.seed.wrapping_add(shard as u64),
                    ..config.window
                })
            })
            .collect();
        Ok(Self::spawn(config, stores, 0, 0, 0))
    }

    /// Spawns one worker per store; shared by [`new`](Self::new) (fresh stores)
    /// and [`restore`](Self::restore) (checkpointed stores).
    fn spawn(
        config: TemporalConfig,
        stores: Vec<WindowedSketchStore>,
        snapshots: u64,
        rows_enqueued: u64,
        max_time: u64,
    ) -> Self {
        let temporal_metrics = Arc::new(TemporalMetrics::new());
        let states = stores
            .into_iter()
            .map(|mut store| {
                store.set_metrics(Arc::clone(&temporal_metrics));
                store.set_defer_compaction(true);
                TemporalShard {
                    store,
                    run_items: Vec::new(),
                }
            })
            .collect();
        let ring_blocks = shard::ring_blocks(config.queue_depth, config.batch_rows);
        Self {
            config,
            runtime: ShardRuntime::spawn(states, ring_blocks, snapshots, rows_enqueued, max_time),
            range_cache: Mutex::new(VecDeque::new()),
            temporal_metrics,
        }
    }

    /// The engine's per-shard/checkpoint telemetry (live counters — exact
    /// after a quiesce point such as a range capture or checkpoint).
    #[must_use]
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        self.runtime.metrics()
    }

    /// The engine's temporal telemetry (rotations, compactions, ladder churn,
    /// range-cache hits/misses), aggregated across all shards.
    #[must_use]
    pub fn temporal_metrics(&self) -> &Arc<TemporalMetrics> {
        &self.temporal_metrics
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &TemporalConfig {
        &self.config
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.runtime.shards()
    }

    /// Rows handed to the shard queues so far (the cheap monotone progress
    /// hint, exactly as on the non-temporal engine).
    #[must_use]
    pub fn rows_enqueued(&self) -> u64 {
        self.runtime.rows_enqueued()
    }

    /// The largest timestamp enqueued so far (0 before any row).
    #[must_use]
    pub fn max_time(&self) -> u64 {
        self.runtime.max_time()
    }

    /// The fine-bucket index the newest enqueued row falls in.
    #[must_use]
    pub fn current_bucket(&self) -> u64 {
        self.max_time() / self.config.window.bucket_width
    }

    /// Creates a producer handle. Handles are independent and cheap; create one
    /// per producer thread.
    ///
    /// # Panics
    ///
    /// Panics if a worker is gone; [`try_handle`](Self::try_handle) degrades
    /// that into a typed error instead.
    #[must_use]
    pub fn handle(&self) -> TemporalIngestHandle {
        match self.try_handle() {
            Ok(handle) => handle,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible variant of [`handle`](Self::handle), for callers (like a
    /// serving daemon) that must survive a dead worker.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first shard whose worker could
    /// not register the new ring.
    pub fn try_handle(&self) -> Result<TemporalIngestHandle, EngineError> {
        self.runtime.handle()
    }

    /// Resolves a [`TimeRange`] to a fine-bucket index range `[start, end)`.
    #[must_use]
    pub fn resolve_range(&self, range: &TimeRange) -> (u64, u64) {
        let width = self.config.window.bucket_width;
        match *range {
            TimeRange::All => (0, u64::MAX),
            TimeRange::LastBuckets(n) => {
                if self.rows_enqueued() == 0 {
                    return (0, 0);
                }
                let end = (self.max_time() / width).saturating_add(1);
                (end.saturating_sub(n), end)
            }
            TimeRange::Between { start, end } => {
                if end <= start {
                    return (0, 0);
                }
                (start / width, end.div_ceil(width))
            }
        }
    }

    /// Collects every shard's bucket reports for `[start, end)` (fine-bucket
    /// indices), in shard order, each shard's buckets oldest first, together
    /// with whether *every* reply was raw (byte-identical to the leaf path)
    /// and the total rows the shards had *applied* when they reported. Each
    /// worker first drains a cut of its data rings (the blocks queued at
    /// request time) and settles deferred compaction, so all previously
    /// enqueued batches are applied first. With `leaf` set the shards bypass
    /// the dyadic index and report every overlapping bucket (the reference
    /// path for equivalence tests and benchmarks).
    fn collect_reports(
        &self,
        start: u64,
        end: u64,
        leaf: bool,
    ) -> Result<(Vec<BucketReport>, bool, u64), EngineError> {
        let replies = self.runtime.request_all(|reply| TemporalRequest::Range {
            start,
            end,
            leaf,
            reply,
        })?;
        let mut reports = Vec::new();
        let mut all_raw = true;
        let mut applied = 0u64;
        for (shard_reports, raw, shard_rows) in replies {
            reports.extend(shard_reports);
            all_raw &= raw;
            applied += shard_rows;
        }
        Ok((reports, all_raw, applied))
    }

    /// Folds the collected reports with the engine's salted snapshot seeds.
    /// Raw (leaf-path) report sets use the exact sequential fold — preserving
    /// every byte of the pre-ladder behaviour for single-bucket spans — while
    /// pre-merged sets (one report per shard) go through [`fold_disjoint`].
    fn fold_collected(&self, reports: Vec<BucketReport>, raw: bool) -> WeightedSpaceSaving {
        let salt = self.runtime.next_salt();
        let seed = self.config.window.seed;
        let capacity = self.config.window.capacity;
        let merge_seed = seed ^ FOLD_MERGE_SALT ^ salt;
        let out_seed = seed ^ FOLD_OUT_SALT ^ salt;
        let entries: usize = reports.iter().map(|r| r.entries.len()).sum();
        self.temporal_metrics.range_fold_entries.add(entries as u64);
        if raw {
            let parts = reports.into_iter().map(|r| (r.entries, r.rows));
            fold_unbiased(capacity, merge_seed, out_seed, parts)
        } else {
            fold_disjoint(capacity, merge_seed, out_seed, reports)
        }
    }

    /// The deterministic well-formed answer for a range that resolves to no
    /// buckets at all (`end <= start`, or nothing enqueued yet): an empty
    /// weighted sketch under the engine's *unsalted* seeds. No shard
    /// round-trip happens and no snapshot salt is consumed, so degenerate
    /// polls never perturb the seed sequence of real queries.
    fn empty_range_snapshot(&self) -> WeightedSpaceSaving {
        let seed = self.config.window.seed;
        fold_unbiased(
            self.config.window.capacity,
            seed ^ FOLD_MERGE_SALT,
            seed ^ FOLD_OUT_SALT,
            std::iter::empty(),
        )
    }

    /// Folds every retained bucket overlapping `range` across all shards into
    /// one queryable [`WeightedSpaceSaving`], without stopping ingest — the
    /// time-range analogue of [`crate::engine::ShardedIngestEngine::snapshot`],
    /// using the same salted merge-seed sequence (each call is an independent
    /// draw of the merge's sampling step). Served through the dyadic ladder,
    /// so the cost is O(log window) node merges per shard (amortized O(1)
    /// once built) regardless of the span width. Bypasses the range cache.
    /// Degenerate ranges answer a well-formed empty snapshot.
    #[must_use]
    pub fn range_snapshot(&self, range: &TimeRange) -> WeightedSpaceSaving {
        match self.try_range_snapshot(range) {
            Ok(merged) => merged,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`range_snapshot`](Self::range_snapshot): a dead worker
    /// degrades the request into [`EngineError::ShardDown`] instead of
    /// panicking the calling thread.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first dead shard found.
    pub fn try_range_snapshot(&self, range: &TimeRange) -> Result<WeightedSpaceSaving, EngineError> {
        let (start, end) = self.resolve_range(range);
        if start >= end {
            return Ok(self.empty_range_snapshot());
        }
        let (reports, all_raw, _) = self.collect_reports(start, end, false)?;
        Ok(self.fold_collected(reports, all_raw))
    }

    /// [`range_snapshot`](Self::range_snapshot) through the leaf-by-leaf fold,
    /// bypassing the dyadic ladder entirely: every overlapping retained bucket
    /// is folded sequentially, exactly as before the ladder existed. The
    /// reference implementation that equivalence tests and benchmarks compare
    /// ladder answers against.
    #[must_use]
    pub fn range_snapshot_leaf(&self, range: &TimeRange) -> WeightedSpaceSaving {
        let (start, end) = self.resolve_range(range);
        if start >= end {
            return self.empty_range_snapshot();
        }
        let (reports, _, _) = match self.collect_reports(start, end, true) {
            Ok(collected) => collected,
            Err(err) => panic!("{err}"),
        };
        self.fold_collected(reports, true)
    }

    /// The cached form of [`range_snapshot`](Self::range_snapshot): repeated
    /// captures of the same range at the same ingest watermark
    /// ([`rows_enqueued`](Self::rows_enqueued)) return the identical snapshot
    /// without re-folding; any ingest progress invalidates naturally because
    /// the watermark is part of the key.
    #[must_use]
    pub fn range_capture(&self, range: &TimeRange) -> Arc<SketchSnapshot> {
        match self.try_range_capture(range) {
            Ok(snapshot) => snapshot,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`range_capture`](Self::range_capture), the form a serving
    /// daemon uses: a dead worker degrades the request into
    /// [`EngineError::ShardDown`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first dead shard found.
    pub fn try_range_capture(&self, range: &TimeRange) -> Result<Arc<SketchSnapshot>, EngineError> {
        let (start, end) = self.resolve_range(range);
        if start >= end {
            // Degenerate ranges answer the deterministic empty snapshot
            // directly — nothing worth caching, no salt consumed.
            return Ok(Arc::new(self.empty_range_snapshot().snapshot()));
        }
        let rows = self.rows_enqueued();
        let key = |s: &CacheSlot| s.start == start && s.end == end && s.rows == rows;
        {
            let cache = self.range_cache.lock();
            if let Some(slot) = cache.iter().find(|s| key(s)) {
                self.temporal_metrics.range_cache_hits.inc();
                return Ok(Arc::clone(&slot.snapshot));
            }
        }
        self.temporal_metrics.range_cache_misses.inc();
        // Fold outside the lock: captures are expensive, the cache is not.
        let (reports, all_raw, applied) = self.collect_reports(start, end, false)?;
        let snapshot = Arc::new(self.fold_collected(reports, all_raw).snapshot());
        // Cache soundness: `rows_enqueued` is bumped *before* a batch is sent,
        // so a producer preempted between the two can leave a fold that misses
        // rows the watermark already counts. Only cache when the shards had
        // applied at least the watermark's rows — a fold that raced such a
        // batch then reports `applied < rows` and is served once, uncached,
        // instead of becoming a stale answer pinned to that watermark.
        if applied >= rows {
            let mut cache = self.range_cache.lock();
            if !cache.iter().any(key) {
                cache.push_back(CacheSlot {
                    start,
                    end,
                    rows,
                    snapshot: Arc::clone(&snapshot),
                });
                while cache.len() > RANGE_CACHE_SLOTS {
                    cache.pop_front();
                }
            }
        }
        Ok(snapshot)
    }

    /// Writes a durable checkpoint of the whole engine into `dir`: one
    /// bucket-ring file per shard (fine buckets with full RNG + structure
    /// images, compacted tiers and the terminal bucket) plus a temporal
    /// manifest. The dyadic ladder is derived state and is not written: a
    /// restored engine rebuilds it.
    /// Quiesces each shard with a ring cut exactly as the non-temporal
    /// engine's checkpoint does; ingest continues afterwards.
    ///
    /// The checkpoint is *resilient per shard*: a dead worker or a failed
    /// write on one shard does not abort the remaining shards' writes — every
    /// healthy shard's file still lands on disk, with the failures reported
    /// together in [`EngineError::CheckpointIncomplete`]. The manifest is only
    /// written when every shard succeeded. That alone does not keep the
    /// previous checkpoint: re-checkpointing into an existing directory
    /// overwrites its shard files before the manifest, so a failed
    /// re-checkpoint leaves an old manifest over new shard files, which
    /// restore refuses (ROADMAP item 6).
    ///
    /// # Errors
    ///
    /// [`EngineError::Persist`] when the directory cannot be created or the
    /// manifest cannot be written; [`EngineError::CheckpointIncomplete`]
    /// listing the per-shard failures otherwise.
    pub fn checkpoint<P: AsRef<std::path::Path>>(&self, dir: P) -> Result<(), EngineError> {
        self.runtime
            .checkpoint(dir.as_ref(), persist::TemporalMeta::from_config(&self.config))
    }

    /// Kills the worker thread of `shard` by making it panic. Fault injection
    /// for tests only: this is how the regression suite proves that a poisoned
    /// shard degrades control requests into [`EngineError::ShardDown`] instead
    /// of taking a daemon down. The control channel is FIFO, so any request
    /// sent after this observes the dead worker deterministically.
    #[doc(hidden)]
    pub fn debug_kill_shard(&self, shard: usize) {
        self.runtime.debug_kill_shard(shard);
    }

    /// Resumes an engine from a [`checkpoint`](Self::checkpoint) directory. The
    /// identity in `config` (shards, capacity, seed, window geometry) must
    /// match the manifest; queue depth and batch size are operational knobs and
    /// may differ. The restored engine continues bit-compatibly: fine buckets
    /// resume with their exact RNG and counter-structure state, and the salted
    /// snapshot-seed sequence continues where the checkpoint left off.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures, [`PersistError::Corrupt`]
    /// (or the more specific decode errors) on damaged files, a `config`
    /// that disagrees with the manifest, or a shard file holding an item that
    /// [`shard_of`] routes to another shard.
    pub fn restore<P: AsRef<std::path::Path>>(
        dir: P,
        config: TemporalConfig,
    ) -> Result<Self, PersistError> {
        let (stores, snapshots, rows) = ShardRuntime::<TemporalShard>::read_checkpoint(
            dir.as_ref(),
            persist::TemporalMeta::from_config(&config),
            config.shards,
            |shard, store| {
                // Range folds concatenate shard reports on the premise that no
                // item lives on two shards; a file breaking it is corrupt.
                match store.find_item(|item| shard_of(item, config.shards) != shard) {
                    Some(item) => Err(PersistError::Corrupt(format!(
                        "shard {shard} holds item {item}, which routes to shard {}",
                        shard_of(item, config.shards)
                    ))),
                    None => Ok(()),
                }
            },
        )?;
        let max_time = stores.iter().map(WindowedSketchStore::last_time).max().unwrap_or(0);
        Ok(Self::spawn(config, stores, snapshots, rows, max_time))
    }

    /// The manifest file name inside a checkpoint directory.
    pub const MANIFEST_FILE: &'static str = "temporal-manifest.uss";

    /// The bucket-ring file name for shard `i` inside a checkpoint directory.
    #[must_use]
    pub fn shard_file_name(shard: usize) -> String {
        format!("window-{shard:04}.uss")
    }

    /// Stops every worker after it drains its queue, joins them, and folds the
    /// whole history with the unbiased PPS merge under the same unsalted seeds
    /// the non-temporal engine's `finish` uses. Stop producers first, exactly
    /// as with [`crate::engine::ShardedIngestEngine::finish`].
    #[must_use]
    pub fn finish(self) -> WeightedSpaceSaving {
        let seed = self.config.window.seed;
        let capacity = self.config.window.capacity;
        let stores = self.finish_stores();
        fold_unbiased(
            capacity,
            seed ^ FOLD_MERGE_SALT,
            seed ^ FOLD_OUT_SALT,
            stores
                .iter()
                .flat_map(|s| s.range_reports(0, u64::MAX))
                .map(|r| (r.entries, r.rows)),
        )
    }

    /// Stops and joins the workers, returning each shard's final store (for
    /// callers that want the per-bucket structure rather than a merged fold).
    #[must_use]
    pub fn finish_stores(self) -> Vec<WindowedSketchStore> {
        self.runtime
            .finish()
            .into_iter()
            .map(|shard| shard.store)
            .collect()
    }
}

/// A producer-side handle of a [`TemporalIngestEngine`] for timestamped rows:
/// routes by item hash (every occurrence of an item lands on the same shard,
/// keeping frequent-item counts sharp) and ships `(item, timestamp)` pairs in
/// blocks over its own ring per shard, exactly like the non-temporal
/// [`crate::engine::IngestHandle`]. Rows still buffered are sent by `flush`,
/// or best-effort on drop.
pub type TemporalIngestHandle = ShardHandle<TemporalShard>;

impl TemporalIngestHandle {
    /// Offers one row of `item` stamped `ts`. Lock-free; parks only when the
    /// destination shard's ring is full (the engine's backpressure).
    #[inline]
    pub fn offer_at(&mut self, item: u64, ts: u64) {
        self.push((item, ts));
    }

    /// Fallible [`offer_at`](Self::offer_at): a dead destination worker fails
    /// this row's dispatch with [`EngineError::ShardDown`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the dead shard.
    #[inline]
    pub fn try_offer_at(&mut self, item: u64, ts: u64) -> Result<(), EngineError> {
        self.try_push((item, ts))
    }

    /// Offers a batch of `(item, timestamp)` rows.
    pub fn offer_batch_at(&mut self, rows: &[(u64, u64)]) {
        for &row in rows {
            self.push(row);
        }
    }

    /// Fallible [`offer_batch_at`](Self::offer_batch_at); stops at the first
    /// row whose destination worker is gone.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the dead shard.
    pub fn try_offer_batch_at(&mut self, rows: &[(u64, u64)]) -> Result<(), EngineError> {
        for &row in rows {
            self.try_push(row)?;
        }
        Ok(())
    }
}

/// The temporal engine's shard state. `pub` only so the
/// [`TemporalIngestHandle`] alias can name it; the module is private.
mod worker {
    use super::*;

    /// One shard: its bucket store and the scratch buffer for bucket runs.
    #[derive(Debug)]
    pub struct TemporalShard {
        pub(super) store: WindowedSketchStore,
        /// The items of the current bucket run (see `apply`), reused across
        /// blocks.
        pub(super) run_items: Vec<u64>,
    }

    /// Temporal-engine requests.
    pub enum TemporalRequest {
        /// Quiesce, then report the retained buckets overlapping `[start,
        /// end)` — through the dyadic index (at most one pre-merged report),
        /// or every leaf when `leaf` is set — plus whether the reply is raw
        /// (byte-identical to the leaf path) and the store's applied row count
        /// (the cache-soundness watermark).
        Range {
            start: u64,
            end: u64,
            leaf: bool,
            reply: Sender<(Vec<BucketReport>, bool, u64)>,
        },
    }

    impl ShardState for TemporalShard {
        type Row = (u64, u64);
        type Request = TemporalRequest;
        type Image = WindowedSketchStore;
        type Meta = persist::TemporalMeta;

        const MANIFEST_FILE: &'static str = TemporalIngestEngine::MANIFEST_FILE;

        #[inline]
        fn item(row: &(u64, u64)) -> u64 {
            row.0
        }

        #[inline]
        fn max_time(rows: &[(u64, u64)]) -> Option<u64> {
            rows.iter().map(|&(_, ts)| ts).max()
        }

        /// Applies one block of `(item, timestamp)` rows as maximal runs of
        /// consecutive rows whose timestamps fall in one fine bucket, so a
        /// run may mix timestamps (on perfbench's ad-click stream,
        /// equal-timestamp runs averaged 1.3 rows per shard, while a block
        /// mostly lies in one bucket). The first row of a run fixes the
        /// bucket's time span `[lo, lo + width)`; later rows join the run by
        /// two comparisons, with no division. Each run goes through one
        /// `offer_batch_at` stamped with its largest timestamp, which is
        /// bit-identical to per-row offers (see
        /// `WindowedSketchStore::offer_batch_at`).
        fn apply(&mut self, rows: &[(u64, u64)]) {
            let width = self.store.config.bucket_width;
            let mut i = 0;
            while i < rows.len() {
                let first = rows[i].1;
                let lo = first - first % width;
                let end = i + rows[i..]
                    .iter()
                    .position(|&(_, ts)| ts < lo || ts - lo >= width)
                    .unwrap_or(rows.len() - i);
                let run = &rows[i..end];
                let max_ts = run.iter().fold(first, |m, &(_, ts)| m.max(ts));
                self.run_items.clear();
                self.run_items.extend(run.iter().map(|&(item, _)| item));
                self.store.offer_batch_at(&self.run_items, max_ts);
                i = end;
            }
        }

        /// Settles deferred tier compaction, so the tier state is canonical
        /// before it is observed.
        fn settle(&mut self) {
            self.store.settle_all();
        }

        /// Deferred tier compaction first, then one dyadic-ladder node build.
        /// Only a quiet worker runs these (see `shard.rs`): on few-core hosts
        /// maintenance during active ingest steals the producer's cycles.
        fn idle_step(&mut self) -> bool {
            self.store.settle_one() || self.store.ladder_idle_step()
        }

        fn finish(&mut self) {
            self.store.set_defer_compaction(false);
        }

        fn memory_bytes(&self) -> u64 {
            self.store.memory_bytes()
        }

        fn answer(worker: &mut ShardWorker<Self>, request: TemporalRequest) {
            let TemporalRequest::Range {
                start,
                end,
                leaf,
                reply,
            } = request;
            worker.quiesce();
            let store = &mut worker.state.store;
            let (reports, raw) = if leaf {
                (store.range_reports(start, end), true)
            } else {
                store.indexed_range_reports(start, end)
            };
            let _ = reply.send((reports, raw, store.rows_processed()));
        }

        fn capture(&self) -> WindowedSketchStore {
            self.store.clone()
        }

        fn image_rows(image: &WindowedSketchStore) -> u64 {
            image.rows_processed()
        }

        fn shard_file_name(shard: usize) -> String {
            TemporalIngestEngine::shard_file_name(shard)
        }

        fn encode_shard(
            shard: u64,
            meta: persist::TemporalMeta,
            image: &WindowedSketchStore,
        ) -> Vec<u8> {
            persist::encode_temporal_shard(shard, meta, image)
        }

        fn decode_shard(
            bytes: &[u8],
        ) -> Result<(u64, persist::TemporalMeta, WindowedSketchStore), PersistError> {
            persist::decode_temporal_shard(bytes)
        }

        fn encode_manifest(meta: persist::TemporalMeta, snapshots: u64, rows: u64) -> Vec<u8> {
            persist::encode_temporal_manifest(&persist::TemporalManifest {
                meta,
                snapshots,
                rows,
            })
        }

        fn decode_manifest(
            bytes: &[u8],
        ) -> Result<(persist::TemporalMeta, u64, u64), PersistError> {
            let manifest = persist::decode_temporal_manifest(bytes)?;
            Ok((manifest.meta, manifest.snapshots, manifest.rows))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(width: u64, fine: usize, tiers: usize, factor: usize) -> WindowedSketchStore {
        WindowedSketchStore::new(
            WindowConfig::new(32, 9, width, fine).with_retention(tiers, factor),
        )
    }

    #[test]
    fn rows_land_in_their_time_bucket() {
        let mut s = store(10, 4, 2, 4);
        s.offer_at(1, 0);
        s.offer_at(2, 9);
        s.offer_at(3, 10);
        s.offer_at(4, 25);
        let indices: Vec<u64> = s.fine_sketches().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        let rows: Vec<u64> = s.fine_sketches().map(|(_, sk)| sk.rows_processed()).collect();
        assert_eq!(rows, vec![2, 1, 1]);
        assert_eq!(s.rows_processed(), 4);
        assert_eq!(s.last_time(), 25);
    }

    #[test]
    fn rotation_expires_into_tiers_and_conserves_mass() {
        let mut s = store(1, 2, 1, 2);
        for ts in 0u64..10 {
            for _ in 0..5 {
                s.offer_at(ts % 3, ts);
            }
        }
        // 10 buckets, 2 fine retained; the rest compacted below.
        assert_eq!(s.fine_sketches().count(), 2);
        let retained: u64 = s.fine_sketches().map(|(_, sk)| sk.rows_processed()).sum::<u64>()
            + s.tier_buckets(0).iter().map(|b| b.rows).sum::<u64>()
            + s.terminal_bucket().map_or(0, |b| b.rows);
        assert_eq!(retained, 50);
        assert_eq!(s.rows_processed(), 50);
        // The full-range fold conserves the mass exactly.
        let folded = s.fold_range(0, u64::MAX, 1, 2);
        let mass: f64 = folded.entries().iter().map(|(_, c)| c).sum();
        assert!((mass - 50.0).abs() < 1e-6, "mass {mass}");
        assert_eq!(folded.rows_processed(), 50);
    }

    #[test]
    fn out_of_order_in_window_rows_land_exactly_and_late_rows_clamp() {
        let mut s = store(10, 3, 1, 2);
        s.offer_at(1, 50); // bucket 5
        s.offer_at(2, 35); // bucket 3: in-window, lands exactly (created late)
        let indices: Vec<u64> = s.fine_sketches().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![3, 5]);
        assert_eq!(s.late_rows(), 0);
        s.offer_at(3, 5); // bucket 0: older than the window -> clamped into 3
        assert_eq!(s.late_rows(), 1);
        let (oldest, sk) = s.fine_sketches().next().unwrap();
        assert_eq!(oldest, 3);
        assert_eq!(sk.rows_processed(), 2);
        assert_eq!(s.rows_processed(), 3);
    }

    #[test]
    fn offer_batch_at_matches_sequential_offers() {
        let mut a = store(10, 4, 2, 4);
        let mut b = store(10, 4, 2, 4);
        let items: Vec<u64> = (0..500u64).map(|i| i % 17).collect();
        a.offer_batch_at(&items, 42);
        for &item in &items {
            b.offer_at(item, 42);
        }
        let ea: Vec<_> = a.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        let eb: Vec<_> = b.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        assert_eq!(ea, eb);
        assert_eq!(a.rows_processed(), b.rows_processed());
    }

    /// Sample mean and variance of `xs`.
    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn one_stage_compaction_is_exact_in_rows_and_mass_and_unbiased() {
        // A 4-bucket group over overlapping item sets: 400 distinct items in
        // all, reduced to 64. Item 1 is heavy (kept with certainty), item 2
        // sits near the threshold, item 3 is a tail item seen in every part.
        let tracked = [1u64, 2, 3];
        let parts: Vec<BucketReport> = (0..4u64)
            .map(|p| {
                let mut entries: Vec<(u64, f64)> = (0..150u64)
                    .map(|i| (10 + p * 80 + i, 1.0 + ((i * 7 + p) % 5) as f64))
                    .collect();
                entries.extend([(1, 400.0), (2, 5.0 + p as f64), (3, 2.0)]);
                let rows = entries.iter().map(|&(_, c)| c).sum::<f64>() as u64;
                BucketReport { entries, rows }
            })
            .collect();
        let rows: u64 = parts.iter().map(|p| p.rows).sum();
        let count = |entries: &[(u64, f64)], item: u64| -> f64 {
            entries.iter().filter(|e| e.0 == item).map(|e| e.1).sum()
        };
        let mut one_stage: Vec<Vec<f64>> = vec![Vec::new(); tracked.len()];
        let mut sequential = Vec::new();
        for seed in 0..200u64 {
            let out = compact_fold(64, seed, 8, 12, parts.clone());
            assert_eq!((out.start, out.end, out.rows), (8, 12, rows));
            assert!(out.entries.len() <= 64);
            let mass: f64 = out.entries.iter().map(|&(_, c)| c).sum();
            let err = (mass - rows as f64).abs() / rows as f64;
            assert!(err <= 1e-9, "seed {seed}: mass {mass} vs rows {rows}");
            for (k, &item) in tracked.iter().enumerate() {
                one_stage[k].push(count(&out.entries, item));
            }
            let parts = parts.iter().map(|p| (p.entries.clone(), p.rows));
            sequential.push(fold_unbiased(64, seed ^ 0xA5A5, seed, parts).estimate(3));
        }
        for (k, &item) in tracked.iter().enumerate() {
            let truth: f64 = parts.iter().map(|p| count(&p.entries, item)).sum();
            let (mean, var) = mean_var(&one_stage[k]);
            if var == 0.0 {
                assert_eq!(mean, truth, "item {item}");
            } else {
                let z = (mean - truth) / (var / 200.0).sqrt();
                assert!(
                    z.abs() < 4.0,
                    "item {item}: mean {mean} vs {truth}, z {z:.2}"
                );
            }
        }
        let (_, var_one) = mean_var(&one_stage[2]);
        let (_, var_seq) = mean_var(&sequential);
        assert!(var_one > 0.0, "item 3 must be sampled");
        assert!(
            var_one <= 1.1 * var_seq,
            "variance {var_one} vs sequential {var_seq}"
        );
    }

    #[test]
    fn one_bucket_store_is_bit_identical_to_a_plain_sketch() {
        // Everything in bucket 0 => the bucket sketch is seeded with the base
        // seed itself, so it tracks a plain sketch bit for bit.
        let mut s = store(1_000_000, 4, 2, 4);
        let mut plain = UnbiasedSpaceSaving::with_seed(32, 9);
        for i in 0..5_000u64 {
            s.offer_at(i % 300, i % 100);
            plain.offer(i % 300);
        }
        let (_, sk) = s.fine_sketches().next().unwrap();
        assert_eq!(sk.entries(), plain.entries());
    }

    #[test]
    fn terminal_bucket_absorbs_ancient_history() {
        let mut s = store(1, 1, 1, 2);
        for ts in 0u64..20 {
            s.offer_at(ts, ts);
        }
        assert!(s.terminal_bucket().is_some());
        let term = s.terminal_bucket().unwrap();
        assert_eq!(term.start(), 0);
        assert!(term.end() > 0);
        assert_eq!(s.rows_processed(), 20);
    }

    #[test]
    fn range_reports_come_back_oldest_first_and_respect_overlap() {
        let mut s = store(1, 2, 1, 2);
        for ts in 0u64..8 {
            s.offer_at(ts, ts);
        }
        // Only the newest fine buckets.
        let fine_only = s.range_reports(6, 8);
        assert_eq!(fine_only.len(), 2);
        // Empty and inverted ranges are empty.
        assert!(s.range_reports(3, 3).is_empty());
        assert!(s.range_reports(5, 2).is_empty());
        // A full range covers every retained row.
        let all = s.range_reports(0, u64::MAX);
        let rows: u64 = all.iter().map(|r| r.rows).sum();
        assert_eq!(rows, 8);
    }

    #[test]
    fn engine_range_query_answers_a_sliding_window() {
        let engine = TemporalIngestEngine::new(
            TemporalConfig::new(2, 64, 3, 10, 4).with_batch_rows(64),
        );
        let mut handle = engine.handle();
        // Buckets 0..10; item 7 appears only in the last 2 buckets.
        for ts in 0u64..100 {
            for i in 0..20u64 {
                let item = if ts >= 80 && i < 10 { 7 } else { 100 + i };
                handle.offer_at(item, ts);
            }
        }
        handle.flush();
        let recent = engine.range_snapshot(&TimeRange::LastBuckets(2));
        assert_eq!(recent.rows_processed(), 2 * 10 * 20);
        let est = recent.estimate(7);
        assert!((est - 200.0).abs() < 60.0, "estimate {est}");
        // The whole stream still answers.
        let all = engine.range_snapshot(&TimeRange::All);
        assert_eq!(all.rows_processed(), 2_000);
        let _ = engine.finish();
    }

    #[test]
    fn between_ranges_round_to_bucket_boundaries() {
        let engine = TemporalIngestEngine::new(TemporalConfig::new(1, 32, 5, 10, 8));
        let mut handle = engine.handle();
        for ts in 0u64..50 {
            handle.offer_at(ts % 6, ts);
        }
        handle.flush();
        assert_eq!(engine.resolve_range(&TimeRange::Between { start: 0, end: 50 }), (0, 5));
        assert_eq!(engine.resolve_range(&TimeRange::Between { start: 12, end: 38 }), (1, 4));
        assert_eq!(engine.resolve_range(&TimeRange::Between { start: 7, end: 7 }), (0, 0));
        let middle = engine.range_snapshot(&TimeRange::Between { start: 12, end: 38 });
        assert_eq!(middle.rows_processed(), 30); // buckets 1, 2, 3
        let _ = engine.finish();
    }

    #[test]
    fn window_config_try_new_returns_typed_errors() {
        assert_eq!(
            WindowConfig::try_new(0, 7, 10, 4).unwrap_err(),
            WindowConfigError::ZeroCapacity
        );
        assert_eq!(
            WindowConfig::try_new(32, 7, 0, 4).unwrap_err(),
            WindowConfigError::ZeroBucketWidth
        );
        assert_eq!(
            WindowConfig::try_new(32, 7, 10, 0).unwrap_err(),
            WindowConfigError::ZeroFineBuckets
        );
        // The fields are public: a hand-built degenerate tier factor must be
        // caught by validate (and by the engine) rather than panicking later.
        let mut config = WindowConfig::new(32, 7, 10, 4);
        config.tier_factor = 1;
        assert_eq!(config.validate().unwrap_err(), WindowConfigError::TierFactorTooSmall);
        assert!(WindowConfig::try_new(32, 7, 10, 4).is_ok());
    }

    #[test]
    fn temporal_config_try_new_returns_typed_errors() {
        assert_eq!(
            TemporalConfig::try_new(0, 32, 7, 10, 4).unwrap_err(),
            TemporalConfigError::ZeroShards
        );
        assert_eq!(
            TemporalConfig::try_new(2, 32, 7, 0, 4).unwrap_err(),
            TemporalConfigError::Window(WindowConfigError::ZeroBucketWidth)
        );
        let mut config = TemporalConfig::new(2, 32, 7, 10, 4);
        config.queue_depth = 0;
        assert_eq!(config.validate().unwrap_err(), TemporalConfigError::ZeroQueueDepth);
        let mut config = TemporalConfig::new(2, 32, 7, 10, 4);
        config.batch_rows = 0;
        assert_eq!(config.validate().unwrap_err(), TemporalConfigError::ZeroBatchRows);
        match TemporalIngestEngine::try_new(TemporalConfig {
            shards: 0,
            ..TemporalConfig::new(1, 32, 7, 10, 4)
        }) {
            Err(TemporalConfigError::ZeroShards) => {}
            other => panic!("expected ZeroShards, got {:?}", other.map(|_| ())),
        }
        let engine = TemporalIngestEngine::try_new(TemporalConfig::new(1, 32, 7, 10, 4))
            .expect("valid config spawns");
        let _ = engine.finish();
    }

    #[test]
    fn poisoned_worker_degrades_to_typed_errors() {
        // The range paths of the daemon contract: a deliberately-panicked
        // worker must surface as EngineError::ShardDown from both fallible
        // range queries. (Handles and checkpoints are covered for both
        // engines by the shard runtime's own test of the same name.)
        let engine =
            TemporalIngestEngine::new(TemporalConfig::new(2, 64, 13, 10, 4).with_batch_rows(64));
        let mut handle = engine.handle();
        for ts in 0u64..50 {
            for row in 0u64..40 {
                handle.offer_at(row, ts);
            }
        }
        handle.flush();
        engine.debug_kill_shard(1);

        match engine.try_range_capture(&TimeRange::All) {
            Err(EngineError::ShardDown { shard: 1 }) => {}
            other => panic!("expected ShardDown {{ shard: 1 }}, got {:?}", other.map(|_| ())),
        }
        match engine.try_range_snapshot(&TimeRange::LastBuckets(4)) {
            Err(EngineError::ShardDown { shard: 1 }) => {}
            other => panic!("expected ShardDown {{ shard: 1 }}, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn range_capture_is_cached_at_a_fixed_watermark() {
        let engine = TemporalIngestEngine::new(TemporalConfig::new(2, 32, 4, 10, 4));
        let mut handle = engine.handle();
        for ts in 0u64..40 {
            handle.offer_at(ts % 9, ts);
        }
        handle.flush();
        let a = engine.range_capture(&TimeRange::All);
        let b = engine.range_capture(&TimeRange::All);
        // Identical Arc: the second capture hit the cache, no new fold (and no
        // new salt) happened.
        assert!(Arc::ptr_eq(&a, &b));
        // New ingest moves the watermark and invalidates.
        handle.offer_at(1, 41);
        handle.flush();
        let c = engine.range_capture(&TimeRange::All);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.rows_processed(), 41);
        let _ = engine.finish();
    }

    #[test]
    fn finish_matches_rows_and_conserves_mass() {
        let engine = TemporalIngestEngine::new(
            TemporalConfig::new(3, 64, 8, 5, 3).with_batch_rows(128),
        );
        std::thread::scope(|scope| {
            for producer in 0..3u64 {
                let mut handle = engine.handle();
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        handle.offer_at(producer * 1_000 + i % 150, i / 40);
                    }
                });
            }
        });
        let merged = engine.finish();
        assert_eq!(merged.rows_processed(), 6_000);
        let mass: f64 = merged.entries().iter().map(|(_, c)| c).sum();
        assert!((mass - 6_000.0).abs() < 1e-6, "mass {mass}");
    }

    #[test]
    fn maximal_timestamp_lands_in_the_last_representable_bucket() {
        // Regression: ts / width == u64::MAX used to overflow span arithmetic
        // (index + 1) in debug builds and silently escape every range query in
        // release — the row clamps into bucket u64::MAX - 1 instead.
        let mut s = store(1, 4, 1, 2);
        s.offer_at(42, u64::MAX);
        s.offer_at(43, u64::MAX - 1);
        assert_eq!(s.newest_bucket(), Some(u64::MAX - 1));
        let all = s.range_reports(0, u64::MAX);
        assert_eq!(all.iter().map(|r| r.rows).sum::<u64>(), 2);
        let folded = s.fold_range(0, u64::MAX, 1, 2);
        assert_eq!(folded.rows_processed(), 2);
    }

    /// Runs the worker's idle builder to quiescence and returns how many nodes
    /// it built, so tests can exercise the same code path the shard threads do.
    fn build_ladder(s: &mut WindowedSketchStore) -> usize {
        let mut steps = 0;
        while s.ladder_idle_step() {
            steps += 1;
            assert!(steps < 10_000, "idle builder failed to reach quiescence");
        }
        s.ladder_node_count()
    }

    /// Total rows held by the fine buckets covering `[start, end)`.
    fn leaf_rows(s: &WindowedSketchStore, start: u64, end: u64) -> u64 {
        s.fine_sketches()
            .filter(|&(i, _)| i >= start && i < end)
            .map(|(_, sk)| sk.rows_processed())
            .sum()
    }

    #[test]
    fn idle_steps_build_every_sealed_aligned_node_exactly_once() {
        // 8 fine buckets, all retained (window wider than the stream): newest
        // is 7, so sealed buckets are 0..7. Level 1 can host [0,2), [2,4) and
        // [4,6) ([6,8) would cover the open bucket); level 2 only [0,4);
        // level 3 nothing. Every node's rows must equal its leaves' exactly.
        let mut s = store(1, 8, 1, 2);
        for ts in 0u64..8 {
            for _ in 0..(ts + 1) * 3 {
                s.offer_at(ts % 5, ts);
            }
        }
        assert_eq!(ladder_max_level(8), 2);
        assert_eq!(build_ladder(&mut s), 4);
        for (idx, level) in s.ladder.levels.iter().enumerate() {
            let len = 1u64 << (idx + 1);
            for (&start, node) in level {
                assert_eq!(start % len, 0, "level {} start {start}", idx + 1);
                assert_eq!(node.end, start + len);
                assert_eq!(node.rows, leaf_rows(&s, node.start, node.end));
                let mass: f64 = node.entries.iter().map(|&(_, c)| c).sum();
                assert!((mass - node.rows as f64).abs() < 1e-6);
            }
        }
        // A second pass is a no-op: everything buildable is already built.
        assert!(!s.ladder_idle_step());
    }

    #[test]
    fn dyadic_reports_conserve_rows_and_match_the_leaf_path_when_raw() {
        let mut s = store(1, 16, 2, 4);
        for ts in 0u64..16 {
            for i in 0..20u64 {
                s.offer_at(i % 9, ts);
            }
        }
        build_ladder(&mut s);
        // A wide range goes through pre-merged nodes (flag false) and
        // conserves the covered rows exactly.
        let (wide, raw) = s.range_reports_dyadic(0, 16);
        assert!(!raw, "a 16-bucket span must use the ladder");
        assert_eq!(wide.iter().map(|r| r.rows).sum::<u64>(), 16 * 20);
        // A single-bucket range is answered raw, byte-identical to the
        // pre-ladder leaf path.
        let (one, raw) = s.range_reports_dyadic(15, 16);
        assert!(raw);
        assert_eq!(one, s.range_reports(15, 16));
        // Degenerate ranges are empty and raw.
        let (none, raw) = s.range_reports_dyadic(5, 5);
        assert!(none.is_empty() && raw);
    }

    #[test]
    fn out_of_order_rows_invalidate_exactly_the_covering_nodes() {
        let mut s = store(1, 8, 1, 2);
        for ts in 0u64..8 {
            s.offer_at(ts, ts);
        }
        assert_eq!(build_ladder(&mut s), 4);
        // A late in-window row lands in sealed bucket 1: the covering nodes
        // ([0,2) at level 1, [0,4) at level 2) are dropped, the others stay.
        s.offer_at(99, 1);
        assert_eq!(s.ladder_node_count(), 2);
        // Rebuilt nodes reflect the mutated leaf — the dyadic answer stays
        // exactly mass-conserving.
        let (reports, _) = s.range_reports_dyadic(0, 8);
        assert_eq!(reports.iter().map(|r| r.rows).sum::<u64>(), 9);
        assert_eq!(s.ladder_node_count(), 4);
    }

    #[test]
    fn rotation_retires_expired_nodes_without_touching_live_ones() {
        let mut s = store(1, 8, 1, 2);
        for ts in 0u64..8 {
            s.offer_at(ts, ts);
        }
        assert_eq!(build_ladder(&mut s), 4);
        // Advancing to bucket 9 drops buckets 0 and 1 out of the window
        // (min_live 2): node [0,2) and the level-2 [0,4) start below the floor
        // and retire; [2,4) and [4,6) survive.
        s.offer_at(1, 9);
        assert_eq!(s.ladder_node_count(), 2);
        for (idx, level) in s.ladder.levels.iter().enumerate() {
            for (&start, node) in level {
                assert!(start >= 2, "level {} node {start} escaped retirement", idx + 1);
                assert_eq!(node.rows, leaf_rows(&s, node.start, node.end));
            }
        }
        // The idle builder resumes past the retired spans and re-covers the
        // newly sealed buckets.
        build_ladder(&mut s);
        let (reports, _) = s.range_reports_dyadic(0, u64::MAX);
        let total: u64 = reports.iter().map(|r| r.rows).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn indexed_reports_premerge_wide_spans_into_one_memoized_report() {
        let mut s = store(1, 16, 2, 4);
        for ts in 0u64..16 {
            for i in 0..15u64 {
                s.offer_at(i, ts);
            }
        }
        let (first, raw) = s.indexed_range_reports(0, 16);
        assert!(!raw);
        assert_eq!(first.len(), 1, "wide spans answer with one span report");
        assert_eq!(first[0].rows, 16 * 15);
        // Same span over the same leaves: the span-derived seed reproduces
        // the identical report.
        let (again, raw) = s.indexed_range_reports(0, 16);
        assert!(!raw);
        assert_eq!(again, first);
        // Ingest changes the leaves, and the report follows them.
        s.offer_at(7, 15);
        let (fresh, _) = s.indexed_range_reports(0, 16);
        assert_eq!(fresh[0].rows, 16 * 15 + 1);
    }

    #[test]
    fn single_bucket_indexed_fold_is_bit_identical_to_the_leaf_fold() {
        // The no-regression guarantee: a span touching one retained bucket
        // takes the raw path, so the indexed fold is the exact sequential fold
        // — same bytes, not merely the same distribution.
        let mut s = store(1, 8, 1, 2);
        for ts in 0u64..8 {
            for i in 0..50u64 {
                s.offer_at(i % 40, ts);
            }
        }
        build_ladder(&mut s);
        for b in 0..8u64 {
            let indexed = s.fold_range_indexed(b, b + 1, 11, 13);
            let leaf = s.fold_range(b, b + 1, 11, 13);
            assert_eq!(indexed.entries(), leaf.entries(), "bucket {b}");
            assert_eq!(indexed.rows_processed(), leaf.rows_processed());
        }
    }

    #[test]
    fn dyadic_walk_survives_the_maximal_bucket_index() {
        // Regression companion to the maximal-timestamp clamp: the dyadic
        // walk's span arithmetic (x + 2^level, next_multiple_of) must not
        // overflow when the newest bucket is u64::MAX - 1.
        let mut s = store(1, 4, 1, 2);
        s.offer_at(42, u64::MAX);
        s.offer_at(43, u64::MAX - 1);
        build_ladder(&mut s);
        let (reports, _) = s.range_reports_dyadic(0, u64::MAX);
        assert_eq!(reports.iter().map(|r| r.rows).sum::<u64>(), 2);
        let folded = s.fold_range_indexed(0, u64::MAX, 1, 2);
        assert_eq!(folded.rows_processed(), 2);
    }

    #[test]
    fn find_item_visits_fine_tier_and_terminal_entries() {
        // 2 fine buckets, one tier of factor 2: item 100+b of bucket b ends
        // in the terminal bucket [0, 2), tier bucket [2, 3) or fine 3 and 4.
        let mut s = store(1, 2, 1, 2);
        for b in 0u64..5 {
            s.offer_at(100 + b, b);
        }
        assert!(s.terminal_bucket().is_some() && s.tier_buckets(0).len() == 1);
        for b in 0u64..5 {
            assert_eq!(s.find_item(|item| item == 100 + b), Some(100 + b), "bucket {b}");
        }
        assert_eq!(s.find_item(|item| item == 7), None);
    }

    #[test]
    fn late_batch_accounting_matches_per_row_offers_exactly() {
        // Satellite check: a clamped batch must account late rows per item,
        // identically to offering each row alone — counters and sketch bytes.
        let mut a = store(10, 3, 1, 2);
        let mut b = store(10, 3, 1, 2);
        a.offer_at(1, 50);
        b.offer_at(1, 50);
        let late_items: Vec<u64> = (0..40u64).collect();
        a.offer_batch_at(&late_items, 5); // bucket 0: older than the window
        for &item in &late_items {
            b.offer_at(item, 5);
        }
        assert_eq!(a.late_rows(), 40);
        assert_eq!(a.late_rows(), b.late_rows());
        assert_eq!(a.rows_processed(), b.rows_processed());
        let ea: Vec<_> = a.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        let eb: Vec<_> = b.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn degenerate_ranges_answer_a_well_formed_empty_snapshot() {
        // Satellite regression: `Between { start: 7, end: 7 }` resolves to
        // (0, 0) — the engine must answer a deterministic empty sketch, not
        // fold whatever overlaps (0, 0) or consume a snapshot salt.
        let engine = TemporalIngestEngine::new(TemporalConfig::new(2, 32, 5, 10, 8));
        let mut handle = engine.handle();
        for ts in 0u64..50 {
            handle.offer_at(ts % 6, ts);
        }
        handle.flush();
        for range in [
            TimeRange::Between { start: 7, end: 7 },
            TimeRange::Between { start: 9, end: 3 },
            TimeRange::LastBuckets(0),
        ] {
            let snap = engine.range_snapshot(&range);
            assert_eq!(snap.rows_processed(), 0, "{range:?}");
            assert!(snap.entries().is_empty(), "{range:?}");
            assert_eq!(snap.total_weight(), 0.0, "{range:?}");
            let leaf = engine.range_snapshot_leaf(&range);
            assert_eq!(leaf.entries(), snap.entries(), "{range:?}");
            let captured = engine.range_capture(&range);
            assert_eq!(captured.rows_processed(), 0, "{range:?}");
            assert!(captured.entries().is_empty(), "{range:?}");
        }
        // None of those consumed a salt: the next real snapshot still matches
        // a twin engine that never saw a degenerate poll.
        let twin = TemporalIngestEngine::new(TemporalConfig::new(2, 32, 5, 10, 8));
        let mut th = twin.handle();
        for ts in 0u64..50 {
            th.offer_at(ts % 6, ts);
        }
        th.flush();
        let a = engine.range_snapshot(&TimeRange::All);
        let b = twin.range_snapshot(&TimeRange::All);
        assert_eq!(a.entries(), b.entries());
        let _ = engine.finish();
        let _ = twin.finish();
    }

    #[test]
    #[should_panic(expected = "bucket_width")]
    fn zero_bucket_width_panics() {
        let _ = WindowConfig::new(8, 1, 0, 4);
    }

    #[test]
    #[should_panic(expected = "tier_factor")]
    fn tier_factor_below_two_panics() {
        let _ = WindowConfig::new(8, 1, 10, 4).with_retention(2, 1);
    }
}
