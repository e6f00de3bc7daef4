//! Concurrent sharded ingest engine: live, queryable sketching of heavy streams.
//!
//! The plain sketches in [`crate::space_saving`] are single-threaded values: one
//! owner, one `offer` call per row. This module scales the same algorithmic content to
//! a production-shaped ingest path built around the property that makes it correct —
//! Ting's unbiased PPS merge (section 5.5), under which sharded sketches can be folded
//! at any time into a single sketch that stays unbiased for every after-the-fact
//! subset-sum query.
//!
//! A [`ShardedIngestEngine`] owns `N` worker shards, each an OS thread with a private
//! [`UnbiasedSpaceSaving`] sketch. Producers obtain cheap cloneable
//! [`IngestHandle`]s, which route rows to shards *by item hash* (so every occurrence
//! of an item lands on the same shard and frequent-item counts stay sharp) and move
//! them over lock-free channels in coarse blocks. Each worker optionally runs a
//! *map-side combiner*: incoming batches are pre-aggregated into `(item, count)`
//! pairs and applied with [`UnbiasedSpaceSaving::offer_many`] multi-increments — the
//! weighted update of section 5.3, which preserves unbiasedness for any grouping —
//! so on skewed traffic the sketch sees orders of magnitude fewer updates than rows.
//!
//! The workers, handles, quiesce cuts, checkpoint fan-out and failure isolation
//! are the shard runtime both engines share; its contract is documented once, in
//! `shard.rs`. This module holds the plain engine's configuration, its shard
//! state (sketch plus combiner) and its queries.
//!
//! [`ShardedIngestEngine::snapshot`] serves queries while ingest continues: it asks
//! every shard (a quiesce cut, so all previously enqueued blocks are drained first)
//! for its current entries and folds them with the unbiased PPS merge.
//! [`ShardedIngestEngine::finish`] stops and joins the workers and folds their
//! final sketches the same way. [`ShardedIngestEngine::checkpoint`] persists one
//! [`crate::persist`] file per shard plus a manifest, and
//! [`ShardedIngestEngine::restore`] resumes from such a directory bit-compatibly.
//!
//! # Engine or plain sketch?
//!
//! Use a plain [`UnbiasedSpaceSaving`] when one thread owns the stream and exact
//! row-order reproducibility matters (experiments, tests, small streams). Use the
//! engine when rows arrive from many producers, when ingest must overlap with
//! queries, or when throughput matters more than row-level determinism: the combiner
//! reorders rows *within* a flush window, which changes no expectation (every subset
//! sum stays unbiased) but does change individual sample paths.
//! [`crate::distributed::DistributedSketcher`] remains the deterministic map-reduce
//! convenience wrapper over this engine.

use std::sync::mpsc::Sender;
use std::sync::Arc;

use crate::hash::{splitmix64, FxHashMap};
use crate::merge::{fold_unbiased, FOLD_MERGE_SALT, FOLD_OUT_SALT};
use crate::metrics::EngineMetrics;
use crate::persist::{self, PersistError};
use crate::shard::{self, ShardHandle, ShardRuntime, ShardState, ShardWorker};
use crate::space_saving::{UnbiasedSpaceSaving, WeightedSpaceSaving};
use crate::traits::StreamSketch;

use plain::{PlainRequest, PlainShard};

/// Why an [`EngineConfig`] cannot drive an engine. Construction through
/// [`EngineConfig::new`] and the `with_*` builders rejects these values eagerly,
/// but the fields are public, so the engines re-validate with
/// [`EngineConfig::validate`] before spawning anything and surface this typed
/// error instead of panicking deep inside worker spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineConfigError {
    /// `shards == 0`: there would be no worker to route any row to.
    ZeroShards,
    /// `capacity == 0`: shard sketches cannot hold zero counters.
    ZeroCapacity,
    /// `queue_depth == 0`: every send would block forever on a zero-slot queue.
    ZeroQueueDepth,
    /// `batch_rows == 0`: a handle would never accumulate a sendable batch.
    ZeroBatchRows,
}

impl std::fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "engine needs at least one shard"),
            Self::ZeroCapacity => write!(f, "capacity must be positive"),
            Self::ZeroQueueDepth => write!(f, "queue_depth must be positive"),
            Self::ZeroBatchRows => write!(f, "batch_rows must be positive"),
        }
    }
}

impl std::error::Error for EngineConfigError {}

/// What went wrong inside one shard during a fallible engine operation.
#[derive(Debug)]
pub enum ShardFault {
    /// The shard's worker thread is gone (it panicked, or the engine is being
    /// used after `finish`), so the request could not be served.
    Down,
    /// The shard's state was captured but persisting it failed.
    Persist(PersistError),
}

impl std::fmt::Display for ShardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Down => write!(f, "worker disconnected"),
            Self::Persist(err) => write!(f, "persist failed: {err}"),
        }
    }
}

/// A per-shard failure record inside [`EngineError::CheckpointIncomplete`].
#[derive(Debug)]
pub struct ShardFailure {
    /// Index of the failing shard.
    pub shard: usize,
    /// What went wrong on that shard.
    pub fault: ShardFault,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.fault)
    }
}

/// Typed failure of a running engine's control path.
///
/// Worker threads only exit by request or by panicking, so historically every
/// control-plane send/receive `expect`ed success — which turned one poisoned
/// shard into a panic in whatever thread happened to snapshot next. A long-lived
/// daemon serving many tenants cannot afford that: the fallible variants
/// ([`ShardedIngestEngine::try_snapshot`], [`ShardedIngestEngine::checkpoint`],
/// and the temporal equivalents) surface this error instead, degrading the one
/// request while the process (and every healthy shard) keeps running.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// A shard's worker thread is gone: it panicked, or the engine was used
    /// after teardown. Requests that need all shards cannot be served.
    ShardDown {
        /// Index of the dead shard.
        shard: usize,
    },
    /// A persistence failure not attributable to one shard (creating the
    /// checkpoint directory, writing the manifest).
    Persist(PersistError),
    /// A checkpoint captured and wrote every healthy shard but some shards
    /// failed; the listed shards have no fresh file and no manifest was
    /// written (a manifest must only ever describe a complete checkpoint).
    /// Healthy shards' files are on disk and can still be salvaged by hand.
    CheckpointIncomplete {
        /// One record per failing shard, in shard order.
        failures: Vec<ShardFailure>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShardDown { shard } => write!(f, "shard {shard} worker disconnected"),
            Self::Persist(err) => write!(f, "persist failed: {err}"),
            Self::CheckpointIncomplete { failures } => {
                write!(f, "checkpoint incomplete ({} shard(s) failed: ", failures.len())?;
                for (i, failure) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{failure}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Persist(err) => Some(err),
            _ => None,
        }
    }
}

impl From<PersistError> for EngineError {
    fn from(err: PersistError) -> Self {
        Self::Persist(err)
    }
}

/// Configuration for a [`ShardedIngestEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of worker shards (one OS thread and one sketch each).
    pub shards: usize,
    /// Bins per shard sketch, and in every merged snapshot.
    pub capacity: usize,
    /// Base RNG seed: shard `i` sketches with `seed + i`; merges derive their seeds
    /// from `seed` exactly as [`crate::distributed::DistributedSketcher`] does.
    pub seed: u64,
    /// Bound of each (handle, shard) ring, in batches of `batch_rows` rows: a
    /// producer blocks once its own ring to a shard holds this many batches —
    /// the engine's backpressure. Each handle has its own ring per shard, so a
    /// shard's total backlog grows with the number of live handles.
    pub queue_depth: usize,
    /// Rows buffered per shard inside an [`IngestHandle`] before a batch is sent.
    pub batch_rows: usize,
    /// Maximum distinct items held in a worker's map-side combiner before it is
    /// flushed into the sketch with unbiased multi-increments. `0` disables the
    /// combiner: rows are then applied in arrival order through
    /// [`StreamSketch::offer_batch`], which is row-for-row equivalent to sequential
    /// `offer` calls.
    pub combiner_items: usize,
}

impl EngineConfig {
    /// A sensible default configuration: queue depth 4, 4096-row batches, and a
    /// combiner bounded at 65 536 distinct items per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    #[must_use]
    pub fn new(shards: usize, capacity: usize, seed: u64) -> Self {
        assert!(shards > 0, "engine needs at least one shard");
        assert!(capacity > 0, "capacity must be positive");
        Self {
            shards,
            capacity,
            seed,
            queue_depth: 4,
            batch_rows: 4096,
            combiner_items: 1 << 16,
        }
    }

    /// Overrides the per-shard combiner bound (`0` disables combining).
    #[must_use]
    pub fn with_combiner_items(mut self, combiner_items: usize) -> Self {
        self.combiner_items = combiner_items;
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

    /// Checks the configuration for values no engine can run with. The fields are
    /// public, so a config built by hand (rather than through [`new`](Self::new)
    /// and the builders) may carry zeros; the engines call this before spawning
    /// workers and return the error instead of panicking mid-spawn.
    ///
    /// # Errors
    ///
    /// The first [`EngineConfigError`] found, checking shards, capacity, queue
    /// depth, then batch size.
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if self.shards == 0 {
            return Err(EngineConfigError::ZeroShards);
        }
        if self.capacity == 0 {
            return Err(EngineConfigError::ZeroCapacity);
        }
        if self.queue_depth == 0 {
            return Err(EngineConfigError::ZeroQueueDepth);
        }
        if self.batch_rows == 0 {
            return Err(EngineConfigError::ZeroBatchRows);
        }
        Ok(())
    }
}

/// A live, concurrently-fed, queryable sharded sketch. See the [module docs](self)
/// for when to prefer it over a plain sketch.
#[derive(Debug)]
pub struct ShardedIngestEngine {
    config: EngineConfig,
    runtime: ShardRuntime<PlainShard>,
}

impl ShardedIngestEngine {
    /// Spawns the worker shards and returns the running engine.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`EngineConfig::validate`]); use
    /// [`try_new`](Self::try_new) to get the typed error instead.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        match Self::try_new(config) {
            Ok(engine) => engine,
            Err(err) => panic!("{err}"),
        }
    }

    /// Validates the configuration and spawns the worker shards.
    ///
    /// # Errors
    ///
    /// [`EngineConfigError`] when `config` carries a zero where a positive value is
    /// required — caught here, before any worker thread exists.
    pub fn try_new(config: EngineConfig) -> Result<Self, EngineConfigError> {
        config.validate()?;
        let sketches = (0..config.shards)
            .map(|shard| {
                UnbiasedSpaceSaving::with_seed(config.capacity, config.seed + shard as u64)
            })
            .collect();
        Ok(Self::spawn(config, sketches, 0, 0))
    }

    /// Spawns one worker per sketch; shared by [`new`](Self::new) (fresh sketches)
    /// and [`restore`](Self::restore) (checkpointed sketches). The caller has
    /// already validated `config`.
    fn spawn(
        config: EngineConfig,
        sketches: Vec<UnbiasedSpaceSaving>,
        snapshots: u64,
        rows_enqueued: u64,
    ) -> Self {
        let states = sketches
            .into_iter()
            .map(|sketch| PlainShard {
                sketch,
                combiner: FxHashMap::default(),
                combiner_items: config.combiner_items,
            })
            .collect();
        let ring_blocks = shard::ring_blocks(config.queue_depth, config.batch_rows);
        Self {
            config,
            runtime: ShardRuntime::spawn(states, ring_blocks, snapshots, rows_enqueued, 0),
        }
    }

    /// The engine's runtime telemetry (live counters — read them any time; they
    /// are exact after a quiesce point such as a snapshot or checkpoint).
    #[must_use]
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        self.runtime.metrics()
    }

    /// Number of rows handed to the shard queues so far (a cheap, monotone ingest
    /// progress hint — it does not include rows still buffered inside
    /// [`IngestHandle`]s, and leads [`StreamSketch::rows_processed`] of a snapshot by
    /// whatever is queued but not yet applied).
    #[must_use]
    pub fn rows_enqueued(&self) -> u64 {
        self.runtime.rows_enqueued()
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.runtime.shards()
    }

    /// Creates a producer handle. Handles are independent — each owns one SPSC
    /// block ring per shard, registered with the workers here — and cheap; create
    /// one per producer thread.
    ///
    /// # Panics
    ///
    /// Panics if a worker is gone; [`try_handle`](Self::try_handle) degrades
    /// that into a typed error instead.
    #[must_use]
    pub fn handle(&self) -> IngestHandle {
        match self.try_handle() {
            Ok(handle) => handle,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible variant of [`handle`](Self::handle), for callers (like a serving
    /// daemon) that must survive a dead worker.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first shard whose worker could not
    /// register the new ring.
    pub fn try_handle(&self) -> Result<IngestHandle, EngineError> {
        self.runtime.handle()
    }

    /// Sends a batch of rows directly to an explicit shard, bypassing hash routing.
    /// This is the partition-oriented entry point used by
    /// [`crate::distributed::DistributedSketcher`], where "shard" means "partition of
    /// the input" rather than "slice of the item space". Rides the control channel,
    /// so explicit-shard batches apply in send order, FIFO with snapshot and
    /// checkpoint requests.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or the engine's workers have been torn down.
    pub fn ingest_to_shard(&self, shard: usize, rows: Vec<u64>) {
        if rows.is_empty() {
            return;
        }
        self.runtime
            .send_rows(shard, rows.len(), PlainRequest::Rows(rows));
    }

    /// Folds the live shards into one queryable [`WeightedSpaceSaving`] without
    /// stopping ingest: every shard drains the blocks already queued to it (a cut
    /// of each producer ring at the moment the request is seen, so a fast producer
    /// cannot postpone the reply), flushes its combiner, and reports
    /// its entries, which are then merged with the unbiased PPS merge. Rows still
    /// buffered inside [`IngestHandle`]s are *not* included — call
    /// `IngestHandle::flush` first if they must be.
    ///
    /// Each snapshot uses a fresh merge seed, so repeated snapshots are independent
    /// draws of the merge's sampling step.
    #[must_use]
    pub fn snapshot(&self) -> WeightedSpaceSaving {
        match self.try_snapshot() {
            Ok(merged) => merged,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible variant of [`snapshot`](Self::snapshot): a dead worker degrades
    /// this request into [`EngineError::ShardDown`] instead of panicking the
    /// calling thread — the contract a long-lived daemon needs.
    ///
    /// The snapshot-salt counter advances even on failure, so a successful
    /// retry is a fresh, independent draw of the merge's sampling step.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first dead shard found.
    pub fn try_snapshot(&self) -> Result<WeightedSpaceSaving, EngineError> {
        let salt = self.runtime.next_salt();
        let reports = self.runtime.request_all(PlainRequest::Report)?;
        Ok(fold_unbiased(
            self.config.capacity,
            self.config.seed ^ FOLD_MERGE_SALT ^ salt,
            self.config.seed ^ FOLD_OUT_SALT ^ salt,
            reports,
        ))
    }

    /// Writes a durable checkpoint of the engine into `dir`: one
    /// [`crate::persist::SketchKind::EngineShard`] file per shard
    /// (`shard-0000.uss`, …) holding that shard's *full* sketch state — entries,
    /// RNG, counter-structure layout — plus a `manifest.uss` tying them together.
    /// [`restore`](Self::restore) resumes from such a directory bit-compatibly.
    ///
    /// Like [`snapshot`](Self::snapshot), the checkpoint request quiesces the
    /// shard by draining a cut of its rings: every block enqueued before
    /// the call is applied (and the map-side combiner flushed) before the shard's
    /// state is captured, while ingest continues unhindered afterwards. Rows still
    /// buffered inside [`IngestHandle`]s are *not* included — flush first if they
    /// must be. With the combiner enabled, the forced flush is itself a reordering
    /// event (exactly as it is for `snapshot`), so checkpoint/restore is
    /// bit-compatible with an uninterrupted run when the combiner is disabled and
    /// statistically equivalent otherwise.
    ///
    /// Files are written atomically (temp file + rename), so a crash mid-checkpoint
    /// can leave stray `.tmp` files but never a torn sketch file.
    ///
    /// The checkpoint is *resilient per shard*: a dead worker or a failed write on
    /// one shard does not abort the remaining shards' writes — every healthy
    /// shard's file still lands on disk, and the failures are reported together in
    /// [`EngineError::CheckpointIncomplete`]. The manifest is only written when
    /// every shard succeeded. That alone does not keep the previous checkpoint:
    /// re-checkpointing into an existing directory overwrites its shard files
    /// before the manifest, so a failed re-checkpoint leaves an old manifest over
    /// new shard files, which restore refuses (ROADMAP item 6).
    ///
    /// # Errors
    ///
    /// [`EngineError::Persist`] when the directory cannot be created or the
    /// manifest cannot be written; [`EngineError::CheckpointIncomplete`] listing
    /// the per-shard failures otherwise.
    pub fn checkpoint<P: AsRef<std::path::Path>>(&self, dir: P) -> Result<(), EngineError> {
        self.runtime.checkpoint(dir.as_ref(), Self::meta(&self.config))
    }

    /// The engine identity a checkpoint records for `config`.
    fn meta(config: &EngineConfig) -> persist::EngineMeta {
        persist::EngineMeta {
            shards: config.shards as u64,
            capacity: config.capacity as u64,
            seed: config.seed,
        }
    }

    /// Kills the worker thread of `shard` by making it panic. Fault injection
    /// for tests only: this is how the regression suite proves that a poisoned
    /// shard degrades control requests into [`EngineError::ShardDown`] instead
    /// of taking the process down. The control channel is FIFO, so any request
    /// sent after this observes the dead worker deterministically.
    #[doc(hidden)]
    pub fn debug_kill_shard(&self, shard: usize) {
        self.runtime.debug_kill_shard(shard);
    }

    /// Resumes an engine from a [`checkpoint`](Self::checkpoint) directory. The
    /// engine identity in `config` (shards, capacity, seed) must match the
    /// manifest; queue depth, batch size and combiner bound are operational knobs
    /// and may differ. Under the same seeds and batch boundaries (combiner
    /// disabled), the restored engine continues *bit-compatibly*: feeding it the
    /// remainder of a stream yields exactly the entries an uninterrupted engine
    /// would have produced, and its snapshot-salt sequence continues where the
    /// checkpointed engine left off.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures, [`PersistError::Corrupt`] (or
    /// the more specific decode errors) on damaged files or when `config`
    /// disagrees with the manifest.
    pub fn restore<P: AsRef<std::path::Path>>(
        dir: P,
        config: EngineConfig,
    ) -> Result<Self, PersistError> {
        let (sketches, snapshots, rows) = ShardRuntime::<PlainShard>::read_checkpoint(
            dir.as_ref(),
            Self::meta(&config),
            config.shards,
            |_, _| Ok(()),
        )?;
        Ok(Self::spawn(config, sketches, snapshots, rows))
    }

    /// The manifest file name inside a checkpoint directory.
    pub const MANIFEST_FILE: &'static str = "manifest.uss";

    /// The shard file name for shard `i` inside a checkpoint directory.
    #[must_use]
    pub fn shard_file_name(shard: usize) -> String {
        format!("shard-{shard:04}.uss")
    }

    /// Stops every worker after it drains the batches already queued to it, joins the
    /// workers, and folds their final sketches with the unbiased PPS merge. Uses the
    /// same merge seeds as [`crate::distributed::DistributedSketcher::reduce`], so a
    /// partition-fed engine reproduces the map-reduce simulation exactly.
    ///
    /// Stop producers before finishing: [`IngestHandle`]s may outlive the engine, but
    /// rows offered concurrently with or after `finish` race the shutdown — they are
    /// dropped if they enqueue behind the stop message, and panic the offering thread
    /// ("shard worker disconnected") once the worker is gone. Rows still buffered in
    /// a handle when `finish` runs are likewise lost — flush first.
    #[must_use]
    pub fn finish(self) -> WeightedSpaceSaving {
        let reports = self
            .runtime
            .finish()
            .into_iter()
            .map(|shard| (shard.sketch.entries(), shard.sketch.rows_processed()));
        fold_unbiased(
            self.config.capacity,
            self.config.seed ^ FOLD_MERGE_SALT,
            self.config.seed ^ FOLD_OUT_SALT,
            reports,
        )
    }
}

/// The shard that owns `item` in an engine of `shards` workers: a
/// multiply-shift of the avalanched hash, an unbiased map onto `0..shards`.
/// Both engines' handles route through it, so every item lives on exactly one
/// shard — which lets a temporal range fold concatenate shard reports without
/// a combine, and lets restore reject a shard file holding another's items.
#[inline]
#[must_use]
pub fn shard_of(item: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    ((u128::from(splitmix64(item)) * shards as u128) >> 64) as usize
}

/// A producer-side handle of a [`ShardedIngestEngine`]: routes rows to shards
/// by item hash and ships them in blocks over its own ring per shard. Rows
/// still buffered are sent by `flush`, or best-effort on drop; see the shard
/// runtime's contract (`shard.rs`).
pub type IngestHandle = ShardHandle<PlainShard>;

impl IngestHandle {
    /// Offers one row. Lock-free; parks only when the destination shard's ring is
    /// full (the engine's backpressure).
    #[inline]
    pub fn offer(&mut self, item: u64) {
        self.push(item);
    }

    /// Fallible [`offer`](Self::offer): a dead destination worker fails this
    /// row's dispatch with [`EngineError::ShardDown`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the dead shard.
    #[inline]
    pub fn try_offer(&mut self, item: u64) -> Result<(), EngineError> {
        self.try_push(item)
    }

    /// Offers a batch of rows.
    pub fn offer_batch(&mut self, items: &[u64]) {
        for &item in items {
            self.push(item);
        }
    }

    /// Fallible [`offer_batch`](Self::offer_batch); stops at the first row whose
    /// destination worker is gone.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the dead shard.
    pub fn try_offer_batch(&mut self, items: &[u64]) -> Result<(), EngineError> {
        for &item in items {
            self.try_push(item)?;
        }
        Ok(())
    }
}

/// The plain engine's shard state. `pub` only so the [`IngestHandle`] alias
/// can name it; the module is private.
mod plain {
    use super::*;

    /// One shard: its sketch and optional map-side combiner.
    #[derive(Debug)]
    pub struct PlainShard {
        pub(super) sketch: UnbiasedSpaceSaving,
        pub(super) combiner: FxHashMap<u64, u64>,
        pub(super) combiner_items: usize,
    }

    /// Plain-engine requests.
    pub enum PlainRequest {
        /// Unit-weight rows for this shard, bypassing the rings: the
        /// explicit-shard path of [`ShardedIngestEngine::ingest_to_shard`],
        /// FIFO with the quiesce requests around it.
        Rows(Vec<u64>),
        /// Quiesce, then report the shard's entries and row count.
        Report(Sender<(Vec<(u64, f64)>, u64)>),
    }

    impl PlainShard {
        /// Applies the combiner's `(item, count)` aggregates as unbiased
        /// multi-increments.
        fn flush_combiner(&mut self) {
            for (item, count) in self.combiner.drain() {
                self.sketch.offer_many(item, count);
            }
        }
    }

    impl ShardState for PlainShard {
        type Row = u64;
        type Request = PlainRequest;
        type Image = UnbiasedSpaceSaving;
        type Meta = persist::EngineMeta;

        const MANIFEST_FILE: &'static str = ShardedIngestEngine::MANIFEST_FILE;

        #[inline]
        fn item(row: &u64) -> u64 {
            *row
        }

        #[inline]
        fn max_time(_: &[u64]) -> Option<u64> {
            None
        }

        /// Applies one block through the combiner, or directly when the
        /// combiner is disabled.
        fn apply(&mut self, rows: &[u64]) {
            if self.combiner_items == 0 {
                self.sketch.offer_batch(rows);
            } else {
                for &item in rows {
                    *self.combiner.entry(item).or_insert(0) += 1;
                }
                if self.combiner.len() >= self.combiner_items {
                    self.flush_combiner();
                }
            }
        }

        fn settle(&mut self) {
            self.flush_combiner();
        }

        fn idle_step(&mut self) -> bool {
            false
        }

        fn finish(&mut self) {
            self.flush_combiner();
        }

        fn memory_bytes(&self) -> u64 {
            self.sketch.memory_bytes()
        }

        fn answer(worker: &mut ShardWorker<Self>, request: PlainRequest) {
            match request {
                PlainRequest::Rows(rows) => worker.apply(&rows),
                PlainRequest::Report(reply) => {
                    worker.quiesce();
                    let sketch = &worker.state.sketch;
                    let _ = reply.send((sketch.entries(), sketch.rows_processed()));
                }
            }
        }

        fn capture(&self) -> UnbiasedSpaceSaving {
            self.sketch.clone()
        }

        fn image_rows(image: &UnbiasedSpaceSaving) -> u64 {
            image.rows_processed()
        }

        fn shard_file_name(shard: usize) -> String {
            ShardedIngestEngine::shard_file_name(shard)
        }

        fn encode_shard(shard: u64, meta: persist::EngineMeta, image: &UnbiasedSpaceSaving) -> Vec<u8> {
            persist::encode_shard(shard, meta, image)
        }

        fn decode_shard(
            bytes: &[u8],
        ) -> Result<(u64, persist::EngineMeta, UnbiasedSpaceSaving), PersistError> {
            persist::decode_shard(bytes)
        }

        fn encode_manifest(meta: persist::EngineMeta, snapshots: u64, rows: u64) -> Vec<u8> {
            persist::encode_manifest(&persist::EngineManifest { meta, snapshots, rows })
        }

        fn decode_manifest(bytes: &[u8]) -> Result<(persist::EngineMeta, u64, u64), PersistError> {
            let manifest = persist::decode_manifest(bytes)?;
            Ok((manifest.meta, manifest.snapshots, manifest.rows))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_routed_ingest_conserves_mass() {
        let engine = ShardedIngestEngine::new(EngineConfig::new(4, 64, 1).with_batch_rows(128));
        let mut handle = engine.handle();
        for i in 0..10_000u64 {
            handle.offer(i % 500);
        }
        handle.flush();
        let merged = engine.finish();
        assert_eq!(merged.rows_processed(), 10_000);
        let mass: f64 = merged.entries().iter().map(|(_, c)| c).sum();
        assert!((mass - 10_000.0).abs() < 1e-6);
        assert!(merged.retained_len() <= 64);
    }

    #[test]
    fn snapshot_serves_queries_while_ingest_continues() {
        let engine = ShardedIngestEngine::new(EngineConfig::new(2, 32, 2).with_batch_rows(64));
        let mut handle = engine.handle();
        for i in 0..2_000u64 {
            handle.offer(i % 40);
        }
        handle.flush();
        let early = engine.snapshot();
        assert_eq!(early.rows_processed(), 2_000);
        // The engine keeps accepting rows after a snapshot.
        for i in 0..1_000u64 {
            handle.offer(i % 40);
        }
        handle.flush();
        let late = engine.snapshot();
        assert_eq!(late.rows_processed(), 3_000);
        let merged = engine.finish();
        assert_eq!(merged.rows_processed(), 3_000);
    }

    #[test]
    fn concurrent_producers_all_arrive() {
        let engine = ShardedIngestEngine::new(EngineConfig::new(4, 128, 4).with_batch_rows(256));
        std::thread::scope(|scope| {
            for producer in 0..4u64 {
                let mut handle = engine.handle();
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        handle.offer((producer * 31 + i) % 700);
                    }
                });
            }
        });
        let merged = engine.finish();
        assert_eq!(merged.rows_processed(), 20_000);
    }

    #[test]
    fn combiner_and_exact_paths_agree_on_heavy_items() {
        // Item 7 takes ~25% of the stream; both ingest modes must nail its count.
        let rows: Vec<u64> = (0..40_000u64)
            .map(|i| if i % 4 == 0 { 7 } else { 100 + i % 3000 })
            .collect();
        let truth = rows.iter().filter(|&&i| i == 7).count() as f64;
        for combiner_items in [0usize, 1 << 12] {
            let config = EngineConfig::new(4, 256, 5).with_combiner_items(combiner_items);
            let engine = ShardedIngestEngine::new(config);
            let mut handle = engine.handle();
            handle.offer_batch(&rows);
            handle.flush();
            let merged = engine.finish();
            let est = merged.estimate(7);
            assert!(
                (est - truth).abs() / truth < 0.1,
                "combiner_items={combiner_items}: estimate {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn explicit_shard_routing_reaches_the_named_shard() {
        // Feed disjoint ranges to explicit shards with the combiner off; every row
        // must be accounted for and heavy items stay heavy.
        let engine = ShardedIngestEngine::new(
            EngineConfig::new(2, 64, 6).with_combiner_items(0),
        );
        engine.ingest_to_shard(0, vec![1; 500]);
        engine.ingest_to_shard(1, vec![2; 300]);
        let merged = engine.finish();
        assert_eq!(merged.rows_processed(), 800);
        assert!(merged.estimate(1) > 0.0);
        assert!(merged.estimate(2) > 0.0);
    }

    #[test]
    fn checkpoint_restore_smoke() {
        let dir = std::env::temp_dir().join(format!("uss-engine-ckpt-{}", std::process::id()));
        let config = EngineConfig::new(2, 32, 42).with_batch_rows(128);
        let engine = ShardedIngestEngine::new(config);
        let mut handle = engine.handle();
        for i in 0..3_000u64 {
            handle.offer(i % 77);
        }
        handle.flush();
        let _ = engine.snapshot(); // advance the snapshot-salt counter
        engine.checkpoint(&dir).unwrap();
        // The checkpointed engine keeps serving after the checkpoint.
        assert_eq!(engine.snapshot().rows_processed(), 3_000);
        drop(engine.finish());

        let restored = ShardedIngestEngine::restore(&dir, config).unwrap();
        assert_eq!(restored.rows_enqueued(), 3_000);
        // The snapshot counter resumed where the checkpoint recorded it (one
        // snapshot had been taken), so future merge salts continue the sequence.
        assert_eq!(restored.runtime.snapshots(), 1);
        let merged = restored.finish();
        assert_eq!(merged.rows_processed(), 3_000);
        let mass: f64 = merged.entries().iter().map(|(_, c)| c).sum();
        assert!((mass - 3_000.0).abs() < 1e-9);

        // A mismatched identity is refused.
        assert!(ShardedIngestEngine::restore(&dir, EngineConfig::new(3, 32, 42)).is_err());
        assert!(ShardedIngestEngine::restore(&dir, EngineConfig::new(2, 32, 43)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "shard")]
    fn zero_shards_panics() {
        let _ = EngineConfig::new(0, 10, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = EngineConfig::new(2, 0, 1);
    }

    #[test]
    fn try_new_returns_typed_errors_for_degenerate_configs() {
        // The builder panics on zeros, but the fields are public — a hand-built
        // config must be rejected with a typed error before any thread spawns.
        let good = EngineConfig::new(2, 8, 1);
        for (mutate, expected) in [
            (
                (|c: &mut EngineConfig| c.shards = 0) as fn(&mut EngineConfig),
                EngineConfigError::ZeroShards,
            ),
            (|c| c.capacity = 0, EngineConfigError::ZeroCapacity),
            (|c| c.queue_depth = 0, EngineConfigError::ZeroQueueDepth),
            (|c| c.batch_rows = 0, EngineConfigError::ZeroBatchRows),
        ] {
            let mut bad = good;
            mutate(&mut bad);
            assert_eq!(bad.validate().unwrap_err(), expected);
            assert_eq!(ShardedIngestEngine::try_new(bad).unwrap_err(), expected);
        }
        let engine = ShardedIngestEngine::try_new(good).expect("valid config spawns");
        let merged = engine.finish();
        assert_eq!(merged.rows_processed(), 0);
    }
}
