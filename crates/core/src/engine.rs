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
//! # Transport: SPSC block rings
//!
//! The producer→shard hop is a [`crate::spsc`] *block channel* per (handle, shard)
//! pair: a lock-free single-producer/single-consumer ring of cache-line-aligned
//! [`crate::spsc::RowBlock`]s, with a reverse ring recycling spent blocks back to
//! the producer so steady-state ingest allocates nothing and never takes a lock —
//! threads park only on genuine empty/full transitions. Because each channel has
//! exactly one producer, rows from any single handle reach their shard in offer
//! order (which is what makes the combiner-off path row-for-row deterministic);
//! rows from different handles interleave arbitrarily, exactly as they did when
//! handles shared one queue.
//!
//! Handles register their rings with the worker over a small control channel that
//! also carries snapshot/checkpoint/shutdown requests and the explicit-shard batches
//! of [`ShardedIngestEngine::ingest_to_shard`]. Control requests quiesce a shard by
//! *cut*: the worker records how many blocks each ring holds at the moment the
//! request is seen and drains exactly that many, so everything enqueued before the
//! request is applied without letting a fast concurrent producer postpone the reply
//! indefinitely.
//!
//! [`ShardedIngestEngine::snapshot`] serves queries while ingest continues: it asks
//! every shard (a quiesce cut, so all previously enqueued blocks are drained first)
//! for its current entries and folds them with the unbiased PPS merge.
//! [`ShardedIngestEngine::finish`] closes the channels, joins the workers, and folds
//! their final sketches the same way.
//!
//! [`ShardedIngestEngine::checkpoint`] persists the whole engine — one
//! [`crate::persist`] file per shard plus a manifest — and
//! [`ShardedIngestEngine::restore`] resumes from such a directory bit-compatibly,
//! which is what lets an engine survive a restart or ship its shards to another
//! node and keep the statistical guarantees of a single uninterrupted run.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::hash::{splitmix64, FxHashMap};
use crate::merge::{FOLD_MERGE_SALT, FOLD_OUT_SALT};
use crate::metrics::{EngineMetrics, RingCounters, ShardMetrics};
use crate::persist::{self, PersistError};
use crate::space_saving::{UnbiasedSpaceSaving, WeightedSpaceSaving};
use crate::spsc::{
    block_channel_with_counters, BlockReceiver, BlockSender, RowBlock, Waker, BLOCK_CAP,
};
use crate::traits::StreamSketch;

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
    /// Bound of each shard's queue, in batches. Producers block once a shard is this
    /// many batches behind — the engine's backpressure.
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

    /// Overrides the per-shard queue bound, in batches.
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

    /// The per-(handle, shard) ring bound, in blocks: the block-channel equivalent
    /// of "`queue_depth` batches of `batch_rows` rows" of producer backpressure.
    pub(crate) fn ring_blocks(&self) -> usize {
        (self.queue_depth * self.batch_rows).div_ceil(BLOCK_CAP).max(2)
    }
}

/// What a worker reports when asked for a snapshot: its live entries and row count.
/// Also the unit the crate-internal [`fold_reports`] merge folds over.
pub(crate) struct ShardReport {
    pub(crate) entries: Vec<(u64, f64)>,
    pub(crate) rows: u64,
}

/// Control-plane messages to a shard worker. Data rides the SPSC block rings; this
/// (unbounded, rarely used) channel carries everything else. Every control request
/// that observes sketch state first drains a *cut* of the data rings — see the
/// [module docs](self).
pub(crate) enum ControlMsg {
    /// A new producer ring to poll: sent when an [`IngestHandle`] is created or
    /// cloned. The worker retires the ring once the handle drops it and the
    /// remaining blocks are drained.
    Register(BlockReceiver<u64>),
    /// A batch of unit-weight rows for this shard, bypassing the rings. The
    /// partition-oriented path of [`ShardedIngestEngine::ingest_to_shard`], kept on
    /// the control channel so explicit-shard feeds stay strictly FIFO with the
    /// quiesce requests around them.
    Rows(Vec<u64>),
    /// Drain a cut, flush the combiner, and report the shard's current state.
    Report(Sender<ShardReport>),
    /// Drain a cut, flush the combiner, and reply with a full clone of the shard's
    /// sketch (entries, RNG and counter-structure state) for a durable checkpoint.
    Checkpoint(Sender<UnbiasedSpaceSaving>),
    /// Drain a cut, then stop — even if producer handles (and thus rings feeding
    /// this shard) are still alive.
    Shutdown,
    /// Panic the worker immediately. A test-only fault injector (reachable via
    /// `debug_kill_shard`) used to prove that control paths degrade into
    /// [`EngineError::ShardDown`] instead of killing the calling thread.
    Poison,
}

/// The engine's per-shard endpoint: the control sender plus the worker's parking
/// slot, which must be woken after every control send so a parked worker sees the
/// message. Generic over the control-message type so the temporal engine reuses
/// it with its own message set.
pub(crate) struct ShardLink<M = ControlMsg> {
    control: Sender<M>,
    waker: Arc<Waker>,
    /// The shard's ring telemetry, shared by every block channel wired to it.
    ring_counters: Arc<RingCounters>,
}

impl<M> ShardLink<M> {
    pub(crate) fn new(
        control: Sender<M>,
        waker: Arc<Waker>,
        ring_counters: Arc<RingCounters>,
    ) -> Self {
        Self {
            control,
            waker,
            ring_counters,
        }
    }

    /// The worker's parking slot, for wiring new block channels to it.
    pub(crate) fn waker(&self) -> &Arc<Waker> {
        &self.waker
    }

    /// The shard's shared ring telemetry, for wiring new block channels to it.
    pub(crate) fn ring_counters(&self) -> &Arc<RingCounters> {
        &self.ring_counters
    }

    /// Sends a control message and wakes the worker.
    ///
    /// # Panics
    ///
    /// Panics if the worker is gone (it only exits by panicking or after
    /// `Shutdown`, so a failed send means the engine is being misused after
    /// `finish` — mirroring the old "shard worker disconnected" behavior).
    pub(crate) fn send(&self, msg: M) {
        self.try_send(msg).expect("shard worker disconnected");
    }

    /// Sends a control message and wakes the worker, reporting a dead worker
    /// instead of panicking. The fallible control paths build their
    /// [`EngineError::ShardDown`] from this.
    pub(crate) fn try_send(&self, msg: M) -> Result<(), ()> {
        match self.control.send(msg) {
            Ok(()) => {
                self.waker.wake();
                Ok(())
            }
            Err(_) => Err(()),
        }
    }

    /// Like [`send`](Self::send), but quietly drops the message when the worker is
    /// gone (used from `Drop` paths that must not panic).
    pub(crate) fn send_lossy(&self, msg: M) {
        if self.control.send(msg).is_ok() {
            self.waker.wake();
        }
    }
}

impl<M> Clone for ShardLink<M> {
    fn clone(&self) -> Self {
        Self {
            control: self.control.clone(),
            waker: Arc::clone(&self.waker),
            ring_counters: Arc::clone(&self.ring_counters),
        }
    }
}

impl<M> std::fmt::Debug for ShardLink<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLink").finish_non_exhaustive()
    }
}

/// A live, concurrently-fed, queryable sharded sketch. See the [module docs](self)
/// for the architecture and for when to prefer it over a plain sketch.
#[derive(Debug)]
pub struct ShardedIngestEngine {
    config: EngineConfig,
    links: Vec<ShardLink>,
    workers: Vec<JoinHandle<UnbiasedSpaceSaving>>,
    snapshots: AtomicU64,
    /// Rows enqueued to the shards so far, shared with every [`IngestHandle`]. A
    /// cheap monotone progress hint (updated once per dispatched batch) used by the
    /// query layer's staleness policy; it leads `rows_processed` by whatever is
    /// still queued.
    rows_enqueued: Arc<AtomicU64>,
    /// Runtime telemetry: per-shard rows/blocks/ring counters plus engine-level
    /// checkpoint counters. Shared with workers and producer handles.
    metrics: Arc<EngineMetrics>,
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
        let metrics = Arc::new(EngineMetrics::with_shards(sketches.len()));
        let mut links = Vec::with_capacity(sketches.len());
        let mut workers = Vec::with_capacity(sketches.len());
        for (shard, sketch) in sketches.into_iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::channel();
            let waker = Arc::new(Waker::new());
            let combiner_items = config.combiner_items;
            let worker_waker = Arc::clone(&waker);
            let shard_metrics = Arc::clone(&metrics.shards[shard]);
            workers.push(std::thread::spawn(move || {
                run_worker(&rx, &worker_waker, sketch, combiner_items, &shard_metrics)
            }));
            links.push(ShardLink {
                control: tx,
                waker,
                ring_counters: Arc::clone(&metrics.shards[shard].ring),
            });
        }
        Self {
            config,
            links,
            workers,
            snapshots: AtomicU64::new(snapshots),
            rows_enqueued: Arc::new(AtomicU64::new(rows_enqueued)),
            metrics,
        }
    }

    /// The engine's runtime telemetry (live counters — read them any time; they
    /// are exact after a quiesce point such as a snapshot or checkpoint).
    #[must_use]
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Number of rows handed to the shard queues so far (a cheap, monotone ingest
    /// progress hint — it does not include rows still buffered inside
    /// [`IngestHandle`]s, and leads [`StreamSketch::rows_processed`] of a snapshot by
    /// whatever is queued but not yet applied).
    #[must_use]
    pub fn rows_enqueued(&self) -> u64 {
        self.rows_enqueued.load(Ordering::Relaxed)
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.links.len()
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
        IngestHandle::connect(&self.links, self.config.ring_blocks(), &self.rows_enqueued)
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
        self.rows_enqueued
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.links[shard].send(ControlMsg::Rows(rows));
    }

    /// Folds the live shards into one queryable [`WeightedSpaceSaving`] without
    /// stopping ingest: every shard drains the blocks already queued to it (a cut
    /// of each producer ring at the moment the request is seen, so a fast producer
    /// cannot postpone the reply), flushes its combiner, and reports
    /// its entries, which are then merged with the unbiased PPS merge. Rows still
    /// buffered inside [`IngestHandle`]s are *not* included — call
    /// [`IngestHandle::flush`] first if they must be.
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
        let n = self.snapshots.fetch_add(1, Ordering::Relaxed);
        let salt = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Request every shard's report before awaiting any, so the per-shard
        // cut drains and combiner flushes run concurrently on the workers.
        let receivers: Vec<_> = self
            .links
            .iter()
            .enumerate()
            .map(|(shard, link)| {
                let (tx, rx) = std::sync::mpsc::channel();
                link.try_send(ControlMsg::Report(tx))
                    .map_err(|()| EngineError::ShardDown { shard })?;
                Ok(rx)
            })
            .collect::<Result<_, EngineError>>()?;
        let reports: Vec<ShardReport> = receivers
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                // The send above raced a dying worker if this recv fails.
                rx.recv().map_err(|_| EngineError::ShardDown { shard })
            })
            .collect::<Result<_, EngineError>>()?;
        Ok(fold_reports(
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
    /// every shard succeeded, so a manifest on disk always describes a complete,
    /// restorable checkpoint.
    ///
    /// # Errors
    ///
    /// [`EngineError::Persist`] when the directory cannot be created or the
    /// manifest cannot be written; [`EngineError::CheckpointIncomplete`] listing
    /// the per-shard failures otherwise.
    pub fn checkpoint<P: AsRef<std::path::Path>>(&self, dir: P) -> Result<(), EngineError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
        let meta = persist::EngineMeta {
            shards: self.config.shards as u64,
            capacity: self.config.capacity as u64,
            seed: self.config.seed,
        };
        // Request every shard's clone before awaiting any, so ring drains and
        // combiner flushes run concurrently across the workers.
        let receivers: Vec<_> = self
            .links
            .iter()
            .map(|link| {
                let (tx, rx) = std::sync::mpsc::channel();
                link.try_send(ControlMsg::Checkpoint(tx)).map(|()| rx)
            })
            .collect();
        let mut failures = Vec::new();
        let mut rows = 0u64;
        for (shard, receiver) in receivers.into_iter().enumerate() {
            let sketch = match receiver.map(|rx| rx.recv()) {
                Ok(Ok(sketch)) => sketch,
                Ok(Err(_)) | Err(()) => {
                    failures.push(ShardFailure { shard, fault: ShardFault::Down });
                    continue;
                }
            };
            rows += sketch.rows_processed();
            match persist::write_file(
                &dir.join(Self::shard_file_name(shard)),
                &persist::encode_shard(shard as u64, meta, &sketch),
            ) {
                Ok(bytes) => {
                    self.metrics.checkpoint_bytes.add(bytes);
                    self.metrics.checkpoint_frames.inc();
                }
                Err(err) => {
                    self.metrics.checkpoint_failures.inc();
                    failures.push(ShardFailure { shard, fault: ShardFault::Persist(err) });
                }
            }
        }
        if !failures.is_empty() {
            return Err(EngineError::CheckpointIncomplete { failures });
        }
        let manifest = persist::EngineManifest {
            meta,
            snapshots: self.snapshots.load(Ordering::Relaxed),
            rows,
        };
        let bytes =
            persist::write_file(&dir.join(Self::MANIFEST_FILE), &persist::encode_manifest(&manifest))
                .map_err(EngineError::Persist)?;
        self.metrics.checkpoint_bytes.add(bytes);
        self.metrics.checkpoint_frames.inc();
        Ok(())
    }

    /// Kills the worker thread of `shard` by making it panic. Fault injection
    /// for tests only: this is how the regression suite proves that a poisoned
    /// shard degrades control requests into [`EngineError::ShardDown`] instead
    /// of taking the process down. The control channel is FIFO, so any request
    /// sent after this observes the dead worker deterministically.
    #[doc(hidden)]
    pub fn debug_kill_shard(&self, shard: usize) {
        self.links[shard].send_lossy(ControlMsg::Poison);
        // Wait for the unwind to drop the worker's control receiver, so the
        // *next* control request fails at send time rather than racing.
        while self.links[shard].try_send(ControlMsg::Rows(Vec::new())).is_ok() {
            std::thread::yield_now();
        }
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
        let dir = dir.as_ref();
        let manifest =
            persist::decode_manifest(&std::fs::read(dir.join(Self::MANIFEST_FILE))?)?;
        let meta = manifest.meta;
        if config.shards as u64 != meta.shards
            || config.capacity as u64 != meta.capacity
            || config.seed != meta.seed
        {
            return Err(PersistError::Corrupt(format!(
                "config (shards {}, capacity {}, seed {}) does not match the checkpoint \
                 (shards {}, capacity {}, seed {})",
                config.shards, config.capacity, config.seed,
                meta.shards, meta.capacity, meta.seed,
            )));
        }
        let mut sketches = Vec::with_capacity(config.shards);
        let mut rows = 0u64;
        for shard in 0..config.shards {
            let bytes = std::fs::read(dir.join(Self::shard_file_name(shard)))?;
            let (index, file_meta, sketch) = persist::decode_shard(&bytes)?;
            if index != shard as u64 {
                return Err(PersistError::Corrupt(format!(
                    "file {} holds shard {index}",
                    Self::shard_file_name(shard)
                )));
            }
            if file_meta != meta {
                return Err(PersistError::Corrupt(format!(
                    "shard {shard} was written by a different engine than the manifest"
                )));
            }
            rows += sketch.rows_processed();
            sketches.push(sketch);
        }
        if rows != manifest.rows {
            return Err(PersistError::Corrupt(format!(
                "shard files hold {rows} rows but the manifest records {}",
                manifest.rows
            )));
        }
        Ok(Self::spawn(config, sketches, manifest.snapshots, rows))
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
    pub fn finish(mut self) -> WeightedSpaceSaving {
        for link in &self.links {
            // A worker is only gone if it panicked; join below surfaces that.
            link.send_lossy(ControlMsg::Shutdown);
        }
        self.links.clear();
        let reports: Vec<ShardReport> = self
            .workers
            .drain(..)
            .map(|worker| {
                let sketch = worker.join().expect("ingest worker panicked");
                ShardReport {
                    entries: sketch.entries(),
                    rows: sketch.rows_processed(),
                }
            })
            .collect();
        fold_reports(
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

/// A producer-side handle: routes rows to shards by item hash and ships them in
/// recycled [`RowBlock`]s over per-shard SPSC rings. Rows still in the handle's
/// partial blocks are sent on drop (best-effort) or by [`flush`](Self::flush).
#[derive(Debug)]
pub struct IngestHandle {
    /// Engine endpoints, kept for ring registration on [`Clone`].
    links: Vec<ShardLink>,
    /// One block sender per shard; this handle is the ring's single producer.
    senders: Vec<BlockSender<u64>>,
    /// The partially filled block per shard, swapped out when full.
    // Boxed: the ring transports blocks as `Box<RowBlock>` so a send moves one
    // pointer, never the 2 KiB payload.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<RowBlock<u64>>>,
    ring_blocks: usize,
    rows_enqueued: Arc<AtomicU64>,
}

impl IngestHandle {
    /// Builds a handle wired to `links`: one block channel per shard, each
    /// registered with its worker before any row can be sent over it.
    fn connect(
        links: &[ShardLink],
        ring_blocks: usize,
        rows_enqueued: &Arc<AtomicU64>,
    ) -> Result<Self, EngineError> {
        let mut senders = Vec::with_capacity(links.len());
        let mut blocks = Vec::with_capacity(links.len());
        for (shard, link) in links.iter().enumerate() {
            let (tx, rx) = block_channel_with_counters(
                ring_blocks,
                Arc::clone(&link.waker),
                Arc::clone(&link.ring_counters),
            );
            link.try_send(ControlMsg::Register(rx))
                .map_err(|()| EngineError::ShardDown { shard })?;
            blocks.push(RowBlock::boxed());
            senders.push(tx);
        }
        Ok(Self {
            links: links.to_vec(),
            senders,
            blocks,
            ring_blocks,
            rows_enqueued: Arc::clone(rows_enqueued),
        })
    }

    /// Offers one row. Lock-free; parks only when the destination shard's ring is
    /// full (the engine's backpressure).
    #[inline]
    pub fn offer(&mut self, item: u64) {
        let shard = shard_of(item, self.senders.len());
        if self.blocks[shard].push(item) {
            self.dispatch(shard);
        }
    }

    /// Fallible [`offer`](Self::offer): a dead destination worker fails this
    /// row's dispatch with [`EngineError::ShardDown`] instead of panicking.
    #[inline]
    pub fn try_offer(&mut self, item: u64) -> Result<(), EngineError> {
        let shard = shard_of(item, self.senders.len());
        if self.blocks[shard].push(item) {
            self.try_dispatch(shard)?;
        }
        Ok(())
    }

    /// Offers a batch of rows.
    pub fn offer_batch(&mut self, items: &[u64]) {
        for &item in items {
            self.offer(item);
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
            self.try_offer(item)?;
        }
        Ok(())
    }

    /// Ships every partially filled block to its shard, emptying the handle.
    pub fn flush(&mut self) {
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                self.dispatch(shard);
            }
        }
    }

    /// Fallible [`flush`](Self::flush). Keeps going past dead shards so every
    /// healthy shard still receives its rows, then reports the first failure.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first dead shard encountered.
    pub fn try_flush(&mut self) -> Result<(), EngineError> {
        let mut first_err = Ok(());
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                let result = self.try_dispatch(shard);
                if first_err.is_ok() {
                    first_err = result;
                }
            }
        }
        first_err
    }

    /// Sends the current block (recycling a spent one in its place), parking while
    /// the ring is full.
    fn dispatch(&mut self, shard: usize) {
        if self.try_dispatch(shard).is_err() {
            panic!("shard worker disconnected");
        }
    }

    /// Fallible [`dispatch`]: a closed ring (dead worker) drops the block's rows
    /// and reports [`EngineError::ShardDown`] instead of panicking.
    fn try_dispatch(&mut self, shard: usize) -> Result<(), EngineError> {
        let block = std::mem::replace(&mut self.blocks[shard], self.senders[shard].acquire());
        // Accounting happens before the send, exactly as it always has; a
        // failed send leaves a small overcount on a shard already reported dead.
        self.rows_enqueued
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        self.senders[shard]
            .send(block)
            .map_err(|_| EngineError::ShardDown { shard })
    }
}

impl Clone for IngestHandle {
    /// Clones the routing state with fresh rings of its own: the new handle
    /// registers one new block channel per shard and starts with empty blocks.
    ///
    /// # Panics
    ///
    /// Panics if a worker is gone (use [`ShardedIngestEngine::try_handle`] on
    /// the engine to get the typed error instead).
    fn clone(&self) -> Self {
        match Self::connect(&self.links, self.ring_blocks, &self.rows_enqueued) {
            Ok(handle) => handle,
            Err(err) => panic!("{err}"),
        }
    }
}

impl Drop for IngestHandle {
    /// Best-effort flush so producer threads cannot silently drop buffered rows.
    /// Dropping the senders afterwards closes the rings, which is what lets each
    /// worker retire them once drained.
    fn drop(&mut self) {
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                let block = std::mem::replace(&mut self.blocks[shard], RowBlock::boxed());
                self.rows_enqueued
                    .fetch_add(block.len() as u64, Ordering::Relaxed);
                // After `finish` the workers are gone; losing the send then is fine.
                let _ = self.senders[shard].send(block);
            }
        }
    }
}

/// Per-ring budget of blocks drained per scan pass, bounding how long a pass can
/// run before the worker re-checks the control channel.
const DRAIN_BUDGET: usize = 64;

/// A shard worker's mutable state: its sketch, optional map-side combiner, and the
/// producer rings it currently polls.
struct ShardWorker {
    sketch: UnbiasedSpaceSaving,
    combiner: FxHashMap<u64, u64>,
    combiner_items: usize,
    rings: Vec<BlockReceiver<u64>>,
    metrics: Arc<ShardMetrics>,
}

impl ShardWorker {
    /// Applies one block of rows through the combiner (or directly, when the
    /// combiner is disabled). Metrics cost: two Relaxed adds per *block*
    /// (254 rows), never per row.
    fn apply(&mut self, rows: &[u64]) {
        self.metrics.rows.add(rows.len() as u64);
        self.metrics.blocks.inc();
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

    /// Applies the combiner's `(item, count)` aggregates as unbiased
    /// multi-increments.
    fn flush_combiner(&mut self) {
        for (item, count) in self.combiner.drain() {
            self.sketch.offer_many(item, count);
        }
    }

    /// One bounded scan over all rings. Returns `true` if any block was applied.
    /// Rings whose producer is gone and which are fully drained are retired.
    fn scan_rings(&mut self) -> bool {
        let mut progressed = false;
        for i in 0..self.rings.len() {
            for _ in 0..DRAIN_BUDGET {
                match self.rings[i].recv() {
                    Some(block) => {
                        progressed = true;
                        self.apply(block.as_slice());
                        self.rings[i].recycle(block);
                    }
                    None => break,
                }
            }
        }
        self.rings.retain(|ring| !ring.is_finished());
        progressed
    }

    /// Drains a *cut* of every ring: exactly the blocks that were queued at the
    /// moment this is called. Blocks pushed concurrently with the drain are left
    /// for the normal scan, so a fast producer cannot stall a quiesce.
    fn drain_cut(&mut self) {
        for i in 0..self.rings.len() {
            let cut = self.rings[i].queued();
            for _ in 0..cut {
                // Every counted block is already published; recv cannot fail here.
                let block = self.rings[i].recv().expect("queued block vanished");
                self.apply(block.as_slice());
                self.rings[i].recycle(block);
            }
        }
        self.rings.retain(|ring| !ring.is_finished());
    }
}

/// The shard worker loop: poll producer rings and the control channel, combine or
/// apply row blocks, answer quiesce requests, park when idle, and hand the final
/// sketch back through the thread's join handle.
fn run_worker(
    control: &Receiver<ControlMsg>,
    waker: &Waker,
    sketch: UnbiasedSpaceSaving,
    combiner_items: usize,
    metrics: &Arc<ShardMetrics>,
) -> UnbiasedSpaceSaving {
    let mut w = ShardWorker {
        sketch,
        combiner: FxHashMap::default(),
        combiner_items,
        rings: Vec::new(),
        metrics: Arc::clone(metrics),
    };
    let mut engine_alive = true;
    loop {
        let mut progressed = false;
        // Control first: registrations, explicit-shard rows, quiesce requests.
        loop {
            match control.try_recv() {
                Ok(msg) => {
                    progressed = true;
                    if handle_control(&mut w, msg) == Flow::Stop {
                        w.flush_combiner();
                        return w.sketch;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    // Engine and every handle are gone: no new rings, no requests.
                    engine_alive = false;
                    break;
                }
            }
        }
        progressed |= w.scan_rings();
        if !engine_alive && w.rings.is_empty() {
            // Nothing can ever arrive again (the engine was dropped without
            // `finish`); exit so the thread does not leak.
            w.flush_combiner();
            return w.sketch;
        }
        if !progressed {
            waker.prepare();
            // Re-check under the raised flag: a producer push or control send
            // between the empty scan and `prepare` would otherwise be missed.
            let pending = w.rings.iter().any(|ring| !ring.is_empty())
                || w.rings.iter().any(BlockReceiver::is_finished);
            match control.try_recv() {
                Ok(msg) => {
                    waker.cancel();
                    if handle_control(&mut w, msg) == Flow::Stop {
                        w.flush_combiner();
                        return w.sketch;
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    waker.cancel();
                    engine_alive = false;
                }
                Err(TryRecvError::Empty) => {
                    if pending {
                        waker.cancel();
                    } else {
                        waker.park();
                    }
                }
            }
        }
    }
}

/// Whether the worker keeps running after a control message.
#[derive(PartialEq, Eq)]
enum Flow {
    Continue,
    Stop,
}

/// Handles one control message; quiesce requests drain a ring cut first.
fn handle_control(w: &mut ShardWorker, msg: ControlMsg) -> Flow {
    match msg {
        ControlMsg::Register(ring) => w.rings.push(ring),
        ControlMsg::Rows(rows) => w.apply(&rows),
        ControlMsg::Report(reply) => {
            w.drain_cut();
            w.flush_combiner();
            // Quiesce points sample the sketch's resident size: the O(1) read
            // stays entirely off the per-block path.
            w.metrics.sketch_memory.record_max(w.sketch.memory_bytes());
            let _ = reply.send(ShardReport {
                entries: w.sketch.entries(),
                rows: w.sketch.rows_processed(),
            });
        }
        ControlMsg::Checkpoint(reply) => {
            w.drain_cut();
            w.flush_combiner();
            w.metrics.sketch_memory.record_max(w.sketch.memory_bytes());
            let _ = reply.send(w.sketch.clone());
        }
        ControlMsg::Shutdown => {
            w.drain_cut();
            return Flow::Stop;
        }
        // Test-only fault injection; see `debug_kill_shard`.
        ControlMsg::Poison => panic!("shard worker poisoned by debug_kill_shard"),
    }
    Flow::Continue
}

/// Folds per-shard reports into one weighted sketch with the unbiased PPS merge,
/// in shard order. `merge_seed` drives the PPS sampling, `out_seed` the result
/// sketch's own RNG — the same split [`crate::distributed::DistributedSketcher`]
/// has always used, which keeps the wrapper bit-for-bit compatible. A thin
/// adapter over [`crate::merge::fold_unbiased`], the public multi-way fold.
pub(crate) fn fold_reports<I>(
    capacity: usize,
    merge_seed: u64,
    out_seed: u64,
    reports: I,
) -> WeightedSpaceSaving
where
    I: IntoIterator<Item = ShardReport>,
{
    crate::merge::fold_unbiased(
        capacity,
        merge_seed,
        out_seed,
        reports.into_iter().map(|r| (r.entries, r.rows)),
    )
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
    fn dropping_a_handle_flushes_buffered_rows() {
        // Regression: without the Drop impl a producer that never called flush()
        // silently lost up to batch_rows - 1 buffered rows per shard.
        let engine = ShardedIngestEngine::new(EngineConfig::new(3, 16, 3).with_batch_rows(1024));
        {
            let mut handle = engine.handle();
            for i in 0..100u64 {
                handle.offer(i);
            }
            // Well under batch_rows: everything is still buffered here.
        }
        let merged = engine.finish();
        // Exact mass conservation: every buffered row arrived, none twice.
        assert_eq!(merged.rows_processed(), 100);
        let mass: f64 = merged.entries().iter().map(|(_, c)| c).sum();
        assert!((mass - 100.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn dropping_unflushed_handles_from_producer_threads_conserves_mass() {
        // The concurrent variant: four producers each end with a partial batch in
        // their handle and rely on Drop (not an explicit flush) to deliver it.
        let engine = ShardedIngestEngine::new(EngineConfig::new(2, 64, 9).with_batch_rows(512));
        std::thread::scope(|scope| {
            for producer in 0..4u64 {
                let mut handle = engine.handle();
                scope.spawn(move || {
                    for i in 0..1_111u64 {
                        handle.offer(producer * 10_000 + i % 300);
                    }
                });
            }
        });
        let merged = engine.finish();
        assert_eq!(merged.rows_processed(), 4 * 1_111);
        let mass: f64 = merged.entries().iter().map(|(_, c)| c).sum();
        assert!((mass - 4.0 * 1_111.0).abs() < 1e-9, "mass {mass}");
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
        assert_eq!(restored.snapshots.load(Ordering::Relaxed), 1);
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

    #[test]
    fn poisoned_worker_degrades_to_typed_errors() {
        // Regression for the daemon contract: a deliberately-panicked worker must
        // surface as EngineError::ShardDown from every fallible control path, and
        // a checkpoint must still write the healthy shards' files.
        let dir = std::env::temp_dir().join(format!("uss-engine-poison-{}", std::process::id()));
        let engine = ShardedIngestEngine::new(EngineConfig::new(2, 32, 11).with_batch_rows(64));
        let mut handle = engine.handle();
        for i in 0..1_000u64 {
            handle.offer(i % 50);
        }
        handle.flush();
        engine.debug_kill_shard(1);

        match engine.try_snapshot() {
            Err(EngineError::ShardDown { shard: 1 }) => {}
            other => panic!("expected ShardDown {{ shard: 1 }}, got {other:?}"),
        }
        match engine.try_handle() {
            Err(EngineError::ShardDown { shard: 1 }) => {}
            other => panic!("expected ShardDown {{ shard: 1 }}, got {:?}", other.map(|_| ())),
        }

        // Checkpoint keeps writing healthy shards and reports the dead one.
        match engine.checkpoint(&dir) {
            Err(EngineError::CheckpointIncomplete { failures }) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].shard, 1);
                assert!(matches!(failures[0].fault, ShardFault::Down));
            }
            other => panic!("expected CheckpointIncomplete, got {other:?}"),
        }
        assert!(dir.join(ShardedIngestEngine::shard_file_name(0)).exists());
        // No manifest: a manifest must only ever describe a complete checkpoint.
        assert!(!dir.join(ShardedIngestEngine::MANIFEST_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_engine_without_finish_lets_workers_exit() {
        // No Shutdown is ever sent; workers must notice the disconnected control
        // channel plus closed rings and return instead of leaking parked threads.
        let engine = ShardedIngestEngine::new(EngineConfig::new(2, 16, 8));
        let mut handle = engine.handle();
        for i in 0..500u64 {
            handle.offer(i % 60);
        }
        drop(handle);
        drop(engine);
        // Nothing to assert directly (the threads are detached); this test's value
        // is failing under a future regression that makes Drop hang or panic.
    }
}
