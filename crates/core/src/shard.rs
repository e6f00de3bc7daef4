//! The shard runtime both ingest engines run on.
//!
//! [`crate::engine::ShardedIngestEngine`] and
//! [`crate::temporal::TemporalIngestEngine`] are each a thin owner of one
//! [`ShardRuntime`]: `N` worker threads, each holding one private piece of
//! [`ShardState`] (a sketch, or a bucket store), fed by producer handles and
//! folded on demand with the unbiased PPS merge (section 5.5). Everything in
//! this module is engine-agnostic; the [`ShardState`] hooks are the only
//! per-engine code on the worker side.
//!
//! # Transport
//!
//! Producers hold a [`ShardHandle`] (`IngestHandle` and
//! `TemporalIngestHandle` are its two instantiations). A handle routes each row
//! by [`crate::engine::shard_of`] of its item, so every occurrence of an item
//! lands on the same shard, and ships rows in recycled
//! [`crate::spsc::RowBlock`]s over one lock-free SPSC block ring per (handle,
//! shard) pair. Each ring has exactly one producer, so rows from one handle
//! reach their shard in offer order (which keeps the plain engine's
//! combiner-off path row-for-row deterministic); rows from different handles
//! interleave arbitrarily. A ring holds at most `ceil(queue_depth · batch_rows /
//! BLOCK_CAP)` blocks: the bound is per (handle, shard) ring, so a shard's
//! total backlog grows with the number of live handles.
//!
//! Handles register their rings over a small unbounded control channel per
//! shard, which also carries checkpoint, shutdown and engine-specific requests.
//! Every control send wakes the worker.
//!
//! # Quiesce by cut
//!
//! A request that observes shard state (a report, a range, a checkpoint,
//! shutdown) first *quiesces* the shard: the worker records how many blocks
//! each ring holds when it sees the request and drains exactly that many, then
//! settles deferred work ([`ShardState::settle`]). Everything enqueued before
//! the request is therefore applied, and a fast concurrent producer cannot
//! postpone the reply. Each quiesce also records the shard's resident bytes in
//! the `uss_sketch_memory_bytes` gauge, keeping that read off the per-block
//! path. The fan-outs send the request to every shard before awaiting any, so
//! the cut drains run concurrently across workers.
//!
//! # The park protocol
//!
//! A worker loops: drain the control channel, scan every ring (at most
//! [`DRAIN_BUDGET`] blocks per ring per pass), and, when neither made progress,
//! park. Parking is race-free: the worker raises its [`Waker`] flag
//! (`prepare`), re-checks the rings and the control channel under the flag, and
//! only then `park`s; a push or control send that slipped in between cancels
//! the park. A worker that has parked since it last applied a block is *quiet*;
//! only a quiet worker spends idle slots on bounded maintenance
//! ([`ShardState::idle_step`]), so momentary ring gaps during active ingest
//! never pay for it.
//!
//! Every block a handle sends wakes its worker, except under
//! [`ShardHandle::try_send_quiet`], which leaves parked workers parked until a
//! ring fills, a quiesce, or [`ShardHandle::wake`] (the daemon's ingest path).
//!
//! # Flush on drop, and teardown
//!
//! Dropping a handle ships its partial blocks (best-effort) and closes its
//! rings; a worker retires a ring once it is closed and drained. `finish`
//! sends every worker a shutdown, which quiesces and stops it even while
//! handles are alive, then joins the threads. An engine dropped without
//! `finish` closes the control channels; each worker exits once its rings
//! are closed and drained, so no thread leaks.
//!
//! # Per-shard failure isolation
//!
//! Workers exit only by request or by panicking. A dead worker turns every
//! fallible request that needs it into [`EngineError::ShardDown`] instead of a
//! panic in the caller. A checkpoint keeps writing every healthy shard's file
//! when one shard is down or its write fails, reports all failures together in
//! [`EngineError::CheckpointIncomplete`], and writes the manifest only when
//! every shard succeeded.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::{shard_of, EngineError, ShardFailure, ShardFault};
use crate::metrics::{EngineMetrics, RingCounters, ShardMetrics};
use crate::persist::{self, PersistError};
use crate::spsc::{
    block_channel_with_counters, BlockReceiver, BlockSender, RowBlock, Waker, BLOCK_CAP,
};

/// One engine's per-shard state and checkpoint format: the only per-engine
/// code the runtime calls. Worker hooks run on the shard's own thread.
pub trait ShardState: Send + Sized + 'static {
    /// One ingested row, as carried by the block rings.
    type Row: Copy + Default + Send + std::fmt::Debug + 'static;
    /// Engine-specific control requests, answered by [`answer`](Self::answer).
    type Request: Send + 'static;
    /// What a checkpoint captures of one shard.
    type Image: Send + 'static;
    /// The engine identity written into every checkpoint file.
    type Meta: Copy + PartialEq + std::fmt::Debug;

    /// The checkpoint manifest's file name.
    const MANIFEST_FILE: &'static str;

    /// The item a row is routed by.
    fn item(row: &Self::Row) -> u64;
    /// The newest timestamp in a block, advancing the engine's `max_time`;
    /// `None` for untimed rows, which the handle then skips at no cost.
    fn max_time(rows: &[Self::Row]) -> Option<u64>;

    /// Applies one block of rows.
    fn apply(&mut self, rows: &[Self::Row]);
    /// Settles deferred work at a quiesce, after the ring cut is drained.
    fn settle(&mut self);
    /// One bounded unit of idle maintenance; `false` when there is none.
    fn idle_step(&mut self) -> bool;
    /// Prepares the state to leave its worker thread.
    fn finish(&mut self);
    /// Resident heap bytes, sampled at every quiesce.
    fn memory_bytes(&self) -> u64;
    /// Answers one engine-specific request; requests that observe state call
    /// [`ShardWorker::quiesce`] first.
    fn answer(worker: &mut ShardWorker<Self>, request: Self::Request);

    /// A full copy of the state for a checkpoint, taken after a quiesce.
    fn capture(&self) -> Self::Image;
    /// Rows a captured image holds (summed into the manifest).
    fn image_rows(image: &Self::Image) -> u64;
    /// The file name of shard `shard` inside a checkpoint directory.
    fn shard_file_name(shard: usize) -> String;
    /// Encodes one shard file.
    fn encode_shard(shard: u64, meta: Self::Meta, image: &Self::Image) -> Vec<u8>;
    /// Decodes one shard file into its index, engine identity and image.
    fn decode_shard(bytes: &[u8]) -> Result<(u64, Self::Meta, Self::Image), PersistError>;
    /// Encodes the manifest: identity, snapshot-salt counter, total rows.
    fn encode_manifest(meta: Self::Meta, snapshots: u64, rows: u64) -> Vec<u8>;
    /// Decodes a manifest into identity, snapshot-salt counter and total rows.
    fn decode_manifest(bytes: &[u8]) -> Result<(Self::Meta, u64, u64), PersistError>;
}

/// Control-plane messages to a shard worker. Data rides the block rings; this
/// unbounded, rarely used channel carries everything else, FIFO.
enum Control<S: ShardState> {
    /// A new producer ring to poll, sent when a handle is created or cloned.
    Register(BlockReceiver<S::Row>),
    /// An engine-specific request.
    Request(S::Request),
    /// Quiesce, then reply with a checkpoint image of the state.
    Checkpoint(Sender<S::Image>),
    /// Quiesce, then stop, even while handles (and their rings) are alive.
    Shutdown,
    /// Panic the worker: the fault injector behind `debug_kill_shard`.
    Poison,
}

/// One shard's endpoint: the control sender, the worker's parking slot (woken
/// by every control send) and the ring telemetry all its block channels share.
#[derive(Debug)]
struct ShardLink<S: ShardState> {
    control: Sender<Control<S>>,
    waker: Arc<Waker>,
    ring_counters: Arc<RingCounters>,
}

impl<S: ShardState> ShardLink<S> {
    /// Sends a control message and wakes the worker; `Err` when it is gone.
    fn try_send(&self, msg: Control<S>) -> Result<(), ()> {
        self.control.send(msg).map_err(drop)?;
        self.waker.wake();
        Ok(())
    }
}

/// What the runtime shares with every handle it creates.
#[derive(Debug)]
struct Shared<S: ShardState> {
    links: Vec<ShardLink<S>>,
    /// The per-(handle, shard) ring bound, in blocks.
    ring_blocks: usize,
    /// Rows enqueued so far: a cheap monotone progress hint that leads the
    /// applied rows by whatever is queued.
    rows_enqueued: AtomicU64,
    /// Largest timestamp enqueued so far (stays 0 for untimed rows).
    max_time: AtomicU64,
}

/// The per-(handle, shard) ring bound, in blocks: the block-ring equivalent of
/// `queue_depth` batches of `batch_rows` rows.
pub(crate) fn ring_blocks(queue_depth: usize, batch_rows: usize) -> usize {
    (queue_depth * batch_rows).div_ceil(BLOCK_CAP).max(2)
}

/// A running set of shard workers and the engine-level state around them:
/// the snapshot-salt counter, the enqueue hints and the telemetry.
#[derive(Debug)]
pub(crate) struct ShardRuntime<S: ShardState> {
    shared: Arc<Shared<S>>,
    workers: Vec<JoinHandle<S>>,
    snapshots: AtomicU64,
    metrics: Arc<EngineMetrics>,
}

impl<S: ShardState> ShardRuntime<S> {
    /// Spawns one worker per state. `snapshots`, `rows_enqueued` and
    /// `max_time` seed the counters (non-zero when resuming a checkpoint).
    pub(crate) fn spawn(
        states: Vec<S>,
        ring_blocks: usize,
        snapshots: u64,
        rows_enqueued: u64,
        max_time: u64,
    ) -> Self {
        let metrics = Arc::new(EngineMetrics::with_shards(states.len()));
        let mut links = Vec::with_capacity(states.len());
        let mut workers = Vec::with_capacity(states.len());
        for (state, shard_metrics) in states.into_iter().zip(&metrics.shards) {
            let (tx, rx) = std::sync::mpsc::channel();
            let waker = Arc::new(Waker::new());
            let worker_waker = Arc::clone(&waker);
            let worker_metrics = Arc::clone(shard_metrics);
            workers.push(std::thread::spawn(move || {
                run_worker(&rx, &worker_waker, state, worker_metrics)
            }));
            links.push(ShardLink {
                control: tx,
                waker,
                ring_counters: Arc::clone(&shard_metrics.ring),
            });
        }
        Self {
            shared: Arc::new(Shared {
                links,
                ring_blocks,
                rows_enqueued: AtomicU64::new(rows_enqueued),
                max_time: AtomicU64::new(max_time),
            }),
            workers,
            snapshots: AtomicU64::new(snapshots),
            metrics,
        }
    }

    /// Per-shard and checkpoint telemetry.
    pub(crate) fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Number of worker shards.
    pub(crate) fn shards(&self) -> usize {
        self.shared.links.len()
    }

    /// Rows enqueued so far.
    pub(crate) fn rows_enqueued(&self) -> u64 {
        self.shared.rows_enqueued.load(Ordering::Relaxed)
    }

    /// Largest timestamp enqueued so far.
    pub(crate) fn max_time(&self) -> u64 {
        self.shared.max_time.load(Ordering::Relaxed)
    }

    /// The snapshot-salt counter's current value.
    pub(crate) fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Advances the snapshot-salt counter and returns this draw's salt, so
    /// every merged answer is an independent draw of the merge's sampling.
    pub(crate) fn next_salt(&self) -> u64 {
        let n = self.snapshots.fetch_add(1, Ordering::Relaxed);
        n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A new producer handle, its rings registered with every worker.
    pub(crate) fn handle(&self) -> Result<ShardHandle<S>, EngineError> {
        ShardHandle::connect(&self.shared)
    }

    /// Sends `request` carrying `rows` rows straight to `shard`, counting them
    /// as enqueued; FIFO with every other control message to that shard.
    /// Panics if `shard` is out of range or its worker is gone.
    pub(crate) fn send_rows(&self, shard: usize, rows: usize, request: S::Request) {
        self.shared
            .rows_enqueued
            .fetch_add(rows as u64, Ordering::Relaxed);
        if self.shared.links[shard]
            .try_send(Control::Request(request))
            .is_err()
        {
            panic!("shard worker disconnected");
        }
    }

    /// Sends every shard the request `make` builds around a reply channel,
    /// then awaits the replies in shard order; [`EngineError::ShardDown`]
    /// names the first shard that could not take the request or died first.
    pub(crate) fn request_all<T>(
        &self,
        make: impl Fn(Sender<T>) -> S::Request,
    ) -> Result<Vec<T>, EngineError> {
        let receivers: Vec<_> = self
            .shared
            .links
            .iter()
            .enumerate()
            .map(|(shard, link)| {
                let (tx, rx) = std::sync::mpsc::channel();
                link.try_send(Control::Request(make(tx)))
                    .map_err(|()| EngineError::ShardDown { shard })?;
                Ok(rx)
            })
            .collect::<Result<_, EngineError>>()?;
        receivers
            .into_iter()
            .enumerate()
            // The send above raced a dying worker if this recv fails.
            .map(|(shard, rx)| rx.recv().map_err(|_| EngineError::ShardDown { shard }))
            .collect()
    }

    /// Writes one shard file per shard plus a manifest into `dir`, isolating
    /// per-shard failures (see the [module docs](self)). Files are written
    /// atomically (temp file + rename), so a crash leaves stray `.tmp` files
    /// but never a torn file.
    pub(crate) fn checkpoint(&self, dir: &Path, meta: S::Meta) -> Result<(), EngineError> {
        std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
        let receivers: Vec<_> = self
            .shared
            .links
            .iter()
            .map(|link| {
                let (tx, rx) = std::sync::mpsc::channel();
                link.try_send(Control::Checkpoint(tx)).map(|()| rx)
            })
            .collect();
        let mut failures = Vec::new();
        let mut rows = 0u64;
        for (shard, receiver) in receivers.into_iter().enumerate() {
            let image = match receiver.map(|rx| rx.recv()) {
                Ok(Ok(image)) => image,
                Ok(Err(_)) | Err(()) => {
                    failures.push(ShardFailure { shard, fault: ShardFault::Down });
                    continue;
                }
            };
            rows += S::image_rows(&image);
            match persist::write_file(
                &dir.join(S::shard_file_name(shard)),
                &S::encode_shard(shard as u64, meta, &image),
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
        let bytes = persist::write_file(
            &dir.join(S::MANIFEST_FILE),
            &S::encode_manifest(meta, self.snapshots(), rows),
        )
        .map_err(EngineError::Persist)?;
        self.metrics.checkpoint_bytes.add(bytes);
        self.metrics.checkpoint_frames.inc();
        Ok(())
    }

    /// Reads a checkpoint directory for an engine of identity `expected`: the
    /// manifest, then every shard file, checking each file's index and
    /// identity, running `check` on each image, and matching the shards' row
    /// sum against the manifest. Returns the images with the manifest's
    /// snapshot counter and row total.
    pub(crate) fn read_checkpoint(
        dir: &Path,
        expected: S::Meta,
        shards: usize,
        mut check: impl FnMut(usize, &S::Image) -> Result<(), PersistError>,
    ) -> Result<(Vec<S::Image>, u64, u64), PersistError> {
        let (meta, snapshots, manifest_rows) =
            S::decode_manifest(&std::fs::read(dir.join(S::MANIFEST_FILE))?)?;
        if meta != expected {
            return Err(PersistError::Corrupt(format!(
                "config {expected:?} does not match the checkpoint {meta:?}"
            )));
        }
        let mut images = Vec::with_capacity(shards);
        let mut rows = 0u64;
        for shard in 0..shards {
            let bytes = std::fs::read(dir.join(S::shard_file_name(shard)))?;
            let (index, file_meta, image) = S::decode_shard(&bytes)?;
            if index != shard as u64 {
                return Err(PersistError::Corrupt(format!(
                    "file {} holds shard {index}",
                    S::shard_file_name(shard)
                )));
            }
            if file_meta != meta {
                return Err(PersistError::Corrupt(format!(
                    "shard {shard} was written by a different engine than the manifest"
                )));
            }
            check(shard, &image)?;
            rows += S::image_rows(&image);
            images.push(image);
        }
        if rows != manifest_rows {
            return Err(PersistError::Corrupt(format!(
                "shard files hold {rows} rows but the manifest records {manifest_rows}"
            )));
        }
        Ok((images, snapshots, rows))
    }

    /// Kills the worker of `shard` by making it panic (fault injection for
    /// tests). Returns once the worker's control receiver is gone, so any
    /// request sent afterwards observes the dead worker deterministically.
    pub(crate) fn debug_kill_shard(&self, shard: usize) {
        let link = &self.shared.links[shard];
        while link.try_send(Control::Poison).is_ok() {
            std::thread::yield_now();
        }
    }

    /// Stops every worker after a final quiesce, joins them, and returns their
    /// states in shard order. Panics if a worker had panicked.
    pub(crate) fn finish(self) -> Vec<S> {
        for link in &self.shared.links {
            // A worker is only gone if it panicked; join below surfaces that.
            let _ = link.try_send(Control::Shutdown);
        }
        self.workers
            .into_iter()
            .map(|worker| worker.join().expect("shard worker panicked"))
            .collect()
    }
}

/// A producer-side handle: routes rows to shards by item hash and ships them
/// in recycled [`RowBlock`]s over its own SPSC ring per shard. Rows still in
/// its partial blocks are sent by [`flush`](Self::flush), or best-effort on
/// drop. Cloning registers a fresh set of rings.
#[derive(Debug)]
pub struct ShardHandle<S: ShardState> {
    /// The engine's endpoints and enqueue hints.
    shared: Arc<Shared<S>>,
    /// One block sender per shard; this handle is the ring's single producer.
    senders: Vec<BlockSender<S::Row>>,
    /// The partially filled block per shard, swapped out when full.
    // Boxed: the ring transports blocks as `Box<RowBlock>` so a send moves one
    // pointer, never the multi-KiB payload.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<RowBlock<S::Row>>>,
}

impl<S: ShardState> ShardHandle<S> {
    /// Builds a handle with one block channel per shard, each registered with
    /// its worker before any row can be sent over it.
    fn connect(shared: &Arc<Shared<S>>) -> Result<Self, EngineError> {
        let mut senders = Vec::with_capacity(shared.links.len());
        let mut blocks = Vec::with_capacity(shared.links.len());
        for (shard, link) in shared.links.iter().enumerate() {
            let (tx, rx) = block_channel_with_counters(
                shared.ring_blocks,
                Arc::clone(&link.waker),
                Arc::clone(&link.ring_counters),
            );
            link.try_send(Control::Register(rx))
                .map_err(|()| EngineError::ShardDown { shard })?;
            blocks.push(RowBlock::boxed());
            senders.push(tx);
        }
        Ok(Self {
            shared: Arc::clone(shared),
            senders,
            blocks,
        })
    }

    /// Buffers one row, shipping its shard's block when it fills. Lock-free;
    /// parks only while the destination ring is full (the backpressure).
    /// Panics if the destination worker is gone.
    #[inline]
    pub(crate) fn push(&mut self, row: S::Row) {
        let shard = shard_of(S::item(&row), self.senders.len());
        if self.blocks[shard].push(row) {
            self.dispatch(shard);
        }
    }

    /// Fallible [`push`](Self::push).
    #[inline]
    pub(crate) fn try_push(&mut self, row: S::Row) -> Result<(), EngineError> {
        self.try_push_with(row, true)
    }

    fn try_push_with(&mut self, row: S::Row, wake: bool) -> Result<(), EngineError> {
        let shard = shard_of(S::item(&row), self.senders.len());
        if self.blocks[shard].push(row) {
            self.try_dispatch(shard, wake)?;
        }
        Ok(())
    }

    /// Ships every partially filled block to its shard, emptying the handle.
    ///
    /// # Panics
    ///
    /// Panics if a destination worker is gone; [`try_flush`](Self::try_flush)
    /// reports it instead.
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
        self.try_flush_with(true)
    }

    /// Offers `rows`, then flushes, like `try_push` per row followed by
    /// [`try_flush`](Self::try_flush), except that no send wakes a parked
    /// worker (a full ring still does). The rows are enqueued, so the next
    /// quiesce (every query and checkpoint) applies them; call
    /// [`wake`](Self::wake) to start the workers sooner. The daemon ingests
    /// each request this way and wakes the workers once its reply is written:
    /// a worker that applies faster than the connection thread decodes would
    /// otherwise park after every block and be woken for the next, and on a
    /// host with fewer cores than threads each wake takes the CPU the
    /// connection thread is decoding on.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first dead shard encountered.
    pub fn try_send_quiet(&mut self, rows: &[S::Row]) -> Result<(), EngineError> {
        for &row in rows {
            self.try_push_with(row, false)?;
        }
        self.try_flush_with(false)
    }

    fn try_flush_with(&mut self, wake: bool) -> Result<(), EngineError> {
        let mut first_err = Ok(());
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                let result = self.try_dispatch(shard, wake);
                if first_err.is_ok() {
                    first_err = result;
                }
            }
        }
        first_err
    }

    /// Unparks every parked destination worker that still has blocks queued
    /// from this handle; a few atomic loads per shard when none does.
    pub fn wake(&self) {
        for sender in &self.senders {
            sender.wake();
        }
    }

    /// Advances the enqueue hints for an outgoing block and returns it.
    /// Accounting happens before the send (the order the temporal range
    /// cache's soundness guard is written against); a failed send leaves a
    /// small overcount on a shard that is then reported dead.
    #[inline]
    fn account(&self, block: Box<RowBlock<S::Row>>) -> Box<RowBlock<S::Row>> {
        self.shared
            .rows_enqueued
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        if let Some(ts) = S::max_time(block.as_slice()) {
            self.shared.max_time.fetch_max(ts, Ordering::Relaxed);
        }
        block
    }

    /// Sends the current block (recycling a spent one in its place), parking
    /// while the ring is full.
    fn dispatch(&mut self, shard: usize) {
        if self.try_dispatch(shard, true).is_err() {
            panic!("shard worker disconnected");
        }
    }

    /// Fallible [`dispatch`](Self::dispatch): a closed ring (dead worker)
    /// drops the block's rows and reports [`EngineError::ShardDown`]. Without
    /// `wake` a parked worker stays parked unless the ring is full.
    fn try_dispatch(&mut self, shard: usize, wake: bool) -> Result<(), EngineError> {
        let block = std::mem::replace(&mut self.blocks[shard], self.senders[shard].acquire());
        let block = self.account(block);
        let sender = &mut self.senders[shard];
        let sent = if wake {
            sender.send(block)
        } else {
            sender.send_quiet(block)
        };
        sent.map_err(|_| EngineError::ShardDown { shard })
    }
}

impl<S: ShardState> Clone for ShardHandle<S> {
    /// Clones the routing state with fresh rings of its own: the new handle
    /// registers one new block channel per shard and starts with empty blocks.
    ///
    /// # Panics
    ///
    /// Panics if a worker is gone (the engine's `try_handle` reports it
    /// instead).
    fn clone(&self) -> Self {
        match Self::connect(&self.shared) {
            Ok(handle) => handle,
            Err(err) => panic!("{err}"),
        }
    }
}

impl<S: ShardState> Drop for ShardHandle<S> {
    /// Best-effort flush so producer threads cannot silently drop buffered
    /// rows. Dropping the senders afterwards closes the rings, which lets each
    /// worker retire them once drained.
    fn drop(&mut self) {
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                let block = std::mem::replace(&mut self.blocks[shard], RowBlock::boxed());
                let block = self.account(block);
                // After `finish` the workers are gone; losing the send then is fine.
                let _ = self.senders[shard].send(block);
            }
        }
    }
}

/// Per-ring budget of blocks drained per scan pass, bounding how long a pass
/// can run before the worker re-checks the control channel.
const DRAIN_BUDGET: usize = 64;

/// A shard worker: its state, the producer rings it polls, and its telemetry.
/// [`ShardState::answer`] receives it to quiesce or apply rows.
pub struct ShardWorker<S: ShardState> {
    /// The engine's per-shard state.
    pub(crate) state: S,
    rings: Vec<BlockReceiver<S::Row>>,
    metrics: Arc<ShardMetrics>,
}

impl<S: ShardState> ShardWorker<S> {
    /// Applies one block of rows. Metrics cost: two Relaxed adds per block,
    /// never per row.
    pub(crate) fn apply(&mut self, rows: &[S::Row]) {
        self.metrics.rows.add(rows.len() as u64);
        self.metrics.blocks.inc();
        self.state.apply(rows);
    }

    /// One bounded scan over all rings. Returns `true` if any block was
    /// applied. Rings whose producer is gone and which are fully drained are
    /// retired.
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

    /// Drains a *cut* of every ring (exactly the blocks queued now), settles
    /// the state and samples its resident bytes. Blocks pushed during the
    /// drain are left for the normal scan, so a fast producer cannot stall a
    /// quiesce.
    pub(crate) fn quiesce(&mut self) {
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
        self.state.settle();
        self.metrics
            .sketch_memory
            .record_max(self.state.memory_bytes());
    }

    /// Handles one control message.
    fn handle(&mut self, msg: Control<S>) -> Flow {
        match msg {
            Control::Register(ring) => self.rings.push(ring),
            Control::Request(request) => S::answer(self, request),
            Control::Checkpoint(reply) => {
                self.quiesce();
                let _ = reply.send(self.state.capture());
            }
            Control::Shutdown => {
                self.quiesce();
                return Flow::Stop;
            }
            Control::Poison => panic!("shard worker poisoned by debug_kill_shard"),
        }
        Flow::Continue
    }

    /// Hands the state back for the thread's join handle.
    fn finish(mut self) -> S {
        self.state.finish();
        self.state
    }
}

/// Whether the worker keeps running after a control message.
#[derive(PartialEq, Eq)]
enum Flow {
    Continue,
    Stop,
}

/// The shard worker loop: control first, then a bounded ring scan; idle
/// maintenance only when quiet; park under the prepare → re-check → park
/// protocol (see the [module docs](self)).
fn run_worker<S: ShardState>(
    control: &Receiver<Control<S>>,
    waker: &Waker,
    state: S,
    metrics: Arc<ShardMetrics>,
) -> S {
    let mut w = ShardWorker {
        state,
        rings: Vec::new(),
        metrics,
    };
    let mut engine_alive = true;
    // Whether the worker has parked since it last applied a block: the
    // "producers are genuinely quiet" signal that admits idle maintenance.
    let mut quiet = true;
    loop {
        let mut progressed = false;
        loop {
            match control.try_recv() {
                Ok(msg) => {
                    progressed = true;
                    if w.handle(msg) == Flow::Stop {
                        return w.finish();
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
        if w.scan_rings() {
            progressed = true;
            quiet = false;
        }
        if !engine_alive && w.rings.is_empty() {
            // Nothing can ever arrive again (the engine was dropped without
            // `finish`); exit so the thread does not leak.
            return w.finish();
        }
        if !progressed {
            if quiet && w.state.idle_step() {
                // One bounded unit of idle maintenance, then re-check inputs.
                continue;
            }
            waker.prepare();
            // Re-check under the raised flag: a producer push or control send
            // between the empty scan and `prepare` would otherwise be missed.
            let pending = w.rings.iter().any(|ring| !ring.is_empty())
                || w.rings.iter().any(BlockReceiver::is_finished);
            match control.try_recv() {
                Ok(msg) => {
                    waker.cancel();
                    if w.handle(msg) == Flow::Stop {
                        return w.finish();
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
                        quiet = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Weak;
    use std::time::Duration;

    use super::*;
    use crate::engine::{EngineConfig, IngestHandle, ShardedIngestEngine};
    use crate::temporal::{TemporalConfig, TemporalIngestEngine, TemporalIngestHandle, TimeRange};
    use crate::traits::StreamSketch;

    /// The runtime contract is engine-agnostic, so every test below runs once
    /// per engine through this adapter.
    trait Engine: Sync + Sized {
        type Handle: Send;
        const NAME: &'static str;
        const MANIFEST_FILE: &'static str;
        fn spawn(shards: usize, capacity: usize, seed: u64, batch_rows: usize) -> Self;
        fn handle(&self) -> Self::Handle;
        fn try_handle(&self) -> Result<Self::Handle, EngineError>;
        /// Offers `item` (stamped with `tick` where rows carry time).
        fn offer(handle: &mut Self::Handle, item: u64, tick: u64);
        fn flush(handle: &mut Self::Handle);
        /// A fallible query that needs every shard.
        fn try_query(&self) -> Result<(), EngineError>;
        fn checkpoint(&self, dir: &Path) -> Result<(), EngineError>;
        fn kill(&self, shard: usize);
        fn metrics(&self) -> &Arc<EngineMetrics>;
        fn shard_file_name(shard: usize) -> String;
        /// Stops the engine; returns the merged rows and mass.
        fn finish(self) -> (u64, f64);
    }

    impl Engine for ShardedIngestEngine {
        type Handle = IngestHandle;
        const NAME: &'static str = "plain";
        const MANIFEST_FILE: &'static str = ShardedIngestEngine::MANIFEST_FILE;
        fn spawn(shards: usize, capacity: usize, seed: u64, batch_rows: usize) -> Self {
            Self::new(EngineConfig::new(shards, capacity, seed).with_batch_rows(batch_rows))
        }
        fn handle(&self) -> IngestHandle {
            self.handle()
        }
        fn try_handle(&self) -> Result<IngestHandle, EngineError> {
            self.try_handle()
        }
        fn offer(handle: &mut IngestHandle, item: u64, _: u64) {
            handle.offer(item);
        }
        fn flush(handle: &mut IngestHandle) {
            handle.flush();
        }
        fn try_query(&self) -> Result<(), EngineError> {
            self.try_snapshot().map(drop)
        }
        fn checkpoint(&self, dir: &Path) -> Result<(), EngineError> {
            self.checkpoint(dir)
        }
        fn kill(&self, shard: usize) {
            self.debug_kill_shard(shard);
        }
        fn metrics(&self) -> &Arc<EngineMetrics> {
            self.metrics()
        }
        fn shard_file_name(shard: usize) -> String {
            Self::shard_file_name(shard)
        }
        fn finish(self) -> (u64, f64) {
            let merged = self.finish();
            (merged.rows_processed(), merged.entries().iter().map(|(_, c)| c).sum())
        }
    }

    impl Engine for TemporalIngestEngine {
        type Handle = TemporalIngestHandle;
        const NAME: &'static str = "temporal";
        const MANIFEST_FILE: &'static str = TemporalIngestEngine::MANIFEST_FILE;
        fn spawn(shards: usize, capacity: usize, seed: u64, batch_rows: usize) -> Self {
            Self::new(TemporalConfig::new(shards, capacity, seed, 10, 4).with_batch_rows(batch_rows))
        }
        fn handle(&self) -> TemporalIngestHandle {
            self.handle()
        }
        fn try_handle(&self) -> Result<TemporalIngestHandle, EngineError> {
            self.try_handle()
        }
        fn offer(handle: &mut TemporalIngestHandle, item: u64, tick: u64) {
            handle.offer_at(item, tick);
        }
        fn flush(handle: &mut TemporalIngestHandle) {
            handle.flush();
        }
        fn try_query(&self) -> Result<(), EngineError> {
            self.try_range_capture(&TimeRange::All).map(drop)
        }
        fn checkpoint(&self, dir: &Path) -> Result<(), EngineError> {
            self.checkpoint(dir)
        }
        fn kill(&self, shard: usize) {
            self.debug_kill_shard(shard);
        }
        fn metrics(&self) -> &Arc<EngineMetrics> {
            self.metrics()
        }
        fn shard_file_name(shard: usize) -> String {
            Self::shard_file_name(shard)
        }
        fn finish(self) -> (u64, f64) {
            let merged = self.finish();
            (merged.rows_processed(), merged.entries().iter().map(|(_, c)| c).sum())
        }
    }

    fn flushes_buffered_rows_on_drop<E: Engine>() {
        // Regression: without the Drop impl a producer that never called flush()
        // silently lost up to batch_rows - 1 buffered rows per shard.
        let engine = E::spawn(3, 16, 3, 1024);
        {
            let mut handle = engine.handle();
            for i in 0..100u64 {
                E::offer(&mut handle, i, i / 10);
            }
            // Well under batch_rows: everything is still buffered here.
        }
        // Exact mass conservation: every buffered row arrived, none twice.
        let (rows, mass) = engine.finish();
        assert_eq!(rows, 100, "{}", E::NAME);
        assert!((mass - 100.0).abs() < 1e-9, "{}: mass {mass}", E::NAME);
    }

    #[test]
    fn quietly_sent_rows_are_applied_by_the_next_quiesce() {
        // `try_send_quiet` wakes no worker; the range query's quiesce must
        // still apply every row enqueued before it, whole blocks included,
        // while the handle stays alive and unwoken.
        let engine =
            TemporalIngestEngine::new(TemporalConfig::new(2, 64, 5, 10, 4).with_batch_rows(256));
        let mut handle = engine.handle();
        for round in 0..3u64 {
            let rows: Vec<(u64, u64)> = (0..2_000u64)
                .map(|i| (i % 700, round * 40 + i / 100))
                .collect();
            handle.try_send_quiet(&rows).expect("workers alive");
            let rows = engine.range_snapshot(&TimeRange::All).rows_processed();
            assert_eq!(rows, (round + 1) * 2_000);
        }
        drop(handle);
        assert_eq!(engine.finish().rows_processed(), 6_000);
    }

    #[test]
    fn dropping_a_handle_flushes_buffered_rows() {
        flushes_buffered_rows_on_drop::<ShardedIngestEngine>();
        flushes_buffered_rows_on_drop::<TemporalIngestEngine>();
    }

    fn producer_threads_deliver_on_drop<E: Engine>() {
        // The concurrent variant: four producers each end with a partial batch in
        // their handle and rely on Drop (not an explicit flush) to deliver it.
        let engine = E::spawn(2, 64, 9, 512);
        std::thread::scope(|scope| {
            for producer in 0..4u64 {
                let mut handle = engine.handle();
                scope.spawn(move || {
                    for i in 0..1_111u64 {
                        E::offer(&mut handle, producer * 10_000 + i % 300, i / 100);
                    }
                });
            }
        });
        let (rows, mass) = engine.finish();
        assert_eq!(rows, 4 * 1_111, "{}", E::NAME);
        assert!((mass - 4.0 * 1_111.0).abs() < 1e-9, "{}: mass {mass}", E::NAME);
    }

    #[test]
    fn dropping_unflushed_handles_from_producer_threads_conserves_mass() {
        producer_threads_deliver_on_drop::<ShardedIngestEngine>();
        producer_threads_deliver_on_drop::<TemporalIngestEngine>();
    }

    fn poisoned_worker_degrades<E: Engine>() {
        // Regression for the daemon contract: a deliberately-panicked worker must
        // surface as EngineError::ShardDown from every fallible control path, and
        // a checkpoint must still write the healthy shards' files.
        let dir = std::env::temp_dir().join(format!(
            "uss-shard-poison-{}-{}",
            E::NAME,
            std::process::id()
        ));
        let engine = E::spawn(2, 32, 11, 64);
        let mut handle = engine.handle();
        for i in 0..1_000u64 {
            E::offer(&mut handle, i % 50, i / 20);
        }
        E::flush(&mut handle);
        engine.kill(1);

        match engine.try_query() {
            Err(EngineError::ShardDown { shard: 1 }) => {}
            other => panic!("{}: expected ShardDown {{ shard: 1 }}, got {other:?}", E::NAME),
        }
        match engine.try_handle() {
            Err(EngineError::ShardDown { shard: 1 }) => {}
            other => panic!(
                "{}: expected ShardDown {{ shard: 1 }}, got {:?}",
                E::NAME,
                other.map(|_| ())
            ),
        }

        // Checkpoint keeps writing healthy shards and reports the dead one.
        match engine.checkpoint(&dir) {
            Err(EngineError::CheckpointIncomplete { failures }) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].shard, 1);
                assert!(matches!(failures[0].fault, ShardFault::Down));
            }
            other => panic!("{}: expected CheckpointIncomplete, got {other:?}", E::NAME),
        }
        assert!(dir.join(E::shard_file_name(0)).exists());
        // No manifest: a manifest is only written when every shard succeeded.
        assert!(!dir.join(E::MANIFEST_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_worker_degrades_to_typed_errors() {
        poisoned_worker_degrades::<ShardedIngestEngine>();
        poisoned_worker_degrades::<TemporalIngestEngine>();
    }

    fn workers_exit_when_dropped<E: Engine>() {
        // No Shutdown is ever sent; workers must notice the disconnected control
        // channel plus closed rings and return instead of leaking parked threads.
        // Each worker holds its shard's metrics until it exits, so the metrics'
        // strong counts reaching zero proves every worker is gone.
        let engine = E::spawn(2, 16, 8, 4096);
        let mut handle = engine.handle();
        for i in 0..500u64 {
            E::offer(&mut handle, i % 60, i / 50);
        }
        let shards: Vec<Weak<ShardMetrics>> =
            engine.metrics().shards.iter().map(Arc::downgrade).collect();
        drop(handle);
        drop(engine);
        // Deadline: 10 s of 1 ms polls (counted, so the test reads no clock).
        let mut polls = 0;
        while shards.iter().any(|shard| shard.strong_count() > 0) {
            polls += 1;
            assert!(polls < 10_000, "{}: a worker never exited", E::NAME);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dropping_engine_without_finish_lets_workers_exit() {
        workers_exit_when_dropped::<ShardedIngestEngine>();
        workers_exit_when_dropped::<TemporalIngestEngine>();
    }
}
