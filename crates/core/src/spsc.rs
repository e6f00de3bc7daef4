//! Lock-free single-producer/single-consumer block channels for the ingest hot path.
//!
//! The sharded engines move rows from producer handles to worker shards. Before this
//! module they did so through [`std::sync::mpsc::sync_channel`], which takes a mutex
//! and possibly a condvar wait on *every* send and receive, and allocates a fresh
//! `Vec` per batch. This module replaces that hop with the classic lock-free SPSC
//! ring buffer design:
//!
//! * **Fixed-capacity power-of-two ring** ([`ring`]): a [Lamport queue] with a
//!   producer-owned `tail` and a consumer-owned `head` index, both monotonically
//!   increasing and masked into the slot array. Each side caches the other's index
//!   and re-loads it only when the cached value would block, so the steady state is
//!   one uncontended atomic store per operation.
//! * **Cache-line padding**: `head` and `tail` live on separate cache lines
//!   ([`CachePadded`]) so the producer and consumer cores do not false-share.
//! * **Acquire/release ordering** on the index handoffs publishes slot contents; a
//!   [`SeqCst` fence](std::sync::atomic::fence) is taken only around the park/unpark
//!   protocol (see below).
//! * **Park/unpark only on empty/full transitions** ([`Waker`]): the fast path never
//!   touches a mutex. A side that would block publishes its thread handle, sets a
//!   `parked` flag, re-checks the ring, and parks; the opposite side checks the flag
//!   (a single atomic load) after each operation and unparks on the transition. The
//!   flag-set/re-check vs. operation/flag-check pair is the store-buffering litmus,
//!   made safe by `SeqCst` fences on both sides.
//! * **Row blocks, not row vectors** ([`RowBlock`]): the ring carries boxed
//!   fixed-size blocks of rows (cache-line aligned, a whole number of cache lines
//!   long) and every block is *recycled* from consumer back to producer over a second
//!   ring running in the opposite direction ([`BlockSender`]/[`BlockReceiver`]), so
//!   steady-state ingest performs no allocation at all.
//!
//! A worker shard consumes from many rings (one per producer handle), so the
//! consumer-side [`Waker`] is shared: every ring that feeds the worker wakes the same
//! waker, and the worker only parks after re-scanning all of its rings with the flag
//! already set.
//!
//! A producer may also push *quietly* ([`RingProducer::push_quiet`],
//! [`BlockSender::send_quiet`]): the value is published but a parked consumer stays
//! parked until the producer calls [`RingProducer::wake_consumer`], pushes with a
//! wake, or drops its end. A quiet push that finds the ring full wakes the consumer
//! before parking, so producer and consumer never both sleep on a full ring.
//!
//! [Lamport queue]: https://en.wikipedia.org/wiki/Non-blocking_algorithm

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::Mutex;

use crate::metrics::RingCounters;

/// Rows per [`RowBlock`]. Chosen so a block of unit rows (`u64`) is exactly 2 KiB —
/// 32 cache lines — including the length header.
pub const BLOCK_CAP: usize = 254;

/// A fixed-capacity, cache-line-aligned block of rows — the unit the ingest rings
/// carry. Blocks are allocated once and then recycled consumer→producer, so the
/// steady state allocates nothing.
#[repr(C, align(64))]
#[derive(Debug)]
pub struct RowBlock<T: Copy + Default> {
    len: u32,
    rows: [T; BLOCK_CAP],
}

impl<T: Copy + Default> RowBlock<T> {
    /// A fresh, empty, heap-allocated block.
    #[must_use]
    pub fn boxed() -> Box<Self> {
        Box::new(Self {
            len: 0,
            rows: [T::default(); BLOCK_CAP],
        })
    }

    /// Appends a row. Returns `true` when the block is now full. Must not be called
    /// on a full block.
    #[inline]
    pub fn push(&mut self, row: T) -> bool {
        debug_assert!((self.len as usize) < BLOCK_CAP);
        self.rows[self.len as usize] = row;
        self.len += 1;
        self.len as usize == BLOCK_CAP
    }

    /// Number of rows currently in the block.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the block holds no rows.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The filled prefix of the block.
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.rows[..self.len as usize]
    }

    /// Empties the block (for reuse after recycling).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

/// One-thread parking slot with a lost-wakeup-free flag protocol.
///
/// The parking side calls [`prepare`](Self::prepare), re-checks its wake condition,
/// and either [`cancel`](Self::cancel)s or [`park`](Self::park)s. The waking side
/// calls [`wake`](Self::wake) after making progress visible. `prepare` and `wake`
/// both issue `SeqCst` fences, so of the pair (parker re-check, waker flag-check) at
/// least one always observes the other side's write — the parker either sees the
/// progress and cancels, or the waker sees the flag and unparks.
#[derive(Debug, Default)]
pub struct Waker {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waker {
    /// A fresh waker with no thread registered.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the current thread and raises the parked flag. Call immediately
    /// before re-checking the wake condition.
    pub fn prepare(&self) {
        *self.thread.lock() = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Lowers the flag without parking (the re-check found work).
    pub fn cancel(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Parks the current thread until [`wake`](Self::wake) lowers the flag.
    /// Tolerates spurious unparks.
    pub fn park(&self) {
        while self.parked.load(Ordering::SeqCst) {
            std::thread::park();
        }
    }

    /// Unparks the registered thread if it is (preparing to be) parked. Cheap when
    /// nobody is parked: a single `SeqCst` load. Returns whether this call actually
    /// won the unpark (so callers can count true wake transitions, not no-ops).
    ///
    /// The registration stays in place. A wake that lowered the flag of one
    /// `prepare` may reach the lock only after the parker's *next* `prepare`;
    /// taking the thread out then would leave that next park with nobody to
    /// unpark it. Leaving it costs at most a spurious unpark, which `park`
    /// absorbs.
    pub fn wake(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            let thread = self.thread.lock().clone();
            if let Some(thread) = thread {
                thread.unpark();
            }
            return true;
        }
        false
    }
}

/// Pads a value to a cache line so adjacent atomics do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// State shared by a ring's producer and consumer endpoints.
struct RingShared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to pop. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to push. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Shared with every ring feeding the same consumer; `None` for rings whose
    /// consumer never parks (the recycle direction).
    consumer_waker: Option<Arc<Waker>>,
    /// Parking slot for a producer blocked on a full ring.
    producer_waker: Waker,
    /// Slow-path telemetry (full rings, parks, wakes, occupancy high-water).
    /// Rings made by the plain constructors get a fresh unobserved block;
    /// engine rings share their shard's block.
    counters: Arc<RingCounters>,
}

// SAFETY: a `RingShared<T>` only ever moves between threads wholesale (inside
// the producer/consumer `Arc`), and the `T`s it carries are handed from exactly
// one thread to exactly one other, so `T: Send` is the only requirement.
unsafe impl<T: Send> Send for RingShared<T> {}
// SAFETY: shared access from the two endpoint threads is safe because every
// slot is touched by at most one side at a time: the producer writes only slots
// in `tail..head + capacity` and the consumer reads only slots in `head..tail`,
// with each index published by a release store and read with an acquire load,
// so a slot's ownership transfer happens-before the other side touches it.
// `T: Sync` is *not* required: no `&T` is ever shared across threads.
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            // SAFETY: `&mut self` proves both endpoints are gone, so no thread
            // races this drop. Every slot in `head..tail` was initialised by a
            // producer `write` (tail is only advanced after the slot is
            // written) and never popped (head is only advanced after a slot is
            // read out), so each holds a live `T` exactly once.
            unsafe {
                self.slots[i & self.mask].get_mut().assume_init_drop();
            }
        }
    }
}

/// Error returned by a push onto a ring whose consumer endpoint was dropped. The
/// rejected value is handed back.
#[derive(Debug)]
pub struct Disconnected<T>(pub T);

/// The producing endpoint of a [`ring`]. Dropping it marks the ring closed; the
/// consumer can still drain what was pushed.
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
    cached_head: usize,
    capacity: usize,
}

impl<T> RingProducer<T> {
    /// Pushes without blocking, then wakes a parked consumer. `Ok(None)` on
    /// success, `Ok(Some(v))` when the ring is full, `Err` when the consumer is
    /// gone.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the consumer endpoint has been dropped.
    pub fn try_push(&mut self, value: T) -> Result<Option<T>, Disconnected<T>> {
        let rejected = self.try_push_quiet(value)?;
        if rejected.is_none() {
            self.wake_consumer();
        }
        Ok(rejected)
    }

    /// [`try_push`](Self::try_push) without the wake: a parked consumer stays
    /// parked until [`wake_consumer`](Self::wake_consumer), a waking push, or
    /// this producer's drop.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the consumer endpoint has been dropped.
    pub fn try_push_quiet(&mut self, value: T) -> Result<Option<T>, Disconnected<T>> {
        if self.shared.consumer_closed.load(Ordering::Acquire) {
            return Err(Disconnected(value));
        }
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) == self.capacity {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) == self.capacity {
                // Slow path: the ring is genuinely full — count it and record
                // the (maximal) occupancy. The success path pays nothing.
                self.shared.counters.try_push_full.inc();
                self.shared
                    .counters
                    .occupancy_high_water
                    .record_max(self.capacity as u64);
                return Ok(Some(value));
            }
        }
        // SAFETY: the check above established `tail - head < capacity` (re-read
        // with an acquire load on the slow path), so the slot at `tail` is not
        // in the consumer's readable window `head..tail` and holds no live `T`.
        // This is the only thread writing slots (single producer), and the
        // consumer will not read this slot until the release store of `tail + 1`
        // below publishes the write.
        unsafe {
            (*self.shared.slots[tail & self.shared.mask].get()).write(value);
        }
        self.shared.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(None)
    }

    /// Whether the consumer has popped everything pushed so far.
    fn is_empty(&self) -> bool {
        self.shared.head.0.load(Ordering::Acquire) == self.shared.tail.0.load(Ordering::Relaxed)
    }

    /// Unparks the consumer if it is parked (a no-op for rings built without a
    /// consumer waker), counting the wakes that found it parked.
    pub fn wake_consumer(&self) {
        if let Some(waker) = &self.shared.consumer_waker {
            if waker.wake() {
                self.shared.counters.consumer_wakes.inc();
            }
        }
    }

    /// Pushes, parking this thread while the ring is full.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the consumer endpoint has been dropped.
    pub fn push(&mut self, value: T) -> Result<(), Disconnected<T>> {
        self.push_blocking(value, true)
    }

    /// [`push`](Self::push) without the wake on success (see
    /// [`try_push_quiet`](Self::try_push_quiet)). A full ring still wakes the
    /// consumer before this thread parks.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the consumer endpoint has been dropped.
    pub fn push_quiet(&mut self, value: T) -> Result<(), Disconnected<T>> {
        self.push_blocking(value, false)
    }

    fn push_blocking(&mut self, value: T, wake: bool) -> Result<(), Disconnected<T>> {
        let mut value = value;
        loop {
            let rejected = if wake {
                self.try_push(value)?
            } else {
                self.try_push_quiet(value)?
            };
            match rejected {
                None => return Ok(()),
                Some(rejected) => {
                    value = rejected;
                    // Quiet pushes may have filled the ring without waking the
                    // consumer; it must run to make room.
                    self.wake_consumer();
                    self.shared.producer_waker.prepare();
                    // Re-check under the raised flag: the consumer may have popped
                    // (or closed) between the failed push and `prepare`.
                    self.cached_head = self.shared.head.0.load(Ordering::SeqCst);
                    let tail = self.shared.tail.0.load(Ordering::Relaxed);
                    if tail.wrapping_sub(self.cached_head) < self.capacity
                        || self.shared.consumer_closed.load(Ordering::SeqCst)
                    {
                        self.shared.producer_waker.cancel();
                        continue;
                    }
                    self.shared.counters.producer_parks.inc();
                    self.shared.producer_waker.park();
                }
            }
        }
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        self.shared.producer_closed.store(true, Ordering::Release);
        self.wake_consumer();
    }
}

impl<T> std::fmt::Debug for RingProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingProducer").field("capacity", &self.capacity).finish()
    }
}

/// The consuming endpoint of a [`ring`].
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
    cached_tail: usize,
}

impl<T> RingConsumer<T> {
    /// Pops the oldest value, or `None` when the ring is currently empty.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
            // Once per refill, not per pop: record how deep the queue got.
            self.shared
                .counters
                .occupancy_high_water
                .record_max(self.cached_tail.wrapping_sub(head) as u64);
        }
        // SAFETY: the check above established `head < tail` (tail re-read with
        // an acquire load), so the producer's release store of `tail` — and
        // therefore its initialising write of this slot — happens-before this
        // read. This is the only thread reading slots (single consumer), and
        // the producer will not overwrite the slot until the release store of
        // `head + 1` below returns it to the writable window.
        let value = unsafe { (*self.shared.slots[head & self.shared.mask].get()).assume_init_read() };
        self.shared.head.0.store(head.wrapping_add(1), Ordering::Release);
        self.shared.producer_waker.wake();
        Some(value)
    }

    /// Whether the ring is currently empty (the producer may push concurrently).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shared.head.0.load(Ordering::Relaxed) == self.shared.tail.0.load(Ordering::Acquire)
    }

    /// Number of values queued right now. The producer may push concurrently, so
    /// this is a momentary lower bound — but every one of the counted values is
    /// already published and a subsequent `pop` run of this length cannot fail.
    /// This is the engines' quiesce cut: "drain what was pushed before this call".
    #[must_use]
    pub fn len(&self) -> usize {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let tail = self.shared.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Whether the producer endpoint is gone *and* everything it pushed has been
    /// popped — the ring will never yield another value.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        // Order matters: check closure before emptiness, so a push that races the
        // producer's close is never missed.
        self.shared.producer_closed.load(Ordering::Acquire) && self.is_empty()
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_closed.store(true, Ordering::Release);
        // A producer parked on a full ring must observe the closure.
        self.shared.producer_waker.wake();
    }
}

impl<T> std::fmt::Debug for RingConsumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingConsumer").finish_non_exhaustive()
    }
}

/// Creates a lock-free SPSC ring holding at least `capacity` values (rounded up to a
/// power of two, minimum 2). `consumer_waker`, when given, is woken after every push
/// so a parked consumer thread observes new work; share one waker across all rings
/// feeding the same consumer.
#[must_use]
pub fn ring<T>(
    capacity: usize,
    consumer_waker: Option<Arc<Waker>>,
) -> (RingProducer<T>, RingConsumer<T>) {
    ring_with_counters(capacity, consumer_waker, Arc::new(RingCounters::new()))
}

/// [`ring`], with the slow-path telemetry block supplied by the caller — the
/// engines pass each shard's shared [`RingCounters`] so every ring feeding
/// that shard lands in the same per-shard metrics.
#[must_use]
pub fn ring_with_counters<T>(
    capacity: usize,
    consumer_waker: Option<Arc<Waker>>,
    counters: Arc<RingCounters>,
) -> (RingProducer<T>, RingConsumer<T>) {
    let capacity = capacity.next_power_of_two().max(2);
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(RingShared {
        slots,
        mask: capacity - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
        consumer_waker,
        producer_waker: Waker::new(),
        counters,
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
            cached_head: 0,
            capacity,
        },
        RingConsumer {
            shared,
            cached_tail: 0,
        },
    )
}

/// The producer half of a block channel: a data ring of recycled [`RowBlock`]s plus
/// the reverse recycle ring. See the [module docs](self).
#[derive(Debug)]
pub struct BlockSender<T: Copy + Default> {
    data: RingProducer<Box<RowBlock<T>>>,
    recycle: RingConsumer<Box<RowBlock<T>>>,
}

impl<T: Copy + Default> BlockSender<T> {
    /// An empty block to fill: recycled from the consumer when one is available,
    /// freshly allocated otherwise.
    #[must_use]
    pub fn acquire(&mut self) -> Box<RowBlock<T>> {
        match self.recycle.pop() {
            Some(mut block) => {
                block.clear();
                block
            }
            None => RowBlock::boxed(),
        }
    }

    /// Ships a filled block to the consumer, parking while the data ring is full.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the receiver has been dropped.
    pub fn send(&mut self, block: Box<RowBlock<T>>) -> Result<(), Disconnected<Box<RowBlock<T>>>> {
        self.data.push(block)
    }

    /// [`send`](Self::send) that leaves a parked consumer parked unless the data
    /// ring is full (see [`RingProducer::push_quiet`]).
    ///
    /// # Errors
    ///
    /// [`Disconnected`] when the receiver has been dropped.
    pub fn send_quiet(
        &mut self,
        block: Box<RowBlock<T>>,
    ) -> Result<(), Disconnected<Box<RowBlock<T>>>> {
        self.data.push_quiet(block)
    }

    /// Unparks the consumer if it is parked and blocks from this sender are
    /// still queued (an empty channel has nothing to wake it for).
    pub fn wake(&self) {
        if !self.data.is_empty() {
            self.data.wake_consumer();
        }
    }
}

/// The consumer half of a block channel.
#[derive(Debug)]
pub struct BlockReceiver<T: Copy + Default> {
    data: RingConsumer<Box<RowBlock<T>>>,
    recycle: RingProducer<Box<RowBlock<T>>>,
}

impl<T: Copy + Default> BlockReceiver<T> {
    /// Pops the oldest pending block, or `None` when the channel is empty.
    pub fn recv(&mut self) -> Option<Box<RowBlock<T>>> {
        self.data.pop()
    }

    /// Hands a spent block back to the producer for reuse. Dropped (deallocated)
    /// when the recycle ring is full or the producer is gone.
    pub fn recycle(&mut self, block: Box<RowBlock<T>>) {
        match self.recycle.try_push(block) {
            Ok(_) | Err(Disconnected(_)) => {}
        }
    }

    /// Whether no blocks are currently queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of blocks queued right now — see [`RingConsumer::len`] for the
    /// quiesce-cut guarantee.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.data.len()
    }

    /// Whether the sender is gone and the channel drained — nothing more will ever
    /// arrive.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.data.is_finished()
    }
}

/// Creates a block channel of `depth` in-flight blocks (rounded up to a power of
/// two) from a producer handle to a worker shard. The recycle ring runs in the
/// opposite direction with the same capacity plus slack, so in the steady state
/// blocks circulate without allocation.
#[must_use]
pub fn block_channel<T: Copy + Default>(
    depth: usize,
    consumer_waker: Arc<Waker>,
) -> (BlockSender<T>, BlockReceiver<T>) {
    block_channel_with_counters(depth, consumer_waker, Arc::new(RingCounters::new()))
}

/// [`block_channel`], with the data ring's telemetry block supplied by the
/// caller (see [`ring_with_counters`]). The recycle ring keeps a private
/// unobserved block: a full recycle ring is the benign steady state, not
/// backpressure.
#[must_use]
pub fn block_channel_with_counters<T: Copy + Default>(
    depth: usize,
    consumer_waker: Arc<Waker>,
    counters: Arc<RingCounters>,
) -> (BlockSender<T>, BlockReceiver<T>) {
    let (data_tx, data_rx) = ring_with_counters(depth, Some(consumer_waker), counters);
    // +2: one block in the producer's hands, one in the consumer's, both rings full.
    let (recycle_tx, recycle_rx) = ring(depth + 2, None);
    (
        BlockSender {
            data: data_tx,
            recycle: recycle_rx,
        },
        BlockReceiver {
            data: data_rx,
            recycle: recycle_tx,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_passes_values_in_order_through_wraparound() {
        let (mut tx, mut rx) = ring::<u64>(4, None);
        let mut next_expected = 0u64;
        for value in 0..10_000u64 {
            while let Some(rejected) = tx.try_push(value).expect("consumer alive") {
                assert_eq!(rejected, value);
                let popped = rx.pop().expect("full ring pops");
                assert_eq!(popped, next_expected);
                next_expected += 1;
            }
        }
        while let Some(popped) = rx.pop() {
            assert_eq!(popped, next_expected);
            next_expected += 1;
        }
        assert_eq!(next_expected, 10_000);
    }

    #[test]
    fn ring_reports_full_and_empty_transitions() {
        let (mut tx, mut rx) = ring::<u32>(2, None);
        assert!(rx.pop().is_none(), "fresh ring is empty");
        assert!(tx.try_push(1).unwrap().is_none());
        assert!(tx.try_push(2).unwrap().is_none());
        assert_eq!(tx.try_push(3).unwrap(), Some(3), "capacity-2 ring is full");
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.try_push(3).unwrap().is_none(), "pop frees a slot");
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert!(rx.pop().is_none());
    }

    #[test]
    fn dropping_consumer_disconnects_producer() {
        let (mut tx, rx) = ring::<u8>(2, None);
        drop(rx);
        assert!(tx.try_push(1).is_err());
        assert!(tx.push(2).is_err(), "blocking push must not hang on a closed ring");
    }

    #[test]
    fn dropping_producer_finishes_consumer_after_drain() {
        let (mut tx, mut rx) = ring::<u8>(4, None);
        tx.try_push(7).unwrap();
        drop(tx);
        assert!(!rx.is_finished(), "pending value keeps the ring live");
        assert_eq!(rx.pop(), Some(7));
        assert!(rx.is_finished());
    }

    #[test]
    fn ring_drop_releases_undrained_values() {
        // Box values so a leak would be visible to sanitizers/Miri; mainly this
        // exercises the `RingShared::drop` drain path.
        let (mut tx, rx) = ring::<Box<u64>>(8, None);
        for i in 0..5u64 {
            tx.try_push(Box::new(i)).unwrap();
        }
        drop(rx);
        drop(tx);
    }

    #[test]
    fn threaded_ring_delivers_every_value_with_parking() {
        let waker = Arc::new(Waker::new());
        let (mut tx, mut rx) = ring::<u64>(4, Some(Arc::clone(&waker)));
        const N: u64 = 200_000;
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut seen = 0u64;
            while seen < N {
                match rx.pop() {
                    Some(v) => {
                        sum += v;
                        seen += 1;
                    }
                    None => {
                        waker.prepare();
                        if rx.is_empty() {
                            waker.park();
                        } else {
                            waker.cancel();
                        }
                    }
                }
            }
            sum
        });
        for v in 0..N {
            tx.push(v).expect("consumer alive");
        }
        let sum = consumer.join().expect("consumer thread");
        assert_eq!(sum, N * (N - 1) / 2);
    }

    #[test]
    fn threaded_quiet_pushes_never_strand_a_parked_consumer() {
        // Quiet pushes wake the consumer only when the ring is full, so the
        // producer must never park on a full ring behind a parked consumer.
        let waker = Arc::new(Waker::new());
        let (mut tx, mut rx) = ring::<u64>(4, Some(Arc::clone(&waker)));
        const N: u64 = 200_000;
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut seen = 0u64;
            while seen < N {
                match rx.pop() {
                    Some(v) => {
                        sum += v;
                        seen += 1;
                    }
                    None => {
                        waker.prepare();
                        if rx.is_empty() {
                            waker.park();
                        } else {
                            waker.cancel();
                        }
                    }
                }
            }
            sum
        });
        for v in 0..N {
            tx.push_quiet(v).expect("consumer alive");
        }
        // The tail left in the ring waits for an explicit wake.
        tx.wake_consumer();
        let sum = consumer.join().expect("consumer thread");
        assert_eq!(sum, N * (N - 1) / 2);
    }

    #[test]
    fn quiet_sends_leave_a_parked_consumer_parked_until_woken() {
        let waker = Arc::new(Waker::new());
        let counters = Arc::new(RingCounters::new());
        let (mut tx, mut rx) =
            block_channel_with_counters::<u64>(4, Arc::clone(&waker), Arc::clone(&counters));
        // This thread stands in for a consumer that has raised its flag to park.
        waker.prepare();
        tx.wake();
        assert!(waker.parked.load(Ordering::SeqCst), "an empty channel wakes nobody");
        let block = tx.acquire();
        tx.send_quiet(block).unwrap();
        assert!(waker.parked.load(Ordering::SeqCst), "a quiet send wakes nobody");
        tx.wake();
        assert!(!waker.parked.load(Ordering::SeqCst), "wake with a block queued");
        assert_eq!(counters.consumer_wakes.get(), 1);
        waker.prepare();
        let block = tx.acquire();
        tx.send(block).unwrap();
        assert!(!waker.parked.load(Ordering::SeqCst), "a plain send wakes");
        assert!(rx.recv().is_some() && rx.recv().is_some());
    }

    #[test]
    fn block_channel_recycles_blocks() {
        let waker = Arc::new(Waker::new());
        let (mut tx, mut rx) = block_channel::<u64>(2, waker);
        let mut block = tx.acquire();
        block.push(11);
        block.push(22);
        let addr = std::ptr::addr_of!(*block) as usize;
        tx.send(block).unwrap();
        let got = rx.recv().expect("block arrives");
        assert_eq!(got.as_slice(), &[11, 22]);
        rx.recycle(got);
        let reused = tx.acquire();
        assert_eq!(
            std::ptr::addr_of!(*reused) as usize,
            addr,
            "recycled block is the same allocation"
        );
        assert!(reused.is_empty(), "recycled block arrives cleared");
    }

    #[test]
    fn ring_counters_track_slow_paths() {
        let counters = Arc::new(RingCounters::new());
        let (mut tx, mut rx) = ring_with_counters::<u32>(2, None, Arc::clone(&counters));
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3).unwrap(), Some(3), "ring full");
        assert_eq!(counters.try_push_full.get(), 1);
        assert_eq!(
            counters.occupancy_high_water.get(),
            2,
            "full ring records capacity as the high-water"
        );
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(counters.producer_parks.get(), 0, "try_push never parks");
    }

    #[test]
    fn threaded_ring_counts_parks_and_wakes() {
        let waker = Arc::new(Waker::new());
        let counters = Arc::new(RingCounters::new());
        let (mut tx, mut rx) =
            ring_with_counters::<u64>(2, Some(Arc::clone(&waker)), Arc::clone(&counters));
        const N: u64 = 50_000;
        let consumer = std::thread::spawn(move || {
            let mut seen = 0u64;
            while seen < N {
                match rx.pop() {
                    Some(_) => seen += 1,
                    None => {
                        waker.prepare();
                        if rx.is_empty() {
                            waker.park();
                        } else {
                            waker.cancel();
                        }
                    }
                }
            }
        });
        for v in 0..N {
            tx.push(v).expect("consumer alive");
        }
        consumer.join().expect("consumer thread");
        // A capacity-2 ring under 50k rows must have hit the full slow path;
        // the exact counts are schedule-dependent but the invariants are not.
        assert!(counters.try_push_full.get() > 0, "full events recorded");
        assert!(counters.occupancy_high_water.get() >= 1);
        assert!(counters.occupancy_high_water.get() <= 2, "never above capacity");
    }

    #[test]
    fn row_block_reports_full_at_capacity() {
        let mut block = RowBlock::<u64>::boxed();
        for i in 0..BLOCK_CAP - 1 {
            assert!(!block.push(i as u64), "not full before capacity");
        }
        assert!(block.push(0), "push to capacity reports full");
        assert_eq!(block.len(), BLOCK_CAP);
        block.clear();
        assert!(block.is_empty());
    }
}
