//! Lock-free, dependency-free runtime metrics: cache-padded atomic
//! [`Counter`]s and [`Gauge`]s, a fixed-bucket log₂-scale [`Histogram`], and
//! the aggregate structs the engines thread through their hot paths.
//!
//! Design constraints, in order:
//!
//! 1. **Wait-free on the hot path.** Every `record`/`inc` is a single
//!    `Relaxed` atomic RMW on a cache-padded line; the ingest fast path
//!    (`try_push` success, `ShardWorker::apply`) pays at most one counter add
//!    *per block* (254 rows), never per row. Slow paths (ring full, parks,
//!    rotations, compactions) carry the per-event counters.
//! 2. **Deterministic core.** `uss-core` never reads a wall clock (clippy
//!    bans `Instant` and `SystemTime` here, `crates/core/clippy.toml`);
//!    durations enter only through the [`Clock`] trait, whose real
//!    implementation lives in `uss-server` and the benches. Core ships the
//!    deterministic [`ManualClock`] for tests.
//! 3. **One sample builder.** The wire `Stats` snapshot and the Prometheus
//!    text exposition both render from the same `collect` output, so the two
//!    surfaces agree by construction.
//!
//! # Metric families
//!
//! Core families (all labeled at the server with `stream`; per-shard families
//! additionally with `shard`):
//!
//! | name | type | labels | meaning |
//! |------|------|--------|---------|
//! | `uss_ingest_rows_total` | counter | stream, shard | rows applied by the shard worker (post-quiesce exact) |
//! | `uss_ingest_blocks_total` | counter | stream, shard | row blocks applied by the shard worker |
//! | `uss_ring_full_total` | counter | stream, shard | `try_push` attempts that found the SPSC ring full |
//! | `uss_ring_producer_parks_total` | counter | stream, shard | producer parks while waiting for ring space |
//! | `uss_ring_consumer_wakes_total` | counter | stream, shard | consumer unparks actually performed by producers |
//! | `uss_ring_occupancy_high_water` | gauge | stream, shard | max observed blocks queued in any of the shard's rings |
//! | `uss_sketch_memory_bytes` | gauge | stream, shard | high-water resident bytes of the shard's sketch or bucket store, sampled at quiesce |
//! | `uss_checkpoint_bytes_total` | counter | stream | bytes durably written by checkpoints (shards + manifest) |
//! | `uss_checkpoint_frames_total` | counter | stream | checkpoint files durably written |
//! | `uss_checkpoint_failures_total` | counter | stream | per-shard checkpoint write failures |
//! | `uss_temporal_rotations_total` | counter | stream | fine-ring rotations (new fine bucket opened) |
//! | `uss_temporal_tier_compactions_total` | counter | stream | tier merges triggered by a full tier |
//! | `uss_temporal_late_rows_total` | counter | stream | rows clamped into an older open bucket |
//! | `uss_ladder_nodes_built_total` | counter | stream | dyadic ladder nodes materialised (idle or query) |
//! | `uss_ladder_nodes_invalidated_total` | counter | stream | ladder nodes dropped by late rows or rotation |
//! | `uss_ladder_repaired_at_query_total` | counter | stream | ladder nodes built on the query path (missed idle repair) |
//! | `uss_range_cache_hits_total` | counter | stream | merged-range cache hits |
//! | `uss_range_cache_misses_total` | counter | stream | merged-range cache misses (fold performed) |
//! | `uss_range_fold_entries_total` | counter | stream | entries fed to range-query folds: shard span pre-merges plus the engine fold |
//!
//! The server adds its own families (connection lifecycle, per-kind request
//! counters and latency histograms, error frames by code); see
//! `uss-server`'s `server` module docs.
//!
//! # Example
//!
//! ```
//! use uss_core::metrics::{Counter, Histogram};
//!
//! static ROWS: Counter = Counter::new();
//! ROWS.add(254);
//! assert_eq!(ROWS.get(), 254);
//!
//! let latency = Histogram::new();
//! latency.record(900); // nanoseconds, externally measured
//! latency.record(1_100);
//! let snap = latency.snapshot();
//! assert_eq!(snap.count, 2);
//! assert_eq!(snap.sum, 2_000);
//! assert!(snap.quantile(0.5) >= 900);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count. Cache-line aligned so adjacent
/// counters in an aggregate struct never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter, usable in `static` position.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one. Relaxed: counters are statistics, not synchronisation.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write or high-water value. Same layout discipline as [`Counter`].
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge, usable in `static` position.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water semantics).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per possible `u64` bit width (0..=63,
/// with the last bucket absorbing widths 64).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂-scale histogram of `u64` values (nanoseconds, by
/// convention). Bucket `i` counts values of bit width `i` — i.e. values in
/// `[2^(i-1), 2^i - 1]`, with bucket 0 holding zeros and the last bucket
/// absorbing everything of width ≥ 63. `record` is a wait-free pair of
/// Relaxed adds; p50/p90/p99 are derived from the buckets at read time.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values (for mean / Prometheus `_sum`).
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram, usable in `static` position.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: its bit width, clamped to the last bucket.
    #[inline]
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        let width = (u64::BITS - v.leading_zeros()) as usize;
        width.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of a bucket's value range.
    #[inline]
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one value. Wait-free; two Relaxed atomic adds.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the non-empty buckets plus count and sum.
    ///
    /// Concurrent recorders may land between the bucket reads, so `count`
    /// (the bucket total) and `sum` are each individually consistent but not
    /// guaranteed to describe the identical instant; quiesced readers (the
    /// tests) observe exact values.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                // Bucket indices are 0..64; the cast is lossless.
                #[allow(clippy::cast_possible_truncation)]
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`Histogram`]: the non-empty `(bucket index,
/// count)` pairs plus the total count and value sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(bucket index, count)`, index ascending.
    pub buckets: Vec<(u8, u64)>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `p` (0.0..=1.0), reported as the inclusive upper
    /// bound of the bucket containing that rank — an overestimate by at most
    /// 2× (the bucket width). Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // ceil(p * count), clamped to [1, count]: the 1-based rank to find.
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_upper_bound(usize::from(index));
            }
        }
        Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// A monotonic nanosecond time source. `uss-core` itself never reads a wall
/// clock (clippy's `disallowed-types` keeps the deterministic crates
/// clock-free); callers that want real durations inject one from a
/// non-deterministic crate —
/// `uss-server` and the benches implement this over the OS monotonic clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since an arbitrary fixed origin.
    fn now_nanos(&self) -> u64;
}

/// A deterministic [`Clock`] driven entirely by the caller: starts at zero
/// and moves only via [`advance`](Self::advance) / [`set`](Self::set).
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock frozen at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Moves the clock forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Jumps the clock to an absolute reading.
    pub fn set(&self, nanos: u64) {
        self.0.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What kind of time series a metric family is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Last-write or high-water value.
    Gauge,
    /// Log₂-bucketed value distribution.
    Histogram,
}

/// Static description of one metric family: stable snake_case name, help
/// text, kind, and the label names its samples carry.
#[derive(Debug, Clone, Copy)]
pub struct FamilyDesc {
    /// Stable snake_case family name (`uss_` prefix).
    pub name: &'static str,
    /// One-line human description (Prometheus `# HELP`).
    pub help: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Label names every sample of this family carries.
    pub labels: &'static [&'static str],
}

/// The metric families produced by `uss-core` engines. The server's
/// exposition endpoint renders `# HELP`/`# TYPE` headers from this table, so
/// a family missing here is a bug `cargo test` catches (see the conservation
/// suite).
pub const CORE_FAMILIES: &[FamilyDesc] = &[
    FamilyDesc {
        name: "uss_ingest_rows_total",
        help: "Rows applied by shard workers (exact at quiesce points).",
        kind: MetricKind::Counter,
        labels: &["stream", "shard"],
    },
    FamilyDesc {
        name: "uss_ingest_blocks_total",
        help: "Row blocks applied by shard workers.",
        kind: MetricKind::Counter,
        labels: &["stream", "shard"],
    },
    FamilyDesc {
        name: "uss_ring_full_total",
        help: "try_push attempts that found an SPSC ring full.",
        kind: MetricKind::Counter,
        labels: &["stream", "shard"],
    },
    FamilyDesc {
        name: "uss_ring_producer_parks_total",
        help: "Producer parks while waiting for ring space.",
        kind: MetricKind::Counter,
        labels: &["stream", "shard"],
    },
    FamilyDesc {
        name: "uss_ring_consumer_wakes_total",
        help: "Consumer unparks performed by producers.",
        kind: MetricKind::Counter,
        labels: &["stream", "shard"],
    },
    FamilyDesc {
        name: "uss_ring_occupancy_high_water",
        help: "Max observed queued blocks across the shard's rings.",
        kind: MetricKind::Gauge,
        labels: &["stream", "shard"],
    },
    FamilyDesc {
        name: "uss_sketch_memory_bytes",
        help: "High-water resident bytes of the shard's sketch or bucket store.",
        kind: MetricKind::Gauge,
        labels: &["stream", "shard"],
    },
    FamilyDesc {
        name: "uss_checkpoint_bytes_total",
        help: "Bytes durably written by checkpoints.",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_checkpoint_frames_total",
        help: "Checkpoint files durably written.",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_checkpoint_failures_total",
        help: "Per-shard checkpoint write failures.",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_temporal_rotations_total",
        help: "Fine-ring rotations (new fine bucket opened).",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_temporal_tier_compactions_total",
        help: "Tier merges triggered by a full tier.",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_temporal_late_rows_total",
        help: "Rows clamped into an older open bucket.",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_ladder_nodes_built_total",
        help: "Dyadic ladder nodes materialised (idle or query path).",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_ladder_nodes_invalidated_total",
        help: "Ladder nodes dropped by late rows or rotation.",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_ladder_repaired_at_query_total",
        help: "Ladder nodes built on the query path (missed idle repair).",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_range_cache_hits_total",
        help: "Merged-range cache hits.",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_range_cache_misses_total",
        help: "Merged-range cache misses (full fold performed).",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
    FamilyDesc {
        name: "uss_range_fold_entries_total",
        help: "Entries fed to range-query folds (shard span pre-merges plus the engine fold).",
        kind: MetricKind::Counter,
        labels: &["stream"],
    },
];

/// One rendered sample: `name{labels}` plus its value, the unit both the
/// wire `Stats` payload and the text exposition are built from.
pub type Sample = (String, u64);

/// Pushes `family{labels}` (or bare `family` when `labels` is empty) onto
/// `out`.
fn push_sample(out: &mut Vec<Sample>, family: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        out.push((family.to_string(), value));
    } else {
        out.push((format!("{family}{{{labels}}}"), value));
    }
}

/// Per-shard SPSC ring telemetry, shared by every ring a producer handle
/// opens to that shard (via the shard's `ShardLink`).
#[derive(Debug, Default)]
pub struct RingCounters {
    /// `try_push` attempts that found the ring full.
    pub try_push_full: Counter,
    /// Producer parks while waiting for space.
    pub producer_parks: Counter,
    /// Consumer unparks actually performed by producers.
    pub consumer_wakes: Counter,
    /// Max observed queued blocks (sampled on slow paths only).
    pub occupancy_high_water: Gauge,
}

impl RingCounters {
    /// A zeroed set.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            try_push_full: Counter::new(),
            producer_parks: Counter::new(),
            consumer_wakes: Counter::new(),
            occupancy_high_water: Gauge::new(),
        }
    }

    /// Appends this ring's samples, labeled `labels`.
    pub fn collect(&self, labels: &str, out: &mut Vec<Sample>) {
        push_sample(out, "uss_ring_full_total", labels, self.try_push_full.get());
        push_sample(
            out,
            "uss_ring_producer_parks_total",
            labels,
            self.producer_parks.get(),
        );
        push_sample(
            out,
            "uss_ring_consumer_wakes_total",
            labels,
            self.consumer_wakes.get(),
        );
        push_sample(
            out,
            "uss_ring_occupancy_high_water",
            labels,
            self.occupancy_high_water.get(),
        );
    }
}

/// One ingest shard's telemetry: rows/blocks applied by its worker, sketch
/// memory high-water, and the ring counters shared with its producers.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Rows applied by the shard worker (exact at quiesce points).
    pub rows: Counter,
    /// Blocks applied by the shard worker.
    pub blocks: Counter,
    /// High-water resident bytes of the shard's sketch or bucket store, sampled at
    /// every quiesce.
    pub sketch_memory: Gauge,
    /// Ring telemetry shared with every producer ring to this shard.
    pub ring: Arc<RingCounters>,
}

impl ShardMetrics {
    /// A zeroed set with a fresh ring-counter block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends this shard's samples, labeled `labels`.
    pub fn collect(&self, labels: &str, out: &mut Vec<Sample>) {
        push_sample(out, "uss_ingest_rows_total", labels, self.rows.get());
        push_sample(out, "uss_ingest_blocks_total", labels, self.blocks.get());
        push_sample(
            out,
            "uss_sketch_memory_bytes",
            labels,
            self.sketch_memory.get(),
        );
        self.ring.collect(labels, out);
    }
}

/// A sharded engine's full telemetry: one [`ShardMetrics`] per shard plus
/// engine-level checkpoint counters. Shared between the engine, its workers,
/// and every producer handle via `Arc`.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Per-shard telemetry, indexed by shard id.
    pub shards: Vec<Arc<ShardMetrics>>,
    /// Bytes durably written by checkpoints (shards + manifest).
    pub checkpoint_bytes: Counter,
    /// Checkpoint files durably written.
    pub checkpoint_frames: Counter,
    /// Per-shard checkpoint write failures.
    pub checkpoint_failures: Counter,
}

impl EngineMetrics {
    /// A zeroed set sized for `shards` shards.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| Arc::new(ShardMetrics::new())).collect(),
            checkpoint_bytes: Counter::new(),
            checkpoint_frames: Counter::new(),
            checkpoint_failures: Counter::new(),
        }
    }

    /// Total rows applied across all shards.
    #[must_use]
    pub fn rows_total(&self) -> u64 {
        self.shards.iter().map(|s| s.rows.get()).sum()
    }

    /// Total blocks applied across all shards.
    #[must_use]
    pub fn blocks_total(&self) -> u64 {
        self.shards.iter().map(|s| s.blocks.get()).sum()
    }

    /// Appends every engine sample. `labels` (e.g. `stream="clicks"`, or
    /// empty) prefixes each sample's label set; per-shard samples additionally
    /// carry `shard="<id>"`.
    pub fn collect(&self, labels: &str, out: &mut Vec<Sample>) {
        for (id, shard) in self.shards.iter().enumerate() {
            let shard_labels = if labels.is_empty() {
                format!("shard=\"{id}\"")
            } else {
                format!("{labels},shard=\"{id}\"")
            };
            shard.collect(&shard_labels, out);
        }
        push_sample(
            out,
            "uss_checkpoint_bytes_total",
            labels,
            self.checkpoint_bytes.get(),
        );
        push_sample(
            out,
            "uss_checkpoint_frames_total",
            labels,
            self.checkpoint_frames.get(),
        );
        push_sample(
            out,
            "uss_checkpoint_failures_total",
            labels,
            self.checkpoint_failures.get(),
        );
    }
}

/// Temporal-subsystem telemetry, shared by every shard's
/// `WindowedSketchStore` (the events are engine-wide aggregates).
#[derive(Debug, Default)]
pub struct TemporalMetrics {
    /// Fine-ring rotations (new fine bucket opened).
    pub rotations: Counter,
    /// Tier merges triggered by a full tier.
    pub tier_compactions: Counter,
    /// Rows clamped into an older open bucket.
    pub late_rows: Counter,
    /// Dyadic ladder nodes materialised (idle or query path).
    pub ladder_nodes_built: Counter,
    /// Ladder nodes dropped by late rows or rotation.
    pub ladder_nodes_invalidated: Counter,
    /// Ladder nodes built on the query path (missed idle repair).
    pub ladder_repaired_at_query: Counter,
    /// Merged-range cache hits.
    pub range_cache_hits: Counter,
    /// Merged-range cache misses (full fold performed).
    pub range_cache_misses: Counter,
    /// Entries fed to range-query folds: each shard span pre-merge's combined
    /// list plus every report the engine folds. A range-cache hit adds
    /// nothing.
    pub range_fold_entries: Counter,
}

impl TemporalMetrics {
    /// A zeroed set.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            rotations: Counter::new(),
            tier_compactions: Counter::new(),
            late_rows: Counter::new(),
            ladder_nodes_built: Counter::new(),
            ladder_nodes_invalidated: Counter::new(),
            ladder_repaired_at_query: Counter::new(),
            range_cache_hits: Counter::new(),
            range_cache_misses: Counter::new(),
            range_fold_entries: Counter::new(),
        }
    }

    /// Appends every temporal sample, labeled `labels`.
    pub fn collect(&self, labels: &str, out: &mut Vec<Sample>) {
        push_sample(
            out,
            "uss_temporal_rotations_total",
            labels,
            self.rotations.get(),
        );
        push_sample(
            out,
            "uss_temporal_tier_compactions_total",
            labels,
            self.tier_compactions.get(),
        );
        push_sample(
            out,
            "uss_temporal_late_rows_total",
            labels,
            self.late_rows.get(),
        );
        push_sample(
            out,
            "uss_ladder_nodes_built_total",
            labels,
            self.ladder_nodes_built.get(),
        );
        push_sample(
            out,
            "uss_ladder_nodes_invalidated_total",
            labels,
            self.ladder_nodes_invalidated.get(),
        );
        push_sample(
            out,
            "uss_ladder_repaired_at_query_total",
            labels,
            self.ladder_repaired_at_query.get(),
        );
        push_sample(
            out,
            "uss_range_cache_hits_total",
            labels,
            self.range_cache_hits.get(),
        );
        push_sample(
            out,
            "uss_range_cache_misses_total",
            labels,
            self.range_cache_misses.get(),
        );
        push_sample(
            out,
            "uss_range_fold_entries_total",
            labels,
            self.range_fold_entries.get(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn counter_is_cache_line_sized() {
        assert_eq!(std::mem::align_of::<Counter>(), 64);
        assert_eq!(std::mem::align_of::<Gauge>(), 64);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
        // Every value lands in a bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 7, 8, 1_000, u64::MAX / 2, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper_bound(i));
            if i > 0 {
                assert!(v > Histogram::bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_snapshot_and_quantiles() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, upper bound 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14, upper bound 16383
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 90 * 100 + 10 * 10_000);
        assert_eq!(snap.buckets, vec![(7, 90), (14, 10)]);
        assert_eq!(snap.quantile(0.5), 127);
        assert_eq!(snap.quantile(0.9), 127);
        assert_eq!(snap.quantile(0.99), 16_383);
        assert_eq!(snap.quantile(1.0), 16_383);
        // Bucket-count conservation: bucket sum equals the record count.
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, snap.count);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), 0);
    }

    #[test]
    fn manual_clock_is_caller_driven() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(250);
        assert_eq!(clock.now_nanos(), 250);
        clock.set(1_000);
        assert_eq!(clock.now_nanos(), 1_000);
    }

    #[test]
    fn family_table_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for f in CORE_FAMILIES {
            assert!(f.name.starts_with("uss_"), "{} lacks uss_ prefix", f.name);
            assert!(!f.help.is_empty());
            assert!(seen.insert(f.name), "duplicate family {}", f.name);
            if f.kind == MetricKind::Counter {
                assert!(
                    f.name.ends_with("_total"),
                    "counter {} should end in _total",
                    f.name
                );
            }
        }
    }

    #[test]
    fn collect_emits_every_core_family() {
        let engine = EngineMetrics::with_shards(2);
        let temporal = TemporalMetrics::new();
        let mut out = Vec::new();
        engine.collect("stream=\"s\"", &mut out);
        temporal.collect("stream=\"s\"", &mut out);
        for f in CORE_FAMILIES {
            assert!(
                out.iter().any(|(name, _)| {
                    name == f.name || name.starts_with(&format!("{}{{", f.name))
                }),
                "family {} missing from collect output",
                f.name
            );
        }
    }

    #[test]
    fn collect_labels_are_prefixed() {
        let engine = EngineMetrics::with_shards(1);
        engine.shards[0].rows.add(5);
        let mut out = Vec::new();
        engine.collect("stream=\"s\"", &mut out);
        assert!(out
            .iter()
            .any(|(n, v)| n == "uss_ingest_rows_total{stream=\"s\",shard=\"0\"}" && *v == 5));
        // Empty label prefix still yields the shard label.
        let mut bare = Vec::new();
        engine.collect("", &mut bare);
        assert!(bare
            .iter()
            .any(|(n, _)| n == "uss_ingest_rows_total{shard=\"0\"}"));
    }
}
