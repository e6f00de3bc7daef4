//! # Unbiased Space Saving
//!
//! A from-scratch Rust implementation of the data sketch introduced in *"Data Sketches
//! for Disaggregated Subset Sum and Frequent Item Estimation"* (Daniel Ting, SIGMOD
//! 2018), together with every substrate it builds on.
//!
//! The sketch answers two questions about a massive, *disaggregated* stream — one
//! where the per-item metric of interest (clicks per ad, bytes per IP flow, events per
//! user) is spread over many rows:
//!
//! 1. **Disaggregated subset sums**: an unbiased estimate of
//!    `Σ_{items i in S} n_i` for *any* subset `S` chosen after the fact, with a
//!    variance estimate and a confidence interval.
//! 2. **Frequent items**: the heavy hitters and consistent estimates of their
//!    frequencies.
//!
//! ## Quick start
//!
//! ```
//! use uss_core::prelude::*;
//!
//! // Sketch a click stream with 100 bins.
//! let mut sketch = UnbiasedSpaceSaving::with_seed(100, 42);
//! for user in 0u64..10_000 {
//!     // each user clicks 1 + (user % 7) times
//!     for _ in 0..=(user % 7) {
//!         sketch.offer(user);
//!     }
//! }
//!
//! // Unbiased estimate of total clicks from users 0..1000, with a 95% CI.
//! let snapshot = sketch.snapshot();
//! let (estimate, ci) = snapshot.subset_confidence_interval(|u| u < 1000, 0.95);
//! assert!(estimate.sum >= 0.0);
//! assert!(ci.upper >= ci.lower);
//!
//! // Heavy hitters.
//! let top = snapshot.top_k(5);
//! assert_eq!(top.len(), 5);
//! ```
//!
//! Hot ingest paths should prefer [`traits::StreamSketch::offer_batch`] (exactly
//! equivalent, measurably faster), and concurrent multi-producer pipelines the
//! [`engine`] module's [`ShardedIngestEngine`](engine::ShardedIngestEngine). To
//! query *while* ingest continues, capture a snapshot from the engine and answer
//! typed queries against it with [`query::answer_query`]: the snapshot is
//! immutable, so any number of reader threads can share it behind an `Arc`.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |--------|----------|
//! | [`space_saving`] | [`UnbiasedSpaceSaving`], [`DeterministicSpaceSaving`], the weighted and time-decayed generalisations |
//! | [`stream_summary`] | the O(1)-update counter structure of Metwally et al. |
//! | [`reduction`] | thresholding vs PPS-subsampling reduction operations (section 5.3) |
//! | [`merge`] | biased Misra-Gries merge and the unbiased PPS merge (section 5.5) |
//! | [`engine`] | the concurrent sharded ingest engine: multi-producer block ingestion into live, queryable worker shards folded with the unbiased merge |
//! | `shard` | (crate-private) the shard runtime both ingest engines run on: handles, worker loop, quiesce cuts, checkpoint fan-out |
//! | [`metrics`] | lock-free runtime telemetry: cache-padded counters/gauges, log₂ histograms, the deterministic [`Clock`](metrics::Clock) trait, and the static metric-family registry |
//! | [`spsc`] | lock-free single-producer/single-consumer block rings — the engines' ingest transport |
//! | [`query`] | typed queries (subset sum, proportion, top-k, frequent items, rank quantile) answered against a captured snapshot, with variance and confidence intervals |
//! | [`temporal`] | the time-partitioned subsystem: windowed ingest over a bucket ring, time-range queries, tiered retention with graceful aging |
//! | [`persist`] | durable snapshots: versioned checksummed binary codec, engine checkpoint files, bucket-ring/temporal frames, cold-file serving |
//! | [`distributed`] | map-reduce style sharded sketching, a deterministic convenience wrapper over the engine |
//! | [`estimator`] | query-side snapshots: subset sums, frequent items, proportions, keyed marginals |
//! | [`variance`] | the equation-5 variance estimator and Normal confidence intervals |
//! | [`hash`] | fast hashing of user-level keys to item identifiers |
//! | [`traits`] | the [`StreamSketch`](traits::StreamSketch) family of traits |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The only `unsafe` in the workspace lives in `spsc`. Every unsafe operation,
// even inside an `unsafe fn`, sits in an explicit `unsafe` block carrying its
// own `// SAFETY:` justification (`clippy::undocumented_unsafe_blocks`, denied
// workspace-wide).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod distributed;
pub mod engine;
pub mod estimator;
pub mod hash;
pub mod merge;
pub mod metrics;
pub mod persist;
pub mod query;
pub mod reduction;
mod shard;
pub mod space_saving;
pub mod spsc;
pub mod stream_summary;
pub mod temporal;
pub mod traits;
pub mod variance;

pub use engine::{
    EngineConfig, EngineConfigError, EngineError, IngestHandle, ShardFailure, ShardFault,
    ShardedIngestEngine,
};
pub use estimator::{SketchSnapshot, SubsetEstimate};
pub use metrics::{
    Clock, Counter, EngineMetrics, Gauge, Histogram, HistogramSnapshot, ManualClock,
    RingCounters, ShardMetrics, TemporalMetrics,
};
pub use persist::{ColdSnapshot, PayloadReader, PayloadWriter, PersistError, SketchKind};
pub use query::{answer_query, Query, QueryAnswer};
pub use space_saving::{
    DecayedSpaceSaving, DeterministicSpaceSaving, UnbiasedSpaceSaving, WeightedSpaceSaving,
};
pub use stream_summary::StreamSummary;
pub use temporal::{
    TemporalConfig, TemporalConfigError, TemporalIngestEngine, TemporalIngestHandle, TimeRange,
    WindowConfig, WindowConfigError, WindowedSketchStore,
};
pub use traits::{MergeableSketch, StreamSketch, WeightedStreamSketch};
pub use variance::{normal_confidence_interval, subset_variance_estimate, ConfidenceInterval};

/// Commonly used items, for glob import in examples and applications.
pub mod prelude {
    pub use crate::distributed::DistributedSketcher;
    pub use crate::engine::{EngineConfig, IngestHandle, ShardedIngestEngine};
    pub use crate::estimator::{SketchSnapshot, SubsetEstimate};
    pub use crate::hash::{combine, hash_bytes, hash_fields};
    pub use crate::merge::{merge_deterministic, merge_misra_gries, merge_unbiased};
    pub use crate::persist::{ColdSnapshot, PersistError, SketchKind};
    pub use crate::query::{answer_query, Query, QueryAnswer};
    pub use crate::space_saving::{
        DecayedSpaceSaving, DeterministicSpaceSaving, UnbiasedSpaceSaving, WeightedSpaceSaving,
    };
    pub use crate::temporal::{
        TemporalConfig, TemporalIngestEngine, TemporalIngestHandle, TimeRange, WindowConfig,
        WindowedSketchStore,
    };
    pub use crate::traits::{MergeableSketch, StreamSketch, WeightedStreamSketch};
    pub use crate::variance::{normal_confidence_interval, ConfidenceInterval};
}
