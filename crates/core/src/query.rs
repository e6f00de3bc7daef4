//! Typed queries over a captured sketch snapshot.
//!
//! Every answer the paper defines is a pure function of one [`SketchSnapshot`]:
//! capture a snapshot from whatever holds the stream — a plain sketch
//! ([`crate::UnbiasedSpaceSaving::snapshot`]), a live engine
//! ([`crate::ShardedIngestEngine::snapshot`]), a time range
//! ([`crate::TemporalIngestEngine::range_capture`]) or a file
//! ([`crate::ColdSnapshot::snapshot`]) — and evaluate [`Query`]s against it
//! with [`answer_query`]. Snapshots are immutable, so readers on many threads
//! share one `Arc<SketchSnapshot>` and their answers are mutually consistent
//! (the entry total equals the snapshot's row count); a fresher view is a new
//! capture. The wire-protocol daemon answers through the same routine, so a
//! served answer is bit-identical to an in-process one on the same snapshot.
//!
//! ## The typed query API and the paper's estimator sections
//!
//! Each [`Query`] variant is one of the paper's query families (Daniel Ting,
//! *Data Sketches for Disaggregated Subset Sum and Frequent Item Estimation*,
//! SIGMOD 2018):
//!
//! | variant | estimator | paper |
//! |---------|-----------|-------|
//! | [`Query::SubsetSum`] | unbiased disaggregated subset sum (Theorems 1–2), variance per equation 5, Normal CI per section 6.5 | §4, §6.4–6.5 |
//! | [`Query::Proportion`] | the same subset sum scaled by the row count (consistent by Theorem 3); variance scales by `1/rows²` | §4.1, §6.4 |
//! | [`Query::TopK`] | the `k` largest retained counters — frequent items with consistent count estimates | §4.1 (Theorem 3) |
//! | [`Query::FrequentItems`] | classical `φ`-heavy-hitters over the retained counters | §4.1 |
//! | [`Query::RankQuantile`] | the retained counter at rank quantile `q` — the count profile separating the "nearly exact" head from the PPS-sampled tail | §6 (N̂_min threshold) |
//!
//! Every numeric answer is a [`SubsetEstimate`] carrying the equation-5 variance and
//! a [`ConfidenceInterval`]. The keyed group-by ([`SketchSnapshot::marginals`])
//! serves the paper's Figure 6 workload — roll full-granularity sketch entries
//! up to arbitrary marginals after the fact.
//!
//! ```
//! use std::sync::Arc;
//! use uss_core::prelude::*;
//!
//! let engine = ShardedIngestEngine::new(EngineConfig::new(2, 256, 7));
//! let mut handle = engine.handle();
//! for row in 0u64..20_000 {
//!     handle.offer(row % 500);
//! }
//! handle.flush();
//!
//! // Capture once; any number of readers share the immutable snapshot.
//! let snap = Arc::new(engine.snapshot().snapshot());
//! let answer = answer_query(&snap, &Query::SubsetSum { items: (0..100).collect() }, 0.95);
//! if let QueryAnswer::Estimate { estimate, ci } = answer {
//!     assert!(estimate.sum > 0.0);
//!     assert!(ci.upper >= ci.lower);
//! }
//! assert_eq!(snap.rows_processed(), 20_000);
//! let merged = engine.finish();
//! assert_eq!(merged.rows_processed(), 20_000);
//! ```

use crate::estimator::{SketchSnapshot, SubsetEstimate};
use crate::variance::ConfidenceInterval;

/// A typed query against a [`SketchSnapshot`], answered by [`answer_query`].
/// See the [module docs](self) for the mapping from variants to the paper's
/// estimator sections.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Unbiased estimate of the total count over the listed items (**sorted
    /// ascending**), with variance and confidence interval.
    SubsetSum {
        /// The queried item identifiers, sorted ascending.
        items: Vec<u64>,
    },
    /// The listed items' share of all rows, as a [`SubsetEstimate`] in proportion
    /// units (variance scaled by `1/rows²`).
    Proportion {
        /// The queried item identifiers, sorted ascending.
        items: Vec<u64>,
    },
    /// The `k` most frequent retained items, descending.
    TopK {
        /// Number of items to return.
        k: usize,
    },
    /// Items whose estimated count exceeds `phi · rows`, descending.
    FrequentItems {
        /// Frequency threshold in `(0, 1)`.
        phi: f64,
    },
    /// The retained `(item, count)` at rank quantile `q` of the descending count
    /// ranking (`0` = top item, `1` = minimum retained counter). A `q` outside
    /// `[0, 1]` — NaN included — answers [`QueryAnswer::Rank`]`(None)` rather than
    /// panicking the read path.
    RankQuantile {
        /// Rank quantile in `[0, 1]`.
        q: f64,
    },
}

/// The answer to a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// A numeric estimate with variance and confidence interval
    /// ([`Query::SubsetSum`] in row units, [`Query::Proportion`] in proportion
    /// units).
    Estimate {
        /// The point estimate with its equation-5 variance.
        estimate: SubsetEstimate,
        /// Normal-approximation interval at the requested confidence.
        ci: ConfidenceInterval,
    },
    /// A ranked item list ([`Query::TopK`], [`Query::FrequentItems`]).
    Items(Vec<(u64, f64)>),
    /// A single ranked entry ([`Query::RankQuantile`]); `None` on an empty sketch
    /// or an invalid quantile.
    Rank(Option<(u64, f64)>),
}

/// Evaluates one typed [`Query`] against a snapshot at the given confidence —
/// the single evaluation routine behind every read, so every serving surface
/// (the wire-protocol daemon, an in-process reader) answers **bit-identically**
/// by construction: same snapshot, same query, same confidence ⇒ same bytes in
/// the answer.
///
/// # Panics
///
/// Inherits the snapshot methods' domain contracts: `FrequentItems` requires
/// `phi ∈ (0, 1)` and the confidence must lie in `(0, 1)` for estimate
/// queries. Callers decoding untrusted input must validate first (the wire
/// layer does).
#[must_use]
pub fn answer_query(snap: &SketchSnapshot, query: &Query, confidence: f64) -> QueryAnswer {
    match query {
        Query::SubsetSum { items } => {
            let estimate = snap.subset_estimate_items(items);
            QueryAnswer::Estimate {
                ci: estimate.confidence_interval(confidence),
                estimate,
            }
        }
        Query::Proportion { items } => {
            let estimate =
                scale_to_proportion(snap.subset_estimate_items(items), snap.rows_processed());
            QueryAnswer::Estimate {
                ci: estimate.confidence_interval(confidence),
                estimate,
            }
        }
        Query::TopK { k } => QueryAnswer::Items(snap.top_k(*k)),
        Query::FrequentItems { phi } => QueryAnswer::Items(snap.frequent_items(*phi)),
        Query::RankQuantile { q } => QueryAnswer::Rank(snap.rank_quantile(*q)),
    }
}

/// Rescales a row-unit subset estimate into proportion units (`sum / rows`,
/// variance `/ rows²`). A zero-row snapshot yields a zero proportion with zero
/// variance.
fn scale_to_proportion(estimate: SubsetEstimate, rows: u64) -> SubsetEstimate {
    if rows == 0 {
        return SubsetEstimate {
            sum: 0.0,
            variance: 0.0,
            items_in_sketch: estimate.items_in_sketch,
        };
    }
    let scale = 1.0 / rows as f64;
    SubsetEstimate {
        sum: estimate.sum * scale,
        variance: estimate.variance * scale * scale,
        items_in_sketch: estimate.items_in_sketch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space_saving::UnbiasedSpaceSaving;
    use crate::traits::StreamSketch;

    fn snapshot_of(rows: &[u64]) -> SketchSnapshot {
        let mut sketch = UnbiasedSpaceSaving::with_seed(64, 9);
        sketch.offer_batch(rows);
        sketch.snapshot()
    }

    #[test]
    fn server_over_owned_sketch_answers_like_the_snapshot() {
        // A snapshot of an owned sketch, shared as `Arc<SketchSnapshot>` the way
        // concurrent readers hold it, answers exactly like a direct capture.
        let rows: Vec<u64> = (0..5_000u64).map(|i| i % 100).collect();
        let mut sketch = UnbiasedSpaceSaving::with_seed(64, 9);
        sketch.offer_batch(&rows);
        let direct = sketch.snapshot();
        let shared = std::sync::Arc::new(sketch.snapshot());

        let items: Vec<u64> = (0..30).collect();
        let QueryAnswer::Estimate { estimate, ci } = answer_query(
            &shared,
            &Query::SubsetSum {
                items: items.clone(),
            },
            0.95,
        ) else {
            panic!("subset sum must answer with an estimate")
        };
        let reference = direct.subset_estimate_items(&items);
        assert_eq!(estimate.sum, reference.sum);
        assert_eq!(estimate.variance, reference.variance);
        assert!(ci.contains(estimate.sum));
        assert_eq!(
            answer_query(&shared, &Query::TopK { k: 5 }, 0.95),
            QueryAnswer::Items(direct.top_k(5))
        );
        assert_eq!(
            answer_query(&shared, &Query::FrequentItems { phi: 0.005 }, 0.95),
            QueryAnswer::Items(direct.frequent_items(0.005))
        );
    }

    #[test]
    fn execute_covers_every_query_variant() {
        let rows: Vec<u64> = (0..8_000u64).map(|i| i % 200).collect();
        let snap = snapshot_of(&rows);
        let items: Vec<u64> = (0..50).collect();

        let QueryAnswer::Estimate { estimate, ci } = answer_query(
            &snap,
            &Query::SubsetSum {
                items: items.clone(),
            },
            0.95,
        ) else {
            panic!("subset sum must answer with an estimate")
        };
        // The typed answer is the snapshot's own estimate and interval.
        let reference = snap.subset_estimate_items(&items);
        assert_eq!(estimate.sum.to_bits(), reference.sum.to_bits());
        assert_eq!(estimate.variance.to_bits(), reference.variance.to_bits());
        assert_eq!(ci, reference.confidence_interval(0.95));
        assert!(estimate.sum > 0.0);
        assert!(ci.contains(estimate.sum));

        let QueryAnswer::Estimate { estimate, .. } =
            answer_query(&snap, &Query::Proportion { items }, 0.95)
        else {
            panic!("proportion must answer with an estimate")
        };
        assert!((0.0..=1.0).contains(&estimate.sum));
        assert!((estimate.sum - 0.25).abs() < 0.15);

        let QueryAnswer::Items(top) = answer_query(&snap, &Query::TopK { k: 3 }, 0.95) else {
            panic!("top-k must answer with items")
        };
        assert_eq!(top, snap.top_k(3));
        assert_eq!(top.len(), 3);

        let QueryAnswer::Items(heavy) =
            answer_query(&snap, &Query::FrequentItems { phi: 0.004 }, 0.95)
        else {
            panic!("frequent items must answer with items")
        };
        assert_eq!(heavy, snap.frequent_items(0.004));
        assert!(heavy.len() <= 200);

        let QueryAnswer::Rank(rank) = answer_query(&snap, &Query::RankQuantile { q: 0.0 }, 0.95)
        else {
            panic!("rank quantile must answer with a rank")
        };
        assert_eq!(rank, snap.top_k(1).first().copied());
    }

    #[test]
    fn proportion_scaling_handles_zero_rows() {
        let estimate = SubsetEstimate {
            sum: 5.0,
            variance: 4.0,
            items_in_sketch: 2,
        };
        let scaled = scale_to_proportion(estimate, 0);
        assert_eq!(scaled.sum, 0.0);
        assert_eq!(scaled.variance, 0.0);
        let scaled = scale_to_proportion(estimate, 10);
        assert_eq!(scaled.sum, 0.5);
        assert!((scaled.variance - 0.04).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn invalid_confidence_panics() {
        // The documented domain contract: estimate queries need a confidence
        // in (0, 1); the wire layer validates before it gets here.
        let snap = snapshot_of(&[1, 2, 3]);
        let _ = answer_query(&snap, &Query::SubsetSum { items: vec![1] }, 1.0);
    }

    #[test]
    fn malformed_rank_quantile_cannot_panic_the_read_path() {
        // Regression: a NaN or out-of-range q reaching a reader used to assert!
        // inside SketchSnapshot::rank_quantile and take the reader down.
        let rows: Vec<u64> = (0..1_000u64).map(|i| i % 25).collect();
        let snap = snapshot_of(&rows);
        for q in [f64::NAN, -0.5, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let answer = answer_query(&snap, &Query::RankQuantile { q }, 0.95);
            assert_eq!(answer, QueryAnswer::Rank(None), "q = {q}");
        }
        let QueryAnswer::Rank(Some(_)) = answer_query(&snap, &Query::RankQuantile { q: 0.5 }, 0.95)
        else {
            panic!("valid quantiles must still answer");
        };
    }

    #[test]
    fn empty_snapshot_answers_every_variant_with_finite_zeros() {
        // A 0-row snapshot must answer all five query variants with finite
        // values — zero estimates, zero variance, degenerate [0, 0] intervals —
        // never NaN and never a panic.
        let snap = UnbiasedSpaceSaving::with_seed(16, 1).snapshot();
        assert_eq!(snap.rows_processed(), 0);
        let items: Vec<u64> = vec![1, 2, 3];

        for query in [
            Query::SubsetSum {
                items: items.clone(),
            },
            Query::Proportion { items },
        ] {
            let QueryAnswer::Estimate { estimate, ci } = answer_query(&snap, &query, 0.95) else {
                panic!("{query:?} must answer with an estimate")
            };
            assert_eq!(estimate.sum, 0.0, "{query:?}");
            assert_eq!(estimate.variance, 0.0, "{query:?}");
            assert_eq!(estimate.std_dev(), 0.0, "{query:?}");
            assert!(ci.lower.is_finite() && ci.upper.is_finite(), "{query:?}");
            assert_eq!((ci.lower, ci.upper), (0.0, 0.0), "{query:?}");
        }

        assert_eq!(
            answer_query(&snap, &Query::TopK { k: 5 }, 0.95),
            QueryAnswer::Items(vec![])
        );
        assert_eq!(
            answer_query(&snap, &Query::FrequentItems { phi: 0.01 }, 0.95),
            QueryAnswer::Items(vec![])
        );
        assert_eq!(
            answer_query(&snap, &Query::RankQuantile { q: 0.5 }, 0.95),
            QueryAnswer::Rank(None)
        );
    }
}
