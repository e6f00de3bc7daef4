//! Probability-proportional-to-size (PPS) sampling substrate.
//!
//! The Unbiased Space Saving paper (Ting, 2018) analyses its sketch as an approximate
//! PPS sample drawn on-line from a disaggregated stream. This crate provides the
//! classical, *pre-aggregated* sampling machinery the paper builds on and compares
//! against:
//!
//! * [`pps`] — thresholded PPS inclusion probabilities `π_i = min{α·x_i, 1}` and the
//!   solver for the threshold `α` that achieves a target expected sample size.
//! * [`horvitz_thompson`] — the Horvitz-Thompson estimator that unbiases a subset sum
//!   computed from any unequal-probability sample.
//! * [`priority`] — priority sampling (Duffield, Lund, Thorup), the near-optimal
//!   subset-sum sampling scheme used as the paper's strongest baseline.
//! * [`bottom_k`] — bottom-k (uniform order) sampling of items, the weak baseline.
//! * [`reservoir`] — reservoir sampling of size one and size k; the size-one variant is
//!   the mechanism by which Unbiased Space Saving assigns labels to tail bins.
//! * [`splitting`] — the Deville–Tillé splitting procedure drawing a fixed-size sample
//!   with exactly the prescribed inclusion probabilities; used by the unbiased merge.
//! * [`systematic`] — systematic PPS sampling, a cheap fixed-size alternative also
//!   usable inside the merge reduction.
//!
//! All samplers operate on [`WeightedItem`]s: an opaque `u64` item identifier plus a
//! non-negative weight (the pre-aggregated count `n_i` in the paper's notation).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bottom_k;
pub mod horvitz_thompson;
pub mod pps;
pub mod priority;
pub mod reservoir;
pub mod splitting;
pub mod systematic;

pub use bottom_k::BottomKSketch;
pub use horvitz_thompson::{ht_estimate, ht_variance_upper_bound, HorvitzThompsonSample};
pub use pps::{
    pps_inclusion_probabilities, pps_inclusion_probability, pps_threshold, PpsDesign,
};
pub use priority::{PrioritySample, PrioritySketch};
pub use reservoir::{ReservoirK, ReservoirOne};
pub use splitting::SplittingSampler;
pub use systematic::systematic_pps_sample;

/// An item identifier paired with a non-negative weight (its aggregated size).
///
/// Item identifiers are opaque `u64`s; callers hash their own keys (strings, tuples of
/// dimensions, IP pairs, ...) down to `u64` before handing them to the samplers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedItem {
    /// Opaque identifier of the item (the unit of analysis).
    pub item: u64,
    /// Aggregated size of the item, e.g. its total count in the stream.
    pub weight: f64,
}

impl WeightedItem {
    /// Creates a new weighted item.
    #[must_use]
    pub fn new(item: u64, weight: f64) -> Self {
        Self { item, weight }
    }
}

/// A sampled item together with its Horvitz-Thompson adjusted weight and inclusion
/// probability, as produced by every fixed-size sampler in this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledItem {
    /// Opaque identifier of the sampled item.
    pub item: u64,
    /// The original (pre-adjustment) weight of the item.
    pub weight: f64,
    /// Inclusion probability (exact or pseudo, depending on the scheme).
    pub inclusion_probability: f64,
}

impl SampledItem {
    /// The Horvitz-Thompson adjusted weight `x_i / π_i`, i.e. the value to add to a
    /// subset-sum estimate whenever this item satisfies the subset predicate.
    #[must_use]
    pub fn adjusted_weight(&self) -> f64 {
        if self.inclusion_probability <= 0.0 {
            0.0
        } else {
            self.weight / self.inclusion_probability
        }
    }
}

/// Estimates the sum of `weight` over the items in a sample that satisfy `predicate`,
/// using the Horvitz-Thompson adjustment carried by each [`SampledItem`].
pub fn estimate_subset_sum<F>(sample: &[SampledItem], mut predicate: F) -> f64
where
    F: FnMut(u64) -> bool,
{
    sample
        .iter()
        .filter(|s| predicate(s.item))
        .map(SampledItem::adjusted_weight)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusted_weight_divides_by_inclusion_probability() {
        let s = SampledItem {
            item: 7,
            weight: 10.0,
            inclusion_probability: 0.25,
        };
        assert!((s.adjusted_weight() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn adjusted_weight_zero_probability_is_zero() {
        let s = SampledItem {
            item: 7,
            weight: 10.0,
            inclusion_probability: 0.0,
        };
        assert_eq!(s.adjusted_weight(), 0.0);
    }

    #[test]
    fn estimate_subset_sum_filters_and_sums() {
        let sample = vec![
            SampledItem {
                item: 1,
                weight: 2.0,
                inclusion_probability: 0.5,
            },
            SampledItem {
                item: 2,
                weight: 3.0,
                inclusion_probability: 1.0,
            },
            SampledItem {
                item: 3,
                weight: 5.0,
                inclusion_probability: 0.5,
            },
        ];
        let est = estimate_subset_sum(&sample, |item| item != 2);
        assert!((est - (4.0 + 10.0)).abs() < 1e-12);
    }
}
