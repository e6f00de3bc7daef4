//! The estimation methods compared in the paper's evaluation, behind one interface.
//!
//! A [`Method`] consumes a workload — both its *disaggregated* row stream and its
//! *pre-aggregated* per-item counts — and produces subset-sum estimates for a list of
//! query subsets. Disaggregated methods (the Space Saving family, adaptive
//! sample-and-hold, bottom-k) only look at the rows; pre-aggregated methods (priority
//! sampling) only look at the counts, which is exactly the informational advantage the
//! paper's comparison highlights: Unbiased Space Saving matches priority sampling
//! without ever seeing the aggregated counts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use uss_baselines::AdaptiveSampleAndHold;
use uss_core::{DeterministicSpaceSaving, StreamSketch, UnbiasedSpaceSaving};
use uss_sampling::priority::priority_sample;
use uss_sampling::{BottomKSketch, WeightedItem};

/// A subset-sum estimation method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Unbiased Space Saving on the disaggregated stream (the paper's contribution).
    UnbiasedSpaceSaving,
    /// Deterministic Space Saving on the disaggregated stream (biased baseline).
    DeterministicSpaceSaving,
    /// Priority sampling on pre-aggregated per-item counts (state-of-the-art baseline
    /// that requires the expensive pre-aggregation step).
    PrioritySampling,
    /// Bottom-k uniform item sampling on the disaggregated stream (weak baseline).
    BottomK,
    /// Adaptive sample-and-hold on the disaggregated stream (prior disaggregated
    /// state of the art).
    AdaptiveSampleAndHold,
}

impl Method {
    /// All methods, in the order used by report tables.
    pub const ALL: [Method; 5] = [
        Method::UnbiasedSpaceSaving,
        Method::DeterministicSpaceSaving,
        Method::PrioritySampling,
        Method::BottomK,
        Method::AdaptiveSampleAndHold,
    ];

    /// Human-readable name used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Method::UnbiasedSpaceSaving => "Unbiased Space Saving",
            Method::DeterministicSpaceSaving => "Deterministic Space Saving",
            Method::PrioritySampling => "Priority Sampling",
            Method::BottomK => "Bottom-k",
            Method::AdaptiveSampleAndHold => "Adaptive Sample-and-Hold",
        }
    }

    /// Whether the method requires pre-aggregated counts (rather than the raw rows).
    #[must_use]
    pub fn needs_preaggregation(&self) -> bool {
        matches!(self, Method::PrioritySampling)
    }

    /// Estimates the subset sums for every query in `subsets` (each a sorted list of
    /// item indices) from one pass over the workload with a space budget of `bins`.
    ///
    /// `rows` is the disaggregated stream (item index per row) and `counts` the
    /// pre-aggregated truth vector indexed by item (`counts[i]` = occurrences of item
    /// `i`). `seed` controls all randomness so experiments are reproducible.
    #[must_use]
    pub fn estimate_subsets(
        &self,
        rows: &[u64],
        counts: &[u64],
        bins: usize,
        subsets: &[Vec<u64>],
        seed: u64,
    ) -> Vec<f64> {
        match self {
            Method::UnbiasedSpaceSaving => {
                let mut sketch = UnbiasedSpaceSaving::with_seed(bins, seed);
                sketch.offer_batch(rows);
                let snapshot = sketch.snapshot();
                subsets
                    .iter()
                    .map(|s| snapshot.subset_estimate_items(s).sum)
                    .collect()
            }
            Method::DeterministicSpaceSaving => {
                let mut sketch = DeterministicSpaceSaving::new(bins);
                sketch.offer_batch(rows);
                subsets
                    .iter()
                    .map(|s| {
                        sketch.subset_sum(&mut |item| s.binary_search(&item).is_ok())
                    })
                    .collect()
            }
            Method::PrioritySampling => {
                let items: Vec<WeightedItem> = counts
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| WeightedItem::new(i as u64, c as f64))
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let sample = priority_sample(&items, bins, &mut rng);
                subsets
                    .iter()
                    .map(|s| sample.subset_sum(|item| s.binary_search(&item).is_ok()))
                    .collect()
            }
            Method::BottomK => {
                let mut sketch = BottomKSketch::new(bins, seed);
                sketch.offer_batch(rows);
                let sample = sketch.into_sample();
                subsets
                    .iter()
                    .map(|s| sample.subset_sum(|item| s.binary_search(&item).is_ok()))
                    .collect()
            }
            Method::AdaptiveSampleAndHold => {
                let mut sketch = AdaptiveSampleAndHold::new(bins, seed);
                sketch.offer_batch(rows);
                subsets
                    .iter()
                    .map(|s| {
                        sketch.subset_sum(&mut |item| s.binary_search(&item).is_ok())
                    })
                    .collect()
            }
        }
    }

    /// Estimates the count of every individual item (as a subset of size one each) —
    /// convenience used by the per-item error experiments.
    #[must_use]
    pub fn estimate_items(
        &self,
        rows: &[u64],
        counts: &[u64],
        bins: usize,
        items: &[u64],
        seed: u64,
    ) -> Vec<f64> {
        let subsets: Vec<Vec<u64>> = items.iter().map(|&i| vec![i]).collect();
        self.estimate_subsets(rows, counts, bins, &subsets, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uss_workloads::{shuffled_stream, true_subset_sum, FrequencyDistribution};

    fn workload() -> (Vec<u64>, Vec<u64>) {
        let counts = FrequencyDistribution::Geometric { p: 0.05 }.grid_counts(200);
        let mut rng = StdRng::seed_from_u64(1);
        let rows = shuffled_stream(&counts, &mut rng);
        (rows, counts)
    }

    #[test]
    fn all_methods_produce_one_estimate_per_subset() {
        let (rows, counts) = workload();
        let subsets = vec![vec![0, 1, 2, 3, 4], (0..100u64).collect::<Vec<_>>()];
        for method in Method::ALL {
            let est = method.estimate_subsets(&rows, &counts, 50, &subsets, 7);
            assert_eq!(est.len(), 2, "{}", method.name());
            assert!(est.iter().all(|e| e.is_finite() && *e >= 0.0));
        }
    }

    #[test]
    fn unbiased_methods_are_close_on_large_subsets() {
        // A subset holding half the mass should be estimated within a modest relative
        // error by every unbiased method in a single run.
        let (rows, counts) = workload();
        let subset: Vec<u64> = (0..100u64).collect();
        let truth = true_subset_sum(&counts, &subset) as f64;
        for method in [
            Method::UnbiasedSpaceSaving,
            Method::PrioritySampling,
            Method::AdaptiveSampleAndHold,
        ] {
            let est =
                method.estimate_subsets(&rows, &counts, 60, std::slice::from_ref(&subset), 3)[0];
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.5, "{}: rel error {rel}", method.name());
        }
    }

    #[test]
    fn priority_sampling_ignores_row_order() {
        let (rows, counts) = workload();
        let mut reversed = rows.clone();
        reversed.reverse();
        let subsets = vec![(0..50u64).collect::<Vec<_>>()];
        let a = Method::PrioritySampling.estimate_subsets(&rows, &counts, 40, &subsets, 9);
        let b = Method::PrioritySampling.estimate_subsets(&reversed, &counts, 40, &subsets, 9);
        assert_eq!(a, b, "pre-aggregated methods only see the counts");
    }

    #[test]
    fn names_and_flags_are_consistent() {
        assert!(Method::PrioritySampling.needs_preaggregation());
        assert!(!Method::UnbiasedSpaceSaving.needs_preaggregation());
        let names: std::collections::HashSet<&str> =
            Method::ALL.iter().map(Method::name).collect();
        assert_eq!(names.len(), Method::ALL.len(), "names must be unique");
    }

    #[test]
    fn estimate_items_matches_singleton_subsets() {
        let (rows, counts) = workload();
        let items = vec![0u64, 5, 10];
        let a = Method::UnbiasedSpaceSaving.estimate_items(&rows, &counts, 30, &items, 11);
        let subsets: Vec<Vec<u64>> = items.iter().map(|&i| vec![i]).collect();
        let b = Method::UnbiasedSpaceSaving.estimate_subsets(&rows, &counts, 30, &subsets, 11);
        assert_eq!(a, b);
    }
}
