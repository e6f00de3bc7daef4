//! Reduction operations (section 5.3 of the paper).
//!
//! Every frequent-item sketch fits Algorithm 2: increment the new row's counter
//! exactly, then apply a *reduction* that keeps the number of counters bounded.
//! Deterministic Space Saving, Misra-Gries, and Lossy Counting all use (adaptive or
//! scheduled) thresholding reductions, which bias counts downward (or upward, after
//! adding the threshold back). Unbiased Space Saving replaces the thresholding by a
//! *subsampling* reduction whose expectation preserves the counts (Theorem 2), which
//! is what makes the sketch usable for subset sums.
//!
//! This module implements the two reductions as standalone operations on
//! `(item, count)` entry lists so they can be reused by merge operations and studied
//! in isolation by the ablation benchmarks:
//!
//! * [`threshold_reduce`] — the biased Misra-Gries merge reduction: soft-threshold all
//!   counts by the `(target+1)`-th largest so at most `target` survive.
//! * [`pps_reduce`] — the unbiased reduction: a fixed-size PPS subsample of the bins
//!   where surviving tail bins are Horvitz-Thompson adjusted to the threshold `τ`.

use rand::Rng;
use uss_sampling::{pps_inclusion_probability, pps_threshold, SplittingSampler};

/// Soft-thresholds `entries` so that at most `target` survive, exactly as the
/// Misra-Gries merge of Agarwal et al. (2013): subtract the `(target+1)`-th largest
/// count from every count and drop non-positive results. Returns the threshold that
/// was subtracted (0 when no reduction was necessary).
///
/// This reduction is *biased*: after it, every surviving count underestimates the
/// pre-reduction count by the threshold.
pub fn threshold_reduce(entries: &mut Vec<(u64, f64)>, target: usize) -> f64 {
    if entries.len() <= target {
        return 0.0;
    }
    if target == 0 {
        entries.clear();
        return f64::INFINITY;
    }
    let mut counts: Vec<f64> = entries.iter().map(|(_, c)| *c).collect();
    // The (target+1)-th largest count is the threshold. `total_cmp` matches
    // `partial_cmp` on the finite counts and sorts without a branchy unwrap; only the
    // sorted *values* are consumed, so an unstable sort yields the same threshold.
    counts.sort_unstable_by(|a, b| b.total_cmp(a));
    let threshold = counts[target];
    entries.retain_mut(|(_, c)| {
        *c -= threshold;
        *c > 0.0
    });
    debug_assert!(entries.len() <= target);
    threshold
}

/// Unbiased PPS reduction: keeps at most `target` entries whose expected counts equal
/// the input counts.
///
/// The thresholded PPS design with expected size `target` is computed over the counts;
/// entries with count at least the threshold `τ` are kept verbatim, the remaining
/// entries are selected by the Deville–Tillé splitting procedure with probability
/// `count/τ` and, if selected, have their count raised to `τ` (the Horvitz-Thompson
/// adjustment). The output therefore satisfies
/// `E[post-reduction count_i] = pre-reduction count_i` for every item — the condition
/// of Theorem 2 — while the total mass is preserved in expectation as well.
///
/// At most `target` entries come back, so the result always loads into a
/// `target`-capacity sketch: the design's expected size is `target` to within 1e-9
/// even when the counts span twelve orders of magnitude (see
/// [`uss_sampling::pps_threshold`]), and the pivotal sampler realises an integer
/// expected size exactly. Known-answer pins on the output bits live in
/// `crates/core/tests/pps_kernel.rs` and `crates/sampling/tests/kernel_pins.rs`.
pub fn pps_reduce<R: Rng + ?Sized>(
    mut entries: Vec<(u64, f64)>,
    target: usize,
    rng: &mut R,
) -> Vec<(u64, f64)> {
    if entries.len() <= target {
        return entries;
    }
    if target == 0 {
        return Vec::new();
    }
    let mut probs: Vec<f64> = entries.iter().map(|&(_, count)| count).collect();
    let tau = pps_threshold(&probs, target);
    for p in &mut probs {
        *p = pps_inclusion_probability(*p, tau);
    }
    let included = SplittingSampler::new().sample(&probs, rng);
    // Compact the kept entries to the front in place. Every entry is written and the
    // cursor advances only past kept ones, so the loop has no branch on the random
    // outcome; `kept <= i`, so no entry is overwritten before it is read.
    let mut kept = 0;
    for i in 0..entries.len() {
        let (item, count) = entries[i];
        entries[kept] = (item, if count >= tau { count } else { tau });
        kept += usize::from(included[i]);
    }
    entries.truncate(kept);
    entries.shrink_to(target);
    entries
}

/// Sums per-item counts of two entry lists (the "exact increment" half of a merge).
#[must_use]
pub fn combine_entries(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut combined: crate::hash::FxHashMap<u64, f64> = crate::hash::FxHashMap::default();
    for &(item, count) in a.iter().chain(b) {
        *combined.entry(item).or_insert(0.0) += count;
    }
    combined.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn threshold_reduce_noop_when_small() {
        let mut entries = vec![(1, 5.0), (2, 3.0)];
        let t = threshold_reduce(&mut entries, 4);
        assert_eq!(t, 0.0);
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn threshold_reduce_keeps_target_largest() {
        let mut entries = vec![(1, 10.0), (2, 7.0), (3, 4.0), (4, 2.0), (5, 1.0)];
        let t = threshold_reduce(&mut entries, 2);
        assert_eq!(t, 4.0);
        entries.sort_by_key(|e| e.0);
        assert_eq!(entries, vec![(1, 6.0), (2, 3.0)]);
    }

    #[test]
    fn threshold_reduce_to_zero_clears() {
        let mut entries = vec![(1, 10.0), (2, 7.0)];
        threshold_reduce(&mut entries, 0);
        assert!(entries.is_empty());
    }

    #[test]
    fn threshold_reduce_handles_ties() {
        let mut entries = vec![(1, 5.0), (2, 5.0), (3, 5.0)];
        let t = threshold_reduce(&mut entries, 2);
        assert_eq!(t, 5.0);
        assert!(entries.is_empty(), "all counts tie with the threshold and vanish");
    }

    #[test]
    fn pps_reduce_noop_when_small() {
        let mut rng = StdRng::seed_from_u64(1);
        let entries = vec![(1, 5.0), (2, 3.0)];
        let out = pps_reduce(entries.clone(), 4, &mut rng);
        assert_eq!(out, entries);
    }

    #[test]
    fn pps_reduce_respects_target_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let entries: Vec<(u64, f64)> = (0..50).map(|i| (i, (i % 11 + 1) as f64)).collect();
        for _ in 0..100 {
            let out = pps_reduce(entries.clone(), 10, &mut rng);
            assert!(out.len() <= 10);
            // The design's expected size is exactly 10, and the splitting sampler
            // realises a fixed size when the mass is integral, so we usually get 10.
            assert!(out.len() >= 9);
        }
    }

    #[test]
    fn pps_reduce_keeps_heavy_items_verbatim() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut entries: Vec<(u64, f64)> = (0..40).map(|i| (i, 1.0)).collect();
        entries.push((1000, 500.0));
        for _ in 0..50 {
            let out = pps_reduce(entries.clone(), 5, &mut rng);
            let big = out.iter().find(|(i, _)| *i == 1000).expect("heavy item kept");
            assert_eq!(big.1, 500.0);
        }
    }

    #[test]
    fn pps_reduce_is_unbiased_per_item() {
        // Expected post-reduction count equals the input count for a tail item.
        let entries: Vec<(u64, f64)> = (0..30).map(|i| (i, ((i % 5) + 1) as f64)).collect();
        let target = 8;
        let reps = 40_000;
        let mut rng = StdRng::seed_from_u64(4);
        let probe = 3u64; // count 4
        let truth = 4.0;
        let mut sum = 0.0;
        for _ in 0..reps {
            let out = pps_reduce(entries.clone(), target, &mut rng);
            sum += out
                .iter()
                .find(|(i, _)| *i == probe)
                .map_or(0.0, |(_, c)| *c);
        }
        let mean = sum / reps as f64;
        assert!((mean - truth).abs() < 0.1, "mean {mean} vs {truth}");
    }

    #[test]
    fn pps_reduce_preserves_total_mass_in_expectation() {
        let entries: Vec<(u64, f64)> = (0..25).map(|i| (i, (i + 1) as f64)).collect();
        let truth: f64 = entries.iter().map(|(_, c)| c).sum();
        let reps = 20_000;
        let mut rng = StdRng::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..reps {
            let out = pps_reduce(entries.clone(), 6, &mut rng);
            sum += out.iter().map(|(_, c)| c).sum::<f64>();
        }
        let mean = sum / reps as f64;
        assert!((mean - truth).abs() / truth < 0.02, "mean {mean} vs {truth}");
    }

    #[test]
    fn combine_entries_sums_shared_items() {
        let a = vec![(1, 2.0), (2, 3.0)];
        let b = vec![(2, 4.0), (3, 5.0)];
        let mut combined = combine_entries(&a, &b);
        combined.sort_by_key(|e| e.0);
        assert_eq!(combined, vec![(1, 2.0), (2, 7.0), (3, 5.0)]);
    }

    #[test]
    fn combine_entries_with_empty() {
        let a = vec![(1, 2.0)];
        assert_eq!(combine_entries(&a, &[]), vec![(1, 2.0)]);
        assert!(combine_entries(&[], &[]).is_empty());
    }
}
