//! Thresholded probability-proportional-to-size (PPS) designs.
//!
//! For a population of weights `x_1..x_n` and a target (expected) sample size `m`, the
//! classical thresholded PPS design uses inclusion probabilities
//! `π_i = min{ x_i / τ, 1 }` where the threshold `τ` is chosen so that
//! `Σ_i π_i = m` (when feasible). Items with `x_i ≥ τ` are taken with certainty; the
//! remaining items are sampled with probability proportional to size. Section 5.1 of
//! the paper reviews this design and section 6.2 proves that Unbiased Space Saving
//! converges to it on i.i.d. streams.

use crate::WeightedItem;

/// A resolved thresholded PPS design: the threshold `τ` and the per-item inclusion
/// probabilities `π_i = min{x_i/τ, 1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PpsDesign {
    /// The threshold `τ`. Items with weight at least `τ` are included with certainty.
    pub threshold: f64,
    /// Inclusion probabilities aligned with the input weights.
    pub inclusion_probabilities: Vec<f64>,
}

impl PpsDesign {
    /// Expected sample size `Σ_i π_i` of the design.
    #[must_use]
    pub fn expected_sample_size(&self) -> f64 {
        self.inclusion_probabilities.iter().sum()
    }

    /// Number of items included with certainty (probability 1).
    #[must_use]
    pub fn certainty_count(&self) -> usize {
        self.inclusion_probabilities
            .iter()
            .filter(|&&p| p >= 1.0)
            .count()
    }
}

/// Computes the threshold `τ` such that `Σ_i min{x_i/τ, 1} = m`.
///
/// If `m` is at least the number of strictly positive weights, every such item gets
/// probability 1 and the returned threshold is `0.0`. Weights must be non-negative;
/// zero weights always receive inclusion probability 0 and do not count toward `m`.
///
/// Runs in `O(n log n)`: one integer sort of the `n` positive weights, then `O(n)`
/// sums and an `O(m)` sweep of the boundary between the "certainty" prefix and the
/// proportional tail. The sort needs no float comparisons: for positive finite
/// `f64`s the IEEE-754 layout (sign 0, then biased exponent, then mantissa) makes
/// `a < b` exactly when `a.to_bits() < b.to_bits()`, so sorting the complemented bit
/// patterns ascending orders the weights descending. Every sum is then taken in that
/// descending order, so `τ` is bit-for-bit what a float comparison sort would give.
///
/// `τ` divides a tail sum that the sweep forms as `total − head_sum`. When the
/// certainty head dwarfs the tail (counts spanning about 1e12), that subtraction
/// cancels, the design's `Σπ` misses `m` (47.0015 for `m = 47` in one case), and the
/// pivotal sampler can then pick `m + 1` items. The chosen tail is therefore re-summed
/// directly. If the design it implies misses `m` by more than 1e-9, the sweep is
/// redone on direct suffix sums. Without cancellation the sums agree to rounding and
/// the sweep's `τ` stands.
///
/// # Panics
///
/// Panics if any weight is negative or non-finite.
#[must_use]
pub fn pps_threshold(weights: &[f64], m: usize) -> f64 {
    let mut keys: Vec<u64> = Vec::with_capacity(weights.len());
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative");
        if w > 0.0 {
            keys.push(!w.to_bits());
        }
    }
    if keys.is_empty() || m == 0 {
        return f64::INFINITY;
    }
    if m >= keys.len() {
        return 0.0;
    }
    keys.sort_unstable();
    let sorted = |i: usize| f64::from_bits(!keys[i]);

    // Suppose the k largest weights are taken with certainty. The remaining n-k items
    // must contribute m-k expected inclusions: τ = (Σ_{i>k} x_i) / (m - k).
    let total: f64 = keys.iter().map(|&key| f64::from_bits(!key)).sum();
    let mut head_sum = 0.0;
    let mut summed = 0;
    let (k, tail_sum, tau) = sweep(&sorted, m, |k| {
        for i in summed..k {
            head_sum += sorted(i);
        }
        summed = k;
        total - head_sum
    });
    // The design's expected size is k + direct/τ, so it misses m by
    // (m - k)·(direct - tail_sum)/tail_sum. In exact arithmetic some k < m always
    // qualifies, so a sweep that ran off the end was misled by rounding.
    let direct: f64 = (k..keys.len()).rev().map(sorted).sum();
    if k < m && (direct - tail_sum).abs() * (m - k) as f64 <= MAX_SIZE_MISS * tail_sum {
        return tau;
    }
    let mut suffix = vec![0.0; keys.len() + 1];
    for i in (0..keys.len()).rev() {
        suffix[i] = suffix[i + 1] + sorted(i);
    }
    sweep(&sorted, m, |k| suffix[k]).2
}

/// Largest miss `|Σπ − m|` that [`pps_threshold`] leaves in place. The pivotal
/// sampler turns a design of size `m + δ` into `m + 1` picks with probability about
/// `δ`. Rounding alone keeps the miss near `1e-12` even for `m` in the thousands;
/// a larger miss means `total − head_sum` cancelled, and `τ` is recomputed from direct
/// suffix sums.
const MAX_SIZE_MISS: f64 = 1e-9;

/// The boundary sweep behind [`pps_threshold`]: returns `(k, tail_sum, τ)` for the
/// first `k < m` with `sorted(k-1) ≥ τ > sorted(k)` (with `sorted(-1) = ∞`), where
/// `τ = tail(k) / (m - k)`. `tail` is called with `k = 0, 1, 2, …` in order. If no
/// `k` qualifies (only rounding can cause that), all of the first `m` items are
/// certainties and the threshold is the remaining tail, `tail(m)`.
fn sweep(
    sorted: &impl Fn(usize) -> f64,
    m: usize,
    mut tail: impl FnMut(usize) -> f64,
) -> (usize, f64, f64) {
    for k in 0..m {
        let tail_sum = tail(k);
        let tau = tail_sum / (m - k) as f64;
        let head_ok = k == 0 || sorted(k - 1) >= tau;
        let tail_ok = sorted(k) < tau || (sorted(k) - tau).abs() < f64::EPSILON * tau.max(1.0);
        if head_ok && tail_ok {
            return (k, tail_sum, tau);
        }
    }
    let tail_sum = tail(m);
    (m, tail_sum, tail_sum)
}

/// Computes the full thresholded PPS design (threshold plus per-item inclusion
/// probabilities) for the given weights and target expected sample size `m`.
#[must_use]
pub fn pps_inclusion_probabilities(weights: &[f64], m: usize) -> PpsDesign {
    let tau = pps_threshold(weights, m);
    let probs = weights
        .iter()
        .map(|&w| pps_inclusion_probability(w, tau))
        .collect();
    PpsDesign {
        threshold: tau,
        inclusion_probabilities: probs,
    }
}

/// The inclusion probability `min{w/τ, 1}` of one weight under the threshold `τ`
/// returned by [`pps_threshold`]: 0 for a zero weight or an infinite threshold, 1 for
/// a zero threshold. [`pps_inclusion_probabilities`] maps it over the weights.
#[must_use]
pub fn pps_inclusion_probability(weight: f64, threshold: f64) -> f64 {
    if weight <= 0.0 || threshold.is_infinite() {
        0.0
    } else if threshold <= 0.0 {
        1.0
    } else {
        (weight / threshold).min(1.0)
    }
}

/// Convenience wrapper computing a PPS design over [`WeightedItem`]s.
#[must_use]
pub fn pps_design_for_items(items: &[WeightedItem], m: usize) -> PpsDesign {
    let weights: Vec<f64> = items.iter().map(|it| it.weight).collect();
    pps_inclusion_probabilities(&weights, m)
}

/// The zero-variance "ideal" PPS inclusion probabilities `π_i ∝ x_i` clipped at 1,
/// scaled so the expected sample size is `m` *before* clipping. This is the design the
/// paper plots as "Theoretical PPS" in Figure 2; it differs from
/// [`pps_inclusion_probabilities`] only when clipping makes the expected size fall
/// below `m`.
#[must_use]
pub fn proportional_inclusion_probabilities(weights: &[f64], m: usize) -> Vec<f64> {
    let total: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
    if total <= 0.0 {
        return vec![0.0; weights.len()];
    }
    weights
        .iter()
        .map(|&w| {
            if w <= 0.0 {
                0.0
            } else {
                (m as f64 * w / total).min(1.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    /// The threshold solver before its sort-free rewrite, verbatim: a float
    /// comparison sort, then the same sums and sweep. Kept as the oracle that the
    /// rewrite must match bit for bit (outside the cancellation fallback).
    fn oracle_pps_threshold(weights: &[f64], m: usize) -> f64 {
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative");
        }
        let mut sorted: Vec<f64> = weights.iter().copied().filter(|&w| w > 0.0).collect();
        if sorted.is_empty() || m == 0 {
            return f64::INFINITY;
        }
        if m >= sorted.len() {
            return 0.0;
        }
        sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        let total: f64 = sorted.iter().sum();
        let mut head_sum = 0.0;
        for k in 0..m {
            let tail_sum = total - head_sum;
            let tau = tail_sum / (m - k) as f64;
            let head_ok = if k == 0 { true } else { sorted[k - 1] >= tau };
            let tail_ok =
                sorted[k] < tau || (sorted[k] - tau).abs() < f64::EPSILON * tau.max(1.0);
            if head_ok && tail_ok {
                return tau;
            }
            head_sum += sorted[k];
        }
        let tail_sum = total - head_sum;
        tail_sum / 1.0
    }

    /// Weights whose partial sums are all exact (integers and dyadic fractions of
    /// moderate size), mixed with zeros and ties, so no tail sum can cancel.
    fn exact_weights() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            (0u32..5, 1u32..100_000).prop_map(|(kind, v)| match kind {
                0 => 0.0,
                1 => 1.0,
                2 => 0.25,
                3 => f64::from(v),
                _ => f64::from(v % 4_096) / 64.0,
            }),
            0..300,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The integer-sort threshold equals the float-sort oracle bit for bit.
        #[test]
        fn threshold_matches_oracle_bits(weights in exact_weights(), m in 0usize..320) {
            prop_assert_eq!(
                pps_threshold(&weights, m).to_bits(),
                oracle_pps_threshold(&weights, m).to_bits()
            );
        }

        /// Also on general fractional weights, where the sweep's subtraction rounds.
        /// With `n ≤ 400` weights in `[1, 4)` the design misses `m` by at most about
        /// `n²·ε·4 < 1e-10`, so the cancellation fallback cannot fire.
        #[test]
        fn fractional_threshold_matches_oracle_bits(
            weights in proptest::collection::vec(1.0f64..4.0, 1..400),
            m in 1usize..400,
        ) {
            prop_assert_eq!(
                pps_threshold(&weights, m).to_bits(),
                oracle_pps_threshold(&weights, m).to_bits()
            );
        }
    }

    #[test]
    fn threshold_uniform_weights() {
        // 10 items of weight 1, sample size 5 -> tau = 10/5 = 2, pi = 0.5 each.
        let w = vec![1.0; 10];
        let design = pps_inclusion_probabilities(&w, 5);
        assert_close(design.threshold, 2.0, 1e-12);
        for &p in &design.inclusion_probabilities {
            assert_close(p, 0.5, 1e-12);
        }
        assert_close(design.expected_sample_size(), 5.0, 1e-12);
    }

    #[test]
    fn threshold_with_certainty_items() {
        // Paper's example: values 1, 1, 10 with sample size 2. The large item is a
        // certainty; the remaining expected size 1 is split between the two unit items.
        let w = vec![1.0, 1.0, 10.0];
        let design = pps_inclusion_probabilities(&w, 2);
        assert_eq!(design.certainty_count(), 1);
        assert_close(design.inclusion_probabilities[2], 1.0, 1e-12);
        assert_close(design.inclusion_probabilities[0], 0.5, 1e-12);
        assert_close(design.inclusion_probabilities[1], 0.5, 1e-12);
        assert_close(design.expected_sample_size(), 2.0, 1e-9);
    }

    #[test]
    fn expected_sample_size_matches_m() {
        let w: Vec<f64> = (1..=100).map(|i| (i as f64).powi(2)).collect();
        for m in [1usize, 5, 20, 50, 99] {
            let design = pps_inclusion_probabilities(&w, m);
            assert_close(design.expected_sample_size(), m as f64, 1e-6);
        }
    }

    #[test]
    fn sample_size_larger_than_population_gives_certainties() {
        let w = vec![3.0, 2.0, 1.0];
        let design = pps_inclusion_probabilities(&w, 10);
        assert_eq!(design.certainty_count(), 3);
        assert_close(design.expected_sample_size(), 3.0, 1e-12);
    }

    #[test]
    fn zero_weights_get_zero_probability() {
        let w = vec![0.0, 4.0, 0.0, 4.0];
        let design = pps_inclusion_probabilities(&w, 1);
        assert_eq!(design.inclusion_probabilities[0], 0.0);
        assert_eq!(design.inclusion_probabilities[2], 0.0);
        assert_close(design.expected_sample_size(), 1.0, 1e-12);
    }

    #[test]
    fn empty_population() {
        let design = pps_inclusion_probabilities(&[], 5);
        assert!(design.inclusion_probabilities.is_empty());
        assert_eq!(design.expected_sample_size(), 0.0);
    }

    #[test]
    fn m_zero_includes_nothing() {
        let design = pps_inclusion_probabilities(&[1.0, 2.0], 0);
        assert!(design.inclusion_probabilities.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn proportional_probabilities_sum_close_to_m_when_no_clipping() {
        let w = vec![1.0; 50];
        let probs = proportional_inclusion_probabilities(&w, 10);
        let sum: f64 = probs.iter().sum();
        assert_close(sum, 10.0, 1e-9);
    }

    #[test]
    fn proportional_probabilities_clip_at_one() {
        let w = vec![100.0, 1.0, 1.0];
        let probs = proportional_inclusion_probabilities(&w, 2);
        assert_eq!(probs[0], 1.0);
        assert!(probs[1] < 1.0);
    }

    #[test]
    fn pps_design_for_items_matches_raw_weights() {
        let items = vec![
            WeightedItem::new(1, 5.0),
            WeightedItem::new(2, 1.0),
            WeightedItem::new(3, 1.0),
        ];
        let design = pps_design_for_items(&items, 2);
        let raw = pps_inclusion_probabilities(&[5.0, 1.0, 1.0], 2);
        assert_eq!(design, raw);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = pps_threshold(&[1.0, -2.0], 1);
    }

    #[test]
    fn design_size_survives_cancellation_in_the_tail_sum() {
        // Heavy weights of 1e12 next to a tail of a few units: `total − head_sum`
        // cancels (the sweep's tail sum is 78.2578125 against a true 78.2594), and
        // without the direct-sum fallback the design's Σπ misses m = 12 by 4e-5.
        let mut w: Vec<f64> = (1..40)
            .map(|i| 0.1 + (f64::from(i) * 0.618_033_988_749_894_9).fract() * 3.9)
            .collect();
        w.extend(std::iter::repeat_n(1e12, 10));
        for m in [12, 30, 47] {
            let design = pps_inclusion_probabilities(&w, m);
            let miss = (design.expected_sample_size() - m as f64).abs();
            assert!(miss <= 1e-9 * m as f64, "m {m}: design size misses by {miss:e}");
        }
    }

    #[test]
    fn skewed_weights_certainty_prefix_is_consistent() {
        // Heavily skewed: a handful of huge items plus a long tail.
        let mut w: Vec<f64> = vec![1000.0, 900.0, 800.0];
        w.extend(std::iter::repeat_n(1.0, 200));
        let design = pps_inclusion_probabilities(&w, 10);
        assert!(design.certainty_count() >= 3);
        assert_close(design.expected_sample_size(), 10.0, 1e-6);
        // Tail items share the remaining expected inclusions equally.
        let tail_p = design.inclusion_probabilities[10];
        for &p in &design.inclusion_probabilities[3..] {
            assert_close(p, tail_p, 1e-9);
        }
    }
}
