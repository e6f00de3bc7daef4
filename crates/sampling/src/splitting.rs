//! The Deville–Tillé splitting procedure for fixed-size unequal-probability sampling.
//!
//! Given target inclusion probabilities `π_1..π_n`, the splitting procedure (Deville &
//! Tillé 1998) repeatedly rewrites the target vector as a mixture of two simpler
//! vectors and randomly picks one branch, until every coordinate is 0 or 1. We
//! implement the *sequential pivotal method*, a member of the splitting family with a
//! particularly simple update: two "active" coordinates are confronted at a time, and
//! the split either pushes one of them to 0 or one of them to 1, preserving both the
//! marginal inclusion probabilities and (when `Σ π_i` is an integer) the fixed sample
//! size. Section 5.5 of the paper uses exactly this machinery to build the unbiased
//! merge operation for Unbiased Space Saving sketches.

use rand::Rng;

/// Fixed-size unequal-probability sampler implementing the sequential pivotal method
/// (a splitting procedure).
#[derive(Debug, Clone, Default)]
pub struct SplittingSampler;

impl SplittingSampler {
    /// Creates a sampler.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Draws inclusion indicators with the given marginal inclusion probabilities.
    ///
    /// Probabilities must lie in `[0, 1]`. Coordinates within `1e-12` of 0 or 1 are
    /// resolved to 0 or 1 exactly. If the probabilities sum to an integer `k`, exactly
    /// `k` indicators are set (up to floating-point rounding of the final active
    /// coordinate).
    ///
    /// One pass over the coordinates carries a single active coordinate `(index,
    /// probability)` and confronts it with each unresolved coordinate in turn. The
    /// draw contract, which fixes every output bit for a given RNG state: exactly one
    /// `gen_bool` per confrontation, in index order, plus one for the active
    /// coordinate left over at the end (a non-integer total mass); degenerate
    /// coordinates draw nothing.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or non-finite.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        inclusion_probabilities: &[f64],
        rng: &mut R,
    ) -> Vec<bool> {
        const EPS: f64 = 1e-12;
        let mut included = vec![false; inclusion_probabilities.len()];
        // The active coordinate and its current probability, always in (EPS, 1).
        let mut carry: Option<(usize, f64)> = None;
        for (i, &pi) in inclusion_probabilities.iter().enumerate() {
            assert!(
                pi.is_finite() && (0.0..=1.0).contains(&pi),
                "inclusion probabilities must lie in [0, 1]"
            );
            if pi >= 1.0 - EPS {
                included[i] = true;
                continue;
            }
            if pi <= EPS {
                continue;
            }
            let Some((j, pj)) = carry else {
                carry = Some((i, pi));
                continue;
            };
            let sum = pi + pj;
            carry = if sum < 1.0 {
                // One of the two is pushed to 0; the other absorbs the mass.
                // P(i survives) = pi / sum.
                if rng.gen_bool((pi / sum).clamp(0.0, 1.0)) {
                    Some((i, sum))
                } else {
                    Some((j, sum))
                }
            } else {
                // One of the two is pushed to 1; the other keeps the excess.
                // P(j is pushed to 1) = (1 - pi) / (2 - sum).
                let denom = 2.0 - sum;
                let p_j_one = if denom <= EPS {
                    0.5
                } else {
                    ((1.0 - pi) / denom).clamp(0.0, 1.0)
                };
                let (one, rest) = if rng.gen_bool(p_j_one) {
                    (j, i)
                } else {
                    (i, j)
                };
                included[one] = true;
                let residual = sum - 1.0;
                (residual > EPS).then_some((rest, residual))
            };
        }
        // A final unresolved coordinate (non-integer total mass) is resolved by a
        // Bernoulli draw with its residual probability, which lies in (EPS, 1).
        if let Some((j, pj)) = carry {
            included[j] = rng.gen_bool(pj);
        }
        included
    }

    /// Draws a fixed-size PPS sample of expected size `m` from `weights` by first
    /// computing the thresholded PPS design and then applying the pivotal splitting.
    /// Returns inclusion indicators aligned with `weights` plus the design used.
    pub fn sample_pps<R: Rng + ?Sized>(
        &self,
        weights: &[f64],
        m: usize,
        rng: &mut R,
    ) -> (Vec<bool>, crate::PpsDesign) {
        let design = crate::pps::pps_inclusion_probabilities(weights, m);
        let included = self.sample(&design.inclusion_probabilities, rng);
        (included, design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The sampler before its one-pass rewrite, verbatim: a validation pass, a
    /// degenerate-resolution pass, then the pivotal pass over a copied probability
    /// vector. The oracle the rewrite must match draw for draw.
    fn oracle_sample<R: Rng + ?Sized>(inclusion_probabilities: &[f64], rng: &mut R) -> Vec<bool> {
        for &p in inclusion_probabilities {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "inclusion probabilities must lie in [0, 1]"
            );
        }
        let mut probs = inclusion_probabilities.to_vec();
        let n = probs.len();
        let mut included = vec![false; n];

        const EPS: f64 = 1e-12;
        // Resolve degenerate coordinates immediately.
        for i in 0..n {
            if probs[i] >= 1.0 - EPS {
                included[i] = true;
                probs[i] = 1.0;
            } else if probs[i] <= EPS {
                probs[i] = 0.0;
            }
        }

        // Sequential pivotal method: keep one "carry" coordinate and confront it with
        // the next unresolved coordinate.
        let mut carry: Option<usize> = None;
        for i in 0..n {
            if probs[i] == 0.0 || probs[i] == 1.0 {
                continue;
            }
            match carry {
                None => carry = Some(i),
                Some(j) => {
                    let (pi, pj) = (probs[i], probs[j]);
                    let sum = pi + pj;
                    if sum < 1.0 {
                        // One of the two is pushed to 0; the other absorbs the mass.
                        // P(i survives) = pi / sum.
                        if rng.gen_bool((pi / sum).clamp(0.0, 1.0)) {
                            probs[i] = sum;
                            probs[j] = 0.0;
                            carry = Some(i);
                        } else {
                            probs[j] = sum;
                            probs[i] = 0.0;
                            carry = Some(j);
                        }
                    } else {
                        // One of the two is pushed to 1; the other keeps the excess.
                        // P(j is pushed to 1) = (1 - pi) / (2 - sum).
                        let denom = 2.0 - sum;
                        let p_j_one = if denom <= EPS {
                            0.5
                        } else {
                            ((1.0 - pi) / denom).clamp(0.0, 1.0)
                        };
                        if rng.gen_bool(p_j_one) {
                            probs[j] = 1.0;
                            included[j] = true;
                            probs[i] = sum - 1.0;
                            carry = if probs[i] > EPS { Some(i) } else { None };
                            if probs[i] <= EPS {
                                probs[i] = 0.0;
                            }
                        } else {
                            probs[i] = 1.0;
                            included[i] = true;
                            probs[j] = sum - 1.0;
                            carry = if probs[j] > EPS { Some(j) } else { None };
                            if probs[j] <= EPS {
                                probs[j] = 0.0;
                            }
                        }
                    }
                }
            }
        }
        // A final unresolved coordinate (non-integer total mass) is resolved by a
        // Bernoulli draw with its residual probability.
        if let Some(j) = carry {
            if probs[j] > 0.0 && probs[j] < 1.0 {
                included[j] = rng.gen_bool(probs[j].clamp(0.0, 1.0));
            } else if probs[j] >= 1.0 {
                included[j] = true;
            }
        }
        included
    }

    /// Probability vectors mixing exact 0 and 1, values within 1e-12 of either,
    /// dyadic pairs that sum to exactly 1.0, and uniform draws.
    fn edge_probabilities() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            (0u32..14, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
                0 => 0.0,
                1 => 1.0,
                2 => 0.5,
                3 => 1e-13,
                4 => 1e-12,
                5 => 1.0 - 1e-13,
                6 => 1.0 - 1e-12,
                7 => 1.0 - 2e-12,
                8 => 0.25,
                9 => 0.75,
                10 => 0.125,
                11 => 0.875,
                _ => u,
            }),
            0..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Same indicators and the same number of draws as the oracle.
        #[test]
        fn sample_matches_oracle(probs in edge_probabilities(), seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let got = SplittingSampler::new().sample(&probs, &mut rng);
            let want = oracle_sample(&probs, &mut oracle_rng);
            prop_assert_eq!(got, want);
            prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
        }
    }

    #[test]
    fn degenerate_probabilities_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = SplittingSampler::new();
        let inc = s.sample(&[1.0, 0.0, 1.0, 0.0], &mut rng);
        assert_eq!(inc, vec![true, false, true, false]);
    }

    #[test]
    fn integer_total_mass_gives_fixed_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = SplittingSampler::new();
        // Σ π = 3 exactly.
        let probs = vec![0.5, 0.5, 0.5, 0.5, 0.25, 0.75];
        for _ in 0..500 {
            let inc = s.sample(&probs, &mut rng);
            let size = inc.iter().filter(|&&b| b).count();
            assert_eq!(size, 3, "sample size must equal the integer total mass");
        }
    }

    #[test]
    fn marginal_probabilities_are_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SplittingSampler::new();
        let probs = vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.5];
        let reps = 60_000;
        let mut counts = vec![0u32; probs.len()];
        for _ in 0..reps {
            let inc = s.sample(&probs, &mut rng);
            for (c, &z) in counts.iter_mut().zip(&inc) {
                if z {
                    *c += 1;
                }
            }
        }
        for (i, (&c, &p)) in counts.iter().zip(&probs).enumerate() {
            let emp = c as f64 / reps as f64;
            assert!((emp - p).abs() < 0.01, "coordinate {i}: {emp} vs {p}");
        }
    }

    #[test]
    fn mixed_certainties_and_fractions() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = SplittingSampler::new();
        let probs = vec![1.0, 0.5, 0.5, 1.0];
        for _ in 0..200 {
            let inc = s.sample(&probs, &mut rng);
            assert!(inc[0] && inc[3]);
            assert_eq!(inc.iter().filter(|&&b| b).count(), 3);
        }
    }

    #[test]
    fn non_integer_mass_has_random_size_with_correct_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = SplittingSampler::new();
        let probs = vec![0.3, 0.4]; // total 0.7
        let reps = 40_000;
        let mut total = 0usize;
        for _ in 0..reps {
            total += s.sample(&probs, &mut rng).iter().filter(|&&b| b).count();
        }
        let mean = total as f64 / reps as f64;
        assert!((mean - 0.7).abs() < 0.01, "mean size {mean}");
    }

    #[test]
    fn pps_wrapper_matches_expected_sample_size() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = SplittingSampler::new();
        let weights: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        for _ in 0..200 {
            let (inc, design) = s.sample_pps(&weights, 8, &mut rng);
            let size = inc.iter().filter(|&&b| b).count();
            // The design's expected size is 8 (integer), so the realised size is 8.
            assert_eq!(size, 8, "design expected size {}", design.expected_sample_size());
        }
    }

    #[test]
    fn ht_estimate_from_splitting_sample_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = SplittingSampler::new();
        let weights: Vec<f64> = (1..=50).map(|i| ((i * 37) % 19 + 1) as f64).collect();
        let true_total: f64 = weights.iter().sum();
        let reps = 5000;
        let mut sum = 0.0;
        for _ in 0..reps {
            let (inc, design) = s.sample_pps(&weights, 10, &mut rng);
            sum += crate::horvitz_thompson::ht_estimate(
                &weights,
                &design.inclusion_probabilities,
                &inc,
            );
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - true_total).abs() / true_total < 0.03,
            "mean {mean} vs {true_total}"
        );
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = SplittingSampler::new();
        assert!(s.sample(&[], &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "inclusion probabilities")]
    fn out_of_range_probability_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        SplittingSampler::new().sample(&[1.5], &mut rng);
    }
}
