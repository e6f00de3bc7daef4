//! Known-answer pins for the unbiased PPS reduction kernel.
//!
//! `reduction::pps_reduce` is the §5.5 merge that every fold in the workspace runs
//! (range folds, ladder nodes, tier compaction, `merge_*`, query refreshes,
//! `distributed`). The engine-vs-reference suites run the same kernel on both sides
//! and the figure goldens only reach `pps_inclusion_probabilities`, so neither can
//! see the kernel drift by one bit. These tests can: each family of seeded inputs is
//! reduced and the outputs, `(item, count.to_bits())` in output order plus the RNG
//! word drawn afterwards (which pins the number of draws), are hashed against a
//! constant recorded from the kernel before its sort-free rewrite.
//!
//! Run with `cargo test -p uss-core --test pps_kernel`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use uss_core::reduction::pps_reduce;

type Entries = Vec<(u64, f64)>;

/// FNV-1a-style word hash: order-sensitive and bit-exact.
#[derive(Default)]
struct Pin(u64);

impl Pin {
    fn word(&mut self, x: u64) {
        if self.0 == 0 {
            self.0 = 0xCBF2_9CE4_8422_2325;
        }
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        self.0 ^= self.0 >> 29;
    }
}

fn labelled(counts: Vec<f64>, rng: &mut StdRng) -> Entries {
    counts.into_iter().map(|c| (rng.gen::<u64>() >> 8, c)).collect()
}

/// Uniform integer counts in `1..=1000`.
fn integer_counts(rng: &mut StdRng) -> Vec<(Entries, usize)> {
    let mut cases = Vec::new();
    for n in [12usize, 64, 300, 2_900] {
        for target in [1, 5, n / 3, n - 1] {
            let counts = (0..n).map(|_| rng.gen_range(1u32..=1_000) as f64).collect();
            cases.push((labelled(counts, rng), target));
        }
    }
    cases
}

/// Heavy-tailed integer counts: a few certainties, a long proportional tail.
fn skewed_counts(rng: &mut StdRng) -> Vec<(Entries, usize)> {
    let mut cases = Vec::new();
    for n in [40usize, 500, 2_800] {
        for target in [3, n / 4, n / 2] {
            let counts = (1..=n)
                .map(|rank| (1e6 / (rank as f64).powf(1.1)).floor().max(1.0))
                .collect();
            let mut entries = labelled(counts, rng);
            entries.shuffle(rng);
            cases.push((entries, target));
        }
    }
    cases
}

/// τ-valued fractional counts: reduced lists summed with each other and reduced
/// again, the shape of every two-stage fold.
fn tau_fractional(rng: &mut StdRng) -> Vec<(Entries, usize)> {
    let mut cases = Vec::new();
    for (n, target) in [(60usize, 20usize), (700, 256), (2_900, 1_024)] {
        let mut merged: Entries = Vec::new();
        for _ in 0..3 {
            let counts = (0..n)
                .map(|_| rng.gen_range(1u32..=200) as f64 * rng.gen_range(1u32..=3) as f64)
                .collect();
            let reduced = pps_reduce(labelled(counts, rng), target, rng);
            merged.extend(reduced);
        }
        // Share some items across the parts so their τ-valued counts add up.
        let shared = merged.len() / 5;
        for i in 0..shared {
            merged[i].0 = merged[merged.len() - 1 - i].0;
        }
        let mut combined: std::collections::BTreeMap<u64, f64> = Default::default();
        for (item, count) in merged {
            *combined.entry(item).or_insert(0.0) += count;
        }
        cases.push((combined.into_iter().collect(), target));
    }
    cases
}

/// Ties: all-equal counts (exact π = 0.5 pairs that sum to 1.0) and a few distinct
/// values (π = 0.25 / 0.75 pairs).
fn ties(rng: &mut StdRng) -> Vec<(Entries, usize)> {
    let mut cases = Vec::new();
    cases.push((labelled(vec![3.0; 100], rng), 50));
    cases.push((labelled(vec![3.0; 100], rng), 33));
    cases.push((labelled(vec![1.0; 7], rng), 1));
    let alternating = (0..40).map(|i| if i % 2 == 0 { 1.0 } else { 3.0 }).collect();
    cases.push((labelled(alternating, rng), 20));
    let few = (0..500).map(|_| [1.0, 2.0, 4.0][rng.gen_range(0usize..3)]).collect();
    cases.push((labelled(few, rng), 100));
    cases
}

/// Zero counts, a single positive weight, and `target ≥` the positive count.
fn zeros_and_degenerate(rng: &mut StdRng) -> Vec<(Entries, usize)> {
    let mut cases = Vec::new();
    let half_zero = (0..200)
        .map(|i| if i % 2 == 0 { 0.0 } else { rng.gen_range(1u32..=50) as f64 })
        .collect();
    cases.push((labelled(half_zero, rng), 30));
    let mut single = vec![0.0; 20];
    single[7] = 5.5;
    cases.push((labelled(single.clone(), rng), 1));
    cases.push((labelled(single, rng), 3));
    let few_positive = (0..55).map(|i| if i < 5 { (i + 1) as f64 } else { 0.0 }).collect();
    cases.push((labelled(few_positive, rng), 10));
    cases.push((labelled(vec![0.0; 30], rng), 4));
    cases
}

/// Tail counts placed within 1e-12 of π = 1 and of π = 0.
fn near_degenerate(rng: &mut StdRng) -> Vec<(Entries, usize)> {
    let mut cases = Vec::new();
    for (n, target) in [(50usize, 10usize), (400, 120)] {
        let mut counts: Vec<f64> = (0..n).map(|_| rng.gen_range(1u32..=20) as f64).collect();
        let tau = uss_sampling::pps_threshold(&counts, target);
        counts[1] = tau * (1.0 - 1e-13);
        counts[2] = tau * (1.0 - 5e-13);
        counts[3] = tau * 1e-13;
        counts[4] = tau * 5e-13;
        counts[5] = tau;
        cases.push((labelled(counts, rng), target));
    }
    cases
}

type Family = fn(&mut StdRng) -> Vec<(Entries, usize)>;

fn pin_of(family: Family, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let cases = family(&mut rng);
    let mut pin = Pin::default();
    for (entries, target) in cases {
        let out = pps_reduce(entries, target, &mut rng);
        pin.word(out.len() as u64);
        for (item, count) in out {
            pin.word(item);
            pin.word(count.to_bits());
        }
        pin.word(rng.next_u64());
    }
    pin.0
}

#[test]
fn pps_reduce_known_answers() {
    let families: [(&str, Family, u64, u64); 6] = [
        ("integer_counts", integer_counts, 11, 0x78ae_9bdb_a8f2_74cf),
        ("skewed_counts", skewed_counts, 12, 0xfcdd_3759_5e14_7897),
        ("tau_fractional", tau_fractional, 13, 0x5ce7_3b68_2b8a_c3f2),
        ("ties", ties, 14, 0xc7ad_fe6f_c54b_0b9b),
        ("zeros_and_degenerate", zeros_and_degenerate, 15, 0x773b_a1f5_0678_01e7),
        ("near_degenerate", near_degenerate, 16, 0xab65_5d5e_3d32_3d2c),
    ];
    let drift: Vec<String> = families
        .iter()
        .filter_map(|&(name, family, seed, want)| {
            let got = pin_of(family, seed);
            (got != want).then(|| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(drift.is_empty(), "pps_reduce output drifted:\n{}", drift.join("\n"));
}

/// 49 entries, each either `heavy` or uniform in `[0.1, 4)`. With `heavy = 1e12` the
/// threshold's tail sum `total − head_sum` once cancelled: the design's `Σπ` came out
/// near 47.0015 instead of 47, and `pps_reduce` could return 48 entries.
fn cancellation_case(heavy: f64, rng: &mut StdRng) -> Entries {
    (0..49u64)
        .map(|item| {
            let count = if rng.gen_bool(0.5) { heavy } else { rng.gen_range(0.1..4.0) };
            (item, count)
        })
        .collect()
}

#[test]
fn pps_reduce_never_exceeds_target_when_counts_span_twelve_orders() {
    let target = 47;
    let mut rng = StdRng::seed_from_u64(47);
    for heavy in [1e6, 1e9, 1e12] {
        for _ in 0..3_000 {
            let entries = cancellation_case(heavy, &mut rng);
            let counts: Vec<f64> = entries.iter().map(|&(_, c)| c).collect();
            let positives = counts.iter().filter(|&&c| c > 0.0).count();
            let size = uss_sampling::pps_inclusion_probabilities(&counts, target)
                .expected_sample_size();
            assert!(
                (size - target.min(positives) as f64).abs() <= 1e-9 * target as f64,
                "heavy {heavy:e}: design size {size} for target {target}"
            );
            let reduced = pps_reduce(entries, target, &mut rng);
            assert!(reduced.len() <= target, "heavy {heavy:e}: {} entries", reduced.len());
        }
    }
}

/// The same family through the public weighted sketch API: two sketches offered
/// disjoint items, merged with `merge_from`, must load the reduced entries without
/// overflowing capacity.
#[test]
fn weighted_merge_survives_counts_spanning_twelve_orders() {
    use uss_core::space_saving::WeightedSpaceSaving;
    use uss_core::{MergeableSketch, StreamSketch, WeightedStreamSketch};
    let mut rng = StdRng::seed_from_u64(4_747);
    for trial in 0..2_000u64 {
        let entries = cancellation_case(1e12, &mut rng);
        let mut a = WeightedSpaceSaving::with_seed(47, trial);
        let mut b = WeightedSpaceSaving::with_seed(47, trial ^ 1);
        for (i, &(item, weight)) in entries.iter().enumerate() {
            if i % 2 == 0 {
                a.offer_weighted(item, weight);
            } else {
                b.offer_weighted(item, weight);
            }
        }
        a.merge_from(&b);
        assert!(a.entries().len() <= 47);
    }
}
