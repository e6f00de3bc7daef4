//! Merge operations for Space Saving sketches (section 5.5 of the paper).
//!
//! Merging lets sketches built over different partitions of the data (different days,
//! different mappers, different data centres) be combined into a single sketch that
//! answers queries over the union. Two merges are provided:
//!
//! * [`merge_misra_gries`] — the classical *biased* merge of Agarwal et al. (2013):
//!   sum the per-item counts and soft-threshold by the `(m+1)`-th largest. Preserves
//!   the deterministic error guarantee but biases all counts downward, so repeated
//!   merging accumulates bias in subset sums.
//! * [`merge_unbiased`] — the paper's *unbiased* merge: sum the per-item counts, then
//!   apply the PPS subsampling reduction of [`crate::reduction::pps_reduce`], which
//!   preserves the expected count of every item (Theorem 2). The price is that the
//!   merged sketch may recover slightly fewer of the very top items than the biased
//!   merge (Figure 1 of the paper) and that counters become real-valued, so the result
//!   is a [`WeightedSpaceSaving`].

use rand::Rng;

use crate::reduction::{combine_entries, pps_reduce, threshold_reduce};
use crate::space_saving::{DeterministicSpaceSaving, UnbiasedSpaceSaving, WeightedSpaceSaving};
use crate::traits::{MergeableSketch, StreamSketch};

// ----- fold-site salts -----
//
// Every unbiased fold site seeds its RNG with `base_seed ^ SALT`, so two sites
// sharing a salt would draw the same stream for the same base seed and
// correlate draws Theorem 2 treats as independent. All of them are listed in
// `FOLD_SITE_SALTS`, which a const assertion keeps pairwise distinct.

/// Salt XOR-ed into a base seed to derive the RNG stream driving an unbiased
/// PPS fold ([`fold_unbiased`] / [`fold_unbiased_multiway`]) at its call sites.
pub const FOLD_MERGE_SALT: u64 = 0xD15C0;

/// Salt XOR-ed into a base seed to derive the folded *output* sketch's own RNG
/// seed — distinct from [`FOLD_MERGE_SALT`] so the fold's subsampling draws and
/// the output sketch's future eviction draws come from unrelated streams.
pub const FOLD_OUT_SALT: u64 = 0xFEED;

/// Tier compaction's fold and output salts ([`crate::temporal::compact_fold`]).
pub(crate) const TIER_MERGE_SALT: u64 = 0x00C0_FFEE;
pub(crate) const TIER_OUT_SALT: u64 = 0xFACE;

/// Dyadic-ladder node folds and per-shard span pre-merges (temporal store).
pub(crate) const LADDER_MERGE_SALT: u64 = 0xD1AD_1C00;
pub(crate) const LADDER_OUT_SALT: u64 = 0xD1AD_1C01;
pub(crate) const SPAN_MERGE_SALT: u64 = 0xD1AD_1C02;

/// The PPS reduction of a two-sketch [`merge_unbiased`].
const PAIR_MERGE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

const FOLD_SITE_SALTS: [u64; 8] = [
    FOLD_MERGE_SALT,
    FOLD_OUT_SALT,
    TIER_MERGE_SALT,
    TIER_OUT_SALT,
    LADDER_MERGE_SALT,
    LADDER_OUT_SALT,
    SPAN_MERGE_SALT,
    PAIR_MERGE_SALT,
];

const _: () = {
    let mut i = 0;
    while i < FOLD_SITE_SALTS.len() {
        let mut j = i + 1;
        while j < FOLD_SITE_SALTS.len() {
            assert!(FOLD_SITE_SALTS[i] != FOLD_SITE_SALTS[j], "two fold sites share a salt");
            j += 1;
        }
        i += 1;
    }
};

/// Biased Misra-Gries style merge of two entry lists down to `capacity` entries.
/// Returns the soft-thresholded entries (estimates in the *Misra-Gries* convention,
/// i.e. lower bounds).
#[must_use]
pub fn merge_misra_gries(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    capacity: usize,
) -> Vec<(u64, f64)> {
    let mut combined = combine_entries(a, b);
    threshold_reduce(&mut combined, capacity);
    combined
}

/// Unbiased merge of two entry lists down to `capacity` entries via PPS subsampling.
#[must_use]
pub fn merge_unbiased_entries<R: Rng + ?Sized>(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    capacity: usize,
    rng: &mut R,
) -> Vec<(u64, f64)> {
    let combined = combine_entries(a, b);
    pps_reduce(combined, capacity, rng)
}

/// Folds any number of `(entries, rows)` partitions into one weighted sketch with
/// the unbiased PPS merge, in input order: the accumulator starts empty and each
/// partition is merged in with [`merge_unbiased_entries`], all sampling driven by a
/// single RNG seeded from `merge_seed`. `out_seed` seeds the result sketch's own
/// RNG. Deterministic given the seeds and the partition order. Callers: engine
/// snapshots ([`crate::engine::ShardedIngestEngine`]); in [`crate::temporal`],
/// leaf-by-leaf and raw single-bucket range folds, dyadic-ladder node builds
/// and the engine's `finish`; and the map-reduce wrapper
/// ([`crate::distributed::DistributedSketcher`]). Tier compaction uses
/// [`fold_unbiased_multiway`] instead.
#[must_use]
pub fn fold_unbiased<I>(
    capacity: usize,
    merge_seed: u64,
    out_seed: u64,
    parts: I,
) -> WeightedSpaceSaving
where
    I: IntoIterator<Item = (Vec<(u64, f64)>, u64)>,
{
    let mut rng = rand::rngs::StdRng::seed_from_u64(merge_seed);
    let mut acc_entries: Vec<(u64, f64)> = Vec::new();
    let mut acc_rows: u64 = 0;
    for (entries, rows) in parts {
        acc_entries = merge_unbiased_entries(&acc_entries, &entries, capacity, &mut rng);
        acc_rows += rows;
    }
    let mut out = WeightedSpaceSaving::with_seed(capacity, out_seed);
    out.load_entries(acc_entries, acc_rows as f64);
    out
}

/// Folds any number of `(entries, rows)` partitions into one weighted sketch by
/// summing every per-item count exactly and applying a **single** PPS
/// subsampling reduction — the k-way counterpart of [`fold_unbiased`].
///
/// The sequential fold reduces after every partition, so a k-part fold pays
/// k−1 sort-and-sample passes; this fold pays exactly one, over the combined
/// entry list. Unbiasedness is immediate: the combine step is exact, and the
/// one reduction preserves `E[post count] = pre count` for every item (Theorem
/// 2 applied once), so the result estimates the same totals as the sequential
/// fold — with one fewer layer of sampling noise, never more. Use it when
/// partitions may share items. The combine map is pre-sized to the parts'
/// total entry count, so it never rehashes.
///
/// Callers: tier compaction ([`crate::temporal::compact_fold`]), where a group
/// of expired buckets shares items. Temporal range queries do not call it:
/// each shard sums its span's reports and reduces them itself, and the engine
/// concatenates the item-disjoint shard reports before one reduction (see
/// [`crate::temporal`]), which is this fold minus a combine that would find
/// nothing to merge.
///
/// For a single partition that already fits `capacity` both folds skip the
/// reduction and return the same entries as [`fold_unbiased`].
#[must_use]
pub fn fold_unbiased_multiway<I>(
    capacity: usize,
    merge_seed: u64,
    out_seed: u64,
    parts: I,
) -> WeightedSpaceSaving
where
    I: IntoIterator<Item = (Vec<(u64, f64)>, u64)>,
{
    let parts: Vec<(Vec<(u64, f64)>, u64)> = parts.into_iter().collect();
    let total = parts.iter().map(|(entries, _)| entries.len()).sum();
    let mut combined: crate::hash::FxHashMap<u64, f64> =
        crate::hash::FxHashMap::with_capacity_and_hasher(total, Default::default());
    let mut acc_rows: u64 = 0;
    for (entries, rows) in parts {
        for (item, count) in entries {
            *combined.entry(item).or_insert(0.0) += count;
        }
        acc_rows += rows;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(merge_seed);
    let reduced = pps_reduce(combined.into_iter().collect(), capacity, &mut rng);
    let mut out = WeightedSpaceSaving::with_seed(capacity, out_seed);
    out.load_entries(reduced, acc_rows as f64);
    out
}

/// Merges two Unbiased Space Saving sketches into a weighted sketch over the union of
/// their streams, preserving unbiasedness of every per-item count.
///
/// The output capacity is the larger of the two input capacities.
#[must_use]
pub fn merge_unbiased(
    a: &UnbiasedSpaceSaving,
    b: &UnbiasedSpaceSaving,
    seed: u64,
) -> WeightedSpaceSaving {
    let capacity = a.capacity().max(b.capacity());
    let mut out = WeightedSpaceSaving::with_seed(capacity, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ PAIR_MERGE_SALT);
    let entries = merge_unbiased_entries(&a.entries(), &b.entries(), capacity, &mut rng);
    let rows = (a.rows_processed() + b.rows_processed()) as f64;
    out.load_entries(entries, rows);
    out
}

/// Merges two Deterministic Space Saving sketches with the biased Misra-Gries merge,
/// returning the merged entries in the *Space Saving* convention (threshold added back
/// onto every surviving counter, matching the isomorphism of section 5.2).
#[must_use]
pub fn merge_deterministic(
    a: &DeterministicSpaceSaving,
    b: &DeterministicSpaceSaving,
) -> Vec<(u64, f64)> {
    let capacity = a.capacity().max(b.capacity());
    let mut combined = combine_entries(&a.entries(), &b.entries());
    let threshold = threshold_reduce(&mut combined, capacity);
    // Space Saving convention: estimates include the mass that was thresholded away.
    for (_, c) in &mut combined {
        *c += threshold;
    }
    combined
}

use rand::SeedableRng;

impl MergeableSketch for WeightedSpaceSaving {
    /// Merges `other` into `self` using the unbiased PPS reduction; `self`'s capacity
    /// and internal random state are reused.
    fn merge_from(&mut self, other: &Self) {
        let capacity = self.capacity();
        let combined = combine_entries(&self.entries(), &other.entries());
        // Deterministically derive a reduction seed from the two sketches' masses so
        // merge_from stays reproducible for seeded sketches.
        let seed = (self.total_weight().to_bits()) ^ other.total_weight().to_bits().rotate_left(17);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let reduced = pps_reduce(combined, capacity, &mut rng);
        let rows = self.total_weight() + other.total_weight();
        self.load_entries(reduced, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::StreamSketch;

    fn sketch_from(stream: &[u64], capacity: usize, seed: u64) -> UnbiasedSpaceSaving {
        let mut s = UnbiasedSpaceSaving::with_seed(capacity, seed);
        for &item in stream {
            s.offer(item);
        }
        s
    }

    #[test]
    fn misra_gries_merge_bounds_size() {
        let a: Vec<(u64, f64)> = (0..20).map(|i| (i, (i + 1) as f64)).collect();
        let b: Vec<(u64, f64)> = (10..30).map(|i| (i, 2.0)).collect();
        let merged = merge_misra_gries(&a, &b, 8);
        assert!(merged.len() <= 8);
    }

    #[test]
    fn misra_gries_merge_never_overestimates() {
        let a = vec![(1, 10.0), (2, 6.0), (3, 2.0)];
        let b = vec![(1, 5.0), (4, 7.0), (5, 1.0)];
        let merged = merge_misra_gries(&a, &b, 3);
        for (item, count) in merged {
            let truth: f64 = a
                .iter()
                .chain(&b)
                .filter(|(i, _)| *i == item)
                .map(|(_, c)| c)
                .sum();
            assert!(count <= truth + 1e-12, "item {item}: {count} > {truth}");
        }
    }

    #[test]
    fn unbiased_merge_keeps_capacity_and_total_mass_in_expectation() {
        let stream_a: Vec<u64> = (0..2000u64).map(|i| i % 111).collect();
        let stream_b: Vec<u64> = (0..3000u64).map(|i| 50 + i % 200).collect();
        let total = (stream_a.len() + stream_b.len()) as f64;
        let reps = 300;
        let mut mass = 0.0;
        for seed in 0..reps {
            let a = sketch_from(&stream_a, 40, seed);
            let b = sketch_from(&stream_b, 40, seed + 1000);
            let merged = merge_unbiased(&a, &b, seed);
            assert!(merged.retained_len() <= 40);
            mass += merged.entries().iter().map(|(_, c)| c).sum::<f64>();
        }
        let mean = mass / reps as f64;
        assert!(
            (mean - total).abs() / total < 0.02,
            "mean merged mass {mean} vs {total}"
        );
    }

    #[test]
    fn unbiased_merge_item_estimates_are_unbiased() {
        // Item 7 appears 150 times in stream A only; the merged estimate must average
        // to ~150 even though both sketches are lossy.
        let mut stream_a: Vec<u64> = (0..1500u64).map(|i| 100 + i % 97).collect();
        stream_a.extend(std::iter::repeat_n(7u64, 150));
        let stream_b: Vec<u64> = (0..1500u64).map(|i| 300 + i % 83).collect();
        let truth = 150.0;
        let reps = 600;
        let mut sum = 0.0;
        for seed in 0..reps {
            let a = sketch_from(&stream_a, 30, seed);
            let b = sketch_from(&stream_b, 30, seed + 5000);
            let merged = merge_unbiased(&a, &b, seed);
            sum += merged.estimate(7);
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - truth).abs() / truth < 0.12,
            "mean merged estimate {mean} vs {truth}"
        );
    }

    #[test]
    fn deterministic_merge_restores_space_saving_convention() {
        let mut a = DeterministicSpaceSaving::new(4);
        let mut b = DeterministicSpaceSaving::new(4);
        for item in [1u64, 1, 1, 2, 2, 3] {
            a.offer(item);
        }
        for item in [1u64, 4, 4, 5, 6, 6] {
            b.offer(item);
        }
        let merged = merge_deterministic(&a, &b);
        assert!(merged.len() <= 4);
        // Item 1 is the heaviest overall and must be present with an estimate at least
        // its true combined count.
        let one = merged.iter().find(|(i, _)| *i == 1).expect("item 1 kept");
        assert!(one.1 >= 4.0);
    }

    #[test]
    fn merge_from_accumulates_mass() {
        let mut a = WeightedSpaceSaving::with_seed(20, 1);
        let mut b = WeightedSpaceSaving::with_seed(20, 2);
        for i in 0..500u64 {
            a.offer(i % 60);
            b.offer(i % 35);
        }
        let total = a.total_weight() + b.total_weight();
        a.merge_from(&b);
        assert!(a.retained_len() <= 20);
        // Mass is preserved in expectation; for a single merge allow a loose band.
        let mass: f64 = a.entries().iter().map(|(_, c)| c).sum();
        assert!(mass > 0.5 * total && mass < 1.5 * total);
        // The row/weight accounting reflects the union of the two input streams.
        assert!((a.total_weight() - total).abs() < 1e-6);
    }

    #[test]
    fn multiway_fold_conserves_rows_and_mass_exactly() {
        // PPS reduction conserves total mass exactly (certainty items keep their
        // weight; the tail items each carry τ), so the multiway fold must too.
        let parts: Vec<(Vec<(u64, f64)>, u64)> = (0..6u64)
            .map(|p| {
                let entries: Vec<(u64, f64)> = (0..300u64)
                    .map(|i| (p * 10_000 + i, 1.0 + (i % 7) as f64))
                    .collect();
                let rows = entries.iter().map(|&(_, c)| c).sum::<f64>() as u64;
                (entries, rows)
            })
            .collect();
        let total_mass: f64 = parts
            .iter()
            .flat_map(|(e, _)| e.iter().map(|&(_, c)| c))
            .sum();
        let total_rows: u64 = parts.iter().map(|&(_, r)| r).sum();
        for seed in 0..20u64 {
            let out = fold_unbiased_multiway(64, seed, seed ^ 99, parts.iter().cloned());
            let mass: f64 = out.entries().iter().map(|(_, c)| c).sum();
            assert!(
                (mass - total_mass).abs() < 1e-6 * total_mass,
                "seed {seed}: mass {mass} vs {total_mass}"
            );
            assert_eq!(out.rows_processed(), total_rows);
            assert!(out.retained_len() <= 64);
        }
    }

    #[test]
    fn multiway_fold_is_unbiased_per_item() {
        // Item 7 carries 120 across two partitions; the reduced estimate must average
        // back to 120 over seeds.
        let mut part_a: Vec<(u64, f64)> = (0..400u64).map(|i| (100 + i, 1.0)).collect();
        part_a.push((7, 80.0));
        let mut part_b: Vec<(u64, f64)> = (0..400u64).map(|i| (1000 + i, 1.0)).collect();
        part_b.push((7, 40.0));
        let part_c: Vec<(u64, f64)> = (0..400u64).map(|i| (2000 + i, 1.0)).collect();
        let parts = [(part_a, 480u64), (part_b, 440), (part_c, 400)];
        let reps = 400u64;
        let mut sum = 0.0;
        for seed in 0..reps {
            let out = fold_unbiased_multiway(48, seed, seed ^ 5, parts.iter().cloned());
            sum += out.estimate(7);
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - 120.0).abs() / 120.0 < 0.1,
            "mean multiway estimate {mean} vs 120"
        );
    }

    #[test]
    fn multiway_fold_of_one_small_part_matches_sequential_fold_bitwise() {
        // A single partition under capacity skips the reduction in both folds and is
        // rebuilt through the same hash-combine, so the outputs are bit-identical.
        let entries: Vec<(u64, f64)> = (0..50u64).map(|i| (i * 31, (i + 1) as f64)).collect();
        let part = [(entries, 725u64)];
        let a = fold_unbiased(64, 11, 13, part.iter().cloned());
        let b = fold_unbiased_multiway(64, 11, 13, part.iter().cloned());
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.rows_processed(), b.rows_processed());
    }

    #[test]
    fn multiway_fold_of_nothing_is_a_well_formed_empty_sketch() {
        let out = fold_unbiased_multiway(16, 1, 2, std::iter::empty());
        assert_eq!(out.retained_len(), 0);
        assert_eq!(out.rows_processed(), 0);
        assert_eq!(out.total_weight(), 0.0);
    }

    #[test]
    fn merging_empty_sketches_is_harmless() {
        let a = UnbiasedSpaceSaving::with_seed(8, 1);
        let b = UnbiasedSpaceSaving::with_seed(8, 2);
        let merged = merge_unbiased(&a, &b, 3);
        assert_eq!(merged.retained_len(), 0);
        assert_eq!(merged.rows_processed(), 0);
    }
}
