//! Known-answer pins for the PPS kernel: `pps_threshold` and the pivotal
//! `SplittingSampler::sample`.
//!
//! Every unbiased merge in the workspace runs these two functions, and a change of
//! one bit in τ or one extra draw in the sampler changes every folded sketch. The
//! pins hash `pps_threshold(..).to_bits()` and the sampler's indicators (plus the
//! RNG word drawn afterwards, which pins the number of draws) over seeded input
//! families, against constants recorded before the kernel's sort-free rewrite.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use uss_sampling::{pps_inclusion_probabilities, pps_threshold, SplittingSampler};

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

fn report(what: &str, pins: &[(&str, u64, u64)]) {
    let drift: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(drift.is_empty(), "{what} drifted:\n{}", drift.join("\n"));
}

/// Seeded weight vectors: integers, fractions, heavy tails, ties, zeros and a single
/// positive weight, each paired with several sample sizes (including `m ≥` the
/// number of positive weights).
fn weight_cases(rng: &mut StdRng) -> Vec<(Vec<f64>, usize)> {
    let mut cases = Vec::new();
    for n in [1usize, 2, 7, 60, 600, 3_000] {
        let integer: Vec<f64> = (0..n).map(|_| rng.gen_range(1u32..=1_000) as f64).collect();
        let fraction: Vec<f64> = (0..n).map(|_| rng.gen_range(0.001..50.0)).collect();
        let skewed: Vec<f64> = (1..=n).map(|r| 1e7 / (r as f64).powf(1.3)).collect();
        let tied: Vec<f64> = (0..n).map(|i| [2.0, 2.0, 5.0][i % 3]).collect();
        let zeros: Vec<f64> = (0..n)
            .map(|i| if i % 3 == 0 { 0.0 } else { rng.gen_range(1u32..=9) as f64 })
            .collect();
        for weights in [integer, fraction, skewed, tied, zeros] {
            for m in [0, 1, 3, n / 2, n.saturating_sub(1), n, n + 4] {
                cases.push((weights.clone(), m));
            }
        }
    }
    let mut single = vec![0.0; 9];
    single[4] = 0.75;
    for m in [1, 2, 9] {
        cases.push((single.clone(), m));
    }
    cases
}

#[test]
fn pps_threshold_known_answers() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut pin = Pin::default();
    for (weights, m) in weight_cases(&mut rng) {
        pin.word(pps_threshold(&weights, m).to_bits());
    }
    report("pps_threshold", &[("weight_cases", pin.0, 0xf24f_584c_8f66_41b0)]);
}

/// Probability values that sit on the sampler's edges: exact 0 and 1, within 1e-12
/// of either, dyadic pairs that sum to exactly 1.0, and plain fractions.
const EDGES: [f64; 18] = [
    0.0,
    1.0,
    0.5,
    1e-13,
    1e-12,
    2e-12,
    1.0 - 1e-13,
    1.0 - 1e-12,
    1.0 - 2e-12,
    0.25,
    0.75,
    0.125,
    0.875,
    0.1,
    0.9,
    1.0 / 3.0,
    2.0 / 3.0,
    f64::MIN_POSITIVE,
];

fn sample_pin(cases: &[Vec<f64>], seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = SplittingSampler::new();
    let mut pin = Pin::default();
    for probs in cases {
        let included = sampler.sample(probs, &mut rng);
        for chunk in included.chunks(64) {
            pin.word(chunk.iter().fold(0u64, |acc, &b| acc << 1 | u64::from(b)));
        }
        pin.word(rng.next_u64());
    }
    pin.0
}

#[test]
fn splitting_sampler_known_answers() {
    let mut rng = StdRng::seed_from_u64(22);
    let mut uniform = Vec::new();
    let mut edges = Vec::new();
    let mut pairs = Vec::new();
    let mut designs = Vec::new();
    for n in [1usize, 2, 3, 10, 100, 1_000] {
        for _ in 0..8 {
            uniform.push((0..n).map(|_| rng.gen::<f64>()).collect::<Vec<f64>>());
            edges.push(
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.7) {
                            EDGES[rng.gen_range(0..EDGES.len())]
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect::<Vec<f64>>(),
            );
            pairs.push(
                (0..n)
                    .map(|i| {
                        let p = [0.5, 0.25, 0.125, 0.375, 0.0625][i / 2 % 5];
                        if i % 2 == 0 {
                            p
                        } else {
                            1.0 - p
                        }
                    })
                    .collect::<Vec<f64>>(),
            );
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1u32..=500) as f64).collect();
            designs.push(pps_inclusion_probabilities(&weights, n / 3).inclusion_probabilities);
        }
    }
    report(
        "SplittingSampler::sample",
        &[
            ("uniform", sample_pin(&uniform, 31), 0x23f5_37d4_795c_24cc),
            ("edges", sample_pin(&edges, 32), 0x0a34_5eed_fc4c_f628),
            ("pairs", sample_pin(&pairs, 33), 0xddfe_5713_8fcb_d4ee),
            ("designs", sample_pin(&designs, 34), 0x2394_b59c_477f_3d5e),
        ],
    );
}
