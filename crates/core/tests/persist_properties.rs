//! Property-based tests for the `uss_core::persist` codec: round-trip equality on
//! random sketches, and totality of decoding — truncated, bit-flipped and
//! wrong-version frames must return `Err`, never panic, for *any* input.

use proptest::collection::vec;
use proptest::prelude::*;

use uss_core::persist::{self, PersistError};
use uss_core::prelude::*;
use uss_core::temporal::{TemporalConfig, WindowConfig, WindowedSketchStore};

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..200, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot frames round-trip to an equal snapshot for any sketch state.
    #[test]
    fn snapshot_round_trip(stream in stream_strategy(600), capacity in 1usize..40, seed in any::<u64>()) {
        let mut sketch = UnbiasedSpaceSaving::with_seed(capacity, seed);
        sketch.offer_batch(&stream);
        let snap = sketch.snapshot();
        let decoded = persist::decode_snapshot(&persist::encode_snapshot(&snap)).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    /// Unbiased frames round-trip to a sketch that not only looks equal but keeps
    /// *behaving* identically: offering the same suffix to both yields the same
    /// entries (structure + RNG state survived).
    #[test]
    fn unbiased_round_trip_preserves_behaviour(
        stream in stream_strategy(500),
        suffix in stream_strategy(200),
        capacity in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut sketch = UnbiasedSpaceSaving::with_seed(capacity, seed);
        sketch.offer_batch(&stream);
        let mut decoded = persist::decode_unbiased(&persist::encode_unbiased(&sketch)).unwrap();
        prop_assert_eq!(decoded.entries(), sketch.entries());
        prop_assert_eq!(decoded.rows_processed(), sketch.rows_processed());
        let mut original = sketch;
        original.offer_batch(&suffix);
        decoded.offer_batch(&suffix);
        prop_assert_eq!(decoded.entries(), original.entries());
    }

    /// Weighted frames round-trip bit-compatibly as well.
    #[test]
    fn weighted_round_trip_preserves_behaviour(
        rows in vec((0u64..100, 0u32..40), 1..300),
        suffix in vec((0u64..100, 1u32..40), 0..100),
        capacity in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut sketch = WeightedSpaceSaving::with_seed(capacity, seed);
        let weighted: Vec<(u64, f64)> = rows.iter().map(|&(i, w)| (i, f64::from(w) * 0.25)).collect();
        sketch.offer_weighted_batch(&weighted);
        let mut decoded = persist::decode_weighted(&persist::encode_weighted(&sketch)).unwrap();
        prop_assert_eq!(decoded.entries(), sketch.entries());
        prop_assert_eq!(decoded.total_weight().to_bits(), sketch.total_weight().to_bits());
        for &(item, w) in &suffix {
            sketch.offer_weighted(item, f64::from(w) * 0.5);
            decoded.offer_weighted(item, f64::from(w) * 0.5);
        }
        prop_assert_eq!(decoded.entries(), sketch.entries());
        prop_assert_eq!(decoded.min_count().to_bits(), sketch.min_count().to_bits());
    }

    /// Truncating a valid frame at any point yields an error, never a panic.
    #[test]
    fn truncation_always_errors(stream in stream_strategy(300), capacity in 1usize..16, seed in any::<u64>(), cut in 0.0f64..1.0) {
        let mut sketch = UnbiasedSpaceSaving::with_seed(capacity, seed);
        sketch.offer_batch(&stream);
        let bytes = persist::encode_unbiased(&sketch);
        let len = ((bytes.len() - 1) as f64 * cut) as usize;
        prop_assert!(persist::decode_unbiased(&bytes[..len]).is_err());
    }

    /// Flipping any single bit of a valid frame yields an error: the header checks
    /// catch structural damage and the CRC-64 catches everything else.
    #[test]
    fn single_bit_flips_always_error(stream in stream_strategy(300), capacity in 1usize..16, seed in any::<u64>(), byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut sketch = UnbiasedSpaceSaving::with_seed(capacity, seed);
        sketch.offer_batch(&stream);
        let mut bytes = persist::encode_unbiased(&sketch);
        let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[idx] ^= 1 << bit;
        prop_assert!(persist::decode_unbiased(&bytes).is_err());
    }

    /// Any version other than the current one is rejected as unsupported (the
    /// checksum is deliberately bypassed here by re-encoding it, proving the
    /// version gate itself works).
    #[test]
    fn foreign_versions_are_rejected(stream in stream_strategy(100), version in 0u16..1000, seed in any::<u64>()) {
        prop_assume!(version != persist::FORMAT_VERSION);
        let mut sketch = UnbiasedSpaceSaving::with_seed(8, seed);
        sketch.offer_batch(&stream);
        let mut bytes = persist::encode_unbiased(&sketch);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        // Recompute the checksum so only the version differs.
        let crc_at = bytes.len() - 8;
        let crc = persist::crc64(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(
            persist::decode_unbiased(&bytes),
            Err(PersistError::UnsupportedVersion(v)) if v == version
        ));
    }

    /// Decayed frames round-trip to a sketch that keeps *behaving* identically:
    /// continuing both with the same later-arriving suffix yields bit-equal
    /// decayed entries (decay parameters, landmark, RNG and heap state all
    /// survived).
    #[test]
    fn decayed_round_trip_preserves_behaviour(
        stream in vec((0u64..80, 0u32..50), 1..300),
        suffix in vec((0u64..80, 0u32..50), 0..120),
        capacity in 1usize..16,
        seed in any::<u64>(),
        lambda_m in 1u32..200,
    ) {
        let lambda = f64::from(lambda_m) * 1e-3;
        let mut sketch = DecayedSpaceSaving::with_seed(capacity, lambda, seed);
        let mut t = 0.0f64;
        for &(item, dt) in &stream {
            t += f64::from(dt) * 0.25;
            sketch.offer_at(item, t);
        }
        let mut decoded = persist::decode_decayed(&persist::encode_decayed(&sketch)).unwrap();
        prop_assert_eq!(decoded.rows_processed(), sketch.rows_processed());
        prop_assert_eq!(decoded.last_time().to_bits(), sketch.last_time().to_bits());
        for &(item, dt) in &suffix {
            t += f64::from(dt) * 0.25;
            sketch.offer_at(item, t);
            decoded.offer_at(item, t);
        }
        let a = sketch.decayed_entries(t + 1.0);
        let b = decoded.decayed_entries(t + 1.0);
        prop_assert_eq!(a.len(), b.len());
        for ((i1, c1), (i2, c2)) in a.iter().zip(&b) {
            prop_assert_eq!(i1, i2);
            prop_assert_eq!(c1.to_bits(), c2.to_bits());
        }
    }

    /// Temporal bucket-ring frames round-trip to a store that keeps behaving
    /// identically: fine buckets (RNG + structure), compacted tiers and the
    /// terminal bucket all survive, so continuing both stores with the same
    /// suffix yields bit-equal rings.
    #[test]
    fn temporal_shard_round_trip_preserves_behaviour(
        stream in vec((0u64..120, 0u64..40), 1..400),
        suffix in vec((0u64..120, 30u64..60), 0..150),
        capacity in 1usize..16,
        seed in any::<u64>(),
    ) {
        let config = TemporalConfig::new(1, capacity, seed, 4, 3).with_retention(2, 2);
        let mut store = WindowedSketchStore::new(WindowConfig {
            seed, // shard 0 of the engine-level config
            ..config.window
        });
        for &(item, ts) in &stream {
            store.offer_at(item, ts);
        }
        let meta = persist::TemporalMeta::from_config(&config);
        let bytes = persist::encode_temporal_shard(0, meta, &store);
        prop_assert_eq!(persist::peek_kind(&bytes).unwrap(), persist::SketchKind::TemporalShard);
        let (shard, back_meta, mut decoded) = persist::decode_temporal_shard(&bytes).unwrap();
        prop_assert_eq!(shard, 0);
        prop_assert_eq!(back_meta, meta);
        prop_assert_eq!(decoded.rows_processed(), store.rows_processed());
        for &(item, ts) in &suffix {
            store.offer_at(item, ts);
            decoded.offer_at(item, ts);
        }
        let fa: Vec<_> = store.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        let fb: Vec<_> = decoded.fine_sketches().map(|(i, sk)| (i, sk.entries())).collect();
        prop_assert_eq!(fa, fb);
        for t in 0..2 {
            prop_assert_eq!(store.tier_buckets(t), decoded.tier_buckets(t));
        }
        prop_assert_eq!(store.terminal_bucket(), decoded.terminal_bucket());
        prop_assert_eq!(store.late_rows(), decoded.late_rows());
        prop_assert_eq!(store.last_time(), decoded.last_time());
    }

    /// Truncating a valid decayed or temporal frame at any point yields an
    /// error, never a panic — the totality guarantee extends to the new kinds.
    #[test]
    fn new_kind_truncation_always_errors(
        stream in vec((0u64..60, 0u64..30), 1..200),
        capacity in 1usize..12,
        seed in any::<u64>(),
        cut in 0.0f64..1.0,
    ) {
        let mut decayed = DecayedSpaceSaving::with_seed(capacity, 0.05, seed);
        let config = TemporalConfig::new(1, capacity, seed, 4, 3).with_retention(1, 2);
        let mut store = WindowedSketchStore::new(config.window);
        let mut t = 0.0f64;
        for &(item, ts) in &stream {
            t += ts as f64 * 0.1;
            decayed.offer_at(item, t);
            store.offer_at(item, ts);
        }
        let meta = persist::TemporalMeta::from_config(&config);
        for bytes in [
            persist::encode_decayed(&decayed),
            persist::encode_temporal_shard(0, meta, &store),
        ] {
            let len = ((bytes.len() - 1) as f64 * cut) as usize;
            prop_assert!(persist::decode_decayed(&bytes[..len]).is_err());
            prop_assert!(persist::decode_temporal_shard(&bytes[..len]).is_err());
        }
    }

    /// Flipping any single bit of a valid decayed or temporal frame yields an
    /// error (header gates catch structural damage, CRC-64 everything else).
    #[test]
    fn new_kind_single_bit_flips_always_error(
        stream in vec((0u64..60, 0u64..30), 1..200),
        capacity in 1usize..12,
        seed in any::<u64>(),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut decayed = DecayedSpaceSaving::with_seed(capacity, 0.05, seed);
        let config = TemporalConfig::new(1, capacity, seed, 4, 3).with_retention(1, 2);
        let mut store = WindowedSketchStore::new(config.window);
        let mut t = 0.0f64;
        for &(item, ts) in &stream {
            t += ts as f64 * 0.1;
            decayed.offer_at(item, t);
            store.offer_at(item, ts);
        }
        let meta = persist::TemporalMeta::from_config(&config);
        for mut bytes in [
            persist::encode_decayed(&decayed),
            persist::encode_temporal_shard(0, meta, &store),
        ] {
            let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
            bytes[idx] ^= 1 << bit;
            prop_assert!(persist::decode_decayed(&bytes).is_err());
            prop_assert!(persist::decode_temporal_shard(&bytes).is_err());
        }
    }

    /// Decoding arbitrary garbage bytes is total: always an `Err`, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..600)) {
        let _ = persist::decode_snapshot(&bytes);
        let _ = persist::decode_unbiased(&bytes);
        let _ = persist::decode_weighted(&bytes);
        let _ = persist::decode_shard(&bytes);
        let _ = persist::decode_manifest(&bytes);
        let _ = persist::decode_decayed(&bytes);
        let _ = persist::decode_temporal_shard(&bytes);
        let _ = persist::decode_temporal_manifest(&bytes);
        let _ = persist::peek_kind(&bytes);
    }

    /// Garbage prefixed with a valid header shell still never panics, exercising
    /// the payload readers rather than the frame gate.
    #[test]
    fn framed_garbage_never_panics(
        payload in vec(any::<u8>(), 0..400),
        kind in 0..persist::SketchKind::ALL.len(),
    ) {
        // Hand-build a frame with a correct magic/version/len/CRC around a random
        // payload, so decoding reaches the kind-specific parsing and validation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&persist::MAGIC);
        bytes.extend_from_slice(&persist::FORMAT_VERSION.to_le_bytes());
        bytes.push(persist::SketchKind::ALL[kind] as u8);
        bytes.push(0);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let crc = persist::crc64(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let _ = persist::decode_snapshot(&bytes);
        let _ = persist::decode_unbiased(&bytes);
        let _ = persist::decode_weighted(&bytes);
        let _ = persist::decode_shard(&bytes);
        let _ = persist::decode_manifest(&bytes);
        let _ = persist::decode_decayed(&bytes);
        let _ = persist::decode_temporal_shard(&bytes);
        let _ = persist::decode_temporal_manifest(&bytes);
    }
}

/// A kind-8 [`persist::SketchKind::TemporalLadderShard`] frame, which builds
/// up to commit 01bc1f2 wrote for every temporal checkpoint shard: a
/// kind-6 `TemporalShard` payload followed by the dyadic-ladder nodes. It was
/// generated at that commit from [`ladder_fixture_store`]'s store, after
/// `store.indexed_range_reports(0, u64::MAX)` had built three level-1 nodes
/// and one level-2 node, by that build's kind-8 encoder (since removed) with
/// shard 0 and `TemporalMeta::from_config(&config)`.
const LADDER_FRAME: &[u8] = include_bytes!("fixtures/temporal_ladder_shard.kind8.bin");

/// The store the fixture was written from: capacity 4, width-4 buckets,
/// 8 fine buckets (two ladder levels), two tiers of factor 2, 23 buckets of
/// rows (so both tiers and the terminal bucket hold data) and one late row.
fn ladder_fixture_store() -> (TemporalConfig, WindowedSketchStore) {
    let config = TemporalConfig::new(1, 4, 0x5EED, 4, 8).with_retention(2, 2);
    let mut store = WindowedSketchStore::new(config.window);
    for i in 0u64..276 {
        store.offer_at(i * 7 % 11, i / 3);
    }
    store.offer_at(3, 5);
    (config, store)
}

/// A kind-8 frame from an older build still restores: its ladder nodes are
/// discarded, the ring re-encodes as the kind-6 frame of the same store
/// rebuilt today, and the restored store (ladder rebuilt on demand) keeps
/// answering and ingesting exactly as that store does.
#[test]
fn retired_ladder_frame_decodes_to_the_plain_ring_it_carries() {
    let (config, mut rebuilt) = ladder_fixture_store();
    let meta = persist::TemporalMeta::from_config(&config);
    assert_eq!(
        persist::peek_kind(LADDER_FRAME).unwrap(),
        persist::SketchKind::TemporalLadderShard
    );
    let (shard, back_meta, mut decoded) = persist::decode_temporal_shard(LADDER_FRAME).unwrap();
    assert_eq!((shard, back_meta), (0, meta));
    assert_eq!(decoded.ladder_node_count(), 0, "ladder nodes are discarded");
    let plain = persist::encode_temporal_shard(0, meta, &decoded);
    assert_eq!(
        persist::peek_kind(&plain).unwrap(),
        persist::SketchKind::TemporalShard
    );
    assert_eq!(plain, persist::encode_temporal_shard(0, meta, &rebuilt));

    for (item, ts) in [(3, 90), (12, 91), (3, 92)] {
        rebuilt.offer_at(item, ts);
        decoded.offer_at(item, ts);
    }
    let wide_a = rebuilt.fold_range_indexed(0, u64::MAX, 1, 2);
    let wide_b = decoded.fold_range_indexed(0, u64::MAX, 1, 2);
    assert_eq!(wide_a.entries(), wide_b.entries());
    assert_eq!(wide_a.rows_processed(), 276 + 1 + 3);
    assert_eq!(
        persist::encode_temporal_shard(0, meta, &decoded),
        persist::encode_temporal_shard(0, meta, &rebuilt)
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/temporal_ladder_shard.kind8.bin"
    );
    let cold = persist::ColdSnapshot::open(path).unwrap();
    assert_eq!(cold.snapshot().rows_processed(), 276 + 1);
}

/// Every truncation and every single-bit flip of the kind-8 fixture is an
/// error, never a panic: decode stays total over the retired kind.
#[test]
fn retired_ladder_frame_truncations_and_bit_flips_always_error() {
    for len in 0..LADDER_FRAME.len() {
        assert!(
            persist::decode_temporal_shard(&LADDER_FRAME[..len]).is_err(),
            "cut at {len}"
        );
    }
    let mut bytes = LADDER_FRAME.to_vec();
    for idx in 0..bytes.len() {
        for bit in 0..8 {
            bytes[idx] ^= 1 << bit;
            assert!(
                persist::decode_temporal_shard(&bytes).is_err(),
                "byte {idx} bit {bit}"
            );
            bytes[idx] ^= 1 << bit;
        }
    }
}
