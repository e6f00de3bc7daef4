//! Property tests for the typed query API.
//!
//! * **Answer consistency** — every typed query answered by [`answer_query`]
//!   equals the same query asked of the [`SketchSnapshot`] methods directly:
//!   the typed form adds a confidence interval, never different numbers.
//! * **Marginals** partition the retained mass.
//! * **Rank quantiles** are monotone and pinned to the top item.
//!
//! * **Concurrent soundness** — readers racing producers only ever capture
//!   complete snapshots: per-capture mass conservation holds exactly and row
//!   counts are monotone per reader.

use proptest::collection::vec;
use proptest::prelude::*;

use uss_core::prelude::*;
use uss_core::traits::StreamSketch;

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..200, 1..max_len)
}

fn sketch_of(stream: &[u64], capacity: usize, seed: u64) -> UnbiasedSpaceSaving {
    let mut sketch = UnbiasedSpaceSaving::with_seed(capacity, seed);
    sketch.offer_batch(stream);
    sketch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Typed `TopK` / `FrequentItems` / `SubsetSum` / `Proportion` /
    /// `RankQuantile` answers are identical to direct `SketchSnapshot` queries.
    #[test]
    fn served_answers_match_direct_snapshot_queries(
        stream in stream_strategy(500),
        capacity in 1usize..40,
        seed in any::<u64>(),
        k in 0usize..12,
        phi_mil in 1u64..500,
    ) {
        let direct = sketch_of(&stream, capacity, seed).snapshot();
        let answer = |query: Query| answer_query(&direct, &query, 0.95);

        prop_assert_eq!(answer(Query::TopK { k }), QueryAnswer::Items(direct.top_k(k)));
        let phi = phi_mil as f64 / 1000.0;
        prop_assert_eq!(
            answer(Query::FrequentItems { phi }),
            QueryAnswer::Items(direct.frequent_items(phi))
        );

        let items: Vec<u64> = (0..200u64).filter(|i| i % 3 == 0).collect();
        let reference = direct.subset_estimate_items(&items);
        match answer(Query::SubsetSum { items: items.clone() }) {
            QueryAnswer::Estimate { estimate, ci } => {
                prop_assert_eq!(estimate.sum, reference.sum);
                prop_assert_eq!(estimate.variance, reference.variance);
                prop_assert_eq!(estimate.items_in_sketch, reference.items_in_sketch);
                prop_assert_eq!(ci, reference.confidence_interval(0.95));
                prop_assert!(ci.contains(estimate.sum));
            }
            other => prop_assert!(false, "unexpected answer {:?}", other),
        }
        match answer(Query::Proportion { items }) {
            QueryAnswer::Estimate { estimate, .. } => {
                let share = reference.sum / direct.rows_processed() as f64;
                prop_assert!((estimate.sum - share).abs() <= 1e-12 * share.max(1.0));
                prop_assert_eq!(estimate.items_in_sketch, reference.items_in_sketch);
            }
            other => prop_assert!(false, "unexpected answer {:?}", other),
        }
        prop_assert_eq!(
            answer(Query::RankQuantile { q: 0.0 }),
            QueryAnswer::Rank(direct.rank_quantile(0.0))
        );
    }

    /// Marginal groups partition the retained mass: group sums add up to the
    /// snapshot total, and each group equals the brute-force regrouping of entries.
    #[test]
    fn marginals_partition_the_retained_mass(
        stream in stream_strategy(500),
        capacity in 1usize..40,
        seed in any::<u64>(),
        modulus in 1u64..16,
    ) {
        let direct = sketch_of(&stream, capacity, seed).snapshot();
        let groups = direct.marginals(|item| Some(item % modulus));

        let group_total: f64 = groups.iter().map(|(_, est)| est.sum).sum();
        prop_assert!((group_total - direct.total()).abs() < 1e-9 * direct.total().max(1.0));

        for (key, est) in &groups {
            let brute: f64 = direct
                .entries()
                .iter()
                .filter(|(item, _)| item % modulus == *key)
                .map(|(_, c)| c)
                .sum();
            prop_assert_eq!(est.sum, brute);
            prop_assert!(est.variance >= 0.0);
        }
        // No duplicate keys.
        let mut keys: Vec<u64> = groups.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), groups.len());
    }

    /// The rank-quantile walk is monotone non-increasing in `q` and pinned to the
    /// top item at `q = 0`.
    #[test]
    fn rank_quantile_is_monotone(
        stream in stream_strategy(400),
        capacity in 1usize..32,
        seed in any::<u64>(),
    ) {
        let snap = sketch_of(&stream, capacity, seed).snapshot();
        let top = snap.top_k(1);
        let mut last = f64::INFINITY;
        for step in 0..=10 {
            let q = step as f64 / 10.0;
            let QueryAnswer::Rank(Some((item, count))) =
                answer_query(&snap, &Query::RankQuantile { q }, 0.95)
            else {
                panic!("a non-empty sketch answers every quantile in [0, 1]")
            };
            if step == 0 {
                prop_assert_eq!((item, count), top[0]);
            }
            prop_assert!(count <= last);
            last = count;
        }
    }
}

/// Readers capturing engine snapshots while producers ingest only ever see
/// complete captures: mass equals rows exactly, rows never go backwards for one
/// reader and never exceed what was offered.
#[test]
fn concurrent_readers_only_see_complete_epochs() {
    let engine = ShardedIngestEngine::new(EngineConfig::new(2, 128, 77).with_batch_rows(256));
    let total_rows = 60_000u64;

    std::thread::scope(|scope| {
        for producer in 0..2u64 {
            let mut handle = engine.handle();
            scope.spawn(move || {
                for i in 0..total_rows / 2 {
                    handle.offer((producer * 17 + i) % 900);
                }
            });
        }
        for reader in 0..4 {
            let engine = &engine;
            scope.spawn(move || {
                let mut last_rows = 0u64;
                for _ in 0..100 {
                    let snap = std::sync::Arc::new(engine.snapshot().snapshot());
                    assert!(
                        snap.rows_processed() >= last_rows,
                        "reader {reader}: rows went backwards"
                    );
                    last_rows = snap.rows_processed();
                    let mass: f64 = snap.entries().iter().map(|(_, c)| c).sum();
                    assert!(
                        (mass - snap.rows_processed() as f64).abs()
                            <= 1e-6 * (snap.rows_processed() as f64).max(1.0),
                        "reader {reader}: torn snapshot (mass {mass} vs {} rows)",
                        snap.rows_processed()
                    );
                    assert!(snap.rows_processed() <= total_rows);
                }
            });
        }
    });

    let merged = engine.finish();
    assert_eq!(merged.rows_processed(), total_rows);
}
