//! Seeded inputs: the item stream (ad impressions from the repository's
//! ad-click simulator), the query mix and the accuracy subsets. Everything
//! here is a pure function of the seed and is built before any timing
//! starts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use uss_core::persist::TemporalMeta;
use uss_core::{Query, TimeRange};
use uss_workloads::{random_subsets, AdClickConfig, AdClickGenerator};

/// Shards per stream: one per core of the 2-core reference box.
pub const SHARDS: u64 = 2;
/// Bins per bucket sketch.
pub const CAPACITY: u64 = 1024;
/// Time units per fine bucket.
pub const BUCKET_WIDTH: u64 = 4096;
/// Fine buckets retained per shard.
pub const FINE_BUCKETS: u64 = 64;
/// Buckets per tier before a group compacts into the next tier.
pub const TIER_FACTOR: u64 = 4;
/// Retention tiers.
pub const TIERS: u64 = 2;
/// Rows per ingest request.
pub const BATCH_ROWS: usize = 4096;
/// Batches per fine bucket. Every second batch rotates the fine ring, every
/// eighth compacts a group into tier 1 and every 32nd into tier 2, so
/// compactions happen throughout. The tier-2 batches are the slowest latency
/// mode; at 3% of the batches they put the p99 well inside that mode rather
/// than on its edge.
pub const BATCHES_PER_BUCKET: u64 = 2;
/// Time units one batch spans.
pub const BATCH_SPAN: u64 = BUCKET_WIDTH / BATCHES_PER_BUCKET;
/// Distinct batches of impressions; longer streams cycle through them with
/// fresh timestamps. Not a multiple of the fine window, so consecutive
/// windows hold different mixes.
pub const POOL_BATCHES: usize = 300;

/// Items are ad impressions from the repository's ad-click simulator (the
/// stand-in for the paper's Criteo data, section 7), keyed by ad: the low
/// [`AD_BITS`] bits hold the ad id and the bits above hold its advertiser.
/// Ads are Zipf(1.05) over 50,000 ids and advertisers a fixed skewed
/// function of the ad, as the simulator's defaults have them.
const AD_BITS: u32 = 16;
/// Ad ids are below this, so exact counts live in a `Vec` indexed by ad.
pub const AD_IDS: usize = 1 << AD_BITS;

/// Share of queries that repeat the previous query's range: a dashboard
/// asking several questions of one range. They hit the range cache on a
/// quiesced daemon; everything else is a fresh range that folds.
const REPEAT_SHARE: f64 = 0.1;
/// Fine buckets the mix's ranges may reach back from the newest. The rest
/// of the fine window is a margin, so no range reaches a compacted tier
/// (whose buckets span more than the range).
const QUERY_REACH: u64 = FINE_BUCKETS - 16;
/// Rows whose items make up each `SubsetSum` / `Proportion` query in the
/// mix, so subsets are drawn by frequency.
const MIX_SUBSET_ITEMS: usize = 16;
/// Accuracy: uniformly random subsets of the ads that occur, each holding a
/// tenth of them, as the repository's Figure 3 experiment draws 100 of
/// 1000 items for the paper's random filter-condition queries.
const ACCURACY_SUBSETS: usize = 500;
const ACCURACY_SUBSET_SHARE: usize = 10;
/// Fine buckets in the accuracy check's recent range.
pub const RECENT_BUCKETS: u64 = 32;
/// The key roll-up every `Marginals` request uses: the advertiser.
pub const MARGINAL_SHIFT: u8 = AD_BITS as u8;
/// See [`MARGINAL_SHIFT`].
pub const MARGINAL_MASK: u64 = 0xFFFF;

/// The stream every workload creates.
pub fn spec(seed: u64) -> TemporalMeta {
    TemporalMeta {
        shards: SHARDS,
        capacity: CAPACITY,
        seed,
        bucket_width: BUCKET_WIDTH,
        fine_buckets: FINE_BUCKETS,
        tier_factor: TIER_FACTOR,
        tiers: TIERS,
    }
}

/// The ad an item key names.
pub fn ad_of(item: u64) -> usize {
    (item & (AD_IDS as u64 - 1)) as usize
}

/// Query `variant` of the mix (0..5 are the `Query` variants, 5 is
/// `Marginals`, as `None`); subset items are the items of random rows.
fn mix_query(pool: &[Vec<u64>], variant: usize, rng: &mut StdRng) -> Option<Query> {
    let mut items: Vec<u64> = (0..MIX_SUBSET_ITEMS)
        .map(|_| pool[rng.gen_range(0..pool.len())][rng.gen_range(0..BATCH_ROWS)])
        .collect();
    items.sort_unstable();
    items.dedup();
    match variant {
        0 => Some(Query::SubsetSum { items }),
        1 => Some(Query::Proportion { items }),
        2 => Some(Query::TopK { k: 10 }),
        3 => Some(Query::FrequentItems { phi: 0.01 }),
        4 => Some(Query::RankQuantile {
            q: rng.gen_range(0.0..1.0),
        }),
        _ => None,
    }
}

/// One query of the mix. The range is relative to the newest fine bucket at
/// send time, so the same spec stays inside the retained window while a
/// writer moves it.
#[derive(Clone)]
pub struct QuerySpec {
    /// Fine buckets `[newest - back, newest - back + len)`.
    pub back: u64,
    pub len: u64,
    /// The typed query, or `None` for a `Marginals` request.
    pub query: Option<Query>,
}

/// The six request kinds the mix rotates through: five `Query` variants and
/// `Marginals`.
const VARIANTS: usize = 6;

impl QuerySpec {
    /// The fine-bucket span `[start, end)` when `newest` is the newest bucket.
    pub fn buckets(&self, newest: u64) -> (u64, u64) {
        let start = newest.saturating_sub(self.back);
        (start, start + self.len)
    }

    pub fn range(&self, newest: u64) -> TimeRange {
        let (start, end) = self.buckets(newest);
        between(start, end)
    }
}

/// The time range covering fine buckets `[start, end)`.
pub fn between(start: u64, end: u64) -> TimeRange {
    TimeRange::Between {
        start: start * BUCKET_WIDTH,
        end: end * BUCKET_WIDTH,
    }
}

/// Every seeded input of a run.
pub struct Inputs {
    /// `POOL_BATCHES` batches of `BATCH_ROWS` item keys.
    pub pool: Vec<Vec<u64>>,
    pub queries: Vec<QuerySpec>,
    /// Accuracy subsets, as ad ids.
    pub subsets: Vec<Vec<u64>>,
    /// The item key of every ad that occurs, by ad id.
    keys: Vec<Option<u64>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let impressions = AdClickGenerator::new(AdClickConfig {
            rows: POOL_BATCHES * BATCH_ROWS,
            seed,
            ..AdClickConfig::default()
        });
        let mut keys = vec![None; AD_IDS];
        let items: Vec<u64> = impressions
            .map(|imp| {
                let [advertiser, ad, ..] = imp.features;
                let key = (u64::from(advertiser) << AD_BITS) | u64::from(ad);
                keys[ad as usize] = Some(key);
                key
            })
            .collect();
        let pool: Vec<Vec<u64>> = items.chunks(BATCH_ROWS).map(<[u64]>::to_vec).collect();

        // Every (span, variant) pair once, in seeded order, so the mix's
        // cost profile is the same for every seed; each is followed, with
        // the odds that make REPEAT_SHARE of the mix repeats, by another
        // variant over the same range.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0002);
        let mut fresh: Vec<(u64, u64, usize)> = Vec::new();
        for back in 0..QUERY_REACH {
            for len in 1..=back + 1 {
                fresh.extend((0..VARIANTS).map(|v| (back, len, v)));
            }
        }
        fresh.shuffle(&mut rng);
        let repeat_odds = REPEAT_SHARE / (1.0 - REPEAT_SHARE);
        let mut queries = Vec::with_capacity(fresh.len() * 2);
        for (back, len, variant) in fresh {
            let query = mix_query(&pool, variant, &mut rng);
            queries.push(QuerySpec { back, len, query });
            if rng.gen_bool(repeat_odds) {
                let other = (variant + rng.gen_range(1..VARIANTS)) % VARIANTS;
                let query = mix_query(&pool, other, &mut rng);
                queries.push(QuerySpec { back, len, query });
            }
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0003);
        let seen: Vec<u64> = (0..AD_IDS as u64)
            .filter(|&ad| keys[ad as usize].is_some())
            .collect();
        let subsets = random_subsets(
            seen.len(),
            seen.len() / ACCURACY_SUBSET_SHARE,
            ACCURACY_SUBSETS,
            &mut rng,
        )
        .into_iter()
        .map(|subset| subset.iter().map(|&i| seen[i as usize]).collect())
        .collect();
        Self {
            pool,
            queries,
            subsets,
            keys,
        }
    }

    /// The item keys of a set of ads that occur, sorted ascending.
    pub fn keys_of(&self, ads: &[u64]) -> Vec<u64> {
        let mut keys: Vec<u64> = ads
            .iter()
            .filter_map(|&ad| self.keys[ad as usize])
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Writes batch `b` of the stream into `out`: the pooled items with
    /// timestamps `b * BATCH_SPAN + j * BATCH_SPAN / BATCH_ROWS`, so time
    /// only moves forward.
    pub fn fill_batch(&self, b: u64, out: &mut Vec<(u64, u64)>) {
        let items = &self.pool[(b % POOL_BATCHES as u64) as usize];
        let base = b * BATCH_SPAN;
        let step = BATCH_ROWS as u64 / BATCH_SPAN;
        out.clear();
        out.extend(
            items
                .iter()
                .enumerate()
                .map(|(j, &item)| (item, base + j as u64 / step)),
        );
    }

    /// Exact per-ad counts over batches `lo..hi` of the stream, indexed by
    /// ad id.
    pub fn exact_counts(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut counts = vec![0u64; AD_IDS];
        let pool = POOL_BATCHES as u64;
        for (p, items) in self.pool.iter().enumerate() {
            let p = p as u64;
            // Batches b in lo..hi with b % pool == p.
            let first = lo + (p + pool - lo % pool) % pool;
            if first >= hi {
                continue;
            }
            let times = (hi - 1 - first) / pool + 1;
            for &item in items {
                counts[ad_of(item)] += times;
            }
        }
        counts
    }
}

/// The newest fine bucket once batches `0..batches` are in.
pub fn newest_bucket(batches: u64) -> u64 {
    (batches.max(1) * BATCH_SPAN - 1) / BUCKET_WIDTH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = Inputs::new(7);
        let b = Inputs::new(7);
        let c = Inputs::new(8);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.subsets, b.subsets);
        assert_ne!(a.pool, c.pool);
    }

    #[test]
    fn accuracy_subsets_name_ads_that_occur() {
        let inputs = Inputs::new(5);
        let counts = inputs.exact_counts(0, POOL_BATCHES as u64);
        for subset in &inputs.subsets {
            let keys = inputs.keys_of(subset);
            assert_eq!(keys.len(), subset.len());
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
            assert!(subset.iter().all(|&ad| counts[ad as usize] > 0));
            assert!(keys.iter().all(|&k| subset.contains(&(ad_of(k) as u64))));
        }
    }

    #[test]
    fn exact_counts_match_a_direct_count() {
        let inputs = Inputs::new(3);
        let mut direct = vec![0u64; AD_IDS];
        let mut rows = Vec::new();
        for b in 290..913 {
            inputs.fill_batch(b, &mut rows);
            for &(item, _) in &rows {
                direct[ad_of(item)] += 1;
            }
        }
        assert_eq!(inputs.exact_counts(290, 913), direct);
    }

    #[test]
    fn batches_fill_buckets_in_order() {
        let inputs = Inputs::new(1);
        let mut rows = Vec::new();
        inputs.fill_batch(5, &mut rows);
        assert_eq!(rows.len(), BATCH_ROWS);
        assert_eq!(rows[0].1 / BUCKET_WIDTH, 5 / BATCHES_PER_BUCKET);
        assert_eq!(rows[BATCH_ROWS - 1].1, 6 * BATCH_SPAN - 1);
        assert_eq!(newest_bucket(2 * BATCHES_PER_BUCKET), 1);
        assert_eq!(newest_bucket(2 * BATCHES_PER_BUCKET + 1), 2);
    }

    #[test]
    fn query_ranges_stay_inside_the_fine_window() {
        let inputs = Inputs::new(11);
        let newest = 500;
        let reach = FINE_BUCKETS - 16;
        let mut repeats = 0;
        for (i, q) in inputs.queries.iter().enumerate() {
            let (start, end) = q.buckets(newest);
            assert!(start + reach > newest && end <= newest + 1 && start < end);
            if i > 0 && (q.back, q.len) == (inputs.queries[i - 1].back, inputs.queries[i - 1].len) {
                repeats += 1;
            }
        }
        // Every span appears with every variant; about REPEAT_SHARE of the
        // mix repeats a range, far from half.
        let mut per_span = std::collections::HashMap::new();
        for q in &inputs.queries {
            *per_span.entry((q.back, q.len)).or_insert(0) += 1;
        }
        assert_eq!(per_span.len() as u64, reach * (reach + 1) / 2);
        assert!(per_span.values().all(|&n| n >= 6));
        let share = repeats as f64 / inputs.queries.len() as f64;
        assert!((0.08..0.13).contains(&share), "{share}");
    }
}
