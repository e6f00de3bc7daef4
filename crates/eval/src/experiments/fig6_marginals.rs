//! Figure 6: 1-way and 2-way marginal counts on the ad-impression data.
//!
//! The paper takes 9 categorical features of the Criteo click dataset, sketches the
//! impression stream at the granularity of the full feature tuple, and then queries
//! the counts of individual feature values (1-way marginals) and of feature-value
//! pairs (2-way marginals) — exactly the historical-count features used for
//! click-through-rate prediction. Unbiased Space Saving is compared to priority
//! sampling on the pre-aggregated tuples; both achieve a relative MSE below a few
//! percent for marginals above ~10⁵ rows and well below 1% for marginals covering a
//! large share of the data.
//!
//! The reproduction uses the synthetic impression stream of
//! [`uss_workloads::adclick`] (see DESIGN.md for the substitution argument) and
//! reports mean relative MSE bucketed by the true marginal count, separately for
//! 1-way and 2-way marginals.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{BucketedSeries, EstimateAccumulator};
use crate::report::{fmt_num, Table};
use uss_core::hash::FxHashMap;
use uss_core::{StreamSketch, UnbiasedSpaceSaving};
use uss_sampling::priority::priority_sample;
use uss_sampling::WeightedItem;
use uss_workloads::{AdClickConfig, AdClickGenerator, Impression, NUM_FEATURES};

/// Configuration for the marginal-estimation experiment.
#[derive(Debug, Clone)]
pub struct MarginalsConfig {
    /// Synthetic impression-stream configuration.
    pub adclick: AdClickConfig,
    /// Sketch bins / priority sample size.
    pub bins: usize,
    /// Monte-Carlo repetitions (sketch randomness; the data is fixed).
    pub reps: usize,
    /// Features whose 1-way marginals are queried (indices into the feature array).
    pub one_way_features: Vec<usize>,
    /// Feature pairs whose 2-way marginals are queried.
    pub two_way_features: Vec<(usize, usize)>,
    /// Only marginals with a true count at least this large are queried (rarer
    /// marginals are uninteresting for CTR features and dominated by noise).
    pub min_marginal_count: u64,
    /// Maximum number of marginal queries per feature (the most frequent values).
    pub max_queries_per_feature: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for MarginalsConfig {
    fn default() -> Self {
        Self {
            adclick: AdClickConfig {
                rows: 300_000,
                ..AdClickConfig::default()
            },
            bins: 2_000,
            reps: 30,
            one_way_features: vec![0, 3, 7],
            two_way_features: vec![(0, 5), (4, 6), (0, 3)],
            min_marginal_count: 200,
            max_queries_per_feature: 40,
            seed: 6,
        }
    }
}

impl MarginalsConfig {
    /// Test-scale configuration.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            adclick: AdClickConfig {
                rows: 15_000,
                advertisers: 50,
                ads: 500,
                campaigns: 100,
                sites: 80,
                verticals: 8,
                devices: 3,
                countries: 10,
                user_segments: 30,
                ad_formats: 4,
                skew: 1.05,
                base_ctr: 0.05,
                seed: 99,
            },
            bins: 300,
            reps: 12,
            one_way_features: vec![0, 4],
            two_way_features: vec![(4, 5)],
            min_marginal_count: 100,
            max_queries_per_feature: 15,
            seed: 6,
        }
    }
}

/// A marginal query: an arity (1 or 2), the features involved, and their values.
#[derive(Debug, Clone)]
struct MarginalQuery {
    arity: usize,
    features: Vec<usize>,
    values: Vec<u32>,
    truth: f64,
}

/// One output row: mean relative MSE per method per true-count bucket per arity.
#[derive(Debug, Clone)]
pub struct MarginalRow {
    /// 1 or 2 (marginal arity).
    pub arity: usize,
    /// Method name.
    pub method: &'static str,
    /// Lower edge of the true-count bucket.
    pub bucket_lo: f64,
    /// Upper edge of the true-count bucket.
    pub bucket_hi: f64,
    /// Mean relative MSE in the bucket.
    pub mean_relative_mse: f64,
    /// Number of marginal queries in the bucket.
    pub n_queries: u64,
}

/// Result of the marginal experiment.
#[derive(Debug, Clone)]
pub struct MarginalsResult {
    /// Bucketed error rows for both methods and arities.
    pub rows: Vec<MarginalRow>,
    /// Overall mean relative MSE per (arity, method).
    pub overall: Vec<(usize, &'static str, f64)>,
    /// Number of distinct feature tuples in the data (the number of "items").
    pub distinct_tuples: usize,
}

/// Runs the experiment.
#[must_use]
pub fn run(config: &MarginalsConfig) -> MarginalsResult {
    // Generate the impression stream once; it is the "ground truth dataset".
    let impressions: Vec<Impression> = AdClickGenerator::new(config.adclick).collect();

    // The unit of analysis is the full feature tuple.
    let all_features: Vec<usize> = (0..NUM_FEATURES).collect();
    let rows: Vec<u64> = impressions
        .iter()
        .map(|imp| imp.marginal_key(&all_features))
        .collect();
    let mut tuple_counts: FxHashMap<u64, u64> = FxHashMap::default();
    let mut tuple_features: FxHashMap<u64, [u32; NUM_FEATURES]> = FxHashMap::default();
    for (imp, &key) in impressions.iter().zip(&rows) {
        *tuple_counts.entry(key).or_insert(0) += 1;
        tuple_features.entry(key).or_insert(imp.features);
    }

    // Build the marginal queries from the true data.
    let mut queries: Vec<MarginalQuery> = Vec::new();
    for &f in &config.one_way_features {
        let mut value_counts: FxHashMap<u32, u64> = FxHashMap::default();
        for imp in &impressions {
            *value_counts.entry(imp.features[f]).or_insert(0) += 1;
        }
        let mut pairs: Vec<(u32, u64)> = value_counts
            .into_iter()
            .filter(|&(_, c)| c >= config.min_marginal_count)
            .collect();
        pairs.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        pairs.truncate(config.max_queries_per_feature);
        for (v, c) in pairs {
            queries.push(MarginalQuery {
                arity: 1,
                features: vec![f],
                values: vec![v],
                truth: c as f64,
            });
        }
    }
    for &(f1, f2) in &config.two_way_features {
        let mut value_counts: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for imp in &impressions {
            *value_counts
                .entry((imp.features[f1], imp.features[f2]))
                .or_insert(0) += 1;
        }
        let mut pairs: Vec<((u32, u32), u64)> = value_counts
            .into_iter()
            .filter(|&(_, c)| c >= config.min_marginal_count)
            .collect();
        pairs.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        pairs.truncate(config.max_queries_per_feature);
        for ((v1, v2), c) in pairs {
            queries.push(MarginalQuery {
                arity: 2,
                features: vec![f1, f2],
                values: vec![v1, v2],
                truth: c as f64,
            });
        }
    }

    // Accumulators per (method, query).
    let method_names = ["Unbiased Space Saving", "Priority Sampling"];
    let mut accumulators: Vec<Vec<EstimateAccumulator>> = method_names
        .iter()
        .map(|_| queries.iter().map(|q| EstimateAccumulator::new(q.truth)).collect())
        .collect();

    let matches = |features: &[u32; NUM_FEATURES], q: &MarginalQuery| -> bool {
        q.features
            .iter()
            .zip(&q.values)
            .all(|(&f, &v)| features[f] == v)
    };

    // The distinct feature combinations under query — one marginal roll-up each.
    let mut combos: Vec<Vec<usize>> = Vec::new();
    for q in &queries {
        if !combos.contains(&q.features) {
            combos.push(q.features.clone());
        }
    }

    let weighted_items: Vec<WeightedItem> = tuple_counts
        .iter()
        .map(|(&k, &c)| WeightedItem::new(k, c as f64))
        .collect();

    for rep in 0..config.reps {
        let rep_seed = config.seed.wrapping_add(rep as u64).wrapping_mul(0x9E37);
        // Unbiased Space Saving over the disaggregated tuple stream, queried
        // through its snapshot: one keyed marginal roll-up per feature
        // combination (the group-by form of the paper's Figure 6 workload), then a
        // table lookup per marginal query. Summation per key follows sketch entry
        // order, so the estimates are bit-identical to predicate subset sums.
        let mut sketch = UnbiasedSpaceSaving::with_seed(config.bins, rep_seed);
        for &key in &rows {
            sketch.offer(key);
        }
        let snapshot = sketch.snapshot();
        let marginal_tables: Vec<FxHashMap<Vec<u32>, f64>> = combos
            .iter()
            .map(|combo| {
                snapshot
                    .marginals(|item| {
                        tuple_features.get(&item).map(|features| {
                            combo.iter().map(|&f| features[f]).collect::<Vec<u32>>()
                        })
                    })
                    .into_iter()
                    .map(|(key, est)| (key, est.sum))
                    .collect()
            })
            .collect();
        for (q_idx, q) in queries.iter().enumerate() {
            let combo_idx = combos.iter().position(|c| *c == q.features).unwrap();
            let est = marginal_tables[combo_idx]
                .get(&q.values)
                .copied()
                .unwrap_or(0.0);
            accumulators[0][q_idx].push(est);
        }

        // Priority sampling over the pre-aggregated tuples.
        let mut rng = StdRng::seed_from_u64(rep_seed ^ 0xABCD);
        let sample = priority_sample(&weighted_items, config.bins, &mut rng);
        for (q_idx, q) in queries.iter().enumerate() {
            let est = sample.subset_sum(|item| {
                tuple_features
                    .get(&item)
                    .is_some_and(|features| matches(features, q))
            });
            accumulators[1][q_idx].push(est);
        }
    }

    // Bucket by true marginal count.
    let lo = queries
        .iter()
        .map(|q| q.truth)
        .fold(f64::INFINITY, f64::min)
        .max(1.0);
    let hi = queries.iter().map(|q| q.truth).fold(0.0, f64::max).max(lo * 2.0);
    let mut result_rows = Vec::new();
    let mut overall = Vec::new();
    for arity in [1usize, 2] {
        for (m_idx, &name) in method_names.iter().enumerate() {
            let mut series = BucketedSeries::geometric(lo, hi * 1.001, 6);
            let mut sum = 0.0;
            let mut n = 0usize;
            for (q_idx, q) in queries.iter().enumerate() {
                if q.arity != arity {
                    continue;
                }
                let rel_mse = accumulators[m_idx][q_idx].relative_mse();
                series.record(q.truth, rel_mse);
                sum += rel_mse;
                n += 1;
            }
            for (bucket_lo, bucket_hi, mean_relative_mse, n_queries) in series.rows() {
                result_rows.push(MarginalRow {
                    arity,
                    method: name,
                    bucket_lo,
                    bucket_hi,
                    mean_relative_mse,
                    n_queries,
                });
            }
            if n > 0 {
                overall.push((arity, name, sum / n as f64));
            }
        }
    }

    MarginalsResult {
        rows: result_rows,
        overall,
        distinct_tuples: tuple_counts.len(),
    }
}

impl MarginalsResult {
    /// Renders the bucketed error curves for both arities and methods.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Figure 6 — marginal relative MSE on ad data ({} distinct tuples)",
                self.distinct_tuples
            ),
            &[
                "arity",
                "method",
                "true_count_lo",
                "true_count_hi",
                "mean_rel_mse",
                "queries",
            ],
        );
        for r in &self.rows {
            table.push_row(vec![
                format!("{}-way", r.arity),
                r.method.to_string(),
                fmt_num(r.bucket_lo),
                fmt_num(r.bucket_hi),
                fmt_num(r.mean_relative_mse),
                r.n_queries.to_string(),
            ]);
        }
        table
    }

    /// Overall summary per (arity, method).
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "Figure 6 — overall marginal accuracy",
            &["arity", "method", "mean_rel_mse"],
        );
        for (arity, method, mse) in &self.overall {
            table.push_row(vec![
                format!("{arity}-way"),
                (*method).to_string(),
                fmt_num(*mse),
            ]);
        }
        table
    }

    /// Overall mean relative MSE for a method and arity (used by tests).
    #[must_use]
    pub fn overall_mse(&self, arity: usize, method: &str) -> f64 {
        self.overall
            .iter()
            .find(|(a, m, _)| *a == arity && *m == method)
            .map_or(f64::NAN, |(_, _, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginal_estimates_are_accurate_for_both_methods() {
        let result = run(&MarginalsConfig::tiny());
        assert!(result.distinct_tuples > 1000);
        for (arity, method, mse) in &result.overall {
            assert!(
                *mse < 0.5,
                "{method} {arity}-way relative MSE {mse} is unreasonably large"
            );
        }
        // USS should be in the same ballpark as priority sampling.
        let uss = result.overall_mse(1, "Unbiased Space Saving");
        let pri = result.overall_mse(1, "Priority Sampling");
        assert!(uss.is_finite() && pri.is_finite());
        assert!(uss <= pri * 3.0 + 0.02, "USS {uss} vs priority {pri}");
    }

    #[test]
    fn one_way_queries_exist_for_each_configured_feature() {
        let cfg = MarginalsConfig::tiny();
        let result = run(&cfg);
        let one_way_rows: Vec<&MarginalRow> =
            result.rows.iter().filter(|r| r.arity == 1).collect();
        let two_way_rows: Vec<&MarginalRow> =
            result.rows.iter().filter(|r| r.arity == 2).collect();
        assert!(!one_way_rows.is_empty());
        assert!(!two_way_rows.is_empty());
    }

    #[test]
    fn tables_render() {
        let result = run(&MarginalsConfig::tiny());
        assert!(!result.to_table().is_empty());
        assert!(!result.summary_table().is_empty());
        assert!(result.to_table().to_csv().contains("arity"));
    }
}
