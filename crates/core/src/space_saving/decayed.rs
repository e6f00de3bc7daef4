//! Time-decayed Space Saving via forward decay (Cormode et al. 2009).
//!
//! Section 5.3 of the paper observes that the reduction step of Unbiased Space Saving
//! is a sampling operation and can therefore be swapped for a *forward-decay* sampler
//! to weight recent items more heavily. Forward decay assigns a row arriving at time
//! `t` the weight `g(t - L)` relative to a fixed landmark `L`; with an exponential
//! `g(a) = exp(λ a)` the decayed count of an item queried at time `T` is
//! `Σ_rows exp(-λ (T - t_row))`, i.e. classic exponential time decay — but because the
//! weights only ever *grow* with arrival time, they can be fed directly into the
//! weighted sketch as-is and normalised only at query time. The implementation
//! periodically rescales all counters to keep the raw weights inside floating-point
//! range; rescaling multiplies every counter by the same factor and therefore changes
//! no ordering and no estimate.

use crate::estimator::SketchSnapshot;
use crate::space_saving::WeightedSpaceSaving;
use crate::traits::{StreamSketch, WeightedStreamSketch};

/// Exponentially time-decayed Unbiased Space Saving.
#[derive(Debug, Clone)]
pub struct DecayedSpaceSaving {
    inner: WeightedSpaceSaving,
    /// Decay rate λ (per unit of the caller's time scale).
    lambda: f64,
    /// Current landmark: raw ingestion weights are `exp(λ (t - landmark))`.
    landmark: f64,
    /// Latest arrival time seen (arrivals must be non-decreasing in time).
    last_time: f64,
}

/// Rescale once raw weights exceed this bound to keep well inside `f64` range.
const RESCALE_ABOVE: f64 = 1e12;

impl DecayedSpaceSaving {
    /// Creates a decayed sketch with `capacity` bins and decay rate `lambda`
    /// (larger λ forgets faster; the half-life is `ln 2 / λ`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `lambda` is not strictly positive and finite.
    #[must_use]
    pub fn new(capacity: usize, lambda: f64) -> Self {
        Self::from_inner(WeightedSpaceSaving::new(capacity), lambda)
    }

    /// Deterministically seeded variant for reproducible runs.
    #[must_use]
    pub fn with_seed(capacity: usize, lambda: f64, seed: u64) -> Self {
        Self::from_inner(WeightedSpaceSaving::with_seed(capacity, seed), lambda)
    }

    fn from_inner(inner: WeightedSpaceSaving, lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "decay rate must be positive and finite"
        );
        Self {
            inner,
            lambda,
            landmark: 0.0,
            last_time: 0.0,
        }
    }

    /// The decay rate λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Half-life implied by λ.
    #[must_use]
    pub fn half_life(&self) -> f64 {
        std::f64::consts::LN_2 / self.lambda
    }

    /// Offers one occurrence of `item` arriving at time `time`. Arrival times must be
    /// non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite or goes backwards.
    pub fn offer_at(&mut self, item: u64, time: f64) {
        self.offer_weighted_at(item, 1.0, time);
    }

    /// Offers a row for `item` carrying `weight` metric units, arriving at `time`.
    pub fn offer_weighted_at(&mut self, item: u64, weight: f64, time: f64) {
        let raw = self.raw_weight_at(time);
        self.inner.offer_weighted(item, weight * raw);
    }

    /// Offers a batch of unit-weight rows all arriving at the same `time`, exactly
    /// equivalent to calling [`offer_at`](Self::offer_at) once per item in order.
    /// The forward-decay weight (an `exp` call) and the rescale check are computed
    /// once for the whole batch instead of once per row, and runs of equal
    /// consecutive items share one hash probe through the inner sketch's batched
    /// ingest path.
    pub fn offer_batch_at(&mut self, items: &[u64], time: f64) {
        let raw = self.raw_weight_at(time);
        if raw == 1.0 {
            // Common fast path right after a rescale (and for `time == landmark`):
            // unit rows feed the integer-style batch directly.
            self.inner.offer_batch(items);
        } else {
            for &item in items {
                self.inner.offer_weighted(item, raw);
            }
        }
    }

    /// Offers a batch of weighted rows all arriving at the same `time`, exactly
    /// equivalent to the corresponding sequence of
    /// [`offer_weighted_at`](Self::offer_weighted_at) calls.
    pub fn offer_weighted_batch_at(&mut self, rows: &[(u64, f64)], time: f64) {
        let raw = self.raw_weight_at(time);
        for &(item, weight) in rows {
            self.inner.offer_weighted(item, weight * raw);
        }
    }

    /// Advances the clock to `time`, rescaling if the raw forward-decay weight would
    /// leave floating-point range, and returns the raw ingestion weight for rows
    /// arriving at `time`.
    fn raw_weight_at(&mut self, time: f64) -> f64 {
        assert!(time.is_finite(), "time must be finite");
        assert!(
            time >= self.last_time,
            "arrival times must be non-decreasing ({time} < {})",
            self.last_time
        );
        self.last_time = time;
        let raw = (self.lambda * (time - self.landmark)).exp();
        if raw > RESCALE_ABOVE {
            // Move the landmark to `time`: every stored counter shrinks by the same
            // factor, so ordering and all decayed estimates are unchanged.
            let factor = (-self.lambda * (time - self.landmark)).exp();
            self.inner.scale_all(factor);
            self.landmark = time;
            return 1.0;
        }
        raw
    }

    /// Exponentially decayed count of `item` as of `query_time`:
    /// `Σ_rows weight · exp(-λ (query_time - t_row))` (estimated).
    #[must_use]
    pub fn decayed_estimate(&self, item: u64, query_time: f64) -> f64 {
        self.inner.estimate(item) * (-self.lambda * (query_time - self.landmark)).exp()
    }

    /// Decayed total mass as of `query_time`.
    #[must_use]
    pub fn decayed_total(&self, query_time: f64) -> f64 {
        self.inner.total_weight() * (-self.lambda * (query_time - self.landmark)).exp()
    }

    /// All `(item, decayed count)` pairs as of `query_time`.
    #[must_use]
    pub fn decayed_entries(&self, query_time: f64) -> Vec<(u64, f64)> {
        let norm = (-self.lambda * (query_time - self.landmark)).exp();
        self.inner
            .entries()
            .into_iter()
            .map(|(item, c)| (item, c * norm))
            .collect()
    }

    /// The `k` items with the largest decayed counts, descending.
    #[must_use]
    pub fn top_k_decayed(&self, k: usize, query_time: f64) -> Vec<(u64, f64)> {
        let mut entries = self.decayed_entries(query_time);
        entries.sort_by(|a, b| b.1.total_cmp(&a.1));
        entries.truncate(k);
        entries
    }

    /// Number of rows offered.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.inner.rows_processed()
    }

    /// Sketch capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// The latest arrival time seen (0 before any row).
    #[must_use]
    pub fn last_time(&self) -> f64 {
        self.last_time
    }

    /// The current forward-decay landmark (advanced only by internal rescales;
    /// estimates are invariant to it).
    #[must_use]
    pub fn landmark(&self) -> f64 {
        self.landmark
    }

    /// An immutable snapshot of the decayed state as of `query_time`: every
    /// entry is its exponentially decayed count, `N̂_min` is the decayed minimum
    /// counter, and the row count is the raw number of rows offered. All the
    /// estimator queries (subset sums with equation-5 variance, top-k,
    /// marginals) then run on decayed counts — the smooth-decay counterpart of
    /// a [`crate::temporal`] window snapshot. `snapshot_at(self.last_time())`
    /// is the state as of the latest arrival, and
    /// [`crate::query::answer_query`] answers the typed queries on it; to keep
    /// ingesting while reading, share the sketch behind a `parking_lot::RwLock`
    /// and capture under a brief read lock.
    ///
    /// Note that decayed subset *sums* are in decayed-count units, while
    /// proportion-style queries that divide by the raw row count mix units;
    /// rank-based queries (top-k, frequent items relative to other items) are
    /// the natural consumers.
    #[must_use]
    pub fn snapshot_at(&self, query_time: f64) -> SketchSnapshot {
        let norm = (-self.lambda * (query_time - self.landmark)).exp();
        SketchSnapshot::new(
            self.decayed_entries(query_time),
            self.inner.min_count() * norm,
            self.inner.rows_processed(),
            self.inner.capacity(),
        )
    }

    /// The decayed sketch's inner weighted representation, for `crate::persist`.
    pub(crate) fn inner(&self) -> &WeightedSpaceSaving {
        &self.inner
    }

    /// Rebuilds a decayed sketch from persisted parts, rejecting parameter
    /// images that violate the forward-decay invariants.
    pub(crate) fn from_persisted(
        inner: WeightedSpaceSaving,
        lambda: f64,
        landmark: f64,
        last_time: f64,
    ) -> Result<Self, String> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err("decay rate must be positive and finite".into());
        }
        if !landmark.is_finite() || !last_time.is_finite() {
            return Err("landmark and last-update time must be finite".into());
        }
        if last_time < landmark {
            return Err(format!(
                "last-update time {last_time} precedes the landmark {landmark}"
            ));
        }
        Ok(Self {
            inner,
            lambda,
            landmark,
            last_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undecayed_window_counts_exactly() {
        let mut s = DecayedSpaceSaving::with_seed(8, 0.1, 1);
        for _ in 0..5 {
            s.offer_at(1, 0.0);
        }
        // Query at the same instant: no decay has happened yet.
        assert!((s.decayed_estimate(1, 0.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn half_life_halves_the_estimate() {
        let lambda = 0.05;
        let mut s = DecayedSpaceSaving::with_seed(8, lambda, 2);
        for _ in 0..100 {
            s.offer_at(7, 0.0);
        }
        let hl = s.half_life();
        let est = s.decayed_estimate(7, hl);
        assert!((est - 50.0).abs() < 1e-6, "estimate at one half-life: {est}");
    }

    #[test]
    fn recent_items_outrank_stale_heavy_items() {
        // Item 1 is very frequent early; item 2 is moderately frequent much later.
        let lambda = 0.1;
        let mut s = DecayedSpaceSaving::with_seed(4, lambda, 3);
        for _ in 0..1000 {
            s.offer_at(1, 0.0);
        }
        for _ in 0..100 {
            s.offer_at(2, 200.0);
        }
        let top = s.top_k_decayed(1, 200.0);
        assert_eq!(top[0].0, 2, "the recent item should dominate after decay");
    }

    #[test]
    fn rescaling_does_not_change_estimates() {
        // Push arrival times far enough that the internal rescale triggers repeatedly.
        let lambda = 1.0;
        let mut s = DecayedSpaceSaving::with_seed(4, lambda, 4);
        let mut t = 0.0;
        for i in 0..500u64 {
            s.offer_at(i % 3, t);
            t += 0.5;
        }
        let total = s.decayed_total(t);
        // The decayed total of a geometric-decay stream is bounded; it must be finite,
        // positive, and close to the closed-form sum Σ exp(-λ·(t - t_i)).
        let mut expected = 0.0;
        let mut ti = 0.0;
        for _ in 0..500u64 {
            expected += (-(lambda) * (t - ti)).exp();
            ti += 0.5;
        }
        assert!((total - expected).abs() / expected < 1e-6, "{total} vs {expected}");
    }

    #[test]
    fn decayed_entries_are_consistent_with_estimates() {
        let mut s = DecayedSpaceSaving::with_seed(4, 0.2, 5);
        for i in 0..50u64 {
            s.offer_at(i % 4, i as f64);
        }
        let t = 60.0;
        for (item, decayed) in s.decayed_entries(t) {
            assert!((decayed - s.decayed_estimate(item, t)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_going_backwards_panics() {
        let mut s = DecayedSpaceSaving::with_seed(4, 0.1, 6);
        s.offer_at(1, 10.0);
        s.offer_at(2, 5.0);
    }

    #[test]
    #[should_panic(expected = "decay rate")]
    fn non_positive_lambda_panics() {
        let _ = DecayedSpaceSaving::with_seed(4, 0.0, 7);
    }
}
