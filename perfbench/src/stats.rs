//! Summaries of timing samples and deltas of the daemon's `Stats` counters.

use uss_core::HistogramSnapshot;
use uss_server::ServerStats;

use crate::daemon::{self, machine_cpu, CpuSample};

/// Samples below this count leave fewer than ten beyond the 99th percentile.
pub const P99_MIN_SAMPLES: usize = 1000;
/// Seconds per slice of a phase.
const SLICE_S: f64 = 0.25;

/// A measured phase: each request's round trip and completion time, with a
/// [`Mark`] at the start, at the first completion after every [`SLICE_S`]
/// seconds, and at the end. The marks cut the phase into slices (a tail
/// with fewer than half the requests of the slice before joins it).
///
/// The host of a shared machine steals CPU time in bursts that last
/// seconds. Every statistic is therefore taken over the *calm* slices only:
/// those whose share of stolen CPU time is at most the lower quartile of
/// the slices' shares ([`calm`]) — chosen by the host's steal counter, never
/// by the measured values. A run without steal keeps every slice. Rates are
/// medians of the calm slices' rates. A latency percentile is the median of
/// its value in each [`P99_MIN_SAMPLES`]-sample chunk of the calm samples
/// taken in order, so each chunk's p99 has ten samples beyond it and a stall
/// that slipped into a calm slice moves one chunk, not the result.
#[derive(Clone, Default)]
pub struct Samples {
    pub latency_ms: Vec<f64>,
    pub done_s: Vec<f64>,
    marks: Vec<(usize, Mark)>,
}

/// The machine's CPU and steal ticks and the daemon's CPU time at one
/// instant.
#[derive(Clone)]
struct Mark {
    total: u64,
    steal: u64,
    daemon: CpuSample,
}

impl Mark {
    fn take(pid: u32) -> Self {
        let (total, steal) = machine_cpu().unwrap_or((0, 0));
        Self {
            total,
            steal,
            daemon: daemon::cpu(pid),
        }
    }
}

/// One slice: its requests, stolen CPU share and daemon CPU nanoseconds.
struct Slice {
    requests: std::ops::Range<usize>,
    steal: f64,
    cpu_ns: f64,
}

impl Samples {
    /// Marks the start of the phase; `pid` is the daemon's.
    pub fn start(pid: u32) -> Self {
        Self {
            marks: vec![(0, Mark::take(pid))],
            ..Self::default()
        }
    }

    pub fn push(&mut self, latency_ms: f64, done_s: f64, pid: u32) {
        self.latency_ms.push(latency_ms);
        self.done_s.push(done_s);
        if done_s >= self.marks.len() as f64 * SLICE_S {
            self.marks.push((self.latency_ms.len(), Mark::take(pid)));
        }
    }

    /// Marks the end of the phase.
    pub fn finish(&mut self, pid: u32) {
        let n = self.latency_ms.len();
        if self.marks.last().is_some_and(|&(at, _)| at < n) {
            self.marks.push((n, Mark::take(pid)));
        }
        // A short tail joins the slice before it.
        let k = self.marks.len();
        if k >= 3 {
            let tail = self.marks[k - 1].0 - self.marks[k - 2].0;
            let before = self.marks[k - 2].0 - self.marks[k - 3].0;
            if 2 * tail < before {
                self.marks.remove(k - 2);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.latency_ms.len()
    }

    fn slices(&self) -> Vec<Slice> {
        self.marks
            .windows(2)
            .map(|w| {
                let ((from, a), (to, b)) = (&w[0], &w[1]);
                let total = b.total.saturating_sub(a.total).max(1);
                Slice {
                    requests: *from..*to,
                    steal: b.steal.saturating_sub(a.steal) as f64 / total as f64,
                    cpu_ns: a.daemon.until(&b.daemon),
                }
            })
            .filter(|s| !s.requests.is_empty())
            .collect()
    }

    /// The slices with at most the median share of stolen CPU time.
    fn calm(&self) -> Vec<Slice> {
        let slices = self.slices();
        let steals: Vec<f64> = slices.iter().map(|s| s.steal).collect();
        let keep = calm(&steals);
        slices
            .into_iter()
            .zip(keep)
            .filter_map(|(s, keep)| keep.then_some(s))
            .collect()
    }

    /// How many slices the phase has, how many of them are calm, the calm
    /// slices' largest stolen share, how many samples they hold and in how
    /// many chunks.
    pub fn slice_counts(&self) -> (usize, usize, f64, usize, usize) {
        let calm = self.calm();
        let samples = calm.iter().map(|s| s.requests.len()).sum();
        let steal = calm.iter().map(|s| s.steal).fold(0.0, f64::max);
        let chunks = self.chunks().len();
        (self.slices().len(), calm.len(), steal, samples, chunks)
    }

    /// Median over calm slices of their throughput, each request doing
    /// `work` units.
    pub fn rate(&self, work: f64) -> f64 {
        let rates: Vec<f64> = self
            .calm()
            .iter()
            .map(|s| {
                let r = &s.requests;
                let from = if r.start == 0 {
                    0.0
                } else {
                    self.done_s[r.start - 1]
                };
                r.len() as f64 * work / (self.done_s[r.end - 1] - from)
            })
            .collect();
        median(&rates)
    }

    /// The calm samples, in order, cut into chunks of [`P99_MIN_SAMPLES`]
    /// (a shorter remainder joins the last chunk).
    fn chunks(&self) -> Vec<Vec<f64>> {
        let values: Vec<f64> = self
            .calm()
            .iter()
            .flat_map(|s| self.latency_ms[s.requests.clone()].iter().copied())
            .collect();
        let mut chunks: Vec<Vec<f64>> = values
            .chunks(P99_MIN_SAMPLES)
            .map(<[f64]>::to_vec)
            .collect();
        if chunks.len() >= 2 && chunks[chunks.len() - 1].len() < P99_MIN_SAMPLES {
            let tail = chunks.pop().unwrap_or_default();
            if let Some(last) = chunks.last_mut() {
                last.extend(tail);
            }
        }
        chunks
    }

    /// Median over the calm samples' chunks of each chunk's quantile `p` of
    /// latency.
    pub fn latency(&self, p: f64) -> f64 {
        let values: Vec<f64> = self.chunks().iter().map(|c| percentile(c, p)).collect();
        median(&values)
    }

    /// Daemon CPU nanoseconds per work unit over the calm slices.
    pub fn cpu_per(&self, work: f64) -> f64 {
        let calm = self.calm();
        let cpu: f64 = calm.iter().map(|s| s.cpu_ns).sum();
        let requests: usize = calm.iter().map(|s| s.requests.len()).sum();
        cpu / (requests as f64 * work)
    }
}

/// Which of a run's intervals, given each one's share of CPU time stolen by
/// the host, count as calm: those at most the lower quartile of the shares.
pub fn calm(steals: &[f64]) -> Vec<bool> {
    let limit = percentile(steals, 0.25);
    steals.iter().map(|&s| s <= limit).collect()
}

/// The machine's stolen share of CPU time since `before`, a
/// [`machine_cpu`] reading.
pub fn steal_since(before: Option<(u64, u64)>) -> f64 {
    match (before, machine_cpu()) {
        (Some((total0, steal0)), Some((total1, steal1))) => {
            steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
        }
        _ => 0.0,
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..1] of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Stats array index of each request kind the benchmark reads.
pub const KIND_INGEST: usize = 3;
pub const KIND_QUERY: usize = 4;
pub const KIND_MARGINALS: usize = 5;

/// One stream's counters and the server's latency histograms, read before
/// or after a phase.
#[derive(Clone, Default)]
pub struct Snapshot {
    samples: Vec<(String, u64)>,
    latency: Vec<HistogramSnapshot>,
}

impl Snapshot {
    pub fn of(stats: &ServerStats, stream: &str) -> Self {
        Self {
            samples: stats
                .streams
                .iter()
                .find(|s| s.name == stream)
                .map(|s| s.samples.clone())
                .unwrap_or_default(),
            latency: stats.latency.clone(),
        }
    }

    /// Sum of a family over its labels (shards).
    pub fn sum(&self, family: &str) -> u64 {
        self.family(family).sum()
    }

    /// Largest value of a family over its labels.
    pub fn max(&self, family: &str) -> u64 {
        self.family(family).max().unwrap_or(0)
    }

    fn family<'a>(&'a self, family: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.samples
            .iter()
            .filter(move |(name, _)| {
                name.strip_prefix(family)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|&(_, v)| v)
    }

    /// The latency histogram of one request kind recorded since `before`.
    pub fn latency_since(&self, before: &Snapshot, kind: usize) -> HistogramSnapshot {
        let after = self.latency.get(kind).cloned().unwrap_or_default();
        let Some(before) = before.latency.get(kind) else {
            return after;
        };
        let buckets: Vec<(u8, u64)> = after
            .buckets
            .iter()
            .map(|&(i, n)| {
                let old = before.buckets.iter().find(|b| b.0 == i).map_or(0, |b| b.1);
                (i, n.saturating_sub(old))
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        HistogramSnapshot {
            count: buckets.iter().map(|b| b.1).sum(),
            sum: after.sum.saturating_sub(before.sum),
            buckets,
        }
    }
}

/// Quantile `p` of a log2 histogram, interpolated linearly inside the
/// bucket that holds the rank (bucket `i` spans `[2^(i-1), 2^i)`), so the
/// result moves smoothly instead of in factor-of-two steps.
pub fn histogram_quantile(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (p * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for &(index, n) in &h.buckets {
        let n = n as f64;
        if seen + n >= rank {
            let lo = if index == 0 {
                0.0
            } else {
                (1u64 << (index - 1)) as f64
            };
            let hi = if index == 0 { 1.0 } else { lo * 2.0 };
            return lo + (hi - lo) * (rank - seen) / n;
        }
        seen += n;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn samples(latency: &[f64], done: &[f64], marks: Vec<(usize, u64, u64)>) -> Samples {
        Samples {
            latency_ms: latency.to_vec(),
            done_s: done.to_vec(),
            marks: marks
                .into_iter()
                .map(|(at, steal, cpu)| {
                    let daemon = CpuSample(HashMap::from([("1".to_string(), cpu)]));
                    (
                        at,
                        Mark {
                            total: at as u64 * 100,
                            steal,
                            daemon,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn statistics_are_taken_over_the_calm_slices() {
        // Four slices of 1000 requests, 1, 2, 4 and 8 ms apart; the host
        // stole CPU time during the last one only.
        let mut latency = Vec::new();
        let mut done = Vec::new();
        let mut t = 0.0;
        for (k, gap) in [1e-3, 2e-3, 4e-3, 8e-3].into_iter().enumerate() {
            for x in 1..=1000 {
                t += gap;
                done.push(t);
                latency.push(f64::from(x) + 1000.0 * k as f64);
            }
        }
        let marks = vec![
            (0, 0, 0),
            (1000, 0, 1e6 as u64),
            (2000, 0, 2e6 as u64),
            (3000, 0, 3e6 as u64),
            (4000, 50_000, 9e6 as u64),
        ];
        let s = samples(&latency, &done, marks);
        assert_eq!(s.slice_counts(), (4, 3, 0.0, 3000, 3));
        // Rates 2000, 1000, 500 per second for work 2: the median is 1000.
        assert!((s.rate(2.0) - 1000.0).abs() < 1e-6);
        // Chunks 1..=1000, 1001..=2000, 2001..=3000: the middle one's.
        assert_eq!(s.latency(0.99), 1990.0);
        assert_eq!(s.latency(0.5), 1500.0);
        assert!((s.cpu_per(1.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn a_short_tail_joins_the_last_slice() {
        let latency: Vec<f64> = (1..=2400).map(f64::from).collect();
        let done: Vec<f64> = (1..=2400).map(|k| f64::from(k) * 1e-3).collect();
        let mut s = samples(&latency, &done, vec![(0, 0, 0), (1000, 0, 0), (2000, 0, 0)]);
        s.finish(0);
        let ranges: Vec<_> = s.slices().into_iter().map(|s| s.requests).collect();
        assert_eq!(ranges, vec![0..1000, 1000..2400]);
    }

    #[test]
    fn a_short_remainder_joins_the_last_chunk() {
        let latency: Vec<f64> = (1..=2500).map(f64::from).collect();
        let done: Vec<f64> = (1..=2500).map(|k| f64::from(k) * 1e-3).collect();
        let s = samples(&latency, &done, vec![(0, 0, 0), (2500, 0, 0)]);
        let lens: Vec<usize> = s.chunks().iter().map(Vec::len).collect();
        assert_eq!(lens, vec![1000, 1500]);
        // p99 of 1..=1000 is 990, of 1001..=2500 is 2485.
        assert_eq!(s.latency(0.99), (990.0 + 2485.0) / 2.0);
    }

    #[test]
    fn calm_keeps_the_lower_quartile_of_steal() {
        let steals = [0.3, 0.0, 0.1, 0.0, 0.2, 0.05, 0.0, 0.4];
        let kept: Vec<bool> = calm(&steals);
        assert_eq!(kept, [false, true, false, true, false, false, true, false]);
        assert!(calm(&[0.0; 5]).iter().all(|&k| k));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_a_bucket() {
        // 100 values of bit width 11, i.e. in [1024, 2048).
        let h = HistogramSnapshot {
            buckets: vec![(11, 100)],
            count: 100,
            sum: 150_000,
        };
        assert_eq!(histogram_quantile(&h, 0.5), 1536.0);
        let before = Snapshot {
            samples: Vec::new(),
            latency: vec![HistogramSnapshot {
                buckets: vec![(11, 40)],
                count: 40,
                sum: 60_000,
            }],
        };
        let after = Snapshot {
            samples: vec![
                ("uss_ring_full_total{stream=\"s\",shard=\"0\"}".into(), 3),
                ("uss_ring_full_total{stream=\"s\",shard=\"1\"}".into(), 4),
                ("uss_ring_full_totals{stream=\"s\"}".into(), 100),
            ],
            latency: vec![h],
        };
        let delta = after.latency_since(&before, 0);
        assert_eq!((delta.count, delta.sum), (60, 90_000));
        assert_eq!(after.sum("uss_ring_full_total"), 7);
        assert_eq!(after.max("uss_ring_full_total"), 4);
    }
}
