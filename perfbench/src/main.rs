//! End-to-end benchmark of the `uss_serverd` sketch daemon.
//!
//! ```text
//! perfbench --daemon PATH --workload ingest|query --seed N
//!           --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Spawns the daemon binary at `PATH` as a child process on an ephemeral
//! loopback port and drives it with `SketchClient` from this one process.
//! Every workload creates one stream (2 shards, capacity 1024) fed from a
//! seeded skewed item stream, measures for `--seconds`, checks
//! the answers and the daemon's row counters, and prints every metric by
//! name and unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! also writes its spans and counter deltas to
//! `.bench_trace/<workload>-seed<N>.json`. `--tiny` shrinks every phase for
//! smoke tests. See `README.md` beside this crate for the design.

mod daemon;
mod gen;
mod layers;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uss_core::{Query, QueryAnswer, TimeRange};
use uss_server::{ClientError, SketchClient};
use uss_workloads::true_subset_sum;

use daemon::{Children, Daemon};
use gen::{Inputs, QuerySpec};
use stats::{histogram_quantile, mean, median, Samples, Snapshot};
use trace::Tracer;

/// The stream every workload uses.
pub const STREAM: &str = "bench";
/// Confidence level of every interval the benchmark asks for.
const CONFIDENCE: f64 = 0.95;
/// The run stops itself (and its daemons) after this long, whatever happens.
const WATCHDOG: Duration = Duration::from_secs(165);
/// Share of `--seconds` given to the pass after the timed phase, which
/// measures the path the workload leaves idle.
const PASS_SHARE: f64 = 0.5;
const WORK_DIR: &str = ".bench_work";
const TRACE_DIR: &str = ".bench_trace";

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("ingest_cpu_ns_per_row", "ns"),
    ("query_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_cpu_us_per_query", "us"),
    ("restart_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("subset_rel_err", "ratio"),
    ("ci_coverage_95", "ratio"),
    ("topk_recall", "ratio"),
];

/// `(name, unit)` of every per-layer metric, in output order.
const PER_LAYER: [(&str, &str); 28] = [
    ("wire.ingest_frame_bytes", "bytes"),
    ("wire.ingest_decode_us", "us"),
    ("wire.answer_encode_us", "us"),
    ("wire.answer_bytes", "bytes"),
    ("server.ingest_p50_us", "us"),
    ("server.query_p50_us", "us"),
    ("server.marginals_p50_us", "us"),
    ("client.rtt_overhead_us", "us"),
    ("temporal.push_batch_us", "us"),
    ("temporal.rotations", "count"),
    ("temporal.tier_compactions", "count"),
    ("summary.apply_ns_per_row", "ns"),
    ("spsc.push_retries_per_mrow", "count/Mrow"),
    ("spsc.producer_parks_per_mrow", "count/Mrow"),
    ("spsc.ring_highwater_blocks", "blocks"),
    ("temporal.capture_miss_us", "us"),
    ("temporal.capture_hit_us", "us"),
    ("temporal.cache_hit_ratio", "ratio"),
    ("temporal.ladder_repaired_per_query", "count"),
    ("merge.fold_us", "us"),
    ("query.answer_us", "us"),
    ("query.marginals_us", "us"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.restore_ms", "ms"),
    ("restart.shutdown_ms", "ms"),
    ("restart.boot_ms", "ms"),
    ("restart.first_answer_ms", "ms"),
];

#[derive(Clone, Copy)]
enum Workload {
    Ingest,
    Query,
}

struct Args {
    daemon: PathBuf,
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut daemon = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value:?}"))
        };
        match flag.as_str() {
            "--daemon" => daemon = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = match workload_name.as_str() {
        "ingest" => Workload::Ingest,
        "query" => Workload::Query,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        daemon: daemon.ok_or("--daemon is required")?,
        workload,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Phase sizes. The measured phases run for a share of `--seconds`.
struct Scale {
    /// Times set-up is repeated; `setup_s` is the median.
    setup_reps: usize,
    /// Batches of the `query` workload's history (and of the layer probes).
    history: u64,
    /// Untimed batches before every measured ingest phase.
    ingest_warmup: u64,
    /// Restart cycles measured (`restart_ms` is their median).
    restarts: usize,
    /// Untimed queries before every measured query phase.
    query_warmup: usize,
    /// Accuracy subsets evaluated.
    subsets: usize,
}

impl Scale {
    fn new(tiny: bool) -> Self {
        if tiny {
            Self {
                setup_reps: 1,
                history: 64,
                ingest_warmup: 8,
                restarts: 2,
                query_warmup: 10,
                subsets: 40,
            }
        } else {
            Self {
                setup_reps: 5,
                history: 512,
                ingest_warmup: 128,
                restarts: 20,
                query_warmup: 200,
                subsets: 500,
            }
        }
    }
}

/// Requests attempted and failed, plus the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, ClientError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{what}: {err}"));
                }
                None
            }
        }
    }
}

/// A live daemon, the benchmark's main connection to it and its data dir.
struct Node {
    client: SketchClient,
    daemon: Daemon,
    dir: PathBuf,
}

/// How far the stream has been fed.
#[derive(Default, Clone, Copy)]
struct Fed {
    /// Batches acknowledged; the next batch index. Batches are sent in order
    /// and every one is acknowledged (a failure fails the run).
    batches: u64,
    rows_sent: u64,
    rows_acked: u64,
    /// Rows acknowledged by the current daemon process (worker row counters
    /// start from zero after a restart).
    rows_this_process: u64,
}

/// One ingest phase.
#[derive(Default)]
struct IngestPhase {
    rows: u64,
    wall_s: f64,
    samples: Samples,
    before: Snapshot,
    after: Snapshot,
}

/// One query phase.
#[derive(Default)]
struct QueryPhase {
    queries: u64,
    wall_s: f64,
    samples: Samples,
    before: Snapshot,
    after: Snapshot,
}

/// The restart cycles, in milliseconds, with each cycle's share of CPU time
/// stolen by the host.
#[derive(Default)]
struct Restarts {
    total: Vec<f64>,
    shutdown: Vec<f64>,
    boot: Vec<f64>,
    first_answer: Vec<f64>,
    steal: Vec<f64>,
}

impl Restarts {
    /// Median of one of the timings over the calm cycles.
    fn median(&self, times: &[f64]) -> f64 {
        let calm: Vec<f64> = times
            .iter()
            .zip(stats::calm(&self.steal))
            .filter_map(|(&t, keep)| keep.then_some(t))
            .collect();
        median(&calm)
    }
}

/// Everything a workload measured.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    ingest: IngestPhase,
    query: QueryPhase,
    restarts: Restarts,
    peak_rss_mb: f64,
    accuracy: (f64, f64, f64),
}

struct Ctx<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    scale: Scale,
    work: PathBuf,
    children: Arc<Children>,
    tally: Tally,
    /// Failed correctness checks.
    wrong: Vec<String>,
    trace: Tracer,
    fed: Fed,
}

impl Ctx<'_> {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.wrong.len() < 10 {
            self.wrong.push(what());
        }
    }

    fn spawn(&mut self, dir: &Path) -> Result<Node, String> {
        let daemon = Daemon::spawn(&self.args.daemon, dir, &self.children)?;
        let client = daemon.connect()?;
        Ok(Node {
            client,
            daemon,
            dir: dir.to_path_buf(),
        })
    }

    fn stats(&mut self, node: &mut Node) -> Snapshot {
        let stats = self.tally.record("stats", node.client.stats());
        stats.map_or_else(Snapshot::default, |s| Snapshot::of(&s, STREAM))
    }

    /// Spawns a fresh daemon in a fresh data dir and creates the stream.
    fn fresh_node(&mut self, rep: usize) -> Result<Node, String> {
        let dir = daemon::fresh_dir(&self.work, &format!("data-{rep}"))?;
        let mut node = self.spawn(&dir)?;
        let created = self.tally.record(
            "create_stream",
            node.client.create_stream(STREAM, gen::spec(self.args.seed)),
        );
        self.check(created == Some(true), || {
            "create_stream did not create".into()
        });
        self.fed = Fed::default();
        Ok(node)
    }

    /// Sends batches in a closed loop until `stop`.
    fn ingest(&mut self, node: &mut Node, stop: Stop, parent: usize) -> IngestPhase {
        let mut phase = IngestPhase {
            before: self.stats(node),
            ..IngestPhase::default()
        };
        let mut rows = Vec::with_capacity(gen::BATCH_ROWS);
        let pid = node.daemon.pid();
        phase.samples = Samples::start(pid);
        let started = Instant::now();
        let first = self.fed.batches;
        while !stop.done(started, self.fed.batches - first) {
            self.inputs.fill_batch(self.fed.batches, &mut rows);
            let span = self.trace.begin("client.ingest", parent);
            let sent = Instant::now();
            let acked = self
                .tally
                .record("ingest", node.client.ingest(STREAM, &rows));
            let latency = sent.elapsed().as_secs_f64() * 1e3;
            phase
                .samples
                .push(latency, started.elapsed().as_secs_f64(), pid);
            self.trace.end(span);
            self.account(rows.len() as u64, acked);
            phase.rows += rows.len() as u64;
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        phase.samples.finish(pid);
        phase.after = self.stats(node);
        phase
    }

    fn account(&mut self, sent: u64, acked: Option<u64>) {
        let acked = acked.unwrap_or(0);
        self.fed.batches += 1;
        self.fed.rows_sent += sent;
        self.fed.rows_acked += acked;
        self.fed.rows_this_process += acked;
    }

    /// Runs the query mix in a closed loop on a quiesced stream until `stop`,
    /// checking each answer's row count against the rows in its buckets.
    fn queries(
        &mut self,
        node: &mut Node,
        stop: Stop,
        parent: usize,
        next: &mut usize,
    ) -> QueryPhase {
        let mut phase = QueryPhase {
            before: self.stats(node),
            ..QueryPhase::default()
        };
        let newest = gen::newest_bucket(self.fed.batches);
        let pid = node.daemon.pid();
        phase.samples = Samples::start(pid);
        let started = Instant::now();
        while !stop.done(started, phase.queries) {
            let spec = &self.inputs.queries[*next % self.inputs.queries.len()];
            *next += 1;
            let span = self.trace.begin("client.query", parent);
            let sent = Instant::now();
            let rows = ask(&mut node.client, spec, newest);
            let latency = sent.elapsed().as_secs_f64() * 1e3;
            phase
                .samples
                .push(latency, started.elapsed().as_secs_f64(), pid);
            self.trace.end(span);
            phase.queries += 1;
            if let Some(rows) = self.tally.record("query", rows) {
                let (start, end) = spec.buckets(newest);
                let expected = rows_in(start, end, self.fed.batches);
                self.check(rows == expected, || {
                    format!("range [{start}, {end}) answered {rows} rows, expected {expected}")
                });
            }
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        phase.samples.finish(pid);
        phase.after = self.stats(node);
        phase
    }

    /// Asks a whole-history top-k, which quiesces the stream, and checks
    /// that every acknowledged row is in the answer and in the counters.
    fn check_conservation(&mut self, node: &mut Node, parent: usize) {
        let span = self.trace.begin("client.query", parent);
        let answer = node
            .client
            .query(STREAM, &TimeRange::All, &Query::TopK { k: 10 });
        self.trace.end(span);
        let fed = self.fed;
        if let Some((rows, _)) = self.tally.record("quiesce", answer) {
            self.check(rows == fed.rows_acked, || {
                format!(
                    "whole-history answer holds {rows} rows, {} acknowledged",
                    fed.rows_acked
                )
            });
        }
        self.check(fed.rows_acked == fed.rows_sent, || {
            format!(
                "{} rows acknowledged of {} sent",
                fed.rows_acked, fed.rows_sent
            )
        });
        let Some(stats) = self.tally.record("stats", node.client.stats()) else {
            return;
        };
        let ingested = stats
            .streams
            .iter()
            .find(|s| s.name == STREAM)
            .map(|s| s.rows_ingested);
        self.check(ingested == Some(fed.rows_acked), || {
            format!(
                "Stats rows_ingested {ingested:?}, {} acknowledged",
                fed.rows_acked
            )
        });
        let applied = Snapshot::of(&stats, STREAM).sum("uss_ingest_rows_total");
        self.check(applied == fed.rows_this_process, || {
            format!(
                "workers applied {applied} rows, this daemon acknowledged {}",
                fed.rows_this_process
            )
        });
    }

    /// Starts the daemon on the node's data dir and times it to its first
    /// answer: `(node, boot_ms, first_answer_ms)`.
    fn boot(&mut self, dir: &Path, parent: usize) -> Result<(Node, f64, f64), String> {
        let span = self.trace.begin("restart.boot", parent);
        let started = Instant::now();
        let mut node = self.spawn(dir)?;
        self.tally.record("ping", node.client.ping());
        let booted = Instant::now();
        self.trace.end(span);
        let span = self.trace.begin("restart.first_answer", parent);
        let answer = node
            .client
            .query(STREAM, &TimeRange::All, &Query::TopK { k: 10 });
        let answered = Instant::now();
        self.trace.end(span);
        let acked = self.fed.rows_acked;
        if let Some((rows, _)) = self.tally.record("first answer", answer) {
            self.check(rows == acked, || {
                format!("restored daemon answered {rows} rows, {acked} acknowledged")
            });
        }
        self.fed.rows_this_process = 0;
        Ok((
            node,
            (booted - started).as_secs_f64() * 1e3,
            (answered - booted).as_secs_f64() * 1e3,
        ))
    }

    /// Shutdown request sent → process exit → respawn → first answer.
    fn restart(&mut self, node: Node, out: &mut Restarts, parent: usize) -> Result<Node, String> {
        let Node {
            mut client,
            daemon,
            dir,
        } = node;
        let span = self.trace.begin("restart.shutdown", parent);
        let cpu = daemon::machine_cpu();
        let started = Instant::now();
        self.tally.record("shutdown", client.shutdown_server());
        drop(client);
        daemon.wait_exit()?;
        let exited = Instant::now();
        self.trace.end(span);
        let (node, boot, first) = self.boot(&dir, parent)?;
        out.total.push(started.elapsed().as_secs_f64() * 1e3);
        out.shutdown.push((exited - started).as_secs_f64() * 1e3);
        out.boot.push(boot);
        out.first_answer.push(first);
        out.steal.push(stats::steal_since(cpu));
        Ok(node)
    }

    /// Subset sums over the whole history and the most recent fine buckets,
    /// against exact counts: `(mean relative error, CI coverage, top-10 recall)`.
    fn accuracy(&mut self, node: &mut Node) -> (f64, f64, f64) {
        let batches = self.fed.batches;
        let newest = gen::newest_bucket(batches);
        let recent_start = (newest + 1).saturating_sub(gen::RECENT_BUCKETS);
        let ranges = [
            (TimeRange::All, self.inputs.exact_counts(0, batches)),
            (
                gen::between(recent_start, newest + 1),
                self.inputs
                    .exact_counts(recent_start * gen::BATCHES_PER_BUCKET, batches),
            ),
        ];
        let mut errors = Vec::new();
        let mut covered = 0usize;
        for subset in self.inputs.subsets.iter().take(self.scale.subsets) {
            let query = Query::SubsetSum {
                items: self.inputs.keys_of(subset),
            };
            for (range, exact) in &ranges {
                let truth = true_subset_sum(exact, subset);
                let answer = node
                    .client
                    .query_with_confidence(STREAM, range, &query, CONFIDENCE);
                let Some((_, QueryAnswer::Estimate { estimate, ci })) =
                    self.tally.record("accuracy", answer)
                else {
                    continue;
                };
                if truth > 0 {
                    errors.push((estimate.sum - truth as f64).abs() / truth as f64);
                    covered += usize::from(ci.contains(truth as f64));
                }
            }
        }
        let mut exact_top: Vec<(u64, usize)> = ranges[0]
            .1
            .iter()
            .enumerate()
            .map(|(ad, &n)| (n, ad))
            .collect();
        exact_top.sort_unstable_by(|a, b| b.cmp(a));
        let top = node
            .client
            .query(STREAM, &TimeRange::All, &Query::TopK { k: 10 });
        let recall = match self.tally.record("accuracy top-k", top) {
            Some((_, QueryAnswer::Items(items))) => {
                let hits = items
                    .iter()
                    .filter(|(item, _)| exact_top[..10].iter().any(|e| e.1 == gen::ad_of(*item)))
                    .count();
                hits as f64 / 10.0
            }
            _ => 0.0,
        };
        let coverage = covered as f64 / errors.len().max(1) as f64;
        (mean(&errors), coverage, recall)
    }
}

/// When a closed loop stops: after a count of requests or at a deadline.
#[derive(Clone, Copy)]
enum Stop {
    Count(u64),
    After(f64),
}

impl Stop {
    fn done(self, started: Instant, done: u64) -> bool {
        match self {
            Stop::Count(n) => done >= n,
            Stop::After(secs) => started.elapsed().as_secs_f64() >= secs,
        }
    }
}

/// Sends one query of the mix; returns the rows of the snapshot that
/// answered.
fn ask(client: &mut SketchClient, spec: &QuerySpec, newest: u64) -> Result<u64, ClientError> {
    let range = spec.range(newest);
    match &spec.query {
        Some(query) => client
            .query_with_confidence(STREAM, &range, query, CONFIDENCE)
            .map(|(rows, _)| rows),
        None => client
            .marginals(
                STREAM,
                &range,
                gen::MARGINAL_SHIFT,
                gen::MARGINAL_MASK,
                CONFIDENCE,
            )
            .map(|(rows, _)| rows),
    }
}

/// Rows in fine buckets `[start, end)` once batches `0..batches` are in.
fn rows_in(start: u64, end: u64, batches: u64) -> u64 {
    let per_bucket = gen::BATCHES_PER_BUCKET;
    (end * per_bucket)
        .min(batches)
        .saturating_sub(start * per_bucket)
        * gen::BATCH_ROWS as u64
}

/// The `ingest` workload: set-up ends with an untimed warm-up; the timed
/// phase streams batches in a closed loop. Afterwards a query pass
/// (quiesced), accuracy, and restart cycles.
fn run_ingest(
    ctx: &mut Ctx<'_>,
    m: &mut Measured,
    halves: &mut Vec<Measured>,
) -> Result<(), String> {
    let mut node = None;
    for rep in 0..ctx.scale.setup_reps {
        let started = Instant::now();
        let mut fresh = ctx.fresh_node(rep)?;
        let warmup = ctx.scale.ingest_warmup;
        ctx.ingest(&mut fresh, Stop::Count(warmup), 0);
        m.setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = node.replace(fresh) {
            old.daemon.kill();
        }
    }
    let mut node = node.ok_or("no set-up ran")?;
    for (secs, traced) in timed_halves(ctx) {
        ctx.trace.set_enabled(traced);
        let root = ctx.trace.begin("phase.ingest", 0);
        let phase = ctx.ingest(&mut node, Stop::After(secs), root);
        ctx.trace.end(root);
        halves.push(Measured {
            ingest: phase,
            ..Measured::default()
        });
    }
    m.ingest = std::mem::take(&mut halves.last_mut().ok_or("no timed phase")?.ingest);
    let root = ctx.trace.begin("phase.query_pass", 0);
    ctx.check_conservation(&mut node, root);
    let mut next = 0;
    let warmup = ctx.scale.query_warmup as u64;
    ctx.queries(&mut node, Stop::Count(warmup), root, &mut next);
    m.query = ctx.queries(&mut node, pass(ctx), root, &mut next);
    ctx.trace.end(root);
    finish(ctx, m, node, true)
}

/// The `query` workload: set-up preloads a fixed history and shuts the
/// daemon down (a checkpoint). The timed phase boots from it, runs restart
/// cycles, then a warm-up and the closed-loop query mix.
fn run_query(
    ctx: &mut Ctx<'_>,
    m: &mut Measured,
    halves: &mut Vec<Measured>,
) -> Result<(), String> {
    let mut dir = PathBuf::new();
    for rep in 0..ctx.scale.setup_reps {
        let started = Instant::now();
        let mut node = ctx.fresh_node(rep)?;
        let history = ctx.scale.history;
        ctx.ingest(&mut node, Stop::Count(history), 0);
        ctx.check_conservation(&mut node, 0);
        ctx.tally.record("shutdown", node.client.shutdown_server());
        let Node {
            client,
            daemon,
            dir: d,
        } = node;
        drop(client);
        daemon.wait_exit()?;
        m.setup_s.push(started.elapsed().as_secs_f64());
        dir = d;
    }
    let mut next = 0;
    let mut node = None;
    for (secs, traced) in timed_halves(ctx) {
        ctx.trace.set_enabled(traced);
        let root = ctx.trace.begin("phase.query", 0);
        let started = Instant::now();
        let mut half = Measured::default();
        let mut live = match node.take() {
            Some(live) => live,
            None => ctx.boot(&dir, root)?.0,
        };
        for _ in 0..ctx.scale.restarts {
            live = ctx.restart(live, &mut half.restarts, root)?;
        }
        let warmup = ctx.scale.query_warmup as u64;
        ctx.queries(&mut live, Stop::Count(warmup), root, &mut next);
        let left = (secs - started.elapsed().as_secs_f64()).max(0.05);
        half.query = ctx.queries(&mut live, Stop::After(left), root, &mut next);
        ctx.trace.end(root);
        node = Some(live);
        halves.push(half);
    }
    let last = halves.last_mut().ok_or("no timed phase")?;
    m.query = std::mem::take(&mut last.query);
    m.restarts = std::mem::take(&mut last.restarts);
    let mut node = node.ok_or("no timed phase")?;
    ctx.check_conservation(&mut node, 0);
    let root = ctx.trace.begin("phase.ingest_pass", 0);
    let warmup = ctx.scale.ingest_warmup;
    ctx.ingest(&mut node, Stop::Count(warmup), root);
    m.ingest = ctx.ingest(&mut node, pass(ctx), root);
    ctx.trace.end(root);
    ctx.check_conservation(&mut node, 0);
    finish(ctx, m, node, false)
}

/// The timed phase as `(seconds, traced)` passes: one untraced pass, or in
/// a traced run an untraced and a traced half, so their difference is the
/// tracing overhead.
fn timed_halves(ctx: &Ctx<'_>) -> Vec<(f64, bool)> {
    let secs = ctx.args.seconds * (1.0 - PASS_SHARE);
    if ctx.args.trace {
        vec![(secs / 2.0, false), (secs / 2.0, true)]
    } else {
        vec![(secs, false)]
    }
}

/// The pass after the timed phase, over the rest of `--seconds`.
fn pass(ctx: &Ctx<'_>) -> Stop {
    Stop::After(ctx.args.seconds * PASS_SHARE)
}

/// Accuracy, peak memory and (when `restarts`) restart cycles, then a clean
/// shutdown.
fn finish(
    ctx: &mut Ctx<'_>,
    m: &mut Measured,
    mut node: Node,
    restarts: bool,
) -> Result<(), String> {
    m.accuracy = ctx.accuracy(&mut node);
    m.peak_rss_mb = node.daemon.peak_rss_mb();
    if restarts {
        let root = ctx.trace.begin("phase.restarts", 0);
        for _ in 0..ctx.scale.restarts {
            node = ctx.restart(node, &mut m.restarts, root)?;
        }
        ctx.trace.end(root);
    }
    ctx.tally.record("shutdown", node.client.shutdown_server());
    let Node { client, daemon, .. } = node;
    drop(client);
    daemon.wait_exit()
}

/// The end-to-end metrics, in [`END_TO_END`] order.
fn end_to_end(m: &Measured) -> Vec<f64> {
    let i = &m.ingest;
    let q = &m.query;
    vec![
        median(&m.setup_s),
        i.samples.rate(gen::BATCH_ROWS as f64),
        i.samples.latency(0.5),
        i.samples.latency(0.99),
        i.samples.cpu_per(gen::BATCH_ROWS as f64),
        q.samples.rate(1.0),
        q.samples.latency(0.5),
        q.samples.latency(0.99),
        q.samples.cpu_per(1.0) / 1e3,
        m.restarts.median(&m.restarts.total),
        m.peak_rss_mb,
        m.accuracy.0,
        m.accuracy.1,
        m.accuracy.2,
    ]
}

/// The per-layer metrics the run itself measured (the rest come from the
/// in-process probes).
fn per_layer_from_run(m: &Measured) -> Vec<layers::Metric> {
    let i = &m.ingest;
    let q = &m.query;
    let mrows = i.rows.max(1) as f64 / 1e6;
    let delta =
        |s: &IngestPhase, family: &str| s.after.sum(family).saturating_sub(s.before.sum(family));
    let qdelta = |family: &str| q.after.sum(family).saturating_sub(q.before.sum(family));
    let query_hist = q.after.latency_since(&q.before, stats::KIND_QUERY);
    let marg_hist = q.after.latency_since(&q.before, stats::KIND_MARGINALS);
    let server_mean_us = (query_hist.sum + marg_hist.sum) as f64
        / 1e3
        / (query_hist.count + marg_hist.count).max(1) as f64;
    let hits = qdelta("uss_range_cache_hits_total");
    let misses = qdelta("uss_range_cache_misses_total");
    vec![
        (
            "server.ingest_p50_us",
            histogram_quantile(&i.after.latency_since(&i.before, stats::KIND_INGEST), 0.5) / 1e3,
        ),
        (
            "server.query_p50_us",
            histogram_quantile(&query_hist, 0.5) / 1e3,
        ),
        (
            "server.marginals_p50_us",
            histogram_quantile(&marg_hist, 0.5) / 1e3,
        ),
        (
            "client.rtt_overhead_us",
            mean(&q.samples.latency_ms) * 1e3 - server_mean_us,
        ),
        (
            "temporal.rotations",
            delta(i, "uss_temporal_rotations_total") as f64,
        ),
        (
            "temporal.tier_compactions",
            delta(i, "uss_temporal_tier_compactions_total") as f64,
        ),
        (
            "spsc.push_retries_per_mrow",
            delta(i, "uss_ring_full_total") as f64 / mrows,
        ),
        (
            "spsc.producer_parks_per_mrow",
            delta(i, "uss_ring_producer_parks_total") as f64 / mrows,
        ),
        (
            "spsc.ring_highwater_blocks",
            i.after.max("uss_ring_occupancy_high_water") as f64,
        ),
        (
            "temporal.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "temporal.ladder_repaired_per_query",
            qdelta("uss_ladder_repaired_at_query_total") as f64 / q.queries.max(1) as f64,
        ),
        (
            "restart.shutdown_ms",
            m.restarts.median(&m.restarts.shutdown),
        ),
        ("restart.boot_ms", m.restarts.median(&m.restarts.boot)),
        (
            "restart.first_answer_ms",
            m.restarts.median(&m.restarts.first_answer),
        ),
    ]
}

/// The metrics as a JSON object in `names` order.
fn json_metrics(
    names: &[(&str, &str)],
    values: &[(&str, f64)],
    require_positive: bool,
) -> Result<String, String> {
    let mut out = String::from("{");
    for (k, (name, unit)) in names.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        // Every metric is positive when measured: a zero or a non-number
        // means a phase recorded nothing.
        if !value.is_finite() || (value <= 0.0 && require_positive) {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    Ok(out)
}

/// The human-readable report lines printed before the result.
fn report(args: &Args, m: &Measured, halves: &[Measured]) {
    let i = &m.ingest;
    let q = &m.query;
    println!(
        "# workload {} seed {} cores {} shards {} capacity {}",
        args.workload_name,
        args.seed,
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        gen::SHARDS,
        gen::CAPACITY
    );
    println!(
        "# setup: {} repetitions, median {:.3} s",
        m.setup_s.len(),
        median(&m.setup_s)
    );
    println!(
        "# ingest: {} batches of {} rows in {:.2} s",
        i.samples.len(),
        gen::BATCH_ROWS,
        i.wall_s
    );
    println!("# query: {} requests in {:.2} s", q.samples.len(), q.wall_s);
    for (name, samples) in [("ingest", &i.samples), ("query", &q.samples)] {
        let (slices, calm, steal, n, chunks) = samples.slice_counts();
        println!(
            "# {name}: rate the median over the {calm} calmest of {slices} slices (at most {:.0}% stolen); p50 and p99 the medians over {chunks} chunks of their {n} samples",
            steal * 100.0
        );
        if n < stats::P99_MIN_SAMPLES {
            println!("# {name}_p99_ms has fewer than ten samples beyond it");
        }
        let tail: Vec<String> = [0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
            .iter()
            .map(|&p| format!("p{} {:.3}", p * 100.0, samples.latency(p)))
            .collect();
        println!("# {name} latency ms: {}", tail.join(", "));
    }
    let calm = stats::calm(&m.restarts.steal);
    println!(
        "# restart: median over the {} calmest of {} cycles",
        calm.iter().filter(|&&k| k).count(),
        m.restarts.total.len()
    );
    for (name, unit, a, b) in overhead(m, halves) {
        println!(
            "# tracing overhead {name}: untraced {a:.4} {unit}, traced {b:.4} {unit}, difference {:+.4} {unit} ({:+.1}%)",
            b - a,
            (b - a) / a * 100.0
        );
    }
}

/// `(name, unit, untraced, traced)` for every end-to-end metric the two
/// timed halves of a traced run measured; empty for an untraced run.
fn overhead(m: &Measured, halves: &[Measured]) -> Vec<(&'static str, &'static str, f64, f64)> {
    let [untraced, traced] = halves else {
        return Vec::new();
    };
    let a = end_to_end(&complete(untraced, m));
    let b = end_to_end(&complete(traced, m));
    END_TO_END
        .iter()
        .zip(a.into_iter().zip(b))
        .filter(|&(_, (a, b))| a != b && a.is_finite() && b.is_finite() && a != 0.0)
        .map(|(&(name, unit), (a, b))| (name, unit, a, b))
        .collect()
}

/// A timed half with the run's other measurements filled in, so only the
/// half's own metrics differ between halves.
fn complete(half: &Measured, m: &Measured) -> Measured {
    let pick_ingest = |p: &IngestPhase| IngestPhase {
        rows: p.rows,
        wall_s: p.wall_s,
        samples: p.samples.clone(),
        ..IngestPhase::default()
    };
    let pick_query = |p: &QueryPhase| QueryPhase {
        queries: p.queries,
        wall_s: p.wall_s,
        samples: p.samples.clone(),
        ..QueryPhase::default()
    };
    let restarts = if half.restarts.total.is_empty() {
        &m.restarts
    } else {
        &half.restarts
    };
    Measured {
        setup_s: m.setup_s.clone(),
        ingest: pick_ingest(if half.ingest.rows > 0 {
            &half.ingest
        } else {
            &m.ingest
        }),
        query: pick_query(if half.query.queries > 0 {
            &half.query
        } else {
            &m.query
        }),
        restarts: Restarts {
            total: restarts.total.clone(),
            steal: restarts.steal.clone(),
            ..Restarts::default()
        },
        peak_rss_mb: m.peak_rss_mb,
        accuracy: m.accuracy,
    }
}

fn run(args: &Args, children: &Arc<Children>) -> Result<(String, bool), String> {
    let cpu_before = daemon::machine_cpu();
    let inputs = Inputs::new(args.seed);
    let work = daemon::fresh_dir(Path::new(WORK_DIR), &format!("run-{}", std::process::id()))?;
    let mut ctx = Ctx {
        args,
        inputs: &inputs,
        scale: Scale::new(args.tiny),
        work: work.clone(),
        children: Arc::clone(children),
        tally: Tally::default(),
        wrong: Vec::new(),
        trace: Tracer::new(),
        fed: Fed::default(),
    };
    let mut m = Measured::default();
    let mut halves = Vec::new();
    let outcome = match args.workload {
        Workload::Ingest => run_ingest(&mut ctx, &mut m, &mut halves),
        Workload::Query => run_query(&mut ctx, &mut m, &mut halves),
    };
    children.kill_all();
    outcome?;
    report(args, &m, &halves);
    // Time the hypervisor gave this machine's CPUs to other guests: the
    // main cause of run-to-run spread on a shared host.
    println!(
        "# machine: {:.1}% of CPU time was stolen by the host during the run",
        stats::steal_since(cpu_before) * 100.0
    );

    let metrics = if args.trace {
        ctx.trace.set_enabled(true);
        let history = ctx.scale.history;
        let mut values = layers::probe(
            &inputs,
            gen::spec(args.seed),
            history,
            &work.join("probe"),
            &mut ctx.trace,
        )?;
        values.extend(per_layer_from_run(&m));
        let body = json_metrics(&PER_LAYER, &values, false)?;
        write_trace(args, &ctx.trace, &body, &m, &halves)?;
        body
    } else {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .map(|(name, _)| *name)
            .zip(end_to_end(&m))
            .collect();
        json_metrics(&END_TO_END, &values, true)?
    };
    let _ = std::fs::remove_dir_all(&work);
    for wrong in &ctx.wrong {
        eprintln!("perfbench: check failed: {wrong}");
    }
    for error in &ctx.tally.errors {
        eprintln!("perfbench: request failed: {error}");
    }
    let correct = ctx.wrong.is_empty();
    Ok((
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            ctx.tally.attempted.max(1),
            ctx.tally.failed
        ),
        correct,
    ))
}

/// Writes the spans, the counter deltas of the measured phases, the
/// per-layer metrics and the tracing overhead as one JSON file.
fn write_trace(
    args: &Args,
    trace: &Tracer,
    per_layer: &str,
    m: &Measured,
    halves: &[Measured],
) -> Result<(), String> {
    let counters = |before: &Snapshot, after: &Snapshot| {
        let families = [
            "uss_ingest_rows_total",
            "uss_ingest_blocks_total",
            "uss_ring_full_total",
            "uss_ring_producer_parks_total",
            "uss_ring_consumer_wakes_total",
            "uss_temporal_rotations_total",
            "uss_temporal_tier_compactions_total",
            "uss_temporal_late_rows_total",
            "uss_ladder_nodes_built_total",
            "uss_ladder_nodes_invalidated_total",
            "uss_ladder_repaired_at_query_total",
            "uss_range_cache_hits_total",
            "uss_range_cache_misses_total",
        ];
        let fields: Vec<String> = families
            .iter()
            .map(|f| format!("\"{f}\": {}", after.sum(f).saturating_sub(before.sum(f))))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let overhead: Vec<String> = overhead(m, halves)
        .into_iter()
        .map(|(name, _, a, b)| format!("\"{name}\": [{a:?}, {b:?}]"))
        .collect();
    let overhead = format!("{{{}}}", overhead.join(", "));
    let json = trace.to_json(
        &format!(
            "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}",
            args.workload_name, args.seed, args.seconds
        ),
        &[
            ("per_layer", per_layer.to_string()),
            (
                "ingest_phase_counter_deltas",
                counters(&m.ingest.before, &m.ingest.after),
            ),
            (
                "query_phase_counter_deltas",
                counters(&m.query.before, &m.query.after),
            ),
            ("tracing_overhead_untraced_vs_traced", overhead),
        ],
    );
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.json", args.workload_name, args.seed));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let children = Arc::new(Children::default());
    let watchdog_children = Arc::clone(&children);
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s; stopping", WATCHDOG.as_secs());
        watchdog_children.kill_all();
        std::process::exit(3);
    });
    match run(&args, &children) {
        Ok((result, correct)) => {
            println!("{result}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(err) => {
            children.kill_all();
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}
