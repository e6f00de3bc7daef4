//! In-process per-layer probes, run by the traced mode after the timed
//! phase. Each calls one layer's public functions on the workload's own
//! inputs: the first `history` batches of its stream and the head of its
//! query mix, inside spans named after the function called.

use std::path::Path;

use uss_core::merge::fold_unbiased_multiway;
use uss_core::persist::TemporalMeta;
use uss_core::traits::StreamSketch;
use uss_core::{
    answer_query, SketchSnapshot, TemporalIngestEngine, UnbiasedSpaceSaving, WindowedSketchStore,
};
use uss_server::wire::decode_request_frame;
use uss_server::{MarginalEntry, Request, Response};

use crate::gen::{self, Inputs};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::STREAM;

/// Queries of the mix each read-side probe replays.
const PROBE_QUERIES: usize = 300;
/// Ingest frames the wire probe decodes.
const PROBE_FRAMES: u64 = 256;
/// Checkpoint and restore repetitions.
const PERSIST_REPS: usize = 3;

/// One named per-layer value.
pub type Metric = (&'static str, f64);

/// Runs every in-process probe and returns its metrics.
pub fn probe(
    inputs: &Inputs,
    meta: TemporalMeta,
    history: u64,
    dir: &Path,
    trace: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let root = trace.begin("probe", 0);
    wire_ingest(inputs, trace, root, &mut out);
    summary(inputs, meta.seed, trace, root, &mut out);
    let engine = temporal_write(inputs, meta, history, trace, root, &mut out)?;
    let newest = gen::newest_bucket(history);
    let snapshots = temporal_read(inputs, &engine, newest, trace, root, &mut out)?;
    query_and_answer_encode(inputs, &snapshots, trace, root, &mut out);
    merge(inputs, meta, history, newest, trace, root, &mut out)?;
    persist(&engine, meta, dir, trace, root, &mut out)?;
    trace.end(root);
    Ok(out)
}

fn micros(secs: &[f64]) -> f64 {
    median(secs) * 1e6
}

/// Encode and total-decode of ingest frames.
fn wire_ingest(inputs: &Inputs, trace: &mut Tracer, root: usize, out: &mut Vec<Metric>) {
    let parent = trace.begin("probe.wire", root);
    let mut rows = Vec::new();
    let mut secs = Vec::new();
    let mut bytes = 0;
    for b in 0..PROBE_FRAMES {
        inputs.fill_batch(b, &mut rows);
        let frame = Request::Ingest {
            name: STREAM.to_string(),
            rows: rows.clone(),
        }
        .encode();
        bytes = frame.len();
        let (decoded, s) = trace.time("wire.decode_request_frame", parent, || {
            decode_request_frame(std::hint::black_box(&frame))
        });
        std::hint::black_box(decoded.is_ok());
        secs.push(s);
    }
    trace.end(parent);
    out.push(("wire.ingest_frame_bytes", bytes as f64));
    out.push(("wire.ingest_decode_us", micros(&secs)));
}

/// Single-thread `offer_batch` on a plain unbiased sketch: the per-row cost
/// of the stream summary under every bucket.
fn summary(inputs: &Inputs, seed: u64, trace: &mut Tracer, root: usize, out: &mut Vec<Metric>) {
    let parent = trace.begin("probe.summary", root);
    let rows = (inputs.pool.len() * gen::BATCH_ROWS) as f64;
    let mut per_row = Vec::new();
    for rep in 0..3 {
        let mut sketch = UnbiasedSpaceSaving::with_seed(gen::CAPACITY as usize, seed + rep);
        let ((), s) = trace.time("summary.offer_batch", parent, || {
            for items in &inputs.pool {
                sketch.offer_batch(items);
            }
        });
        std::hint::black_box(sketch.rows_processed());
        per_row.push(s * 1e9 / rows);
    }
    trace.end(parent);
    out.push(("summary.apply_ns_per_row", median(&per_row)));
}

/// The daemon's per-request ingest step, in process: offer the batch to the
/// shard rings and flush.
fn temporal_write(
    inputs: &Inputs,
    meta: TemporalMeta,
    history: u64,
    trace: &mut Tracer,
    root: usize,
    out: &mut Vec<Metric>,
) -> Result<TemporalIngestEngine, String> {
    let parent = trace.begin("probe.temporal_write", root);
    let config = meta.to_config().map_err(|e| e.to_string())?;
    let engine = TemporalIngestEngine::try_new(config).map_err(|e| e.to_string())?;
    let mut handle = engine.try_handle().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut secs = Vec::new();
    for b in 0..history {
        inputs.fill_batch(b, &mut rows);
        let (pushed, s) = trace.time("temporal.try_offer_batch_at+try_flush", parent, || {
            handle
                .try_offer_batch_at(&rows)
                .and_then(|()| handle.try_flush())
        });
        pushed.map_err(|e| e.to_string())?;
        secs.push(s);
    }
    drop(handle);
    trace.end(parent);
    out.push(("temporal.push_batch_us", micros(&secs)));
    Ok(engine)
}

/// Range captures through the engine: a fresh range folds (miss); asking
/// again at the same watermark returns the cached snapshot (hit).
fn temporal_read(
    inputs: &Inputs,
    engine: &TemporalIngestEngine,
    newest: u64,
    trace: &mut Tracer,
    root: usize,
    out: &mut Vec<Metric>,
) -> Result<Vec<std::sync::Arc<SketchSnapshot>>, String> {
    let parent = trace.begin("probe.temporal_read", root);
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    let mut snapshots = Vec::new();
    let mut previous = None;
    for spec in inputs.queries.iter().take(PROBE_QUERIES) {
        let range = spec.range(newest);
        let (first, s) = trace.time("temporal.try_range_capture", parent, || {
            engine.try_range_capture(&range)
        });
        let snapshot = first.map_err(|e| e.to_string())?;
        if previous != Some(range) {
            miss.push(s);
        }
        let (again, s) = trace.time("temporal.try_range_capture", parent, || {
            engine.try_range_capture(&range)
        });
        again.map_err(|e| e.to_string())?;
        hit.push(s);
        previous = Some(range);
        snapshots.push(snapshot);
    }
    trace.end(parent);
    out.push(("temporal.capture_miss_us", micros(&miss)));
    out.push(("temporal.capture_hit_us", micros(&hit)));
    Ok(snapshots)
}

/// `answer_query` and `marginals` on the captured snapshots, and the wire
/// encoding of their answers.
fn query_and_answer_encode(
    inputs: &Inputs,
    snapshots: &[std::sync::Arc<SketchSnapshot>],
    trace: &mut Tracer,
    root: usize,
    out: &mut Vec<Metric>,
) {
    let parent = trace.begin("probe.query", root);
    let mut answer = Vec::new();
    let mut marginals = Vec::new();
    let mut encode = Vec::new();
    let mut bytes = Vec::new();
    for (spec, snap) in inputs.queries.iter().zip(snapshots) {
        let rows = snap.rows_processed();
        let response = match &spec.query {
            Some(query) => {
                let (a, s) = trace.time("query.answer_query", parent, || {
                    answer_query(snap, query, 0.95)
                });
                answer.push(s);
                Response::Answer { rows, answer: a }
            }
            None => {
                let (m, s) = trace.time("query.marginals", parent, || {
                    snap.marginals(|item| Some((item >> gen::MARGINAL_SHIFT) & gen::MARGINAL_MASK))
                });
                marginals.push(s);
                let entries = m
                    .into_iter()
                    .map(|(key, estimate)| MarginalEntry {
                        key,
                        ci: estimate.confidence_interval(0.95),
                        estimate,
                    })
                    .collect();
                Response::MarginalsAnswer { rows, entries }
            }
        };
        let (frame, s) = trace.time("wire.response_encode", parent, || response.encode());
        encode.push(s);
        bytes.push(frame.len() as f64);
    }
    trace.end(parent);
    out.push(("wire.answer_encode_us", micros(&encode)));
    out.push(("wire.answer_bytes", mean(&bytes)));
    out.push(("query.answer_us", micros(&answer)));
    out.push(("query.marginals_us", micros(&marginals)));
}

/// The multiway fold over dyadic range reports of one store that holds the
/// whole history (both shards' rows).
fn merge(
    inputs: &Inputs,
    meta: TemporalMeta,
    history: u64,
    newest: u64,
    trace: &mut Tracer,
    root: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let parent = trace.begin("probe.merge", root);
    let config = meta.to_config().map_err(|e| e.to_string())?.window;
    let mut store = WindowedSketchStore::new(config);
    let mut rows = Vec::new();
    for b in 0..history {
        // A batch lies inside one bucket, so one timestamp places it exactly.
        inputs.fill_batch(b, &mut rows);
        let items: Vec<u64> = rows.iter().map(|r| r.0).collect();
        store.offer_batch_at(&items, rows[0].1);
    }
    let mut secs = Vec::new();
    for (i, spec) in inputs.queries.iter().take(PROBE_QUERIES).enumerate() {
        let (start, end) = spec.buckets(newest);
        let (reports, _) = store.range_reports_dyadic(start, end);
        let parts: Vec<(Vec<(u64, f64)>, u64)> =
            reports.into_iter().map(|r| (r.entries, r.rows)).collect();
        let (folded, s) = trace.time("merge.fold_unbiased_multiway", parent, || {
            fold_unbiased_multiway(
                meta.capacity as usize,
                meta.seed ^ i as u64,
                !meta.seed ^ i as u64,
                parts,
            )
        });
        std::hint::black_box(folded.rows_processed());
        secs.push(s);
    }
    trace.end(parent);
    out.push(("merge.fold_us", micros(&secs)));
    Ok(())
}

/// Engine checkpoint and restore of the history.
fn persist(
    engine: &TemporalIngestEngine,
    meta: TemporalMeta,
    dir: &Path,
    trace: &mut Tracer,
    root: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let parent = trace.begin("probe.persist", root);
    let config = meta.to_config().map_err(|e| e.to_string())?;
    let mut checkpoint = Vec::new();
    let mut restore = Vec::new();
    let written_before = engine.metrics().checkpoint_bytes.get();
    for _ in 0..PERSIST_REPS {
        let _ = std::fs::remove_dir_all(dir);
        let (done, s) = trace.time("persist.checkpoint", parent, || engine.checkpoint(dir));
        done.map_err(|e| e.to_string())?;
        checkpoint.push(s * 1e3);
        let (restored, s) = trace.time("persist.restore", parent, || {
            TemporalIngestEngine::restore(dir, config)
        });
        drop(restored.map_err(|e| e.to_string())?);
        restore.push(s * 1e3);
    }
    let written = engine.metrics().checkpoint_bytes.get() - written_before;
    let _ = std::fs::remove_dir_all(dir);
    trace.end(parent);
    out.push(("persist.checkpoint_ms", median(&checkpoint)));
    out.push((
        "persist.checkpoint_bytes",
        written as f64 / PERSIST_REPS as f64,
    ));
    out.push(("persist.restore_ms", median(&restore)));
    Ok(())
}
