//! A live monitoring dashboard over a temporal engine: multi-producer
//! timestamped ingest with a reader polling sliding-window top-k and per-key
//! marginals while rows keep arriving.
//!
//! Three producer threads emit timestamped events whose hot set *changes over
//! time* (each 100-tick phase promotes a different block of keys). A barrier
//! at each phase boundary paces them against a reader: once every producer has
//! flushed a phase, the producers move on to the next phase while the reader
//! polls typed queries over the last three buckets of the phase that just
//! ended, capturing the window afresh each poll and answering through
//! `answer_query`. The window tracks each phase's hot keys, while a
//! whole-history query still answers —
//! coarser with age — from the same engine. This is the workload shape the
//! whole-stream sketches cannot express: "top-k over the last hour" next to
//! "total since launch". Both widths are cheap: each shard serves ranges
//! through its dyadic pre-merge ladder, so a wide sweep costs O(log window)
//! node folds rather than one fold per bucket.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example windowed_dashboard
//! ```

use std::sync::Barrier;

use unbiased_space_saving::core::temporal::{TemporalConfig, TemporalIngestEngine, TimeRange};
use unbiased_space_saving::prelude::*;

fn main() {
    // 10-tick buckets, 16 fine buckets retained, 2 retention tiers of factor
    // 4: the engine holds at most 16 fine + 2·3 compacted + 1 terminal bucket
    // per shard no matter how long it runs. 16 fine buckets (160 ticks) keep a
    // polled phase's last buckets fine while the producers run ahead through
    // the whole next phase.
    let engine = TemporalIngestEngine::new(
        TemporalConfig::new(2, 512, 42, 10, 16).with_retention(2, 4),
    );

    let phases = 6u64;
    let ticks_per_phase = 100u64;
    let producers = 3u64;
    // Crossed once per phase boundary by every producer and the reader.
    let boundary = Barrier::new(producers as usize + 1);
    let mut polls = Vec::new();
    std::thread::scope(|scope| {
        // Producers: each thread stamps rows with a shared logical clock and a
        // phase-dependent hot set (keys 1000·phase .. 1000·phase + 5 are hot).
        for producer in 0..producers {
            let mut handle = engine.handle();
            let boundary = &boundary;
            scope.spawn(move || {
                for phase in 0..phases {
                    for tick in phase * ticks_per_phase..(phase + 1) * ticks_per_phase {
                        for i in 0..40u64 {
                            let item = if i < 20 {
                                1_000 * phase + i % 5 // the phase's hot block
                            } else {
                                10_000 + (producer * 31 + tick * 7 + i) % 3_000 // long tail
                            };
                            handle.offer_at(item, tick);
                        }
                    }
                    // Send the phase's buffered rows before crossing the
                    // boundary, so the reader's capture includes all of them.
                    handle.flush();
                    if phase + 1 < phases {
                        boundary.wait();
                    }
                }
            });
        }

        // Reader: after each boundary but the last, poll the phase that just
        // ended while the producers ingest the next one (they cannot pass the
        // next boundary before this poll is done). Its last three buckets hold
        // every producer's rows for 30 ticks and nothing newer.
        for phase in 0..phases - 1 {
            boundary.wait();
            let end = (phase + 1) * ticks_per_phase;
            let window = engine.range_capture(&TimeRange::Between { start: end - 30, end });
            let QueryAnswer::Items(top) = answer_query(&window, &Query::TopK { k: 3 }, 0.95) else {
                unreachable!("top-k answers with items")
            };
            println!(
                "poll {phase}: {} in-window rows, top-3 = {:?}",
                window.rows_processed(),
                top.iter().map(|(i, c)| (*i, c.round())).collect::<Vec<_>>()
            );
            // Checked after the scope: a panic here would leave the producers
            // waiting at the barrier.
            polls.push((phase, window.rows_processed(), top));
        }
    });
    for (phase, rows, top) in &polls {
        assert_eq!(*rows, producers * 30 * 40, "poll {phase}: in-window rows");
        assert!(
            top.iter().all(|(item, _)| item / 1_000 == *phase),
            "poll {phase}: the top-3 must be phase {phase}'s hot block"
        );
    }

    // Producers are done. The final sliding window sees only the last phase's
    // hot block; the long tail and earlier phases' heroes have aged out of it.
    let last = engine.range_snapshot(&TimeRange::LastBuckets(3));
    let top = last.top_k(5);
    println!("\nfinal 3-bucket window top-5 (last phase dominates):");
    for (item, count) in &top {
        println!("  item {item:>6}: ~{:.0} in-window rows", count);
    }
    assert!(
        top.iter().take(3).all(|(item, _)| *item / 1_000 == phases - 1),
        "the sliding window must surface the final phase's hot block"
    );

    // Per-key marginals over the window: group the hot blocks by phase.
    let window = engine.range_capture(&TimeRange::LastBuckets(3));
    let phases_seen = window.marginals(|item| (item < 10_000).then_some(item / 1_000));
    println!("\nper-phase marginals inside the window (sum ± std dev):");
    for (phase, estimate) in &phases_seen {
        println!(
            "  phase {phase}: {:.0} ± {:.0}",
            estimate.sum,
            estimate.std_dev()
        );
    }

    // The whole history still answers from the same engine — compacted tiers
    // serve the old phases at coarser resolution, nothing was dropped.
    let all = engine.range_snapshot(&TimeRange::All);
    let total_rows = producers * phases * ticks_per_phase * 40;
    println!(
        "\nwhole-history rows: {} (expected {total_rows}), retained structures bounded",
        all.rows_processed()
    );
    assert_eq!(all.rows_processed(), total_rows);
    let _ = engine.finish();
}
