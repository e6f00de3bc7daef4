//! A live monitoring dashboard over a temporal engine: multi-producer
//! timestamped ingest with a reader polling sliding-window top-k and per-key
//! marginals while rows keep arriving.
//!
//! Three producer threads emit timestamped events whose hot set *changes over
//! time* (each 100-tick phase promotes a different block of keys). A reader
//! polls typed queries over the last few buckets, capturing the window afresh
//! each poll and answering through `answer_query`: the sliding window tracks
//! the current phase's hot keys, while a whole-history query still answers —
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

use unbiased_space_saving::core::temporal::{TemporalConfig, TemporalIngestEngine, TimeRange};
use unbiased_space_saving::prelude::*;

fn main() {
    // 10-tick buckets, 8 fine buckets retained, 2 retention tiers of factor 4:
    // the engine holds at most 8 fine + 2·3 compacted + 1 terminal bucket per
    // shard no matter how long it runs.
    let engine = TemporalIngestEngine::new(
        TemporalConfig::new(2, 512, 42, 10, 8).with_retention(2, 4),
    );

    let phases = 5u64;
    let ticks_per_phase = 100u64;
    std::thread::scope(|scope| {
        // Producers: each thread stamps rows with a shared logical clock and a
        // phase-dependent hot set (keys 1000·phase .. 1000·phase + 5 are hot).
        for producer in 0..3u64 {
            let mut handle = engine.handle();
            scope.spawn(move || {
                for tick in 0..phases * ticks_per_phase {
                    let phase = tick / ticks_per_phase;
                    for i in 0..40u64 {
                        let item = if i < 20 {
                            1_000 * phase + i % 5 // the phase's hot block
                        } else {
                            10_000 + (producer * 31 + tick * 7 + i) % 3_000 // long tail
                        };
                        handle.offer_at(item, tick);
                    }
                }
                // Handles flush on drop; be explicit anyway.
                handle.flush();
            });
        }

        // Reader: poll the sliding window while producers are still running.
        for poll in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let window = engine.range_capture(&TimeRange::LastBuckets(3));
            let QueryAnswer::Items(top) = answer_query(&window, &Query::TopK { k: 3 }, 0.95) else {
                unreachable!("top-k answers with items")
            };
            println!(
                "poll {poll}: {} in-window rows, top-3 = {:?}",
                window.rows_processed(),
                top.iter().map(|(i, c)| (*i, c.round())).collect::<Vec<_>>()
            );
        }
    });

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
    let total_rows = 3 * phases * ticks_per_phase * 40;
    println!(
        "\nwhole-history rows: {} (expected {total_rows}), retained structures bounded",
        all.rows_processed()
    );
    assert_eq!(all.rows_processed(), total_rows);
    let _ = engine.finish();
}
