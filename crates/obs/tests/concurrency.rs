//! Concurrent-writers stress tests: the registry, the atomic metric
//! primitives, and the /metrics exporter snapshot path must tolerate many
//! worker threads recording at once (the psca-exec pool does exactly
//! this) without losing counts or panicking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 20_000;

#[test]
fn concurrent_counter_and_histogram_writers_lose_nothing() {
    let counter = psca_obs::counter("conc.counter");
    let histogram = psca_obs::histogram("conc.histogram");
    counter.reset();
    histogram.reset();

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            s.spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    counter.inc();
                    histogram.record((w as u64) * 1000 + (i % 97));
                }
            });
        }
    });

    assert_eq!(counter.get(), WRITERS as u64 * OPS_PER_WRITER);
    assert_eq!(histogram.count(), WRITERS as u64 * OPS_PER_WRITER);
}

#[test]
fn concurrent_registry_lookups_resolve_to_one_instance() {
    let handles: Vec<Arc<psca_obs::Counter>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..WRITERS)
            .map(|_| {
                s.spawn(|| {
                    let c = psca_obs::counter("conc.same_instance");
                    c.inc();
                    c
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for h in &handles {
        assert!(Arc::ptr_eq(h, &handles[0]), "registry must dedupe by name");
    }
    assert_eq!(handles[0].get(), WRITERS as u64);
}

#[test]
fn snapshots_while_writers_run_never_panic_and_end_exact() {
    let counter = psca_obs::counter("conc.snapshot_target");
    counter.reset();
    let series = psca_obs::metrics::global().series("conc.snapshot_series");
    series.reset();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let counter = counter.clone();
            s.spawn(move || {
                for _ in 0..OPS_PER_WRITER {
                    counter.inc();
                }
            });
        }
        // A reader thread hammers the same snapshot path the /metrics
        // exporter and RunReport serialization use, mid-write.
        let stop = &stop;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let snap = psca_obs::snapshot();
                let rendered = psca_obs::exporter::prometheus_text(&snap);
                assert!(rendered.contains("conc_snapshot_target"));
            }
        });
        // Main thread pushes the order-sensitive series serially (the
        // sweep engine's contract: series writers are single-threaded or
        // shard-buffered, never interleaved).
        for i in 0..100 {
            series.push(i as f64);
        }
        // Signal the reader once the writers are done; the scope then
        // joins everything.
        while counter.get() < WRITERS as u64 * OPS_PER_WRITER {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(counter.get(), WRITERS as u64 * OPS_PER_WRITER);
    assert_eq!(series.snapshot().len(), 100);
}

#[test]
fn sharded_series_capture_is_thread_isolated() {
    // Two worker threads each record into their own cell shard; replaying
    // in cell order must interleave nothing.
    let recs: Vec<psca_obs::shard::CellRecording> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..2)
            .map(|w| {
                s.spawn(move || {
                    psca_obs::shard::begin_cell();
                    let h = psca_obs::series("conc.sharded");
                    for i in 0..50 {
                        h.push((w * 1000 + i) as f64);
                    }
                    psca_obs::shard::end_cell()
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    assert_eq!(recs[0].len(), 50);
    assert_eq!(recs[1].len(), 50);

    let global = psca_obs::metrics::global().series("conc.sharded");
    global.reset();
    for rec in &recs {
        psca_obs::shard::replay(rec);
    }
    let ys: Vec<f64> = global.snapshot().iter().map(|p| p.1).collect();
    // Recording 0 fully precedes recording 1 — deterministic merge order.
    let split = ys.iter().position(|&y| y >= 1000.0).unwrap();
    assert!(ys[..split].iter().all(|&y| y < 1000.0));
    assert!(ys[split..].iter().all(|&y| y >= 1000.0));
}
