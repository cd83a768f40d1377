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
        // Signal the reader once the writers are done; the scope then
        // joins everything.
        while counter.get() < WRITERS as u64 * OPS_PER_WRITER {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(counter.get(), WRITERS as u64 * OPS_PER_WRITER);
}
