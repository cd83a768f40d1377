//! Per-cell series sharding for deterministic parallel merges.
//!
//! Counters and histograms are commutative atomics: recording them from
//! worker threads yields the same totals regardless of interleaving.
//! (Gauges are last-writer-wins.) Time series are order-sensitive — a
//! [`crate::TimeSeries`] decimates based on *push order*, so interleaved
//! pushes from concurrent sweep cells would change which points survive.
//!
//! The shard fixes this: a sweep worker calls [`begin_cell`] before
//! running a cell, every [`crate::SeriesHandle`] push on that thread is
//! captured into a thread-local buffer instead of the global registry,
//! and [`end_cell`] returns the buffer as a [`CellRecording`]. The sweep
//! engine then [`replay`]s recordings in cell-index order after the
//! parallel section, so the registry receives exactly the push sequence a
//! serial run would have produced.
//!
//! When no cell is active (serial execution, main thread) a handle push
//! goes straight to the registry — same order, same result.
//!
//! The hierarchical profiler ([`crate::prof`]) needs no shard: its nodes
//! are commutative sums, so spans exiting inside a cell fold straight
//! into the global profile.

use crate::timeseries::TimeSeries;
use std::cell::RefCell;
use std::sync::Arc;

/// One captured series sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeriesSample {
    /// `TimeSeries::push` (auto x from the monotone push counter).
    Auto(f64),
    /// `TimeSeries::push_at(x, y)`.
    At(u64, f64),
}

/// Ordered series samples captured while one sweep cell executed.
#[derive(Debug, Clone, Default)]
pub struct CellRecording {
    entries: Vec<(Arc<str>, SeriesSample)>,
}

impl CellRecording {
    /// Number of captured series samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<CellRecording>> = const { RefCell::new(None) };
}

/// Starts capturing series pushes on this thread into a fresh recording.
pub fn begin_cell() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(CellRecording::default()));
}

/// Stops capturing and returns the recording (empty if none was active).
pub fn end_cell() -> CellRecording {
    ACTIVE.with(|a| a.borrow_mut().take()).unwrap_or_default()
}

/// True while this thread is inside `begin_cell` .. `end_cell`.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Captures one sample if a cell is active on this thread.
/// Returns `false` when inactive — the caller should push directly.
pub(crate) fn record(name: &Arc<str>, sample: SeriesSample) -> bool {
    ACTIVE.with(|a| match a.borrow_mut().as_mut() {
        Some(rec) => {
            rec.entries.push((name.clone(), sample));
            true
        }
        None => false,
    })
}

/// Replays a recording into the global registry, preserving sample
/// order.
pub fn replay(rec: &CellRecording) {
    for (name, sample) in &rec.entries {
        let series: Arc<TimeSeries> = crate::metrics::global().series(name);
        match *sample {
            SeriesSample::Auto(y) => series.push(y),
            SeriesSample::At(x, y) => series.push_at(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_thread_records_nothing() {
        assert!(!is_active());
        let name: Arc<str> = Arc::from("shard.test.none");
        assert!(!record(&name, SeriesSample::Auto(1.0)));
    }

    #[test]
    fn capture_and_replay_preserve_order() {
        begin_cell();
        assert!(is_active());
        let name: Arc<str> = Arc::from("shard.test.order");
        assert!(record(&name, SeriesSample::Auto(1.0)));
        assert!(record(&name, SeriesSample::Auto(2.0)));
        assert!(record(&name, SeriesSample::At(100, 3.0)));
        let rec = end_cell();
        assert!(!is_active());
        assert_eq!(rec.len(), 3);

        crate::metrics::global().series("shard.test.order").reset();
        replay(&rec);
        let pts = crate::metrics::global()
            .series("shard.test.order")
            .snapshot();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        assert_eq!(ys, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn end_without_begin_is_empty() {
        let rec = end_cell();
        assert!(rec.is_empty());
    }
}
