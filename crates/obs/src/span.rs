//! RAII span timers.
//!
//! A [`SpanTimer`] measures the wall time between construction and drop
//! and records it (in nanoseconds) into the global histogram
//! `span.<path>`, where `<path>` is the dot-joined stack of enclosing
//! spans on the current thread — so nested spans produce distinct
//! histograms (`span.repro.fig8` inside `span.repro`). Entering and
//! leaving a span also delivers `span.enter`/`span.exit` events at
//! [`Level::Trace`] to the event sinks, and — when `PSCA_TRACE`
//! recording is active ([`crate::trace`]) — a Chrome trace-event
//! *complete* record (not a pair of instants), so spans render as nested
//! duration bars in Perfetto.
//!
//! When the hierarchical profiler is on ([`crate::prof`], `PSCA_PROF=1`)
//! each span additionally maintains a profiling frame, so call counts
//! and self-vs-total wall time accumulate per collapsed stack.
//!
//! The clock is read **once** per span exit: the histogram record, the
//! Perfetto duration, the `span.exit` event's `wall_ns` field, and the
//! profiler frame all report that same snapshot (callers can observe it
//! via [`SpanTimer::finish`]).

use crate::event::{to_sinks, FieldValue, Level};
use crate::{metrics, prof, trace};
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Measures one span of work; records on drop.
#[derive(Debug)]
pub struct SpanTimer {
    path: String,
    start: Instant,
    depth_on_entry: usize,
    /// Trace-relative start in µs; `u64::MAX` when recording was off at
    /// span entry (avoids locking the recorder on drop).
    trace_ts_us: u64,
    /// Profiler frame depth; `usize::MAX` when profiling was off at
    /// span entry (the frame stack must stay balanced even if the
    /// profiler is toggled mid-span).
    prof_depth: usize,
    /// Set by [`SpanTimer::finish`] so drop does not record twice.
    recorded: bool,
}

impl SpanTimer {
    /// Starts a span named `name`, nested under any active spans on this
    /// thread.
    pub fn start(name: &str) -> SpanTimer {
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if stack.is_empty() {
                name.to_string()
            } else {
                format!("{}.{}", stack.last().unwrap(), name)
            };
            stack.push(path.clone());
            (path, stack.len())
        });
        let prof_depth = if prof::enabled() {
            prof::frame_enter(name)
        } else {
            usize::MAX
        };
        to_sinks(
            Level::Trace,
            "span.enter",
            &[("span", FieldValue::Str(path.clone()))],
        );
        SpanTimer {
            path,
            start: Instant::now(),
            depth_on_entry: depth,
            trace_ts_us: if trace::enabled() {
                trace::now_us()
            } else {
                u64::MAX
            },
            prof_depth,
            recorded: false,
        }
    }

    /// The full dot-joined span path (`parent.child`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Ends the span and returns the recorded wall nanoseconds — the
    /// exact value the histogram, trace event, and profiler received,
    /// from a single clock read. Use this instead of timing the span
    /// region with a second `Instant` (which would report a slightly
    /// different duration than the span's own record).
    pub fn finish(mut self) -> u64 {
        self.record_exit()
    }

    /// Records the span exit exactly once; shared by `finish` and drop.
    fn record_exit(&mut self) -> u64 {
        // Single clock snapshot: every consumer below sees the same
        // duration.
        let ns = self.start.elapsed().as_nanos() as u64;
        self.recorded = true;
        metrics::global()
            .histogram(&format!("span.{}", self.path))
            .record(ns);
        if self.trace_ts_us != u64::MAX && trace::enabled() {
            trace::complete(&self.path, self.trace_ts_us, ns / 1_000);
        }
        if self.prof_depth != usize::MAX {
            prof::frame_exit(self.prof_depth, ns);
        }
        to_sinks(
            Level::Trace,
            "span.exit",
            &[
                ("span", FieldValue::Str(self.path.clone())),
                ("wall_ns", FieldValue::U64(ns)),
            ],
        );
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans normally drop in LIFO order; if a span escaped its
            // scope, truncate back to this span's depth to stay sane.
            stack.truncate(self.depth_on_entry.saturating_sub(1));
        });
        ns
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if !self.recorded {
            self.record_exit();
        }
    }
}

/// The current thread's active span path, if any.
pub fn current_path() -> Option<String> {
    SPAN_STACK.with(|stack| stack.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_dotted_paths() {
        assert_eq!(current_path(), None);
        let outer = SpanTimer::start("outer_span_test");
        assert_eq!(outer.path(), "outer_span_test");
        {
            let inner = SpanTimer::start("inner");
            assert_eq!(inner.path(), "outer_span_test.inner");
            assert_eq!(current_path().as_deref(), Some("outer_span_test.inner"));
        }
        assert_eq!(current_path().as_deref(), Some("outer_span_test"));
        drop(outer);
        assert_eq!(current_path(), None);
    }

    #[test]
    fn drop_records_into_span_histogram() {
        {
            let _t = SpanTimer::start("span_histogram_roundtrip");
        }
        let h = metrics::global().histogram("span.span_histogram_roundtrip");
        assert!(h.count() >= 1);
    }

    #[test]
    fn finish_reports_the_recorded_duration_once() {
        let before = metrics::global().histogram("span.span_finish_once").count();
        let t = SpanTimer::start("span_finish_once");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = t.finish();
        assert!(ns >= 1_000_000, "slept 1ms but finish() saw {ns}ns");
        let h = metrics::global().histogram("span.span_finish_once");
        assert_eq!(h.count(), before + 1, "finish must record exactly once");
        // The histogram saw the same single snapshot finish returned.
        assert!(h.sum() >= ns);
        assert_eq!(current_path(), None);
    }
}
