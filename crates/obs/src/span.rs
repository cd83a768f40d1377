//! RAII span timers and the per-thread span stack.
//!
//! A [`SpanTimer`] measures the wall time between construction and drop
//! and records it (in nanoseconds) into the global histogram
//! `span.<path>`, where `<path>` is the dot-joined stack of enclosing
//! spans on the current thread — so nested spans produce distinct
//! histograms (`span.repro.fig8` inside `span.repro`). Entering and
//! leaving a span also logs `span.enter`/`span.exit` lines at
//! [`Level::Trace`] (under `PSCA_LOG=trace`), and — when `PSCA_TRACE`
//! recording is active ([`crate::trace`]) — a Chrome trace-event
//! *complete* record (not a pair of instants), so spans render as nested
//! duration bars in Perfetto. When the hierarchical profiler is on
//! ([`crate::prof`], `PSCA_PROF=1`) the exit also folds the span into
//! the call-tree node of its collapsed stack.
//!
//! Each thread keeps **one** stack of open frames. A frame holds the
//! span's name, its dot path, its start time and the wall time its
//! completed child spans took; the histogram, the Perfetto event and the
//! profiler node are all read from that one frame at exit, from a single
//! clock read (callers can observe it via [`SpanTimer::finish`]).
//!
//! A parallel section hands its caller's open spans to its workers
//! ([`open_spans`] on the caller, [`inherit`] in each worker), so a span
//! opened inside a sweep cell nests under the caller's spans whichever
//! thread runs it. Inherited frames name the context only: they are
//! never timed or recorded on the worker.

use crate::event::{log, FieldValue, Level};
use crate::{metrics, prof, trace};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// One open span on a thread's stack.
#[derive(Debug, Clone)]
struct Frame {
    /// Dot-joined path; the span's own name is its last `name_len` bytes.
    path: String,
    name_len: usize,
    /// `None` for a frame inherited from a parallel section's caller.
    start: Option<Instant>,
    /// Wall nanoseconds spent in completed child spans.
    child_ns: u64,
}

impl Frame {
    fn name(&self) -> &str {
        &self.path[self.path.len() - self.name_len..]
    }
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Measures one span of work; records on drop.
///
/// A timer belongs to the thread that started it (it is not `Send`):
/// its frame lives on that thread's span stack.
#[derive(Debug)]
pub struct SpanTimer {
    /// Stack length with this span's frame on top.
    depth: usize,
    _thread_bound: PhantomData<*const ()>,
}

impl SpanTimer {
    /// Starts a span named `name`, nested under any active spans on this
    /// thread.
    pub fn start(name: &str) -> SpanTimer {
        let (path, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}.{name}", parent.path),
                None => name.to_string(),
            };
            stack.push(Frame {
                path: path.clone(),
                name_len: name.len(),
                start: Some(Instant::now()),
                child_ns: 0,
            });
            (path, stack.len())
        });
        log(
            Level::Trace,
            "span.enter",
            &[("span", FieldValue::Str(path))],
        );
        SpanTimer {
            depth,
            _thread_bound: PhantomData,
        }
    }

    /// Ends the span and returns the recorded wall nanoseconds — the
    /// exact value the histogram, trace event, and profiler received,
    /// from a single clock read. Use this instead of timing the span
    /// region with a second `Instant` (which would report a slightly
    /// different duration than the span's own record).
    pub fn finish(self) -> u64 {
        let ns = exit(self.depth);
        std::mem::forget(self);
        ns
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        exit(self.depth);
    }
}

/// Pops the frame at `depth` and records it; returns its wall
/// nanoseconds (0 when an enclosing span already closed it).
fn exit(depth: usize) -> u64 {
    let popped = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if stack.len() < depth {
            return None;
        }
        // Spans normally drop in LIFO order; a child that escaped its
        // scope is closed unrecorded with its parent.
        stack.truncate(depth);
        let frame = stack.pop()?;
        // Single clock snapshot: every consumer below sees the same
        // duration.
        let ns = frame.start?.elapsed().as_nanos() as u64;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += ns;
        }
        let folded = prof::enabled()
            .then(|| prof::stack_key(stack.iter().map(Frame::name).chain([frame.name()])));
        Some((frame, ns, folded))
    });
    let Some((frame, ns, folded)) = popped else {
        return 0;
    };
    metrics::global()
        .histogram(&format!("span.{}", frame.path))
        .record(ns);
    if trace::enabled() {
        let dur_us = ns / 1_000;
        // A span that opened before recording started has no place on
        // the trace's time axis.
        if let Some(ts_us) = trace::now_us().checked_sub(dur_us) {
            trace::complete(&frame.path, ts_us, dur_us);
        }
    }
    if let Some(stack) = folded {
        prof::record(&stack, ns, ns.saturating_sub(frame.child_ns));
    }
    log(
        Level::Trace,
        "span.exit",
        &[
            ("span", FieldValue::Str(frame.path)),
            ("wall_ns", FieldValue::U64(ns)),
        ],
    );
    ns
}

/// The current thread's active span path, if any.
pub fn current_path() -> Option<String> {
    STACK.with(|stack| stack.borrow().last().map(|f| f.path.clone()))
}

/// A snapshot of one thread's open spans, for [`inherit`].
#[derive(Debug)]
pub struct OpenSpans(Vec<Frame>);

/// The calling thread's open spans (outermost first).
pub fn open_spans() -> OpenSpans {
    STACK.with(|stack| {
        OpenSpans(
            stack
                .borrow()
                .iter()
                .map(|f| Frame {
                    start: None,
                    child_ns: 0,
                    ..f.clone()
                })
                .collect(),
        )
    })
}

/// Opens `spans` on the calling thread, above its own open spans, for
/// the guard's lifetime. The inherited frames are never timed or
/// recorded here; spans started under them nest under their paths.
pub fn inherit(spans: &OpenSpans) -> InheritGuard {
    let base = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let base = stack.len();
        stack.extend(spans.0.iter().cloned());
        base
    });
    InheritGuard {
        base,
        _thread_bound: PhantomData,
    }
}

/// RAII restorer for [`inherit`].
#[derive(Debug)]
pub struct InheritGuard {
    base: usize,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for InheritGuard {
    fn drop(&mut self) {
        STACK.with(|stack| stack.borrow_mut().truncate(self.base));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_dotted_paths() {
        assert_eq!(current_path(), None);
        let outer = SpanTimer::start("outer_span_test");
        assert_eq!(current_path().as_deref(), Some("outer_span_test"));
        {
            let _inner = SpanTimer::start("inner");
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

    #[test]
    fn inherited_spans_name_the_context_but_record_nothing() {
        let outer = SpanTimer::start("span_inherit_outer");
        let spans = open_spans();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = inherit(&spans);
                assert_eq!(current_path().as_deref(), Some("span_inherit_outer"));
                let _cell = SpanTimer::start("cell");
            });
        });
        drop(outer);
        let count = |name: &str| metrics::global().histogram(name).count();
        assert_eq!(count("span.span_inherit_outer"), 1);
        assert_eq!(count("span.span_inherit_outer.cell"), 1);
    }
}
