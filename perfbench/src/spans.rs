//! The benchmark's own span recorder: one span per public call the
//! benchmark makes into a layer, kept in memory and written out as a
//! Chrome trace-event file when the run ends.
//!
//! Spans carry an id and the id of the span that caused them, so a layer's
//! self time (its duration minus the part covered by its children) can be
//! read off the file. When tracing is off, [`Tracer::span`] still times the
//! call (the workloads need the durations) but stores nothing.

use psca_obs::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_us: f64,
    dur_us: f64,
    thread: u64,
}

/// In-memory span store for one benchmark run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when finished or dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: String,
    thread: u64,
    start: Instant,
    done: bool,
}

impl Tracer {
    /// A tracer that stores spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being stored.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a root span on thread 0.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.child(name, 0, 0)
    }

    /// Opens a span caused by `parent` (0 for none), on lane `thread`.
    pub fn child(&self, name: &str, parent: u64, thread: u64) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            thread,
            start: Instant::now(),
            done: false,
        }
    }

    fn record(&self, guard: &SpanGuard<'_>, dur_s: f64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: guard.id,
            parent: guard.parent,
            name: guard.name.clone(),
            start_us: guard.start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: dur_s * 1e6,
            thread: guard.thread,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(span);
    }

    /// Number of spans stored so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .len()
    }

    /// Writes every stored span as Chrome trace-event JSON (load it in
    /// Perfetto). Nothing is written when tracing is off.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        let events = spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(s.thread)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::UInt(s.id)),
                            ("parent", Json::UInt(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!("{}\n", Json::obj(vec![("traceEvents", Json::Arr(events))])),
        )
    }
}

impl SpanGuard<'_> {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span and returns its duration in seconds.
    pub fn finish(mut self) -> f64 {
        let dur = self.start.elapsed().as_secs_f64();
        self.tracer.record(&self, dur);
        self.done = true;
        dur
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            let dur = self.start.elapsed().as_secs_f64();
            self.tracer.record(self, dur);
        }
    }
}
