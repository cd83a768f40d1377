//! Chrome trace-event recording for Perfetto.
//!
//! When enabled (programmatically via [`enable`] or through the
//! `PSCA_TRACE=<path.json>` environment variable), the recorder collects
//! [trace-event format] records in memory and [`finish`] writes them as a
//! JSON array loadable in [Perfetto] (`ui.perfetto.dev`) or
//! `chrome://tracing`:
//!
//! - **complete events** (`ph: "X"`) — one per [`crate::SpanTimer`],
//!   rendered as nested duration bars on a per-thread track;
//! - **instant events** (`ph: "i"`) — mode switches, guardrail trips, SLA
//!   violations, training rounds;
//! - **counter events** (`ph: "C"`) — per-interval IPC and similar
//!   numeric tracks.
//!
//! Disabled cost is one relaxed atomic load per call site. Each thread
//! gets its own `tid` plus a `thread_name` metadata record, so spans from
//! worker threads land on separate tracks. The buffer is bounded at
//! [`MAX_EVENTS`]; overflow drops further events and reports the count in
//! a final metadata record rather than exhausting memory.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::event::FieldValue;
use crate::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered trace events (~a few hundred MB worst case).
pub const MAX_EVENTS: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

struct State {
    path: PathBuf,
    start: Instant,
    events: Vec<Json>,
    dropped: u64,
}

fn state() -> &'static Mutex<Option<State>> {
    static STATE: OnceLock<Mutex<Option<State>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Whether trace recording is active (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording to `path`. Returns `false` if recording was already
/// active (the original destination wins).
pub fn enable(path: impl AsRef<Path>) -> bool {
    let mut guard = state().lock().unwrap();
    if guard.is_some() {
        return false;
    }
    *guard = Some(State {
        path: path.as_ref().to_path_buf(),
        start: Instant::now(),
        events: Vec::new(),
        dropped: 0,
    });
    ENABLED.store(true, Ordering::Relaxed);
    true
}

/// Enables recording when `PSCA_TRACE=<path>` is set; returns whether
/// recording is now active because of it.
pub fn enable_from_env() -> bool {
    match std::env::var("PSCA_TRACE") {
        Ok(path) if !path.trim().is_empty() => enable(path.trim()),
        _ => false,
    }
}

/// Microseconds since recording started (0 when disabled).
pub fn now_us() -> u64 {
    let guard = state().lock().unwrap();
    guard
        .as_ref()
        .map(|s| s.start.elapsed().as_micros() as u64)
        .unwrap_or(0)
}

/// The calling thread's track id, assigning one (plus a `thread_name`
/// metadata record) on first use.
fn tid(st: &mut State) -> u64 {
    TID.with(|cell| {
        let mut t = cell.get();
        if t == 0 {
            t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(t);
            let name = std::thread::current()
                .name()
                .map(|n| n.to_string())
                .unwrap_or_else(|| format!("thread-{t}"));
            st.events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(t)),
                ("args", Json::obj(vec![("name", Json::Str(name))])),
            ]));
        }
        t
    })
}

fn push_event(build: impl FnOnce(&mut State, u64) -> Json) {
    let mut guard = state().lock().unwrap();
    let Some(st) = guard.as_mut() else {
        return;
    };
    if st.events.len() >= MAX_EVENTS {
        st.dropped += 1;
        return;
    }
    let t = tid(st);
    let ev = build(st, t);
    st.events.push(ev);
}

fn fields_to_args(fields: &[(&str, FieldValue)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_json()))
            .collect(),
    )
}

/// The calling thread's request context, rendered as trace-event args
/// (`None` when no [`crate::ctx::TraceCtx`] is attached).
fn ctx_args() -> Option<Json> {
    crate::ctx::current().map(|c| {
        Json::obj(vec![
            ("trace_id", Json::Str(c.trace_id_hex())),
            ("span_id", Json::Str(c.span_id_hex())),
        ])
    })
}

/// Records a complete (duration) event: a span named `name` that started
/// `ts_us` microseconds into the trace and lasted `dur_us`. When the
/// calling thread has a request context attached, the span's args carry
/// its `trace_id`/`span_id`, so Perfetto queries can slice one request
/// out of the whole recording.
pub fn complete(name: &str, ts_us: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    let ctx = ctx_args();
    push_event(move |_, tid| {
        let mut fields = vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str("span".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::UInt(ts_us)),
            ("dur", Json::UInt(dur_us.max(1))),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid)),
        ];
        if let Some(args) = ctx {
            fields.push(("args", args));
        }
        Json::obj(fields)
    });
}

/// Records a thread-scoped instant event (a mode switch, a guardrail
/// trip, an SLA violation) with typed argument fields. A request context
/// attached to the calling thread adds `trace_id`/`span_id` args.
pub fn instant(name: &str, fields: &[(&str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let mut args = fields_to_args(fields);
    if let (Some(Json::Obj(extra)), Json::Obj(pairs)) = (ctx_args(), &mut args) {
        pairs.extend(extra);
    }
    push_event(move |st, tid| {
        Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str("event".into())),
            ("ph", Json::Str("i".into())),
            ("s", Json::Str("t".into())),
            ("ts", Json::UInt(st.start.elapsed().as_micros() as u64)),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid)),
            ("args", args),
        ])
    });
}

/// Records a counter sample: Perfetto renders these as a numeric track
/// named `name`.
pub fn counter_event(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    push_event(|st, tid| {
        Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str("metric".into())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::UInt(st.start.elapsed().as_micros() as u64)),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid)),
            ("args", Json::obj(vec![("value", Json::Num(value))])),
        ])
    });
}

/// Number of buffered events (tests, diagnostics).
pub fn event_count() -> usize {
    state()
        .lock()
        .unwrap()
        .as_ref()
        .map(|s| s.events.len())
        .unwrap_or(0)
}

/// Stops recording and writes the JSON array to the configured path,
/// returning it. `None` when recording was never enabled. On a write
/// failure the error is reported on stderr and `None` is returned.
pub fn finish() -> Option<PathBuf> {
    let mut guard = state().lock().unwrap();
    let mut st = guard.take()?;
    ENABLED.store(false, Ordering::Relaxed);
    if st.dropped > 0 {
        st.events.push(Json::obj(vec![
            ("name", Json::Str("psca_trace_dropped_events".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(0)),
            ("args", Json::obj(vec![("dropped", Json::UInt(st.dropped))])),
        ]));
    }
    if let Some(dir) = st.path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let body = Json::Arr(std::mem::take(&mut st.events)).to_string();
    match std::fs::write(&st.path, body) {
        Ok(()) => Some(st.path),
        Err(e) => {
            eprintln!("psca-obs: cannot write trace {}: {e}", st.path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        // Must not be enabled by other tests: this file's tests are the
        // only in-crate users of the global recorder state.
        if enabled() {
            return;
        }
        complete("x", 0, 10);
        instant("y", &[]);
        assert_eq!(event_count(), 0);
        assert_eq!(finish(), None);
    }

    #[test]
    fn args_carry_typed_fields() {
        let j = fields_to_args(&[("n", FieldValue::U64(3)), ("ok", FieldValue::Bool(true))]);
        assert_eq!(j.to_string(), r#"{"n":3,"ok":true}"#);
    }
}
