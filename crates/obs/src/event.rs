//! Structured, level-filtered discrete events.
//!
//! An event is a name (`"guardrail.trip"`), a [`Level`], and a small set
//! of typed fields. Emission is near-zero-cost when nothing is listening:
//! [`emit`] first checks relaxed atomics (the trace recorder, the sink
//! count and the level filter) before building anything. While
//! `PSCA_TRACE` recording is on, every emitted event is also a Perfetto
//! instant of the same name carrying all its fields, so call sites emit
//! once for both consumers.
//!
//! The filter level comes from the `PSCA_LOG` environment variable
//! (`trace | debug | info | warn | error | off`, default `off` so library
//! consumers pay nothing) and can be overridden programmatically with
//! [`set_level`]. Sinks are installed by binaries: [`ConsoleSink`] writes
//! a human-readable line to stderr, [`JsonlSink`] appends one JSON object
//! per line to any writer.

use crate::json::Json;
use crate::trace;
use std::io::Write;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-decision detail (e.g. each gating decision).
    Trace = 0,
    /// Per-window or per-round detail.
    Debug = 1,
    /// Run-level milestones.
    Info = 2,
    /// Degraded-but-continuing conditions (guardrail trips, SLA breaches).
    Warn = 3,
    /// Unrecoverable conditions.
    Error = 4,
}

impl Level {
    /// Lower-case name, as used by `PSCA_LOG` and the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a `PSCA_LOG`-style level name (`trace | debug | info |
    /// warn | error`); `off` and unknown strings yield `None`.
    pub fn from_env_str(s: &str) -> Option<Level> {
        Level::from_str(s)
    }

    fn from_str(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned count.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl FieldValue {
    pub(crate) fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(v) => Json::UInt(*v),
            FieldValue::I64(v) => Json::Int(*v),
            FieldValue::F64(v) => Json::Num(*v),
            FieldValue::Str(v) => Json::Str(v.clone()),
            FieldValue::Bool(v) => Json::Bool(*v),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One structured event, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Severity.
    pub level: Level,
    /// Dotted event name, `subsystem.event` (see docs/OBSERVABILITY.md).
    pub name: String,
    /// Field key–value pairs, in emission order.
    pub fields: Vec<(String, FieldValue)>,
    /// Microseconds since the Unix epoch (0 when timestamps disabled).
    pub ts_us: u64,
}

impl EventRecord {
    /// A record of `name` with `fields`, stamped with the current time.
    pub fn now(level: Level, name: &str, fields: &[(&str, FieldValue)]) -> EventRecord {
        EventRecord {
            level,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            ts_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
        }
    }

    /// The JSONL encoding of this record.
    pub fn to_jsonl(&self) -> String {
        let mut pairs: Vec<(String, Json)> = Vec::with_capacity(self.fields.len() + 3);
        if self.ts_us != 0 {
            pairs.push(("ts_us".into(), Json::UInt(self.ts_us)));
        }
        pairs.push(("level".into(), Json::Str(self.level.name().into())));
        pairs.push(("event".into(), Json::Str(self.name.clone())));
        let fields: Vec<(String, Json)> = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        pairs.push(("fields".into(), Json::Obj(fields)));
        Json::Obj(pairs).to_string()
    }
}

/// Receiver of emitted events.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn write_event(&self, record: &EventRecord);
    /// Flushes buffered output (called by [`flush`]).
    fn flush(&self) {}
}

/// Human-readable sink writing `LEVEL event k=v ...` lines to stderr.
#[derive(Debug, Default)]
pub struct ConsoleSink;

impl EventSink for ConsoleSink {
    fn write_event(&self, record: &EventRecord) {
        let mut line = format!("[{:>5}] {}", record.level.name(), record.name);
        for (k, v) in &record.fields {
            match v {
                FieldValue::U64(x) => line.push_str(&format!(" {k}={x}")),
                FieldValue::I64(x) => line.push_str(&format!(" {k}={x}")),
                FieldValue::F64(x) => line.push_str(&format!(" {k}={x:.4}")),
                FieldValue::Str(x) => line.push_str(&format!(" {k}={x}")),
                FieldValue::Bool(x) => line.push_str(&format!(" {k}={x}")),
            }
        }
        eprintln!("{line}");
    }
}

/// Machine-readable sink appending one JSON object per event.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
    timestamps: bool,
}

impl JsonlSink {
    /// Wraps any writer (a `File`, a `Vec<u8>` buffer in tests, ...).
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            writer: Mutex::new(writer),
            timestamps: true,
        }
    }

    /// Opens (creates/truncates) a JSONL file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        Ok(JsonlSink::new(Box::new(std::fs::File::create(path)?)))
    }

    /// Disables timestamps (stable output for golden tests).
    pub fn without_timestamps(mut self) -> JsonlSink {
        self.timestamps = false;
        self
    }

    /// Whether records get a `ts_us` field.
    pub fn timestamps(&self) -> bool {
        self.timestamps
    }
}

impl EventSink for JsonlSink {
    fn write_event(&self, record: &EventRecord) {
        let record = if self.timestamps {
            record.clone()
        } else {
            let mut r = record.clone();
            r.ts_us = 0;
            r
        };
        let mut w = self.writer.lock().unwrap();
        let _ = writeln!(w, "{}", record.to_jsonl());
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

const LEVEL_OFF: u8 = 5;
const LEVEL_UNINIT: u8 = 255;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);
static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);

fn sinks() -> &'static RwLock<Vec<Box<dyn EventSink>>> {
    static SINKS: OnceLock<RwLock<Vec<Box<dyn EventSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

fn level_filter() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l != LEVEL_UNINIT {
        return l;
    }
    let parsed = std::env::var("PSCA_LOG")
        .ok()
        .and_then(|v| {
            Level::from_str(&v)
                .map(|l| l as u8)
                .or_else(|| v.trim().eq_ignore_ascii_case("off").then_some(LEVEL_OFF))
        })
        .unwrap_or(LEVEL_OFF);
    LEVEL.store(parsed, Ordering::Relaxed);
    parsed
}

/// Overrides the `PSCA_LOG` filter; `None` silences all events.
pub fn set_level(level: Option<Level>) {
    LEVEL.store(
        level.map(|l| l as u8).unwrap_or(LEVEL_OFF),
        Ordering::Relaxed,
    );
}

/// Whether an event at `level` would currently reach a consumer: a sink
/// whose filter admits it, or the Perfetto recorder (which takes every
/// level). Guarded call sites build their fields once for either.
#[inline]
pub fn enabled(level: Level) -> bool {
    sinks_enabled(level) || trace::enabled()
}

#[inline]
fn sinks_enabled(level: Level) -> bool {
    SINK_COUNT.load(Ordering::Relaxed) > 0 && (level as u8) >= level_filter()
}

/// Installs a sink; events at or above the filter level flow to it.
pub fn install_sink(sink: Box<dyn EventSink>) {
    sinks().write().unwrap().push(sink);
    SINK_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Removes all sinks (tests and run teardown).
pub fn clear_sinks() {
    sinks().write().unwrap().clear();
    SINK_COUNT.store(0, Ordering::Relaxed);
}

/// Flushes every installed sink.
pub fn flush() {
    for sink in sinks().read().unwrap().iter() {
        sink.flush();
    }
}

/// Emits one structured event to every installed sink whose filter
/// admits `level` and, while tracing, records it as a Perfetto instant
/// with the same name and fields ([`trace::instant`]).
///
/// Cheap when disabled: three relaxed atomic loads, no allocation.
pub fn emit(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    trace::instant(name, fields);
    to_sinks(level, name, fields);
}

/// Delivers an event to the sinks only, for events whose Perfetto form
/// is not an instant (span enter/exit: the span is a duration bar).
pub(crate) fn to_sinks(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    if !sinks_enabled(level) {
        return;
    }
    let record = EventRecord::now(level, name, fields);
    for sink in sinks().read().unwrap().iter() {
        sink.write_event(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::from_str("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::from_str(" warn "), Some(Level::Warn));
        assert_eq!(Level::from_str("nope"), None);
    }

    #[test]
    fn record_jsonl_shape_without_timestamp() {
        let r = EventRecord {
            level: Level::Warn,
            name: "guardrail.trip".into(),
            fields: vec![
                ("trips".into(), FieldValue::U64(3)),
                ("ipc".into(), FieldValue::F64(1.5)),
            ],
            ts_us: 0,
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"level":"warn","event":"guardrail.trip","fields":{"trips":3,"ipc":1.5}}"#
        );
    }
}
