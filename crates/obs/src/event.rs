//! Structured, level-filtered discrete events.
//!
//! An event is a name (`"guardrail.trip"`), a [`Level`], and a small set
//! of typed fields. It has one path, [`emit`], and two consumers: while
//! `PSCA_TRACE` recording is on, every event is a Perfetto instant of
//! the same name carrying all its fields; when the `PSCA_LOG` filter
//! admits its level, it is also one `[level] name k=v ...` line on
//! stderr. Emission is near-zero-cost when neither
//! listens: [`emit`] checks two relaxed atomics before building anything.
//!
//! `PSCA_LOG` (`trace | debug | info | warn | error | off`, default
//! `off` so library consumers pay nothing) is read here and nowhere
//! else, on first use; [`set_level`] overrides it.

use crate::json::Json;
use crate::trace;
use std::fmt::Write;
use std::sync::atomic::{AtomicU8, Ordering};

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
    /// Lower-case name, as used by `PSCA_LOG` and the stderr line.
    pub fn name(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a `PSCA_LOG` level name; `off` and unknown names yield
    /// `None`.
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

const LEVEL_OFF: u8 = 5;
const LEVEL_UNINIT: u8 = 255;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// The `PSCA_LOG` filter: the least severe level printed to stderr, read
/// from the environment on first use. Unset, `off` or an unknown name
/// print nothing.
fn level_filter() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l != LEVEL_UNINIT {
        return l;
    }
    let parsed = std::env::var("PSCA_LOG")
        .ok()
        .and_then(|v| Level::from_str(&v))
        .map_or(LEVEL_OFF, |l| l as u8);
    LEVEL.store(parsed, Ordering::Relaxed);
    parsed
}

/// Overrides the `PSCA_LOG` filter; `None` silences the stderr lines.
pub fn set_level(level: Option<Level>) {
    LEVEL.store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
}

/// Whether an event at `level` would currently reach a consumer: the
/// stderr log (when the `PSCA_LOG` filter admits it) or the Perfetto
/// recorder (which takes every level). Guarded call sites build their
/// fields once for either.
#[inline]
pub fn enabled(level: Level) -> bool {
    logged(level) || trace::enabled()
}

#[inline]
fn logged(level: Level) -> bool {
    (level as u8) >= level_filter()
}

/// The stderr rendering of one event: `[level] name k=v ...`, floats to
/// four decimals.
fn log_line(level: Level, name: &str, fields: &[(&str, FieldValue)]) -> String {
    let mut line = format!("[{:>5}] {name}", level.name());
    for (k, v) in fields {
        let _ = match v {
            FieldValue::U64(x) => write!(line, " {k}={x}"),
            FieldValue::I64(x) => write!(line, " {k}={x}"),
            FieldValue::F64(x) => write!(line, " {k}={x:.4}"),
            FieldValue::Str(x) => write!(line, " {k}={x}"),
            FieldValue::Bool(x) => write!(line, " {k}={x}"),
        };
    }
    line
}

/// Emits one structured event: while tracing, a Perfetto instant with
/// the same name and fields ([`trace::instant`]); when the `PSCA_LOG`
/// filter admits `level`, its `[level] name k=v ...` line on stderr.
///
/// Cheap when disabled: two relaxed atomic loads, no allocation.
pub fn emit(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    trace::instant(name, fields);
    log(level, name, fields);
}

/// Prints an event's stderr line only, for events whose Perfetto form is
/// not an instant (span enter/exit: the span is a duration bar).
pub(crate) fn log(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    if logged(level) {
        eprintln!("{}", log_line(level, name, fields));
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
    fn stderr_line_renders_every_field_kind() {
        let line = log_line(
            Level::Warn,
            "guardrail.trip",
            &[
                ("trips", FieldValue::U64(3)),
                ("delta", FieldValue::I64(-2)),
                ("ipc", FieldValue::F64(1.5)),
                ("app", FieldValue::Str("654.roms_s".into())),
                ("gated", FieldValue::Bool(true)),
            ],
        );
        assert_eq!(
            line,
            "[ warn] guardrail.trip trips=3 delta=-2 ipc=1.5000 app=654.roms_s gated=true"
        );
        assert_eq!(
            log_line(Level::Info, "train.round", &[]),
            "[ info] train.round"
        );
    }

    #[test]
    fn level_filter_admits_its_level_and_above() {
        set_level(Some(Level::Info));
        assert!(!logged(Level::Debug));
        assert!(logged(Level::Info));
        assert!(logged(Level::Error));
        set_level(None);
        assert!(!logged(Level::Error));
    }
}
