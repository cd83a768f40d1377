//! `psca-obs`: observability for the post-silicon adaptation pipeline.
//!
//! Five layers, all dependency-free:
//!
//! 1. **Metrics** ([`metrics`]) — atomic [`Counter`]s, [`Gauge`]s, and
//!    log-linear [`Histogram`]s behind a process-global [`Registry`].
//!    Recording is wait-free; with no consumer the cost is one atomic op.
//! 2. **Events** ([`event`]) — discrete structured events (mode switches,
//!    guardrail trips, SLA violations, training rounds): a Perfetto
//!    instant while tracing, and a stderr line when the `PSCA_LOG` level
//!    filter admits them. With neither on, [`emit`] is two relaxed
//!    atomic loads.
//! 3. **Traces** ([`trace`]) — Chrome trace-event recording, opt-in via
//!    `PSCA_TRACE=<path.json>`, loadable in Perfetto; spans, instants, and
//!    counter tracks. The trace is the one time axis: per-window signals
//!    (the `cpu.sim.ipc` counter track, `adapt.window.decision` instants)
//!    live only there, while metrics hold the totals.
//! 4. **Exporter** ([`exporter`]) — the Prometheus text rendering of the
//!    registry and the latest published run report, which the
//!    `psca-serve` daemon answers on `/metrics` and `/report` (the
//!    binaries start one as a side channel on `PSCA_METRICS_ADDR`).
//! 5. **Reports** ([`report`]) — a [`RunReport`] aggregates per-phase
//!    wall time, headline summary values, and a metrics snapshot into
//!    `target/obs/<run>.json` plus a rendered table.
//!
//! [`SpanTimer`] ([`span`]) bridges metrics, events, and traces: an RAII
//! timer that records wall time into `span.<path>` histograms, logs
//! trace-level enter/exit lines, and (when tracing) a Perfetto duration
//! bar. Each thread keeps one span stack, which sweep workers inherit
//! from their caller. The hierarchical self-profiler ([`prof`], opt-in
//! via `PSCA_PROF=1`) rides the same spans: one process-wide call tree
//! with call counts and self-vs-total wall time, rendered as
//! collapsed-stack (flamegraph) text plus a self-time table
//! (`docs/PROFILING.md`).
//!
//! On top of these sit three request-scoped facilities:
//!
//! - **Trace context** ([`ctx`]) — a W3C-traceparent-compatible
//!   [`TraceCtx`] attached per thread; Perfetto spans and instants carry
//!   its ids as args, and histogram exemplars link `/metrics` tails back
//!   to traces.
//! - **SLOs** ([`slo`]) — declarative [`SloSpec`] targets evaluated over
//!   sliding windows with multi-window burn-rate alerts.
//! - **Flight recorder** ([`recorder`]) — a bounded ring of recent
//!   request records dumped as JSONL postmortems on failure.
//!
//! Two shared parsers serve every crate: [`http`], the one HTTP/1.1
//! framing module, and [`spec`], the one `key=value` spec tokenizer.
//!
//! Naming conventions and the `PSCA_LOG` / `PSCA_TRACE` /
//! `PSCA_METRICS_ADDR` contracts are documented in `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod ctx;
pub mod event;
pub mod exporter;
pub mod http;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod recorder;
pub mod report;
pub mod slo;
pub mod span;
pub mod spec;
pub mod trace;

pub use ctx::{SplitMix64, TraceCtx};
pub use event::{emit, enabled, set_level, FieldValue, Level};
pub use json::Json;
pub use metrics::{
    Counter, Exemplar, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry,
};
pub use prof::{NodeStat, Profile};
pub use recorder::{FlightRecorder, RequestRecord};
pub use report::{PhaseStat, RunReport, SummaryValue};
pub use slo::{SloEngine, SloSpec, SloStatus};
pub use span::SpanTimer;
pub use spec::SpecError;

use std::sync::Arc;

/// The global counter named `name` (created on first use).
pub fn counter(name: &str) -> Arc<Counter> {
    metrics::global().counter(name)
}

/// The global gauge named `name` (created on first use).
pub fn gauge(name: &str) -> Arc<Gauge> {
    metrics::global().gauge(name)
}

/// The global histogram named `name` (created on first use).
pub fn histogram(name: &str) -> Arc<Histogram> {
    metrics::global().histogram(name)
}

/// Snapshot of every global metric.
pub fn snapshot() -> MetricsSnapshot {
    metrics::global().snapshot()
}

/// Resets every global metric (per-experiment scoping).
pub fn reset_all() {
    metrics::global().reset();
}

/// The file-name-safe form of `text`: every character outside
/// `[A-Za-z0-9_-]` becomes `_`. Run-report, postmortem and profile
/// artifact names are built from it.
pub fn path_slug(text: &str) -> String {
    text.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Observability bootstrap for binaries:
///
/// - `PSCA_TRACE=<path.json>` starts the Chrome trace-event recorder
///   ([`trace`]);
/// - `PSCA_PROF=1` enables the hierarchical self-profiler ([`prof`]).
///
/// `PSCA_LOG` needs no bootstrap: [`event`] reads it on the first event.
/// The live-metrics side channel (`PSCA_METRICS_ADDR`) is a `psca-serve`
/// daemon, started by the binaries rather than here.
pub fn init_from_env() {
    trace::enable_from_env();
    prof::init_from_env();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_slug_keeps_safe_characters_only() {
        assert_eq!(path_slug("fleet---size-2_x"), "fleet---size-2_x");
        assert_eq!(path_slug("http 5xx/a.b"), "http_5xx_a_b");
    }

    #[test]
    fn convenience_handles_hit_the_global_registry() {
        let c = counter("lib_convenience_counter");
        c.add(7);
        assert_eq!(snapshot().counters.get("lib_convenience_counter"), Some(&7));
    }
}
