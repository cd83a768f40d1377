//! Prometheus text exposition and the latest-run-report slot: what the
//! `psca-serve` daemon answers on `GET /metrics` and `GET /report`.
//!
//! Prometheus names map dot-separated metric names with `.` → `_`
//! (`cpu.sim.instructions` → `cpu_sim_instructions`); counters and gauges
//! export directly, and histograms export as summaries (`{quantile="..."}`
//! series plus `_sum`/`_count`).
//!
//! [`crate::RunReport::write`] publishes each report it writes through
//! [`publish_report`]; [`latest_report`] reads the most recent one back.
//! The live side channel (`PSCA_METRICS_ADDR`) is a `psca-serve` daemon
//! started by the binaries' shared front end.

use crate::metrics::MetricsSnapshot;
use std::sync::Mutex;

/// Content type of the Prometheus text exposition, for every `/metrics`.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Maps a dot-separated metric name onto the Prometheus grammar:
/// `.` becomes `_`, any other invalid character becomes `_`, and a
/// leading digit is prefixed with `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4).
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_f64(*v)));
    }
    for (name, h) in &snap.histograms {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        if let Some(e) = snap.exemplars.get(name) {
            // OpenMetrics-style exemplar, emitted as a label so plain
            // Prometheus text parsers still accept the line.
            out.push_str(&format!(
                "{n}_exemplar{{trace_id=\"{}\"}} {}\n",
                e.trace_id, e.value
            ));
        }
    }
    out
}

static LATEST_REPORT: Mutex<Option<String>> = Mutex::new(None);

/// Publishes a run-report JSON document as the latest report (called by
/// [`crate::RunReport::write`]).
pub fn publish_report(json: &str) {
    *LATEST_REPORT.lock().unwrap() = Some(json.to_string());
}

/// The most recently published run-report JSON, if any.
pub fn latest_report() -> Option<String> {
    LATEST_REPORT.lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;

    #[test]
    fn prometheus_names_map_dots_to_underscores() {
        assert_eq!(
            prometheus_name("cpu.sim.instructions"),
            "cpu_sim_instructions"
        );
        assert_eq!(prometheus_name("span.repro.fig8"), "span_repro_fig8");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("a-b c"), "a_b_c");
    }

    #[test]
    fn exposition_covers_all_metric_kinds() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.count".into(), 3);
        snap.gauges.insert("b.level".into(), 1.5);
        snap.histograms.insert(
            "c.lat".into(),
            HistogramSummary {
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                p50: 10,
                p95: 20,
                p99: 20,
            },
        );
        snap.exemplars.insert(
            "c.lat".into(),
            crate::metrics::Exemplar {
                value: 20,
                trace_id: "cafe".into(),
            },
        );
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE a_count counter\na_count 3\n"));
        assert!(text.contains("# TYPE b_level gauge\nb_level 1.5\n"));
        assert!(text.contains("c_lat{quantile=\"0.5\"} 10\n"));
        assert!(text.contains("c_lat_sum 30\nc_lat_count 2\n"));
        assert!(text.contains("c_lat_exemplar{trace_id=\"cafe\"} 20\n"));
    }
}
