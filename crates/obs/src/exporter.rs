//! Live metrics over HTTP: a std-only TCP server for scrapers.
//!
//! [`MetricsServer::start`] binds a [`std::net::TcpListener`] and serves
//! three read-only endpoints from a background thread:
//!
//! | Path | Content |
//! |---|---|
//! | `/metrics` | the global registry in Prometheus text exposition format |
//! | `/healthz` | `ok` (liveness probe) |
//! | `/report`  | the most recently published [`crate::RunReport`] JSON |
//!
//! Prometheus names map dot-separated metric names with `.` → `_`
//! (`cpu.sim.instructions` → `cpu_sim_instructions`); counters and gauges
//! export directly, histograms export as summaries (`{quantile="..."}`
//! series plus `_sum`/`_count`), and each time-series contributes its most
//! recent value as a `<name>_last` gauge.
//!
//! Requests are framed by [`crate::http`]: any method but `GET` answers
//! 405, and a malformed, oversized or stalled request answers 400, 413
//! or 408 with the framing error as plain text.
//!
//! Opt-in via the `PSCA_METRICS_ADDR=<host:port>` environment variable
//! (see [`serve_from_env`]) or a binary flag like `repro --serve-metrics`.
//! Port `0` asks the OS for a free port; the bound address is printed to
//! stderr and available from [`MetricsServer::local_addr`].

use crate::http;
use crate::metrics::{self, MetricsSnapshot};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Background HTTP server exposing the global metric registry.
#[derive(Debug)]
pub struct MetricsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9185`, port 0 for OS-assigned) and
    /// starts serving on a background thread.
    ///
    /// # Errors
    /// Propagates bind failures (port in use, bad address).
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("psca-obs-exporter".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        handle_connection(stream);
                    }
                }
            })?;
        Ok(MetricsServer {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

/// Content type of the Prometheus text exposition, for every `/metrics`.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

const PLAIN_TEXT: &str = "text/plain; charset=utf-8";

/// Largest request body the exporter reads (and ignores) before answering.
const MAX_BODY_BYTES: usize = 8 * 1024;

fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let (status, content_type, body) = match http::read_request(&mut stream, MAX_BODY_BYTES) {
        Err(e) => (e.status(), PLAIN_TEXT, format!("{e}\n")),
        Ok(req) if req.method != "GET" => (405, PLAIN_TEXT, "method not allowed\n".to_string()),
        Ok(req) => match req.path.as_str() {
            "/metrics" => (
                200,
                METRICS_CONTENT_TYPE,
                prometheus_text(&metrics::global().snapshot()),
            ),
            "/healthz" => (200, PLAIN_TEXT, "ok\n".to_string()),
            "/report" => match latest_report().lock().unwrap().clone() {
                Some(json) => (200, "application/json", json),
                None => (404, PLAIN_TEXT, "no run report published yet\n".to_string()),
            },
            _ => (404, PLAIN_TEXT, "not found\n".to_string()),
        },
    };
    let _ = http::write_response(&mut stream, status, content_type, &[], &body);
}

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
    for (name, pts) in &snap.series {
        if let Some((_, y)) = pts.last() {
            let n = prometheus_name(&format!("{name}_last"));
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_f64(*y)));
        }
    }
    out
}

fn latest_report() -> &'static Mutex<Option<String>> {
    static LATEST: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    LATEST.get_or_init(|| Mutex::new(None))
}

/// Publishes a run-report JSON document to the `/report` endpoint
/// (called by [`crate::RunReport::write`]).
pub fn publish_report(json: &str) {
    *latest_report().lock().unwrap() = Some(json.to_string());
}

fn global_server() -> &'static Mutex<Option<MetricsServer>> {
    static SERVER: OnceLock<Mutex<Option<MetricsServer>>> = OnceLock::new();
    SERVER.get_or_init(|| Mutex::new(None))
}

/// Starts the process-global exporter on `addr` unless one is already
/// running; returns the bound address either way, or `None` on bind
/// failure (reported to stderr).
pub fn serve(addr: &str) -> Option<SocketAddr> {
    let mut guard = global_server().lock().unwrap();
    if let Some(server) = guard.as_ref() {
        return Some(server.local_addr());
    }
    match MetricsServer::start(addr) {
        Ok(server) => {
            let bound = server.local_addr();
            eprintln!("psca-obs: serving /metrics /healthz /report on http://{bound}");
            *guard = Some(server);
            Some(bound)
        }
        Err(e) => {
            eprintln!("psca-obs: cannot bind metrics exporter on {addr}: {e}");
            None
        }
    }
}

/// Starts the process-global exporter when `PSCA_METRICS_ADDR` is set.
pub fn serve_from_env() -> Option<SocketAddr> {
    match std::env::var("PSCA_METRICS_ADDR") {
        Ok(addr) if !addr.trim().is_empty() => serve(addr.trim()),
        _ => None,
    }
}

/// The process-global exporter's address, if one is running.
pub fn global_addr() -> Option<SocketAddr> {
    global_server()
        .lock()
        .unwrap()
        .as_ref()
        .map(|s| s.local_addr())
}

/// Stops the process-global exporter, if one is running.
pub fn shutdown_global() {
    if let Some(server) = global_server().lock().unwrap().take() {
        server.shutdown();
    }
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
        snap.series.insert("d.ipc".into(), vec![(0, 2.0), (1, 2.5)]);
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE a_count counter\na_count 3\n"));
        assert!(text.contains("# TYPE b_level gauge\nb_level 1.5\n"));
        assert!(text.contains("c_lat{quantile=\"0.5\"} 10\n"));
        assert!(text.contains("c_lat_sum 30\nc_lat_count 2\n"));
        assert!(text.contains("c_lat_exemplar{trace_id=\"cafe\"} 20\n"));
        assert!(text.contains("# TYPE d_ipc_last gauge\nd_ipc_last 2.5\n"));
    }
}
