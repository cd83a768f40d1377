//! Seeded open-loop load generator for the psca-serve daemon.
//!
//! Drives `POST /v1/predict` at a fixed request rate with a *fixed
//! schedule*: request `k` is due at `k / rps` seconds after start,
//! regardless of how long earlier requests took. Latency is measured
//! from the **scheduled** send time, not the actual one, so a stalled
//! server shows up as growing latency instead of silently lowering the
//! offered rate (the coordinated-omission trap).
//!
//! Everything is seeded: feature rows come from a SplitMix64 stream and
//! request `k` carries the deterministic `traceparent`
//! `00-<trace(seed,k)>-<span>-01`, so a given `(seed, rps, duration)`
//! tuple offers bit-identical traffic on every run and any slow request
//! in the summary can be joined against the daemon's access log, latency
//! exemplar, and flight recorder by trace id.
//!
//! The output is a [`LoadgenSummary`]; `repro loadgen --out PATH`
//! persists it and `repro slo-check --bench PATH` turns it into a CI
//! exit code via [`psca_obs::SloSpec::check_values`].

use crate::suite::num_json;
use psca_obs::{http, Json, SplitMix64, TraceCtx};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-read and per-write deadline of every client request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The deterministic trace context attached to request `k` of a run
/// seeded with `seed` (exposed so tests can predict the ids).
pub fn request_ctx(seed: u64, k: u64) -> TraceCtx {
    let mut rng = SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut word = || loop {
        let v = rng.next_u64();
        if v != 0 {
            break v;
        }
    };
    let hi = word() as u128;
    let lo = word() as u128;
    TraceCtx {
        trace_id: (hi << 64) | lo,
        span_id: word(),
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Model slug to score against.
    pub model: String,
    /// Offered request rate, requests per second.
    pub rps: u64,
    /// Run length in seconds (requests = `rps * duration_s`).
    pub duration_s: u64,
    /// Client connections sending in parallel.
    pub connections: usize,
    /// Seed for rows and trace ids.
    pub seed: u64,
    /// Feature-vector width (from `GET /v1/models`).
    pub input_dim: usize,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:8186".to_string(),
            model: "best-rf".to_string(),
            rps: 50,
            duration_s: 2,
            connections: 4,
            seed: 1,
            input_dim: 0,
        }
    }
}

/// One request's outcome as seen by the generator.
#[derive(Debug, Clone)]
struct Sample {
    /// Latency from the *scheduled* send time, microseconds.
    latency_us: u64,
    /// HTTP status (0 when the connection failed outright).
    status: u16,
}

/// Aggregate result of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenSummary {
    /// Requests offered (and attempted).
    pub requests: u64,
    /// Responses with a 2xx status.
    pub ok: u64,
    /// Responses with a 5xx status or a failed connection.
    pub errors: u64,
    /// Fraction of non-error responses.
    pub availability: f64,
    /// Median latency from scheduled send, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
    /// Offered rate (the schedule), requests per second.
    pub offered_rps: u64,
    /// Completed-request throughput actually achieved.
    pub achieved_rps: f64,
    /// Wall-clock run length, seconds.
    pub wall_s: f64,
    /// Seed the run was driven with.
    pub seed: u64,
    /// Trace id (32 hex digits) of the slowest request, for joining
    /// against the daemon's access log and flight recorder.
    pub slowest_trace_id: String,
}

impl LoadgenSummary {
    /// The numeric summary fields, in document order: the `repro
    /// loadgen` top-level keys and the serve bench's `metrics`.
    pub fn metrics(&self) -> [(&'static str, f64); 11] {
        [
            ("requests", self.requests as f64),
            ("ok", self.ok as f64),
            ("errors", self.errors as f64),
            ("availability", self.availability),
            ("p50_us", self.p50_us as f64),
            ("p95_us", self.p95_us as f64),
            ("p99_us", self.p99_us as f64),
            ("max_us", self.max_us as f64),
            ("offered_rps", self.offered_rps as f64),
            ("achieved_rps", self.achieved_rps),
            ("wall_s", self.wall_s),
        ]
    }

    /// JSON rendering: the `repro loadgen` summary document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("bench", "serve-loadgen".into())];
        pairs.extend(self.metrics().map(|(k, v)| (k, num_json(v))));
        pairs.push(("seed", self.seed.into()));
        pairs.push(("slowest_trace_id", self.slowest_trace_id.as_str().into()));
        Json::obj(pairs)
    }
}

/// Renders one predict request body for schedule slot `k`.
fn request_body(cfg: &LoadgenConfig, k: u64) -> String {
    let mut rng = SplitMix64::new(cfg.seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let row: Vec<String> = (0..cfg.input_dim)
        .map(|_| format!("{:.6}", rng.next_f64()))
        .collect();
    format!(
        "{{\"model\":\"{}\",\"rows\":[[{}]]}}",
        cfg.model,
        row.join(",")
    )
}

/// Fetches `GET /v1/models` and returns `(first_model_slug, input_dim)`;
/// used to auto-fill [`LoadgenConfig`] before a run.
///
/// # Errors
/// Returns a human-readable message when the daemon is unreachable or
/// the document has no models.
pub fn discover_model(addr: &str) -> Result<(String, usize), String> {
    let response = http::exchange(addr, "GET", "/v1/models", &[], "", CLIENT_TIMEOUT)
        .map_err(|e| format!("GET /v1/models from {addr} failed: {e}"))?;
    let doc = Json::parse(&response.body).map_err(|e| format!("bad /v1/models JSON: {e}"))?;
    let models = doc
        .get("models")
        .and_then(Json::as_arr)
        .ok_or("no models array in /v1/models")?;
    let first = models.first().ok_or("daemon has no models loaded")?;
    let slug = first
        .get("name")
        .and_then(Json::as_str)
        .ok_or("model entry without a name")?
        .to_string();
    let dim = first
        .get("input_dim_hi")
        .and_then(Json::as_u64)
        .ok_or("model entry without input_dim_hi")? as usize;
    Ok((slug, dim))
}

/// Runs the open-loop schedule and aggregates the outcome.
///
/// Workers split the schedule round-robin; each sleeps until slot `k`'s
/// due time, fires, and attributes the full (due-to-response) time to
/// that slot.
pub fn run(cfg: &LoadgenConfig) -> LoadgenSummary {
    let total = cfg.rps * cfg.duration_s;
    let interval = Duration::from_nanos(1_000_000_000 / cfg.rps.max(1));
    let workers = cfg.connections.clamp(1, 64).min(total.max(1) as usize);
    let samples: Mutex<Vec<(u64, Sample)>> = Mutex::new(Vec::with_capacity(total as usize));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let samples = &samples;
            scope.spawn(move || {
                let mut k = w as u64;
                while k < total {
                    let due = interval * (k as u32);
                    let now = start.elapsed();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let ctx = request_ctx(cfg.seed, k);
                    let status = http::exchange(
                        &cfg.addr,
                        "POST",
                        "/v1/predict",
                        &[
                            ("Content-Type", "application/json"),
                            ("traceparent", &ctx.to_traceparent()),
                        ],
                        &request_body(cfg, k),
                        CLIENT_TIMEOUT,
                    )
                    .map_or(0, |r| r.status);
                    let latency_us = start
                        .elapsed()
                        .saturating_sub(due)
                        .as_micros()
                        .min(u128::from(u64::MAX)) as u64;
                    samples
                        .lock()
                        .unwrap()
                        .push((k, Sample { latency_us, status }));
                    k += workers as u64;
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let samples = samples.into_inner().unwrap();
    summarize(cfg, &samples, wall_s)
}

fn summarize(cfg: &LoadgenConfig, samples: &[(u64, Sample)], wall_s: f64) -> LoadgenSummary {
    let requests = samples.len() as u64;
    let ok = samples
        .iter()
        .filter(|(_, s)| (200..300).contains(&s.status))
        .count() as u64;
    let errors = samples
        .iter()
        .filter(|(_, s)| s.status == 0 || s.status >= 500)
        .count() as u64;
    let mut latencies: Vec<u64> = samples.iter().map(|(_, s)| s.latency_us).collect();
    latencies.sort_unstable();
    let q = |frac: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((latencies.len() as f64) * frac).ceil() as usize;
        latencies[rank.saturating_sub(1).min(latencies.len() - 1)]
    };
    let slowest = samples
        .iter()
        .max_by_key(|(_, s)| s.latency_us)
        .map(|(k, _)| request_ctx(cfg.seed, *k).trace_id_hex())
        .unwrap_or_default();
    LoadgenSummary {
        requests,
        ok,
        errors,
        availability: if requests > 0 {
            1.0 - errors as f64 / requests as f64
        } else {
            1.0
        },
        p50_us: q(0.50),
        p95_us: q(0.95),
        p99_us: q(0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        offered_rps: cfg.rps,
        achieved_rps: if wall_s > 0.0 {
            requests as f64 / wall_s
        } else {
            0.0
        },
        wall_s,
        seed: cfg.seed,
        slowest_trace_id: slowest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ctx_is_deterministic_and_valid() {
        let a = request_ctx(7, 3);
        let b = request_ctx(7, 3);
        assert_eq!(a, b);
        assert_ne!(a, request_ctx(7, 4));
        assert_ne!(a, request_ctx(8, 3));
        // Round-trips through the header grammar.
        assert_eq!(TraceCtx::parse_traceparent(&a.to_traceparent()), Some(a));
    }

    #[test]
    fn request_bodies_are_seed_stable() {
        let cfg = LoadgenConfig {
            input_dim: 4,
            ..LoadgenConfig::default()
        };
        assert_eq!(request_body(&cfg, 5), request_body(&cfg, 5));
        assert_ne!(request_body(&cfg, 5), request_body(&cfg, 6));
        assert!(request_body(&cfg, 0).contains("\"model\":\"best-rf\""));
    }

    #[test]
    fn summary_percentiles_and_verdict() {
        let cfg = LoadgenConfig::default();
        let samples: Vec<(u64, Sample)> = (0..100)
            .map(|k| {
                (
                    k,
                    Sample {
                        latency_us: (k + 1) * 100,
                        status: if k < 95 { 200 } else { 503 },
                    },
                )
            })
            .collect();
        let s = summarize(&cfg, &samples, 2.0);
        assert_eq!(s.requests, 100);
        assert_eq!(s.ok, 95);
        assert_eq!(s.errors, 5);
        assert!((s.availability - 0.95).abs() < 1e-9);
        assert_eq!(s.p50_us, 5_000);
        assert_eq!(s.p99_us, 9_900);
        assert_eq!(s.max_us, 10_000);
        assert_eq!(s.achieved_rps, 50.0);
        // The slowest request's trace id is the schedule's last slot.
        assert_eq!(s.slowest_trace_id, request_ctx(cfg.seed, 99).trace_id_hex());
        let doc = s.to_json();
        assert_eq!(doc.get("p99_us").and_then(Json::as_u64), Some(9_900));
        assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(100));
    }
}
