//! End-to-end observability tests: trace-context propagation over real
//! sockets into the Perfetto artifact, bit-identity of served results
//! with tracing on vs off, readiness vs liveness, the SLO endpoint and
//! burn-rate math, the flight recorder's postmortem dumps, and the JSONL
//! access log.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use psca::adapt::ModelKind;
use psca::obs::{Json, SloEngine, SloSpec, TraceCtx};
use psca::serve::{Daemon, ModelRegistry, ServeConfig};

/// A parsed HTTP response: status, raw head (for header assertions), body.
struct Response {
    status: u16,
    head: String,
    body: String,
}

impl Response {
    /// The value of `name` in the response head, if present.
    fn header(&self, name: &str) -> Option<String> {
        self.head.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case(name)
                .then(|| v.trim().to_string())
        })
    }
}

fn send(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Response {
    send_with_headers(addr, method, path, body, &[])
}

fn send_with_headers(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[&str],
) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    if !body.is_empty() || method == "POST" {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    Response {
        status,
        head: head.to_string(),
        body: body.to_string(),
    }
}

fn rf_registry(seed: u64) -> ModelRegistry {
    let cfg = psca::adapt::ExperimentConfig {
        seed,
        ..psca::adapt::ExperimentConfig::quick()
    };
    ModelRegistry::train(cfg, &[ModelKind::BestRf])
}

fn probe_rows(dim: usize, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * dim + j) as f64 * 0.7).sin().abs() * 100.0)
                .collect()
        })
        .collect()
}

fn rows_json(rows: &[Vec<f64>]) -> String {
    let arr: Vec<String> = rows
        .iter()
        .map(|r| {
            let xs: Vec<String> = r.iter().map(|x| format!("{x}")).collect();
            format!("[{}]", xs.join(","))
        })
        .collect();
    format!("[{}]", arr.join(","))
}

#[test]
fn readyz_distinguishes_readiness_from_liveness() {
    // A daemon with no models loaded is *live* (the process serves HTTP)
    // but not *ready* (it cannot answer predictions yet).
    let cfg = psca::adapt::ExperimentConfig {
        seed: 31,
        ..psca::adapt::ExperimentConfig::quick()
    };
    let daemon = Daemon::start(ServeConfig::default(), ModelRegistry::new(cfg)).expect("bind");
    let addr = daemon.local_addr();
    assert_eq!(send(addr, "GET", "/healthz", "").status, 200);
    let r = send(addr, "GET", "/readyz", "");
    assert_eq!(r.status, 503, "{}", r.body);
    assert_eq!(
        Json::parse(&r.body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str),
        Some("not_ready")
    );
    daemon.shutdown();

    // With a loaded registry and an accepting pool the daemon is ready.
    let daemon = Daemon::start(ServeConfig::default(), rf_registry(31)).expect("bind");
    let addr = daemon.local_addr();
    assert_eq!(send(addr, "GET", "/healthz", "").status, 200);
    let r = send(addr, "GET", "/readyz", "");
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = Json::parse(&r.body).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ready"));

    // Wrong method gets the typed 405, not a 404.
    assert_eq!(send(addr, "POST", "/readyz", "").status, 405);
    daemon.shutdown();
}

/// `GET /v1/slo` on a live daemon: the one SLO verdict. A burst of
/// predictions holds the default spec and is counted in its window; a
/// spec whose p99 target no request can meet raises a p99 alert; a
/// daemon without a spec says so.
#[test]
fn slo_endpoint_reports_spec_and_live_status() {
    const BURST: u64 = 30;
    let slo_doc = |addr| {
        let r = send(addr, "GET", "/v1/slo", "");
        assert_eq!(r.status, 200, "{}", r.body);
        Json::parse(&r.body).unwrap()
    };
    let burst = |slo: Option<SloSpec>| {
        let registry = rf_registry(37);
        let dim = registry.get("best-rf").unwrap().fw_hi.input_dim().unwrap();
        let config = ServeConfig {
            slo,
            ..ServeConfig::default()
        };
        let daemon = Daemon::start(config, registry).expect("bind");
        let body = format!(
            r#"{{"model":"best-rf","rows":{}}}"#,
            rows_json(&probe_rows(dim, 1))
        );
        for _ in 0..BURST {
            let r = send(daemon.local_addr(), "POST", "/v1/predict", &body);
            assert_eq!(r.status, 200, "{}", r.body);
        }
        daemon
    };

    let daemon = burst(Some(SloSpec::default()));
    let doc = slo_doc(daemon.local_addr());
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc}");
    assert!(doc.get("window_requests").and_then(Json::as_u64).unwrap() >= BURST);
    let spec = doc.get("spec").expect("spec block");
    assert_eq!(spec.get("availability").and_then(Json::as_f64), Some(0.999));
    daemon.shutdown();

    // A 1 µs p99 target: every served request breaches it.
    let tight = SloSpec {
        p99_latency_us: 1,
        ..SloSpec::default()
    };
    let daemon = burst(Some(tight));
    let doc = slo_doc(daemon.local_addr());
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{doc}");
    let alerts = doc.get("alerts").and_then(Json::as_arr).expect("alerts");
    assert!(
        alerts
            .iter()
            .filter_map(Json::as_str)
            .any(|a| a.starts_with("p99 latency")),
        "{doc}"
    );
    daemon.shutdown();

    // SLO disabled: the endpoint says so instead of 404ing.
    let daemon = burst(None);
    assert_eq!(
        slo_doc(daemon.local_addr())
            .get("enabled")
            .and_then(Json::as_bool),
        Some(false)
    );
    daemon.shutdown();
}

/// The tentpole acceptance test: one traced request renders as a single
/// Perfetto tree (ingress span → sim windows → sim intervals, all
/// carrying the same trace id), the response echoes the `traceparent`,
/// the flight recorder and latency exemplar carry the same id — and
/// turning tracing on changes no served byte.
#[test]
fn traced_request_is_one_perfetto_tree_and_stays_bit_identical() {
    let registry = rf_registry(41);
    let dim = registry.get("best-rf").unwrap().fw_hi.input_dim().unwrap();
    let daemon = Daemon::start(ServeConfig::default(), registry).expect("bind");
    let addr = daemon.local_addr();
    let predict_body = format!(
        r#"{{"model":"best-rf","rows":{}}}"#,
        rows_json(&probe_rows(dim, 4))
    );
    let loop_body = r#"{"model":"best-rf","archetype":"dep-chain","seed":5,"windows":4}"#;

    // The same client-minted traceparent rides on every request, so the
    // ONLY variable between the two halves is the trace recorder.
    let client_ctx = TraceCtx {
        trace_id: 0xABAD_1DEA_0000_0000_0000_0000_5EED_5EED,
        span_id: 0x1234_5678_9ABC_DEF0,
    };
    let tp_header = format!("traceparent: {}", client_ctx.to_traceparent());

    // Baseline with tracing OFF.
    let predict_off = send_with_headers(addr, "POST", "/v1/predict", &predict_body, &[&tp_header]);
    let loop_off = send_with_headers(addr, "POST", "/v1/closed-loop", loop_body, &[&tp_header]);
    assert_eq!(predict_off.status, 200, "{}", predict_off.body);
    assert_eq!(loop_off.status, 200, "{}", loop_off.body);

    // Tracing ON.
    let trace_path =
        std::env::temp_dir().join(format!("psca_obs_e2e_trace_{}.json", std::process::id()));
    assert!(
        psca::obs::trace::enable(&trace_path),
        "trace recorder already active (another test holds it?)"
    );
    let predict_on = send_with_headers(addr, "POST", "/v1/predict", &predict_body, &[&tp_header]);
    let loop_on = send_with_headers(addr, "POST", "/v1/closed-loop", loop_body, &[&tp_header]);
    let trace_hex = client_ctx.trace_id_hex();

    // Bit-identity: tracing and trace-context propagation change nothing.
    assert_eq!(predict_on.status, 200);
    assert_eq!(
        predict_on.body, predict_off.body,
        "predict must be bit-identical with tracing on"
    );
    assert_eq!(
        loop_on.body, loop_off.body,
        "closed-loop must be bit-identical with tracing on"
    );

    // The response echoes our trace id (fresh server-hop span id).
    let echoed = predict_on.header("traceparent").expect("traceparent echo");
    let echoed_ctx = TraceCtx::parse_traceparent(&echoed).expect("valid echoed header");
    assert_eq!(echoed_ctx.trace_id, client_ctx.trace_id);
    assert_ne!(echoed_ctx.span_id, client_ctx.span_id, "server hop span");

    // The flight recorder joins on the same trace id.
    let r = send(addr, "GET", "/v1/debug/requests", "");
    assert_eq!(r.status, 200);
    let doc = Json::parse(&r.body).unwrap();
    let recent = doc.get("requests").and_then(Json::as_arr).unwrap();
    assert!(
        recent.iter().any(|rec| {
            rec.get("trace_id").and_then(Json::as_str) == Some(trace_hex.as_str())
                && rec.get("endpoint").and_then(Json::as_str) == Some("closed_loop")
        }),
        "flight recorder must hold the traced closed-loop request"
    );

    // The latency histogram exemplar links /metrics back to the trace.
    let metrics = send(addr, "GET", "/metrics", "");
    assert!(
        metrics
            .body
            .contains(&format!("_exemplar{{trace_id=\"{trace_hex}\"}}")),
        "exemplar with our trace id missing from /metrics"
    );

    daemon.shutdown();
    let written = psca::obs::trace::finish().expect("trace written");
    let text = std::fs::read_to_string(&written).unwrap();
    let _ = std::fs::remove_file(&written);
    let events = Json::parse(&text).unwrap();
    let events = events.as_arr().expect("trace file is a JSON array");

    // Every span of the traced request carries the same trace id, and the
    // tree covers ingress → closed-loop windows → sim intervals.
    let ours: Vec<&Json> = events
        .iter()
        .filter(|ev| {
            ev.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str)
                == Some(trace_hex.as_str())
        })
        .collect();
    let names: std::collections::BTreeSet<&str> = ours
        .iter()
        .filter_map(|ev| ev.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.iter().any(|n| n.contains("serve.request")),
        "ingress span missing; traced names: {names:?}"
    );
    assert!(
        names.contains("sim.window"),
        "closed-loop window spans missing; traced names: {names:?}"
    );
    assert!(
        names.contains("cpu.sim.interval"),
        "sim interval spans missing; traced names: {names:?}"
    );
    // Both served requests appear: predict + closed-loop ingress spans
    // (children nest dot-joined under them, so match the exact name).
    let ingress = ours
        .iter()
        .filter(|ev| ev.get("name").and_then(Json::as_str) == Some("serve.request"))
        .count();
    assert_eq!(ingress, 2, "one ingress span per traced request");
}

#[test]
fn flight_recorder_dumps_postmortem_on_5xx() {
    let chaos = psca::faults::ChaosSpec::parse("uc.drop=1.0,seed=3").unwrap();
    let daemon = Daemon::start(
        ServeConfig {
            chaos: Some(chaos),
            ..ServeConfig::default()
        },
        rf_registry(43),
    )
    .expect("bind");
    let addr = daemon.local_addr();

    let postmortems = || -> usize {
        std::fs::read_dir("target/obs")
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name()
                            .to_string_lossy()
                            .starts_with("postmortem-http-5xx-")
                    })
                    .count()
            })
            .unwrap_or(0)
    };
    // Dump sequence numbers restart per process: clear stale artifacts so
    // a rerun's dump can't land on an old filename and hide itself.
    if let Ok(dir) = std::fs::read_dir("target/obs") {
        for e in dir.filter_map(Result::ok) {
            if e.file_name()
                .to_string_lossy()
                .starts_with("postmortem-http-5xx-")
            {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    let before = postmortems();

    let ctx = TraceCtx {
        trace_id: 0xDEAD_BEEF,
        span_id: 0xFEED,
    };
    let tp_header = format!("traceparent: {}", ctx.to_traceparent());
    let r = send_with_headers(
        addr,
        "POST",
        "/v1/predict",
        r#"{"model":"best-rf","rows":[[1]]}"#,
        &[&tp_header],
    );
    assert_eq!(r.status, 503, "chaos drops every prediction: {}", r.body);
    assert_eq!(
        Json::parse(&r.body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str),
        Some("chaos_dropped")
    );

    // The 5xx triggered a postmortem dump. The daemon writes it *after*
    // responding (bookkeeping never holds the client), so wait for it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while postmortems() <= before && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        postmortems() > before,
        "no postmortem-http-5xx-*.jsonl appeared in target/obs"
    );
    // ...and the debug endpoint shows the request with its trace id and
    // error class.
    let doc = Json::parse(&send(addr, "GET", "/v1/debug/requests", "").body).unwrap();
    let recent = doc.get("requests").and_then(Json::as_arr).unwrap();
    assert!(recent.iter().any(|rec| {
        rec.get("trace_id").and_then(Json::as_str) == Some(ctx.trace_id_hex().as_str())
            && rec.get("error_class").and_then(Json::as_str) == Some("chaos_dropped")
            && rec.get("status").and_then(Json::as_u64) == Some(503)
    }));
    daemon.shutdown();

    // The postmortem's line for the failed request is the same record,
    // in the same shape, as the debug entry with its seq.
    let dumped = std::fs::read_dir("target/obs")
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("postmortem-http-5xx-")
        })
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .find_map(|text| {
            text.lines()
                .find(|l| l.contains(&ctx.trace_id_hex()))
                .map(|l| Json::parse(l).expect("postmortem line is JSON"))
        })
        .expect("postmortem line for the failed request");
    assert_eq!(record_keys(&dumped), RECORD_KEYS);
    let seq = dumped.get("seq").and_then(Json::as_u64).expect("seq");
    assert_eq!(entry_with_seq(&doc, seq), Some(&dumped));
}

/// The members of a `RequestRecord` line, in order: the one shape of
/// access-log lines, postmortem lines and `/v1/debug/requests` entries.
const RECORD_KEYS: [&str; 11] = [
    "seq",
    "ts_ms",
    "trace_id",
    "method",
    "path",
    "endpoint",
    "status",
    "latency_us",
    "queue_us",
    "error_class",
    "note",
];

fn record_keys(record: &Json) -> Vec<&str> {
    match record {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn access_log_lines_join_on_trace_id() {
    let log_path =
        std::env::temp_dir().join(format!("psca_access_log_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let registry = rf_registry(47);
    let dim = registry.get("best-rf").unwrap().fw_hi.input_dim().unwrap();
    // One worker: it records each request before it reads the next, so
    // the debug scrape below sees the traced request.
    let daemon = Daemon::start(
        ServeConfig {
            access_log: Some(log_path.clone()),
            workers: 1,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("bind");
    let addr = daemon.local_addr();

    let ctx = TraceCtx {
        trace_id: 0xACCE_55ED,
        span_id: 0x10,
    };
    let tp_header = format!("traceparent: {}", ctx.to_traceparent());
    let body = format!(
        r#"{{"model":"best-rf","rows":{}}}"#,
        rows_json(&probe_rows(dim, 1))
    );
    // A request ahead of the traced one, so its seq is not the default 0.
    assert_eq!(send(addr, "GET", "/healthz", "").status, 200);
    let r = send_with_headers(addr, "POST", "/v1/predict", &body, &[&tp_header]);
    assert_eq!(r.status, 200, "{}", r.body);
    let debug = Json::parse(&send(addr, "GET", "/v1/debug/requests", "").body).unwrap();
    daemon.shutdown();

    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let _ = std::fs::remove_file(&log_path);
    let line = text
        .lines()
        .find(|l| l.contains(&ctx.trace_id_hex()))
        .expect("access line for the traced request");
    let logged = Json::parse(line).expect("access line is JSON");
    assert_eq!(
        logged.get("trace_id").and_then(Json::as_str),
        Some(ctx.trace_id_hex().as_str())
    );
    assert_eq!(logged.get("method").and_then(Json::as_str), Some("POST"));
    assert_eq!(
        logged.get("path").and_then(Json::as_str),
        Some("/v1/predict")
    );
    assert_eq!(
        logged.get("endpoint").and_then(Json::as_str),
        Some("predict")
    );
    assert_eq!(logged.get("status").and_then(Json::as_u64), Some(200));
    assert_eq!(record_keys(&logged), RECORD_KEYS);
    // ts_ms is wall-clock (Unix-epoch) time, not time since daemon start.
    assert!(logged.get("ts_ms").and_then(Json::as_u64) > Some(1_600_000_000_000));
    // The access log writes the flight recorder's record: the line equals
    // the `/v1/debug/requests` entry with the same seq.
    let seq = logged.get("seq").and_then(Json::as_u64).expect("seq");
    assert_eq!(entry_with_seq(&debug, seq), Some(&logged));
}

/// The entry of a `/v1/debug/requests` document with sequence number
/// `seq`.
fn entry_with_seq(debug: &Json, seq: u64) -> Option<&Json> {
    debug
        .get("requests")
        .and_then(Json::as_arr)?
        .iter()
        .find(|r| r.get("seq").and_then(Json::as_u64) == Some(seq))
}

// ---------------------------------------------------------------------
// psca-prof: the hierarchical self-profiler (docs/PROFILING.md).
//
// The profiler's global state (enabled flag + merged profile) is shared
// by every test in this binary, so tests that flip it or drain it
// serialize on PROF_LOCK. Tests that don't touch the profiler may run
// concurrently: the profiler observing their spans is exactly the
// situation the bit-identity guarantee covers.
// ---------------------------------------------------------------------

static PROF_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_prof() -> std::sync::MutexGuard<'static, ()> {
    PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Profiling on vs off must not change a single byte of experiment
/// output — here `repro table3`'s stdout (training opens `ml.*.fit`
/// spans, so the profiled run demonstrably captured stacks while
/// producing identical results).
#[test]
fn profiler_keeps_table3_bit_identical() {
    use psca::adapt::{experiments::table3, CorpusTelemetry, ExperimentConfig};
    let mut cfg = ExperimentConfig::quick();
    cfg.hdtr_apps = 8;
    cfg.jobs = 2;
    let corpus = CorpusTelemetry::hdtr(&cfg);
    let _g = lock_prof();
    psca::obs::prof::set_enabled(false);
    let off = table3::run(&cfg, &corpus).to_string();
    psca::obs::prof::set_enabled(true);
    let _ = psca::obs::prof::drain();
    let on = table3::run(&cfg, &corpus).to_string();
    let profile = psca::obs::prof::drain();
    psca::obs::prof::set_enabled(false);
    assert_eq!(off, on, "profiling must not change table3 output");
    assert!(
        profile
            .nodes()
            .any(|(stack, _)| stack.contains("ml.") && stack.contains(".fit")),
        "profiled table3 run must capture training spans; got {} stacks",
        profile.len()
    );
}

/// Served bytes stay bit-identical with profiling on, and
/// `GET /v1/profile` scrapes (and consumes) the captured stacks.
#[test]
fn profiler_keeps_served_predictions_bit_identical_and_scrapes() {
    let registry = rf_registry(53);
    let dim = registry.get("best-rf").unwrap().fw_hi.input_dim().unwrap();
    let daemon = Daemon::start(ServeConfig::default(), registry).expect("bind");
    let addr = daemon.local_addr();
    let body = format!(
        r#"{{"model":"best-rf","rows":{}}}"#,
        rows_json(&probe_rows(dim, 6))
    );

    let _g = lock_prof();
    psca::obs::prof::set_enabled(false);
    let scrape = send(addr, "GET", "/v1/profile", "");
    assert_eq!(scrape.status, 200, "{}", scrape.body);
    assert_eq!(
        Json::parse(&scrape.body)
            .unwrap()
            .get("enabled")
            .and_then(Json::as_bool),
        Some(false)
    );

    let off = send(addr, "POST", "/v1/predict", &body);
    assert_eq!(off.status, 200, "{}", off.body);

    psca::obs::prof::set_enabled(true);
    let _ = psca::obs::prof::drain();
    let on = send(addr, "POST", "/v1/predict", &body);
    assert_eq!(on.status, 200);
    assert_eq!(
        off.body, on.body,
        "served predictions must be bit-identical with profiling on"
    );

    // The ingress span lands in the global profile when the worker
    // finishes bookkeeping, which may trail the response: poll the
    // scrape (each read drains, so a late span is caught by a later
    // scrape) until it shows up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let scrape = send(addr, "GET", "/v1/profile", "");
        assert_eq!(scrape.status, 200);
        let doc = Json::parse(&scrape.body).unwrap();
        assert_eq!(doc.get("enabled").and_then(Json::as_bool), Some(true));
        let seen = doc.get("top").and_then(Json::as_arr).is_some_and(|top| {
            top.iter().any(|n| {
                n.get("stack")
                    .and_then(Json::as_str)
                    .is_some_and(|s| s.contains("serve.request"))
            })
        });
        if seen {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no serve.request stack in /v1/profile; last scrape: {}",
            scrape.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    psca::obs::prof::set_enabled(false);
    daemon.shutdown();
}

/// A sweep run inside a caller's span profiles its cells under that
/// span at any worker count: workers inherit the caller's span stack,
/// and profile nodes are commutative sums, so the call tree (stacks and
/// call counts — timings are wall clock and naturally vary) is
/// invariant under the worker count, exactly like series shards.
#[test]
fn sweep_profile_nests_under_the_callers_span_at_any_job_count() {
    let run = |jobs: usize| -> Vec<(String, u64)> {
        psca::obs::prof::set_enabled(true);
        let _ = psca::obs::prof::drain();
        let caller = psca::obs::SpanTimer::start("proftest.caller");
        let cells: Vec<u64> = (0..12).collect();
        let _ = psca::exec::Sweep::new("proftest")
            .jobs(jobs)
            .run(cells, |&c| {
                let outer = psca::obs::SpanTimer::start("proftest.outer");
                {
                    let _inner = psca::obs::SpanTimer::start("proftest.inner");
                    std::hint::black_box(c.wrapping_mul(c));
                }
                drop(outer);
                c
            });
        drop(caller);
        psca::obs::prof::drain()
            .nodes()
            .filter(|(stack, _)| stack.starts_with("proftest"))
            .map(|(stack, stat)| (stack.to_string(), stat.calls))
            .collect()
    };
    let _g = lock_prof();
    let serial = run(1);
    let parallel = run(4);
    psca::obs::prof::set_enabled(false);
    assert_eq!(
        serial, parallel,
        "profile stacks and call counts must not depend on jobs"
    );
    assert_eq!(
        serial,
        vec![
            ("proftest.caller".to_string(), 1),
            ("proftest.caller;proftest.outer".to_string(), 12),
            (
                "proftest.caller;proftest.outer;proftest.inner".to_string(),
                12
            ),
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The collapsed-stack rendering is lossless for self time: every
    /// stack appears on exactly one `stack value` line whose value is the
    /// stack's self time in microseconds (only self time survives folding
    /// by design).
    #[test]
    fn folded_roundtrip_is_lossless_for_self_time(
        entries in prop::collection::vec(
            (0usize..6, 0usize..6, 1usize..4, 0u64..1_000_000),
            1..12,
        )
    ) {
        // Frame names exercise the grammar's corners: dots inside names,
        // digits, underscores (`;` and spaces are what the format reserves).
        const NAMES: [&str; 6] =
            ["serve.request", "sim.window", "ml.rf.fit", "a", "x_1", "repro.fig8"];
        let mut p = psca::obs::Profile::default();
        for &(first, second, depth, self_us) in &entries {
            let mut stack = NAMES[first].to_string();
            for d in 1..depth {
                stack.push(';');
                stack.push_str(NAMES[(second + d) % NAMES.len()]);
            }
            p.record(&stack, self_us * 1_000, self_us * 1_000);
        }
        let folded = p.folded();
        let lines: Vec<(&str, u64)> = folded
            .lines()
            .map(|line| {
                let (stack, value) = line.rsplit_once(' ').expect("`stack value` line");
                (stack, value.parse().expect("numeric self time"))
            })
            .collect();
        prop_assert_eq!(lines.len(), p.len());
        for (stack, self_us) in lines {
            let stat = p.node(stack).expect("folded stack is a profile node");
            prop_assert_eq!(self_us * 1_000, stat.self_ns);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Burn rate is exactly (error fraction) / (error budget), on both
    /// windows, and the alert fires iff it crosses the configured
    /// threshold.
    #[test]
    fn slo_burn_rate_matches_error_fraction(
        requests in 1u64..500,
        errors_frac in 0.0f64..1.0,
        availability in 0.9f64..0.9999,
        fast_burn in 1.0f64..20.0,
    ) {
        let errors = ((requests as f64) * errors_frac) as u64;
        let spec = SloSpec {
            availability,
            fast_burn,
            // Effectively mute the other alert dimensions.
            p99_latency_us: u64::MAX,
            slow_burn: f64::INFINITY,
            ..SloSpec::default()
        };
        let budget = spec.error_budget();
        let mut engine = SloEngine::new(spec);
        for i in 0..requests {
            engine.observe(1_000, 10, i < errors);
        }
        let status = engine.status(1_000);
        prop_assert_eq!(status.window_requests, requests);
        prop_assert_eq!(status.window_errors, errors);
        let expected = (errors as f64 / requests as f64) / budget;
        prop_assert!((status.fast_burn_rate - expected).abs() <= 1e-9 * expected.max(1.0));
        let avail = 1.0 - errors as f64 / requests as f64;
        prop_assert!((status.availability.unwrap() - avail).abs() < 1e-12);
        prop_assert_eq!(status.ok(), status.fast_burn_rate < fast_burn,
            "alert iff fast burn {} >= threshold {}", status.fast_burn_rate, fast_burn);
    }

    /// Observations older than the long window never contribute to either
    /// burn rate once the ring has been swept past them.
    #[test]
    fn slo_old_errors_expire(errors in 1u64..50, gap_s in 601u64..2000) {
        let mut engine = SloEngine::new(SloSpec::default());
        for _ in 0..errors {
            engine.observe(1_000, 10, true);
        }
        let later_ms = 1_000 + gap_s * 1_000;
        engine.observe(later_ms, 10, false);
        let status = engine.status(later_ms);
        prop_assert_eq!(status.window_errors, 0);
        prop_assert!(status.fast_burn_rate == 0.0);
        prop_assert!(status.slow_burn_rate == 0.0);
    }
}
