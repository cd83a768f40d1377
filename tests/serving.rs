//! Integration tests for the psca-serve daemon over real sockets:
//! protocol round-trips, bit-identical concurrent predictions,
//! deterministic backpressure, drain-on-shutdown, and the binaries'
//! live-metrics side channel.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use psca::adapt::ModelKind;
use psca::obs::{Json, SloSpec};
use psca::serve::{Daemon, ModelRegistry, ServeConfig};

/// A parsed HTTP response: status code, head and body.
struct Response {
    status: u16,
    head: String,
    body: String,
}

/// Sends one raw HTTP/1.1 request and reads the whole response (the
/// daemon answers `Connection: close`, so EOF delimits it).
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
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> Response {
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

/// Writes `raw` as the whole request and reads the whole response.
fn send_raw(addr: std::net::SocketAddr, raw: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw).unwrap();
    read_response(&mut stream)
}

/// A one-model registry on a tiny deterministic corpus (fast to train).
fn rf_registry(seed: u64) -> ModelRegistry {
    let cfg = psca::adapt::ExperimentConfig {
        seed,
        ..psca::adapt::ExperimentConfig::quick()
    };
    ModelRegistry::train(cfg, &[ModelKind::BestRf])
}

fn start_daemon(registry: ModelRegistry) -> Daemon {
    Daemon::start(ServeConfig::default(), registry).expect("bind loopback")
}

/// Feature rows matching the model's input dimension, deterministic.
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
fn protocol_round_trips_and_typed_errors() {
    let registry = rf_registry(11);
    let dim = registry.get("best-rf").unwrap().fw_hi.input_dim().unwrap();
    let daemon = start_daemon(registry);
    let addr = daemon.local_addr();

    // Liveness and discovery.
    let r = send(addr, "GET", "/healthz", "");
    assert_eq!(r.status, 200);
    let r = send(addr, "GET", "/v1/models", "");
    assert_eq!(r.status, 200);
    let doc = Json::parse(&r.body).unwrap();
    let models = doc.get("models").and_then(Json::as_arr).unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(
        models[0].get("name").and_then(Json::as_str),
        Some("best-rf")
    );

    // A valid predict round-trip.
    let body = format!(
        r#"{{"model":"best-rf","rows":{}}}"#,
        rows_json(&probe_rows(dim, 3))
    );
    let r = send(addr, "POST", "/v1/predict", &body);
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = Json::parse(&r.body).unwrap();
    assert_eq!(doc.get("count").and_then(Json::as_u64), Some(3));

    // NDJSON negotiation.
    let r = send_with_headers(
        addr,
        "POST",
        "/v1/predict",
        &body,
        &["Accept: application/x-ndjson"],
    );
    assert_eq!(r.status, 200);
    assert_eq!(r.body.lines().count(), 3);

    // The typed 4xx taxonomy, each as a JSON error document.
    let expect_err = |method: &str, path: &str, body: &str, status: u16, code: &str| {
        let r = send(addr, method, path, body);
        assert_eq!(r.status, status, "{method} {path}: {}", r.body);
        let doc = Json::parse(&r.body).expect("error body is JSON");
        assert_eq!(doc.get("error").and_then(Json::as_str), Some(code));
    };
    expect_err("POST", "/v1/predict", "{oops", 400, "bad_json");
    expect_err(
        "POST",
        "/v1/predict",
        r#"{"model":"nope","rows":[[1]]}"#,
        404,
        "not_found",
    );
    expect_err(
        "POST",
        "/v1/predict",
        r#"{"model":"best-rf","rows":[[1,2]]}"#,
        422,
        "dimension_mismatch",
    );
    expect_err("GET", "/v1/predict", "", 405, "method_not_allowed");
    expect_err("GET", "/nowhere", "", 404, "not_found");
    expect_err("POST", "/v1/predict", "", 411, "length_required");
    expect_err(
        "POST",
        "/v1/closed-loop",
        r#"{"model":"best-rf","archetype":"warp-drive"}"#,
        422,
        "unknown_archetype",
    );
    // The simulator has one fidelity: naming a backend is refused, not
    // silently run on the cycle-level model.
    expect_err(
        "POST",
        "/v1/closed-loop",
        r#"{"model":"best-rf","archetype":"balanced","backend":"surrogate"}"#,
        400,
        "bad_request",
    );

    // Oversized bodies are refused from the Content-Length alone,
    // before any body byte is read.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let oversized = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        (1 << 20) + 1
    );
    s.write_all(oversized.as_bytes()).unwrap();
    let r = read_response(&mut s);
    assert_eq!(r.status, 413);
    assert_eq!(
        Json::parse(&r.body)
            .unwrap()
            .get("error")
            .and_then(Json::as_str),
        Some("payload_too_large")
    );

    daemon.shutdown();
}

#[test]
fn malformed_content_length_is_a_400_not_a_411() {
    let daemon = start_daemon(rf_registry(11));
    let addr = daemon.local_addr();
    // An unparseable Content-Length is a framing error. It used to read
    // as "absent", so /v1/predict answered a misleading 411.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n")
        .unwrap();
    let r = read_response(&mut s);
    assert_eq!(r.status, 400, "{}", r.body);
    let doc = Json::parse(&r.body).expect("error body is JSON");
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_request"));
    // Query strings are ignored when routing.
    let r = send(addr, "GET", "/healthz?probe=1", "");
    assert_eq!(r.status, 200, "{}", r.body);
    daemon.shutdown();
}

#[test]
fn deeply_nested_json_is_a_400_not_an_abort() {
    let daemon = start_daemon(rf_registry(17));
    let addr = daemon.local_addr();
    // 10 KB of `[`: far under the body limit, but deep enough to
    // overflow a worker's stack in a recursive parser, which used to
    // abort the whole daemon.
    let body = format!(r#"{{"model":"best-rf","rows":{}}}"#, "[".repeat(10_000));
    for path in ["/v1/predict", "/v1/closed-loop"] {
        let r = send(addr, "POST", path, &body);
        assert_eq!(r.status, 400, "{path}: {}", r.body);
        let doc = Json::parse(&r.body).expect("error body is JSON");
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_json"));
    }
    let r = send(addr, "GET", "/healthz", "");
    assert_eq!(r.status, 200, "{}", r.body);
    daemon.shutdown();
}

#[test]
fn closed_loop_endpoint_runs_seeded_sims() {
    let daemon = start_daemon(rf_registry(13));
    let addr = daemon.local_addr();
    let body = r#"{"model":"best-rf","archetype":"dep-chain","seed":5,"windows":4}"#;
    let a = send(addr, "POST", "/v1/closed-loop", body);
    let b = send(addr, "POST", "/v1/closed-loop", body);
    assert_eq!(a.status, 200, "{}", a.body);
    // Same seed, same spec: byte-identical summaries.
    assert_eq!(a.body, b.body);
    let doc = Json::parse(&a.body).unwrap();
    assert_eq!(doc.get("windows").and_then(Json::as_u64), Some(4));
    assert!(doc.get("instructions").and_then(Json::as_u64).unwrap() > 0);
    assert!(doc.get("degraded_fraction").is_none(), "plain run");
    // Unknown keys are ignored: a retired `hardened` key changes nothing.
    let legacy =
        r#"{"model":"best-rf","archetype":"dep-chain","seed":5,"windows":4,"hardened":true}"#;
    let r = send(addr, "POST", "/v1/closed-loop", legacy);
    assert_eq!((r.status, r.body.as_str()), (200, a.body.as_str()));

    // A chaos-hardened run reports the robustness block.
    let hardened = r#"{"model":"best-rf","archetype":"balanced","seed":5,"windows":4,"chaos":"uc.drop=0.5,seed=3"}"#;
    let r = send(addr, "POST", "/v1/closed-loop", hardened);
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = Json::parse(&r.body).unwrap();
    assert!(doc.get("degraded_fraction").is_some());
    assert!(doc.get("faults_injected").is_some());
    daemon.shutdown();
}

#[test]
fn concurrent_clients_see_bit_identical_predictions() {
    let registry = rf_registry(17);
    let model = registry.get("best-rf").unwrap().clone();
    let dim = model.fw_hi.input_dim().unwrap();
    let daemon = start_daemon(registry);
    let addr = daemon.local_addr();

    const CLIENTS: usize = 8;
    const ROWS: usize = 16;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let rows = probe_rows(dim, ROWS);
                let body = format!(r#"{{"model":"best-rf","rows":{}}}"#, rows_json(&rows));
                let r = send(addr, "POST", "/v1/predict", &body);
                assert_eq!(r.status, 200, "{}", r.body);
                r.body
            })
        })
        .collect();
    let bodies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Ground truth straight from the firmware predictor, no socket.
    let fw = &model.fw_hi;
    let rows = probe_rows(dim, ROWS);
    for body in &bodies {
        let doc = Json::parse(body).unwrap();
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), ROWS);
        for (row, res) in rows.iter().zip(results) {
            let got = res.get("proba").and_then(Json::as_f64).unwrap();
            let want = fw.score(row).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "served proba must be bit-identical to the direct call"
            );
            let gate = fw.predict(row).unwrap();
            assert_eq!(res.get("gate"), Some(&Json::Bool(gate)));
        }
    }
    daemon.shutdown();
}

#[test]
fn backpressure_answers_429_and_drains_clean() {
    let registry = rf_registry(19);
    let dim = registry.get("best-rf").unwrap().fw_hi.input_dim().unwrap();
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config, registry).expect("bind loopback");
    let addr = daemon.local_addr();
    let body = format!(
        r#"{{"model":"best-rf","rows":{}}}"#,
        rows_json(&probe_rows(dim, 2))
    );

    // Pause the worker pool so queue occupancy is deterministic.
    daemon.hold();
    let queued: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let head = format!(
                "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            s.write_all(head.as_bytes()).unwrap();
            s.write_all(body.as_bytes()).unwrap();
            s
        })
        .collect();
    // Give the accept thread a moment to enqueue both.
    std::thread::sleep(Duration::from_millis(300));

    // The queue is full: further connections bounce with 429 straight
    // from the accept thread (it answers before reading the request, so
    // the client just reads).
    let mut rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let r = read_response(&mut rejected);
    assert_eq!(r.status, 429, "{}", r.body);
    let doc = Json::parse(&r.body).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("queue_full"));

    // Releasing the pool serves everything that queued — nothing below
    // the bound is dropped.
    daemon.release();
    for mut s in queued {
        let r = read_response(&mut s);
        assert_eq!(r.status, 200, "{}", r.body);
    }
    daemon.quiesce();
    let r = send(addr, "POST", "/v1/predict", &body);
    assert_eq!(r.status, 200, "queue drains clean after backpressure");
    daemon.shutdown();
}

#[test]
fn shutdown_drains_queued_requests() {
    let registry = rf_registry(23);
    let dim = registry.get("best-rf").unwrap().fw_hi.input_dim().unwrap();
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config, registry).expect("bind loopback");
    let addr = daemon.local_addr();
    let body = format!(
        r#"{{"model":"best-rf","rows":{}}}"#,
        rows_json(&probe_rows(dim, 1))
    );

    daemon.hold();
    let queued: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let head = format!(
                "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            s.write_all(head.as_bytes()).unwrap();
            s.write_all(body.as_bytes()).unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    // Shutdown overrides the hold: every queued request is answered
    // before the threads exit.
    daemon.shutdown();
    for mut s in queued {
        let r = read_response(&mut s);
        assert_eq!(r.status, 200, "queued request answered during drain");
    }
    // And the daemon is really gone.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn stalled_clients_get_typed_408_not_a_pinned_worker() {
    let registry = rf_registry(23);
    let config = ServeConfig {
        read_timeout_ms: 200,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config, registry).expect("bind loopback");
    let addr = daemon.local_addr();

    // Stall mid-head: the request line goes out, the terminating blank
    // line never does.
    let mut head_staller = TcpStream::connect(addr).unwrap();
    head_staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    head_staller
        .write_all(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n")
        .unwrap();
    let r = read_response(&mut head_staller);
    assert_eq!(r.status, 408, "head staller: {}", r.body);
    assert!(r.body.contains("request_timeout"), "body: {}", r.body);

    // Stall mid-body: full head promising bytes that never arrive.
    let mut body_staller = TcpStream::connect(addr).unwrap();
    body_staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    body_staller
        .write_all(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n{\"model\":")
        .unwrap();
    let r = read_response(&mut body_staller);
    assert_eq!(r.status, 408, "body staller: {}", r.body);
    assert!(r.body.contains("request_timeout"), "body: {}", r.body);

    // The workers were never pinned: a healthy request still answers.
    let r = send(addr, "GET", "/healthz", "");
    assert_eq!(r.status, 200);
    daemon.shutdown();
}

/// A daemon built like the binaries' live-metrics side channel
/// (`PSCA_METRICS_ADDR`): one worker and no models.
/// The side channel itself runs without an SLO.
fn side_channel(slo: Option<SloSpec>) -> Daemon {
    let config = ServeConfig {
        workers: 1,
        slo,
        ..ServeConfig::default()
    };
    let registry = ModelRegistry::new(psca::adapt::ExperimentConfig::quick());
    Daemon::start(config, registry).expect("bind loopback")
}

#[test]
fn side_channel_serves_healthz_and_metrics() {
    psca::obs::counter("it.side_channel.requests").add(5);
    let daemon = side_channel(None);
    let addr = daemon.local_addr();

    let health = send(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200, "{}", health.body);
    assert_eq!(health.body, r#"{"status":"ok","models":0}"#);

    let metrics = send(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200, "{}", metrics.body);
    assert!(
        metrics.head.contains("text/plain; version=0.0.4"),
        "{}",
        metrics.head
    );
    assert!(
        metrics.body.contains("it_side_channel_requests 5"),
        "{}",
        metrics.body
    );

    let missing = send(addr, "GET", "/nope", "");
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert!(missing.body.contains("not_found"), "{}", missing.body);
    daemon.shutdown();
}

#[test]
fn side_channel_answers_framing_errors_and_non_get_methods() {
    let daemon = side_channel(None);
    let addr = daemon.local_addr();

    // A POST to a known path is read in full, then refused.
    let post = send_raw(
        addr,
        b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi",
    );
    assert_eq!(post.status, 405, "{}", post.body);
    assert!(post.body.contains("method_not_allowed"), "{}", post.body);

    // A head past the 8 KiB cap is refused, not parsed from a prefix.
    // Exactly one byte over, with no terminator, so the daemon has
    // consumed every byte when it answers.
    let mut head = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(psca::obs::http::MAX_HEAD_BYTES + 1, b'a');
    let oversized = send_raw(addr, &head);
    assert_eq!(oversized.status, 413, "{}", oversized.body);
    assert!(
        oversized.body.contains("request head too large"),
        "{}",
        oversized.body
    );

    // A garbage request line is a 400.
    let garbage = send_raw(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(garbage.status, 400, "{}", garbage.body);

    // Query strings are ignored.
    let health = send_raw(addr, b"GET /healthz?verbose=1 HTTP/1.1\r\n\r\n");
    assert_eq!(health.status, 200, "{}", health.body);
    daemon.shutdown();
}

#[test]
fn side_channel_report_flips_to_the_published_run() {
    let daemon = side_channel(None);
    let addr = daemon.local_addr();
    // No test in this binary publishes a report before this one does.
    let before = send(addr, "GET", "/report", "");
    assert_eq!(before.status, 404, "{}", before.body);
    assert!(before.body.contains("no_report"), "{}", before.body);

    let dir = std::env::temp_dir().join(format!("psca-serving-report-{}", std::process::id()));
    psca::obs::RunReport::new("side-channel-test")
        .write(&dir, &psca::obs::snapshot())
        .expect("write the report");
    let after = send(addr, "GET", "/report", "");
    assert_eq!(after.status, 200, "{}", after.body);
    let doc = Json::parse(&after.body).unwrap();
    assert_eq!(
        doc.get("run_id").and_then(Json::as_str),
        Some("side-channel-test")
    );
    let _ = std::fs::remove_dir_all(&dir);
    daemon.shutdown();
}

#[test]
fn report_and_metrics_scrapes_stay_out_of_the_slo() {
    let daemon = side_channel(Some(SloSpec::default()));
    let addr = daemon.local_addr();
    for path in ["/report", "/metrics", "/report", "/metrics"] {
        send(addr, "GET", path, "");
    }
    let slo = send(addr, "GET", "/v1/slo", "");
    assert_eq!(slo.status, 200, "{}", slo.body);
    let doc = Json::parse(&slo.body).unwrap();
    assert_eq!(
        doc.get("window_requests").and_then(Json::as_u64),
        Some(0),
        "{}",
        slo.body
    );
    daemon.shutdown();
}
