//! The daemon: a multi-threaded TCP/HTTP server with a bounded request
//! queue, explicit backpressure, per-endpoint metrics, optional chaos on
//! the serving path, and graceful drain-on-shutdown.
//!
//! Framing is `psca_obs::http`; its errors map to typed 400/408/413
//! [`ApiError`]s. The daemon adds a
//! worker pool (the accept thread pushes connections into a condvar-guarded
//! `Mutex<VecDeque>`, workers pop) and answers a full queue with 429 at
//! accept time. All `std`, no dependencies.
//!
//! Every request is request-scoped observable: a
//! [`psca_obs::TraceCtx`] is parsed from an inbound `traceparent` header
//! (or minted at ingress) and attached to the handling worker, so queue
//! wait, the `serve.request` span, closed-loop windows, and sim
//! intervals all land in one Perfetto tree; the response echoes the
//! `traceparent`. Per-request outcomes feed the SLO engine
//! (`GET /v1/slo`), the flight recorder (`GET /v1/debug/requests`,
//! postmortem dumps to `target/obs/` on 5xx / SLO alert / degradation
//! escalation), the latency histogram's exemplar, and — when
//! [`ServeConfig::access_log`] is set — a JSONL access log of the same
//! [`RequestRecord`] lines. Every daemon knob is a [`ServeConfig`]
//! field; `repro serve` maps its flags and environment onto them. Under
//! `PSCA_PROF=1` the hierarchical self-profiler accumulates per-stack
//! self time, scrapeable live via `GET /v1/profile` (top self-time nodes
//! since the last scrape). None of this changes any computed result:
//! responses are bit-identical with tracing or profiling on or off.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use psca_faults::{ChaosSpec, FaultInjector, PredictionFault};
use psca_obs::http::{self, FrameError, Request};
use psca_obs::{Json, Level, RequestRecord, SloEngine, SloSpec, TraceCtx};

use crate::api::{self, ApiError, ClosedLoopSpec, PredictRequest};
use crate::registry::ModelRegistry;

/// Where flight-recorder postmortems are dumped.
const POSTMORTEM_DIR: &str = "target/obs";

/// Daemon tuning knobs. `Default` gives a loopback daemon on an
/// OS-assigned port with auto-sized workers and a 64-deep queue.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an OS-assigned loopback port).
    pub addr: String,
    /// Worker threads; `0` resolves via `PSCA_JOBS` / available cores.
    pub workers: usize,
    /// Bounded queue depth; connections past this are answered `429`.
    /// The one admission limit: with the queue full, at most `workers`
    /// more requests are in flight.
    pub queue_capacity: usize,
    /// Per-connection read deadline (milliseconds) covering both the
    /// header and body reads; a client that stalls past it gets a typed
    /// `408` instead of pinning the worker. `repro serve` seeds this
    /// from `--read-timeout-ms`.
    pub read_timeout_ms: u64,
    /// Optional chaos injected on the prediction endpoints.
    pub chaos: Option<ChaosSpec>,
    /// Service-level objective evaluated per request (`GET /v1/slo`);
    /// `None` disables the engine.
    pub slo: Option<SloSpec>,
    /// JSONL access-log path: one [`RequestRecord`] line per finished
    /// request; `None` writes no access log. `repro serve` seeds this
    /// from `--access-log`.
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            read_timeout_ms: 5_000,
            chaos: None,
            slo: Some(SloSpec::default()),
            access_log: None,
        }
    }
}

/// One accepted connection, stamped so the worker that pops it can
/// attribute queue wait.
struct Queued {
    stream: TcpStream,
    enqueued: Instant,
}

/// State shared between the accept thread and the worker pool.
struct Shared {
    registry: ModelRegistry,
    config: ServeConfig,
    local_addr: SocketAddr,
    jobs: usize,
    queue: Mutex<VecDeque<Queued>>,
    work_ready: Condvar,
    idle: Condvar,
    stop: AtomicBool,
    hold: AtomicBool,
    /// Readiness: false until the worker pool is spawned; `/readyz`
    /// answers 503 until then (and again while held or stopping).
    ready: AtomicBool,
    inflight: AtomicUsize,
    chaos: Option<Mutex<FaultInjector>>,
    /// Daemon start time — the monotonic epoch for SLO windows.
    epoch: Instant,
    slo: Option<Mutex<SloEngine>>,
    /// Rising-edge latch for SLO alert postmortems: dump once per alert
    /// episode, not per request while the alert stays active.
    slo_alerted: AtomicBool,
    /// The open access log, written one whole line at a time.
    access: Option<Mutex<File>>,
}

impl Shared {
    fn queue_depth_gauge(&self, depth: usize) {
        psca_obs::gauge("serve.queue.depth").set(depth as f64);
    }

    fn inflight_gauge(&self) {
        psca_obs::gauge("serve.inflight").set(self.inflight.load(Ordering::Relaxed) as f64);
    }

    /// Milliseconds since the daemon started (SLO timebase).
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Wakes everyone: workers (to drain and exit), `quiesce` waiters,
    /// and the accept thread (via a dummy loopback connection).
    fn trigger_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            // Take the queue lock so a worker blocked in `wait` cannot
            // miss the notification.
            let _q = self.queue.lock().unwrap();
            self.work_ready.notify_all();
            self.idle.notify_all();
        }
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
    }

    /// Folds one finished request into the observability stack: SLO
    /// engine, flight recorder (with postmortem dumps on 5xx, an SLO
    /// alert's rising edge, or a degradation escalation), and the access
    /// log. Pure observability — called after the response is written.
    /// `escalations` counts the degradation-ladder escalations a
    /// closed-loop run reported.
    fn finish_request(&self, mut record: RequestRecord, escalations: u64) {
        let now_ms = self.now_ms();
        // Probe/scrape endpoints stay out of the SLO and never trigger
        // postmortems: a failing readiness probe is the daemon *reporting*
        // unreadiness, not failing a request.
        let probe = matches!(
            record.endpoint.as_str(),
            "healthz" | "readyz" | "metrics" | "report"
        );
        let failed = !probe && record.status >= 500;
        if let Some(slo) = self.slo.as_ref().filter(|_| !probe) {
            let mut engine = slo.lock().unwrap();
            engine.observe(now_ms, record.latency_us, failed);
            let alerting = !engine.status(now_ms).ok();
            drop(engine);
            psca_obs::gauge("serve.slo.alerting").set(if alerting { 1.0 } else { 0.0 });
            if alerting {
                if !self.slo_alerted.swap(true, Ordering::SeqCst) {
                    self.dump_postmortem("slo-alert");
                }
            } else {
                self.slo_alerted.store(false, Ordering::SeqCst);
            }
        }
        record.ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let ring = psca_obs::recorder::global();
        match &self.access {
            None => {
                ring.push(record);
            }
            Some(log) => {
                record.seq = ring.push(record.clone());
                let line = format!("{}\n", record.to_json());
                let _ = log.lock().unwrap().write_all(line.as_bytes());
            }
        }
        if failed {
            self.dump_postmortem("http-5xx");
        }
        if !probe && escalations > 0 {
            self.dump_postmortem("tier-escalation");
        }
    }

    fn dump_postmortem(&self, reason: &str) {
        if let Some(path) = psca_obs::recorder::global().dump(Path::new(POSTMORTEM_DIR), reason) {
            psca_obs::counter("serve.postmortems").inc();
            if psca_obs::enabled(Level::Warn) {
                psca_obs::emit(
                    Level::Warn,
                    "serve.postmortem",
                    &[
                        ("reason", reason.into()),
                        ("path", path.display().to_string().into()),
                    ],
                );
            }
        }
    }
}

/// Creates (or truncates) the access log at `path`, parent directories
/// included.
fn open_log(path: &Path) -> io::Result<Mutex<File>> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    File::create(path).map(Mutex::new)
}

/// A running daemon. Dropping it shuts it down and joins every thread.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds, trains nothing (the registry arrives pre-trained), and
    /// starts the accept thread plus worker pool.
    ///
    /// # Errors
    /// Propagates the bind failure if `config.addr` is unavailable.
    pub fn start(config: ServeConfig, registry: ModelRegistry) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let jobs = psca_exec::resolve_jobs(config.workers);
        let chaos = config
            .chaos
            .clone()
            .filter(ChaosSpec::any_enabled)
            .map(|spec| Mutex::new(FaultInjector::new(spec)));
        let slo = config
            .slo
            .clone()
            .map(|spec| Mutex::new(SloEngine::new(spec)));
        let access = config.access_log.as_deref().and_then(|path| {
            open_log(path)
                .map_err(|e| {
                    eprintln!("psca-serve: cannot open access log {}: {e}", path.display());
                })
                .ok()
        });
        let shared = Arc::new(Shared {
            registry,
            config,
            local_addr,
            jobs,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            stop: AtomicBool::new(false),
            hold: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            chaos,
            epoch: Instant::now(),
            slo,
            slo_alerted: AtomicBool::new(false),
            access,
        });
        if psca_obs::enabled(psca_obs::Level::Info) {
            psca_obs::emit(
                psca_obs::Level::Info,
                "serve.start",
                &[
                    ("addr", local_addr.to_string().into()),
                    ("workers", (jobs as u64).into()),
                ],
            );
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("psca-serve-accept".to_string())
                .spawn(move || accept_loop(listener, &shared))?
        };
        let workers = (0..jobs)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psca-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        // Everything is accepting: flip readiness last so `/readyz`
        // cannot report ready before the pool exists.
        shared.ready.store(true, Ordering::SeqCst);
        Ok(Daemon {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Pauses the worker pool (connections keep queueing). Test hook for
    /// deterministic backpressure; a later [`Daemon::release`] or
    /// shutdown drains whatever queued meanwhile.
    pub fn hold(&self) {
        self.shared.hold.store(true, Ordering::SeqCst);
    }

    /// Resumes a held worker pool.
    pub fn release(&self) {
        self.shared.hold.store(false, Ordering::SeqCst);
        let _q = self.shared.queue.lock().unwrap();
        self.shared.work_ready.notify_all();
    }

    /// Blocks until the queue is empty and no request is in flight.
    pub fn quiesce(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        while !q.is_empty() || self.shared.inflight.load(Ordering::SeqCst) > 0 {
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap();
            q = guard;
        }
    }

    /// Blocks until the daemon stops (e.g. a client posts
    /// `/v1/shutdown`), then joins every thread.
    pub fn wait(mut self) {
        self.join();
    }

    /// Initiates shutdown, drains queued requests, and joins every
    /// thread. Queued connections are answered, not dropped.
    pub fn shutdown(mut self) {
        self.shared.trigger_stop();
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shared.trigger_stop();
        self.join();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let depth = shared.queue.lock().unwrap().len();
        if depth >= shared.config.queue_capacity {
            psca_obs::counter("serve.rejected.backpressure").inc();
            reject(
                &mut stream,
                &ApiError::backpressure(shared.config.queue_capacity),
            );
            continue;
        }
        let mut q = shared.queue.lock().unwrap();
        q.push_back(Queued {
            stream,
            enqueued: Instant::now(),
        });
        shared.queue_depth_gauge(q.len());
        drop(q);
        shared.work_ready.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                let stopping = shared.stop.load(Ordering::SeqCst);
                // A held pool leaves work queued (backpressure tests);
                // shutdown overrides the hold so the drain completes.
                if !shared.hold.load(Ordering::SeqCst) || stopping {
                    if let Some(s) = q.pop_front() {
                        shared.queue_depth_gauge(q.len());
                        break Some(s);
                    }
                }
                if stopping {
                    break None;
                }
                let (guard, _) = shared
                    .work_ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        let Some(stream) = stream else { break };
        let queue_us = stream
            .enqueued
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        shared.inflight_gauge();
        let wants_shutdown = handle_connection(stream.stream, queue_us, shared);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.inflight_gauge();
        {
            let _q = shared.queue.lock().unwrap();
            shared.idle.notify_all();
        }
        if wants_shutdown {
            shared.trigger_stop();
        }
    }
}

/// Answers a connection refused at accept time.
fn reject(stream: &mut TcpStream, e: &ApiError) {
    let _ = http::write_response(stream, e.status, "application/json", &[], &e.to_json());
}

/// The typed error for a request that could not be framed: status and
/// message come from the framing error.
fn frame_error(e: &FrameError) -> ApiError {
    let message = e.to_string();
    match e.status() {
        408 => ApiError::timeout(message),
        413 => ApiError::too_large(message),
        _ => ApiError::bad_request(message),
    }
}

/// Per-request response writer: echoes the request's `traceparent` on
/// every response and fills in the request's record (status, error
/// class, degradation note) for the SLO engine, flight recorder, and
/// access log.
struct Responder<'a> {
    stream: &'a mut TcpStream,
    traceparent: String,
    record: RequestRecord,
    /// Degradation-ladder escalations reported by a closed-loop run
    /// (each one triggers a postmortem dump).
    escalations: u64,
}

impl Responder<'_> {
    fn send(&mut self, status: u16, content_type: &str, body: &str) {
        self.record.status = status;
        let _ = http::write_response(
            self.stream,
            status,
            content_type,
            &[("traceparent", &self.traceparent)],
            body,
        );
    }

    fn send_error(&mut self, e: &ApiError) {
        self.record.error_class = e.code.to_string();
        self.send(e.status, "application/json", &e.to_json());
    }
}

/// Endpoint label for metric names.
fn endpoint_key(path: &str) -> &'static str {
    match path {
        "/v1/predict" => "predict",
        "/v1/closed-loop" => "closed_loop",
        "/v1/models" => "models",
        "/v1/shutdown" => "shutdown",
        "/v1/slo" => "slo",
        "/v1/profile" => "profile",
        "/v1/debug/requests" => "debug_requests",
        "/metrics" => "metrics",
        "/report" => "report",
        "/healthz" => "healthz",
        "/readyz" => "readyz",
        _ => "other",
    }
}

/// Serves one connection. Returns true when the client requested
/// daemon shutdown.
fn handle_connection(mut stream: TcpStream, queue_us: u64, shared: &Shared) -> bool {
    let started = Instant::now();
    // The read deadline covers head and body: a stalled client gets a
    // typed 408 instead of pinning the worker.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.config.read_timeout_ms.max(1),
    )));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let parsed = http::read_request(&mut stream, api::MAX_BODY_BYTES);
    // Adopt the inbound trace id (fresh span for the server hop) or mint
    // a new context at ingress. Attached for the rest of the handling,
    // so every span/instant recorded below carries the request's ids —
    // including the sim and any psca-exec fan-out.
    let ctx = match &parsed {
        // Malformed traceparent values are ignored (a fresh context is
        // minted), matching W3C trace-context error handling.
        Ok(req) => req
            .header("traceparent")
            .and_then(TraceCtx::parse_traceparent)
            .map_or_else(TraceCtx::mint, |c| c.child()),
        Err(_) => TraceCtx::mint(),
    };
    let _ctx_guard = psca_obs::ctx::attach(ctx);
    if psca_obs::trace::enabled() && queue_us > 0 {
        // Backdated: the wait already happened, in the accept queue.
        let now = psca_obs::trace::now_us();
        psca_obs::trace::complete("serve.queue", now.saturating_sub(queue_us), queue_us);
    }
    psca_obs::histogram("serve.queue.wait_us").record(queue_us);

    let (mut record, escalations, wants_shutdown) = {
        let _span = psca_obs::SpanTimer::start("serve.request");
        let mut rsp = Responder {
            stream: &mut stream,
            traceparent: ctx.to_traceparent(),
            record: RequestRecord {
                endpoint: "other".to_string(),
                // A connection that dies before any response is written
                // counts as a server-side failure.
                status: 500,
                queue_us,
                ..RequestRecord::default()
            },
            escalations: 0,
        };
        let wants_shutdown = match parsed {
            Ok(req) => {
                let key = endpoint_key(&req.path);
                psca_obs::counter(&format!("serve.{key}.requests")).inc();
                let routed = route(&req, shared, &mut rsp);
                rsp.record.endpoint = key.to_string();
                rsp.record.method = req.method;
                rsp.record.path = req.path;
                routed.unwrap_or_else(|e| {
                    psca_obs::counter(&format!("serve.{key}.errors")).inc();
                    rsp.send_error(&e);
                    false
                })
            }
            Err(e) => {
                psca_obs::counter("serve.other.errors").inc();
                rsp.send_error(&frame_error(&e));
                false
            }
        };
        (rsp.record, rsp.escalations, wants_shutdown)
    };
    record.latency_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    record.trace_id = ctx.trace_id_hex();
    psca_obs::histogram(&format!("serve.{}.latency_us", record.endpoint))
        .record_with_exemplar(record.latency_us, &record.trace_id);
    shared.finish_request(record, escalations);
    wants_shutdown
}

/// Dispatches a parsed request. `Ok(true)` means shut the daemon down.
fn route(req: &Request, shared: &Shared, rsp: &mut Responder<'_>) -> Result<bool, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Liveness: the process is up and serving; says nothing about
            // whether it can take traffic (that is `/readyz`).
            let body = Json::obj(vec![
                ("status", "ok".into()),
                ("models", (shared.registry.len() as u64).into()),
            ])
            .to_string();
            rsp.send(200, "application/json", &body);
            Ok(false)
        }
        ("GET", "/readyz") => {
            // Readiness: the registry has models and the pool is
            // accepting work. Held/stopping daemons are not ready.
            let ready = shared.ready.load(Ordering::SeqCst)
                && !shared.registry.is_empty()
                && !shared.hold.load(Ordering::SeqCst)
                && !shared.stop.load(Ordering::SeqCst);
            if !ready {
                return Err(ApiError::unavailable(
                    "not_ready",
                    "daemon is not ready to take traffic",
                ));
            }
            let body = Json::obj(vec![
                ("status", "ready".into()),
                ("models", (shared.registry.len() as u64).into()),
                ("workers", (shared.jobs as u64).into()),
            ])
            .to_string();
            rsp.send(200, "application/json", &body);
            Ok(false)
        }
        ("GET", "/metrics") => {
            let body = psca_obs::exporter::prometheus_text(&psca_obs::snapshot());
            rsp.send(200, psca_obs::exporter::METRICS_CONTENT_TYPE, &body);
            Ok(false)
        }
        ("GET", "/report") => {
            let body = psca_obs::exporter::latest_report().ok_or_else(|| ApiError {
                status: 404,
                code: "no_report",
                message: "no run report published yet".to_string(),
            })?;
            rsp.send(200, "application/json", &body);
            Ok(false)
        }
        ("GET", "/v1/slo") => {
            let body = match &shared.slo {
                Some(engine) => engine.lock().unwrap().to_json(shared.now_ms()).to_string(),
                None => Json::obj(vec![("enabled", false.into())]).to_string(),
            };
            rsp.send(200, "application/json", &body);
            Ok(false)
        }
        ("GET", "/v1/debug/requests") => {
            let body = psca_obs::recorder::global().to_json().to_string();
            rsp.send(200, "application/json", &body);
            Ok(false)
        }
        ("GET", "/v1/profile") => {
            // Self-profiler scrape: the top self-time call-tree nodes
            // accumulated since the previous scrape. Reading drains the
            // global profile, so successive scrapes cover disjoint
            // windows — the natural shape for a poller watching a
            // loaded daemon live. Off (`enabled: false`) unless the
            // process runs with PSCA_PROF=1.
            let enabled = psca_obs::prof::enabled();
            let profile = psca_obs::prof::drain();
            let top: Vec<Json> = profile
                .top_self(20)
                .iter()
                .map(|(stack, stat)| {
                    Json::obj(vec![
                        ("stack", stack.as_str().into()),
                        ("calls", stat.calls.into()),
                        ("total_us", (stat.total_ns / 1_000).into()),
                        ("self_us", (stat.self_ns / 1_000).into()),
                    ])
                })
                .collect();
            let body = Json::obj(vec![
                ("enabled", enabled.into()),
                ("stacks", (profile.len() as u64).into()),
                ("top", Json::Arr(top)),
            ])
            .to_string();
            rsp.send(200, "application/json", &body);
            Ok(false)
        }
        ("GET", "/v1/models") => {
            rsp.send(
                200,
                "application/json",
                &shared.registry.models_json().to_string(),
            );
            Ok(false)
        }
        ("POST", "/v1/predict") => {
            require_body(req)?;
            maybe_inject_chaos(shared)?;
            let parsed = PredictRequest::parse(&req.body)?;
            let model = shared.registry.get(&parsed.model).ok_or_else(|| {
                ApiError::not_found(format!("no model named \"{}\"", parsed.model))
            })?;
            parsed.check_dims(model)?;
            let scored = api::score_rows(model, parsed.mode, &parsed.rows);
            let ndjson = req
                .header("accept")
                .is_some_and(|a| a.contains("application/x-ndjson"));
            if ndjson {
                rsp.send(200, "application/x-ndjson", &api::predict_ndjson(&scored));
            } else {
                rsp.send(
                    200,
                    "application/json",
                    &api::predict_json(&parsed.model, &scored),
                );
            }
            Ok(false)
        }
        ("POST", "/v1/closed-loop") => {
            require_body(req)?;
            maybe_inject_chaos(shared)?;
            let spec = ClosedLoopSpec::parse(&req.body)?;
            let (doc, out) = spec.run(&shared.registry)?;
            let escalations = out.degrade.escalations;
            rsp.escalations = escalations;
            if escalations > 0 {
                rsp.record.note = format!("{escalations} degradation escalation(s)");
            }
            rsp.send(200, "application/json", &doc.to_string());
            Ok(false)
        }
        ("POST", "/v1/shutdown") => {
            let body = Json::obj(vec![("status", "draining".into())]).to_string();
            rsp.send(200, "application/json", &body);
            Ok(true)
        }
        (method, path) if endpoint_key(path) != "other" => {
            Err(ApiError::method_not_allowed(method, path))
        }
        (_, path) => Err(ApiError::not_found(format!("no route for {path}"))),
    }
}

/// Rejects body-bearing routes called without a body (411).
fn require_body(req: &Request) -> Result<(), ApiError> {
    if req.body.is_empty() {
        return Err(ApiError {
            status: 411,
            code: "length_required",
            message: format!("{} requires a JSON body with Content-Length", req.path),
        });
    }
    Ok(())
}

/// Rolls the chaos injector (when configured) for one serving-path
/// fault, mirroring the firmware fault classes: a dropped prediction or
/// corrupted weights reject the request with 503, a latency overrun
/// stalls it past its deadline but still answers.
fn maybe_inject_chaos(shared: &Shared) -> Result<(), ApiError> {
    let Some(chaos) = &shared.chaos else {
        return Ok(());
    };
    let fault = {
        let mut inj = chaos.lock().unwrap();
        inj.begin_window();
        inj.prediction_fault()
    };
    let Some(fault) = fault else { return Ok(()) };
    psca_obs::counter("serve.chaos.injected").inc();
    match fault {
        PredictionFault::Dropped => Err(ApiError::unavailable(
            "chaos_dropped",
            "chaos: prediction dropped",
        )),
        PredictionFault::WeightCorruption => Err(ApiError::unavailable(
            "chaos_corrupted",
            "chaos: model weights corrupted",
        )),
        PredictionFault::LatencyOverrun => {
            std::thread::sleep(Duration::from_millis(5));
            Ok(())
        }
    }
}
