//! `serve-mixed`: a `repro serve` child process driven over loopback HTTP.
//!
//! Traffic is `POST /v1/predict`, alternating between the two served
//! models; 18 of every 20 requests carry one row and 2 carry 64 rows.
//! Bodies are rendered from the workload seed before any timing starts.
//! Every request opens its own connection (the daemon answers
//! `Connection: close`), and at most [`CONNECTIONS`] are open at once.
//!
//! The open-loop generator sends request k at k / rate seconds after the
//! phase starts, whatever happened to earlier requests; latency is measured
//! from that due time, and how late the send actually started is recorded.

use crate::spans::Tracer;
use crate::stats::{self, RampStep, Tally};
use psca_faults::SplitMix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections open at once.
const CONNECTIONS: usize = 2;
/// Rows carried by a heavy request.
const HEAVY_ROWS: usize = 64;
/// Distinct request bodies; request k sends body k mod POOL.
const POOL: usize = 200;
/// Requests in the fixed probe batch whose responses are digested.
const PROBE_REQUESTS: usize = 20;
/// Requests in one closed-loop batch (the unit `wall_s` times). The batch
/// sends only heavy requests: scoring cost, not connection set-up, then
/// dominates, and connection set-up swings with host load far more.
pub const BATCH_REQUESTS: usize = 160;
/// Offered rate of the light phase: about ¼ of `max_rps_at_slo` as
/// measured on a 2-core host when the benchmark was defined (the knee
/// ranged 250–1500 rps across runs there, typically near 1000).
pub const LIGHT_RPS: f64 = 250.0;
/// Offered rate of the heavy phase: about ¾ of that knee.
pub const HEAVY_RPS: f64 = 750.0;
/// Offered rates of the stepped ramp that finds the knee.
pub const RAMP_RPS: [f64; 8] = [
    250.0, 500.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0, 3_000.0, 4_000.0,
];
/// Seconds each ramp step offers load.
pub const RAMP_STEP_S: f64 = 1.0;
/// Seconds each of the light and heavy phases offers load.
pub const PHASE_S: f64 = 3.0;

/// Whether request k carries [`HEAVY_ROWS`] rows.
pub fn is_heavy(k: usize) -> bool {
    matches!(k % 20, 9 | 18)
}

/// The pre-rendered request bodies for one seed.
pub struct Bodies {
    bodies: Vec<Vec<u8>>,
}

impl Bodies {
    /// Renders [`POOL`] bodies. Request k scores against `models[k % 2]`,
    /// whose high-performance predictor takes `dims[k % 2]` features.
    pub fn new(seed: u64, models: &[(String, usize); 2]) -> Bodies {
        let bodies = (0..POOL)
            .map(|k| {
                let (model, dim) = &models[k % 2];
                let rows = if is_heavy(k) { HEAVY_ROWS } else { 1 };
                let mut rng =
                    SplitMix64::new(seed ^ (k as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
                let rows: Vec<String> = (0..rows)
                    .map(|_| {
                        let row: Vec<String> = (0..*dim)
                            .map(|_| format!("{:.6}", rng.next_f64()))
                            .collect();
                        format!("[{}]", row.join(","))
                    })
                    .collect();
                format!("{{\"model\":\"{model}\",\"rows\":[{}]}}", rows.join(",")).into_bytes()
            })
            .collect();
        Bodies { bodies }
    }

    fn get(&self, k: usize) -> &[u8] {
        &self.bodies[k % self.bodies.len()]
    }
}

/// One HTTP exchange as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    /// HTTP status; 0 when the connection or I/O failed.
    status: u16,
    /// Time to establish the TCP connection, microseconds.
    connect_us: f64,
}

/// Sends one request over a fresh connection and reads the whole reply.
/// The body is returned only when `keep_body` is set.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    keep_body: bool,
) -> (Exchange, Vec<u8>) {
    let t0 = Instant::now();
    let failed = |connect_us| {
        (
            Exchange {
                status: 0,
                connect_us,
            },
            Vec::new(),
        )
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(5)) else {
        return failed(t0.elapsed().as_secs_f64() * 1e6);
    };
    let connect_us = t0.elapsed().as_secs_f64() * 1e6;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Head and body in one write, so no small segment waits on an ACK.
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    let mut response = Vec::new();
    if stream.write_all(&request).is_err() || stream.read_to_end(&mut response).is_err() {
        return failed(connect_us);
    }
    close_with_reset(stream);
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or(response.len());
    let status = std::str::from_utf8(&response[..head_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = if keep_body {
        response.get(head_end + 4..).unwrap_or_default().to_vec()
    } else {
        Vec::new()
    };
    (Exchange { status, connect_us }, body)
}

/// `struct linger` of `<sys/socket.h>`.
#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
}

/// Closes a finished exchange with a reset instead of a FIN, so the
/// daemon's end of the connection skips TIME_WAIT. Every request opens a
/// connection; at thousands a second the TIME_WAIT entries outgrow the
/// ephemeral port range within a minute, after which `connect` slows and
/// each run would measure the leftovers of the runs before it (a 5 s run
/// took 30 % longer once 28k entries were waiting).
fn close_with_reset(stream: TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        const SOL_SOCKET: i32 = 1;
        const SO_LINGER: i32 = 13;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: the descriptor belongs to `stream`, which stays open for
        // the call, and `linger` is a live `struct linger` whose size is
        // passed alongside. A failure only leaves the normal close.
        unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                &linger,
                std::mem::size_of::<Linger>() as u32,
            );
        }
    }
    drop(stream);
}

/// A running `repro serve` child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// Address the daemon bound.
    pub addr: SocketAddr,
    /// Seconds from spawn until `/readyz` answered 200.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawns `repro serve` on an OS-assigned loopback port with `workers`
    /// workers and waits until it is ready.
    pub fn spawn(repro: &Path, seed: u64, workers: usize) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let mut child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args([
                "--workers",
                &workers.to_string(),
                "--seed",
                &seed.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line.trim().parse::<SocketAddr>().ok(),
            _ => None,
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            setup_s: 0.0,
        };
        if addr.is_none() {
            return Err(format!("daemon printed no address (got {line:?})"));
        }
        let deadline = t0 + Duration::from_secs(60);
        loop {
            let (ex, _) = exchange(daemon.addr, "GET", "/readyz", b"", false);
            if ex.status == 200 {
                break;
            }
            if Instant::now() > deadline {
                return Err("daemon not ready within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        daemon.setup_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `(slug, input_dim_hi)` of the first two models in `GET /v1/models`.
    pub fn models(&self) -> Result<[(String, usize); 2], String> {
        let (ex, body) = exchange(self.addr, "GET", "/v1/models", b"", true);
        if ex.status != 200 {
            return Err(format!("GET /v1/models answered {}", ex.status));
        }
        let doc = psca_obs::Json::parse(&String::from_utf8_lossy(&body))
            .map_err(|e| format!("bad /v1/models JSON: {e}"))?;
        let models = doc
            .get("models")
            .and_then(psca_obs::Json::as_arr)
            .ok_or("no models array")?;
        let entry = |i: usize| -> Result<(String, usize), String> {
            let m = models.get(i).ok_or("fewer than two models served")?;
            let name = m
                .get("name")
                .and_then(psca_obs::Json::as_str)
                .ok_or("model without name")?;
            let dim = m
                .get("input_dim_hi")
                .and_then(psca_obs::Json::as_u64)
                .ok_or("model without input_dim_hi")?;
            Ok((name.to_string(), dim as usize))
        };
        Ok([entry(0)?, entry(1)?])
    }

    /// Posts `/v1/shutdown` and waits for the process to exit (killing it
    /// after 10 s).
    pub fn shutdown(mut self) {
        let _ = exchange(self.addr, "POST", "/v1/shutdown", b"", false);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Responses to the fixed probe batch, concatenated: the checked output.
pub fn probe_output(addr: SocketAddr, bodies: &Bodies, tally: &mut Tally) -> Vec<u8> {
    let mut out = Vec::new();
    for k in 0..PROBE_REQUESTS {
        let (ex, body) = exchange(addr, "POST", "/v1/predict", bodies.get(k), true);
        tally.record(ex.status != 200);
        out.extend_from_slice(&body);
        out.push(b'\n');
    }
    out
}

/// One request's outcome within a phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request index within the phase.
    pub k: usize,
    /// HTTP status (0 on connection failure).
    pub status: u16,
    /// Due time to response end, microseconds (closed loop: send to end).
    pub latency_us: f64,
    /// Send start minus due time, microseconds (0 in a closed loop).
    pub late_us: f64,
    /// Connection set-up, microseconds.
    pub connect_us: f64,
}

impl Sample {
    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Samples of one phase and its wall time.
pub struct Phase {
    /// Every request, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Phase start to last response, seconds.
    pub wall_s: f64,
}

impl Phase {
    /// Successful requests' latencies, optionally only one row class.
    pub fn latencies(&self, heavy: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok() && heavy.is_none_or(|h| is_heavy(s.k) == h))
            .map(|s| s.latency_us)
            .collect()
    }

    /// Attempted and failed requests.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.samples {
            t.record(!s.ok());
        }
        t
    }

    /// Responses refused by backpressure or the connection ceiling.
    pub fn rejected(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| matches!(s.status, 429 | 503))
            .count() as u64
    }
}

/// Sends the bodies indexed by `ks` over [`CONNECTIONS`] connections. With
/// `rps`, the schedule is open loop (the i-th request due at i / rps);
/// without, each connection sends its next request as soon as the previous
/// one returns.
fn drive(
    addr: SocketAddr,
    bodies: &Bodies,
    ks: &[usize],
    rps: Option<f64>,
    tracer: &Tracer,
) -> Phase {
    let n = ks.len();
    let samples = Mutex::new(Vec::with_capacity(n));
    let phase_span = tracer.span(if rps.is_some() {
        "serve.open_loop"
    } else {
        "serve.batch"
    });
    let parent = phase_span.id();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let samples = &samples;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(n / CONNECTIONS + 1);
                for i in (c..n).step_by(CONNECTIONS) {
                    let k = ks[i];
                    let due = rps.map_or(0.0, |r| i as f64 / r);
                    if rps.is_some() {
                        let wait = due - start.elapsed().as_secs_f64();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                    }
                    let sent = start.elapsed().as_secs_f64();
                    let span = tracer.child("serve.predict", parent, c as u64 + 1);
                    let (ex, _) = exchange(addr, "POST", "/v1/predict", bodies.get(k), false);
                    span.finish();
                    let done = start.elapsed().as_secs_f64();
                    let from = if rps.is_some() { due } else { sent };
                    mine.push(Sample {
                        k,
                        status: ex.status,
                        latency_us: (done - from) * 1e6,
                        late_us: (sent - from).max(0.0) * 1e6,
                        connect_us: ex.connect_us,
                    });
                }
                samples
                    .lock()
                    .expect("sample store poisoned by a panicking thread")
                    .extend(mine);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    phase_span.finish();
    Phase {
        samples: samples.into_inner().expect("sample store poisoned"),
        wall_s,
    }
}

/// Offers `rps` for `secs` seconds, open loop, sending requests `k0`,
/// `k0 + 1`, … of the mix.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &Bodies,
    rps: f64,
    secs: f64,
    k0: usize,
    tracer: &Tracer,
) -> Phase {
    let n = (rps * secs).round().max(1.0) as usize;
    let ks: Vec<usize> = (k0..k0 + n).collect();
    drive(addr, bodies, &ks, Some(rps), tracer)
}

/// Sends [`BATCH_REQUESTS`] heavy requests of the mix back to back.
pub fn heavy_batch(addr: SocketAddr, bodies: &Bodies, tracer: &Tracer) -> Phase {
    let ks: Vec<usize> = (0..)
        .filter(|&k| is_heavy(k))
        .take(BATCH_REQUESTS)
        .collect();
    drive(addr, bodies, &ks, None, tracer)
}

/// Summarizes an open-loop phase as a ramp step.
pub fn ramp_step(rps: f64, phase: &Phase) -> RampStep {
    let tally = phase.tally();
    RampStep {
        offered_rps: rps,
        achieved_rps: phase.samples.len() as f64 / phase.wall_s.max(1e-9),
        tail_us: stats::tail(&phase.latencies(None), 0.99).value,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}
