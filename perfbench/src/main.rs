//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload repro-quick|fleet-64|serve-mixed --seed N --seconds S --trace 0|1
//! perfbench digests --seeds A-B        # print the output digests to commit
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced). Progress and a readable metric table go to stderr.

mod fleet;
mod metrics;
mod probe;
mod repro_quick;
mod serve;
mod spans;
mod stats;

use metrics::{peak_rss_mb, Sheet};
use psca_obs::{Json, MetricsSnapshot};
use spans::Tracer;
use stats::{median, tail, DigestVerdict, Tally};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["repro-quick", "fleet-64", "serve-mixed"];

/// Committed output digests: `workload seed fnv1a64-hex` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Fleet set-ups per run; `setup_s` reports their median.
const FLEET_SETUPS: usize = 3;
/// Daemon start-ups per run; `setup_s` reports their median.
const SERVE_SETUPS: usize = 5;

/// A subcommand other than a benchmark run.
type Subcommand = fn(&[String]) -> Result<(), String>;

const USAGE: &str = "usage: perfbench --workload repro-quick|fleet-64|serve-mixed \
                     --seed N --seconds S --trace 0|1\n       perfbench digests --seeds A-B\n       \
                     perfbench unit repro-quick|fleet-64 SEED";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub: Option<Subcommand> = match argv.first().map(String::as_str) {
        Some("digests") => Some(digests_main),
        Some("unit") => Some(unit_main),
        _ => None,
    };
    if let Some(sub) = sub {
        std::process::exit(match sub(&argv[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench {}: {e}", argv[0]);
                1
            }
        });
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let jobs = psca_exec::resolve_jobs(0);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} jobs {jobs}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let tracer = Tracer::new(args.trace);
    let mut run = Run {
        checker: Checker::new(&args.workload, args.seed),
        sheet: Sheet::default(),
        tally: Tally::default(),
        jobs,
        seed: args.seed,
        seconds: args.seconds,
        start: Instant::now(),
        tracer: &tracer,
    };
    let result = match (args.workload.as_str(), args.trace) {
        ("repro-quick", false) => run.repro_quick(),
        ("repro-quick", true) => run.repro_quick_traced(),
        ("fleet-64", false) => run.fleet(),
        ("fleet-64", true) => run.fleet_traced(),
        ("serve-mixed", false) => run.serve(),
        ("serve-mixed", true) => run.serve_traced(),
        _ => unreachable!("workload validated by parse"),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let mut tally = run.tally;
    tally.add(run.checker.tally);
    let defs = if args.trace {
        run.sheet.set("error_rate", tally.error_rate());
        let path = PathBuf::from(".perfbench")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("perfbench: {} spans in {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for d in &defs {
        let v = run.sheet.get(&d.name).unwrap_or(0.0);
        eprintln!(
            "perfbench: {:<36} {v:>16.4} {:<6} ({} is better)",
            d.name, d.unit, d.better
        );
    }
    let doc = Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::UInt(tally.attempted)),
        ("failed", Json::UInt(tally.failed)),
        ("metrics", run.sheet.render(&defs, !args.trace)),
    ]);
    println!("{doc}");
}

/// The committed digest for `(workload, seed)`, if any.
fn committed(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let w = f.next()?;
        let s: u64 = f.next()?.parse().ok()?;
        let d = u64::from_str_radix(f.next()?, 16).ok()?;
        (w == workload && s == seed).then_some(d)
    })
}

/// Checks each unit's output against the committed digest for the seed
/// and, where none is committed, against the run's first unit.
struct Checker {
    workload: String,
    committed: Option<u64>,
    first: Option<u64>,
    tally: Tally,
}

impl Checker {
    fn new(workload: &str, seed: u64) -> Checker {
        let committed = committed(workload, seed);
        if committed.is_none() {
            eprintln!(
                "perfbench: no digest committed for {workload} seed {seed}; \
                 checking only that every unit of this run agrees"
            );
        }
        Checker {
            workload: workload.to_string(),
            committed,
            first: None,
            tally: Tally::default(),
        }
    }

    fn check(&mut self, digest: u64) {
        let first = *self.first.get_or_insert(digest);
        let failed = DigestVerdict::of(self.committed, digest).failed() || first != digest;
        if failed {
            eprintln!(
                "perfbench: {} output digest {digest:016x} does not match {:016x}",
                self.workload,
                self.committed.unwrap_or(first)
            );
        }
        self.tally.record(failed);
    }
}

/// One benchmark run's state.
struct Run<'a> {
    checker: Checker,
    sheet: Sheet,
    tally: Tally,
    jobs: usize,
    seed: u64,
    seconds: f64,
    /// When the run started; work repeats until `seconds` have passed.
    start: Instant,
    tracer: &'a Tracer,
}

impl Run<'_> {
    /// Whether the run should start another unit, having done `done`:
    /// at least two units, then more until `seconds` have passed since the
    /// run started.
    fn more(&self, done: usize) -> bool {
        done < 2 || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Runs one untraced unit of a batch workload in a fresh child process
    /// (see [`unit_main`]), checks its output and records its figures in
    /// `walls`, `setups` and `rss`.
    fn unit_in_child(&mut self, workload: &str, figures: &mut [Vec<f64>; 3]) -> Result<(), String> {
        let out = std::process::Command::new(self_path()?)
            .args(["unit", workload, &self.seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run a {workload} unit: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<&str> = text.split_whitespace().collect();
        let [wall, setup, rss, digest] = fields[..] else {
            return Err(format!("{workload} unit failed ({}): {text:?}", out.status));
        };
        let bad = |f: &str| format!("{workload} unit printed a bad figure {f:?}");
        for (list, f) in figures.iter_mut().zip([wall, setup, rss]) {
            list.push(f.parse().map_err(|_| bad(f))?);
        }
        self.checker
            .check(u64::from_str_radix(digest, 16).map_err(|_| bad(digest))?);
        Ok(())
    }

    /// Records the end-to-end medians.
    fn set_end_to_end(&mut self, walls: &[f64], setups: &[f64], rss: &[f64]) {
        eprintln!("perfbench: unit walls {walls:.3?} s, set-ups {setups:.3?} s");
        self.sheet.set("wall_s", median(walls));
        self.sheet.set("setup_s", median(setups));
        self.sheet.set("peak_rss_mb", median(rss));
    }

    /// Exec-layer and ML-fit counts the program recorded in its metric
    /// registry during a traced unit of `wall_s` seconds.
    fn set_registry(&mut self, snap: &MetricsSnapshot, wall_s: f64) {
        let busy = snap.histograms.get("exec.cell_us").map_or(0, |h| h.sum) as f64 / 1e6;
        let fits = |suffix: &str| {
            snap.histograms
                .iter()
                .filter(|(name, _)| name.starts_with("span.") && name.ends_with(suffix))
                .fold((0u64, 0u64), |(n, ns), (_, h)| (n + h.count, ns + h.sum))
        };
        let (mlp_n, mlp_ns) = fits("ml.mlp.fit");
        let (rf_n, rf_ns) = fits("ml.rf.fit");
        let (lr_n, _) = fits("ml.logistic.fit");
        let cells = snap.counters.get("exec.cells").copied().unwrap_or(0);
        self.sheet.set("exec.cells", cells as f64);
        self.sheet.set("exec.cell_busy_s", busy);
        self.sheet.set(
            "exec.parallel_efficiency",
            busy / (wall_s * self.jobs as f64),
        );
        self.sheet.set("ml.fit.mlp_s", mlp_ns as f64 / 1e9);
        self.sheet.set("ml.fit.rf_s", rf_ns as f64 / 1e9);
        self.sheet.set("ml.fit.calls", (mlp_n + rf_n + lr_n) as f64);
    }

    fn set_overhead(&mut self, untraced_s: f64, traced_s: f64) {
        self.sheet.set(
            "trace_overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        );
    }

    fn repro_quick(&mut self) -> Result<(), String> {
        let mut figures: [Vec<f64>; 3] = Default::default();
        while self.more(figures[0].len()) {
            self.unit_in_child("repro-quick", &mut figures)?;
        }
        let [walls, setups, rss] = figures;
        self.set_end_to_end(&walls, &setups, &rss);
        Ok(())
    }

    fn repro_quick_traced(&mut self) -> Result<(), String> {
        let cfg = repro_quick::config(self.seed, self.jobs);
        let untraced = repro_quick::run(&cfg, &Tracer::new(false));
        self.checker
            .check(psca_exec::fnv1a(untraced.output.as_bytes()));
        let unit = repro_quick::run(&cfg, self.tracer);
        self.checker.check(psca_exec::fnv1a(unit.output.as_bytes()));
        self.set_overhead(untraced.wall_s, unit.wall_s);
        self.sheet.set("adapt.corpus.hdtr_s", unit.hdtr_s);
        self.sheet.set("adapt.corpus.spec_s", unit.spec_s);
        for (id, s) in &unit.experiments {
            self.sheet.set(&format!("adapt.experiment.{id}_s"), *s);
        }
        self.set_registry(&unit.registry, unit.wall_s);
        probe::training(&unit.hdtr, &cfg, self.tracer, &mut self.sheet);
        probe::common(self.seed, self.tracer, &mut self.sheet);
        Ok(())
    }

    fn fleet(&mut self) -> Result<(), String> {
        let (cfg, params) = fleet::config(self.seed, self.jobs);
        let setups: Vec<f64> = (0..FLEET_SETUPS)
            .map(|_| fleet::prepare(&cfg, &params, self.tracer).1)
            .collect();
        let mut figures: [Vec<f64>; 3] = Default::default();
        while self.more(figures[0].len()) {
            self.unit_in_child("fleet-64", &mut figures)?;
        }
        let [walls, _, rss] = figures;
        self.set_end_to_end(&walls, &setups, &rss);
        Ok(())
    }

    fn fleet_traced(&mut self) -> Result<(), String> {
        let (cfg, params) = fleet::config(self.seed, self.jobs);
        let untraced = fleet::run(&cfg, &params, &Tracer::new(false));
        self.checker
            .check(psca_exec::fnv1a(untraced.output.as_bytes()));
        let unit = fleet::run(&cfg, &params, self.tracer);
        self.checker.check(psca_exec::fnv1a(unit.output.as_bytes()));
        self.set_overhead(untraced.wall_s, unit.wall_s);
        self.set_registry(&unit.registry, unit.wall_s);
        let (setup, prepare_s) = fleet::prepare(&cfg, &params, self.tracer);
        self.sheet.set("fleet.prepare_s", prepare_s);
        let dies = fleet::die_latencies_us(&setup, self.jobs, self.tracer);
        self.sheet.set("fleet.die_us.p50", median(&dies));
        self.sheet.set("fleet.die_us.p99", tail(&dies, 0.99).value);
        probe::common(self.seed, self.tracer, &mut self.sheet);
        Ok(())
    }

    /// Spawns the daemon, reads its models and checks the probe batch.
    fn serve_start(&mut self) -> Result<(serve::Daemon, serve::Bodies), String> {
        let daemon = serve::Daemon::spawn(&repro_path()?, self.seed, self.jobs)?;
        let bodies = serve::Bodies::new(self.seed, &daemon.models()?);
        let output = serve::probe_output(daemon.addr, &bodies, &mut self.tally);
        self.checker.check(psca_exec::fnv1a(&output));
        Ok((daemon, bodies))
    }

    fn serve(&mut self) -> Result<(), String> {
        let mut setups = Vec::new();
        for _ in 1..SERVE_SETUPS {
            let (daemon, _) = self.serve_start()?;
            setups.push(daemon.setup_s);
            daemon.shutdown();
        }
        let (daemon, bodies) = self.serve_start()?;
        setups.push(daemon.setup_s);
        let mut walls = Vec::new();
        while self.more(walls.len()) {
            let phase = serve::heavy_batch(daemon.addr, &bodies, self.tracer);
            self.tally.add(phase.tally());
            walls.push(phase.wall_s);
        }
        let rss = peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0);
        daemon.shutdown();
        self.set_end_to_end(&walls, &setups, &[rss]);
        Ok(())
    }

    fn serve_traced(&mut self) -> Result<(), String> {
        let (daemon, bodies) = self.serve_start()?;
        let addr = daemon.addr;
        let untraced = Tracer::new(false);
        let mut rejected = 0;
        let mut k0 = 0;
        let mut phase = |rps: f64, secs: f64, run: &mut Self| {
            let p = serve::open_loop(addr, &bodies, rps, secs, k0, run.tracer);
            k0 += p.samples.len();
            run.tally.add(p.tally());
            rejected += p.rejected();
            p
        };
        // Stepped ramp: stop at the first step that misses the objective.
        let mut steps = Vec::new();
        for rps in serve::RAMP_RPS {
            let step = serve::ramp_step(rps, &phase(rps, serve::RAMP_STEP_S, self));
            eprintln!(
                "perfbench: ramp {rps:>6.0} rps: achieved {:.0}, tail {:.0} us, failed {}",
                step.achieved_rps, step.tail_us, step.failed
            );
            steps.push(step);
            if !step.meets(&stats::SERVE_SLO) {
                break;
            }
        }
        self.sheet
            .set("max_rps_at_slo", stats::knee(&steps, &stats::SERVE_SLO));
        let light = phase(serve::LIGHT_RPS, serve::PHASE_S, self);
        let heavy = phase(serve::HEAVY_RPS, serve::PHASE_S, self);
        let mut behind = false;
        for (name, rps, p) in [
            ("light", serve::LIGHT_RPS, &light),
            ("heavy", serve::HEAVY_RPS, &heavy),
        ] {
            let lat = p.latencies(None);
            let t = tail(&lat, 0.99);
            eprintln!(
                "perfbench: {name}: p{:.1} over {} samples",
                100.0 * t.q,
                t.n
            );
            self.sheet.set(&format!("p50_us.{name}"), median(&lat));
            self.sheet.set(&format!("p99_us.{name}"), t.value);
            behind |= serve::ramp_step(rps, p).achieved_rps < stats::SERVE_SLO.achieved_share * rps;
        }
        let both = || light.samples.iter().chain(&heavy.samples);
        let late: Vec<f64> = both().map(|s| s.late_us).collect();
        let connect: Vec<f64> = both().map(|s| s.connect_us).collect();
        let late_p99 = tail(&late, 0.99).value;
        // A send that starts more than a millisecond late measured the
        // generator, not the daemon.
        behind |= late_p99 > 1_000.0;
        if behind {
            eprintln!("perfbench: WARNING: the generator fell behind its schedule in this run");
        }
        self.sheet.set("serve.gen_late_us.p99", late_p99);
        self.sheet
            .set("serve.gen_behind", f64::from(u8::from(behind)));
        self.sheet
            .set("serve.connect_us.p99", tail(&connect, 0.99).value);
        for (heavy_rows, name) in [(false, "predict1"), (true, "predict64")] {
            let mut lat = light.latencies(Some(heavy_rows));
            lat.extend(heavy.latencies(Some(heavy_rows)));
            self.sheet
                .set(&format!("serve.{name}.p50_us"), median(&lat));
            self.sheet
                .set(&format!("serve.{name}.p99_us"), tail(&lat, 0.99).value);
        }
        self.sheet.set("serve.rejected", rejected as f64);
        // Tracing overhead: closed-loop batches alternately untraced and
        // traced.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for i in 0..6 {
            let tracer = if i % 2 == 0 { &untraced } else { self.tracer };
            let p = serve::heavy_batch(addr, &bodies, tracer);
            self.tally.add(p.tally());
            if i % 2 == 0 { &mut plain } else { &mut traced }.push(p.wall_s);
        }
        self.set_overhead(median(&plain), median(&traced));
        daemon.shutdown();
        probe::common(self.seed, self.tracer, &mut self.sheet);
        Ok(())
    }
}

/// Parses `A-B` (or a single seed) into an inclusive range.
fn seed_range(text: &str) -> Result<std::ops::RangeInclusive<u64>, String> {
    let bad = || format!("bad seed range {text}");
    let (a, b) = text.split_once('-').unwrap_or((text, text));
    Ok(a.parse().map_err(|_| bad())?..=b.parse().map_err(|_| bad())?)
}

/// This benchmark binary.
fn self_path() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))
}

/// The `repro` binary built beside this one.
fn repro_path() -> Result<PathBuf, String> {
    Ok(self_path()?.with_file_name("repro"))
}

/// `perfbench unit WORKLOAD SEED`: one untraced unit of a batch workload in
/// this fresh process, printed as `wall_s setup_s peak_rss_mb digest`. Runs
/// go through it so `peak_rss_mb` is a fresh process's peak, as when a user
/// runs `repro`: within one process the allocator keeps an unpredictable
/// share of earlier units' memory (fleet peaks then ranged 1.4–2.3 GB
/// against 1.397 GB fresh).
fn unit_main(args: &[String]) -> Result<(), String> {
    let [workload, seed] = args else {
        return Err(USAGE.to_string());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
    let jobs = psca_exec::resolve_jobs(0);
    let off = Tracer::new(false);
    let (output, wall_s, setup_s) = match workload.as_str() {
        "repro-quick" => {
            let unit = repro_quick::run(&repro_quick::config(seed, jobs), &off);
            (unit.output, unit.wall_s, unit.setup_s)
        }
        "fleet-64" => {
            let (cfg, params) = fleet::config(seed, jobs);
            let unit = fleet::run(&cfg, &params, &off);
            // Fleet set-up is timed separately, in the parent.
            (unit.output, unit.wall_s, 0.0)
        }
        other => return Err(format!("{other} has no child units")),
    };
    let rss = peak_rss_mb(None).unwrap_or(0.0);
    let digest = psca_exec::fnv1a(output.as_bytes());
    println!("{wall_s} {setup_s} {rss} {digest:016x}");
    Ok(())
}

/// Runs `repro` with `args` and returns its stdout.
fn repro_stdout(args: &[&str]) -> Result<Vec<u8>, String> {
    let repro = repro_path()?;
    let out = std::process::Command::new(&repro)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
    Ok(out.stdout)
}

/// `perfbench digests --seeds A-B`: prints the lines to commit in
/// `digests.txt`. For seed 1 the in-process outputs of
/// `repro-quick` and `fleet-64` must equal the `repro` binary's stdout
/// byte for byte, or this fails.
fn digests_main(args: &[String]) -> Result<(), String> {
    let seeds = match args {
        [flag, range] if flag == "--seeds" => seed_range(range)?,
        _ => return Err(USAGE.to_string()),
    };
    let jobs = psca_exec::resolve_jobs(0);
    let off = Tracer::new(false);
    for seed in seeds {
        for workload in WORKLOADS {
            let output: Vec<u8> = match workload {
                "repro-quick" => {
                    let out = repro_quick::run(&repro_quick::config(seed, jobs), &off).output;
                    if seed == 1
                        && repro_stdout(&["all", "--quick", "--no-cache"])? != out.as_bytes()
                    {
                        return Err(
                            "repro-quick seed 1 differs from `repro all --quick --no-cache`".into(),
                        );
                    }
                    out.into_bytes()
                }
                "fleet-64" => {
                    let (cfg, params) = fleet::config(seed, jobs);
                    let out = fleet::run(&cfg, &params, &off).output;
                    let [size, windows, seed_arg] =
                        [fleet::SIZE as u64, fleet::WINDOWS, seed].map(|v| v.to_string());
                    let cli = [
                        "fleet",
                        "--size",
                        &size,
                        "--windows",
                        &windows,
                        "--seed",
                        &seed_arg,
                    ];
                    if seed == 1 && repro_stdout(&cli)? != out.as_bytes() {
                        return Err("fleet-64 seed 1 differs from `repro fleet --size 64 --windows 48 --seed 1`".into());
                    }
                    out.into_bytes()
                }
                "serve-mixed" => {
                    let daemon = serve::Daemon::spawn(&repro_path()?, seed, jobs)?;
                    let bodies = serve::Bodies::new(seed, &daemon.models()?);
                    let mut tally = Tally::default();
                    let out = serve::probe_output(daemon.addr, &bodies, &mut tally);
                    daemon.shutdown();
                    if tally.failed > 0 {
                        return Err(format!("serve-mixed seed {seed}: probe requests failed"));
                    }
                    out
                }
                other => unreachable!("WORKLOADS lists unknown workload {other}"),
            };
            println!("{workload} {seed} {:016x}", psca_exec::fnv1a(&output));
        }
    }
    Ok(())
}
