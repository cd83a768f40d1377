//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro -- all                       # everything, full scaled config (release!)
//! repro -- fig8 fig9                 # specific experiments
//! repro -- table5 --quick            # seconds-scale config for smoke testing
//! repro -- all --jobs 8              # worker threads (0 = auto; bit-identical)
//! repro -- all --no-cache            # disable the persistent sweep cache
//! repro -- --chaos default --quick   # chaos harness; exit 1 on SLA breach
//! repro -- --chaos uc.drop=0.1,seed=7 chaos-sweep
//! repro -- serve                     # adaptation-as-a-service daemon
//! repro -- serve --addr 127.0.0.1:0 --models best-rf,charstar --seed 7
//! repro -- serve --slo p99_us=50000,availability=0.99 --access-log access.jsonl
//! repro -- closed-loop --model best-rf --archetype balanced --seed 1
//! repro -- fleet --size 8 --seed 1                   # skewed dies + staged rollout
//! repro -- fleet --size 6 --seed 3 --windows 8 --bad-image --out fleet.json
//!                                    # CI rollback gate, exit 1 (seed-dependent)
//! repro -- bench --check --quick     # unified bench suite vs BENCH_*.json baselines
//! repro -- bench --update            # refresh the committed baselines
//! ```
//!
//! Observability outputs are switched on only through the environment
//! (docs/OBSERVABILITY.md), for every subcommand:
//!
//! ```text
//! PSCA_TRACE=t.json repro -- all          # record a Perfetto trace
//! PSCA_METRICS_ADDR=127.0.0.1:9185 repro -- all   # live /metrics + /healthz + /report
//! PSCA_PROF=1 repro -- closed-loop ...    # psca-prof flamegraph artifacts
//! ```
//!
//! `PSCA_PROF=1` enables the hierarchical self-profiler
//! (docs/PROFILING.md). The profiler is an observer: stdout and all
//! result artifacts stay byte-identical to an unprofiled run; the
//! collapsed-stack `.folded` + summary JSON land in `target/obs/`.
//!
//! Every subcommand reads its flags through the shared
//! [`psca_bench::cli`] front end and returns its exit code; a usage error
//! (missing value, unknown flag or experiment, unparseable number or
//! spec) is printed once, in `main`, with that subcommand's usage line,
//! and exits 2 before any work starts. `main` also owns the one
//! observability lifecycle around every subcommand: the `PSCA_*`
//! outputs start before it runs, and the Perfetto trace and the profile
//! are written and the `PSCA_METRICS_LINGER_S` window honoured after it
//! returns.
//!
//! Every experiment driver scopes the global metric registry to itself
//! (`reset_all()` at entry), so this binary snapshots and absorbs the
//! registry around each experiment to keep the end-of-run report
//! covering the whole invocation.

use psca_adapt::experiments::{ablations, chaos, fig10, fig4, fig5, fig6, fig7, fig8, fig9};
use psca_adapt::experiments::{table1, table2, table3, table4, table5, table6};
use psca_adapt::{ExperimentConfig, ModelKind};
use psca_bench::cli::{self, Args, UsageError};
use psca_bench::{chart, Corpora, EXPERIMENTS};
use psca_faults::ChaosSpec;
use psca_obs::{Json, MetricsSnapshot, RunReport, SloSpec};
use std::path::{Path, PathBuf};

/// Experiments that replay the HDTR corpus (prefetched before the loop so
/// corpus construction is measured once, outside any experiment scope).
const NEEDS_HDTR: &[&str] = &[
    "table3",
    "table4",
    "table5",
    "table6",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "ablate-guardrail",
    "ablate-horizon",
    "ablate-normalization",
];

/// Experiments that replay the SPEC-like corpus.
const NEEDS_SPEC: &[&str] = &[
    "table5",
    "table6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablate-dvfs",
    "ablate-guardrail",
];

/// A subcommand: reads its flags, runs, and returns its exit code.
type Main = fn(&[String]) -> Result<i32, UsageError>;

const EXPERIMENTS_USAGE: &str = "[repro] usage: repro [EXPERIMENT...|all] --quick \
    --chaos SPEC --jobs N --no-cache \
    (--chaos takes 'default' or e.g. 'uc.drop=0.05,telem=0.02,seed=7'; see docs/ROBUSTNESS.md)";
const SERVE_USAGE: &str = "[repro] serve flags: --addr HOST:PORT --workers N --queue N \
    --read-timeout-ms N --chaos SPEC --slo SPEC|off --access-log PATH \
    --seed N --models slug[,slug...] \
    (slugs: best-rf best-mlp charstar srch-fine srch-coarse)";
const CLOSED_LOOP_USAGE: &str = "[repro] closed-loop flags: --model SLUG --archetype NAME \
    --seed N --windows N --warm-insts N \
    (slugs: best-rf best-mlp charstar srch-fine srch-coarse)";
const FLEET_USAGE: &str = "[repro] fleet flags: --size N --seed N --windows N --skew SPEC|off \
    --rollout SPEC|off --chaos SPEC --jobs N --bad-image --out PATH";
const BENCH_USAGE: &str = "[repro] bench flags: --update --check --quick --seed N \
    --tolerance FRAC --only name[,name...] \
    (names: sim_throughput sweep inference)";

fn main() {
    std::process::exit(cli::run("repro", dispatch))
}

/// Routes a full argument vector to a subcommand and tags its usage
/// errors with that subcommand's usage line.
fn dispatch(args: &[String]) -> Result<i32, UsageError> {
    let subcommand = args.first().map(String::as_str);
    let (run, rest, usage): (Main, &[String], &'static str) = match subcommand {
        Some("serve") => (serve_main, &args[1..], SERVE_USAGE),
        Some("closed-loop") => (closed_loop_main, &args[1..], CLOSED_LOOP_USAGE),
        Some("fleet") => (fleet_main, &args[1..], FLEET_USAGE),
        Some("bench") => (bench_main, &args[1..], BENCH_USAGE),
        _ => (experiments_main, args, EXPERIMENTS_USAGE),
    };
    run(rest).map_err(|e| e.or_usage(usage))
}

/// Resolves a `--model` / `--models` slug.
fn model_kind(slug: &str) -> Result<ModelKind, String> {
    psca_serve::registry::kind_from_slug(slug).ok_or_else(|| format!("unknown model slug '{slug}'"))
}

/// `repro serve`: trains a registry and runs the psca-serve daemon until
/// a client posts `/v1/shutdown` (or the process is signalled).
fn serve_main(args: &[String]) -> Result<i32, UsageError> {
    use psca_serve::{Daemon, ModelRegistry, ServeConfig};
    let mut config = ServeConfig {
        addr: "127.0.0.1:8186".to_string(),
        ..ServeConfig::default()
    };
    let mut seed = 1u64;
    let mut kinds = vec![ModelKind::BestRf, ModelKind::BestMlp];
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--addr" => config.addr = args.value()?.to_string(),
            "--workers" => config.workers = args.parse()?,
            "--queue" => config.queue_capacity = args.parse()?,
            "--read-timeout-ms" => config.read_timeout_ms = args.parse()?,
            "--seed" => seed = args.parse()?,
            "--chaos" => config.chaos = Some(args.spec(ChaosSpec::parse)?),
            "--slo" => config.slo = args.spec(SloSpec::parse)?,
            "--access-log" => config.access_log = Some(args.value()?.into()),
            "--models" => {
                kinds = args.spec(|list| {
                    list.split(',')
                        .map(|slug| model_kind(slug.trim()))
                        .collect::<Result<_, _>>()
                })?
            }
            _ => return Err(args.unknown()),
        }
    }
    let cfg = ExperimentConfig {
        seed,
        ..ExperimentConfig::quick()
    };
    eprintln!(
        "[repro] training serving registry ({} models)...",
        kinds.len()
    );
    let registry = ModelRegistry::train(cfg, &kinds);
    let daemon = match Daemon::start(config, registry) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("[repro] bind failed: {e}");
            return Ok(1);
        }
    };
    // The resolved address goes to stdout so scripts can capture an
    // OS-assigned port (`--addr 127.0.0.1:0`).
    println!("{}", daemon.local_addr());
    eprintln!(
        "[repro] serving on http://{} — POST /v1/shutdown to stop",
        daemon.local_addr()
    );
    daemon.wait();
    eprintln!("[repro] serve: drained and stopped");
    Ok(0)
}

/// The experiment ids and flags of the default path.
#[derive(Default)]
struct Cli {
    quick: bool,
    /// An explicit `--chaos` spec: the run becomes an SLA gate.
    chaos: Option<ChaosSpec>,
    /// Worker threads for parallel sweeps; `None` keeps the config preset.
    jobs: Option<usize>,
    /// Disables the persistent sweep result cache.
    no_cache: bool,
    wanted: Vec<String>,
}

/// Reads the default path's flags and experiment ids. An unknown id is
/// rejected here, before any corpus is simulated.
fn parse_cli(args: &[String]) -> Result<Cli, UsageError> {
    let mut cli = Cli::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => cli.quick = true,
            "--chaos" => cli.chaos = Some(args.spec(ChaosSpec::parse)?),
            "--jobs" => cli.jobs = Some(args.parse()?),
            "--no-cache" => cli.no_cache = true,
            id if id == "all" || EXPERIMENTS.contains(&id) => cli.wanted.push(id.to_string()),
            id if !id.starts_with("--") => {
                return Err(UsageError::new(format!(
                    "unknown experiment '{id}'. Known: {EXPERIMENTS:?}"
                )))
            }
            _ => return Err(args.unknown()),
        }
    }
    if cli.wanted.is_empty() && cli.chaos.is_some() {
        // `repro --chaos SPEC` alone means: run just the chaos harness.
        cli.wanted.push("chaos-sweep".to_string());
    } else if cli.wanted.is_empty() || cli.wanted.iter().any(|w| w == "all") {
        cli.wanted = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok(cli)
}

/// The default path: regenerate the requested tables and figures.
fn experiments_main(args: &[String]) -> Result<i32, UsageError> {
    let cli = parse_cli(args)?;
    let mut cfg = if cli.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    if let Some(jobs) = cli.jobs {
        cfg.jobs = jobs;
    }
    // Cache policy: --no-cache disables; PSCA_SWEEP_CACHE_DIR overrides
    // the location. Environment is read only here, in the binary —
    // library code takes explicit config.
    if cli.no_cache {
        cfg.sweep_cache = None;
    } else if let Ok(dir) = std::env::var("PSCA_SWEEP_CACHE_DIR") {
        if !dir.is_empty() {
            cfg.sweep_cache = Some(PathBuf::from(dir));
        }
    }
    let chaos_spec = cli.chaos.clone().unwrap_or_else(ChaosSpec::default_chaos);
    eprintln!(
        "[repro] config: {} (interval {} insts, {} HDTR apps, SLA P={:.2}, jobs {}, cache {})",
        if cli.quick { "quick" } else { "full" },
        cfg.interval_insts,
        cfg.hdtr_apps,
        cfg.sla.p_sla,
        if cfg.jobs == 0 {
            "auto".to_string()
        } else {
            cfg.jobs.to_string()
        },
        cfg.sweep_cache
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".into())
    );

    let run_id = format!(
        "repro-{}{}",
        if cli.quick { "quick" } else { "full" },
        if cli.wanted.len() == EXPERIMENTS.len() {
            String::new()
        } else {
            format!("-{}", cli.wanted.join("+"))
        }
    );
    let mut report = RunReport::new(&run_id);
    let mut acc = MetricsSnapshot::default();
    // Prefetch shared corpora before any experiment resets the registry,
    // so corpus-construction metrics land in the accumulated snapshot.
    let mut corpora = Corpora::new();
    let needs = |list: &[&str]| cli.wanted.iter().any(|w| list.contains(&w.as_str()));
    if needs(NEEDS_HDTR) {
        let _span = psca_obs::SpanTimer::start("repro.corpus.hdtr");
        corpora.hdtr(&cfg);
    }
    if needs(NEEDS_SPEC) {
        let _span = psca_obs::SpanTimer::start("repro.corpus.spec");
        corpora.spec(&cfg);
    }
    let (hdtr, spec) = corpora.built();
    let hdtr = || hdtr.expect("HDTR corpus prefetched");
    let spec = || spec.expect("SPEC corpus prefetched");
    let pct1 = |v: f64| format!("{:.1}%", 100.0 * v);
    let mut chaos_failed = false;
    for id in &cli.wanted {
        // The driver's reset_all() at entry scopes the registry to the
        // experiment, so capture everything recorded since the previous
        // reset (the prior experiment, corpus builds, spans) first. The
        // registry is intentionally never reset here: after the loop it
        // still holds the last experiment, keeping /metrics meaningful
        // during a PSCA_METRICS_LINGER_S window.
        acc.absorb(&psca_obs::snapshot());
        // One clock snapshot serves both the span (histogram, trace,
        // profiler) and the report row: `finish()` returns the recorded
        // duration instead of a second `Instant::now()` read.
        let span = psca_obs::SpanTimer::start(&format!("repro.{id}"));
        match id.as_str() {
            "table1" => println!("{}", table1::run(&cfg)),
            "table2" => println!("{}", table2::run(&cfg)),
            "table3" => println!("{}", table3::run(&cfg, hdtr())),
            "table4" => println!("{}", table4::run(&cfg, hdtr())),
            "table5" => println!("{}", table5::run(&cfg, hdtr(), spec())),
            "table6" => println!("{}", table6::run(&cfg, hdtr(), spec())),
            "fig4" => println!("{}", fig4::run(&cfg, hdtr())),
            "fig5" => println!("{}", fig5::run(&cfg, hdtr())),
            "fig6" => println!("{}", fig6::run(&cfg, hdtr())),
            "fig7" => {
                let f7 = fig7::run(&cfg, spec());
                println!("{f7}");
                let title = "ideal low-power residency";
                println!("{}", chart::bar_chart(title, &f7.per_benchmark, 40, pct1));
            }
            "fig8" => {
                let f8 = fig8::run(&cfg, hdtr(), spec());
                println!("{f8}");
                let rows = |f: fn(&fig8::Fig8Row) -> f64| -> Vec<(String, f64)> {
                    f8.rows
                        .iter()
                        .map(|r| (r.kind.name().to_string(), f(r)))
                        .collect()
                };
                let (ppw, rsv) = (rows(|r| r.overall.ppw_gain), rows(|r| r.overall.rsv));
                let pct2 = |v: f64| format!("{:.2}%", 100.0 * v);
                println!("{}", chart::bar_chart("PPW gain", &ppw, 40, pct1));
                println!("{}", chart::bar_chart("RSV", &rsv, 40, pct2));
            }
            "fig9" => {
                let f9 = fig9::run(&cfg, hdtr(), spec());
                println!("{f9}");
                let rsv: Vec<(String, f64)> = f9
                    .rows
                    .iter()
                    .map(|r| (r.name.clone(), r.charstar.rsv))
                    .collect();
                let title = "CHARSTAR per-benchmark RSV (the blindspot exhibit)";
                println!("{}", chart::bar_chart(title, &rsv, 40, pct1));
            }
            "fig10" => println!("{}", fig10::run(&cfg, hdtr(), spec())),
            "ablate-steering" => println!("{}", ablations::steering(&cfg)),
            "ablate-width" => println!("{}", ablations::cluster_width(&cfg)),
            "ablate-dvfs" => println!("{}", ablations::dvfs(&cfg, spec())),
            "ablate-guardrail" => println!("{}", ablations::guardrail(&cfg, hdtr(), spec())),
            "ablate-horizon" => {
                let points = ablations::horizon(&cfg, hdtr());
                let text = ablations::format_points("prediction horizon", &points);
                println!("{text}");
            }
            "ablate-normalization" => {
                let points = ablations::normalization(&cfg, hdtr());
                let text = ablations::format_points("counter normalization", &points);
                println!("{text}");
            }
            "chaos-sweep" => {
                let sweep = chaos::chaos_sweep(&cfg, &chaos_spec);
                println!("{sweep}");
                chaos_failed |= !sweep.pass;
            }
            other => unreachable!("parse_cli admitted unknown experiment '{other}'"),
        }
        let wall = span.finish() as f64 / 1e9;
        report.add_phase(id, wall);
        eprintln!("[repro] {id} done in {wall:.1}s\n");
    }
    // Fold in the final experiment (no reset followed it).
    acc.absorb(&psca_obs::snapshot());
    finalize_report(&mut report, &acc);
    // An explicit `--chaos` run is a gate: SLA budget broken → exit 1.
    if chaos_failed && cli.chaos.is_some() {
        eprintln!("[repro] chaos sweep FAILED its SLA budget");
        return Ok(1);
    }
    Ok(0)
}

/// `repro closed-loop`: one deterministic closed-loop adaptation run
/// (train one model, record a trace, run the controller) with the
/// summary as JSON on stdout: the document `POST /v1/closed-loop`
/// answers for the same spec on a `repro serve --seed N` daemon, both
/// rendered by `ClosedLoopSpec::run`. Stdout is a pure function of the
/// flags, so it is byte-identical with `PSCA_PROF=1` on or off.
fn closed_loop_main(args: &[String]) -> Result<i32, UsageError> {
    use psca_serve::{registry::kind_slug, ClosedLoopSpec, ModelRegistry};
    let mut kind = ModelKind::BestRf;
    let mut spec = ClosedLoopSpec {
        model: String::new(),
        archetype: psca_workloads::Archetype::Balanced,
        seed: 1,
        windows: 16,
        warm_insts: 2_000,
        chaos: None,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--model" => kind = args.spec(model_kind)?,
            "--archetype" => {
                spec.archetype = args.spec(|name| {
                    psca_serve::api::parse_archetype(name)
                        .ok_or_else(|| format!("unknown archetype '{name}'"))
                })?
            }
            "--seed" => spec.seed = args.parse()?,
            "--windows" => spec.windows = args.parse()?,
            "--warm-insts" => spec.warm_insts = args.parse()?,
            _ => return Err(args.unknown()),
        }
    }
    let cfg = ExperimentConfig {
        seed: spec.seed,
        ..ExperimentConfig::quick()
    };
    spec.model = kind_slug(kind).to_string();
    eprintln!(
        "[repro] closed-loop: training {} (seed {})...",
        spec.model, spec.seed
    );
    let registry = ModelRegistry::train(cfg, &[kind]);
    let span = psca_obs::SpanTimer::start("repro.closed_loop");
    let doc = match spec.run(&registry) {
        Ok((doc, _)) => doc,
        Err(e) => {
            eprintln!("[repro] closed-loop: {}", e.message);
            return Ok(1);
        }
    };
    let wall = span.finish() as f64 / 1e9;
    // The summary goes to stdout and carries no wall-clock data, so
    // profiled and unprofiled runs diff clean.
    println!("{doc}");
    eprintln!("[repro] closed-loop done in {wall:.2}s");
    Ok(0)
}

/// `repro fleet`: N skewed dies, staged firmware rollout with canary
/// cohorts, automatic rollback on RSV regression (docs/FLEET.md). The
/// report JSON on stdout is a pure function of the flags — byte-identical
/// across runs and across `--jobs` settings. Exit 1 iff the rollout
/// rolled back (the CI gate), 2 on usage errors.
fn fleet_main(args: &[String]) -> Result<i32, UsageError> {
    use psca_fleet::{run_fleet, FleetParams, RolloutSpec, SkewSpec};
    let mut params = FleetParams::default();
    let (mut jobs, mut out) = (0usize, None);
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--size" => params.size = args.nonzero()?,
            "--seed" => params.seed = args.parse()?,
            "--windows" => params.windows = args.parse()?,
            "--jobs" => jobs = args.parse()?,
            "--skew" => params.skew = args.spec(SkewSpec::parse)?,
            "--rollout" => params.rollout = args.spec(RolloutSpec::parse)?,
            "--chaos" => params.chaos = Some(args.spec(ChaosSpec::parse)?),
            "--bad-image" => params.bad_image = true,
            "--out" => out = Some(PathBuf::from(args.value()?)),
            _ => return Err(args.unknown()),
        }
    }
    let cfg = ExperimentConfig {
        seed: params.seed,
        jobs,
        ..ExperimentConfig::quick()
    };
    eprintln!(
        "[repro] fleet: {} dies, seed {}, rollout {}...",
        params.size,
        params.seed,
        match params.rollout {
            Some(spec) => spec.to_string(),
            None => "off".to_string(),
        }
    );
    let span = psca_obs::SpanTimer::start("repro.fleet");
    let report = run_fleet(&cfg, &params);
    let wall = span.finish() as f64 / 1e9;
    // Human-readable tables to stderr; the deterministic report to stdout.
    eprint!("{report}");
    let doc = report.to_json();
    println!("{doc}");
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("[repro] fleet: cannot write {}: {e}", path.display());
            return Ok(1);
        }
        eprintln!("[repro] fleet report: {}", path.display());
    }
    // Publish a run report (artifact + live /report endpoint), like the
    // experiment drivers do.
    let mut run_report = RunReport::new(&format!("fleet-{}", params.seed));
    run_report.add_phase("repro.fleet", wall);
    run_report.set("fleet_size", params.size as u64);
    run_report.set("fleet_status", report.status);
    run_report.set("fleet_rsv", report.total.rsv());
    run_report.set("fleet_ppw", report.total.ppw());
    run_report.set("fleet_quarantined", report.quarantined.len() as u64);
    match run_report.write(Path::new("target/obs"), &psca_obs::snapshot()) {
        Ok(path) => eprintln!("[repro] run report: {}", path.display()),
        Err(e) => eprintln!("[repro] failed to write run report: {e}"),
    }
    eprintln!(
        "[repro] fleet {} in {wall:.2}s",
        if report.pass {
            "PASS"
        } else {
            "FAIL (rolled back)"
        }
    );
    Ok(if report.pass { 0 } else { 1 })
}

/// `repro bench`: the unified benchmark suite (psca_bench::suite) — runs
/// every bench (or `--only` a subset), attaches the profiler's top
/// self-time paths, and optionally refreshes (`--update`) or gates
/// against (`--check`) the committed `BENCH_*.json` baselines.
fn bench_main(args: &[String]) -> Result<i32, UsageError> {
    use psca_bench::suite::{self, BenchOpts};
    let (mut update, mut check, mut quick) = (false, false, false);
    let (mut seed, mut tolerance) = (1u64, None);
    let mut names = suite::BENCHES.to_vec();
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--update" => update = true,
            "--check" => check = true,
            "--quick" => quick = true,
            "--seed" => seed = args.parse()?,
            "--tolerance" => tolerance = Some(args.parse()?),
            "--only" => {
                names = args.spec(|list| {
                    list.split(',')
                        .map(|name| {
                            let name = name.trim();
                            suite::BENCHES
                                .into_iter()
                                .find(|&b| b == name)
                                .ok_or_else(|| format!("unknown bench '{name}'"))
                        })
                        .collect::<Result<_, _>>()
                })?
            }
            _ => return Err(args.unknown()),
        }
    }
    // Quick runs on loaded CI machines are noisy; default to a wide band
    // there and a tighter one for full local runs.
    let tolerance = tolerance.unwrap_or(if quick { 3.0 } else { 0.5 });
    let opts = BenchOpts { quick, seed };
    let dir = Path::new("target/obs");
    let _ = std::fs::create_dir_all(dir);
    let mut results = Vec::new();
    let mut combined = psca_obs::Profile::default();
    for name in names {
        eprintln!(
            "[repro] bench {name} ({} mode, seed {seed})...",
            if quick { "quick" } else { "full" }
        );
        psca_obs::reset_all();
        psca_obs::prof::set_enabled(true);
        psca_obs::prof::reset();
        let mut result = suite::run_bench(name, &opts).expect("validated bench name");
        let profile = psca_obs::prof::drain();
        result.profile_top = profile.top_self(5);
        // Flamegraph-ready per-bench stacks; CI uploads these on failure.
        let folded_path = dir.join(format!("bench-{name}.folded"));
        if let Err(e) = std::fs::write(&folded_path, profile.folded()) {
            eprintln!("[repro] bench: cannot write {}: {e}", folded_path.display());
        }
        combined.merge(&profile);
        results.push(result);
    }
    // Leave the union in the global profile so `PSCA_PROF=1 repro bench`
    // still writes a meaningful .folded for the whole invocation.
    psca_obs::prof::merge_global(&combined);
    let mut failed = false;
    // A missing or unreadable baseline is an operator problem, not a
    // performance regression: it exits 2 (like a usage error) so CI can
    // tell "run `repro bench --update` and commit" apart from "the code
    // got slower" (exit 1).
    let mut baseline_error = false;
    if check {
        for result in &results {
            match suite::load_baseline(&result.bench) {
                Ok(baseline) => {
                    let violations = suite::check(result, &baseline, tolerance);
                    if violations.is_empty() {
                        eprintln!(
                            "[repro] bench {}: PASS (tolerance {:.0}%)",
                            result.bench,
                            tolerance * 100.0
                        );
                    } else {
                        failed = true;
                        for v in &violations {
                            eprintln!("[repro] bench REGRESSION: {v}");
                        }
                    }
                }
                Err(e) => {
                    baseline_error = true;
                    eprintln!(
                        "[repro] bench {}: no usable baseline ({e}); \
                         run `repro bench --update` and commit the refreshed BENCH_*.json",
                        result.bench
                    );
                }
            }
        }
    }
    if update {
        for result in &results {
            let path = suite::baseline_path(&result.bench);
            match std::fs::write(&path, format!("{}\n", result.to_json())) {
                Ok(()) => eprintln!("[repro] bench baseline updated: {}", path.display()),
                Err(e) => {
                    failed = true;
                    eprintln!("[repro] bench: cannot write {}: {e}", path.display());
                }
            }
        }
    }
    // Machine-readable results for scripting (one array, unified schema).
    println!(
        "{}",
        Json::Arr(results.iter().map(|r| r.to_json()).collect())
    );
    Ok(if baseline_error {
        2
    } else if failed {
        1
    } else {
        0
    })
}

/// Derives the headline summary from the accumulated metrics snapshot and
/// writes the run-report artifact to `target/obs/`.
fn finalize_report(report: &mut RunReport, snap: &MetricsSnapshot) {
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let insts = c("cpu.sim.instructions");
    let cycles = c("cpu.sim.cycles");
    let wall = report.total_wall_s();
    report.set("sim_instructions", insts);
    if wall > 0.0 {
        report.set("sim_insts_per_sec", insts as f64 / wall);
    }
    if cycles > 0 {
        report.set(
            "low_power_residency",
            c("cpu.sim.cycles_low_power") as f64 / cycles as f64,
        );
    }
    let windows = c("adapt.windows");
    report.set("windows", windows);
    report.set("windows_gated_low", c("adapt.windows_gated_low"));
    report.set("guardrail_trips", c("adapt.guardrail.trips"));
    report.set("sla_violations", c("adapt.sla.violations"));
    let faults = c("faults.injected");
    if faults > 0 {
        report.set("faults_injected", faults);
        report.set("degrade_transitions", c("adapt.degrade.transitions"));
        report.set("images_rejected", c("uc.image.rejected"));
    }
    // Sweep result cache efficacy: hits / (hits + misses) across every
    // experiment in the run, plus the bytes the run added to the cache.
    let cache_hits = c("exec.cache.hits");
    let cache_misses = c("exec.cache.misses");
    if cache_hits + cache_misses > 0 {
        report.set(
            "sweep_cache_hit_rate",
            cache_hits as f64 / (cache_hits + cache_misses) as f64,
        );
        report.set("sweep_cache_bytes_written", c("exec.cache.bytes_written"));
    }
    let predictions = c("adapt.predictions");
    if predictions > 0 {
        report.set(
            "predictor_accuracy",
            1.0 - c("adapt.mispredictions") as f64 / predictions as f64,
        );
    }
    match report.write(Path::new("target/obs"), snap) {
        Ok(path) => eprintln!("[repro] run report: {}", path.display()),
        Err(e) => eprintln!("[repro] failed to write run report: {e}"),
    }
    // The report carries wall-clock times, so it goes to stderr: stdout
    // stays a pure function of (config, seed) and two runs of the same
    // experiment grid diff clean regardless of --jobs (CI relies on this).
    eprintln!("{}", report.render());
}
