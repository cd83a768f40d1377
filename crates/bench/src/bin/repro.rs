//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro -- all                       # everything, full scaled config (release!)
//! repro -- fig8 fig9                 # specific experiments
//! repro -- table5 --quick            # seconds-scale config for smoke testing
//! repro -- all --trace-out t.json    # record a Perfetto trace
//! repro -- all --serve-metrics       # live /metrics + /healthz + /report
//! repro -- all --dash                # live TTY dashboard on stderr
//! repro -- all --jobs 8              # worker threads (0 = auto; bit-identical)
//! repro -- all --no-cache            # disable the persistent sweep cache
//! repro -- all --backend surrogate   # learned fast-path fidelity (docs/SURROGATE.md)
//! repro -- --chaos default --quick   # chaos harness; exit 1 on SLA breach
//! repro -- --chaos uc.drop=0.1,seed=7 chaos-sweep
//! repro -- serve                     # adaptation-as-a-service daemon
//! repro -- serve --addr 127.0.0.1:0 --models best-rf,charstar --seed 7
//! repro -- serve --slo p99_us=50000,availability=0.99 --access-log access.jsonl
//! repro -- loadgen --addr 127.0.0.1:8186 --rps 50 --duration 2 --out target/obs/loadgen.json
//! repro -- slo-check --bench target/obs/loadgen.json --slo default   # CI gate, exit 1 on breach
//! repro -- closed-loop --model best-rf --archetype balanced --seed 1
//! repro -- fleet --size 8 --seed 1                   # skewed dies + staged rollout
//! repro -- fleet --bad-image --out fleet.json        # CI rollback gate, exit 1
//! repro -- bench --check --quick     # unified bench suite vs BENCH_*.json baselines
//! repro -- bench --update            # refresh the committed baselines
//! repro -- profile closed-loop ...   # any runner + psca-prof flamegraph artifacts
//! ```
//!
//! `repro profile <subcommand>` (or `PSCA_PROF=1`) enables the
//! hierarchical self-profiler (docs/PROFILING.md). The profiler is an
//! observer: stdout and all result artifacts stay byte-identical to an
//! unprofiled run; the collapsed-stack `.folded` + summary JSON land in
//! `target/obs/`.
//!
//! Observability: every experiment driver scopes the global metric
//! registry to itself (`reset_all()` at entry), so this binary snapshots
//! and absorbs the registry around each experiment to keep the end-of-run
//! report covering the whole invocation.

use psca_adapt::experiments::{ablations, chaos, fig10, fig4, fig5, fig6, fig7, fig8, fig9};
use psca_adapt::experiments::{table1, table2, table3, table4, table5, table6};
use psca_adapt::ExperimentConfig;
use psca_bench::{Corpora, EXPERIMENTS};
use psca_faults::ChaosSpec;
use psca_obs::{Json, MetricsSnapshot, RunReport};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

struct Cli {
    quick: bool,
    dash: bool,
    serve_metrics: bool,
    trace_out: Option<String>,
    chaos: Option<String>,
    /// Worker threads for parallel sweeps; `None` keeps the config preset.
    jobs: Option<usize>,
    /// Disables the persistent sweep result cache.
    no_cache: bool,
    /// Simulation fidelity (`--backend`; `PSCA_BACKEND` as fallback).
    backend: Option<String>,
    wanted: Vec<String>,
}

/// Resolves the simulation backend from an explicit `--backend` value,
/// falling back to the `PSCA_BACKEND` environment variable. `None` means
/// neither was given (keep the config default). Unknown names exit 2.
fn resolve_backend(flag: Option<&str>) -> Option<psca_adapt::BackendChoice> {
    let name = flag.map(str::to_string).or_else(|| {
        std::env::var("PSCA_BACKEND")
            .ok()
            .filter(|v| !v.trim().is_empty())
    })?;
    match name.trim().parse() {
        Ok(backend) => Some(backend),
        Err(e) => {
            eprintln!("[repro] {e}");
            std::process::exit(2);
        }
    }
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        quick: false,
        dash: false,
        serve_metrics: false,
        trace_out: None,
        chaos: None,
        jobs: None,
        no_cache: false,
        backend: None,
        wanted: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cli.quick = true,
            "--dash" => cli.dash = true,
            "--serve-metrics" => cli.serve_metrics = true,
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => cli.trace_out = Some(path.clone()),
                    None => {
                        eprintln!("[repro] --trace-out requires a path argument");
                        std::process::exit(2);
                    }
                }
            }
            "--chaos" => {
                i += 1;
                match args.get(i) {
                    Some(spec) => cli.chaos = Some(spec.clone()),
                    None => {
                        eprintln!(
                            "[repro] --chaos requires a spec argument (try 'default' or \
                             'uc.drop=0.05,telem=0.02,seed=7'; see docs/ROBUSTNESS.md)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => cli.jobs = Some(n),
                    None => {
                        eprintln!("[repro] --jobs requires a number (0 = auto)");
                        std::process::exit(2);
                    }
                }
            }
            "--no-cache" => cli.no_cache = true,
            "--backend" => {
                i += 1;
                match args.get(i) {
                    Some(name) => cli.backend = Some(name.clone()),
                    None => {
                        eprintln!("[repro] --backend requires cycle_accurate or surrogate");
                        std::process::exit(2);
                    }
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "[repro] unknown flag '{flag}'. Known: --quick --dash --serve-metrics --trace-out PATH --chaos SPEC --jobs N --no-cache --backend NAME"
                );
                std::process::exit(2);
            }
            id => cli.wanted.push(id.to_string()),
        }
        i += 1;
    }
    if cli.wanted.is_empty() && cli.chaos.is_some() {
        // `repro --chaos SPEC` alone means: run just the chaos harness.
        cli.wanted.push("chaos-sweep".to_string());
    } else if cli.wanted.is_empty() || cli.wanted.iter().any(|w| w == "all") {
        cli.wanted = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    cli
}

/// Every zoo kind, for `--models` slug resolution.
const SERVE_KINDS: [psca_adapt::ModelKind; 5] = [
    psca_adapt::ModelKind::BestRf,
    psca_adapt::ModelKind::BestMlp,
    psca_adapt::ModelKind::Charstar,
    psca_adapt::ModelKind::SrchFine,
    psca_adapt::ModelKind::SrchCoarse,
];

/// `repro serve`: trains a registry and runs the psca-serve daemon until
/// a client posts `/v1/shutdown` (or the process is signalled).
fn serve_main(args: &[String]) -> ! {
    use psca_serve::{Daemon, ModelRegistry, ServeConfig};
    let mut config = ServeConfig {
        addr: "127.0.0.1:8186".to_string(),
        ..ServeConfig::default()
    };
    let mut seed = 1u64;
    let mut kinds = vec![
        psca_adapt::ModelKind::BestRf,
        psca_adapt::ModelKind::BestMlp,
    ];
    let mut backend_flag: Option<String> = None;
    let usage = "[repro] serve flags: --addr HOST:PORT --workers N --queue N \
                 --max-connections N --read-timeout-ms N --chaos SPEC --slo SPEC|off \
                 --access-log PATH --seed N --backend NAME --models slug[,slug...] \
                 (slugs: best-rf best-mlp charstar srch-fine srch-coarse)";
    // Environment seeds the slow-client deadline; the flag overrides it.
    if let Some(ms) = std::env::var("PSCA_READ_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
    {
        config.read_timeout_ms = ms;
    }
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = || {
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("[repro] {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match flag {
            "--addr" => config.addr = value(),
            "--workers" => config.workers = parse_or_die(&value(), flag),
            "--queue" => config.queue_capacity = parse_or_die(&value(), flag),
            "--max-connections" => config.max_connections = parse_or_die(&value(), flag),
            "--read-timeout-ms" => config.read_timeout_ms = parse_or_die(&value(), flag),
            "--seed" => seed = parse_or_die(&value(), flag),
            "--chaos" => config.chaos = Some(spec_or_die(ChaosSpec::parse(&value()), flag)),
            "--slo" => config.slo = spec_or_die(psca_obs::SloSpec::parse(&value()), flag),
            "--access-log" => config.access_log = Some(std::path::PathBuf::from(value())),
            "--backend" => backend_flag = Some(value()),
            "--models" => {
                kinds = value()
                    .split(',')
                    .map(|slug| {
                        SERVE_KINDS
                            .into_iter()
                            .find(|&k| psca_serve::registry::kind_slug(k) == slug.trim())
                            .unwrap_or_else(|| {
                                eprintln!("[repro] unknown model slug '{slug}'\n{usage}");
                                std::process::exit(2);
                            })
                    })
                    .collect();
            }
            other => {
                eprintln!("[repro] unknown serve flag '{other}'\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    psca_obs::init_from_env();
    let mut builder = ExperimentConfig::builder().seed(seed);
    if let Some(backend) = resolve_backend(backend_flag.as_deref()) {
        builder = builder.backend(backend);
    }
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("[repro] bad serve config: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "[repro] training serving registry ({} models)...",
        kinds.len()
    );
    let registry = ModelRegistry::train(cfg, &kinds);
    let daemon = match Daemon::start(config, registry) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("[repro] bind failed: {e}");
            std::process::exit(1);
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
    if let Some(path) = psca_obs::trace::finish() {
        eprintln!(
            "[repro] trace: {} (load in https://ui.perfetto.dev)",
            path.display()
        );
    }
    std::process::exit(0)
}

/// Unwraps a parsed spec flag or exits with a usage error.
fn spec_or_die<T>(parsed: Result<T, psca_obs::SpecError>, flag: &str) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("[repro] bad {flag} spec: {e}");
        std::process::exit(2);
    })
}

/// Parses a flag value or exits with a usage error.
fn parse_or_die<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("[repro] {flag} got unparseable value '{value}'");
        std::process::exit(2);
    })
}

/// `repro loadgen`: seeded open-loop load against a running daemon's
/// `/v1/predict`, summarized as JSON on stdout (and to `--out` when
/// given).
fn loadgen_main(args: &[String]) -> ! {
    use psca_bench::loadgen::{self, LoadgenConfig};
    let mut cfg = LoadgenConfig::default();
    let mut model_override: Option<String> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let usage = "[repro] loadgen flags: --addr HOST:PORT --model SLUG --rps N \
                 --duration SECS --connections N --seed N --out PATH";
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = || {
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("[repro] {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match flag {
            "--addr" => cfg.addr = value(),
            "--model" => model_override = Some(value()),
            "--rps" => cfg.rps = parse_or_die(&value(), flag),
            "--duration" => cfg.duration_s = parse_or_die(&value(), flag),
            "--connections" => cfg.connections = parse_or_die(&value(), flag),
            "--seed" => cfg.seed = parse_or_die(&value(), flag),
            "--out" => out = Some(std::path::PathBuf::from(value())),
            other => {
                eprintln!("[repro] unknown loadgen flag '{other}'\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if cfg.rps == 0 || cfg.duration_s == 0 {
        eprintln!("[repro] loadgen needs --rps and --duration >= 1");
        std::process::exit(2);
    }
    let (slug, dim) = loadgen::discover_model(&cfg.addr).unwrap_or_else(|e| {
        eprintln!("[repro] loadgen: {e}");
        std::process::exit(1);
    });
    cfg.model = model_override.unwrap_or(slug);
    cfg.input_dim = dim;
    eprintln!(
        "[repro] loadgen: {} rps x {}s against http://{} (model {}, dim {}, seed {})",
        cfg.rps, cfg.duration_s, cfg.addr, cfg.model, cfg.input_dim, cfg.seed
    );
    let summary = loadgen::run(&cfg);
    let doc = summary.to_json().to_string();
    println!("{doc}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("[repro] loadgen: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[repro] loadgen: summary written to {}", path.display());
    }
    // A run where nothing succeeded is a failure regardless of any SLO.
    if summary.ok == 0 {
        eprintln!("[repro] loadgen: no request succeeded");
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// `repro slo-check`: offline SLO verdict over a `repro loadgen` summary
/// or a `repro closed-loop` result — the CI gate (`exit 1` on breach,
/// `exit 2` when the document lacks a number the spec would gate).
fn slo_check_main(args: &[String]) -> ! {
    let mut bench: Option<std::path::PathBuf> = None;
    let mut slo = "default".to_string();
    let usage = "[repro] slo-check flags: --bench PATH --slo SPEC|off";
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = || {
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("[repro] {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match flag {
            "--bench" => bench = Some(std::path::PathBuf::from(value())),
            "--slo" => slo = value(),
            other => {
                eprintln!("[repro] unknown slo-check flag '{other}'\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(bench) = bench else {
        eprintln!("[repro] slo-check needs --bench\n{usage}");
        std::process::exit(2);
    };
    let Some(spec) = spec_or_die(psca_obs::SloSpec::parse(&slo), "--slo") else {
        eprintln!("[repro] slo-check: spec is 'off', trivially passing");
        std::process::exit(0);
    };
    let text = std::fs::read_to_string(&bench).unwrap_or_else(|e| {
        eprintln!("[repro] slo-check: cannot read {}: {e}", bench.display());
        std::process::exit(1);
    });
    let doc = psca_obs::Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("[repro] slo-check: {} is not JSON: {e}", bench.display());
        std::process::exit(1);
    });
    let num = |key: &str| doc.get(key).and_then(psca_obs::Json::as_f64);
    let (p99, availability) = (num("p99_us"), num("availability"));
    let rsv = num("low_power_residency").or_else(|| num("rsv"));
    // A document this gate cannot read must not pass as a clean verdict.
    let missing = if p99.is_none() && availability.is_none() && rsv.is_none() {
        Some("p99_us, availability or low_power_residency")
    } else if spec.rsv_floor.is_some() && rsv.is_none() {
        Some("low_power_residency (needed by rsv_floor)")
    } else {
        None
    };
    if let Some(key) = missing {
        eprintln!(
            "[repro] slo-check: {} has no top-level {key}",
            bench.display()
        );
        std::process::exit(2);
    }
    let violations = spec.check_values(p99, availability, rsv);
    eprintln!(
        "[repro] slo-check: {} against {} ({})",
        bench.display(),
        spec.render(),
        if violations.is_empty() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    for v in &violations {
        eprintln!("[repro] slo-check: VIOLATION: {v}");
    }
    std::process::exit(if violations.is_empty() { 0 } else { 1 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dispatch(&args))
}

/// Routes a full argument vector to a subcommand. Factored out of
/// `main` so `repro profile <subcommand...>` can run any inner runner
/// and still regain control to write the profile artifacts.
fn dispatch(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("loadgen") => loadgen_main(&args[1..]),
        Some("slo-check") => slo_check_main(&args[1..]),
        Some("closed-loop") => closed_loop_main(&args[1..]),
        Some("fleet") => fleet_main(&args[1..]),
        Some("bench") => bench_main(&args[1..]),
        Some("profile") => profile_main(&args[1..]),
        _ => experiments_main(args),
    }
}

/// `repro profile <subcommand...>`: runs any non-daemon repro invocation
/// with the hierarchical self-profiler enabled, then writes
/// `target/obs/profile-<slug>.folded` (collapsed stacks, flamegraph.pl /
/// inferno consumable) plus a JSON summary and prints the self-time
/// table to stderr. The wrapped runner's stdout and result artifacts are
/// byte-identical to an unprofiled run (tests/observability.rs holds the
/// line).
fn profile_main(args: &[String]) -> i32 {
    let usage = "[repro] profile usage: repro profile <closed-loop|bench|EXPERIMENT...> [flags]";
    let Some(first) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    if matches!(
        first.as_str(),
        "serve" | "loadgen" | "slo-check" | "profile"
    ) {
        eprintln!(
            "[repro] profile cannot wrap '{first}'; run it with PSCA_PROF=1 instead \
             (the daemon exposes GET /v1/profile)"
        );
        return 2;
    }
    psca_obs::prof::set_enabled(true);
    psca_obs::prof::reset();
    let code = dispatch(args);
    let profile = psca_obs::prof::drain();
    let slug: String = args
        .join("-")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(60)
        .collect();
    let dir = Path::new("target/obs");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[repro] profile: cannot create {}: {e}", dir.display());
        return code;
    }
    let folded_path = dir.join(format!("profile-{slug}.folded"));
    let json_path = dir.join(format!("profile-{slug}.json"));
    match std::fs::write(&folded_path, profile.folded()) {
        Ok(()) => eprintln!("[repro] profile: {}", folded_path.display()),
        Err(e) => eprintln!(
            "[repro] profile: cannot write {}: {e}",
            folded_path.display()
        ),
    }
    match std::fs::write(&json_path, format!("{}\n", profile.to_json())) {
        Ok(()) => eprintln!("[repro] profile: {}", json_path.display()),
        Err(e) => eprintln!("[repro] profile: cannot write {}: {e}", json_path.display()),
    }
    if profile.is_empty() {
        eprintln!("[repro] profile: no spans recorded (inner runner opened none)");
    } else {
        eprint!("{}", profile.render_table(15));
    }
    code
}

/// The default path: regenerate the requested tables and figures.
fn experiments_main(args: &[String]) -> i32 {
    let cli = parse_cli(args);
    // Parse the chaos spec up front so a typo fails fast, before any
    // corpus simulation.
    let chaos_spec = match &cli.chaos {
        Some(s) => spec_or_die(ChaosSpec::parse(s), "--chaos"),
        None => ChaosSpec::default_chaos(),
    };
    let mut cfg = if cli.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    if let Some(jobs) = cli.jobs {
        cfg.jobs = jobs;
    }
    // Cache policy: --no-cache or PSCA_SWEEP_CACHE=0/off/false disables;
    // PSCA_SWEEP_CACHE_DIR overrides the location. Environment is read
    // only here, in the binary — library code takes explicit config.
    if cli.no_cache
        || matches!(
            std::env::var("PSCA_SWEEP_CACHE").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    {
        cfg.sweep_cache = None;
    } else if let Ok(dir) = std::env::var("PSCA_SWEEP_CACHE_DIR") {
        if !dir.is_empty() {
            cfg.sweep_cache = Some(std::path::PathBuf::from(dir));
        }
    }
    if let Some(backend) = resolve_backend(cli.backend.as_deref()) {
        cfg.backend = backend;
    }
    // An explicit `--chaos` run is a pass/fail SLA gate: its verdict must
    // come from the reference simulator, not an approximation of it.
    if cli.chaos.is_some() && !cfg.backend.is_reference() {
        eprintln!(
            "[repro] {}",
            psca_adapt::ConfigError::NonReferenceBackend(cfg.backend)
        );
        std::process::exit(2);
    }
    eprintln!(
        "[repro] config: {} (interval {} insts, {} HDTR apps, backend {}, SLA P={:.2}, jobs {}, cache {})",
        if cli.quick { "quick" } else { "full" },
        cfg.interval_insts,
        cfg.hdtr_apps,
        cfg.backend.as_str(),
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
    psca_obs::init_from_env();
    if let Some(path) = &cli.trace_out {
        if !psca_obs::trace::enable(path) {
            eprintln!("[repro] trace recorder already active (PSCA_TRACE?); keeping it");
        }
    }
    if cli.serve_metrics {
        let addr = std::env::var("PSCA_METRICS_ADDR").unwrap_or_else(|_| "127.0.0.1:9185".into());
        psca_obs::exporter::serve(&addr);
    }
    let dash = cli.dash.then(Dashboard::start);

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
    report.set("backend", cfg.backend.as_str());
    let mut acc = MetricsSnapshot::default();
    let mut corpora = Corpora::new();
    let mut chaos_failed = false;
    // Prefetch shared corpora before any experiment resets the registry,
    // so corpus-construction metrics land in the accumulated snapshot.
    if cli.wanted.iter().any(|w| NEEDS_HDTR.contains(&w.as_str())) {
        let _span = psca_obs::SpanTimer::start("repro.corpus.hdtr");
        corpora.hdtr(&cfg);
    }
    if cli.wanted.iter().any(|w| NEEDS_SPEC.contains(&w.as_str())) {
        let _span = psca_obs::SpanTimer::start("repro.corpus.spec");
        corpora.spec(&cfg);
    }
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
            "table3" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                println!("{}", table3::run(&cfg, &hdtr));
            }
            "table4" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                println!("{}", table4::run(&cfg, &hdtr));
            }
            "table5" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let spec = corpora.spec(&cfg).clone();
                println!("{}", table5::run(&cfg, &hdtr, &spec));
            }
            "table6" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let spec = corpora.spec(&cfg).clone();
                println!("{}", table6::run(&cfg, &hdtr, &spec));
            }
            "fig4" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                println!("{}", fig4::run(&cfg, &hdtr));
            }
            "fig5" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                println!("{}", fig5::run(&cfg, &hdtr));
            }
            "fig6" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                println!("{}", fig6::run(&cfg, &hdtr));
            }
            "fig7" => {
                let spec = corpora.spec(&cfg).clone();
                let f7 = fig7::run(&cfg, &spec);
                println!("{f7}");
                let rows: Vec<(String, f64)> = f7.per_benchmark.clone();
                println!(
                    "{}",
                    psca_bench::chart::bar_chart(
                        "ideal low-power residency",
                        &rows,
                        40,
                        |v| format!("{:.1}%", 100.0 * v)
                    )
                );
            }
            "fig8" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let spec = corpora.spec(&cfg).clone();
                let f8 = fig8::run(&cfg, &hdtr, &spec);
                println!("{f8}");
                let ppw: Vec<(String, f64)> = f8
                    .rows
                    .iter()
                    .map(|r| (r.kind.name().to_string(), r.overall.ppw_gain))
                    .collect();
                let rsv: Vec<(String, f64)> = f8
                    .rows
                    .iter()
                    .map(|r| (r.kind.name().to_string(), r.overall.rsv))
                    .collect();
                println!(
                    "{}",
                    psca_bench::chart::bar_chart("PPW gain", &ppw, 40, |v| format!(
                        "{:.1}%",
                        100.0 * v
                    ))
                );
                println!(
                    "{}",
                    psca_bench::chart::bar_chart("RSV", &rsv, 40, |v| format!("{:.2}%", 100.0 * v))
                );
            }
            "fig9" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let spec = corpora.spec(&cfg).clone();
                let f9 = fig9::run(&cfg, &hdtr, &spec);
                println!("{f9}");
                let rsv: Vec<(String, f64)> = f9
                    .rows
                    .iter()
                    .map(|r| (r.name.clone(), r.charstar.rsv))
                    .collect();
                println!(
                    "{}",
                    psca_bench::chart::bar_chart(
                        "CHARSTAR per-benchmark RSV (the blindspot exhibit)",
                        &rsv,
                        40,
                        |v| format!("{:.1}%", 100.0 * v)
                    )
                );
            }
            "fig10" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let spec = corpora.spec(&cfg).clone();
                println!("{}", fig10::run(&cfg, &hdtr, &spec));
            }
            "ablate-steering" => println!("{}", ablations::steering(&cfg)),
            "ablate-width" => println!("{}", ablations::cluster_width(&cfg)),
            "ablate-dvfs" => {
                let spec = corpora.spec(&cfg).clone();
                println!("{}", ablations::dvfs(&cfg, &spec));
            }
            "ablate-guardrail" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let spec = corpora.spec(&cfg).clone();
                println!("{}", ablations::guardrail(&cfg, &hdtr, &spec));
            }
            "ablate-horizon" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let points = ablations::horizon(&cfg, &hdtr);
                println!(
                    "{}",
                    ablations::format_points("prediction horizon", &points)
                );
            }
            "ablate-normalization" => {
                let hdtr = corpora.hdtr(&cfg).clone();
                let points = ablations::normalization(&cfg, &hdtr);
                println!(
                    "{}",
                    ablations::format_points("counter normalization", &points)
                );
            }
            "chaos-sweep" => {
                let sweep = chaos::chaos_sweep(&cfg, &chaos_spec);
                println!("{sweep}");
                if !sweep.pass {
                    chaos_failed = true;
                }
            }
            other => {
                eprintln!("[repro] unknown experiment '{other}'. Known: {EXPERIMENTS:?}");
                std::process::exit(2);
            }
        }
        let wall = span.finish() as f64 / 1e9;
        report.add_phase(id, wall);
        eprintln!("[repro] {id} done in {wall:.1}s\n");
    }
    // Fold in the final experiment (no reset followed it).
    acc.absorb(&psca_obs::snapshot());
    if let Some(dash) = dash {
        dash.stop();
    }
    finalize_report(&mut report, &acc);
    if let Some(path) = psca_obs::trace::finish() {
        eprintln!(
            "[repro] trace: {} (load in https://ui.perfetto.dev)",
            path.display()
        );
    }
    // Keep the metrics endpoints up briefly so scrapers (CI smoke) can
    // observe the finished run before the process exits.
    if let Ok(linger) = std::env::var("PSCA_METRICS_LINGER_S") {
        if let Ok(secs) = linger.trim().parse::<u64>() {
            if psca_obs::exporter::global_addr().is_some() && secs > 0 {
                eprintln!("[repro] lingering {secs}s for metric scrapes");
                std::thread::sleep(std::time::Duration::from_secs(secs));
            }
        }
    }
    psca_obs::exporter::shutdown_global();
    // An explicit `--chaos` run is a gate: SLA budget broken → exit 1.
    if chaos_failed && cli.chaos.is_some() {
        eprintln!("[repro] chaos sweep FAILED its SLA budget");
        return 1;
    }
    0
}

/// `repro closed-loop`: one deterministic closed-loop adaptation run
/// (train one model, record a trace, run the controller) with the
/// summary as JSON on stdout. Stdout is a pure function of the flags —
/// the acceptance target for `repro profile closed-loop` bit-identity.
fn closed_loop_main(args: &[String]) -> i32 {
    use psca_serve::{registry::kind_slug, ModelRegistry};
    use psca_workloads::PhaseGenerator;
    let mut model_slug = "best-rf".to_string();
    let mut archetype_name = "balanced".to_string();
    let mut seed = 1u64;
    let mut windows = 16u64;
    let mut warm_insts = 2_000u64;
    let mut backend_flag: Option<String> = None;
    let usage = "[repro] closed-loop flags: --model SLUG --archetype NAME --seed N \
                 --windows N --warm-insts N --backend NAME \
                 (slugs: best-rf best-mlp charstar srch-fine srch-coarse)";
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = || {
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("[repro] {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match flag {
            "--model" => model_slug = value(),
            "--archetype" => archetype_name = value(),
            "--seed" => seed = parse_or_die(&value(), flag),
            "--windows" => windows = parse_or_die(&value(), flag),
            "--warm-insts" => warm_insts = parse_or_die(&value(), flag),
            "--backend" => backend_flag = Some(value()),
            other => {
                eprintln!("[repro] unknown closed-loop flag '{other}'\n{usage}");
                return 2;
            }
        }
        i += 1;
    }
    let Some(archetype) = psca_serve::api::parse_archetype(&archetype_name) else {
        eprintln!("[repro] unknown archetype '{archetype_name}'");
        return 2;
    };
    let Some(kind) = SERVE_KINDS
        .into_iter()
        .find(|&k| kind_slug(k) == model_slug)
    else {
        eprintln!("[repro] unknown model slug '{model_slug}'\n{usage}");
        return 2;
    };
    psca_obs::init_from_env();
    let mut builder = ExperimentConfig::builder().seed(seed);
    if let Some(backend) = resolve_backend(backend_flag.as_deref()) {
        builder = builder.backend(backend);
    }
    let cfg = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("[repro] bad closed-loop config: {e}");
            return 2;
        }
    };
    eprintln!("[repro] closed-loop: training {model_slug} (seed {seed})...");
    let registry = ModelRegistry::train(cfg, &[kind]);
    let Some(model) = registry.get(&model_slug) else {
        eprintln!("[repro] closed-loop: training produced no '{model_slug}' model");
        return 1;
    };
    let span = psca_obs::SpanTimer::start("repro.closed_loop");
    let run_cfg = registry.config();
    let interval_insts = run_cfg.interval_insts;
    let mut gen = PhaseGenerator::new(archetype.center(), seed);
    let window_insts = windows * model.granularity_insts(interval_insts);
    let (warm, window) = psca_adapt::record_trace(&mut gen, warm_insts, window_insts);
    let result = psca_adapt::ClosedLoopRequest::new(model, &warm, &window, interval_insts)
        .with_backend(run_cfg.backend)
        .run();
    let wall = span.finish() as f64 / 1e9;
    // The summary goes to stdout and carries no wall-clock data, so
    // profiled and unprofiled runs diff clean.
    let doc = Json::obj(vec![
        ("model", model_slug.as_str().into()),
        ("archetype", format!("{archetype:?}").into()),
        ("seed", seed.into()),
        ("backend", run_cfg.backend.as_str().into()),
        ("windows", (result.modes.len() as u64).into()),
        ("instructions", result.instructions.into()),
        ("cycles", result.cycles.into()),
        ("energy", result.energy.into()),
        ("ppw", result.ppw().into()),
        ("low_power_residency", result.low_power_residency.into()),
    ]);
    println!("{doc}");
    eprintln!("[repro] closed-loop done in {wall:.2}s");
    0
}

/// `repro fleet`: N skewed dies, staged firmware rollout with canary
/// cohorts, automatic rollback on RSV regression (docs/FLEET.md). The
/// report JSON on stdout is a pure function of the flags — byte-identical
/// across runs and across `--jobs` settings. Exit 1 iff the rollout
/// rolled back (the CI gate), 2 on usage errors.
fn fleet_main(args: &[String]) -> i32 {
    use psca_fleet::{run_fleet, FleetParams, RolloutSpec, SkewSpec};
    let mut params = FleetParams::default();
    let mut jobs = 0usize;
    let mut out: Option<std::path::PathBuf> = None;
    let mut backend_flag: Option<String> = None;
    let usage = "[repro] fleet flags: --size N --seed N --windows N --skew SPEC|off \
                 --rollout SPEC|off --chaos SPEC --jobs N --backend NAME --bad-image --out PATH";
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = || {
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("[repro] {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match flag {
            "--size" => params.size = parse_or_die(&value(), flag),
            "--seed" => params.seed = parse_or_die(&value(), flag),
            "--windows" => params.windows = parse_or_die(&value(), flag),
            "--jobs" => jobs = parse_or_die(&value(), flag),
            "--skew" => params.skew = spec_or_die(SkewSpec::parse(&value()), flag),
            "--rollout" => params.rollout = spec_or_die(RolloutSpec::parse(&value()), flag),
            "--chaos" => params.chaos = Some(spec_or_die(ChaosSpec::parse(&value()), flag)),
            "--bad-image" => {
                params.bad_image = true;
                i -= 1;
            }
            "--backend" => backend_flag = Some(value()),
            "--out" => out = Some(std::path::PathBuf::from(value())),
            other => {
                eprintln!("[repro] unknown fleet flag '{other}'\n{usage}");
                return 2;
            }
        }
        i += 1;
    }
    if params.size == 0 {
        eprintln!("[repro] --size must be at least 1\n{usage}");
        return 2;
    }
    psca_obs::init_from_env();
    let mut builder = ExperimentConfig::builder().seed(params.seed).jobs(jobs);
    if let Some(backend) = resolve_backend(backend_flag.as_deref()) {
        builder = builder.backend(backend);
    }
    let cfg = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("[repro] bad fleet config: {e}");
            return 2;
        }
    };
    eprintln!(
        "[repro] fleet: {} dies, seed {}, backend {}, rollout {}...",
        params.size,
        params.seed,
        cfg.backend.as_str(),
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
            return 1;
        }
        eprintln!("[repro] fleet report: {}", path.display());
    }
    // Publish a run report (artifact + live /report endpoint) and honor
    // the CI linger window, like the experiment drivers do.
    let mut run_report = RunReport::new(&format!("fleet-{}", params.seed));
    run_report.add_phase("repro.fleet", wall);
    run_report.set("backend", report.backend.as_str());
    run_report.set("fleet_size", params.size as u64);
    run_report.set("fleet_status", report.status);
    run_report.set("fleet_rsv", report.fleet_rsv);
    run_report.set("fleet_ppw", report.fleet_ppw);
    run_report.set("fleet_quarantined", report.quarantined.len() as u64);
    match run_report.write_with(Path::new("target/obs"), &psca_obs::snapshot()) {
        Ok(path) => eprintln!("[repro] run report: {}", path.display()),
        Err(e) => eprintln!("[repro] failed to write run report: {e}"),
    }
    if let Ok(linger) = std::env::var("PSCA_METRICS_LINGER_S") {
        if let Ok(secs) = linger.trim().parse::<u64>() {
            if psca_obs::exporter::global_addr().is_some() && secs > 0 {
                eprintln!("[repro] lingering {secs}s for metric scrapes");
                std::thread::sleep(std::time::Duration::from_secs(secs));
            }
        }
    }
    psca_obs::exporter::shutdown_global();
    eprintln!(
        "[repro] fleet {} in {wall:.2}s",
        if report.pass {
            "PASS"
        } else {
            "FAIL (rolled back)"
        }
    );
    if report.pass {
        0
    } else {
        1
    }
}

/// `repro bench`: the unified benchmark suite (psca_bench::suite) — runs
/// every bench (or `--only` a subset), attaches the profiler's top
/// self-time paths, and optionally refreshes (`--update`) or gates
/// against (`--check`) the committed `BENCH_*.json` baselines.
fn bench_main(args: &[String]) -> i32 {
    use psca_bench::suite::{self, BenchOpts};
    let mut update = false;
    let mut check = false;
    let mut quick = false;
    let mut seed = 1u64;
    let mut tolerance: Option<f64> = None;
    let mut only: Vec<String> = Vec::new();
    let mut backend_flag: Option<String> = None;
    let usage = "[repro] bench flags: --update --check --quick --seed N --tolerance FRAC \
                 --backend NAME --only name[,name...] \
                 (names: sim_throughput sweep inference serve surrogate)";
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = || {
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("[repro] {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match flag {
            "--update" => {
                update = true;
                i -= 1;
            }
            "--check" => {
                check = true;
                i -= 1;
            }
            "--quick" => {
                quick = true;
                i -= 1;
            }
            "--seed" => seed = parse_or_die(&value(), flag),
            "--tolerance" => tolerance = Some(parse_or_die(&value(), flag)),
            "--backend" => backend_flag = Some(value()),
            "--only" => only = value().split(',').map(|s| s.trim().to_string()).collect(),
            other => {
                eprintln!("[repro] unknown bench flag '{other}'\n{usage}");
                return 2;
            }
        }
        i += 1;
    }
    let names: Vec<String> = if only.is_empty() {
        suite::BENCHES.iter().map(|s| s.to_string()).collect()
    } else {
        only
    };
    for name in &names {
        if !suite::BENCHES.contains(&name.as_str()) {
            eprintln!("[repro] unknown bench '{name}'\n{usage}");
            return 2;
        }
    }
    // `repro bench` produces (--update) or gates against (--check) the
    // committed baselines: a verdict-bearing path. Its numbers are only
    // meaningful at reference fidelity, so a surrogate selection — flag
    // or PSCA_BACKEND — is a typed usage error, never silently accepted.
    if let Some(backend) = resolve_backend(backend_flag.as_deref()) {
        if !backend.is_reference() {
            eprintln!(
                "[repro] {}",
                psca_adapt::ConfigError::NonReferenceBackend(backend)
            );
            return 2;
        }
    }
    // Quick runs on loaded CI machines are noisy; default to a wide band
    // there and a tighter one for full local runs.
    let tolerance = tolerance.unwrap_or(if quick { 3.0 } else { 0.5 });
    psca_obs::init_from_env();
    let opts = BenchOpts { quick, seed };
    let dir = Path::new("target/obs");
    let _ = std::fs::create_dir_all(dir);
    let mut results = Vec::new();
    let mut combined = psca_obs::Profile::default();
    for name in &names {
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
    // Leave the union in the global profile so `repro profile bench`
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
    if baseline_error {
        2
    } else if failed {
        1
    } else {
        0
    }
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
    if let Some(&ppw) = snap.gauges.get("adapt.eval.last_ppw_gain") {
        report.set("last_ppw_gain", ppw);
    }
    if let Some(&rsv) = snap.gauges.get("adapt.eval.last_rsv") {
        report.set("last_rsv", rsv);
    }
    match report.write_with(Path::new("target/obs"), snap) {
        Ok(path) => eprintln!("[repro] run report: {}", path.display()),
        Err(e) => eprintln!("[repro] failed to write run report: {e}"),
    }
    // The report carries wall-clock times, so it goes to stderr: stdout
    // stays a pure function of (config, seed) and two runs of the same
    // experiment grid diff clean regardless of --jobs (CI relies on this).
    eprintln!("{}", report.render());
    psca_obs::flush();
}

/// Live TTY dashboard: repaints a small block of key metrics on stderr
/// every ~500 ms from the global registry.
struct Dashboard {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Dashboard {
    const LINES: usize = 7;

    fn start() -> Dashboard {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("repro-dash".into())
            .spawn(move || {
                let mut painted = false;
                while !stop2.load(Ordering::Relaxed) {
                    if painted {
                        // Move the cursor back up over the previous frame.
                        eprint!("\x1b[{}A", Self::LINES);
                    }
                    eprint!("{}", Self::frame());
                    painted = true;
                    std::thread::sleep(std::time::Duration::from_millis(500));
                }
            })
            .expect("spawn dashboard thread");
        Dashboard { stop, handle }
    }

    fn frame() -> String {
        let snap = psca_obs::snapshot();
        let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let last = |name: &str| {
            snap.series
                .get(name)
                .and_then(|pts| pts.last())
                .map(|(_, y)| *y)
        };
        let mut out = String::new();
        out.push_str("\x1b[2K── psca live ──────────────────────────\n");
        out.push_str(&format!(
            "\x1b[2K instructions    {:>14}\n",
            c("cpu.sim.instructions")
        ));
        out.push_str(&format!(
            "\x1b[2K intervals       {:>14}\n",
            c("cpu.sim.intervals")
        ));
        out.push_str(&format!(
            "\x1b[2K ipc (last)      {:>14}\n",
            last("cpu.sim.ipc")
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into())
        ));
        out.push_str(&format!(
            "\x1b[2K windows         {:>14}  gated {}\n",
            c("adapt.windows"),
            c("adapt.windows_gated_low")
        ));
        out.push_str(&format!(
            "\x1b[2K guardrail trips {:>14}\n",
            c("adapt.guardrail.trips")
        ));
        out.push_str(&format!(
            "\x1b[2K sla violations  {:>14}\n",
            c("adapt.sla.violations")
        ));
        out
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        eprintln!();
    }
}
