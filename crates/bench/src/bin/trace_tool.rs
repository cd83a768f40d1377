//! Trace tooling: record synthetic workloads to `.pstr` files, inspect
//! them, and replay them through the cluster simulator — the §3.2
//! customer-side workflow ("customers can trace new applications they
//! wish to further optimize on-site; these traces are replayed on real
//! hardware to generate telemetry and labels for retraining").
//!
//! ```text
//! trace-tool record <out.pstr> --bench 654.roms_s --input 1 --insts 200000
//! trace-tool stats  <in.pstr>
//! trace-tool replay <in.pstr> [--low-power]
//! ```
//!
//! Observability is switched on only through the environment, as for
//! `repro` (docs/OBSERVABILITY.md): `PSCA_TRACE=<path.json>` records a
//! Perfetto trace of the invocation, `PSCA_PROF=1` writes a profile to
//! `target/obs/`, and `PSCA_METRICS_ADDR` starts the live-metrics side
//! channel. Both binaries share the [`psca_bench::cli`] front end, so a
//! missing value, an unknown flag or a malformed or zero number exits 2
//! naming the flag.

use psca_bench::cli::{self, Args, UsageError};
use psca_cpu::{ClusterSim, CpuConfig, Mode, RunSummary};
use psca_trace::{file, TraceStats};
use psca_workloads::spec::spec_suite;
use psca_workloads::{hdtr_corpus, ApplicationModel, Category};
use std::fs::File;
use std::io::{BufReader, BufWriter};

const USAGE: &str = "usage:
  trace-tool record <out.pstr> [--bench NAME | --app SEED] [--input N] [--insts N]
  trace-tool stats  <in.pstr>
  trace-tool replay <in.pstr> [--low-power] [--interval N]";

fn main() -> std::process::ExitCode {
    let code = cli::run("trace-tool", |args| {
        dispatch(args).map_err(|e| e.or_usage(USAGE))
    });
    std::process::ExitCode::from(code as u8)
}

/// Reads the subcommand and its flags, then runs it inside a top-level
/// span (dropped, and so recorded, before `cli::run` writes the trace
/// and the profile).
fn dispatch(argv: &[String]) -> Result<i32, UsageError> {
    let cmd = match argv.first().map(String::as_str) {
        Some(cmd @ ("record" | "stats" | "replay")) => cmd,
        Some(other) => return Err(UsageError::new(format!("unknown subcommand '{other}'"))),
        None => return Err(UsageError::new("missing subcommand")),
    };
    let (record, replay) = (cmd == "record", cmd == "replay");
    let mut path = None;
    let (mut bench, mut app_seed, mut input, mut insts) = (None, None, 1u64, 200_000u64);
    let (mut low_power, mut interval) = (false, 10_000u64);
    let mut args = Args::new(&argv[1..]);
    while let Some(arg) = args.next() {
        match arg {
            "--bench" if record => bench = Some(args.spec(spec_app)?),
            "--app" if record => app_seed = Some(args.parse()?),
            "--input" if record => input = args.parse()?,
            "--insts" if record => insts = args.nonzero()?,
            "--low-power" if replay => low_power = true,
            "--interval" if replay => interval = args.nonzero()?,
            p if path.is_none() && !p.starts_with("--") => path = Some(p),
            _ => return Err(args.unknown()),
        }
    }
    let path = path.ok_or_else(|| UsageError::new(format!("{cmd} needs a trace file path")))?;
    let _span = psca_obs::SpanTimer::start(&format!("trace_tool.{cmd}"));
    Ok(match cmd {
        "record" => {
            // `--bench` wins over `--app`; with neither, the first HDTR app.
            let app = bench.or_else(|| {
                app_seed.map(|seed| {
                    ApplicationModel::synth(format!("app-{seed}"), Category::HpcPerf, seed, 100_000)
                })
            });
            let app = app.unwrap_or_else(|| hdtr_corpus(1, 1, 100_000).swap_remove(0).app);
            record_trace(path, &app, input, insts)
        }
        "stats" => stats(path),
        _ => replay_trace(path, low_power, interval),
    })
}

/// The SPEC-like benchmark a `--bench` name selects.
fn spec_app(name: &str) -> Result<ApplicationModel, String> {
    let mut suite = spec_suite(0x5bec, 200_000);
    match suite.iter().position(|a| a.bench.name == name) {
        Some(i) => Ok(suite.swap_remove(i).app),
        None => {
            let known: Vec<&str> = suite.iter().map(|a| a.bench.name).collect();
            Err(format!("unknown benchmark '{name}'; known: {known:?}"))
        }
    }
}

fn record_trace(path: &str, app: &ApplicationModel, input: u64, insts: u64) -> i32 {
    let out = match File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return 1;
        }
    };
    let mut writer = BufWriter::new(out);
    match file::write_trace(&mut app.trace(input), insts, &mut writer) {
        Ok(n) => {
            println!("recorded {n} instructions to {path}");
            0
        }
        Err(e) => {
            eprintln!("record failed: {e}");
            1
        }
    }
}

fn open_trace(path: &str) -> Result<file::TraceFileReader<BufReader<File>>, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    file::TraceFileReader::open(BufReader::new(f)).map_err(|e| e.to_string())
}

fn stats(path: &str) -> i32 {
    let mut reader = match open_trace(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    println!("{path}: {} instructions", reader.remaining());
    let stats = TraceStats::from_source(&mut reader);
    println!("  memory ops: {:>5.1}%", 100.0 * stats.mem_fraction());
    println!("  branches:   {:>5.1}%", 100.0 * stats.branch_fraction());
    println!("  fp/simd:    {:>5.1}%", 100.0 * stats.fp_fraction());
    println!("  distinct 64B data lines: {}", stats.distinct_lines);
    if let Some(e) = reader.error() {
        eprintln!("  warning: trace truncated: {e}");
        return 1;
    }
    0
}

fn replay_trace(path: &str, low_power: bool, interval: u64) -> i32 {
    let mut reader = match open_trace(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
    if low_power {
        sim.set_mode(Mode::LowPower);
    }
    println!("replaying {path} in {} mode...", sim.mode());
    let mut report = psca_obs::RunReport::new(&format!(
        "replay-{}",
        std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
    ));
    let mut summary = RunSummary::new();
    let span = psca_obs::SpanTimer::start("replay");
    while let Some(r) = sim.run_interval(&mut reader, interval) {
        summary.add(&r);
    }
    report.add_phase("replay", span.finish() as f64 / 1e9);
    print!("{summary}");
    let snap = psca_obs::snapshot();
    let insts = snap
        .counters
        .get("cpu.sim.instructions")
        .copied()
        .unwrap_or(0);
    let wall = report.total_wall_s();
    report.set("sim_instructions", insts);
    if wall > 0.0 {
        report.set("sim_insts_per_sec", insts as f64 / wall);
    }
    match report.write(std::path::Path::new("target/obs"), &snap) {
        Ok(p) => eprintln!("[trace-tool] run report: {}", p.display()),
        Err(e) => eprintln!("[trace-tool] failed to write run report: {e}"),
    }
    0
}
