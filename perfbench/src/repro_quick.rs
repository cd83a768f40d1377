//! `repro-quick`: the paper reproduction as a researcher runs it — every
//! `psca_bench::EXPERIMENTS` driver in order over shared corpora, with the
//! quick preset, the sweep cache off and `jobs` = available cores.
//!
//! The rendered tables are the checked output: for seed 1 they are
//! byte-identical to the stdout of `repro all --quick --no-cache`.

use crate::spans::Tracer;
use psca_adapt::experiments::{ablations, chaos, fig10, fig4, fig5, fig6, fig7, fig8, fig9};
use psca_adapt::experiments::{table1, table2, table3, table4, table5, table6};
use psca_adapt::{CorpusTelemetry, ExperimentConfig};
use psca_bench::{chart, Corpora, EXPERIMENTS};
use psca_obs::MetricsSnapshot;
use std::fmt::Write;

/// The quick preset for workload seed `seed`. Seed 1 is the preset itself
/// (config seed 7, as `repro all --quick`); seed n shifts the config seed
/// by n − 1.
pub fn config(seed: u64, jobs: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.seed = cfg.seed.wrapping_add(seed.wrapping_sub(1));
    cfg.jobs = jobs;
    cfg.sweep_cache = None;
    cfg
}

/// Timings and output of one reproduction.
pub struct Unit {
    /// The stdout `repro` would print.
    pub output: String,
    /// Whole reproduction, seconds.
    pub wall_s: f64,
    /// Corpus construction (the set-up every experiment shares), seconds.
    pub setup_s: f64,
    /// HDTR corpus build, seconds.
    pub hdtr_s: f64,
    /// SPEC corpus build, seconds.
    pub spec_s: f64,
    /// Per-experiment wall time, in `EXPERIMENTS` order.
    pub experiments: Vec<(&'static str, f64)>,
    /// Program metrics accumulated across the run (traced runs only).
    pub registry: MetricsSnapshot,
    /// The HDTR corpus the drivers replayed.
    pub hdtr: CorpusTelemetry,
}

/// Runs one reproduction. When `tracer` is enabled the program's metric
/// registry is also snapshotted around each driver (each driver resets it
/// at entry), which is part of the tracing overhead.
pub fn run(cfg: &ExperimentConfig, tracer: &Tracer) -> Unit {
    let root = tracer.span("repro-quick");
    let traced = tracer.enabled();
    let mut registry = MetricsSnapshot::default();
    let mut corpora = Corpora::new();
    let span = tracer.child("adapt.corpus.hdtr", root.id(), 0);
    let hdtr = corpora.hdtr(cfg).clone();
    let hdtr_s = span.finish();
    let span = tracer.child("adapt.corpus.spec", root.id(), 0);
    let spec = corpora.spec(cfg).clone();
    let spec_s = span.finish();
    let mut output = String::new();
    let mut experiments = Vec::with_capacity(EXPERIMENTS.len());
    for id in EXPERIMENTS {
        if traced {
            registry.absorb(&psca_obs::snapshot());
        }
        let span = tracer.child(&format!("adapt.experiment.{id}"), root.id(), 0);
        render(id, cfg, &hdtr, &spec, &mut output);
        experiments.push((id, span.finish()));
    }
    if traced {
        registry.absorb(&psca_obs::snapshot());
    }
    Unit {
        output,
        wall_s: root.finish(),
        setup_s: hdtr_s + spec_s,
        hdtr_s,
        spec_s,
        experiments,
        registry,
        hdtr,
    }
}

/// Appends experiment `id`'s stdout, exactly as `repro` prints it.
fn render(
    id: &str,
    cfg: &ExperimentConfig,
    hdtr: &CorpusTelemetry,
    spec: &CorpusTelemetry,
    out: &mut String,
) {
    let pct1 = |v: f64| format!("{:.1}%", 100.0 * v);
    // `write!` into a String cannot fail.
    let _ = match id {
        "table1" => writeln!(out, "{}", table1::run(cfg)),
        "table2" => writeln!(out, "{}", table2::run(cfg)),
        "table3" => writeln!(out, "{}", table3::run(cfg, hdtr)),
        "table4" => writeln!(out, "{}", table4::run(cfg, hdtr)),
        "table5" => writeln!(out, "{}", table5::run(cfg, hdtr, spec)),
        "table6" => writeln!(out, "{}", table6::run(cfg, hdtr, spec)),
        "fig4" => writeln!(out, "{}", fig4::run(cfg, hdtr)),
        "fig5" => writeln!(out, "{}", fig5::run(cfg, hdtr)),
        "fig6" => writeln!(out, "{}", fig6::run(cfg, hdtr)),
        "fig7" => {
            let f7 = fig7::run(cfg, spec);
            let _ = writeln!(out, "{f7}");
            let chart = chart::bar_chart("ideal low-power residency", &f7.per_benchmark, 40, pct1);
            writeln!(out, "{chart}")
        }
        "fig8" => {
            let f8 = fig8::run(cfg, hdtr, spec);
            let _ = writeln!(out, "{f8}");
            let rows = |f: fn(&fig8::Fig8Row) -> f64| -> Vec<(String, f64)> {
                f8.rows
                    .iter()
                    .map(|r| (r.kind.name().to_string(), f(r)))
                    .collect()
            };
            let ppw = rows(|r| r.overall.ppw_gain);
            let rsv = rows(|r| r.overall.rsv);
            let _ = writeln!(out, "{}", chart::bar_chart("PPW gain", &ppw, 40, pct1));
            let pct2 = |v: f64| format!("{:.2}%", 100.0 * v);
            writeln!(out, "{}", chart::bar_chart("RSV", &rsv, 40, pct2))
        }
        "fig9" => {
            let f9 = fig9::run(cfg, hdtr, spec);
            let _ = writeln!(out, "{f9}");
            let rsv: Vec<(String, f64)> = f9
                .rows
                .iter()
                .map(|r| (r.name.clone(), r.charstar.rsv))
                .collect();
            let title = "CHARSTAR per-benchmark RSV (the blindspot exhibit)";
            writeln!(out, "{}", chart::bar_chart(title, &rsv, 40, pct1))
        }
        "fig10" => writeln!(out, "{}", fig10::run(cfg, hdtr, spec)),
        "ablate-steering" => writeln!(out, "{}", ablations::steering(cfg)),
        "ablate-width" => writeln!(out, "{}", ablations::cluster_width(cfg)),
        "ablate-dvfs" => writeln!(out, "{}", ablations::dvfs(cfg, spec)),
        "ablate-guardrail" => writeln!(out, "{}", ablations::guardrail(cfg, hdtr, spec)),
        "ablate-horizon" => {
            let points = ablations::horizon(cfg, hdtr);
            let text = ablations::format_points("prediction horizon", &points);
            writeln!(out, "{text}")
        }
        "ablate-normalization" => {
            let points = ablations::normalization(cfg, hdtr);
            let text = ablations::format_points("counter normalization", &points);
            writeln!(out, "{text}")
        }
        "chaos-sweep" => writeln!(
            out,
            "{}",
            chaos::chaos_sweep(cfg, &psca_faults::ChaosSpec::default_chaos())
        ),
        other => unreachable!("EXPERIMENTS lists unknown driver {other}"),
    };
}
