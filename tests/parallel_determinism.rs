//! Bit-identity regression tests for the parallel experiment engine
//! (`psca-exec`): experiment outputs must not depend on `jobs`, and a
//! cache-hit rerun must reproduce a cold run exactly.
//!
//! These are the contract behind `repro --jobs N`: cells carry their own
//! seeds and merge in cell order, and the metrics cells record are
//! commutative totals, so the worker count is invisible in every output.

use psca_adapt::experiments::{ablations, chaos, fig10, fig4, fig5, fig6, table3, table4};
use psca_adapt::{CorpusTelemetry, ExperimentConfig};
use psca_faults::ChaosSpec;
use psca_workloads::{Archetype, PhaseGenerator};
use std::sync::{Mutex, MutexGuard};

/// Held by every test here whose experiment runner resets the global
/// metric registry on entry, so no test clears counters another one is
/// reading back.
fn registry_lock() -> MutexGuard<'static, ()> {
    static REGISTRY: Mutex<()> = Mutex::new(());
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

fn corpus(cfg: &ExperimentConfig) -> CorpusTelemetry {
    let mut c = cfg.clone();
    c.hdtr_apps = 8;
    CorpusTelemetry::hdtr(&c)
}

fn cfg_with_jobs(jobs: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.jobs = jobs;
    cfg
}

#[test]
fn table3_is_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    let serial_cfg = cfg_with_jobs(1);
    let parallel_cfg = cfg_with_jobs(4);
    let serial = table3::run(&serial_cfg, &corpus(&serial_cfg)).to_string();
    let parallel = table3::run(&parallel_cfg, &corpus(&parallel_cfg)).to_string();
    assert_eq!(serial, parallel);
}

/// A miniature corpus and fold count for the MLP screens, which fit
/// one network per (configuration, fold) cell.
fn screen_cfg(jobs: usize) -> ExperimentConfig {
    let mut cfg = cfg_with_jobs(jobs);
    cfg.hdtr_apps = 10;
    cfg.hdtr_traces_per_app = 1;
    cfg.hdtr_intervals_per_trace = 12;
    cfg.folds = 3;
    cfg
}

/// Runs `run` at jobs 1 and 4 on the same corpus; asserts the rendered
/// figures match and returns both results for field-level checks.
fn serial_and_parallel<R: std::fmt::Display>(
    run: impl Fn(&ExperimentConfig, &CorpusTelemetry) -> R,
) -> (R, R) {
    let corpus = CorpusTelemetry::hdtr(&screen_cfg(1));
    let serial = run(&screen_cfg(1), &corpus);
    let parallel = run(&screen_cfg(4), &corpus);
    assert_eq!(serial.to_string(), parallel.to_string());
    (serial, parallel)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fig4_is_bit_identical_across_job_counts() {
    let (serial, parallel) = serial_and_parallel(fig4::run);
    let fields = |f: &fig4::Fig4| -> Vec<(usize, Vec<u64>)> {
        f.points
            .iter()
            .map(|p| {
                (
                    p.apps,
                    bits(&[p.pgos_mean, p.pgos_std, p.rsv_mean, p.rsv_std]),
                )
            })
            .collect()
    };
    assert_eq!(fields(&serial), fields(&parallel));
}

#[test]
fn fig5_is_bit_identical_across_job_counts() {
    let (serial, parallel) = serial_and_parallel(fig5::run);
    let fields = |f: &fig5::Fig5| -> Vec<(usize, Vec<u64>)> {
        f.pf_sweep
            .iter()
            .chain([&f.expert])
            .map(|p| (p.counters, bits(&[p.pgos.0, p.pgos.1, p.rsv.0, p.rsv.1])))
            .collect()
    };
    assert_eq!(fields(&serial), fields(&parallel));
    assert_eq!(serial.pf_order, parallel.pf_order);
}

#[test]
fn fig6_is_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    let (serial, parallel) = serial_and_parallel(fig6::run);
    let fields = |f: &fig6::Fig6| -> Vec<(Vec<usize>, Vec<u64>, u64, bool)> {
        f.points
            .iter()
            .map(|p| {
                let metrics = bits(&[p.pgos_mean, p.pgos_std, p.rsv_mean]);
                (p.hidden.clone(), metrics, p.ops, p.fits_50k_budget)
            })
            .collect()
    };
    assert_eq!(fields(&serial), fields(&parallel));
    assert_eq!(serial.selected, parallel.selected);
}

#[test]
fn fig10_is_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    // Three of the HDTR applications stand in for the SPEC test set, so
    // the leave-one-benchmark-out step has three cells.
    let (serial, parallel) = serial_and_parallel(|cfg, hdtr| {
        let spec = hdtr.filter_apps(&hdtr.app_ids()[..3]);
        fig10::run(cfg, hdtr, &spec)
    });
    let fields = |f: &fig10::Fig10| -> Vec<(String, Vec<u64>)> {
        f.steps
            .iter()
            .map(|s| (s.label.clone(), bits(&[s.rsv, s.ppw_gain, s.paper_rsv])))
            .collect()
    };
    assert_eq!(fields(&serial), fields(&parallel));
}

/// The rendered ablation table followed by every point's metric bits.
fn ablation_fields(points: &[ablations::PredictionAblation]) -> String {
    let mut out = ablations::format_points("", points);
    for p in points {
        out += &format!("{:?}\n", bits(&[p.pgos, p.rsv, p.accuracy]));
    }
    out
}

#[test]
fn horizon_ablation_is_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    serial_and_parallel(|cfg, hdtr| ablation_fields(&ablations::horizon(cfg, hdtr)));
}

#[test]
fn normalization_ablation_is_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    serial_and_parallel(|cfg, hdtr| ablation_fields(&ablations::normalization(cfg, hdtr)));
}

#[test]
fn table4_is_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    let corpus = CorpusTelemetry::hdtr(&screen_cfg(1));
    let serial = table4::run(&screen_cfg(1), &corpus);
    let parallel = table4::run(&screen_cfg(2), &corpus);
    assert_eq!(serial.to_string(), parallel.to_string());
    assert_eq!(
        serial.selection.selected_base_events,
        parallel.selection.selected_base_events
    );
}

/// The width and steering ablations run one simulation per sweep cell;
/// their IPCs must not depend on the worker count.
#[test]
fn width_and_steering_ablations_are_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    let width = |jobs| {
        let a = ablations::cluster_width(&cfg_with_jobs(jobs));
        let ipcs: Vec<f64> = a.rows.iter().flat_map(|r| [r.2, r.3]).collect();
        (a.to_string(), bits(&ipcs))
    };
    assert_eq!(width(1), width(2));
    let steering = |jobs| {
        let a = ablations::steering(&cfg_with_jobs(jobs));
        let ipcs: Vec<f64> = a.rows.iter().flat_map(|r| [r.1, r.2]).collect();
        (a.to_string(), bits(&ipcs))
    };
    assert_eq!(steering(1), steering(2));
}

#[test]
fn chaos_sweep_is_bit_identical_across_job_counts() {
    let _registry = registry_lock();
    let spec = ChaosSpec::default_chaos();
    let serial = chaos::chaos_sweep(&cfg_with_jobs(1), &spec).to_string();
    let parallel = chaos::chaos_sweep(&cfg_with_jobs(4), &spec).to_string();
    assert_eq!(serial, parallel);
}

#[test]
fn chaos_sweep_series_are_identical_across_job_counts() {
    // Counters bumped from inside sweep cells (the fault injector and the
    // degradation ladder) must total the same at any worker count.
    const COUNTERS: [&str; 2] = ["faults.injected", "adapt.degrade.transitions"];
    let _registry = registry_lock();
    let spec = ChaosSpec::default_chaos();
    let run = |jobs: usize| -> Vec<u64> {
        // The sweep scopes the global registry to its own run.
        chaos::chaos_sweep(&cfg_with_jobs(jobs), &spec);
        let snap = psca_obs::snapshot();
        COUNTERS
            .iter()
            .map(|name| snap.counters.get(*name).copied().unwrap_or(0))
            .collect()
    };
    let serial = run(1);
    let parallel = run(2);
    for (name, (s, p)) in COUNTERS.iter().zip(serial.iter().zip(&parallel)) {
        assert!(*s > 0, "{name} recorded nothing");
        assert_eq!(s, p, "{name} depends on jobs");
    }
}

#[test]
fn chaos_sweep_span_names_are_identical_across_job_counts() {
    // The sweep opens its cells under its own `chaos.sweep` span; the
    // workers inherit it, so the run report's `span.*` names must not
    // depend on jobs. Only names under that span are compared: tests that
    // do not hold the registry lock record their own spans concurrently.
    let _registry = registry_lock();
    let spec = ChaosSpec::default_chaos();
    let run = |jobs: usize| -> Vec<String> {
        // The sweep scopes the global registry to its own run.
        chaos::chaos_sweep(&cfg_with_jobs(jobs), &spec);
        psca_obs::snapshot()
            .histograms
            .into_iter()
            .filter(|(name, h)| name.starts_with("span.chaos.sweep") && h.count > 0)
            .map(|(name, _)| name)
            .collect()
    };
    let serial = run(1);
    let parallel = run(2);
    assert!(
        serial.contains(&"span.chaos.sweep.adapt.closed_loop".to_string()),
        "cells must nest under the sweep's span: {serial:?}"
    );
    assert_eq!(serial, parallel, "span names depend on jobs");
}

#[test]
fn eval_is_bit_identical_across_job_counts() {
    let mut traces = Vec::new();
    for (i, a) in [
        Archetype::DepChain,
        Archetype::ScalarIlp,
        Archetype::MemBound,
        Archetype::Balanced,
    ]
    .iter()
    .enumerate()
    {
        let mut gen = PhaseGenerator::new(a.center(), i as u64 + 50);
        traces.push(psca_adapt::collect_paired(
            &mut gen, 2_000, 24, 2_000, i as u32, "det", 1,
        ));
    }
    let corpus = CorpusTelemetry { traces };
    let run = |jobs: usize| {
        let cfg = cfg_with_jobs(jobs);
        let model = psca_adapt::zoo::train(psca_adapt::ModelKind::BestRf, &corpus, &cfg);
        psca_adapt::experiments::evaluate_model_on_corpus(&model, &corpus, &cfg)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.overall, parallel.overall);
    assert_eq!(serial.per_app.len(), parallel.per_app.len());
    for ((an, am), (bn, bm)) in serial.per_app.iter().zip(parallel.per_app.iter()) {
        assert_eq!(an, bn);
        assert_eq!(am, bm, "per-app metrics diverged for {an}");
    }
}

#[test]
fn cache_hit_rerun_matches_cold_run() {
    let dir = std::env::temp_dir().join(format!("psca-determinism-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = cfg_with_jobs(2);
    cfg.hdtr_apps = 6;
    cfg.sweep_cache = Some(dir.clone());
    let cold = CorpusTelemetry::hdtr(&cfg);
    let warm = CorpusTelemetry::hdtr(&cfg);
    let mut uncached_cfg = cfg.clone();
    uncached_cfg.sweep_cache = None;
    let uncached = CorpusTelemetry::hdtr(&uncached_cfg);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cold.traces.len(), warm.traces.len());
    assert_eq!(cold.traces.len(), uncached.traces.len());
    for i in 0..cold.traces.len() {
        for (a, b) in [
            (&cold.traces[i], &warm.traces[i]),
            (&cold.traces[i], &uncached.traces[i]),
        ] {
            assert_eq!(a.app_name, b.app_name);
            assert_eq!(a.app_id, b.app_id);
            assert_eq!(a.insts, b.insts);
            assert_eq!(a.cycles_hi, b.cycles_hi);
            assert_eq!(a.cycles_lo, b.cycles_lo);
            assert_eq!(a.rows_hi, b.rows_hi);
            assert_eq!(a.rows_lo, b.rows_lo);
            assert_eq!(a.energy_hi, b.energy_hi);
            assert_eq!(a.energy_lo, b.energy_lo);
        }
    }
}
