//! `fleet-64`: the deployed closed loop at scale — `psca_fleet::run_fleet`
//! over 64 skewed dies, 48 prediction windows each, staged rollout on,
//! `jobs` = available cores.
//!
//! The report JSON is the checked output: byte-identical to the stdout of
//! `repro fleet --size 64 --windows 48 --seed <seed>`.

use crate::spans::Tracer;
use psca_adapt::ExperimentConfig;
use psca_fleet::{FleetParams, FleetSetup};
use psca_obs::MetricsSnapshot;

/// Dies in the fleet.
pub const SIZE: usize = 64;
/// Prediction windows per die.
pub const WINDOWS: u64 = 48;

/// The experiment config and fleet parameters for workload seed `seed`,
/// as `repro fleet --seed <seed>` builds them.
pub fn config(seed: u64, jobs: usize) -> (ExperimentConfig, FleetParams) {
    let cfg = ExperimentConfig::builder()
        .seed(seed)
        .jobs(jobs)
        .build()
        .expect("the quick preset with a seed and job count is valid");
    let params = FleetParams {
        size: SIZE,
        seed,
        windows: WINDOWS,
        ..FleetParams::default()
    };
    (cfg, params)
}

/// Timings and output of one fleet run.
pub struct Unit {
    /// The stdout `repro fleet` would print.
    pub output: String,
    /// Whole fleet run, seconds.
    pub wall_s: f64,
    /// Program metrics recorded during the run (traced runs only).
    pub registry: MetricsSnapshot,
}

/// Runs the fleet once.
pub fn run(cfg: &ExperimentConfig, params: &FleetParams, tracer: &Tracer) -> Unit {
    let span = tracer.span("fleet.run_fleet");
    let report = psca_fleet::run_fleet(cfg, params);
    let wall_s = span.finish();
    // `run_fleet` resets the registry at entry, so one snapshot after it
    // covers exactly this run.
    let registry = if tracer.enabled() {
        psca_obs::snapshot()
    } else {
        MetricsSnapshot::default()
    };
    Unit {
        output: format!("{}\n", report.to_json()),
        wall_s,
        registry,
    }
}

/// Prepares the fleet (model training, images, per-die contexts) once and
/// returns it with its duration: the fleet's set-up.
pub fn prepare(cfg: &ExperimentConfig, params: &FleetParams, tracer: &Tracer) -> (FleetSetup, f64) {
    let span = tracer.span("fleet.prepare");
    let setup = FleetSetup::prepare(cfg, params);
    (setup, span.finish())
}

/// Per-die closed-loop latency, microseconds: every die runs the baseline
/// image once through `FleetSetup::die_stats`, fanned over `jobs` workers
/// as the fleet's stages fan them.
pub fn die_latencies_us(setup: &FleetSetup, jobs: usize, tracer: &Tracer) -> Vec<f64> {
    let parent = tracer.span("fleet.die_probe");
    let dies: Vec<u64> = (0..SIZE as u64).collect();
    psca_exec::map_indexed(jobs, dies, &|i, die| {
        let span = tracer.child(
            "fleet.die_stats",
            parent.id(),
            i as u64 % jobs.max(1) as u64,
        );
        std::hint::black_box(setup.die_stats(die, setup.baseline()));
        span.finish() * 1e6
    })
}
