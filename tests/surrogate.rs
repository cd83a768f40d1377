//! Divergence and identity gates for the two [`psca::cpu::SimBackend`]
//! fidelities (`docs/SURROGATE.md`).
//!
//! - The `CycleAccurate` backend must be bit-identical to the
//!   pre-`SimBackend` code path: closed-loop outputs are pinned to golden
//!   values captured before the refactor landed.
//! - The `Surrogate` backend must stay inside per-archetype IPC-ratio
//!   error bounds against the reference simulator, reproduce Table 3
//!   within tolerance when it substitutes for the reference in corpus
//!   collection, be bit-identical across sweep worker counts, and never
//!   share sweep-cache cells with the reference fidelity.

use psca::adapt::degrade::DegradeLevel;
use psca::adapt::experiments::table3;
use psca::adapt::{
    record_trace, ClosedLoopRequest, CorpusTelemetry, ExperimentConfig, TrainedAdaptModel,
};
use psca::cpu::{BackendChoice, CpuConfig, Mode};
use psca::trace::{TraceSource, VecTrace};
use psca::workloads::{Archetype, PhaseGenerator};

fn corpus_and_model() -> (TrainedAdaptModel, ExperimentConfig) {
    let cfg = ExperimentConfig::quick();
    (psca::adapt::robustness_model(&cfg), cfg)
}

/// Golden values captured from the pre-refactor closed loop (commit
/// a1331a1 lineage, before `SimBackend` existed). `CycleAccurate` is a
/// zero-cost wrapper, so every bit must still match.
#[test]
fn cycle_accurate_is_bit_identical_to_pre_refactor_outputs() {
    const ENERGY_BITS: u64 = 0x41032ee2b851eb85;
    const CYCLES: u64 = 57_237;
    const INSTS: u64 = 48_000;
    const RESIDENCY_BITS: u64 = 0x3fe5555555555555;

    let (model, cfg) = corpus_and_model();
    let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 99);
    let (warm, window) = record_trace(&mut gen, 2_000, 48_000);

    let res = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts).run();
    assert_eq!(res.energy.to_bits(), ENERGY_BITS);
    assert_eq!(res.cycles, CYCLES);
    assert_eq!(res.instructions, INSTS);
    assert_eq!(res.low_power_residency.to_bits(), RESIDENCY_BITS);
    assert_eq!(res.modes.len(), 6);
    assert_eq!(
        res.modes.iter().filter(|m| **m == Mode::LowPower).count(),
        4
    );
    // Fault-free: the degradation ladder never leaves model-driven gating.
    assert_eq!(res.faults.total(), 0);
    assert_eq!(res.degrade.transitions, 0);
    assert_eq!(res.degrade.worst, DegradeLevel::ModelDriven);
}

/// Per-archetype divergence gate: surrogate/reference IPC ratio over a
/// long closed-loop run (the BENCH_surrogate protocol at reduced length).
///
/// Bounds are frozen around measured ratios at seed 7 (ScalarIlp 0.93,
/// DepChain 0.93, Balanced 0.58, PointerChase 0.63, MemBound 1.98) with
/// drift margin. Compute-bound archetypes track within ~10%; memory-bound
/// ones are bounded to ~2x because a few-hundred-instruction sample
/// cannot fully observe steady-state cache state (`docs/SURROGATE.md`
/// documents the error model; verdict-bearing paths reject the surrogate
/// outright).
#[test]
fn surrogate_ipc_stays_within_per_archetype_bounds() {
    const INTERVAL: u64 = 50_000;
    const WARM: u64 = 20_000;
    const INTERVALS: u64 = 8;
    let cfg = CpuConfig::skylake_scaled();
    let bounds = [
        (Archetype::ScalarIlp, 0.80, 1.10),
        (Archetype::DepChain, 0.80, 1.10),
        (Archetype::Balanced, 0.45, 1.35),
        (Archetype::PointerChase, 0.45, 1.35),
        (Archetype::MemBound, 0.55, 2.40),
    ];
    for (archetype, lo, hi) in bounds {
        let mut gen = PhaseGenerator::new(archetype.center(), 7);
        let insts: Vec<_> = (0..WARM + INTERVALS * INTERVAL)
            .map(|_| gen.next_instruction().unwrap())
            .collect();
        let mut ipc = [0.0f64; 2];
        for (i, choice) in [BackendChoice::CycleAccurate, BackendChoice::Surrogate]
            .into_iter()
            .enumerate()
        {
            let mut backend = choice.build(cfg.clone(), INTERVAL);
            let mut trace = VecTrace::new(insts.clone());
            backend.warm_up(&mut trace, WARM);
            let (mut cycles, mut n) = (0u64, 0u64);
            while let Some(r) = backend.run_interval(&mut trace, INTERVAL) {
                cycles += r.snapshot.cycles;
                n += r.instructions;
            }
            ipc[i] = n as f64 / cycles as f64;
        }
        let ratio = ipc[1] / ipc[0];
        assert!(
            (lo..=hi).contains(&ratio),
            "{archetype:?}: surrogate/reference IPC ratio {ratio:.3} outside [{lo}, {hi}] \
             (ref {:.3}, surrogate {:.3})",
            ipc[0],
            ipc[1]
        );
    }
}

fn micro_cfg(backend: BackendChoice) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.hdtr_apps = 8;
    cfg.backend = backend;
    cfg
}

/// Table 3 reproduced on a surrogate-collected corpus stays within
/// tolerance of the reference-collected reproduction: budget rows are
/// exact arithmetic (backend-independent, bit-identical) and per-model
/// validation PGOS moves by at most an absolute tolerance.
#[test]
fn table3_reproduces_within_tolerance_on_surrogate_corpus() {
    const PGOS_TOL: f64 = 0.25;

    let ref_cfg = micro_cfg(BackendChoice::CycleAccurate);
    let sur_cfg = micro_cfg(BackendChoice::Surrogate);
    let t_ref = table3::run(&ref_cfg, &CorpusTelemetry::hdtr(&ref_cfg));
    let t_sur = table3::run(&sur_cfg, &CorpusTelemetry::hdtr(&sur_cfg));

    assert_eq!(
        format!("{:?}", t_ref.budget),
        format!("{:?}", t_sur.budget),
        "budget rows are pure arithmetic and must not depend on fidelity"
    );
    assert_eq!(t_ref.models.len(), t_sur.models.len());
    for sur_row in &t_sur.models {
        let ref_row = t_ref
            .models
            .iter()
            .find(|r| r.description == sur_row.description)
            .expect("model class present in both reproductions");
        let delta = (sur_row.pgos - ref_row.pgos).abs();
        assert!(
            delta <= PGOS_TOL,
            "{}: PGOS moved by {delta:.3} (reference {:.3}, surrogate {:.3})",
            sur_row.description,
            ref_row.pgos,
            sur_row.pgos
        );
    }
}

/// Surrogate corpus sweeps are bit-identical across worker counts, like
/// every other sweep (see `tests/parallel_determinism.rs`).
#[test]
fn surrogate_sweep_is_bit_identical_across_job_counts() {
    let mut serial_cfg = micro_cfg(BackendChoice::Surrogate);
    serial_cfg.jobs = 1;
    let mut parallel_cfg = micro_cfg(BackendChoice::Surrogate);
    parallel_cfg.jobs = 4;
    let serial = CorpusTelemetry::hdtr(&serial_cfg);
    let parallel = CorpusTelemetry::hdtr(&parallel_cfg);
    assert_eq!(
        format!("{:?}", serial.traces),
        format!("{:?}", parallel.traces)
    );
}

/// Sweep-cache cells are fidelity-keyed: a surrogate run against a cache
/// populated by a cycle-accurate run must miss every cell (and a repeat
/// surrogate run must hit all of its own).
#[test]
fn sweep_cache_never_collides_across_backends() {
    let dir = std::env::temp_dir().join(format!("psca-surrogate-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = |backend: BackendChoice| {
        let mut cfg = micro_cfg(backend);
        cfg.hdtr_apps = 4;
        cfg.sweep_cache = Some(dir.clone());
        cfg
    };
    let cells = |dir: &std::path::Path| {
        std::fs::read_dir(dir)
            .map(|entries| entries.filter_map(Result::ok).count())
            .unwrap_or(0)
    };

    let reference = CorpusTelemetry::hdtr(&cached(BackendChoice::CycleAccurate));
    let ref_cells = cells(&dir);
    assert!(ref_cells > 0, "reference run must populate the cache");

    let surrogate = CorpusTelemetry::hdtr(&cached(BackendChoice::Surrogate));
    let both_cells = cells(&dir);
    assert_eq!(
        both_cells,
        2 * ref_cells,
        "surrogate cells must never be served from cycle-accurate entries"
    );
    assert_ne!(
        format!("{:?}", reference.traces),
        format!("{:?}", surrogate.traces),
        "fidelities produce different telemetry, so cache reuse would be wrong"
    );

    // A repeat surrogate run is a pure cache hit and reproduces the
    // stored telemetry exactly.
    let replay = CorpusTelemetry::hdtr(&cached(BackendChoice::Surrogate));
    assert_eq!(cells(&dir), both_cells);
    assert_eq!(
        format!("{:?}", surrogate.traces),
        format!("{:?}", replay.traces)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
