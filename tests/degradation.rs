//! Integration tests of the fault-injection + graceful-degradation story:
//! the closed loop must be untouched by an all-zero chaos spec, each fault
//! class must land in its intended fallback tier, and probation must
//! return control to the model.

use std::sync::OnceLock;

use psca::adapt::degrade::DegradeLevel;
use psca::adapt::{
    record_trace, robustness_model, ClosedLoopRequest, ClosedLoopResult, ExperimentConfig,
    TrainedAdaptModel,
};
use psca::cpu::Mode;
use psca::faults::ChaosSpec;
use psca::trace::VecTrace;
use psca::workloads::{Archetype, PhaseGenerator};

fn model_and_cfg() -> &'static (TrainedAdaptModel, ExperimentConfig) {
    static CACHE: OnceLock<(TrainedAdaptModel, ExperimentConfig)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let cfg = ExperimentConfig::quick();
        (robustness_model(&cfg), cfg)
    })
}

fn trace_for(arch: Archetype, seed: u64, windows: u64) -> (VecTrace, VecTrace) {
    let (model, cfg) = model_and_cfg();
    let mut gen = PhaseGenerator::new(arch.center(), seed);
    record_trace(
        &mut gen,
        2_000,
        windows * model.granularity_insts(cfg.interval_insts),
    )
}

fn run_with_spec(spec: &str, arch: Archetype, seed: u64, windows: u64) -> ClosedLoopResult {
    let (model, cfg) = model_and_cfg();
    let (warm, window) = trace_for(arch, seed, windows);
    ClosedLoopRequest::new(model, &warm, &window, cfg.interval_insts)
        .with_faults(ChaosSpec::parse(spec).unwrap())
        .run()
}

/// The central regression gate: an all-zero chaos spec, whatever its
/// seed, injects nothing and leaves the loop bit-identical to a request
/// without chaos, never leaving model-driven gating.
#[test]
fn hardened_loop_without_faults_is_bit_identical() {
    let (model, cfg) = model_and_cfg();
    for (arch, seed) in [
        (Archetype::DepChain, 55u64),
        (Archetype::ScalarIlp, 78),
        (Archetype::Balanced, 99),
    ] {
        let (warm, window) = trace_for(arch, seed, 24);
        let base = ClosedLoopRequest::new(model, &warm, &window, cfg.interval_insts).run();
        let zeroed = ClosedLoopRequest::new(model, &warm, &window, cfg.interval_insts)
            .with_faults(ChaosSpec::parse(&format!("seed={seed}")).unwrap())
            .run();
        assert_eq!(
            base, zeroed,
            "{arch:?}/{seed}: an all-zero chaos spec changed the loop"
        );
        assert!(base.energy.to_bits() == zeroed.energy.to_bits());
        assert_eq!(base.faults.total(), 0);
        assert_eq!(base.degrade.transitions, 0);
        assert_eq!(base.degrade.worst, DegradeLevel::ModelDriven);
    }
}

/// Each fault class must land in its intended fallback tier, and probation
/// must return the loop to model-driven gating once the burst ends.
#[test]
fn fault_classes_land_in_their_intended_tier() {
    // (spec, worst tier the burst may reach)
    let cases: [(&str, DegradeLevel); 4] = [
        // Two dropped predictions: hold the last decision, nothing worse.
        ("seed=9,burst=2,uc.drop=1.0", DegradeLevel::HoldLast),
        // Two late predictions: a miss then a stale arrival, both held.
        ("seed=9,burst=2,uc.late=1.0", DegradeLevel::HoldLast),
        // Corrupted weights: the value cannot be trusted, heuristic only.
        ("seed=9,burst=2,uc.nan=1.0", DegradeLevel::HeuristicOnly),
        // Poisoned telemetry packet: non-finite features, heuristic only.
        ("seed=9,burst=2,telem.nan=1.0", DegradeLevel::HeuristicOnly),
    ];
    for (spec, tier) in cases {
        // 40 windows: the 2-window burst plus two 6-window probation
        // periods still leaves a clear model-driven majority.
        let res = run_with_spec(spec, Archetype::DepChain, 55, 40);
        assert_eq!(
            res.degrade.worst, tier,
            "spec '{spec}': worst tier {:?}, wanted {tier:?}",
            res.degrade.worst
        );
        assert!(
            res.degrade.escalations > 0,
            "spec '{spec}': ladder never engaged"
        );
        // Probation: the burst is over early, so the run must recover to
        // model-driven gating and spend most windows there.
        assert!(
            res.degrade.recoveries > 0,
            "spec '{spec}': never recovered a tier"
        );
        assert_eq!(
            res.degrade.last,
            DegradeLevel::ModelDriven,
            "spec '{spec}': probation did not return control to the model"
        );
        assert!(
            res.degrade.residency[0] > res.degrade.residency[1..].iter().sum::<u64>(),
            "spec '{spec}': model-driven residency {:?}",
            res.degrade.residency
        );
    }
}

/// A µC that never delivers a prediction walks the full ladder to pinned
/// high-performance and the run still completes with sane accounting.
#[test]
fn sustained_prediction_loss_pins_high_perf() {
    let res = run_with_spec("seed=3,uc.drop=1.0", Archetype::DepChain, 55, 24);
    assert_eq!(res.degrade.worst, DegradeLevel::PinnedHighPerf);
    assert!(res.energy.is_finite() && res.energy > 0.0);
    // Pinned means the gateable workload is stuck in high-performance
    // mode for most of the run.
    assert!(
        res.low_power_residency < 0.3,
        "pinned run should barely gate: {}",
        res.low_power_residency
    );
    assert!(res.degrade.residency[DegradeLevel::PinnedHighPerf.rank()] > 0);
}

/// Lost mode-switch requests leave the simulator in its current mode; a
/// gateable workload therefore never leaves high-performance.
#[test]
fn lost_actuation_keeps_the_boot_mode() {
    let res = run_with_spec("seed=5,act.lost=1.0", Archetype::DepChain, 55, 16);
    assert!(res.modes.iter().all(|m| *m == Mode::HighPerf));
    assert!(res.faults.act_lost > 0);
    // Losing the actuation write is invisible to the prediction-health
    // watchdog: the ladder must NOT engage for it.
    assert_eq!(res.degrade.worst, DegradeLevel::ModelDriven);
}

/// Corrupted firmware images are always rejected by the checksum/validity
/// gate, never silently loaded.
#[test]
fn corrupted_images_are_rejected() {
    let res = run_with_spec("seed=11,uc.bitflip=1.0", Archetype::Balanced, 99, 16);
    assert!(res.faults.uc_image_bitflip > 0);
    assert_eq!(
        res.images_rejected, res.faults.uc_image_bitflip,
        "every corrupted image must be caught"
    );
}

/// Chaos at the default rates: the loop completes, injects every class
/// eventually, and keeps energy/instruction accounting finite.
#[test]
fn default_chaos_run_is_survivable() {
    let (model, cfg) = model_and_cfg();
    let (warm, window) = trace_for(Archetype::Balanced, 31, 32);
    let mut spec = ChaosSpec::default_chaos();
    spec.seed = 0xFA17;
    let res = ClosedLoopRequest::new(model, &warm, &window, cfg.interval_insts)
        .with_faults(spec)
        .run();
    assert_eq!(res.modes.len(), 32);
    assert!(res.energy.is_finite() && res.energy > 0.0);
    assert_eq!(res.window_ipc.len(), res.modes.len());
    assert!(res.window_ipc.iter().all(|v| v.is_finite() && *v > 0.0));
}

/// Golden values of one fault-free closed loop, captured before the loop
/// drove its simulator through any wrapper. The loop runs `ClusterSim`
/// directly now, so every bit must still match.
#[test]
fn closed_loop_matches_reference_golden_values() {
    const ENERGY_BITS: u64 = 0x41032ee2b851eb85;
    const CYCLES: u64 = 57_237;
    const INSTS: u64 = 48_000;
    const RESIDENCY_BITS: u64 = 0x3fe5555555555555;

    let (model, cfg) = model_and_cfg();
    let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 99);
    let (warm, window) = record_trace(&mut gen, 2_000, 48_000);

    let res = ClosedLoopRequest::new(model, &warm, &window, cfg.interval_insts).run();
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

/// The loop's heuristic fallback runs every window but gates only from the
/// heuristic-only tier, so a fault-free run must not report guardrail
/// probes or trips. No test in this binary drives a gating guardrail or
/// resets the process-global metric registry.
#[test]
fn fault_free_loop_leaves_guardrail_counters_untouched() {
    use psca::adapt::guardrail::GuardrailConfig;

    let (model, cfg) = model_and_cfg();
    let probes = psca::obs::counter("adapt.guardrail.probes");
    let trips = psca::obs::counter("adapt.guardrail.trips");
    let before = (probes.get(), trips.get());
    let (warm, window) = trace_for(Archetype::DepChain, 55, 40);
    let res = ClosedLoopRequest::new(model, &warm, &window, cfg.interval_insts).run();
    // The run gates long enough for a guardrail to probe its reference.
    let longest_gated = res
        .modes
        .split(|m| *m == Mode::HighPerf)
        .map(<[Mode]>::len)
        .max()
        .unwrap_or(0);
    assert!(longest_gated >= GuardrailConfig::default().probe_period);
    assert_eq!(res.degrade.worst, DegradeLevel::ModelDriven);
    assert_eq!((probes.get(), trips.get()), before);
}
