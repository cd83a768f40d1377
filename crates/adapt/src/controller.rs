//! The deployed closed loop: telemetry → firmware inference → predictive
//! cluster gating (Figure 1 / Figure 3).
//!
//! At the end of prediction window `t`, the window's counters are routed
//! to the microcontroller; during window `t+1` the firmware computes a
//! prediction; at the start of window `t+2` the cluster configuration is
//! applied. The CPU starts in high-performance mode and uses the
//! predictor matching whichever mode the telemetry was recorded in.
//!
//! The loop always runs behind the graceful-degradation ladder of
//! [`crate::degrade`]. While every prediction is healthy, as without
//! injected chaos on a sound deployment, the ladder stays at model-driven
//! gating and each firmware decision applies exactly at `t+2`.

use crate::degrade::{DegradeLevel, DegradeSummary, PredictionHealth, Watchdog};
use crate::guardrail::{Guardrail, GuardrailConfig};
use crate::sla::Sla;
use crate::train::{TrainedAdaptModel, HORIZON};
use psca_cpu::{ClusterSim, CpuConfig, Mode, ModeSwitchFault};
use psca_faults::{ActuationFault, ChaosSpec, FaultCounts, FaultInjector, PredictionFault};
use psca_trace::{TraceSource, VecTrace};
use psca_uc::{image, FirmwareModel};

/// One closed-loop simulation, fully specified. The daemon, the CLI, the
/// fleet and the experiment runners all build one of these.
///
/// ```ignore
/// let res = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts)
///     .with_faults(ChaosSpec::parse("uc.drop=0.05")?)
///     .run();
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopRequest<'a> {
    /// Trained per-mode predictor pair to deploy in the loop.
    pub model: &'a TrainedAdaptModel,
    /// Warm-up trace, replayed with telemetry discarded.
    pub warm: &'a VecTrace,
    /// Measured trace region.
    pub window: &'a VecTrace,
    /// Base telemetry interval in instructions.
    pub interval_insts: u64,
    /// Chaos to inject on the loop. The all-zero default injects nothing.
    pub faults: ChaosSpec,
    /// Core parameterization to simulate. `None` runs the paper's
    /// scaled-Skylake machine; fleet harnesses pass per-die skewed
    /// configs here so one loop models one physical die.
    pub cpu: Option<CpuConfig>,
}

impl<'a> ClosedLoopRequest<'a> {
    /// A request for the healthy path: no fault injection on the paper's
    /// scaled-Skylake machine.
    pub fn new(
        model: &'a TrainedAdaptModel,
        warm: &'a VecTrace,
        window: &'a VecTrace,
        interval_insts: u64,
    ) -> ClosedLoopRequest<'a> {
        ClosedLoopRequest {
            model,
            warm,
            window,
            interval_insts,
            faults: ChaosSpec::default(),
            cpu: None,
        }
    }

    /// Injects `spec` chaos on the loop.
    pub fn with_faults(mut self, spec: ChaosSpec) -> ClosedLoopRequest<'a> {
        self.faults = spec;
        self
    }

    /// Simulates `cpu` instead of the default scaled-Skylake machine.
    pub fn with_cpu(mut self, cpu: CpuConfig) -> ClosedLoopRequest<'a> {
        self.cpu = Some(cpu);
        self
    }

    /// Runs the loop.
    ///
    /// Each window the injector may perturb telemetry rows, drop/delay/
    /// corrupt the scheduled prediction, flip bits in the firmware image,
    /// or lose the mode-switch request. A [`Watchdog`] classifies every
    /// scheduled prediction's [`PredictionHealth`] and walks the ladder;
    /// per tier the window is gated by the model, the last known-good
    /// decision, the §3.1 guardrail heuristic, or pinned high-performance.
    pub fn run(&self) -> ClosedLoopResult {
        let _span = psca_obs::SpanTimer::start("adapt.closed_loop");
        let model = self.model;
        let interval_insts = self.interval_insts;
        let g = model.granularity;
        let mut injector = FaultInjector::new(self.faults.clone());
        let mut sim = ClusterSim::new(self.cpu.clone().unwrap_or_else(CpuConfig::skylake_scaled));
        let mut warm_replay = self.warm.clone();
        sim.warm_up(&mut warm_replay, self.warm.len() as u64);
        let mut replay = self.window.clone();

        let mut predictions: Vec<Option<u8>> = Vec::new();
        let mut modes = Vec::new();
        // Scheduled decision per window, tagged with the health it arrived in.
        let mut pending: Vec<Option<(bool, PredictionHealth)>> = Vec::new();
        let mut energy = 0.0;
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        let mut low_windows = 0usize;
        let mut watchdog = Watchdog::default();
        // The heuristic fallback only gates from the heuristic-only tier,
        // so it tracks state silently instead of reporting as a guardrail.
        let mut heuristic = Guardrail::shadow(GuardrailConfig::default(), Sla::paper_default());
        let mut heuristic_gate = false;
        let mut last_good_gate = false;
        let mut window_ipc = Vec::new();
        let mut images_rejected = 0u64;
        // Window scratch, reused across windows so the hot loop allocates
        // only while the buffers first grow to the window size.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(g);
        let mut row_cycles: Vec<u64> = Vec::with_capacity(g);
        // Metric handles resolved once, not per window.
        let windows_ctr = psca_obs::counter("adapt.windows");
        let gated_ctr = psca_obs::counter("adapt.windows_gated_low");

        let mut widx = 0usize;
        'outer: loop {
            injector.begin_window();
            sim.apply_delayed_mode();
            // Classify this window's scheduled decision and pick the gate
            // the current ladder tier dictates. The first HORIZON windows
            // carry no prediction by design and are not watchdog material.
            let scheduled = pending.get(widx).copied().flatten();
            let desired_gate: Option<bool> = if widx < HORIZON {
                None
            } else {
                let health = match scheduled {
                    Some((_, h)) => h,
                    None => PredictionHealth::Missing,
                };
                let level = watchdog.observe(health);
                if level == DegradeLevel::ModelDriven {
                    if let Some((gate, PredictionHealth::Ok)) = scheduled {
                        last_good_gate = gate;
                    }
                }
                match level {
                    DegradeLevel::ModelDriven => scheduled.map(|(gate, _)| gate),
                    DegradeLevel::HoldLast => Some(last_good_gate),
                    DegradeLevel::HeuristicOnly => Some(heuristic_gate),
                    DegradeLevel::PinnedHighPerf => Some(false),
                }
            };
            if let Some(gate) = desired_gate {
                let desired = if gate { Mode::LowPower } else { Mode::HighPerf };
                let fault = match injector.actuation_fault() {
                    None => ModeSwitchFault::None,
                    Some(ActuationFault::Lost) => ModeSwitchFault::Lost,
                    Some(ActuationFault::DelayedOneWindow) => ModeSwitchFault::DelayedOneWindow,
                };
                sim.request_mode(desired, fault);
            }
            let window_mode = sim.mode();
            // Trace-gated: renders each prediction window as its own span
            // in the request's Perfetto tree. Never touches the simulation.
            let win_ts = psca_obs::trace::enabled().then(psca_obs::trace::now_us);
            // Run the window's base intervals, collecting telemetry rows.
            row_cycles.clear();
            let mut filled = 0usize;
            let mut w_cycles = 0u64;
            let mut w_insts = 0u64;
            for _ in 0..g {
                let Some(r) = sim.run_interval(&mut replay, interval_insts) else {
                    break 'outer;
                };
                energy += r.energy;
                cycles += r.snapshot.cycles;
                instructions += r.instructions;
                w_cycles += r.snapshot.cycles;
                w_insts += r.instructions;
                if filled == rows.len() {
                    rows.push(r.snapshot.as_slice().to_vec());
                } else {
                    rows[filled].clear();
                    rows[filled].extend_from_slice(r.snapshot.as_slice());
                }
                filled += 1;
                row_cycles.push(r.snapshot.cycles);
            }
            if filled < g {
                break;
            }
            if let Some(ts) = win_ts {
                let dur = psca_obs::trace::now_us().saturating_sub(ts);
                psca_obs::trace::complete("sim.window", ts, dur);
            }
            modes.push(window_mode);
            windows_ctr.inc();
            if window_mode == Mode::LowPower {
                low_windows += 1;
                gated_ctr.inc();
            }
            let ipc = w_insts as f64 / w_cycles.max(1) as f64;
            window_ipc.push(ipc);
            // Telemetry counter faults strike between the counters and the µC.
            injector.perturb_telemetry(&mut rows);
            let (feat, fw) = model.mode_parts(window_mode);
            let (gate, mut health) = infer(fw, &feat.featurize(&rows, &row_cycles));
            // µC prediction faults strike between inference and actuation.
            let mut schedule = true;
            let mut target = widx + HORIZON;
            match injector.prediction_fault() {
                None => {}
                Some(PredictionFault::Dropped) => schedule = false,
                Some(PredictionFault::LatencyOverrun) => {
                    // The prediction misses its t+2 apply deadline and
                    // lands a window late, already stale.
                    target += 1;
                    if health.is_healthy() {
                        health = PredictionHealth::Stale;
                    }
                }
                Some(PredictionFault::WeightCorruption) if health.is_healthy() => {
                    health = PredictionHealth::NonFinite;
                }
                Some(PredictionFault::WeightCorruption) => {}
            }
            if schedule {
                while pending.len() <= target {
                    pending.push(None);
                }
                pending[target] = Some((gate, health));
                while predictions.len() <= target {
                    predictions.push(None);
                }
                predictions[target] = Some(gate as u8);
            }
            // Firmware-image bit flips: a reload from a corrupted image
            // must be caught by the image checksum / weight validator.
            if injector.image_fault() {
                if let Ok(mut img) = image::encode(fw) {
                    injector.corrupt_image(&mut img, 3);
                    if image::decode(&img).is_err() {
                        images_rejected += 1;
                        psca_obs::counter("uc.image.rejected").inc();
                    }
                }
            }
            // Keep the heuristic fallback warm every window so it has a
            // live IPC reference the moment the ladder needs it.
            heuristic_gate = heuristic.vet(window_mode == Mode::LowPower, ipc, true);
            if psca_obs::enabled(psca_obs::Level::Trace) {
                psca_obs::emit(
                    psca_obs::Level::Trace,
                    "adapt.window.decision",
                    &[
                        ("window", widx.into()),
                        ("mode", window_mode.to_string().into()),
                        ("gate", gate.into()),
                        ("level", watchdog.level().name().into()),
                    ],
                );
            }
            widx += 1;
        }
        predictions.truncate(modes.len());
        let low_power_residency = if modes.is_empty() {
            0.0
        } else {
            low_windows as f64 / modes.len() as f64
        };
        ClosedLoopResult {
            predictions,
            modes,
            energy,
            cycles,
            instructions,
            low_power_residency,
            degrade: watchdog.summary(),
            faults: *injector.counts(),
            images_rejected,
            window_ipc,
        }
    }
}

/// Outcome of one closed-loop run over a trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClosedLoopResult {
    /// Per-prediction-window gating decision, indexed by the window it
    /// *applies to* (`None` for the first [`HORIZON`] windows).
    pub predictions: Vec<Option<u8>>,
    /// Mode each window actually ran in.
    pub modes: Vec<Mode>,
    /// Total energy of the adaptive run.
    pub energy: f64,
    /// Total cycles of the adaptive run.
    pub cycles: u64,
    /// Total instructions executed.
    pub instructions: u64,
    /// Fraction of windows spent in low-power mode.
    pub low_power_residency: f64,
    /// Degradation-ladder residency and transitions.
    pub degrade: DegradeSummary,
    /// Faults actually injected, by class.
    pub faults: FaultCounts,
    /// Corrupted firmware images caught by the image checksum/validator.
    pub images_rejected: u64,
    /// Measured IPC of each completed prediction window.
    pub window_ipc: Vec<f64>,
}

impl ClosedLoopResult {
    /// Performance per watt: instructions per unit energy. A run that
    /// recorded no (or non-finite) energy has no meaningful efficiency
    /// and reports 0.0 rather than the near-infinite ratio a division by
    /// `f64::MIN_POSITIVE` would produce.
    pub fn ppw(&self) -> f64 {
        ppw(self.instructions, self.energy)
    }

    /// Aligned `(truth, prediction)` label vectors for windows that had a
    /// prediction, given per-window ground truth.
    pub fn aligned_labels(&self, truth: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut t = Vec::new();
        let mut p = Vec::new();
        for (i, pred) in self.predictions.iter().enumerate() {
            if let (Some(pr), Some(&tr)) = (pred, truth.get(i)) {
                t.push(tr);
                p.push(*pr);
            }
        }
        (t, p)
    }
}

/// Instructions per unit energy, 0.0 when no finite positive energy was
/// recorded.
pub(crate) fn ppw(instructions: u64, energy: f64) -> f64 {
    if !energy.is_finite() || energy <= 0.0 {
        return 0.0;
    }
    instructions as f64 / energy
}

/// Firmware inference with health classification instead of panics:
/// non-finite features and firmware errors both mean the prediction
/// cannot be trusted.
fn infer(fw: &FirmwareModel, features: &[f64]) -> (bool, PredictionHealth) {
    if features.iter().any(|v| !v.is_finite()) {
        psca_obs::counter("adapt.features.non_finite").inc();
        return (false, PredictionHealth::NonFinite);
    }
    match fw.predict(features) {
        Ok(gate) => (gate, PredictionHealth::Ok),
        Err(_) => {
            psca_obs::counter("adapt.firmware.errors").inc();
            (false, PredictionHealth::FirmwareFault)
        }
    }
}

/// Records `(warm, window)` trace pair from a source, for replay through
/// both the paired-mode collector and the closed loop.
pub fn record_trace<S: TraceSource>(
    source: &mut S,
    warmup_insts: u64,
    window_insts: u64,
) -> (VecTrace, VecTrace) {
    let warm = VecTrace::record(source, warmup_insts);
    let window = VecTrace::record(source, window_insts);
    (warm, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::{collect_paired, CorpusTelemetry};
    use crate::train::ModelKind;
    use crate::zoo;
    use crate::ExperimentConfig;
    use psca_workloads::{Archetype, PhaseGenerator};

    fn corpus_and_model() -> (CorpusTelemetry, TrainedAdaptModel, ExperimentConfig) {
        let cfg = ExperimentConfig::quick();
        let corpus = crate::robustness_corpus(&cfg);
        let model = zoo::train(ModelKind::BestRf, &corpus, &cfg);
        (corpus, model, cfg)
    }

    #[test]
    fn ppw_is_zero_without_energy() {
        let mut res = ClosedLoopResult {
            instructions: 1_000,
            ..ClosedLoopResult::default()
        };
        assert_eq!(res.ppw(), 0.0, "zero energy must not yield ~1e308");
        res.energy = f64::NAN;
        assert_eq!(res.ppw(), 0.0);
        res.energy = f64::INFINITY;
        assert_eq!(res.ppw(), 0.0);
        res.energy = -1.0;
        assert_eq!(res.ppw(), 0.0);
        res.energy = 500.0;
        assert_eq!(res.ppw(), 2.0);
    }

    #[test]
    fn closed_loop_runs_and_accounts() {
        let (_, model, cfg) = corpus_and_model();
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 99);
        let (warm, window) = record_trace(&mut gen, 2_000, 48_000);
        let res = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts).run();
        assert_eq!(res.instructions, 48_000);
        assert!(res.energy > 0.0);
        assert!(res.cycles > 0);
        assert_eq!(
            res.modes.len(),
            48_000 / (cfg.interval_insts * model.granularity as u64) as usize
        );
        // The first HORIZON windows carry no prediction.
        assert!(res.predictions[0].is_none());
        assert!(res.predictions[1].is_none());
    }

    #[test]
    fn gateable_workload_spends_time_in_low_power() {
        let (_, model, cfg) = corpus_and_model();
        let mut gen = PhaseGenerator::new(Archetype::DepChain.center(), 77);
        let (warm, window) = record_trace(&mut gen, 2_000, 64_000);
        let res = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts).run();
        assert!(
            res.low_power_residency > 0.4,
            "serial workload should gate: residency {}",
            res.low_power_residency
        );
    }

    #[test]
    fn wide_workload_mostly_stays_high_perf() {
        let (_, model, cfg) = corpus_and_model();
        let mut gen = PhaseGenerator::new(Archetype::ScalarIlp.center(), 78);
        let (warm, window) = record_trace(&mut gen, 2_000, 64_000);
        let res = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts).run();
        assert!(
            res.low_power_residency < 0.5,
            "wide workload should not gate: residency {}",
            res.low_power_residency
        );
    }

    #[test]
    fn adaptive_ppw_beats_static_on_gateable_workloads() {
        let (_, model, cfg) = corpus_and_model();
        let mut gen = PhaseGenerator::new(Archetype::DepChain.center(), 55);
        let (warm, window) = record_trace(&mut gen, 2_000, 64_000);
        let adaptive = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts).run();
        // Static high-performance baseline on the identical trace.
        let mut gen2 = PhaseGenerator::new(Archetype::DepChain.center(), 55);
        let paired = collect_paired(&mut gen2, 2_000, 32, 2_000, 0, "t", 1);
        let hi_energy: f64 = paired.energy_hi.iter().sum();
        let hi_insts: u64 = paired.insts.iter().sum();
        let hi_ppw = hi_insts as f64 / hi_energy;
        assert!(
            adaptive.ppw() > hi_ppw,
            "adaptive {} !> static {}",
            adaptive.ppw(),
            hi_ppw
        );
    }

    #[test]
    fn firmware_errors_degrade_instead_of_panicking() {
        let (corpus, mut model, cfg) = corpus_and_model();
        // CHARSTAR firmware reads 8 expert counters; Best RF's featurizer
        // emits 12 PF counters, so every inference is a FirmwareError.
        let foreign = zoo::train(ModelKind::Charstar, &corpus, &cfg);
        let (feat, _) = model.mode_parts(Mode::HighPerf);
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 99);
        let (warm, window) = record_trace(&mut gen, 2_000, 48_000);
        let g = model.granularity;
        let rows = vec![vec![0.5; psca_telemetry::NUM_EVENTS]; g];
        let features = feat.featurize(&rows, &vec![1_000; g]);
        assert!(foreign.fw_hi.predict(&features).is_err());
        assert_eq!(
            infer(&foreign.fw_hi, &features),
            (false, PredictionHealth::FirmwareFault)
        );

        model.fw_hi = foreign.fw_hi;
        model.fw_lo = foreign.fw_lo;
        let res = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts).run();
        assert_eq!(res.modes.len(), 6);
        assert!(res.degrade.worst >= DegradeLevel::HeuristicOnly);
        assert_eq!(
            res.predictions
                .iter()
                .flatten()
                .filter(|p| **p != 0)
                .count(),
            0
        );
    }

    #[test]
    fn aligned_labels_skip_unpredicted_windows() {
        let (_, model, cfg) = corpus_and_model();
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 31);
        let (warm, window) = record_trace(&mut gen, 2_000, 40_000);
        let res = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts).run();
        let truth = vec![1u8; res.modes.len()];
        let (t, p) = res.aligned_labels(&truth);
        assert_eq!(t.len(), p.len());
        assert_eq!(
            t.len(),
            res.predictions.iter().filter(|x| x.is_some()).count()
        );
    }
}
