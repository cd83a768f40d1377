//! One deployment scorer for the robustness harnesses: the chaos sweep
//! (`experiments::chaos`) and the fleet (`psca-fleet`) train the same
//! model, record the same kind of scenario, and judge every closed loop
//! by the same numbers.
//!
//! A [`Scenario`] is one recorded workload plus its static
//! high-performance IPC reference; [`Scenario::score`] runs one closed
//! loop over it and returns a [`LoopScore`]. A `LoopScore` is a plain
//! value: harnesses sum them in a fixed order to get per-scale,
//! per-cohort, or fleet-wide rates, and a die's score for an image can be
//! reused wherever the same (scenario, model, faults) recurs.

use crate::config::ExperimentConfig;
use crate::controller::{record_trace, ClosedLoopRequest, ClosedLoopResult};
use crate::degrade::DegradeLevel;
use crate::paired::{collect_paired, CorpusTelemetry};
use crate::sla::Sla;
use crate::train::{ModelKind, TrainedAdaptModel};
use crate::zoo;
use psca_cpu::{ClusterSim, CpuConfig, Mode};
use psca_faults::{ChaosSpec, FaultCounts};
use psca_trace::{TraceSource, VecTrace};
use psca_workloads::{Archetype, PhaseGenerator};

/// The workload archetypes the robustness harnesses train on and cycle
/// through, spanning gateable to wide behaviour, with their report labels.
pub const ROBUSTNESS_ARCHETYPES: [(Archetype, &str); 4] = [
    (Archetype::DepChain, "dep_chain"),
    (Archetype::ScalarIlp, "scalar_ilp"),
    (Archetype::MemBound, "mem_bound"),
    (Archetype::Balanced, "balanced"),
];

/// The small dedicated training corpus of the robustness harnesses: 24
/// paired intervals of each [`ROBUSTNESS_ARCHETYPES`] entry. The harnesses
/// measure deployment robustness, not model quality, so it stays tiny.
/// Each archetype is an independent sweep cell; `cfg.jobs` only changes
/// wall time.
pub fn robustness_corpus(cfg: &ExperimentConfig) -> CorpusTelemetry {
    let traces = psca_exec::Sweep::new("robustness.corpus")
        .jobs(cfg.jobs)
        .run((0..ROBUSTNESS_ARCHETYPES.len()).collect(), |&i| {
            let (arch, name) = ROBUSTNESS_ARCHETYPES[i];
            let mut gen = PhaseGenerator::new(arch.center(), i as u64 + 30);
            collect_paired(&mut gen, 2_000, 24, 2_000, i as u32, name, 1)
        });
    CorpusTelemetry { traces }
}

/// The paper's best forest trained on [`robustness_corpus`]: the model
/// the chaos sweep and the fleet deploy.
pub fn robustness_model(cfg: &ExperimentConfig) -> TrainedAdaptModel {
    zoo::train(ModelKind::BestRf, &robustness_corpus(cfg), cfg)
}

/// One recorded workload on one machine, with the per-window IPC of a
/// static high-performance run: the SLA reference gated windows are
/// scored against (Eq. 4).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Core parameterization the scenario runs on.
    pub cpu: CpuConfig,
    /// Warm-up trace, replayed with telemetry discarded.
    pub warm: VecTrace,
    /// Measured trace region.
    pub window: VecTrace,
    /// Base telemetry interval in instructions.
    pub interval_insts: u64,
    /// Static high-performance IPC of each prediction window.
    pub refs: Vec<f64>,
}

impl Scenario {
    /// Records 2 000 warm-up instructions and `windows` of `model`'s
    /// prediction windows from `source`, then simulates them statically
    /// in high-performance mode on `cpu`, one IPC per prediction window.
    /// The traces keep that run's functional outcomes, so every
    /// [`Scenario::score`] runs only the simulator's timing core.
    pub fn record<S: TraceSource>(
        source: &mut S,
        cpu: CpuConfig,
        model: &TrainedAdaptModel,
        interval_insts: u64,
        windows: u64,
    ) -> Scenario {
        let _span = psca_obs::SpanTimer::start("adapt.scenario.record");
        let window_insts = windows * model.granularity_insts(interval_insts);
        let (mut warm, mut window) = record_trace(source, 2_000, window_insts);
        // Every closed loop on this machine replays the same instructions
        // from the same state, so this run reads the traces themselves,
        // not clones, and leaves its functional outcomes in them.
        let mut sim = ClusterSim::new(cpu.clone());
        sim.record_outcomes();
        sim.warm_up(&mut warm, 2_000);
        let mut refs = Vec::new();
        'outer: loop {
            let mut cycles = 0u64;
            let mut insts = 0u64;
            for _ in 0..model.granularity {
                let Some(r) = sim.run_interval(&mut window, interval_insts) else {
                    break 'outer;
                };
                cycles += r.snapshot.cycles;
                insts += r.instructions;
            }
            refs.push(insts as f64 / cycles.max(1) as f64);
        }
        warm.rewind();
        window.rewind();
        Scenario {
            cpu,
            warm,
            window,
            interval_insts,
            refs,
        }
    }

    /// Deploys `model` on the scenario's machine under `faults`, runs the
    /// closed loop, and scores it against the reference.
    pub fn score(&self, model: &TrainedAdaptModel, faults: ChaosSpec) -> LoopScore {
        let res = ClosedLoopRequest::new(model, &self.warm, &self.window, self.interval_insts)
            .with_cpu(self.cpu.clone())
            .with_faults(faults)
            .run();
        LoopScore::of(&res, &self.refs)
    }
}

/// The accounting of one or more closed loops: everything the harnesses
/// report, as additive totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopScore {
    /// Prediction windows simulated.
    pub windows: usize,
    /// Windows spent in low-power mode.
    pub low: usize,
    /// Gated windows whose IPC fell below `P_SLA` times the static
    /// high-performance reference ([`Sla::paper_default`]).
    pub violations: usize,
    /// Total energy.
    pub energy: f64,
    /// Total instructions.
    pub instructions: u64,
    /// Degradation-ladder escalations.
    pub escalations: u64,
    /// Degradation-ladder transitions.
    pub transitions: u64,
    /// Most degraded tier reached.
    pub worst: DegradeLevel,
    /// Fraction of windows governed above model-driven, summed over runs.
    pub degraded: f64,
    /// Faults injected, by class.
    pub faults: FaultCounts,
    /// Corrupted firmware images rejected in-loop.
    pub images_rejected: u64,
}

impl LoopScore {
    /// Scores one closed-loop run against per-window reference IPCs.
    pub fn of(res: &ClosedLoopResult, refs: &[f64]) -> LoopScore {
        let p_sla = Sla::paper_default().p_sla;
        let gated = |m: &Mode| *m == Mode::LowPower;
        let violations = res
            .modes
            .iter()
            .zip(&res.window_ipc)
            .zip(refs)
            .filter(|((mode, ipc), ref_ipc)| gated(mode) && **ipc < p_sla * **ref_ipc)
            .count();
        LoopScore {
            windows: res.modes.len(),
            low: res.modes.iter().filter(|m| gated(m)).count(),
            violations,
            energy: res.energy,
            instructions: res.instructions,
            escalations: res.degrade.escalations,
            transitions: res.degrade.transitions,
            worst: res.degrade.worst,
            degraded: res.degrade.degraded_fraction(),
            faults: res.faults,
            images_rejected: res.images_rejected,
        }
    }

    /// Adds `other` in place. Callers merge in a fixed order, so summed
    /// floats are reproducible.
    pub fn merge(&mut self, other: &LoopScore) {
        self.windows += other.windows;
        self.low += other.low;
        self.violations += other.violations;
        self.energy += other.energy;
        self.instructions += other.instructions;
        self.escalations += other.escalations;
        self.transitions += other.transitions;
        self.worst = self.worst.max(other.worst);
        self.degraded += other.degraded;
        self.faults += other.faults;
        self.images_rejected += other.images_rejected;
    }

    /// SLA-violation rate over the windows (RSV).
    pub fn rsv(&self) -> f64 {
        self.violations as f64 / self.windows.max(1) as f64
    }

    /// Performance per watt (0 when no finite energy was recorded).
    pub fn ppw(&self) -> f64 {
        crate::controller::ppw(self.instructions, self.energy)
    }

    /// Fraction of windows spent in low-power mode.
    pub fn low_residency(&self) -> f64 {
        self.low as f64 / self.windows.max(1) as f64
    }
}

/// Left-to-right merge, starting from the empty score.
impl<'a> std::iter::Sum<&'a LoopScore> for LoopScore {
    fn sum<I: Iterator<Item = &'a LoopScore>>(iter: I) -> LoopScore {
        iter.fold(LoopScore::default(), |mut acc, s| {
            acc.merge(s);
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(energy: f64, instructions: u64) -> LoopScore {
        LoopScore {
            windows: 4,
            low: 2,
            violations: 1,
            energy,
            instructions,
            ..LoopScore::default()
        }
    }

    /// `Scenario::score` replays the recording run's functional outcomes;
    /// it must equal the same closed loop over freshly recorded plain
    /// traces, which take the simulator's full path.
    #[test]
    fn scores_equal_closed_loops_on_plain_traces() {
        let cfg = ExperimentConfig::quick();
        let model = robustness_model(&cfg);
        let mut cpu = CpuConfig::skylake_scaled();
        cpu.l2_bytes /= 2;
        for (i, (arch, _)) in ROBUSTNESS_ARCHETYPES.into_iter().enumerate() {
            let gen = || PhaseGenerator::new(arch.center(), 50 + i as u64);
            let s = Scenario::record(&mut gen(), cpu.clone(), &model, cfg.interval_insts, 16);
            assert!(s
                .window
                .position()
                .is_some_and(|at| at.outcome_key.is_some()));
            let (warm, window) = record_trace(&mut gen(), 2_000, s.window.len() as u64);
            for faults in [ChaosSpec::default(), ChaosSpec::default_chaos()] {
                let oracle = ClosedLoopRequest::new(&model, &warm, &window, cfg.interval_insts)
                    .with_cpu(cpu.clone())
                    .with_faults(faults.clone())
                    .run();
                let score = s.score(&model, faults);
                assert_eq!(score, LoopScore::of(&oracle, &s.refs), "{arch:?}");
            }
        }
    }

    /// `collect_paired`'s low-power pass replays the high-performance
    /// pass's functional outcomes; both must equal the full path over
    /// freshly recorded plain traces.
    #[test]
    fn paired_runs_equal_both_modes_on_plain_traces() {
        for (i, (arch, name)) in ROBUSTNESS_ARCHETYPES.into_iter().enumerate() {
            let gen = || PhaseGenerator::new(arch.center(), 30 + i as u64);
            let got = collect_paired(&mut gen(), 2_000, 6, 2_000, i as u32, name, 1);
            let (warm, window) = record_trace(&mut gen(), 2_000, 12_000);
            for mode in [Mode::HighPerf, Mode::LowPower] {
                let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
                sim.set_mode(mode);
                sim.warm_up(&mut warm.clone(), 2_000);
                let mut replay = window.clone();
                let (mut rows, mut cycles, mut energy) = (Vec::new(), Vec::new(), Vec::new());
                while let Some(r) = sim.run_interval(&mut replay, 2_000) {
                    rows.push(r.snapshot.as_slice().to_vec());
                    cycles.push(r.snapshot.cycles);
                    energy.push(r.energy);
                }
                let want = match mode {
                    Mode::HighPerf => (&got.rows_hi, &got.cycles_hi, &got.energy_hi),
                    Mode::LowPower => (&got.rows_lo, &got.cycles_lo, &got.energy_lo),
                };
                assert_eq!((&rows, &cycles, &energy), want, "{arch:?} {mode}");
            }
        }
    }

    #[test]
    fn empty_score_rates_are_zero() {
        let s = LoopScore::default();
        assert_eq!((s.rsv(), s.ppw(), s.low_residency()), (0.0, 0.0, 0.0));
    }

    #[test]
    fn only_gated_windows_under_the_reference_violate() {
        let res = ClosedLoopResult {
            modes: vec![Mode::LowPower, Mode::LowPower, Mode::HighPerf],
            window_ipc: vec![0.8, 1.0, 0.1],
            ..ClosedLoopResult::default()
        };
        let s = LoopScore::of(&res, &[1.0, 1.0, 1.0]);
        assert_eq!((s.windows, s.low, s.violations), (3, 2, 1));
    }

    #[test]
    fn sum_merges_in_order() {
        let mut a = score(100.0, 1_000);
        a.worst = DegradeLevel::HoldLast;
        a.faults.uc_dropped = 2;
        let b = score(300.0, 3_000);
        let total: LoopScore = [a.clone(), b].iter().sum();
        assert_eq!((total.windows, total.low, total.violations), (8, 4, 2));
        assert_eq!(total.worst, DegradeLevel::HoldLast);
        assert_eq!(total.faults.total(), 2);
        assert_eq!(total.ppw(), 10.0);
        assert_eq!(total.rsv(), 0.25);
        assert_eq!([a.clone()].iter().sum::<LoopScore>(), a);
    }
}
