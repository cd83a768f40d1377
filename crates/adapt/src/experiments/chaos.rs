//! Chaos harness: the closed adaptation loop under injected faults.
//!
//! Sweeps a [`ChaosSpec`]'s fault rates across a scale grid and reports,
//! per point, the SLA-violation rate, the PPW retained relative to the
//! fault-free run, and the degradation-ladder residency — the evidence
//! that faults degrade efficiency gracefully instead of breaking the SLA
//! (`docs/ROBUSTNESS.md`).

use crate::config::ExperimentConfig;
use crate::controller::{record_trace, reference_ipc, ClosedLoopRequest};
use crate::degrade::DegradeLevel;
use crate::sla::Sla;
use crate::train::ModelKind;
use crate::zoo;
use psca_cpu::CpuConfig;
use psca_faults::ChaosSpec;
use psca_workloads::{Archetype, PhaseGenerator};

/// One point of the chaos sweep: all archetypes at one fault-rate scale.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Multiplier applied to every rate in the base spec.
    pub scale: f64,
    /// Gated windows whose IPC fell below the SLA threshold against the
    /// static high-performance reference, over all windows.
    pub rsv: f64,
    /// PPW at this scale relative to the fault-free (scale 0) run.
    pub ppw_retained: f64,
    /// Fraction of windows spent in low-power mode.
    pub low_residency: f64,
    /// Fraction of windows governed by a tier above model-driven.
    pub degraded_fraction: f64,
    /// Most degraded tier reached across the archetypes.
    pub worst: DegradeLevel,
    /// Ladder transitions summed across archetypes.
    pub transitions: u64,
    /// Faults injected, all classes summed.
    pub faults: u64,
    /// Corrupted firmware images rejected by checksum/validation.
    pub images_rejected: u64,
}

/// Full chaos-sweep report.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// The base (scale 1.0) fault spec.
    pub spec: ChaosSpec,
    /// One row per scale factor.
    pub points: Vec<ChaosPoint>,
    /// Injected-fault breakdown by class at scale 1.0.
    pub fault_classes: Vec<(&'static str, u64)>,
    /// Whether the run met the spec's SLA budget at scale 1.0 without a
    /// panic: the CI smoke gate.
    pub pass: bool,
}

const SWEEP_SCALES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
const SWEEP_WINDOWS: u64 = 32;

const ARCHETYPES: [Archetype; 4] = [
    Archetype::DepChain,
    Archetype::ScalarIlp,
    Archetype::MemBound,
    Archetype::Balanced,
];

/// Runs the chaos sweep against `spec`.
pub fn chaos_sweep(cfg: &ExperimentConfig, spec: &ChaosSpec) -> ChaosSweep {
    // Scope global metrics/series to this experiment (see ISSUE 2).
    psca_obs::reset_all();
    let _span = psca_obs::SpanTimer::start("chaos.sweep");
    // Small dedicated corpus + the paper's best forest, as in the
    // closed-loop tests: the sweep measures robustness, not model quality.
    // Each archetype's trace collection is an independent sweep cell.
    let traces = psca_exec::Sweep::new("chaos.corpus").jobs(cfg.jobs).run(
        (0..ARCHETYPES.len()).collect(),
        |&i| {
            let mut gen = PhaseGenerator::new(ARCHETYPES[i].center(), i as u64 + 30);
            crate::paired::collect_paired(&mut gen, 2_000, 24, 2_000, i as u32, "chaos", 1)
        },
    );
    let corpus = crate::paired::CorpusTelemetry { traces };
    let model = zoo::train(ModelKind::BestRf, &corpus, cfg);
    let g = model.granularity;
    let window_insts = SWEEP_WINDOWS * model.granularity_insts(cfg.interval_insts);

    // Fixed per-archetype traces and their static hi-mode IPC reference.
    let sla = Sla::paper_default();
    let cpu = CpuConfig::skylake_scaled();
    let runs = psca_exec::Sweep::new("chaos.reference").jobs(cfg.jobs).run(
        (0..ARCHETYPES.len()).collect(),
        |&i| {
            let mut gen = PhaseGenerator::new(
                ARCHETYPES[i].center(),
                cfg.sub_seed("chaos") ^ (i as u64 + 101),
            );
            let (warm, window) = record_trace(&mut gen, 2_000, window_insts);
            let refs = reference_ipc(&cpu, &warm, &window, cfg.interval_insts, g);
            (warm, window, refs)
        },
    );

    // The (scale × archetype) grid: every closed-loop run carries its own
    // fault-injector seed, so cells are order-independent. Results merge
    // per scale in archetype order, exactly as the serial loop did.
    struct GridCell {
        energy: f64,
        instructions: u64,
        windows: usize,
        low: usize,
        violations: usize,
        degraded: f64,
        worst: DegradeLevel,
        transitions: u64,
        faults: u64,
        images_rejected: u64,
        by_class: Vec<(&'static str, u64)>,
    }
    let cells: Vec<(usize, usize)> = SWEEP_SCALES
        .iter()
        .enumerate()
        .flat_map(|(s, _)| (0..runs.len()).map(move |i| (s, i)))
        .collect();
    let grid = psca_exec::Sweep::new("chaos.grid")
        .jobs(cfg.jobs)
        .run(cells, |&(s, i)| {
            let scale = SWEEP_SCALES[s];
            let (warm, window, refs) = &runs[i];
            let mut point_spec = spec.scaled(scale);
            point_spec.seed = spec.seed ^ (i as u64);
            let res = ClosedLoopRequest::new(&model, warm, window, cfg.interval_insts)
                .with_faults(point_spec)
                .run();
            let low = res
                .modes
                .iter()
                .filter(|m| **m == psca_cpu::Mode::LowPower)
                .count();
            let mut violations = 0usize;
            for ((mode, ipc), ref_ipc) in res.modes.iter().zip(&res.window_ipc).zip(refs.iter()) {
                if *mode == psca_cpu::Mode::LowPower && *ipc < sla.p_sla * ref_ipc {
                    violations += 1;
                }
            }
            GridCell {
                energy: res.energy,
                instructions: res.instructions,
                windows: res.modes.len(),
                low,
                violations,
                degraded: res.degrade.degraded_fraction(),
                worst: res.degrade.worst,
                transitions: res.degrade.transitions,
                faults: res.faults.total(),
                images_rejected: res.images_rejected,
                by_class: res.faults.by_class().to_vec(),
            }
        });

    let mut points = Vec::new();
    let mut fault_classes: Vec<(&'static str, u64)> = Vec::new();
    let mut clean_ppw = 0.0;
    for (s, &scale) in SWEEP_SCALES.iter().enumerate() {
        let mut energy = 0.0;
        let mut instructions = 0u64;
        let mut windows = 0usize;
        let mut low = 0usize;
        let mut violations = 0usize;
        let mut degraded = 0.0;
        let mut worst = DegradeLevel::ModelDriven;
        let mut transitions = 0u64;
        let mut faults = 0u64;
        let mut images_rejected = 0u64;
        for cell in &grid[s * runs.len()..(s + 1) * runs.len()] {
            energy += cell.energy;
            instructions += cell.instructions;
            windows += cell.windows;
            low += cell.low;
            violations += cell.violations;
            degraded += cell.degraded;
            worst = worst.max(cell.worst);
            transitions += cell.transitions;
            faults += cell.faults;
            images_rejected += cell.images_rejected;
            if (scale - 1.0).abs() < 1e-12 {
                if fault_classes.is_empty() {
                    fault_classes = cell.by_class.clone();
                } else {
                    for (acc, (_, n)) in fault_classes.iter_mut().zip(cell.by_class.iter()) {
                        acc.1 += n;
                    }
                }
            }
        }
        let ppw = if energy > 0.0 {
            instructions as f64 / energy
        } else {
            0.0
        };
        if scale == 0.0 {
            clean_ppw = ppw;
        }
        let point = ChaosPoint {
            scale,
            rsv: violations as f64 / windows.max(1) as f64,
            ppw_retained: if clean_ppw > 0.0 {
                ppw / clean_ppw
            } else {
                0.0
            },
            low_residency: low as f64 / windows.max(1) as f64,
            degraded_fraction: degraded / runs.len() as f64,
            worst,
            transitions,
            faults,
            images_rejected,
        };
        psca_obs::emit(
            psca_obs::Level::Info,
            "chaos.point",
            &[
                ("scale", point.scale.into()),
                ("rsv", point.rsv.into()),
                ("ppw_retained", point.ppw_retained.into()),
                ("faults", point.faults.into()),
            ],
        );
        points.push(point);
    }

    let nominal = points
        .iter()
        .find(|p| (p.scale - 1.0).abs() < 1e-12)
        .expect("sweep includes scale 1.0");
    let pass = nominal.rsv <= spec.max_rsv && nominal.ppw_retained > 0.0;
    psca_obs::gauge("chaos.rsv").set(nominal.rsv);
    psca_obs::gauge("chaos.ppw_retained").set(nominal.ppw_retained);
    psca_obs::counter(if pass { "chaos.pass" } else { "chaos.fail" }).inc();
    ChaosSweep {
        spec: spec.clone(),
        points,
        fault_classes,
        pass,
    }
}

impl std::fmt::Display for ChaosSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Chaos sweep — closed loop under injected faults")?;
        writeln!(f, "spec: {}", self.spec)?;
        writeln!(
            f,
            "{:>6} {:>8} {:>8} {:>8} {:>9} {:>8} {:>7} {:>17}",
            "scale", "rsv", "ppw-ret", "low-res", "degraded", "faults", "img-rej", "worst-tier"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>6.2} {:>8.4} {:>8.3} {:>8.3} {:>9.3} {:>8} {:>7} {:>17}",
                p.scale,
                p.rsv,
                p.ppw_retained,
                p.low_residency,
                p.degraded_fraction,
                p.faults,
                p.images_rejected,
                p.worst.name()
            )?;
        }
        writeln!(f, "fault classes at scale 1.0:")?;
        for (name, n) in &self.fault_classes {
            if *n > 0 {
                writeln!(f, "  {name:12} {n}")?;
            }
        }
        writeln!(
            f,
            "verdict: {} (rsv budget {:.3})",
            if self.pass { "PASS" } else { "FAIL" },
            self.spec.max_rsv
        )
    }
}
