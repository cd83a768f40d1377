//! Chaos harness: the closed adaptation loop under injected faults.
//!
//! Sweeps a [`ChaosSpec`]'s fault rates across a scale grid and reports,
//! per point, the SLA-violation rate, the PPW retained relative to the
//! fault-free run, and the degradation-ladder residency — the evidence
//! that faults degrade efficiency gracefully instead of breaking the SLA
//! (`docs/ROBUSTNESS.md`).

use crate::config::ExperimentConfig;
use crate::robustness::{robustness_model, LoopScore, Scenario, ROBUSTNESS_ARCHETYPES};
use psca_cpu::CpuConfig;
use psca_faults::ChaosSpec;
use psca_workloads::PhaseGenerator;

/// One point of the chaos sweep: all archetypes at one fault-rate scale.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Multiplier applied to every rate in the base spec.
    pub scale: f64,
    /// The archetypes' closed loops at this scale, summed in archetype
    /// order: RSV, low-power residency, worst tier, faults, rejections.
    pub total: LoopScore,
    /// PPW at this scale relative to the fault-free (scale 0) run.
    pub ppw_retained: f64,
}

impl ChaosPoint {
    /// Fraction of windows governed by a tier above model-driven,
    /// averaged over the archetypes' runs.
    pub fn degraded_fraction(&self) -> f64 {
        self.total.degraded / ROBUSTNESS_ARCHETYPES.len() as f64
    }
}

/// Full chaos-sweep report.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// The base (scale 1.0) fault spec.
    pub spec: ChaosSpec,
    /// One row per scale factor.
    pub points: Vec<ChaosPoint>,
    /// Whether the run met the spec's SLA budget at scale 1.0 without a
    /// panic: the CI smoke gate.
    pub pass: bool,
}

impl ChaosSweep {
    /// The scale-1.0 row: the spec exactly as given.
    pub fn nominal(&self) -> &ChaosPoint {
        self.points
            .iter()
            .find(|p| (p.scale - 1.0).abs() < 1e-12)
            .expect("sweep includes scale 1.0")
    }
}

const SWEEP_SCALES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
const SWEEP_WINDOWS: u64 = 32;

/// Runs the chaos sweep against `spec`.
pub fn chaos_sweep(cfg: &ExperimentConfig, spec: &ChaosSpec) -> ChaosSweep {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let _span = psca_obs::SpanTimer::start("chaos.sweep");
    let model = robustness_model(cfg);

    // Fixed per-archetype scenarios on the paper's machine.
    let scenarios = psca_exec::Sweep::new("chaos.reference").jobs(cfg.jobs).run(
        (0..ROBUSTNESS_ARCHETYPES.len()).collect(),
        |&i| {
            let seed = cfg.sub_seed("chaos") ^ (i as u64 + 101);
            let mut gen = PhaseGenerator::new(ROBUSTNESS_ARCHETYPES[i].0.center(), seed);
            let cpu = CpuConfig::skylake_scaled();
            Scenario::record(&mut gen, cpu, &model, cfg.interval_insts, SWEEP_WINDOWS)
        },
    );

    // The (scale × archetype) grid: every closed-loop run carries its own
    // fault-injector seed, so cells are order-independent. Scores merge
    // per scale in archetype order, exactly as the serial loop did.
    let n = scenarios.len();
    let cells: Vec<(f64, usize)> = SWEEP_SCALES
        .iter()
        .flat_map(|&scale| (0..n).map(move |i| (scale, i)))
        .collect();
    let grid = psca_exec::Sweep::new("chaos.grid")
        .jobs(cfg.jobs)
        .run(cells, |&(scale, i)| {
            let mut point_spec = spec.scaled(scale);
            point_spec.seed = spec.seed ^ (i as u64);
            scenarios[i].score(&model, point_spec)
        });

    let mut points = Vec::new();
    let mut clean_ppw = 0.0;
    for (&scale, row) in SWEEP_SCALES.iter().zip(grid.chunks(n)) {
        let total: LoopScore = row.iter().sum();
        if scale == 0.0 {
            clean_ppw = total.ppw();
        }
        let ppw_retained = if clean_ppw > 0.0 {
            total.ppw() / clean_ppw
        } else {
            0.0
        };
        psca_obs::emit(
            psca_obs::Level::Info,
            "chaos.point",
            &[
                ("scale", scale.into()),
                ("rsv", total.rsv().into()),
                ("ppw_retained", ppw_retained.into()),
                ("faults", total.faults.total().into()),
            ],
        );
        points.push(ChaosPoint {
            scale,
            total,
            ppw_retained,
        });
    }

    let mut sweep = ChaosSweep {
        spec: spec.clone(),
        points,
        pass: false,
    };
    let nominal = sweep.nominal();
    let (rsv, ppw_retained) = (nominal.total.rsv(), nominal.ppw_retained);
    sweep.pass = rsv <= spec.max_rsv && ppw_retained > 0.0;
    psca_obs::gauge("chaos.rsv").set(rsv);
    psca_obs::gauge("chaos.ppw_retained").set(ppw_retained);
    psca_obs::counter(if sweep.pass {
        "chaos.pass"
    } else {
        "chaos.fail"
    })
    .inc();
    sweep
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
                p.total.rsv(),
                p.ppw_retained,
                p.total.low_residency(),
                p.degraded_fraction(),
                p.total.faults.total(),
                p.total.images_rejected,
                p.total.worst.name()
            )?;
        }
        writeln!(f, "fault classes at scale 1.0:")?;
        for (name, n) in self.nominal().total.faults.by_class() {
            if n > 0 {
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
