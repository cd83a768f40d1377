//! The fleet harness: N skewed dies, a staged firmware rollout, and the
//! machine-readable report behind `repro fleet`.
//!
//! A fleet run is a pure function of `(ExperimentConfig, FleetParams)`:
//! per-die traces, skews, and chaos seeds all derive from the fleet
//! seed, and every batch of die simulations fans out through one
//! [`psca_exec::Sweep`] whose merge is bit-identical to the serial
//! order. The staged rollout itself is inherently serial — each stage's
//! verdict decides whether the next cohort ever sees the candidate — so
//! parallelism lives inside a stage (cohort dies × {baseline,
//! candidate}), never across stages.

use crate::rollout::{
    CohortHealth, FleetImage, Rollout, RolloutSpec, RolloutStatus, StageAction, StageOutcome,
};
use crate::skew::{DieSkew, SkewSpec};
use psca_adapt::{
    collect_paired, record_trace, reference_ipc, zoo, ClosedLoopRequest, CorpusTelemetry,
    ExperimentConfig, ModelKind, Sla, TrainedAdaptModel,
};
use psca_cpu::{BackendChoice, CpuConfig, Mode};
use psca_faults::ChaosSpec;
use psca_obs::Json;
use psca_trace::VecTrace;
use psca_uc::image;
use psca_workloads::{Archetype, PhaseGenerator};

/// Workload archetypes cycled across die ids, mirroring the chaos sweep.
const ARCHETYPES: [(Archetype, &str); 4] = [
    (Archetype::DepChain, "dep_chain"),
    (Archetype::ScalarIlp, "scalar_ilp"),
    (Archetype::MemBound, "mem_bound"),
    (Archetype::Balanced, "balanced"),
];

/// Everything that specifies one fleet run beyond the experiment config.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Dies in the fleet.
    pub size: usize,
    /// Fleet seed: skews, workloads, and chaos streams derive from it.
    pub seed: u64,
    /// Prediction windows each die simulates per run.
    pub windows: u64,
    /// Per-die variation bounds.
    pub skew: SkewSpec,
    /// Staged-rollout tuning; `None` keeps the baseline image fleet-wide.
    pub rollout: Option<RolloutSpec>,
    /// Chaos injected on every die (per-die seeds are derived); `None`
    /// leaves only each die's skew noise floor.
    pub chaos: Option<ChaosSpec>,
    /// Deliberately sabotage the candidate image (its predictors always
    /// gate) so a healthy rollout must roll back at the canary: the CI
    /// regression scenario.
    pub bad_image: bool,
}

impl Default for FleetParams {
    fn default() -> FleetParams {
        FleetParams {
            size: 8,
            seed: 1,
            windows: 12,
            skew: SkewSpec::default_skew(),
            rollout: Some(RolloutSpec::default()),
            chaos: None,
            bad_image: false,
        }
    }
}

/// One die's fixed context: its skewed machine, workload trace, chaos
/// spec, and static high-performance IPC reference.
#[derive(Debug, Clone)]
struct DiePrep {
    skew: DieSkew,
    archetype: &'static str,
    cpu: CpuConfig,
    chaos: ChaosSpec,
    warm: VecTrace,
    window: VecTrace,
    refs: Vec<f64>,
}

/// Raw accounting of one die running one image.
#[derive(Debug, Clone, PartialEq)]
pub struct DieStats {
    /// Prediction windows simulated.
    pub windows: usize,
    /// Windows spent in low-power mode.
    pub low: usize,
    /// Gated windows whose IPC fell below the SLA threshold against the
    /// die's static high-performance reference.
    pub violations: usize,
    /// Total energy.
    pub energy: f64,
    /// Total instructions.
    pub instructions: u64,
    /// Degradation-ladder escalations.
    pub escalations: u64,
    /// Most degraded tier reached.
    pub worst: &'static str,
    /// Faults injected, all classes.
    pub faults: u64,
    /// Corrupted firmware images rejected in-loop.
    pub images_rejected: u64,
}

impl DieStats {
    /// SLA-violation rate over the run's windows.
    pub fn rsv(&self) -> f64 {
        self.violations as f64 / self.windows.max(1) as f64
    }

    /// Performance per watt (0 when no finite energy was recorded).
    pub fn ppw(&self) -> f64 {
        if !self.energy.is_finite() || self.energy <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / self.energy
    }

    /// Fraction of windows spent in low-power mode.
    pub fn low_residency(&self) -> f64 {
        self.low as f64 / self.windows.max(1) as f64
    }
}

/// A prepared fleet: trained model, baseline/candidate images, and one
/// [`DiePrep`] per die. Splitting preparation from execution lets tests
/// score a single die serially ([`FleetSetup::die_stats`]) against the
/// sweep-merged report — the "rollout disabled ≡ N independent loops"
/// invariant.
pub struct FleetSetup {
    cfg: ExperimentConfig,
    model: TrainedAdaptModel,
    baseline: FleetImage,
    candidate: FleetImage,
    dies: Vec<DiePrep>,
}

/// Encodes `model`'s two predictors as a [`FleetImage`].
fn encode_image(model: &TrainedAdaptModel, version: u32) -> FleetImage {
    FleetImage {
        version,
        hi: image::encode(&model.fw_hi).expect("deployable firmware encodes"),
        lo: image::encode(&model.fw_lo).expect("deployable firmware encodes"),
    }
}

impl FleetSetup {
    /// Trains the fleet's adaptation model and derives every die's
    /// context from the fleet seed. Deterministic in
    /// `(cfg.seed, cfg.interval_insts, params)`; `cfg.jobs` only changes
    /// wall time.
    pub fn prepare(cfg: &ExperimentConfig, params: &FleetParams) -> FleetSetup {
        let _span = psca_obs::SpanTimer::start("fleet.prepare");
        // Small dedicated corpus + the paper's best forest, exactly as
        // the chaos harness: the fleet measures deployment robustness,
        // not model quality.
        let traces = psca_exec::Sweep::new("fleet.corpus").jobs(cfg.jobs).run(
            (0..ARCHETYPES.len()).collect(),
            |&i| {
                let mut gen = PhaseGenerator::new(ARCHETYPES[i].0.center(), i as u64 + 30);
                collect_paired(&mut gen, 2_000, 24, 2_000, i as u32, "fleet", 1)
            },
        );
        let corpus = CorpusTelemetry { traces };
        let model = zoo::train(ModelKind::BestRf, &corpus, cfg);
        let g = model.granularity;
        let window_insts = params.windows * model.granularity_insts(cfg.interval_insts);

        let baseline = encode_image(&model, 1);
        let candidate = if params.bad_image {
            // A *valid* image (decodes, passes CRC and weight checks)
            // whose predictors unconditionally gate: the regression a
            // checksum cannot catch and only cohort health can.
            let mut bad = model.clone();
            bad.fw_hi.set_threshold(0.0);
            bad.fw_lo.set_threshold(0.0);
            encode_image(&bad, 2)
        } else {
            encode_image(&model, 2)
        };

        let base_cpu = CpuConfig::skylake_scaled();
        let skew_spec = params.skew;
        let seed = params.seed;
        let chaos = params.chaos.clone();
        let sub = cfg.sub_seed("fleet");
        let interval_insts = cfg.interval_insts;
        let dies = psca_exec::Sweep::new("fleet.dies").jobs(cfg.jobs).run(
            (0..params.size as u64).collect(),
            |&die| {
                let skew = DieSkew::derive(&skew_spec, seed, die);
                let cpu = skew.apply(&base_cpu);
                let (arch, name) = ARCHETYPES[die as usize % ARCHETYPES.len()];
                let mut gen = PhaseGenerator::new(arch.center(), sub ^ seed ^ (die + 101));
                let (warm, window) = record_trace(&mut gen, 2_000, window_insts);
                let refs = reference_ipc(&cpu, &warm, &window, interval_insts, g);
                DiePrep {
                    skew,
                    archetype: name,
                    chaos: skew.chaos(chaos.as_ref()),
                    cpu,
                    warm,
                    window,
                    refs,
                }
            },
        );

        FleetSetup {
            cfg: cfg.clone(),
            model,
            baseline,
            candidate,
            dies,
        }
    }

    /// The trained model the images are built from.
    pub fn model(&self) -> &TrainedAdaptModel {
        &self.model
    }

    /// The image every die starts on.
    pub fn baseline(&self) -> &FleetImage {
        &self.baseline
    }

    /// The image the rollout pushes.
    pub fn candidate(&self) -> &FleetImage {
        &self.candidate
    }

    /// Deploys `img` to die `die` and runs its closed loop serially: the
    /// oracle the fleet report's sweep-merged rows must match
    /// bit-identically.
    ///
    /// Deployment goes through `psca_uc::image::decode`, so the same
    /// CRC/validation gate that fields real pushes also fields ours.
    pub fn die_stats(&self, die: u64, img: &FleetImage) -> DieStats {
        let prep = &self.dies[die as usize];
        let mut model = self.model.clone();
        model.fw_hi = image::decode(&img.hi).expect("installed image decodes");
        model.fw_lo = image::decode(&img.lo).expect("installed image decodes");
        let res = ClosedLoopRequest::new(&model, &prep.warm, &prep.window, self.cfg.interval_insts)
            .with_cpu(prep.cpu.clone())
            .with_faults(prep.chaos.clone())
            .with_backend(self.cfg.backend)
            .run();
        let sla = Sla::paper_default();
        let low = res.modes.iter().filter(|m| **m == Mode::LowPower).count();
        let mut violations = 0usize;
        for ((mode, ipc), ref_ipc) in res.modes.iter().zip(&res.window_ipc).zip(prep.refs.iter()) {
            if *mode == Mode::LowPower && *ipc < sla.p_sla * ref_ipc {
                violations += 1;
            }
        }
        psca_obs::counter("fleet.dies_run").inc();
        DieStats {
            windows: res.modes.len(),
            low,
            violations,
            energy: res.energy,
            instructions: res.instructions,
            escalations: res.degrade.escalations,
            worst: res.degrade.worst.name(),
            faults: res.faults.total(),
            images_rejected: res.images_rejected,
        }
    }
}

/// One stage's row in the fleet report.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage index (0 = canary).
    pub stage: usize,
    /// Dies deployed to.
    pub cohort: Vec<u64>,
    /// Cohort verdict the state machine consumed.
    pub health: CohortHealth,
    /// What the machine did.
    pub action: StageAction,
}

/// One die's row in the fleet report: final state after the rollout.
#[derive(Debug, Clone)]
pub struct DieRow {
    /// Die id.
    pub die: u64,
    /// Workload archetype the die runs.
    pub archetype: &'static str,
    /// Version of the image the die ended on.
    pub image_version: u32,
    /// The die's realized skew.
    pub skew: DieSkew,
    /// Final-state run accounting.
    pub stats: DieStats,
    /// Whether the die was quarantined during the rollout.
    pub quarantined: bool,
}

/// The machine-readable artifact of one fleet run (`repro fleet`).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Parameters the run was invoked with.
    pub params: FleetParams,
    /// Simulation fidelity every die ran at.
    pub backend: BackendChoice,
    /// `(version, fingerprint, bytes)` of the baseline image.
    pub baseline: (u32, u32, usize),
    /// `(version, fingerprint, bytes)` of the candidate image.
    pub candidate: (u32, u32, usize),
    /// Staged-rollout outcomes in order (empty when rollout is off).
    pub stages: Vec<StageRow>,
    /// Dies quarantined during the rollout, ascending.
    pub quarantined: Vec<u64>,
    /// Final per-die state, by die id.
    pub dies: Vec<DieRow>,
    /// `"disabled"`, `"completed"`, or `"rolled_back"`.
    pub status: &'static str,
    /// Fleet-aggregate SLA-violation rate in the final state.
    pub fleet_rsv: f64,
    /// Fleet-aggregate PPW in the final state.
    pub fleet_ppw: f64,
    /// The CI gate: false iff the rollout rolled back.
    pub pass: bool,
}

impl FleetReport {
    /// The report as a deterministic JSON document (`psca-fleet/v1`).
    pub fn to_json(&self) -> Json {
        let image = |(version, fp, bytes): (u32, u32, usize)| {
            Json::obj(vec![
                ("version", Json::UInt(version as u64)),
                ("fingerprint", Json::Str(format!("{fp:08x}"))),
                ("bytes", Json::UInt(bytes as u64)),
            ])
        };
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("stage", Json::UInt(s.stage as u64)),
                    (
                        "cohort",
                        Json::Arr(s.cohort.iter().map(|&d| Json::UInt(d)).collect()),
                    ),
                    ("rsv", Json::Num(s.health.rsv)),
                    ("ppw_retained", Json::Num(s.health.ppw_retained)),
                    ("escalations", Json::UInt(s.health.escalations)),
                    (
                        "action",
                        Json::Str(
                            match s.action {
                                StageAction::Promoted => "promoted",
                                StageAction::Completed => "completed",
                                StageAction::RolledBack => "rolled_back",
                            }
                            .to_string(),
                        ),
                    ),
                ])
            })
            .collect();
        let dies = self
            .dies
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("die", Json::UInt(d.die)),
                    ("archetype", Json::Str(d.archetype.to_string())),
                    ("image_version", Json::UInt(d.image_version as u64)),
                    ("cache_factor", Json::Num(d.skew.cache_factor)),
                    ("tlb_factor", Json::Num(d.skew.tlb_factor)),
                    ("switch_factor", Json::Num(d.skew.switch_factor)),
                    ("noise_floor", Json::Num(d.skew.noise_floor)),
                    ("rsv", Json::Num(d.stats.rsv())),
                    ("ppw", Json::Num(d.stats.ppw())),
                    ("low_residency", Json::Num(d.stats.low_residency())),
                    ("escalations", Json::UInt(d.stats.escalations)),
                    ("worst_tier", Json::Str(d.stats.worst.to_string())),
                    ("faults", Json::UInt(d.stats.faults)),
                    ("images_rejected", Json::UInt(d.stats.images_rejected)),
                    ("quarantined", Json::Bool(d.quarantined)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str("psca-fleet/v1".to_string())),
            ("backend", Json::Str(self.backend.as_str().to_string())),
            ("size", Json::UInt(self.params.size as u64)),
            ("seed", Json::UInt(self.params.seed)),
            ("windows", Json::UInt(self.params.windows)),
            ("skew", Json::Str(self.params.skew.to_string())),
            (
                "rollout",
                Json::Str(
                    self.params
                        .rollout
                        .as_ref()
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| "off".to_string()),
                ),
            ),
            (
                "chaos",
                Json::Str(
                    self.params
                        .chaos
                        .as_ref()
                        .map(|c| c.to_string())
                        .unwrap_or_else(|| "off".to_string()),
                ),
            ),
            ("bad_image", Json::Bool(self.params.bad_image)),
            ("baseline", image(self.baseline)),
            ("candidate", image(self.candidate)),
            ("stages", Json::Arr(stages)),
            (
                "quarantined",
                Json::Arr(self.quarantined.iter().map(|&d| Json::UInt(d)).collect()),
            ),
            ("dies", Json::Arr(dies)),
            ("status", Json::Str(self.status.to_string())),
            ("fleet_rsv", Json::Num(self.fleet_rsv)),
            ("fleet_ppw", Json::Num(self.fleet_ppw)),
            ("pass", Json::Bool(self.pass)),
        ])
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fleet — {} dies, seed {}, skew [{}]",
            self.params.size, self.params.seed, self.params.skew
        )?;
        writeln!(
            f,
            "images: baseline v{} fp {:08x} · candidate v{} fp {:08x}{}",
            self.baseline.0,
            self.baseline.1,
            self.candidate.0,
            self.candidate.1,
            if self.params.bad_image {
                " (sabotaged)"
            } else {
                ""
            }
        )?;
        if self.stages.is_empty() {
            writeln!(f, "rollout: off")?;
        } else {
            writeln!(
                f,
                "{:>6} {:>14} {:>8} {:>8} {:>5} {:>12}",
                "stage", "cohort", "rsv", "ppw-ret", "esc", "action"
            )?;
            for s in &self.stages {
                writeln!(
                    f,
                    "{:>6} {:>14} {:>8.4} {:>8.3} {:>5} {:>12}",
                    s.stage,
                    format!(
                        "{}..{}",
                        s.cohort.first().unwrap_or(&0),
                        s.cohort.last().unwrap_or(&0)
                    ),
                    s.health.rsv,
                    s.health.ppw_retained,
                    s.health.escalations,
                    match s.action {
                        StageAction::Promoted => "promoted",
                        StageAction::Completed => "completed",
                        StageAction::RolledBack => "ROLLED BACK",
                    }
                )?;
            }
        }
        writeln!(
            f,
            "{:>4} {:>11} {:>4} {:>8} {:>8} {:>8} {:>5} {:>17} {:>4}",
            "die", "archetype", "img", "rsv", "ppw", "low-res", "esc", "worst-tier", "quar"
        )?;
        for d in &self.dies {
            writeln!(
                f,
                "{:>4} {:>11} {:>4} {:>8.4} {:>8.4} {:>8.3} {:>5} {:>17} {:>4}",
                d.die,
                d.archetype,
                format!("v{}", d.image_version),
                d.stats.rsv(),
                d.stats.ppw(),
                d.stats.low_residency(),
                d.stats.escalations,
                d.stats.worst,
                if d.quarantined { "yes" } else { "" }
            )?;
        }
        writeln!(
            f,
            "status: {} · fleet rsv {:.4} · fleet ppw {:.4} · {}",
            self.status,
            self.fleet_rsv,
            self.fleet_ppw,
            if self.pass { "PASS" } else { "FAIL" }
        )
    }
}

/// Runs the whole fleet scenario: prepare → staged rollout (if enabled)
/// → final fleet pass, with `psca-obs` gauges/counters and rollout
/// instant-events along the way.
pub fn run_fleet(cfg: &ExperimentConfig, params: &FleetParams) -> FleetReport {
    // Scope global metrics/series to this run, as every experiment
    // driver does (ISSUE 2).
    psca_obs::reset_all();
    let _span = psca_obs::SpanTimer::start("fleet.run");
    let setup = FleetSetup::prepare(cfg, params);
    psca_obs::gauge("fleet.size").set(params.size as f64);

    let mut stages = Vec::new();
    let mut quarantined = Vec::new();
    let (status, installed): (&'static str, Vec<FleetImage>) = match params.rollout {
        None => ("disabled", vec![setup.baseline.clone(); params.size]),
        Some(spec) => {
            let mut rollout = Rollout::new(
                params.size,
                spec,
                setup.baseline.clone(),
                setup.candidate.clone(),
            );
            while let Some(cohort) = rollout.current_cohort() {
                let stage = rollout.history().len();
                psca_obs::gauge("fleet.rollout.stage").set(stage as f64);
                // Each cohort die runs both images; the pair of runs is
                // one sweep so stage wall time scales with --jobs while
                // the merge stays serial-identical.
                let cells: Vec<(u64, bool)> = cohort
                    .iter()
                    .flat_map(|&d| [(d, false), (d, true)])
                    .collect();
                let runs = psca_exec::Sweep::new("fleet.stage").jobs(cfg.jobs).run(
                    cells,
                    |&(die, cand)| {
                        let img = if cand {
                            setup.candidate()
                        } else {
                            setup.baseline()
                        };
                        setup.die_stats(die, img)
                    },
                );
                // Outliers: dies unhealthy under the *baseline* strike
                // toward quarantine and drop out of the verdict.
                let mut viol = 0usize;
                let mut windows = 0usize;
                let mut esc = 0u64;
                let mut ppw_b = (0u64, 0.0f64);
                let mut ppw_c = (0u64, 0.0f64);
                for (i, &die) in cohort.iter().enumerate() {
                    let base = &runs[2 * i];
                    let cand = &runs[2 * i + 1];
                    if base.rsv() > spec.rsv_floor {
                        rollout.strike(die);
                        if rollout.is_quarantined(die) {
                            psca_obs::counter("fleet.quarantine.added").inc();
                            psca_obs::trace::instant(
                                "fleet.quarantine",
                                &[("die", die.into()), ("stage", (stage as u64).into())],
                            );
                        }
                        continue;
                    }
                    viol += cand.violations;
                    windows += cand.windows;
                    esc += cand.escalations;
                    ppw_b = (ppw_b.0 + base.instructions, ppw_b.1 + base.energy);
                    ppw_c = (ppw_c.0 + cand.instructions, ppw_c.1 + cand.energy);
                }
                let base_ppw = if ppw_b.1 > 0.0 {
                    ppw_b.0 as f64 / ppw_b.1
                } else {
                    0.0
                };
                let cand_ppw = if ppw_c.1 > 0.0 {
                    ppw_c.0 as f64 / ppw_c.1
                } else {
                    0.0
                };
                let health = if windows == 0 {
                    // Whole cohort quarantined: nothing to judge, advance.
                    CohortHealth {
                        rsv: 0.0,
                        ppw_retained: 1.0,
                        escalations: 0,
                    }
                } else {
                    CohortHealth {
                        rsv: viol as f64 / windows as f64,
                        ppw_retained: if base_ppw > 0.0 {
                            cand_ppw / base_ppw
                        } else {
                            0.0
                        },
                        escalations: esc,
                    }
                };
                let action = rollout.observe(health);
                let (ctr, event) = match action {
                    StageAction::Promoted => ("fleet.rollout.promoted", "fleet.rollout.promote"),
                    StageAction::Completed => ("fleet.rollout.completed", "fleet.rollout.promote"),
                    StageAction::RolledBack => {
                        ("fleet.rollout.rolled_back", "fleet.rollout.rollback")
                    }
                };
                psca_obs::counter(ctr).inc();
                psca_obs::trace::instant(
                    event,
                    &[
                        ("stage", (stage as u64).into()),
                        ("rsv", health.rsv.into()),
                        ("ppw_retained", health.ppw_retained.into()),
                        ("candidate_version", (setup.candidate.version as u64).into()),
                    ],
                );
                psca_obs::emit(
                    psca_obs::Level::Info,
                    "fleet.stage",
                    &[
                        ("stage", (stage as u64).into()),
                        ("cohort", (cohort.len() as u64).into()),
                        ("rsv", health.rsv.into()),
                        ("ppw_retained", health.ppw_retained.into()),
                        ("escalations", health.escalations.into()),
                    ],
                );
            }
            for outcome in rollout.history() {
                stages.push(stage_row(outcome));
            }
            quarantined = rollout.quarantined().collect();
            let installed = (0..params.size as u64)
                .map(|d| rollout.installed(d).clone())
                .collect();
            (rollout.status().name(), installed)
        }
    };
    psca_obs::gauge("fleet.quarantined").set(quarantined.len() as f64);

    // Final fleet pass: every die on whatever image the rollout left it
    // with. This is the state the data center actually runs.
    let final_runs = psca_exec::Sweep::new("fleet.final")
        .jobs(cfg.jobs)
        .run((0..params.size as u64).collect(), |&die| {
            setup.die_stats(die, &installed[die as usize])
        });
    let mut viol = 0usize;
    let mut windows = 0usize;
    let mut energy = 0.0f64;
    let mut insts = 0u64;
    let dies: Vec<DieRow> = final_runs
        .into_iter()
        .enumerate()
        .map(|(i, stats)| {
            let die = i as u64;
            viol += stats.violations;
            windows += stats.windows;
            energy += stats.energy;
            insts += stats.instructions;
            DieRow {
                die,
                archetype: setup.dies[i].archetype,
                image_version: installed[i].version,
                skew: setup.dies[i].skew,
                stats,
                quarantined: quarantined.contains(&die),
            }
        })
        .collect();
    let fleet_rsv = viol as f64 / windows.max(1) as f64;
    let fleet_ppw = if energy > 0.0 {
        insts as f64 / energy
    } else {
        0.0
    };
    let pass = status != RolloutStatus::RolledBack.name();
    psca_obs::gauge("fleet.rsv").set(fleet_rsv);
    psca_obs::gauge("fleet.ppw").set(fleet_ppw);
    psca_obs::counter(if pass { "fleet.pass" } else { "fleet.fail" }).inc();

    FleetReport {
        params: params.clone(),
        backend: cfg.backend,
        baseline: (
            setup.baseline.version,
            setup.baseline.fingerprint(),
            setup.baseline.hi.len() + setup.baseline.lo.len(),
        ),
        candidate: (
            setup.candidate.version,
            setup.candidate.fingerprint(),
            setup.candidate.hi.len() + setup.candidate.lo.len(),
        ),
        stages,
        quarantined,
        dies,
        status,
        fleet_rsv,
        fleet_ppw,
        pass,
    }
}

fn stage_row(outcome: &StageOutcome) -> StageRow {
    StageRow {
        stage: outcome.stage,
        cohort: outcome.cohort.clone(),
        health: outcome.health,
        action: outcome.action,
    }
}
