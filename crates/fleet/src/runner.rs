//! The fleet harness: N skewed dies, a staged firmware rollout, and the
//! machine-readable report behind `repro fleet`.
//!
//! A fleet run is a pure function of `(ExperimentConfig, FleetParams)`:
//! per-die traces, skews, and chaos seeds all derive from the fleet
//! seed, and every batch of die simulations fans out through one
//! [`psca_exec::Sweep`] whose merge is bit-identical to the serial
//! order. The staged rollout itself is inherently serial — each stage's
//! verdict decides whether the next cohort ever sees the candidate — so
//! parallelism lives inside a stage (one cell per cohort die), never
//! across stages.
//!
//! A die's recorded trace lives only inside the sweep cell that scores
//! it: the cell records the die's [`Scenario`], runs every closed loop
//! it needs, and drops it. Each die is recorded once per run, and fleet
//! memory grows with `cfg.jobs`, not with the fleet size.

use crate::rollout::{
    CohortHealth, FleetImage, Rollout, RolloutSpec, RolloutStatus, StageAction, StageOutcome,
};
use crate::skew::{DieSkew, SkewSpec};
use psca_adapt::{
    robustness_model, ExperimentConfig, LoopScore, Scenario, TrainedAdaptModel,
    ROBUSTNESS_ARCHETYPES,
};
use psca_cpu::CpuConfig;
use psca_faults::ChaosSpec;
use psca_obs::Json;
use psca_uc::image;
use psca_workloads::{Archetype, PhaseGenerator};

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

/// One die's fixed context: its skew, workload, chaos spec, skewed
/// machine, and the seed of its workload generator. The trace is not
/// kept: [`FleetSetup::record`] records it from these on demand.
#[derive(Debug, Clone)]
struct DiePrep {
    skew: DieSkew,
    arch: Archetype,
    archetype: &'static str,
    chaos: ChaosSpec,
    cpu: CpuConfig,
    gen_seed: u64,
}

/// A prepared fleet: trained model, baseline/candidate images, and one
/// die's parameters (skew, archetype, chaos, seed) per die. Splitting preparation from execution lets tests
/// score a single die serially ([`FleetSetup::die_stats`]) against the
/// report, whose rows must equal that serial oracle for the image each
/// row reports, whatever shape the rollout took.
pub struct FleetSetup {
    interval_insts: u64,
    windows: u64,
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
        let model = robustness_model(cfg);

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
        let sub = cfg.sub_seed("fleet");
        let dies = (0..params.size as u64)
            .map(|die| {
                let skew = DieSkew::derive(&params.skew, params.seed, die);
                let (arch, archetype) =
                    ROBUSTNESS_ARCHETYPES[die as usize % ROBUSTNESS_ARCHETYPES.len()];
                DiePrep {
                    skew,
                    arch,
                    archetype,
                    chaos: skew.chaos(params.chaos.as_ref()),
                    cpu: skew.apply(&base_cpu),
                    gen_seed: sub ^ params.seed ^ (die + 101),
                }
            })
            .collect();

        FleetSetup {
            interval_insts: cfg.interval_insts,
            windows: params.windows,
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
    /// bit-identically. Records the die's scenario first, as the fleet's
    /// own cells do.
    pub fn die_stats(&self, die: u64, img: &FleetImage) -> LoopScore {
        self.score(die, &self.record(die), img)
    }

    /// Records die `die`'s workload on its skewed machine. Deterministic
    /// in the die, so every recording of a die is the same scenario.
    fn record(&self, die: u64) -> Scenario {
        let prep = &self.dies[die as usize];
        let mut gen = PhaseGenerator::new(prep.arch.center(), prep.gen_seed);
        Scenario::record(
            &mut gen,
            prep.cpu.clone(),
            &self.model,
            self.interval_insts,
            self.windows,
        )
    }

    /// Deploys `img` to die `die` and scores its closed loop over
    /// `scenario`, the die's recording.
    ///
    /// Deployment goes through `psca_uc::image::decode`, so the same
    /// CRC/validation gate that fields real pushes also fields ours.
    fn score(&self, die: u64, scenario: &Scenario, img: &FleetImage) -> LoopScore {
        let mut model = self.model.clone();
        model.fw_hi = image::decode(&img.hi).expect("installed image decodes");
        model.fw_lo = image::decode(&img.lo).expect("installed image decodes");
        let score = scenario.score(&model, self.dies[die as usize].chaos.clone());
        psca_obs::counter("fleet.dies_run").inc();
        score
    }
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
    pub stats: LoopScore,
    /// Whether the die was quarantined during the rollout.
    pub quarantined: bool,
}

/// The machine-readable artifact of one fleet run (`repro fleet`).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Parameters the run was invoked with.
    pub params: FleetParams,
    /// `(version, fingerprint, bytes)` of the baseline image.
    pub baseline: (u32, u32, usize),
    /// `(version, fingerprint, bytes)` of the candidate image.
    pub candidate: (u32, u32, usize),
    /// Staged-rollout outcomes in order (empty when rollout is off).
    pub stages: Vec<StageOutcome>,
    /// Dies quarantined during the rollout, ascending.
    pub quarantined: Vec<u64>,
    /// Final per-die state, by die id.
    pub dies: Vec<DieRow>,
    /// `"disabled"`, `"completed"`, or `"rolled_back"`.
    pub status: &'static str,
    /// Every die's final run summed in die order: the report's
    /// `fleet_rsv` and `fleet_ppw` are its rates.
    pub total: LoopScore,
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
                    ("action", s.action.name().into()),
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
                    ("worst_tier", d.stats.worst.name().into()),
                    ("faults", Json::UInt(d.stats.faults.total())),
                    ("images_rejected", Json::UInt(d.stats.images_rejected)),
                    ("quarantined", Json::Bool(d.quarantined)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str("psca-fleet/v1".to_string())),
            // The cycle-level simulator is the only one; the pair stays
            // because committed output digests pin these bytes.
            ("backend", Json::Str("cycle_accurate".to_string())),
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
            ("fleet_rsv", Json::Num(self.total.rsv())),
            ("fleet_ppw", Json::Num(self.total.ppw())),
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
                        StageAction::RolledBack => "ROLLED BACK",
                        action => action.name(),
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
                d.stats.worst.name(),
                if d.quarantined { "yes" } else { "" }
            )?;
        }
        writeln!(
            f,
            "status: {} · fleet rsv {:.4} · fleet ppw {:.4} · {}",
            self.status,
            self.total.rsv(),
            self.total.ppw(),
            if self.pass { "PASS" } else { "FAIL" }
        )
    }
}

/// Runs the whole fleet scenario: prepare → staged rollout (if enabled)
/// → final fleet pass, with `psca-obs` gauges/counters and rollout
/// instant-events along the way.
pub fn run_fleet(cfg: &ExperimentConfig, params: &FleetParams) -> FleetReport {
    // Scope global metrics to this run, as every experiment driver does.
    psca_obs::reset_all();
    let _span = psca_obs::SpanTimer::start("fleet.run");
    let setup = FleetSetup::prepare(cfg, params);
    psca_obs::gauge("fleet.size").set(params.size as f64);

    // Every closed loop the run executes, by die and image slot
    // (baseline, candidate). A die's score is a pure function of
    // `(die, image)`, so a score the rollout already ran is the die's
    // final score whenever the rollout leaves that image installed.
    let images = [&setup.baseline, &setup.candidate];
    let mut scores: Vec<[Option<LoopScore>; 2]> = vec![[None, None]; params.size];
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
                // One cell per cohort die: it records the die once, runs
                // both images on the recording and drops it, so stage
                // wall time scales with --jobs, only `jobs` recordings
                // are alive at once, and the merge stays serial-identical.
                let runs = psca_exec::Sweep::new("fleet.stage").jobs(cfg.jobs).run(
                    cohort.clone(),
                    |&die| {
                        let scenario = setup.record(die);
                        images.map(|img| setup.score(die, &scenario, img))
                    },
                );
                // Outliers: dies unhealthy under the *baseline* strike
                // toward quarantine and drop out of the verdict.
                let (mut base_sum, mut cand_sum) = (LoopScore::default(), LoopScore::default());
                for (&die, [base, cand]) in cohort.iter().zip(&runs) {
                    scores[die as usize] = [Some(base.clone()), Some(cand.clone())];
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
                    base_sum.merge(base);
                    cand_sum.merge(cand);
                }
                let health = if cand_sum.windows == 0 {
                    // Whole cohort quarantined: nothing to judge, advance.
                    CohortHealth {
                        rsv: 0.0,
                        ppw_retained: 1.0,
                        escalations: 0,
                    }
                } else {
                    let base_ppw = base_sum.ppw();
                    CohortHealth {
                        rsv: cand_sum.rsv(),
                        ppw_retained: if base_ppw > 0.0 {
                            cand_sum.ppw() / base_ppw
                        } else {
                            0.0
                        },
                        escalations: cand_sum.escalations,
                    }
                };
                let action = rollout.observe(health);
                psca_obs::counter(&format!("fleet.rollout.{}", action.name())).inc();
                let event = if action == StageAction::RolledBack {
                    "fleet.rollout.rollback"
                } else {
                    "fleet.rollout.promote"
                };
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
            stages = rollout.history().to_vec();
            quarantined = rollout.quarantined().collect();
            let installed = (0..params.size as u64)
                .map(|d| rollout.installed(d).clone())
                .collect();
            (rollout.status().name(), installed)
        }
    };
    psca_obs::gauge("fleet.quarantined").set(quarantined.len() as f64);

    // Final fleet pass: every die on whatever image the rollout left it
    // with. This is the state the data center actually runs. Only dies
    // with no stored score for that image run again: those the rollout
    // never reached, or every die when it is off.
    let slot = |die: u64| usize::from(installed[die as usize] == setup.candidate);
    let missing = (0..params.size as u64)
        .filter(|&d| scores[d as usize][slot(d)].is_none())
        .collect();
    let runs = psca_exec::Sweep::new("fleet.final")
        .jobs(cfg.jobs)
        .run(missing, |&die| {
            (die, setup.die_stats(die, images[slot(die)]))
        });
    for (die, score) in runs {
        scores[die as usize][slot(die)] = Some(score);
    }
    let dies: Vec<DieRow> = scores
        .into_iter()
        .enumerate()
        .map(|(i, mut pair)| {
            let die = i as u64;
            DieRow {
                die,
                archetype: setup.dies[i].archetype,
                image_version: installed[i].version,
                skew: setup.dies[i].skew,
                stats: pair[slot(die)].take().expect("every die scored"),
                quarantined: quarantined.contains(&die),
            }
        })
        .collect();
    let total: LoopScore = dies.iter().map(|d| &d.stats).sum();
    let pass = status != RolloutStatus::RolledBack.name();
    psca_obs::gauge("fleet.rsv").set(total.rsv());
    psca_obs::gauge("fleet.ppw").set(total.ppw());
    psca_obs::counter(if pass { "fleet.pass" } else { "fleet.fail" }).inc();

    let identity = |img: &FleetImage| (img.version, img.fingerprint(), img.hi.len() + img.lo.len());
    FleetReport {
        params: params.clone(),
        baseline: identity(&setup.baseline),
        candidate: identity(&setup.candidate),
        stages,
        quarantined,
        dies,
        status,
        total,
        pass,
    }
}
