//! Post-silicon customization (§3.2, §7.3): the public API behind the
//! paper's three deployment stories.
//!
//! - [`retarget_sla`] — retrain the deployed model under a different SLA
//!   and ship it as a firmware update: one chip, several power/performance
//!   characters (Table 5);
//! - [`train_app_specific`] — combine high-diversity and
//!   application-specific half-forests into the Best-RF shape for a
//!   customer application (Table 6);
//! - [`OtaCycle`] — the optimization-as-a-service loop: deploy, collect
//!   field telemetry, retrain, push, repeat — tracking PPW across rounds.

use crate::config::ExperimentConfig;
use crate::counters::TABLE4_COUNTERS;
use crate::experiments::evaluate_model_on_corpus;
use crate::paired::CorpusTelemetry;
use crate::train::{
    featurize_windows, fit_standard, tune_threshold, Featurizer, ModelKind, TrainedAdaptModel,
    THRESHOLD_TARGET_RSV,
};
use crate::zoo;
use psca_cpu::Mode;
use psca_ml::{Dataset, RandomForest, RandomForestConfig};
use psca_uc::{FirmwareModel, Model};

/// Retrains Best RF under a different SLA threshold — the Table 5
/// firmware update. Labels are recomputed from the *same* telemetry; no
/// new data collection is needed.
pub fn retarget_sla(
    cfg: &ExperimentConfig,
    hdtr: &CorpusTelemetry,
    p_sla: f64,
) -> (ExperimentConfig, TrainedAdaptModel) {
    let mut c = cfg.clone();
    c.sla = cfg.sla.with_p_sla(p_sla);
    let model = zoo::train(ModelKind::BestRf, hdtr, &c);
    (c, model)
}

/// The reusable pieces of application-specific retraining: the shared
/// feature space and the high-diversity half-forests (4 trees per mode).
#[derive(Debug, Clone)]
pub struct HdtrHalves {
    /// Featurizer for high-performance-mode telemetry.
    pub feat_hi: Featurizer,
    /// Featurizer for low-power-mode telemetry.
    pub feat_lo: Featurizer,
    /// High-diversity half-forest, high-performance mode.
    pub rf_hi: RandomForest,
    /// High-diversity half-forest, low-power mode.
    pub rf_lo: RandomForest,
    /// Featurized HDTR data (for threshold calibration).
    pub data_hi: Dataset,
    /// Featurized HDTR data, low-power mode.
    pub data_lo: Dataset,
    /// Prediction granularity in base intervals.
    pub granularity: usize,
}

/// The half-forest configuration of §7.3 (4 trees, depth 8).
pub fn half_forest_config() -> RandomForestConfig {
    RandomForestConfig {
        num_trees: 4,
        max_depth: 8,
        min_leaf: 2,
    }
}

impl HdtrHalves {
    /// The featurizer, half-forest and featurized HDTR data of `mode`.
    fn mode_parts(&self, mode: Mode) -> (&Featurizer, &RandomForest, &Dataset) {
        match mode {
            Mode::HighPerf => (&self.feat_hi, &self.rf_hi, &self.data_hi),
            Mode::LowPower => (&self.feat_lo, &self.rf_lo, &self.data_lo),
        }
    }
}

/// Trains the shared high-diversity halves once; reuse across
/// applications.
pub fn train_hdtr_halves(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry, g: usize) -> HdtrHalves {
    let events = TABLE4_COUNTERS.to_vec();
    let sla = cfg.training_sla();
    let half = half_forest_config();
    let [(feat_hi, data_hi, rf_hi), (feat_lo, data_lo, rf_lo)] =
        [(Mode::HighPerf, "ps-hi"), (Mode::LowPower, "ps-lo")].map(|(mode, tag)| {
            let (feat, data) = fit_standard(hdtr, mode, &events, g, &sla);
            let rf = RandomForest::fit(&half, &data, cfg.sub_seed(tag));
            (feat, data, rf)
        });
    HdtrHalves {
        feat_hi,
        feat_lo,
        rf_hi,
        rf_lo,
        data_hi,
        data_lo,
        granularity: g,
    }
}

/// Builds an application-specific Best-RF (4 HDTR trees + 4 application
/// trees per mode) from customer traces, with sensitivity calibrated on
/// the application *and* high-diversity data ("combining high-diversity
/// and application-specific trees reduces SLA violation rates
/// significantly over just application-specific trees", §7.3).
pub fn train_app_specific(
    cfg: &ExperimentConfig,
    halves: &HdtrHalves,
    app_corpus: &CorpusTelemetry,
    seed: u64,
) -> TrainedAdaptModel {
    let g = halves.granularity;
    let w = crate::train::violation_window(cfg, g);
    let sla = cfg.training_sla();
    let half = half_forest_config();
    TrainedAdaptModel::from_modes(ModelKind::BestRf, g, |mode| {
        let (feat, hdtr_rf, hdtr_data) = halves.mode_parts(mode);
        let app = featurize_windows(feat, app_corpus, mode, g, &sla);
        let tag = match mode {
            Mode::HighPerf => 0xA,
            Mode::LowPower => 0xB,
        };
        let app_rf = RandomForest::fit(&half, &app, seed ^ tag);
        let mut fw = FirmwareModel::new(Model::Forest(hdtr_rf.combine(&app_rf)));
        // Balanced calibration: the application data plus an equal-sized
        // slice of high-diversity data — app-only calibration falls into
        // the in-sample-RSV trap (app trees memorize their tuning
        // samples), while HDTR-dominated calibration tunes the threshold
        // for the wrong distribution and erases the application-specific
        // benefit.
        let stride = (hdtr_data.len() / app.len().max(1)).max(1);
        let idx: Vec<usize> = (0..hdtr_data.len())
            .step_by(stride)
            .take(app.len())
            .collect();
        let cal = Dataset::concat(&[&app, &hdtr_data.subset(&idx)]);
        tune_threshold(
            &mut fw,
            cal.features(),
            cal.labels(),
            w,
            THRESHOLD_TARGET_RSV,
        );
        (feat.clone(), fw)
    })
}

/// One round of the optimization-as-a-service loop.
#[derive(Debug, Clone, Copy)]
pub struct OtaRound {
    /// Round index (0 = the general pre-trained firmware).
    pub round: usize,
    /// Workload traces accumulated so far.
    pub traces_collected: usize,
    /// PPW gain on the held-out future workload.
    pub ppw_gain: f64,
    /// RSV on the held-out future workload.
    pub rsv: f64,
}

/// The §3.2 usage model: each round, the customer traces more executions
/// on site; the vendor retrains and pushes updated firmware; PPW on
/// *future* inputs is tracked.
pub struct OtaCycle<'a> {
    cfg: &'a ExperimentConfig,
    halves: HdtrHalves,
    collected: CorpusTelemetry,
    future: &'a CorpusTelemetry,
    rounds: Vec<OtaRound>,
}

impl<'a> OtaCycle<'a> {
    /// Starts a cycle: `future` is the evaluation workload (inputs never
    /// used for retraining); the general model is round 0.
    pub fn new(
        cfg: &'a ExperimentConfig,
        hdtr: &CorpusTelemetry,
        general: &TrainedAdaptModel,
        future: &'a CorpusTelemetry,
    ) -> OtaCycle<'a> {
        let halves = train_hdtr_halves(cfg, hdtr, general.granularity);
        let e = evaluate_model_on_corpus(general, future, cfg).overall;
        OtaCycle {
            cfg,
            halves,
            collected: CorpusTelemetry::default(),
            future,
            rounds: vec![OtaRound {
                round: 0,
                traces_collected: 0,
                ppw_gain: e.ppw_gain,
                rsv: e.rsv,
            }],
        }
    }

    /// Ingests newly-collected customer traces, retrains, and evaluates
    /// the pushed firmware on the future workload.
    pub fn push_round(&mut self, new_traces: CorpusTelemetry) -> OtaRound {
        self.collected.traces.extend(new_traces.traces);
        let model = train_app_specific(
            self.cfg,
            &self.halves,
            &self.collected,
            self.cfg.sub_seed("ota") ^ self.rounds.len() as u64,
        );
        let e = evaluate_model_on_corpus(&model, self.future, self.cfg).overall;
        let round = OtaRound {
            round: self.rounds.len(),
            traces_collected: self.collected.traces.len(),
            ppw_gain: e.ppw_gain,
            rsv: e.rsv,
        };
        self.rounds.push(round);
        round
    }

    /// All rounds so far, round 0 first.
    pub fn rounds(&self) -> &[OtaRound] {
        &self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_paired;
    use psca_workloads::spec::spec_suite;
    use psca_workloads::{Archetype, PhaseGenerator};

    fn hdtr_corpus() -> CorpusTelemetry {
        let mut traces = Vec::new();
        for (i, a) in [
            Archetype::DepChain,
            Archetype::ScalarIlp,
            Archetype::MemBound,
            Archetype::Balanced,
            Archetype::Branchy,
        ]
        .iter()
        .enumerate()
        {
            let mut gen = PhaseGenerator::new(a.center(), 300 + i as u64);
            traces.push(collect_paired(&mut gen, 2_000, 24, 2_000, i as u32, "h", 1));
        }
        CorpusTelemetry { traces }
    }

    #[test]
    fn retargeting_relaxes_labels_and_gates_more() {
        let cfg = ExperimentConfig::quick();
        let hdtr = hdtr_corpus();
        let (c90, strict) = retarget_sla(&cfg, &hdtr, 0.90);
        let (c70, loose) = retarget_sla(&cfg, &hdtr, 0.70);
        let e_strict = evaluate_model_on_corpus(&strict, &hdtr, &c90).overall;
        let e_loose = evaluate_model_on_corpus(&loose, &hdtr, &c70).overall;
        assert!(
            e_loose.residency >= e_strict.residency,
            "a looser SLA must gate at least as often: {} vs {}",
            e_loose.residency,
            e_strict.residency
        );
    }

    #[test]
    fn ota_cycle_improves_with_collected_traces() {
        let cfg = ExperimentConfig::quick();
        let hdtr = hdtr_corpus();
        let general = zoo::train(ModelKind::BestRf, &hdtr, &cfg);
        // Customer app: a fotonik-like FP streamer the corpus lacks.
        let suite = spec_suite(cfg.sub_seed("spec"), cfg.spec_phase_len);
        let app = &suite[18]; // 649.fotonik3d_s
        let trace_of = |input: u64| {
            let mut src = app.app.trace(input);
            collect_paired(&mut src, 2_000, 48, 2_000, 0, app.bench.name, input)
        };
        let future = CorpusTelemetry {
            traces: vec![trace_of(9)],
        };
        let mut cycle = OtaCycle::new(&cfg, &hdtr, &general, &future);
        let r1 = cycle.push_round(CorpusTelemetry {
            traces: vec![trace_of(1), trace_of(2)],
        });
        let r2 = cycle.push_round(CorpusTelemetry {
            traces: vec![trace_of(3), trace_of(4)],
        });
        assert_eq!(cycle.rounds().len(), 3);
        assert_eq!(r1.traces_collected, 2);
        assert_eq!(r2.traces_collected, 4);
        // At test scale the app trees see little data, so require sanity
        // rather than strict improvement: no catastrophic PPW collapse and
        // bounded violations. (The full-scale Table 6 run shows the
        // improvement itself.)
        assert!(r2.ppw_gain > -0.05, "PPW collapsed: {}", r2.ppw_gain);
        assert!(r2.rsv <= 0.5, "RSV exploded: {}", r2.rsv);
        assert!(
            r2.ppw_gain >= r1.ppw_gain - 0.25,
            "more data should not sharply regress: {} vs {}",
            r2.ppw_gain,
            r1.ppw_gain
        );
    }
}
