//! The adaptation-model zoo: every model evaluated in §7, trained through
//! the same pipeline the paper describes.

use crate::config::ExperimentConfig;
use crate::counters::{CHARSTAR_COUNTERS, SRCH_COUNTERS, TABLE4_COUNTERS};
use crate::paired::CorpusTelemetry;
use crate::train::{
    fit_histogram, fit_standard, tune_threshold, violation_window, Featurizer, ModelKind,
    TrainedAdaptModel, THRESHOLD_TARGET_RSV,
};
use psca_cpu::Mode;
use psca_ml::{
    Classifier, Dataset, LogisticRegression, Mlp, MlpConfig, RandomForest, RandomForestConfig,
};
use psca_telemetry::Event;
use psca_uc::{ops_budget, CpuSpec, FirmwareModel, McuSpec};

/// Prediction granularities in base (10k-equivalent) intervals, from the
/// §7 budget analysis: CHARSTAR at 20k, SRCH and Best RF at 40k, Best MLP
/// at 50k.
pub fn granularity_intervals(kind: ModelKind, cfg: &ExperimentConfig) -> usize {
    match kind {
        ModelKind::Charstar => 2,
        ModelKind::SrchFine => 4,
        ModelKind::SrchCoarse => cfg.srch_coarse_intervals,
        ModelKind::BestRf => 4,
        ModelKind::BestMlp => 5,
    }
}

/// The counter set each model reads.
pub fn counter_set(kind: ModelKind) -> Vec<Event> {
    match kind {
        ModelKind::Charstar => CHARSTAR_COUNTERS.to_vec(),
        ModelKind::SrchFine | ModelKind::SrchCoarse => SRCH_COUNTERS.to_vec(),
        ModelKind::BestRf | ModelKind::BestMlp => TABLE4_COUNTERS.to_vec(),
    }
}

/// Trains one adaptation model (both mode predictors) on a training
/// corpus, tuning each predictor's sensitivity to keep tuning-set RSV at
/// or below 1% (§6.3).
pub fn train(
    kind: ModelKind,
    corpus: &CorpusTelemetry,
    cfg: &ExperimentConfig,
) -> TrainedAdaptModel {
    let events = counter_set(kind);
    // A model must see at least HORIZON+1 prediction windows per trace to
    // have any training samples; clamp coarse granularities accordingly
    // (relevant when scaled traces are shorter than SRCH's original
    // 10M-instruction interval).
    let max_g =
        corpus.traces.iter().map(|t| t.len()).min().unwrap_or(3) / (crate::train::HORIZON + 1);
    let g = granularity_intervals(kind, cfg).clamp(1, max_g.max(1));
    let w = violation_window(cfg, g);
    let _span = psca_obs::SpanTimer::start("adapt.train");
    TrainedAdaptModel::from_modes(kind, g, |mode| {
        let round_start = std::time::Instant::now();
        let (feat, fw, data) = train_mode(kind, corpus, cfg, mode, &events, g, w);
        let wall_ns = round_start.elapsed().as_nanos() as u64;
        psca_obs::counter("adapt.train.rounds").inc();
        psca_obs::histogram("adapt.train.round_ns").record(wall_ns);
        if psca_obs::enabled(psca_obs::Level::Info) {
            psca_obs::emit(
                psca_obs::Level::Info,
                "train.round",
                &[
                    ("model", kind.name().into()),
                    ("mode", mode.to_string().into()),
                    ("wall_ms", (wall_ns as f64 / 1e6).into()),
                    ("granularity", g.into()),
                    ("train_error", round_error(&fw, &data).into()),
                ],
            );
        }
        (feat, fw)
    })
}

/// In-sample misclassification rate of a freshly-trained mode predictor
/// on the set it was trained from — the "loss" reported in `train.round`
/// events. Only computed when the event would actually be delivered.
fn round_error(fw: &FirmwareModel, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    // Dispatch through the unified trait: the loss computation never needs
    // to know which model family the round trained.
    let clf: &dyn Classifier = fw;
    let wrong = (0..data.len())
        .filter(|&i| clf.predict(data.features().row(i)) as u8 != data.labels()[i])
        .count();
    wrong as f64 / data.len() as f64
}

/// Trains one mode's predictor; returns it with its featurizer and the
/// featurized corpus it was fit and calibrated on.
fn train_mode(
    kind: ModelKind,
    corpus: &CorpusTelemetry,
    cfg: &ExperimentConfig,
    mode: Mode,
    events: &[Event],
    g: usize,
    w: usize,
) -> (Featurizer, FirmwareModel, Dataset) {
    let sla = cfg.training_sla();
    let (feat, data) = match kind {
        ModelKind::SrchFine | ModelKind::SrchCoarse => fit_histogram(corpus, mode, events, g, &sla),
        _ => fit_standard(corpus, mode, events, g, &sla),
    };
    let (fit_set, cal_set) = calibration_split(&data, cfg);
    let mut fw = match kind {
        ModelKind::SrchFine | ModelKind::SrchCoarse => {
            FirmwareModel::Logistic(LogisticRegression::fit(&fit_set, 1e-4, 150))
        }
        ModelKind::BestRf => FirmwareModel::Forest(RandomForest::fit(
            &RandomForestConfig::best_rf(),
            &fit_set,
            cfg.sub_seed("rf") ^ mode_tag(mode),
        )),
        ModelKind::BestMlp => FirmwareModel::Mlp(Mlp::fit(
            &MlpConfig::best_mlp(),
            &fit_set,
            cfg.sub_seed("mlp") ^ mode_tag(mode),
        )),
        ModelKind::Charstar => FirmwareModel::Mlp(Mlp::fit(
            &MlpConfig::charstar(),
            &fit_set,
            cfg.sub_seed("charstar") ^ mode_tag(mode),
        )),
    };
    tune_threshold(
        &mut fw,
        cal_set.features(),
        cal_set.labels(),
        w,
        THRESHOLD_TARGET_RSV,
    );
    (feat, fw, data)
}

/// Splits tuning data by application into a fit set and a calibration set
/// for sensitivity tuning. Tuning the decision threshold on *held-out*
/// applications is essential for models that can memorize their tuning
/// samples (forests): their in-sample RSV is always ~0, which would leave
/// thresholds at their most aggressive setting.
fn calibration_split(data: &Dataset, cfg: &ExperimentConfig) -> (Dataset, Dataset) {
    if data.distinct_groups().len() < 3 {
        // Too few applications to split: calibrate in-sample.
        return (data.clone(), data.clone());
    }
    let folds = psca_ml::crossval::group_folds(data.groups(), 1, 0.2, cfg.sub_seed("calib"));
    (data.subset(&folds[0].tune), data.subset(&folds[0].validate))
}

fn mode_tag(mode: Mode) -> u64 {
    match mode {
        Mode::HighPerf => 0x1111,
        Mode::LowPower => 0x2222,
    }
}

/// Trains a Best-MLP-shaped model with explicit hidden layers, counters
/// and granularity, tuning each predictor's sensitivity in-sample (used
/// by the step-by-step blindspot mitigation of Figure 10).
pub fn train_custom_mlp(
    corpus: &CorpusTelemetry,
    cfg: &ExperimentConfig,
    events: &[Event],
    hidden: &[usize],
    g: usize,
    seed: u64,
) -> TrainedAdaptModel {
    let w = violation_window(cfg, g);
    let mlp_cfg = MlpConfig {
        hidden: hidden.to_vec(),
        ..MlpConfig::default()
    };
    TrainedAdaptModel::from_modes(ModelKind::BestMlp, g, |mode| {
        let (feat, data) = fit_standard(corpus, mode, events, g, &cfg.training_sla());
        let mut fw = FirmwareModel::Mlp(Mlp::fit(&mlp_cfg, &data, seed ^ mode_tag(mode)));
        tune_threshold(
            &mut fw,
            data.features(),
            data.labels(),
            w,
            THRESHOLD_TARGET_RSV,
        );
        (feat, fw)
    })
}

/// Checks a model against the Table 3 budget at its granularity, using
/// the paper's CPU/µC specs (granularity expressed in paper-equivalent
/// instructions: `g × 10k`).
pub fn fits_budget(model: &TrainedAdaptModel) -> bool {
    let row = ops_budget(
        &CpuSpec::paper(),
        &McuSpec::paper(),
        model.granularity as u64 * 10_000,
    );
    let headroom = 1.0 - model.ops_per_prediction as f64 / row.budget.max(1) as f64;
    psca_obs::gauge("uc.budget.headroom").set(headroom);
    if psca_obs::enabled(psca_obs::Level::Debug) {
        psca_obs::emit(
            psca_obs::Level::Debug,
            "uc.budget.check",
            &[
                ("model", model.kind.name().into()),
                ("ops", model.ops_per_prediction.into()),
                ("budget", row.budget.into()),
                ("headroom", headroom.into()),
            ],
        );
    }
    model.ops_per_prediction <= row.budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_workloads::{Archetype, PhaseGenerator};

    fn tiny_corpus() -> CorpusTelemetry {
        let mut traces = Vec::new();
        let kinds = [
            Archetype::DepChain,
            Archetype::ScalarIlp,
            Archetype::MemBound,
            Archetype::Balanced,
        ];
        for (i, a) in kinds.iter().enumerate() {
            let mut gen = PhaseGenerator::new(a.center(), i as u64 + 10);
            traces.push(crate::collect_paired(
                &mut gen, 2_000, 20, 2_000, i as u32, "t", 1,
            ));
        }
        CorpusTelemetry { traces }
    }

    #[test]
    fn all_zoo_models_train_and_predict() {
        let corpus = tiny_corpus();
        let cfg = ExperimentConfig::quick();
        for kind in [ModelKind::BestRf, ModelKind::Charstar, ModelKind::SrchFine] {
            let model = train(kind, &corpus, &cfg);
            assert_eq!(model.kind, kind);
            assert!(model.ops_per_prediction > 0);
            let trace = &corpus.traces[0];
            let g = model.granularity;
            let decision =
                model.predict(Mode::HighPerf, &trace.rows_hi[0..g], &trace.cycles_hi[0..g]);
            let _ = decision;
        }
    }

    #[test]
    fn best_rf_learns_the_corpus() {
        let corpus = tiny_corpus();
        let cfg = ExperimentConfig::quick();
        let model = train(ModelKind::BestRf, &corpus, &cfg);
        // On the (training) corpus, gating decisions should track the
        // gateability of the archetypes: DepChain gates, ScalarIlp not.
        let g = model.granularity;
        let dep = &corpus.traces[0];
        let wide = &corpus.traces[1];
        let count_gates = |t: &crate::TraceTelemetry| {
            let n = t.len() / g;
            (0..n)
                .filter(|&k| {
                    model.predict(
                        Mode::LowPower,
                        &t.rows_lo[k * g..(k + 1) * g],
                        &t.cycles_lo[k * g..(k + 1) * g],
                    )
                })
                .count() as f64
                / n as f64
        };
        let dep_rate = count_gates(dep);
        let wide_rate = count_gates(wide);
        assert!(
            dep_rate > wide_rate,
            "DepChain gate rate {dep_rate} should exceed ScalarIlp {wide_rate}"
        );
    }

    #[test]
    fn paper_models_fit_their_budgets() {
        let corpus = tiny_corpus();
        let cfg = ExperimentConfig::quick();
        for kind in [ModelKind::BestRf, ModelKind::Charstar] {
            let model = train(kind, &corpus, &cfg);
            assert!(
                fits_budget(&model),
                "{kind:?}: {} ops exceeds budget at g={}",
                model.ops_per_prediction,
                model.granularity
            );
        }
    }

    #[test]
    fn granularities_match_section7() {
        let cfg = ExperimentConfig::quick();
        assert_eq!(granularity_intervals(ModelKind::Charstar, &cfg), 2);
        assert_eq!(granularity_intervals(ModelKind::BestRf, &cfg), 4);
        assert_eq!(granularity_intervals(ModelKind::BestMlp, &cfg), 5);
        assert_eq!(granularity_intervals(ModelKind::SrchFine, &cfg), 4);
    }
}
