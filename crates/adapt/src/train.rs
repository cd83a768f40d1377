//! Dataset construction and model training machinery.
//!
//! Two featurizations exist, matching the evaluated model families (§7):
//!
//! - **aggregated counters** — a prediction window's base intervals are
//!   summed and re-normalized, the chosen counters projected out, and the
//!   vector standardized (MLPs, forests, SVMs);
//! - **counter histograms** — the window's per-interval samples are
//!   bucketed per counter into a normalized histogram (the SRCH baseline).
//!
//! Labels always refer to interval `t+2` at the model's own granularity
//! (Figure 3): counters from window `t` are used during `t+1` to compute a
//! prediction that configures the clusters for `t+2`.

use crate::config::ExperimentConfig;
use crate::paired::{CorpusTelemetry, TraceTelemetry};
use crate::sla::Sla;
use psca_cpu::Mode;
use psca_ml::histogram::HistogramFeaturizer;
use psca_ml::metrics::rate_of_sla_violations;
use psca_ml::{Dataset, Matrix, Standardizer};
use psca_telemetry::Event;
use psca_uc::{FirmwareError, FirmwareModel};

/// The prediction horizon in prediction intervals (Figure 3: counters
/// from interval `t` configure interval `t+2`).
pub const HORIZON: usize = 2;

/// Which adaptation model a [`TrainedAdaptModel`] embodies (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's best random forest (8 trees × depth 8, 12 PF counters,
    /// 40k-instruction granularity).
    BestRf,
    /// The paper's best MLP (3 layers 8/8/4, 12 PF counters, 50k).
    BestMlp,
    /// CHARSTAR's 1-layer 10-filter MLP on 8 expert counters, 20k.
    Charstar,
    /// SRCH logistic regression on counter histograms at the finest
    /// granularity the µC supports (40k).
    SrchFine,
    /// SRCH at its originally proposed coarse interval.
    SrchCoarse,
}

impl ModelKind {
    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::BestRf => "Best RF",
            ModelKind::BestMlp => "Best MLP",
            ModelKind::Charstar => "CHARSTAR",
            ModelKind::SrchFine => "SRCH (fine)",
            ModelKind::SrchCoarse => "SRCH (orig.)",
        }
    }
}

/// How raw telemetry becomes model input.
#[derive(Debug, Clone)]
pub enum Featurizer {
    /// Aggregate + project + standardize.
    Standard {
        /// Counters used.
        events: Vec<Event>,
        /// Standardization fit on the tuning set.
        standardizer: Standardizer,
    },
    /// Per-counter histograms over the window (SRCH).
    Histogram {
        /// Counters used.
        events: Vec<Event>,
        /// Histogram bucket ranges fit on the tuning set.
        featurizer: HistogramFeaturizer,
    },
}

impl Featurizer {
    /// Length of the feature vector [`Self::featurize`] produces.
    pub(crate) fn input_dim(&self) -> usize {
        match self {
            Featurizer::Standard { events, .. } => events.len(),
            Featurizer::Histogram { featurizer, .. } => featurizer.feature_dim(),
        }
    }

    /// Featurizes one prediction window (granularity-many base intervals,
    /// with per-interval cycle weights for aggregation).
    pub fn featurize(&self, rows: &[Vec<f64>], cycles: &[u64]) -> Vec<f64> {
        match self {
            Featurizer::Standard {
                events,
                standardizer,
            } => {
                let mut x = aggregate_window(rows, cycles, events);
                standardizer.transform(&mut x);
                x
            }
            Featurizer::Histogram { events, featurizer } => {
                histogram_window(featurizer, &project_window(rows, events))
            }
        }
    }
}

/// Cycle-weighted aggregation of a window's normalized rows, projected
/// onto `events`: the one re-normalization rule ("we simply sum over
/// successive intervals and re-normalize", §4.1). Each output column
/// depends only on its own event.
pub fn aggregate_window(rows: &[Vec<f64>], cycles: &[u64], events: &[Event]) -> Vec<f64> {
    let total: u64 = cycles.iter().sum();
    let mut out = vec![0.0; events.len()];
    for (row, &c) in rows.iter().zip(cycles) {
        for (o, e) in out.iter_mut().zip(events) {
            *o += row[e.index()] * c as f64;
        }
    }
    for o in out.iter_mut() {
        *o /= total.max(1) as f64;
    }
    out
}

/// A window's per-interval rows projected onto `events` (the SRCH
/// histogram input).
fn project_window(rows: &[Vec<f64>], events: &[Event]) -> Vec<Vec<f64>> {
    rows.iter()
        .map(|r| events.iter().map(|e| r[e.index()]).collect())
        .collect()
}

/// Histograms one projected window.
fn histogram_window(featurizer: &HistogramFeaturizer, projected: &[Vec<f64>]) -> Vec<f64> {
    let refs: Vec<&[f64]> = projected.iter().map(Vec::as_slice).collect();
    featurizer.featurize(&refs)
}

/// Walks every trace's prediction windows in corpus order: window `t`
/// covers base intervals `t*g..(t+1)*g` of `mode`, is labelled with the
/// SLA outcome of window `t + horizon` (Figure 3), and becomes one sample
/// through `row(rows, cycles)`. Returns `(samples, labels, groups)`.
///
/// Traces walk independently; concatenating per-trace outputs in corpus
/// order reproduces the serial walk exactly. Nested inside an
/// experiment's sweep cell this runs inline (no oversubscription).
///
/// # Panics
/// Panics if `granularity == 0`.
pub(crate) fn walk_windows<R: Send>(
    corpus: &CorpusTelemetry,
    mode: Mode,
    granularity: usize,
    sla: &Sla,
    horizon: usize,
    row: impl Fn(&[Vec<f64>], &[u64]) -> R + Sync,
) -> (Vec<R>, Vec<u8>, Vec<u32>) {
    assert!(granularity >= 1, "granularity must be positive");
    let per_trace = psca_exec::Sweep::new("train.windows").run(
        corpus.traces.iter().collect(),
        |trace: &&TraceTelemetry| {
            let labels: Vec<u8> = trace.aggregate(granularity).labels(sla);
            let (rows, cycles) = match mode {
                Mode::HighPerf => (&trace.rows_hi, &trace.cycles_hi),
                Mode::LowPower => (&trace.rows_lo, &trace.cycles_lo),
            };
            let samples: Vec<R> = (0..labels.len().saturating_sub(horizon))
                .map(|t| {
                    let span = t * granularity..(t + 1) * granularity;
                    row(&rows[span.clone()], &cycles[span])
                })
                .collect();
            let labels: Vec<u8> = labels.into_iter().skip(horizon).collect();
            (samples, labels, trace.app_id)
        },
    );
    let mut samples = Vec::new();
    let mut labels = Vec::new();
    let mut groups = Vec::new();
    for (s, l, app_id) in per_trace {
        groups.extend(std::iter::repeat_n(app_id, l.len()));
        samples.extend(s);
        labels.extend(l);
    }
    (samples, labels, groups)
}

/// [`walk_windows`] with a feature-vector row function, as a dataset.
pub(crate) fn walk_dataset(
    corpus: &CorpusTelemetry,
    mode: Mode,
    granularity: usize,
    sla: &Sla,
    horizon: usize,
    row: impl Fn(&[Vec<f64>], &[u64]) -> Vec<f64> + Sync,
) -> Dataset {
    let (rows, labels, groups) = walk_windows(corpus, mode, granularity, sla, horizon, row);
    to_dataset(&rows, labels, groups)
}

fn to_dataset(rows: &[Vec<f64>], labels: Vec<u8>, groups: Vec<u32>) -> Dataset {
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Dataset::new(Matrix::from_rows(&refs), labels, groups)
}

/// Builds the `(x_t → y_{t+2})` dataset for one mode, with features as
/// *raw aggregated counters* (standardization is fit later, on the tuning
/// side of each split). Granularity is in base intervals.
///
/// # Panics
/// Panics if `granularity == 0`.
pub fn build_dataset(
    corpus: &CorpusTelemetry,
    mode: Mode,
    events: &[Event],
    granularity: usize,
    sla: &Sla,
) -> Dataset {
    walk_dataset(corpus, mode, granularity, sla, HORIZON, |rows, cycles| {
        aggregate_window(rows, cycles, events)
    })
}

/// A fully-trained adaptation model pair ready for firmware deployment:
/// one predictor per cluster configuration (§4.1), a featurizer per mode,
/// and the prediction granularity the µC budget permits.
#[derive(Debug, Clone)]
pub struct TrainedAdaptModel {
    /// Model identity.
    pub kind: ModelKind,
    /// Featurizer for high-performance-mode telemetry.
    pub feat_hi: Featurizer,
    /// Featurizer for low-power-mode telemetry.
    pub feat_lo: Featurizer,
    /// Firmware predictor used while in high-performance mode.
    pub fw_hi: FirmwareModel,
    /// Firmware predictor used while in low-power mode.
    pub fw_lo: FirmwareModel,
    /// Prediction granularity in base telemetry intervals.
    pub granularity: usize,
    /// Operations per prediction on the microcontroller.
    pub ops_per_prediction: u64,
}

impl TrainedAdaptModel {
    /// Assembles a model from `per_mode`'s `(featurizer, firmware)` pair
    /// for each mode, built high-performance mode first. Operations per
    /// prediction are the high-performance firmware's at its featurizer's
    /// input dimension.
    pub(crate) fn from_modes(
        kind: ModelKind,
        granularity: usize,
        per_mode: impl FnMut(Mode) -> (Featurizer, FirmwareModel),
    ) -> TrainedAdaptModel {
        let [(feat_hi, fw_hi), (feat_lo, fw_lo)] = [Mode::HighPerf, Mode::LowPower].map(per_mode);
        let ops_per_prediction = fw_hi.ops_per_prediction(feat_hi.input_dim());
        TrainedAdaptModel {
            kind,
            feat_hi,
            feat_lo,
            fw_hi,
            fw_lo,
            granularity,
            ops_per_prediction,
        }
    }

    /// The featurizer/firmware pair that serves telemetry observed in
    /// `mode` (the paper deploys one predictor per cluster configuration).
    pub fn mode_parts(&self, mode: Mode) -> (&Featurizer, &FirmwareModel) {
        match mode {
            Mode::HighPerf => (&self.feat_hi, &self.fw_hi),
            Mode::LowPower => (&self.feat_lo, &self.fw_lo),
        }
    }

    /// Gating decision from one prediction window observed in `mode`.
    ///
    /// # Panics
    /// Panics if the firmware rejects its own featurizer's output — that
    /// indicates a corrupted deployment, not a data problem. Fallible
    /// callers use [`Self::try_predict`].
    pub fn predict(&self, mode: Mode, rows: &[Vec<f64>], cycles: &[u64]) -> bool {
        self.try_predict(mode, rows, cycles)
            .expect("featurizer output matches firmware dimensionality")
    }

    /// Fallible gating decision: surfaces [`FirmwareError`] instead of
    /// panicking, so a degraded deployment can fall back gracefully.
    pub fn try_predict(
        &self,
        mode: Mode,
        rows: &[Vec<f64>],
        cycles: &[u64],
    ) -> Result<bool, FirmwareError> {
        let (feat, fw) = self.mode_parts(mode);
        fw.predict(&feat.featurize(rows, cycles))
    }

    /// Prediction granularity in instructions for a given base interval.
    pub fn granularity_insts(&self, interval_insts: u64) -> u64 {
        self.granularity as u64 * interval_insts
    }
}

/// Tunes a model's decision threshold ("sensitivity", §6.3): picks the
/// lowest threshold in a fixed grid whose tuning-set RSV stays at or
/// below `target_rsv`, maximizing seized opportunities subject to the
/// violation cap. Returns the chosen threshold.
///
/// When no grid value meets the target, the grid's top value (0.95) is
/// chosen anyway; the miss bumps `adapt.train.threshold_target_missed`
/// and emits a `warn` event carrying the target and the RSV reached.
pub fn tune_threshold(
    fw: &mut FirmwareModel,
    features: &Matrix,
    labels: &[u8],
    window: usize,
    target_rsv: f64,
) -> f64 {
    let scores: Vec<f64> = (0..features.rows())
        .map(|i| {
            fw.score(features.row(i))
                .expect("tuning features match firmware dimensionality")
        })
        .collect();
    let mut chosen = None;
    let mut rsv = f64::NAN;
    for &t in &[
        0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95,
    ] {
        let preds: Vec<u8> = scores.iter().map(|&s| (s >= t) as u8).collect();
        rsv = rate_of_sla_violations(labels, &preds, window);
        if rsv <= target_rsv {
            chosen = Some(t);
            break;
        }
    }
    let chosen = chosen.unwrap_or_else(|| {
        psca_obs::counter("adapt.train.threshold_target_missed").inc();
        psca_obs::emit(
            psca_obs::Level::Warn,
            "adapt.train.threshold_target_missed",
            &[("target_rsv", target_rsv.into()), ("rsv", rsv.into())],
        );
        0.95
    });
    fw.set_threshold(chosen);
    chosen
}

/// Convenience: the default threshold-tuning target used throughout
/// (the paper keeps tuning-set SLA violations below 1%, §6.3).
pub const THRESHOLD_TARGET_RSV: f64 = 0.01;

/// Fits a standard featurizer (standardizer) on a corpus and returns it
/// with the corpus in its feature space — one walk: the raw aggregated
/// set it was fit on, standardized in place rather than walked again.
pub fn fit_standard(
    corpus: &CorpusTelemetry,
    mode: Mode,
    events: &[Event],
    granularity: usize,
    sla: &Sla,
) -> (Featurizer, Dataset) {
    let raw = build_dataset(corpus, mode, events, granularity, sla);
    let standardizer = Standardizer::fit(&raw);
    let data = standardizer.transform_dataset(raw);
    let feat = Featurizer::Standard {
        events: events.to_vec(),
        standardizer,
    };
    (feat, data)
}

/// Fits a histogram featurizer (10 buckets, as Dubach et al. use) on a
/// corpus's projected windows and returns it with those windows
/// histogrammed — one walk.
pub fn fit_histogram(
    corpus: &CorpusTelemetry,
    mode: Mode,
    events: &[Event],
    granularity: usize,
    sla: &Sla,
) -> (Featurizer, Dataset) {
    let (windows, labels, groups) =
        walk_windows(corpus, mode, granularity, sla, HORIZON, |rows, _| {
            project_window(rows, events)
        });
    let all_rows: Vec<&[f64]> = windows.iter().flatten().map(Vec::as_slice).collect();
    let featurizer = HistogramFeaturizer::fit(&all_rows, 10);
    let rows: Vec<Vec<f64>> = windows
        .iter()
        .map(|w| histogram_window(&featurizer, w))
        .collect();
    let feat = Featurizer::Histogram {
        events: events.to_vec(),
        featurizer,
    };
    (feat, to_dataset(&rows, labels, groups))
}

/// Featurizes a corpus with a featurizer fitted elsewhere.
pub fn featurize_windows(
    feat: &Featurizer,
    corpus: &CorpusTelemetry,
    mode: Mode,
    granularity: usize,
    sla: &Sla,
) -> Dataset {
    walk_dataset(corpus, mode, granularity, sla, HORIZON, |rows, cycles| {
        feat.featurize(rows, cycles)
    })
}

/// The per-prediction violation window for a model at a config's base
/// interval (Eq. 2's `W`).
pub fn violation_window(cfg: &ExperimentConfig, granularity: usize) -> usize {
    cfg.sla
        .violation_window(cfg.interval_insts * granularity as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use psca_workloads::{Archetype, PhaseGenerator};

    fn tiny_corpus() -> CorpusTelemetry {
        corpus_of(12)
    }

    fn corpus_of(intervals: usize) -> CorpusTelemetry {
        let mut traces = Vec::new();
        for (i, a) in [Archetype::DepChain, Archetype::ScalarIlp]
            .iter()
            .enumerate()
        {
            let mut gen = PhaseGenerator::new(a.center(), i as u64 + 1);
            traces.push(crate::collect_paired(
                &mut gen, 2_000, intervals, 2_000, i as u32, "t", 1,
            ));
        }
        CorpusTelemetry { traces }
    }

    #[test]
    fn dataset_has_horizon_shifted_labels() {
        let corpus = tiny_corpus();
        let sla = Sla::paper_default();
        let d = build_dataset(&corpus, Mode::LowPower, &[Event::InstRetired], 1, &sla);
        // 12 intervals per trace, minus horizon 2 → 10 samples per trace.
        assert_eq!(d.len(), 20);
        assert_eq!(d.dim(), 1);
        assert_eq!(d.distinct_groups().len(), 2);
    }

    #[test]
    fn coarser_granularity_means_fewer_samples() {
        let corpus = tiny_corpus();
        let sla = Sla::paper_default();
        let fine = build_dataset(&corpus, Mode::LowPower, &[Event::StallCount], 1, &sla);
        let coarse = build_dataset(&corpus, Mode::LowPower, &[Event::StallCount], 3, &sla);
        assert!(coarse.len() < fine.len());
        assert_eq!(coarse.len(), 2 * (4 - HORIZON));
    }

    #[test]
    fn aggregate_window_is_cycle_weighted() {
        let rows = vec![vec![1.0; 56], vec![3.0; 56]];
        let cycles = vec![100u64, 300];
        let out = aggregate_window(&rows, &cycles, &[Event::Cycles]);
        assert!((out[0] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_window_matches_manual_renormalization() {
        use psca_telemetry::CounterBank;
        let mut bank = CounterBank::new();
        bank.add(Event::Cycles, 100);
        bank.add(Event::InstRetired, 100);
        bank.add(Event::L1dHits, 40);
        let a = bank.snapshot_and_reset();
        bank.add(Event::Cycles, 300);
        bank.add(Event::InstRetired, 300);
        bank.add(Event::L1dHits, 30);
        let b = bank.snapshot_and_reset();
        let rows = vec![a.as_slice().to_vec(), b.as_slice().to_vec()];
        let out = aggregate_window(
            &rows,
            &[a.cycles, b.cycles],
            &[Event::L1dHits, Event::InstRetired],
        );
        // (40 + 30) / 400 and (100 + 300) / 400.
        assert!((out[0] - 0.175).abs() < 1e-12);
        assert!((out[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_window_of_one_interval_reads_ipc() {
        let t = &tiny_corpus().traces[0];
        for i in 0..t.len() {
            let f = aggregate_window(
                &t.rows_hi[i..=i],
                &t.cycles_hi[i..=i],
                &[Event::InstRetired, Event::LoadsRetired],
            );
            assert_eq!(f.len(), 2);
            assert!(
                (f[0] - t.ipc_hi[i]).abs() < 1e-9,
                "InstRetired/cycle is IPC"
            );
        }
    }

    /// The set a training round fits its model on is the corpus
    /// featurized by the round's own featurizer, bit for bit.
    #[test]
    fn training_sets_equal_featurize_windows() {
        let corpus = corpus_of(20);
        let sla = Sla::paper_default();
        let events = [Event::StallCount, Event::InstRetired, Event::L1dMisses];
        for g in [1, 4] {
            for mode in [Mode::HighPerf, Mode::LowPower] {
                let standard = fit_standard(&corpus, mode, &events, g, &sla);
                let histogram = fit_histogram(&corpus, mode, &events, g, &sla);
                for (feat, data) in [standard, histogram] {
                    let walked = featurize_windows(&feat, &corpus, mode, g, &sla);
                    assert!(!data.is_empty());
                    assert_eq!(data.labels(), walked.labels());
                    assert_eq!(data.groups(), walked.groups());
                    assert_eq!(data.dim(), walked.dim());
                    for i in 0..data.len() {
                        let bits = |d: &Dataset| -> Vec<u64> {
                            d.features().row(i).iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&data), bits(&walked), "g {g} {mode} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_tuning_caps_rsv() {
        use psca_ml::{LogisticRegression, Matrix as M};
        // A model that confidently predicts positive on negative samples
        // must get its threshold raised.
        let x = M::from_rows(&[&[2.0], &[2.1], &[2.2], &[1.9], &[2.0], &[2.05]]);
        let labels = vec![0u8; 6];
        let train = Dataset::new(x.clone(), vec![1, 1, 1, 0, 0, 0], vec![0; 6]);
        let lr = LogisticRegression::fit(&train, 1e-4, 50);
        let mut fw = FirmwareModel::Logistic(lr);
        let t = tune_threshold(&mut fw, &x, &labels, 3, 0.01);
        let preds: Vec<u8> = (0..6)
            .map(|i| fw.predict(x.row(i)).unwrap() as u8)
            .collect();
        let rsv = rate_of_sla_violations(&labels, &preds, 3);
        assert!(rsv <= 0.01 || t >= 0.95, "rsv {rsv} at threshold {t}");
    }

    #[test]
    fn missed_threshold_target_is_counted() {
        use psca_ml::{LogisticRegression, Matrix as M};
        let x = M::from_rows(&[&[-4.0], &[-3.0], &[3.0], &[4.0]]);
        let train = Dataset::new(x, vec![0, 0, 1, 1], vec![0; 4]);
        let mut fw = FirmwareModel::Logistic(LogisticRegression::fit(&train, 1e-4, 100));
        // Every tuning sample scores near 1 but is labelled not gateable,
        // so even the grid's top threshold violates on every window.
        let tuning = M::from_rows(&[&[4.0][..]; 6]);
        let missed = psca_obs::counter("adapt.train.threshold_target_missed");
        let before = missed.get();
        let t = tune_threshold(&mut fw, &tuning, &[0; 6], 3, 0.01);
        assert_eq!(t, 0.95);
        // Other tests in this binary may tune concurrently, so the delta
        // is a lower bound.
        assert!(missed.get() > before, "the miss was not counted");
    }

    #[test]
    fn violation_window_uses_granularity() {
        let cfg = ExperimentConfig::quick();
        let w1 = violation_window(&cfg, 1);
        let w4 = violation_window(&cfg, 4);
        assert_eq!(w1, 8);
        assert_eq!(w4, 2);
    }

    #[test]
    fn walked_windows_have_granularity_rows() {
        let corpus = tiny_corpus();
        let sla = Sla::paper_default();
        let events = [Event::StallCount];
        let (windows, labels, groups) =
            walk_windows(&corpus, Mode::HighPerf, 3, &sla, HORIZON, |rows, _| {
                project_window(rows, &events)
            });
        assert_eq!(windows.len(), labels.len());
        assert_eq!(windows.len(), groups.len());
        assert!(windows.iter().all(|w| w.len() == 3));
        assert!(windows.iter().all(|w| w.iter().all(|r| r.len() == 1)));
    }
}
