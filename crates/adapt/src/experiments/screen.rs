//! The cross-validation machinery the design-time screens (Figures 4–6)
//! share — one fold body: standardize on the tuning split, fit an MLP,
//! predict the validation split, score PGOS and RSV — and the fan-out of
//! independent (configuration, cell) fits over `psca-exec` that Figures
//! 4, 5, 6 and 10 use.

use crate::train::{tune_threshold, THRESHOLD_TARGET_RSV};
use psca_ml::crossval::mean_std;
use psca_ml::metrics::{rate_of_sla_violations, Confusion};
use psca_ml::{Dataset, Mlp, MlpConfig, Standardizer};
use psca_uc::FirmwareModel;

/// Validation metrics of one fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldScore {
    pub pgos: f64,
    pub rsv: f64,
}

impl FoldScore {
    /// Scores 0/1 predictions against labels; RSV over violation window `w`.
    pub(crate) fn of(labels: &[u8], preds: &[u8], w: usize) -> FoldScore {
        FoldScore {
            pgos: Confusion::from_predictions(labels, preds).pgos(),
            rsv: rate_of_sla_violations(labels, preds, w),
        }
    }

    /// `(mean, std)` of PGOS and of RSV over folds, in fold order.
    pub(crate) fn summarize(scores: &[FoldScore]) -> ((f64, f64), (f64, f64)) {
        let pgos: Vec<f64> = scores.iter().map(|s| s.pgos).collect();
        let rsv: Vec<f64> = scores.iter().map(|s| s.rsv).collect();
        (mean_std(&pgos), mean_std(&rsv))
    }
}

/// One fold: standardizes on `tune_raw`, fits an MLP, optionally adjusts
/// its sensitivity to keep tuning-set RSV below 1% (§6.3), and scores it
/// on `val_raw` with violation window `w`.
pub(crate) fn fit_fold(
    tune_raw: &Dataset,
    val_raw: &Dataset,
    mlp_cfg: &MlpConfig,
    seed: u64,
    w: usize,
    tune_sensitivity: bool,
) -> (Mlp, FoldScore) {
    let std = Standardizer::fit(tune_raw);
    let tune = std.transform_dataset(tune_raw);
    let val = std.transform_dataset(val_raw);
    let mut mlp = Mlp::fit(mlp_cfg, &tune, seed);
    if tune_sensitivity {
        let mut fw = FirmwareModel::Mlp(mlp);
        tune_threshold(
            &mut fw,
            tune.features(),
            tune.labels(),
            w,
            THRESHOLD_TARGET_RSV,
        );
        let FirmwareModel::Mlp(tuned) = fw else {
            unreachable!("threshold tuning keeps the model variant")
        };
        mlp = tuned;
    }
    let preds: Vec<u8> = (0..val.len())
        .map(|i| mlp.predict(val.sample(i).0) as u8)
        .collect();
    let score = FoldScore::of(val.labels(), &preds, w);
    (mlp, score)
}

/// Runs `f(configuration, cell)` over `(configuration, cell)` pairs on
/// `jobs` workers and returns each of the `configs` configurations'
/// results in cell order.
///
/// Every cell carries its own seed, and results merge in cell order, so
/// the per-configuration lists (and every mean and std taken over them)
/// are independent of `jobs`.
pub(crate) fn sweep_grouped<C, R, F>(
    label: &str,
    jobs: usize,
    configs: usize,
    cells: Vec<(usize, C)>,
    f: F,
) -> Vec<Vec<R>>
where
    C: Send,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    let owners: Vec<usize> = cells.iter().map(|&(ci, _)| ci).collect();
    let results = psca_exec::Sweep::new(label)
        .jobs(jobs)
        .run(cells, |(ci, cell)| f(*ci, cell));
    let mut per_config: Vec<Vec<R>> = (0..configs).map(|_| Vec::new()).collect();
    for (ci, r) in owners.into_iter().zip(results) {
        per_config[ci].push(r);
    }
    per_config
}
