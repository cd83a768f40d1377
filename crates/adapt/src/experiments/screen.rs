//! The held-out fold machinery of the design-time screens. One fold
//! body — standardize on the tuning side, fit, predict the validation
//! side, score PGOS, RSV and accuracy — serves Figures 4–6, Table 3 and
//! the horizon and normalization ablations; the fan-out of independent
//! (configuration, cell) fits over `psca-exec` serves those runners and
//! Figure 10.

use psca_ml::crossval::{group_folds, mean_std};
use psca_ml::metrics::{rate_of_sla_violations, Confusion};
use psca_ml::{Dataset, Standardizer};
use psca_uc::FirmwareModel;

/// Validation metrics of one fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldScore {
    pub pgos: f64,
    pub rsv: f64,
    pub accuracy: f64,
}

impl FoldScore {
    /// Scores 0/1 predictions against labels; RSV over violation window `w`.
    pub(crate) fn of(labels: &[u8], preds: &[u8], w: usize) -> FoldScore {
        let confusion = Confusion::from_predictions(labels, preds);
        FoldScore {
            pgos: confusion.pgos(),
            rsv: rate_of_sla_violations(labels, preds, w),
            accuracy: confusion.accuracy(),
        }
    }

    /// Scores a model's decisions on `val`, whatever its model family.
    ///
    /// # Panics
    /// Panics if `val`'s dimension is not the model's.
    pub(crate) fn of_model(fw: &FirmwareModel, val: &Dataset, w: usize) -> FoldScore {
        let preds: Vec<u8> = (0..val.len())
            .map(|i| {
                fw.predict(val.features().row(i))
                    .expect("input dimension matches the model") as u8
            })
            .collect();
        FoldScore::of(val.labels(), &preds, w)
    }

    /// `(mean, std)` of PGOS, RSV and accuracy over folds, in fold order.
    pub(crate) fn summarize(scores: &[FoldScore]) -> [(f64, f64); 3] {
        let stat = |metric: fn(&FoldScore) -> f64| {
            mean_std(&scores.iter().map(metric).collect::<Vec<f64>>())
        };
        [stat(|s| s.pgos), stat(|s| s.rsv), stat(|s| s.accuracy)]
    }
}

/// One fold: standardizes both sides on `tune`, fits a model on the
/// standardized tuning set with `fit`, and scores it on `val` with
/// violation window `w`.
pub(crate) fn fit_fold(
    tune: Dataset,
    val: Dataset,
    w: usize,
    fit: impl FnOnce(&Dataset) -> FirmwareModel,
) -> (FirmwareModel, FoldScore) {
    let std = Standardizer::fit(&tune);
    let tune = std.transform_dataset(tune);
    let val = std.transform_dataset(val);
    let fw = fit(&tune);
    let score = FoldScore::of_model(&fw, &val, w);
    (fw, score)
}

/// Cross-validates each `(dataset, tag)` set: draws `folds`
/// by-application folds per set (seeded `fold_seed ^ tag`), runs every
/// (set, fold) cell through [`fit_fold`] on `jobs` workers with
/// `fit(tuning set, tag, fold index)`, and returns each set's scores in
/// fold order.
pub(crate) fn crossval_sets(
    label: &str,
    jobs: usize,
    sets: &[(Dataset, u64)],
    folds: usize,
    fold_seed: u64,
    w: usize,
    fit: impl Fn(&Dataset, u64, usize) -> FirmwareModel + Sync,
) -> Vec<Vec<FoldScore>> {
    let splits: Vec<_> = sets
        .iter()
        .map(|(data, tag)| group_folds(data.groups(), folds, 0.2, fold_seed ^ tag))
        .collect();
    let cells = splits
        .iter()
        .enumerate()
        .flat_map(|(si, folds)| (0..folds.len()).map(move |fi| (si, fi)))
        .collect();
    sweep_grouped(label, jobs, sets.len(), cells, |si, &fi| {
        let (data, tag) = &sets[si];
        let fold = &splits[si][fi];
        let (tune, val) = (data.subset(&fold.tune), data.subset(&fold.validate));
        fit_fold(tune, val, w, |tune| fit(tune, *tag, fi)).1
    })
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
