//! Figure 4: training-set diversity mitigates blindspots (§6.1).
//!
//! A 3-layer 32/32/16 MLP is trained on low-power-mode telemetry with
//! tuning sets of 1 … N applications; k-fold cross-validation (by
//! application) characterizes PGOS mean ± std and RSV on held-out
//! applications.
//!
//! RSV here is computed over the pooled validation stream of each fold
//! (windows may span trace boundaries); the deployment experiments
//! (Figures 8–9) compute it per trace, as the paper specifies for
//! evaluation. Pooling only matters for these design-time screens, where
//! relative ordering across configurations is what is read off the plot.

use super::screen::{fit_fold, sweep_grouped, FoldScore};
use crate::config::ExperimentConfig;
use crate::counters::TABLE4_COUNTERS;
use crate::paired::CorpusTelemetry;
use crate::train::{build_dataset, violation_window};
use psca_cpu::Mode;
use psca_ml::crossval::group_folds;
use psca_ml::{Mlp, MlpConfig};
use psca_uc::{FirmwareModel, Model};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// One point of the Figure 4 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Point {
    /// Applications in the tuning set.
    pub apps: usize,
    /// Mean validation PGOS across folds.
    pub pgos_mean: f64,
    /// Std of validation PGOS across folds.
    pub pgos_std: f64,
    /// Mean validation RSV across folds.
    pub rsv_mean: f64,
    /// Std of validation RSV across folds.
    pub rsv_std: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Series points in ascending tuning-set size.
    pub points: Vec<Fig4Point>,
}

/// Tuning-set sizes as fractions of the corpus (the paper sweeps 1→440 of
/// 593 applications; scaled corpora sweep the same fractions).
fn sweep_sizes(total_apps: usize) -> Vec<usize> {
    let fracs = [0.0023, 0.012, 0.034, 0.08, 0.17, 0.34, 0.5, 0.74];
    let mut sizes: Vec<usize> = fracs
        .iter()
        .map(|f| ((total_apps as f64 * f).round() as usize).max(1))
        .collect();
    sizes.dedup();
    sizes
}

/// Runs the diversity sweep.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry) -> Fig4 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let events = TABLE4_COUNTERS.to_vec();
    let raw = build_dataset(hdtr, Mode::LowPower, &events, 1, &cfg.sla);
    let w = violation_window(cfg, 1);
    let folds = group_folds(raw.groups(), cfg.folds, 0.2, cfg.sub_seed("fig4"));
    let mlp_cfg = MlpConfig {
        hidden: vec![32, 32, 16],
        epochs: 20,
        ..MlpConfig::default()
    };
    // Draw every (size, fold) tuning subset serially from the one shared
    // stream, then fit the cells in parallel.
    let mut rng = StdRng::seed_from_u64(cfg.sub_seed("fig4-subset"));
    let sizes = sweep_sizes(raw.distinct_groups().len());
    let mut cells = Vec::new();
    for (si, &apps) in sizes.iter().enumerate() {
        for (fi, fold) in folds.iter().enumerate() {
            // Restrict the tuning side to `apps` distinct applications.
            let mut tune_apps = raw.subset(&fold.tune).distinct_groups();
            tune_apps.shuffle(&mut rng);
            tune_apps.truncate(apps);
            let keep: HashSet<u32> = tune_apps.into_iter().collect();
            let idx: Vec<usize> = fold
                .tune
                .iter()
                .copied()
                .filter(|&i| keep.contains(&raw.groups()[i]))
                .collect();
            if !idx.is_empty() {
                cells.push((si, (fi, idx)));
            }
        }
    }
    let scores = sweep_grouped(
        "fig4.folds",
        cfg.jobs,
        sizes.len(),
        cells,
        |_, (fi, idx)| {
            let tune = raw.subset(idx);
            let val = raw.subset(&folds[*fi].validate);
            if tune.positive_rate() == 0.0 || tune.positive_rate() == 1.0 {
                // Degenerate single-class tuning set (possible at 1 app):
                // the model predicts the constant class.
                let constant = (tune.positive_rate() == 1.0) as u8;
                let preds = vec![constant; val.len()];
                return FoldScore::of(val.labels(), &preds, w);
            }
            let seed = cfg.sub_seed("fig4-mlp") ^ *fi as u64;
            fit_fold(tune, val, w, |tune| {
                FirmwareModel::new(Model::Mlp(Mlp::fit(&mlp_cfg, tune, seed)))
            })
            .1
        },
    );
    let points = sizes
        .into_iter()
        .zip(&scores)
        .map(|(apps, scores)| {
            let [(pm, ps), (rm, rs), _] = FoldScore::summarize(scores);
            Fig4Point {
                apps,
                pgos_mean: pm,
                pgos_std: ps,
                rsv_mean: rm,
                rsv_std: rs,
            }
        })
        .collect();
    Fig4 { points }
}

impl std::fmt::Display for Fig4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 4 — training-set diversity vs blindspots")?;
        writeln!(
            f,
            "{:>6} {:>10} {:>10} {:>10} {:>10}",
            "apps", "PGOS avg", "PGOS std", "RSV avg", "RSV std"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>6} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
                p.apps,
                100.0 * p.pgos_mean,
                100.0 * p.pgos_std,
                100.0 * p.rsv_mean,
                100.0 * p.rsv_std
            )?;
        }
        writeln!(
            f,
            "(paper: PGOS std 10.8% @20 apps -> 5.0% @440; RSV 7.1% -> 2.8%)"
        )
    }
}
