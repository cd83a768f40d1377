//! Figure 6: MLP hyperparameter screening (§6.3).
//!
//! A high-throughput screen over 1–3-layer MLPs with 4–32 filters per
//! layer plots PGOS mean vs. std across validation folds; the winner is
//! the topology minimizing std while keeping a high mean — and within the
//! budget panel, restricted to nets affordable at a 50k-instruction
//! prediction interval.

use super::screen::{fit_fold, sweep_grouped, FoldScore};
use crate::config::ExperimentConfig;
use crate::counters::TABLE4_COUNTERS;
use crate::paired::CorpusTelemetry;
use crate::train::{build_dataset, tune_threshold, violation_window, THRESHOLD_TARGET_RSV};
use psca_cpu::Mode;
use psca_ml::crossval::group_folds;
use psca_ml::{Mlp, MlpConfig};
use psca_uc::{ops_budget, CpuSpec, FirmwareModel, McuSpec};

/// One screened network.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// PGOS mean across folds.
    pub pgos_mean: f64,
    /// PGOS std across folds.
    pub pgos_std: f64,
    /// RSV mean across folds.
    pub rsv_mean: f64,
    /// Firmware ops per prediction.
    pub ops: u64,
    /// Whether the net fits the 50k-instruction budget (781 ops).
    pub fits_50k_budget: bool,
}

/// The regenerated figure.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// All screened networks.
    pub points: Vec<Fig6Point>,
    /// Index of the selected topology (min std subject to high mean,
    /// within budget).
    pub selected: usize,
}

/// The topology grid: 1–3 layers × {4, 8, 16, 32} leading filters
/// (3-layer nets halve the final layer, as the paper's 8/8/4 does).
pub fn topology_grid() -> Vec<Vec<usize>> {
    let mut grid = Vec::new();
    for &f in &[4usize, 8, 16, 32] {
        grid.push(vec![f]);
        grid.push(vec![f, f]);
        grid.push(vec![f, f, (f / 2).max(2)]);
    }
    grid
}

/// Runs the screen.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry) -> Fig6 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let events = TABLE4_COUNTERS.to_vec();
    let raw = build_dataset(hdtr, Mode::LowPower, &events, 1, &cfg.sla);
    let w = violation_window(cfg, 1);
    let folds = group_folds(raw.groups(), cfg.folds, 0.2, cfg.sub_seed("fig6"));
    let budget_50k = ops_budget(&CpuSpec::paper(), &McuSpec::paper(), 50_000).budget;
    let grid = topology_grid();
    let cells = (0..grid.len())
        .flat_map(|ti| (0..folds.len()).map(move |fi| (ti, fi)))
        .collect();
    let results = sweep_grouped("fig6.folds", cfg.jobs, grid.len(), cells, |ti, &fi| {
        let mlp_cfg = MlpConfig {
            hidden: grid[ti].clone(),
            epochs: 20,
            ..MlpConfig::default()
        };
        let fold = &folds[fi];
        let seed = cfg.sub_seed("fig6-mlp") ^ fi as u64;
        let (tune, val) = (raw.subset(&fold.tune), raw.subset(&fold.validate));
        // Sensitivity tuning keeps tuning-set RSV below 1% (§6.3).
        let (fw, score) = fit_fold(tune, val, w, |tune| {
            let mut fw = FirmwareModel::Mlp(Mlp::fit(&mlp_cfg, tune, seed));
            tune_threshold(
                &mut fw,
                tune.features(),
                tune.labels(),
                w,
                THRESHOLD_TARGET_RSV,
            );
            fw
        });
        (score, fw.ops_per_prediction(events.len()))
    });
    let points: Vec<Fig6Point> = grid
        .into_iter()
        .zip(results)
        .map(|(hidden, folds)| {
            let ops = folds.last().map_or(0, |&(_, ops)| ops);
            let scores: Vec<FoldScore> = folds.into_iter().map(|(score, _)| score).collect();
            let [(pm, ps), (rm, _), _] = FoldScore::summarize(&scores);
            Fig6Point {
                hidden,
                pgos_mean: pm,
                pgos_std: ps,
                rsv_mean: rm,
                ops,
                fits_50k_budget: ops <= budget_50k,
            }
        })
        .collect();
    // Selection: among in-budget nets within 95% of the best in-budget
    // mean, minimize RSV first (the deployment-critical metric), breaking
    // near-ties by PGOS std.
    let best_mean = points
        .iter()
        .filter(|p| p.fits_50k_budget)
        .map(|p| p.pgos_mean)
        .fold(0.0f64, f64::max);
    let min_rsv = points
        .iter()
        .filter(|p| p.fits_50k_budget && p.pgos_mean >= 0.95 * best_mean)
        .map(|p| p.rsv_mean)
        .fold(f64::INFINITY, f64::min);
    let selected = points
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            p.fits_50k_budget && p.pgos_mean >= 0.95 * best_mean && p.rsv_mean <= min_rsv + 0.001
        })
        .min_by(|a, b| {
            a.1.pgos_std
                .partial_cmp(&b.1.pgos_std)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    Fig6 { points, selected }
}

impl std::fmt::Display for Fig6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 6 — MLP hyperparameter screen (PGOS mean vs std)")?;
        writeln!(
            f,
            "{:>16} {:>10} {:>10} {:>9} {:>6} {:>7} {:>9}",
            "topology", "PGOS avg", "PGOS std", "RSV avg", "ops", "<=50k?", "selected"
        )?;
        for (i, p) in self.points.iter().enumerate() {
            let topo = p
                .hidden
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("/");
            writeln!(
                f,
                "{:>16} {:>9.1}% {:>9.1}% {:>8.1}% {:>6} {:>7} {:>9}",
                topo,
                100.0 * p.pgos_mean,
                100.0 * p.pgos_std,
                100.0 * p.rsv_mean,
                p.ops,
                if p.fits_50k_budget { "yes" } else { "no" },
                if i == self.selected { "<==" } else { "" }
            )?;
        }
        writeln!(f, "(paper selects the 3-layer 8/8/4 net)")
    }
}
