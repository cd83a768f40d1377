//! Figure 5: telemetry information content — number of counters vs PGOS
//! and RSV, and PF-selected vs expert-chosen counters (§6.2).

use super::screen::{crossval_sets, FoldScore};
use crate::config::ExperimentConfig;
use crate::counters::{run_counter_selection, CHARSTAR_COUNTERS};
use crate::paired::CorpusTelemetry;
use crate::train::{build_dataset, violation_window};
use psca_cpu::Mode;
use psca_ml::{Dataset, Mlp, MlpConfig};
use psca_telemetry::Event;
use psca_uc::{FirmwareModel, Model};

/// One point of the counter-count sweep.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Number of counters used.
    pub counters: usize,
    /// Mean / std of validation PGOS across folds.
    pub pgos: (f64, f64),
    /// Mean / std of validation RSV across folds.
    pub rsv: (f64, f64),
}

/// The regenerated figure.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// PF-selected counter sweep.
    pub pf_sweep: Vec<Fig5Point>,
    /// The expert (CHARSTAR) counter set's metrics at its 8 counters.
    pub expert: Fig5Point,
    /// The base events PF selection ordered (deduplicated prefix source).
    pub pf_order: Vec<Event>,
}

/// Cross-validated PGOS and RSV `(mean, std)` of an MLP on each
/// `(raw dataset, tag)`, with one parallel cell per (set, fold).
fn evaluate_counter_sets(
    cfg: &ExperimentConfig,
    sets: &[(Dataset, u64)],
) -> Vec<((f64, f64), (f64, f64))> {
    let mlp_cfg = MlpConfig {
        hidden: vec![32, 32, 16],
        epochs: 20,
        ..MlpConfig::default()
    };
    let scores = crossval_sets(
        "fig5.folds",
        cfg.jobs,
        sets,
        cfg.folds,
        cfg.sub_seed("fig5"),
        violation_window(cfg, 1),
        |tune, tag, fi| {
            let seed = cfg.sub_seed("fig5-mlp") ^ tag ^ fi as u64;
            FirmwareModel::new(Model::Mlp(Mlp::fit(&mlp_cfg, tune, seed)))
        },
    );
    scores
        .iter()
        .map(|s| {
            let [pgos, rsv, _] = FoldScore::summarize(s);
            (pgos, rsv)
        })
        .collect()
}

/// Runs the counter-count sweep and the PF-vs-expert comparison.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry) -> Fig5 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    // PF-order the counters once (greedy order → prefixes are nested).
    let max_traces = hdtr.traces.len().min(40);
    let selection = run_counter_selection(hdtr, cfg, Mode::LowPower, 32, max_traces);
    let mut pf_order: Vec<Event> = Vec::new();
    for e in &selection.selected_base_events {
        if !pf_order.contains(e) {
            pf_order.push(*e);
        }
    }
    let counts: Vec<usize> = [2usize, 4, 8, 12, 16, 24, 32]
        .into_iter()
        .take_while(|&r| r <= pf_order.len())
        .collect();
    // The PF prefixes, then the expert set last. One walk serves every
    // prefix: each aggregated column depends only on its own counter.
    let widest = counts.last().copied().unwrap_or(0);
    let pf = build_dataset(hdtr, Mode::LowPower, &pf_order[..widest], 1, &cfg.sla);
    let mut sets: Vec<(Dataset, u64)> = counts
        .iter()
        .map(|&r| (pf.select_features(&(0..r).collect::<Vec<_>>()), r as u64))
        .collect();
    let expert = build_dataset(hdtr, Mode::LowPower, &CHARSTAR_COUNTERS, 1, &cfg.sla);
    sets.push((expert, 999));
    let mut metrics = evaluate_counter_sets(cfg, &sets);
    let (pgos, rsv) = metrics.pop().expect("the expert set is evaluated");
    let expert = Fig5Point {
        counters: CHARSTAR_COUNTERS.len(),
        pgos,
        rsv,
    };
    let pf_sweep = counts
        .into_iter()
        .zip(metrics)
        .map(|(counters, (pgos, rsv))| Fig5Point {
            counters,
            pgos,
            rsv,
        })
        .collect();
    Fig5 {
        pf_sweep,
        expert,
        pf_order,
    }
}

impl std::fmt::Display for Fig5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 5 — counters vs PGOS / RSV (validation folds)")?;
        writeln!(
            f,
            "{:>9} {:>10} {:>10} {:>10} {:>10}",
            "counters", "PGOS avg", "PGOS std", "RSV avg", "RSV std"
        )?;
        for p in &self.pf_sweep {
            writeln!(
                f,
                "{:>9} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
                p.counters,
                100.0 * p.pgos.0,
                100.0 * p.pgos.1,
                100.0 * p.rsv.0,
                100.0 * p.rsv.1
            )?;
        }
        writeln!(
            f,
            "expert-8: PGOS {:.1}%+-{:.1}%, RSV {:.1}%+-{:.1}%",
            100.0 * self.expert.pgos.0,
            100.0 * self.expert.pgos.1,
            100.0 * self.expert.rsv.0,
            100.0 * self.expert.rsv.1
        )?;
        writeln!(
            f,
            "(paper: PF-12 improves RSV 3.6% -> 2.4% and halves its std vs expert counters)"
        )
    }
}
