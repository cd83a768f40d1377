//! Figure 8: PPW gain and RSV of every adaptation model on SPEC2017 (§7.1).

use crate::config::ExperimentConfig;
use crate::experiments::eval::{evaluate_model_on_corpus, ModelEvaluation};
use crate::paired::CorpusTelemetry;
use crate::train::ModelKind;
use crate::zoo;
use psca_workloads::spec::SPEC_BENCHMARKS;

/// One model's summary row.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Model identity.
    pub kind: ModelKind,
    /// Overall metrics.
    pub overall: ModelEvaluation,
    /// Metrics over the integer suite.
    pub int_suite: ModelEvaluation,
    /// Metrics over the FP suite.
    pub fp_suite: ModelEvaluation,
    /// The paper's reported (PPW gain, RSV) for reference.
    pub paper: (f64, f64),
}

/// Regenerated Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// One row per evaluated model.
    pub rows: Vec<Fig8Row>,
}

fn suite_split(spec: &CorpusTelemetry) -> (CorpusTelemetry, CorpusTelemetry) {
    let fp_names: std::collections::HashSet<&str> = SPEC_BENCHMARKS
        .iter()
        .filter(|b| b.is_fp)
        .map(|b| b.name)
        .collect();
    let mut int_suite = CorpusTelemetry::default();
    let mut fp_suite = CorpusTelemetry::default();
    for t in &spec.traces {
        if fp_names.contains(t.app_name.as_str()) {
            fp_suite.traces.push(t.clone());
        } else {
            int_suite.traces.push(t.clone());
        }
    }
    (int_suite, fp_suite)
}

/// Trains all five models on HDTR and evaluates them on SPEC.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry, spec: &CorpusTelemetry) -> Fig8 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let (int_suite, fp_suite) = suite_split(spec);
    let kinds = [
        (ModelKind::SrchCoarse, (0.058, 0.038)),
        (ModelKind::SrchFine, (0.118, 0.003)),
        (ModelKind::Charstar, (0.184, 0.109)),
        (ModelKind::BestMlp, (0.206, 0.015)),
        (ModelKind::BestRf, (0.219, 0.003)),
    ];
    let rows = kinds
        .iter()
        .map(|&(kind, paper)| {
            let model = zoo::train(kind, hdtr, cfg);
            Fig8Row {
                kind,
                overall: evaluate_model_on_corpus(&model, spec, cfg).overall,
                int_suite: evaluate_model_on_corpus(&model, &int_suite, cfg).overall,
                fp_suite: evaluate_model_on_corpus(&model, &fp_suite, cfg).overall,
                paper,
            }
        })
        .collect();
    Fig8 { rows }
}

impl std::fmt::Display for Fig8 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 8 — SPEC2017 PPW gain and RSV per adaptation model"
        )?;
        writeln!(
            f,
            "{:14} {:>9} {:>8} {:>9} {:>8} {:>9} {:>8} {:>16}",
            "model", "PPW", "RSV", "PPW int", "RSV int", "PPW fp", "RSV fp", "paper (PPW/RSV)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:14} {:>8.1}% {:>7.2}% {:>8.1}% {:>7.2}% {:>8.1}% {:>7.2}% {:>8.1}%/{:>5.2}%",
                r.kind.name(),
                100.0 * r.overall.ppw_gain,
                100.0 * r.overall.rsv,
                100.0 * r.int_suite.ppw_gain,
                100.0 * r.int_suite.rsv,
                100.0 * r.fp_suite.ppw_gain,
                100.0 * r.fp_suite.rsv,
                100.0 * r.paper.0,
                100.0 * r.paper.1
            )?;
        }
        Ok(())
    }
}
