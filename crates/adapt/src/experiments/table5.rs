//! Table 5: post-silicon SLA re-targeting (§7.3).
//!
//! The same physical design ships three different power/performance
//! characters by re-labeling the training telemetry under a more
//! permissive SLA, retraining Best RF, and pushing the model as firmware
//! ([`crate::postsilicon::retarget_sla`]).

use crate::config::ExperimentConfig;
use crate::experiments::eval::evaluate_model_on_corpus;
use crate::paired::CorpusTelemetry;
use crate::postsilicon::retarget_sla;

/// One SLA row.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// SLA performance-loss tolerance (P_SLA).
    pub p_sla: f64,
    /// Observed SLA violation rate.
    pub rsv: f64,
    /// PPW gain over the non-adaptive CPU.
    pub ppw_gain: f64,
    /// Average performance relative to always-high-performance.
    pub avg_perf: f64,
    /// The paper's (RSV, PPW gain, avg perf) reference.
    pub paper: (f64, f64, f64),
}

/// Regenerated Table 5.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Rows for P_SLA ∈ {0.9, 0.8, 0.7}.
    pub rows: Vec<Table5Row>,
}

/// Retrains Best RF under each SLA and evaluates on SPEC.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry, spec: &CorpusTelemetry) -> Table5 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let settings = [
        (0.90, (0.003, 0.219, 0.982)),
        (0.80, (0.002, 0.282, 0.958)),
        (0.70, (0.001, 0.314, 0.934)),
    ];
    let rows = settings
        .iter()
        .map(|&(p_sla, paper)| {
            let (c, model) = retarget_sla(cfg, hdtr, p_sla);
            let e = evaluate_model_on_corpus(&model, spec, &c);
            Table5Row {
                p_sla,
                rsv: e.overall.rsv,
                ppw_gain: e.overall.ppw_gain,
                avg_perf: e.overall.avg_perf,
                paper,
            }
        })
        .collect();
    Table5 { rows }
}

impl std::fmt::Display for Table5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 5 — post-silicon SLA re-targeting (Best RF on SPEC)"
        )?;
        writeln!(
            f,
            "{:>6} {:>8} {:>10} {:>10}   {:>24}",
            "P_SLA", "RSV", "PPW gain", "avg perf", "paper (RSV/PPW/perf)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6.2} {:>7.2}% {:>9.1}% {:>9.1}%   {:>6.2}%/{:>5.1}%/{:>5.1}%",
                r.p_sla,
                100.0 * r.rsv,
                100.0 * r.ppw_gain,
                100.0 * r.avg_perf,
                100.0 * r.paper.0,
                100.0 * r.paper.1,
                100.0 * r.paper.2
            )?;
        }
        Ok(())
    }
}
