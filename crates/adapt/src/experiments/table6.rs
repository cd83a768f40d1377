//! Table 6: application-specific model retraining (§7.3).
//!
//! For data-center applications executed repeatedly, a customer traces
//! initial executions; a 4-tree forest trained on that application is
//! combined with a 4-tree high-diversity forest into the 8-tree Best RF
//! shape (see [`crate::postsilicon`]), then deployed for *future*
//! workloads (different inputs) — evaluated here with
//! leave-one-workload-out cross-validation.

use crate::config::ExperimentConfig;
use crate::experiments::eval::evaluate_model_on_corpus;
use crate::paired::CorpusTelemetry;
use crate::postsilicon::{train_app_specific, train_hdtr_halves};
use crate::train::ModelKind;
use crate::zoo;

/// One benchmark row.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Benchmark name.
    pub name: String,
    /// General Best RF PPW gain on held-out workloads.
    pub general_ppw: f64,
    /// Application-specific PPW gain on held-out workloads.
    pub specific_ppw: f64,
    /// General Best RF RSV.
    pub general_rsv: f64,
    /// Application-specific RSV.
    pub specific_rsv: f64,
}

/// Regenerated Table 6.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Rows sorted by PPW improvement, descending (as the paper prints).
    pub rows: Vec<Table6Row>,
}

/// Minimum workloads an application needs to qualify (paper: 5).
pub const MIN_WORKLOADS: usize = 5;

/// Runs the leave-one-workload-out comparison.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry, spec: &CorpusTelemetry) -> Table6 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let general = zoo::train(ModelKind::BestRf, hdtr, cfg);
    let general_eval = evaluate_model_on_corpus(&general, spec, cfg);
    let halves = train_hdtr_halves(cfg, hdtr, general.granularity);

    let mut rows = Vec::new();
    for &app in &spec.app_ids() {
        let app_corpus = spec.filter_apps(&[app]);
        let name = app_corpus.traces[0].app_name.clone();
        let workloads: Vec<u64> = {
            let mut seen = std::collections::HashSet::new();
            app_corpus
                .traces
                .iter()
                .filter(|t| seen.insert(t.workload))
                .map(|t| t.workload)
                .collect()
        };
        if workloads.len() < MIN_WORKLOADS {
            continue;
        }
        // Headroom filter: the paper only evaluates applications where the
        // general model seizes < 95% of opportunities.
        if general_eval.app(&name).is_none_or(|m| m.pgos >= 0.95) {
            continue;
        }
        let mut gen_acc: (f64, f64, f64) = (0.0, 0.0, 0.0); // ppw, rsv, n
        let mut spec_acc: (f64, f64) = (0.0, 0.0);
        for &held in &workloads {
            let tune_corpus = CorpusTelemetry {
                traces: app_corpus
                    .traces
                    .iter()
                    .filter(|t| t.workload != held)
                    .cloned()
                    .collect(),
            };
            let held_corpus = CorpusTelemetry {
                traces: app_corpus
                    .traces
                    .iter()
                    .filter(|t| t.workload == held)
                    .cloned()
                    .collect(),
            };
            let specific =
                train_app_specific(cfg, &halves, &tune_corpus, cfg.sub_seed("t6") ^ held);
            let ge = evaluate_model_on_corpus(&general, &held_corpus, cfg).overall;
            let se = evaluate_model_on_corpus(&specific, &held_corpus, cfg).overall;
            gen_acc.0 += ge.ppw_gain;
            gen_acc.1 += ge.rsv;
            gen_acc.2 += 1.0;
            spec_acc.0 += se.ppw_gain;
            spec_acc.1 += se.rsv;
        }
        let n = gen_acc.2.max(1.0);
        rows.push(Table6Row {
            name,
            general_ppw: gen_acc.0 / n,
            specific_ppw: spec_acc.0 / n,
            general_rsv: gen_acc.1 / n,
            specific_rsv: spec_acc.1 / n,
        });
    }
    rows.sort_by(|a, b| {
        let da = a.specific_ppw - a.general_ppw;
        let db = b.specific_ppw - b.general_ppw;
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    Table6 { rows }
}

impl Table6 {
    /// How many applications improve with application-specific training.
    pub fn improved(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.specific_ppw > r.general_ppw)
            .count()
    }
}

impl std::fmt::Display for Table6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 6 — application-specific RF retraining (leave-one-workload-out)"
        )?;
        writeln!(
            f,
            "{:20} {:>9} {:>9} {:>7} {:>9} {:>9}",
            "benchmark", "gen PPW", "app PPW", "delta", "gen RSV", "app RSV"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:20} {:>8.1}% {:>8.1}% {:>+6.1}% {:>8.2}% {:>8.2}%",
                r.name,
                100.0 * r.general_ppw,
                100.0 * r.specific_ppw,
                100.0 * (r.specific_ppw - r.general_ppw),
                100.0 * r.general_rsv,
                100.0 * r.specific_rsv
            )?;
        }
        writeln!(
            f,
            "{} of {} applications improve (paper: 8 of 11, up to +8.5%)",
            self.improved(),
            self.rows.len()
        )
    }
}
