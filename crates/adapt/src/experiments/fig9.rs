//! Figure 9: per-benchmark PPW and RSV, CHARSTAR vs Best RF (§7.1).
//!
//! This is the blindspot exhibit: CHARSTAR's expert-counter MLP posts
//! catastrophic RSV on specific FP benchmarks (77.8% on `654.roms_s`)
//! while Best RF stays below 1% everywhere.

use crate::config::ExperimentConfig;
use crate::experiments::eval::{evaluate_model_on_corpus, ModelEvaluation};
use crate::paired::CorpusTelemetry;
use crate::train::ModelKind;
use crate::zoo;

/// One benchmark's comparison row.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: String,
    /// CHARSTAR metrics.
    pub charstar: ModelEvaluation,
    /// Best RF metrics.
    pub best_rf: ModelEvaluation,
}

/// Regenerated Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig9Row>,
    /// Suite-wide (CHARSTAR, Best RF) summaries.
    pub overall: (ModelEvaluation, ModelEvaluation),
}

/// Trains both models on HDTR and breaks results out per benchmark.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry, spec: &CorpusTelemetry) -> Fig9 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let charstar = zoo::train(ModelKind::Charstar, hdtr, cfg);
    let best_rf = zoo::train(ModelKind::BestRf, hdtr, cfg);
    let ce = evaluate_model_on_corpus(&charstar, spec, cfg);
    let re = evaluate_model_on_corpus(&best_rf, spec, cfg);
    let rows = ce
        .per_app
        .iter()
        .map(|(name, cm)| Fig9Row {
            name: name.clone(),
            charstar: *cm,
            best_rf: *re.app(name).unwrap_or(&ModelEvaluation::default()),
        })
        .collect();
    Fig9 {
        rows,
        overall: (ce.overall, re.overall),
    }
}

impl Fig9 {
    /// The worst per-benchmark RSV each model exhibits.
    pub fn worst_rsv(&self) -> (f64, f64) {
        let c = self
            .rows
            .iter()
            .map(|r| r.charstar.rsv)
            .fold(0.0f64, f64::max);
        let b = self
            .rows
            .iter()
            .map(|r| r.best_rf.rsv)
            .fold(0.0f64, f64::max);
        (c, b)
    }
}

impl std::fmt::Display for Fig9 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 9 — per-benchmark PPW / RSV: CHARSTAR vs Best RF")?;
        writeln!(
            f,
            "{:20} {:>9} {:>8} {:>9} {:>8}",
            "benchmark", "CHR PPW", "CHR RSV", "RF PPW", "RF RSV"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:20} {:>8.1}% {:>7.2}% {:>8.1}% {:>7.2}%",
                r.name,
                100.0 * r.charstar.ppw_gain,
                100.0 * r.charstar.rsv,
                100.0 * r.best_rf.ppw_gain,
                100.0 * r.best_rf.rsv
            )?;
        }
        let (wc, wb) = self.worst_rsv();
        writeln!(
            f,
            "overall: CHARSTAR PPW {:.1}% / RSV {:.2}% (worst {:.1}%), Best RF PPW {:.1}% / RSV {:.2}% (worst {:.1}%)",
            100.0 * self.overall.0.ppw_gain,
            100.0 * self.overall.0.rsv,
            100.0 * wc,
            100.0 * self.overall.1.ppw_gain,
            100.0 * self.overall.1.rsv,
            100.0 * wb
        )?;
        writeln!(
            f,
            "(paper: CHARSTAR hits 77.8% RSV on roms_s; Best RF < 1% everywhere)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(ppw: f64, rsv: f64) -> ModelEvaluation {
        ModelEvaluation {
            ppw_gain: ppw,
            rsv,
            ..ModelEvaluation::default()
        }
    }

    #[test]
    fn worst_rsv_scans_rows() {
        let fig = Fig9 {
            rows: vec![
                Fig9Row {
                    name: "a".into(),
                    charstar: eval(0.2, 0.05),
                    best_rf: eval(0.2, 0.01),
                },
                Fig9Row {
                    name: "roms".into(),
                    charstar: eval(0.1, 0.778),
                    best_rf: eval(0.2, 0.003),
                },
            ],
            overall: (eval(0.184, 0.109), eval(0.219, 0.003)),
        };
        let (c, b) = fig.worst_rsv();
        assert!((c - 0.778).abs() < 1e-12);
        assert!((b - 0.01).abs() < 1e-12);
        let text = fig.to_string();
        assert!(text.contains("roms"));
        assert!(text.contains("77.80%"));
    }
}
