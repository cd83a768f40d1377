//! Table 3: microcontroller budgets and per-model-class inference cost,
//! memory footprint, and gating performance.

use super::screen::{fit_fold, FoldScore};
use crate::config::ExperimentConfig;
use crate::counters::{CHARSTAR_COUNTERS, TABLE4_COUNTERS};
use crate::paired::CorpusTelemetry;
use crate::train::{build_dataset, violation_window};
use psca_cpu::Mode;
use psca_ml::crossval::group_folds;
use psca_ml::gbdt::{Gbdt, GbdtConfig};
use psca_ml::{
    Dataset, KernelSvm, LinearSvm, LogisticRegression, Mlp, MlpConfig, RandomForest,
    RandomForestConfig,
};
use psca_telemetry::Event;
use psca_uc::{ops_budget, BudgetRow, CpuSpec, FirmwareModel, McuSpec, Model};

/// One model-class row of Table 3's right panel.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Model class and configuration.
    pub description: String,
    /// Number of input counters.
    pub inputs: usize,
    /// Measured firmware operations per prediction.
    pub ops: u64,
    /// Measured parameter storage in bytes.
    pub memory_bytes: u64,
    /// Validation PGOS (single held-out application split).
    pub pgos: f64,
    /// The paper's reported ops, for comparison.
    pub paper_ops: u64,
    /// The paper's reported PGOS, for comparison.
    pub paper_pgos: f64,
}

/// Regenerated Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Budget rows (exact arithmetic, matches the paper bit-for-bit).
    pub budget: Vec<BudgetRow>,
    /// Model-class rows, sorted by measured PGOS descending.
    pub models: Vec<ModelRow>,
}

/// Trains every §5 model class on low-power-mode telemetry and measures
/// firmware cost + validation PGOS.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry) -> Table3 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let cpu = CpuSpec::paper();
    let mcu = McuSpec::paper();
    let budget = [10_000u64, 20_000, 30_000, 40_000, 50_000, 60_000, 100_000]
        .iter()
        .map(|&g| ops_budget(&cpu, &mcu, g))
        .collect();

    // One 80/20 by-application split for the PGOS column; each cell
    // standardizes its own copy of the tuning side. The CHARSTAR row uses
    // the 8 expert counters.
    let events: Vec<Event> = TABLE4_COUNTERS.to_vec();
    let raw = build_dataset(hdtr, Mode::LowPower, &events, 1, &cfg.sla);
    let raw8 = build_dataset(hdtr, Mode::LowPower, &CHARSTAR_COUNTERS, 1, &cfg.sla);
    let folds = group_folds(raw.groups(), 1, 0.2, cfg.sub_seed("table3"));
    let split = |data: &Dataset| (data.subset(&folds[0].tune), data.subset(&folds[0].validate));
    let w = violation_window(cfg, 1);
    let held_out = |data: &Dataset, fit: &dyn Fn(&Dataset) -> FirmwareModel| {
        let (tune, val) = split(data);
        fit_fold(tune, val, w, fit)
    };
    let seed = cfg.sub_seed("table3-models");

    // Each model class is an independent training cell: it carries its own
    // derived seed, so the pool can train the zoo concurrently while the
    // result vector keeps the original push order.
    type ModelCell<'a> = Box<dyn Fn() -> ModelRow + Send + Sync + 'a>;
    let cells: Vec<ModelCell> = vec![
        Box::new(|| {
            let config = MlpConfig {
                hidden: vec![32, 32, 16],
                ..MlpConfig::default()
            };
            let fold = held_out(&raw, &|tune| {
                FirmwareModel::new(Model::Mlp(Mlp::fit(&config, tune, seed)))
            });
            row(
                fold,
                "MLP 3 layers, 32/32/16 filters, ReLU",
                12,
                6_162,
                0.8138,
            )
        }),
        Box::new(|| {
            let config = RandomForestConfig {
                num_trees: 1,
                max_depth: 16,
                min_leaf: 1,
            };
            let fold = held_out(&raw, &|tune| {
                FirmwareModel::new(Model::Forest(RandomForest::fit(&config, tune, seed ^ 1)))
            });
            row(fold, "Decision Tree, max depth 16", 12, 133, 0.7778)
        }),
        // The χ² kernel assumes non-negative (histogram-like) inputs, so it
        // fits and is scored on the raw per-cycle counters rather than
        // standardized ones.
        Box::new(|| {
            let (tune, val) = split(&raw);
            let fw = FirmwareModel::new(Model::Chi2Svm(KernelSvm::fit_chi2(
                &tune,
                1e-4,
                (tune.len() * 4).min(12_000),
                1_000,
                seed ^ 2,
            )));
            let score = FoldScore::of_model(&fw, &val, w);
            row(
                (fw, score),
                "SVM, chi^2 kernel, <=1000 SVs",
                12,
                121_000,
                0.6754,
            )
        }),
        Box::new(|| {
            let config = RandomForestConfig {
                num_trees: 16,
                max_depth: 8,
                min_leaf: 2,
            };
            let fold = held_out(&raw, &|tune| {
                FirmwareModel::new(Model::Forest(RandomForest::fit(&config, tune, seed ^ 3)))
            });
            row(fold, "Random Forest, 16 trees, depth 8", 12, 1_074, 0.6667)
        }),
        Box::new(|| {
            let fold = held_out(&raw, &|tune| {
                let config = RandomForestConfig::best_rf();
                FirmwareModel::new(Model::Forest(RandomForest::fit(&config, tune, seed ^ 4)))
            });
            row(fold, "Random Forest, 8 trees, depth 8", 12, 538, 0.6568)
        }),
        Box::new(|| {
            let fold = held_out(&raw, &|tune| {
                FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), tune, seed ^ 5)))
            });
            row(fold, "MLP 3 layers, 8/8/4 filters, ReLU", 12, 678, 0.6099)
        }),
        Box::new(|| {
            let fold = held_out(&raw8, &|tune| {
                FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::charstar(), tune, seed ^ 6)))
            });
            row(
                fold,
                "MLP 1 layer, 10 filters (Ravi et al.)",
                8,
                292,
                0.5790,
            )
        }),
        Box::new(|| {
            let fold = held_out(&raw, &|tune| {
                let samples = (tune.len() * 8).min(20_000);
                FirmwareModel::new(Model::SvmEnsemble(LinearSvm::fit_ensemble(
                    tune,
                    5,
                    1e-3,
                    samples,
                    seed ^ 7,
                )))
            });
            row(fold, "SVM, linear kernel, 5-ensemble", 12, 412, 0.5450)
        }),
        Box::new(|| {
            let fold = held_out(&raw, &|tune| {
                FirmwareModel::new(Model::Logistic(LogisticRegression::fit(tune, 1e-4, 150)))
            });
            row(fold, "Logistic Regression", 12, 158, 0.3833)
        }),
        // Extension beyond the paper's zoo: gradient-boosted trees share the
        // forest's branch-free firmware kernel at lower depth.
        Box::new(|| {
            let fold = held_out(&raw, &|tune| {
                FirmwareModel::new(Model::Gbdt(Gbdt::fit(&GbdtConfig::default(), tune)))
            });
            row(fold, "Gradient Boosted Trees 8x4 (extension)", 12, 0, 0.0)
        }),
    ];
    let mut models = psca_exec::Sweep::new("table3.models")
        .jobs(cfg.jobs)
        .run(cells, |cell| cell());

    models.sort_by(|a, b| {
        b.pgos
            .partial_cmp(&a.pgos)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Table3 { budget, models }
}

/// A Table 3 row from a cell's held-out fit: firmware cost at `inputs`
/// counters, footprint, and validation PGOS.
fn row(
    (fw, score): (FirmwareModel, FoldScore),
    description: &str,
    inputs: usize,
    paper_ops: u64,
    paper_pgos: f64,
) -> ModelRow {
    ModelRow {
        description: description.to_string(),
        inputs,
        ops: fw.ops_per_prediction(inputs),
        memory_bytes: fw.memory_footprint_bytes(),
        pgos: score.pgos,
        paper_ops,
        paper_pgos,
    }
}

impl std::fmt::Display for Table3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 3 — microcontroller budgets (CPU 16,000 MIPS / uC 500 MIPS, 50% duty)"
        )?;
        writeln!(
            f,
            "{:>12} {:>10} {:>10}",
            "granularity", "max ops", "budget"
        )?;
        for b in &self.budget {
            writeln!(
                f,
                "{:>12} {:>10} {:>10}",
                b.granularity, b.max_ops, b.budget
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{:42} {:>3} {:>8} {:>10} {:>10} {:>7} {:>7}",
            "Model class", "in", "ops", "paper ops", "memory B", "PGOS", "paper"
        )?;
        for m in &self.models {
            let paper_ops = if m.paper_ops == 0 {
                "-".to_string()
            } else {
                m.paper_ops.to_string()
            };
            let paper_pgos = if m.paper_pgos == 0.0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * m.paper_pgos)
            };
            writeln!(
                f,
                "{:42} {:>3} {:>8} {:>10} {:>10} {:>6.1}% {:>7}",
                m.description,
                m.inputs,
                m.ops,
                paper_ops,
                m.memory_bytes,
                100.0 * m.pgos,
                paper_pgos
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::collect_paired;
    use psca_workloads::{Archetype, PhaseGenerator};

    #[test]
    fn table3_runs_and_preserves_cost_ordering() {
        let mut traces = Vec::new();
        for (i, a) in [
            Archetype::DepChain,
            Archetype::ScalarIlp,
            Archetype::MemBound,
            Archetype::Balanced,
            Archetype::Branchy,
        ]
        .iter()
        .enumerate()
        {
            let mut gen = PhaseGenerator::new(a.center(), i as u64 + 60);
            traces.push(collect_paired(&mut gen, 2_000, 16, 2_000, i as u32, "t", 1));
        }
        let corpus = CorpusTelemetry { traces };
        let cfg = ExperimentConfig::quick();
        let t = run(&cfg, &corpus);
        assert_eq!(t.budget[0].budget, 156);
        assert_eq!(t.models.len(), 10);
        let ops = |needle: &str| {
            t.models
                .iter()
                .find(|m| m.description.contains(needle))
                .unwrap()
                .ops
        };
        // The paper's cost ordering must hold (the χ² SVM's cost scales
        // with retained support vectors, so at test scale compare it with
        // the forest rather than the largest MLP).
        assert!(ops("chi^2") > ops("8 trees"));
        assert!(ops("32/32/16") > ops("8/8/4"));
        assert!(ops("8/8/4") > ops("Logistic"));
        assert!(ops("16 trees") > ops("8 trees"));
    }
}
