//! Table 1: HDTR corpus composition.

use crate::config::ExperimentConfig;
use psca_workloads::{composition, hdtr_corpus, Category, HdtrComposition};

/// Regenerated Table 1 plus the paper's reference values.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Composition of the synthesized corpus at the configured scale.
    pub ours: HdtrComposition,
    /// The paper's per-category application counts.
    pub paper: [usize; 6],
}

/// Builds the HDTR corpus and summarizes it.
pub fn run(cfg: &ExperimentConfig) -> Table1 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let corpus = hdtr_corpus(cfg.sub_seed("hdtr"), cfg.hdtr_apps, cfg.hdtr_phase_len);
    Table1 {
        ours: composition(&corpus),
        paper: Category::PAPER_APP_COUNTS,
    }
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 1 — HDTR corpus composition")?;
        writeln!(f, "{:35} {:>8} {:>12}", "Category", "ours", "paper (593)")?;
        for ((cat, n), paper) in self.ours.per_category.iter().zip(self.paper) {
            writeln!(f, "{:35} {:>8} {:>12}", cat.name(), n, paper)?;
        }
        writeln!(
            f,
            "total: {} applications, {} traces (paper: 593 / 2,648)",
            self.ours.total_apps, self.ours.total_traces
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper_proportions() {
        let mut cfg = ExperimentConfig::quick();
        cfg.hdtr_apps = 60;
        let t = run(&cfg);
        assert_eq!(t.ours.total_apps, 60);
        // HPC & Web are the two biggest categories in the paper; the
        // scaled corpus must preserve that ordering.
        let counts: Vec<usize> = t.ours.per_category.iter().map(|(_, n)| *n).collect();
        assert!(counts[0] >= counts[2], "HPC >= AI");
        assert!(counts[3] >= counts[2], "Web >= AI");
        assert!(t.to_string().contains("Table 1"));
    }
}
