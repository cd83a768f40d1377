//! Table 2: the SPEC2017-like test-set inventory.

use crate::config::ExperimentConfig;
use psca_workloads::spec::{spec_suite, PAPER_TOTAL_SIMPOINTS};

/// One benchmark row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// FP-suite membership.
    pub is_fp: bool,
    /// Workload (input) count.
    pub workloads: usize,
    /// SimPoints traced.
    pub simpoints: usize,
}

/// Regenerated Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-benchmark rows.
    pub rows: Vec<Table2Row>,
    /// Total SimPoints (paper: 571).
    pub total_simpoints: usize,
}

/// Builds the suite and summarizes the inventory.
pub fn run(cfg: &ExperimentConfig) -> Table2 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let suite = spec_suite(cfg.sub_seed("spec"), cfg.spec_phase_len);
    let rows: Vec<Table2Row> = suite
        .iter()
        .map(|a| Table2Row {
            name: a.bench.name,
            is_fp: a.bench.is_fp,
            workloads: a.workloads.len(),
            simpoints: a.total_simpoints(),
        })
        .collect();
    let total_simpoints = rows.iter().map(|r| r.simpoints).sum();
    Table2 {
        rows,
        total_simpoints,
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 2 — SPEC2017 test set (workloads per benchmark)")?;
        writeln!(
            f,
            "{:20} {:>6} {:>10} {:>10}",
            "Benchmark", "suite", "workloads", "simpoints"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:20} {:>6} {:>10} {:>10}",
                r.name,
                if r.is_fp { "fp" } else { "int" },
                r.workloads,
                r.simpoints
            )?;
        }
        writeln!(
            f,
            "total SimPoints: {} (paper: {PAPER_TOTAL_SIMPOINTS})",
            self.total_simpoints
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_inventory() {
        let t = run(&ExperimentConfig::quick());
        assert_eq!(t.rows.len(), 20);
        assert_eq!(t.total_simpoints, PAPER_TOTAL_SIMPOINTS);
        let x264 = t.rows.iter().find(|r| r.name == "625.x264_s").unwrap();
        assert_eq!(x264.workloads, 12);
        assert!(!x264.is_fp);
    }
}
