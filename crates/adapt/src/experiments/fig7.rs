//! Figure 7: ideal low-power residency per SPEC benchmark.
//!
//! With an oracle (ground-truth) gating policy at `P_SLA = 90%`, the
//! paper's applications would ideally spend 45.7% of runtime gated.

use crate::config::ExperimentConfig;
use crate::paired::CorpusTelemetry;

/// Regenerated Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(benchmark, ideal residency)` rows.
    pub per_benchmark: Vec<(String, f64)>,
    /// Interval-weighted average residency across the suite.
    pub average: f64,
}

/// Computes ideal residency from the paired SPEC telemetry.
pub fn run(cfg: &ExperimentConfig, spec: &CorpusTelemetry) -> Fig7 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let mut per: Vec<(String, u64, u64)> = Vec::new(); // name, gateable, total
    for trace in &spec.traces {
        let labels = trace.labels(&cfg.sla);
        let gateable = labels.iter().map(|&y| y as u64).sum::<u64>();
        let total = labels.len() as u64;
        match per.iter_mut().find(|(n, _, _)| *n == trace.app_name) {
            Some((_, g, t)) => {
                *g += gateable;
                *t += total;
            }
            None => per.push((trace.app_name.clone(), gateable, total)),
        }
    }
    let (sum_g, sum_t) = per
        .iter()
        .fold((0u64, 0u64), |(g, t), (_, pg, pt)| (g + pg, t + pt));
    Fig7 {
        per_benchmark: per
            .into_iter()
            .map(|(n, g, t)| (n, g as f64 / t.max(1) as f64))
            .collect(),
        average: sum_g as f64 / sum_t.max(1) as f64,
    }
}

impl std::fmt::Display for Fig7 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 7 — ideal low-power residency per benchmark")?;
        for (name, r) in &self.per_benchmark {
            writeln!(f, "{:20} {:>5.1}%", name, 100.0 * r)?;
        }
        writeln!(f, "average: {:.1}% (paper: 45.7%)", 100.0 * self.average)
    }
}
