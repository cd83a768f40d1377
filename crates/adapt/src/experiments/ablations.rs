//! Ablation benches for design choices called out in `DESIGN.md`:
//! steering policy, prediction horizon, and counter normalization.

use super::screen::{crossval_sets, FoldScore};
use crate::config::ExperimentConfig;
use crate::counters::TABLE4_COUNTERS;
use crate::paired::CorpusTelemetry;
use crate::train::{aggregate_window, build_dataset, violation_window, walk_dataset, HORIZON};
use psca_cpu::{ClusterSim, CpuConfig, Mode, SteerPolicy};
use psca_ml::{Dataset, RandomForest, RandomForestConfig};
use psca_telemetry::Event;
use psca_uc::{FirmwareModel, Model};
use psca_workloads::{Archetype, PhaseGenerator};

/// Steering-policy ablation: high-performance-mode IPC per archetype.
#[derive(Debug, Clone)]
pub struct SteeringAblation {
    /// `(archetype, dependence-aware IPC, round-robin IPC)` rows.
    pub rows: Vec<(Archetype, f64, f64)>,
}

/// Compares dependence-aware steering with blind round-robin.
pub fn steering(cfg: &ExperimentConfig) -> SteeringAblation {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let insts = 16 * cfg.interval_insts;
    let archetypes = [
        Archetype::ScalarIlp,
        Archetype::DepChain,
        Archetype::StreamFpWide,
        Archetype::Balanced,
    ];
    // One sweep cell per (archetype, policy) simulation.
    let cells: Vec<(Archetype, SteerPolicy)> = archetypes
        .iter()
        .flat_map(|&a| {
            [
                (a, SteerPolicy::DependenceAware),
                (a, SteerPolicy::RoundRobin),
            ]
        })
        .collect();
    let ipcs = psca_exec::Sweep::new("ablations.steering")
        .jobs(cfg.jobs)
        .run(cells, |&(a, policy)| {
            let mut cpu_cfg = CpuConfig::skylake_scaled();
            cpu_cfg.steer_policy = policy;
            let mut sim = ClusterSim::new(cpu_cfg);
            let mut gen = PhaseGenerator::new(a.center(), cfg.sub_seed("steer"));
            sim.warm_up(&mut gen, insts / 2);
            sim.run_interval(&mut gen, insts).map_or(0.0, |r| r.ipc())
        });
    let rows = archetypes
        .iter()
        .zip(ipcs.chunks(2))
        .map(|(&a, ipc)| (a, ipc[0], ipc[1]))
        .collect();
    SteeringAblation { rows }
}

impl std::fmt::Display for SteeringAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Ablation — steering policy (8-wide mode IPC)")?;
        writeln!(
            f,
            "{:16} {:>12} {:>12}",
            "archetype", "dep-aware", "round-robin"
        )?;
        for (a, d, r) in &self.rows {
            writeln!(f, "{:16} {:>12.2} {:>12.2}", format!("{a:?}"), d, r)?;
        }
        Ok(())
    }
}

/// Horizon / normalization ablation point.
#[derive(Debug, Clone)]
pub struct PredictionAblation {
    /// Variant label.
    pub label: String,
    /// Validation PGOS mean.
    pub pgos: f64,
    /// Validation RSV mean.
    pub rsv: f64,
    /// Validation accuracy mean.
    pub accuracy: f64,
}

/// Cross-validated Best-RF PGOS, RSV and accuracy means of each
/// `(label, dataset, tag)` variant: folds seeded `sub_seed("abl") ^ tag`,
/// fold `fi`'s forest seeded `tag ^ fi`.
fn rf_variant_scores(
    cfg: &ExperimentConfig,
    variants: Vec<(String, Dataset, u64)>,
) -> Vec<PredictionAblation> {
    let (labels, sets): (Vec<String>, Vec<(Dataset, u64)>) = variants
        .into_iter()
        .map(|(label, data, tag)| (label, (data, tag)))
        .unzip();
    let scores = crossval_sets(
        "ablations.folds",
        cfg.jobs,
        &sets,
        cfg.folds.min(8),
        cfg.sub_seed("abl"),
        violation_window(cfg, 1),
        |tune, tag, fi| {
            let rf = RandomForest::fit(&RandomForestConfig::best_rf(), tune, tag ^ fi as u64);
            FirmwareModel::new(Model::Forest(rf))
        },
    );
    labels
        .into_iter()
        .zip(&scores)
        .map(|(label, scores)| {
            let [(pgos, _), (rsv, _), (accuracy, _)] = FoldScore::summarize(scores);
            PredictionAblation {
                label,
                pgos,
                rsv,
                accuracy,
            }
        })
        .collect()
}

/// Horizon ablation: reactive (t), no-compute-time (t+1), and the
/// paper's design point (t+2).
pub fn horizon(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry) -> Vec<PredictionAblation> {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let events: Vec<Event> = TABLE4_COUNTERS.to_vec();
    let variants = [0usize, 1, 2]
        .into_iter()
        .map(|h| {
            let data = walk_dataset(hdtr, Mode::LowPower, 1, &cfg.sla, h, |rows, cycles| {
                aggregate_window(rows, cycles, &events)
            });
            (format!("predict t+{h}"), data, h as u64)
        })
        .collect();
    rf_variant_scores(cfg, variants)
}

/// Normalization ablation: per-cycle-normalized counters (the paper's
/// choice, §4.1) vs raw per-interval counts.
pub fn normalization(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry) -> Vec<PredictionAblation> {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let events: Vec<Event> = TABLE4_COUNTERS.to_vec();
    let normalized = build_dataset(hdtr, Mode::LowPower, &events, 1, &cfg.sla);
    // Raw counts: each one-interval window's normalized row times its
    // cycles.
    let raw = walk_dataset(
        hdtr,
        Mode::LowPower,
        1,
        &cfg.sla,
        HORIZON,
        |rows, cycles| {
            let cyc = cycles[0] as f64;
            events.iter().map(|e| rows[0][e.index()] * cyc).collect()
        },
    );
    rf_variant_scores(
        cfg,
        vec![
            ("cycle-normalized counters".into(), normalized, 100),
            ("raw per-interval counts".into(), raw, 101),
        ],
    )
}

/// Cluster-width sensitivity: IPC of both modes as the per-cluster issue
/// width scales (the 4-wide cluster of the paper's design vs narrower and
/// wider alternatives).
#[derive(Debug, Clone)]
pub struct WidthAblation {
    /// `(cluster width, archetype, hi IPC, lo IPC)` rows.
    pub rows: Vec<(u32, Archetype, f64, f64)>,
}

/// Sweeps per-cluster issue width.
pub fn cluster_width(cfg: &ExperimentConfig) -> WidthAblation {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let insts = 16 * cfg.interval_insts;
    let mut points = Vec::new();
    for &width in &[2u32, 4, 6] {
        for &a in &[
            Archetype::ScalarIlp,
            Archetype::DepChain,
            Archetype::Balanced,
        ] {
            points.push((width, a));
        }
    }
    // One sweep cell per (width, archetype, mode) simulation.
    let cells: Vec<(u32, Archetype, Mode)> = points
        .iter()
        .flat_map(|&(w, a)| [(w, a, Mode::HighPerf), (w, a, Mode::LowPower)])
        .collect();
    let ipcs =
        psca_exec::Sweep::new("ablations.width")
            .jobs(cfg.jobs)
            .run(cells, |&(width, a, mode)| {
                let mut cpu_cfg = CpuConfig::skylake_scaled();
                cpu_cfg.cluster_width = width;
                let mut sim = ClusterSim::new(cpu_cfg);
                sim.set_mode(mode);
                let mut gen = PhaseGenerator::new(a.center(), cfg.sub_seed("width"));
                sim.warm_up(&mut gen, insts / 2);
                sim.run_interval(&mut gen, insts).map_or(0.0, |r| r.ipc())
            });
    let rows = points
        .iter()
        .zip(ipcs.chunks(2))
        .map(|(&(w, a), ipc)| (w, a, ipc[0], ipc[1]))
        .collect();
    WidthAblation { rows }
}

impl std::fmt::Display for WidthAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Ablation — per-cluster issue width")?;
        writeln!(
            f,
            "{:>6} {:16} {:>8} {:>8} {:>8}",
            "width", "archetype", "hi IPC", "lo IPC", "ratio"
        )?;
        for (w, a, hi, lo) in &self.rows {
            writeln!(
                f,
                "{:>6} {:16} {:>8.2} {:>8.2} {:>8.3}",
                w,
                format!("{a:?}"),
                hi,
                lo,
                lo / hi.max(1e-12)
            )?;
        }
        Ok(())
    }
}

/// DVFS × cluster-gating complementarity (§2.1): energy and performance
/// of the four technique combinations over a corpus, with gating driven
/// by oracle labels so the comparison isolates the *architecture*.
#[derive(Debug, Clone)]
pub struct DvfsAblation {
    /// `(label, relative performance, PPW gain vs baseline)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

/// Measures DVFS-only, gating-only, and combined configurations against
/// the static high-performance baseline at the reference operating point.
pub fn dvfs(cfg: &ExperimentConfig, corpus: &CorpusTelemetry) -> DvfsAblation {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    use psca_cpu::{DvfsGovernor, DvfsModel};
    let model = DvfsModel::skylake_scaled();
    let llc = Event::LlcMisses.index();
    // Accumulators: (time_ns, energy, insts) per configuration.
    let mut acc = [(0.0f64, 0.0f64, 0u64); 4];
    for trace in &corpus.traces {
        let labels = trace.labels(&cfg.sla);
        let mut governor_hi = DvfsGovernor::new(model.clone(), 0.05);
        let mut governor_both = DvfsGovernor::new(model.clone(), 0.05);
        for (t, &label) in labels.iter().enumerate() {
            let gate = label == 1;
            let (cyc_hi, e_hi, miss_hi) = (
                trace.cycles_hi[t],
                trace.energy_hi[t],
                trace.rows_hi[t][llc],
            );
            let (cyc_g, e_g, miss_g) = if gate {
                (
                    trace.cycles_lo[t],
                    trace.energy_lo[t],
                    trace.rows_lo[t][llc],
                )
            } else {
                (cyc_hi, e_hi, miss_hi)
            };
            // (0) baseline: high-perf @ reference.
            let (t0, e0) = model.project_raw(cyc_hi, miss_hi, e_hi, model.reference());
            acc[0].0 += t0;
            acc[0].1 += e0;
            acc[0].2 += trace.insts[t];
            // (1) DVFS only: governor over high-perf intervals.
            let p = governor_hi.current();
            let (t1, e1) = model.project_raw(cyc_hi, miss_hi, e_hi, p);
            acc[1].0 += t1;
            acc[1].1 += e1;
            acc[1].2 += trace.insts[t];
            // Governor reacts to the observed interval for the next one.
            observe(&mut governor_hi, cyc_hi, miss_hi, e_hi);
            // (2) gating only @ reference.
            let (t2, e2) = model.project_raw(cyc_g, miss_g, e_g, model.reference());
            acc[2].0 += t2;
            acc[2].1 += e2;
            acc[2].2 += trace.insts[t];
            // (3) both.
            let p = governor_both.current();
            let (t3, e3) = model.project_raw(cyc_g, miss_g, e_g, p);
            acc[3].0 += t3;
            acc[3].1 += e3;
            acc[3].2 += trace.insts[t];
            observe(&mut governor_both, cyc_g, miss_g, e_g);
        }
    }
    let base_ppw = acc[0].2 as f64 / acc[0].1;
    let base_time = acc[0].0;
    let labels = [
        "baseline (hi @ ref)",
        "DVFS only",
        "gating only",
        "DVFS + gating",
    ];
    let rows = labels
        .iter()
        .zip(acc.iter())
        .map(|(l, &(t, e, i))| {
            (
                l.to_string(),
                base_time / t.max(1e-12),
                (i as f64 / e.max(1e-12)) / base_ppw - 1.0,
            )
        })
        .collect();
    DvfsAblation { rows }
}

/// Steps `governor` on one interval's raw quantities, as the interval's
/// counter snapshot would report them: at least one cycle, and the LLC
/// miss rate of a whole miss count over those cycles.
fn observe(governor: &mut psca_cpu::DvfsGovernor, cycles: u64, llc_per_cycle: f64, energy: f64) {
    let misses = (llc_per_cycle * cycles as f64).round() as u64;
    let cycles = cycles.max(1);
    governor.step(cycles, misses as f64 / cycles as f64, energy);
}

impl std::fmt::Display for DvfsAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation — DVFS x cluster gating (oracle gating, 5% DVFS slack)"
        )?;
        writeln!(
            f,
            "{:22} {:>10} {:>10}",
            "configuration", "rel perf", "PPW gain"
        )?;
        for (l, perf, ppw) in &self.rows {
            writeln!(f, "{:22} {:>9.1}% {:>9.1}%", l, 100.0 * perf, 100.0 * ppw)?;
        }
        writeln!(
            f,
            "(the paper's §2.1 claim: gating still adds PPW on top of DVFS at V_min)"
        )
    }
}

/// Guardrail ablation row: one model with and without the §3.1 fail-safe.
#[derive(Debug, Clone)]
pub struct GuardrailAblation {
    /// `(model, without-guardrail, with-guardrail)` metric pairs.
    pub rows: Vec<(
        String,
        crate::experiments::eval::ModelEvaluation,
        crate::experiments::eval::ModelEvaluation,
    )>,
}

/// Measures how the fail-safe guardrail masks blindspots (RSV drops) at a
/// PPW cost — the reason the paper minimizes violations *before* relying
/// on guardrails ("so that guardrails may be set as permissively as
/// possible", §3.1).
pub fn guardrail(
    cfg: &ExperimentConfig,
    hdtr: &CorpusTelemetry,
    spec: &CorpusTelemetry,
) -> GuardrailAblation {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    use crate::experiments::eval::evaluate_with_guardrail;
    use crate::guardrail::GuardrailConfig;
    use crate::train::ModelKind;
    let rows = [ModelKind::Charstar, ModelKind::BestRf]
        .iter()
        .map(|&kind| {
            let model = crate::zoo::train(kind, hdtr, cfg);
            let without = evaluate_with_guardrail(&model, spec, cfg, None).overall;
            let with = evaluate_with_guardrail(&model, spec, cfg, Some(GuardrailConfig::default()))
                .overall;
            (kind.name().to_string(), without, with)
        })
        .collect();
    GuardrailAblation { rows }
}

impl std::fmt::Display for GuardrailAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Ablation — fail-safe guardrail (SPEC test set)")?;
        writeln!(
            f,
            "{:14} {:>12} {:>12} {:>12} {:>12}",
            "model", "RSV w/o", "RSV with", "PPW w/o", "PPW with"
        )?;
        for (name, without, with) in &self.rows {
            writeln!(
                f,
                "{:14} {:>11.2}% {:>11.2}% {:>11.1}% {:>11.1}%",
                name,
                100.0 * without.rsv,
                100.0 * with.rsv,
                100.0 * without.ppw_gain,
                100.0 * with.ppw_gain
            )?;
        }
        Ok(())
    }
}

/// Formats ablation points as a table.
pub fn format_points(title: &str, points: &[PredictionAblation]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "Ablation — {title}");
    let _ = writeln!(
        s,
        "{:30} {:>8} {:>8} {:>9}",
        "variant", "PGOS", "RSV", "accuracy"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:30} {:>7.1}% {:>7.2}% {:>8.1}%",
            p.label,
            100.0 * p.pgos,
            100.0 * p.rsv,
            100.0 * p.accuracy
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_points_renders_rows() {
        let points = vec![
            PredictionAblation {
                label: "predict t+2".into(),
                pgos: 0.9,
                rsv: 0.01,
                accuracy: 0.95,
            },
            PredictionAblation {
                label: "predict t+0".into(),
                pgos: 0.95,
                rsv: 0.0,
                accuracy: 0.97,
            },
        ];
        let s = format_points("prediction horizon", &points);
        assert!(s.contains("prediction horizon"));
        assert!(s.contains("predict t+2"));
        assert!(s.contains("90.0%"));
    }

    #[test]
    fn steering_ablation_shows_dependence_awareness_wins() {
        let mut cfg = crate::ExperimentConfig::quick();
        cfg.interval_insts = 2_000;
        let result = steering(&cfg);
        assert_eq!(result.rows.len(), 4);
        // Averaged across archetypes, dependence-aware steering should
        // match or beat round-robin.
        let (mut dep, mut rr) = (0.0, 0.0);
        for (_, d, r) in &result.rows {
            dep += d;
            rr += r;
        }
        assert!(dep >= rr, "dep-aware {dep} vs round-robin {rr}");
        assert!(result.to_string().contains("round-robin"));
    }

    #[test]
    fn width_ablation_is_monotone_for_wide_code() {
        let mut cfg = crate::ExperimentConfig::quick();
        cfg.interval_insts = 2_000;
        let result = cluster_width(&cfg);
        let scalar_hi: Vec<f64> = result
            .rows
            .iter()
            .filter(|(_, a, _, _)| *a == Archetype::ScalarIlp)
            .map(|(_, _, hi, _)| *hi)
            .collect();
        assert_eq!(scalar_hi.len(), 3);
        assert!(
            scalar_hi[0] < scalar_hi[1],
            "wider clusters must help wide code"
        );
        assert!(scalar_hi[1] < scalar_hi[2]);
    }
}
