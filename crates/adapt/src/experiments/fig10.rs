//! Figure 10: step-by-step blindspot mitigation (§7.2).
//!
//! Builds up from the CHARSTAR baseline to the Best MLP, isolating each
//! §6 technique's contribution to RSV on the SPEC test set:
//!
//! 1. baseline MLP trained on SPEC2017 data only (leave-one-out);
//! 2. + high-diversity HDTR training data (§6.1);
//! 3. + PF-selected counters instead of expert counters (§6.2);
//! 4. + screened 3-layer topology (§6.3).

use super::screen::sweep_grouped;
use crate::config::ExperimentConfig;
use crate::counters::{CHARSTAR_COUNTERS, TABLE4_COUNTERS};
use crate::experiments::eval::evaluate_model_on_corpus;
use crate::paired::CorpusTelemetry;
use crate::zoo::train_custom_mlp;
use psca_telemetry::Event;

/// One mitigation step.
#[derive(Debug, Clone)]
pub struct Fig10Step {
    /// Step description.
    pub label: String,
    /// RSV on the SPEC test set.
    pub rsv: f64,
    /// PPW gain on the SPEC test set.
    pub ppw_gain: f64,
    /// The paper's reported RSV at this step.
    pub paper_rsv: f64,
}

/// Regenerated Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Steps in mitigation order.
    pub steps: Vec<Fig10Step>,
}

/// Label, counters, topology, paper RSV and seed tag of one step.
type Step = (
    &'static str,
    &'static [Event],
    &'static [usize],
    f64,
    &'static str,
);

/// Runs the ablation.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry, spec: &CorpusTelemetry) -> Fig10 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let g = 2; // CHARSTAR granularity for the baseline steps
    let steps: [Step; 4] = [
        // Step 1: SPEC-only training (leave-one-benchmark-out), expert
        // counters, 1-layer topology.
        (
            "baseline MLP, SPEC-only training",
            &CHARSTAR_COUNTERS,
            &[10],
            0.165,
            "fig10-spec",
        ),
        // Step 2: + HDTR diversity.
        (
            "+ high-diversity training (HDTR)",
            &CHARSTAR_COUNTERS,
            &[10],
            0.109,
            "fig10-hdtr",
        ),
        // Step 3: + PF-selected counters.
        (
            "+ PF counter selection",
            &TABLE4_COUNTERS,
            &[10],
            0.043,
            "fig10-pf",
        ),
        // Step 4: + screened 3-layer topology.
        (
            "+ hyperparameter screening (3-layer)",
            &TABLE4_COUNTERS,
            &[8, 8, 4],
            0.012,
            "fig10-topo",
        ),
    ];

    // One cell per model: step 1 holds out each SPEC benchmark in turn;
    // steps 2–4 average over several training seeds, because a single MLP
    // initialization makes blindspot magnitude noisy, and the step
    // structure — not one lucky model — is the claim under test.
    let apps = spec.app_ids();
    let mut cells: Vec<(usize, (Option<u32>, u64))> = apps
        .iter()
        .map(|&held| (0, (Some(held), held as u64)))
        .collect();
    for si in 1..steps.len() {
        cells.extend((0..3u64).map(|seed| (si, (None, seed))));
    }
    let evals = sweep_grouped(
        "fig10.models",
        cfg.jobs,
        steps.len(),
        cells,
        |si, &(held, salt)| {
            let (_, counters, hidden, _, tag) = steps[si];
            let seed = cfg.sub_seed(tag) ^ salt;
            let e = match held {
                Some(held) => {
                    let tune: Vec<u32> = apps.iter().copied().filter(|&a| a != held).collect();
                    let tune = spec.filter_apps(&tune);
                    let model = train_custom_mlp(&tune, cfg, counters, hidden, g, seed);
                    evaluate_model_on_corpus(&model, &spec.filter_apps(&[held]), cfg)
                }
                None => {
                    let model = train_custom_mlp(hdtr, cfg, counters, hidden, g, seed);
                    evaluate_model_on_corpus(&model, spec, cfg)
                }
            };
            (e.overall.rsv, e.overall.ppw_gain)
        },
    );

    let steps = steps
        .iter()
        .zip(&evals)
        .map(|(&(label, _, _, paper_rsv, _), evals)| {
            // Means summed in cell order.
            let (mut rsv, mut ppw_gain) = (0.0, 0.0);
            for &(r, p) in evals {
                rsv += r;
                ppw_gain += p;
            }
            Fig10Step {
                label: label.into(),
                rsv: rsv / evals.len() as f64,
                ppw_gain: ppw_gain / evals.len() as f64,
                paper_rsv,
            }
        })
        .collect();
    Fig10 { steps }
}

impl std::fmt::Display for Fig10 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 10 — blindspot mitigation, step by step (SPEC RSV)"
        )?;
        writeln!(
            f,
            "{:40} {:>8} {:>10} {:>10}",
            "step", "RSV", "paper RSV", "PPW gain"
        )?;
        for s in &self.steps {
            writeln!(
                f,
                "{:40} {:>7.2}% {:>9.1}% {:>9.1}%",
                s.label,
                100.0 * s.rsv,
                100.0 * s.paper_rsv,
                100.0 * s.ppw_gain
            )?;
        }
        Ok(())
    }
}
