//! Optimization-as-a-service (§7.3 / Table 6): boost PPW for one
//! application that a customer runs repeatedly at scale.
//!
//! The customer traces a few executions of the target application on
//! site; those traces are replayed to produce telemetry and labels; a
//! 4-tree application-specific forest is combined with a 4-tree
//! high-diversity forest into the Best-RF shape, its sensitivity is
//! calibrated on application and high-diversity data, and it is pushed
//! back as a firmware update. Evaluation is on a *future* workload (a
//! different input) the retrained model has never seen.
//!
//! ```text
//! cargo run --release --example app_specific_retraining
//! ```

use psca::adapt::experiments::evaluate_model_on_corpus;
use psca::adapt::postsilicon::{train_app_specific, train_hdtr_halves};
use psca::adapt::{collect_paired, zoo, CorpusTelemetry, ExperimentConfig, ModelKind};
use psca::workloads::spec::spec_suite;

fn main() {
    let cfg = ExperimentConfig::quick();
    println!("simulating the general training corpus...");
    let hdtr = CorpusTelemetry::hdtr(&cfg);
    let general = zoo::train(ModelKind::BestRf, &hdtr, &cfg);

    // The customer's application: fotonik3d-like streaming FP code.
    let suite = spec_suite(cfg.sub_seed("spec"), cfg.spec_phase_len);
    let target = suite
        .iter()
        .find(|a| a.bench.name == "649.fotonik3d_s")
        .expect("benchmark present");
    println!(
        "tracing customer application {} on 4 inputs...",
        target.bench.name
    );
    let mut trace_for = |input: u64| {
        let mut src = target.app.trace(input);
        collect_paired(
            &mut src,
            cfg.spec_warmup_insts,
            cfg.spec_intervals_per_simpoint * 4,
            cfg.interval_insts,
            0,
            target.bench.name,
            input,
        )
    };
    let onsite = CorpusTelemetry {
        traces: (1..=4).map(&mut trace_for).collect(),
    };
    let future = CorpusTelemetry {
        traces: vec![trace_for(5)], // an input never used for retraining
    };

    // Retrain: 4 HDTR trees + 4 application trees = the Best-RF shape,
    // with sensitivity calibrated on application and HDTR data.
    println!("retraining application-specific firmware...");
    let halves = train_hdtr_halves(&cfg, &hdtr, general.granularity);
    let specific = train_app_specific(&cfg, &halves, &onsite, cfg.sub_seed("onsite"));

    let before = evaluate_model_on_corpus(&general, &future, &cfg).overall;
    let after = evaluate_model_on_corpus(&specific, &future, &cfg).overall;
    println!("\non the future (unseen-input) workload:");
    println!(
        "  general firmware:      PPW gain {:>5.1}%, RSV {:>5.2}%, PGOS {:>5.1}%",
        100.0 * before.ppw_gain,
        100.0 * before.rsv,
        100.0 * before.pgos
    );
    println!(
        "  app-specific firmware: PPW gain {:>5.1}%, RSV {:>5.2}%, PGOS {:>5.1}%",
        100.0 * after.ppw_gain,
        100.0 * after.rsv,
        100.0 * after.pgos
    );
    println!("\n(paper Table 6: fotonik3d_s gains +8.5% PPW from app-specific retraining)");
}
