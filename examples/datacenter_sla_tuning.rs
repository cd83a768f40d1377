//! Post-silicon SLA re-targeting (§7.3 / Table 5): one physical chip,
//! three power/performance characters, switched by a firmware update.
//!
//! A data-center operator runs the fleet at P_SLA = 90% year-round, but
//! during a demand spike wants peak performance, and during quiet weeks
//! wants maximum PPW. This example trains three Best-RF firmware images
//! under different SLAs and shows the resulting CPU characters on the
//! same workloads.
//!
//! ```text
//! cargo run --release --example datacenter_sla_tuning
//! ```

use psca::adapt::experiments::evaluate_model_on_corpus;
use psca::adapt::postsilicon::retarget_sla;
use psca::adapt::{CorpusTelemetry, ExperimentConfig};

fn main() {
    let base = ExperimentConfig::quick();
    println!("simulating training corpus and a held-out fleet workload mix...");
    let hdtr = CorpusTelemetry::hdtr(&base);
    let fleet = CorpusTelemetry::spec(&base); // stands in for fleet traces

    println!(
        "\n{:>6} {:>10} {:>10} {:>12} {:>12}",
        "P_SLA", "PPW gain", "RSV", "avg perf", "residency"
    );
    for p_sla in [0.90, 0.80, 0.70] {
        // The "firmware update": relabel telemetry under the new SLA and
        // retrain — no silicon change, no new dataset collection.
        let (cfg, mut firmware) = retarget_sla(&base, &hdtr, p_sla);
        // Package the model exactly as it would ship to the fleet, and
        // verify the installed image is bit-identical.
        let image = psca::uc::image::encode(&firmware.fw_lo).expect("deployable model");
        eprintln!(
            "  P_SLA={p_sla:.2}: firmware image is {} bytes (model footprint {} B)",
            image.len(),
            firmware.fw_lo.memory_footprint_bytes()
        );
        firmware.fw_lo = psca::uc::image::decode(&image).expect("valid image");
        let eval = evaluate_model_on_corpus(&firmware, &fleet, &cfg);
        println!(
            "{:>6.2} {:>9.1}% {:>9.2}% {:>11.1}% {:>11.1}%",
            p_sla,
            100.0 * eval.overall.ppw_gain,
            100.0 * eval.overall.rsv,
            100.0 * eval.overall.avg_perf,
            100.0 * eval.overall.residency
        );
    }
    println!("\n(paper Table 5: 21.9% / 28.2% / 31.4% PPW gain as P_SLA relaxes 0.9 -> 0.7)");
}
