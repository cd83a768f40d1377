//! The probe pass of a traced run: a fixed slice of seeded inputs replayed
//! through each lower layer's public entry point in isolation, so each
//! layer's cost is measured where its work happens.

use crate::metrics::{Sheet, SERVED};
use crate::spans::Tracer;
use crate::stats;
use psca_adapt::{record_trace, ClosedLoopRequest, CorpusTelemetry, ExperimentConfig, Sla};
use psca_cpu::{CpuConfig, CycleAccurate, Mode, SimBackend};
use psca_faults::SplitMix64;
use psca_ml::Classifier;
use psca_serve::registry::kind_slug;
use psca_serve::ModelRegistry;
use psca_telemetry::ExpandedTelemetry;
use psca_trace::TraceSource;
use psca_workloads::{Archetype, PhaseGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Instructions the generator probe draws.
const GEN_INSTS: u64 = 400_000;
/// Intervals the simulator probe runs per mode.
const SIM_INTERVALS: u64 = 64;
/// Feature rows the predictor probes score per model.
const PREDICT_ROWS: usize = 4_000;
/// Image decodes the firmware-image probe times.
const DECODES: usize = 200;
/// Closed-loop requests the window probe runs, and windows per request.
const LOOPS: usize = 60;
const LOOP_WINDOWS: u64 = 4;

/// Runs every probe that needs no workload-specific input and records the
/// results in `sheet`: generator, simulator, telemetry expansion, the
/// serving registry's training, per-prediction cost of the served models
/// through the `ml` and `uc` surfaces, firmware-image decoding, and the
/// closed-loop window.
pub fn common(seed: u64, tracer: &Tracer, sheet: &mut Sheet) {
    let cfg = ExperimentConfig::builder()
        .seed(seed)
        .build()
        .expect("the quick preset with a seed is valid");
    let interval = cfg.interval_insts;

    // workloads: raw instruction generation.
    let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), seed);
    let span = tracer.span("probe.workloads.generate");
    for _ in 0..GEN_INSTS {
        black_box(gen.next_instruction());
    }
    sheet.set(
        "workloads.gen_insts_per_s",
        GEN_INSTS as f64 / span.finish(),
    );

    // cpu + telemetry: one recorded trace replayed in both modes, every
    // interval's counters expanded to the full stream cross-section.
    let mut gen = PhaseGenerator::new(Archetype::MemBound.center(), seed ^ 1);
    let (warm, window) = record_trace(&mut gen, cfg.hdtr_warmup_insts, SIM_INTERVALS * interval);
    let mut busy = 0.0;
    let mut insts = 0u64;
    let mut snapshots = Vec::new();
    for mode in [Mode::HighPerf, Mode::LowPower] {
        let mut sim = CycleAccurate::new(CpuConfig::skylake_scaled());
        sim.set_mode(mode);
        sim.warm_up(&mut warm.clone(), warm.len() as u64);
        let mut replay = window.clone();
        let span = tracer.span("probe.cpu.run_interval");
        while let Some(r) = sim.run_interval(&mut replay, interval) {
            insts += r.instructions;
            snapshots.push(r.snapshot);
        }
        busy += span.finish();
    }
    sheet.set("cpu.sim_busy_s", busy);
    sheet.set("cpu.sim_insts_per_s", insts as f64 / busy);
    let expand = ExpandedTelemetry::new(seed);
    let span = tracer.span("probe.telemetry.expand");
    for (t, snap) in snapshots.iter().enumerate() {
        black_box(expand.expand_row(snap.as_slice(), t as u64));
    }
    sheet.set(
        "telemetry.expand_us_per_interval",
        span.finish() * 1e6 / snapshots.len() as f64,
    );

    // serve: the registry `repro serve` trains before it is ready.
    let span = tracer.span("probe.serve.registry_train");
    let registry = ModelRegistry::train(cfg.clone(), &SERVED);
    sheet.set("serve.registry_train_s", span.finish());

    // ml + uc: per-prediction cost of each served model's firmware
    // predictor, through the classifier surface and the firmware surface.
    let mut decode_s = 0.0;
    let mut decodes = 0usize;
    for kind in SERVED {
        let slug = kind_slug(kind);
        let model = registry
            .get(slug)
            .expect("registry holds every served kind");
        let fw = &model.fw_hi;
        let dim = fw.input_dim().unwrap_or(1);
        let mut rng = SplitMix64::new(seed);
        let rows: Vec<Vec<f64>> = (0..PREDICT_ROWS)
            .map(|_| (0..dim).map(|_| rng.next_f64()).collect())
            .collect();
        let clf: &dyn Classifier = fw;
        let span = tracer.span(&format!("probe.ml.predict_proba.{slug}"));
        for row in &rows {
            black_box(clf.predict_proba(black_box(row)));
        }
        sheet.set(
            &format!("ml.predict_ns.{slug}"),
            span.finish() * 1e9 / PREDICT_ROWS as f64,
        );
        let span = tracer.span(&format!("probe.uc.predict.{slug}"));
        for row in &rows {
            let _ = black_box(fw.predict(black_box(row)));
        }
        sheet.set(
            &format!("uc.predict_ns.{slug}"),
            span.finish() * 1e9 / PREDICT_ROWS as f64,
        );
        let image = psca_uc::image::encode(fw).expect("a trained predictor encodes");
        let span = tracer.span(&format!("probe.uc.image.decode.{slug}"));
        for _ in 0..DECODES {
            black_box(psca_uc::image::decode(black_box(&image)).expect("own image decodes"));
        }
        decode_s += span.finish();
        decodes += DECODES;
    }
    sheet.set("uc.image.decode_us", decode_s * 1e6 / decodes as f64);

    // adapt: the closed loop, per window, over the four archetypes.
    let model = registry
        .get(kind_slug(SERVED[0]))
        .expect("registry holds every served kind");
    let archetypes = [
        Archetype::DepChain,
        Archetype::ScalarIlp,
        Archetype::MemBound,
        Archetype::Balanced,
    ];
    let window_insts = LOOP_WINDOWS * model.granularity_insts(interval);
    let traces: Vec<_> = (0..LOOPS)
        .map(|i| {
            let mut gen = PhaseGenerator::new(archetypes[i % 4].center(), seed ^ (i as u64 + 11));
            record_trace(&mut gen, 2_000, window_insts)
        })
        .collect();
    let span = tracer.span("probe.adapt.closed_loop");
    let mut per_window = Vec::with_capacity(LOOPS);
    for (warm, window) in &traces {
        let t0 = Instant::now();
        let res = ClosedLoopRequest::new(model, warm, window, interval).run();
        per_window.push(t0.elapsed().as_secs_f64() * 1e6 / res.modes.len().max(1) as f64);
    }
    span.finish();
    sheet.set(
        "adapt.closed_loop.window_us.p50",
        stats::median(&per_window),
    );
    sheet.set(
        "adapt.closed_loop.window_us.p99",
        stats::tail(&per_window, 0.99).value,
    );
}

/// Featurization and per-kind training on the HDTR corpus the
/// reproduction builds.
pub fn training(
    hdtr: &CorpusTelemetry,
    cfg: &ExperimentConfig,
    tracer: &Tracer,
    sheet: &mut Sheet,
) {
    let sla: Sla = cfg.training_sla();
    let events = psca_adapt::zoo::counter_set(psca_adapt::ModelKind::BestRf);
    let span = tracer.span("probe.adapt.build_dataset");
    for mode in [Mode::HighPerf, Mode::LowPower] {
        black_box(psca_adapt::build_dataset(hdtr, mode, &events, 1, &sla));
    }
    sheet.set("adapt.featurize_s", span.finish());
    for kind in crate::metrics::KINDS {
        let slug = kind_slug(kind);
        let span = tracer.span(&format!("probe.adapt.train.{slug}"));
        black_box(psca_adapt::zoo::train(kind, hdtr, cfg));
        sheet.set(&format!("adapt.train.{slug}_s"), span.finish());
    }
}
