//! Shared post-deployment evaluation: closed-loop emulation over paired
//! telemetry.
//!
//! Because the memory hierarchy is shared between cluster configurations
//! (DESIGN.md §1), a trace's behaviour in any mode sequence is composed
//! exactly from its two recorded fixed-mode runs. The emulator walks the
//! prediction windows, maintains the virtual cluster configuration with
//! the paper's t→t+2 application delay, charges each window the energy
//! and cycles of the mode it ran in, and scores predictions against
//! ground truth. (The real instruction-level closed loop lives in
//! [`crate::ClosedLoopRequest`] and is cross-validated against this
//! emulation in the integration tests.)

use crate::config::ExperimentConfig;
use crate::paired::{CorpusTelemetry, TraceTelemetry};
use crate::train::{violation_window, TrainedAdaptModel, HORIZON};
use psca_cpu::Mode;
use psca_ml::metrics::{sla_windows, Confusion};

/// Aggregate post-deployment metrics of one model on one corpus slice.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelEvaluation {
    /// PPW gain over the non-adaptive (always high-performance) CPU.
    pub ppw_gain: f64,
    /// Rate of SLA violations (Eq. 4).
    pub rsv: f64,
    /// Percentage of gating opportunities seized (Eq. 1).
    pub pgos: f64,
    /// Prediction accuracy.
    pub accuracy: f64,
    /// Average performance relative to the high-performance mode
    /// (cycles_hi / cycles_adaptive).
    pub avg_perf: f64,
    /// Fraction of windows spent in low-power mode.
    pub residency: f64,
    /// Number of evaluated prediction windows.
    pub windows: usize,
}

/// Per-application breakdown plus the overall aggregate.
#[derive(Debug, Clone, Default)]
pub struct PerAppEvaluation {
    /// `(application name, metrics)` rows in corpus order.
    pub per_app: Vec<(String, ModelEvaluation)>,
    /// Aggregate over all traces.
    pub overall: ModelEvaluation,
}

impl PerAppEvaluation {
    /// Looks up an application's metrics by name.
    pub fn app(&self, name: &str) -> Option<&ModelEvaluation> {
        self.per_app.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }
}

#[derive(Debug, Default, Clone)]
struct Accumulator {
    insts: u64,
    energy_adapt: f64,
    energy_hi: f64,
    cycles_adapt: u64,
    cycles_hi: u64,
    confusion: Confusion,
    violations: usize,
    windows: usize,
    low_windows: usize,
    total_windows: usize,
}

impl Accumulator {
    fn merge(&mut self, other: &Accumulator) {
        self.insts += other.insts;
        self.energy_adapt += other.energy_adapt;
        self.energy_hi += other.energy_hi;
        self.cycles_adapt += other.cycles_adapt;
        self.cycles_hi += other.cycles_hi;
        self.confusion.tp += other.confusion.tp;
        self.confusion.fp += other.confusion.fp;
        self.confusion.tn += other.confusion.tn;
        self.confusion.fn_ += other.confusion.fn_;
        self.violations += other.violations;
        self.windows += other.windows;
        self.low_windows += other.low_windows;
        self.total_windows += other.total_windows;
    }

    fn finish(&self) -> ModelEvaluation {
        let ppw_adapt = self.insts as f64 / self.energy_adapt.max(f64::MIN_POSITIVE);
        let ppw_hi = self.insts as f64 / self.energy_hi.max(f64::MIN_POSITIVE);
        ModelEvaluation {
            ppw_gain: ppw_adapt / ppw_hi - 1.0,
            rsv: if self.windows == 0 {
                0.0
            } else {
                self.violations as f64 / self.windows as f64
            },
            pgos: self.confusion.pgos(),
            accuracy: self.confusion.accuracy(),
            avg_perf: self.cycles_hi as f64 / (self.cycles_adapt.max(1)) as f64,
            residency: if self.total_windows == 0 {
                0.0
            } else {
                self.low_windows as f64 / self.total_windows as f64
            },
            windows: self.windows,
        }
    }
}

/// Emulates the closed loop of one model over one trace.
fn emulate_trace(
    model: &TrainedAdaptModel,
    trace: &TraceTelemetry,
    cfg: &ExperimentConfig,
    guardrail_cfg: Option<crate::guardrail::GuardrailConfig>,
) -> Accumulator {
    let mut guardrail = guardrail_cfg.map(|g| crate::guardrail::Guardrail::new(g, cfg.sla));
    let g = model.granularity;
    let agg = trace.aggregate(g);
    let labels = agg.labels(&cfg.sla);
    let n = agg.len();
    let mut acc = Accumulator::default();
    if n == 0 {
        return acc;
    }
    let mut mode = Mode::HighPerf;
    let mut scheduled: Vec<Option<Mode>> = vec![None; n + HORIZON + 1];
    let mut truth = Vec::with_capacity(n);
    let mut pred = Vec::with_capacity(n);
    for t in 0..n {
        if let Some(m) = scheduled[t] {
            mode = m;
        }
        acc.total_windows += 1;
        if mode == Mode::LowPower {
            acc.low_windows += 1;
        }
        acc.insts += agg.insts[t];
        acc.energy_hi += agg.energy_hi[t];
        acc.cycles_hi += agg.cycles_hi[t];
        match mode {
            Mode::HighPerf => {
                acc.energy_adapt += agg.energy_hi[t];
                acc.cycles_adapt += agg.cycles_hi[t];
            }
            Mode::LowPower => {
                acc.energy_adapt += agg.energy_lo[t];
                acc.cycles_adapt += agg.cycles_lo[t];
            }
        }
        // Telemetry of window t in the *current* mode → decision for t+2.
        let span = t * g..(t + 1) * g;
        let (rows, cycles) = match mode {
            Mode::HighPerf => (&trace.rows_hi[span.clone()], &trace.cycles_hi[span]),
            Mode::LowPower => (&trace.rows_lo[span.clone()], &trace.cycles_lo[span]),
        };
        let mut gate = model.try_predict(mode, rows, cycles).unwrap_or_else(|e| {
            // A firmware fault during trace emulation: fail safe (stay in
            // high-performance mode) and count it rather than panicking.
            psca_obs::counter("adapt.firmware.errors").inc();
            psca_obs::emit(
                psca_obs::Level::Warn,
                "adapt.firmware.error",
                &[("error", e.to_string().into()), ("window", t.into())],
            );
            false
        });
        if let Some(g) = guardrail.as_mut() {
            let ipc = match mode {
                Mode::HighPerf => agg.ipc_hi[t],
                Mode::LowPower => agg.ipc_lo[t],
            };
            gate = g.vet(mode == Mode::LowPower, ipc, gate);
        }
        scheduled[t + HORIZON] = Some(if gate { Mode::LowPower } else { Mode::HighPerf });
        if t + HORIZON < n {
            truth.push(labels[t + HORIZON]);
            pred.push(gate as u8);
        }
    }
    // Score the aligned prediction stream.
    let c = Confusion::from_predictions(&truth, &pred);
    acc.confusion = c;
    let w = violation_window(cfg, g);
    for win in sla_windows(&truth, &pred, w) {
        if win.violates() {
            acc.violations += 1;
            psca_obs::emit(
                psca_obs::Level::Warn,
                "sla.violation",
                &[
                    ("app", trace.app_name.as_str().into()),
                    ("window_start", win.start.into()),
                    ("false_gates", win.false_gates.into()),
                    ("window_len", win.len.into()),
                ],
            );
        }
        acc.windows += 1;
    }
    // Counters are commutative (relaxed atomics), so they may be bumped
    // from whichever worker thread emulates this trace.
    psca_obs::counter("adapt.sla.violations").add(acc.violations as u64);
    psca_obs::counter("adapt.eval.windows").add(acc.windows as u64);
    psca_obs::counter("adapt.windows").add(acc.total_windows as u64);
    psca_obs::counter("adapt.windows_gated_low").add(acc.low_windows as u64);
    psca_obs::counter("adapt.mispredictions").add(c.fp + c.fn_);
    psca_obs::counter("adapt.predictions").add(c.tp + c.fp + c.tn + c.fn_);
    acc
}

/// Evaluates a trained model on a corpus, producing per-application and
/// overall metrics.
pub fn evaluate_model_on_corpus(
    model: &TrainedAdaptModel,
    corpus: &CorpusTelemetry,
    cfg: &ExperimentConfig,
) -> PerAppEvaluation {
    evaluate_with_guardrail(model, corpus, cfg, None)
}

/// [`evaluate_model_on_corpus`] with an optional §3.1 fail-safe guardrail
/// vetting every gating decision.
pub fn evaluate_with_guardrail(
    model: &TrainedAdaptModel,
    corpus: &CorpusTelemetry,
    cfg: &ExperimentConfig,
    guardrail: Option<crate::guardrail::GuardrailConfig>,
) -> PerAppEvaluation {
    // Traces are independent: fan the emulation across the worker pool and
    // merge strictly in corpus order so the result (and every order-
    // sensitive metric) is bit-identical to a serial run.
    let sweep = psca_exec::Sweep::new("adapt.eval").jobs(cfg.jobs);
    let accs = sweep.run(corpus.traces.iter().collect(), |trace| {
        emulate_trace(model, trace, cfg, guardrail)
    });
    let mut per_app: Vec<(String, Accumulator)> = Vec::new();
    let mut overall = Accumulator::default();
    for (trace, acc) in corpus.traces.iter().zip(accs) {
        overall.merge(&acc);
        match per_app.iter_mut().find(|(n, _)| *n == trace.app_name) {
            Some((_, slot)) => slot.merge(&acc),
            None => per_app.push((trace.app_name.clone(), acc)),
        }
    }
    let overall = overall.finish();
    psca_obs::gauge("adapt.eval.last_ppw_gain").set(overall.ppw_gain);
    psca_obs::gauge("adapt.eval.last_rsv").set(overall.rsv);
    psca_obs::gauge("adapt.eval.last_accuracy").set(overall.accuracy);
    PerAppEvaluation {
        per_app: per_app.into_iter().map(|(n, a)| (n, a.finish())).collect(),
        overall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::collect_paired;
    use crate::train::ModelKind;
    use crate::zoo;
    use psca_workloads::{Archetype, PhaseGenerator};

    fn corpus() -> CorpusTelemetry {
        let mut traces = Vec::new();
        for (i, a) in [
            Archetype::DepChain,
            Archetype::ScalarIlp,
            Archetype::MemBound,
            Archetype::Balanced,
        ]
        .iter()
        .enumerate()
        {
            let mut gen = PhaseGenerator::new(a.center(), i as u64 + 50);
            traces.push(collect_paired(
                &mut gen,
                2_000,
                24,
                2_000,
                i as u32,
                a_name(*a),
                1,
            ));
        }
        CorpusTelemetry { traces }
    }

    fn a_name(a: Archetype) -> &'static str {
        match a {
            Archetype::DepChain => "dep",
            Archetype::ScalarIlp => "wide",
            Archetype::MemBound => "mem",
            _ => "bal",
        }
    }

    #[test]
    fn evaluation_produces_sane_metrics() {
        let corpus = corpus();
        let cfg = ExperimentConfig::quick();
        let model = zoo::train(ModelKind::BestRf, &corpus, &cfg);
        let eval = evaluate_model_on_corpus(&model, &corpus, &cfg);
        assert_eq!(eval.per_app.len(), 4);
        let o = &eval.overall;
        assert!(o.rsv >= 0.0 && o.rsv <= 1.0);
        assert!(o.pgos >= 0.0 && o.pgos <= 1.0);
        assert!(
            o.avg_perf > 0.5 && o.avg_perf <= 1.05,
            "avg perf {}",
            o.avg_perf
        );
        assert!(o.ppw_gain > -0.2 && o.ppw_gain < 1.0);
        assert!(o.windows > 0);
    }

    #[test]
    fn training_set_evaluation_gains_ppw_at_low_rsv() {
        let corpus = corpus();
        let cfg = ExperimentConfig::quick();
        let model = zoo::train(ModelKind::BestRf, &corpus, &cfg);
        let eval = evaluate_model_on_corpus(&model, &corpus, &cfg);
        assert!(
            eval.overall.ppw_gain > 0.02,
            "in-sample PPW gain too small: {}",
            eval.overall.ppw_gain
        );
        let dep = eval.app("dep").unwrap();
        let wide = eval.app("wide").unwrap();
        assert!(dep.residency > wide.residency);
    }

    #[test]
    fn oracle_like_model_has_high_pgos_on_dep_chain() {
        let corpus = corpus();
        let cfg = ExperimentConfig::quick();
        let model = zoo::train(ModelKind::BestRf, &corpus, &cfg);
        let eval = evaluate_model_on_corpus(&model, &corpus, &cfg);
        let dep = eval.app("dep").unwrap();
        assert!(dep.pgos > 0.5, "dep-chain PGOS {}", dep.pgos);
    }
}
