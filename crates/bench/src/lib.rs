//! # psca-bench
//!
//! The benchmark harness: the `repro` binary that regenerates every
//! table and figure of the paper, the `repro bench` suite ([`suite`])
//! that records and gates the tracked `BENCH_*.json` baselines, and the
//! command-line front end ([`cli`]) shared by `repro` and `trace-tool`.
//!
//! ```text
//! cargo run --release -p psca-bench --bin repro -- all
//! cargo run --release -p psca-bench --bin repro -- fig8 --quick
//! cargo run --release -p psca-bench --bin repro -- bench --check --quick
//! ```

#![warn(missing_docs)]

pub mod chart;
pub mod cli;
pub mod loadgen;
pub mod suite;

use psca_adapt::{CorpusTelemetry, ExperimentConfig};

/// Experiment identifiers accepted by the `repro` binary.
pub const EXPERIMENTS: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablate-steering",
    "ablate-guardrail",
    "ablate-width",
    "ablate-dvfs",
    "ablate-horizon",
    "ablate-normalization",
    "chaos-sweep",
];

/// Lazily-built corpora shared across experiments in one `repro` run.
#[derive(Default)]
pub struct Corpora {
    hdtr: Option<CorpusTelemetry>,
    spec: Option<CorpusTelemetry>,
}

impl Corpora {
    /// Creates an empty cache.
    pub fn new() -> Corpora {
        Corpora::default()
    }

    /// The HDTR training corpus (built on first use).
    pub fn hdtr(&mut self, cfg: &ExperimentConfig) -> &CorpusTelemetry {
        if self.hdtr.is_none() {
            eprintln!(
                "[repro] simulating HDTR corpus ({} apps x {} traces x {} intervals, both modes)...",
                cfg.hdtr_apps, cfg.hdtr_traces_per_app, cfg.hdtr_intervals_per_trace
            );
            self.hdtr = Some(CorpusTelemetry::hdtr(cfg));
        }
        self.hdtr.as_ref().unwrap()
    }

    /// The SPEC test corpus (built on first use).
    pub fn spec(&mut self, cfg: &ExperimentConfig) -> &CorpusTelemetry {
        if self.spec.is_none() {
            eprintln!("[repro] simulating SPEC2017 test set (both modes)...");
            self.spec = Some(CorpusTelemetry::spec(cfg));
        }
        self.spec.as_ref().unwrap()
    }

    /// Both corpora, borrowed together: `(hdtr, spec)`, each `None` until
    /// built.
    pub fn built(&self) -> (Option<&CorpusTelemetry>, Option<&CorpusTelemetry>) {
        (self.hdtr.as_ref(), self.spec.as_ref())
    }
}
