//! # psca-adapt
//!
//! The paper's primary contribution: an ML-driven adaptive CPU performing
//! *predictive cluster gating*, with the blindspot-mitigating training
//! pipeline that makes it deployable.
//!
//! The crate couples every substrate in the workspace:
//!
//! - [`Sla`] — service-level-agreement formalization (§3.1) and the
//!   violation-window arithmetic of Eqs. 2–4;
//! - [`collect_paired`] / [`TraceTelemetry`] — paired-mode dataset
//!   generation: every trace is simulated in both cluster configurations,
//!   and the ground-truth label `y_{t+2}` marks whether low-power IPC
//!   meets the SLA threshold two intervals ahead (§4.1, Figure 3);
//! - [`counters`] — the telemetry-information-content pipeline (§6.2):
//!   low-activity screen, standard-deviation screen, and PF counter
//!   selection over the 936-stream cross-section;
//! - [`TrainedAdaptModel`] and the [`zoo`] — the evaluated adaptation
//!   models: CHARSTAR's expert-counter MLP, SRCH logistic regression on
//!   counter histograms, and the paper's Best MLP / Best RF (§7);
//! - [`ClosedLoopRequest`] — the deployed system: telemetry interval →
//!   firmware inference → cluster gating at `t+2`, with PPW/RSV scoring
//!   against ground truth, protected by the graceful-degradation ladder
//!   of [`degrade`] under injected telemetry/µC/actuation faults
//!   (`psca-faults`);
//! - [`Scenario`] / [`LoopScore`] — the one deployment scorer the chaos
//!   sweep and the fleet share: a recorded workload with its static
//!   high-performance reference, and the additive RSV/PPW accounting of
//!   the closed loops run over it;
//! - [`experiments`] — one driver per table and figure of the paper;
//! - [`ExperimentConfig`] — the scaled experiment grid (quick vs. full).

#![warn(missing_docs)]

pub mod counters;
pub mod degrade;
pub mod experiments;
pub mod guardrail;
pub mod postsilicon;
pub mod simpoints;
pub mod zoo;

mod config;
mod controller;
mod paired;
mod robustness;
mod sla;
mod train;

pub use config::{ExperimentConfig, ExperimentConfigBuilder};
pub use controller::{record_trace, ClosedLoopOptions, ClosedLoopRequest, ClosedLoopResult};
pub use paired::{
    collect_paired, decode_trace, decode_traces, encode_trace, encode_traces, CorpusTelemetry,
    DecodeError, TraceTelemetry,
};
pub use robustness::{
    robustness_corpus, robustness_model, LoopScore, Scenario, ROBUSTNESS_ARCHETYPES,
};
pub use sla::Sla;
pub use train::{
    aggregate_window, build_dataset, tune_threshold, Featurizer, ModelKind, TrainedAdaptModel,
    HORIZON,
};
