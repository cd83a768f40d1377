//! # psca-cpu
//!
//! The clustered CPU simulator of the PSCA reproduction.
//!
//! The paper's CPU is a scaled Intel Skylake with two out-of-order 4-wide
//! execution clusters (§3, Figure 2). With both clusters enabled it runs
//! an 8-wide *high-performance* mode; with Cluster 2 clock-gated it runs a
//! 4-wide *low-power* mode consuming ~35% less power. Mode switches take a
//! custom microcode flow that copies up to 32 register dependencies.
//!
//! This crate implements that machine as a trace-driven, cycle-level,
//! dataflow-limited out-of-order model (see `DESIGN.md` §1 for the
//! substitution argument):
//!
//! - [`Cache`] (caches, the µop cache, and as one-set caches the TLBs)
//!   and [`GsharePredictor`] model the structural components that
//!   generate telemetry events;
//! - [`ClusterSim`] schedules every instruction onto a finite ROB window
//!   with per-cluster issue width, dependence-aware steering, and an
//!   inter-cluster forwarding penalty — so the IPC delta between modes is
//!   an emergent property of each workload's dependence structure. Its
//!   caches, TLBs and predictors form a functional pass whose outcomes
//!   can be stored with a recorded trace, so later runs of the same
//!   machine over it execute only the timing core;
//! - [`PowerModel`] is an event-based energy model in the spirit of the
//!   Skylake model of Haj-Yihia et al. used by the paper;
//! - [`Mode`] and [`ClusterSim::set_mode`] implement cluster gating with
//!   the microcoded register-transfer cost.

#![warn(missing_docs)]

pub mod backend;

mod bpred;
mod cache;
mod config;
mod dvfs;
mod functional;
mod power;
mod sim;
mod summary;

pub use backend::{CycleAccurate, SimBackend};
pub use bpred::{Btb, GsharePredictor};
pub use cache::{AccessOutcome, Cache};
pub use config::{CpuConfig, SteerPolicy};
pub use dvfs::{DvfsGovernor, DvfsModel, OperatingPoint};
pub use power::PowerModel;
pub use sim::{ClusterSim, IntervalResult, Mode, ModeSwitchFault};
pub use summary::RunSummary;
