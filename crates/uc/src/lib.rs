//! # psca-uc
//!
//! The microcontroller substrate: ML inference in firmware (§5).
//!
//! The paper deploys adaptation models on an *existing* on-die
//! microcontroller (500 MHz, 1-wide, integer + scalar FP, no SIMD) of
//! which 50% of cycles are safely available. Because the CPU runs at
//! 16,000 MIPS, the µC gets `L / 32` operations per `L`-instruction
//! prediction interval, half of which (`L / 64`) may be spent on
//! inference — Table 3's budget panel.
//!
//! This crate provides:
//!
//! - [`McuSpec`] / [`ops_budget`] — the budget arithmetic of Table 3;
//! - [`OpCounter`] — explicit load/arithmetic/compare accounting mirroring
//!   the paper's hand-optimized firmware listings (Listings 1 & 2);
//! - [`FirmwareModel`] — op-counted, branch-free-style inference for every
//!   model class (MLP, random forest with trees padded to constant depth,
//!   logistic regression, linear-SVM ensembles, χ²-kernel SVMs), producing
//!   bit-identical decisions to the `psca-ml` models they wrap;
//! - memory-footprint accounting per model class.

#![warn(missing_docs)]

mod budget;
mod firmware;
pub mod image;
mod opcount;

pub use budget::{finest_granularity, ops_budget, BudgetRow, CpuSpec, McuSpec};
pub use firmware::{FirmwareError, FirmwareModel, Model};
pub use opcount::OpCounter;
