//! # psca-telemetry
//!
//! The telemetry subsystem of the PSCA reproduction.
//!
//! The paper's CPU routes architecture and microarchitecture event counters
//! to a single on-chip convergence point, snapshots them on a regular
//! instruction-count interval, and forwards them to a microcontroller (§3).
//! 936 counters are available at design time; a selection pipeline reduces
//! them to 12 for deployment (§6.2).
//!
//! This crate provides:
//!
//! - [`Event`] — the base microarchitectural events natively counted by
//!   the `psca-cpu` simulator;
//! - [`CounterBank`] — the accumulating counter file;
//! - [`IntervalSnapshot`] — one normalized interval of telemetry (the
//!   vector `x_t` of §4.1), including cycle normalization, which the paper
//!   found improves model accuracy;
//! - [`ExpandedTelemetry`] — the synthetic expansion of the base events
//!   into the paper's 936-stream design-time cross-section (see `DESIGN.md`
//!   §1 for the substitution rationale).

#![warn(missing_docs)]

mod bank;
mod event;
mod expand;

pub use bank::{CounterBank, IntervalSnapshot};
pub use event::{Event, NUM_EVENTS};
pub use expand::{ExpandedTelemetry, StreamSpec, NUM_EXPANDED_STREAMS};
