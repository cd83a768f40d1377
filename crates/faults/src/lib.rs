//! # psca-faults
//!
//! Deterministic, seedable fault injection for the closed adaptation
//! loop. The paper's premise is post-silicon reality: shipped CPUs see
//! noisy counters, late firmware predictions, flipped bits in pushed
//! images, and lost actuation requests. This crate models those hazards
//! so `adapt::ClosedLoopRequest::run` can demonstrate *graceful
//! degradation* instead of assuming a perfect substrate.
//!
//! Three fault surfaces, matching the loop's three stages
//! (telemetry → µC inference → actuation):
//!
//! - **telemetry** — stuck-at bits, full-scale saturation, dropped
//!   (zeroed) counters, scaling drift, and non-finite readings;
//! - **µC** — dropped predictions, prediction-latency overruns past the
//!   `t+2` apply deadline, NaN/Inf weight corruption, and firmware-image
//!   bit flips (caught by image validation);
//! - **actuation** — mode-switch requests lost or delayed a window.
//!
//! Everything is driven by a [`ChaosSpec`] (see `docs/ROBUSTNESS.md` for
//! the grammar) and a SplitMix64 stream seeded from the spec, so a given
//! `(spec, trace)` pair replays bit-identically. A
//! [`FaultInjector::disabled`] injector never perturbs anything, so a
//! closed loop without chaos never leaves model-driven gating.
//!
//! Every injected fault increments a `faults.*` counter and (when tracing
//! is on) drops a `faults.inject` trace instant, so chaos runs are fully
//! observable through `psca-obs`.

#![warn(missing_docs)]

mod inject;
mod spec;

pub use inject::{
    ActuationFault, FaultCounts, FaultInjector, PredictionFault, SplitMix64, TelemetryFault,
};
pub use spec::ChaosSpec;
