//! # psca-fleet
//!
//! Fleet-scale deployment robustness: the scenario axis the single-die
//! pipeline cannot express.
//!
//! The paper's post-silicon story (§3.2) ends with a model shipped as
//! firmware to CPUs already in the field — which means shipped to a
//! *fleet* of dies that differ from the nominal machine (process and SKU
//! variation) and from each other. This crate models that reality:
//!
//! - [`SkewSpec`] / [`DieSkew`] — deterministic per-die parameter
//!   variation (cache/TLB sizing jitter, mode-switch cost, telemetry
//!   noise floor), derived from a fleet seed via the same SplitMix64
//!   family as the fault injector;
//! - [`RolloutSpec`] / [`Rollout`] — a staged firmware-rollout state
//!   machine: canary cohort → expanding waves → fleet, with per-cohort
//!   health verdicts (RSV floor, PPW retained, degradation-tier
//!   escalations), automatic rollback to the previous image on
//!   regression, and quarantine for persistent per-die outliers;
//! - [`run_fleet`] / [`FleetReport`] — the harness behind `repro fleet`:
//!   N skewed dies running closed loops fanned through `psca_exec` with
//!   bit-identical-to-serial merges, and a deterministic machine-readable
//!   report (`psca-fleet/v1`).
//!
//! Everything is a pure function of `(config seed, fleet seed, specs)`:
//! byte-identical reports across runs and across `--jobs` settings. See
//! `docs/FLEET.md` for the grammars, health verdicts, and report schema.

#![warn(missing_docs)]

mod rollout;
mod runner;
mod skew;

pub use rollout::{
    CohortHealth, FleetImage, Rollout, RolloutSpec, RolloutStatus, StageAction, StageOutcome,
};
pub use runner::{run_fleet, DieRow, FleetParams, FleetReport, FleetSetup};
pub use skew::{DieSkew, SkewSpec};
