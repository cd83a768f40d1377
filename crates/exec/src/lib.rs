//! # psca-exec — parallel sweep engine
//!
//! Std-only (no external dependencies, matching `psca-obs` / `psca-faults`)
//! execution engine for the repro pipeline's embarrassingly parallel
//! sweeps. Three layers:
//!
//! - [`pool`]: a scoped-thread work-stealing job pool with order-preserving
//!   results ([`pool::map_indexed`]).
//! - [`digest`]: stable FNV-1a 64 content digests for cache keys.
//! - [`cache`] + [`sweep`]: the [`Sweep`] abstraction — fans independent
//!   (workload, config, seed) cells across `--jobs N` workers with
//!   bit-identical-to-serial merges, fronted by a persistent
//!   content-addressed result cache under `target/sweep-cache/`.
//!
//! See `docs/PERFORMANCE.md` for the architecture and determinism
//! contract.

pub mod cache;
pub mod digest;
pub mod pool;
pub mod sweep;

pub use cache::SweepCache;
pub use digest::{fnv1a, Digest};
pub use pool::{map_indexed, resolve_jobs};
pub use sweep::Sweep;
