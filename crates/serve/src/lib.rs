//! # psca-serve — adaptation as a service
//!
//! An HTTP daemon exposing the reproduction's trained gating models and
//! closed-loop simulator behind a small, versioned, typed request API —
//! the deployment shape the paper's §7 firmware-update story implies:
//! post-silicon models live behind a service boundary, and clients
//! (firmware build pipelines, fleet tooling) talk to it over the wire.
//!
//! Endpoints:
//!
//! - `POST /v1/predict` — batch gating predictions through a model's
//!   [`psca_ml::Classifier`] surface; JSON array or NDJSON responses.
//! - `POST /v1/closed-loop` — a seeded closed-loop simulation from a
//!   workload spec, optionally chaos-hardened, returning a run summary.
//! - `GET /v1/models` — registry: names, kinds, input dims, granularity.
//! - `GET /healthz`, `GET /readyz`, `GET /metrics` — liveness,
//!   readiness and Prometheus text.
//! - `GET /report` — the latest run report the process published (what
//!   the binaries' live-metrics side channel serves).
//! - `POST /v1/shutdown` — graceful drain: queued requests are answered,
//!   then every thread exits.
//!
//! Machinery (all `std`, no new dependencies):
//!
//! - a bounded request queue with `429` backpressure past capacity, its
//!   one admission limit ([`server::ServeConfig`]);
//! - a worker pool sized by `psca-exec`'s jobs resolution;
//! - per-endpoint request/error counters and latency histograms plus
//!   in-flight/queue-depth gauges via `psca-obs`;
//! - request-size and feature-dimension validation with typed 4xx errors
//!   ([`api::ApiError`]);
//! - optional fault injection on the serving path via `psca-faults`.
//!
//! See `docs/SERVING.md` for the protocol reference and examples.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod registry;
pub mod server;

pub use api::{ApiError, ClosedLoopSpec, PredictRequest};
pub use registry::ModelRegistry;
pub use server::{Daemon, ServeConfig};
