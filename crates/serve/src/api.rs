//! Versioned wire types for the `/v1` endpoints: typed requests parsed
//! from JSON with explicit limits, and typed errors that map onto 4xx
//! status codes instead of panics or silent truncation.

use crate::registry::ModelRegistry;
use psca_adapt::{record_trace, ClosedLoopRequest, ClosedLoopResult, TrainedAdaptModel};
use psca_cpu::Mode;
use psca_faults::ChaosSpec;
use psca_obs::Json;
use psca_workloads::{Archetype, PhaseGenerator};

/// Hard cap on rows in one `/v1/predict` batch.
pub const MAX_BATCH_ROWS: usize = 4_096;
/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Hard cap on features per row (far above any real counter set).
pub const MAX_ROW_DIM: usize = 1_024;
/// Hard cap on prediction windows in one `/v1/closed-loop` run.
pub const MAX_WINDOWS: u64 = 256;
/// Hard cap on warm-up instructions in one `/v1/closed-loop` run.
pub const MAX_WARM_INSTS: u64 = 1_000_000;

/// A typed request failure: HTTP status, stable machine-readable code,
/// and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Stable error code (`"bad_json"`, `"dimension_mismatch"`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// 400: the body is not valid JSON or misses required members.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    /// 400: JSON syntax error, with the parser's offset detail.
    pub fn bad_json(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_json", message)
    }

    /// 404: no such route or model.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, "not_found", message)
    }

    /// 405: the route exists but not for this method.
    pub fn method_not_allowed(method: &str, path: &str) -> ApiError {
        ApiError::new(
            405,
            "method_not_allowed",
            format!("{method} not allowed on {path}"),
        )
    }

    /// 408: the client stalled past the per-connection read deadline
    /// ([`ServeConfig::read_timeout_ms`](crate::ServeConfig::read_timeout_ms)).
    pub fn timeout(message: impl Into<String>) -> ApiError {
        ApiError::new(408, "request_timeout", message)
    }

    /// 413: the request exceeds a size limit.
    pub fn too_large(message: impl Into<String>) -> ApiError {
        ApiError::new(413, "payload_too_large", message)
    }

    /// 422: well-formed JSON whose values violate model constraints.
    pub fn unprocessable(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError::new(422, code, message)
    }

    /// 429: the bounded request queue is full (backpressure).
    pub fn backpressure(capacity: usize) -> ApiError {
        ApiError::new(
            429,
            "queue_full",
            format!("request queue at capacity ({capacity}); retry later"),
        )
    }

    /// 503: daemon not ready or chaos injected on the serving path.
    pub fn unavailable(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError::new(503, code, message)
    }

    /// The error document sent on the wire.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("error", self.code.into()),
            ("message", self.message.as_str().into()),
        ])
        .to_string()
    }
}

/// Parsed `POST /v1/predict` body.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Registry name of the model to use.
    pub model: String,
    /// Which per-mode predictor scores the rows (telemetry observed in
    /// high-performance or low-power mode). Defaults to high-performance.
    pub mode: Mode,
    /// Feature rows, already featurized to the model's input dimension.
    pub rows: Vec<Vec<f64>>,
}

impl PredictRequest {
    /// Parses and size-validates a predict body.
    ///
    /// # Errors
    /// 400 on malformed JSON or missing members, 413 on oversized
    /// batches, 422 on non-numeric features or an unknown mode.
    pub fn parse(body: &str) -> Result<PredictRequest, ApiError> {
        let doc = Json::parse(body).map_err(|e| ApiError::bad_json(e.to_string()))?;
        let model = doc
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing string member `model`"))?
            .to_string();
        let mode = match doc.get("mode").and_then(Json::as_str) {
            None | Some("hi") => Mode::HighPerf,
            Some("lo") => Mode::LowPower,
            Some(other) => {
                return Err(ApiError::unprocessable(
                    "unknown_mode",
                    format!("mode must be \"hi\" or \"lo\", got \"{other}\""),
                ))
            }
        };
        let rows_json = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::bad_request("missing array member `rows`"))?;
        if rows_json.is_empty() {
            return Err(ApiError::unprocessable("empty_batch", "rows is empty"));
        }
        if rows_json.len() > MAX_BATCH_ROWS {
            return Err(ApiError::too_large(format!(
                "batch of {} rows exceeds the {MAX_BATCH_ROWS}-row limit",
                rows_json.len()
            )));
        }
        let mut rows = Vec::with_capacity(rows_json.len());
        for (i, row) in rows_json.iter().enumerate() {
            let items = row.as_arr().ok_or_else(|| {
                ApiError::unprocessable("bad_row", format!("rows[{i}] is not an array"))
            })?;
            if items.len() > MAX_ROW_DIM {
                return Err(ApiError::too_large(format!(
                    "rows[{i}] has {} features, limit {MAX_ROW_DIM}",
                    items.len()
                )));
            }
            let mut out = Vec::with_capacity(items.len());
            for (j, v) in items.iter().enumerate() {
                let x = v.as_f64().ok_or_else(|| {
                    ApiError::unprocessable(
                        "bad_feature",
                        format!("rows[{i}][{j}] is not a number"),
                    )
                })?;
                out.push(x);
            }
            rows.push(out);
        }
        Ok(PredictRequest { model, mode, rows })
    }

    /// Validates every row against the model's recorded input dimension.
    ///
    /// # Errors
    /// 422 `dimension_mismatch` naming the first offending row.
    pub fn check_dims(&self, model: &TrainedAdaptModel) -> Result<(), ApiError> {
        let (_, fw) = model.mode_parts(self.mode);
        let Some(expected) = fw.input_dim() else {
            return Ok(());
        };
        for (i, row) in self.rows.iter().enumerate() {
            if row.len() != expected {
                return Err(ApiError::unprocessable(
                    "dimension_mismatch",
                    format!(
                        "rows[{i}] has {} features, model expects {expected}",
                        row.len()
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// One scored row of a predict response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// HighPerf→LowPower gating probability from the mode predictor.
    pub proba: f64,
    /// Thresholded gating decision.
    pub gate: bool,
}

/// Scores every row, in order, through the mode's firmware predictor on
/// the calling thread: the daemon's worker pool is the parallelism, one
/// connection per worker.
///
/// # Panics
/// Panics if a row's dimension is not the predictor's; the request
/// parser has rejected those rows already.
pub fn score_rows(model: &TrainedAdaptModel, mode: Mode, rows: &[Vec<f64>]) -> Vec<Scored> {
    let (_, fw) = model.mode_parts(mode);
    let checked = "rows are checked against the input dimension";
    rows.iter()
        .map(|row| Scored {
            proba: fw.score(row).expect(checked),
            gate: fw.predict(row).expect(checked),
        })
        .collect()
}

/// Renders scored rows as a JSON document (`Accept: application/json`).
pub fn predict_json(model: &str, scored: &[Scored]) -> String {
    let results = scored
        .iter()
        .map(|s| Json::obj(vec![("proba", Json::Num(s.proba)), ("gate", s.gate.into())]))
        .collect();
    Json::obj(vec![
        ("model", model.into()),
        ("count", (scored.len() as u64).into()),
        ("results", Json::Arr(results)),
    ])
    .to_string()
}

/// Renders scored rows as NDJSON, one object per line
/// (`Accept: application/x-ndjson`).
pub fn predict_ndjson(scored: &[Scored]) -> String {
    let mut out = String::new();
    for (i, s) in scored.iter().enumerate() {
        out.push_str(
            &Json::obj(vec![
                ("row", (i as u64).into()),
                ("proba", Json::Num(s.proba)),
                ("gate", s.gate.into()),
            ])
            .to_string(),
        );
        out.push('\n');
    }
    out
}

/// Parsed `POST /v1/closed-loop` body: a seeded workload spec the daemon
/// turns into traces, a `ClosedLoopRequest`, and a summary document.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopSpec {
    /// Registry name of the model to deploy in the loop.
    pub model: String,
    /// Workload phase archetype generating the trace.
    pub archetype: Archetype,
    /// Workload generator seed.
    pub seed: u64,
    /// Prediction windows to simulate.
    pub windows: u64,
    /// Warm-up instructions replayed before measurement.
    pub warm_insts: u64,
    /// Optional chaos on the simulated loop (psca-faults grammar); when
    /// set, the summary also carries the degradation block (ladder and
    /// fault counts).
    pub chaos: Option<ChaosSpec>,
}

/// Parses an archetype name, tolerant of case and `-`/`_` separators
/// (`"dep-chain"`, `"DepChain"`, `"mem_bound"`).
pub fn parse_archetype(name: &str) -> Option<Archetype> {
    let canon = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect::<String>()
    };
    let wanted = canon(name);
    Archetype::ALL
        .into_iter()
        .find(|a| canon(&format!("{a:?}")) == wanted)
}

impl ClosedLoopSpec {
    /// Parses and limit-validates a closed-loop body.
    ///
    /// # Errors
    /// 400 on malformed JSON, missing members or a `backend` member (the
    /// simulator has one fidelity), 413 on runs over the window/warm-up
    /// limits, 422 on unknown archetypes or chaos specs.
    pub fn parse(body: &str) -> Result<ClosedLoopSpec, ApiError> {
        let doc = Json::parse(body).map_err(|e| ApiError::bad_json(e.to_string()))?;
        if doc.get("backend").is_some() {
            return Err(ApiError::bad_request(
                "unsupported member `backend`: every run uses the cycle-level simulator",
            ));
        }
        let model = doc
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing string member `model`"))?
            .to_string();
        let arch_name = doc
            .get("archetype")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing string member `archetype`"))?;
        let archetype = parse_archetype(arch_name).ok_or_else(|| {
            ApiError::unprocessable(
                "unknown_archetype",
                format!("unknown archetype \"{arch_name}\""),
            )
        })?;
        let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(1);
        let windows = doc.get("windows").and_then(Json::as_u64).unwrap_or(16);
        if windows == 0 {
            return Err(ApiError::unprocessable("empty_run", "windows must be > 0"));
        }
        if windows > MAX_WINDOWS {
            return Err(ApiError::too_large(format!(
                "{windows} windows exceeds the {MAX_WINDOWS}-window limit"
            )));
        }
        let warm_insts = doc
            .get("warm_insts")
            .and_then(Json::as_u64)
            .unwrap_or(2_000);
        if warm_insts > MAX_WARM_INSTS {
            return Err(ApiError::too_large(format!(
                "warm_insts {warm_insts} exceeds the {MAX_WARM_INSTS} limit"
            )));
        }
        let chaos =
            match doc.get("chaos").and_then(Json::as_str) {
                None => None,
                Some(spec) => Some(ChaosSpec::parse(spec).map_err(|e| {
                    ApiError::unprocessable("bad_chaos_spec", format!("chaos: {e}"))
                })?),
            };
        Ok(ClosedLoopSpec {
            model,
            archetype,
            seed,
            windows,
            warm_insts,
            chaos,
        })
    }

    /// Records the spec's seeded trace, runs the closed loop with the
    /// named registry model, and renders the summary document. The
    /// document carries no wall-clock data: it is a pure function of the
    /// spec and the registry, so `repro closed-loop` and
    /// `POST /v1/closed-loop` print the same bytes for the same run.
    ///
    /// # Errors
    /// 404 when the registry holds no model under `self.model`.
    pub fn run(&self, registry: &ModelRegistry) -> Result<(Json, ClosedLoopResult), ApiError> {
        let model = registry
            .get(&self.model)
            .ok_or_else(|| ApiError::not_found(format!("no model named \"{}\"", self.model)))?;
        let interval_insts = registry.config().interval_insts;
        let mut gen = PhaseGenerator::new(self.archetype.center(), self.seed);
        let window_insts = self.windows * model.granularity_insts(interval_insts);
        let (warm, window) = record_trace(&mut gen, self.warm_insts, window_insts);
        let out = ClosedLoopRequest::new(model, &warm, &window, interval_insts)
            .with_faults(self.chaos.clone().unwrap_or_default())
            .run();
        let mut fields: Vec<(&str, Json)> = vec![
            ("model", self.model.as_str().into()),
            ("archetype", format!("{:?}", self.archetype).into()),
            ("seed", self.seed.into()),
            ("windows", (out.modes.len() as u64).into()),
            ("instructions", out.instructions.into()),
            ("cycles", out.cycles.into()),
            ("energy", out.energy.into()),
            ("ppw", out.ppw().into()),
            ("low_power_residency", out.low_power_residency.into()),
        ];
        if self.chaos.is_some() {
            fields.extend([
                ("degraded_fraction", out.degrade.degraded_fraction().into()),
                ("escalations", out.degrade.escalations.into()),
                ("recoveries", out.degrade.recoveries.into()),
                ("faults_injected", out.faults.total().into()),
                ("images_rejected", out.images_rejected.into()),
            ]);
        }
        Ok((Json::obj(fields), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_request_round_trips() {
        let req =
            PredictRequest::parse(r#"{"model":"best-rf","mode":"lo","rows":[[1.0,2.5],[3,4]]}"#)
                .unwrap();
        assert_eq!(req.model, "best-rf");
        assert_eq!(req.mode, Mode::LowPower);
        assert_eq!(req.rows, vec![vec![1.0, 2.5], vec![3.0, 4.0]]);
        // Mode defaults to hi.
        let req = PredictRequest::parse(r#"{"model":"m","rows":[[0]]}"#).unwrap();
        assert_eq!(req.mode, Mode::HighPerf);
    }

    #[test]
    fn predict_request_rejects_malformed_inputs() {
        assert_eq!(PredictRequest::parse("{not json").unwrap_err().status, 400);
        assert_eq!(
            PredictRequest::parse(r#"{"rows":[[1]]}"#)
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            PredictRequest::parse(r#"{"model":"m","rows":[]}"#)
                .unwrap_err()
                .code,
            "empty_batch"
        );
        assert_eq!(
            PredictRequest::parse(r#"{"model":"m","mode":"turbo","rows":[[1]]}"#)
                .unwrap_err()
                .code,
            "unknown_mode"
        );
        assert_eq!(
            PredictRequest::parse(r#"{"model":"m","rows":[["a"]]}"#)
                .unwrap_err()
                .code,
            "bad_feature"
        );
        let big_batch = format!(
            r#"{{"model":"m","rows":[{}]}}"#,
            vec!["[1]"; MAX_BATCH_ROWS + 1].join(",")
        );
        assert_eq!(PredictRequest::parse(&big_batch).unwrap_err().status, 413);
    }

    #[test]
    fn archetype_names_parse_in_any_style() {
        assert_eq!(parse_archetype("DepChain"), Some(Archetype::DepChain));
        assert_eq!(parse_archetype("dep-chain"), Some(Archetype::DepChain));
        assert_eq!(parse_archetype("MEM_BOUND"), Some(Archetype::MemBound));
        assert_eq!(parse_archetype("warp-drive"), None);
    }

    #[test]
    fn closed_loop_spec_parses_and_validates() {
        let spec = ClosedLoopSpec::parse(
            r#"{"model":"best-rf","archetype":"dep-chain","seed":9,"windows":8}"#,
        )
        .unwrap();
        assert_eq!(spec.archetype, Archetype::DepChain);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.windows, 8);
        assert!(spec.chaos.is_none());
        let over = format!(
            r#"{{"model":"m","archetype":"balanced","windows":{}}}"#,
            MAX_WINDOWS + 1
        );
        assert_eq!(ClosedLoopSpec::parse(&over).unwrap_err().status, 413);
        assert_eq!(
            ClosedLoopSpec::parse(r#"{"model":"m","archetype":"balanced","chaos":"nope"}"#)
                .unwrap_err()
                .code,
            "bad_chaos_spec"
        );
    }

    #[test]
    fn closed_loop_spec_rejects_a_backend_member() {
        for name in ["surrogate", "cycle_accurate"] {
            let body = format!(r#"{{"model":"m","archetype":"balanced","backend":"{name}"}}"#);
            let err = ClosedLoopSpec::parse(&body).unwrap_err();
            assert_eq!((err.status, err.code), (400, "bad_request"), "{name}");
            assert!(err.message.contains("backend"), "{}", err.message);
        }
        assert!(ClosedLoopSpec::parse(r#"{"model":"m","archetype":"balanced"}"#).is_ok());
    }

    #[test]
    fn error_documents_are_json() {
        let e = ApiError::backpressure(64);
        assert_eq!(e.status, 429);
        let doc = Json::parse(&e.to_json()).unwrap();
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("queue_full"));
    }

    #[test]
    fn ndjson_emits_one_line_per_row() {
        let scored = [
            Scored {
                proba: 0.25,
                gate: false,
            },
            Scored {
                proba: 0.75,
                gate: true,
            },
        ];
        let text = predict_ndjson(&scored);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("row").and_then(Json::as_u64), Some(0));
        assert_eq!(first.get("proba").and_then(Json::as_f64), Some(0.25));
    }
}
