//! Declarative service-level objectives with burn-rate alerting.
//!
//! An [`SloSpec`] is parsed from the shared `key=value` spec grammar
//! ([`crate::spec`]; `p99_us=250000,availability=0.999`) and names
//! the targets a serving deployment promises: tail latency and
//! availability. An [`SloEngine`] folds per-request observations into
//! per-second sliding windows and evaluates the spec two ways:
//!
//! - **point-in-time** — windowed p99 and availability against target
//!   ([`SloEngine::status`]);
//! - **burn rate** — error-budget consumption over a fast and a slow
//!   window (the multi-window alerting policy from the SRE workbook): a
//!   burn rate of 1.0 spends the availability budget exactly at the rate
//!   the window allows, 14.0 spends it 14× faster. The fast window
//!   catches sharp outages, the slow window catches smouldering ones.
//!
//! All evaluation takes explicit millisecond timestamps so tests drive
//! time deterministically; the serve daemon passes wall-clock time since
//! its own start epoch.

use crate::json::Json;
use crate::spec::{self, Preset, SpecError, SpecErrorKind};

/// Default p99 target: generous enough for CI machines (250 ms).
const DEFAULT_P99_US: u64 = 250_000;
/// Default availability target (three nines).
const DEFAULT_AVAILABILITY: f64 = 0.999;
/// Default short evaluation window (seconds).
const DEFAULT_WINDOW_S: u64 = 60;
/// Default long burn-rate window (seconds).
const DEFAULT_LONG_WINDOW_S: u64 = 600;
/// Default fast-window burn-rate alert threshold.
const DEFAULT_FAST_BURN: f64 = 14.0;
/// Default slow-window burn-rate alert threshold.
const DEFAULT_SLOW_BURN: f64 = 2.0;

/// Maximum raw latency samples retained for windowed quantiles.
const MAX_LATENCY_SAMPLES: usize = 8192;

/// A parsed service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// p99 latency target in microseconds.
    pub p99_latency_us: u64,
    /// Availability target in `(0, 1)` — fraction of non-5xx responses.
    pub availability: f64,
    /// Short sliding window, seconds (p99 + fast burn rate).
    pub window_s: u64,
    /// Long sliding window, seconds (slow burn rate).
    pub long_window_s: u64,
    /// Fast-window burn-rate alert threshold.
    pub fast_burn: f64,
    /// Slow-window burn-rate alert threshold.
    pub slow_burn: f64,
}

impl Default for SloSpec {
    fn default() -> SloSpec {
        SloSpec {
            p99_latency_us: DEFAULT_P99_US,
            availability: DEFAULT_AVAILABILITY,
            window_s: DEFAULT_WINDOW_S,
            long_window_s: DEFAULT_LONG_WINDOW_S,
            fast_burn: DEFAULT_FAST_BURN,
            slow_burn: DEFAULT_SLOW_BURN,
        }
    }
}

impl SloSpec {
    /// Parses the SLO grammar ([`crate::spec`] rules): `p99_us`,
    /// `window_s`, `long_window_s` (positive integers, `long_window_s >=
    /// window_s`), `availability` (in `(0, 1)`), `fast_burn`, `slow_burn`
    /// (positive finite numbers). The presets `""` and `default` yield the
    /// default spec; `off` yields `None`.
    pub fn parse(s: &str) -> Result<Option<SloSpec>, SpecError> {
        let out = match spec::preset(s) {
            Some(Preset::Off) => return Ok(None),
            Some(Preset::Default) => SloSpec::default(),
            None => spec::apply_entries(s, SloSpec::default(), |out, e| {
                match e.key {
                    "p99_us" => out.p99_latency_us = e.positive_int()?,
                    "availability" => {
                        let v = e.unit()?;
                        if v == 0.0 || v == 1.0 {
                            return Err(
                                e.error(SpecErrorKind::Rule("expected a number in (0, 1)".into()))
                            );
                        }
                        out.availability = v;
                    }
                    "window_s" => out.window_s = e.positive_int()?,
                    "long_window_s" => out.long_window_s = e.positive_int()?,
                    "fast_burn" => out.fast_burn = e.positive_finite()?,
                    "slow_burn" => out.slow_burn = e.positive_finite()?,
                    _ => return Err(e.unknown_key()),
                }
                Ok(())
            })?,
        };
        if out.long_window_s < out.window_s {
            return Err(SpecError::new(
                format!("long_window_s={}", out.long_window_s),
                SpecErrorKind::Rule(format!("must be >= window_s ({})", out.window_s)),
            ));
        }
        Ok(Some(out))
    }

    /// The fraction of requests allowed to fail (`1 - availability`).
    pub fn error_budget(&self) -> f64 {
        1.0 - self.availability
    }

    /// Canonical `key=value` rendering (parses back to `self`).
    pub fn render(&self) -> String {
        format!(
            "p99_us={},availability={},window_s={},long_window_s={},fast_burn={},slow_burn={}",
            self.p99_latency_us,
            self.availability,
            self.window_s,
            self.long_window_s,
            self.fast_burn,
            self.slow_burn
        )
    }

    /// JSON rendering of the spec itself.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("p99_us", self.p99_latency_us.into()),
            ("availability", self.availability.into()),
            ("window_s", self.window_s.into()),
            ("long_window_s", self.long_window_s.into()),
            ("fast_burn", self.fast_burn.into()),
            ("slow_burn", self.slow_burn.into()),
        ])
    }
}

/// One second's worth of request outcomes.
#[derive(Debug, Clone, Copy, Default)]
struct SecondBucket {
    /// Absolute second this bucket covers (ms timestamp / 1000).
    second: u64,
    requests: u64,
    errors: u64,
}

/// Point-in-time evaluation of an [`SloSpec`] over its sliding windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Requests observed in the short window.
    pub window_requests: u64,
    /// Errors (5xx) observed in the short window.
    pub window_errors: u64,
    /// Windowed p99 latency in microseconds (`None` until samples exist).
    pub p99_us: Option<f64>,
    /// Windowed availability (`None` until requests exist).
    pub availability: Option<f64>,
    /// Error-budget burn rate over the short window.
    pub fast_burn_rate: f64,
    /// Error-budget burn rate over the long window.
    pub slow_burn_rate: f64,
    /// Human-readable active alerts (empty when healthy).
    pub alerts: Vec<String>,
}

impl SloStatus {
    /// True when no objective is currently violated.
    pub fn ok(&self) -> bool {
        self.alerts.is_empty()
    }
}

/// Sliding-window evaluator: feed it one observation per request via
/// [`SloEngine::observe`], read the verdict with [`SloEngine::status`].
#[derive(Debug)]
pub struct SloEngine {
    spec: SloSpec,
    /// Per-second outcome ring, `long_window_s` seconds deep.
    buckets: Vec<SecondBucket>,
    /// Recent (ts_ms, latency_us) samples for windowed quantiles.
    latencies: Vec<(u64, u64)>,
    latency_head: usize,
}

impl SloEngine {
    /// A fresh engine evaluating `spec`.
    pub fn new(spec: SloSpec) -> SloEngine {
        let depth = spec.long_window_s as usize;
        SloEngine {
            spec,
            buckets: vec![SecondBucket::default(); depth.max(1)],
            latencies: Vec::new(),
            latency_head: 0,
        }
    }

    /// The spec under evaluation.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Records one finished request. `now_ms` is milliseconds since an
    /// arbitrary fixed epoch (monotonic per engine); `error` means the
    /// response was a 5xx.
    pub fn observe(&mut self, now_ms: u64, latency_us: u64, error: bool) {
        let second = now_ms / 1000;
        let idx = (second as usize) % self.buckets.len();
        let bucket = &mut self.buckets[idx];
        if bucket.second != second {
            // The ring lapped: this slot belonged to an expired second.
            *bucket = SecondBucket {
                second,
                requests: 0,
                errors: 0,
            };
        }
        bucket.requests += 1;
        if error {
            bucket.errors += 1;
        }
        if self.latencies.len() < MAX_LATENCY_SAMPLES {
            self.latencies.push((now_ms, latency_us));
        } else {
            self.latencies[self.latency_head] = (now_ms, latency_us);
            self.latency_head = (self.latency_head + 1) % MAX_LATENCY_SAMPLES;
        }
    }

    /// Requests/errors observed within the trailing `window_s` seconds.
    fn window_counts(&self, now_ms: u64, window_s: u64) -> (u64, u64) {
        let now_second = now_ms / 1000;
        let oldest = now_second.saturating_sub(window_s.saturating_sub(1));
        let mut requests = 0;
        let mut errors = 0;
        for b in &self.buckets {
            if b.requests > 0 && b.second >= oldest && b.second <= now_second {
                requests += b.requests;
                errors += b.errors;
            }
        }
        (requests, errors)
    }

    /// Error-budget burn rate over a trailing window: observed error
    /// fraction divided by the budgeted fraction. 0.0 when idle.
    fn burn_rate(&self, now_ms: u64, window_s: u64) -> f64 {
        let (requests, errors) = self.window_counts(now_ms, window_s);
        if requests == 0 {
            return 0.0;
        }
        let budget = self.spec.error_budget();
        if budget <= 0.0 {
            return if errors > 0 { f64::INFINITY } else { 0.0 };
        }
        (errors as f64 / requests as f64) / budget
    }

    /// Windowed p99 over retained latency samples.
    fn window_p99(&self, now_ms: u64) -> Option<f64> {
        let cutoff = now_ms.saturating_sub(self.spec.window_s * 1000);
        let mut samples: Vec<u64> = self
            .latencies
            .iter()
            .filter(|(ts, _)| *ts >= cutoff && *ts <= now_ms)
            .map(|(_, lat)| *lat)
            .collect();
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
        Some(samples[rank.saturating_sub(1).min(samples.len() - 1)] as f64)
    }

    /// Evaluates the spec at `now_ms`.
    pub fn status(&self, now_ms: u64) -> SloStatus {
        let (window_requests, window_errors) = self.window_counts(now_ms, self.spec.window_s);
        let p99_us = self.window_p99(now_ms);
        let availability = if window_requests > 0 {
            Some(1.0 - window_errors as f64 / window_requests as f64)
        } else {
            None
        };
        let fast_burn_rate = self.burn_rate(now_ms, self.spec.window_s);
        let slow_burn_rate = self.burn_rate(now_ms, self.spec.long_window_s);

        let mut alerts = Vec::new();
        if let Some(p99) = p99_us {
            if p99 > self.spec.p99_latency_us as f64 {
                alerts.push(format!(
                    "p99 latency {:.0}us exceeds target {}us over {}s window",
                    p99, self.spec.p99_latency_us, self.spec.window_s
                ));
            }
        }
        if fast_burn_rate >= self.spec.fast_burn {
            alerts.push(format!(
                "fast burn rate {:.2} >= {:.2} over {}s window",
                fast_burn_rate, self.spec.fast_burn, self.spec.window_s
            ));
        }
        if slow_burn_rate >= self.spec.slow_burn {
            alerts.push(format!(
                "slow burn rate {:.2} >= {:.2} over {}s window",
                slow_burn_rate, self.spec.slow_burn, self.spec.long_window_s
            ));
        }

        SloStatus {
            window_requests,
            window_errors,
            p99_us,
            availability,
            fast_burn_rate,
            slow_burn_rate,
            alerts,
        }
    }

    /// The `GET /v1/slo` document: spec + current status.
    pub fn to_json(&self, now_ms: u64) -> Json {
        let status = self.status(now_ms);
        Json::obj(vec![
            ("spec", self.spec.to_json()),
            ("ok", status.ok().into()),
            ("window_requests", status.window_requests.into()),
            ("window_errors", status.window_errors.into()),
            ("p99_us", status.p99_us.map_or(Json::Null, Json::from)),
            (
                "availability",
                status.availability.map_or(Json::Null, Json::from),
            ),
            ("fast_burn_rate", status.fast_burn_rate.into()),
            ("slow_burn_rate", status.slow_burn_rate.into()),
            (
                "alerts",
                Json::Arr(status.alerts.iter().map(|a| a.as_str().into()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_specials() {
        let spec = SloSpec::parse("").unwrap().unwrap();
        assert_eq!(spec, SloSpec::default());
        let spec = SloSpec::parse("default").unwrap().unwrap();
        assert_eq!(spec, SloSpec::default());
        assert_eq!(SloSpec::parse("off").unwrap(), None);
    }

    #[test]
    fn parse_full_grammar() {
        let spec = SloSpec::parse(
            "p99_us=50000, availability=0.99, window_s=10, long_window_s=100, \
             fast_burn=10, slow_burn=1.5",
        )
        .unwrap()
        .unwrap();
        assert_eq!(spec.p99_latency_us, 50_000);
        assert_eq!(spec.availability, 0.99);
        assert_eq!(spec.window_s, 10);
        assert_eq!(spec.long_window_s, 100);
        assert_eq!(spec.fast_burn, 10.0);
        assert_eq!(spec.slow_burn, 1.5);
        // Canonical render parses back to the same spec.
        let reparsed = SloSpec::parse(&spec.render()).unwrap().unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn parse_rejects_bad_entries() {
        assert!(SloSpec::parse("nonsense").is_err());
        assert!(SloSpec::parse("p99_us=abc").is_err());
        assert!(SloSpec::parse("p99_us=0").is_err());
        assert!(SloSpec::parse("availability=1.5").is_err());
        assert!(SloSpec::parse("availability=0").is_err());
        // The daemon enforces latency and availability only; a residency
        // floor is not part of the grammar.
        assert_eq!(
            SloSpec::parse("rsv_floor=0.5").unwrap_err().kind,
            SpecErrorKind::UnknownKey("rsv_floor".into())
        );
        assert!(SloSpec::parse("unknown_key=1").is_err());
        assert!(SloSpec::parse("window_s=60,long_window_s=10").is_err());
    }

    #[test]
    fn burn_thresholds_must_be_finite() {
        // A NaN threshold would make `rate >= threshold` always false:
        // the alert could never fire.
        for bad in ["nan", "NaN", "inf", "-inf", "0", "-1"] {
            for key in ["fast_burn", "slow_burn"] {
                let err = SloSpec::parse(&format!("{key}={bad}")).unwrap_err();
                assert_eq!(err.kind, SpecErrorKind::PositiveFinite, "{key}={bad}");
            }
        }
        assert_eq!(
            SloSpec::parse("fast_burn=nan").unwrap_err().to_string(),
            "'fast_burn=nan': expected a positive finite number"
        );
    }

    #[test]
    fn presets_ignore_case() {
        assert_eq!(SloSpec::parse(" OFF ").unwrap(), None);
        assert_eq!(SloSpec::parse("Default").unwrap(), Some(SloSpec::default()));
    }

    #[test]
    fn burn_rates_track_error_fraction() {
        let spec = SloSpec::parse("availability=0.99,window_s=10,long_window_s=100")
            .unwrap()
            .unwrap();
        let mut engine = SloEngine::new(spec);
        // 100 requests in one second, 10 errors: error fraction 0.1,
        // budget 0.01 → burn rate 10 on both windows.
        for i in 0..100 {
            engine.observe(5_000, 1_000, i < 10);
        }
        let status = engine.status(5_000);
        assert_eq!(status.window_requests, 100);
        assert_eq!(status.window_errors, 10);
        assert!((status.fast_burn_rate - 10.0).abs() < 1e-9);
        assert!((status.slow_burn_rate - 10.0).abs() < 1e-9);
        assert!(!status.ok());
        // 20 seconds later the fast window is clean but the slow window
        // still remembers.
        let status = engine.status(25_000);
        assert_eq!(status.window_requests, 0);
        assert_eq!(status.fast_burn_rate, 0.0);
        assert!((status.slow_burn_rate - 10.0).abs() < 1e-9);
        // Past the long window everything expires. The ring only lapses
        // buckets on write, so sweep a heartbeat past expiry first.
        engine.observe(200_000, 1_000, false);
        let status = engine.status(200_000);
        assert_eq!(status.slow_burn_rate, 0.0);
        assert!(status.ok());
    }

    #[test]
    fn p99_windowed_and_alerting() {
        let spec = SloSpec::parse("p99_us=10000,window_s=10,long_window_s=100")
            .unwrap()
            .unwrap();
        let mut engine = SloEngine::new(spec);
        // 98 fast + 2 slow samples: the ceil-rank p99 of 100 samples is
        // the 99th sorted one, i.e. the slower tail.
        for _ in 0..98 {
            engine.observe(1_000, 1_000, false);
        }
        engine.observe(1_000, 50_000, false);
        engine.observe(1_000, 50_000, false);
        let status = engine.status(1_000);
        assert!(status.p99_us.unwrap() >= 10_000.0);
        assert!(!status.ok());
        // Slow samples age out of the window.
        let status = engine.status(20_000);
        assert_eq!(status.p99_us, None);
    }

    #[test]
    fn json_document_shape() {
        let mut engine = SloEngine::new(SloSpec::default());
        engine.observe(1_000, 500, false);
        let doc = engine.to_json(1_000);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("window_requests").and_then(Json::as_u64), Some(1));
        assert!(doc.get("spec").is_some());
    }
}
