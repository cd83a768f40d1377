//! End-of-run aggregation: one JSON artifact plus a rendered table.
//!
//! A [`RunReport`] gathers per-phase wall times (recorded with
//! [`RunReport::add_phase`]), headline summary values (instructions/sec,
//! low-power residency, guardrail trips, ...), and a full snapshot of the
//! global metric registry. [`RunReport::write`] serializes to
//! `target/obs/<run>.json` (or any directory), publishes the JSON as the
//! latest report (served live on a daemon's `/report` endpoint), and
//! [`RunReport::render`] produces the human-readable table the `repro`
//! binary prints.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::{exporter, path_slug};
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Wall time of one named pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name (e.g. `"fig8"`, `"corpus.hdtr"`).
    pub name: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

/// A headline summary value.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryValue {
    /// Count.
    U64(u64),
    /// Measurement.
    F64(f64),
    /// Label.
    Str(String),
}

impl SummaryValue {
    fn to_json(&self) -> Json {
        match self {
            SummaryValue::U64(v) => Json::UInt(*v),
            SummaryValue::F64(v) => Json::Num(*v),
            SummaryValue::Str(v) => Json::Str(v.clone()),
        }
    }

    fn render(&self) -> String {
        match self {
            SummaryValue::U64(v) => v.to_string(),
            SummaryValue::F64(v) => {
                if v.abs() >= 1000.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.4}")
                }
            }
            SummaryValue::Str(v) => v.clone(),
        }
    }
}

impl From<u64> for SummaryValue {
    fn from(v: u64) -> SummaryValue {
        SummaryValue::U64(v)
    }
}

impl From<f64> for SummaryValue {
    fn from(v: f64) -> SummaryValue {
        SummaryValue::F64(v)
    }
}

impl From<&str> for SummaryValue {
    fn from(v: &str) -> SummaryValue {
        SummaryValue::Str(v.to_string())
    }
}

/// Aggregated end-of-run artifact.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Identifier; becomes the artifact file name (`<run>.json`).
    pub run_id: String,
    /// Seconds since the Unix epoch at construction.
    pub started_unix: u64,
    /// Ordered per-phase wall times.
    pub phases: Vec<PhaseStat>,
    /// Ordered headline values.
    pub summary: Vec<(String, SummaryValue)>,
    created: Instant,
}

impl RunReport {
    /// Starts a report for run `run_id`.
    pub fn new(run_id: &str) -> RunReport {
        RunReport {
            run_id: run_id.to_string(),
            started_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            phases: Vec::new(),
            summary: Vec::new(),
            created: Instant::now(),
        }
    }

    /// Records a phase's wall time. Time the phase with a
    /// [`SpanTimer`](crate::SpanTimer) and pass `span.finish() as f64 / 1e9`, so the
    /// report row and the `span.*` histogram share one clock snapshot.
    pub fn add_phase(&mut self, name: &str, wall_s: f64) {
        self.phases.push(PhaseStat {
            name: name.to_string(),
            wall_s,
        });
    }

    /// Sets (or overwrites) a headline summary value.
    pub fn set(&mut self, key: &str, value: impl Into<SummaryValue>) {
        let value = value.into();
        if let Some(slot) = self.summary.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.summary.push((key.to_string(), value));
        }
    }

    /// A headline value, if set.
    pub fn get(&self, key: &str) -> Option<&SummaryValue> {
        self.summary.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Total wall seconds since the report was created.
    pub fn total_wall_s(&self) -> f64 {
        self.created.elapsed().as_secs_f64()
    }

    /// The report as JSON, embedding the metrics of `snap`.
    pub fn to_json(&self, snap: &MetricsSnapshot) -> Json {
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("name", Json::Str(p.name.clone())),
                        ("wall_s", Json::Num(p.wall_s)),
                    ])
                })
                .collect(),
        );
        let summary = Json::Obj(
            self.summary
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        let counters = Json::Obj(
            snap.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            snap.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            snap.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj(vec![
                            ("count", Json::UInt(h.count)),
                            ("sum", Json::UInt(h.sum)),
                            ("min", Json::UInt(h.min)),
                            ("max", Json::UInt(h.max)),
                            ("p50", Json::UInt(h.p50)),
                            ("p95", Json::UInt(h.p95)),
                            ("p99", Json::UInt(h.p99)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("run_id", Json::Str(self.run_id.clone())),
            ("started_unix", Json::UInt(self.started_unix)),
            ("total_wall_s", Json::Num(self.total_wall_s())),
            ("phases", phases),
            ("summary", summary),
            (
                "metrics",
                Json::obj(vec![
                    ("counters", counters),
                    ("gauges", gauges),
                    ("histograms", histograms),
                ]),
            ),
        ])
    }

    /// Writes `<dir>/<slug>.json` with the metrics of `snap`, where the
    /// slug is [`path_slug`] of the run id; returns the JSON path. Also
    /// publishes the JSON as
    /// [`crate::exporter::latest_report`].
    ///
    /// # Errors
    /// Propagates filesystem errors (unwritable directory, ...).
    pub fn write(&self, dir: &Path, snap: &MetricsSnapshot) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", path_slug(&self.run_id)));
        let json = self.to_json(snap).to_string();
        std::fs::write(&path, &json)?;
        exporter::publish_report(&json);
        Ok(path)
    }

    /// Renders the human-readable end-of-run table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let title = format!("run report · {}", self.run_id);
        out.push_str(&format!("{title}\n{}\n", "=".repeat(title.len())));
        if !self.phases.is_empty() {
            let total: f64 = self.phases.iter().map(|p| p.wall_s).sum();
            out.push_str("phase                                    wall      share\n");
            out.push_str("-----                                    ----      -----\n");
            for p in &self.phases {
                let share = if total > 0.0 {
                    100.0 * p.wall_s / total
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{:<40} {:>8.2}s {:>8.1}%\n",
                    p.name, p.wall_s, share
                ));
            }
            out.push_str(&format!("{:<40} {total:>8.2}s\n", "total (phases)"));
        }
        if !self.summary.is_empty() {
            out.push('\n');
            out.push_str("summary\n-------\n");
            for (k, v) in &self.summary {
                out.push_str(&format!("{:<40} {}\n", k, v.render()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_set_overwrites() {
        let mut r = RunReport::new("t");
        r.set("x", 1u64);
        r.set("x", 2u64);
        assert_eq!(r.get("x"), Some(&SummaryValue::U64(2)));
        assert_eq!(r.summary.len(), 1);
    }

    #[test]
    fn json_contains_headline_sections() {
        let mut r = RunReport::new("json-shape");
        r.set("sim_insts_per_sec", 1.5e6);
        r.add_phase("fig4", 0.25);
        let s = r.to_json(&MetricsSnapshot::default()).to_string();
        assert!(s.contains(r#""run_id":"json-shape""#));
        assert!(s.contains(r#""phases":[{"name":"fig4","wall_s":0.25}]"#));
        assert!(s.contains(r#""sim_insts_per_sec":1500000"#));
        assert!(s.contains(r#""metrics""#));
    }

    #[test]
    fn file_name_is_the_run_id_slug() {
        let dir = std::env::temp_dir().join(format!("psca-report-test-{}", std::process::id()));
        let path = RunReport::new("replay-a.b c")
            .write(&dir, &MetricsSnapshot::default())
            .unwrap();
        assert_eq!(path, dir.join("replay-a_b_c.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_mentions_every_phase_and_summary_key() {
        let mut r = RunReport::new("render");
        r.add_phase("train", 1.0);
        r.add_phase("eval", 3.0);
        r.set("guardrail_trips", 4u64);
        let t = r.render();
        assert!(t.contains("train"));
        assert!(t.contains("eval"));
        assert!(t.contains("guardrail_trips"));
        assert!(t.contains("75.0%"));
    }
}
