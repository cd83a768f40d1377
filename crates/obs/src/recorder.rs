//! Flight recorder: a bounded ring of recent request/decision records.
//!
//! The serving path pushes one [`RequestRecord`] per finished request;
//! [`RequestRecord::to_json`] is the one shape a finished request is
//! written in: `GET /v1/debug/requests`, the postmortem dumps and the
//! daemon's `--access-log` lines all render it. The ring is lock-free
//! on the writer's hot path — a single `fetch_add` claims a slot, each
//! slot has its own mutex so writers never contend unless the ring laps
//! itself — and bounded, so a misbehaving deployment can't grow memory.
//!
//! When something goes wrong (a 5xx, an SLO alert firing, a degradation
//! tier escalation) the daemon calls [`FlightRecorder::dump`], which
//! writes the ring's contents oldest-first as a JSONL postmortem
//! artifact under `target/obs/` — the "what were the last N requests
//! doing" file you want attached to a CI failure. Dumps are capped per
//! process so a crash loop can't fill the disk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Per-process cap on postmortem dumps (a crash loop stops writing
/// artifacts after this many).
const MAX_DUMPS: u64 = 64;

/// Default global ring capacity.
const GLOBAL_CAPACITY: usize = 512;

/// One request's flight-recorder entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestRecord {
    /// Monotonic sequence number (assigned by [`FlightRecorder::push`]).
    pub seq: u64,
    /// Unix-epoch milliseconds when the request finished.
    pub ts_ms: u64,
    /// 32-hex-digit trace id (empty when the request had no context).
    pub trace_id: String,
    /// HTTP method (empty when the request could not be framed).
    pub method: String,
    /// Request path (empty when the request could not be framed).
    pub path: String,
    /// Endpoint key (e.g. `predict`, `closed_loop`).
    pub endpoint: String,
    /// HTTP status returned.
    pub status: u16,
    /// End-to-end handling latency, microseconds.
    pub latency_us: u64,
    /// Time spent queued before a worker picked the request up.
    pub queue_us: u64,
    /// Error classification (e.g. `bad_request`, `backpressure`), empty
    /// for successes.
    pub error_class: String,
    /// Free-form annotation (degradation tier transitions, chaos notes).
    pub note: String,
}

impl RequestRecord {
    /// The record's JSON object (one compact line in dumps and the
    /// access log, one array entry in `/v1/debug/requests`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", self.seq.into()),
            ("ts_ms", self.ts_ms.into()),
            ("trace_id", self.trace_id.as_str().into()),
            ("method", self.method.as_str().into()),
            ("path", self.path.as_str().into()),
            ("endpoint", self.endpoint.as_str().into()),
            ("status", u64::from(self.status).into()),
            ("latency_us", self.latency_us.into()),
            ("queue_us", self.queue_us.into()),
            ("error_class", self.error_class.as_str().into()),
            ("note", self.note.as_str().into()),
        ])
    }
}

/// Bounded ring of the most recent [`RequestRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<RequestRecord>>>,
    head: AtomicU64,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` records.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (not just retained).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one request, overwriting the oldest entry once the ring
    /// is full. Returns the record's sequence number.
    pub fn push(&self, mut record: RequestRecord) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let idx = (seq % self.slots.len() as u64) as usize;
        *self.slots[idx].lock().unwrap() = Some(record);
        seq
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<RequestRecord> {
        let mut records: Vec<RequestRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap().clone())
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// The `GET /v1/debug/requests` document: newest-first records plus
    /// ring stats.
    pub fn to_json(&self) -> Json {
        let mut records = self.snapshot();
        records.reverse();
        Json::obj(vec![
            ("capacity", (self.capacity() as u64).into()),
            ("pushed", self.pushed().into()),
            (
                "requests",
                Json::Arr(records.iter().map(RequestRecord::to_json).collect()),
            ),
        ])
    }

    /// Dumps the ring as a JSONL postmortem artifact
    /// `<dir>/postmortem-<reason>-<seq>.jsonl` (oldest record first,
    /// preceded by a header line naming the reason and — when the
    /// self-profiler has data — the hottest self-time paths at dump
    /// time). Returns the path,
    /// or `None` when the ring is empty, the per-process dump cap is
    /// reached, or the write fails (postmortems must never take the
    /// serving path down).
    pub fn dump(&self, dir: &Path, reason: &str) -> Option<PathBuf> {
        let records = self.snapshot();
        if records.is_empty() {
            return None;
        }
        if self.dumps.fetch_add(1, Ordering::Relaxed) >= MAX_DUMPS {
            return None;
        }
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        let slug = crate::path_slug(reason);
        let last_seq = records.last().map_or(0, |r| r.seq);
        let path = dir.join(format!("postmortem-{slug}-{last_seq}.jsonl"));
        let mut header_fields = vec![
            ("postmortem", reason.into()),
            ("records", (records.len() as u64).into()),
            ("last_seq", last_seq.into()),
        ];
        // When the self-profiler is running, snapshot the hottest paths
        // at dump time: a postmortem should say not just what the last
        // N requests were, but where the process was spending its time.
        let hottest = crate::prof::snapshot().top_self(5);
        if !hottest.is_empty() {
            header_fields.push((
                "hottest_paths",
                Json::Arr(
                    hottest
                        .iter()
                        .map(|(stack, stat)| {
                            Json::obj(vec![
                                ("stack", stack.as_str().into()),
                                ("self_us", (stat.self_ns / 1_000).into()),
                                ("calls", stat.calls.into()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        let header = Json::obj(header_fields);
        let mut body = String::with_capacity(records.len() * 160);
        body.push_str(&header.to_string());
        body.push('\n');
        for r in &records {
            body.push_str(&r.to_json().to_string());
            body.push('\n');
        }
        std::fs::write(&path, body).ok()?;
        Some(path)
    }
}

/// The process-global recorder used by the serve daemon.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: std::sync::OnceLock<FlightRecorder> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(GLOBAL_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(endpoint: &str, status: u16) -> RequestRecord {
        RequestRecord {
            seq: 0,
            ts_ms: 1,
            trace_id: "deadbeef".into(),
            method: "POST".into(),
            path: format!("/v1/{endpoint}"),
            endpoint: endpoint.into(),
            status,
            latency_us: 100,
            queue_us: 10,
            error_class: if status >= 400 {
                "err".into()
            } else {
                String::new()
            },
            note: String::new(),
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u16 {
            rec.push(record("predict", 200 + i));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(rec.pushed(), 10);
        // Oldest-first, retaining the final four pushes.
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn dump_writes_jsonl() {
        let rec = FlightRecorder::new(8);
        rec.push(record("predict", 200));
        rec.push(record("closed_loop", 503));
        let dir = std::env::temp_dir().join(format!("psca-recorder-test-{}", std::process::id()));
        let path = rec.dump(&dir, "http 5xx").expect("dump path");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("postmortem").and_then(Json::as_str),
            Some("http 5xx")
        );
        assert_eq!(lines[2], rec.snapshot()[1].to_json().to_string());
        let last = Json::parse(lines[2]).unwrap();
        assert_eq!(last.get("status").and_then(Json::as_u64), Some(503));
        assert_eq!(
            last.get("trace_id").and_then(Json::as_str),
            Some("deadbeef")
        );
        // Reason is slugged in the filename.
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("http_5xx"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_ring_does_not_dump() {
        let rec = FlightRecorder::new(4);
        assert_eq!(rec.dump(Path::new("/nonexistent"), "x"), None);
    }

    #[test]
    fn debug_document_is_newest_first() {
        let rec = FlightRecorder::new(4);
        rec.push(record("a", 200));
        rec.push(record("b", 200));
        let doc = rec.to_json();
        let reqs = doc.get("requests").and_then(Json::as_arr).unwrap();
        assert_eq!(reqs[0].get("endpoint").and_then(Json::as_str), Some("b"));
        assert_eq!(reqs[1].get("endpoint").and_then(Json::as_str), Some("a"));
        assert_eq!(doc.get("capacity").and_then(Json::as_u64), Some(4));
    }
}
