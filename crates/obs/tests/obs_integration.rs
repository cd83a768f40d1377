//! Cross-layer tests that exercise the global registry and trace state,
//! kept in an integration test so they own the process-wide singletons.

use psca_obs::{emit, FieldValue, Histogram, Level};

#[test]
fn counter_is_atomic_under_thread_fanout() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(|| {
                let c = psca_obs::counter("it_fanout_counter");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        psca_obs::counter("it_fanout_counter").get(),
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn histogram_quantiles_on_known_uniform_distribution() {
    let h = Histogram::new();
    // 1..=1000 uniformly: true p50 = 500, p95 = 950, p99 = 990.
    for v in 1..=1000u64 {
        h.record(v);
    }
    assert_eq!(h.count(), 1000);
    assert_eq!(h.min(), Some(1));
    assert_eq!(h.max(), Some(1000));
    // Bucket lower edges guarantee ~9% relative error, from below only.
    let p50 = h.quantile(0.50).unwrap();
    assert!((455..=500).contains(&p50), "p50 = {p50}");
    let p95 = h.quantile(0.95).unwrap();
    assert!((864..=950).contains(&p95), "p95 = {p95}");
    let p99 = h.quantile(0.99).unwrap();
    assert!((901..=990).contains(&p99), "p99 = {p99}");
    // Extremes are exact.
    assert_eq!(h.quantile(0.0), Some(1));
    assert!(h.quantile(1.0).unwrap() >= 960);
}

#[test]
fn histogram_quantiles_on_point_mass() {
    let h = Histogram::new();
    for _ in 0..100 {
        h.record(7);
    }
    // Values below SUB_BUCKETS are bucketed exactly.
    assert_eq!(h.quantile(0.5), Some(7));
    assert_eq!(h.quantile(0.99), Some(7));
    assert_eq!(h.mean(), 7.0);
}

#[test]
fn prometheus_exposition_parses_line_by_line() {
    use psca_obs::{HistogramSummary, MetricsSnapshot};
    let mut snap = MetricsSnapshot::default();
    snap.counters.insert("it.promparse.count".into(), 42);
    snap.gauges.insert("it.promparse.level".into(), -0.25);
    snap.histograms.insert(
        "it.promparse.lat_ns".into(),
        HistogramSummary {
            count: 3,
            sum: 60,
            min: 10,
            max: 30,
            p50: 20,
            p95: 30,
            p99: 30,
        },
    );
    let text = psca_obs::exporter::prometheus_text(&snap);
    assert!(!text.is_empty());
    let name_ok = |n: &str| {
        !n.is_empty()
            && !n.starts_with(|c: char| c.is_ascii_digit())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a metric name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(name_ok(name), "bad metric name in {line:?}");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "bad kind in {line:?}"
            );
            assert_eq!(parts.next(), None, "trailing tokens in {line:?}");
        } else {
            // Sample line: `name[{labels}] value`.
            let (name_part, value) = line.rsplit_once(' ').expect("sample has name and value");
            let bare = name_part.split('{').next().unwrap();
            assert!(name_ok(bare), "bad sample name in {line:?}");
            if let Some(labels) = name_part.strip_prefix(bare) {
                if !labels.is_empty() {
                    assert!(
                        labels.starts_with('{') && labels.ends_with('}'),
                        "malformed labels in {line:?}"
                    );
                }
            }
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "unparseable value in {line:?}"
            );
        }
    }
    // All three metric kinds must appear, with dots mapped to underscores.
    assert!(text.contains("it_promparse_count 42"));
    assert!(text.contains("it_promparse_level -0.25"));
    assert!(text.contains("it_promparse_lat_ns{quantile=\"0.5\"} 20"));
}

#[test]
fn trace_file_round_trips_as_valid_trace_event_json() {
    let path = std::env::temp_dir().join(format!("psca_obs_it_trace_{}.json", std::process::id()));
    assert!(psca_obs::trace::enable(&path), "recorder already active");
    {
        let _outer = psca_obs::SpanTimer::start("it_trace_outer");
        let _inner = psca_obs::SpanTimer::start("it_trace_inner");
        psca_obs::trace::instant(
            "it.trace.event",
            &[
                ("k", FieldValue::U64(1)),
                ("tag", FieldValue::Str("x".into())),
            ],
        );
        psca_obs::trace::counter_event("it.trace.ipc", 2.5);
        // Tracing alone is a consumer: a guarded site builds its fields,
        // and `emit` records them as an instant of the same name.
        assert!(psca_obs::enabled(Level::Trace));
        emit(
            Level::Debug,
            "it.trace.emitted",
            &[
                ("n", FieldValue::U64(3)),
                ("who", FieldValue::Str("x".into())),
                ("ok", FieldValue::Bool(true)),
            ],
        );
    }
    let written = psca_obs::trace::finish().expect("finish returns the path");
    assert_eq!(written, path);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = psca_obs::Json::parse(&text).expect("trace file is valid JSON");
    let events = parsed.as_arr().expect("trace file is a JSON array");
    assert!(
        events.len() >= 4,
        "expected >= 4 events, got {}",
        events.len()
    );
    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph present");
        phases.insert(ph.to_string());
        assert!(ev.get("pid").and_then(|p| p.as_u64()).is_some());
        if ph == "X" {
            assert!(ev.get("ts").and_then(|t| t.as_u64()).is_some());
            assert!(ev.get("dur").and_then(|d| d.as_u64()).unwrap() >= 1);
        }
    }
    for expected in ["X", "i", "C", "M"] {
        assert!(phases.contains(expected), "missing phase {expected:?}");
    }
    // Spans must appear under their dot-joined paths.
    assert!(text.contains("it_trace_outer.it_trace_inner"));
    // The emitted event is an instant carrying every one of its fields.
    let emitted = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("it.trace.emitted"))
        .expect("emit records a Perfetto instant");
    assert_eq!(emitted.get("ph").and_then(|p| p.as_str()), Some("i"));
    let args = emitted.get("args").expect("instant args");
    assert_eq!(args.get("n").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(args.get("who").and_then(|v| v.as_str()), Some("x"));
    assert_eq!(args.get("ok").and_then(|v| v.as_bool()), Some(true));
}
