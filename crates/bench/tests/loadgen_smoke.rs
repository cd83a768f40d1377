//! End-to-end smoke for the open-loop load generator: drive a real
//! daemon, check the summary schema, and feed the result through the
//! SLO verdict — the same round-trip CI runs via `repro loadgen` and
//! `repro slo-check`.

use psca_adapt::{ExperimentConfig, ModelKind};
use psca_bench::loadgen::{self, LoadgenConfig};
use psca_obs::{Json, SloSpec};
use psca_serve::{Daemon, ModelRegistry, ServeConfig};

#[test]
fn loadgen_round_trip_against_live_daemon() {
    let cfg = ExperimentConfig::builder().seed(7).build().unwrap();
    let registry = ModelRegistry::train(cfg, &[ModelKind::BestRf]);
    let daemon = Daemon::start(ServeConfig::default(), registry).expect("bind");
    let addr = daemon.local_addr().to_string();

    let (model, input_dim) = loadgen::discover_model(&addr).expect("model discovery");
    assert_eq!(model, "best-rf");
    assert!(input_dim > 0);

    let summary = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        model,
        rps: 40,
        duration_s: 1,
        connections: 2,
        seed: 42,
        input_dim,
    });
    daemon.shutdown();

    assert!(summary.requests >= 30, "ran {} requests", summary.requests);
    assert_eq!(
        summary.errors, 0,
        "loadgen saw errors against a healthy daemon"
    );
    assert_eq!(summary.ok, summary.requests);
    assert_eq!(summary.availability, 1.0);
    assert!(summary.p99_us >= summary.p50_us);
    assert!(!summary.slowest_trace_id.is_empty());

    // The JSON document carries the fields `repro slo-check` reads.
    let doc = Json::parse(&summary.to_json().to_string()).unwrap();
    assert_eq!(
        doc.get("bench").and_then(Json::as_str),
        Some("serve-loadgen")
    );
    for key in ["p99_us", "availability", "requests", "seed"] {
        assert!(doc.get(key).is_some(), "summary JSON missing {key}");
    }

    // A generous spec passes; an absurdly tight one flags p99.
    let violations = |spec: &str| {
        let spec = SloSpec::parse(spec).unwrap().unwrap();
        spec.check_values(
            Some(summary.p99_us as f64),
            Some(summary.availability),
            None,
        )
    };
    assert!(violations("p99_us=60000000,availability=0.5").is_empty());
    assert!(!violations("p99_us=1").is_empty());
}

#[test]
fn loadgen_traffic_is_deterministic_from_seed() {
    // Trace ids are a pure function of (seed, slot): reruns of a seeded
    // loadgen present the daemon with identical trace context.
    let a = loadgen::request_ctx(9, 3);
    let b = loadgen::request_ctx(9, 3);
    assert_eq!(a, b);
    assert_ne!(loadgen::request_ctx(9, 4), a);
    assert_ne!(loadgen::request_ctx(10, 3), a);
}
