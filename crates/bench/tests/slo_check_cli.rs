//! `repro slo-check` exit codes: 0 on a passing document, 1 on an SLO
//! breach, 2 when the document lacks a number the spec would gate (or
//! no `--bench` is given). Runs the real binary from a scratch directory
//! so nothing in the checkout is read or written.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory unique to this test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psca-slo-check-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro slo-check --bench doc.json --slo <slo>` over `doc` and
/// returns the exit code.
fn slo_check(test: &str, doc: &str, slo: &str) -> i32 {
    let dir = scratch_dir(test);
    std::fs::write(dir.join("doc.json"), doc).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["slo-check", "--bench", "doc.json", "--slo", slo])
        .current_dir(&dir)
        .status()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    status.code().expect("slo-check exited by signal")
}

const LOADGEN: &str = r#"{"bench":"serve-loadgen","requests":100,"ok":100,"errors":0,
"availability":1,"p50_us":596,"p95_us":873,"p99_us":3486,"max_us":7280,"offered_rps":50,
"achieved_rps":50.46,"wall_s":1.98,"seed":1,"slowest_trace_id":"f63b7b9046fea981536703ac09af3436"}"#;

#[test]
fn bench_suite_document_is_not_checkable() {
    let sweep = r#"{"schema":"psca-bench/v1","bench":"sweep","unit":"cells_per_sec","seed":1,
"jobs":1,"metrics":{"cells":96,"speedup_vs_serial":1.13},"profile_top":[]}"#;
    assert_eq!(slo_check("sweep-default", sweep, "default"), 2);
    assert_eq!(slo_check("sweep-rsv", sweep, "rsv_floor=0.9"), 2);
}

#[test]
fn rsv_floor_needs_a_residency() {
    assert_eq!(slo_check("loadgen-rsv", LOADGEN, "rsv_floor=0.9"), 2);
}

#[test]
fn passing_loadgen_summary_exits_zero() {
    assert_eq!(slo_check("loadgen-pass", LOADGEN, "default"), 0);
}

#[test]
fn closed_loop_below_the_floor_exits_one() {
    let closed = r#"{"model":"best-rf","archetype":"Balanced","seed":1,"backend":"cycle-accurate",
"windows":8,"instructions":800000,"cycles":400000,"energy":1.5,"ppw":2.0,
"low_power_residency":0.25}"#;
    assert_eq!(slo_check("closed-below", closed, "rsv_floor=0.9"), 1);
    assert_eq!(slo_check("closed-above", closed, "rsv_floor=0.1"), 0);
}

#[test]
fn bench_flag_is_required() {
    let dir = scratch_dir("no-bench");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["slo-check", "--slo", "default"])
        .current_dir(&dir)
        .status()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status.code(), Some(2));
}
