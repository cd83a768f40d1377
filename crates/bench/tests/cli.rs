//! The `repro` and `trace-tool` command lines, run as real binaries from
//! a scratch directory so nothing in the checkout is read or written:
//! usage errors (exit 2, before any work, for every subcommand), the
//! trace every subcommand writes under `PSCA_TRACE` and the profile it
//! writes under `PSCA_PROF`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A fresh scratch directory unique to this test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psca-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin args...` in `dir` with `env` set and returns its exit code
/// and stdout. A run that outlives its deadline (a daemon that accepted
/// its flags) is killed and fails the test.
fn run(bin: &str, args: &[&str], dir: &Path, env: &[(&str, &str)]) -> (i32, String) {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{bin} {args:?} still running after 120 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    let code = out.status.code().expect("exited by signal");
    (code, String::from_utf8(out.stdout).unwrap())
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const TRACE_TOOL: &str = env!("CARGO_BIN_EXE_trace-tool");

/// Every subcommand with a missing value, an unknown flag and an
/// unparseable number: each exits 2 and prints nothing on stdout. The
/// observability switches are environment variables, never flags, and
/// no subcommand takes `--backend`: there is one simulator. There is no
/// `loadgen` or `slo-check` subcommand (the daemon's `/v1/slo` is the
/// one SLO verdict), and an SLO spec has no `rsv_floor`.
#[test]
fn usage_errors_exit_two_for_every_subcommand() {
    let cases: &[(&str, &[&str])] = &[
        (REPRO, &["table3", "--jobs"]),
        (REPRO, &["table3", "--bogus"]),
        (REPRO, &["table3", "--jobs", "x"]),
        (REPRO, &["table1", "--quick", "--trace-out", "t.json"]),
        (REPRO, &["table1", "--quick", "--serve-metrics"]),
        (REPRO, &["table1", "--quick", "--dash"]),
        (REPRO, &["serve", "--seed"]),
        (REPRO, &["serve", "--bogus"]),
        (REPRO, &["serve", "--workers", "x"]),
        (
            REPRO,
            &[
                "serve",
                "--addr",
                "127.0.0.1:99999",
                "--max-connections",
                "4",
            ],
        ),
        (REPRO, &["serve", "--slo", "rsv_floor=0.5"]),
        (REPRO, &["loadgen", "--rps", "5"]),
        (REPRO, &["slo-check", "--bench", "doc.json"]),
        (REPRO, &["closed-loop", "--seed"]),
        (REPRO, &["closed-loop", "--bogus"]),
        (REPRO, &["closed-loop", "--seed", "x"]),
        (REPRO, &["fleet", "--size"]),
        (REPRO, &["fleet", "--bogus"]),
        (REPRO, &["fleet", "--size", "x"]),
        (REPRO, &["bench", "--seed"]),
        (REPRO, &["bench", "--bogus"]),
        (REPRO, &["bench", "--tolerance", "x"]),
        (REPRO, &["bench", "--backend", "surrogate"]),
        (REPRO, &["fleet", "--backend", "x"]),
        (REPRO, &["closed-loop", "--backend", "x"]),
        (REPRO, &["serve", "--backend", "x"]),
        (REPRO, &["table1", "--quick", "--backend", "x"]),
        (REPRO, &["profile", "fleet"]),
        (TRACE_TOOL, &["record", "x.pstr", "--insts"]),
        (TRACE_TOOL, &["record", "x.pstr", "--bogus"]),
        (TRACE_TOOL, &["record", "x.pstr", "--app", "x"]),
        (TRACE_TOOL, &["stats", "x.pstr", "--trace-out"]),
        (TRACE_TOOL, &["stats", "x.pstr", "--serve-metrics"]),
        (TRACE_TOOL, &["stats", "x.pstr", "--bogus"]),
        (TRACE_TOOL, &["replay", "x.pstr", "--interval"]),
        (TRACE_TOOL, &["replay", "x.pstr", "--bogus"]),
        (TRACE_TOOL, &["replay", "x.pstr", "--interval", "x"]),
    ];
    let dir = scratch_dir("usage");
    for (bin, args) in cases {
        let (code, stdout) = run(bin, args, &dir, &[]);
        assert_eq!((code, stdout.as_str()), (2, ""), "{bin} {args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_fails_before_any_work() {
    let dir = scratch_dir("unknown-experiment");
    let (code, stdout) = run(REPRO, &["table3", "nope", "--quick"], &dir, &[]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((code, stdout.as_str()), (2, ""));
}

#[test]
fn malformed_trace_tool_numbers_record_nothing() {
    let dir = scratch_dir("record-insts");
    for insts in ["abc", "0"] {
        let args = ["record", "x.pstr", "--insts", insts];
        let (code, _) = run(TRACE_TOOL, &args, &dir, &[]);
        assert_eq!(code, 2, "--insts {insts}");
        assert!(!dir.join("x.pstr").exists(), "--insts {insts}");
    }
    let (code, _) = run(
        TRACE_TOOL,
        &["replay", "x.pstr", "--interval", "0"],
        &dir,
        &[],
    );
    assert_eq!(code, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `PSCA_TRACE` names a file every subcommand writes at exit.
fn assert_traced(test: &str, args: &[&str]) {
    let dir = scratch_dir(test);
    let (code, _) = run(REPRO, args, &dir, &[("PSCA_TRACE", "t.json")]);
    assert_eq!(code, 0, "{args:?}");
    let text = std::fs::read_to_string(dir.join("t.json")).expect("trace written");
    let _ = std::fs::remove_dir_all(&dir);
    match psca_obs::Json::parse(&text) {
        Ok(psca_obs::Json::Arr(events)) => assert!(!events.is_empty(), "{args:?}"),
        other => panic!("{args:?}: trace is not a JSON array: {other:?}"),
    }
}

#[test]
fn closed_loop_writes_its_trace() {
    assert_traced("trace-closed-loop", &["closed-loop", "--windows", "2"]);
}

#[test]
fn fleet_writes_its_trace() {
    let args = ["fleet", "--size", "2", "--windows", "4", "--seed", "3"];
    assert_traced("trace-fleet", &args);
}

/// `PSCA_PROF=1` makes any subcommand write its profile at exit, named
/// after its arguments, and leaves stdout byte-identical.
#[test]
fn closed_loop_writes_its_profile_and_keeps_stdout() {
    let args = ["closed-loop", "--windows", "2"];
    let dir = scratch_dir("prof-closed-loop");
    let (code, profiled) = run(REPRO, &args, &dir, &[("PSCA_PROF", "1")]);
    assert_eq!(code, 0);
    let obs = dir.join("target/obs");
    let folded = std::fs::read_to_string(obs.join("profile-closed-loop---windows-2.folded"))
        .expect("folded profile written");
    let json = std::fs::read_to_string(obs.join("profile-closed-loop---windows-2.json"))
        .expect("profile summary written");
    let (code, plain) = run(REPRO, &args, &dir, &[]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 0);
    assert!(!folded.trim().is_empty(), "empty .folded");
    assert!(psca_obs::Json::parse(&json).is_ok(), "profile JSON: {json}");
    assert_eq!(profiled, plain);
}
