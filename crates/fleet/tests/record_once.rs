//! Each die's trace is recorded exactly once per `run_fleet`, whatever
//! shape the rollout takes, and `FleetSetup::prepare` records none.
//!
//! The count is the process-global `trace.instructions_recorded` counter,
//! which `run_fleet` resets at entry. A concurrent test in the same
//! binary would race it, so this file holds a single test.

use psca_adapt::ExperimentConfig;
use psca_fleet::{run_fleet, FleetParams, FleetSetup};

fn counter(name: &str) -> u64 {
    psca_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn recorded() -> u64 {
    counter("trace.instructions_recorded")
}

/// Runs the fleet and checks its recording count against one recording
/// of 2 000 warm-up instructions plus `windows` prediction windows per
/// die, on top of the training corpus. Returns the closed loops run.
fn check_recorded_once(params: &FleetParams, status: &str) -> u64 {
    let cfg = ExperimentConfig {
        seed: params.seed,
        ..ExperimentConfig::quick()
    };
    psca_obs::reset_all();
    psca_adapt::robustness_corpus(&cfg);
    let corpus = recorded();
    assert!(corpus > 0);

    psca_obs::reset_all();
    let setup = FleetSetup::prepare(&cfg, params);
    assert_eq!(recorded(), corpus, "prepare recorded more than the corpus");

    let report = run_fleet(&cfg, params);
    assert_eq!(report.status, status, "seed {}", params.seed);
    let per_die = 2_000 + params.windows * setup.model().granularity_insts(cfg.interval_insts);
    assert_eq!(
        recorded(),
        corpus + params.size as u64 * per_die,
        "{status}: some die was not recorded exactly once"
    );
    counter("fleet.dies_run")
}

#[test]
fn run_fleet_records_each_die_once() {
    // Completed rollout: every die is scored on both images inside its
    // stage cell, and the final pass reuses those scores.
    let completed = FleetParams {
        size: 4,
        windows: 6,
        seed: 9,
        ..FleetParams::default()
    };
    assert_eq!(check_recorded_once(&completed, "completed"), 8);

    // Rollback at the canary: the two canary dies run both images in the
    // stage, the two unreached dies run the baseline in the final pass.
    let rolled_back = FleetParams {
        size: 4,
        windows: 6,
        seed: 3,
        bad_image: true,
        ..FleetParams::default()
    };
    assert_eq!(check_recorded_once(&rolled_back, "rolled_back"), 2 * 2 + 2);

    // Rollout off: the final pass records and scores every die once.
    let disabled = FleetParams {
        size: 3,
        windows: 6,
        seed: 5,
        rollout: None,
        ..FleetParams::default()
    };
    assert_eq!(check_recorded_once(&disabled, "disabled"), 3);
}
