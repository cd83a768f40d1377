//! Fleet invariants: the rollout state machine driven with synthetic
//! verdicts (proptests), the fixed-seed canary-rollback regression, the
//! "report rows ≡ independent closed loops" identity for disabled,
//! completed and rolled-back rollouts, and `--jobs` invariance of the
//! report.

use proptest::prelude::*;
use psca_fleet::{
    run_fleet, CohortHealth, FleetImage, FleetParams, FleetSetup, Rollout, RolloutSpec,
    RolloutStatus, SkewSpec, StageAction,
};

fn img(version: u32, byte: u8) -> FleetImage {
    FleetImage {
        version,
        hi: vec![byte; 16],
        lo: vec![byte.wrapping_add(1); 16],
    }
}

fn healthy() -> CohortHealth {
    CohortHealth {
        rsv: 0.0,
        ppw_retained: 1.0,
        escalations: 0,
    }
}

fn sick() -> CohortHealth {
    CohortHealth {
        rsv: 1.0,
        ppw_retained: 0.0,
        escalations: u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An unhealthy canary verdict means the candidate never reaches any
    /// die: the fleet ends bit-identical to its baseline and no further
    /// cohort is offered.
    #[test]
    fn never_promotes_past_unhealthy_canary(
        n in 1usize..24,
        canary in 1usize..4,
        waves in 0usize..4,
    ) {
        let spec = RolloutSpec { canary, waves, ..RolloutSpec::default() };
        let mut r = Rollout::new(n, spec, img(1, 0xAA), img(2, 0xBB));
        prop_assert_eq!(r.observe(sick()), StageAction::RolledBack);
        prop_assert_eq!(r.status(), RolloutStatus::RolledBack);
        prop_assert!(r.current_cohort().is_none());
        for die in 0..n as u64 {
            prop_assert_eq!(r.installed(die), r.baseline());
        }
    }

    /// However many cohorts were already promoted, the first unhealthy
    /// verdict restores the *prior* image on every die, bit-identically.
    #[test]
    fn rollback_restores_prior_image_bit_identically(
        n in 1usize..24,
        healthy_stages in 0usize..6,
    ) {
        let mut r = Rollout::new(n, RolloutSpec::default(), img(7, 0x5C), img(8, 0xC5));
        let baseline = r.baseline().clone();
        for _ in 0..healthy_stages {
            if r.status() != RolloutStatus::InProgress {
                break;
            }
            r.observe(healthy());
        }
        if r.status() == RolloutStatus::InProgress {
            prop_assert_eq!(r.observe(sick()), StageAction::RolledBack);
            for die in 0..n as u64 {
                prop_assert_eq!(r.installed(die), &baseline);
            }
        } else {
            // Every cohort promoted before the bad verdict could land:
            // the fleet completed on the candidate.
            prop_assert_eq!(r.status(), RolloutStatus::Completed);
            for die in 0..n as u64 {
                prop_assert_eq!(r.installed(die), r.candidate());
            }
        }
    }

    /// Quarantine is monotone: once a die accumulates enough strikes it
    /// stays quarantined through any later verdict, and quarantined dies
    /// never appear in a cohort.
    #[test]
    fn quarantine_is_monotone(
        n in 2usize..24,
        quarantine_after in 1u32..4,
        strikes in prop::collection::vec((0u64..24, any::<bool>()), 0..32),
    ) {
        let spec = RolloutSpec { quarantine_after, ..RolloutSpec::default() };
        let mut r = Rollout::new(n, spec, img(1, 1), img(2, 2));
        let mut ever = std::collections::BTreeSet::new();
        for (die, verdict_between) in strikes {
            let die = die % n as u64;
            r.strike(die);
            if r.is_quarantined(die) {
                ever.insert(die);
            }
            for &q in &ever {
                prop_assert!(r.is_quarantined(q), "die {q} released from quarantine");
            }
            if verdict_between && r.status() == RolloutStatus::InProgress {
                let cohort = r.current_cohort().unwrap();
                for &q in &ever {
                    prop_assert!(!cohort.contains(&q), "quarantined die {q} in cohort");
                }
                r.observe(healthy());
            }
        }
    }
}

/// The fixed-seed regression scenario behind `repro fleet --bad-image`:
/// a candidate image that decodes validly but always gates must be
/// caught by the canary cohort's health verdict and rolled back before
/// it reaches any later cohort.
#[test]
fn bad_image_rolls_back_at_canary() {
    let cfg = psca_adapt::ExperimentConfig {
        seed: 3,
        ..psca_adapt::ExperimentConfig::quick()
    };
    let params = FleetParams {
        size: 4,
        windows: 6,
        seed: 3,
        bad_image: true,
        ..FleetParams::default()
    };
    let report = run_fleet(&cfg, &params);
    assert_eq!(report.status, "rolled_back");
    assert!(!report.pass);
    assert_eq!(report.stages.len(), 1, "candidate leaked past the canary");
    assert_eq!(report.stages[0].action, StageAction::RolledBack);
    for die in &report.dies {
        assert_eq!(
            die.image_version, report.baseline.0,
            "die {} ended on the bad image",
            die.die
        );
    }
    // The sabotage must be visible in the image identity itself.
    assert_ne!(report.baseline.1, report.candidate.1, "fingerprint blind");
}

/// Whatever shape the rollout takes, every report row is the serial
/// single-die oracle for the image the row reports, bit for bit: with
/// the rollout disabled the report is exactly N independent closed
/// loops, and a completed or rolled-back rollout reports each die's
/// score on the image it ended on, not one it merely ran in a stage.
#[test]
fn report_rows_match_independent_loops() {
    let disabled = FleetParams {
        size: 3,
        windows: 6,
        seed: 5,
        rollout: None,
        ..FleetParams::default()
    };
    let completed = FleetParams {
        size: 4,
        windows: 6,
        seed: 9,
        ..FleetParams::default()
    };
    let rolled_back = FleetParams {
        size: 4,
        windows: 6,
        seed: 3,
        bad_image: true,
        ..FleetParams::default()
    };
    for (params, status) in [
        (disabled, "disabled"),
        (completed, "completed"),
        (rolled_back, "rolled_back"),
    ] {
        rows_match_oracle(&params, status);
    }
}

fn rows_match_oracle(params: &FleetParams, status: &str) {
    let cfg = psca_adapt::ExperimentConfig {
        seed: params.seed,
        ..psca_adapt::ExperimentConfig::quick()
    };
    let report = run_fleet(&cfg, params);
    assert_eq!(report.status, status, "seed {}", params.seed);
    assert_eq!(report.stages.is_empty(), params.rollout.is_none());
    let setup = FleetSetup::prepare(&cfg, params);
    for row in &report.dies {
        let img = [setup.baseline(), setup.candidate()]
            .into_iter()
            .find(|img| img.version == row.image_version)
            .expect("row reports a setup image");
        assert_eq!(
            row.stats,
            setup.die_stats(row.die, img),
            "{status}: die {} diverges from serial oracle",
            row.die
        );
    }
}

/// The report JSON is a pure function of the parameters: `--jobs` moves
/// wall time, never a byte of output.
#[test]
fn report_is_jobs_invariant() {
    let params = FleetParams {
        size: 4,
        windows: 6,
        seed: 9,
        ..FleetParams::default()
    };
    let mut docs = Vec::new();
    for jobs in [1usize, 4] {
        let cfg = psca_adapt::ExperimentConfig {
            seed: 9,
            jobs,
            ..psca_adapt::ExperimentConfig::quick()
        };
        docs.push(run_fleet(&cfg, &params).to_json().to_string());
    }
    assert_eq!(docs[0], docs[1]);
}

/// Skew and rollout grammars reject garbage and roundtrip through
/// Display, matching the ChaosSpec conventions the flags share.
#[test]
fn spec_grammars_roundtrip() {
    let skew = SkewSpec::parse("cache=0.2,noise=0.05").unwrap();
    assert_eq!(SkewSpec::parse(&skew.to_string()).unwrap(), skew);
    assert!(SkewSpec::parse("cache=2.0").is_err());
    let rollout = RolloutSpec::parse("canary=1,waves=3,ppw_floor=0.9")
        .unwrap()
        .unwrap();
    assert_eq!(
        RolloutSpec::parse(&rollout.to_string()).unwrap().unwrap(),
        rollout
    );
    assert!(RolloutSpec::parse("off").unwrap().is_none());
    assert!(RolloutSpec::parse("bogus=1").is_err());
}
