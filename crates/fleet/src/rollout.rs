//! The staged firmware-rollout state machine: canary cohort → expanding
//! waves → fleet, with automatic rollback on a regressed health verdict
//! and quarantine for persistent per-die outliers.
//!
//! The machine is pure data: it partitions die ids into cohorts, tracks
//! which image bytes each die has installed, and consumes one
//! [`CohortHealth`] verdict per stage. The fleet runner supplies the
//! verdicts by simulating the cohort (see `runner`); proptests drive the
//! machine directly with synthetic verdicts to pin its invariants.
//!
//! Rollout-spec grammar, tokenized by the shared rules of
//! `psca_obs::spec`:
//!
//! ```text
//! spec  := entry (',' entry)*
//! key   := 'canary'     (dies in the canary cohort,        default 2)
//!        | 'waves'      (expanding waves after the canary, default 2)
//!        | 'rsv_floor'  (max cohort SLA-violation rate,    default 0.25)
//!        | 'ppw_floor'  (min PPW retained vs baseline,     default 0.8)
//!        | 'max_esc'    (max ladder escalations per cohort, default 8)
//!        | 'quarantine' (outlier strikes before quarantine, default 2)
//! ```
//!
//! `"default"` / `""` parse to the defaults above; `"off"` means no
//! staged rollout (every die keeps the baseline image).

use psca_obs::spec::{self, Preset, SpecError};
use std::collections::BTreeSet;
use std::fmt;

/// A firmware deployment unit: the encoded high- and low-power predictor
/// images pushed to a die together. Bit-identity of a `FleetImage` is
/// bit-identity of both blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetImage {
    /// Monotone version number, for reports and rollout events.
    pub version: u32,
    /// Encoded high-performance-mode predictor (`psca_uc::image`).
    pub hi: Vec<u8>,
    /// Encoded low-power-mode predictor.
    pub lo: Vec<u8>,
}

impl FleetImage {
    /// FNV-1a content fingerprint over both blobs, for report rows.
    /// (Not the image CRC: CRC-32 over a CRC-trailed blob collapses to
    /// the same residue for every payload.)
    pub fn fingerprint(&self) -> u32 {
        let mut all = self.hi.clone();
        all.extend_from_slice(&self.lo);
        psca_uc::image::fingerprint(&all)
    }
}

/// Tuning for the staged rollout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutSpec {
    /// Dies in the canary cohort.
    pub canary: usize,
    /// Expanding waves between the canary and full fleet.
    pub waves: usize,
    /// Health floor: maximum cohort SLA-violation rate under the
    /// candidate image.
    pub rsv_floor: f64,
    /// Health floor: minimum cohort PPW retained (candidate vs baseline).
    pub ppw_floor: f64,
    /// Health floor: maximum degradation-ladder escalations summed over
    /// the cohort.
    pub max_escalations: u64,
    /// Outlier strikes (die unhealthy under the *baseline* image) before
    /// a die is quarantined out of later cohorts. The cohorts are
    /// disjoint, so `run_fleet` strikes each die at most once: only 1
    /// ever quarantines a die, and the default 2 never does.
    pub quarantine_after: u32,
}

impl Default for RolloutSpec {
    fn default() -> RolloutSpec {
        RolloutSpec {
            canary: 2,
            waves: 2,
            rsv_floor: 0.25,
            ppw_floor: 0.8,
            max_escalations: 8,
            quarantine_after: 2,
        }
    }
}

impl RolloutSpec {
    /// Parses the rollout-spec grammar. The presets `"default"` / `""`
    /// yield the defaults; `"off"` yields `None` (staged rollout
    /// disabled). `canary` and `quarantine` are floored at 1.
    pub fn parse(s: &str) -> Result<Option<RolloutSpec>, SpecError> {
        match spec::preset(s) {
            Some(Preset::Default) => Ok(Some(RolloutSpec::default())),
            Some(Preset::Off) => Ok(None),
            None => spec::apply_entries(s, RolloutSpec::default(), |spec, e| {
                match e.key {
                    "canary" => spec.canary = e.non_negative_int()?.max(1) as usize,
                    "waves" => spec.waves = e.non_negative_int()? as usize,
                    "rsv_floor" => spec.rsv_floor = e.unit()?,
                    "ppw_floor" => spec.ppw_floor = e.unit()?,
                    "max_esc" => spec.max_escalations = e.non_negative_int()?,
                    "quarantine" => spec.quarantine_after = e.non_negative_int()?.max(1) as u32,
                    _ => return Err(e.unknown_key()),
                }
                Ok(())
            })
            .map(Some),
        }
    }
}

impl fmt::Display for RolloutSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "canary={},waves={},rsv_floor={},ppw_floor={},max_esc={},quarantine={}",
            self.canary,
            self.waves,
            self.rsv_floor,
            self.ppw_floor,
            self.max_escalations,
            self.quarantine_after
        )
    }
}

/// Aggregated health of one cohort running the candidate image, scored
/// against the same cohort running the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortHealth {
    /// SLA-violation rate over the cohort's windows.
    pub rsv: f64,
    /// Cohort PPW under the candidate relative to the baseline.
    pub ppw_retained: f64,
    /// Degradation-ladder escalations summed over the cohort.
    pub escalations: u64,
}

impl CohortHealth {
    /// Whether the cohort clears every floor in `spec`.
    pub fn healthy(&self, spec: &RolloutSpec) -> bool {
        self.rsv <= spec.rsv_floor
            && self.ppw_retained >= spec.ppw_floor
            && self.escalations <= spec.max_escalations
    }
}

/// What the machine did with a stage's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageAction {
    /// Cohort healthy: its dies keep the candidate; the next cohort is up.
    Promoted,
    /// Cohort healthy and it was the last one: rollout complete.
    Completed,
    /// Cohort unhealthy: every die is restored to the baseline image.
    RolledBack,
}

impl StageAction {
    /// Stable lower-case label for reports and metric names.
    pub fn name(&self) -> &'static str {
        match self {
            StageAction::Promoted => "promoted",
            StageAction::Completed => "completed",
            StageAction::RolledBack => "rolled_back",
        }
    }
}

/// Terminal (or in-flight) status of the whole rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutStatus {
    /// Stages remain.
    InProgress,
    /// Every cohort promoted: the fleet runs the candidate.
    Completed,
    /// A cohort regressed: the fleet runs the baseline.
    RolledBack,
}

impl RolloutStatus {
    /// Stable lower-case label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RolloutStatus::InProgress => "in_progress",
            RolloutStatus::Completed => "completed",
            RolloutStatus::RolledBack => "rolled_back",
        }
    }
}

/// One observed stage, kept for the report.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// Stage index: 0 is the canary.
    pub stage: usize,
    /// Die ids the stage deployed to (quarantined dies already skipped).
    pub cohort: Vec<u64>,
    /// The verdict the runner supplied.
    pub health: CohortHealth,
    /// What the machine did with it.
    pub action: StageAction,
}

/// The staged-rollout state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct Rollout {
    spec: RolloutSpec,
    baseline: FleetImage,
    candidate: FleetImage,
    /// Image currently installed on each die, indexed by die id.
    installed: Vec<FleetImage>,
    /// Die-id cohorts in deployment order (canary first).
    cohorts: Vec<Vec<u64>>,
    stage: usize,
    status: RolloutStatus,
    strikes: Vec<u32>,
    quarantined: BTreeSet<u64>,
    history: Vec<StageOutcome>,
}

/// Partitions `n` dies into a canary cohort plus `waves` expanding waves
/// (each roughly doubling), in die-id order. Every die lands in exactly
/// one cohort; the last wave absorbs the remainder.
fn partition(n: usize, canary: usize, waves: usize) -> Vec<Vec<u64>> {
    let canary = canary.clamp(1, n);
    let mut cohorts = vec![(0..canary as u64).collect::<Vec<u64>>()];
    let mut next = canary as u64;
    let remaining = n - canary;
    if remaining == 0 {
        return cohorts;
    }
    let waves = waves.clamp(1, remaining);
    // Geometric weights 1, 2, 4, ... scaled to cover `remaining`.
    let total_weight = (1u64 << waves) - 1;
    let mut allotted = 0usize;
    for w in 0..waves {
        let size = if w + 1 == waves {
            remaining - allotted
        } else {
            (((1u64 << w) as f64 / total_weight as f64) * remaining as f64).round() as usize
        }
        .min(remaining - allotted);
        if size == 0 {
            continue;
        }
        cohorts.push((next..next + size as u64).collect());
        next += size as u64;
        allotted += size;
    }
    cohorts
}

impl Rollout {
    /// A rollout of `candidate` over an `n`-die fleet currently running
    /// `baseline`.
    pub fn new(
        n: usize,
        spec: RolloutSpec,
        baseline: FleetImage,
        candidate: FleetImage,
    ) -> Rollout {
        Rollout {
            cohorts: partition(n, spec.canary, spec.waves),
            installed: vec![baseline.clone(); n],
            strikes: vec![0; n],
            spec,
            baseline,
            candidate,
            stage: 0,
            status: RolloutStatus::InProgress,
            quarantined: BTreeSet::new(),
            history: Vec::new(),
        }
    }

    /// The tuning this rollout runs under.
    pub fn spec(&self) -> &RolloutSpec {
        &self.spec
    }

    /// The image the fleet rolls back to.
    pub fn baseline(&self) -> &FleetImage {
        &self.baseline
    }

    /// The image being rolled out.
    pub fn candidate(&self) -> &FleetImage {
        &self.candidate
    }

    /// Current status.
    pub fn status(&self) -> RolloutStatus {
        self.status
    }

    /// The image installed on `die` right now.
    pub fn installed(&self, die: u64) -> &FleetImage {
        &self.installed[die as usize]
    }

    /// Dies quarantined so far, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = u64> + '_ {
        self.quarantined.iter().copied()
    }

    /// Whether `die` is quarantined.
    pub fn is_quarantined(&self, die: u64) -> bool {
        self.quarantined.contains(&die)
    }

    /// Observed stages so far.
    pub fn history(&self) -> &[StageOutcome] {
        &self.history
    }

    /// The next cohort to deploy to (quarantined dies skipped), or `None`
    /// once the rollout has terminated. An empty slice means the whole
    /// remaining cohort is quarantined; pass a no-op healthy verdict to
    /// advance.
    pub fn current_cohort(&self) -> Option<Vec<u64>> {
        if self.status != RolloutStatus::InProgress {
            return None;
        }
        self.cohorts.get(self.stage).map(|c| {
            c.iter()
                .copied()
                .filter(|d| !self.quarantined.contains(d))
                .collect()
        })
    }

    /// Records `strike` outlier strikes: a die whose *baseline* run
    /// breached the health floors misbehaves independently of the
    /// candidate, so it counts toward quarantine instead of poisoning
    /// the cohort verdict. Quarantine is monotone: dies are never
    /// released.
    pub fn strike(&mut self, die: u64) {
        let idx = die as usize;
        if idx >= self.strikes.len() || self.quarantined.contains(&die) {
            return;
        }
        self.strikes[idx] += 1;
        if self.strikes[idx] >= self.spec.quarantine_after {
            self.quarantined.insert(die);
        }
    }

    /// Consumes the current stage's health verdict.
    ///
    /// Healthy: the cohort's (non-quarantined) dies keep the candidate
    /// and the machine advances — `Completed` if this was the last
    /// cohort, else `Promoted`. Unhealthy: every die in the fleet is
    /// restored to the baseline image, bit-identically, and the rollout
    /// terminates `RolledBack`. The candidate never reaches a cohort
    /// past the first unhealthy one.
    ///
    /// # Panics
    /// Panics if the rollout already terminated.
    pub fn observe(&mut self, health: CohortHealth) -> StageAction {
        assert_eq!(
            self.status,
            RolloutStatus::InProgress,
            "observe() on a terminated rollout"
        );
        let cohort = self
            .current_cohort()
            .expect("in-progress rollout has a cohort");
        let action = if health.healthy(&self.spec) {
            for &die in &cohort {
                self.installed[die as usize] = self.candidate.clone();
            }
            self.stage += 1;
            if self.stage == self.cohorts.len() {
                self.status = RolloutStatus::Completed;
                StageAction::Completed
            } else {
                StageAction::Promoted
            }
        } else {
            for img in &mut self.installed {
                *img = self.baseline.clone();
            }
            self.status = RolloutStatus::RolledBack;
            StageAction::RolledBack
        };
        self.history.push(StageOutcome {
            stage: self.history.len(),
            cohort,
            health,
            action,
        });
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(version: u32, byte: u8) -> FleetImage {
        FleetImage {
            version,
            hi: vec![byte; 8],
            lo: vec![byte ^ 0xFF; 8],
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
            escalations: 99,
        }
    }

    #[test]
    fn partition_covers_every_die_once() {
        for n in 1..40 {
            for canary in 1..4 {
                for waves in 0..4 {
                    let cohorts = partition(n, canary, waves);
                    let mut all: Vec<u64> = cohorts.iter().flatten().copied().collect();
                    all.sort_unstable();
                    assert_eq!(
                        all,
                        (0..n as u64).collect::<Vec<_>>(),
                        "n={n} c={canary} w={waves}"
                    );
                }
            }
        }
    }

    #[test]
    fn waves_expand() {
        let cohorts = partition(31, 1, 3);
        let sizes: Vec<usize> = cohorts.iter().map(Vec::len).collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] <= pair[1], "sizes not expanding: {sizes:?}");
        }
    }

    #[test]
    fn full_promotion_installs_candidate_everywhere() {
        let mut r = Rollout::new(9, RolloutSpec::default(), img(1, 0xAA), img(2, 0xBB));
        let mut last = StageAction::Promoted;
        while r.status() == RolloutStatus::InProgress {
            last = r.observe(healthy());
        }
        assert_eq!(last, StageAction::Completed);
        assert_eq!(r.status(), RolloutStatus::Completed);
        for die in 0..9 {
            assert_eq!(r.installed(die), r.candidate());
        }
    }

    #[test]
    fn unhealthy_canary_rolls_back_everything() {
        let mut r = Rollout::new(9, RolloutSpec::default(), img(1, 0xAA), img(2, 0xBB));
        assert_eq!(r.observe(sick()), StageAction::RolledBack);
        assert_eq!(r.status(), RolloutStatus::RolledBack);
        for die in 0..9 {
            assert_eq!(r.installed(die), r.baseline());
        }
        assert!(r.current_cohort().is_none());
    }

    #[test]
    fn mid_wave_regression_restores_promoted_dies() {
        let mut r = Rollout::new(12, RolloutSpec::default(), img(1, 0x01), img(2, 0x02));
        assert_eq!(r.observe(healthy()), StageAction::Promoted);
        // Canary dies now run the candidate.
        assert_eq!(r.installed(0), &img(2, 0x02));
        assert_eq!(r.observe(sick()), StageAction::RolledBack);
        for die in 0..12 {
            assert_eq!(r.installed(die), &img(1, 0x01), "die {die} not restored");
        }
    }

    #[test]
    fn quarantine_requires_strikes_and_skips_cohorts() {
        let spec = RolloutSpec {
            quarantine_after: 2,
            ..RolloutSpec::default()
        };
        let mut r = Rollout::new(6, spec, img(1, 1), img(2, 2));
        r.strike(0);
        assert!(!r.is_quarantined(0));
        r.strike(0);
        assert!(r.is_quarantined(0));
        // Die 0 is in the canary cohort; it must be skipped now.
        assert!(!r.current_cohort().unwrap().contains(&0));
    }

    #[test]
    fn rollout_spec_parse_roundtrips() {
        let spec = RolloutSpec::parse("canary=3,waves=1,rsv_floor=0.1")
            .unwrap()
            .unwrap();
        assert_eq!(spec.canary, 3);
        let back = RolloutSpec::parse(&spec.to_string()).unwrap().unwrap();
        assert_eq!(spec, back);
        assert!(RolloutSpec::parse("off").unwrap().is_none());
        assert!(RolloutSpec::parse("rsv_floor=2.0").is_err());
        assert!(RolloutSpec::parse("nonsense=1").is_err());
    }
}
