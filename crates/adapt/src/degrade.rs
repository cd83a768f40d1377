//! Graceful degradation for the closed adaptation loop.
//!
//! The paper's deployment story (§5) assumes the µC firmware always
//! produces a timely, finite prediction. Real silicon does not: counters
//! glitch, firmware images rot, predictions miss the `t+2` apply deadline
//! (Figure 3). This module gives the controller a *degradation ladder* so
//! that any such failure degrades performance-per-watt instead of
//! correctness:
//!
//! 1. [`DegradeLevel::ModelDriven`] — healthy: apply firmware decisions.
//! 2. [`DegradeLevel::HoldLast`] — predictions missing or stale: keep the
//!    last known-good gating decision.
//! 3. [`DegradeLevel::HeuristicOnly`] — predictions present but
//!    untrustworthy (non-finite features or firmware faults): gate on the
//!    §3.1 guardrail heuristic alone.
//! 4. [`DegradeLevel::PinnedHighPerf`] — sustained failure: pin both
//!    clusters on. PPW gains are forfeited but the SLA cannot be violated
//!    by a broken predictor.
//!
//! The [`Watchdog`] walks the ladder: an unhealthy window escalates
//! immediately to the health class's target tier (a missing prediction
//! *cannot* be applied, so at minimum the loop holds), a persistent
//! unhealthy streak escalates one tier further, and
//! [`PROBATION`] consecutive clean windows step back down
//! one tier at a time until model-driven gating is restored.

/// Rung of the degradation ladder, ordered from fully healthy to fully
/// pinned. Ordering is meaningful: higher is more degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeLevel {
    /// Firmware predictions drive gating (the paper's design point).
    #[default]
    ModelDriven,
    /// Hold the last known-good gating decision.
    HoldLast,
    /// Gate on the guardrail heuristic only; ignore firmware output.
    HeuristicOnly,
    /// Both clusters pinned on: maximum performance, no adaptation.
    PinnedHighPerf,
}

impl DegradeLevel {
    /// All levels, in escalation order.
    pub const ALL: [DegradeLevel; 4] = [
        DegradeLevel::ModelDriven,
        DegradeLevel::HoldLast,
        DegradeLevel::HeuristicOnly,
        DegradeLevel::PinnedHighPerf,
    ];

    /// Ladder index: 0 (model-driven) ..= 3 (pinned).
    pub fn rank(self) -> usize {
        match self {
            DegradeLevel::ModelDriven => 0,
            DegradeLevel::HoldLast => 1,
            DegradeLevel::HeuristicOnly => 2,
            DegradeLevel::PinnedHighPerf => 3,
        }
    }

    /// Stable name used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::ModelDriven => "model_driven",
            DegradeLevel::HoldLast => "hold_last",
            DegradeLevel::HeuristicOnly => "heuristic_only",
            DegradeLevel::PinnedHighPerf => "pinned_high_perf",
        }
    }

    /// One rung less degraded (saturating at model-driven).
    pub fn step_down(self) -> DegradeLevel {
        match self {
            DegradeLevel::ModelDriven | DegradeLevel::HoldLast => DegradeLevel::ModelDriven,
            DegradeLevel::HeuristicOnly => DegradeLevel::HoldLast,
            DegradeLevel::PinnedHighPerf => DegradeLevel::HeuristicOnly,
        }
    }

    /// One rung more degraded (saturating at pinned).
    pub fn step_up(self) -> DegradeLevel {
        match self {
            DegradeLevel::ModelDriven => DegradeLevel::HoldLast,
            DegradeLevel::HoldLast => DegradeLevel::HeuristicOnly,
            DegradeLevel::HeuristicOnly | DegradeLevel::PinnedHighPerf => {
                DegradeLevel::PinnedHighPerf
            }
        }
    }
}

/// Health of the prediction scheduled to configure one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionHealth {
    /// A timely, finite prediction is available.
    Ok,
    /// No prediction arrived for this window (dropped by the µC).
    Missing,
    /// A prediction arrived, but after its `t+2` apply deadline.
    Stale,
    /// The prediction pipeline produced non-finite values (corrupted
    /// counters or corrupted weights).
    NonFinite,
    /// The firmware rejected its input (dimension mismatch or invalid
    /// parameters) — see [`psca_uc::FirmwareError`].
    FirmwareFault,
}

impl PredictionHealth {
    /// Whether this window's prediction can be applied as-is.
    pub fn is_healthy(self) -> bool {
        matches!(self, PredictionHealth::Ok)
    }

    /// The minimum ladder tier this health class forces: a missing or
    /// late prediction can still be bridged by holding, but a predictor
    /// emitting garbage must be taken out of the loop entirely.
    pub fn target_level(self) -> DegradeLevel {
        match self {
            PredictionHealth::Ok => DegradeLevel::ModelDriven,
            PredictionHealth::Missing | PredictionHealth::Stale => DegradeLevel::HoldLast,
            PredictionHealth::NonFinite | PredictionHealth::FirmwareFault => {
                DegradeLevel::HeuristicOnly
            }
        }
    }

    /// Stable name used in metrics.
    pub fn name(self) -> &'static str {
        match self {
            PredictionHealth::Ok => "ok",
            PredictionHealth::Missing => "missing",
            PredictionHealth::Stale => "stale",
            PredictionHealth::NonFinite => "non_finite",
            PredictionHealth::FirmwareFault => "firmware_fault",
        }
    }
}

/// Consecutive unhealthy windows *at* a tier before escalating one rung
/// beyond the health class's target tier.
pub const ESCALATE_AFTER: usize = 2;

/// Consecutive clean windows before stepping down one rung.
pub const PROBATION: usize = 6;

/// Per-run degradation accounting, reported by the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradeSummary {
    /// Windows spent at each ladder rank (indexed by [`DegradeLevel::rank`]).
    pub residency: [u64; 4],
    /// Total level changes (escalations + recoveries).
    pub transitions: u64,
    /// Transitions toward a more degraded tier.
    pub escalations: u64,
    /// Probation-earned transitions toward a healthier tier.
    pub recoveries: u64,
    /// Most degraded tier reached during the run.
    pub worst: DegradeLevel,
    /// Tier in force when the run ended.
    pub last: DegradeLevel,
}

impl DegradeSummary {
    /// Fraction of windows spent above model-driven.
    pub fn degraded_fraction(&self) -> f64 {
        let total: u64 = self.residency.iter().sum();
        if total == 0 {
            return 0.0;
        }
        (total - self.residency[0]) as f64 / total as f64
    }
}

/// Prediction-health watchdog: one [`observe`](Watchdog::observe) call
/// per prediction window drives the degradation ladder. The default
/// watchdog starts at [`DegradeLevel::ModelDriven`].
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    level: DegradeLevel,
    clean_streak: usize,
    unhealthy_streak: usize,
    summary: DegradeSummary,
}

impl Watchdog {
    /// The tier currently in force.
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// Accounting so far.
    pub fn summary(&self) -> DegradeSummary {
        DegradeSummary {
            last: self.level,
            ..self.summary
        }
    }

    /// Observes the health of one window's scheduled prediction and
    /// returns the tier that must govern that window.
    pub fn observe(&mut self, health: PredictionHealth) -> DegradeLevel {
        if health.is_healthy() {
            self.unhealthy_streak = 0;
            self.clean_streak += 1;
            if self.level != DegradeLevel::ModelDriven && self.clean_streak >= PROBATION {
                let next = self.level.step_down();
                self.transition(next, health);
                self.clean_streak = 0;
            }
        } else {
            psca_obs::counter(match health {
                PredictionHealth::Missing => "adapt.degrade.health.missing",
                PredictionHealth::Stale => "adapt.degrade.health.stale",
                PredictionHealth::NonFinite => "adapt.degrade.health.non_finite",
                _ => "adapt.degrade.health.firmware_fault",
            })
            .inc();
            self.clean_streak = 0;
            let target = health.target_level();
            if self.level < target {
                // An unapplicable prediction forces its target tier now:
                // there is nothing valid to apply this window.
                self.transition(target, health);
                self.unhealthy_streak = 0;
            } else {
                self.unhealthy_streak += 1;
                if self.unhealthy_streak >= ESCALATE_AFTER {
                    let next = self.level.step_up();
                    if next != self.level {
                        self.transition(next, health);
                    }
                    self.unhealthy_streak = 0;
                }
            }
        }
        self.summary.residency[self.level.rank()] += 1;
        self.summary.worst = self.summary.worst.max(self.level);
        psca_obs::gauge("adapt.degrade.level").set(self.level.rank() as f64);
        self.level
    }

    fn transition(&mut self, next: DegradeLevel, health: PredictionHealth) {
        let escalating = next > self.level;
        let prev = self.level;
        self.level = next;
        self.summary.transitions += 1;
        psca_obs::counter("adapt.degrade.transitions").inc();
        if escalating {
            self.summary.escalations += 1;
            psca_obs::counter("adapt.degrade.escalations").inc();
        } else {
            self.summary.recoveries += 1;
            psca_obs::counter("adapt.degrade.recoveries").inc();
        }
        psca_obs::emit(
            if escalating {
                psca_obs::Level::Warn
            } else {
                psca_obs::Level::Info
            },
            "adapt.degrade.transition",
            &[
                ("from", prev.name().into()),
                ("to", next.name().into()),
                ("health", health.name().into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watchdog() -> Watchdog {
        Watchdog::default()
    }

    #[test]
    fn healthy_stream_stays_model_driven() {
        let mut w = watchdog();
        for _ in 0..50 {
            assert_eq!(w.observe(PredictionHealth::Ok), DegradeLevel::ModelDriven);
        }
        let s = w.summary();
        assert_eq!(s.transitions, 0);
        assert_eq!(s.worst, DegradeLevel::ModelDriven);
        assert_eq!(s.residency[0], 50);
        assert_eq!(s.degraded_fraction(), 0.0);
    }

    #[test]
    fn missing_prediction_forces_hold_last_immediately() {
        let mut w = watchdog();
        w.observe(PredictionHealth::Ok);
        assert_eq!(w.observe(PredictionHealth::Missing), DegradeLevel::HoldLast);
    }

    #[test]
    fn non_finite_jumps_straight_to_heuristic() {
        let mut w = watchdog();
        assert_eq!(
            w.observe(PredictionHealth::NonFinite),
            DegradeLevel::HeuristicOnly
        );
    }

    #[test]
    fn sustained_failure_walks_the_whole_ladder() {
        let mut w = watchdog();
        let mut seen = Vec::new();
        for _ in 0..8 {
            seen.push(w.observe(PredictionHealth::Missing));
        }
        assert_eq!(seen[0], DegradeLevel::HoldLast);
        assert_eq!(*seen.last().unwrap(), DegradeLevel::PinnedHighPerf);
        assert_eq!(w.summary().worst, DegradeLevel::PinnedHighPerf);
        // Strictly monotone escalation: never steps down under sustained
        // failure.
        assert!(seen.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn probation_steps_down_one_tier_at_a_time() {
        let mut w = watchdog();
        w.observe(PredictionHealth::NonFinite); // → HeuristicOnly
        let mut levels = Vec::new();
        for _ in 0..2 * PROBATION {
            levels.push(w.observe(PredictionHealth::Ok));
        }
        // First probation period ends at HoldLast, second at ModelDriven.
        assert_eq!(levels[PROBATION - 1], DegradeLevel::HoldLast);
        assert_eq!(levels[2 * PROBATION - 1], DegradeLevel::ModelDriven);
        assert_eq!(w.summary().recoveries, 2);
    }

    #[test]
    fn intermittent_faults_reset_probation() {
        let mut w = watchdog();
        w.observe(PredictionHealth::Missing); // → HoldLast
        for _ in 0..3 {
            // Never enough clean windows in a row to recover.
            for _ in 0..PROBATION - 1 {
                w.observe(PredictionHealth::Ok);
            }
            assert_eq!(w.observe(PredictionHealth::Missing), DegradeLevel::HoldLast);
        }
        assert_eq!(w.summary().recoveries, 0);
    }
}
