//! The fail-safe guardrail of §3.1.
//!
//! "While the final CPU design will implement a fail-safe guardrail, we
//! present all results assuming none; instead, we focus on minimizing SLA
//! violations so that guardrails may be set as permissively as possible."
//!
//! This module implements that guardrail so its interaction with model
//! quality can be measured (the `ablate-guardrail` bench): while gated,
//! the controller compares low-power IPC against an exponentially-weighted
//! estimate of recent high-performance IPC; if the SLA threshold is
//! breached for `trip_after` consecutive prediction windows, the CPU is
//! forced to high-performance mode for a `cooldown`, overriding the model.
//!
//! A guardrail masks the *symptoms* of a blindspot at a PPW cost: every
//! trip burns cooldown windows in high-performance mode even where gating
//! was safe, and the stale IPC reference mis-fires around phase changes —
//! which is exactly why the paper argues for fixing models rather than
//! leaning on guardrails.

use crate::sla::Sla;

/// Guardrail configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardrailConfig {
    /// Consecutive below-threshold gated windows before tripping.
    pub trip_after: usize,
    /// Windows forced to high-performance after a trip.
    pub cooldown: usize,
    /// EWMA smoothing factor for the high-performance IPC reference.
    pub alpha: f64,
    /// After this many consecutive gated windows, force one
    /// high-performance *probe* window to refresh the IPC reference —
    /// without probing, a stale reference from a different phase can hide
    /// sustained SLA violations entirely.
    pub probe_period: usize,
}

impl Default for GuardrailConfig {
    fn default() -> GuardrailConfig {
        GuardrailConfig {
            trip_after: 2,
            cooldown: 4,
            alpha: 0.5,
            probe_period: 8,
        }
    }
}

/// Runtime guardrail state.
#[derive(Debug, Clone)]
pub struct Guardrail {
    cfg: GuardrailConfig,
    sla: Sla,
    hi_ipc_estimate: Option<f64>,
    consecutive_breaches: usize,
    cooldown_left: usize,
    gated_streak: usize,
    trips: usize,
    probes: usize,
    /// Set when a probe has been issued: the next high-performance window
    /// *replaces* the IPC reference instead of EWMA-blending into it, so a
    /// probe after a phase change cannot leave a half-stale reference.
    refresh_pending: bool,
    /// Whether trips and probes reach the metric registry and event log.
    reporting: bool,
}

impl Guardrail {
    /// Creates a guardrail enforcing the given SLA.
    pub fn new(cfg: GuardrailConfig, sla: Sla) -> Guardrail {
        Guardrail {
            cfg,
            sla,
            hi_ipc_estimate: None,
            consecutive_breaches: 0,
            cooldown_left: 0,
            gated_streak: 0,
            trips: 0,
            probes: 0,
            refresh_pending: false,
            reporting: true,
        }
    }

    /// A guardrail that keeps the same state as [`Guardrail::new`] but
    /// never counts or logs its trips and probes. The closed loop keeps
    /// one as its heuristic fallback: it runs every window, yet gates only
    /// when the degradation ladder hands it control.
    pub fn shadow(cfg: GuardrailConfig, sla: Sla) -> Guardrail {
        Guardrail {
            reporting: false,
            ..Guardrail::new(cfg, sla)
        }
    }

    /// Windows of forced high-performance remaining in the current
    /// cooldown (0 when not tripped).
    pub fn cooldown_remaining(&self) -> usize {
        self.cooldown_left
    }

    /// Consecutive gated windows observed since the last ungated one.
    pub fn gated_streak(&self) -> usize {
        self.gated_streak
    }

    /// The current high-performance IPC reference, if one exists.
    pub fn reference(&self) -> Option<f64> {
        self.hi_ipc_estimate
    }

    /// Number of reference-refresh probes issued.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Number of times the guardrail has tripped.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Whether the guardrail is currently overriding the model.
    pub fn in_cooldown(&self) -> bool {
        self.cooldown_left > 0
    }

    /// Observes one completed prediction window and vets the model's next
    /// gating decision. `gated` is whether the window just observed ran in
    /// low-power mode; `ipc` its measured IPC; `wants_gate` the model's
    /// decision for the upcoming window. Returns the decision to apply.
    pub fn vet(&mut self, gated: bool, ipc: f64, wants_gate: bool) -> bool {
        if gated {
            self.gated_streak += 1;
            if let Some(ref_ipc) = self.hi_ipc_estimate {
                if ipc < self.sla.p_sla * ref_ipc {
                    self.consecutive_breaches += 1;
                } else {
                    self.consecutive_breaches = 0;
                }
                if self.consecutive_breaches >= self.cfg.trip_after {
                    self.trips += 1;
                    self.consecutive_breaches = 0;
                    self.cooldown_left = self.cfg.cooldown;
                    self.report_trip(ipc, ref_ipc);
                }
            }
        } else {
            // Refresh the high-performance reference. After a probe the
            // sample is authoritative: hard-reset rather than blend, so
            // the pre-probe phase cannot linger in the estimate.
            self.hi_ipc_estimate = Some(match self.hi_ipc_estimate {
                Some(est) if !self.refresh_pending => {
                    (1.0 - self.cfg.alpha) * est + self.cfg.alpha * ipc
                }
                _ => ipc,
            });
            self.refresh_pending = false;
            self.consecutive_breaches = 0;
            self.gated_streak = 0;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return false; // force high-performance
        }
        if wants_gate && self.gated_streak >= self.cfg.probe_period {
            // Reference-refresh probe: one ungated window. The breach
            // streak resets with it — breaches judged against the stale
            // pre-probe reference must not combine with post-probe ones.
            self.gated_streak = 0;
            self.consecutive_breaches = 0;
            self.refresh_pending = true;
            self.probes += 1;
            if self.reporting {
                psca_obs::counter("adapt.guardrail.probes").inc();
                psca_obs::emit(
                    psca_obs::Level::Debug,
                    "guardrail.probe",
                    &[("probes", self.probes.into())],
                );
            }
            return false;
        }
        wants_gate
    }

    fn report_trip(&self, ipc: f64, ref_ipc: f64) {
        if !self.reporting {
            return;
        }
        psca_obs::counter("adapt.guardrail.trips").inc();
        psca_obs::emit(
            psca_obs::Level::Warn,
            "guardrail.trip",
            &[
                ("trips", self.trips.into()),
                ("ipc", ipc.into()),
                ("ref_ipc", ref_ipc.into()),
                ("cooldown", self.cfg.cooldown.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guardrail() -> Guardrail {
        Guardrail::new(GuardrailConfig::default(), Sla::paper_default())
    }

    #[test]
    fn passes_through_when_sla_met() {
        let mut g = guardrail();
        assert!(g.vet(false, 4.0, true)); // hi window establishes reference
        for i in 0..10 {
            let decision = g.vet(true, 3.8, true);
            if i == 7 {
                // Streak hits the probe period: one refresh window.
                assert!(!decision, "probe expected at the streak limit");
                assert_eq!(g.probes(), 1);
                let _ = g.vet(false, 4.0, true); // the probe window itself
            } else {
                assert!(decision, "gated at 95% must pass (i = {i})");
            }
        }
        assert_eq!(g.trips(), 0);
    }

    #[test]
    fn trips_after_consecutive_breaches() {
        let mut g = guardrail();
        let _ = g.vet(false, 4.0, true);
        assert!(g.vet(true, 2.0, true)); // breach 1: not yet tripped
        let decision = g.vet(true, 2.0, true); // breach 2: trip
        assert!(!decision, "cooldown must force high-performance");
        assert_eq!(g.trips(), 1);
        assert!(g.in_cooldown());
    }

    #[test]
    fn cooldown_expires_and_model_regains_control() {
        let mut g = guardrail();
        let _ = g.vet(false, 4.0, true);
        let _ = g.vet(true, 1.0, true);
        let _ = g.vet(true, 1.0, true); // trip; cooldown = 4 (1 consumed)
        let mut forced = 0;
        for _ in 0..6 {
            if !g.vet(false, 4.0, true) {
                forced += 1;
            }
        }
        assert!((2..6).contains(&forced), "forced {forced} windows");
        assert!(!g.in_cooldown());
        assert!(g.vet(true, 3.9, true));
    }

    #[test]
    fn no_reference_means_no_trip_but_probes_fire() {
        let mut g = guardrail();
        // Gated from the start: no high-performance reference yet, so no
        // trips — but the probe mechanism still samples hi mode.
        let mut probes = 0;
        for _ in 0..10 {
            if !g.vet(true, 0.1, true) {
                probes += 1;
            }
        }
        assert_eq!(g.trips(), 0);
        assert_eq!(probes, g.probes());
        assert!(probes >= 1, "probe must fire within 10 gated windows");
    }

    #[test]
    fn isolated_breaches_are_forgiven() {
        let mut g = guardrail();
        let _ = g.vet(false, 4.0, true);
        for _ in 0..10 {
            let a = g.vet(true, 1.0, true); // breach
            let b = g.vet(false, 3.9, true); // recovery in hi resets counts
            assert!(a && b);
        }
        assert_eq!(g.trips(), 0);
        assert_eq!(g.probes(), 0, "streak resets prevent probes");
    }

    #[test]
    fn reference_tracks_phase_changes() {
        let mut g = guardrail();
        let _ = g.vet(false, 4.0, true);
        // A new, slower phase: hi windows re-teach the reference downward.
        for _ in 0..20 {
            let _ = g.vet(false, 1.0, true);
        }
        // Gating at IPC 0.95 against a ~1.0 reference is fine now.
        assert!(g.vet(true, 0.95, true));
        assert_eq!(g.trips(), 0);
    }
}
