//! The chaos-spec grammar: `key=value` entries selecting per-class fault
//! rates, the injection seed, and an optional burst cutoff. Tokenizing,
//! presets and value readers are the shared rules of `psca_obs::spec`.
//!
//! ```text
//! spec     := entry (',' entry)*
//! entry    := key '=' value
//! key      := 'seed' | 'burst' | 'max_rsv'
//!           | 'telem.stuck' | 'telem.sat' | 'telem.drop'
//!           | 'telem.drift' | 'telem.nan'
//!           | 'uc.drop' | 'uc.late' | 'uc.nan' | 'uc.bitflip'
//!           | 'act.lost' | 'act.delay'
//!           | 'telem' | 'uc' | 'act' | 'all'        (group shorthands)
//! value    := rate in [0, 1] (per-window probability), or an integer
//!             for 'seed' / 'burst'
//! ```
//!
//! Group shorthands set every rate in the group; later entries override
//! earlier ones, so `all=0.02,uc.late=0.1` is a valid refinement.

use psca_obs::spec::{self, Preset, SpecError};
use std::fmt;

/// Per-window fault probabilities plus injection seed. Parsed from the
/// grammar above; `Default` is all-zero rates (injection disabled).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed for the injector's SplitMix64 stream.
    pub seed: u64,
    /// Stop injecting after this many windows (None = whole run). Burst
    /// specs exercise escalation-then-recovery paths.
    pub burst_windows: Option<u64>,
    /// SLA-violation-rate bound asserted by the chaos harness.
    pub max_rsv: f64,
    /// Telemetry: a counter column's value has a bit stuck high.
    pub telem_stuck: f64,
    /// Telemetry: a counter column reads full-scale (saturated).
    pub telem_saturate: f64,
    /// Telemetry: a counter column is dropped (reads zero).
    pub telem_drop: f64,
    /// Telemetry: a counter column is rescaled by a drift factor.
    pub telem_drift: f64,
    /// Telemetry: a counter sample reads NaN.
    pub telem_nan: f64,
    /// µC: the prediction for this window is never produced.
    pub uc_drop: f64,
    /// µC: inference overruns the `t+2` deadline; the prediction lands a
    /// window late.
    pub uc_late: f64,
    /// µC: in-memory weight corruption makes the score non-finite.
    pub uc_nan: f64,
    /// µC: a pushed firmware image arrives with flipped bits (rejected by
    /// image validation).
    pub uc_bitflip: f64,
    /// Actuation: the mode-switch request is lost.
    pub act_lost: f64,
    /// Actuation: the mode-switch request is applied one window late.
    pub act_delayed: f64,
}

impl Default for ChaosSpec {
    fn default() -> ChaosSpec {
        ChaosSpec {
            seed: 0xC0FFEE,
            burst_windows: None,
            max_rsv: 0.5,
            telem_stuck: 0.0,
            telem_saturate: 0.0,
            telem_drop: 0.0,
            telem_drift: 0.0,
            telem_nan: 0.0,
            uc_drop: 0.0,
            uc_late: 0.0,
            uc_nan: 0.0,
            uc_bitflip: 0.0,
            act_lost: 0.0,
            act_delayed: 0.0,
        }
    }
}

impl ChaosSpec {
    /// The default chaos mix used by `repro --chaos default` and the CI
    /// smoke job: every fault class enabled at a low rate.
    pub fn default_chaos() -> ChaosSpec {
        ChaosSpec {
            telem_stuck: 0.01,
            telem_saturate: 0.01,
            telem_drop: 0.01,
            telem_drift: 0.01,
            telem_nan: 0.01,
            uc_drop: 0.02,
            uc_late: 0.02,
            uc_nan: 0.01,
            uc_bitflip: 0.01,
            act_lost: 0.01,
            act_delayed: 0.01,
            ..ChaosSpec::default()
        }
    }

    /// Parses the chaos-spec grammar. The presets `"default"` / `""`
    /// yield [`ChaosSpec::default_chaos`]; `"off"` yields all-zero rates.
    pub fn parse(s: &str) -> Result<ChaosSpec, SpecError> {
        match spec::preset(s) {
            Some(Preset::Default) => Ok(ChaosSpec::default_chaos()),
            Some(Preset::Off) => Ok(ChaosSpec::default()),
            None => spec::apply_entries(s, ChaosSpec::default(), |spec, e| {
                match e.key {
                    "seed" => spec.seed = e.non_negative_int()?,
                    "burst" => spec.burst_windows = Some(e.non_negative_int()?),
                    "max_rsv" => spec.max_rsv = e.unit()?,
                    key => {
                        // A rate key, a group shorthand (its prefix before
                        // '.'), or `all`.
                        let rate = e.unit()?;
                        let mut known = false;
                        for (name, r) in spec.rates_mut() {
                            if key == "all" || key == name || name.split('.').next() == Some(key) {
                                *r = rate;
                                known = true;
                            }
                        }
                        if !known {
                            return Err(e.unknown_key());
                        }
                    }
                }
                Ok(())
            }),
        }
    }

    /// The per-class rates with their keys, in rendering order.
    fn rates(&self) -> [(&'static str, f64); 11] {
        self.clone().rates_mut().map(|(key, r)| (key, *r))
    }

    /// The per-class rates, mutably, with their keys.
    fn rates_mut(&mut self) -> [(&'static str, &mut f64); 11] {
        [
            ("telem.stuck", &mut self.telem_stuck),
            ("telem.sat", &mut self.telem_saturate),
            ("telem.drop", &mut self.telem_drop),
            ("telem.drift", &mut self.telem_drift),
            ("telem.nan", &mut self.telem_nan),
            ("uc.drop", &mut self.uc_drop),
            ("uc.late", &mut self.uc_late),
            ("uc.nan", &mut self.uc_nan),
            ("uc.bitflip", &mut self.uc_bitflip),
            ("act.lost", &mut self.act_lost),
            ("act.delay", &mut self.act_delayed),
        ]
    }

    /// Returns the spec with every rate multiplied by `factor`, clamped
    /// to `[0, 1]`. Used by the chaos sweep.
    pub fn scaled(&self, factor: f64) -> ChaosSpec {
        let mut out = self.clone();
        for (_, r) in out.rates_mut() {
            *r = (*r * factor).clamp(0.0, 1.0);
        }
        out
    }

    /// Whether any fault class has a non-zero rate.
    pub fn any_enabled(&self) -> bool {
        self.rates().iter().any(|&(_, r)| r > 0.0)
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if let Some(b) = self.burst_windows {
            write!(f, ",burst={b}")?;
        }
        for (key, rate) in self.rates() {
            if rate > 0.0 {
                write!(f, ",{key}={rate}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_keyword_enables_every_class() {
        let spec = ChaosSpec::parse("default").unwrap();
        assert!(spec.any_enabled());
        assert!(spec.telem_stuck > 0.0 && spec.act_delayed > 0.0);
    }

    #[test]
    fn off_disables_everything() {
        assert!(!ChaosSpec::parse("off").unwrap().any_enabled());
    }

    #[test]
    fn group_shorthand_then_refinement() {
        let spec = ChaosSpec::parse("all=0.02,uc.late=0.5,seed=7").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.telem_drop, 0.02);
        assert_eq!(spec.uc_late, 0.5);
        assert_eq!(spec.uc_drop, 0.02);
    }

    #[test]
    fn burst_and_max_rsv_parse() {
        let spec = ChaosSpec::parse("uc.drop=1.0,burst=4,max_rsv=0.25").unwrap();
        assert_eq!(spec.burst_windows, Some(4));
        assert_eq!(spec.max_rsv, 0.25);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(ChaosSpec::parse("uc.drop").is_err());
        assert!(ChaosSpec::parse("uc.drop=2.0").is_err());
        assert!(ChaosSpec::parse("uc.drop=-0.1").is_err());
        assert!(ChaosSpec::parse("nonsense=0.1").is_err());
        assert!(ChaosSpec::parse("seed=abc").is_err());
    }

    #[test]
    fn display_roundtrips() {
        let spec = ChaosSpec::parse("telem.nan=0.25,uc.drop=0.125,seed=42").unwrap();
        let back = ChaosSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn scaling_clamps_to_unit_interval() {
        let spec = ChaosSpec::parse("uc.drop=0.6").unwrap().scaled(3.0);
        assert_eq!(spec.uc_drop, 1.0);
        assert_eq!(spec.telem_nan, 0.0);
    }
}
