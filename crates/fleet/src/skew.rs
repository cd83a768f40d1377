//! Per-die parameter variation: the skew-spec grammar and its
//! deterministic realization.
//!
//! Post-silicon reality is that no two dies are the paper's nominal
//! machine: effective cache/TLB capacity, mode-switch cost, and
//! telemetry noise all vary across a fleet. A [`SkewSpec`] bounds that
//! variation per axis; [`DieSkew::derive`] turns `(fleet seed, die id)`
//! into one die's concrete draw via the same SplitMix64 family the fault
//! injector uses, so a fleet is a pure function of its seed.
//!
//! ```text
//! spec  := entry (',' entry)*
//! entry := key '=' value
//! key   := 'cache' | 'tlb' | 'switch' | 'noise' | 'all'
//! value := magnitude in [0, 1]
//! ```
//!
//! `cache`, `tlb`, and `switch` are relative half-widths: a value `m`
//! draws each die's multiplier uniformly from `[1 - m, 1 + m]`. `noise`
//! is an absolute per-window telemetry-drift probability floor merged
//! into the die's chaos spec. `all` sets every key. Tokenizing, presets
//! and the `[0, 1]` value reader are the shared rules of
//! `psca_obs::spec`, so later entries override earlier ones.

use psca_cpu::CpuConfig;
use psca_faults::{ChaosSpec, SplitMix64};
use psca_obs::spec::{self, Preset, SpecError};
use std::fmt;

/// Fleet-wide bounds on per-die variation. `Default` is an all-zero
/// spec: every die is the nominal machine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SkewSpec {
    /// Relative half-width of cache-capacity jitter (all levels + µop
    /// cache), quantized to whole cache ways.
    pub cache: f64,
    /// Relative half-width of ITLB/DTLB entry-count jitter.
    pub tlb: f64,
    /// Relative half-width of mode-switch transfer-cost jitter.
    pub switch: f64,
    /// Per-die telemetry noise floor: an absolute lower bound on the
    /// `telem.drift` chaos rate, scaled by the die's draw in `[0, 1]`.
    pub noise: f64,
}

impl SkewSpec {
    /// The default fleet variation used by `repro fleet --skew default`:
    /// ±10% cache and TLB sizing, ±25% switch cost, up to a 1% telemetry
    /// noise floor.
    pub fn default_skew() -> SkewSpec {
        SkewSpec {
            cache: 0.10,
            tlb: 0.10,
            switch: 0.25,
            noise: 0.01,
        }
    }

    /// Parses the skew-spec grammar. The presets `"default"` / `""` yield
    /// [`SkewSpec::default_skew`]; `"off"` yields the all-zero spec.
    pub fn parse(s: &str) -> Result<SkewSpec, SpecError> {
        match spec::preset(s) {
            Some(Preset::Default) => Ok(SkewSpec::default_skew()),
            Some(Preset::Off) => Ok(SkewSpec::default()),
            None => spec::apply_entries(s, SkewSpec::default(), |spec, e| {
                let magnitude = e.unit()?;
                let mut known = false;
                for (axis, m) in spec.axes_mut() {
                    if e.key == "all" || e.key == axis {
                        *m = magnitude;
                        known = true;
                    }
                }
                known.then_some(()).ok_or_else(|| e.unknown_key())
            }),
        }
    }

    /// The per-axis magnitudes with their keys, in rendering order.
    fn axes(mut self) -> [(&'static str, f64); 4] {
        self.axes_mut().map(|(key, m)| (key, *m))
    }

    /// The per-axis magnitudes, mutably, with their keys.
    fn axes_mut(&mut self) -> [(&'static str, &mut f64); 4] {
        [
            ("cache", &mut self.cache),
            ("tlb", &mut self.tlb),
            ("switch", &mut self.switch),
            ("noise", &mut self.noise),
        ]
    }

    /// Whether any axis has a non-zero magnitude.
    pub fn any_enabled(&self) -> bool {
        self.axes().iter().any(|&(_, m)| m > 0.0)
    }
}

impl fmt::Display for SkewSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (key, m) in self.axes() {
            if m > 0.0 {
                write!(f, "{}{key}={m}", if any { "," } else { "" })?;
                any = true;
            }
        }
        if !any {
            f.write_str("off")?;
        }
        Ok(())
    }
}

/// One die's realized variation: concrete multipliers drawn from a
/// [`SkewSpec`], plus the die's telemetry noise floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSkew {
    /// Die index within the fleet.
    pub die: u64,
    /// Cache-capacity multiplier in `[1 - cache, 1 + cache]`.
    pub cache_factor: f64,
    /// TLB entry-count multiplier in `[1 - tlb, 1 + tlb]`.
    pub tlb_factor: f64,
    /// Mode-switch transfer-cost multiplier in `[1 - switch, 1 + switch]`.
    pub switch_factor: f64,
    /// Absolute `telem.drift` probability floor in `[0, noise]`.
    pub noise_floor: f64,
}

impl DieSkew {
    /// Derives die `die`'s skew from the fleet seed. The draw order is
    /// fixed (cache, tlb, switch, noise), so adding axes later appends
    /// draws without disturbing existing ones.
    pub fn derive(spec: &SkewSpec, fleet_seed: u64, die: u64) -> DieSkew {
        // Decorrelate die streams the same way the fault injector
        // decorrelates grid cells: xor the id into the seed, then let the
        // SplitMix64 mixer spread it. The golden-ratio multiply keeps
        // consecutive die ids from landing on consecutive stream states.
        let mut rng = SplitMix64::new(fleet_seed ^ die.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut signed = |m: f64| 1.0 + m * (2.0 * rng.next_f64() - 1.0);
        let cache_factor = signed(spec.cache);
        let tlb_factor = signed(spec.tlb);
        let switch_factor = signed(spec.switch);
        let noise_floor = spec.noise * rng.next_f64();
        DieSkew {
            die,
            cache_factor,
            tlb_factor,
            switch_factor,
            noise_floor,
        }
    }

    /// Applies the skew to a nominal machine, producing this die's
    /// [`CpuConfig`].
    ///
    /// Cache capacities are quantized to whole sets (multiples of one
    /// 64-byte line per way) and floored at one set, honoring the
    /// simulator's geometry invariants; TLB entries are floored at 8 and
    /// the transfer budget at 1. Latencies are untouched, so the skewed
    /// config always passes `CpuConfig::validate`.
    pub fn apply(&self, base: &CpuConfig) -> CpuConfig {
        let mut cfg = base.clone();
        cfg.l1i_bytes = scale_cache(base.l1i_bytes, base.l1i_ways, self.cache_factor);
        cfg.uop_cache_bytes =
            scale_cache(base.uop_cache_bytes, base.uop_cache_ways, self.cache_factor);
        cfg.l1d_bytes = scale_cache(base.l1d_bytes, base.l1d_ways, self.cache_factor);
        cfg.l2_bytes = scale_cache(base.l2_bytes, base.l2_ways, self.cache_factor);
        cfg.llc_bytes = scale_cache(base.llc_bytes, base.llc_ways, self.cache_factor);
        cfg.itlb_entries = scale_floor(base.itlb_entries, self.tlb_factor, 8);
        cfg.dtlb_entries = scale_floor(base.dtlb_entries, self.tlb_factor, 8);
        cfg.transfer_uop_max =
            scale_floor(base.transfer_uop_max as usize, self.switch_factor, 1) as u32;
        cfg
    }

    /// Merges the die's telemetry noise floor and a per-die injection
    /// seed into `base` chaos (or a fresh all-zero spec when `None`).
    pub fn chaos(&self, base: Option<&ChaosSpec>) -> ChaosSpec {
        let mut spec = base.cloned().unwrap_or_default();
        spec.seed ^= self.die;
        spec.telem_drift = spec.telem_drift.max(self.noise_floor);
        spec
    }
}

/// Scales a cache capacity, quantized to whole sets so `bytes / 64` stays
/// a positive multiple of `ways`.
fn scale_cache(bytes: usize, ways: usize, factor: f64) -> usize {
    let quantum = 64 * ways.max(1);
    let sets = ((bytes as f64 * factor) / quantum as f64).round() as usize;
    quantum * sets.max(1)
}

fn scale_floor(value: usize, factor: f64, min: usize) -> usize {
    ((value as f64 * factor).round() as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_keyword_enables_every_axis() {
        let spec = SkewSpec::parse("default").unwrap();
        assert!(spec.any_enabled());
        assert!(spec.cache > 0.0 && spec.noise > 0.0);
    }

    #[test]
    fn off_disables_everything() {
        assert!(!SkewSpec::parse("off").unwrap().any_enabled());
    }

    #[test]
    fn group_shorthand_then_refinement() {
        let spec = SkewSpec::parse("all=0.2,noise=0.05").unwrap();
        assert_eq!(spec.cache, 0.2);
        assert_eq!(spec.switch, 0.2);
        assert_eq!(spec.noise, 0.05);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(SkewSpec::parse("cache").is_err());
        assert!(SkewSpec::parse("cache=1.5").is_err());
        assert!(SkewSpec::parse("cache=-0.1").is_err());
        assert!(SkewSpec::parse("nonsense=0.1").is_err());
    }

    #[test]
    fn display_roundtrips() {
        let spec = SkewSpec::parse("cache=0.25,switch=0.125").unwrap();
        assert_eq!(SkewSpec::parse(&spec.to_string()).unwrap(), spec);
        let off = SkewSpec::default();
        assert_eq!(SkewSpec::parse(&off.to_string()).unwrap(), off);
    }

    #[test]
    fn derivation_is_deterministic_and_per_die() {
        let spec = SkewSpec::default_skew();
        let a = DieSkew::derive(&spec, 42, 3);
        let b = DieSkew::derive(&spec, 42, 3);
        assert_eq!(a, b);
        let c = DieSkew::derive(&spec, 42, 4);
        assert_ne!(a.cache_factor, c.cache_factor);
    }

    #[test]
    fn factors_stay_within_spec_bounds() {
        let spec = SkewSpec::parse("all=0.3").unwrap();
        for die in 0..64 {
            let s = DieSkew::derive(&spec, 7, die);
            assert!((0.7..=1.3).contains(&s.cache_factor));
            assert!((0.7..=1.3).contains(&s.tlb_factor));
            assert!((0.7..=1.3).contains(&s.switch_factor));
            assert!((0.0..=0.3).contains(&s.noise_floor));
        }
    }

    #[test]
    fn skewed_config_honors_simulator_geometry() {
        let spec = SkewSpec::parse("all=1.0").unwrap();
        let base = CpuConfig::skylake_scaled();
        for die in 0..32 {
            let cfg = DieSkew::derive(&spec, 99, die).apply(&base);
            for (bytes, ways) in [
                (cfg.l1i_bytes, cfg.l1i_ways),
                (cfg.uop_cache_bytes, cfg.uop_cache_ways),
                (cfg.l1d_bytes, cfg.l1d_ways),
                (cfg.l2_bytes, cfg.l2_ways),
                (cfg.llc_bytes, cfg.llc_ways),
            ] {
                let lines = bytes / 64;
                assert!(lines >= ways && lines % ways == 0);
            }
            assert!(cfg.itlb_entries >= 8 && cfg.dtlb_entries >= 8);
            assert!(cfg.transfer_uop_max >= 1);
            cfg.validate();
        }
    }

    #[test]
    fn zero_spec_is_the_nominal_machine() {
        let base = CpuConfig::skylake_scaled();
        let skew = DieSkew::derive(&SkewSpec::default(), 1, 5);
        let cfg = skew.apply(&base);
        assert_eq!(cfg.l1d_bytes, base.l1d_bytes);
        assert_eq!(cfg.itlb_entries, base.itlb_entries);
        assert_eq!(cfg.transfer_uop_max, base.transfer_uop_max);
        assert_eq!(skew.noise_floor, 0.0);
    }

    #[test]
    fn chaos_merge_keeps_user_rates_and_xors_seed() {
        let spec = SkewSpec::parse("noise=0.5").unwrap();
        let skew = DieSkew::derive(&spec, 11, 2);
        let base = ChaosSpec::parse("uc.drop=0.25,seed=100").unwrap();
        let merged = skew.chaos(Some(&base));
        assert_eq!(merged.uc_drop, 0.25);
        assert_eq!(merged.seed, 100 ^ 2);
        assert!(merged.telem_drift >= skew.noise_floor);
    }
}
