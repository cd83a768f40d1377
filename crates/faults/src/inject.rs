//! The deterministic fault injector.
//!
//! One [`FaultInjector`] owns a SplitMix64 stream seeded from its
//! [`ChaosSpec`]; each window the closed loop calls `begin_window` and
//! then queries each fault surface. Draw order is fixed (telemetry
//! classes in declaration order, then prediction, then image, then
//! actuation), so a given `(spec, trace)` replays bit-identically
//! regardless of how the caller interleaves other work.

use crate::spec::ChaosSpec;
use psca_obs::FieldValue;
pub use psca_obs::SplitMix64;

/// A telemetry counter fault applied to one window's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryFault {
    /// A counter column's f64 representation has a bit stuck high.
    StuckBit,
    /// A counter column reads full-scale for the whole window.
    Saturated,
    /// A counter column is dropped: every sample reads zero.
    Dropped,
    /// A counter column is rescaled by a drift factor in [0.25, 4].
    Drift,
    /// A counter sample reads NaN.
    NonFinite,
}

/// A µC inference fault applied to one window's prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionFault {
    /// The prediction is never produced (firmware crash / watchdog reset).
    Dropped,
    /// Inference overran the `t+2` deadline; the decision applies one
    /// window late.
    LatencyOverrun,
    /// In-memory weight corruption: the score comes back non-finite.
    WeightCorruption,
}

/// An actuation fault applied to one window's mode-switch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationFault {
    /// The request is lost; the cluster configuration does not change.
    Lost,
    /// The request takes effect one window late.
    DelayedOneWindow,
}

/// Per-class tallies of injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Stuck-at-bit telemetry faults.
    pub telem_stuck: u64,
    /// Saturated-counter telemetry faults.
    pub telem_saturated: u64,
    /// Dropped-counter telemetry faults.
    pub telem_dropped: u64,
    /// Scaling-drift telemetry faults.
    pub telem_drift: u64,
    /// Non-finite telemetry faults.
    pub telem_nan: u64,
    /// Dropped predictions.
    pub uc_dropped: u64,
    /// Late predictions.
    pub uc_late: u64,
    /// Weight-corruption (NaN score) faults.
    pub uc_weight_nan: u64,
    /// Corrupted firmware-image pushes.
    pub uc_image_bitflip: u64,
    /// Lost mode-switch requests.
    pub act_lost: u64,
    /// Delayed mode-switch requests.
    pub act_delayed: u64,
}

impl FaultCounts {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.by_class().iter().map(|(_, n)| n).sum()
    }

    /// `(class name, count)` rows in a stable order.
    pub fn by_class(&self) -> [(&'static str, u64); 11] {
        [
            ("telem.stuck", self.telem_stuck),
            ("telem.sat", self.telem_saturated),
            ("telem.drop", self.telem_dropped),
            ("telem.drift", self.telem_drift),
            ("telem.nan", self.telem_nan),
            ("uc.drop", self.uc_dropped),
            ("uc.late", self.uc_late),
            ("uc.nan", self.uc_weight_nan),
            ("uc.bitflip", self.uc_image_bitflip),
            ("act.lost", self.act_lost),
            ("act.delay", self.act_delayed),
        ]
    }
}

/// Class-by-class sum, for aggregating several runs' tallies.
impl std::ops::AddAssign for FaultCounts {
    fn add_assign(&mut self, other: FaultCounts) {
        self.telem_stuck += other.telem_stuck;
        self.telem_saturated += other.telem_saturated;
        self.telem_dropped += other.telem_dropped;
        self.telem_drift += other.telem_drift;
        self.telem_nan += other.telem_nan;
        self.uc_dropped += other.uc_dropped;
        self.uc_late += other.uc_late;
        self.uc_weight_nan += other.uc_weight_nan;
        self.uc_image_bitflip += other.uc_image_bitflip;
        self.act_lost += other.act_lost;
        self.act_delayed += other.act_delayed;
    }
}

/// The seedable fault injector driving a chaos run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: ChaosSpec,
    rng: SplitMix64,
    window: u64,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Creates an injector for a spec; the RNG stream is derived from
    /// `spec.seed` alone.
    pub fn new(spec: ChaosSpec) -> FaultInjector {
        let seed = spec.seed;
        FaultInjector {
            spec,
            rng: SplitMix64::new(seed ^ 0x5CA1_AB1E_FA17_1337),
            window: 0,
            counts: FaultCounts::default(),
        }
    }

    /// An injector that never injects anything: the same injector the
    /// closed loop builds from a default (all-zero) [`ChaosSpec`].
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(ChaosSpec::default())
    }

    /// Whether any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.spec.any_enabled()
    }

    /// The spec this injector runs.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Per-class injection tallies so far.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Marks the start of a prediction window. Must be called once per
    /// window before querying fault surfaces.
    pub fn begin_window(&mut self) {
        self.window += 1;
    }

    /// Whether injection is live this window (false once a burst spec's
    /// cutoff has passed). `begin_window` must have been called.
    fn live(&self) -> bool {
        match self.spec.burst_windows {
            Some(burst) => self.window <= burst,
            None => true,
        }
    }

    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.next_f64() < rate
    }

    fn record(&mut self, class: &'static str) {
        psca_obs::counter(&format!("faults.{class}")).inc();
        psca_obs::counter("faults.injected").inc();
        if psca_obs::enabled(psca_obs::Level::Debug) {
            psca_obs::emit(
                psca_obs::Level::Debug,
                "faults.inject",
                &[
                    ("class", class.into()),
                    ("window", FieldValue::from(self.window)),
                ],
            );
        }
    }

    /// Applies telemetry counter faults to one window's rows in place and
    /// returns the faults applied (empty when nothing fired). Rows are
    /// the window's per-interval normalized counter vectors.
    pub fn perturb_telemetry(&mut self, rows: &mut [Vec<f64>]) -> Vec<TelemetryFault> {
        if rows.is_empty() || rows[0].is_empty() || !self.live() {
            return Vec::new();
        }
        let dim = rows[0].len();
        let mut applied = Vec::new();
        if self.roll(self.spec.telem_stuck) {
            let col = self.rng.next_below(dim);
            let bit = 40 + self.rng.next_below(12) as u32; // exponent-adjacent mantissa bits
            for row in rows.iter_mut() {
                row[col] = f64::from_bits(row[col].to_bits() | (1u64 << bit));
            }
            self.counts.telem_stuck += 1;
            self.record("telem.stuck");
            applied.push(TelemetryFault::StuckBit);
        }
        if self.roll(self.spec.telem_saturate) {
            let col = self.rng.next_below(dim);
            let cap = rows.iter().map(|r| r[col].abs()).fold(1.0f64, |a, b| {
                if b.is_finite() {
                    a.max(b)
                } else {
                    a
                }
            });
            for row in rows.iter_mut() {
                row[col] = cap;
            }
            self.counts.telem_saturated += 1;
            self.record("telem.sat");
            applied.push(TelemetryFault::Saturated);
        }
        if self.roll(self.spec.telem_drop) {
            let col = self.rng.next_below(dim);
            for row in rows.iter_mut() {
                row[col] = 0.0;
            }
            self.counts.telem_dropped += 1;
            self.record("telem.drop");
            applied.push(TelemetryFault::Dropped);
        }
        if self.roll(self.spec.telem_drift) {
            let col = self.rng.next_below(dim);
            // Drift factor in [0.25, 4): log-uniform around 1.
            let factor = (2.0f64).powf(self.rng.next_f64() * 4.0 - 2.0);
            for row in rows.iter_mut() {
                row[col] *= factor;
            }
            self.counts.telem_drift += 1;
            self.record("telem.drift");
            applied.push(TelemetryFault::Drift);
        }
        if self.roll(self.spec.telem_nan) {
            // One whole telemetry packet (interval row) arrives corrupted:
            // poisoning the full row makes the fault visible no matter
            // which counter subset the deployed model reads.
            let row = self.rng.next_below(rows.len());
            for cell in rows[row].iter_mut() {
                *cell = f64::NAN;
            }
            self.counts.telem_nan += 1;
            self.record("telem.nan");
            applied.push(TelemetryFault::NonFinite);
        }
        applied
    }

    /// Draws this window's µC inference fault, if any. At most one class
    /// fires per prediction (dropped > late > weight corruption).
    pub fn prediction_fault(&mut self) -> Option<PredictionFault> {
        // Roll every class even when an earlier one fired, so the RNG
        // stream stays aligned across runs with different rate mixes.
        let dropped = self.roll(self.spec.uc_drop);
        let late = self.roll(self.spec.uc_late);
        let nan = self.roll(self.spec.uc_nan);
        if !self.live() {
            return None;
        }
        if dropped {
            self.counts.uc_dropped += 1;
            self.record("uc.drop");
            Some(PredictionFault::Dropped)
        } else if late {
            self.counts.uc_late += 1;
            self.record("uc.late");
            Some(PredictionFault::LatencyOverrun)
        } else if nan {
            self.counts.uc_weight_nan += 1;
            self.record("uc.nan");
            Some(PredictionFault::WeightCorruption)
        } else {
            None
        }
    }

    /// Whether a corrupted firmware-image push lands this window.
    pub fn image_fault(&mut self) -> bool {
        let fire = self.roll(self.spec.uc_bitflip);
        if fire && self.live() {
            self.counts.uc_image_bitflip += 1;
            self.record("uc.bitflip");
            true
        } else {
            false
        }
    }

    /// Flips `flips` random bits of a firmware image in place; used with
    /// [`FaultInjector::image_fault`] to model a corrupted OTA push.
    pub fn corrupt_image(&mut self, image: &mut [u8], flips: usize) {
        if image.is_empty() {
            return;
        }
        for _ in 0..flips.max(1) {
            let byte = self.rng.next_below(image.len());
            let bit = self.rng.next_below(8) as u32;
            image[byte] ^= 1u8 << bit;
        }
    }

    /// Draws this window's actuation fault, if any.
    pub fn actuation_fault(&mut self) -> Option<ActuationFault> {
        let lost = self.roll(self.spec.act_lost);
        let delayed = self.roll(self.spec.act_delayed);
        if !self.live() {
            return None;
        }
        if lost {
            self.counts.act_lost += 1;
            self.record("act.lost");
            Some(ActuationFault::Lost)
        } else if delayed {
            self.counts.act_delayed += 1;
            self.record("act.delay");
            Some(ActuationFault::DelayedOneWindow)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![0.5 + i as f64 * 0.01; dim]).collect()
    }

    #[test]
    fn counts_add_class_by_class() {
        let a = FaultCounts {
            telem_stuck: 1,
            uc_late: 2,
            act_delayed: 3,
            ..FaultCounts::default()
        };
        let mut sum = a;
        sum += a;
        for ((name, n), (_, one)) in sum.by_class().iter().zip(a.by_class()) {
            assert_eq!(*n, 2 * one, "{name}");
        }
        assert_eq!(sum.total(), 12);
    }

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::disabled();
        let mut r = rows(4, 8);
        let orig = r.clone();
        for _ in 0..100 {
            inj.begin_window();
            assert!(inj.perturb_telemetry(&mut r).is_empty());
            assert_eq!(inj.prediction_fault(), None);
            assert!(!inj.image_fault());
            assert_eq!(inj.actuation_fault(), None);
        }
        assert_eq!(r, orig);
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut spec = ChaosSpec::default_chaos();
            spec.seed = seed;
            let mut inj = FaultInjector::new(spec);
            let mut log = Vec::new();
            let mut r = rows(4, 8);
            for _ in 0..200 {
                inj.begin_window();
                log.push((
                    inj.perturb_telemetry(&mut r).len(),
                    inj.prediction_fault(),
                    inj.image_fault(),
                    inj.actuation_fault(),
                ));
            }
            (log, *inj.counts())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).1, run(2).1, "different seeds should differ");
    }

    #[test]
    fn every_class_fires_at_rate_one() {
        let mut inj = FaultInjector::new(ChaosSpec::parse("all=1.0").unwrap());
        inj.begin_window();
        let mut r = rows(4, 8);
        let applied = inj.perturb_telemetry(&mut r);
        assert_eq!(applied.len(), 5, "all five telemetry classes: {applied:?}");
        assert_eq!(inj.prediction_fault(), Some(PredictionFault::Dropped));
        assert!(inj.image_fault());
        assert_eq!(inj.actuation_fault(), Some(ActuationFault::Lost));
    }

    #[test]
    fn burst_stops_injection_after_cutoff() {
        let mut inj = FaultInjector::new(ChaosSpec::parse("uc.drop=1.0,burst=3").unwrap());
        let mut fired = Vec::new();
        for _ in 0..6 {
            inj.begin_window();
            fired.push(inj.prediction_fault().is_some());
        }
        assert_eq!(fired, vec![true, true, true, false, false, false]);
        assert_eq!(inj.counts().uc_dropped, 3);
    }

    #[test]
    fn dropped_column_reads_zero_and_nan_poisons_one_row() {
        let mut inj = FaultInjector::new(ChaosSpec::parse("telem.drop=1.0,telem.nan=1.0").unwrap());
        inj.begin_window();
        let mut r = rows(3, 4);
        inj.perturb_telemetry(&mut r);
        let nan_rows = r
            .iter()
            .filter(|row| row.iter().all(|v| v.is_nan()))
            .count();
        assert_eq!(nan_rows, 1, "exactly one fully-poisoned row");
        // The dropped column reads zero in every non-poisoned row.
        let zero_cols = (0..4)
            .filter(|&c| {
                r.iter()
                    .filter(|row| !row[0].is_nan())
                    .all(|row| row[c] == 0.0)
            })
            .count();
        assert!(zero_cols >= 1, "one column must be zeroed");
    }

    #[test]
    fn corrupt_image_flips_bits() {
        let mut inj = FaultInjector::new(ChaosSpec::default_chaos());
        let mut image = vec![0u8; 64];
        inj.corrupt_image(&mut image, 4);
        assert!(image.iter().any(|&b| b != 0));
    }
}
