//! Branch direction and target prediction.

/// A gshare direction predictor: global history XOR PC indexes a table of
/// 2-bit saturating counters.
///
/// # Examples
///
/// ```
/// use psca_cpu::GsharePredictor;
///
/// let mut bp = GsharePredictor::new(12);
/// // A always-taken branch becomes predictable once the global history
/// // saturates and its counter trains.
/// for _ in 0..32 {
///     let _ = bp.predict_and_update(0x400000, true);
/// }
/// assert!(bp.predict_and_update(0x400000, true));
/// ```
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    counters: Vec<u8>,
    history: u64,
    bits: u32,
}

impl GsharePredictor {
    /// Creates a predictor with a `2^bits`-entry counter table.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or greater than 24.
    pub fn new(bits: u32) -> GsharePredictor {
        assert!((1..=24).contains(&bits), "gshare bits out of range: {bits}");
        GsharePredictor {
            counters: vec![1; 1 << bits], // weakly not-taken
            history: 0,
            bits,
        }
    }

    /// Predicts the branch at `pc`, then updates with the resolved
    /// `outcome`. Returns whether the *prediction was correct*.
    pub fn predict_and_update(&mut self, pc: u64, outcome: bool) -> bool {
        let mask = (1u64 << self.bits) - 1;
        let idx = (((pc >> 2) ^ self.history) & mask) as usize;
        let predicted = self.counters[idx] >= 2;
        // Update saturating counter.
        if outcome {
            if self.counters[idx] < 3 {
                self.counters[idx] += 1;
            }
        } else if self.counters[idx] > 0 {
            self.counters[idx] -= 1;
        }
        self.history = ((self.history << 1) | outcome as u64) & mask;
        predicted == outcome
    }
}

/// A direct-mapped branch target buffer.
///
/// Taken branches whose target is absent (or stale) incur a front-end
/// redirect even when the direction was predicted correctly.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<(u64, u64)>, // (pc tag, target); pc == u64::MAX invalid
    bits: u32,
}

impl Btb {
    /// Creates a BTB with `2^bits` entries.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or greater than 20.
    pub fn new(bits: u32) -> Btb {
        assert!((1..=20).contains(&bits), "BTB bits out of range: {bits}");
        Btb {
            entries: vec![(u64::MAX, 0); 1 << bits],
            bits,
        }
    }

    /// Looks up (and installs) the target for a taken branch; returns
    /// whether the stored target matched.
    pub fn lookup_and_update(&mut self, pc: u64, target: u64) -> bool {
        let mask = (1u64 << self.bits) - 1;
        let idx = ((pc >> 2) & mask) as usize;
        let hit = self.entries[idx] == (pc, target);
        self.entries[idx] = (pc, target);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_biased_branches() {
        let mut bp = GsharePredictor::new(10);
        let mut correct = 0;
        for i in 0..1000 {
            if bp.predict_and_update(0x4000 + (i % 4) * 8, true) {
                correct += 1;
            }
        }
        assert!(correct > 950, "correct = {correct}");
    }

    #[test]
    fn gshare_learns_short_periodic_patterns() {
        let mut bp = GsharePredictor::new(12);
        let mut correct_late = 0;
        for i in 0..4000u64 {
            let outcome = (i / 3) % 2 == 0; // the phase generator's pattern
            let ok = bp.predict_and_update(0x4000, outcome);
            if i >= 2000 && ok {
                correct_late += 1;
            }
        }
        assert!(correct_late > 1700, "late correct = {correct_late}");
    }

    #[test]
    fn gshare_cannot_learn_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut bp = GsharePredictor::new(12);
        let mut correct = 0;
        let n = 4000;
        for _ in 0..n {
            if bp.predict_and_update(0x4000, rng.gen()) {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(acc < 0.65, "accuracy {acc} should be near chance");
    }

    #[test]
    fn btb_hits_on_stable_targets() {
        let mut btb = Btb::new(8);
        assert!(!btb.lookup_and_update(0x4000, 0x5000));
        assert!(btb.lookup_and_update(0x4000, 0x5000));
        assert!(!btb.lookup_and_update(0x4000, 0x6000)); // target changed
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gshare_zero_bits_rejected() {
        let _ = GsharePredictor::new(0);
    }
}
