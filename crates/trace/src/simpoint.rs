//! SimPoint-style trace windows.
//!
//! The paper's test set traces 200M-instruction SimPoints after warming
//! caches for 500M instructions (§4.1). [`SimPointSpec`] captures that
//! recipe: skip a warmup prefix (executed with telemetry discarded), then
//! record a measurement window.

use crate::source::{TraceSource, VecTrace};

/// A (warmup, window) recipe for extracting one SimPoint from a workload.
///
/// # Examples
///
/// ```
/// use psca_trace::SimPointSpec;
///
/// let sp = SimPointSpec::new(5_000, 20_000);
/// assert_eq!(sp.warmup_insts, 5_000);
/// assert_eq!(sp.window_insts, 20_000);
/// assert_eq!(sp.total_insts(), 25_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimPointSpec {
    /// Instructions executed before measurement begins (cache/µarch warmup).
    pub warmup_insts: u64,
    /// Instructions in the measured window.
    pub window_insts: u64,
}

impl SimPointSpec {
    /// Creates a SimPoint recipe.
    ///
    /// # Panics
    /// Panics if `window_insts == 0`.
    pub fn new(warmup_insts: u64, window_insts: u64) -> SimPointSpec {
        assert!(window_insts > 0, "SimPoint window must be non-empty");
        SimPointSpec {
            warmup_insts,
            window_insts,
        }
    }

    /// Total instructions consumed from the source (warmup + window).
    pub fn total_insts(&self) -> u64 {
        self.warmup_insts + self.window_insts
    }

    /// Splits a source into `(warmup, window)` recorded traces.
    ///
    /// The warmup trace is replayed with telemetry discarded to warm caches
    /// and predictors; the window trace is the measured SimPoint. Either may
    /// be shorter than requested if the source ends early.
    pub fn extract<S: TraceSource>(&self, source: &mut S) -> (VecTrace, VecTrace) {
        let warmup = VecTrace::record(source, self.warmup_insts);
        let window = VecTrace::record(source, self.window_insts);
        (warmup, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::Instruction;
    use crate::isa::OpClass;

    #[test]
    fn extract_splits_warmup_and_window() {
        let insts: Vec<_> = (0..100)
            .map(|i| Instruction::alu(OpClass::IntAlu, None, [None, None]).at_pc(i))
            .collect();
        let mut src = VecTrace::new(insts);
        let sp = SimPointSpec::new(30, 50);
        let (w, m) = sp.extract(&mut src);
        assert_eq!(w.len(), 30);
        assert_eq!(m.len(), 50);
        assert_eq!(w.get(0).unwrap().pc, 0);
        assert_eq!(m.get(0).unwrap().pc, 30);
    }

    #[test]
    fn extract_handles_short_sources() {
        let insts: Vec<_> = (0..10).map(|_| Instruction::default()).collect();
        let mut src = VecTrace::new(insts);
        let sp = SimPointSpec::new(8, 50);
        let (w, m) = sp.extract(&mut src);
        assert_eq!(w.len(), 8);
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_rejected() {
        let _ = SimPointSpec::new(10, 0);
    }
}
