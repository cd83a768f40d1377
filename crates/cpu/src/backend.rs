//! The [`SimBackend`] trait and its one implementation, [`CycleAccurate`].
//!
//! Every closed loop in the workspace drives [`ClusterSim`] directly; no
//! workspace crate uses this module. It stays only because the repository
//! benchmark (`perfbench/src/probe.rs`) drives its simulator probe through
//! it, and goes when that benchmark changes.

use psca_trace::TraceSource;

use crate::config::CpuConfig;
use crate::sim::{ClusterSim, IntervalResult, Mode, ModeSwitchFault};

/// Per-interval closed-loop evaluation of a CPU model.
///
/// Semantics mirror [`ClusterSim`]: mode switches take effect between
/// intervals, a high-performance → low-power switch pays the microcoded
/// register-transfer cost in the next interval, and `run_interval` returns
/// `None` exactly when the source is exhausted.
pub trait SimBackend {
    /// Current execution mode.
    fn mode(&self) -> Mode;

    /// The machine configuration being modeled.
    fn config(&self) -> &CpuConfig;

    /// Switches cluster configuration (see [`ClusterSim::set_mode`]).
    fn set_mode(&mut self, mode: Mode);

    /// Submits a mode switch through the possibly-faulty actuation port
    /// (see [`ClusterSim::request_mode`]). Returns whether it took effect.
    fn request_mode(&mut self, mode: Mode, fault: ModeSwitchFault) -> bool;

    /// Applies a delayed mode switch, if one is buffered.
    fn apply_delayed_mode(&mut self) -> Option<Mode>;

    /// Consumes `n` instructions without producing telemetry.
    fn warm_up(&mut self, source: &mut dyn TraceSource, n: u64);

    /// Evaluates one interval of up to `n` instructions. Returns `None`
    /// iff the source yielded nothing.
    fn run_interval(&mut self, source: &mut dyn TraceSource, n: u64) -> Option<IntervalResult>;

    /// Stores functional outcomes in the recorded traces read from now on
    /// (see [`ClusterSim::record_outcomes`]).
    fn record_outcomes(&mut self) {}
}

/// A thin, bit-identical wrapper over [`ClusterSim`].
pub struct CycleAccurate {
    sim: ClusterSim,
}

impl CycleAccurate {
    /// Builds the reference simulator for `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration fails validation (as [`ClusterSim::new`]).
    pub fn new(cfg: CpuConfig) -> CycleAccurate {
        CycleAccurate {
            sim: ClusterSim::new(cfg),
        }
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }
}

impl SimBackend for CycleAccurate {
    fn mode(&self) -> Mode {
        self.sim.mode()
    }

    fn config(&self) -> &CpuConfig {
        self.sim.config()
    }

    fn set_mode(&mut self, mode: Mode) {
        self.sim.set_mode(mode);
    }

    fn request_mode(&mut self, mode: Mode, fault: ModeSwitchFault) -> bool {
        self.sim.request_mode(mode, fault)
    }

    fn apply_delayed_mode(&mut self) -> Option<Mode> {
        self.sim.apply_delayed_mode()
    }

    fn warm_up(&mut self, mut source: &mut dyn TraceSource, n: u64) {
        self.sim.warm_up(&mut source, n);
    }

    fn run_interval(&mut self, mut source: &mut dyn TraceSource, n: u64) -> Option<IntervalResult> {
        self.sim.run_interval(&mut source, n)
    }

    fn record_outcomes(&mut self) {
        self.sim.record_outcomes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_trace::VecTrace;
    use psca_workloads::{Archetype, PhaseGenerator};

    #[test]
    fn cycle_accurate_matches_direct_sim() {
        let cfg = CpuConfig::skylake_scaled();
        let mut direct = ClusterSim::new(cfg.clone());
        let mut wrapped: Box<dyn SimBackend> = Box::new(CycleAccurate::new(cfg));
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 42);
        let mut t1 = VecTrace::record(&mut gen, 3_000);
        let mut t2 = t1.clone();
        direct.warm_up(&mut t1, 500);
        wrapped.warm_up(&mut t2, 500);
        loop {
            let a = direct.run_interval(&mut t1, 500);
            let b = wrapped.run_interval(&mut t2, 500);
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.snapshot.cycles, b.snapshot.cycles);
                    assert_eq!(a.instructions, b.instructions);
                    assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                    assert_eq!(a.mode, b.mode);
                }
                (a, b) => panic!(
                    "divergent exhaustion: {:?} vs {:?}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }
}
