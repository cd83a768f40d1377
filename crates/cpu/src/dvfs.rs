//! Dynamic voltage and frequency scaling (DVFS).
//!
//! The paper positions cluster gating as *complementary* to DVFS: "cluster
//! gating is a complementary technique that can further reduce power at
//! V_min" (§2.1). This module provides a first-order DVFS model so that
//! claim can be measured (`repro -- ablate-dvfs`):
//!
//! - an [`OperatingPoint`] ladder with voltage scaling;
//! - a first-order retiming model: core-bound cycles contract with
//!   frequency while memory time (in nanoseconds) does not, so
//!   memory-bound workloads gain little from higher frequency;
//! - energy scaling: dynamic energy ∝ V², static power ∝ V·f at constant
//!   workload;
//! - an ondemand-style [`DvfsGovernor`] that picks the lowest point
//!   meeting a utilization target.

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts.
    pub voltage: f64,
}

/// A DVFS model: a ladder of operating points with a designated reference
/// point at which the simulator's cycle counts and energies were produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsModel {
    points: Vec<OperatingPoint>,
    reference: usize,
    /// Memory latency at the reference point, cycles (used to estimate the
    /// memory-bound share of an interval).
    mem_latency_cycles: f64,
}

impl DvfsModel {
    /// A Skylake-like five-point ladder; the simulator's native point
    /// (2.0 GHz @ 1.00 V) is the reference.
    pub fn skylake_scaled() -> DvfsModel {
        DvfsModel {
            points: vec![
                OperatingPoint {
                    freq_ghz: 0.8,
                    voltage: 0.70,
                },
                OperatingPoint {
                    freq_ghz: 1.2,
                    voltage: 0.78,
                },
                OperatingPoint {
                    freq_ghz: 1.6,
                    voltage: 0.88,
                },
                OperatingPoint {
                    freq_ghz: 2.0,
                    voltage: 1.00,
                },
                OperatingPoint {
                    freq_ghz: 2.4,
                    voltage: 1.12,
                },
            ],
            reference: 3,
            mem_latency_cycles: 180.0,
        }
    }

    /// The operating-point ladder, slowest first.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Index of the minimum-voltage point (V_min).
    pub fn vmin(&self) -> usize {
        0
    }

    /// Index of the reference point.
    pub fn reference(&self) -> usize {
        self.reference
    }

    /// Projects an interval simulated at the reference point onto another
    /// operating point, returning `(time_ns, energy)`. The interval is
    /// given by its raw quantities: cycles, LLC miss rate per cycle, and
    /// reference-point energy.
    ///
    /// Core time contracts with frequency; memory time is constant in
    /// wall-clock. Dynamic energy scales with V²; static energy with
    /// V × time.
    ///
    /// # Panics
    /// Panics if `point` is out of range.
    pub fn project_raw(
        &self,
        cycles: u64,
        llc_misses_per_cycle: f64,
        energy: f64,
        point: usize,
    ) -> (f64, f64) {
        assert!(point < self.points.len(), "operating point out of range");
        let p = self.points[point];
        let pref = self.points[self.reference];
        let cycles = cycles as f64;
        // Memory-bound share: the fraction of the cycles attributable to
        // LLC misses. Misses rarely serialize fully, so charge half.
        let m = (0.5 * llc_misses_per_cycle * self.mem_latency_cycles).clamp(0.0, 0.95);
        let time_ref_ns = cycles / pref.freq_ghz;
        let core_ns = (1.0 - m) * time_ref_ns * (pref.freq_ghz / p.freq_ghz);
        let mem_ns = m * time_ref_ns;
        let time_ns = core_ns + mem_ns;
        // Split reference energy into dynamic (per-op) and static (per-ns)
        // halves, then rescale each.
        let dyn_ref = 0.6 * energy;
        let stat_ref = 0.4 * energy;
        let v_ratio = p.voltage / pref.voltage;
        let dynamic = dyn_ref * v_ratio * v_ratio;
        let stat = stat_ref * v_ratio * (time_ns / time_ref_ns);
        (time_ns, dynamic + stat)
    }
}

impl Default for DvfsModel {
    fn default() -> DvfsModel {
        DvfsModel::skylake_scaled()
    }
}

/// An ondemand-style governor: steps up when projected slowdown at the
/// current point exceeds the tolerance, steps down when there is slack.
#[derive(Debug, Clone)]
pub struct DvfsGovernor {
    model: DvfsModel,
    current: usize,
    /// Maximum tolerated slowdown vs. the reference point (e.g. 0.10).
    slack: f64,
}

impl DvfsGovernor {
    /// Creates a governor starting at the reference point.
    pub fn new(model: DvfsModel, slack: f64) -> DvfsGovernor {
        let current = model.reference();
        DvfsGovernor {
            model,
            current,
            slack,
        }
    }

    /// Current operating-point index.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Observes an interval, given as [`DvfsModel::project_raw`] takes
    /// it, and picks the next operating point: the slowest point whose
    /// projected time stays within `1 + slack` of the reference-point
    /// time.
    pub fn step(&mut self, cycles: u64, llc_misses_per_cycle: f64, energy: f64) -> usize {
        let project = |p| {
            self.model
                .project_raw(cycles, llc_misses_per_cycle, energy, p)
                .0
        };
        let t_ref = project(self.model.reference());
        let mut chosen = self.model.points().len() - 1;
        for p in 0..self.model.points().len() {
            let t = project(p);
            if t <= t_ref * (1.0 + self.slack) {
                chosen = p;
                break;
            }
        }
        self.current = chosen;
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSim, CpuConfig, Mode};
    use psca_telemetry::Event;
    use psca_workloads::{Archetype, PhaseGenerator};

    /// One simulated interval's raw quantities: cycles, LLC misses per
    /// cycle, and energy.
    type Raw = (u64, f64, f64);

    fn interval(a: Archetype, mode: Mode) -> Raw {
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        sim.set_mode(mode);
        let mut gen = PhaseGenerator::new(a.center(), 11);
        sim.warm_up(&mut gen, 20_000);
        let r = sim.run_interval(&mut gen, 20_000).unwrap();
        (
            r.snapshot.cycles,
            r.snapshot.get(Event::LlcMisses),
            r.energy,
        )
    }

    fn project(m: &DvfsModel, &(cycles, llc, energy): &Raw, point: usize) -> (f64, f64) {
        m.project_raw(cycles, llc, energy, point)
    }

    #[test]
    fn reference_projection_is_identity() {
        let m = DvfsModel::skylake_scaled();
        let r = interval(Archetype::Balanced, Mode::HighPerf);
        let (t, e) = project(&m, &r, m.reference());
        assert!((t - r.0 as f64 / 2.0).abs() < 1e-6);
        assert!((e - r.2).abs() < 1e-6 * r.2);
    }

    #[test]
    fn lower_points_save_energy_and_cost_time() {
        let m = DvfsModel::skylake_scaled();
        let r = interval(Archetype::ScalarIlp, Mode::HighPerf);
        let (t_ref, e_ref) = project(&m, &r, m.reference());
        let (t_min, e_min) = project(&m, &r, m.vmin());
        assert!(t_min > t_ref, "V_min must be slower for compute-bound code");
        assert!(e_min < e_ref, "V_min must save energy");
    }

    #[test]
    fn memory_bound_code_tolerates_low_frequency() {
        let m = DvfsModel::skylake_scaled();
        let compute = interval(Archetype::ScalarIlp, Mode::HighPerf);
        let membound = interval(Archetype::MemBound, Mode::HighPerf);
        let slowdown = |r: &Raw| {
            let (t_ref, _) = project(&m, r, m.reference());
            let (t_min, _) = project(&m, r, m.vmin());
            t_min / t_ref
        };
        assert!(
            slowdown(&membound) < slowdown(&compute),
            "memory-bound code should lose less at V_min: {} vs {}",
            slowdown(&membound),
            slowdown(&compute)
        );
    }

    #[test]
    fn governor_downclocks_memory_bound_phases() {
        let m = DvfsModel::skylake_scaled();
        let mut gov = DvfsGovernor::new(m.clone(), 0.10);
        let membound = interval(Archetype::MemBound, Mode::HighPerf);
        let p_mem = gov.step(membound.0, membound.1, membound.2);
        let compute = interval(Archetype::ScalarIlp, Mode::HighPerf);
        let p_cpu = gov.step(compute.0, compute.1, compute.2);
        assert!(
            p_mem <= p_cpu,
            "governor should downclock memory-bound phases ({p_mem} vs {p_cpu})"
        );
        assert_eq!(p_cpu, m.reference(), "compute stays at reference");
    }

    #[test]
    fn gating_still_saves_energy_at_vmin() {
        // The §2.1 complementarity claim: at V_min, the gated configuration
        // still consumes less energy than the ungated one on gateable code.
        let m = DvfsModel::skylake_scaled();
        let hi = interval(Archetype::DepChain, Mode::HighPerf);
        let lo = interval(Archetype::DepChain, Mode::LowPower);
        let (_, e_hi) = project(&m, &hi, m.vmin());
        let (_, e_lo) = project(&m, &lo, m.vmin());
        // Same instruction count in both intervals.
        assert!(
            e_lo < e_hi,
            "cluster gating must still save energy at V_min: {e_lo} vs {e_hi}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_point_rejected() {
        let m = DvfsModel::skylake_scaled();
        let r = interval(Archetype::Balanced, Mode::HighPerf);
        let _ = project(&m, &r, 99);
    }
}
