//! Experiment-grid configuration.
//!
//! The paper's datasets total tens of billions of simulated instructions;
//! this reproduction scales trace lengths and the SLA window down so the
//! full grid runs on a laptop while preserving every structural ratio
//! (the t→t+2 horizon, ops budgets per interval, window formula, corpus
//! category proportions). `EXPERIMENTS.md` records the scaling.

use crate::sla::Sla;
use std::convert::Infallible;

/// Training guard band: labels used for *training* are computed at
/// `P_SLA + LABEL_GUARD_BAND` so deployed decisions carry slack against
/// borderline intervals (evaluation always uses the contractual SLA).
const LABEL_GUARD_BAND: f64 = 0.02;

/// All scale knobs for dataset generation and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Master seed; every derived seed is a deterministic function of it.
    pub seed: u64,
    /// Telemetry interval in instructions (the paper's base is 10k).
    pub interval_insts: u64,
    /// Number of HDTR applications to synthesize (paper: 593).
    pub hdtr_apps: usize,
    /// Maximum traces used per HDTR application.
    pub hdtr_traces_per_app: usize,
    /// Measured intervals per HDTR trace.
    pub hdtr_intervals_per_trace: usize,
    /// Mean phase dwell of HDTR applications, instructions.
    pub hdtr_phase_len: u64,
    /// Warmup instructions before measuring each HDTR trace.
    pub hdtr_warmup_insts: u64,
    /// Measured intervals per SPEC SimPoint (paper: 200M instructions).
    pub spec_intervals_per_simpoint: usize,
    /// Mean phase dwell of SPEC benchmarks, instructions.
    pub spec_phase_len: u64,
    /// Warmup instructions before each SimPoint window.
    pub spec_warmup_insts: u64,
    /// Maximum SimPoints per SPEC workload (caps the 571 total).
    pub spec_max_simpoints_per_workload: usize,
    /// The deployment SLA.
    pub sla: Sla,
    /// Coarse SRCH granularity in intervals (stands in for the paper's
    /// 10M-instruction original interval).
    pub srch_coarse_intervals: usize,
    /// Cross-validation folds (paper: 32).
    pub folds: usize,
    /// Worker threads for parallel sweeps (`psca-exec`). `0` = auto
    /// (`PSCA_JOBS` or `available_parallelism`). Results are bit-identical
    /// regardless of the value — cells carry their own seeds and merge in
    /// cell order.
    pub jobs: usize,
    /// Persistent sweep result cache directory, `None` to disable.
    /// Repeated `repro` invocations skip already-simulated corpus cells.
    pub sweep_cache: Option<std::path::PathBuf>,
}

impl ExperimentConfig {
    /// A minutes-scale configuration for the full reproduction run
    /// (`repro -- all`); release-mode recommended.
    pub fn full() -> ExperimentConfig {
        ExperimentConfig {
            seed: 0x15CA_2019,
            interval_insts: 10_000,
            hdtr_apps: 440,
            hdtr_traces_per_app: 3,
            hdtr_intervals_per_trace: 40,
            hdtr_phase_len: 100_000,
            hdtr_warmup_insts: 10_000,
            spec_intervals_per_simpoint: 160,
            spec_phase_len: 200_000,
            spec_warmup_insts: 10_000,
            spec_max_simpoints_per_workload: 2,
            sla: Sla::paper_default().with_t_sla_insts(640_000),
            srch_coarse_intervals: 16,
            folds: 32,
            jobs: 0,
            sweep_cache: Some(psca_exec::SweepCache::default_dir()),
        }
    }

    /// A seconds-scale configuration for tests and examples.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            seed: 7,
            interval_insts: 2_000,
            hdtr_apps: 24,
            hdtr_traces_per_app: 2,
            hdtr_intervals_per_trace: 16,
            hdtr_phase_len: 12_000,
            hdtr_warmup_insts: 2_000,
            spec_intervals_per_simpoint: 16,
            spec_phase_len: 16_000,
            spec_warmup_insts: 2_000,
            spec_max_simpoints_per_workload: 1,
            sla: Sla::paper_default().with_t_sla_insts(16_000),
            srch_coarse_intervals: 8,
            folds: 8,
            // Tests default to serial + uncached: bit-identity with
            // parallel runs is asserted by dedicated regression tests,
            // and unit tests must not touch a shared on-disk cache.
            jobs: 1,
            sweep_cache: None,
        }
    }

    /// Instructions per HDTR trace (excluding warmup).
    pub fn hdtr_trace_insts(&self) -> u64 {
        self.interval_insts * self.hdtr_intervals_per_trace as u64
    }

    /// Instructions per SPEC SimPoint window (excluding warmup).
    pub fn spec_window_insts(&self) -> u64 {
        self.interval_insts * self.spec_intervals_per_simpoint as u64
    }

    /// The SLA used to compute *training* labels: the contractual SLA
    /// tightened by the training guard band (`LABEL_GUARD_BAND`).
    pub fn training_sla(&self) -> Sla {
        self.sla
            .with_p_sla((self.sla.p_sla + LABEL_GUARD_BAND).min(1.0))
    }

    /// A builder seeded from [`ExperimentConfig::quick`].
    ///
    /// Programs and tests in this workspace use struct-update syntax
    /// (`ExperimentConfig { seed, ..ExperimentConfig::quick() }`); the
    /// builder stays only because the `perfbench` harness configures its
    /// workloads through it.
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig::quick(),
        }
    }

    /// Deterministic sub-seed for a named component.
    pub fn sub_seed(&self, tag: &str) -> u64 {
        let mut h: u64 = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for b in tag.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig::quick()
    }
}

/// Builder returned by [`ExperimentConfig::builder`]: the
/// [`quick`](ExperimentConfig::quick) preset with a seed and a job count.
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Worker threads for parallel sweeps (`0` = auto).
    pub fn jobs(mut self, n: usize) -> Self {
        self.cfg.jobs = n;
        self
    }

    /// Returns the configuration; a preset with a seed and a job count
    /// cannot be invalid.
    pub fn build(self) -> Result<ExperimentConfig, Infallible> {
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for cfg in [ExperimentConfig::quick(), ExperimentConfig::full()] {
            assert!(cfg.interval_insts > 0);
            assert!(cfg.hdtr_apps > 0);
            assert!(cfg.hdtr_trace_insts() >= 4 * cfg.interval_insts);
            assert!(cfg.sla.violation_window(cfg.interval_insts) >= 2);
        }
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        let a = ExperimentConfig::quick();
        let mut b = ExperimentConfig::quick();
        b.seed = 8;
        assert_ne!(a.sub_seed("x"), a.sub_seed("y"));
        assert_ne!(a.sub_seed("x"), b.sub_seed("x"));
        assert_eq!(a.sub_seed("x"), a.sub_seed("x"));
    }

    #[test]
    fn struct_literal_construction_keeps_working() {
        let cfg = ExperimentConfig {
            seed: 99,
            ..ExperimentConfig::quick()
        };
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn full_is_larger_than_quick() {
        let q = ExperimentConfig::quick();
        let f = ExperimentConfig::full();
        assert!(f.hdtr_apps > q.hdtr_apps);
        assert!(f.spec_window_insts() > q.spec_window_insts());
    }
}
