//! Experiment-grid configuration.
//!
//! The paper's datasets total tens of billions of simulated instructions;
//! this reproduction scales trace lengths and the SLA window down so the
//! full grid runs on a laptop while preserving every structural ratio
//! (the t→t+2 horizon, ops budgets per interval, window formula, corpus
//! category proportions). `EXPERIMENTS.md` records the scaling.

use crate::sla::Sla;
use std::fmt;

/// A validation failure from [`ExperimentConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `interval_insts == 0`: the telemetry interval must make progress.
    ZeroInterval,
    /// `folds < 2`: cross-validation needs at least a train and a
    /// validate side.
    TooFewFolds(usize),
    /// A corpus dimension is zero, so the corpus would be empty (names
    /// the offending knob).
    EmptyCorpusDimension(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroInterval => write!(f, "interval_insts must be nonzero"),
            ConfigError::TooFewFolds(n) => {
                write!(f, "cross-validation needs at least 2 folds, got {n}")
            }
            ConfigError::EmptyCorpusDimension(what) => {
                write!(f, "corpus dimension `{what}` must be nonzero")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

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

    /// A validating builder seeded from [`ExperimentConfig::quick`].
    ///
    /// Struct-literal construction (and `..ExperimentConfig::quick()`
    /// update syntax) keeps working; the builder is for call sites that
    /// take knobs from external input — CLI flags, serving requests — and
    /// need typed [`ConfigError`]s instead of downstream panics.
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

/// Builder returned by [`ExperimentConfig::builder`].
///
/// Starts from the [`quick`](ExperimentConfig::quick) preset; every
/// setter overrides one knob and [`build`](ExperimentConfigBuilder::build)
/// validates the combination.
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

    /// Telemetry interval in instructions.
    pub fn interval_insts(mut self, n: u64) -> Self {
        self.cfg.interval_insts = n;
        self
    }

    /// Number of HDTR applications to synthesize.
    pub fn hdtr_apps(mut self, n: usize) -> Self {
        self.cfg.hdtr_apps = n;
        self
    }

    /// Traces used per HDTR application.
    pub fn hdtr_traces_per_app(mut self, n: usize) -> Self {
        self.cfg.hdtr_traces_per_app = n;
        self
    }

    /// Measured intervals per HDTR trace.
    pub fn hdtr_intervals_per_trace(mut self, n: usize) -> Self {
        self.cfg.hdtr_intervals_per_trace = n;
        self
    }

    /// Measured intervals per SPEC SimPoint.
    pub fn spec_intervals_per_simpoint(mut self, n: usize) -> Self {
        self.cfg.spec_intervals_per_simpoint = n;
        self
    }

    /// Cross-validation folds.
    pub fn folds(mut self, n: usize) -> Self {
        self.cfg.folds = n;
        self
    }

    /// Worker threads for parallel sweeps (`0` = auto).
    pub fn jobs(mut self, n: usize) -> Self {
        self.cfg.jobs = n;
        self
    }

    /// The deployment SLA.
    pub fn sla(mut self, sla: Sla) -> Self {
        self.cfg.sla = sla;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`ConfigError::ZeroInterval`] when `interval_insts == 0`,
    /// [`ConfigError::TooFewFolds`] when `folds < 2`,
    /// and [`ConfigError::EmptyCorpusDimension`] when any corpus dimension
    /// would produce zero telemetry.
    pub fn build(self) -> Result<ExperimentConfig, ConfigError> {
        let c = &self.cfg;
        if c.interval_insts == 0 {
            return Err(ConfigError::ZeroInterval);
        }
        if c.folds < 2 {
            return Err(ConfigError::TooFewFolds(c.folds));
        }
        for (knob, value) in [
            ("hdtr_apps", c.hdtr_apps),
            ("hdtr_traces_per_app", c.hdtr_traces_per_app),
            ("hdtr_intervals_per_trace", c.hdtr_intervals_per_trace),
            ("spec_intervals_per_simpoint", c.spec_intervals_per_simpoint),
            (
                "spec_max_simpoints_per_workload",
                c.spec_max_simpoints_per_workload,
            ),
        ] {
            if value == 0 {
                return Err(ConfigError::EmptyCorpusDimension(knob));
            }
        }
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
    fn builder_accepts_valid_overrides() {
        let cfg = ExperimentConfig::builder()
            .seed(42)
            .interval_insts(4_000)
            .folds(4)
            .jobs(2)
            .build()
            .unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.interval_insts, 4_000);
        assert_eq!(cfg.folds, 4);
        // Untouched knobs keep the quick() base.
        assert_eq!(cfg.hdtr_apps, ExperimentConfig::quick().hdtr_apps);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            ExperimentConfig::builder().interval_insts(0).build(),
            Err(ConfigError::ZeroInterval)
        );
        assert_eq!(
            ExperimentConfig::builder().folds(1).build(),
            Err(ConfigError::TooFewFolds(1))
        );
        assert_eq!(
            ExperimentConfig::builder().hdtr_apps(0).build(),
            Err(ConfigError::EmptyCorpusDimension("hdtr_apps"))
        );
        assert_eq!(
            ExperimentConfig::builder()
                .spec_intervals_per_simpoint(0)
                .build(),
            Err(ConfigError::EmptyCorpusDimension(
                "spec_intervals_per_simpoint"
            ))
        );
        // Errors render a human-readable message.
        let msg = ConfigError::TooFewFolds(1).to_string();
        assert!(msg.contains("folds"), "{msg}");
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
