//! Simulation backends: the [`SimBackend`] trait and its two fidelities.
//!
//! Every closed-loop consumer in the workspace (the adaptation controller,
//! sweeps, the serving path, fleet rollouts) drives a CPU model one
//! interval at a time: warm up, run intervals, switch modes between them.
//! [`SimBackend`] captures exactly that contract so callers can choose the
//! fidelity per run:
//!
//! - [`CycleAccurate`] wraps [`ClusterSim`] with zero behavioral change —
//!   the reference fidelity, bit-identical to calling the simulator
//!   directly. Verdict-bearing paths (benchmark gates, paper-table
//!   reproduction) must use it.
//! - [`Surrogate`] is a compositional fast path in the spirit of Concorde:
//!   analytical throughput terms derived from [`CpuConfig`] per mode
//!   (issue-width bound, dependence-serialization bound, miss- and
//!   mispredict-penalty terms) fused with small ridge-regression residuals
//!   calibrated against the reference simulator on a synthetic workload
//!   battery. It samples a few hundred instructions per interval, skips
//!   the rest ([`TraceSource::skip`]), and predicts the interval's cycle
//!   count, telemetry rates, and energy — orders of magnitude faster than
//!   cycle-accurate simulation.
//!
//! Which backend produced a result is a *fidelity tag* that callers are
//! expected to carry through reports and artifacts; [`BackendChoice`]
//! serializes to the strings used everywhere (`cycle_accurate`,
//! `surrogate`).

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

use psca_exec::Digest;
use psca_ml::{Matrix, Ridge};
use psca_telemetry::{CounterBank, Event};
use psca_trace::{
    BranchInfo, Instruction, MemRef, OpClass, Reg, TraceSource, VecTrace, NUM_ARCH_REGS,
};
use psca_workloads::{Archetype, PhaseGenerator};

use crate::config::CpuConfig;
use crate::power::PowerModel;
use crate::sim::{ClusterSim, IntervalResult, Mode, ModeSwitchFault};

/// Which simulation fidelity to run a closed loop on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// The reference cycle-level simulator ([`ClusterSim`]).
    #[default]
    CycleAccurate,
    /// The learned analytical+residual fast path ([`Surrogate`]).
    Surrogate,
}

impl BackendChoice {
    /// Canonical string form, used in CLI flags, JSON artifacts, and
    /// sweep-cache keys.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendChoice::CycleAccurate => "cycle_accurate",
            BackendChoice::Surrogate => "surrogate",
        }
    }

    /// Whether this fidelity is acceptable for verdict-bearing paths
    /// (benchmark gates, paper-table checks). Only the reference is.
    pub fn is_reference(self) -> bool {
        matches!(self, BackendChoice::CycleAccurate)
    }

    /// Constructs a backend of this fidelity for the given machine.
    ///
    /// `interval_insts` is the closed-loop interval length the backend
    /// will be driven at; the surrogate calibrates itself against the
    /// reference simulator at that granularity (cached per machine
    /// configuration, so repeated builds are cheap).
    pub fn build(self, cfg: CpuConfig, interval_insts: u64) -> Box<dyn SimBackend> {
        match self {
            BackendChoice::CycleAccurate => Box::new(CycleAccurate::new(cfg)),
            BackendChoice::Surrogate => Box::new(Surrogate::new(cfg, interval_insts)),
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error for a backend name that names no known fidelity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend(pub String);

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected cycle_accurate or surrogate)",
            self.0
        )
    }
}

impl std::error::Error for UnknownBackend {}

impl FromStr for BackendChoice {
    type Err = UnknownBackend;

    fn from_str(s: &str) -> Result<BackendChoice, UnknownBackend> {
        match s {
            "cycle_accurate" | "cycle-accurate" => Ok(BackendChoice::CycleAccurate),
            "surrogate" => Ok(BackendChoice::Surrogate),
            other => Err(UnknownBackend(other.to_string())),
        }
    }
}

/// Per-interval closed-loop evaluation, at a caller-chosen fidelity.
///
/// The trait is object-safe (`Box<dyn SimBackend>`) so fidelity can be a
/// runtime decision threaded from a CLI flag or an HTTP request field.
/// Semantics mirror [`ClusterSim`]: mode switches take effect between
/// intervals, a high-performance → low-power switch pays the microcoded
/// register-transfer cost in the next interval, and `run_interval` returns
/// `None` exactly when the source is exhausted.
pub trait SimBackend {
    /// The fidelity tag of this backend.
    fn choice(&self) -> BackendChoice;

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
    /// (see [`ClusterSim::record_outcomes`]). Backends without a
    /// functional pass ignore it.
    fn record_outcomes(&mut self) {}
}

/// The reference backend: a thin, bit-identical wrapper over
/// [`ClusterSim`].
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
    fn choice(&self) -> BackendChoice {
        BackendChoice::CycleAccurate
    }

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

// ---------------------------------------------------------------------------
// Feature sampling
// ---------------------------------------------------------------------------

/// Instructions read per sampled chunk.
const SAMPLE_CHUNK: u64 = 96;
/// Chunks sampled per interval (spread across the interval by skipping).
const SAMPLE_CHUNKS: u64 = 8;
/// Dimensionality of the design row fed to every ridge.
const FEAT_DIMS: usize = 24;
/// Bump to invalidate cached calibrations when the model family changes.
const CALIB_VERSION: u64 = 2;

/// Sampled recency windows (direct-mapped tag arrays) standing in for
/// cache, TLB, and instruction-fetch residency. The state deliberately
/// persists across intervals of one stream: hardware warms up over far
/// more instructions than one interval's sample budget, so per-interval
/// windows would read steady-state phases as perpetually cold.
struct RecencyState {
    line_tags: Vec<u64>,
    page_tags: Vec<u64>,
    pc_tags: Vec<u64>,
}

const LINE_TAG_SLOTS: usize = 512;
const PAGE_TAG_SLOTS: usize = 128;
const PC_TAG_SLOTS: usize = 64;

impl RecencyState {
    fn new() -> RecencyState {
        RecencyState {
            line_tags: vec![u64::MAX; LINE_TAG_SLOTS],
            page_tags: vec![u64::MAX; PAGE_TAG_SLOTS],
            pc_tags: vec![u64::MAX; PC_TAG_SLOTS],
        }
    }
}

/// Streaming accumulator for the sampled-instruction features.
struct FeatAcc {
    total: u64,
    ops: [u64; 8], // alu, muldiv, fp, simd, load, store, branch, other
    lat_sum: u64,
    srcs: u64,
    dep1: u64,
    dep4: u64,
    dep16: u64,
    branches: u64,
    taken: u64,
    mem: u64,
    chased: u64,
    line_hits: u64,
    page_hits: u64,
    pc_hits: u64,
    last_write: [u64; NUM_ARCH_REGS],
    load_written: [bool; NUM_ARCH_REGS],
}

impl FeatAcc {
    fn new() -> FeatAcc {
        FeatAcc {
            total: 0,
            ops: [0; 8],
            lat_sum: 0,
            srcs: 0,
            dep1: 0,
            dep4: 0,
            dep16: 0,
            branches: 0,
            taken: 0,
            mem: 0,
            chased: 0,
            line_hits: 0,
            page_hits: 0,
            pc_hits: 0,
            last_write: [u64::MAX; NUM_ARCH_REGS],
            load_written: [false; NUM_ARCH_REGS],
        }
    }

    fn observe(&mut self, inst: &Instruction, recency: &mut RecencyState) {
        let idx = self.total;
        self.total += 1;
        let group = match inst.op {
            OpClass::IntAlu | OpClass::Other => 0,
            OpClass::IntMul | OpClass::IntDiv => 1,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpFma | OpClass::FpDiv => 2,
            OpClass::SimdInt | OpClass::SimdFp => 3,
            OpClass::Load => 4,
            OpClass::Store => 5,
            OpClass::Jump | OpClass::CondBranch | OpClass::IndirectBranch => 6,
        };
        self.ops[group] += 1;
        self.lat_sum += inst.op.latency() as u64;
        let is_load = inst.op == OpClass::Load;
        for src in inst.srcs.iter().flatten() {
            self.srcs += 1;
            let lw = self.last_write[src.index()];
            if lw != u64::MAX {
                let d = idx - lw;
                if d <= 1 {
                    self.dep1 += 1;
                }
                if d <= 4 {
                    self.dep4 += 1;
                }
                if d <= 16 {
                    self.dep16 += 1;
                }
            }
            // A load whose address comes from another load's result is a
            // pointer chase: its miss latency serialises rather than
            // overlapping, which the dep-distance counters can't see.
            if is_load && self.load_written[src.index()] {
                self.chased += 1;
            }
        }
        if let Some(dst) = inst.dst {
            self.last_write[dst.index()] = idx;
            self.load_written[dst.index()] = is_load;
        }
        if let Some(m) = inst.mem {
            self.mem += 1;
            let line = m.addr >> 6;
            let slot = (line as usize) % LINE_TAG_SLOTS;
            if recency.line_tags[slot] == line {
                self.line_hits += 1;
            } else {
                recency.line_tags[slot] = line;
            }
            let page = m.addr >> 12;
            let pslot = (page as usize) % PAGE_TAG_SLOTS;
            if recency.page_tags[pslot] == page {
                self.page_hits += 1;
            } else {
                recency.page_tags[pslot] = page;
            }
        }
        if let Some(b) = inst.branch {
            self.branches += 1;
            self.taken += b.taken as u64;
        }
        let pc_line = inst.pc >> 4;
        let pc_slot = (pc_line as usize) % PC_TAG_SLOTS;
        if recency.pc_tags[pc_slot] == pc_line {
            self.pc_hits += 1;
        } else {
            recency.pc_tags[pc_slot] = pc_line;
        }
    }

    fn features(&self) -> Features {
        let n = self.total.max(1) as f64;
        let frac = |c: u64| c as f64 / n;
        // With no memory ops there is nothing to miss: locality must read
        // as perfect, not zero, or compute-only phases alias with the
        // worst-locality (pointer-chase) corner of the training battery.
        let loc = |hits: u64| {
            if self.mem == 0 {
                1.0
            } else {
                hits as f64 / self.mem as f64
            }
        };
        Features {
            alu: frac(self.ops[0] + self.ops[7]),
            muldiv: frac(self.ops[1]),
            fp: frac(self.ops[2]),
            simd: frac(self.ops[3]),
            load: frac(self.ops[4]),
            store: frac(self.ops[5]),
            branch: frac(self.ops[6]),
            taken: self.taken as f64 / self.branches.max(1) as f64,
            dep1: frac(self.dep1),
            dep4: frac(self.dep4),
            dep16: frac(self.dep16),
            src_density: self.srcs as f64 / (2.0 * n),
            chase: self.chased as f64 / self.ops[4].max(1) as f64,
            line_local: loc(self.line_hits),
            page_local: loc(self.page_hits),
            pc_local: self.pc_hits as f64 / n,
            avg_lat: self.lat_sum as f64 / n,
        }
    }
}

/// The sampled phase signature of one interval.
#[derive(Debug, Clone, Copy)]
struct Features {
    alu: f64,
    muldiv: f64,
    fp: f64,
    simd: f64,
    load: f64,
    store: f64,
    branch: f64,
    taken: f64,
    dep1: f64,
    dep4: f64,
    dep16: f64,
    src_density: f64,
    /// Fraction of loads whose address depends on another load's result.
    chase: f64,
    line_local: f64,
    page_local: f64,
    pc_local: f64,
    avg_lat: f64,
}

impl Features {
    /// The design row for one (interval, mode) pair: raw phase features
    /// plus the analytical throughput terms for `mode` on `cfg`. The
    /// analytical terms carry the config- and mode-dependence; the ridge
    /// learns their coefficients plus a residual over the raw features.
    fn design_row(&self, cfg: &CpuConfig, mode: Mode) -> [f64; FEAT_DIMS] {
        let eff_width = (cfg.cluster_width * mode.active_clusters()).min(cfg.retire_width) as f64;
        let t_issue = 1.0 / eff_width;
        // Serialization from register dependence: a producer at distance
        // `d` stalls roughly `latency / d` cycles per instruction, so the
        // distance buckets contribute with decaying weight.
        let t_dep = (self.dep1
            + (self.dep4 - self.dep1).max(0.0) / 2.5
            + (self.dep16 - self.dep4).max(0.0) / 8.0)
            * self.avg_lat;
        let t_mem = self.load * (1.0 - self.line_local) * cfg.mem_latency as f64
            / cfg.rob_size.max(1) as f64;
        let t_br = self.branch * (1.0 - self.pc_local) * cfg.mispredict_penalty as f64 / 16.0;
        let t_page = self.load * (1.0 - self.page_local) * cfg.tlb_miss_penalty as f64 / 64.0;
        // Chased misses serialise end-to-end, so unlike `t_mem` the ROB
        // does not amortise them: full memory latency per chased miss.
        let t_chase = self.chase * self.load * (1.0 - self.line_local) * cfg.mem_latency as f64;
        // The CPI target is fit in log space, so the additive cost terms
        // enter log-compressed (`ln1p` keeps them ~linear when small) and
        // their sum — the analytical whole-interval CPI estimate — enters
        // as `ln`: a unit weight on it recovers the analytical model, and
        // the ridge only has to learn corrections.
        let t_total = (t_issue + t_dep + t_mem + t_br + t_page + t_chase).max(1e-6);
        [
            self.alu,
            self.muldiv,
            self.fp,
            self.simd,
            self.load,
            self.store,
            self.branch,
            self.taken,
            self.dep1,
            self.dep4,
            self.dep16,
            self.src_density,
            self.chase,
            self.line_local,
            self.page_local,
            self.pc_local,
            self.avg_lat / 4.0,
            t_issue,
            t_dep.ln_1p(),
            t_mem.ln_1p(),
            t_br.ln_1p(),
            t_page.ln_1p(),
            t_chase.ln_1p(),
            t_total.ln(),
        ]
    }
}

/// Reads a few chunks of the interval, skipping between them, and returns
/// the sampled features plus how many instructions were consumed in total.
/// Sampling is identical at calibration and inference time so the feature
/// distribution matches; `recency` carries the tag windows across
/// intervals of the same stream.
fn sample_interval(
    source: &mut dyn TraceSource,
    n: u64,
    recency: &mut RecencyState,
) -> (Features, u64) {
    let mut acc = FeatAcc::new();
    let mut consumed = 0u64;
    if n <= SAMPLE_CHUNKS * SAMPLE_CHUNK {
        while consumed < n {
            match source.next_instruction() {
                Some(inst) => {
                    acc.observe(&inst, recency);
                    consumed += 1;
                }
                None => break,
            }
        }
        return (acc.features(), consumed);
    }
    let stride = n / SAMPLE_CHUNKS;
    for k in 0..SAMPLE_CHUNKS {
        let budget = if k == SAMPLE_CHUNKS - 1 {
            n - stride * (SAMPLE_CHUNKS - 1)
        } else {
            stride
        };
        let want = SAMPLE_CHUNK.min(budget);
        let mut read = 0;
        while read < want {
            match source.next_instruction() {
                Some(inst) => {
                    acc.observe(&inst, recency);
                    read += 1;
                }
                None => break,
            }
        }
        consumed += read;
        if read < want {
            break;
        }
        let to_skip = budget - read;
        let skipped = source.skip(to_skip);
        consumed += skipped;
        if skipped < to_skip {
            break;
        }
    }
    (acc.features(), consumed)
}

// ---------------------------------------------------------------------------
// Calibration workload battery
// ---------------------------------------------------------------------------

/// One synthetic phase used to calibrate the surrogate against the
/// reference simulator. The battery spans the dependence / memory /
/// control behaviors the workspace's workload archetypes exercise.
struct CalibMix {
    // op-class weights (alu, muldiv, fp, simd, load, store, branch)
    weights: [u32; 7],
    /// Percent chance a compute op extends one of the dependence chains
    /// (vs. reading/writing independent scratch registers).
    dep_near_pct: u32,
    /// Independent dependence chains the battery round-robins over. One
    /// chain is a serial recurrence (read-after-write distance 1); `k`
    /// chains give distance ≈ `k`, which is where the workspace's
    /// multi-chain ILP workloads live in dep1/dep4/dep16 space.
    chains: u32,
    /// Data footprint in 4 KiB pages.
    footprint_pages: u64,
    /// Sequential (true) vs. pseudo-random (false) addressing.
    stride: bool,
    /// Percent of loads that pointer-chase: the address depends on the
    /// previous chased load's result, putting the full memory latency in
    /// a serial load→load chain.
    chase_pct: u32,
    /// Percent of conditional branches taken.
    taken_pct: u32,
    /// Static loop body length in instructions (PC wraps).
    loop_len: u64,
}

const CALIB_MIXES: [CalibMix; 14] = [
    // Serial dependence chain: every op reads the previous result.
    CalibMix {
        weights: [86, 4, 0, 0, 6, 2, 2],
        dep_near_pct: 95,
        chains: 1,
        footprint_pages: 4,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 256,
    },
    // Two half-busy chains: the narrowest still-parallel shape.
    CalibMix {
        weights: [82, 4, 0, 0, 8, 4, 2],
        dep_near_pct: 90,
        chains: 2,
        footprint_pages: 16,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 256,
    },
    // Medium ILP: four chains, the common scalar-code shape.
    CalibMix {
        weights: [78, 2, 0, 0, 12, 6, 2],
        dep_near_pct: 85,
        chains: 4,
        footprint_pages: 64,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 512,
    },
    // Wide chained ILP: eight chains saturating one cluster.
    CalibMix {
        weights: [78, 2, 0, 4, 10, 4, 2],
        dep_near_pct: 85,
        chains: 8,
        footprint_pages: 128,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 512,
    },
    // Very wide ILP: sixteen chains, dual-cluster food.
    CalibMix {
        weights: [80, 2, 0, 4, 8, 4, 2],
        dep_near_pct: 80,
        chains: 16,
        footprint_pages: 128,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 512,
    },
    // Fully independent ops: the no-dependence extreme.
    CalibMix {
        weights: [80, 2, 0, 4, 8, 4, 2],
        dep_near_pct: 5,
        chains: 8,
        footprint_pages: 8,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 512,
    },
    // Pointer chase: serialised loads over an LLC-busting footprint.
    CalibMix {
        weights: [40, 2, 0, 0, 40, 8, 10],
        dep_near_pct: 60,
        chains: 2,
        footprint_pages: 32_768,
        stride: false,
        chase_pct: 60,
        taken_pct: 80,
        loop_len: 512,
    },
    // Memory-bound but parallel: random loads feeding many chains.
    CalibMix {
        weights: [44, 2, 0, 0, 36, 8, 10],
        dep_near_pct: 70,
        chains: 8,
        footprint_pages: 16_384,
        stride: false,
        chase_pct: 30,
        taken_pct: 80,
        loop_len: 512,
    },
    // Cache-resident random loads: misses stop at the LLC.
    CalibMix {
        weights: [46, 2, 0, 0, 32, 10, 10],
        dep_near_pct: 70,
        chains: 5,
        footprint_pages: 512,
        stride: false,
        chase_pct: 5,
        taken_pct: 85,
        loop_len: 512,
    },
    // DRAM-bound with a moderate chase fraction: the archetypal
    // working-set-busting kernel between streaming and full chase.
    CalibMix {
        weights: [46, 2, 0, 0, 32, 8, 12],
        dep_near_pct: 75,
        chains: 5,
        footprint_pages: 2_048,
        stride: false,
        chase_pct: 10,
        taken_pct: 85,
        loop_len: 1_024,
    },
    // Streaming: sequential loads/stores, prefetcher-friendly.
    CalibMix {
        weights: [40, 0, 8, 8, 30, 12, 2],
        dep_near_pct: 20,
        chains: 4,
        footprint_pages: 16_384,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 256,
    },
    // Branchy with poorly-predictable directions.
    CalibMix {
        weights: [60, 2, 0, 0, 12, 4, 22],
        dep_near_pct: 40,
        chains: 4,
        footprint_pages: 64,
        stride: false,
        chase_pct: 0,
        taken_pct: 50,
        loop_len: 2_048,
    },
    // FP/FMA kernel with medium-length chains.
    CalibMix {
        weights: [20, 2, 50, 10, 12, 6, 0],
        dep_near_pct: 60,
        chains: 6,
        footprint_pages: 256,
        stride: true,
        chase_pct: 0,
        taken_pct: 95,
        loop_len: 384,
    },
    // Balanced mixed behavior.
    CalibMix {
        weights: [50, 4, 10, 4, 18, 8, 6],
        dep_near_pct: 45,
        chains: 6,
        footprint_pages: 1_024,
        stride: false,
        chase_pct: 10,
        taken_pct: 70,
        loop_len: 1_024,
    },
];

/// Deterministic xorshift64* generator for the calibration battery (kept
/// local so calibration never depends on an external RNG's stream).
struct CalibGen<'a> {
    state: u64,
    mix: &'a CalibMix,
    i: u64,
    next_addr: u64,
    /// Round-robin dependence chains (read-after-write distance ≈ length).
    chains: Vec<Reg>,
    chain_cursor: usize,
    /// Rotating scratch registers that receive load results.
    scratch: [Reg; 4],
    scratch_cursor: usize,
    /// Pointer register for chased loads (`load ptr ← [ptr]`): each chased
    /// load both reads and writes it, serialising the full memory latency.
    ptr_reg: Reg,
}

impl<'a> CalibGen<'a> {
    fn new(mix: &'a CalibMix, seed: u64) -> CalibGen<'a> {
        let n = mix.chains.clamp(1, 24) as usize;
        CalibGen {
            state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            mix,
            i: 0,
            next_addr: 0,
            chains: (0..n).map(|c| Reg::int(4 + c as u8)).collect(),
            chain_cursor: 0,
            scratch: [Reg::int(0), Reg::int(1), Reg::int(2), Reg::int(3)],
            scratch_cursor: 0,
            ptr_reg: Reg::int(28),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn pct(&mut self, p: u32) -> bool {
        (self.next_u64() % 100) < p as u64
    }

    /// The next chain register, round-robin: reading and re-writing it
    /// extends that chain, so the producer distance is the chain count.
    fn chain(&mut self) -> Reg {
        let r = self.chains[self.chain_cursor];
        self.chain_cursor = (self.chain_cursor + 1) % self.chains.len();
        r
    }

    fn scratch_reg(&mut self) -> Reg {
        self.scratch_cursor = (self.scratch_cursor + 1) % self.scratch.len();
        self.scratch[self.scratch_cursor]
    }

    fn rand_reg(&mut self, fp: bool) -> Reg {
        let idx = (self.next_u64() % 28) as u8;
        if fp {
            Reg::fp(idx)
        } else {
            Reg::int(idx)
        }
    }

    fn addr(&mut self) -> u64 {
        let span = self.mix.footprint_pages * 4096;
        if self.mix.stride {
            self.next_addr = (self.next_addr + 64) % span.max(64);
            self.next_addr
        } else {
            self.next_u64() % span.max(64)
        }
    }

    fn generate(&mut self) -> Instruction {
        let pc = (self.i % self.mix.loop_len) * 4;
        self.i += 1;
        let total: u32 = self.mix.weights.iter().sum();
        let mut pick = (self.next_u64() % total as u64) as u32;
        let mut group = 0;
        for (g, w) in self.mix.weights.iter().enumerate() {
            if pick < *w {
                group = g;
                break;
            }
            pick -= w;
        }
        // Compute ops either extend a chain (read + re-write the chain
        // register, with an occasional scratch second operand) or run
        // fully independent; loads land in scratch like real streaming
        // kernels; branches resolve off induction arithmetic (no chain
        // sources) so control is cheap and dependence cost comes from
        // the chains alone — mirroring the workloads this calibrates for.
        let chained = self.pct(self.mix.dep_near_pct);
        let compute = |g: &mut Self, op: OpClass, fp: bool| {
            if chained {
                let r = g.chain();
                let second = if g.pct(50) {
                    Some(g.scratch[g.scratch_cursor])
                } else {
                    None
                };
                Instruction::alu(op, Some(r), [Some(r), second])
            } else {
                let srcs = [Some(g.rand_reg(fp)), Some(g.rand_reg(fp))];
                Instruction::alu(op, Some(g.rand_reg(fp)), srcs)
            }
        };
        let inst = match group {
            0 => compute(self, OpClass::IntAlu, false),
            1 => {
                let op = if self.pct(25) {
                    OpClass::IntDiv
                } else {
                    OpClass::IntMul
                };
                compute(self, op, false)
            }
            2 => {
                let op = match self.next_u64() % 4 {
                    0 => OpClass::FpAdd,
                    1 => OpClass::FpMul,
                    2 => OpClass::FpFma,
                    _ => OpClass::FpDiv,
                };
                compute(self, op, true)
            }
            3 => {
                let op = if self.pct(50) {
                    OpClass::SimdInt
                } else {
                    OpClass::SimdFp
                };
                compute(self, op, true)
            }
            4 => {
                if self.pct(self.mix.chase_pct) {
                    // Pointer chase: address comes from the previous chased
                    // load's result, so these loads serialise end-to-end.
                    // Chase targets are random by nature regardless of the
                    // mix's stride setting.
                    let span = self.mix.footprint_pages * 4096;
                    let addr = self.next_u64() % span.max(64);
                    Instruction::load(self.ptr_reg, Some(self.ptr_reg), MemRef { addr, size: 8 })
                } else {
                    let addr = self.addr();
                    // The address occasionally depends on a chain (index
                    // arithmetic in the dependence path); the result lands
                    // in a scratch register either way.
                    let asrc = if chained { Some(self.chain()) } else { None };
                    let dst = self.scratch_reg();
                    Instruction::load(dst, asrc, MemRef { addr, size: 8 })
                }
            }
            5 => {
                let addr = self.addr();
                let data = Some(self.chains[0]);
                Instruction::store(data, None, MemRef { addr, size: 8 })
            }
            _ => {
                let taken = self.pct(self.mix.taken_pct);
                let target = if taken { pc.saturating_sub(64) } else { pc + 8 };
                Instruction::cond_branch([None, None], BranchInfo { taken, target })
            }
        };
        inst.at_pc(pc)
    }
}

// ---------------------------------------------------------------------------
// The surrogate model
// ---------------------------------------------------------------------------

/// Ridge heads for one execution mode.
struct ModeModel {
    cpi: Ridge,
    energy_resid: Ridge,
    rates: Vec<Ridge>,
}

/// A calibrated surrogate for one machine configuration: per-mode ridge
/// heads over the [`Features::design_row`] basis, predicting CPI, the
/// per-cycle telemetry-rate vector, and an energy residual on top of the
/// structural [`PowerModel`] estimate.
pub struct SurrogateModel {
    hi: ModeModel,
    lo: ModeModel,
    rate_events: Vec<Event>,
}

impl SurrogateModel {
    fn head(&self, mode: Mode) -> &ModeModel {
        match mode {
            Mode::HighPerf => &self.hi,
            Mode::LowPower => &self.lo,
        }
    }
}

/// Calibration interval length: clamped so calibration cost stays bounded
/// for huge closed-loop intervals while the rate/CPI targets (which are
/// length-normalized) remain representative.
fn calib_interval(interval_insts: u64) -> u64 {
    interval_insts.clamp(512, 10_000)
}

const CALIB_WARM: u64 = 100_000;
const CALIB_INTERVALS: u64 = 12;
const RIDGE_LAMBDA: f64 = 0.02;

/// Content key for the calibration cache: every config field that affects
/// simulator behavior, plus the calibration granularity and version.
fn model_key(cfg: &CpuConfig, cal_n: u64) -> u64 {
    let mut h = Digest::new();
    for v in [
        cfg.cluster_width as u64,
        cfg.num_clusters as u64,
        cfg.rob_size as u64,
        cfg.store_queue_size as u64,
        cfg.inter_cluster_penalty,
        cfg.mispredict_penalty,
        cfg.l1i_bytes as u64,
        cfg.l1i_ways as u64,
        cfg.uop_cache_bytes as u64,
        cfg.uop_cache_ways as u64,
        cfg.l1d_bytes as u64,
        cfg.l1d_ways as u64,
        cfg.l2_bytes as u64,
        cfg.l2_ways as u64,
        cfg.llc_bytes as u64,
        cfg.llc_ways as u64,
        cfg.itlb_entries as u64,
        cfg.dtlb_entries as u64,
        cfg.l1d_latency,
        cfg.l2_latency,
        cfg.llc_latency,
        cfg.mem_latency,
        cfg.tlb_miss_penalty,
        cfg.decode_bubble,
        cfg.gshare_bits as u64,
        cfg.btb_bits as u64,
        cfg.retire_width as u64,
        cfg.transfer_uop_max as u64,
        cfg.steer_policy as u64,
        cfg.stream_prefetcher as u64,
        cal_n,
        CALIB_VERSION,
    ] {
        h.write_u64(v);
    }
    h.finish()
}

fn model_cache() -> &'static Mutex<HashMap<u64, Arc<SurrogateModel>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<SurrogateModel>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Events predicted as per-cycle rates. `Cycles` and `InstRetired` are set
/// structurally from the CPI prediction; `ModeSwitches`/`TransferUops` are
/// accounted from actual mode-switch activity, mirroring the simulator.
fn rate_events() -> Vec<Event> {
    Event::ALL
        .iter()
        .copied()
        .filter(|e| {
            !matches!(
                e,
                Event::Cycles | Event::InstRetired | Event::ModeSwitches | Event::TransferUops
            )
        })
        .collect()
}

/// The instruction streams the surrogate calibrates against: the
/// synthetic corner-coverage mixes plus one phase per workload archetype
/// (in-distribution coverage of the traffic every closed-loop consumer
/// actually runs — the post-silicon analogue of calibrating against
/// representative workloads).
fn calib_segments(cal_n: u64) -> Vec<Vec<Instruction>> {
    let total = CALIB_WARM + CALIB_INTERVALS * cal_n;
    let mut segments = Vec::with_capacity(CALIB_MIXES.len() + Archetype::ALL.len());
    for (mi, mix) in CALIB_MIXES.iter().enumerate() {
        let mut gen = CalibGen::new(mix, mi as u64 + 1);
        segments.push((0..total).map(|_| gen.generate()).collect());
    }
    for (ai, arche) in Archetype::ALL.iter().enumerate() {
        let mut gen = PhaseGenerator::new(arche.center(), 0xCA11B + ai as u64);
        segments.push(
            (0..total)
                .map(|_| {
                    gen.next_instruction()
                        .expect("phase generators are unbounded")
                })
                .collect(),
        );
    }
    segments
}

/// Calibrates a surrogate for `cfg` by running the reference simulator
/// over the calibration battery in both modes and fitting the ridge heads.
fn calibrate(cfg: &CpuConfig, cal_n: u64) -> SurrogateModel {
    let power = PowerModel::default();
    let rate_events = rate_events();
    let segments = calib_segments(cal_n);
    let fit_mode = |mode: Mode| -> ModeModel {
        let mut rows: Vec<[f64; FEAT_DIMS]> = Vec::new();
        let mut y_cpi: Vec<f64> = Vec::new();
        let mut y_energy: Vec<f64> = Vec::new();
        let mut y_rates: Vec<Vec<f64>> = vec![Vec::new(); rate_events.len()];
        for insts in &segments {
            let mut sim = ClusterSim::new(cfg.clone());
            sim.set_mode(mode);
            let mut replay = VecTrace::new(insts.to_vec());
            sim.warm_up(&mut replay, CALIB_WARM);
            // The recency windows warm over the same prefix the simulator
            // warms over, then persist across the segment's intervals —
            // the exact protocol `Surrogate` runs at inference time.
            let mut recency = RecencyState::new();
            let mut warm = VecTrace::new(insts[..CALIB_WARM as usize].to_vec());
            sample_interval(&mut warm, CALIB_WARM, &mut recency);
            for k in 0..CALIB_INTERVALS {
                let start = (CALIB_WARM + k * cal_n) as usize;
                let end = start + cal_n as usize;
                let mut probe = VecTrace::new(insts[start..end].to_vec());
                let (f, _) = sample_interval(&mut probe, cal_n, &mut recency);
                let Some(r) = sim.run_interval(&mut replay, cal_n) else {
                    break;
                };
                let row = f.design_row(cfg, mode);
                // The CPI head fits the log-ratio of measured CPI to the
                // analytical estimate (the design row's last entry is
                // `ln t_total`). Prediction is analytic-first — the ridge
                // only corrects the analytical model's bias — so it stays
                // sane even in feature corners the battery never visits,
                // and the log target keeps errors relative, not absolute.
                let cpi = r.snapshot.cycles as f64 / r.instructions.max(1) as f64;
                y_cpi.push(cpi.max(1e-3).ln() - row[FEAT_DIMS - 1]);
                rows.push(row);
                for (ei, e) in rate_events.iter().enumerate() {
                    y_rates[ei].push(r.snapshot.get(*e));
                }
                let active = mode.active_clusters() as u64 * r.snapshot.cycles;
                let gated = (cfg.num_clusters - mode.active_clusters()) as u64 * r.snapshot.cycles;
                let structural = power.interval_energy(&r.snapshot, active, gated);
                y_energy.push((r.energy - structural) / r.snapshot.cycles as f64);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        ModeModel {
            cpi: Ridge::fit(&x, &y_cpi, RIDGE_LAMBDA),
            energy_resid: Ridge::fit(&x, &y_energy, RIDGE_LAMBDA),
            rates: y_rates
                .iter()
                .map(|y| Ridge::fit(&x, y, RIDGE_LAMBDA))
                .collect(),
        }
    };
    SurrogateModel {
        hi: fit_mode(Mode::HighPerf),
        lo: fit_mode(Mode::LowPower),
        rate_events,
    }
}

/// Returns the calibrated surrogate model for `cfg`, fitting it on first
/// use and caching it process-wide. Calibration is deterministic, so a
/// racing double-fit produces identical models.
pub fn surrogate_model(cfg: &CpuConfig, interval_insts: u64) -> Arc<SurrogateModel> {
    let cal_n = calib_interval(interval_insts);
    let key = model_key(cfg, cal_n);
    if let Some(m) = model_cache().lock().unwrap().get(&key) {
        return Arc::clone(m);
    }
    let fitted = Arc::new(calibrate(cfg, cal_n));
    let mut cache = model_cache().lock().unwrap();
    Arc::clone(cache.entry(key).or_insert(fitted))
}

/// The learned fast-path backend.
///
/// Per interval it samples `4 × 96` instructions (skipping the rest),
/// extracts a phase signature, and predicts the interval's cycle count,
/// telemetry-rate vector, and energy from the calibrated ridge heads.
/// Mode-switch semantics mirror [`ClusterSim`]: switching to low-power
/// charges [`CpuConfig::transfer_uop_max`] transfer µops (the worst case
/// the paper's microcode flow allows) into the next interval.
pub struct Surrogate {
    cfg: CpuConfig,
    power: PowerModel,
    model: Arc<SurrogateModel>,
    mode: Mode,
    delayed_mode: Option<Mode>,
    pending_switches: u64,
    pending_transfer: u64,
    recency: RecencyState,
}

impl Surrogate {
    /// Builds (calibrating on first use per configuration) a surrogate
    /// backend for `cfg` at the given closed-loop interval length.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(cfg: CpuConfig, interval_insts: u64) -> Surrogate {
        cfg.validate();
        let model = surrogate_model(&cfg, interval_insts);
        Surrogate {
            cfg,
            power: PowerModel::default(),
            model,
            mode: Mode::HighPerf,
            delayed_mode: None,
            pending_switches: 0,
            pending_transfer: 0,
            recency: RecencyState::new(),
        }
    }
}

impl SimBackend for Surrogate {
    fn choice(&self) -> BackendChoice {
        BackendChoice::Surrogate
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    fn set_mode(&mut self, mode: Mode) {
        if mode == self.mode {
            return;
        }
        self.pending_switches += 1;
        if mode == Mode::LowPower {
            self.pending_transfer += self.cfg.transfer_uop_max as u64;
        }
        self.mode = mode;
    }

    fn request_mode(&mut self, mode: Mode, fault: ModeSwitchFault) -> bool {
        match fault {
            ModeSwitchFault::None => {
                self.set_mode(mode);
                true
            }
            ModeSwitchFault::Lost => false,
            ModeSwitchFault::DelayedOneWindow => {
                if mode != self.mode {
                    self.delayed_mode = Some(mode);
                }
                false
            }
        }
    }

    fn apply_delayed_mode(&mut self) -> Option<Mode> {
        let mode = self.delayed_mode.take()?;
        self.set_mode(mode);
        Some(mode)
    }

    fn warm_up(&mut self, source: &mut dyn TraceSource, n: u64) {
        // Warm the recency windows the same way calibration does:
        // sampled chunks spread over the warm-up span; the rest is
        // skipped.
        sample_interval(source, n, &mut self.recency);
    }

    fn run_interval(&mut self, source: &mut dyn TraceSource, n: u64) -> Option<IntervalResult> {
        let (feats, consumed) = sample_interval(source, n, &mut self.recency);
        if consumed == 0 {
            return None;
        }
        let head = self.model.head(self.mode);
        let x = feats.design_row(&self.cfg, self.mode);

        // Cycle count: analytical CPI (`ln t_total`, the design row's last
        // entry) times the learned log-residual, clamped to the
        // issue-width lower bound.
        let eff_width =
            (self.cfg.cluster_width * self.mode.active_clusters()).min(self.cfg.retire_width);
        let cpi = (head.cpi.predict(&x) + x[FEAT_DIMS - 1])
            .exp()
            .clamp(1.0 / eff_width as f64, 512.0);
        let mut cycles = ((cpi * consumed as f64).round() as u64)
            .max(consumed.div_ceil(eff_width as u64))
            .max(1);
        // Transfer µops from a pending hi→lo switch occupy issue slots.
        if self.pending_transfer > 0 {
            cycles += self
                .pending_transfer
                .div_ceil(self.cfg.cluster_width as u64);
        }

        // Synthesize the telemetry snapshot from predicted per-cycle rates.
        let mut bank = CounterBank::new();
        bank.add(Event::Cycles, cycles);
        bank.add(Event::InstRetired, consumed);
        let cyc_f = cycles as f64;
        for (e, r) in self.model.rate_events.iter().zip(&head.rates) {
            let count = (r.predict(&x).max(0.0) * cyc_f).round() as u64;
            if count > 0 {
                bank.add(*e, count);
            }
        }
        if self.pending_switches > 0 {
            bank.add(Event::ModeSwitches, self.pending_switches);
            self.pending_switches = 0;
        }
        if self.pending_transfer > 0 {
            bank.add(Event::TransferUops, self.pending_transfer);
            bank.add(Event::UopsIssued, self.pending_transfer);
            bank.add(Event::Cluster1UopsIssued, self.pending_transfer);
            self.pending_transfer = 0;
        }
        let snapshot = bank.snapshot_and_reset();

        // Energy: structural power-model estimate plus the learned residual.
        let active = self.mode.active_clusters() as u64 * cycles;
        let gated = (self.cfg.num_clusters - self.mode.active_clusters()) as u64 * cycles;
        let structural = self.power.interval_energy(&snapshot, active, gated);
        let mut energy = structural + head.energy_resid.predict(&x) * cyc_f;
        if !energy.is_finite() || energy <= 0.0 {
            energy = structural;
        }

        Some(IntervalResult {
            snapshot,
            energy,
            mode: self.mode,
            instructions: consumed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_trace(n: u64) -> VecTrace {
        let mut gen = CalibGen::new(&CALIB_MIXES[6], 42);
        VecTrace::new((0..n).map(|_| gen.generate()).collect())
    }

    #[test]
    fn backend_choice_round_trips_strings() {
        assert_eq!(
            "cycle_accurate".parse::<BackendChoice>().unwrap(),
            BackendChoice::CycleAccurate
        );
        assert_eq!(
            "cycle-accurate".parse::<BackendChoice>().unwrap(),
            BackendChoice::CycleAccurate
        );
        assert_eq!(
            "surrogate".parse::<BackendChoice>().unwrap(),
            BackendChoice::Surrogate
        );
        let err = "fast".parse::<BackendChoice>().unwrap_err();
        assert!(err.to_string().contains("fast"));
        assert_eq!(BackendChoice::Surrogate.to_string(), "surrogate");
        assert_eq!(BackendChoice::default(), BackendChoice::CycleAccurate);
        assert!(BackendChoice::CycleAccurate.is_reference());
        assert!(!BackendChoice::Surrogate.is_reference());
    }

    #[test]
    fn cycle_accurate_backend_matches_direct_sim() {
        let cfg = CpuConfig::skylake_scaled();
        let mut direct = ClusterSim::new(cfg.clone());
        let mut wrapped: Box<dyn SimBackend> = BackendChoice::CycleAccurate.build(cfg, 500);
        let mut t1 = short_trace(3_000);
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

    #[test]
    fn surrogate_runs_and_is_deterministic() {
        let cfg = CpuConfig::skylake_scaled();
        let run = || {
            let mut s = Surrogate::new(cfg.clone(), 1_000);
            let mut t = short_trace(8_000);
            s.warm_up(&mut t, 1_000);
            let mut out = Vec::new();
            while let Some(r) = SimBackend::run_interval(&mut s, &mut t, 1_000) {
                out.push((r.snapshot.cycles, r.instructions, r.energy.to_bits()));
            }
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 7, "8k insts after 1k warmup in 1k intervals");
        for (cycles, insts, _) in &a {
            assert!(*cycles > 0 && *insts > 0);
        }
    }

    #[test]
    fn surrogate_mode_switch_mirrors_sim_semantics() {
        let cfg = CpuConfig::skylake_scaled();
        let mut s = Surrogate::new(cfg.clone(), 1_000);
        assert_eq!(s.mode(), Mode::HighPerf);
        // Lost request: no change.
        assert!(!s.request_mode(Mode::LowPower, ModeSwitchFault::Lost));
        assert_eq!(s.mode(), Mode::HighPerf);
        // Delayed: buffered, applied on drain.
        assert!(!s.request_mode(Mode::LowPower, ModeSwitchFault::DelayedOneWindow));
        assert_eq!(s.mode(), Mode::HighPerf);
        assert_eq!(s.apply_delayed_mode(), Some(Mode::LowPower));
        assert_eq!(s.mode(), Mode::LowPower);
        assert!(s.apply_delayed_mode().is_none());
        // The hi→lo switch charged transfer µops into the next interval.
        let mut t = short_trace(1_000);
        let r = SimBackend::run_interval(&mut s, &mut t, 1_000).unwrap();
        let transfers = r.snapshot.get(Event::TransferUops) * r.snapshot.cycles as f64;
        assert!(
            (transfers - cfg.transfer_uop_max as f64).abs() < 0.5,
            "transfers = {transfers}"
        );
        assert!(r.snapshot.get(Event::ModeSwitches) > 0.0);
    }

    #[test]
    fn surrogate_low_power_is_slower_and_cheaper() {
        let cfg = CpuConfig::skylake_scaled();
        // The fully-independent wide-ILP mix: the shape that benefits
        // most from the second cluster.
        let mut gen = CalibGen::new(&CALIB_MIXES[5], 7);
        let insts: Vec<Instruction> = (0..12_000).map(|_| gen.generate()).collect();
        let run = |mode: Mode| {
            let mut s = Surrogate::new(cfg.clone(), 1_000);
            SimBackend::set_mode(&mut s, mode);
            s.pending_switches = 0;
            s.pending_transfer = 0;
            let mut t = VecTrace::new(insts.clone());
            s.warm_up(&mut t, 1_000);
            let mut cycles = 0u64;
            let mut energy = 0.0;
            while let Some(r) = SimBackend::run_interval(&mut s, &mut t, 1_000) {
                cycles += r.snapshot.cycles;
                energy += r.energy;
            }
            (cycles, energy)
        };
        let (hi_cycles, hi_energy) = run(Mode::HighPerf);
        let (lo_cycles, lo_energy) = run(Mode::LowPower);
        assert!(
            lo_cycles > hi_cycles,
            "ILP code should slow down on one cluster: {lo_cycles} vs {hi_cycles}"
        );
        assert!(
            lo_energy < hi_energy,
            "gating should save energy: {lo_energy} vs {hi_energy}"
        );
    }

    #[test]
    fn surrogate_model_cache_hits_for_same_config() {
        let cfg = CpuConfig::skylake_scaled();
        let a = surrogate_model(&cfg, 2_000);
        let b = surrogate_model(&cfg, 2_000);
        assert!(Arc::ptr_eq(&a, &b), "second build must reuse the cache");
        // Interval lengths above the calibration clamp share one model.
        let c = surrogate_model(&cfg, 50_000);
        let d = surrogate_model(&cfg, 99_000);
        assert!(Arc::ptr_eq(&c, &d));
        // A different machine gets a different calibration.
        let mut skewed = cfg.clone();
        skewed.mem_latency += 40;
        let e = surrogate_model(&skewed, 2_000);
        assert!(!Arc::ptr_eq(&a, &e));
    }

    #[test]
    fn sample_interval_consumes_full_budget() {
        let mut recency = RecencyState::new();
        let mut t = short_trace(10_000);
        let (_, consumed) = sample_interval(&mut t, 4_000, &mut recency);
        assert_eq!(consumed, 4_000);
        assert_eq!(t.remaining_hint(), Some(6_000));
        // Short trace: consumes what's left.
        let mut t = short_trace(300);
        let (_, consumed) = sample_interval(&mut t, 4_000, &mut recency);
        assert_eq!(consumed, 300);
        // Small interval: reads everything.
        let mut t = short_trace(10_000);
        let (_, consumed) = sample_interval(&mut t, 100, &mut recency);
        assert_eq!(consumed, 100);
    }

    #[test]
    fn surrogate_cpi_tracks_reference_on_calibration_battery() {
        // Sanity check on the fused model itself: per-mix CPI error vs.
        // the reference sim on held-out intervals of the same mixes.
        let cfg = CpuConfig::skylake_scaled();
        let n = 1_000u64;
        let model = surrogate_model(&cfg, n);
        for (mi, mix) in CALIB_MIXES.iter().enumerate() {
            let mut gen = CalibGen::new(mix, 1_000 + mi as u64);
            let insts: Vec<Instruction> = (0..CALIB_WARM + 8 * n).map(|_| gen.generate()).collect();
            let mut sim = ClusterSim::new(cfg.clone());
            let mut replay = VecTrace::new(insts.clone());
            sim.warm_up(&mut replay, CALIB_WARM);
            let mut recency = RecencyState::new();
            let mut warm = VecTrace::new(insts[..CALIB_WARM as usize].to_vec());
            sample_interval(&mut warm, CALIB_WARM, &mut recency);
            let mut ref_cycles = 0u64;
            let mut pred_cycles = 0.0f64;
            for k in 0..8 {
                let start = (CALIB_WARM + k * n) as usize;
                let mut probe = VecTrace::new(insts[start..start + n as usize].to_vec());
                let (f, _) = sample_interval(&mut probe, n, &mut recency);
                let Some(r) = sim.run_interval(&mut replay, n) else {
                    break;
                };
                ref_cycles += r.snapshot.cycles;
                let x = f.design_row(&cfg, Mode::HighPerf);
                pred_cycles += (model.head(Mode::HighPerf).cpi.predict(&x) + x[FEAT_DIMS - 1])
                    .exp()
                    .max(0.125)
                    * n as f64;
            }
            let ratio = pred_cycles / ref_cycles as f64;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "mix {mi}: predicted/reference cycle ratio {ratio}"
            );
        }
    }
}
