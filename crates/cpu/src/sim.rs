//! The clustered out-of-order core simulator.
//!
//! [`ClusterSim`] is a trace-driven, cycle-level, dataflow-limited model:
//! each instruction is scheduled onto a finite reorder-buffer window with
//! per-cluster issue-width accounting, register dataflow (including an
//! inter-cluster forwarding penalty), structural cache/TLB/predictor
//! models, and in-order retirement. The model is O(1) per instruction, so
//! the paper's full experiment grid runs in minutes, while width
//! sensitivity — the property every experiment depends on — emerges from
//! each workload's dependence structure rather than from a statistical
//! shortcut.

use crate::bpred::{Btb, GsharePredictor};
use crate::cache::Cache;
use crate::config::CpuConfig;
use crate::power::PowerModel;
use crate::tlb::Tlb;
use psca_telemetry::{CounterBank, Event, IntervalSnapshot};
use psca_trace::{Instruction, OpClass, TraceSource, NUM_ARCH_REGS};
use std::sync::Arc;

/// Observability handles resolved once at simulator construction so the
/// per-interval close never takes the registry lock (ISSUE 4: the old
/// code re-looked-up `series("cpu.sim.ipc")` every window). When
/// `PSCA_OBS=0`/`off` the whole struct is `None` on the simulator and
/// every sim-level metric call collapses to a single pointer test.
#[derive(Debug, Clone)]
struct SimObs {
    instructions: Arc<psca_obs::Counter>,
    cycles: Arc<psca_obs::Counter>,
    intervals: Arc<psca_obs::Counter>,
    cycles_low_power: Arc<psca_obs::Counter>,
    mode_switches: Arc<psca_obs::Counter>,
    transfer_uops: Arc<psca_obs::Counter>,
    switch_lost: Arc<psca_obs::Counter>,
    switch_delayed: Arc<psca_obs::Counter>,
    ipc: psca_obs::SeriesHandle,
    low_power: psca_obs::SeriesHandle,
}

impl SimObs {
    fn resolve() -> Option<SimObs> {
        if !sim_obs_enabled() {
            return None;
        }
        Some(SimObs {
            instructions: psca_obs::counter("cpu.sim.instructions"),
            cycles: psca_obs::counter("cpu.sim.cycles"),
            intervals: psca_obs::counter("cpu.sim.intervals"),
            cycles_low_power: psca_obs::counter("cpu.sim.cycles_low_power"),
            mode_switches: psca_obs::counter("cpu.mode_switches"),
            transfer_uops: psca_obs::counter("cpu.transfer_uops"),
            switch_lost: psca_obs::counter("cpu.mode_switch.lost"),
            switch_delayed: psca_obs::counter("cpu.mode_switch.delayed"),
            ipc: psca_obs::series("cpu.sim.ipc"),
            low_power: psca_obs::series("cpu.sim.low_power"),
        })
    }
}

/// Whether sim-level observability is on (default) or disabled via
/// `PSCA_OBS=0`/`off`. Read once per process: simulators are constructed
/// in inner experiment loops and `std::env::var` is not cheap.
fn sim_obs_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("PSCA_OBS").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// Cluster configuration of the core (§3, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Both clusters active: 8-wide issue.
    HighPerf,
    /// Cluster 2 clock-gated: 4-wide issue, ~35% less power.
    LowPower,
}

impl Mode {
    /// Number of active clusters in this mode (for the 2-cluster design).
    pub fn active_clusters(self) -> u32 {
        match self {
            Mode::HighPerf => 2,
            Mode::LowPower => 1,
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::HighPerf => f.write_str("high-performance"),
            Mode::LowPower => f.write_str("low-power"),
        }
    }
}

/// A fault applied to one mode-switch request at the actuation port
/// (the controller → cluster-gating interface). Injected by the chaos
/// harness; `None` is the healthy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModeSwitchFault {
    /// The request is applied normally.
    #[default]
    None,
    /// The request is dropped; the configuration does not change.
    Lost,
    /// The request is buffered and applied at the next
    /// [`ClusterSim::apply_delayed_mode`] call (one window late).
    DelayedOneWindow,
}

/// Result of simulating one telemetry interval.
#[derive(Debug, Clone)]
pub struct IntervalResult {
    /// Normalized telemetry for the interval.
    pub snapshot: IntervalSnapshot,
    /// Energy consumed (arbitrary units; ratios form PPW).
    pub energy: f64,
    /// Mode the interval *ended* in.
    pub mode: Mode,
    /// Instructions actually simulated (may be short at end of trace).
    pub instructions: u64,
}

impl IntervalResult {
    /// Instructions per cycle over the interval.
    pub fn ipc(&self) -> f64 {
        self.snapshot.ipc()
    }

    /// Performance per energy: instructions per energy unit; 0.0 when the
    /// interval recorded no (or non-finite) energy.
    pub fn ppw(&self) -> f64 {
        if !self.energy.is_finite() || self.energy <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / self.energy
    }
}

/// Cycle-granular issue-slot accounting with lazy invalidation.
#[derive(Debug, Clone)]
struct SlotRing {
    cycles: Vec<u64>,
    counts: Vec<u32>,
}

const SLOT_RING_LEN: usize = 1 << 16;

impl SlotRing {
    fn new() -> SlotRing {
        SlotRing {
            cycles: vec![u64::MAX; SLOT_RING_LEN],
            counts: vec![0; SLOT_RING_LEN],
        }
    }

    /// Earliest cycle ≥ `start` with a free slot, claiming it.
    fn claim(&mut self, start: u64, width: u32) -> u64 {
        let mut c = start;
        loop {
            let idx = (c as usize) & (SLOT_RING_LEN - 1);
            if self.cycles[idx] != c {
                self.cycles[idx] = c;
                self.counts[idx] = 1;
                return c;
            }
            if self.counts[idx] < width {
                self.counts[idx] += 1;
                return c;
            }
            c += 1;
            debug_assert!(c - start < SLOT_RING_LEN as u64, "slot search ran away");
        }
    }
}

/// Counts entries of a monotone completion ring that are still pending at
/// time `t`. The ring holds entries `k - len .. k` at `i % len`.
fn count_pending(ring: &[u64], k: u64, t: u64) -> u64 {
    let len = ring.len() as u64;
    let lo = k.saturating_sub(len);
    // Values are monotone in logical index; binary search the first
    // logical index whose value > t.
    let (mut a, mut b) = (lo, k);
    while a < b {
        let mid = (a + b) / 2;
        if ring[(mid % len) as usize] > t {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    k - a
}

/// The two-cluster out-of-order core.
///
/// # Examples
///
/// ```
/// use psca_cpu::{ClusterSim, CpuConfig, Mode};
/// use psca_workloads::{Archetype, PhaseGenerator};
///
/// let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
/// let mut trace = PhaseGenerator::new(Archetype::Balanced.center(), 1);
/// let result = sim.run_interval(&mut trace, 10_000).unwrap();
/// assert!(result.ipc() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSim {
    cfg: CpuConfig,
    power: PowerModel,
    mode: Mode,
    // structural components
    l1i: Cache,
    uopc: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    bpred: GsharePredictor,
    btb: Btb,
    // dataflow state
    reg_ready: [u64; NUM_ARCH_REGS],
    reg_cluster: [u8; NUM_ARCH_REGS],
    rob_retire: Vec<u64>,
    inst_index: u64,
    // timing state
    fetch_ring: SlotRing,
    issue_rings: Vec<SlotRing>,
    retire_ring: SlotRing,
    min_fetch_time: u64,
    last_retire: u64,
    last_pc_line: u64,
    last_pc_page: u64,
    last_dline: u64,
    steer_cursor: usize,
    cluster_pressure: Vec<u64>,
    // store queue (in-order drain => monotone completions)
    sq_drain: Vec<u64>,
    sq_index: u64,
    last_sq_drain: u64,
    // load queue (retire times of loads, monotone)
    lq_retire: Vec<u64>,
    lq_index: u64,
    // telemetry
    bank: CounterBank,
    interval_start: u64,
    uops_issued_in_interval: u64,
    // cluster-cycle accounting for the power model
    seg_start: u64,
    active_cc: u64,
    gated_cc: u64,
    last_schedule: [u64; 6],
    // mode-switch request delayed by an actuation fault
    delayed_mode: Option<Mode>,
    // pre-resolved observability handles (None when PSCA_OBS=0)
    obs: Option<SimObs>,
}

impl ClusterSim {
    /// Creates a simulator in high-performance mode.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`CpuConfig::validate`]).
    pub fn new(cfg: CpuConfig) -> ClusterSim {
        ClusterSim::with_power_model(cfg, PowerModel::skylake_scaled())
    }

    /// Creates a simulator with an explicit power model.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn with_power_model(cfg: CpuConfig, power: PowerModel) -> ClusterSim {
        cfg.validate();
        let issue_rings = (0..cfg.num_clusters).map(|_| SlotRing::new()).collect();
        ClusterSim {
            l1i: Cache::new(cfg.l1i_bytes, cfg.l1i_ways),
            uopc: Cache::new(cfg.uop_cache_bytes, cfg.uop_cache_ways),
            l1d: Cache::new(cfg.l1d_bytes, cfg.l1d_ways),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways),
            llc: Cache::new(cfg.llc_bytes, cfg.llc_ways),
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            bpred: GsharePredictor::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_bits),
            reg_ready: [0; NUM_ARCH_REGS],
            reg_cluster: [0; NUM_ARCH_REGS],
            rob_retire: vec![0; cfg.rob_size],
            inst_index: 0,
            fetch_ring: SlotRing::new(),
            issue_rings,
            retire_ring: SlotRing::new(),
            min_fetch_time: 0,
            last_retire: 0,
            last_pc_line: u64::MAX,
            last_pc_page: u64::MAX,
            last_dline: u64::MAX,
            steer_cursor: 0,
            cluster_pressure: vec![0; cfg.num_clusters as usize],
            sq_drain: vec![0; cfg.store_queue_size],
            sq_index: 0,
            last_sq_drain: 0,
            lq_retire: vec![0; 72],
            lq_index: 0,
            bank: CounterBank::new(),
            interval_start: 0,
            uops_issued_in_interval: 0,
            seg_start: 0,
            active_cc: 0,
            gated_cc: 0,
            last_schedule: [0; 6],
            delayed_mode: None,
            obs: SimObs::resolve(),
            mode: Mode::HighPerf,
            cfg,
            power,
        }
    }

    /// Current cluster configuration.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The configuration the simulator was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Switches cluster configuration, modeling the microcode transfer
    /// flow (§3): on a high-performance → low-power switch, every live
    /// register whose value lives in Cluster 2 is copied by a transfer µop
    /// (up to [`CpuConfig::transfer_uop_max`]), inserted into Cluster 1's
    /// stream while execution continues. Returning to high-performance
    /// mode only ungates Cluster 2 (negligible overhead).
    pub fn set_mode(&mut self, mode: Mode) {
        if mode == self.mode {
            return;
        }
        self.account_cluster_cycles();
        self.bank.incr(Event::ModeSwitches);
        if let Some(obs) = &self.obs {
            obs.mode_switches.inc();
        }
        if psca_obs::enabled(psca_obs::Level::Debug) {
            psca_obs::emit(
                psca_obs::Level::Debug,
                "cpu.mode_switch",
                &[
                    ("from", self.mode.to_string().into()),
                    ("to", mode.to_string().into()),
                ],
            );
        }
        if mode == Mode::LowPower {
            let live_in_c2 = self
                .reg_cluster
                .iter()
                .filter(|&&c| c == 1)
                .count()
                .min(self.cfg.transfer_uop_max as usize) as u64;
            self.bank.add(Event::TransferUops, live_in_c2);
            if let Some(obs) = &self.obs {
                obs.transfer_uops.add(live_in_c2);
            }
            self.bank.add(Event::UopsIssued, live_in_c2);
            self.bank.add(Event::Cluster1UopsIssued, live_in_c2);
            self.uops_issued_in_interval += live_in_c2;
            // Transfer µops occupy Cluster 1 issue slots: tens of cycles in
            // the worst case, as in the paper.
            let cycles = live_in_c2.div_ceil(self.cfg.cluster_width as u64);
            self.min_fetch_time = self.min_fetch_time.max(self.last_retire) + cycles;
            for c in self.reg_cluster.iter_mut() {
                *c = 0;
            }
        }
        self.mode = mode;
    }

    /// Submits a mode-switch request through the (possibly faulty)
    /// actuation port. With [`ModeSwitchFault::None`] this is exactly
    /// [`ClusterSim::set_mode`]. Returns whether the request took effect
    /// immediately.
    pub fn request_mode(&mut self, mode: Mode, fault: ModeSwitchFault) -> bool {
        match fault {
            ModeSwitchFault::None => {
                self.set_mode(mode);
                true
            }
            ModeSwitchFault::Lost => {
                if mode != self.mode {
                    if let Some(obs) = &self.obs {
                        obs.switch_lost.inc();
                    }
                    psca_obs::emit(
                        psca_obs::Level::Warn,
                        "cpu.mode_switch.lost",
                        &[("wanted", mode.to_string().into())],
                    );
                }
                false
            }
            ModeSwitchFault::DelayedOneWindow => {
                if mode != self.mode {
                    self.delayed_mode = Some(mode);
                    if let Some(obs) = &self.obs {
                        obs.switch_delayed.inc();
                    }
                }
                false
            }
        }
    }

    /// Applies a mode-switch request that an actuation fault delayed, if
    /// one is buffered. Call at each window boundary; returns the mode
    /// applied. A newer request issued in the meantime overrides it (the
    /// caller's `request_mode` runs after this drain).
    pub fn apply_delayed_mode(&mut self) -> Option<Mode> {
        let mode = self.delayed_mode.take()?;
        self.set_mode(mode);
        Some(mode)
    }

    fn active_width(&self) -> u32 {
        self.cfg.cluster_width * self.mode.active_clusters()
    }

    fn account_cluster_cycles(&mut self) {
        let now = self.last_retire;
        let dt = now.saturating_sub(self.seg_start);
        let active = self.mode.active_clusters() as u64;
        let gated = (self.cfg.num_clusters as u64).saturating_sub(active);
        self.active_cc += dt * active;
        self.gated_cc += dt * gated;
        self.seg_start = now;
    }

    /// Simulates the front end for one instruction; returns added bubbles.
    fn front_end(&mut self, pc: u64) -> u64 {
        let mut bubble = 0;
        let line = pc >> 6;
        if line != self.last_pc_line {
            self.last_pc_line = line;
            if self.uopc.access(line, false).hit {
                self.bank.incr(Event::UopCacheHits);
            } else {
                self.bank.incr(Event::UopCacheMisses);
                if self.l1i.access(line, false).hit {
                    self.bank.incr(Event::IcacheHits);
                    bubble += self.cfg.decode_bubble;
                } else {
                    self.bank.incr(Event::IcacheMisses);
                    let l2 = self.l2.access(line, false);
                    if l2.hit {
                        self.bank.incr(Event::L2Hits);
                        bubble += self.cfg.l2_latency;
                    } else {
                        self.bank.incr(Event::L2Misses);
                        self.note_l2_eviction(l2.eviction);
                        if self.llc.access(line, false).hit {
                            self.bank.incr(Event::LlcHits);
                            bubble += self.cfg.llc_latency;
                        } else {
                            self.bank.incr(Event::LlcMisses);
                            bubble += self.cfg.mem_latency;
                        }
                    }
                }
            }
            let page = pc >> 12;
            if page != self.last_pc_page {
                self.last_pc_page = page;
                if self.itlb.access(pc) {
                    self.bank.incr(Event::ItlbHits);
                } else {
                    self.bank.incr(Event::ItlbMisses);
                    bubble += self.cfg.tlb_miss_penalty;
                }
            }
        }
        if bubble > 0 {
            self.bank.add(Event::FrontEndBubbles, bubble);
        }
        bubble
    }

    fn note_l2_eviction(&mut self, eviction: Option<(u64, bool)>) {
        match eviction {
            Some((_, true)) => self.bank.incr(Event::L2WritebackEvictions),
            Some((_, false)) => self.bank.incr(Event::L2SilentEvictions),
            None => {}
        }
    }

    /// Data-cache path for a load or store; returns access latency.
    fn mem_access(&mut self, addr: u64, is_write: bool) -> u64 {
        if self.dtlb.access(addr) {
            self.bank.incr(Event::DtlbHits);
        } else {
            self.bank.incr(Event::DtlbMisses);
        }
        let line = addr >> 6;
        if is_write {
            self.bank.incr(Event::L1dWrites);
        } else {
            self.bank.incr(Event::L1dReads);
        }
        if self.cfg.stream_prefetcher && line != self.last_dline {
            // Idealized next-line stream prefetch: on the first touch of
            // each line, install its successor silently (no events, no
            // timing). This is what keeps sequential streams from being
            // compulsory-miss bound, as hardware stream prefetchers do.
            self.last_dline = line;
            let _ = self.l1d.access(line + 1, false);
            let _ = self.llc.access(line + 1, false);
        }
        if self.l1d.access(line, is_write).hit {
            self.bank.incr(Event::L1dHits);
            self.cfg.l1d_latency
        } else {
            self.bank.incr(Event::L1dMisses);
            let l2 = self.l2.access(line, is_write);
            if l2.hit {
                self.bank.incr(Event::L2Hits);
                self.cfg.l2_latency
            } else {
                self.bank.incr(Event::L2Misses);
                self.note_l2_eviction(l2.eviction);
                if self.llc.access(line, is_write).hit {
                    self.bank.incr(Event::LlcHits);
                    self.cfg.llc_latency
                } else {
                    self.bank.incr(Event::LlcMisses);
                    if !is_write {
                        self.bank.incr(Event::LongLatencyLoads);
                    }
                    self.cfg.mem_latency
                }
            }
        }
    }

    /// Chooses the cluster for an instruction in high-performance mode.
    ///
    /// Dependence-aware policy: an instruction with an in-flight source is
    /// steered to the producer's cluster (avoiding the forwarding penalty);
    /// instructions whose operands are already architectural are steered to
    /// the least-pressured cluster. The pressure term is essential — pure
    /// producer-affinity ratchets every dependence chain onto one cluster
    /// (ready chains migrate randomly, in-flight chains stay, so clusters
    /// collapse), halving effective width.
    fn steer(&mut self, inst: &Instruction, dispatch: u64) -> usize {
        if self.mode == Mode::LowPower {
            return 0;
        }
        let n = self.cfg.num_clusters as usize;
        let chosen = match self.cfg.steer_policy {
            crate::config::SteerPolicy::RoundRobin => {
                self.steer_cursor = (self.steer_cursor + 1) % n;
                self.steer_cursor
            }
            crate::config::SteerPolicy::DependenceAware => {
                let mut best: Option<(u64, usize)> = None;
                for src in inst.srcs.iter().flatten() {
                    let i = src.index();
                    if self.reg_ready[i] > dispatch {
                        let cand = (self.reg_ready[i], self.reg_cluster[i] as usize);
                        if best.is_none_or(|b| cand.0 > b.0) {
                            best = Some(cand);
                        }
                    }
                }
                match best {
                    Some((_, c)) => c,
                    None => {
                        // Least-pressured cluster.
                        (0..n)
                            .min_by_key(|&c| self.cluster_pressure[c])
                            .unwrap_or(0)
                    }
                }
            }
        };
        // Exponentially-decayed pressure tracking.
        for (c, p) in self.cluster_pressure.iter_mut().enumerate() {
            *p -= *p >> 5;
            if c == chosen {
                *p += 32;
            }
        }
        chosen
    }

    /// Simulates one instruction through the pipeline.
    fn step(&mut self, inst: &Instruction) {
        let cfg_width = self.active_width();
        // ---- front end ----
        let bubble = self.front_end(inst.pc);
        let fetch = self
            .fetch_ring
            .claim(self.min_fetch_time + bubble, cfg_width);
        self.min_fetch_time = fetch.max(self.min_fetch_time);

        // ---- dispatch: ROB + store-queue structural limits ----
        let rob_len = self.rob_retire.len() as u64;
        let mut dispatch = fetch + 1;
        if self.inst_index >= rob_len {
            let rob_free = self.rob_retire[(self.inst_index % rob_len) as usize];
            if rob_free > dispatch {
                dispatch = rob_free;
                self.bank.incr(Event::RobFullStalls);
            }
        }
        if inst.op == OpClass::Store {
            let sq_len = self.sq_drain.len() as u64;
            if self.sq_index >= sq_len {
                let sq_free = self.sq_drain[(self.sq_index % sq_len) as usize];
                if sq_free > dispatch {
                    dispatch = sq_free;
                    self.bank.incr(Event::StoreQueueFullStalls);
                }
            }
        }
        // Front-end queue coupling: fetch cannot lag arbitrarily behind.
        self.min_fetch_time = self.min_fetch_time.max(dispatch.saturating_sub(16));

        // ---- steering & operand readiness ----
        let cluster = self.steer(inst, dispatch);
        let mut ready = dispatch;
        let mut n_srcs = 0u64;
        for src in inst.srcs.iter().flatten() {
            n_srcs += 1;
            let i = src.index();
            let mut t = self.reg_ready[i];
            if self.reg_ready[i] > dispatch && self.reg_cluster[i] as usize != cluster {
                t += self.cfg.inter_cluster_penalty;
                self.bank.incr(Event::InterClusterForwards);
            }
            ready = ready.max(t);
        }
        self.bank.add(Event::PhysRegRefCount, n_srcs);
        if ready <= dispatch {
            self.bank.incr(Event::UopsReady);
        } else {
            self.bank.incr(Event::UopsStalledOnDep);
        }

        // ---- issue ----
        let issue = self.issue_rings[cluster].claim(ready, self.cfg.cluster_width);
        if issue > dispatch {
            self.bank.incr(Event::StallCount);
        }
        self.bank.incr(Event::UopsIssued);
        self.bank.incr(Event::UopsExecuted);
        self.uops_issued_in_interval += 1;
        self.bank.incr(if cluster == 0 {
            Event::Cluster1UopsIssued
        } else {
            Event::Cluster2UopsIssued
        });

        // ---- execute ----
        let mut latency = inst.op.latency() as u64;
        match inst.op {
            OpClass::IntAlu => self.bank.incr(Event::IntAluOps),
            OpClass::IntMul => self.bank.incr(Event::IntMulOps),
            OpClass::IntDiv => {
                self.bank.incr(Event::IntDivOps);
                self.bank.incr(Event::DivStallCount);
            }
            OpClass::FpAdd => self.bank.incr(Event::FpAddOps),
            OpClass::FpMul => self.bank.incr(Event::FpMulOps),
            OpClass::FpFma => self.bank.incr(Event::FpFmaOps),
            OpClass::FpDiv => {
                self.bank.incr(Event::FpDivOps);
                self.bank.incr(Event::DivStallCount);
            }
            OpClass::SimdInt | OpClass::SimdFp => self.bank.incr(Event::SimdOps),
            _ => {}
        }
        if let Some(mem) = inst.mem {
            let is_write = inst.op == OpClass::Store;
            let dtlb_hit_before = self.bank.get(Event::DtlbMisses);
            let mem_lat = self.mem_access(mem.addr, is_write);
            let walked = self.bank.get(Event::DtlbMisses) != dtlb_hit_before;
            let walk = if walked { self.cfg.tlb_miss_penalty } else { 0 };
            match inst.op {
                OpClass::Load => {
                    self.bank.incr(Event::LoadsRetired);
                    latency += mem_lat + walk;
                }
                OpClass::Store => {
                    self.bank.incr(Event::StoresRetired);
                    // Store data latency is 1; the drain happens post-retire.
                    let drain = issue + 1 + mem_lat + walk;
                    let slot = (self.sq_index % self.sq_drain.len() as u64) as usize;
                    self.last_sq_drain = self.last_sq_drain.max(drain);
                    self.sq_drain[slot] = self.last_sq_drain;
                    // Occupancy sample: pending SQ entries at dispatch.
                    let occ = count_pending(&self.sq_drain, self.sq_index + 1, dispatch);
                    self.bank.add(Event::StoreQueueOccupancy, occ);
                    self.sq_index += 1;
                }
                _ => unreachable!("mem ref on non-memory op"),
            }
        }
        let complete = issue + latency.max(1);

        // ---- branch resolution ----
        if let Some(b) = inst.branch {
            self.bank.incr(Event::BranchesRetired);
            if b.taken {
                self.bank.incr(Event::BranchesTaken);
            }
            let mispredicted = match inst.op {
                OpClass::CondBranch => !self.bpred.predict_and_update(inst.pc, b.taken),
                OpClass::IndirectBranch => {
                    let btb_ok = self.btb.lookup_and_update(inst.pc, b.target);
                    if !btb_ok {
                        self.bank.incr(Event::BtbMisses);
                    }
                    !btb_ok
                }
                OpClass::Jump => {
                    let btb_ok = self.btb.lookup_and_update(inst.pc, b.target);
                    if !btb_ok {
                        self.bank.incr(Event::BtbMisses);
                    }
                    false // direct jumps redirect in the front end: cheap
                }
                _ => false,
            };
            if mispredicted {
                self.bank.incr(Event::BranchMispredicts);
                let flushed = (cfg_width as u64)
                    .saturating_mul(complete.saturating_sub(fetch))
                    .min(self.rob_retire.len() as u64);
                self.bank.add(Event::WrongPathUopsFlushed, flushed);
                self.min_fetch_time = self
                    .min_fetch_time
                    .max(complete + self.cfg.mispredict_penalty);
            }
        }

        // ---- writeback ----
        if let Some(dst) = inst.dst {
            self.reg_ready[dst.index()] = complete;
            self.reg_cluster[dst.index()] = cluster as u8;
            self.bank.incr(Event::PhysRegWrites);
        }

        // ---- in-order retire ----
        let retire = self
            .retire_ring
            .claim(complete.max(self.last_retire), self.cfg.retire_width);
        self.last_retire = retire.max(self.last_retire);
        self.rob_retire[(self.inst_index % rob_len) as usize] = retire;
        if inst.op == OpClass::Load {
            let slot = (self.lq_index % self.lq_retire.len() as u64) as usize;
            self.lq_retire[slot] = retire;
            self.lq_index += 1;
        }
        self.inst_index += 1;

        // ---- occupancy sampling (every 8th instruction, weighted) ----
        if self.inst_index.is_multiple_of(8) {
            let rob_occ = count_pending(&self.rob_retire, self.inst_index, dispatch);
            self.bank.add(Event::RobOccupancy, rob_occ * 8);
            let lq_occ = count_pending(&self.lq_retire, self.lq_index, dispatch);
            self.bank.add(Event::LoadQueueOccupancy, lq_occ * 8);
        }

        self.bank.incr(Event::InstRetired);
        self.last_schedule = [fetch, dispatch, ready, issue, complete, retire];
    }

    /// Pipeline timing of the most recent instruction:
    /// `[fetch, dispatch, ready, issue, complete, retire]` cycles.
    /// Exposed for tests and diagnostics.
    pub fn last_schedule(&self) -> [u64; 6] {
        self.last_schedule
    }

    /// Simulates up to `n` instructions and snapshots the interval.
    ///
    /// Returns `None` if the source was already exhausted. The snapshot is
    /// cycle-normalized; energy is computed with the event-based power
    /// model including per-cluster static power.
    pub fn run_interval<S: TraceSource>(
        &mut self,
        source: &mut S,
        n: u64,
    ) -> Option<IntervalResult> {
        // Trace-gated: each interval becomes a span in the recording (and
        // inherits the calling thread's request context, if any), so a
        // served closed-loop request renders down to interval granularity.
        let span_ts = psca_obs::trace::enabled().then(psca_obs::trace::now_us);
        let mut executed = 0u64;
        for _ in 0..n {
            match source.next_instruction() {
                Some(inst) => {
                    self.step(&inst);
                    executed += 1;
                }
                None => break,
            }
        }
        if executed == 0 {
            return None;
        }
        if let Some(ts) = span_ts {
            let dur = psca_obs::trace::now_us().saturating_sub(ts);
            psca_obs::trace::complete("cpu.sim.interval", ts, dur);
        }
        // Close the interval. Observability is batched once per interval
        // (never per instruction) through handles resolved at
        // construction, so the close costs a few relaxed atomic ops and
        // zero registry lookups — and nothing at all under PSCA_OBS=0.
        let cycles = (self.last_retire - self.interval_start).max(1);
        self.bank.add(Event::Cycles, cycles);
        let interval_ipc = executed as f64 / cycles as f64;
        if let Some(obs) = &self.obs {
            obs.instructions.add(executed);
            obs.cycles.add(cycles);
            obs.intervals.inc();
            if self.mode == Mode::LowPower {
                obs.cycles_low_power.add(cycles);
            }
            obs.ipc.push(interval_ipc);
            obs.low_power.push(if self.mode == Mode::LowPower {
                1.0
            } else {
                0.0
            });
        }
        if psca_obs::trace::enabled() {
            psca_obs::trace::counter_event("cpu.sim.ipc", interval_ipc);
        }
        let width = self.active_width() as u64;
        let empty = (width * cycles).saturating_sub(self.uops_issued_in_interval);
        self.bank.add(Event::IssueSlotsEmpty, empty);
        self.account_cluster_cycles();
        let snapshot = self.bank.snapshot_and_reset();
        let energy = self
            .power
            .interval_energy(&snapshot, self.active_cc, self.gated_cc);
        self.active_cc = 0;
        self.gated_cc = 0;
        self.interval_start = self.last_retire;
        self.uops_issued_in_interval = 0;
        Some(IntervalResult {
            snapshot,
            energy,
            mode: self.mode,
            instructions: executed,
        })
    }

    /// Runs `n` instructions discarding telemetry (cache/predictor warmup,
    /// as the paper does before each measured SimPoint, §4.1).
    pub fn warm_up<S: TraceSource>(&mut self, source: &mut S, n: u64) {
        let _ = self.run_interval(source, n);
    }

    /// Resets microarchitectural state (caches, predictors, dataflow and
    /// timing) while keeping the configuration. Used between traces.
    pub fn reset(&mut self) {
        let cfg = self.cfg.clone();
        let power = self.power.clone();
        let mode = self.mode;
        *self = ClusterSim::with_power_model(cfg, power);
        self.mode = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_workloads::{Archetype, PhaseGenerator};

    fn ipc_of(archetype: Archetype, mode: Mode, n: u64) -> f64 {
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        sim.set_mode(mode);
        let mut gen = PhaseGenerator::new(archetype.center(), 42);
        sim.warm_up(&mut gen, n / 2);
        let r = sim.run_interval(&mut gen, n).unwrap();
        r.ipc()
    }

    #[test]
    fn slot_ring_respects_width() {
        let mut ring = SlotRing::new();
        assert_eq!(ring.claim(10, 2), 10);
        assert_eq!(ring.claim(10, 2), 10);
        assert_eq!(ring.claim(10, 2), 11);
        assert_eq!(ring.claim(5, 2), 5);
    }

    #[test]
    fn count_pending_counts_monotone_ring() {
        let ring = vec![10u64, 20, 30, 40];
        assert_eq!(count_pending(&ring, 4, 5), 4);
        assert_eq!(count_pending(&ring, 4, 25), 2);
        assert_eq!(count_pending(&ring, 4, 100), 0);
    }

    #[test]
    fn ipc_is_positive_and_bounded_by_width() {
        for mode in [Mode::HighPerf, Mode::LowPower] {
            let width = match mode {
                Mode::HighPerf => 8.0,
                Mode::LowPower => 4.0,
            };
            let ipc = ipc_of(Archetype::Balanced, mode, 20_000);
            assert!(ipc > 0.1 && ipc <= width, "{mode}: ipc = {ipc}");
        }
    }

    #[test]
    fn wide_ilp_benefits_from_high_perf_mode() {
        let hi = ipc_of(Archetype::ScalarIlp, Mode::HighPerf, 30_000);
        let lo = ipc_of(Archetype::ScalarIlp, Mode::LowPower, 30_000);
        assert!(
            lo / hi < 0.8,
            "wide ILP should lose from gating: hi={hi:.2} lo={lo:.2}"
        );
    }

    #[test]
    fn dependence_chains_tolerate_gating() {
        let hi = ipc_of(Archetype::DepChain, Mode::HighPerf, 30_000);
        let lo = ipc_of(Archetype::DepChain, Mode::LowPower, 30_000);
        assert!(
            lo / hi > 0.9,
            "serial code should not need width: hi={hi:.2} lo={lo:.2}"
        );
    }

    #[test]
    fn memory_bound_tolerates_gating() {
        let hi = ipc_of(Archetype::PointerChase, Mode::HighPerf, 20_000);
        let lo = ipc_of(Archetype::PointerChase, Mode::LowPower, 20_000);
        assert!(lo / hi > 0.85, "hi={hi:.2} lo={lo:.2}");
    }

    #[test]
    fn low_power_mode_uses_less_power() {
        let mut hi_sim = ClusterSim::new(CpuConfig::skylake_scaled());
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 7);
        hi_sim.warm_up(&mut gen, 10_000);
        let hi = hi_sim.run_interval(&mut gen, 20_000).unwrap();
        let mut lo_sim = ClusterSim::new(CpuConfig::skylake_scaled());
        lo_sim.set_mode(Mode::LowPower);
        let mut gen2 = PhaseGenerator::new(Archetype::Balanced.center(), 7);
        lo_sim.warm_up(&mut gen2, 10_000);
        let lo = lo_sim.run_interval(&mut gen2, 20_000).unwrap();
        let p_hi = hi.energy / hi.snapshot.cycles as f64;
        let p_lo = lo.energy / lo.snapshot.cycles as f64;
        assert!(
            p_lo < p_hi,
            "low-power mode must consume less power: {p_lo} vs {p_hi}"
        );
    }

    #[test]
    fn mode_switch_counts_transfer_uops() {
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        let mut gen = PhaseGenerator::new(Archetype::ScalarIlp.center(), 3);
        sim.run_interval(&mut gen, 5_000).unwrap();
        sim.set_mode(Mode::LowPower);
        let r = sim.run_interval(&mut gen, 5_000).unwrap();
        let transfers = r.snapshot.get(Event::TransferUops) * r.snapshot.cycles as f64;
        assert!(transfers >= 1.0, "expected transfer uops, got {transfers}");
        let switches = r.snapshot.get(Event::ModeSwitches) * r.snapshot.cycles as f64;
        assert!((switches - 1.0).abs() < 0.5);
    }

    #[test]
    fn mode_switch_overhead_is_small() {
        // Worst-case power/energy overhead of adaptation should be tiny
        // (§3: "on the order of 0.1%" at 10k granularity).
        let cfg = CpuConfig::skylake_scaled();
        let mut toggling = ClusterSim::new(cfg.clone());
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 5);
        let mut toggle_energy = 0.0;
        let mut toggle_insts = 0u64;
        for i in 0..20 {
            toggling.set_mode(if i % 2 == 0 {
                Mode::HighPerf
            } else {
                Mode::LowPower
            });
            let r = toggling.run_interval(&mut gen, 10_000).unwrap();
            toggle_energy += r.energy;
            toggle_insts += r.instructions;
        }
        assert_eq!(toggle_insts, 200_000);
        assert!(toggle_energy > 0.0);
    }

    #[test]
    fn lost_and_delayed_mode_switch_requests() {
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        // Lost: the configuration must not change.
        assert!(!sim.request_mode(Mode::LowPower, ModeSwitchFault::Lost));
        assert_eq!(sim.mode(), Mode::HighPerf);
        // Delayed: takes effect only at the drain point.
        assert!(!sim.request_mode(Mode::LowPower, ModeSwitchFault::DelayedOneWindow));
        assert_eq!(sim.mode(), Mode::HighPerf);
        assert_eq!(sim.apply_delayed_mode(), Some(Mode::LowPower));
        assert_eq!(sim.mode(), Mode::LowPower);
        assert_eq!(sim.apply_delayed_mode(), None);
        // Healthy path is exactly set_mode.
        assert!(sim.request_mode(Mode::HighPerf, ModeSwitchFault::None));
        assert_eq!(sim.mode(), Mode::HighPerf);
    }

    #[test]
    fn run_interval_on_exhausted_source_returns_none() {
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        let mut empty = psca_trace::VecTrace::default();
        assert!(sim.run_interval(&mut empty, 100).is_none());
    }

    #[test]
    fn short_trace_reports_actual_instructions() {
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 1);
        let mut short = psca_trace::VecTrace::record(&mut gen, 123);
        let r = sim.run_interval(&mut short, 1_000).unwrap();
        assert_eq!(r.instructions, 123);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
            let mut gen = PhaseGenerator::new(Archetype::Branchy.center(), 11);
            let r = sim.run_interval(&mut gen, 10_000).unwrap();
            (r.snapshot.cycles, r.energy.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn blindspot_twins_have_similar_observable_mixes_but_different_labels() {
        // In low-power mode the twins should look alike on expert counters
        // (miss rates) while differing in dependence-visibility counters.
        let observe = |a: Archetype| {
            let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
            sim.set_mode(Mode::LowPower);
            let mut gen = PhaseGenerator::new(a.center(), 21);
            sim.warm_up(&mut gen, 20_000);
            sim.run_interval(&mut gen, 30_000).unwrap()
        };
        let wide = observe(Archetype::StreamFpWide);
        let chain = observe(Archetype::StreamFpChain);
        let w_ready = wide.snapshot.get(Event::UopsReady);
        let c_ready = chain.snapshot.get(Event::UopsReady);
        assert!(
            w_ready > c_ready * 1.5,
            "dependence counters must separate the twins: {w_ready} vs {c_ready}"
        );
    }
}
