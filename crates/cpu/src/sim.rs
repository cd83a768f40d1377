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
//!
//! The timing core here schedules each instruction and turns its
//! functional [`Outcome`] (caches, TLBs, predictors:
//! [`crate::functional`]) into latencies and telemetry, taking each part
//! of the outcome at the stage that needs it. In a plain run the parts
//! come from the functional pass ([`Live`]). A simulator that reads a
//! recorded trace carrying outcomes stored by an earlier run of the same
//! machine from the same state takes them from the trace ([`Stored`]) and
//! runs only the timing core.

use crate::config::CpuConfig;
use crate::functional::{
    lower_eviction, lower_level, Functional, Lineage, Live, Outcome, OutcomeSource, Stored,
    EVICT_SILENT, EVICT_WRITEBACK, FETCH_L1I, FETCH_UOP_CACHE, ITLB_HIT, ITLB_MISS, LOWER_L2,
    LOWER_LLC, LOWER_MEMORY,
};
use crate::power::PowerModel;
use psca_telemetry::{CounterBank, Event, IntervalSnapshot};
use psca_trace::{Instruction, OpClass, TracePosition, TraceSource, NUM_ARCH_REGS};
use std::sync::Arc;
use std::time::Instant;

/// Observability handles resolved once at simulator construction, so the
/// per-interval close never takes the registry lock.
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
    busy_us: Arc<psca_obs::Counter>,
    replayed_instructions: Arc<psca_obs::Counter>,
}

impl SimObs {
    fn resolve() -> SimObs {
        SimObs {
            instructions: psca_obs::counter("cpu.sim.instructions"),
            cycles: psca_obs::counter("cpu.sim.cycles"),
            intervals: psca_obs::counter("cpu.sim.intervals"),
            cycles_low_power: psca_obs::counter("cpu.sim.cycles_low_power"),
            mode_switches: psca_obs::counter("cpu.mode_switches"),
            transfer_uops: psca_obs::counter("cpu.transfer_uops"),
            switch_lost: psca_obs::counter("cpu.mode_switch.lost"),
            switch_delayed: psca_obs::counter("cpu.mode_switch.delayed"),
            busy_us: psca_obs::counter("cpu.sim.busy_us"),
            replayed_instructions: psca_obs::counter("cpu.sim.replayed_instructions"),
        }
    }
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

/// Completion times of the last `capacity` entries of one in-order
/// structure (reorder buffer, store queue, load queue), oldest at the
/// write slot.
///
/// Pushed times never fall, so the entries still pending at a time `t`
/// are a suffix of the ring. [`CompletionRing::pending`] finds where that
/// suffix starts by moving a remembered cursor from its last answer: the
/// answer is exact, and since a sample time moves little between samples
/// the cursor moves a few slots each time.
#[derive(Debug, Clone)]
struct CompletionRing {
    times: Vec<u64>,
    // entries pushed so far: the logical index of the next push
    pushed: u64,
    // the slot the next push writes (`pushed % capacity`)
    slot: usize,
    // logical index of the first entry the last answer counted, and its slot
    cursor: u64,
    cursor_slot: usize,
}

impl CompletionRing {
    fn new(capacity: usize) -> CompletionRing {
        CompletionRing {
            times: vec![0; capacity],
            pushed: 0,
            slot: 0,
            cursor: 0,
            cursor_slot: 0,
        }
    }

    fn capacity(&self) -> u64 {
        self.times.len() as u64
    }

    /// Completion time of the entry the next push evicts, once the ring is
    /// full.
    fn oldest(&self) -> Option<u64> {
        (self.pushed >= self.capacity()).then(|| self.times[self.slot])
    }

    /// Appends a completion time no earlier than any held one, evicting
    /// the oldest entry once the ring is full.
    fn push(&mut self, time: u64) {
        self.times[self.slot] = time;
        self.slot += 1;
        if self.slot == self.times.len() {
            self.slot = 0;
        }
        self.pushed += 1;
    }

    /// Number of held entries whose completion time is later than `t`.
    fn pending(&mut self, t: u64) -> u64 {
        let len = self.times.len();
        let oldest = self.pushed.saturating_sub(len as u64);
        if self.cursor < oldest {
            // The remembered entry was evicted: restart at the oldest
            // held one, which sits at the write slot.
            self.cursor = oldest;
            self.cursor_slot = self.slot;
        }
        // Step back over entries still pending at `t`...
        while self.cursor > oldest {
            let prev = self.cursor_slot.checked_sub(1).unwrap_or(len - 1);
            if self.times[prev] <= t {
                break;
            }
            self.cursor -= 1;
            self.cursor_slot = prev;
        }
        // ...or forward over entries complete by `t`.
        while self.cursor < self.pushed && self.times[self.cursor_slot] <= t {
            self.cursor += 1;
            self.cursor_slot += 1;
            if self.cursor_slot == len {
                self.cursor_slot = 0;
            }
        }
        self.pushed - self.cursor
    }
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
    // order-only structures (the functional pass)
    functional: Functional,
    // what the functional state is a function of; None once the sim has
    // read a source that is not a recorded trace, or entered one mid-way
    lineage: Option<Lineage>,
    // set once the functional pass was skipped: the structures are stale
    functional_skipped: bool,
    // store outcome codes in the recorded traces read (`record_outcomes`)
    recording: bool,
    // the current interval's outcome codes, while recording
    codes: Vec<u16>,
    // dataflow state
    reg_ready: [u64; NUM_ARCH_REGS],
    reg_cluster: [u8; NUM_ARCH_REGS],
    // retire times of the instructions in flight
    rob: CompletionRing,
    // timing state
    fetch_ring: SlotRing,
    issue_rings: Vec<SlotRing>,
    retire_ring: SlotRing,
    min_fetch_time: u64,
    last_retire: u64,
    steer_cursor: usize,
    cluster_pressure: Vec<u64>,
    // store queue (in-order drain => monotone completions)
    sq_drain: CompletionRing,
    last_sq_drain: u64,
    // load queue (retire times of loads, monotone)
    lq_retire: CompletionRing,
    // telemetry
    bank: CounterBank,
    interval_start: u64,
    uops_issued_in_interval: u64,
    // cluster-cycle accounting for the power model
    seg_start: u64,
    active_cc: u64,
    gated_cc: u64,
    // mode-switch request delayed by an actuation fault
    delayed_mode: Option<Mode>,
    // pre-resolved observability handles
    obs: SimObs,
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
            functional: Functional::new(&cfg),
            lineage: Some(Lineage::new(&cfg)),
            functional_skipped: false,
            recording: false,
            codes: Vec::new(),
            reg_ready: [0; NUM_ARCH_REGS],
            reg_cluster: [0; NUM_ARCH_REGS],
            rob: CompletionRing::new(cfg.rob_size),
            fetch_ring: SlotRing::new(),
            issue_rings,
            retire_ring: SlotRing::new(),
            min_fetch_time: 0,
            last_retire: 0,
            steer_cursor: 0,
            cluster_pressure: vec![0; cfg.num_clusters as usize],
            sq_drain: CompletionRing::new(cfg.store_queue_size),
            last_sq_drain: 0,
            lq_retire: CompletionRing::new(72),
            bank: CounterBank::new(),
            interval_start: 0,
            uops_issued_in_interval: 0,
            seg_start: 0,
            active_cc: 0,
            gated_cc: 0,
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
        self.obs.mode_switches.inc();
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
            self.obs.transfer_uops.add(live_in_c2);
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
                    self.obs.switch_lost.inc();
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
                    self.obs.switch_delayed.inc();
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

    /// Front-end events of one outcome; returns the added bubble cycles.
    fn front_end(&mut self, o: Outcome) -> u64 {
        let mut bubble = match o.fetch() {
            0 => return 0,
            FETCH_UOP_CACHE => {
                self.bank.incr(Event::UopCacheHits);
                0
            }
            FETCH_L1I => {
                self.bank.incr(Event::UopCacheMisses);
                self.bank.incr(Event::IcacheHits);
                self.cfg.decode_bubble
            }
            _ => {
                self.bank.incr(Event::UopCacheMisses);
                self.bank.incr(Event::IcacheMisses);
                self.lower_levels(o.fetch_lower())
            }
        };
        match o.itlb() {
            ITLB_HIT => self.bank.incr(Event::ItlbHits),
            ITLB_MISS => {
                self.bank.incr(Event::ItlbMisses);
                bubble += self.cfg.tlb_miss_penalty;
            }
            _ => {}
        }
        if bubble > 0 {
            self.bank.add(Event::FrontEndBubbles, bubble);
        }
        bubble
    }

    /// L2/LLC events of a lower-level field; returns its latency.
    fn lower_levels(&mut self, lower: u16) -> u64 {
        let level = lower_level(lower);
        if level == LOWER_L2 {
            self.bank.incr(Event::L2Hits);
            return self.cfg.l2_latency;
        }
        self.bank.incr(Event::L2Misses);
        match lower_eviction(lower) {
            EVICT_WRITEBACK => self.bank.incr(Event::L2WritebackEvictions),
            EVICT_SILENT => self.bank.incr(Event::L2SilentEvictions),
            _ => {}
        }
        if level == LOWER_LLC {
            self.bank.incr(Event::LlcHits);
            self.cfg.llc_latency
        } else {
            self.bank.incr(Event::LlcMisses);
            self.cfg.mem_latency
        }
    }

    /// Data-path events of a load or store; returns its access latency
    /// plus the page walk, if any.
    fn mem_access(&mut self, o: Outcome, is_write: bool) -> u64 {
        let walk = if o.dtlb_miss() {
            self.bank.incr(Event::DtlbMisses);
            self.cfg.tlb_miss_penalty
        } else {
            self.bank.incr(Event::DtlbHits);
            0
        };
        if is_write {
            self.bank.incr(Event::L1dWrites);
        } else {
            self.bank.incr(Event::L1dReads);
        }
        let latency = if !o.l1d_miss() {
            self.bank.incr(Event::L1dHits);
            self.cfg.l1d_latency
        } else {
            self.bank.incr(Event::L1dMisses);
            let lower = o.data_lower();
            if !is_write && lower_level(lower) == LOWER_MEMORY {
                self.bank.incr(Event::LongLatencyLoads);
            }
            self.lower_levels(lower)
        };
        latency + walk
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

    /// The timing core: schedules one instruction through the pipeline,
    /// taking its functional outcome from `outcomes` stage by stage.
    fn timing<O: OutcomeSource>(&mut self, inst: &Instruction, outcomes: &mut O) {
        let cfg_width = self.active_width();
        // ---- front end ----
        let o = outcomes.front_end(&mut self.functional, inst.pc);
        let bubble = self.front_end(o);
        let fetch = self
            .fetch_ring
            .claim(self.min_fetch_time + bubble, cfg_width);
        self.min_fetch_time = fetch.max(self.min_fetch_time);

        // ---- dispatch: ROB + store-queue structural limits ----
        let mut dispatch = fetch + 1;
        if let Some(rob_free) = self.rob.oldest() {
            if rob_free > dispatch {
                dispatch = rob_free;
                self.bank.incr(Event::RobFullStalls);
            }
        }
        if inst.op == OpClass::Store {
            if let Some(sq_free) = self.sq_drain.oldest() {
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
            let o = outcomes.data(&mut self.functional, mem.addr, is_write);
            let mem_lat = self.mem_access(o, is_write);
            match inst.op {
                OpClass::Load => {
                    self.bank.incr(Event::LoadsRetired);
                    latency += mem_lat;
                }
                OpClass::Store => {
                    self.bank.incr(Event::StoresRetired);
                    // Store data latency is 1; the drain happens post-retire.
                    let drain = issue + 1 + mem_lat;
                    self.last_sq_drain = self.last_sq_drain.max(drain);
                    self.sq_drain.push(self.last_sq_drain);
                    // Occupancy sample: pending SQ entries at dispatch.
                    let occ = self.sq_drain.pending(dispatch);
                    self.bank.add(Event::StoreQueueOccupancy, occ);
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
            let missed = outcomes.branch_missed(&mut self.functional, inst.op, inst.pc, b);
            let mispredicted = match inst.op {
                OpClass::CondBranch => missed,
                OpClass::IndirectBranch | OpClass::Jump => {
                    if missed {
                        self.bank.incr(Event::BtbMisses);
                    }
                    // Direct jumps redirect in the front end: cheap.
                    missed && inst.op == OpClass::IndirectBranch
                }
                _ => false,
            };
            if mispredicted {
                self.bank.incr(Event::BranchMispredicts);
                let flushed = (cfg_width as u64)
                    .saturating_mul(complete.saturating_sub(fetch))
                    .min(self.rob.capacity());
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
        self.rob.push(retire);
        if inst.op == OpClass::Load {
            self.lq_retire.push(retire);
        }

        // ---- occupancy sampling (every 8th instruction, weighted) ----
        if self.rob.pushed.is_multiple_of(8) {
            let rob_occ = self.rob.pending(dispatch);
            self.bank.add(Event::RobOccupancy, rob_occ * 8);
            let lq_occ = self.lq_retire.pending(dispatch);
            self.bank.add(Event::LoadQueueOccupancy, lq_occ * 8);
        }

        self.bank.incr(Event::InstRetired);
    }

    /// Follows the lineage onto the source about to be read and decides
    /// whether this interval replays stored outcomes.
    ///
    /// # Panics
    /// Panics if the functional pass was skipped before and `at` offers no
    /// outcomes for this simulator: its structures are stale, so it cannot
    /// go back to the full path.
    fn replays(&mut self, at: Option<TracePosition<'_>>) -> bool {
        let replay = match (&mut self.lineage, at) {
            (Some(lineage), Some(at)) => lineage.enter(at).map(|key| at.outcome_key == Some(key)),
            _ => None,
        };
        if replay.is_none() {
            self.lineage = None;
        }
        let replay = replay == Some(true);
        assert!(
            replay || !self.functional_skipped,
            "simulator replayed stored outcomes and cannot run the full path: \
             this source holds no outcomes recorded from its state"
        );
        self.functional_skipped |= replay;
        replay
    }

    /// From now on, stores each instruction's functional outcome in the
    /// recorded trace it came from, keyed by the simulator's state at the
    /// trace's first instruction. A trace read whole from its start, and
    /// held by no clone while it is read, carries its outcomes afterwards:
    /// a later fresh simulator of the same functional geometry that reads
    /// the same traces in the same order replays it through the timing
    /// core only. Traces read in part, through a clone, or after a source
    /// that is not a recorded trace get none.
    ///
    /// # Panics
    /// Panics unless the simulator is fresh.
    pub fn record_outcomes(&mut self) {
        assert!(
            self.rob.pushed == 0 && self.lineage.is_some(),
            "outcomes are recorded from a fresh simulator"
        );
        self.recording = true;
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
        let busy_since = Instant::now();
        let replay = self.replays(source.position());
        let store = self.recording && !replay && self.lineage.is_some();
        self.codes.clear();
        let mut executed = 0u64;
        for _ in 0..n {
            if replay {
                let Some((inst, code)) = source.next_with_outcome() else {
                    break;
                };
                self.timing(&inst, &mut Stored(Outcome::from_code(code)));
            } else {
                let Some(inst) = source.next_instruction() else {
                    break;
                };
                let mut live = Live::default();
                self.timing(&inst, &mut live);
                if store {
                    self.codes.push(live.code());
                }
            }
            executed += 1;
        }
        if let Some(lineage) = &mut self.lineage {
            if store {
                source.store_outcomes(lineage.key(), &self.codes);
            }
            lineage.advance(executed);
        }
        self.obs
            .busy_us
            .add(busy_since.elapsed().as_micros() as u64);
        if replay {
            self.obs.replayed_instructions.add(executed);
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
        // zero registry lookups.
        let cycles = (self.last_retire - self.interval_start).max(1);
        self.bank.add(Event::Cycles, cycles);
        let interval_ipc = executed as f64 / cycles as f64;
        let obs = &self.obs;
        obs.instructions.add(executed);
        obs.cycles.add(cycles);
        obs.intervals.inc();
        if self.mode == Mode::LowPower {
            obs.cycles_low_power.add(cycles);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_trace::VecTrace;
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

    /// The binary search `CompletionRing::pending` replaced, kept as its
    /// reference: counts entries `k - len .. k` of a monotone ring held at
    /// `i % len` whose value is later than `t`.
    fn count_pending(ring: &[u64], k: u64, t: u64) -> u64 {
        let len = ring.len() as u64;
        let lo = k.saturating_sub(len);
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

    #[test]
    fn completion_ring_counts_pending_entries() {
        let mut ring = CompletionRing::new(4);
        for t in [10, 20, 30, 40] {
            ring.push(t);
        }
        assert_eq!(ring.pending(5), 4);
        assert_eq!(ring.pending(25), 2);
        assert_eq!(ring.pending(100), 0);
        assert_eq!(ring.pending(15), 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Pushes random non-decreasing times and, between pushes, asks
        /// for the pending count at times below and above the latest one:
        /// the cursor walk answers what the binary search answered, before
        /// the ring fills and after it wraps many times.
        #[test]
        fn completion_ring_matches_binary_search(
            capacity in 1usize..24,
            steps in proptest::prop::collection::vec(
                (0u64..4, 0usize..3, 0u64..40, 0u64..12),
                0..300,
            ),
        ) {
            let mut ring = CompletionRing::new(capacity);
            let mut reference = vec![0u64; capacity];
            let mut k = 0u64;
            let mut last = 0u64;
            for (rise, queries, back, ahead) in steps {
                proptest::prop_assert_eq!(
                    ring.oldest(),
                    (k >= capacity as u64).then(|| reference[(k % capacity as u64) as usize])
                );
                last += rise;
                ring.push(last);
                reference[(k % capacity as u64) as usize] = last;
                k += 1;
                for q in 0..queries as u64 {
                    // Alternate below and above the latest time.
                    let t = if q % 2 == 0 {
                        last.saturating_sub(back)
                    } else {
                        last + ahead
                    };
                    proptest::prop_assert_eq!(
                        ring.pending(t),
                        count_pending(&reference, k, t)
                    );
                }
            }
        }
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

    /// Everything an interval result carries, bit for bit.
    type Fingerprint = (Vec<u64>, u64, u64, u64, Mode);

    fn fingerprint(r: &IntervalResult) -> Fingerprint {
        let rates = r.snapshot.as_slice().iter().map(|v| v.to_bits()).collect();
        (
            rates,
            r.snapshot.cycles,
            r.instructions,
            r.energy.to_bits(),
            r.mode,
        )
    }

    /// `warm` then `window` in `interval`-instruction steps, alternating
    /// modes, on a fresh simulator of `cfg`.
    fn run(cfg: &CpuConfig, warm: &VecTrace, window: &VecTrace) -> (ClusterSim, Vec<Fingerprint>) {
        let mut sim = ClusterSim::new(cfg.clone());
        sim.warm_up(&mut warm.clone(), warm.len() as u64);
        let mut replay = window.clone();
        let mut out = Vec::new();
        for i in 0.. {
            sim.set_mode(if i % 3 == 1 {
                Mode::LowPower
            } else {
                Mode::HighPerf
            });
            match sim.run_interval(&mut replay, 1_500) {
                Some(r) => out.push(fingerprint(&r)),
                None => break,
            }
        }
        (sim, out)
    }

    /// A fresh plain copy of `archetype`'s first `warm + window`
    /// instructions at `seed`, as `(warm, window)`.
    fn plain(archetype: Archetype, seed: u64, warm: u64, window: u64) -> (VecTrace, VecTrace) {
        let mut gen = PhaseGenerator::new(archetype.center(), seed);
        let w = VecTrace::record(&mut gen, warm);
        (w, VecTrace::record(&mut gen, window))
    }

    /// Runs `warm` and `window` on `cfg`, recording their outcomes.
    fn annotate(cfg: &CpuConfig, warm: &mut VecTrace, window: &mut VecTrace) {
        let mut sim = ClusterSim::new(cfg.clone());
        sim.record_outcomes();
        sim.warm_up(warm, warm.len() as u64);
        while sim.run_interval(window, 4_000).is_some() {}
        warm.rewind();
        window.rewind();
        assert!(has_outcomes(warm) && has_outcomes(window));
    }

    fn has_outcomes(t: &VecTrace) -> bool {
        t.position().is_some_and(|at| at.outcome_key.is_some())
    }

    #[test]
    fn replay_on_the_recording_machine_is_exact() {
        let cfg = CpuConfig::skylake_scaled();
        let (mut warm, mut window) = plain(Archetype::Balanced, 3, 2_000, 12_000);
        annotate(&cfg, &mut warm, &mut window);
        assert!(has_outcomes(&warm) && has_outcomes(&window));
        let (pw, pwin) = plain(Archetype::Balanced, 3, 2_000, 12_000);
        let (full_sim, full) = run(&cfg, &pw, &pwin);
        let (replay_sim, replayed) = run(&cfg, &warm, &window);
        assert!(!full_sim.functional_skipped && replay_sim.functional_skipped);
        assert_eq!(full, replayed);
    }

    #[test]
    fn outcomes_of_another_geometry_are_refused() {
        let recorded_on = CpuConfig::skylake_scaled();
        let mut small_l1d = recorded_on.clone();
        small_l1d.l1d_bytes /= 2;
        let mut small_dtlb = recorded_on.clone();
        small_dtlb.dtlb_entries /= 4;
        let (mut warm, mut window) = plain(Archetype::MemBound, 5, 2_000, 9_000);
        annotate(&recorded_on, &mut warm, &mut window);
        let (pw, pwin) = plain(Archetype::MemBound, 5, 2_000, 9_000);
        for cfg in [small_l1d, small_dtlb] {
            let (sim, got) = run(&cfg, &warm, &window);
            assert!(!sim.functional_skipped, "outcomes from another machine");
            assert_eq!(got, run(&cfg, &pw, &pwin).1);
        }
    }

    #[test]
    fn outcomes_after_another_warm_up_are_refused() {
        let cfg = CpuConfig::skylake_scaled();
        let (mut warm, mut window) = plain(Archetype::Branchy, 8, 2_000, 9_000);
        annotate(&cfg, &mut warm, &mut window);
        // Same length, other instructions; then no warm-up at all.
        let (other_warm, _) = plain(Archetype::Branchy, 9, 2_000, 0);
        let (_, pwin) = plain(Archetype::Branchy, 8, 2_000, 9_000);
        let (sim, got) = run(&cfg, &other_warm, &window);
        assert!(!sim.functional_skipped);
        assert_eq!(got, run(&cfg, &other_warm, &pwin).1);
        let none = VecTrace::default();
        let (sim, got) = run(&cfg, &none, &window);
        assert!(!sim.functional_skipped);
        assert_eq!(got, run(&cfg, &none, &pwin).1);
    }

    #[test]
    fn traces_read_in_part_through_a_clone_or_after_a_plain_source_get_no_outcomes() {
        let cfg = CpuConfig::skylake_scaled();
        let (mut warm, mut window) = plain(Archetype::DepChain, 1, 1_000, 5_000);
        let mut sim = ClusterSim::new(cfg.clone());
        sim.record_outcomes();
        sim.warm_up(&mut warm, 1_000);
        sim.run_interval(&mut window, 2_000).unwrap();
        assert!(has_outcomes(&warm) && !has_outcomes(&window));

        let (warm, mut window) = plain(Archetype::DepChain, 1, 1_000, 5_000);
        let mut sim = ClusterSim::new(cfg.clone());
        sim.record_outcomes();
        sim.warm_up(&mut warm.clone(), 1_000);
        sim.run_interval(&mut window, 5_000).unwrap();
        assert!(!has_outcomes(&warm) && has_outcomes(&window));

        let (_, mut window) = plain(Archetype::DepChain, 1, 0, 5_000);
        let mut sim = ClusterSim::new(cfg);
        sim.record_outcomes();
        let mut gen = PhaseGenerator::new(Archetype::DepChain.center(), 1);
        sim.run_interval(&mut gen, 100).unwrap();
        sim.run_interval(&mut window, 5_000).unwrap();
        assert!(!has_outcomes(&window));
    }

    #[test]
    #[should_panic(expected = "cannot run the full path")]
    fn a_replaying_sim_panics_on_a_plain_source() {
        let cfg = CpuConfig::skylake_scaled();
        let (mut warm, mut window) = plain(Archetype::Balanced, 2, 1_000, 4_000);
        annotate(&cfg, &mut warm, &mut window);
        let mut sim = ClusterSim::new(cfg);
        sim.warm_up(&mut warm.clone(), warm.len() as u64);
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 2);
        sim.run_interval(&mut gen, 100);
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
