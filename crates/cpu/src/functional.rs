//! The functional pass: the order-only half of the core.
//!
//! Caches, TLBs, the gshare predictor, the BTB and the stream prefetcher
//! update in program order and never read a cycle count or the mode, so
//! what they do to an instruction is a pure function of the machine's
//! [`Functional`] geometry and the instructions before it. [`Functional`]
//! runs them and packs each instruction's result into a 15-bit
//! [`Outcome`]; the timing core in [`crate::sim`] turns an outcome into
//! latencies and telemetry events. The timing core takes each part of the
//! outcome from an [`OutcomeSource`] at the pipeline stage that needs it:
//! [`Live`] runs this functional pass (a plain simulation), [`Stored`]
//! reads a code an earlier run of the same machine stored with the trace
//! (a replay, which skips the functional pass).
//!
//! [`Lineage`] is what makes skipping safe: it names the exact functional
//! state a simulator is in (machine geometry, then every recorded trace it
//! has read and how far), and stored outcomes are used only under a key
//! equal to it.

use crate::bpred::{Btb, GsharePredictor};
use crate::cache::Cache;
use crate::config::CpuConfig;
use psca_trace::{BranchInfo, OpClass, TracePosition};

/// Front-end path of an instruction that starts a new instruction line:
/// the µop cache hit.
pub(crate) const FETCH_UOP_CACHE: u16 = 1;
/// The µop cache missed and the L1I hit.
pub(crate) const FETCH_L1I: u16 = 2;
/// The L1I missed; [`Outcome::fetch_lower`] says where the line came from.
pub(crate) const FETCH_BEYOND_L1I: u16 = 3;
/// The instruction starts a new page and the ITLB hit.
pub(crate) const ITLB_HIT: u16 = 1;
/// The instruction starts a new page and the ITLB missed.
pub(crate) const ITLB_MISS: u16 = 2;
/// Below L1: the L2 hit.
pub(crate) const LOWER_L2: u16 = 0;
/// The L2 missed and the LLC hit.
pub(crate) const LOWER_LLC: u16 = 1;
/// The L2 and the LLC missed.
pub(crate) const LOWER_MEMORY: u16 = 2;
/// The L2 miss evicted a clean line.
pub(crate) const EVICT_SILENT: u16 = 1;
/// The L2 miss evicted a dirty line.
pub(crate) const EVICT_WRITEBACK: u16 = 2;

// Field layout of an outcome code. A "lower" field is 4 bits: the level
// below L1 that served the line (bits 0–1) and the kind of L2 eviction
// the fill caused (bits 2–3).
const FETCH_MASK: u16 = 0b11;
const FETCH_LOWER_SHIFT: u32 = 2;
const ITLB_SHIFT: u32 = 6;
const DTLB_MISS: u16 = 1 << 8;
const L1D_MISS: u16 = 1 << 9;
const DATA_LOWER_SHIFT: u32 = 10;
const BRANCH_MISS: u16 = 1 << 14;

/// What the functional structures did for one instruction, in 15 bits:
///
/// | bits | field |
/// |---|---|
/// | 0–1 | front-end path: same line (0), µop cache, L1I, beyond L1I |
/// | 2–5 | beyond L1I: serving level and L2 eviction of the fetch |
/// | 6–7 | ITLB: same page (0), hit, miss |
/// | 8 | DTLB miss (a page walk) |
/// | 9 | L1D miss |
/// | 10–13 | on an L1D miss: serving level and L2 eviction |
/// | 14 | conditional branch mispredicted, or indirect/jump BTB miss |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outcome(u16);

impl Outcome {
    /// The outcome a stored code describes.
    #[inline]
    pub(crate) fn from_code(code: u16) -> Outcome {
        Outcome(code)
    }

    /// Front-end path: 0 when the instruction stays on the previous
    /// instruction's line, else a `FETCH_*` constant.
    #[inline]
    pub(crate) fn fetch(self) -> u16 {
        self.0 & FETCH_MASK
    }

    /// The lower-level field of a [`FETCH_BEYOND_L1I`] fetch.
    #[inline]
    pub(crate) fn fetch_lower(self) -> u16 {
        (self.0 >> FETCH_LOWER_SHIFT) & 0xf
    }

    /// ITLB result: 0 when no new page was entered, else `ITLB_*`.
    #[inline]
    pub(crate) fn itlb(self) -> u16 {
        (self.0 >> ITLB_SHIFT) & 0b11
    }

    /// Whether the data access missed the DTLB.
    #[inline]
    pub(crate) fn dtlb_miss(self) -> bool {
        self.0 & DTLB_MISS != 0
    }

    /// Whether the data access missed the L1D.
    #[inline]
    pub(crate) fn l1d_miss(self) -> bool {
        self.0 & L1D_MISS != 0
    }

    /// The lower-level field of an L1D miss.
    #[inline]
    pub(crate) fn data_lower(self) -> u16 {
        (self.0 >> DATA_LOWER_SHIFT) & 0xf
    }

    /// Whether the branch mispredicted (conditional) or missed the BTB
    /// (indirect branch, jump).
    #[inline]
    pub(crate) fn branch_miss(self) -> bool {
        self.0 & BRANCH_MISS != 0
    }
}

/// The serving level (`LOWER_*`) of a lower-level field.
#[inline]
pub(crate) fn lower_level(lower: u16) -> u16 {
    lower & 0b11
}

/// The L2 eviction (0 or `EVICT_*`) of a lower-level field.
#[inline]
pub(crate) fn lower_eviction(lower: u16) -> u16 {
    lower >> 2
}

/// The order-only structures of the core and the cursors they key on.
#[derive(Debug, Clone)]
pub(crate) struct Functional {
    l1i: Cache,
    uopc: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    /// The TLBs: fully associative, so one-set caches over 4-KiB pages.
    itlb: Cache,
    dtlb: Cache,
    bpred: GsharePredictor,
    btb: Btb,
    stream_prefetcher: bool,
    last_pc_line: u64,
    last_pc_page: u64,
    last_dline: u64,
}

impl Functional {
    /// Cold structures of `cfg`'s geometry.
    pub(crate) fn new(cfg: &CpuConfig) -> Functional {
        Functional {
            l1i: Cache::new(cfg.l1i_bytes, cfg.l1i_ways),
            uopc: Cache::new(cfg.uop_cache_bytes, cfg.uop_cache_ways),
            l1d: Cache::new(cfg.l1d_bytes, cfg.l1d_ways),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways),
            llc: Cache::new(cfg.llc_bytes, cfg.llc_ways),
            itlb: Cache::new(64 * cfg.itlb_entries, cfg.itlb_entries),
            dtlb: Cache::new(64 * cfg.dtlb_entries, cfg.dtlb_entries),
            bpred: GsharePredictor::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_bits),
            stream_prefetcher: cfg.stream_prefetcher,
            last_pc_line: u64::MAX,
            last_pc_page: u64::MAX,
            last_dline: u64::MAX,
        }
    }

    /// µop cache, L1I and below on the first instruction of a new line;
    /// the ITLB on the first of a new page.
    #[inline(always)]
    fn front_end(&mut self, pc: u64) -> u16 {
        let line = pc >> 6;
        if line == self.last_pc_line {
            return 0;
        }
        self.last_pc_line = line;
        let mut code = if self.uopc.access(line, false).hit {
            FETCH_UOP_CACHE
        } else if self.l1i.access(line, false).hit {
            FETCH_L1I
        } else {
            FETCH_BEYOND_L1I | self.lower(line, false) << FETCH_LOWER_SHIFT
        };
        let page = pc >> 12;
        if page != self.last_pc_page {
            self.last_pc_page = page;
            let itlb = if self.itlb.access(page, false).hit {
                ITLB_HIT
            } else {
                ITLB_MISS
            };
            code |= itlb << ITLB_SHIFT;
        }
        code
    }

    /// The L2, then the LLC on an L2 miss: a lower-level field.
    fn lower(&mut self, line: u64, is_write: bool) -> u16 {
        let l2 = self.l2.access(line, is_write);
        if l2.hit {
            return LOWER_L2;
        }
        let eviction = match l2.eviction {
            None => 0,
            Some((_, false)) => EVICT_SILENT,
            Some((_, true)) => EVICT_WRITEBACK,
        };
        let level = if self.llc.access(line, is_write).hit {
            LOWER_LLC
        } else {
            LOWER_MEMORY
        };
        eviction << 2 | level
    }

    /// DTLB, stream prefetch, then L1D and below for a load or store.
    #[inline(always)]
    fn data(&mut self, addr: u64, is_write: bool) -> u16 {
        let mut code = if self.dtlb.access(addr >> 12, false).hit {
            0
        } else {
            DTLB_MISS
        };
        let line = addr >> 6;
        if self.stream_prefetcher && line != self.last_dline {
            // Idealized next-line stream prefetch: on the first touch of
            // each line, install its successor silently (no events, no
            // timing). This is what keeps sequential streams from being
            // compulsory-miss bound, as hardware stream prefetchers do.
            self.last_dline = line;
            let _ = self.l1d.access(line + 1, false);
            let _ = self.llc.access(line + 1, false);
        }
        if !self.l1d.access(line, is_write).hit {
            code |= L1D_MISS | self.lower(line, is_write) << DATA_LOWER_SHIFT;
        }
        code
    }

    /// Trains the predictor that `op` consults; true on a mispredict or
    /// BTB miss.
    #[inline]
    fn branch_missed(&mut self, op: OpClass, pc: u64, b: BranchInfo) -> bool {
        match op {
            OpClass::CondBranch => !self.bpred.predict_and_update(pc, b.taken),
            OpClass::IndirectBranch | OpClass::Jump => !self.btb.lookup_and_update(pc, b.target),
            _ => false,
        }
    }
}

/// Where the timing core takes an instruction's functional outcome from,
/// one part at a time, at the stage that needs it: the front end first,
/// then the data path, then branch resolution, the program order
/// [`Functional`] updates in. Each call returns an outcome whose other
/// fields the caller ignores.
pub(crate) trait OutcomeSource {
    /// The front-end fields, for the instruction at `pc`.
    fn front_end(&mut self, functional: &mut Functional, pc: u64) -> Outcome;
    /// The data-path fields, for a load or store of `addr`.
    fn data(&mut self, functional: &mut Functional, addr: u64, is_write: bool) -> Outcome;
    /// Whether the branch `op` at `pc` mispredicted or missed the BTB.
    fn branch_missed(
        &mut self,
        functional: &mut Functional,
        op: OpClass,
        pc: u64,
        b: BranchInfo,
    ) -> bool;
}

/// The functional pass itself: each part runs the structures and is
/// collected into the instruction's code.
#[derive(Debug, Default)]
pub(crate) struct Live(u16);

impl Live {
    /// The instruction's code, once the timing core has taken every part.
    pub(crate) fn code(&self) -> u16 {
        self.0
    }
}

impl OutcomeSource for Live {
    #[inline(always)]
    fn front_end(&mut self, functional: &mut Functional, pc: u64) -> Outcome {
        let code = functional.front_end(pc);
        self.0 |= code;
        Outcome(code)
    }

    #[inline(always)]
    fn data(&mut self, functional: &mut Functional, addr: u64, is_write: bool) -> Outcome {
        let code = functional.data(addr, is_write);
        self.0 |= code;
        Outcome(code)
    }

    #[inline(always)]
    fn branch_missed(
        &mut self,
        functional: &mut Functional,
        op: OpClass,
        pc: u64,
        b: BranchInfo,
    ) -> bool {
        let missed = functional.branch_missed(op, pc, b);
        if missed {
            self.0 |= BRANCH_MISS;
        }
        missed
    }
}

/// A code stored by an earlier run: the functional structures are not
/// touched.
#[derive(Debug)]
pub(crate) struct Stored(pub(crate) Outcome);

impl OutcomeSource for Stored {
    #[inline(always)]
    fn front_end(&mut self, _: &mut Functional, _: u64) -> Outcome {
        self.0
    }

    #[inline(always)]
    fn data(&mut self, _: &mut Functional, _: u64, _: bool) -> Outcome {
        self.0
    }

    #[inline(always)]
    fn branch_missed(&mut self, _: &mut Functional, _: OpClass, _: u64, _: BranchInfo) -> bool {
        self.0.branch_miss()
    }
}

/// The configuration fields [`Functional`] depends on, in a fixed order.
fn geometry_words(cfg: &CpuConfig) -> [u64; GEOMETRY_WORDS] {
    [
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
        cfg.gshare_bits as u64,
        cfg.btb_bits as u64,
        cfg.stream_prefetcher as u64,
    ]
}

const GEOMETRY_WORDS: usize = 15;

/// The exact history a simulator's functional state is a function of: the
/// functional geometry it was built with, then `(trace id, instructions
/// read)` for every recorded trace it has read since, oldest first. The
/// last pair is the trace being read.
///
/// Outcomes stored with a trace carry the lineage *before* the trace's
/// first instruction as their key, so a replaying simulator may use them
/// only if it is in exactly the state the recording simulator was in.
/// There is no hashing: keys compare word for word.
#[derive(Debug, Clone)]
pub(crate) struct Lineage(Vec<u64>);

impl Lineage {
    /// The lineage of a fresh simulator of `cfg`.
    pub(crate) fn new(cfg: &CpuConfig) -> Lineage {
        Lineage(geometry_words(cfg).to_vec())
    }

    /// Follows the simulator onto the recorded trace at `at`, before it
    /// reads from there. Returns the key outcomes stored with that trace
    /// must carry to describe this simulator, or `None` when the lineage
    /// is lost: the simulator is entering a trace in the middle, not where
    /// it left it.
    pub(crate) fn enter(&mut self, at: TracePosition<'_>) -> Option<&[u64]> {
        let n = self.0.len();
        let resuming = n > GEOMETRY_WORDS && self.0[n - 2] == at.trace && self.0[n - 1] == at.pos;
        if !resuming {
            if at.pos != 0 {
                return None;
            }
            self.0.extend([at.trace, 0]);
        }
        Some(self.key())
    }

    /// Records that `n` more instructions of the entered trace were read.
    pub(crate) fn advance(&mut self, n: u64) {
        *self.0.last_mut().expect("an entered trace") += n;
    }

    /// The key of the entered trace: the lineage at its first
    /// instruction.
    pub(crate) fn key(&self) -> &[u64] {
        &self.0[..self.0.len() - 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(trace: u64, pos: u64) -> TracePosition<'static> {
        TracePosition {
            trace,
            pos,
            outcome_key: None,
        }
    }

    #[test]
    fn outcome_fields_round_trip() {
        let code = FETCH_BEYOND_L1I
            | (EVICT_WRITEBACK << 2 | LOWER_MEMORY) << FETCH_LOWER_SHIFT
            | ITLB_MISS << ITLB_SHIFT
            | DTLB_MISS
            | L1D_MISS
            | (EVICT_SILENT << 2 | LOWER_LLC) << DATA_LOWER_SHIFT
            | BRANCH_MISS;
        let o = Outcome::from_code(code);
        assert_eq!(o.0, code);
        assert!(code < 1 << 15);
        assert_eq!(o.fetch(), FETCH_BEYOND_L1I);
        assert_eq!(lower_level(o.fetch_lower()), LOWER_MEMORY);
        assert_eq!(lower_eviction(o.fetch_lower()), EVICT_WRITEBACK);
        assert_eq!(o.itlb(), ITLB_MISS);
        assert!(o.dtlb_miss() && o.l1d_miss() && o.branch_miss());
        assert_eq!(lower_level(o.data_lower()), LOWER_LLC);
        assert_eq!(lower_eviction(o.data_lower()), EVICT_SILENT);
        let quiet = Outcome::from_code(0);
        assert_eq!((quiet.fetch(), quiet.itlb()), (0, 0));
        assert!(!quiet.dtlb_miss() && !quiet.l1d_miss() && !quiet.branch_miss());
    }

    #[test]
    fn lineage_keys_name_geometry_and_every_read() {
        let cfg = CpuConfig::skylake_scaled();
        let mut l = Lineage::new(&cfg);
        let fresh = geometry_words(&cfg).to_vec();
        assert_eq!(l.enter(at(7, 0)), Some(&fresh[..]));
        l.advance(100);
        // Resuming where it left off keeps the same key.
        assert_eq!(l.enter(at(7, 100)), Some(&fresh[..]));
        l.advance(20);
        let mut after = fresh.clone();
        after.extend([7, 120]);
        assert_eq!(l.enter(at(9, 0)), Some(&after[..]));
        assert_eq!(l.key(), &after[..]);
        // Entering a trace mid-way (or after a skip) loses the lineage.
        assert_eq!(l.enter(at(9, 5)), None);

        let mut small = cfg.clone();
        small.dtlb_entries /= 2;
        let mut other = Lineage::new(&small);
        assert_ne!(other.enter(at(7, 0)), Some(&fresh[..]));
    }
}
