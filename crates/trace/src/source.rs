//! Streaming trace abstractions.
//!
//! Traces in the paper are multi-million-instruction recordings; the
//! experiment grid replays thousands of them. [`TraceSource`] is a pull
//! interface so that synthetic traces can be generated on the fly without
//! ever being materialized in memory. Windows that are replayed more than
//! once are recorded into a [`VecTrace`]: packed 24-byte records in shared
//! storage, so each replay is an O(1) clone that owns only its cursor.
//!
//! A recorded trace can also carry one opaque 16-bit outcome code per
//! instruction, stored by a consumer under a key of its choosing while it
//! reads the trace ([`TraceSource::store_outcomes`]) and read back through
//! [`TraceSource::position`] and [`TraceSource::next_with_outcome`]. The
//! simulator keeps its functional cache/TLB/branch outcomes there, so later
//! replays on the same machine run only its timing core.

use crate::instruction::Instruction;
use crate::isa::{byte_reg, reg_byte, BranchInfo, MemRef, OpClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pull-based source of dynamic instructions.
///
/// Implementors generate or replay one instruction per call. A source is
/// exhausted when [`TraceSource::next_instruction`] returns `None`; it must
/// keep returning `None` afterwards (fused semantics).
///
/// The trait is object-safe so heterogeneous workload corpora can be stored
/// as `Box<dyn TraceSource>`.
pub trait TraceSource {
    /// Produces the next dynamic instruction, or `None` when the trace ends.
    fn next_instruction(&mut self) -> Option<Instruction>;

    /// A hint of how many instructions remain, if known.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }

    /// Advances past up to `n` instructions without yielding them,
    /// returning how many were actually skipped (short at end of trace).
    ///
    /// The default pulls and discards one instruction at a time;
    /// random-access sources ([`VecTrace`]) override it with an O(1)
    /// cursor bump. The SPEC corpus build (`CorpusTelemetry::spec` in
    /// `psca-adapt`) calls it to fast-forward a generated workload from a
    /// scan checkpoint to each SimPoint's warm-up.
    fn skip(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        while skipped < n {
            if self.next_instruction().is_none() {
                break;
            }
            skipped += 1;
        }
        skipped
    }

    /// Where this source stands in a recorded trace, or `None` if it is
    /// not a recorded trace ([`VecTrace`] is the only one).
    fn position(&self) -> Option<TracePosition<'_>> {
        None
    }

    /// Produces the next instruction together with the outcome code stored
    /// for it.
    ///
    /// # Panics
    /// Panics if the source stores no outcomes: call it only after
    /// [`TraceSource::position`] reported an `outcome_key`.
    fn next_with_outcome(&mut self) -> Option<(Instruction, u16)> {
        panic!("this trace source stores no outcomes")
    }

    /// Stores one outcome code for each of the `codes.len()` instructions
    /// just read, as part of a run of codes stored under `key` from the
    /// start of the trace. When the run reaches the end of the trace, the
    /// trace carries the codes under `key`. Returns whether the codes were
    /// stored: only a recorded trace whose storage no clone shares can
    /// store them, and only in one unbroken run.
    fn store_outcomes(&mut self, _key: &[u64], _codes: &[u16]) -> bool {
        false
    }

    /// Caps this source at `n` instructions.
    fn take_insts(self, n: u64) -> Take<Self>
    where
        Self: Sized,
    {
        Take {
            inner: self,
            left: n,
        }
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_instruction(&mut self) -> Option<Instruction> {
        (**self).next_instruction()
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }

    fn skip(&mut self, n: u64) -> u64 {
        (**self).skip(n)
    }

    fn position(&self) -> Option<TracePosition<'_>> {
        (**self).position()
    }

    fn next_with_outcome(&mut self) -> Option<(Instruction, u16)> {
        (**self).next_with_outcome()
    }

    fn store_outcomes(&mut self, key: &[u64], codes: &[u16]) -> bool {
        (**self).store_outcomes(key, codes)
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_instruction(&mut self) -> Option<Instruction> {
        (**self).next_instruction()
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }

    fn skip(&mut self, n: u64) -> u64 {
        (**self).skip(n)
    }

    fn position(&self) -> Option<TracePosition<'_>> {
        (**self).position()
    }

    fn next_with_outcome(&mut self) -> Option<(Instruction, u16)> {
        (**self).next_with_outcome()
    }

    fn store_outcomes(&mut self, key: &[u64], codes: &[u16]) -> bool {
        (**self).store_outcomes(key, codes)
    }
}

/// An in-memory, replayable trace.
///
/// Instructions are stored packed, 24 bytes each instead of the 56 of an
/// [`Instruction`], in storage shared through [`Arc`]: a clone copies a
/// refcount and a replay cursor, never the instructions. Every consumer
/// that needs its own replay of a recorded SimPoint window (closed-loop
/// runs, paired-mode dataset generation, fleet dies) just clones.
/// [`TraceSource::skip`] is an O(1) cursor bump.
///
/// Each recording gets an id that is unique in the process and shared by
/// its clones ([`TracePosition::trace`]), and may carry stored outcome
/// codes ([`TraceSource::store_outcomes`]) in the records' spare bytes.
/// The empty `Default` trace has id 0, which no recording gets.
#[derive(Debug, Clone, Default)]
pub struct VecTrace {
    /// The `Vec` the recording filled, shared as is: converting it to an
    /// `Arc<[_]>` would copy every record into a second allocation.
    records: Arc<Vec<Packed>>,
    /// Instructions carrying both a memory reference and a branch outcome
    /// (ill-formed, but representable); their records index into this.
    spills: Arc<[Instruction]>,
    pos: usize,
    id: u64,
    /// Key the records' outcome codes were stored under, if any.
    outcome_key: Option<Arc<[u64]>>,
    /// A run of outcome codes being stored: its key and how many leading
    /// records it has covered.
    storing: Option<(Arc<[u64]>, usize)>,
}

/// A cursor into a recorded trace, as reported by
/// [`TraceSource::position`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePosition<'a> {
    /// Identity of the recorded instructions: unique per recording within
    /// the process, shared by every clone of it.
    pub trace: u64,
    /// Instructions before the cursor.
    pub pos: u64,
    /// The key the trace's outcome codes were stored under, if it stores
    /// any.
    pub outcome_key: Option<&'a [u64]>,
}

/// Source of [`VecTrace`] ids. Ids are compared only within a process.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// [`Packed::flags`] bits.
const HAS_MEM: u8 = 1;
const HAS_BRANCH: u8 = 1 << 1;
const TAKEN: u8 = 1 << 2;
const SPILLED: u8 = 1 << 3;

/// One [`Instruction`] in 24 bytes.
///
/// `payload` is the memory address for memory ops, the branch target for
/// branches, and the index into [`VecTrace::spills`] for spilled records.
/// `outcome` is the stored outcome code (0 until one is stored); it fills
/// what would otherwise be padding. `repr(C)` keeps the byte fields at
/// the offsets they had before `outcome` existed: letting the compiler
/// move `outcome` ahead of them measured about 4 % slower simulation.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Packed {
    pc: u64,
    payload: u64,
    op: u8,
    dst: u8,
    src0: u8,
    src1: u8,
    size: u8,
    flags: u8,
    outcome: u16,
}

impl Packed {
    fn encode(inst: Instruction, spills: &mut Vec<Instruction>) -> Packed {
        let mut p = Packed {
            pc: inst.pc,
            payload: 0,
            op: inst.op.index() as u8,
            dst: reg_byte(inst.dst),
            src0: reg_byte(inst.srcs[0]),
            src1: reg_byte(inst.srcs[1]),
            size: 0,
            flags: 0,
            outcome: 0,
        };
        match (inst.mem, inst.branch) {
            (None, None) => {}
            (Some(m), None) => {
                p.payload = m.addr;
                p.size = m.size;
                p.flags = HAS_MEM;
            }
            (None, Some(b)) => {
                p.payload = b.target;
                p.flags = HAS_BRANCH | if b.taken { TAKEN } else { 0 };
            }
            (Some(_), Some(_)) => {
                p.payload = spills.len() as u64;
                p.flags = SPILLED;
                spills.push(inst);
            }
        }
        p
    }

    #[inline]
    fn decode(self, spills: &[Instruction]) -> Instruction {
        if self.flags & SPILLED != 0 {
            return spills[self.payload as usize];
        }
        // Register bytes come from `reg_byte`, so they always decode.
        let reg = |b| byte_reg(b).flatten();
        Instruction {
            op: OpClass::ALL[self.op as usize],
            dst: reg(self.dst),
            srcs: [reg(self.src0), reg(self.src1)],
            mem: (self.flags & HAS_MEM != 0).then_some(MemRef::new(self.payload, self.size)),
            branch: (self.flags & HAS_BRANCH != 0)
                .then_some(BranchInfo::new(self.flags & TAKEN != 0, self.payload)),
            pc: self.pc,
        }
    }
}

impl VecTrace {
    /// Creates a trace over the given instructions.
    pub fn new(insts: Vec<Instruction>) -> VecTrace {
        VecTrace::pack(insts.len(), insts)
    }

    /// Records up to `n` instructions from `source` into a replayable trace.
    pub fn record<S: TraceSource>(source: &mut S, n: u64) -> VecTrace {
        let trace = VecTrace::pack(
            n.min(1 << 22) as usize,
            (0..n).map_while(|_| source.next_instruction()),
        );
        psca_obs::counter("trace.instructions_recorded").add(trace.len() as u64);
        trace
    }

    fn pack(capacity: usize, insts: impl IntoIterator<Item = Instruction>) -> VecTrace {
        let mut records = Vec::with_capacity(capacity);
        let mut spills = Vec::new();
        for inst in insts {
            records.push(Packed::encode(inst, &mut spills));
        }
        VecTrace {
            records: Arc::new(records),
            spills: spills.into(),
            pos: 0,
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            outcome_key: None,
            storing: None,
        }
    }

    /// Number of instructions in the trace (independent of replay position).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Resets the replay cursor to the beginning.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }

    /// The `i`-th recorded instruction (independent of replay position).
    pub fn get(&self, i: usize) -> Option<Instruction> {
        self.records.get(i).map(|p| p.decode(&self.spills))
    }
}

impl TraceSource for VecTrace {
    #[inline]
    fn next_instruction(&mut self) -> Option<Instruction> {
        let inst = self.get(self.pos);
        if inst.is_some() {
            self.pos += 1;
        }
        inst
    }

    fn position(&self) -> Option<TracePosition<'_>> {
        Some(TracePosition {
            trace: self.id,
            pos: self.pos as u64,
            outcome_key: self.outcome_key.as_deref(),
        })
    }

    #[inline]
    fn next_with_outcome(&mut self) -> Option<(Instruction, u16)> {
        assert!(self.outcome_key.is_some(), "this trace stores no outcomes");
        let p = self.records.get(self.pos)?;
        self.pos += 1;
        Some((p.decode(&self.spills), p.outcome))
    }

    fn store_outcomes(&mut self, key: &[u64], codes: &[u16]) -> bool {
        let Some(start) = self.pos.checked_sub(codes.len()) else {
            return false;
        };
        if start == 0 {
            self.storing = Some((key.into(), 0));
        }
        let run = match &self.storing {
            Some((k, covered)) if **k == *key && *covered == start => k.clone(),
            _ => {
                self.storing = None;
                return false;
            }
        };
        let Some(records) = Arc::get_mut(&mut self.records) else {
            self.storing = None;
            return false;
        };
        for (p, &code) in records[start..self.pos].iter_mut().zip(codes) {
            p.outcome = code;
        }
        // The codes under the old key, if any, are being overwritten.
        self.outcome_key = None;
        if self.pos == records.len() {
            self.outcome_key = Some(run);
            self.storing = None;
        } else {
            self.storing = Some((run, self.pos));
        }
        true
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.records.len() - self.pos) as u64)
    }

    fn skip(&mut self, n: u64) -> u64 {
        let left = (self.records.len() - self.pos) as u64;
        let skipped = n.min(left);
        self.pos += skipped as usize;
        skipped
    }
}

/// Adapter returned by [`TraceSource::take_insts`].
#[derive(Debug, Clone)]
pub struct Take<S> {
    inner: S,
    left: u64,
}

impl<S: TraceSource> TraceSource for Take<S> {
    fn next_instruction(&mut self) -> Option<Instruction> {
        if self.left == 0 {
            return None;
        }
        let inst = self.inner.next_instruction();
        if inst.is_some() {
            self.left -= 1;
        } else {
            self.left = 0;
        }
        inst
    }

    fn remaining_hint(&self) -> Option<u64> {
        match self.inner.remaining_hint() {
            Some(r) => Some(r.min(self.left)),
            None => Some(self.left),
        }
    }

    fn skip(&mut self, n: u64) -> u64 {
        let skipped = self.inner.skip(n.min(self.left));
        self.left -= skipped;
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Reg, NUM_ARCH_REGS};
    use proptest::prelude::*;

    fn nops(n: usize) -> Vec<Instruction> {
        (0..n)
            .map(|i| Instruction::alu(OpClass::IntAlu, None, [None, None]).at_pc(i as u64 * 4))
            .collect()
    }

    #[test]
    fn vec_trace_replays_in_order_and_fuses() {
        let mut t = VecTrace::new(nops(3));
        assert_eq!(t.remaining_hint(), Some(3));
        assert_eq!(t.next_instruction().unwrap().pc, 0);
        assert_eq!(t.next_instruction().unwrap().pc, 4);
        assert_eq!(t.next_instruction().unwrap().pc, 8);
        assert!(t.next_instruction().is_none());
        assert!(t.next_instruction().is_none());
        t.rewind();
        assert_eq!(t.next_instruction().unwrap().pc, 0);
    }

    #[test]
    fn take_caps_length() {
        let mut t = VecTrace::new(nops(10)).take_insts(4);
        let mut n = 0;
        while t.next_instruction().is_some() {
            n += 1;
        }
        assert_eq!(n, 4);
        assert_eq!(t.remaining_hint(), Some(0));
    }

    #[test]
    fn take_on_short_source_stops_early() {
        let mut t = VecTrace::new(nops(2)).take_insts(100);
        assert!(t.next_instruction().is_some());
        assert!(t.next_instruction().is_some());
        assert!(t.next_instruction().is_none());
    }

    #[test]
    fn record_captures_prefix() {
        let mut src = VecTrace::new(nops(10));
        let rec = VecTrace::record(&mut src, 6);
        assert_eq!(rec.len(), 6);
        assert_eq!(src.remaining_hint(), Some(4));
    }

    #[test]
    fn skip_advances_without_yielding() {
        let mut t = VecTrace::new(nops(10));
        assert_eq!(t.skip(3), 3);
        assert_eq!(t.next_instruction().unwrap().pc, 12);
        assert_eq!(t.skip(100), 6, "short skip at end of trace");
        assert!(t.next_instruction().is_none());

        // Take decrements its budget through skip.
        let mut capped = VecTrace::new(nops(10)).take_insts(4);
        assert_eq!(capped.skip(3), 3);
        assert!(capped.next_instruction().is_some());
        assert!(capped.next_instruction().is_none());

        // The O(1) override is reachable through a trait object.
        let mut b: Box<dyn TraceSource> = Box::new(VecTrace::new(nops(5)));
        assert_eq!(b.skip(4), 4);
        assert_eq!(b.remaining_hint(), Some(1));
    }

    #[test]
    fn boxed_dyn_source_works() {
        let mut b: Box<dyn TraceSource> = Box::new(VecTrace::new(nops(2)));
        assert!(b.next_instruction().is_some());
        assert_eq!(b.remaining_hint(), Some(1));
    }

    /// Every register operand, `None` included.
    fn all_regs() -> impl Iterator<Item = Option<Reg>> {
        (0..NUM_ARCH_REGS)
            .map(|i| Some(Reg::from_index(i)))
            .chain([None])
    }

    /// `shape`: 0 plain, 1 memory op, 2 branch, 3 both (spilled).
    fn with_shape(
        mut inst: Instruction,
        shape: u8,
        payload: u64,
        size: u8,
        taken: bool,
    ) -> Instruction {
        inst.mem = (shape & 1 != 0).then_some(MemRef::new(payload, size));
        inst.branch = (shape & 2 != 0).then_some(BranchInfo::new(taken, payload ^ 0x5555));
        inst
    }

    fn arb_reg() -> impl Strategy<Value = Option<Reg>> {
        (0..=NUM_ARCH_REGS).prop_map(|i| (i < NUM_ARCH_REGS).then(|| Reg::from_index(i)))
    }

    fn arb_inst() -> impl Strategy<Value = Instruction> {
        (
            0..OpClass::ALL.len(),
            (arb_reg(), arb_reg(), arb_reg()),
            (0u8..4, any::<u64>(), any::<u8>(), any::<bool>()),
            any::<u64>(),
        )
            .prop_map(|(op, (dst, s0, s1), (shape, payload, size, taken), pc)| {
                let inst = Instruction {
                    op: OpClass::ALL[op],
                    dst,
                    srcs: [s0, s1],
                    mem: None,
                    branch: None,
                    pc,
                };
                with_shape(inst, shape, payload, size, taken)
            })
    }

    fn replay(t: &mut VecTrace) -> Vec<Instruction> {
        std::iter::from_fn(|| t.next_instruction()).collect()
    }

    #[test]
    fn packed_record_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Packed>(), 24);
    }

    #[test]
    fn every_op_register_and_payload_shape_roundtrips() {
        let mut insts = Vec::new();
        for (i, op) in OpClass::ALL.into_iter().enumerate() {
            for (j, reg) in all_regs().enumerate() {
                for shape in 0..4 {
                    let inst = Instruction {
                        op,
                        dst: reg,
                        srcs: [reg, all_regs().nth((j + 1) % 65).unwrap()],
                        mem: None,
                        branch: None,
                        pc: u64::MAX - (i * 1000 + j) as u64,
                    };
                    insts.push(with_shape(
                        inst,
                        shape,
                        u64::MAX - j as u64,
                        j as u8,
                        j % 2 == 0,
                    ));
                }
            }
        }
        let mut t = VecTrace::new(insts.clone());
        assert_eq!(t.len(), insts.len());
        assert_eq!(
            t.spills.len(),
            insts.len() / 4,
            "only mem+branch records spill"
        );
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(t.get(i).as_ref(), Some(inst));
        }
        assert_eq!(t.get(insts.len()), None);
        assert_eq!(replay(&mut t), insts);
    }

    #[test]
    fn clones_share_storage_and_own_their_cursor() {
        let mut a = VecTrace::new(nops(5));
        a.skip(2);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.records, &b.records));
        assert!(Arc::ptr_eq(&a.spills, &b.spills));
        assert_eq!(b.next_instruction().unwrap().pc, 8);
        assert_eq!(b.next_instruction().unwrap().pc, 12);
        assert_eq!(
            a.next_instruction().unwrap().pc,
            8,
            "original cursor unmoved"
        );
        b.rewind();
        assert_eq!(a.remaining_hint(), Some(2));
        assert_eq!(b.remaining_hint(), Some(5));
    }

    #[test]
    fn stored_outcomes_replay_with_their_instructions() {
        let mut t = VecTrace::new(nops(4));
        let at = t.position().unwrap();
        assert_eq!((at.pos, at.outcome_key), (0, None));
        assert_eq!(
            t.clone().position().unwrap().trace,
            at.trace,
            "clones share the id"
        );
        assert_ne!(VecTrace::new(nops(4)).position().unwrap().trace, at.trace);

        // One unbroken run from the start, in two steps, by the only holder.
        t.skip(3);
        assert!(t.store_outcomes(&[7, 9], &[10, 11, 12]));
        assert_eq!(t.position().unwrap().outcome_key, None, "not yet whole");
        t.skip(1);
        assert!(t.store_outcomes(&[7, 9], &[13]));
        assert_eq!(t.position().unwrap().outcome_key, Some(&[7, 9][..]));

        t.rewind();
        assert_eq!(t.next_with_outcome().map(|(i, o)| (i.pc, o)), Some((0, 10)));
        assert_eq!(t.next_instruction().unwrap().pc, 4, "one cursor for both");
        assert_eq!(t.next_with_outcome().map(|(i, o)| (i.pc, o)), Some((8, 12)));
        t.skip(1);
        assert_eq!(t.next_with_outcome(), None);
    }

    #[test]
    fn outcomes_are_stored_only_in_one_run_by_the_only_holder() {
        // A shared store is refused, and so is a clone's.
        let mut t = VecTrace::new(nops(2));
        let clone = t.clone();
        t.skip(2);
        assert!(!t.store_outcomes(&[1], &[5, 6]));
        drop(clone);
        assert!(t.store_outcomes(&[1], &[5, 6]));
        assert_eq!(t.position().unwrap().outcome_key, Some(&[1][..]));

        // A run must start at the first instruction, keep its key and
        // leave no gap; a new run drops the old key at its first store.
        let mut t = VecTrace::new(nops(4));
        assert!(!t.store_outcomes(&[1], &[5]), "more codes than read");
        t.skip(2);
        assert!(!t.store_outcomes(&[1], &[5]), "does not start at 0");
        t.rewind();
        t.skip(1);
        assert!(t.store_outcomes(&[1], &[5]));
        t.skip(1);
        assert!(!t.store_outcomes(&[2], &[6]), "another key");
        t.rewind();
        t.skip(1);
        assert!(t.store_outcomes(&[1], &[5]));
        t.skip(2);
        assert!(!t.store_outcomes(&[1], &[7]), "a gap");
        t.rewind();
        t.skip(4);
        assert!(t.store_outcomes(&[3], &[1, 2, 3, 4]));
        t.rewind();
        t.skip(1);
        assert!(t.store_outcomes(&[4], &[9]));
        assert_eq!(t.position().unwrap().outcome_key, None);
    }

    #[test]
    #[should_panic(expected = "stores no outcomes")]
    fn plain_traces_have_no_outcomes_to_replay() {
        let _ = VecTrace::new(nops(2)).next_with_outcome();
    }

    proptest! {
        #[test]
        fn vec_trace_replays_exactly_its_input(insts in prop::collection::vec(arb_inst(), 0..96)) {
            let mut t = VecTrace::new(insts.clone());
            prop_assert_eq!(t.len(), insts.len());
            prop_assert_eq!(replay(&mut t), insts.clone());
            prop_assert!(t.next_instruction().is_none());
            let mut rec = VecTrace::record(&mut VecTrace::new(insts.clone()), insts.len() as u64 + 1);
            prop_assert_eq!(replay(&mut rec), insts);
        }

        #[test]
        fn cursor_matches_a_slice_index(
            insts in prop::collection::vec(arb_inst(), 0..24),
            ops in prop::collection::vec((0u8..3, 0u64..32), 0..48),
        ) {
            let mut t = VecTrace::new(insts.clone());
            let mut pos = 0usize;
            for (kind, n) in ops {
                match kind {
                    0 => {
                        let skipped = t.skip(n);
                        let expect = (n as usize).min(insts.len() - pos);
                        prop_assert_eq!(skipped, expect as u64);
                        pos += expect;
                    }
                    1 => {
                        t.rewind();
                        pos = 0;
                    }
                    _ => {
                        prop_assert_eq!(t.next_instruction(), insts.get(pos).copied());
                        pos = (pos + 1).min(insts.len());
                    }
                }
                prop_assert_eq!(t.remaining_hint(), Some((insts.len() - pos) as u64));
            }
        }
    }
}
