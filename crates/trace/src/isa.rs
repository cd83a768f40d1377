//! ISA-level types: operation classes, architectural registers, memory
//! references, and branch outcome records.

use std::fmt;

/// Number of architectural registers modeled (32 integer + 32 floating point).
///
/// The paper's mode-switch microcode transfers "up-to 32" register
/// dependencies (§3); our register file is sized to make that worst case
/// reachable per bank.
pub const NUM_ARCH_REGS: usize = 64;

/// Coarse operation class of a dynamic instruction.
///
/// Each class carries a default execution latency used by the dataflow
/// scheduler in `psca-cpu`. The classes are granular enough to produce
/// distinct event-counter signatures for the workload archetypes of
/// `psca-workloads` while keeping traces compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Single-cycle integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined in real cores).
    IntDiv,
    /// Floating-point add/subtract.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Fused multiply-add.
    FpFma,
    /// Floating-point divide / square root.
    FpDiv,
    /// Packed SIMD integer operation.
    SimdInt,
    /// Packed SIMD floating-point operation.
    SimdFp,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Unconditional direct branch / call / return.
    Jump,
    /// Conditional branch.
    CondBranch,
    /// Indirect branch (target predicted by BTB).
    IndirectBranch,
    /// No-op / fence / other single-slot op.
    Other,
}

impl OpClass {
    /// All operation classes, in a fixed order usable for histogramming.
    pub const ALL: [OpClass; 15] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpFma,
        OpClass::FpDiv,
        OpClass::SimdInt,
        OpClass::SimdFp,
        OpClass::Load,
        OpClass::Store,
        OpClass::Jump,
        OpClass::CondBranch,
        OpClass::IndirectBranch,
        OpClass::Other,
    ];

    /// Base execution latency in cycles, excluding memory-hierarchy time.
    ///
    /// Latencies approximate a Skylake-class core (e.g. 4-cycle FP add/mul,
    /// long-latency divides).
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 24,
            OpClass::FpAdd => 4,
            OpClass::FpMul => 4,
            OpClass::FpFma => 4,
            OpClass::FpDiv => 14,
            OpClass::SimdInt => 1,
            OpClass::SimdFp => 4,
            OpClass::Load => 0, // memory time supplied by the cache model
            OpClass::Store => 1,
            OpClass::Jump => 1,
            OpClass::CondBranch => 1,
            OpClass::IndirectBranch => 1,
            OpClass::Other => 1,
        }
    }

    /// Whether the class reads or writes memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the class is any flavour of branch.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            OpClass::Jump | OpClass::CondBranch | OpClass::IndirectBranch
        )
    }

    /// Whether the class executes on the floating-point/SIMD stack.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpFma | OpClass::FpDiv | OpClass::SimdFp
        )
    }

    /// Stable index of the class inside [`OpClass::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An architectural register identifier.
///
/// Registers `0..32` are the integer bank; `32..64` the floating-point bank.
/// The newtype keeps register arithmetic out of the public API surface
/// while staying `Copy` and 1-byte wide so traces stay small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Creates an integer-bank register.
    ///
    /// # Panics
    /// Panics if `idx >= 32`.
    #[inline]
    pub fn int(idx: u8) -> Reg {
        assert!(idx < 32, "integer register index out of range: {idx}");
        Reg(idx)
    }

    /// Creates a floating-point-bank register.
    ///
    /// # Panics
    /// Panics if `idx >= 32`.
    #[inline]
    pub fn fp(idx: u8) -> Reg {
        assert!(idx < 32, "fp register index out of range: {idx}");
        Reg(32 + idx)
    }

    /// Creates a register from its flat index in `0..NUM_ARCH_REGS`.
    ///
    /// # Panics
    /// Panics if `idx >= NUM_ARCH_REGS`.
    #[inline]
    pub fn from_index(idx: usize) -> Reg {
        assert!(idx < NUM_ARCH_REGS, "register index out of range: {idx}");
        Reg(idx as u8)
    }

    /// Flat index in `0..NUM_ARCH_REGS`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this register is in the floating-point bank.
    #[inline]
    pub fn is_fp(self) -> bool {
        self.0 >= 32
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fp() {
            write!(f, "f{}", self.0 - 32)
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

/// Register byte meaning "no register" in packed and on-disk records.
pub(crate) const NO_REG: u8 = 0xFF;

/// Encodes an optional register as one byte ([`NO_REG`] for none).
#[inline]
pub(crate) fn reg_byte(r: Option<Reg>) -> u8 {
    r.map_or(NO_REG, |r| r.0)
}

/// Decodes a byte written by [`reg_byte`]; `None` if it names no
/// register and is not [`NO_REG`].
#[inline]
pub(crate) fn byte_reg(b: u8) -> Option<Option<Reg>> {
    if b == NO_REG {
        Some(None)
    } else if (b as usize) < NUM_ARCH_REGS {
        Some(Some(Reg(b)))
    } else {
        None
    }
}

/// A data-memory reference attached to a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Virtual byte address accessed.
    pub addr: u64,
    /// Access size in bytes (typically 4, 8, 16, 32, or 64).
    pub size: u8,
}

impl MemRef {
    /// Creates a memory reference.
    #[inline]
    pub fn new(addr: u64, size: u8) -> MemRef {
        MemRef { addr, size }
    }
}

/// Branch outcome information recorded in the trace.
///
/// Traces record the *resolved* outcome; the simulator's branch predictor
/// decides whether the front-end guessed it correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Resolved target program counter.
    pub target: u64,
}

impl BranchInfo {
    /// Creates a branch outcome record.
    #[inline]
    pub fn new(taken: bool, target: u64) -> BranchInfo {
        BranchInfo { taken, target }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opclass_all_indices_are_stable() {
        for (i, op) in OpClass::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn opclass_latencies_positive_except_load() {
        for op in OpClass::ALL {
            if op == OpClass::Load {
                assert_eq!(op.latency(), 0);
            } else {
                assert!(op.latency() >= 1, "{op} must have latency >= 1");
            }
        }
    }

    #[test]
    fn opclass_predicates_are_disjoint_where_expected() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Load.is_branch());
        assert!(OpClass::CondBranch.is_branch());
        assert!(OpClass::FpFma.is_fp());
        assert!(!OpClass::IntAlu.is_fp());
    }

    #[test]
    fn reg_banks_do_not_collide() {
        let r = Reg::int(5);
        let f = Reg::fp(5);
        assert_ne!(r, f);
        assert!(!r.is_fp());
        assert!(f.is_fp());
        assert_eq!(r.index(), 5);
        assert_eq!(f.index(), 37);
    }

    #[test]
    fn reg_display_uses_bank_prefix() {
        assert_eq!(Reg::int(3).to_string(), "r3");
        assert_eq!(Reg::fp(3).to_string(), "f3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_int_rejects_out_of_range() {
        let _ = Reg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_fp_rejects_out_of_range() {
        let _ = Reg::fp(32);
    }

    #[test]
    fn reg_byte_codec_roundtrips_and_rejects_out_of_range() {
        assert_eq!(byte_reg(reg_byte(None)), Some(None));
        for i in 0..NUM_ARCH_REGS {
            let r = Some(Reg::from_index(i));
            assert_eq!(byte_reg(reg_byte(r)), Some(r));
        }
        for b in NUM_ARCH_REGS as u8..NO_REG {
            assert_eq!(byte_reg(b), None);
        }
    }

    #[test]
    fn reg_from_index_roundtrips() {
        for i in 0..NUM_ARCH_REGS {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }
}
