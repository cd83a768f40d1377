//! # psca-trace
//!
//! Instruction-trace substrate for the PSCA (Post-Silicon CPU Adaptation)
//! reproduction.
//!
//! The paper's datasets are built by recording portions of application
//! instruction streams in *traces* and replaying them in a cycle-accurate
//! simulator (§4.1). This crate provides:
//!
//! - a compact ISA model ([`OpClass`], [`Reg`], [`MemRef`], [`BranchInfo`])
//!   rich enough for a clustered out-of-order timing model;
//! - the [`Instruction`] record that traces are made of;
//! - streaming trace abstractions ([`TraceSource`]) so that
//!   multi-million-instruction traces never need to be materialized, and
//!   [`VecTrace`], a packed, shared buffer for windows replayed many times,
//!   which can also carry a consumer's per-instruction outcome codes;
//! - [`TraceStats`] summary statistics used by tests and the workload
//!   synthesizer's self-checks.
//!
//! # Examples
//!
//! ```
//! use psca_trace::{Instruction, OpClass, Reg, TraceSource, VecTrace};
//!
//! let insts = vec![
//!     Instruction::alu(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
//!     Instruction::alu(OpClass::IntMul, Some(Reg::int(2)), [Some(Reg::int(1)), None]),
//! ];
//! let mut trace = VecTrace::new(insts);
//! let mut n = 0;
//! while let Some(inst) = trace.next_instruction() {
//!     n += 1;
//!     let _ = inst.op;
//! }
//! assert_eq!(n, 2);
//! ```

#![warn(missing_docs)]

pub mod file;

mod instruction;
mod isa;
mod source;
mod stats;

pub use file::{write_trace, TraceFileError, TraceFileReader};
pub use instruction::Instruction;
pub use isa::{BranchInfo, MemRef, OpClass, Reg, NUM_ARCH_REGS};
pub use source::{Take, TracePosition, TraceSource, VecTrace};
pub use stats::TraceStats;
