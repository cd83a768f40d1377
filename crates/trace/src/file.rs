//! Binary trace files: record instruction streams for later playback.
//!
//! The paper's datasets are built by recording "portions of [a workload's]
//! instruction stream in *traces* for later playback in a cycle-accurate
//! simulator" (§4.1), and its optimization-as-a-service model ships
//! customer traces to the vendor for replay (§3.2). This module is that
//! artifact: a compact little-endian encoding of an instruction stream
//! with lossless round-tripping, usable with any `io::Write`/`io::Read`.
//!
//! Layout: magic `PSTR`, version, instruction count, then one
//! variable-length record per instruction (opcode byte, register bytes
//! with `0xFF` as none, optional memory/branch payloads selected by the
//! opcode class, and a PC delta varint — PCs are mostly sequential, so
//! deltas keep traces small).

use crate::instruction::Instruction;
use crate::isa::{byte_reg, reg_byte, BranchInfo, MemRef, OpClass};
use crate::source::TraceSource;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PSTR";
const VERSION: u8 = 1;

/// Errors raised while reading a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a trace file.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Malformed record.
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file i/o error: {e}"),
            TraceFileError::BadMagic => f.write_str("not a PSCA trace file"),
            TraceFileError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceFileError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> TraceFileError {
        TraceFileError::Io(e)
    }
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, TraceFileError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        v |= ((b[0] & 0x7F) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(TraceFileError::Corrupt("varint overflow"));
        }
    }
}

/// ZigZag encoding for signed PC deltas.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `count` instructions from `source` to `out`; returns how many
/// were written (fewer if the source ended).
///
/// # Errors
/// Propagates I/O errors from `out`.
pub fn write_trace<S: TraceSource, W: Write>(
    source: &mut S,
    count: u64,
    out: &mut W,
) -> Result<u64, TraceFileError> {
    // Buffer records so the header can carry the exact count even when the
    // source ends early.
    let mut body: Vec<u8> = Vec::new();
    let mut last_pc = 0u64;
    let mut written = 0u64;
    for _ in 0..count {
        let Some(inst) = source.next_instruction() else {
            break;
        };
        body.push(inst.op.index() as u8);
        body.push(reg_byte(inst.dst));
        body.push(reg_byte(inst.srcs[0]));
        body.push(reg_byte(inst.srcs[1]));
        // Deltas wrap modulo 2^64, so any pair of PCs round-trips.
        write_varint(&mut body, zigzag(inst.pc.wrapping_sub(last_pc) as i64))?;
        last_pc = inst.pc;
        if let Some(m) = inst.mem {
            write_varint(&mut body, m.addr)?;
            body.push(m.size);
        }
        if let Some(b) = inst.branch {
            body.push(b.taken as u8);
            write_varint(&mut body, b.target)?;
        }
        written += 1;
    }
    out.write_all(MAGIC)?;
    out.write_all(&[VERSION])?;
    out.write_all(&written.to_le_bytes())?;
    out.write_all(&body)?;
    Ok(written)
}

/// A [`TraceSource`] replaying a trace file from any reader.
#[derive(Debug)]
pub struct TraceFileReader<R> {
    reader: R,
    remaining: u64,
    last_pc: u64,
    /// Set if a record failed to decode mid-stream (the source then ends).
    error: Option<TraceFileError>,
}

impl<R: Read> TraceFileReader<R> {
    /// Opens a trace stream, validating the header.
    ///
    /// # Errors
    /// Returns an error for bad magic, version, or I/O failures.
    pub fn open(mut reader: R) -> Result<TraceFileReader<R>, TraceFileError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let mut version = [0u8; 1];
        reader.read_exact(&mut version)?;
        if version[0] != VERSION {
            return Err(TraceFileError::BadVersion(version[0]));
        }
        let mut count = [0u8; 8];
        reader.read_exact(&mut count)?;
        Ok(TraceFileReader {
            reader,
            remaining: u64::from_le_bytes(count),
            last_pc: 0,
            error: None,
        })
    }

    /// Instructions left to replay.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The decode error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceFileError> {
        self.error.as_ref()
    }

    fn read_record(&mut self) -> Result<Instruction, TraceFileError> {
        let mut head = [0u8; 4];
        self.reader.read_exact(&mut head)?;
        let op = *OpClass::ALL
            .get(head[0] as usize)
            .ok_or(TraceFileError::Corrupt("bad opcode"))?;
        let reg = |b| byte_reg(b).ok_or(TraceFileError::Corrupt("register index out of range"));
        let dst = reg(head[1])?;
        let srcs = [reg(head[2])?, reg(head[3])?];
        let delta = unzigzag(read_varint(&mut self.reader)?);
        let pc = self.last_pc.wrapping_add(delta as u64);
        self.last_pc = pc;
        let mem = if op.is_mem() {
            let addr = read_varint(&mut self.reader)?;
            let mut size = [0u8; 1];
            self.reader.read_exact(&mut size)?;
            Some(MemRef::new(addr, size[0]))
        } else {
            None
        };
        let branch = if op.is_branch() {
            let mut taken = [0u8; 1];
            self.reader.read_exact(&mut taken)?;
            if taken[0] > 1 {
                return Err(TraceFileError::Corrupt("bad branch flag"));
            }
            let target = read_varint(&mut self.reader)?;
            Some(BranchInfo::new(taken[0] == 1, target))
        } else {
            None
        };
        Ok(Instruction {
            op,
            dst,
            srcs,
            mem,
            branch,
            pc,
        })
    }
}

impl<R: Read> TraceSource for TraceFileReader<R> {
    fn next_instruction(&mut self) -> Option<Instruction> {
        if self.remaining == 0 || self.error.is_some() {
            return None;
        }
        match self.read_record() {
            Ok(inst) => {
                self.remaining -= 1;
                Some(inst)
            }
            Err(e) => {
                self.error = Some(e);
                self.remaining = 0;
                None
            }
        }
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;
    use crate::source::VecTrace;

    fn sample_insts() -> Vec<Instruction> {
        vec![
            Instruction::alu(
                OpClass::IntAlu,
                Some(Reg::int(1)),
                [Some(Reg::int(2)), None],
            )
            .at_pc(0x1000),
            Instruction::load(Reg::fp(3), Some(Reg::int(24)), MemRef::new(0xdead_beef, 8))
                .at_pc(0x1004),
            Instruction::store(Some(Reg::fp(3)), None, MemRef::new(0x10, 64)).at_pc(0x1008),
            Instruction::cond_branch([None, None], BranchInfo::new(true, 0x900)).at_pc(0x100c),
            Instruction::indirect_branch(Some(Reg::int(5)), BranchInfo::new(false, 0x2000))
                .at_pc(0x0800), // backwards PC delta
        ]
    }

    #[test]
    fn roundtrip_is_lossless() {
        let insts = sample_insts();
        let mut buf = Vec::new();
        let n = write_trace(&mut VecTrace::new(insts.clone()), 100, &mut buf).unwrap();
        assert_eq!(n, 5);
        let mut reader = TraceFileReader::open(buf.as_slice()).unwrap();
        assert_eq!(reader.remaining(), 5);
        for expect in &insts {
            assert_eq!(reader.next_instruction().as_ref(), Some(expect));
        }
        assert!(reader.next_instruction().is_none());
        assert!(reader.error().is_none());
    }

    #[test]
    fn count_caps_recording() {
        let insts = sample_insts();
        let mut buf = Vec::new();
        let n = write_trace(&mut VecTrace::new(insts), 2, &mut buf).unwrap();
        assert_eq!(n, 2);
        let reader = TraceFileReader::open(buf.as_slice()).unwrap();
        assert_eq!(reader.remaining(), 2);
    }

    #[test]
    fn header_validation() {
        assert!(matches!(
            TraceFileReader::open(&b"XXXX\x01"[..]).unwrap_err(),
            TraceFileError::BadMagic
        ));
        let mut buf = Vec::new();
        write_trace(&mut VecTrace::new(sample_insts()), 5, &mut buf).unwrap();
        buf[4] = 9;
        assert!(matches!(
            TraceFileReader::open(buf.as_slice()).unwrap_err(),
            TraceFileError::BadVersion(9)
        ));
    }

    #[test]
    fn truncated_body_ends_stream_with_error() {
        let mut buf = Vec::new();
        write_trace(&mut VecTrace::new(sample_insts()), 5, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = TraceFileReader::open(buf.as_slice()).unwrap();
        let mut n = 0;
        while reader.next_instruction().is_some() {
            n += 1;
        }
        assert!(n < 5);
        assert!(reader.error().is_some());
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN / 2, i64::MAX / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn generated_workload_roundtrips_through_disk_format() {
        // A realistic end-to-end check through an in-memory "file".
        use crate::stats::TraceStats;
        let insts: Vec<Instruction> = sample_insts()
            .into_iter()
            .cycle()
            .take(1000)
            .enumerate()
            .map(|(i, inst)| inst.at_pc(0x1000 + (i as u64 % 97) * 4))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut VecTrace::new(insts.clone()), 1_000, &mut buf).unwrap();
        let mut reader = TraceFileReader::open(buf.as_slice()).unwrap();
        let replayed = TraceStats::from_source(&mut reader);
        let original = TraceStats::from_source(&mut VecTrace::new(insts));
        assert_eq!(replayed, original);
    }
}
