//! Bounded little-endian byte codec of the on-disk binary formats:
//! firmware images (`psca_uc::image`) and sweep-cache entries
//! (`psca_adapt`'s trace codec).
//!
//! [`Writer`] appends fixed-width fields and sequences behind a `u32`
//! count. [`Reader`] reads them back from untrusted bytes: every method
//! fails with [`Truncated`] instead of reading past the end, and
//! [`Reader::count`] refuses a count the unread bytes cannot hold, so no
//! decoded number sizes an allocation. Each format maps [`Truncated`]
//! into its own error type through `From`.

/// The bytes ended before a field, or before the items a count declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// Appends little-endian fields to a growing buffer.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The finished buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Appends bytes as they are, with no count.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends an `f64`'s IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a `u32` length, then the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// Appends a `u32` count, then the values.
    pub fn f64s(&mut self, vals: &[f64]) {
        self.u32(vals.len() as u32);
        vals.iter().for_each(|&v| self.f64(v));
    }

    /// Appends a `u32` count, then the values.
    pub fn u64s(&mut self, vals: &[u64]) {
        self.u32(vals.len() as u32);
        vals.iter().for_each(|&v| self.u64(v));
    }
}

/// Reads little-endian fields from untrusted bytes; see the module docs.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// `Ok` once every byte has been read, else the format's own
    /// `trailing` error.
    pub fn finish<E>(&self, trailing: E) -> Result<(), E> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(trailing)
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let end = self.pos.checked_add(n).ok_or(Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        self.take(N)?.try_into().map_err(|_| Truncated)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array().map(|[b]| b)
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// `n`, if the unread bytes can hold `n` items of at least
    /// `min_bytes` each.
    pub fn fits(&self, n: usize, min_bytes: usize) -> Result<usize, Truncated> {
        if n.saturating_mul(min_bytes) > self.buf.len() - self.pos {
            return Err(Truncated);
        }
        Ok(n)
    }

    /// A `u32` count of items of at least `min_bytes` each, checked by
    /// [`Reader::fits`].
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, Truncated> {
        let n = self.u32()? as usize;
        self.fits(n, min_bytes)
    }

    /// What [`Writer::bytes`] wrote.
    pub fn bytes(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// What [`Writer::f64s`] wrote.
    pub fn f64s(&mut self) -> Result<Vec<f64>, Truncated> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// What [`Writer::u64s`] wrote.
    pub fn u64s(&mut self) -> Result<Vec<u64>, Truncated> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_little_endian() {
        let mut w = Writer::new();
        w.raw(b"PS");
        w.u8(7);
        w.u16(0x0102);
        w.u32(0x0304_0506);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.bytes(b"name");
        w.f64s(&[1.5, f64::NAN]);
        w.u64s(&[9]);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..5], &[b'P', b'S', 7, 0x02, 0x01]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take(2), Ok(&b"PS"[..]));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.bytes(), Ok(&b"name"[..]));
        let vals = r.f64s().unwrap();
        assert_eq!(vals[0], 1.5);
        assert!(vals[1].is_nan());
        assert_eq!(r.u64s(), Ok(vec![9]));
        assert_eq!(r.finish("trailing"), Ok(()));
    }

    #[test]
    fn short_input_is_truncated_not_a_panic() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Truncated));
        assert_eq!(r.take(usize::MAX), Err(Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.finish("trailing"), Err("trailing"));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(Truncated));
    }

    #[test]
    fn counts_the_input_cannot_hold_are_refused() {
        // Four bytes claiming 2^32 - 1 items must not size an allocation.
        assert_eq!(Reader::new(&[0xff; 4]).f64s(), Err(Truncated));
        assert_eq!(Reader::new(&[0xff; 4]).count(1), Err(Truncated));
        let mut w = Writer::new();
        w.u32(2);
        w.raw(&[0; 16]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).count(8), Ok(2));
        assert_eq!(Reader::new(&bytes).count(9), Err(Truncated));
        let r = Reader::new(&bytes);
        assert_eq!(r.fits(usize::MAX, 2), Err(Truncated));
        assert_eq!(r.fits(20, 1), Ok(20));
        assert_eq!(r.fits(0, usize::MAX), Ok(0));
    }
}
