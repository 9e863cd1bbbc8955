//! Little-endian byte-level encoding helpers shared by the header and section codecs.
//!
//! [`ByteWriter`] builds a payload in memory; [`ByteCursor`] parses one defensively —
//! every read is bounds-checked and failures surface as
//! [`ContainerError::Truncated`] with the context of
//! the structure being read, never a panic.

use crate::error::{invalid, ContainerError, Result};

/// An append-only little-endian byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Starts an empty buffer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Starts an empty buffer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 little-endian bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian parser over a byte slice.
#[derive(Debug)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Label used in truncation errors (e.g. `"codebook section"`).
    context: &'static str,
}

impl<'a> ByteCursor<'a> {
    /// Starts parsing `buf`; `context` labels truncation errors.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteCursor {
            buf,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ContainerError::Truncated {
                context: self.context,
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` little-endian.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32` little-endian.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` little-endian.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64` little-endian.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 little-endian bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`ContainerError::Invalid`] unless the cursor consumed every byte —
    /// trailing garbage in a section is treated as corruption, not ignored.
    pub fn expect_end(&self, reason: &'static str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(invalid(reason));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_width() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_i64(-42);
        w.put_f64(std::f64::consts::PI);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();

        let mut c = ByteCursor::new(&bytes, "test");
        assert_eq!(c.get_u8().unwrap(), 0xAB);
        assert_eq!(c.get_u16().unwrap(), 0xBEEF);
        assert_eq!(c.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(c.get_i64().unwrap(), -42);
        assert_eq!(c.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(c.get_bytes(4).unwrap(), b"tail");
        assert!(c.expect_end("trailing bytes").is_ok());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut c = ByteCursor::new(&[1, 2, 3], "tiny");
        assert_eq!(c.get_u16().unwrap(), 0x0201);
        assert!(matches!(
            c.get_u32(),
            Err(ContainerError::Truncated { context: "tiny" })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut c = ByteCursor::new(&[0; 3], "t");
        let _ = c.get_u8().unwrap();
        assert!(matches!(
            c.expect_end("extra bytes"),
            Err(ContainerError::Invalid {
                reason: "extra bytes"
            })
        ));
    }

    #[test]
    fn oversized_request_near_usize_max_is_safe() {
        let mut c = ByteCursor::new(&[0; 8], "t");
        assert!(c.get_bytes(usize::MAX).is_err());
    }
}
