//! Bit-packed streams of 32-bit units.
//!
//! The paper's decoders divide the input into sequences, subsequences, and *units*:
//! "unsigned 32-bit numbers that contain the individual codewords". This module provides
//! the unit-based bit writer/reader shared by every encoder and decoder in the workspace.
//! Bits are packed MSB-first within each unit, and units are stored in order, so bit `i`
//! of the stream is bit `31 - (i % 32)` of unit `i / 32`.

/// Writes a bitstream into a vector of 32-bit units, MSB-first within each unit.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    units: Vec<u32>,
    bit_len: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Appends the `len` low bits of `bits`, most significant of those bits first: the
    /// bits are OR-ed into the last unit and, when they straddle a boundary, one new unit.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, len: u8) {
        assert!(len <= 32, "cannot write more than 32 bits at once");
        if len == 0 {
            return;
        }
        let used = (self.bit_len % 32) as u32;
        // The `len` bits left-aligned in a 64-bit window that starts at the current unit.
        let window = ((bits as u64) << (64 - len as u32)) >> used;
        if used == 0 {
            self.units.push(0);
        }
        let last = self.units.len() - 1;
        self.units[last] |= (window >> 32) as u32;
        if used + len as u32 > 32 {
            self.units.push(window as u32);
        }
        self.bit_len += len as u64;
    }

    /// Pads with zero bits up to the next unit boundary and returns the number of padding
    /// bits added.
    pub fn pad_to_unit(&mut self) -> u32 {
        let rem = (self.bit_len % 32) as u32;
        if rem == 0 {
            return 0;
        }
        // The last unit already exists and its unwritten bits are zero.
        self.bit_len += (32 - rem) as u64;
        32 - rem
    }

    /// Finalizes the stream: returns the packed units and the number of valid bits.
    pub fn finish(self) -> (Vec<u32>, u64) {
        (self.units, self.bit_len)
    }

    /// The units written so far (the last unit may be partially filled).
    pub fn units(&self) -> &[u32] {
        &self.units
    }
}

/// Reads bits from a unit-packed stream.
#[derive(Debug, Clone, Copy)]
pub struct BitReader<'a> {
    units: &'a [u32],
    bit_len: u64,
}

impl<'a> BitReader<'a> {
    /// Wraps a unit slice holding `bit_len` valid bits.
    pub fn new(units: &'a [u32], bit_len: u64) -> Self {
        assert!(
            bit_len <= units.len() as u64 * 32,
            "bit_len {} exceeds unit storage {}",
            bit_len,
            units.len() * 32
        );
        BitReader { units, bit_len }
    }

    /// Number of valid bits in the stream.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Reads bit `pos` of the stream; `None` past the end.
    #[inline]
    pub fn bit(&self, pos: u64) -> Option<bool> {
        if pos >= self.bit_len {
            return None;
        }
        let unit = self.units[(pos / 32) as usize];
        let bit_in_unit = (pos % 32) as u32;
        Some((unit >> (31 - bit_in_unit)) & 1 == 1)
    }

    /// The 32 bits starting at `pos`, left-aligned (bit `pos` is the result's MSB), taken
    /// from two units in one shift. Positions past the unit storage read as 0; positions
    /// past `bit_len` but inside the last unit read as stored, so a caller that must not
    /// see them bounds what it accepts by `bit_len` (as [`crate::Codebook::decode_at`]
    /// does).
    #[inline(always)]
    pub fn peek32(&self, pos: u64) -> u32 {
        let unit = (pos / 32) as usize;
        let hi = self.units.get(unit).copied().unwrap_or(0) as u64;
        let lo = self.units.get(unit + 1).copied().unwrap_or(0) as u64;
        (((hi << 32 | lo) << (pos % 32)) >> 32) as u32
    }

    /// The underlying unit slice.
    pub fn units(&self) -> &'a [u32] {
        self.units
    }
}

/// A register-resident window for a loop that reads a stream front to back: the next
/// stream bits left-aligned in a `u64`, refilled one unit at a time when fewer than 32
/// remain, where [`BitReader::peek32`] loads two units per call. Positions past the unit
/// storage read as 0, as they do for `peek32`.
pub(crate) struct BitBuffer<'a> {
    units: &'a [u32],
    /// The buffered bits, the next stream bit as the MSB; the bits below `valid` are 0.
    bits: u64,
    /// How many of the top bits of `bits` are stream bits.
    valid: u32,
    /// The unit the next refill loads.
    next: usize,
}

impl<'a> BitBuffer<'a> {
    /// A buffer whose next bit is bit `pos` of `reader`'s stream.
    #[inline(always)]
    pub(crate) fn new(reader: &BitReader<'a>, pos: u64) -> Self {
        let unit = (pos / 32) as usize;
        let head = reader.units.get(unit).copied().unwrap_or(0) as u64;
        BitBuffer {
            units: reader.units,
            bits: head << 32 << (pos % 32),
            valid: 32 - (pos % 32) as u32,
            next: unit + 1,
        }
    }

    /// The next 32 stream bits, left-aligned (what `peek32` returns at the same position).
    #[inline(always)]
    pub(crate) fn peek32(&mut self) -> u32 {
        if self.valid < 32 {
            let unit = self.units.get(self.next).copied().unwrap_or(0) as u64;
            self.bits |= unit << (32 - self.valid);
            self.valid += 32;
            self.next += 1;
        }
        (self.bits >> 32) as u32
    }

    /// Moves past the next `len` bits; `len` is at most 32, the width of the last peek.
    #[inline(always)]
    pub(crate) fn consume(&mut self, len: u32) {
        self.bits <<= len;
        self.valid -= len;
    }
}

#[cfg(test)]
impl BitWriter {
    /// Appends a single bit: the bit-at-a-time reference [`BitWriter::write_bits`] is
    /// checked against.
    pub(crate) fn write_bit(&mut self, bit: bool) {
        let unit_idx = (self.bit_len / 32) as usize;
        let bit_in_unit = (self.bit_len % 32) as u32;
        if unit_idx == self.units.len() {
            self.units.push(0);
        }
        if bit {
            self.units[unit_idx] |= 1u32 << (31 - bit_in_unit);
        }
        self.bit_len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unit_msb_first_packing() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let (units, len) = w.finish();
        assert_eq!(len, 4);
        assert_eq!(units, vec![0b1011u32 << 28]);
    }

    #[test]
    fn crosses_unit_boundary() {
        let mut w = BitWriter::new();
        for _ in 0..30 {
            w.write_bit(false);
        }
        w.write_bits(0b1111, 4);
        let (units, len) = w.finish();
        assert_eq!(len, 34);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0] & 0b11, 0b11);
        assert_eq!(units[1] >> 30, 0b11);
    }

    #[test]
    fn reader_roundtrip_bits() {
        let mut w = BitWriter::new();
        let pattern: Vec<bool> = (0..100).map(|i| (i * 7) % 3 == 0).collect();
        for &b in &pattern {
            w.write_bit(b);
        }
        let (units, len) = w.finish();
        let r = BitReader::new(&units, len);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(r.bit(i as u64), Some(b));
        }
        assert_eq!(r.bit(100), None);
    }

    #[test]
    fn peek32_matches_written_value() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(0b101, 3);
        let (units, len) = w.finish();
        let r = BitReader::new(&units, len);
        assert_eq!(r.peek32(0), 0xDEAD_BEEF);
        assert_eq!(r.peek32(32), 0b101 << 29);
        // An unaligned peek straddles both units; past the storage reads as zero.
        assert_eq!(r.peek32(4), 0xEADB_EEFA);
        assert_eq!(r.peek32(33), 0b01 << 30);
        assert_eq!(r.peek32(64), 0);
    }

    #[test]
    fn write_bits_matches_bit_by_bit_writes_at_every_alignment() {
        for lead in 0..70u32 {
            for len in 0..=32u8 {
                let bits = 0xA5C3_96F1u32.rotate_left(lead + len as u32);
                let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
                for w in [&mut fast, &mut slow] {
                    (0..lead).for_each(|i| w.write_bit(i % 3 == 0));
                }
                fast.write_bits(bits, len);
                (0..len)
                    .rev()
                    .for_each(|i| slow.write_bit((bits >> i) & 1 == 1));
                fast.write_bit(true);
                slow.write_bit(true);
                assert_eq!(fast.finish(), slow.finish(), "lead {} len {}", lead, len);
            }
        }
    }

    #[test]
    fn pad_to_unit_boundary() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let pad = w.pad_to_unit();
        assert_eq!(pad, 31);
        assert_eq!(w.bit_len(), 32);
        assert_eq!(w.pad_to_unit(), 0);
    }

    #[test]
    fn empty_stream() {
        let (units, len) = BitWriter::new().finish();
        assert!(units.is_empty());
        assert_eq!(len, 0);
        let r = BitReader::new(&units, len);
        assert_eq!(r.bit(0), None);
        assert_eq!(r.peek32(0), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds unit storage")]
    fn reader_rejects_inconsistent_length() {
        let _ = BitReader::new(&[0u32], 64);
    }
}
