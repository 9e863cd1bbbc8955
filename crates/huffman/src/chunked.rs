//! cuSZ's coarse-grained chunked Huffman format.
//!
//! cuSZ's baseline decoder "requires a number of fixed-size chunks containing thousands of
//! codewords to be decoded sequentially by many threads" (§III-A of the paper). The
//! encoder splits the symbol stream into fixed-size chunks, encodes each chunk
//! independently starting at a unit boundary, and records per-chunk bit lengths and symbol
//! counts. The per-chunk padding to unit boundaries is the compression-ratio overhead the
//! paper alludes to when discussing why shrinking chunks is not a viable way to increase
//! parallelism.

use crate::bitstream::BitWriter;
use crate::codebook::Codebook;

/// Default number of symbols per chunk used by cuSZ's coarse-grained decoder.
pub const DEFAULT_CHUNK_SYMBOLS: usize = 4096;

/// A chunked Huffman encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedEncoded {
    /// Packed units of all chunks, each chunk starting at a unit boundary.
    pub units: Vec<u32>,
    /// Per-chunk metadata.
    pub chunks: Vec<ChunkMeta>,
    /// Symbols per chunk used at encode time.
    pub chunk_symbols: usize,
    /// Total number of encoded symbols.
    pub num_symbols: usize,
}

/// Metadata for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Index of the chunk's first unit within `units`.
    pub unit_offset: u64,
    /// Number of units the chunk occupies.
    pub unit_count: u64,
    /// Number of valid bits within the chunk's units.
    pub bit_len: u64,
    /// Number of symbols encoded in the chunk.
    pub num_symbols: u64,
    /// Index of the chunk's first symbol in the original stream.
    pub symbol_offset: u64,
}

impl ChunkedEncoded {
    /// Checks the structure the chunked decoder relies on: a nonzero chunk size, chunks
    /// that tile the units and the symbols in order, no chunk with more bits than its
    /// units hold or more symbols than bits, counts that sum to `num_symbols`, and units
    /// that end where the tiling ends: the chunked layout's rule, which
    /// `huffdec_core::CompressedPayload::check_structure` runs.
    pub fn check_structure(&self) -> Result<(), &'static str> {
        let ensure = |holds: bool, reason| if holds { Ok(()) } else { Err(reason) };
        ensure(self.chunk_symbols != 0, "zero chunk size")?;
        let (mut unit_end, mut symbol_end) = (0u64, 0u64);
        for chunk in &self.chunks {
            let tiles = chunk.unit_offset == unit_end;
            ensure(tiles, "chunks do not tile the unit array")?;
            let in_order = chunk.symbol_offset == symbol_end;
            ensure(in_order, "chunk symbol offsets are inconsistent")?;
            let bits_fit = chunk.bit_len <= chunk.unit_count.saturating_mul(32);
            ensure(bits_fit, "chunk bit length exceeds its units")?;
            let symbols_fit = chunk.num_symbols <= chunk.bit_len;
            ensure(symbols_fit, "more symbols than bits in a chunk")?;
            let next_unit = unit_end.checked_add(chunk.unit_count);
            unit_end = next_unit.ok_or("unit offsets overflow")?;
            let next_symbol = symbol_end.checked_add(chunk.num_symbols);
            symbol_end = next_symbol.ok_or("symbol offsets overflow")?;
        }
        let sums = symbol_end == self.num_symbols as u64;
        ensure(sums, "chunk symbol counts do not sum to the stream total")?;
        let ends = self.units.len() as u64 == unit_end;
        ensure(ends, "unit count does not match the chunk tiling")
    }
}

/// Encodes `symbols` in independent fixed-size chunks of `chunk_symbols` symbols.
pub fn encode_chunked(
    codebook: &Codebook,
    symbols: &[u16],
    chunk_symbols: usize,
) -> ChunkedEncoded {
    assert!(chunk_symbols > 0, "chunk size must be positive");
    let mut units: Vec<u32> = Vec::new();
    let mut chunks = Vec::new();
    let mut symbol_offset = 0u64;

    for chunk in symbols.chunks(chunk_symbols) {
        let mut w = BitWriter::new();
        for &s in chunk {
            let cw = codebook.codeword(s);
            assert!(cw.len > 0, "symbol {} has no codeword", s);
            w.write_bits(cw.bits, cw.len);
        }
        let bit_len = w.bit_len();
        w.pad_to_unit();
        let (chunk_units, _) = w.finish();
        chunks.push(ChunkMeta {
            unit_offset: units.len() as u64,
            unit_count: chunk_units.len() as u64,
            bit_len,
            num_symbols: chunk.len() as u64,
            symbol_offset,
        });
        units.extend_from_slice(&chunk_units);
        symbol_offset += chunk.len() as u64;
    }

    ChunkedEncoded {
        units,
        chunks,
        chunk_symbols,
        num_symbols: symbols.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitReader;
    use crate::encoder::encode_flat;

    /// Sequentially decodes a chunked encoding, one run per chunk capped at the chunk's
    /// declared symbol count: the reference the round trips below compare against.
    fn decode_chunked(codebook: &Codebook, encoded: &ChunkedEncoded) -> Option<Vec<u16>> {
        let mut out = Vec::with_capacity(encoded.num_symbols);
        for chunk in &encoded.chunks {
            let start = chunk.unit_offset as usize;
            let end = start + chunk.unit_count as usize;
            let reader = BitReader::new(&encoded.units[start..end], chunk.bit_len);
            let (_, count) = codebook.decode_run(
                &reader,
                0,
                u64::MAX,
                chunk.bit_len,
                chunk.num_symbols,
                |_, symbol| out.push(symbol),
            );
            if count != chunk.num_symbols {
                return None;
            }
        }
        Some(out)
    }

    fn symbols(n: usize) -> Vec<u16> {
        (0..n as u32)
            .map(|i| (512 + ((i.wrapping_mul(97) >> 3) % 20) as i32 - 10) as u16)
            .collect()
    }

    #[test]
    fn roundtrip_multiple_chunks() {
        let syms = symbols(10_000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let enc = encode_chunked(&cb, &syms, 1024);
        assert_eq!(enc.chunks.len(), 10);
        assert_eq!(decode_chunked(&cb, &enc).unwrap(), syms);
    }

    #[test]
    fn roundtrip_ragged_final_chunk() {
        let syms = symbols(2500);
        let cb = Codebook::from_symbols(&syms, 1024);
        let enc = encode_chunked(&cb, &syms, 1024);
        assert_eq!(enc.chunks.len(), 3);
        assert_eq!(enc.chunks[2].num_symbols, 452);
        assert_eq!(decode_chunked(&cb, &enc).unwrap(), syms);
    }

    #[test]
    fn chunk_metadata_is_consistent() {
        let syms = symbols(5000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let enc = encode_chunked(&cb, &syms, 512);
        let mut expected_offset = 0u64;
        let mut expected_symbol = 0u64;
        for c in &enc.chunks {
            assert_eq!(c.unit_offset, expected_offset);
            assert_eq!(c.symbol_offset, expected_symbol);
            assert!(c.bit_len <= c.unit_count * 32);
            assert!(c.unit_count * 32 - c.bit_len < 32);
            expected_offset += c.unit_count;
            expected_symbol += c.num_symbols;
        }
        assert_eq!(expected_offset, enc.units.len() as u64);
        assert_eq!(expected_symbol, enc.num_symbols as u64);
        assert_eq!(enc.check_structure(), Ok(()));
    }

    #[test]
    fn chunked_is_larger_than_flat_due_to_padding() {
        let syms = symbols(50_000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let flat = encode_flat(&cb, &syms);
        let chunked = encode_chunked(&cb, &syms, 256);
        assert!(chunked.units.len() > flat.units.len());
    }

    #[test]
    fn single_chunk_when_chunk_size_exceeds_input() {
        let syms = symbols(100);
        let cb = Codebook::from_symbols(&syms, 1024);
        let enc = encode_chunked(&cb, &syms, 4096);
        assert_eq!(enc.chunks.len(), 1);
        assert_eq!(decode_chunked(&cb, &enc).unwrap(), syms);
    }

    #[test]
    fn empty_input() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let enc = encode_chunked(&cb, &[], 128);
        assert!(enc.chunks.is_empty());
        assert_eq!(decode_chunked(&cb, &enc).unwrap(), Vec::<u16>::new());
    }
}
