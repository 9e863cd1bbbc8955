//! Huffman encoders.
//!
//! Two encoders are provided, matching the two families of decoders in the paper:
//!
//! * [`encode_flat`] — a "pure" Huffman encoding of the whole symbol stream into one
//!   contiguous bitstream of 32-bit units. This is what the self-synchronization decoder
//!   (Weißenberger & Schmidt) and the gap-array decoder (Yamamoto et al.) consume; the
//!   gap-array variant additionally stores per-subsequence metadata computed by
//!   [`crate::gap`].
//! * [`crate::chunked::encode_chunked`] — cuSZ's coarse-grained format, where fixed-size
//!   chunks of symbols are encoded independently (each starting at a unit boundary).
//!
//! Both produce bit-identical symbol streams when decoded.

use crate::bitstream::BitWriter;
use crate::codebook::Codebook;

/// A flat (non-chunked) Huffman encoding of a symbol stream.
#[derive(Debug, Clone)]
pub struct FlatEncoded {
    /// The packed 32-bit units.
    pub units: Vec<u32>,
    /// Number of valid bits in `units`.
    pub bit_len: u64,
    /// Number of symbols encoded.
    pub num_symbols: usize,
}

/// Encodes `symbols` into a contiguous bitstream using `codebook`.
///
/// # Panics
/// Panics if a symbol has no codeword in the codebook.
pub fn encode_flat(codebook: &Codebook, symbols: &[u16]) -> FlatEncoded {
    let mut w = BitWriter::new();
    for &s in symbols {
        let cw = codebook.codeword(s);
        assert!(
            cw.len > 0,
            "symbol {} has no codeword (was it absent from the frequency table?)",
            s
        );
        w.write_bits(cw.bits, cw.len);
    }
    let (units, bit_len) = w.finish();
    FlatEncoded {
        units,
        bit_len,
        num_symbols: symbols.len(),
    }
}

/// [`encode_flat`] plus the bit offset of the first bit of each symbol's codeword: the
/// ground truth the self-synchronization and gap-array tests check boundaries against.
#[cfg(test)]
pub(crate) fn encode_flat_with_offsets(
    codebook: &Codebook,
    symbols: &[u16],
) -> (FlatEncoded, Vec<u64>) {
    let mut next = 0u64;
    let offsets = symbols
        .iter()
        .map(|&s| {
            let offset = next;
            next += codebook.codeword(s).len as u64;
            offset
        })
        .collect();
    (encode_flat(codebook, symbols), offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitReader;

    fn decode_all(cb: &Codebook, enc: &FlatEncoded) -> Vec<u16> {
        let r = BitReader::new(&enc.units, enc.bit_len);
        let mut pos = 0u64;
        let mut out = Vec::new();
        while pos < enc.bit_len {
            let (sym, n) = cb
                .decode_at(&r, pos, enc.bit_len)
                .expect("decoding ran off the end of the stream");
            out.push(sym);
            pos += n as u64;
        }
        out
    }

    #[test]
    fn roundtrip_small() {
        let symbols: Vec<u16> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
        let cb = Codebook::from_symbols(&symbols, 16);
        let enc = encode_flat(&cb, &symbols);
        assert_eq!(decode_all(&cb, &enc), symbols);
        assert_eq!(enc.num_symbols, symbols.len());
    }

    #[test]
    fn roundtrip_large_skewed() {
        let symbols: Vec<u16> = (0..100_000u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761) >> 24;
                (match r {
                    0..=200 => 512,
                    201..=230 => 511,
                    231..=250 => 513,
                    _ => 500 + (r % 25),
                }) as u16
            })
            .collect();
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        assert_eq!(decode_all(&cb, &enc), symbols);
        // Compression: bit length should be far below 16 bits/symbol.
        assert!(enc.bit_len < symbols.len() as u64 * 8);
    }

    #[test]
    fn offsets_are_monotone_and_match_code_lengths() {
        let symbols: Vec<u16> = vec![0, 1, 2, 0, 0, 1];
        let cb = Codebook::from_symbols(&symbols, 4);
        let (enc, offsets) = encode_flat_with_offsets(&cb, &symbols);
        assert_eq!(offsets.len(), symbols.len());
        assert_eq!(offsets[0], 0);
        for (i, w) in offsets.windows(2).enumerate() {
            assert_eq!(w[1] - w[0], cb.codeword(symbols[i]).len as u64);
        }
        let last_len = cb.codeword(*symbols.last().unwrap()).len as u64;
        assert_eq!(offsets.last().unwrap() + last_len, enc.bit_len);
    }

    #[test]
    fn empty_input_produces_empty_stream() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let enc = encode_flat(&cb, &[]);
        assert_eq!(enc.bit_len, 0);
        assert_eq!(enc.num_symbols, 0);
        assert!(enc.units.is_empty());
    }

    #[test]
    #[should_panic(expected = "has no codeword")]
    fn encoding_unknown_symbol_panics() {
        let cb = Codebook::from_symbols(&[0u16, 1, 2], 8);
        let _ = encode_flat(&cb, &[7]);
    }
}
