//! Sequential CPU reference decoder.
//!
//! Every GPU decoder in the workspace is validated against this decoder: the simulated
//! kernels must produce bit-exact symbol streams. It also provides the "decode a bounded
//! number of symbols starting at an arbitrary bit" primitive used for self-synchronization
//! analysis.

use crate::bitstream::BitReader;
use crate::codebook::Codebook;
use crate::encoder::FlatEncoded;

/// Decodes the entire flat-encoded stream sequentially.
///
/// Returns `None` if the stream is corrupt (a codeword runs off the end or matches no code).
pub fn decode_flat(codebook: &Codebook, encoded: &FlatEncoded) -> Option<Vec<u16>> {
    let reader = BitReader::new(&encoded.units, encoded.bit_len);
    let mut out = Vec::with_capacity(encoded.num_symbols);
    let mut pos = 0u64;
    while out.len() < encoded.num_symbols {
        let (sym, n) = codebook.decode_at(&reader, pos, encoded.bit_len)?;
        out.push(sym);
        pos += n as u64;
    }
    Some(out)
}

/// Decodes starting at an arbitrary bit position until either `max_symbols` symbols have
/// been produced or the bit position reaches `end_bit`. Returns the decoded symbols and
/// the bit position where decoding stopped.
///
/// This is the primitive both the self-synchronization phase and the gap-array
/// construction are built from: starting mid-stream may decode garbage for a while, but
/// for practical Huffman codes the decoder re-synchronizes (§III-B of the paper).
pub fn decode_from_bit(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    start_bit: u64,
    end_bit: u64,
    max_symbols: usize,
) -> (Vec<u16>, u64) {
    let mut out = Vec::new();
    let mut pos = start_bit;
    while pos < end_bit && out.len() < max_symbols {
        match codebook.decode_at(reader, pos, end_bit) {
            Some((sym, n)) => {
                out.push(sym);
                pos += n as u64;
            }
            None => break,
        }
    }
    (out, pos)
}

/// Counts the codewords that terminate inside `[start_bit, end_bit)` when decoding starts
/// exactly at `start_bit`, and returns `(count, next_codeword_start)`.
pub fn count_codewords_in_range(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    start_bit: u64,
    end_bit: u64,
) -> (u64, u64) {
    let mut pos = start_bit;
    let mut count = 0u64;
    while let Some((_sym, n)) = codebook.decode_at(reader, pos, end_bit) {
        count += 1;
        pos += n as u64;
    }
    (count, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode_flat;

    fn skewed_symbols(n: usize) -> Vec<u16> {
        (0..n as u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761) >> 22;
                (512 + (r % 16) as i32 - 8) as u16
            })
            .collect()
    }

    #[test]
    fn full_roundtrip() {
        let symbols = skewed_symbols(50_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        assert_eq!(decode_flat(&cb, &enc).unwrap(), symbols);
    }

    #[test]
    fn decode_from_correct_offset_matches_suffix() {
        let symbols = skewed_symbols(1000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = crate::encoder::encode_flat_with_offsets(&cb, &symbols);
        let offsets = enc.symbol_bit_offsets.clone().unwrap();
        let reader = BitReader::new(&enc.units, enc.bit_len);
        // Start at the 500th symbol's first bit: must decode exactly the suffix.
        let (decoded, end) = decode_from_bit(&cb, &reader, offsets[500], enc.bit_len, usize::MAX);
        assert_eq!(decoded, &symbols[500..]);
        assert_eq!(end, enc.bit_len);
    }

    #[test]
    fn decode_from_wrong_offset_eventually_synchronizes() {
        let symbols = skewed_symbols(2000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = crate::encoder::encode_flat_with_offsets(&cb, &symbols);
        let offsets = enc.symbol_bit_offsets.clone().unwrap();
        let reader = BitReader::new(&enc.units, enc.bit_len);
        // Start one bit late: decoding desynchronizes but must hit a true codeword
        // boundary within a modest number of bits for this kind of data (self-sync).
        let (_decoded, end) =
            decode_from_bit(&cb, &reader, offsets[100] + 1, enc.bit_len, usize::MAX);
        // Decoding always ends somewhere at or before the end of the stream.
        assert!(end <= enc.bit_len);
        // And from wherever it ends, the remaining bits (if any) are less than a codeword.
        assert!(enc.bit_len - end <= cb.max_code_len() as u64);
    }

    #[test]
    fn count_codewords_in_full_range_equals_symbol_count() {
        let symbols = skewed_symbols(5000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let (count, end) = count_codewords_in_range(&cb, &reader, 0, enc.bit_len);
        assert_eq!(count, symbols.len() as u64);
        assert_eq!(end, enc.bit_len);
    }

    #[test]
    fn max_symbols_limits_decode() {
        let symbols = skewed_symbols(1000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let (decoded, _) = decode_from_bit(&cb, &reader, 0, enc.bit_len, 17);
        assert_eq!(decoded.len(), 17);
        assert_eq!(decoded, &symbols[..17]);
    }

    #[test]
    fn corrupt_stream_detected() {
        let symbols = skewed_symbols(100);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let mut enc = encode_flat(&cb, &symbols);
        // Truncate the stream: full decode must fail.
        enc.bit_len /= 2;
        enc.units.truncate((enc.bit_len as usize).div_ceil(32));
        assert!(decode_flat(&cb, &enc).is_none());
    }
}
