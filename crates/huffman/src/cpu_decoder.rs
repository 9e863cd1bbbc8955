//! Sequential CPU reference decoder.
//!
//! Every GPU decoder in the workspace is validated against this decoder: the simulated
//! kernels must produce bit-exact symbol streams.

use crate::bitstream::BitReader;
use crate::codebook::Codebook;
use crate::encoder::FlatEncoded;

/// Decodes the entire flat-encoded stream sequentially: one [`Codebook::decode_run`] capped
/// at the declared symbol count.
///
/// Returns `None` if the stream is corrupt (a codeword runs off the end or matches no code).
pub fn decode_flat(codebook: &Codebook, encoded: &FlatEncoded) -> Option<Vec<u16>> {
    let reader = BitReader::new(&encoded.units, encoded.bit_len);
    let mut out = Vec::with_capacity(encoded.num_symbols);
    let (_, count) = codebook.decode_run(
        &reader,
        0,
        u64::MAX,
        encoded.bit_len,
        encoded.num_symbols as u64,
        |_, symbol| out.push(symbol),
    );
    (count == encoded.num_symbols as u64).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_flat, encode_flat_with_offsets};

    fn skewed_symbols(n: usize) -> Vec<u16> {
        (0..n as u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761) >> 22;
                (512 + (r % 16) as i32 - 8) as u16
            })
            .collect()
    }

    /// One run from `start` to the end of the stream: the symbols and where it stopped.
    fn run_from(cb: &Codebook, enc: &FlatEncoded, start: u64, max_symbols: u64) -> (Vec<u16>, u64) {
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let mut out = Vec::new();
        let (end, _) = cb.decode_run(
            &reader,
            start,
            enc.bit_len,
            enc.bit_len,
            max_symbols,
            |_, s| out.push(s),
        );
        (out, end)
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
        let (enc, offsets) = encode_flat_with_offsets(&cb, &symbols);
        // Start at the 500th symbol's first bit: must decode exactly the suffix.
        let (decoded, end) = run_from(&cb, &enc, offsets[500], u64::MAX);
        assert_eq!(decoded, &symbols[500..]);
        assert_eq!(end, enc.bit_len);
    }

    #[test]
    fn decode_from_wrong_offset_eventually_synchronizes() {
        let symbols = skewed_symbols(2000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let (enc, offsets) = encode_flat_with_offsets(&cb, &symbols);
        // Start one bit late: decoding desynchronizes but must hit a true codeword
        // boundary within a modest number of bits for this kind of data (self-sync).
        let (_decoded, end) = run_from(&cb, &enc, offsets[100] + 1, u64::MAX);
        // Decoding always ends somewhere at or before the end of the stream.
        assert!(end <= enc.bit_len);
        // And from wherever it ends, the remaining bits (if any) are less than a codeword.
        let max_code_len = cb.lengths().into_iter().max().unwrap();
        assert!(enc.bit_len - end <= max_code_len as u64);
    }

    #[test]
    fn count_codewords_in_full_range_equals_symbol_count() {
        let symbols = skewed_symbols(5000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let (end, count) = cb.decode_run(&reader, 0, enc.bit_len, enc.bit_len, u64::MAX, |_, _| {});
        assert_eq!(count, symbols.len() as u64);
        assert_eq!(end, enc.bit_len);
    }

    #[test]
    fn max_symbols_limits_decode() {
        let symbols = skewed_symbols(1000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        let (decoded, _) = run_from(&cb, &enc, 0, 17);
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
