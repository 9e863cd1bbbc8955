//! Self-synchronization analysis (CPU reference).
//!
//! Huffman codes tend to re-synchronize after a mis-aligned start (§III-B of the paper,
//! after Ferguson & Rabinowitz and Klein & Wiseman). The GPU self-synchronization decoder
//! exploits this to find valid per-thread starting points without any encoder cooperation.
//! This module provides the sequential reference — the fixed point the two phases
//! (intra-sequence and inter-sequence synchronization) converge to — against which the
//! simulated GPU kernels are validated.

use crate::bitstream::BitReader;
use crate::codebook::Codebook;

/// The synchronization state of one subsequence after the sync phases: where decoding of
/// this subsequence actually starts, where it ends, and how many codewords it contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubseqSync {
    /// Bit position where this subsequence's decoding starts (a true codeword boundary
    /// once synchronization has converged).
    pub start_bit: u64,
    /// Bit position where decoding of this subsequence stops (start of the next
    /// subsequence's first codeword).
    pub end_bit: u64,
    /// Number of codewords decoded by this subsequence's thread.
    pub num_codewords: u64,
}

/// Sequentially computes the converged synchronization state of every subsequence of a
/// flat-encoded stream: subsequence `i` starts where subsequence `i-1` stopped. This is
/// the fixed point the parallel self-synchronization algorithm converges to, and is also
/// exactly the information a gap array encodes.
pub fn reference_sync_states(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    subseq_bits: u64,
) -> Vec<SubseqSync> {
    assert!(subseq_bits > 0);
    let stream_end = reader.bit_len();
    let num_subseqs = stream_end.div_ceil(subseq_bits) as usize;
    let mut out = Vec::with_capacity(num_subseqs);
    let mut start = 0u64;
    for i in 0..num_subseqs {
        // The per-thread step of the synchronization phase: decode until the position
        // reaches or passes the subsequence boundary; the stop position is the
        // synchronization point of the next subsequence.
        let boundary = ((i as u64) + 1) * subseq_bits;
        let (end, count) = codebook.decode_run(
            reader,
            start,
            boundary.min(stream_end),
            stream_end,
            u64::MAX,
            |_, _| {},
        );
        out.push(SubseqSync {
            start_bit: start,
            end_bit: end,
            num_codewords: count,
        });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_flat, encode_flat_with_offsets};

    fn quantlike_symbols(n: usize) -> Vec<u16> {
        // Geometric-ish spread around the central bin, like real cuSZ quantization codes:
        // codeword lengths vary, which is what gives Huffman codes their
        // self-synchronization behaviour (fixed-length codes never resynchronize).
        (0..n as u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761).rotate_left(13) ^ 0x9E37_79B9;
                let mag = r.trailing_zeros().min(9) as i32;
                let sign = if (r >> 31) & 1 == 1 { 1 } else { -1 };
                (512 + sign * mag) as u16
            })
            .collect()
    }

    #[test]
    fn reference_states_cover_all_codewords() {
        let symbols = quantlike_symbols(10_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let states = reference_sync_states(&cb, &reader, 128);
        let total: u64 = states.iter().map(|s| s.num_codewords).sum();
        assert_eq!(total, symbols.len() as u64);
        // Consecutive states chain together.
        for w in states.windows(2) {
            assert_eq!(w[0].end_bit, w[1].start_bit);
        }
        assert_eq!(states.last().unwrap().end_bit, enc.bit_len);
    }

    #[test]
    fn reference_starts_are_codeword_boundaries() {
        let symbols = quantlike_symbols(5_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let (enc, offsets) = encode_flat_with_offsets(&cb, &symbols);
        let boundaries: std::collections::BTreeSet<u64> = offsets.into_iter().collect();
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let states = reference_sync_states(&cb, &reader, 128);
        for s in &states {
            assert!(boundaries.contains(&s.start_bit) || s.start_bit >= enc.bit_len);
        }
    }
}
