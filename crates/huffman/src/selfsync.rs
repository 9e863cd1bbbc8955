//! Self-synchronization analysis (CPU reference).
//!
//! Huffman codes tend to re-synchronize after a mis-aligned start (§III-B of the paper,
//! after Ferguson & Rabinowitz and Klein & Wiseman). The GPU self-synchronization decoder
//! exploits this to find valid per-thread starting points without any encoder cooperation.
//! This module provides the sequential reference implementations of the two phases
//! (intra-sequence and inter-sequence synchronization) against which the simulated GPU
//! kernels are validated, plus measurement utilities used in the evaluation harness.

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

/// Decodes from `start_bit` until the decoder's position reaches or passes
/// `boundary_bit` (the end of the subsequence), never reading past `stream_end`.
/// Returns `(stop_position, codewords_decoded)`.
///
/// This is the per-thread step of the synchronization phase: the stop position becomes the
/// synchronization point proposed for the next subsequence.
pub fn decode_subsequence(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    start_bit: u64,
    boundary_bit: u64,
    stream_end: u64,
) -> (u64, u64) {
    let mut pos = start_bit;
    let mut count = 0u64;
    while pos < boundary_bit && pos < stream_end {
        match codebook.decode_at(reader, pos, stream_end) {
            Some((_sym, n)) => {
                pos += n as u64;
                count += 1;
            }
            None => break,
        }
    }
    (pos, count)
}

/// Sequentially computes the converged synchronization state of every subsequence of a
/// flat-encoded stream: subsequence `i` starts where subsequence `i-1` stopped. This is
/// the fixed point the parallel self-synchronization algorithm converges to, and is also
/// exactly the information a gap array encodes.
pub fn reference_sync_states(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    subseq_bits: u64,
    stream_end: u64,
) -> Vec<SubseqSync> {
    assert!(subseq_bits > 0);
    let num_subseqs = stream_end.div_ceil(subseq_bits) as usize;
    let mut out = Vec::with_capacity(num_subseqs);
    let mut start = 0u64;
    for i in 0..num_subseqs {
        let boundary = ((i as u64) + 1) * subseq_bits;
        let (end, count) = decode_subsequence(
            codebook,
            reader,
            start,
            boundary.min(stream_end),
            stream_end,
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

/// Measures how many subsequences a decoder starting (possibly misaligned) at
/// `start_bit` must decode before its position coincides with the converged
/// synchronization state — i.e. the per-thread work of the intra-sequence sync phase.
///
/// Returns the number of subsequences decoded (at least 1). `reference` must come from
/// [`reference_sync_states`] with the same geometry.
pub fn subsequences_until_sync(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    reference: &[SubseqSync],
    subseq_index: usize,
    subseq_bits: u64,
    stream_end: u64,
) -> u64 {
    let mut start = subseq_index as u64 * subseq_bits;
    let mut decoded = 0u64;
    let mut idx = subseq_index;
    loop {
        let boundary = ((idx as u64) + 1) * subseq_bits;
        let (end, _count) = decode_subsequence(
            codebook,
            reader,
            start,
            boundary.min(stream_end),
            stream_end,
        );
        decoded += 1;
        idx += 1;
        if idx >= reference.len() || end >= stream_end {
            return decoded;
        }
        // Synchronized when the stop position equals the converged start of the next
        // subsequence.
        if end == reference[idx].start_bit {
            return decoded;
        }
        start = end;
    }
}

/// Measures the self-synchronization distance in bits: starting a decode at
/// `misaligned_bit`, how many bits pass before the decoder lands on a true codeword
/// boundary (as given by `boundaries`, the sorted list of codeword start positions).
/// Returns `None` if it never synchronizes before the end of the stream.
pub fn sync_distance_bits(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    boundaries: &std::collections::BTreeSet<u64>,
    misaligned_bit: u64,
    stream_end: u64,
) -> Option<u64> {
    let mut pos = misaligned_bit;
    loop {
        if boundaries.contains(&pos) {
            return Some(pos - misaligned_bit);
        }
        if pos >= stream_end {
            return None;
        }
        match codebook.decode_at(reader, pos, stream_end) {
            Some((_sym, n)) => pos += n as u64,
            None => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode_flat_with_offsets;

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
        let enc = encode_flat_with_offsets(&cb, &symbols);
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let states = reference_sync_states(&cb, &reader, 128, enc.bit_len);
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
        let enc = encode_flat_with_offsets(&cb, &symbols);
        let boundaries: std::collections::BTreeSet<u64> = enc
            .symbol_bit_offsets
            .clone()
            .unwrap()
            .into_iter()
            .collect();
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let states = reference_sync_states(&cb, &reader, 128, enc.bit_len);
        for s in &states {
            assert!(boundaries.contains(&s.start_bit) || s.start_bit >= enc.bit_len);
        }
    }

    #[test]
    fn misaligned_start_synchronizes_quickly_on_practical_data() {
        // Klein & Wiseman: practical datasets self-synchronize within ~72 bits on
        // average. Check the average over many misaligned starts is well under the
        // subsequence size.
        let symbols = quantlike_symbols(50_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat_with_offsets(&cb, &symbols);
        let boundaries: std::collections::BTreeSet<u64> = enc
            .symbol_bit_offsets
            .clone()
            .unwrap()
            .into_iter()
            .collect();
        let reader = BitReader::new(&enc.units, enc.bit_len);

        let mut total = 0u64;
        let mut samples = 0u64;
        for i in (1..enc.bit_len).step_by(1009) {
            if let Some(d) = sync_distance_bits(&cb, &reader, &boundaries, i, enc.bit_len) {
                total += d;
                samples += 1;
            }
        }
        assert!(samples > 20);
        let avg = total as f64 / samples as f64;
        assert!(
            avg < 128.0,
            "average sync distance {} bits is unexpectedly large",
            avg
        );
    }

    #[test]
    fn subsequences_until_sync_is_usually_small() {
        let symbols = quantlike_symbols(30_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat_with_offsets(&cb, &symbols);
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let states = reference_sync_states(&cb, &reader, 128, enc.bit_len);

        let mut total = 0u64;
        for i in 0..states.len() {
            total += subsequences_until_sync(&cb, &reader, &states, i, 128, enc.bit_len);
        }
        let avg = total as f64 / states.len() as f64;
        // The paper: "each thread needs to decode only two subsequences on average".
        assert!(avg < 3.0, "average subsequences to sync = {}", avg);
    }

    #[test]
    fn already_aligned_start_needs_one_subsequence() {
        let symbols = quantlike_symbols(2_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat_with_offsets(&cb, &symbols);
        let reader = BitReader::new(&enc.units, enc.bit_len);
        let states = reference_sync_states(&cb, &reader, 128, enc.bit_len);
        // Subsequence 0 always starts aligned.
        assert_eq!(
            subsequences_until_sync(&cb, &reader, &states, 0, 128, enc.bit_len),
            1
        );
    }
}
