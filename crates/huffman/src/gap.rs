//! Gap arrays (Yamamoto et al.).
//!
//! A gap array stores, for every subsequence of the encoded bitstream, how many bits a
//! decoder starting at the subsequence boundary must skip before it is aligned with a true
//! codeword boundary. With this information available, a fine-grained parallel decoder
//! needs no self-synchronization phase — at the cost of coupling the encoder and decoder
//! and of storing one byte per subsequence alongside the compressed data (§III-C of the
//! paper).

use crate::bitstream::BitReader;
use crate::codebook::Codebook;
use crate::selfsync::reference_sync_states;

/// The gap array and the subsequence geometry it was computed for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapArray {
    /// `gaps[i]` = number of bits to skip from the start of subsequence `i` to reach the
    /// first codeword boundary at or after it. The first subsequence always has gap 0.
    pub gaps: Vec<u8>,
    /// Subsequence size in bits used when computing the array.
    pub subseq_bits: u64,
}

impl GapArray {
    /// Number of subsequences covered.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// True if the array covers no subsequences.
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// Absolute bit position where decoding of subsequence `i` must start.
    pub fn start_bit(&self, i: usize) -> u64 {
        i as u64 * self.subseq_bits + self.gaps[i] as u64
    }
}

/// Computes the gap array for a flat-encoded stream by a single sequential pass over the
/// codeword boundaries (this is the extra encoder-side work the paper attributes to the
/// gap-array approach): the gap of a subsequence is how far past its boundary the
/// converged decode of [`reference_sync_states`] starts it.
///
/// `subseq_bits` is the subsequence size in bits (e.g. 4 units × 32 bits = 128).
///
/// # Panics
/// Panics if a gap does not fit in a byte (impossible while the maximum codeword length
/// is below 256 bits) or if `subseq_bits` is zero.
pub fn compute_gap_array(
    codebook: &Codebook,
    units: &[u32],
    bit_len: u64,
    subseq_bits: u64,
) -> GapArray {
    assert!(subseq_bits > 0, "subsequence size must be positive");
    let reader = BitReader::new(units, bit_len);
    let gaps = reference_sync_states(codebook, &reader, subseq_bits)
        .iter()
        .enumerate()
        .map(|(i, state)| {
            // A decode that ran off the end leaves the remaining subsequences (they
            // contain only padding) starting exactly at their boundaries.
            let gap = state.start_bit.saturating_sub(i as u64 * subseq_bits);
            u8::try_from(gap).unwrap_or_else(|_| panic!("gap {} does not fit in a byte", gap))
        })
        .collect();
    GapArray { gaps, subseq_bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_flat, encode_flat_with_offsets};

    fn skewed_symbols(n: usize) -> Vec<u16> {
        (0..n as u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761) >> 20;
                (512 + (r % 24) as i32 - 12) as u16
            })
            .collect()
    }

    #[test]
    fn gaps_point_at_true_codeword_boundaries() {
        let symbols = skewed_symbols(20_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let (enc, offsets) = encode_flat_with_offsets(&cb, &symbols);
        let boundaries: std::collections::BTreeSet<u64> = offsets.iter().cloned().collect();

        let gap = compute_gap_array(&cb, &enc.units, enc.bit_len, 128);
        assert_eq!(gap.len(), (enc.bit_len as usize).div_ceil(128));
        assert_eq!(gap.gaps[0], 0);
        for i in 0..gap.len() {
            let start = gap.start_bit(i);
            // Every gap target is a codeword start (or the end of the stream).
            assert!(
                boundaries.contains(&start) || start >= enc.bit_len,
                "subsequence {} gap target {} is not a codeword boundary",
                i,
                start
            );
            // And it is the *first* boundary at or after the subsequence start.
            let boundary = i as u64 * 128;
            let first_after = boundaries
                .range(boundary..)
                .next()
                .cloned()
                .unwrap_or(enc.bit_len);
            assert_eq!(start.min(enc.bit_len), first_after.min(enc.bit_len));
        }
    }

    #[test]
    fn storage_overhead_matches_paper_scale() {
        // The paper reports gap arrays under 3% of the data size. With 128-bit
        // subsequences the overhead is 1 byte per 16 bytes of *compressed* payload, i.e.
        // 6.25% of compressed size; relative to the original (uncompressed) data at a
        // compression ratio >= 2.1 this is under 3%.
        let symbols = skewed_symbols(100_000);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        let gap = compute_gap_array(&cb, &enc.units, enc.bit_len, 128);
        let original_bytes = symbols.len() as u64 * 2;
        assert!((gap.len() as f64) < 0.03 * original_bytes as f64);
    }

    #[test]
    fn single_subsequence_stream() {
        let symbols = vec![1u16, 2, 3];
        let cb = Codebook::from_symbols(&symbols, 8);
        let enc = encode_flat(&cb, &symbols);
        let gap = compute_gap_array(&cb, &enc.units, enc.bit_len, 1024);
        assert_eq!(gap.len(), 1);
        assert_eq!(gap.gaps[0], 0);
    }

    #[test]
    fn empty_stream() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let gap = compute_gap_array(&cb, &[], 0, 128);
        assert!(gap.is_empty());
    }

    #[test]
    fn highly_compressible_stream_has_small_gaps() {
        // Nearly constant symbols -> 1-bit codewords -> every subsequence boundary is a
        // codeword boundary, so all gaps are 0 or tiny.
        let mut symbols = vec![512u16; 50_000];
        for i in (0..symbols.len()).step_by(997) {
            symbols[i] = 513;
        }
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        let gap = compute_gap_array(&cb, &enc.units, enc.bit_len, 128);
        assert!(gap.gaps.iter().all(|&g| g <= 2));
    }
}
