//! Huffman tree construction.
//!
//! Classic greedy construction (Huffman 1952): repeatedly merge the two lowest-frequency
//! nodes. Produces the optimal prefix-free code lengths for the given frequencies; the
//! actual codewords assigned by this reproduction are *canonical* (see
//! [`crate::canonical`]), as in cuSZ's codebook construction, so that decode tables are
//! compact and deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::freq::FrequencyTable;

/// Maximum codeword length supported by the bitstream units (a codeword must fit well
/// within a 32-bit unit for the decoders' bit-fetch logic).
pub const MAX_CODE_LEN: u8 = 31;

/// Computes the Huffman code length (in bits) for every symbol of the alphabet.
///
/// Zero-frequency symbols get length 0 (they never appear and receive no codeword). If
/// only one distinct symbol occurs, it is assigned length 1 (a zero-length code cannot be
/// written to a bitstream).
///
/// Returns `None` if the optimal code would exceed [`MAX_CODE_LEN`] bits (callers then
/// fall back to length-limited construction; in practice cuSZ quantization codes are far
/// from this limit because the alphabet is at most 65536 symbols).
pub fn code_lengths(freq: &FrequencyTable) -> Option<Vec<u8>> {
    let counts = freq.counts();
    let n = counts.len();
    let mut lengths = vec![0u8; n];

    let present: Vec<usize> = (0..n).filter(|&i| counts[i] > 0).collect();
    match present.len() {
        0 => return Some(lengths),
        1 => {
            lengths[present[0]] = 1;
            return Some(lengths);
        }
        _ => {}
    }

    // Node arena: leaves then internal nodes. parent[i] tracks the merge structure.
    #[derive(Clone, Copy)]
    struct Node {
        parent: usize,
    }
    const NO_PARENT: usize = usize::MAX;

    let mut nodes: Vec<Node> = Vec::with_capacity(present.len() * 2);
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut leaf_node_of_symbol: Vec<usize> = vec![usize::MAX; n];

    for &sym in &present {
        let idx = nodes.len();
        nodes.push(Node { parent: NO_PARENT });
        leaf_node_of_symbol[sym] = idx;
        heap.push(Reverse((counts[sym], idx)));
    }

    while heap.len() > 1 {
        let Reverse((w1, a)) = heap.pop().unwrap();
        let Reverse((w2, b)) = heap.pop().unwrap();
        let idx = nodes.len();
        nodes.push(Node { parent: NO_PARENT });
        nodes[a].parent = idx;
        nodes[b].parent = idx;
        heap.push(Reverse((w1 + w2, idx)));
    }

    for &sym in &present {
        let mut depth = 0u32;
        let mut cur = leaf_node_of_symbol[sym];
        while nodes[cur].parent != NO_PARENT {
            cur = nodes[cur].parent;
            depth += 1;
        }
        if depth > MAX_CODE_LEN as u32 {
            return None;
        }
        lengths[sym] = depth as u8;
    }
    Some(lengths)
}

/// Computes length-limited code lengths with maximum length `max_len` using the
/// package-merge algorithm. Used as a fallback when the unconstrained Huffman code would
/// exceed [`MAX_CODE_LEN`] (possible only for pathological frequency distributions).
pub fn length_limited_code_lengths(freq: &FrequencyTable, max_len: u8) -> Vec<u8> {
    let counts = freq.counts();
    let n = counts.len();
    let mut lengths = vec![0u8; n];
    let present: Vec<usize> = (0..n).filter(|&i| counts[i] > 0).collect();
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        (1u64 << max_len) >= present.len() as u64,
        "max_len {} cannot encode {} symbols",
        max_len,
        present.len()
    );

    // Package-merge: item = (weight, set of leaf symbols it contains).
    type Item = (u64, Vec<usize>);
    let leaves: Vec<Item> = {
        let mut v: Vec<Item> = present.iter().map(|&s| (counts[s], vec![s])).collect();
        v.sort_by_key(|(w, _)| *w);
        v
    };

    // Start with the leaf list; (max_len - 1) times, package adjacent pairs and merge the
    // packages back with the original leaves. The first 2(n-1) items of the final list
    // contain each leaf exactly `code length` times.
    let mut list: Vec<Item> = leaves.clone();
    for _level in 0..(max_len - 1) {
        let mut packaged: Vec<Item> = Vec::with_capacity(list.len() / 2);
        let mut i = 0;
        while i + 1 < list.len() {
            let (w1, mut s1) = list[i].clone();
            let (w2, s2) = list[i + 1].clone();
            s1.extend(s2);
            packaged.push((w1 + w2, s1));
            i += 2;
        }
        list = leaves.iter().cloned().chain(packaged).collect();
        list.sort_by_key(|(w, _)| *w);
    }

    let take = 2 * (present.len() - 1);
    let mut activation = vec![0u32; n];
    for (_w, syms) in list.iter().take(take) {
        for &s in syms {
            activation[s] += 1;
        }
    }
    for &s in &present {
        lengths[s] = activation[s].max(1) as u8;
    }
    lengths
}

/// Checks the Kraft inequality for a set of code lengths: a prefix-free code with these
/// lengths exists iff `sum(2^-len) <= 1` (equality for a complete/optimal code).
pub fn kraft_sum(lengths: &[u8]) -> f64 {
    lengths
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 2f64.powi(-(l as i32)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freqs(counts: &[u64]) -> FrequencyTable {
        FrequencyTable::from_counts(counts.to_vec())
    }

    /// Expected code length in bits per symbol under the given frequencies.
    fn expected_length(freq: &FrequencyTable, lengths: &[u8]) -> f64 {
        let bits: f64 = freq
            .counts()
            .iter()
            .zip(lengths)
            .map(|(&c, &len)| c as f64 * len as f64)
            .sum();
        bits / freq.total() as f64
    }

    #[test]
    fn classic_example_lengths() {
        // Frequencies 45, 13, 12, 16, 9, 5 — the CLRS example; optimal lengths 1,3,3,3,4,4.
        let f = freqs(&[45, 13, 12, 16, 9, 5]);
        let mut lens = code_lengths(&f).unwrap();
        lens.sort_unstable();
        assert_eq!(lens, vec![1, 3, 3, 3, 4, 4]);
    }

    #[test]
    fn kraft_equality_for_optimal_code() {
        let f = freqs(&[45, 13, 12, 16, 9, 5]);
        let lens = code_lengths(&f).unwrap();
        assert!((kraft_sum(&lens) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_length_at_least_entropy() {
        let f = freqs(&[100, 50, 20, 10, 5, 5, 3, 1]);
        let lens = code_lengths(&f).unwrap();
        let avg = expected_length(&f, &lens);
        assert!(avg >= f.entropy_bits() - 1e-12);
        assert!(avg < f.entropy_bits() + 1.0); // Huffman is within 1 bit of entropy.
    }

    #[test]
    fn single_symbol_gets_length_one() {
        let f = freqs(&[0, 7, 0]);
        let lens = code_lengths(&f).unwrap();
        assert_eq!(lens, vec![0, 1, 0]);
    }

    #[test]
    fn empty_frequencies_all_zero() {
        let f = freqs(&[0, 0, 0, 0]);
        let lens = code_lengths(&f).unwrap();
        assert!(lens.iter().all(|&l| l == 0));
    }

    #[test]
    fn zero_frequency_symbols_get_no_code() {
        let f = freqs(&[10, 0, 5, 0, 1]);
        let lens = code_lengths(&f).unwrap();
        assert_eq!(lens[1], 0);
        assert_eq!(lens[3], 0);
        assert!(lens[0] > 0 && lens[2] > 0 && lens[4] > 0);
    }

    #[test]
    fn skewed_distribution_produces_short_code_for_common_symbol() {
        // Geometric-ish distribution like a well-predicted quantization stream: symbol 0
        // dominates.
        let mut counts = vec![0u64; 16];
        counts[0] = 1_000_000;
        for (i, item) in counts.iter_mut().enumerate().skip(1) {
            *item = 1_000_000u64 >> (i * 2).min(40);
        }
        let f = freqs(&counts);
        let lens = code_lengths(&f).unwrap();
        assert_eq!(lens[0], 1);
        assert!((kraft_sum(&lens) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn length_limited_respects_limit_and_kraft() {
        // Exponential frequencies force long codes; limit to 5 bits.
        let counts: Vec<u64> = (0..20u32).map(|i| 1u64 << i).collect();
        let f = freqs(&counts);
        let lens = length_limited_code_lengths(&f, 5);
        assert!(lens.iter().all(|&l| l <= 5 && l > 0));
        assert!(kraft_sum(&lens) <= 1.0 + 1e-12);
    }

    #[test]
    fn length_limited_matches_huffman_when_unconstrained() {
        let f = freqs(&[45, 13, 12, 16, 9, 5]);
        let huff = code_lengths(&f).unwrap();
        let limited = length_limited_code_lengths(&f, 31);
        let avg_h = expected_length(&f, &huff);
        let avg_l = expected_length(&f, &limited);
        // Package-merge with a generous limit is also optimal.
        assert!((avg_h - avg_l).abs() < 1e-12);
    }

    #[test]
    fn large_alphabet_realistic_quant_codes() {
        // 1024-bin alphabet with a Gaussian-ish concentration around the middle, as cuSZ
        // quantization codes are.
        let mut counts = vec![0u64; 1024];
        for (i, c) in counts.iter_mut().enumerate() {
            let d = (i as i64 - 512).unsigned_abs();
            *c = if d < 60 { 1_000_000 / (1 + d * d) } else { 0 };
        }
        let f = freqs(&counts);
        let lens = code_lengths(&f).unwrap();
        assert!(kraft_sum(&lens) <= 1.0 + 1e-12);
        assert!(lens[512] <= 2);
    }
}
