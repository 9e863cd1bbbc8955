//! Output-index computation (step 3 of the self-synchronization algorithm, and the tail
//! of the gap-array decoder's "get output index" phase).
//!
//! Once every subsequence knows how many codewords it will decode, a device-wide exclusive
//! prefix sum turns the counts into the global output offset of each thread's first
//! symbol. The prefix sum runs on the simulator's CUB-equivalent primitive so the phase is
//! charged a faithful cost.

use gpu_sim::{primitives::device_exclusive_prefix_sum, Backend, PhaseTime};

use crate::subseq::SubseqInfo;

/// The output index: `offsets[i]` is where subsequence `i`'s first symbol lands in the
/// output array; `total` is the total number of decoded symbols.
#[derive(Debug, Clone)]
pub struct OutputIndex {
    /// Exclusive prefix sums of the per-subsequence symbol counts.
    pub offsets: Vec<u64>,
    /// Total symbol count (= the last offset plus the last count).
    pub total: u64,
}

/// Computes the output index on the device from per-subsequence states.
pub fn compute_output_index(gpu: &dyn Backend, infos: &[SubseqInfo]) -> (OutputIndex, PhaseTime) {
    let counts: Vec<u64> = infos.iter().map(|i| i.num_symbols).collect();
    let (offsets, total, phase) = device_exclusive_prefix_sum(gpu, &counts);
    (OutputIndex { offsets, total }, phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gpu;

    #[test]
    fn offsets_are_exclusive_prefix_sums() {
        let infos: Vec<SubseqInfo> = [3u64, 0, 5, 2, 7]
            .iter()
            .map(|&n| SubseqInfo {
                start_bit: 0,
                num_symbols: n,
            })
            .collect();
        let (idx, phase) = compute_output_index(&gpu(), &infos);
        assert_eq!(idx.offsets, vec![0, 3, 3, 8, 10]);
        assert_eq!(idx.total, 17);
        assert!(phase.seconds > 0.0);
    }

    #[test]
    fn empty_input() {
        let (idx, phase) = compute_output_index(&gpu(), &[]);
        assert!(idx.offsets.is_empty());
        assert_eq!(idx.total, 0);
        assert_eq!(phase.seconds, 0.0);
    }

    #[test]
    fn large_input_consistency() {
        let infos: Vec<SubseqInfo> = (0..10_000u64)
            .map(|i| SubseqInfo {
                start_bit: 0,
                num_symbols: i % 37,
            })
            .collect();
        let (idx, _) = compute_output_index(&gpu(), &infos);
        let mut acc = 0u64;
        for (i, info) in infos.iter().enumerate() {
            assert_eq!(idx.offsets[i], acc);
            acc += info.num_symbols;
        }
        assert_eq!(idx.total, acc);
    }
}
