//! Online shared-memory tuning (Algorithm 2, §IV-C).
//!
//! Choosing the shared-memory buffer size for the decode/write kernel is a trade-off:
//! too little shared memory forces extra buffer windows (less parallel work per barrier),
//! too much reduces occupancy. The optimum depends on the data — specifically on each
//! sequence's compression ratio. The tuner therefore:
//!
//! 1. classifies every sequence's compression ratio into `T_high + 1` groups
//!    (`(0,1], (1,2], …, (T_high-1, T_high], (T_high, 16]`);
//! 2. histograms the classes on the device;
//! 3. key-value sorts `(class, sequence-index)` with a device radix sort, so each class's
//!    sequences are contiguous in the index array;
//! 4. transfers the histogram to the host and prefix-sums it into per-class offsets;
//! 5. launches one decode/write kernel per non-empty class, each with a shared-memory
//!    buffer proportional to the class's upper bound (capped for the `> T_high` group),
//!    all on separate CUDA streams so they may overlap.

use gpu_sim::{
    cost, primitives::device_histogram, primitives::device_radix_sort_pairs, Backend, BlockContext,
    BlockKernel, DeviceBuffer, KernelStats, LaunchConfig, PhaseTime, TransferDirection,
};

use crate::decode_write::{run_decode_write, WriteStrategy};
use crate::format::EncodedStream;
use crate::output_index::OutputIndex;
use crate::subseq::SubseqInfo;

/// Buffer size (in symbols) used for the highest compression-ratio group (`> T_high`).
/// The paper finds 3584 symbols optimal in most situations on the V100.
pub const HIGH_CR_BUFFER_SYMBOLS: u32 = 3584;

/// Maximum compression ratio the classifier distinguishes (the paper's last group covers
/// `(T_high, 16]`).
const MAX_CLASSIFIED_CR: f64 = 16.0;

/// Outcome of the tuned decode/write phase.
#[derive(Debug, Clone)]
pub struct TunedDecode {
    /// Time spent in the tuning pipeline itself (classification, histogram, sort,
    /// transfer, prefix sum) — the "tune shared mem." row of Table II.
    pub tune_phase: PhaseTime,
    /// Time of the per-class decode/write kernels (overlapped on streams) — the
    /// "decode and write" row of Table II.
    pub decode_phase: PhaseTime,
    /// The compression-ratio class assigned to each sequence.
    pub class_of_seq: Vec<u32>,
    /// The shared-memory buffer size (in symbols) used for each class.
    pub buffer_symbols_of_class: Vec<u32>,
}

/// The per-sequence classification kernel (step 1 of Algorithm 2).
struct ClassifyKernel<'a> {
    /// Decoded symbols per sequence.
    seq_symbols: &'a [u64],
    /// Compressed bytes per sequence (constant except for the last sequence).
    seq_bytes: f64,
    t_high: u32,
    classes: &'a DeviceBuffer<u32>,
}

impl BlockKernel for ClassifyKernel<'_> {
    fn name(&self) -> &str {
        "shmem_tuner::classify_cr"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let base = (ctx.block_idx() * ctx.block_dim()) as usize;
        for t in 0..ctx.block_dim() as usize {
            let seq = base + t;
            if seq >= self.seq_symbols.len() {
                break;
            }
            let cr = (self.seq_symbols[seq] as f64 * 2.0) / self.seq_bytes;
            let cr = cr.clamp(0.0, MAX_CLASSIFIED_CR);
            let class = if cr <= self.t_high as f64 {
                // Group (c-1, c] gets index c-1; ratios <= 1 land in group 0.
                (cr.ceil() as u32).max(1) - 1
            } else {
                self.t_high
            };
            self.classes.set(seq, class);
        }
        for w in 0..ctx.warp_count() {
            ctx.global_load_contiguous(w, base as u64, ctx.config().warp_size, 8);
            ctx.compute(w, 6.0 * cost::ALU);
            ctx.global_store_contiguous(w, base as u64, ctx.config().warp_size, 4);
        }
    }
}

/// Classifies sequences, sorts them by class, and launches one staged decode/write kernel
/// per class with a class-appropriate shared-memory buffer.
pub fn tuned_decode_write(
    gpu: &dyn Backend,
    stream: &EncodedStream,
    infos: &[SubseqInfo],
    output_index: &OutputIndex,
    output: &DeviceBuffer<u16>,
) -> TunedDecode {
    let num_seqs = stream.num_seqs();
    let t_high = gpu.config().t_high();
    let mut tune_phase = PhaseTime::empty();

    if num_seqs == 0 {
        return TunedDecode {
            tune_phase,
            decode_phase: PhaseTime::empty(),
            class_of_seq: Vec::new(),
            buffer_symbols_of_class: Vec::new(),
        };
    }

    // Per-sequence decoded symbol counts, derived from the output index.
    let spb = stream.geometry.subseqs_per_seq as usize;
    let total_symbols = output_index.total;
    let seq_symbols: Vec<u64> = (0..num_seqs)
        .map(|s| {
            let first = s * spb;
            let next = ((s + 1) * spb).min(infos.len());
            let start = output_index.offsets[first];
            let end = if next < infos.len() {
                output_index.offsets[next]
            } else {
                total_symbols
            };
            end - start
        })
        .collect();
    let seq_bytes = stream.geometry.seq_bits() as f64 / 8.0;

    // Step 1: classification kernel.
    let classes_buf = DeviceBuffer::<u32>::zeroed(num_seqs);
    let classify = ClassifyKernel {
        seq_symbols: &seq_symbols,
        seq_bytes,
        t_high,
        classes: &classes_buf,
    };
    tune_phase.push_serial(gpu.launch(&classify, LaunchConfig::covering(num_seqs, 256)));
    let class_of_seq = classes_buf.into_vec();

    // Step 2: device histogram of the classes.
    let num_classes = (t_high + 1) as usize;
    let (histogram, hist_phase) = device_histogram(gpu, &class_of_seq, num_classes);
    tune_phase.extend_serial(hist_phase);

    // Step 3: key-value radix sort (class, sequence index).
    let seq_indices: Vec<u32> = (0..num_seqs as u32).collect();
    let (_sorted_classes, sorted_seqs, sort_phase) =
        device_radix_sort_pairs(gpu, &class_of_seq, &seq_indices, t_high);
    tune_phase.extend_serial(sort_phase);

    // Step 4: transfer the histogram to the host and prefix-sum it into class offsets
    // (free on backends that do not model a host/device boundary).
    tune_phase.push_seconds(
        gpu.transfer_seconds(histogram.len() as u64 * 8, TransferDirection::DeviceToHost),
    );
    let mut class_start = vec![0usize; num_classes + 1];
    for c in 0..num_classes {
        class_start[c + 1] = class_start[c] + histogram[c] as usize;
    }

    // Step 5: one decode/write kernel per non-empty class, overlapped on streams.
    let buffer_symbols_of_class: Vec<u32> = (0..num_classes as u32)
        .map(|c| {
            if c < t_high {
                (c + 1) * 1024
            } else {
                HIGH_CR_BUFFER_SYMBOLS
            }
        })
        .collect();

    let mut kernels: Vec<KernelStats> = Vec::new();
    for c in 0..num_classes {
        let seqs = &sorted_seqs[class_start[c]..class_start[c + 1]];
        if seqs.is_empty() {
            continue;
        }
        let stats = run_decode_write(
            gpu,
            stream,
            infos,
            output_index,
            output,
            seqs,
            WriteStrategy::Staged {
                buffer_symbols: buffer_symbols_of_class[c],
            },
        );
        kernels.push(stats);
    }
    let concurrent = gpu.concurrent(&kernels);
    let mut decode_phase = PhaseTime::empty();
    decode_phase.push_seconds(concurrent.time_s);
    decode_phase.kernels = kernels;

    TunedDecode {
        tune_phase,
        decode_phase,
        class_of_seq,
        buffer_symbols_of_class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_index::compute_output_index;
    use crate::subseq::reference_subseq_infos;
    use crate::testutil::{gpu, quant_symbols};
    use huffman::Codebook;

    fn run_tuned(n: usize, spread: u32) -> (Vec<u16>, Vec<u16>, TunedDecode) {
        let symbols = quant_symbols(n, spread);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let stream = EncodedStream::encode(&cb, &symbols);
        let g = gpu();
        let infos = reference_subseq_infos(&stream);
        let (oi, _) = compute_output_index(&g, &infos);
        let output = DeviceBuffer::<u16>::zeroed(oi.total as usize);
        let tuned = tuned_decode_write(&g, &stream, &infos, &oi, &output);
        (output.to_vec(), symbols, tuned)
    }

    #[test]
    fn tuned_decode_is_exact() {
        let (decoded, symbols, tuned) = run_tuned(80_000, 7);
        assert_eq!(decoded, symbols);
        assert!(tuned.tune_phase.seconds > 0.0);
        assert!(tuned.decode_phase.seconds > 0.0);
    }

    #[test]
    fn classes_cover_all_sequences_and_are_in_range() {
        let (_, _, tuned) = run_tuned(120_000, 6);
        let t_high = gpu().config().t_high();
        assert!(!tuned.class_of_seq.is_empty());
        assert!(tuned.class_of_seq.iter().all(|&c| c <= t_high));
        assert_eq!(tuned.buffer_symbols_of_class.len(), (t_high + 1) as usize);
    }

    #[test]
    fn low_cr_data_uses_small_buffers() {
        // Roughly uniform 6-bit symbols: ~6 bits/symbol, CR ~2.5 -> classes 1-2.
        let symbols: Vec<u16> = (0..100_000u32)
            .map(|i| (480 + (i.wrapping_mul(2654435761) >> 20) % 64) as u16)
            .collect();
        let cb = Codebook::from_symbols(&symbols, 1024);
        let stream = EncodedStream::encode(&cb, &symbols);
        let g = gpu();
        let infos = reference_subseq_infos(&stream);
        let (oi, _) = compute_output_index(&g, &infos);
        let output = DeviceBuffer::<u16>::zeroed(oi.total as usize);
        let tuned = tuned_decode_write(&g, &stream, &infos, &oi, &output);
        assert_eq!(output.to_vec(), symbols);
        let max_class = *tuned.class_of_seq.iter().max().unwrap();
        assert!(max_class <= 3, "unexpectedly high class {}", max_class);
    }

    #[test]
    fn high_cr_data_uses_larger_buffers_or_cap() {
        // Spread 1 gives ~1-2 bits/symbol, CR ~8+ -> high classes.
        let (_, _, tuned) = run_tuned(150_000, 1);
        let max_class = *tuned.class_of_seq.iter().max().unwrap();
        assert!(max_class >= 3, "expected a high class, got {}", max_class);
    }

    #[test]
    fn buffer_sizes_scale_with_class() {
        let (_, _, tuned) = run_tuned(50_000, 5);
        let t_high = gpu().config().t_high();
        for c in 0..t_high as usize {
            assert_eq!(tuned.buffer_symbols_of_class[c], (c as u32 + 1) * 1024);
        }
        assert_eq!(
            tuned.buffer_symbols_of_class[t_high as usize],
            HIGH_CR_BUFFER_SYMBOLS
        );
    }

    #[test]
    fn empty_stream_is_handled() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let stream = EncodedStream::encode(&cb, &[]);
        let g = gpu();
        let infos: Vec<SubseqInfo> = Vec::new();
        let (oi, _) = compute_output_index(&g, &infos);
        let output = DeviceBuffer::<u16>::zeroed(0);
        let tuned = tuned_decode_write(&g, &stream, &infos, &oi, &output);
        assert!(tuned.class_of_seq.is_empty());
        assert_eq!(tuned.decode_phase.seconds, 0.0);
    }
}
