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

use crate::decode_write::{DecodeWriteKernel, WriteStrategy};
use crate::format::EncodedStream;
use crate::output_index::OutputIndex;
use crate::phases::PhaseBreakdown;
use crate::subseq::SubseqInfo;

/// Buffer size (in symbols) used for the highest compression-ratio group (`> T_high`).
/// The paper finds 3584 symbols optimal in most situations on the V100.
pub const HIGH_CR_BUFFER_SYMBOLS: u32 = 3584;

/// Maximum compression ratio the classifier distinguishes (the paper's last group covers
/// `(T_high, 16]`).
const MAX_CLASSIFIED_CR: f64 = 16.0;

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
/// per class with a class-appropriate shared-memory buffer. Returns the `tune` phase (the
/// "tune shared mem." row of Table II: classification, histogram, sort, transfer, prefix
/// sum) and the `decode_write` phase (the per-class kernels, overlapped on streams).
pub(crate) fn tuned_decode_write(
    gpu: &dyn Backend,
    stream: &EncodedStream,
    infos: &[SubseqInfo],
    output_index: &OutputIndex,
    output: &DeviceBuffer<u16>,
) -> PhaseBreakdown {
    let num_seqs = stream.num_seqs();
    let t_high = gpu.config().t_high();
    let mut tune_phase = PhaseTime::empty();

    if num_seqs == 0 {
        return tuned_phases(tune_phase, PhaseTime::empty());
    }

    // Step 1: classification kernel.
    let (class_of_seq, classify_launch) = classify(gpu, stream, infos, output_index);
    tune_phase.push_serial(classify_launch);

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
    let mut kernels: Vec<KernelStats> = Vec::new();
    for c in 0..num_classes {
        let seqs = &sorted_seqs[class_start[c]..class_start[c + 1]];
        if seqs.is_empty() {
            continue;
        }
        let kernel = DecodeWriteKernel {
            stream,
            infos,
            output_index,
            output,
            output_start: 0,
            seq_indices: seqs,
            strategy: WriteStrategy::Staged {
                buffer_symbols: class_buffer_symbols(c as u32, t_high),
            },
        };
        kernels.push(kernel.run(gpu));
    }
    let concurrent = gpu.concurrent(&kernels);
    let mut decode_phase = PhaseTime::empty();
    decode_phase.push_seconds(concurrent.time_s);
    decode_phase.kernels = kernels;
    tuned_phases(tune_phase, decode_phase)
}

fn tuned_phases(tune: PhaseTime, decode_write: PhaseTime) -> PhaseBreakdown {
    PhaseBreakdown {
        tune: Some(tune),
        decode_write: Some(decode_write),
        ..PhaseBreakdown::default()
    }
}

/// Step 1 of Algorithm 2: the compression-ratio class of every sequence, from its
/// decoded symbol count in the output index, and the classification launch.
fn classify(
    gpu: &dyn Backend,
    stream: &EncodedStream,
    infos: &[SubseqInfo],
    output_index: &OutputIndex,
) -> (Vec<u32>, KernelStats) {
    let num_seqs = stream.num_seqs();
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
    let classes = DeviceBuffer::<u32>::zeroed(num_seqs);
    let kernel = ClassifyKernel {
        seq_symbols: &seq_symbols,
        seq_bytes: stream.geometry.seq_bits() as f64 / 8.0,
        t_high: gpu.config().t_high(),
        classes: &classes,
    };
    let stats = gpu.launch(&kernel, LaunchConfig::covering(num_seqs, 256));
    (classes.into_vec(), stats)
}

/// The shared-memory buffer, in symbols, of compression-ratio class `class`: 1024 per
/// unit of the class's upper bound, capped for the `> T_high` group.
fn class_buffer_symbols(class: u32, t_high: u32) -> u32 {
    if class < t_high {
        (class + 1) * 1024
    } else {
        HIGH_CR_BUFFER_SYMBOLS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_index::compute_output_index;
    use crate::subseq::reference_subseq_infos;
    use crate::testutil::{gpu, quant_symbols};
    use huffman::Codebook;

    /// A tuned decode of `symbols` from the reference per-subsequence state: the decoded
    /// symbols, the two phases and the class the tuner gave each sequence.
    fn tuned(symbols: &[u16]) -> (Vec<u16>, PhaseBreakdown, Vec<u32>) {
        let cb = Codebook::from_symbols(symbols, 1024);
        let stream = EncodedStream::encode(&cb, symbols);
        let g = gpu();
        let infos = reference_subseq_infos(&stream);
        let (oi, _) = compute_output_index(&g, &infos);
        let output = DeviceBuffer::<u16>::zeroed(oi.total as usize);
        let phases = tuned_decode_write(&g, &stream, &infos, &oi, &output);
        let (classes, _) = classify(&g, &stream, &infos, &oi);
        (output.into_vec(), phases, classes)
    }

    #[test]
    fn tuned_decode_is_exact() {
        let symbols = quant_symbols(80_000, 7);
        let (decoded, phases, _) = tuned(&symbols);
        assert_eq!(decoded, symbols);
        assert!(phases.tune.unwrap().seconds > 0.0);
        assert!(phases.decode_write.unwrap().seconds > 0.0);
    }

    #[test]
    fn classes_cover_all_sequences_and_are_in_range() {
        let symbols = quant_symbols(120_000, 6);
        let (_, _, classes) = tuned(&symbols);
        let t_high = gpu().config().t_high();
        assert!(!classes.is_empty());
        assert!(classes.iter().all(|&c| c <= t_high));
    }

    #[test]
    fn low_cr_data_uses_small_buffers() {
        // Roughly uniform 6-bit symbols: ~6 bits/symbol, CR ~2.5 -> classes 1-2.
        let symbols: Vec<u16> = (0..100_000u32)
            .map(|i| (480 + (i.wrapping_mul(2654435761) >> 20) % 64) as u16)
            .collect();
        let (decoded, _, classes) = tuned(&symbols);
        assert_eq!(decoded, symbols);
        let max_class = *classes.iter().max().unwrap();
        assert!(max_class <= 3, "unexpectedly high class {}", max_class);
    }

    #[test]
    fn high_cr_data_uses_larger_buffers_or_cap() {
        // Spread 1 gives ~1-2 bits/symbol, CR ~8+ -> high classes.
        let (_, _, classes) = tuned(&quant_symbols(150_000, 1));
        let max_class = *classes.iter().max().unwrap();
        assert!(max_class >= 3, "expected a high class, got {}", max_class);
    }

    #[test]
    fn buffer_sizes_scale_with_class() {
        let t_high = gpu().config().t_high();
        for c in 0..t_high {
            assert_eq!(class_buffer_symbols(c, t_high), (c + 1) * 1024);
        }
        assert_eq!(class_buffer_symbols(t_high, t_high), HIGH_CR_BUFFER_SYMBOLS);
    }

    #[test]
    fn empty_stream_is_handled() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let stream = EncodedStream::encode(&cb, &[]);
        let g = gpu();
        let infos: Vec<SubseqInfo> = Vec::new();
        let (oi, _) = compute_output_index(&g, &infos);
        let output = DeviceBuffer::<u16>::zeroed(0);
        let phases = tuned_decode_write(&g, &stream, &infos, &oi, &output);
        assert_eq!(phases.kernel_launches(), 0);
        assert_eq!(phases.decode_write.unwrap().seconds, 0.0);
    }
}
