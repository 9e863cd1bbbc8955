//! Gap-array decoding phases (Yamamoto et al.).
//!
//! With a gap array available, no synchronization phase is needed: every thread knows
//! exactly where its subsequence's first codeword starts. What remains before the
//! decode/write phase is the "redundant decoding" pass that counts how many codewords each
//! thread will produce (the paper's "get output idx." phase), followed by the prefix sum.
//!
//! This module also contains the **original 8-bit gap-array decoder** used as a baseline
//! in Table V: the paper could not adapt Yamamoto et al.'s original code to multi-byte
//! symbols, so it estimates its performance by trimming each quantization code to a single
//! byte; we reproduce that estimation faithfully (separate 8-bit codebook and stream,
//! direct packed writes, compression ratio doubled by the harness for comparability).

use gpu_sim::{cost, Backend, BlockContext, BlockKernel, DeviceBuffer, LaunchConfig, PhaseTime};
use huffman::{BitReader, Codebook};

use crate::format::EncodedStream;
use crate::phases::PhaseBreakdown;
use crate::subseq::SubseqInfo;

const COUNT_BLOCK_DIM: u32 = 128;

/// The "redundant decoding" kernel: one thread per subsequence decodes from its
/// gap-adjusted start to the next subsequence's gap-adjusted start, counting codewords.
struct GapCountKernel<'a> {
    stream: &'a EncodedStream,
    starts: &'a [u64],
    counts: &'a DeviceBuffer<u64>,
}

impl BlockKernel for GapCountKernel<'_> {
    fn name(&self) -> &str {
        "gap_array::count_symbols"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let total_subs = self.starts.len();
        let base = (ctx.block_idx() * ctx.block_dim()) as usize;
        let warp_size = ctx.config().warp_size as usize;
        let reader = BitReader::new(&self.stream.units, self.stream.bit_len);

        // A warp in lock-step decodes at the pace of its slowest lane.
        let mut warp_cycles = 0.0f64;
        for t in 0..ctx.block_dim() as usize {
            let sub = base + t;
            let warp = (t / warp_size) as u32;
            let lane = t % warp_size;
            if sub < total_subs {
                let start = self.starts[sub];
                let end = self
                    .starts
                    .get(sub + 1)
                    .cloned()
                    .unwrap_or(self.stream.bit_len);
                let (_, count) = self.stream.codebook.decode_run(
                    &reader,
                    start,
                    end,
                    self.stream.bit_len,
                    u64::MAX,
                    |_, _| {},
                );
                self.counts.set(sub, count);
                warp_cycles =
                    warp_cycles.max((end.saturating_sub(start)) as f64 * cost::DECODE_PER_BIT);
            }
            if lane == warp_size - 1 || t == ctx.block_dim() as usize - 1 {
                ctx.compute(warp, warp_cycles);
                warp_cycles = 0.0;
                let geo = self.stream.geometry;
                for round in 0..geo.subseq_units as u64 {
                    ctx.global_load_strided(
                        warp,
                        (base + t - lane) as u64 * geo.subseq_units as u64 + round,
                        (lane + 1) as u32,
                        geo.subseq_units as u64,
                        4,
                    );
                }
                // Gap-array byte load (one per thread, contiguous) and count store.
                ctx.global_load_contiguous(warp, (base + t - lane) as u64, (lane + 1) as u32, 1);
                ctx.global_store_contiguous(warp, (base + t - lane) as u64, (lane + 1) as u32, 8);
            }
        }
    }
}

/// Runs the gap-array counting phase: returns per-subsequence states (start from the gap
/// array, count from redundant decoding) and the phase time.
///
/// # Panics
/// Panics if the stream was encoded without a gap array.
pub fn gap_count_symbols(
    gpu: &dyn Backend,
    stream: &EncodedStream,
) -> (Vec<SubseqInfo>, PhaseTime) {
    let gap = stream
        .gap_array
        .as_ref()
        .expect("gap-array decoding requires a stream encoded with a gap array");
    let total_subs = stream.num_subseqs();
    let mut phase = PhaseTime::empty();
    if total_subs == 0 {
        return (Vec::new(), phase);
    }
    assert_eq!(
        gap.len(),
        total_subs,
        "gap array does not match the stream geometry"
    );

    let starts: Vec<u64> = (0..total_subs)
        .map(|i| gap.start_bit(i).min(stream.bit_len))
        .collect();
    let counts = DeviceBuffer::<u64>::zeroed(total_subs);
    let kernel = GapCountKernel {
        stream,
        starts: &starts,
        counts: &counts,
    };
    let grid = (total_subs as u32).div_ceil(COUNT_BLOCK_DIM);
    phase.push_serial(gpu.launch(&kernel, LaunchConfig::new(grid, COUNT_BLOCK_DIM)));

    let counts = counts.into_vec();
    let infos = starts
        .into_iter()
        .zip(counts)
        .map(|(start_bit, num_symbols)| SubseqInfo {
            start_bit,
            num_symbols,
        })
        .collect();
    (infos, phase)
}

// ---------------------------------------------------------------------------------------
// Original 8-bit gap-array decoder (Table V baseline).
// ---------------------------------------------------------------------------------------

/// An 8-bit gap-array encoded stream: the quantization codes trimmed to a single byte and
/// Huffman-encoded with their own codebook, as the paper does to estimate the original
/// Yamamoto et al. decoder's performance.
#[derive(Debug, Clone)]
pub struct Gap8Stream {
    /// The trimmed 8-bit symbols (ground truth for the decoder's output).
    pub symbols8: Vec<u8>,
    /// The flat Huffman stream over the 8-bit alphabet, with gap array.
    pub stream: EncodedStream,
}

/// Trims 16-bit quantization codes to 8 bits, re-centering around 128 (the paper keeps the
/// single byte "considering most quantization codes are concentrated in the middle").
pub fn trim_to_8bit(symbols: &[u16], alphabet_size: usize) -> Vec<u8> {
    let mid = (alphabet_size / 2) as i32;
    symbols
        .iter()
        .map(|&s| {
            let offset = s as i32 - mid + 128;
            offset.clamp(0, 255) as u8
        })
        .collect()
}

/// Builds the 8-bit gap-array stream from 16-bit quantization codes.
pub fn encode_gap8(symbols: &[u16], alphabet_size: usize) -> Gap8Stream {
    let symbols8 = trim_to_8bit(symbols, alphabet_size);
    let widened: Vec<u16> = symbols8.iter().map(|&b| b as u16).collect();
    let codebook = Codebook::from_symbols(&widened, 256);
    let stream = EncodedStream::encode_with_gap_array(&codebook, &widened);
    Gap8Stream { symbols8, stream }
}

/// Decodes an 8-bit gap-array stream with the *original* (direct-write) strategy:
/// counting phase + prefix sum + direct writes, where each thread packs four 8-bit symbols
/// into one 32-bit store (Yamamoto et al. write multiple symbols at a time).
pub fn decode_original_gap8(gpu: &dyn Backend, g8: &Gap8Stream) -> (Vec<u8>, PhaseBreakdown) {
    use crate::decode_write::{run_decode_write, WriteStrategy};
    use crate::output_index::compute_output_index;

    let (infos, count_phase) = gap_count_symbols(gpu, &g8.stream);
    let (oi, prefix_phase) = compute_output_index(gpu, &infos);

    let output = DeviceBuffer::<u16>::zeroed(oi.total as usize);
    let all_seqs: Vec<u32> = (0..g8.stream.num_seqs() as u32).collect();
    let stats = run_decode_write(
        gpu,
        &g8.stream,
        &infos,
        &oi,
        &output,
        &all_seqs,
        WriteStrategy::Direct,
    );

    // Packed 4-byte stores write one quarter of the transactions of per-symbol stores;
    // reflect that by scaling the decode/write time's store-bound component. The
    // simulation still performed the functional work symbol-by-symbol. Measured
    // (non-modeled) timings are left untouched: recombining them from the modeled
    // compute/memory split would zero them out.
    let mut decode_phase = PhaseTime::empty();
    let mut adjusted = stats;
    adjusted.mem.store_sectors = adjusted.mem.store_sectors.div_ceil(2);
    if gpu.is_modeled() {
        adjusted.mem_time_s *= 0.5;
        adjusted.time_s =
            adjusted.compute_time_s.max(adjusted.mem_time_s) + adjusted.launch_overhead_s;
    }
    decode_phase.push_serial(adjusted);

    let mut output_index_phase = count_phase;
    output_index_phase.extend_serial(prefix_phase);

    let timings = PhaseBreakdown {
        intra_sync: None,
        inter_sync: None,
        output_index: Some(output_index_phase),
        tune: None,
        decode_write: Some(decode_phase),
    };
    let symbols: Vec<u8> = output.into_vec().into_iter().map(|s| s as u8).collect();
    (symbols, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subseq::reference_subseq_infos;
    use crate::testutil::{gpu, quant_symbols};

    #[test]
    fn gap_counting_matches_reference_sync_states() {
        let symbols = quant_symbols(60_000, 7);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let stream = EncodedStream::encode_with_gap_array(&cb, &symbols);
        let (infos, phase) = gap_count_symbols(&gpu(), &stream);
        assert_eq!(infos, reference_subseq_infos(&stream));
        assert!(phase.seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "requires a stream encoded with a gap array")]
    fn counting_without_gap_array_panics() {
        let symbols = quant_symbols(1_000, 5);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let stream = EncodedStream::encode(&cb, &symbols);
        let _ = gap_count_symbols(&gpu(), &stream);
    }

    #[test]
    fn trim_to_8bit_centers_codes() {
        let symbols = vec![512u16, 511, 513, 600, 400];
        let trimmed = trim_to_8bit(&symbols, 1024);
        assert_eq!(trimmed, vec![128, 127, 129, 216, 16]);
        // Out-of-byte-range codes clamp.
        assert_eq!(trim_to_8bit(&[0, 1023], 1024), vec![0, 255]);
    }

    #[test]
    fn gap8_roundtrip_decodes_trimmed_symbols() {
        let symbols = quant_symbols(40_000, 6);
        let g8 = encode_gap8(&symbols, 1024);
        let (decoded, timings) = decode_original_gap8(&gpu(), &g8);
        assert_eq!(decoded, g8.symbols8);
        assert!(timings.output_index.is_some());
        assert!(timings.decode_write.is_some());
        assert!(timings.intra_sync.is_none());
        assert!(timings.tune.is_none());
    }

    #[test]
    fn gap8_stream_compresses() {
        let symbols = quant_symbols(50_000, 4);
        let g8 = encode_gap8(&symbols, 1024);
        // 8-bit original bytes = n; compression ratio relative to the 8-bit codes.
        let cr = g8.symbols8.len() as f64 / g8.stream.compressed_bytes() as f64;
        assert!(cr > 1.0, "cr = {}", cr);
    }
}
