//! cuSZ's baseline coarse-grained Huffman decoder.
//!
//! The decoder the paper sets out to replace (§III-A): the input is encoded in fixed-size
//! chunks of thousands of codewords, and each CUDA *thread* decodes a whole chunk
//! sequentially, bit by bit, writing symbols straight to global memory. Parallelism is
//! therefore coarse (one thread per chunk), per-thread work is large, and both the unit
//! loads and the symbol stores are heavily strided across the threads of a warp.

use std::sync::atomic::{AtomicU64, Ordering};

use gpu_sim::{cost, Backend, BlockContext, BlockKernel, DeviceBuffer, LaunchConfig};
use huffman::{BitReader, ChunkedEncoded, Codebook};

use crate::decoder::{DecodeError, DecoderKind};

/// Threads per block used by the baseline decoder (as in cuSZ).
const BLOCK_DIM: u32 = 128;

/// The coarse-grained decode kernel: one thread per *selected* chunk. Thread `i` decodes
/// `chunks[chunk_indices[i]]`, so a launch can cover the whole stream (a full decode) or
/// just the chunks overlapping a requested symbol range (the partial-decode path of the
/// serving layer).
struct CoarseDecodeKernel<'a> {
    encoded: &'a ChunkedEncoded,
    codebook: &'a Codebook,
    output: &'a DeviceBuffer<u16>,
    chunk_indices: &'a [u32],
    /// Symbols the launch actually decoded. A lane stops at the first codeword that
    /// resolves to no symbol (or runs out of bits), so a corrupt chunk leaves this short
    /// of the chunks' declared total — the launcher turns that into a typed error.
    /// `Relaxed` suffices: the launch joins every block before the count is read.
    decoded: AtomicU64,
}

impl BlockKernel for CoarseDecodeKernel<'_> {
    fn name(&self) -> &str {
        "cusz_baseline::coarse_decode"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let warp_size = ctx.config().warp_size;
        let chunks = &self.encoded.chunks;
        let selected = self.chunk_indices;
        let base_chunk = (ctx.block_idx() * ctx.block_dim()) as usize;

        for w in 0..ctx.warp_count() {
            let warp_base = base_chunk + (w * warp_size) as usize;
            if warp_base >= selected.len() {
                break;
            }
            let lanes = warp_size.min((selected.len() - warp_base) as u32);

            // Functional decode + the warp's work: in lock-step it advances at the pace of
            // the lane with the most of each.
            let mut max_bits = 0u64;
            let mut max_symbols = 0u64;
            let mut max_units = 0u64;
            for lane in 0..lanes {
                let chunk = &chunks[selected[warp_base + lane as usize] as usize];
                let start = chunk.unit_offset as usize;
                let end = start + chunk.unit_count as usize;
                let reader = BitReader::new(&self.encoded.units[start..end], chunk.bit_len);
                let (_, decoded) = self.codebook.decode_run(
                    &reader,
                    0,
                    u64::MAX,
                    chunk.bit_len,
                    chunk.num_symbols,
                    |k, sym| self.output.set((chunk.symbol_offset + k) as usize, sym),
                );
                self.decoded.fetch_add(decoded, Ordering::Relaxed);
                max_bits = max_bits.max(chunk.bit_len);
                max_symbols = max_symbols.max(chunk.num_symbols);
                max_units = max_units.max(chunk.unit_count);
            }

            // Cost model.
            // Bit-by-bit decode.
            ctx.compute(w, max_bits as f64 * cost::DECODE_PER_BIT);

            // Unit loads: each lane streams its own chunk's units; lanes are separated by
            // a whole chunk, so every warp-wide load round touches `lanes` distinct
            // segments.
            let chunk_stride_units = self
                .encoded
                .chunks
                .first()
                .map(|c| c.unit_count)
                .unwrap_or(1)
                .max(1);
            for round in 0..max_units {
                ctx.global_load_strided(
                    w,
                    warp_base as u64 * chunk_stride_units + round,
                    lanes,
                    chunk_stride_units,
                    4,
                );
            }

            // Symbol stores: each lane writes to its own chunk's output range, so a
            // warp-wide store round is strided by the chunk symbol count.
            let symbol_stride = self.encoded.chunk_symbols as u64;
            for round in 0..max_symbols {
                ctx.global_store_strided(
                    w,
                    warp_base as u64 * symbol_stride + round,
                    lanes,
                    symbol_stride,
                    2,
                );
            }
        }
    }
}

/// Decodes the given chunks of a chunked stream into `output` (which must span the whole
/// stream: each chunk writes at its recorded `symbol_offset`) — every chunk for a full
/// decode, or, for a serving layer answering a range request, one thread per
/// *overlapping* chunk instead of the whole field.
///
/// Returns [`DecodeError::CorruptStream`] when a chunk's bits do not decode to the
/// symbol count it declares.
pub fn decode_baseline_chunks(
    gpu: &dyn Backend,
    encoded: &ChunkedEncoded,
    codebook: &Codebook,
    chunk_indices: &[u32],
    output: &DeviceBuffer<u16>,
) -> Result<gpu_sim::KernelStats, DecodeError> {
    let kernel = CoarseDecodeKernel {
        encoded,
        codebook,
        output,
        chunk_indices,
        decoded: AtomicU64::new(0),
    };
    let stats = gpu.launch(
        &kernel,
        LaunchConfig::covering(chunk_indices.len(), BLOCK_DIM),
    );
    let declared: u64 = chunk_indices
        .iter()
        .map(|&i| encoded.chunks[i as usize].num_symbols)
        .sum();
    if kernel.decoded.into_inner() != declared {
        return Err(DecodeError::CorruptStream {
            decoder: DecoderKind::CuszBaseline,
        });
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{decode, CompressedPayload};
    use crate::phases::DecodeResult;
    use crate::testutil::{efficiency, gpu, quant_symbols};
    use huffman::encode_chunked;

    fn chunked(symbols: &[u16], chunk_symbols: usize) -> CompressedPayload {
        let codebook =
            Codebook::from_symbols(if symbols.is_empty() { &[0] } else { symbols }, 1024);
        CompressedPayload::Chunked {
            encoded: encode_chunked(&codebook, symbols, chunk_symbols),
            codebook,
        }
    }

    fn decode_chunked(payload: &CompressedPayload) -> Result<DecodeResult, DecodeError> {
        decode(&gpu(), DecoderKind::CuszBaseline, payload)
    }

    #[test]
    fn baseline_decodes_exactly() {
        let symbols = quant_symbols(50_000, 7);
        let result = decode_chunked(&chunked(&symbols, 4096)).unwrap();
        assert_eq!(result.symbols, symbols);
        assert!(result.timings.total_seconds() > 0.0);
        assert!(result.timings.decode_write.is_some());
        assert!(result.timings.intra_sync.is_none());
    }

    #[test]
    fn baseline_handles_ragged_final_chunk() {
        let symbols = quant_symbols(10_123, 7);
        let result = decode_chunked(&chunked(&symbols, 1000)).unwrap();
        assert_eq!(result.symbols, symbols);
    }

    #[test]
    fn baseline_stores_are_poorly_coalesced() {
        let symbols = quant_symbols(100_000, 7);
        let result = decode_chunked(&chunked(&symbols, 4096)).unwrap();
        let kernel = &result.timings.decode_write.as_ref().unwrap().kernels[0];
        // Strided stores: efficiency well below a coalesced kernel's.
        assert!(
            efficiency(&kernel.mem) < 0.25,
            "efficiency = {}",
            efficiency(&kernel.mem)
        );
    }

    #[test]
    fn chunk_subset_decodes_only_those_chunks() {
        let symbols = quant_symbols(20_000, 7);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_chunked(&cb, &symbols, 1000);
        assert!(enc.chunks.len() >= 3);
        let output = DeviceBuffer::<u16>::zeroed(enc.num_symbols);
        // Decode only chunks 1 and 3.
        let stats = decode_baseline_chunks(&gpu(), &enc, &cb, &[1, 3], &output).unwrap();
        assert!(stats.time_s > 0.0);
        let decoded = output.to_vec();
        for (i, chunk) in enc.chunks.iter().enumerate() {
            let lo = chunk.symbol_offset as usize;
            let hi = lo + chunk.num_symbols as usize;
            if i == 1 || i == 3 {
                assert_eq!(&decoded[lo..hi], &symbols[lo..hi], "chunk {} mismatched", i);
            } else {
                assert!(
                    decoded[lo..hi].iter().all(|&s| s == 0),
                    "chunk {} was decoded but not selected",
                    i
                );
            }
        }
    }

    #[test]
    fn empty_stream_decodes_to_nothing() {
        let result = decode_chunked(&chunked(&[], 4096)).unwrap();
        assert!(result.symbols.is_empty());
    }

    /// The hostile chunk edit that still passes the container's chunk validation: the
    /// first chunk claims as many bits as symbols, so its codewords run out of bits.
    #[test]
    fn chunk_whose_bits_run_out_is_a_typed_error_full_and_ranged() {
        let symbols = quant_symbols(20_000, 7);
        let mut payload = chunked(&symbols, 1000);
        let CompressedPayload::Chunked { encoded, .. } = &mut payload else {
            unreachable!()
        };
        encoded.chunks[0].bit_len = encoded.chunks[0].num_symbols;
        let g = gpu();
        let kind = DecoderKind::CuszBaseline;
        let err = decode(&g, kind, &payload).unwrap_err();
        assert_eq!(err, DecodeError::CorruptStream { decoder: kind });
        assert!(!err.to_string().is_empty());
        assert!(!err.reason().is_empty());
        // A range over the bad chunk fails the same way; one over healthy chunks decodes.
        let prepared = crate::prepare_decode(&g, kind, &payload).unwrap();
        assert!(matches!(
            crate::decode_range(&g, kind, &payload, &prepared, 500, 100),
            Err(DecodeError::CorruptStream { .. })
        ));
        let healthy = crate::decode_range(&g, kind, &payload, &prepared, 5_000, 100).unwrap();
        assert_eq!(healthy.symbols, &symbols[5_000..5_100]);
    }
}
