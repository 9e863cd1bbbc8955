//! The parallel encode pipeline.
//!
//! The host encoder ([`crate::decoder::compress_for`]) walks the symbol stream
//! sequentially. cuSZ and "Revisiting Huffman Coding" (Tian et al.) instead encode on the
//! GPU, and this module reproduces that pipeline on the `gpu-sim` primitives the decoders
//! already use. On the simulator ([`Backend::is_modeled`]) it runs these kernels:
//!
//! 1. **histogram** — per-block privatized histograms merged by a reduction
//!    ([`gpu_sim::primitives::device_histogram`]), producing the symbol frequencies;
//! 2. **tree + codebook** — canonical codebook construction from the frequencies (the
//!    alphabet is tiny, so this phase is launch-overhead dominated; its cost is charged
//!    analytically);
//! 3. **offsets** — a codeword-length kernel followed by a device-wide exclusive prefix
//!    sum ([`gpu_sim::primitives::device_exclusive_prefix_sum`]) that assigns every
//!    symbol its output bit offset (the canonical two-pass encode);
//! 4. **scatter** — a parallel write of the codewords into the 32-bit unit stream. Each
//!    thread *owns* a span of output units and gathers the codeword bits that land in
//!    them (the gather formulation of the scatter: it needs no atomics, and blocks write
//!    disjoint unit ranges as the simulator requires). Because the offsets pass already
//!    produced every symbol's bit offset, the gap array of the gap-array format falls
//!    out of a cheap per-subsequence binary search instead of a separate offset-tracking
//!    encode.
//!
//! The per-symbol offsets exist because a GPU thread cannot know where its codeword lands.
//! On an unmodeled backend a non-empty encode is instead three launches over blocks of
//! 65,536 symbols that encode each symbol once (`encode/walk.rs`): per-block counts, per-chunk
//! bit totals and one scan over them, then a pack from each block's first bit. The four
//! phases keep their names; the simulator's kernels are the walk's reference. A caller
//! that counted the symbols while producing them ([`compress_counted_on`]; `sz`'s
//! quantize pass does) saves the walk its count launch.
//!
//! [`compress_on`] produces payloads **bit-identical** to the host encoder for all three
//! stream formats (chunked, flat, flat + gap array) on either path; the equivalence suite
//! in `tests/encoder_equivalence.rs` enforces this on every paper dataset, and this
//! module's unit tests hold the walk to the host encoder and the kernels.

use gpu_sim::{
    cost,
    primitives::{device_exclusive_prefix_sum, device_histogram},
    BlockContext, BlockKernel, DeviceBuffer, GpuConfig, LaunchConfig, PhaseTime,
};
use huffdec_backend::Backend;
use huffman::{
    ChunkMeta, ChunkedEncoded, Codebook, Codeword, FrequencyTable, GapArray, DEFAULT_CHUNK_SYMBOLS,
};

use crate::decoder::{CompressedPayload, DecoderKind};
use crate::format::{EncodedStream, StreamGeometry};

mod walk;

/// Work per thread (elements or units) in the encode kernels.
const ITEMS_PER_THREAD: u32 = 4;
/// Threads per block for the encode kernels.
const BLOCK_DIM: u32 = 256;

/// Per-phase timing breakdown of a parallel encode run (the encoder-side counterpart of
/// [`crate::phases::PhaseBreakdown`]). Each field says what the phase holds on the
/// simulator, then on the encode walk.
#[derive(Debug, Clone, Default)]
pub struct EncodePhaseBreakdown {
    /// Per-block histogram plus the merging reduction; the walk's count launch and the
    /// host sum of its per-block tables.
    pub histogram: PhaseTime,
    /// Huffman tree and canonical codebook construction.
    pub codebook: PhaseTime,
    /// Codeword-length pass and the device prefix sum producing each symbol's output bit
    /// offset (plus, for the chunked format, the per-chunk unit-offset scan and rebase);
    /// the walk's chunk-bits launch and the host scan over the chunk totals.
    pub offsets: PhaseTime,
    /// Parallel codeword write into the 32-bit unit stream (plus gap-array construction
    /// when the target decoder requires one); the walk's pack launch, gaps included, and
    /// the host OR of the units two blocks share.
    pub scatter: PhaseTime,
}

impl EncodePhaseBreakdown {
    /// Total encode time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.phases().iter().map(|(_, p)| p.seconds).sum()
    }

    /// Encoding throughput in GB/s relative to `useful_bytes` (conventionally the
    /// quantization-code bytes, 2 per symbol, matching the decoder tables).
    pub fn throughput_gbs(&self, useful_bytes: u64) -> f64 {
        let t = self.total_seconds();
        if t <= 0.0 {
            0.0
        } else {
            useful_bytes as f64 / t / 1e9
        }
    }

    /// The phases in execution order with their display names.
    pub fn phases(&self) -> Vec<(&'static str, &PhaseTime)> {
        vec![
            ("histogram", &self.histogram),
            ("tree+codebook", &self.codebook),
            ("offset prefix-sum", &self.offsets),
            ("scatter", &self.scatter),
        ]
    }

    /// Total number of kernel launches across all phases.
    pub fn kernel_launches(&self) -> usize {
        self.phases().iter().map(|(_, p)| p.kernels.len()).sum()
    }
}

/// Analytic cost of the tree/codebook construction phase. The alphabet is at most 65536
/// symbols (1024 in the cuSZ default), so the GPU codebook construction of "Revisiting
/// Huffman Coding" is dominated by a sort of the frequencies and two short tree passes;
/// the model charges `a·log2(a)` work plus two kernel launches.
fn codebook_build_time(cfg: &GpuConfig, alphabet_size: usize) -> f64 {
    let a = alphabet_size.max(2) as f64;
    let cycles = a * a.log2() * 8.0 / cfg.issue_slots_per_sm as f64;
    cfg.streaming_pass_seconds(0.0, cycles, 2)
}

/// The canonical codebook from the frequencies (identical to the host path, which counts
/// the same frequencies from the same symbols) and its phase: the sim charges the
/// analytic build-time model, a real backend the measured construction.
fn build_codebook(
    gpu: &dyn Backend,
    counts: Vec<u64>,
    alphabet_size: usize,
) -> (Codebook, PhaseTime) {
    let clock = std::time::Instant::now();
    let codebook = Codebook::from_frequencies(&FrequencyTable::from_counts(counts));
    let mut phase = PhaseTime::empty();
    phase.push_seconds(gpu.charge_seconds(
        codebook_build_time(gpu.config(), alphabet_size),
        clock.elapsed().as_secs_f64(),
    ));
    (codebook, phase)
}

/// Kernel of the first offsets pass: map every symbol to its codeword length.
struct CodeLengthKernel<'a> {
    symbols: &'a [u16],
    codewords: &'a [Codeword],
    lengths: &'a DeviceBuffer<u64>,
}

impl BlockKernel for CodeLengthKernel<'_> {
    fn name(&self) -> &str {
        "encode::code_lengths"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.symbols.len());
        if start >= end {
            return;
        }
        for i in start..end {
            let s = self.symbols[i];
            let cw = self.codewords[s as usize];
            assert!(
                cw.len > 0,
                "symbol {} has no codeword (was it absent from the frequency table?)",
                s
            );
            self.lengths.set(i, cw.len as u64);
        }

        // Cost: coalesced symbol loads, a cached codebook lookup, coalesced length
        // stores.
        let warp_size = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 2);
                ctx.global_store_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 8);
                ctx.compute(w, 2.0 * cost::ALU);
            }
        }
    }
}

/// Kernel rebasing within-chunk bit offsets onto the chunk's padded unit region (chunked
/// format only): `out[j] = 32·unit_offset(chunk(j)) + scan[j] - scan[chunk_start(j)]`.
struct ChunkRebaseKernel<'a> {
    scan: &'a [u64],
    out: &'a DeviceBuffer<u64>,
    chunk_unit_offsets: &'a [u64],
    chunk_symbols: usize,
}

impl BlockKernel for ChunkRebaseKernel<'_> {
    fn name(&self) -> &str {
        "encode::chunk_rebase"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.scan.len());
        if start >= end {
            return;
        }
        for j in start..end {
            let c = j / self.chunk_symbols;
            let chunk_start_bit = self.scan[c * self.chunk_symbols];
            let rebased = self.chunk_unit_offsets[c] * 32 + (self.scan[j] - chunk_start_bit);
            self.out.set(j, rebased);
        }
        let warp_size = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 8);
                ctx.global_store_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 8);
                ctx.compute(w, 3.0 * cost::ALU);
            }
        }
    }
}

/// The scatter kernel: every thread owns [`ITEMS_PER_THREAD`] output units and gathers
/// the codeword bits landing in them. `offsets` must be strictly increasing codeword
/// start positions in output-bit space (which, for the chunked format, includes the
/// per-chunk padding gaps); bits not covered by any codeword stay zero, which is exactly
/// the serial encoder's padding.
struct ScatterUnitsKernel<'a> {
    symbols: &'a [u16],
    offsets: &'a [u64],
    codewords: &'a [Codeword],
    units: &'a DeviceBuffer<u32>,
}

impl ScatterUnitsKernel<'_> {
    /// Index of the last symbol whose codeword starts at or before `bit`.
    fn covering_symbol(&self, bit: u64) -> usize {
        self.offsets
            .partition_point(|&o| o <= bit)
            .saturating_sub(1)
    }
}

impl BlockKernel for ScatterUnitsKernel<'_> {
    fn name(&self) -> &str {
        "encode::scatter_units"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let ustart = ctx.block_idx() as usize * tile;
        let uend = (ustart + tile).min(self.units.len());
        if ustart >= uend {
            return;
        }
        let n = self.offsets.len();
        let start_bit = ustart as u64 * 32;
        let end_bit = uend as u64 * 32;

        let mut local = vec![0u32; uend - ustart];
        let mut j = self.covering_symbol(start_bit);
        let mut bits_written = 0u64;
        while j < n {
            let o = self.offsets[j];
            if o >= end_bit {
                break;
            }
            let cw = self.codewords[self.symbols[j] as usize];
            let len = cw.len as u64;
            // The codeword's overlap with the block's bit range, OR-ed in one piece per
            // unit it touches.
            let hi = (o + len).min(end_bit);
            let mut pos = o.max(start_bit);
            bits_written += hi.saturating_sub(pos);
            while pos < hi {
                let in_unit = pos % 32;
                let take = (32 - in_unit).min(hi - pos);
                let d = pos - o;
                let piece = (cw.bits as u64 >> (len - d - take)) & ((1u64 << take) - 1);
                local[((pos - start_bit) / 32) as usize] |= (piece << (32 - in_unit - take)) as u32;
                pos += take;
            }
            j += 1;
        }
        for (k, v) in local.iter().enumerate() {
            self.units.set(ustart + k, *v);
        }

        // Cost: a binary search per warp front (log2(n) dependent loads), quasi-
        // contiguous loads of the offsets/symbols the block consumes, per-bit assembly
        // work, and a coalesced store of the owned units.
        let warp_size = ctx.config().warp_size;
        let search_cycles = (n.max(2) as f64).log2().ceil() * 2.0 * cost::GLOBAL_SECTOR_ISSUE;
        let units_covered = (uend - ustart) as u32;
        let warps = ctx.warp_count();
        for w in 0..warps {
            let warp_units = units_covered.div_ceil(warps.max(1)).max(1);
            let warp_bits = bits_written as f64 / warps.max(1) as f64;
            ctx.compute(w, search_cycles + warp_bits * cost::ALU);
            // Offsets + symbols of the consumed span, amortized over the warps.
            ctx.global_load_contiguous(w, start_bit / 32 + (w * warp_units) as u64, warp_size, 8);
            ctx.global_load_contiguous(w, start_bit / 32 + (w * warp_units) as u64, warp_size, 2);
            ctx.global_store_contiguous(
                w,
                ustart as u64 + (w * warp_units) as u64,
                warp_units.min(warp_size),
                4,
            );
        }
    }
}

/// Gap-array construction from the symbol bit offsets: for every subsequence boundary, a
/// binary search finds the first codeword starting at or after it. This replaces the
/// host encoder's sequential decode-walk ([`huffman::compute_gap_array`]) — the offsets
/// are already on the device, so the gap array is a cheap by-product of the encode.
struct GapFromOffsetsKernel<'a> {
    offsets: &'a [u64],
    gaps: &'a DeviceBuffer<u8>,
    subseq_bits: u64,
    bit_len: u64,
}

impl BlockKernel for GapFromOffsetsKernel<'_> {
    fn name(&self) -> &str {
        "encode::gap_from_offsets"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.gaps.len());
        if start >= end {
            return;
        }
        let n = self.offsets.len();
        for i in start..end {
            let boundary = i as u64 * self.subseq_bits;
            // The first codeword starting at or after the boundary.
            let first = self.offsets.partition_point(|&o| o < boundary);
            let target = self.offsets.get(first).copied().unwrap_or(self.bit_len);
            let gap = target - boundary;
            assert!(gap <= u8::MAX as u64, "gap {} does not fit in a byte", gap);
            self.gaps.set(i, gap as u8);
        }
        let warp_size = ctx.config().warp_size;
        let search_cycles = (n.max(2) as f64).log2().ceil() * 2.0 * cost::GLOBAL_SECTOR_ISSUE;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for _ in 0..ITEMS_PER_THREAD {
                ctx.compute(w, search_cycles + cost::ALU);
            }
            ctx.global_store_contiguous(w, lane_base, warp_size, 1);
        }
    }
}

/// Encodes `symbols` on `gpu` in the format `kind` consumes, returning the payload and
/// the per-phase timing breakdown: the kernels above on the simulator, the three-launch
/// encode walk on an unmodeled backend.
///
/// The payload is bit-identical to the host encoder's
/// ([`crate::decoder::compress_for`]): same units, same chunk metadata, same gap array,
/// same codebook.
///
/// # Panics
/// Panics if a symbol is outside the alphabet (the host encoder panics identically), or
/// for [`DecoderKind::RleHybrid`] — the hybrid encoder lives in the `huffdec-hybrid`
/// crate, which calls back into this function for each dense substream.
pub fn compress_on(
    gpu: &dyn Backend,
    kind: DecoderKind,
    symbols: &[u16],
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    encode_on(gpu, kind, symbols, None, alphabet_size)
}

/// [`compress_on`] for a caller that has already counted `symbols`: `counts[s]` is the
/// number of occurrences of symbol `s`, one entry per alphabet symbol. The payload is
/// the same. On an unmodeled backend the encode walk skips its count launch, so a
/// non-empty encode is two launches and the histogram phase holds no kernel; the
/// simulator ignores `counts` and runs its histogram kernels, so its breakdown is
/// [`compress_on`]'s.
///
/// # Panics
/// As [`compress_on`], and on an unmodeled backend if `counts` does not have
/// `alphabet_size` entries summing to the symbol count.
pub fn compress_counted_on(
    gpu: &dyn Backend,
    kind: DecoderKind,
    symbols: &[u16],
    counts: Vec<u64>,
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    encode_on(gpu, kind, symbols, Some(counts), alphabet_size)
}

fn encode_on(
    gpu: &dyn Backend,
    kind: DecoderKind,
    symbols: &[u16],
    counts: Option<Vec<u64>>,
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    if kind.is_hybrid() {
        panic!("RLE+Huffman hybrid payloads are produced by the huffdec-hybrid crate");
    }
    if symbols.is_empty() {
        let counts = vec![0; alphabet_size];
        let codebook = Codebook::from_frequencies(&FrequencyTable::from_counts(counts));
        return (
            empty_payload(kind, codebook),
            EncodePhaseBreakdown::default(),
        );
    }
    if !gpu.is_modeled() {
        return walk::compress_walk(gpu, kind, symbols, counts, alphabet_size);
    }
    // Phase 1: device histogram of the symbol stream.
    let (counts, histogram) = device_histogram(gpu, symbols, alphabet_size);

    // Phase 2: canonical codebook from the frequencies.
    let (codebook, codebook_phase) = build_codebook(gpu, counts, alphabet_size);

    let mut offsets_phase = PhaseTime::empty();
    let mut scatter_phase = PhaseTime::empty();

    // Phase 3: codeword lengths, then the device prefix sum assigning every symbol its
    // output bit offset.
    let d_lengths = DeviceBuffer::<u64>::zeroed(symbols.len());
    let length_kernel = CodeLengthKernel {
        symbols,
        codewords: codebook.codewords(),
        lengths: &d_lengths,
    };
    let tile = (BLOCK_DIM * ITEMS_PER_THREAD) as usize;
    let grid = symbols.len().div_ceil(tile) as u32;
    offsets_phase.push_serial(gpu.launch(&length_kernel, LaunchConfig::new(grid, BLOCK_DIM)));
    let (scan, total_bits, scan_phase) = device_exclusive_prefix_sum(gpu, &d_lengths.into_vec());
    offsets_phase.extend_serial(scan_phase);

    let payload = match kind {
        DecoderKind::CuszBaseline => {
            // Chunked format: rebase the within-chunk offsets onto the per-chunk padded
            // unit regions, then scatter into the concatenated units.
            let chunk_symbols = DEFAULT_CHUNK_SYMBOLS;
            let num_chunks = symbols.len().div_ceil(chunk_symbols);
            let chunk_bit_len = |c: usize| {
                let cs = c * chunk_symbols;
                let ce = ((c + 1) * chunk_symbols).min(symbols.len());
                let end = if ce < symbols.len() {
                    scan[ce]
                } else {
                    total_bits
                };
                end - scan[cs]
            };
            let unit_counts: Vec<u64> = (0..num_chunks)
                .map(|c| chunk_bit_len(c).div_ceil(32))
                .collect();
            let (chunk_unit_offsets, total_units, chunk_scan_phase) =
                device_exclusive_prefix_sum(gpu, &unit_counts);
            offsets_phase.extend_serial(chunk_scan_phase);

            let d_rebased = DeviceBuffer::<u64>::zeroed(symbols.len());
            let rebase = ChunkRebaseKernel {
                scan: &scan,
                out: &d_rebased,
                chunk_unit_offsets: &chunk_unit_offsets,
                chunk_symbols,
            };
            offsets_phase.push_serial(gpu.launch(&rebase, LaunchConfig::new(grid, BLOCK_DIM)));

            let d_units = DeviceBuffer::<u32>::zeroed(total_units as usize);
            scatter_phase.push_serial(launch_scatter(
                gpu,
                symbols,
                &d_rebased.into_vec(),
                codebook.codewords(),
                &d_units,
            ));

            let chunks: Vec<ChunkMeta> = (0..num_chunks)
                .map(|c| {
                    let cs = c * chunk_symbols;
                    let ce = ((c + 1) * chunk_symbols).min(symbols.len());
                    ChunkMeta {
                        unit_offset: chunk_unit_offsets[c],
                        unit_count: unit_counts[c],
                        bit_len: chunk_bit_len(c),
                        num_symbols: (ce - cs) as u64,
                        symbol_offset: cs as u64,
                    }
                })
                .collect();
            CompressedPayload::Chunked {
                encoded: ChunkedEncoded {
                    units: d_units.into_vec(),
                    chunks,
                    chunk_symbols,
                    num_symbols: symbols.len(),
                },
                codebook,
            }
        }
        DecoderKind::OriginalSelfSync
        | DecoderKind::OptimizedSelfSync
        | DecoderKind::OptimizedGapArray => {
            let geometry = StreamGeometry::default();
            let d_units = DeviceBuffer::<u32>::zeroed(total_bits.div_ceil(32) as usize);
            scatter_phase.push_serial(launch_scatter(
                gpu,
                symbols,
                &scan,
                codebook.codewords(),
                &d_units,
            ));

            let gap_array = if kind.requires_gap_array() {
                let num_subseqs = geometry.num_subseqs(total_bits);
                let d_gaps = DeviceBuffer::<u8>::zeroed(num_subseqs);
                let gap_kernel = GapFromOffsetsKernel {
                    offsets: &scan,
                    gaps: &d_gaps,
                    subseq_bits: geometry.subseq_bits(),
                    bit_len: total_bits,
                };
                let gap_grid = num_subseqs.div_ceil(tile) as u32;
                scatter_phase
                    .push_serial(gpu.launch(&gap_kernel, LaunchConfig::new(gap_grid, BLOCK_DIM)));
                Some(GapArray {
                    gaps: d_gaps.into_vec(),
                    subseq_bits: geometry.subseq_bits(),
                })
            } else {
                None
            };

            CompressedPayload::Flat(EncodedStream {
                units: d_units.into_vec(),
                bit_len: total_bits,
                num_symbols: symbols.len(),
                codebook,
                geometry,
                gap_array,
            })
        }
        DecoderKind::RleHybrid => unreachable!("rejected above"),
    };

    let breakdown = EncodePhaseBreakdown {
        histogram,
        codebook: codebook_phase,
        offsets: offsets_phase,
        scatter: scatter_phase,
    };
    (payload, breakdown)
}

fn launch_scatter(
    gpu: &dyn Backend,
    symbols: &[u16],
    offsets: &[u64],
    codewords: &[Codeword],
    units: &DeviceBuffer<u32>,
) -> gpu_sim::KernelStats {
    let kernel = ScatterUnitsKernel {
        symbols,
        offsets,
        codewords,
        units,
    };
    let tile = (BLOCK_DIM * ITEMS_PER_THREAD) as usize;
    let grid = units.len().div_ceil(tile).max(1) as u32;
    gpu.launch(&kernel, LaunchConfig::new(grid, BLOCK_DIM))
}

/// The payload an empty symbol stream encodes to, matching the host encoder exactly.
fn empty_payload(kind: DecoderKind, codebook: Codebook) -> CompressedPayload {
    match kind {
        DecoderKind::CuszBaseline => CompressedPayload::Chunked {
            encoded: ChunkedEncoded {
                units: Vec::new(),
                chunks: Vec::new(),
                chunk_symbols: DEFAULT_CHUNK_SYMBOLS,
                num_symbols: 0,
            },
            codebook,
        },
        DecoderKind::OriginalSelfSync
        | DecoderKind::OptimizedSelfSync
        | DecoderKind::OptimizedGapArray => {
            let geometry = StreamGeometry::default();
            let gap_array = kind.requires_gap_array().then(|| GapArray {
                gaps: Vec::new(),
                subseq_bits: geometry.subseq_bits(),
            });
            CompressedPayload::Flat(EncodedStream {
                units: Vec::new(),
                bit_len: 0,
                num_symbols: 0,
                codebook,
                geometry,
                gap_array,
            })
        }
        DecoderKind::RleHybrid => unreachable!("the hybrid crate never requests this"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{compress_for, decode};
    use crate::testutil::{gpu, quant_symbols};
    use gpu_sim::Gpu;
    use gpu_sim::GpuConfig;
    use huffdec_backend::CpuBackend;

    /// Asserts the two payloads are bit-identical, via `CompressedPayload`'s bit-level
    /// equality (units, metadata, codebook codewords, gap array).
    pub(crate) fn assert_payloads_identical(a: &CompressedPayload, b: &CompressedPayload) {
        assert_eq!(a, b, "payloads are not bit-identical");
    }

    #[test]
    fn parallel_encode_is_bit_identical_to_serial() {
        let symbols = quant_symbols(70_000, 7);
        let g = gpu();
        for kind in DecoderKind::all() {
            let serial = compress_for(kind, &symbols, 1024);
            let (parallel, phases) = compress_on(&g, kind, &symbols, 1024);
            assert_payloads_identical(&parallel, &serial);
            assert!(
                phases.total_seconds() > 0.0,
                "{:?} has no encode time",
                kind
            );
        }
    }

    #[test]
    fn parallel_encode_roundtrips_through_every_decoder() {
        let symbols = quant_symbols(40_000, 6);
        let g = gpu();
        for kind in DecoderKind::all() {
            let (payload, _) = compress_on(&g, kind, &symbols, 1024);
            let result = decode(&g, kind, &payload).expect("matching payload");
            assert_eq!(result.symbols, symbols, "{:?} roundtrip mismatch", kind);
        }
    }

    #[test]
    fn phase_breakdown_is_fully_populated() {
        let symbols = quant_symbols(30_000, 5);
        let g = gpu();
        let (_, phases) = compress_on(&g, DecoderKind::OptimizedGapArray, &symbols, 1024);
        for (name, p) in phases.phases() {
            assert!(p.seconds > 0.0, "phase '{}' has no time", name);
        }
        // Histogram: 2 kernels. Offsets: lengths + >= 2 scan kernels. Scatter: units +
        // gap construction.
        assert!(phases.histogram.kernels.len() == 2);
        assert!(phases.offsets.kernels.len() >= 3);
        assert!(phases.scatter.kernels.len() == 2);
        assert!(phases.kernel_launches() >= 7);
        assert!(phases.throughput_gbs(symbols.len() as u64 * 2) > 0.0);
    }

    #[test]
    fn empty_symbol_stream_matches_serial() {
        let g = gpu();
        for kind in DecoderKind::all() {
            let serial = compress_for(kind, &[], 1024);
            let (parallel, phases) = compress_on(&g, kind, &[], 1024);
            assert_payloads_identical(&parallel, &serial);
            assert_eq!(phases.total_seconds(), 0.0);
        }
    }

    #[test]
    fn single_distinct_symbol_matches_serial() {
        let symbols = vec![512u16; 10_000];
        let g = gpu();
        for kind in DecoderKind::all() {
            let serial = compress_for(kind, &symbols, 1024);
            let (parallel, _) = compress_on(&g, kind, &symbols, 1024);
            assert_payloads_identical(&parallel, &serial);
        }
    }

    #[test]
    fn chunked_encode_matches_across_ragged_final_chunk() {
        // More than one chunk with a ragged tail (DEFAULT_CHUNK_SYMBOLS = 4096).
        let symbols = quant_symbols(DEFAULT_CHUNK_SYMBOLS * 3 + 777, 6);
        let g = gpu();
        let serial = compress_for(DecoderKind::CuszBaseline, &symbols, 1024);
        let (parallel, _) = compress_on(&g, DecoderKind::CuszBaseline, &symbols, 1024);
        assert_payloads_identical(&parallel, &serial);
    }

    /// Geometric frequencies over the whole 1,024-symbol alphabet — symbol `i` occurs
    /// `max(1, 2^16 >> i)` times, so the ~1,000 rarest get codewords longer than 16 bits —
    /// laid out so that, while they last, those go wherever `near_edge(index, bit)` holds
    /// for the next symbol's index and first bit.
    fn geometric_symbols(near_edge: impl Fn(usize, u64) -> bool) -> Vec<u16> {
        let counts: Vec<u64> = (0..1024u64).map(|s| (1 << 16) >> s.min(16)).collect();
        let codebook = Codebook::from_frequencies(&FrequencyTable::from_counts(counts.clone()));
        let len = |s: u16| codebook.codeword(s).len as u64;
        let (mut long, short): (Vec<u16>, Vec<u16>) = (0..1024u16)
            .flat_map(|s| std::iter::repeat(s).take(counts[s as usize] as usize))
            .partition(|&s| len(s) > 16);
        let (mut symbols, mut bit, mut straddles) = (Vec::new(), 0u64, 0);
        for s in short {
            while near_edge(symbols.len(), bit) {
                let Some(l) = long.pop() else { break };
                symbols.push(l);
                bit += len(l);
                straddles += 1;
            }
            symbols.push(s);
            bit += len(s);
        }
        assert!(
            straddles >= 4,
            "only {} long codewords placed at an edge",
            straddles
        );
        symbols.extend(long);
        symbols
    }

    /// [`geometric_symbols`] with a long codeword across every tile edge of the scatter
    /// kernel (a 32-bit unit boundary too). A short codeword is at most 16 bits, so the
    /// stream always stops within 16 bits of an edge before crossing it.
    fn tile_edge_symbols() -> Vec<u16> {
        let tile_bits = (BLOCK_DIM * ITEMS_PER_THREAD) as u64 * 32;
        geometric_symbols(|_, bit| tile_bits - bit % tile_bits <= 16)
    }

    /// [`geometric_symbols`] with long codewords as the last two and first two symbols of
    /// every walk block, so the unit two blocks share holds pieces of long codewords.
    fn walk_edge_symbols() -> Vec<u16> {
        let b = walk::BLOCK_SYMBOLS;
        geometric_symbols(|i, _| i % b >= b - 2 || (i >= b && i % b < 2))
    }

    /// The first bit of every walk block's codewords in the flat stream.
    fn walk_block_starts(symbols: &[u16]) -> Vec<u64> {
        let codebook = Codebook::from_symbols(symbols, 1024);
        let mut bit = 0;
        symbols
            .chunks(walk::BLOCK_SYMBOLS)
            .map(|block| {
                let start = bit;
                bit += block
                    .iter()
                    .map(|&s| codebook.codeword(s).len as u64)
                    .sum::<u64>();
                start
            })
            .collect()
    }

    fn cpu(threads: usize) -> CpuBackend {
        CpuBackend::with_host_threads(GpuConfig::test_tiny(), threads)
    }

    /// Asserts that the encode walk (`compress_on` on `CpuBackend`) and the simulator's
    /// kernels both encode `symbols` exactly as the host encoder does, for every stream
    /// format, and that the walk is three launches.
    fn assert_walk_matches(symbols: &[u16]) {
        for kind in DecoderKind::all() {
            let host = compress_for(kind, symbols, 1024);
            let (walked, phases) = compress_on(&cpu(3), kind, symbols, 1024);
            let context = format!("{:?}, {} symbols", kind, symbols.len());
            assert!(walked == host, "the walk diverged: {}", context);
            assert_eq!(phases.kernel_launches(), 3, "{}", context);
            let (sim, _) = compress_on(&gpu(), kind, symbols, 1024);
            assert!(sim == host, "the kernels diverged: {}", context);
        }
    }

    #[test]
    fn walk_equals_host_and_kernels_across_block_edges() {
        let b = walk::BLOCK_SYMBOLS;
        for n in [1, b - 1, b, b + 1, 3 * b + 777, 1_000_003] {
            let symbols = quant_symbols(n, 7);
            if n > b {
                assert!(walk_block_starts(&symbols)[1] % 32 != 0, "{}", n);
            }
            assert_walk_matches(&symbols);
        }
        // One distinct symbol: every codeword is one bit and every block starts aligned.
        assert_walk_matches(&vec![512u16; 3 * b + 777]);
    }

    #[test]
    fn walk_places_long_codewords_across_block_edges() {
        let symbols = walk_edge_symbols();
        let starts = walk_block_starts(&symbols);
        assert!(starts.len() >= 3 && starts[1..].iter().any(|s| s % 32 != 0));
        assert_walk_matches(&symbols);
    }

    /// Block 0's last codeword holds a subsequence boundary one bit in, so its gap comes
    /// from the block's end; block 2's first codeword starts on a boundary, so block 1
    /// writes a gap of 0 for it.
    #[test]
    fn walk_writes_the_gaps_of_boundaries_at_block_edges() {
        let b = walk::BLOCK_SYMBOLS;
        let mut symbols = vec![512u16; 3 * b + 777];
        // 129 two-bit codewords in block 0, the last one its last symbol; 127 in block 1.
        for i in 0..128 {
            symbols[i * 7] = 513 + (i % 2) as u16;
        }
        symbols[b - 1] = 514;
        for i in 0..127 {
            symbols[b + i * 5] = 513 + (i % 2) as u16;
        }
        let lengths = Codebook::from_symbols(&symbols, 1024);
        let lengths: Vec<u8> = (512..515).map(|s| lengths.codeword(s).len).collect();
        assert_eq!(lengths, [1, 2, 2]);
        let subseq_bits = StreamGeometry::default().subseq_bits();
        let starts = walk_block_starts(&symbols);
        let (b1, b2) = (b as u64 + 129, 2 * b as u64 + 256);
        assert_eq!(starts[1..3], [b1, b2]);
        assert_eq!([(b1 - 1) % subseq_bits, b2 % subseq_bits], [0, 0]);
        assert_walk_matches(&symbols);
    }

    #[test]
    fn a_cpu_encode_is_three_launches_in_four_phases() {
        let symbols = quant_symbols(30_000, 5);
        let (_, phases) = compress_on(&cpu(2), DecoderKind::OptimizedGapArray, &symbols, 1024);
        for (name, p) in phases.phases() {
            assert!(p.seconds > 0.0, "phase '{}' has no time", name);
        }
        let launches = [&phases.histogram, &phases.offsets, &phases.scatter];
        assert!(launches.iter().all(|p| p.kernels.len() == 1));
        assert!(phases.codebook.kernels.is_empty());
    }

    /// The count of every symbol of `symbols` over a 1,024-symbol alphabet.
    fn counts_of(symbols: &[u16]) -> Vec<u64> {
        let mut counts = vec![0u64; 1024];
        for &s in symbols {
            counts[s as usize] += 1;
        }
        counts
    }

    #[test]
    fn a_counted_cpu_encode_is_two_launches_with_the_host_payload() {
        let symbols = quant_symbols(3 * walk::BLOCK_SYMBOLS + 777, 7);
        for kind in DecoderKind::all() {
            let host = compress_for(kind, &symbols, 1024);
            let (payload, phases) =
                compress_counted_on(&cpu(2), kind, &symbols, counts_of(&symbols), 1024);
            assert!(payload == host, "{:?}", kind);
            assert_eq!(phases.kernel_launches(), 2, "{:?}", kind);
            assert!(phases.histogram.kernels.is_empty(), "{:?}", kind);
            assert_eq!(phases.offsets.kernels.len(), 1, "{:?}", kind);
            assert_eq!(phases.scatter.kernels.len(), 1, "{:?}", kind);
        }
    }

    #[test]
    fn a_counted_sim_encode_models_what_compress_on_models() {
        let symbols = quant_symbols(70_000, 7);
        for kind in DecoderKind::all() {
            let (plain, phases) = compress_on(&gpu(), kind, &symbols, 1024);
            let (counted, counted_phases) =
                compress_counted_on(&gpu(), kind, &symbols, counts_of(&symbols), 1024);
            assert!(counted == plain, "{:?}", kind);
            // `Debug` prints every f64 in its shortest round-trip form, so equal text is
            // equal bits: every phase's seconds and every kernel's modeled stats.
            assert_eq!(
                format!("{:?}", counted_phases),
                format!("{:?}", phases),
                "{:?}",
                kind
            );
        }
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn counts_that_miss_a_symbol_are_refused_on_the_walk() {
        let symbols = quant_symbols(10_000, 7);
        let mut counts = counts_of(&symbols);
        counts[512] -= 1;
        let _ = compress_counted_on(
            &cpu(2),
            DecoderKind::OptimizedSelfSync,
            &symbols,
            counts,
            1024,
        );
    }

    #[test]
    fn serial_and_parallel_host_execution_agree() {
        // The scatter kernel and the walk must not depend on block execution order, and
        // must place a long codeword across a tile or walk-block edge.
        let tiny = GpuConfig::test_tiny;
        let backends: [&dyn Backend; 4] = [
            &Gpu::with_host_threads(tiny(), 1),
            &Gpu::with_host_threads(tiny(), 8),
            &cpu(1),
            &cpu(8),
        ];
        for symbols in [
            quant_symbols(50_000, 7),
            tile_edge_symbols(),
            walk_edge_symbols(),
        ] {
            for kind in DecoderKind::all() {
                let host = compress_for(kind, &symbols, 1024);
                for backend in backends {
                    let (payload, _) = compress_on(backend, kind, &symbols, 1024);
                    assert_payloads_identical(&payload, &host);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_alphabet_symbol_panics_like_serial() {
        let _ = compress_on(&gpu(), DecoderKind::OptimizedSelfSync, &[5000u16], 1024);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_alphabet_symbol_panics_on_the_walk() {
        let _ = compress_on(&cpu(2), DecoderKind::OptimizedSelfSync, &[5000u16], 1024);
    }
}
