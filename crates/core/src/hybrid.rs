//! RLE+Huffman hybrid streams for sparse quantization-code fields
//! ([`DecoderKind::RleHybrid`], format v2 of the `HFZ` container).
//!
//! Error-bounded quantization of smooth scientific fields concentrates the quant codes
//! on the **center bin** (the "zero" of the prediction residual): on well-predicted
//! fields, 90%+ of the codes are that single symbol. Dense Huffman coding already gives
//! such a symbol a 1-bit code, but one bit per zero is still linear in the zero count —
//! a run-length front-end does strictly better, and that is the classic
//! RLE+Huffman hybrid this module implements:
//!
//! 1. **Split** — the code stream is walked once: every *nonzero* code goes to the
//!    nonzero-symbol substream, and is preceded (in the run-token substream) by a token
//!    holding the count of zeros since the previous nonzero. Runs longer than
//!    [`HYBRID_RUN_CAP`] − 1 emit *cap tokens* (value `HYBRID_RUN_CAP`, meaning "255
//!    zeros, no symbol follows"); a trailing zero run emits a final ordinary token with
//!    no symbol left to follow it.
//! 2. **Code** — each substream is canonically Huffman-coded with its own codebook
//!    (the quant alphabet for symbols, the 256-token alphabet for runs) using the same
//!    [`EncodedStream`] machinery the dense decoders consume. Neither substream carries
//!    a gap array: both decode with the optimized self-synchronization decoder, which
//!    keeps the archived hybrid payload free of per-subsequence side tables.
//! 3. **Expand** — decoding runs both substreams through the dense decode path
//!    (borrowing each stream where it sits), computes each token's output offset and
//!    symbol index with two device prefix sums (the hybrid's "get output index" phase),
//!    and a parallel expansion kernel writes every token's zero run and trailing
//!    nonzero into its disjoint output span.
//!
//! The core encode and decode entry points reach this module for
//! [`DecoderKind::RleHybrid`], so a hybrid field is one ordinary field of a decode wave.
//! A hybrid payload has no per-block entry point, so [`crate::prepare_decode`] and
//! [`crate::decode_range`] refuse it with [`DecodeError::PayloadMismatch`].
//!
//! A payload that fails [`HybridStream::check_structure`], or a substream whose bits do
//! not decode to its declared count, surfaces as [`DecodeError::CorruptStream`], and
//! token/symbol populations that cannot reassemble exactly `num_codes` codes as
//! [`DecodeError::InvalidHybrid`]; never a panic: like every payload-level check, they
//! can be reached from CRC-valid but hand-assembled archives.

use gpu_sim::{
    cost, primitives::device_exclusive_prefix_sum, Backend, BlockContext, BlockKernel,
    DeviceBuffer, LaunchConfig, PhaseTime,
};
use huffman::Codebook;

use crate::decoder::{decode_checked, CheckedPayload, CompressedPayload, DecodeError, DecoderKind};
use crate::encode::{compress_on, EncodePhaseBreakdown};
use crate::format::{EncodedStream, HybridStream, HYBRID_RUN_ALPHABET, HYBRID_RUN_CAP};
use crate::phases::{DecodeResult, PhaseBreakdown};

/// Work per thread in the expansion kernel.
const ITEMS_PER_THREAD: u32 = 4;
/// Threads per block for the expansion kernel.
const BLOCK_DIM: u32 = 256;

/// The center-bin fraction at or above which [`picks_hybrid`] chooses the hybrid.
const AUTO_HYBRID_ZERO_FRACTION: f64 = 0.5;

/// The "zero" of a quantization-code stream: the center bin the Lorenzo predictor maps
/// perfectly-predicted values to.
pub fn zero_symbol(alphabet_size: usize) -> u16 {
    (alphabet_size / 2) as u16
}

/// Whether a stream of `codes` symbols, `zero_codes` of them the center bin, is
/// encoded with the RLE+Huffman hybrid rather than a dense decoder: the one rule a
/// format-v2 compress with a dense session decoder applies. Never for an empty stream.
pub fn picks_hybrid(zero_codes: u64, codes: usize) -> bool {
    codes > 0 && zero_codes as f64 / codes as f64 >= AUTO_HYBRID_ZERO_FRACTION
}

/// The run-length split: `codes` → (nonzero symbols, run tokens).
///
/// Token `t <` [`HYBRID_RUN_CAP`] means "`t` zeros, then the next nonzero symbol";
/// `t ==` [`HYBRID_RUN_CAP`] is a cap token meaning "255 zeros, no symbol". A trailing
/// zero run emits a final ordinary token whose symbol slot is simply exhausted.
fn rle_split(codes: &[u16], alphabet_size: usize) -> (Vec<u16>, Vec<u16>) {
    let zero = zero_symbol(alphabet_size);
    let mut nonzeros = Vec::new();
    let mut tokens = Vec::new();
    let mut run: u16 = 0;
    for &c in codes {
        if c == zero {
            run += 1;
            if run == HYBRID_RUN_CAP {
                tokens.push(HYBRID_RUN_CAP);
                run = 0;
            }
        } else {
            tokens.push(run);
            nonzeros.push(c);
            run = 0;
        }
    }
    if run > 0 {
        tokens.push(run);
    }
    (nonzeros, tokens)
}

/// Encodes `codes` as an RLE+Huffman hybrid payload on the host: what
/// [`crate::compress_for`] runs for [`DecoderKind::RleHybrid`].
pub fn compress_hybrid(codes: &[u16], alphabet_size: usize) -> CompressedPayload {
    let (nonzeros, tokens) = rle_split(codes, alphabet_size);
    let sym_codebook = Codebook::from_symbols(&nonzeros, alphabet_size);
    let run_codebook = Codebook::from_symbols(&tokens, HYBRID_RUN_ALPHABET);
    let hybrid = HybridStream::from_parts(
        EncodedStream::encode(&sym_codebook, &nonzeros),
        EncodedStream::encode(&run_codebook, &tokens),
        codes.len() as u64,
    )
    .expect("the RLE split produces mutually consistent substreams");
    CompressedPayload::Hybrid(hybrid)
}

/// Encodes `codes` on the backend, returning the hybrid payload and the merged
/// per-phase encode breakdown: what [`crate::compress_on`] and
/// [`crate::compress_counted_on`] run for [`DecoderKind::RleHybrid`].
///
/// The split itself runs on the host and is charged its analytic streaming cost; each
/// substream then goes through the encode walk ([`crate::compress_on`]: count,
/// codebook, chunk bits, pack), and the two breakdowns merge serially. The payload is
/// bit-identical to [`compress_hybrid`]'s.
pub fn compress_hybrid_on(
    gpu: &dyn Backend,
    codes: &[u16],
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    let split_start = std::time::Instant::now();
    let (nonzeros, tokens) = rle_split(codes, alphabet_size);
    // The split's analytic cost: one coalesced streaming pass over the codes, 2-byte
    // loads and at worst one 2-byte token or symbol stored per code.
    let split_model = gpu
        .config()
        .streaming_pass_seconds(codes.len() as f64 * 4.0, 0.0, 1);
    let split_seconds = gpu.charge_seconds(split_model, split_start.elapsed().as_secs_f64());

    let (sym_payload, sym_phases) = compress_on(
        gpu,
        DecoderKind::OptimizedSelfSync,
        &nonzeros,
        alphabet_size,
    );
    let (run_payload, run_phases) = compress_on(
        gpu,
        DecoderKind::OptimizedSelfSync,
        &tokens,
        HYBRID_RUN_ALPHABET,
    );
    let (CompressedPayload::Flat(symbols), CompressedPayload::Flat(runs)) =
        (sym_payload, run_payload)
    else {
        unreachable!("the self-sync encoder produces flat streams");
    };
    let hybrid = HybridStream::from_parts(symbols, runs, codes.len() as u64)
        .expect("the RLE split produces mutually consistent substreams");

    let mut breakdown = sym_phases;
    // The split is part of histogram-side preprocessing: it must finish before either
    // substream's histogram can run.
    let mut split_phase = PhaseTime::empty();
    split_phase.push_seconds(split_seconds);
    split_phase.extend_serial(std::mem::take(&mut breakdown.histogram));
    breakdown.histogram = split_phase;
    breakdown.histogram.extend_serial(run_phases.histogram);
    breakdown.codebook.extend_serial(run_phases.codebook);
    breakdown.offsets.extend_serial(run_phases.offsets);
    breakdown.scatter.extend_serial(run_phases.scatter);
    (CompressedPayload::Hybrid(hybrid), breakdown)
}

/// The parallel expansion kernel: token `i` owns the output span
/// `[offsets[i], offsets[i] + span(i))` — its zeros, then (for consuming tokens) its
/// nonzero symbol. Spans are disjoint by construction of the prefix sum, so blocks
/// write disjoint output ranges.
struct RleExpandKernel<'a> {
    tokens: &'a [u16],
    /// Exclusive prefix sum of the per-token span lengths.
    offsets: &'a [u64],
    /// Exclusive prefix sum of the per-token symbol consumption.
    sym_idx: &'a [u64],
    nonzeros: &'a [u16],
    out: &'a DeviceBuffer<u16>,
    zero: u16,
}

impl BlockKernel for RleExpandKernel<'_> {
    fn name(&self) -> &str {
        "hybrid::rle_expand"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.tokens.len());
        if start >= end {
            return;
        }
        let num_nonzeros = self.nonzeros.len() as u64;
        for i in start..end {
            let t = self.tokens[i];
            let off = self.offsets[i];
            let zeros = if t == HYBRID_RUN_CAP {
                HYBRID_RUN_CAP as u64
            } else {
                t as u64
            };
            for k in 0..zeros {
                self.out.set((off + k) as usize, self.zero);
            }
            if t < HYBRID_RUN_CAP {
                let si = self.sym_idx[i];
                if si < num_nonzeros {
                    self.out
                        .set((off + zeros) as usize, self.nonzeros[si as usize]);
                }
            }
        }

        // Cost: coalesced token/offset loads, a gather of the nonzero symbol, and a
        // store of the whole span (contiguous within each token, adjacent across the
        // warp's tokens).
        let warp_size = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for item in 0..ITEMS_PER_THREAD {
                let base = lane_base + (item * warp_size) as u64;
                if base >= end as u64 {
                    break;
                }
                ctx.global_load_contiguous(w, base, warp_size, 2); // tokens
                ctx.global_load_contiguous(w, base, warp_size, 8); // offsets
                ctx.global_load_contiguous(w, base, warp_size, 8); // sym_idx
                                                                   // Average span across the warp's tokens: write that many output
                                                                   // elements starting at the first lane's offset (the spans tile).
                let span_start = self.offsets[(base as usize).min(self.tokens.len() - 1)];
                let span_end_idx = ((base + warp_size as u64) as usize).min(self.tokens.len());
                let span_end = if span_end_idx < self.tokens.len() {
                    self.offsets[span_end_idx]
                } else {
                    self.out.len() as u64
                };
                let span = (span_end - span_start).min(u32::MAX as u64) as u32;
                if span > 0 {
                    ctx.global_store_contiguous(w, span_start, span, 2);
                }
                ctx.global_load_contiguous(w, base, warp_size, 2); // nonzero gather
                ctx.compute(w, (2.0 + span as f64 / warp_size as f64) * cost::ALU);
            }
        }
    }
}

/// Decodes one substream, which [`decode_hybrid`] checked, in place with the optimized
/// self-synchronization decoder (every flat stream is compatible with it), or returns
/// an empty result without touching the device when it encodes nothing.
fn decode_substream(
    gpu: &dyn Backend,
    stream: &EncodedStream,
) -> Result<DecodeResult, DecodeError> {
    if stream.num_symbols == 0 {
        return Ok(DecodeResult::default());
    }
    decode_checked(
        gpu,
        DecoderKind::OptimizedSelfSync,
        CheckedPayload::Flat(stream),
    )
}

/// Decodes an RLE+Huffman hybrid payload on the backend: what [`crate::decode`] runs
/// for [`DecoderKind::RleHybrid`].
///
/// Both substreams decode with the optimized self-synchronization decoder; two device
/// prefix sums then assign every run token its output offset and nonzero-symbol index,
/// and the expansion kernel writes each token's zero run and trailing symbol. The
/// returned breakdown merges the substream phases with the expansion work (prefix sums
/// under `output_index`, the expansion kernel under `decode_write`).
///
/// A payload that fails [`HybridStream::check_structure`] (this function is public, so
/// it runs the rule itself), or a substream whose bits do not decode to its own
/// declared symbol count, is a [`DecodeError::CorruptStream`] of the substream decoder.
/// Substreams that cannot reassemble exactly `hybrid.num_codes` codes — mismatched
/// token/symbol populations in either direction — are [`DecodeError::InvalidHybrid`].
pub fn decode_hybrid(
    gpu: &dyn Backend,
    hybrid: &HybridStream,
) -> Result<DecodeResult, DecodeError> {
    let decoder = DecoderKind::OptimizedSelfSync;
    hybrid
        .check_structure()
        .map_err(|_| DecodeError::CorruptStream { decoder })?;
    if hybrid.num_codes == 0 {
        return Ok(DecodeResult::default());
    }

    let sym_result = decode_substream(gpu, &hybrid.symbols)?;
    let run_result = decode_substream(gpu, &hybrid.runs)?;
    let nonzeros = sym_result.symbols;
    let tokens = run_result.symbols;

    let mut timings = PhaseBreakdown::default();
    timings.extend_serial(sym_result.timings);
    timings.extend_serial(run_result.timings);

    // Per-token span lengths and symbol consumption, then the two exclusive prefix
    // sums (device-charged) that make the expansion embarrassingly parallel.
    let mut consuming = 0u64;
    let spans: Vec<u64> = tokens
        .iter()
        .map(|&t| {
            if t == HYBRID_RUN_CAP {
                HYBRID_RUN_CAP as u64
            } else {
                // An ordinary token consumes a symbol as long as any remain; only a
                // trailing-run token legitimately finds the symbols exhausted.
                let consumes = consuming < nonzeros.len() as u64;
                consuming += consumes as u64;
                t as u64 + consumes as u64
            }
        })
        .collect();
    if consuming < nonzeros.len() as u64 {
        let reason = "hybrid run tokens leave nonzero symbols unconsumed";
        return Err(DecodeError::InvalidHybrid { reason });
    }
    let consume_flags: Vec<u64> = tokens
        .iter()
        .map(|&t| (t != HYBRID_RUN_CAP) as u64)
        .collect();

    let (offsets, total, span_scan) = device_exclusive_prefix_sum(gpu, &spans);
    let (sym_idx, _, consume_scan) = device_exclusive_prefix_sum(gpu, &consume_flags);
    let mut oi_phase = span_scan;
    oi_phase.extend_serial(consume_scan);
    timings
        .output_index
        .get_or_insert_with(PhaseTime::empty)
        .extend_serial(oi_phase);

    if total != hybrid.num_codes {
        let reason = "hybrid run tokens disagree with the code count";
        return Err(DecodeError::InvalidHybrid { reason });
    }

    let out = DeviceBuffer::<u16>::zeroed(total as usize);
    let kernel = RleExpandKernel {
        tokens: &tokens,
        offsets: &offsets,
        sym_idx: &sym_idx,
        nonzeros: &nonzeros,
        out: &out,
        zero: zero_symbol(hybrid.symbols.codebook.alphabet_size()),
    };
    let tile = (BLOCK_DIM * ITEMS_PER_THREAD) as usize;
    let grid = tokens.len().div_ceil(tile) as u32;
    let stats = gpu.launch(&kernel, LaunchConfig::new(grid, BLOCK_DIM));
    timings
        .decode_write
        .get_or_insert_with(PhaseTime::empty)
        .push_serial(stats);

    Ok(DecodeResult {
        symbols: out.into_vec(),
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CpuBackend, Gpu, GpuConfig};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(GpuConfig::test_tiny(), 2)
    }

    /// Synthetic quant codes with roughly `zero_pct` percent center-bin zeros.
    fn sparse_codes(n: usize, zero_pct: u32, seed: u64) -> Vec<u16> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (state >> 33) as u32;
                if r % 100 < zero_pct {
                    512
                } else {
                    (512 + 1 + (r % 40)) as u16
                }
            })
            .collect()
    }

    #[test]
    fn rle_split_roundtrips_by_hand() {
        // 3 zeros, nonzero, 255 zeros (cap), 2 more zeros, nonzero, trailing zero.
        let mut codes = vec![512u16; 3];
        codes.push(700);
        codes.extend(std::iter::repeat(512).take(257));
        codes.push(800);
        codes.push(512);
        let (nonzeros, tokens) = rle_split(&codes, 1024);
        assert_eq!(nonzeros, vec![700, 800]);
        assert_eq!(tokens, vec![3, 255, 2, 1]);
    }

    #[test]
    fn roundtrip_across_sparsity_profiles() {
        let g = gpu();
        for zero_pct in [0, 50, 90, 99] {
            let codes = sparse_codes(20_000, zero_pct, 0x5EED + zero_pct as u64);
            let payload = compress_hybrid(&codes, 1024);
            let CompressedPayload::Hybrid(hybrid) = &payload else {
                panic!("hybrid payload expected");
            };
            let result = decode_hybrid(&g, hybrid).unwrap();
            assert_eq!(result.symbols, codes, "{}% zeros diverged", zero_pct);
            assert!(result.timings.total_seconds() > 0.0);
            assert!(result.timings.output_index.is_some());
            assert!(result.timings.decode_write.is_some());
        }
    }

    #[test]
    fn all_zero_and_empty_streams() {
        let g = gpu();
        // 100% zeros: the symbols substream is empty, only run tokens exist.
        let codes = vec![512u16; 1000];
        let CompressedPayload::Hybrid(hybrid) = compress_hybrid(&codes, 1024) else {
            panic!();
        };
        assert_eq!(hybrid.symbols.num_symbols, 0);
        assert_eq!(decode_hybrid(&g, &hybrid).unwrap().symbols, codes);

        let CompressedPayload::Hybrid(empty) = compress_hybrid(&[], 1024) else {
            panic!();
        };
        assert_eq!(empty.num_codes, 0);
        assert!(decode_hybrid(&g, &empty).unwrap().symbols.is_empty());
    }

    #[test]
    fn exact_cap_runs() {
        let g = gpu();
        for run_len in [254usize, 255, 256, 510, 511] {
            let mut codes = vec![512u16; run_len];
            codes.push(600);
            codes.extend(std::iter::repeat(512).take(run_len));
            let CompressedPayload::Hybrid(hybrid) = compress_hybrid(&codes, 1024) else {
                panic!();
            };
            assert_eq!(
                decode_hybrid(&g, &hybrid).unwrap().symbols,
                codes,
                "run length {} diverged",
                run_len
            );
        }
    }

    #[test]
    fn sim_and_cpu_backends_agree() {
        let sim = gpu();
        let cpu = CpuBackend::new(GpuConfig::test_tiny());
        let codes = sparse_codes(30_000, 92, 0xC0FFEE);
        let CompressedPayload::Hybrid(hybrid) = compress_hybrid(&codes, 1024) else {
            panic!();
        };
        let a = decode_hybrid(&sim, &hybrid).unwrap();
        let b = decode_hybrid(&cpu, &hybrid).unwrap();
        assert_eq!(a.symbols, codes);
        assert_eq!(b.symbols, codes);
    }

    #[test]
    fn hybrid_beats_dense_on_very_sparse_codes() {
        let codes = sparse_codes(60_000, 95, 0xFEED);
        let CompressedPayload::Hybrid(hybrid) = compress_hybrid(&codes, 1024) else {
            panic!();
        };
        let dense = crate::compress_for(DecoderKind::OptimizedSelfSync, &codes, 1024);
        let CompressedPayload::Flat(flat) = &dense else {
            panic!();
        };
        // Bitstream payloads only (both formats add comparable container overhead).
        let hybrid_bits = hybrid.symbols.bit_len + hybrid.runs.bit_len;
        assert!(
            hybrid_bits * 2 < flat.bit_len,
            "hybrid {} bits vs dense {} bits",
            hybrid_bits,
            flat.bit_len
        );
    }

    #[test]
    fn inconsistent_streams_are_typed_errors() {
        let g = gpu();
        let codes = sparse_codes(5_000, 70, 7);
        let CompressedPayload::Hybrid(hybrid) = compress_hybrid(&codes, 1024) else {
            panic!();
        };

        // Wrong total: lie about the code count (upward, within from_parts' bounds).
        let mut wrong_total = hybrid.clone();
        wrong_total.num_codes += 1;
        assert!(matches!(
            decode_hybrid(&g, &wrong_total),
            Err(DecodeError::InvalidHybrid { .. })
        ));

        // Unconsumed nonzeros: drop all run tokens but keep the symbols.
        let (nonzeros, _) = rle_split(&codes, 1024);
        let sym_codebook = Codebook::from_symbols(&nonzeros, 1024);
        let cap_tokens = vec![HYBRID_RUN_CAP; 2];
        let run_codebook = Codebook::from_symbols(&cap_tokens, HYBRID_RUN_ALPHABET);
        let broken = HybridStream::from_parts(
            EncodedStream::encode(&sym_codebook, &nonzeros),
            EncodedStream::encode(&run_codebook, &cap_tokens),
            nonzeros.len() as u64 + 510,
        )
        .unwrap();
        assert!(matches!(
            decode_hybrid(&g, &broken),
            Err(DecodeError::InvalidHybrid { .. })
        ));
    }

    /// Every core entry point takes [`DecoderKind::RleHybrid`], on both backends: the
    /// encoders give `compress_hybrid`'s payload and `compress_hybrid_on`'s phases,
    /// `decode` and a mixed dense-plus-hybrid `decode_batch` give `decode_hybrid`'s
    /// result, and the ranged path refuses a hybrid payload (the container's
    /// `layout_pairing` test holds every other pairing of kind and payload). `Debug`
    /// prints every `f64` in its shortest round-trip form, so equal text is equal bits.
    #[test]
    fn every_core_entry_point_takes_the_hybrid_kind() {
        let (kind, dense_kind) = (DecoderKind::RleHybrid, DecoderKind::OptimizedGapArray);
        let codes = sparse_codes(40_000, 90, 0xD15C);
        let mut counts = vec![0u64; 1024];
        codes.iter().for_each(|&c| counts[c as usize] += 1);
        let host = compress_hybrid(&codes, 1024);
        assert_eq!(crate::compress_for(kind, &codes, 1024), host);
        let CompressedPayload::Hybrid(stream) = &host else {
            panic!("hybrid payload expected");
        };
        let dense_symbols = sparse_codes(30_000, 20, 0xDE5E);
        let dense = crate::compress_for(dense_kind, &dense_symbols, 1024);
        let mismatch = |decoder| Some(DecodeError::PayloadMismatch { decoder });
        let backends: [&dyn Backend; 2] = [&gpu(), &CpuBackend::new(GpuConfig::test_tiny())];
        for backend in backends {
            let (on, modeled) = (backend.kind(), backend.is_modeled());
            let (reference, phases) = compress_hybrid_on(backend, &codes, 1024);
            let timed = phases.total_seconds() > 0.0 && phases.kernel_launches() > 0;
            assert!(reference == host && timed, "{on}");
            let plain = crate::compress_on(backend, kind, &codes, 1024);
            let counted = crate::compress_counted_on(backend, kind, &codes, counts.clone(), 1024);
            for (payload, p) in [plain, counted] {
                // Measured clocks differ run to run; the launches do not.
                let same_bits = format!("{p:?}") == format!("{phases:?}");
                assert!(payload == host && (!modeled || same_bits), "{on}");
                assert_eq!(p.kernel_launches(), phases.kernel_launches(), "{on}");
            }

            let expected = decode_hybrid(backend, stream).unwrap();
            let items = [(kind, &host), (dense_kind, &dense), (kind, &host)];
            let (wave, stats) = crate::decode_batch(backend, &items).unwrap();
            assert_eq!(stats.fields, 3, "{on}");
            assert_eq!(wave[1].symbols, dense_symbols, "{on}");
            let decoded = crate::decode(backend, kind, &host).unwrap();
            for r in [&expected, &decoded, &wave[0], &wave[2]] {
                assert_eq!(r.symbols, codes, "{on}");
                let same_bits = format!("{:?}", r.timings) == format!("{:?}", expected.timings);
                assert!(!modeled || same_bits, "{on}");
            }

            let prepared = crate::prepare_decode(backend, dense_kind, &dense).unwrap();
            let range = crate::decode_range(backend, kind, &host, &prepared, 0, 8);
            assert_eq!(range.err(), mismatch(kind), "{on}");
        }
    }

    #[test]
    fn picks_hybrid_from_half_center_codes() {
        assert!(!picks_hybrid(0, 0));
        assert!(picks_hybrid(2, 4));
        assert!(!picks_hybrid(1, 4));
        assert!(picks_hybrid(4, 4));
        assert!(picks_hybrid(500_000, 1_000_000));
        assert!(!picks_hybrid(499_999, 1_000_000));
        assert_eq!(zero_symbol(1024), 512);
    }
}
