//! # huffdec-core — optimized parallel Huffman decoders for error-bounded lossy compression
//!
//! This crate is the reproduction of the primary contribution of *"Optimizing Huffman
//! Decoding for Error-Bounded Lossy Compression on GPUs"* (Rivera et al., IPDPS 2022):
//! fine-grained parallel Huffman decoders for cuSZ-style multi-byte quantization codes,
//! deeply optimized for the (simulated) GPU architecture.
//!
//! The five decoding methods of the paper's evaluation are all here:
//!
//! * [`decoder::DecoderKind::CuszBaseline`] — cuSZ's coarse-grained chunked decoder
//!   ([`baseline`]);
//! * [`decoder::DecoderKind::OriginalSelfSync`] — Weißenberger & Schmidt's
//!   self-synchronization decoder adapted to multi-byte symbols ([`self_sync`] +
//!   direct-write [`decode_write`]);
//! * [`decoder::DecoderKind::OptimizedSelfSync`] — the paper's optimized self-sync decoder:
//!   early-exit intra-sequence synchronization (§IV-A), shared-memory staged decode/write
//!   (Algorithm 1, §IV-B), and online shared-memory tuning (Algorithm 2, §IV-C);
//! * [`decoder::DecoderKind::OptimizedGapArray`] — the same optimizations applied to the
//!   gap-array approach of Yamamoto et al. ([`gap_decode`]);
//! * the original 8-bit gap-array baseline, [`gap_decode::decode_original_gap8`].
//!
//! Beside them sits the format-v2 RLE+Huffman hybrid for sparse fields ([`hybrid`]).
//! Every encode and full-decode entry point takes all five [`DecoderKind`]s.
//!
//! Every decoder runs on the [`gpu_sim`] execution model: outputs are produced
//! functionally (and are bit-exact against the CPU reference decoder), while the
//! simulated timing breakdown ([`phases::PhaseBreakdown`]) reproduces the paper's
//! per-phase evaluation (Table II). On the unmodeled CPU backend a full decode of a flat
//! stream skips those phases: it is one launch that decodes each sequence once (see
//! [`decoder`]).
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::Gpu;
//! use huffdec_core::{compress_for, decode, DecoderKind};
//!
//! // Quantization-code-like symbols concentrated around the middle bin.
//! let symbols: Vec<u16> = (0..50_000u32)
//!     .map(|i| (512 + (i % 7) as i32 - 3) as u16)
//!     .collect();
//!
//! let gpu = Gpu::v100();
//! let payload = compress_for(DecoderKind::OptimizedGapArray, &symbols, 1024);
//! let result = decode(&gpu, DecoderKind::OptimizedGapArray, &payload).unwrap();
//! assert_eq!(result.symbols, symbols);
//! println!("simulated decode throughput: {:.1} GB/s", result.throughput_gbs());
//! ```
//!
//! The encode side is parallel too ([`encode::compress_on`]): on either backend, three
//! launches over blocks of 65,536 symbols, one thread per 4,096-symbol chunk — count,
//! chunk bits, pack — that encode each symbol once, bit-identical to the host encoder and
//! reporting an [`encode::EncodePhaseBreakdown`].

#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod crc32;
pub mod decode_write;
pub mod decoder;
pub mod encode;
pub mod format;
pub mod gap_decode;
pub mod hybrid;
pub mod output_index;
pub mod phases;
pub mod range;
pub mod self_sync;
pub mod subseq;
#[cfg(test)]
pub(crate) mod testutil;
pub mod tuner;
mod walk;

pub use baseline::decode_baseline_chunks;
pub use batch::{decode_batch, decode_wave, BatchStats};
pub use crc32::{crc32, crc32_combine, crc32_symbols, Crc32};
pub use decode_write::{run_decode_write, DecodeWriteKernel, WriteStrategy};
pub use decoder::{compress_for, decode, roundtrip, CompressedPayload, DecodeError, DecoderKind};
pub use encode::{compress_counted_on, compress_on, EncodePhaseBreakdown};
pub use format::{
    wire, EncodedStream, HybridStream, StreamGeometry, DEFAULT_SUBSEQ_UNITS,
    DEFAULT_THREADS_PER_BLOCK, HYBRID_RUN_ALPHABET, HYBRID_RUN_CAP,
};
pub use gap_decode::{decode_original_gap8, encode_gap8, gap_count_symbols, Gap8Stream};
pub use gpu_sim::{Backend, BackendKind, CpuBackend, BACKEND_ENV};
pub use hybrid::{
    compress_hybrid, compress_hybrid_on, decode_hybrid, zero_fraction, zero_symbol,
    AUTO_HYBRID_ZERO_FRACTION,
};
pub use output_index::{compute_output_index, OutputIndex};
pub use phases::{DecodeResult, PhaseBreakdown};
pub use range::{decode_range, prepare_decode, PreparedDecode, RangeDecode};
pub use self_sync::{synchronize, SyncResult, SyncVariant};
pub use subseq::SubseqInfo;
pub use tuner::{tuned_decode_write, TunedDecode, HIGH_CR_BUFFER_SYMBOLS};
