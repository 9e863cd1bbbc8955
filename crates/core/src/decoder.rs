//! The unified decoder API: one entry point, [`decode`], for every decoding method
//! evaluated in the paper.
//!
//! | [`DecoderKind`]          | [`StreamLayout`] it consumes                | Phases |
//! |--------------------------|---------------------------------------------|--------|
//! | `CuszBaseline`           | `Chunked` (coarse-grained)                  | decode/write |
//! | `OriginalSelfSync`       | `Flat`                                      | intra sync, inter sync, output idx, direct decode/write |
//! | `OptimizedSelfSync`      | `Flat`                                      | optimized intra sync, inter sync, output idx, tune, staged decode/write |
//! | `OptimizedGapArray`      | `FlatWithGaps`                              | output idx (redundant decode + prefix sum), tune, staged decode/write |
//! | `RleHybrid`              | `Hybrid` (two flat streams)                 | both substreams as `OptimizedSelfSync`, then output idx (two prefix sums) and run expansion |
//!
//! The second column is [`DecoderKind::layout`], the one table from decoder to stream
//! layout: the encoders produce it and `check_payload` accepts it (a `Flat` decoder also
//! reads a `FlatWithGaps` stream, leaving the gap array unread).
//!
//! On the simulator every row is the same pipeline — (sync | gap count) → output index
//! → tune → decode/write (§IV, Table II) — and the code spells it once: `check_payload`
//! proves the payload fits the decoder, [`crate::prepare_decode`] runs the preparation
//! phases and the one output-index prefix sum, and the decode/write phase
//! ([`crate::range`]) launches over every block. A ranged decode is the same path
//! launched over fewer blocks, on either backend.
//!
//! Those preparation passes exist because a GPU thread cannot know its output offset,
//! and on the host they only decode the stream a second or third time. So on an
//! unmodeled backend ([`Backend::is_modeled`] false) a full decode of a flat stream is
//! one launch over sequences instead: each block walks its sequence once and the host
//! chains and compacts the results (`walk.rs`), with the kernels' exact output. No
//! synchronization, counting or tuning runs there, so the paper's tuning decisions are
//! exercised only on the simulator. The chunked baseline and every ranged decode keep
//! their kernels on both backends, with the geometry (block sizes, shared-memory
//! budgets, `T_high`) of the device's [`gpu_sim::GpuConfig`]. A stream that does not
//! decode to the symbol count it declares, or whose structure does not fit its bit
//! length, is refused with [`DecodeError::CorruptStream`], full or ranged, on either
//! path.
//!
//! Under every phase a thread's functional work is one [`huffman::Codebook::decode_run`]:
//! a sync thread runs to its subsequence boundary and keeps the end and the count, a
//! gap-count lane runs to its neighbour's start and keeps the count, a decode/write
//! thread runs for its counted symbols and a baseline lane for its chunk's declared ones,
//! both emitting into the output. A walk block runs each of its subsequences' sync or
//! gap-count run once, emitting as it goes.
//!
//! The original 8-bit gap-array baseline (Table V) lives in
//! [`crate::gap_decode::decode_original_gap8`] because it decodes a different (trimmed)
//! symbol stream. The RLE+Huffman hybrid ([`CompressedPayload::Hybrid`]) splits a sparse
//! quant-code field into a nonzero-symbol stream and a zero-run-length stream
//! ([`crate::hybrid`]); [`compress_for`] and [`decode`] take it like every other kind.

use std::fmt;

use gpu_sim::Backend;
use huffman::{encode_chunked, ChunkedEncoded, Codebook, DEFAULT_CHUNK_SYMBOLS};

use crate::format::{wire, EncodedStream, HybridStream, StreamLayout};
use crate::hybrid::{compress_hybrid, decode_hybrid};
use crate::phases::{DecodeResult, PhaseBreakdown};
use crate::range::{decode_write, prepare_checked};
use crate::walk::decode_walk;

/// The decoding methods compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// cuSZ's coarse-grained chunked decoder (the baseline of Tables IV/V and Figs. 4/5).
    CuszBaseline,
    /// Weißenberger & Schmidt's self-synchronization decoder, adapted to multi-byte
    /// symbols but otherwise unoptimized.
    OriginalSelfSync,
    /// The paper's optimized self-synchronization decoder (§IV-A/B/C).
    OptimizedSelfSync,
    /// The paper's optimized multi-byte gap-array decoder (§IV-B/C).
    OptimizedGapArray,
    /// The RLE+Huffman hybrid for sparse quant-code fields (cuSZ+-style paired
    /// symbol/zero-run streams, [`crate::hybrid`]).
    RleHybrid,
}

impl DecoderKind {
    /// The dense decoder kinds evaluated in the paper, in the order its tables list
    /// them. Excludes [`DecoderKind::RleHybrid`], which is a format-v2 stream layout
    /// rather than one of the paper's decode methods (bench tables and equivalence
    /// suites iterate exactly these four).
    pub fn all() -> [DecoderKind; 4] {
        [
            DecoderKind::CuszBaseline,
            DecoderKind::OriginalSelfSync,
            DecoderKind::OptimizedSelfSync,
            DecoderKind::OptimizedGapArray,
        ]
    }

    /// Display name matching the paper's table rows.
    pub fn name(&self) -> &'static str {
        match self {
            DecoderKind::CuszBaseline => "baseline cuSZ",
            DecoderKind::OriginalSelfSync => "ori. self-sync",
            DecoderKind::OptimizedSelfSync => "opt. self-sync",
            DecoderKind::OptimizedGapArray => "opt. gap-array",
            DecoderKind::RleHybrid => "rle+huff hybrid",
        }
    }

    /// The stream layout the decoder consumes, and so the one its encoder produces: the
    /// one table from decoder to layout.
    pub fn layout(&self) -> StreamLayout {
        match self {
            DecoderKind::CuszBaseline => StreamLayout::Chunked,
            DecoderKind::OriginalSelfSync | DecoderKind::OptimizedSelfSync => StreamLayout::Flat,
            DecoderKind::OptimizedGapArray => StreamLayout::FlatWithGaps,
            DecoderKind::RleHybrid => StreamLayout::Hybrid,
        }
    }

    /// Whether the decoder consumes the RLE+Huffman hybrid layout.
    pub fn is_hybrid(&self) -> bool {
        self.layout() == StreamLayout::Hybrid
    }

    /// Stable one-byte wire tag used by serialized archive formats. Tags are append-only:
    /// existing values never change meaning across format versions.
    pub fn tag(&self) -> u8 {
        match self {
            DecoderKind::CuszBaseline => 0,
            DecoderKind::OriginalSelfSync => 1,
            DecoderKind::OptimizedSelfSync => 2,
            DecoderKind::OptimizedGapArray => 3,
            DecoderKind::RleHybrid => 4,
        }
    }

    /// Inverse of [`DecoderKind::tag`]; `None` for unknown tags (e.g. from an archive
    /// written by a newer format revision).
    pub fn from_tag(tag: u8) -> Option<DecoderKind> {
        match tag {
            0 => Some(DecoderKind::CuszBaseline),
            1 => Some(DecoderKind::OriginalSelfSync),
            2 => Some(DecoderKind::OptimizedSelfSync),
            3 => Some(DecoderKind::OptimizedGapArray),
            4 => Some(DecoderKind::RleHybrid),
            _ => None,
        }
    }

    /// Number of wire tags in use (one past the highest [`DecoderKind::tag`]); sized
    /// per-decoder metric families use this.
    pub const TAG_SLOTS: usize = 5;
}

/// A compressed Huffman payload in whichever format a decoder consumes.
///
/// Equality is bit-level (units, metadata, codebook codewords, gap array), so
/// `parallel == serial` is exactly the "bit-identical encoders" guarantee.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressedPayload {
    /// cuSZ's chunked format (baseline decoder).
    Chunked {
        /// The chunked bitstream.
        encoded: ChunkedEncoded,
        /// The codebook used to encode it.
        codebook: Codebook,
    },
    /// The flat format consumed by the fine-grained decoders (optionally with gap array).
    Flat(EncodedStream),
    /// The RLE+Huffman hybrid format for sparse fields: a nonzero-symbol stream paired
    /// with a zero-run-length stream, each with its own codebook ([`DecoderKind::RleHybrid`]).
    Hybrid(HybridStream),
}

impl CompressedPayload {
    /// The payload's stream layout; a flat stream is `FlatWithGaps` when it carries a gap
    /// array.
    pub fn layout(&self) -> StreamLayout {
        match self {
            CompressedPayload::Chunked { .. } => StreamLayout::Chunked,
            CompressedPayload::Flat(s) if s.gap_array.is_some() => StreamLayout::FlatWithGaps,
            CompressedPayload::Flat(_) => StreamLayout::Flat,
            CompressedPayload::Hybrid(_) => StreamLayout::Hybrid,
        }
    }

    /// Compressed size in bytes as the `HFZ1` container stores this payload (stream and
    /// codebook sections with their framing and checksums, gap array included when
    /// present), used for compression ratios (Table IV) and transfer modelling (Fig. 5).
    pub fn compressed_bytes(&self) -> u64 {
        match self {
            CompressedPayload::Chunked { encoded, codebook } => {
                wire::chunked_stream_section(encoded.chunks.len(), encoded.units.len())
                    + wire::codebook_section(codebook.coded_symbols())
            }
            CompressedPayload::Flat(stream) => stream.compressed_bytes(),
            CompressedPayload::Hybrid(hybrid) => hybrid.compressed_bytes(),
        }
    }

    /// Checks the structure every consumer relies on, by the layout's own rule. The
    /// fields are public, so the container's writer and reader and every decode entry
    /// point (through `check_payload`) make this one call.
    pub fn check_structure(&self) -> Result<(), &'static str> {
        match self {
            CompressedPayload::Chunked { encoded, .. } => encoded.check_structure(),
            CompressedPayload::Flat(stream) => stream.check_structure(),
            CompressedPayload::Hybrid(hybrid) => hybrid.check_structure(),
        }
    }

    /// The quantization alphabet the payload's codebook covers (the nonzero-symbol
    /// codebook's, for a hybrid).
    pub fn alphabet_size(&self) -> usize {
        match self {
            CompressedPayload::Chunked { codebook, .. } => codebook.alphabet_size(),
            CompressedPayload::Flat(stream) => stream.codebook.alphabet_size(),
            CompressedPayload::Hybrid(hybrid) => hybrid.symbols.codebook.alphabet_size(),
        }
    }

    /// Number of encoded symbols.
    pub fn num_symbols(&self) -> usize {
        match self {
            CompressedPayload::Chunked { encoded, .. } => encoded.num_symbols,
            CompressedPayload::Flat(stream) => stream.num_symbols,
            CompressedPayload::Hybrid(hybrid) => hybrid.num_codes as usize,
        }
    }

    /// Size of the uncompressed quantization codes in bytes (2 bytes per symbol).
    pub fn original_bytes(&self) -> u64 {
        self.num_symbols() as u64 * 2
    }

    /// Compression ratio (quantization-code bytes over compressed bytes).
    pub fn compression_ratio(&self) -> f64 {
        let c = self.compressed_bytes();
        if c == 0 {
            0.0
        } else {
            self.original_bytes() as f64 / c as f64
        }
    }
}

/// Encodes `symbols` on the host in the layout `kind` consumes.
///
/// # Panics
/// Panics if a symbol is outside the alphabet.
pub fn compress_for(kind: DecoderKind, symbols: &[u16], alphabet_size: usize) -> CompressedPayload {
    let codebook = || Codebook::from_symbols(symbols, alphabet_size);
    match kind.layout() {
        StreamLayout::Chunked => {
            let codebook = codebook();
            CompressedPayload::Chunked {
                encoded: encode_chunked(&codebook, symbols, DEFAULT_CHUNK_SYMBOLS),
                codebook,
            }
        }
        StreamLayout::Flat => CompressedPayload::Flat(EncodedStream::encode(&codebook(), symbols)),
        StreamLayout::FlatWithGaps => {
            CompressedPayload::Flat(EncodedStream::encode_with_gap_array(&codebook(), symbols))
        }
        StreamLayout::Hybrid => compress_hybrid(symbols, alphabet_size),
    }
}

/// A decode request that cannot be executed. Unlike archive-level corruption (caught by
/// the container's checksums and parsers), these defects describe structurally valid
/// inputs handed to the wrong decoder, so they can surface even for CRC-valid archives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload's stream format does not match the requested decoder (a chunked
    /// payload handed to a fine-grained decoder, a flat payload handed to the chunked
    /// baseline, or a gap-array decoder given a stream without a gap array).
    PayloadMismatch {
        /// The decoder that was asked to run.
        decoder: DecoderKind,
    },
    /// A partial-decode request addressed symbols beyond the end of the stream.
    RangeOutOfBounds {
        /// First requested symbol index.
        start: u64,
        /// Requested symbol count.
        len: u64,
        /// Number of symbols the stream actually encodes.
        num_symbols: u64,
    },
    /// An RLE+Huffman hybrid payload whose substreams are mutually inconsistent (run
    /// tokens and nonzero symbols that cannot reassemble exactly `num_codes` codes).
    /// Like [`DecodeError::PayloadMismatch`], this can surface from CRC-valid but
    /// hand-assembled payloads.
    InvalidHybrid {
        /// What the substreams disagree about.
        reason: &'static str,
    },
    /// The stream is malformed ([`CompressedPayload::check_structure`], or
    /// [`EncodedStream::check_structure`] for a lone stream, refuses it) or does not
    /// decode to the symbol count it declares: a codeword that resolves to no symbol,
    /// bits that run out early, or a count that disagrees with the bits. Reachable from
    /// CRC-valid archives whose sections are individually well-formed, and from streams
    /// built by hand, so it is an error, never a panic or a silently short (or long)
    /// field.
    CorruptStream {
        /// The decoder that was asked to run.
        decoder: DecoderKind,
    },
}

impl DecodeError {
    /// A static description of the defect (used when mapping into container errors).
    pub fn reason(&self) -> &'static str {
        match self {
            DecodeError::PayloadMismatch { .. } => "payload format does not match the decoder",
            DecodeError::RangeOutOfBounds { .. } => "requested symbol range is out of bounds",
            DecodeError::InvalidHybrid { reason } => reason,
            DecodeError::CorruptStream { .. } => {
                "stream is malformed or does not decode to its declared symbol count"
            }
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::PayloadMismatch { decoder } => {
                write!(f, "payload format does not match decoder {:?}", decoder)
            }
            DecodeError::RangeOutOfBounds {
                start,
                len,
                num_symbols,
            } => write!(
                f,
                "symbol range [{}, {}) is out of bounds for a stream of {} symbols",
                start,
                start + len,
                num_symbols
            ),
            DecodeError::InvalidHybrid { reason } => {
                write!(f, "invalid hybrid payload: {}", reason)
            }
            DecodeError::CorruptStream { decoder } => write!(
                f,
                "corrupt stream: decoder {:?} found a malformed stream or a wrong symbol count",
                decoder
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A payload proven compatible with a decoder: the borrowed view the decode paths work
/// on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CheckedPayload<'a> {
    /// A chunked stream for the coarse-grained baseline.
    Chunked {
        encoded: &'a ChunkedEncoded,
        codebook: &'a Codebook,
    },
    /// A flat stream for a fine-grained decoder (with its gap array when the decoder
    /// needs one).
    Flat(&'a EncodedStream),
    /// An RLE+Huffman hybrid stream for [`DecoderKind::RleHybrid`].
    Hybrid(&'a HybridStream),
}

impl CheckedPayload<'_> {
    /// Decode blocks a full decode launches: chunks, or sequences (thread blocks).
    /// `None` for a hybrid stream, which decodes whole: a token's output position
    /// depends on every zero run before it, so no block can be decoded alone.
    pub(crate) fn num_blocks(&self) -> Option<usize> {
        match self {
            CheckedPayload::Chunked { encoded, .. } => Some(encoded.chunks.len()),
            CheckedPayload::Flat(stream) => Some(stream.num_seqs()),
            CheckedPayload::Hybrid(_) => None,
        }
    }
}

/// The payload/decoder compatibility check every decode entry point starts from: the
/// payload must have `kind`'s [`StreamLayout`], except that a `Flat` decoder also reads
/// a `FlatWithGaps` stream and leaves its gap array unread.
///
/// Returns [`DecodeError::PayloadMismatch`] for any other pair — a chunked payload handed
/// to a fine-grained decoder, a gap-array decoder given a stream without a gap array, a
/// hybrid payload with a dense decoder or the reverse. Such pairs can reach a decode
/// from CRC-valid but inconsistent archives. A payload that then fails
/// [`CompressedPayload::check_structure`] is a [`DecodeError::CorruptStream`]: the
/// fields are public, so a hand-built payload reaches the kernels only through here.
pub(crate) fn check_payload(
    kind: DecoderKind,
    payload: &CompressedPayload,
) -> Result<CheckedPayload<'_>, DecodeError> {
    let checked = match (kind.layout(), payload) {
        (StreamLayout::Chunked, CompressedPayload::Chunked { encoded, codebook }) => {
            CheckedPayload::Chunked { encoded, codebook }
        }
        (StreamLayout::Flat, CompressedPayload::Flat(stream)) => CheckedPayload::Flat(stream),
        (StreamLayout::FlatWithGaps, CompressedPayload::Flat(stream))
            if stream.gap_array.is_some() =>
        {
            CheckedPayload::Flat(stream)
        }
        (StreamLayout::Hybrid, CompressedPayload::Hybrid(hybrid)) => CheckedPayload::Hybrid(hybrid),
        _ => return Err(DecodeError::PayloadMismatch { decoder: kind }),
    };
    let corrupt = |_| DecodeError::CorruptStream { decoder: kind };
    payload.check_structure().map_err(corrupt)?;
    Ok(checked)
}

/// Decodes `payload` with the method `kind`, returning the symbols and the simulated
/// per-phase timing breakdown: [`crate::prepare_decode`] followed by the decode/write
/// phase over every block (tuned for the optimized decoders, direct writes for
/// [`DecoderKind::OriginalSelfSync`], every chunk for the baseline). A hybrid payload
/// is [`decode_hybrid`]'s.
///
/// On an unmodeled backend a flat stream is decoded by one walk per sequence instead,
/// reported as a single measured `decode_write` phase holding that one launch.
///
/// Returns [`DecodeError::PayloadMismatch`] when the payload's format does not match
/// the decoder and [`DecodeError::CorruptStream`] when the stream does not decode to
/// the symbol count it declares.
pub fn decode(
    gpu: &dyn Backend,
    kind: DecoderKind,
    payload: &CompressedPayload,
) -> Result<DecodeResult, DecodeError> {
    decode_checked(gpu, kind, check_payload(kind, payload)?)
}

/// [`decode`] of a payload `check_payload` accepted for `kind`.
pub(crate) fn decode_checked(
    gpu: &dyn Backend,
    kind: DecoderKind,
    payload: CheckedPayload<'_>,
) -> Result<DecodeResult, DecodeError> {
    match payload {
        CheckedPayload::Hybrid(hybrid) => return decode_hybrid(gpu, hybrid),
        CheckedPayload::Flat(stream) if !gpu.is_modeled() => return decode_walk(gpu, kind, stream),
        CheckedPayload::Chunked { .. } | CheckedPayload::Flat(_) => {}
    }
    let prepared = prepare_checked(gpu, kind, payload)?;
    let (output, write) = decode_write(gpu, kind, payload, &prepared, None)?;
    let timings = PhaseBreakdown {
        tune: write.tune,
        decode_write: write.decode_write,
        ..prepared.timings
    };
    Ok(DecodeResult {
        symbols: output.into_vec(),
        timings,
    })
}

/// Convenience: compress and decode in one call (used by tests and examples).
pub fn roundtrip(
    gpu: &dyn Backend,
    kind: DecoderKind,
    symbols: &[u16],
    alphabet_size: usize,
) -> DecodeResult {
    let payload = compress_for(kind, symbols, alphabet_size);
    decode(gpu, kind, &payload).expect("compress_for produces a payload matching the decoder")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gpu, quant_symbols};

    #[test]
    fn every_decoder_roundtrips_exactly() {
        let symbols = quant_symbols(70_000, 7);
        let g = gpu();
        for kind in DecoderKind::all() {
            let result = roundtrip(&g, kind, &symbols, 1024);
            assert_eq!(result.symbols, symbols, "decoder {:?} mismatched", kind);
            assert!(
                result.timings.total_seconds() > 0.0,
                "decoder {:?} has no time",
                kind
            );
        }
    }

    #[test]
    fn phase_structure_matches_decoder_kind() {
        let symbols = quant_symbols(30_000, 6);
        let g = gpu();

        let baseline = roundtrip(&g, DecoderKind::CuszBaseline, &symbols, 1024);
        assert!(baseline.timings.intra_sync.is_none());
        assert!(baseline.timings.tune.is_none());

        let ori = roundtrip(&g, DecoderKind::OriginalSelfSync, &symbols, 1024);
        assert!(ori.timings.intra_sync.is_some());
        assert!(ori.timings.inter_sync.is_some());
        assert!(ori.timings.tune.is_none());

        let opt = roundtrip(&g, DecoderKind::OptimizedSelfSync, &symbols, 1024);
        assert!(opt.timings.intra_sync.is_some());
        assert!(opt.timings.tune.is_some());

        let gap = roundtrip(&g, DecoderKind::OptimizedGapArray, &symbols, 1024);
        assert!(gap.timings.intra_sync.is_none());
        assert!(gap.timings.inter_sync.is_none());
        assert!(gap.timings.output_index.is_some());
        assert!(gap.timings.tune.is_some());
    }

    #[test]
    fn optimized_decoders_beat_originals_on_compressible_data() {
        // Highly compressible data is where the paper's optimizations matter most.
        let symbols = quant_symbols(200_000, 1);
        let g = gpu();
        let ori = roundtrip(&g, DecoderKind::OriginalSelfSync, &symbols, 1024);
        let opt = roundtrip(&g, DecoderKind::OptimizedSelfSync, &symbols, 1024);
        let gap = roundtrip(&g, DecoderKind::OptimizedGapArray, &symbols, 1024);
        assert!(
            opt.timings.total_seconds() < ori.timings.total_seconds(),
            "optimized self-sync ({} s) should beat original ({} s)",
            opt.timings.total_seconds(),
            ori.timings.total_seconds()
        );
        assert!(
            gap.timings.total_seconds() < opt.timings.total_seconds(),
            "gap-array ({} s) should beat optimized self-sync ({} s)",
            gap.timings.total_seconds(),
            opt.timings.total_seconds()
        );
    }

    #[test]
    fn gap_array_payload_is_slightly_larger() {
        let symbols = quant_symbols(100_000, 5);
        let plain = compress_for(DecoderKind::OptimizedSelfSync, &symbols, 1024);
        let gapped = compress_for(DecoderKind::OptimizedGapArray, &symbols, 1024);
        assert!(gapped.compressed_bytes() > plain.compressed_bytes());
        assert!(gapped.compression_ratio() < plain.compression_ratio());
    }

    #[test]
    fn decoder_metadata() {
        use StreamLayout::{Chunked, Flat, FlatWithGaps};
        let layouts = DecoderKind::all().map(|kind| kind.layout());
        assert_eq!(layouts, [Chunked, Flat, Flat, FlatWithGaps]);
        assert!(DecoderKind::RleHybrid.is_hybrid());
        assert_eq!(DecoderKind::all().len(), 4);
        for kind in DecoderKind::all() {
            assert!(!kind.name().is_empty());
        }
    }
}
