//! Encoded-stream format shared by the fine-grained decoders.
//!
//! The paper divides the Huffman bitstream into a three-level geometry (§III-B):
//!
//! * a **unit** is an unsigned 32-bit number holding codeword bits;
//! * a **subsequence** is the span of units one CUDA *thread* works on (4 units = 128
//!   bits by default, matching the paper's footnote);
//! * a **sequence** is the span one CUDA *thread block* works on (one subsequence per
//!   thread, 128 threads per block by default — so a sequence is 16384 bits = 2048 bytes,
//!   i.e. exactly 1024 would-be 16-bit symbols, which is why the paper's shared-memory
//!   buffer sizes are `compression-ratio × 1024` symbols).
//!
//! [`EncodedStream`] bundles the flat Huffman bitstream, the codebook, the geometry, and
//! (optionally) the gap array, plus the size accounting used to report compression ratios
//! (Table IV). [`StreamLayout`] names the four shapes a field's payload can take.

use huffman::{compute_gap_array, encode_flat, Codebook, FlatEncoded, GapArray};

/// The quantization alphabet sizes an archive may declare, and a field may be quantized
/// over: at least four bins, and no more than 16-bit symbols can name.
pub const ALPHABET_SIZES: std::ops::RangeInclusive<usize> = 4..=65536;

/// Default units per subsequence (4 × 32 bits = 128 bits), as in the paper.
pub const DEFAULT_SUBSEQ_UNITS: u32 = 4;
/// Default threads per block = subsequences per sequence.
pub const DEFAULT_THREADS_PER_BLOCK: u32 = 128;

/// Wire-size accounting of the `HFZ1` container, mirrored here so compressed-size and
/// transfer-cost figures (Table IV, Fig. 5) report the bytes an archive actually stores.
/// The authoritative layout lives in `huffdec-container` (`section.rs`, `header.rs`,
/// `codec.rs`); a cross-crate test there asserts these formulas match the serialized
/// archives byte for byte, so any drift fails the build.
pub mod wire {
    /// Per-section framing overhead: 12-byte frame (tag + reserved + length) + CRC32.
    pub const SECTION_OVERHEAD: u64 = 16;
    /// Archive header as stored: 64 header bytes + CRC32.
    pub const ARCHIVE_HEADER: u64 = 68;
    /// The empty end-marker section (framing only).
    pub const END_SECTION: u64 = SECTION_OVERHEAD;

    /// Stored size of the codebook section for `coded_symbols` `(symbol, length)` pairs:
    /// a u32 pair count plus 3 bytes per pair, plus framing.
    pub fn codebook_section(coded_symbols: usize) -> u64 {
        4 + coded_symbols as u64 * 3 + SECTION_OVERHEAD
    }

    /// Stored size of the flat-stream section: bit length, symbol count, geometry, unit
    /// count (32 bytes) plus the packed units, plus framing.
    pub fn flat_stream_section(num_units: usize) -> u64 {
        32 + num_units as u64 * 4 + SECTION_OVERHEAD
    }

    /// Stored size of the gap-array section: subsequence size and gap count (16 bytes)
    /// plus one byte per subsequence, plus framing.
    pub fn gap_array_section(num_subseqs: usize) -> u64 {
        16 + num_subseqs as u64 + SECTION_OVERHEAD
    }

    /// Stored size of the chunked-stream section: chunk size, symbol count, chunk count,
    /// unit count (32 bytes), five u64 of metadata per chunk, and the packed units,
    /// plus framing.
    pub fn chunked_stream_section(num_chunks: usize, num_units: usize) -> u64 {
        32 + num_chunks as u64 * 40 + num_units as u64 * 4 + SECTION_OVERHEAD
    }

    /// Stored size of the outlier section: a u64 count plus 16 bytes per outlier,
    /// plus framing.
    pub fn outliers_section(num_outliers: usize) -> u64 {
        8 + num_outliers as u64 * 16 + SECTION_OVERHEAD
    }

    /// Stored size of the decoded-CRC trailer section: a u64 symbol count plus a u32
    /// CRC32 over the decoded symbol stream, plus framing.
    pub const fn decoded_crc_section() -> u64 {
        12 + SECTION_OVERHEAD
    }

    /// Stored size of the hybrid-stream section (format v2): code count + run cap
    /// (12 bytes), two 32-byte flat-substream prologues with their packed units, and two
    /// inline codebooks (u32 pair count + 3 bytes per pair), plus framing.
    pub fn hybrid_stream_section(
        symbol_units: usize,
        run_units: usize,
        symbol_pairs: usize,
        run_pairs: usize,
    ) -> u64 {
        12 + 2 * 32
            + (symbol_units as u64 + run_units as u64) * 4
            + 2 * 4
            + (symbol_pairs as u64 + run_pairs as u64) * 3
            + SECTION_OVERHEAD
    }
}

/// The shape of a field's Huffman payload, which its decoder fixes (the gap array couples
/// the encoder to the decoder, §V-C). [`crate::DecoderKind::layout`] is the one table
/// from decoder to layout; the encoder, the decode check and the container read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamLayout {
    /// cuSZ's chunked (coarse-grained) stream.
    Chunked,
    /// A flat stream without a gap array.
    Flat,
    /// A flat stream with its gap array.
    FlatWithGaps,
    /// The RLE+Huffman hybrid: a nonzero-symbol and a zero-run flat stream.
    Hybrid,
}

/// Geometry of the stream decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamGeometry {
    /// 32-bit units per subsequence.
    pub subseq_units: u32,
    /// Subsequences per sequence (= threads per block in the decode kernels).
    pub subseqs_per_seq: u32,
}

impl Default for StreamGeometry {
    fn default() -> Self {
        StreamGeometry {
            subseq_units: DEFAULT_SUBSEQ_UNITS,
            subseqs_per_seq: DEFAULT_THREADS_PER_BLOCK,
        }
    }
}

impl StreamGeometry {
    /// Bits per subsequence.
    pub fn subseq_bits(&self) -> u64 {
        self.subseq_units as u64 * 32
    }

    /// Bits per sequence.
    pub fn seq_bits(&self) -> u64 {
        self.subseq_bits() * self.subseqs_per_seq as u64
    }

    /// Number of subsequences needed to cover `bit_len` bits.
    pub fn num_subseqs(&self, bit_len: u64) -> usize {
        bit_len.div_ceil(self.subseq_bits()) as usize
    }

    /// Number of sequences needed to cover `bit_len` bits.
    pub fn num_seqs(&self, bit_len: u64) -> usize {
        bit_len.div_ceil(self.seq_bits()) as usize
    }
}

/// A flat Huffman-encoded symbol stream plus everything the fine-grained GPU decoders
/// need: codebook, geometry, and optional gap array.
///
/// Equality is bit-level: two streams are equal only if their units, geometry, codebook
/// codewords, and gap arrays all match (used by the encoder equivalence suite).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedStream {
    /// Packed 32-bit units of the bitstream.
    pub units: Vec<u32>,
    /// Number of valid bits in `units`.
    pub bit_len: u64,
    /// Number of symbols encoded.
    pub num_symbols: usize,
    /// The Huffman codebook (encode table + decode table).
    pub codebook: Codebook,
    /// Stream decomposition geometry.
    pub geometry: StreamGeometry,
    /// The gap array, present only when the encoder was asked to produce one
    /// (gap-array decoders require it; self-synchronization decoders do not read it).
    pub gap_array: Option<GapArray>,
}

impl EncodedStream {
    /// Encodes `symbols` with `codebook` using the default geometry, without a gap array
    /// (the "pure Huffman code" the self-synchronization decoder consumes).
    pub fn encode(codebook: &Codebook, symbols: &[u16]) -> Self {
        Self::encode_with(codebook, symbols, StreamGeometry::default(), false)
    }

    /// Encodes `symbols` and additionally computes the gap array (the extra encoder work
    /// the gap-array approach requires).
    pub fn encode_with_gap_array(codebook: &Codebook, symbols: &[u16]) -> Self {
        Self::encode_with(codebook, symbols, StreamGeometry::default(), true)
    }

    /// Encodes with explicit geometry.
    pub fn encode_with(
        codebook: &Codebook,
        symbols: &[u16],
        geometry: StreamGeometry,
        with_gap_array: bool,
    ) -> Self {
        let FlatEncoded {
            units,
            bit_len,
            num_symbols,
            ..
        } = encode_flat(codebook, symbols);
        let gap_array = if with_gap_array {
            Some(compute_gap_array(
                codebook,
                &units,
                bit_len,
                geometry.subseq_bits(),
            ))
        } else {
            None
        };
        EncodedStream {
            units,
            bit_len,
            num_symbols,
            codebook: codebook.clone(),
            geometry,
            gap_array,
        }
    }

    /// Checks the structure every decoder relies on: a geometry neither degenerate nor
    /// absurd, units that exactly cover `bit_len`, no more symbols than bits, and a gap
    /// array, if any, that fits the subsequences: the flat layout's rule, which
    /// [`crate::CompressedPayload::check_structure`] runs.
    pub fn check_structure(&self) -> Result<(), &'static str> {
        let StreamGeometry {
            subseq_units,
            subseqs_per_seq,
        } = self.geometry;
        if subseq_units == 0 || subseqs_per_seq == 0 {
            return Err("stream geometry must be non-zero");
        }
        if subseq_units > 1 << 16 || subseqs_per_seq > 1 << 16 {
            return Err("stream geometry out of range");
        }
        if self.units.len() as u64 != self.bit_len.div_ceil(32) {
            return Err("unit count does not cover the bit length");
        }
        if self.num_symbols as u64 > self.bit_len {
            return Err("more symbols than bits in the stream");
        }
        if let Some(gap) = &self.gap_array {
            if gap.subseq_bits != self.geometry.subseq_bits() {
                return Err("gap array subsequence size does not match the geometry");
            }
            if gap.len() != self.num_subseqs() {
                return Err("gap array length does not match the stream");
            }
        }
        Ok(())
    }

    /// Number of subsequences in the stream.
    pub fn num_subseqs(&self) -> usize {
        self.geometry.num_subseqs(self.bit_len)
    }

    /// Number of sequences (decode thread blocks) in the stream.
    pub fn num_seqs(&self) -> usize {
        self.geometry.num_seqs(self.bit_len)
    }

    /// Size of the uncompressed symbol payload in bytes (u16 symbols).
    pub fn original_bytes(&self) -> u64 {
        self.num_symbols as u64 * 2
    }

    /// Compressed size in bytes, as the `HFZ1` container stores this stream: the
    /// flat-stream section (geometry header + packed units), the codebook section, and
    /// the gap-array section when one is present — each including its framing and
    /// checksum, so compression ratios and transfer costs use honest stored bytes.
    pub fn compressed_bytes(&self) -> u64 {
        let gap = self
            .gap_array
            .as_ref()
            .map(|g| wire::gap_array_section(g.len()))
            .unwrap_or(0);
        let codebook = wire::codebook_section(self.codebook.coded_symbols());
        wire::flat_stream_section(self.units.len()) + codebook + gap
    }

    /// Compression ratio: original symbol bytes over compressed bytes. This is the ratio
    /// Table IV reports (quantization codes vs. their Huffman encoding).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            return 0.0;
        }
        self.original_bytes() as f64 / self.compressed_bytes() as f64
    }
}

/// Largest zero-run a single run token encodes. A token `t < HYBRID_RUN_CAP` means
/// "`t` zeros, then the next nonzero symbol"; a token equal to the cap means "the cap's
/// worth of zeros, consume no symbol" (longer runs split into repeated cap tokens).
pub const HYBRID_RUN_CAP: u16 = 255;
/// Alphabet size of the run-length codebook: tokens `0..=HYBRID_RUN_CAP`.
pub const HYBRID_RUN_ALPHABET: usize = HYBRID_RUN_CAP as usize + 1;

/// The RLE+Huffman hybrid payload for sparse quant-code fields (format v2): the field is
/// split into a nonzero-symbol stream and a zero-run-length stream, each canonically
/// Huffman-coded with its own codebook as a flat substream (no gap arrays — the hybrid
/// decodes its substreams with the optimized self-synchronization kernels).
///
/// "Zero" is the center quantization bin (`alphabet_size / 2`, the exactly-predicted
/// Lorenzo bin), recoverable from the symbol codebook's alphabet. The encoder and
/// decoder live in [`crate::hybrid`]; this type is the wire-shaped payload the
/// container serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridStream {
    /// The nonzero-symbol substream (codebook over the original quant alphabet).
    pub symbols: EncodedStream,
    /// The zero-run-length substream (codebook over [`HYBRID_RUN_ALPHABET`] tokens).
    pub runs: EncodedStream,
    /// Total number of quant codes the hybrid reassembles (zeros + nonzeros).
    pub num_codes: u64,
}

impl HybridStream {
    /// Assembles a hybrid payload from its substreams, refusing parts that fail
    /// [`HybridStream::check_structure`].
    pub fn from_parts(
        symbols: EncodedStream,
        runs: EncodedStream,
        num_codes: u64,
    ) -> Result<Self, &'static str> {
        let hybrid = HybridStream {
            symbols,
            runs,
            num_codes,
        };
        hybrid.check_structure()?;
        Ok(hybrid)
    }

    /// Checks the structure shared by every consumer: both substreams pass
    /// [`EncodedStream::check_structure`] and carry no gap array, the run codebook
    /// covers the token alphabet, and the stream populations are mutually consistent
    /// (full token/symbol agreement is checked at decode time): the hybrid layout's
    /// rule, which [`crate::CompressedPayload::check_structure`] runs.
    pub fn check_structure(&self) -> Result<(), &'static str> {
        self.symbols.check_structure()?;
        self.runs.check_structure()?;
        if self.symbols.gap_array.is_some() || self.runs.gap_array.is_some() {
            return Err("hybrid substreams must not carry gap arrays");
        }
        if self.runs.codebook.alphabet_size() != HYBRID_RUN_ALPHABET {
            return Err("hybrid run codebook alphabet is not the token alphabet");
        }
        if self.symbols.num_symbols as u64 > self.num_codes {
            return Err("more nonzero symbols than codes in the hybrid stream");
        }
        if (self.num_codes > 0) != (self.runs.num_symbols > 0) {
            return Err("hybrid run-token population disagrees with the code count");
        }
        Ok(())
    }

    /// Size of the uncompressed quant codes in bytes (2 bytes per code).
    pub fn original_bytes(&self) -> u64 {
        self.num_codes * 2
    }

    /// Compressed size in bytes as the `HFZ2` container stores this payload: one
    /// hybrid-stream section holding both substreams and both codebooks inline.
    pub fn compressed_bytes(&self) -> u64 {
        wire::hybrid_stream_section(
            self.symbols.units.len(),
            self.runs.units.len(),
            self.symbols.codebook.coded_symbols(),
            self.runs.codebook.coded_symbols(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huffman::Codebook;

    fn symbols(n: usize) -> Vec<u16> {
        (0..n as u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761).rotate_left(11);
                let mag = r.trailing_zeros().min(8) as i32;
                let sign = if r & 1 == 1 { 1 } else { -1 };
                (512 + sign * mag) as u16
            })
            .collect()
    }

    #[test]
    fn default_geometry_matches_paper() {
        let g = StreamGeometry::default();
        assert_eq!(g.subseq_bits(), 128);
        assert_eq!(g.seq_bits(), 16384);
        // One sequence worth of bits is exactly 1024 16-bit symbols.
        assert_eq!(g.seq_bits() / 16, 1024);
    }

    #[test]
    fn geometry_counts() {
        let g = StreamGeometry::default();
        assert_eq!(g.num_subseqs(1), 1);
        assert_eq!(g.num_subseqs(128), 1);
        assert_eq!(g.num_subseqs(129), 2);
        assert_eq!(g.num_seqs(16384), 1);
        assert_eq!(g.num_seqs(16385), 2);
        assert_eq!(g.num_seqs(0), 0);
    }

    #[test]
    fn encode_roundtrip_size_accounting() {
        let syms = symbols(50_000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let enc = EncodedStream::encode(&cb, &syms);
        assert_eq!(enc.num_symbols, syms.len());
        assert_eq!(enc.original_bytes(), 100_000);
        assert!(enc.compressed_bytes() > 0);
        assert!(
            enc.compression_ratio() > 1.0,
            "cr = {}",
            enc.compression_ratio()
        );
        assert!(enc.gap_array.is_none());
        assert_eq!(enc.num_subseqs(), (enc.bit_len as usize).div_ceil(128));
    }

    #[test]
    fn gap_array_lowers_compression_ratio() {
        let syms = symbols(80_000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let plain = EncodedStream::encode(&cb, &syms);
        let gapped = EncodedStream::encode_with_gap_array(&cb, &syms);
        assert!(gapped.gap_array.is_some());
        assert!(gapped.compressed_bytes() > plain.compressed_bytes());
        assert!(gapped.compression_ratio() < plain.compression_ratio());
        // But only slightly (the paper reports the gap array is small).
        assert!(gapped.compression_ratio() > 0.90 * plain.compression_ratio());
    }

    #[test]
    fn empty_stream() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let enc = EncodedStream::encode(&cb, &[]);
        assert_eq!(enc.num_symbols, 0);
        assert_eq!(enc.num_subseqs(), 0);
        assert_eq!(enc.num_seqs(), 0);
        assert_eq!(enc.compression_ratio(), 0.0);
    }
}
