//! The full cuSZ-style compression / decompression pipeline.
//!
//! Compression: Lorenzo dual-quantization → Huffman encoding (in whichever stream format
//! the chosen decoder consumes) → outlier list. Decompression: Huffman decoding on the
//! backend (this is the part the paper optimizes) → reverse dual-quantization →
//! outlier patching.
//!
//! Every decompression decodes its codes with [`huffdec_core::decode`], which takes
//! every [`DecoderKind`], the RLE+Huffman hybrid included, and every multi-field decode
//! is one wave of it ([`huffdec_core::decode_batch`]): hybrid fields ride the wave like
//! any other field, and a wave of one is the serial decode. Encoding is likewise one
//! core call per field whatever the kind. A payload that does not fit its decoder, or a
//! malformed stream or one that does not decode to its declared symbol count, fails
//! with a typed [`DecodeError`].
//!
//! The decompression timing combines the simulated Huffman phase breakdown with an
//! analytic cost for the (memory-bound) reconstruction kernels, so the overall
//! decompression throughput figures of the paper (Figs. 4 and 5) can be regenerated.

use datasets::Field;
use gpu_sim::{Backend, TransferDirection};
use huffdec_core::{
    compress_counted_on, compress_for, decode, picks_hybrid, wire, zero_symbol, CompressedPayload,
    DecodeError, DecodeResult, DecoderKind, EncodePhaseBreakdown, PhaseBreakdown,
};

use crate::error_bound::ErrorBound;
use crate::lorenzo::{dequantize_codes, quantize, quantize_on, Outlier, Quantized};
use datasets::Dims;

/// Default number of quantization bins, as in cuSZ.
pub const DEFAULT_ALPHABET_SIZE: usize = 1024;

/// Compression configuration.
#[derive(Debug, Clone, Copy)]
pub struct SzConfig {
    /// The error bound to honour.
    pub error_bound: ErrorBound,
    /// Number of quantization bins (must be a power of two ≥ 4; cuSZ uses 1024).
    pub alphabet_size: usize,
    /// Which Huffman decoder the archive targets (decides the stream format: chunked for
    /// the baseline, flat for self-sync, flat + gap array for gap-array decoding).
    pub decoder: DecoderKind,
}

impl SzConfig {
    /// The paper's headline configuration: relative error bound 1e-3, 1024 bins.
    pub fn paper_default(decoder: DecoderKind) -> Self {
        SzConfig {
            error_bound: ErrorBound::paper_default(),
            alphabet_size: DEFAULT_ALPHABET_SIZE,
            decoder,
        }
    }
}

impl Default for SzConfig {
    fn default() -> Self {
        SzConfig::paper_default(DecoderKind::OptimizedGapArray)
    }
}

/// A compressed field.
///
/// The decoder kind and alphabet size live only in [`Compressed::config`] — they were
/// previously duplicated as standalone fields, which let the two copies diverge.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The Huffman-encoded quantization codes.
    pub payload: CompressedPayload,
    /// Outliers that did not fit the quantization alphabet.
    pub outliers: Vec<Outlier>,
    /// Field dimensions.
    pub dims: Dims,
    /// Quantization step (twice the absolute error bound used).
    pub step: f64,
    /// The configuration the archive was produced with (the single source of truth for
    /// the target decoder and the alphabet size).
    pub config: SzConfig,
    /// CRC32 over the decoded symbol stream (the quantization codes, serialized LE).
    /// Stamped by [`compress`] / [`compress_on`] and stored by the container as the
    /// decoded-CRC trailer section, so deep verification can catch archives whose
    /// sections are individually CRC-valid but decode to the wrong codes. `None` for
    /// archives written before the trailer existed.
    pub decoded_crc: Option<u32>,
}

impl Compressed {
    /// The decoder this archive targets.
    ///
    /// ```
    /// use datasets::{dataset_by_name, generate};
    /// use huffdec_core::DecoderKind;
    /// use sz::{compress, SzConfig};
    ///
    /// let field = generate(&dataset_by_name("HACC").unwrap(), 10_000, 1);
    /// let compressed = compress(&field, &SzConfig::paper_default(DecoderKind::OptimizedSelfSync));
    /// assert_eq!(compressed.decoder(), DecoderKind::OptimizedSelfSync);
    /// ```
    pub fn decoder(&self) -> DecoderKind {
        self.config.decoder
    }

    /// Quantization alphabet size.
    ///
    /// ```
    /// use datasets::{dataset_by_name, generate};
    /// use huffdec_core::DecoderKind;
    /// use sz::{compress, SzConfig, DEFAULT_ALPHABET_SIZE};
    ///
    /// let field = generate(&dataset_by_name("CESM").unwrap(), 10_000, 1);
    /// let compressed = compress(&field, &SzConfig::default());
    /// assert_eq!(compressed.alphabet_size(), DEFAULT_ALPHABET_SIZE);
    /// ```
    pub fn alphabet_size(&self) -> usize {
        self.config.alphabet_size
    }

    /// Checks the structure every consumer of a field relies on: the payload's own rule
    /// ([`CompressedPayload::check_structure`]), a codebook over the configured
    /// alphabet, one symbol per element of `dims`, and outlier indices inside the field
    /// and strictly increasing (what the reconstruction relies on). The container's
    /// writer and reader both run it.
    pub fn check_structure(&self) -> Result<(), &'static str> {
        self.payload.check_structure()?;
        if self.payload.alphabet_size() != self.config.alphabet_size {
            return Err("codebook alphabet does not match the alphabet size");
        }
        let num_elements = self.dims.len() as u64;
        if self.payload.num_symbols() as u64 != num_elements {
            return Err("symbol count does not match the dimensions");
        }
        if self.outliers.iter().any(|o| o.index >= num_elements) {
            return Err("outlier index out of range");
        }
        if self.outliers.windows(2).any(|w| w[0].index >= w[1].index) {
            return Err("outlier indices not strictly increasing");
        }
        Ok(())
    }

    /// Number of data elements.
    pub fn num_elements(&self) -> usize {
        self.dims.len()
    }

    /// Uncompressed size in bytes (single-precision input).
    pub fn original_bytes(&self) -> u64 {
        self.num_elements() as u64 * 4
    }

    /// Size of the quantization codes in bytes (2 bytes per element) — the denominator
    /// the paper uses for Huffman decoding throughput.
    pub fn quant_code_bytes(&self) -> u64 {
        self.num_elements() as u64 * 2
    }

    /// Total compressed size in bytes, as the `HFZ1` container stores this field: the
    /// archive header, the payload sections (stream + codebook + optional gap array),
    /// the outlier section, and the end marker — matching `huffdec_container::to_bytes`
    /// byte for byte (a cross-crate test enforces this), so Table IV ratios and Fig. 5
    /// transfer costs use the honest stored size.
    ///
    /// ```
    /// use datasets::{dataset_by_name, generate};
    /// use sz::{compress, SzConfig};
    ///
    /// let field = generate(&dataset_by_name("Nyx").unwrap(), 10_000, 3);
    /// let compressed = compress(&field, &SzConfig::default());
    /// // Exactly the bytes the HFZ1 container stores for this field.
    /// let stored = huffdec_container::to_bytes(&compressed).unwrap();
    /// assert_eq!(compressed.compressed_bytes(), stored.len() as u64);
    /// assert!(compressed.compressed_bytes() < compressed.original_bytes());
    /// ```
    pub fn compressed_bytes(&self) -> u64 {
        let digest = if self.decoded_crc.is_some() {
            wire::decoded_crc_section()
        } else {
            0
        };
        wire::ARCHIVE_HEADER
            + self.payload.compressed_bytes()
            + wire::outliers_section(self.outliers.len())
            + digest
            + wire::END_SECTION
    }

    /// Checks `symbols` against the stored decoded-stream digest: `Some(true)` when the
    /// digest matches, `Some(false)` when it does not, `None` when the archive carries
    /// no digest.
    pub fn matches_decoded_crc(&self, symbols: &[u16]) -> Option<bool> {
        self.decoded_crc
            .map(|stored| stored == huffdec_core::crc32_symbols(symbols))
    }

    /// Overall compression ratio (f32 input over compressed bytes).
    pub fn overall_compression_ratio(&self) -> f64 {
        self.original_bytes() as f64 / self.compressed_bytes() as f64
    }

    /// Huffman-only compression ratio (quantization codes over their encoding), as in
    /// Table IV.
    pub fn huffman_compression_ratio(&self) -> f64 {
        self.payload.compression_ratio()
    }
}

/// Timing breakdown of a decompression run.
#[derive(Debug, Clone, Default)]
pub struct DecompressStats {
    /// The Huffman decoding phase breakdown (simulated kernels).
    pub huffman: PhaseBreakdown,
    /// Estimated time of the reverse dual-quantization / Lorenzo reconstruction kernels.
    pub reconstruct_seconds: f64,
    /// Estimated time of the outlier scatter kernel.
    pub outlier_scatter_seconds: f64,
    /// Host-to-device transfer time of the compressed archive. Never part of
    /// `total_seconds`; the Fig. 5 report adds it itself.
    pub h2d_transfer_seconds: f64,
    /// Total decompression time in seconds.
    pub total_seconds: f64,
}

impl DecompressStats {
    /// Overall decompression throughput in GB/s relative to the uncompressed data size,
    /// the convention of Figs. 4 and 5.
    pub fn overall_throughput_gbs(&self, original_bytes: u64) -> f64 {
        if self.total_seconds <= 0.0 {
            0.0
        } else {
            original_bytes as f64 / self.total_seconds / 1e9
        }
    }
}

/// A decompressed field plus its timing. The data is the reconstructed field by
/// default; a decode that stops at the codes, or serializes what it decoded, carries
/// that instead.
#[derive(Debug, Clone)]
pub struct Decompressed<D = Vec<f32>> {
    /// The decoded data.
    pub data: D,
    /// Timing breakdown.
    pub stats: DecompressStats,
}

/// Timing breakdown of a compression run on a backend (produced by [`compress_on`]; the
/// host path [`compress`] does not time itself): modeled seconds on the simulator,
/// wall-clock seconds on an unmodeled backend.
#[derive(Debug, Clone)]
pub struct CompressStats {
    /// The quantize stage: the modeled Lorenzo dual-quantization kernel on the
    /// simulator; the measured range pass, quantize launch and hybrid pick on an
    /// unmodeled backend.
    pub quantize_seconds: f64,
    /// The Huffman encode phase breakdown
    /// (histogram / tree+codebook / offset prefix-sum / scatter).
    pub encode: EncodePhaseBreakdown,
    /// Total compression time in seconds.
    pub total_seconds: f64,
}

impl CompressStats {
    /// Huffman encoding throughput in GB/s relative to the quantization-code bytes
    /// (2 per element), the same denominator the decode tables use.
    pub fn encode_throughput_gbs(&self, quant_code_bytes: u64) -> f64 {
        self.encode.throughput_gbs(quant_code_bytes)
    }

    /// Overall compression throughput in GB/s relative to the uncompressed f32 bytes.
    pub fn overall_throughput_gbs(&self, original_bytes: u64) -> f64 {
        if self.total_seconds <= 0.0 {
            0.0
        } else {
            original_bytes as f64 / self.total_seconds / 1e9
        }
    }
}

/// Estimated time of the Lorenzo dual-quantization kernel: one f32 read, one prediction
/// neighbourhood re-read (cached, charged as half), and one 2-byte code write per
/// element, a few cycles of compute, one launch.
fn quantize_kernel_time(gpu: &dyn Backend, num_elements: usize) -> f64 {
    let cfg = gpu.config();
    let compute_cycles =
        num_elements as f64 * 6.0 / (cfg.num_sms as f64 * cfg.issue_slots_per_sm as f64);
    cfg.streaming_pass_seconds(num_elements as f64 * 8.0, compute_cycles, 1)
}

/// The absolute error bound `bound` sets for `field`. Only a relative bound reads the
/// field's value range; [`ErrorBound::to_absolute`] ignores it for an absolute one, so
/// that pass is skipped.
fn absolute_bound(field: &Field, bound: &ErrorBound) -> f64 {
    let range = match bound {
        ErrorBound::Relative(_) => field.range_span() as f64,
        ErrorBound::Absolute(_) => 0.0,
    };
    bound.to_absolute(range)
}

fn assemble(
    q: Quantized,
    config: SzConfig,
    payload: CompressedPayload,
    decoded_crc: u32,
) -> Compressed {
    Compressed {
        payload,
        outliers: q.outliers,
        dims: q.dims,
        step: q.step,
        config,
        decoded_crc: Some(decoded_crc),
    }
}

/// Compresses a field with the serial quantizer and the single-threaded host encoder
/// ([`huffdec_core::compress_for`], which also encodes the RLE+Huffman hybrid of format
/// v2) into `config`'s decoder: the host reference [`compress_on`] is held to.
pub fn compress(field: &Field, config: &SzConfig) -> Compressed {
    let step = 2.0 * absolute_bound(field, &config.error_bound);
    let q = quantize(&field.data, field.dims, step, config.alphabet_size);
    let payload = compress_for(config.decoder, &q.codes, config.alphabet_size);
    let crc = huffdec_core::crc32_symbols(&q.codes);
    assemble(q, *config, payload, crc)
}

/// Compresses a field on `gpu`: one quantize launch, then the backend's parallel encode
/// ([`huffdec_core::compress_counted_on`], for every kind). Returns the archive and the
/// compression timing breakdown, modeled on the simulator and measured on an unmodeled
/// backend.
///
/// With `auto_hybrid` set, a field whose codes [`picks_hybrid`] chooses is encoded with
/// the RLE+Huffman hybrid instead of `config`'s decoder ([`Compressed::config`] records
/// the pick). The archive is bit-identical to [`compress`] under the decoder it records.
///
/// The field is quantized in one launch over blocks of its rows (`lorenzo::quantize_on`)
/// that also counts the codes and checksums them. The counts give the hybrid pick its
/// center-bin count and a dense encoder its histogram (the hybrid's substreams count
/// their own symbols), and the checksum is the archive's `decoded_crc`, so no further
/// pass reads the codes before the encode.
pub fn compress_on(
    gpu: &dyn Backend,
    field: &Field,
    config: &SzConfig,
    auto_hybrid: bool,
) -> (Compressed, CompressStats) {
    let quantize_start = std::time::Instant::now();
    let step = 2.0 * absolute_bound(field, &config.error_bound);
    let (q, counts, crc) = quantize_on(gpu, &field.data, field.dims, step, config.alphabet_size);
    let mut config = *config;
    let zero_codes = counts[zero_symbol(config.alphabet_size) as usize];
    if auto_hybrid && picks_hybrid(zero_codes, q.codes.len()) {
        config.decoder = DecoderKind::RleHybrid;
    }
    let quantize_elapsed = quantize_start.elapsed().as_secs_f64();
    let (payload, encode) =
        compress_counted_on(gpu, config.decoder, &q.codes, counts, config.alphabet_size);
    let quantize_seconds =
        gpu.charge_seconds(quantize_kernel_time(gpu, field.len()), quantize_elapsed);
    let total_seconds = quantize_seconds + encode.total_seconds();
    let stats = CompressStats {
        quantize_seconds,
        encode,
        total_seconds,
    };
    (assemble(q, config, payload, crc), stats)
}

/// Estimated time of the reverse dual-quantization (Lorenzo reconstruction) kernels.
///
/// cuSZ reconstructs with scan-style kernels that are memory-bound: the model charges one
/// read of the 2-byte codes, one intermediate 4-byte partial-sum read+write, and one
/// 4-byte output write per element (14 bytes/element of DRAM traffic), a few cycles of
/// compute per element, and two kernel launches.
fn reconstruct_kernel_time(gpu: &dyn Backend, num_elements: usize) -> f64 {
    let cfg = gpu.config();
    let compute_cycles =
        num_elements as f64 * 8.0 / (cfg.num_sms as f64 * cfg.issue_slots_per_sm as f64);
    cfg.streaming_pass_seconds(num_elements as f64 * 14.0, compute_cycles, 2)
}

/// Estimated time of the outlier scatter kernel (read the outlier list, patch the grid).
fn outlier_scatter_time(gpu: &dyn Backend, num_outliers: usize) -> f64 {
    gpu.config()
        .streaming_pass_seconds(num_outliers as f64 * (12.0 + 8.0), 0.0, 1)
}

/// Everything downstream of the Huffman decode of `c`'s codes: reverse
/// dual-quantization, outlier patching, and the analytic kernel/transfer costs. A
/// field decompressed alone ([`decompress`]) and one decompressed as a task of a
/// decode wave both end here, so both report identical per-field statistics.
pub fn reconstruct(gpu: &dyn Backend, c: &Compressed, decode_result: DecodeResult) -> Decompressed {
    // Reverse dual-quantization on the host (functional), with an analytic kernel cost.
    let reconstruct_start = std::time::Instant::now();
    let data = dequantize_codes(
        &decode_result.symbols,
        &c.outliers,
        c.dims,
        c.step,
        c.alphabet_size(),
    );
    let reconstruct_elapsed = reconstruct_start.elapsed().as_secs_f64();

    // On the simulated backend both kernels are charged analytically; on a real backend
    // the measured dequantize (which already patches outliers) stands in for both, so
    // the scatter kernel contributes zero extra time.
    let reconstruct_seconds = gpu.charge_seconds(
        reconstruct_kernel_time(gpu, data.len()),
        reconstruct_elapsed,
    );
    let outlier_scatter_seconds =
        gpu.charge_seconds(outlier_scatter_time(gpu, c.outliers.len()), 0.0);
    let h2d_transfer_seconds =
        gpu.transfer_seconds(c.compressed_bytes(), TransferDirection::HostToDevice);

    let total_seconds =
        decode_result.timings.total_seconds() + reconstruct_seconds + outlier_scatter_seconds;

    Decompressed {
        data,
        stats: DecompressStats {
            huffman: decode_result.timings,
            reconstruct_seconds,
            outlier_scatter_seconds,
            h2d_transfer_seconds,
            total_seconds,
        },
    }
}

/// Decodes just the quantization codes of an archive (the Huffman stage alone, no
/// reverse quantization). This is what code-level consumers — the serving daemon's
/// `codes` requests and `hfz verify --deep` — use: the returned symbols are exactly
/// what [`Compressed::matches_decoded_crc`] digests.
pub fn decode_codes(gpu: &dyn Backend, c: &Compressed) -> Result<DecodeResult, DecodeError> {
    decode(gpu, c.decoder(), &c.payload)
}

/// Decompresses an archive, assuming the compressed data is already resident in GPU
/// memory (the in-memory-compression scenario of Fig. 4).
///
/// Returns [`DecodeError::PayloadMismatch`] if the payload's stream format does not
/// match the archive's configured decoder.
pub fn decompress(gpu: &dyn Backend, c: &Compressed) -> Result<Decompressed, DecodeError> {
    Ok(reconstruct(gpu, c, decode_codes(gpu, c)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::verify_error_bound;
    use datasets::{dataset_by_name, generate};
    use gpu_sim::Gpu;
    use huffdec_core::{decode_batch, BatchStats};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(gpu_sim::GpuConfig::test_tiny(), 4)
    }

    /// Compresses and decompresses a field, asserting the error bound holds. Returns the
    /// archive and the reconstruction.
    fn roundtrip(
        gpu: &dyn Backend,
        field: &Field,
        config: &SzConfig,
    ) -> (Compressed, Decompressed) {
        let compressed = compress(field, config);
        let decompressed =
            decompress(gpu, &compressed).expect("compress produces a payload matching its decoder");
        let eb_abs = absolute_bound(field, &config.error_bound);
        let violation = verify_error_bound(&field.data, &decompressed.data, eb_abs);
        assert_eq!(violation, None, "error bound {} violated", eb_abs);
        (compressed, decompressed)
    }

    #[test]
    fn roundtrip_respects_error_bound_for_every_decoder() {
        let spec = dataset_by_name("HACC").unwrap();
        let field = generate(&spec, 60_000, 17);
        let g = gpu();
        for decoder in DecoderKind::all() {
            let config = SzConfig::paper_default(decoder);
            let (compressed, decompressed) = roundtrip(&g, &field, &config);
            assert!(
                compressed.overall_compression_ratio() > 1.0,
                "{:?}",
                decoder
            );
            assert!(decompressed.stats.total_seconds > 0.0);
        }
    }

    #[test]
    fn all_decoders_reconstruct_identically() {
        let spec = dataset_by_name("CESM").unwrap();
        let field = generate(&spec, 50_000, 3);
        let g = gpu();
        let reference = {
            let config = SzConfig::paper_default(DecoderKind::CuszBaseline);
            roundtrip(&g, &field, &config).1.data
        };
        for decoder in [
            DecoderKind::OptimizedSelfSync,
            DecoderKind::OptimizedGapArray,
        ] {
            let config = SzConfig::paper_default(decoder);
            let (_, d) = roundtrip(&g, &field, &config);
            assert_eq!(d.data, reference, "{:?} reconstruction differs", decoder);
        }
    }

    #[test]
    fn smaller_error_bound_means_lower_compression_ratio() {
        let spec = dataset_by_name("Nyx").unwrap();
        let field = generate(&spec, 60_000, 5);
        let g = gpu();
        let mut last_cr = f64::INFINITY;
        for &eb in &[1e-2, 1e-3, 1e-4] {
            let config = SzConfig {
                error_bound: ErrorBound::Relative(eb),
                alphabet_size: 1024,
                decoder: DecoderKind::OptimizedGapArray,
            };
            let (compressed, _) = roundtrip(&g, &field, &config);
            let cr = compressed.huffman_compression_ratio();
            assert!(cr < last_cr, "cr {} should shrink as eb tightens", cr);
            last_cr = cr;
        }
    }

    #[test]
    fn compression_ratio_accounting_is_consistent() {
        let spec = dataset_by_name("GAMESS").unwrap();
        let field = generate(&spec, 50_000, 7);
        let config = SzConfig::paper_default(DecoderKind::OptimizedSelfSync);
        let compressed = compress(&field, &config);
        assert_eq!(compressed.original_bytes(), field.bytes());
        assert_eq!(compressed.quant_code_bytes(), field.len() as u64 * 2);
        assert!(compressed.compressed_bytes() < compressed.original_bytes());
        // Overall ratio exceeds the Huffman ratio times 2 (f32 -> u16) only when outliers
        // are rare; at least check both are > 1.
        assert!(compressed.huffman_compression_ratio() > 1.0);
        assert!(compressed.overall_compression_ratio() > 1.0);
        // The stored size must account for every section the container writes: header,
        // codebook, stream, outliers, end marker — so it strictly exceeds the payload.
        assert!(compressed.compressed_bytes() > compressed.payload.compressed_bytes());
    }

    #[test]
    fn gpu_compression_matches_host_compression() {
        let spec = dataset_by_name("HACC").unwrap();
        let field = generate(&spec, 50_000, 11);
        let g = gpu();
        for decoder in DecoderKind::all() {
            let config = SzConfig::paper_default(decoder);
            let host = compress(&field, &config);
            let (dev, stats) = compress_on(&g, &field, &config, false);
            assert_eq!(
                dev.compressed_bytes(),
                host.compressed_bytes(),
                "{:?}",
                decoder
            );
            assert_eq!(dev.outliers, host.outliers);
            assert_eq!(dev.step, host.step);
            assert!(stats.quantize_seconds > 0.0);
            assert!(stats.encode.total_seconds() > 0.0);
            assert!(stats.total_seconds > stats.encode.total_seconds());
            assert!(stats.encode_throughput_gbs(dev.quant_code_bytes()) > 0.0);
            assert!(stats.overall_throughput_gbs(dev.original_bytes()) > 0.0);
            // The GPU-encoded archive decompresses to the same data.
            let a = decompress(&g, &host).unwrap();
            let b = decompress(&g, &dev).unwrap();
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn compress_stamps_a_decoded_stream_digest() {
        let spec = dataset_by_name("HACC").unwrap();
        let field = generate(&spec, 40_000, 13);
        let g = gpu();
        for decoder in DecoderKind::all() {
            let config = SzConfig::paper_default(decoder);
            let compressed = compress(&field, &config);
            assert!(compressed.decoded_crc.is_some(), "{:?}", decoder);
            let decoded = decode_codes(&g, &compressed).unwrap();
            assert_eq!(
                compressed.matches_decoded_crc(&decoded.symbols),
                Some(true),
                "{:?}: decoded codes must match the stamped digest",
                decoder
            );
            // A corrupted symbol stream fails the digest.
            let mut wrong = decoded.symbols;
            wrong[7] ^= 1;
            assert_eq!(compressed.matches_decoded_crc(&wrong), Some(false));
            // The GPU encoder stamps the identical digest (same codes).
            let (dev, _) = compress_on(&g, &field, &config, false);
            assert_eq!(dev.decoded_crc, compressed.decoded_crc);
            // Digest-less archives (pre-trailer) report None.
            let mut stripped = compressed.clone();
            stripped.decoded_crc = None;
            assert_eq!(stripped.matches_decoded_crc(&wrong), None);
            assert_eq!(
                compressed.compressed_bytes() - stripped.compressed_bytes(),
                28,
                "digest trailer accounts for 28 stored bytes"
            );
        }
    }

    /// Decompresses `archives` the way a decode wave does: one batched Huffman wave
    /// ([`decode_batch`]), then [`reconstruct`] per field.
    fn decompress_wave(
        g: &Gpu,
        archives: &[&Compressed],
    ) -> Result<(Vec<Decompressed>, BatchStats), DecodeError> {
        let items: Vec<_> = archives.iter().map(|c| (c.decoder(), &c.payload)).collect();
        let (decoded, stats) = decode_batch(g, &items)?;
        let fields = archives
            .iter()
            .zip(decoded)
            .map(|(c, result)| reconstruct(g, c, result))
            .collect();
        Ok((fields, stats))
    }

    #[test]
    fn batched_decompression_matches_serial_and_is_never_slower() {
        let g = gpu();
        let specs = ["HACC", "CESM", "GAMESS"];
        let decoders = [
            DecoderKind::OptimizedGapArray,
            DecoderKind::OptimizedSelfSync,
            DecoderKind::CuszBaseline,
        ];
        let archives: Vec<Compressed> = specs
            .iter()
            .zip(decoders)
            .enumerate()
            .map(|(i, (name, decoder))| {
                let field = generate(&dataset_by_name(name).unwrap(), 30_000, 40 + i as u64);
                compress(&field, &SzConfig::paper_default(decoder))
            })
            .collect();
        let refs: Vec<&Compressed> = archives.iter().collect();
        let (batched, stats) = decompress_wave(&g, &refs).unwrap();
        assert_eq!(batched.len(), 3);
        let original_bytes: u64 = archives.iter().map(|c| c.original_bytes()).sum();
        for (c, d) in archives.iter().zip(&batched) {
            let serial = decompress(&g, c).unwrap();
            assert_eq!(d.data, serial.data, "batched field diverged from serial");
            assert!((d.stats.total_seconds - serial.stats.total_seconds).abs() < 1e-12);
        }
        assert_eq!(stats.fields, 3);
        assert!(batched.iter().all(|d| d.stats.reconstruct_seconds > 0.0));
        assert!(stats.batched_seconds <= stats.serial_seconds + 1e-15);
        assert!(stats.overlap_speedup() >= 1.0);
        assert!(
            stats.batched_throughput_gbs(original_bytes)
                >= stats.serial_throughput_gbs(original_bytes)
        );
        // A mismatched archive fails the whole batch with a typed error.
        let mut broken = archives[1].clone();
        broken.config.decoder = DecoderKind::CuszBaseline;
        assert!(decompress_wave(&g, &[&archives[0], &broken]).is_err());
    }

    #[test]
    fn hybrid_roundtrip_matches_dense_reconstruction() {
        // Lorenzo residuals of a smooth field are overwhelmingly the center bin, so the
        // hybrid RLE front-end is in its element on ordinary paper datasets.
        let spec = dataset_by_name("CESM").unwrap();
        let field = generate(&spec, 50_000, 21);
        let g = gpu();
        let dense = {
            let config = SzConfig::paper_default(DecoderKind::OptimizedSelfSync);
            roundtrip(&g, &field, &config)
        };
        let config = SzConfig::paper_default(DecoderKind::RleHybrid);
        let (compressed, decompressed) = roundtrip(&g, &field, &config);
        assert_eq!(
            decompressed.data, dense.1.data,
            "hybrid reconstruction differs"
        );
        assert!(compressed.overall_compression_ratio() > 1.0);
        // The decoded-codes digest covers the hybrid path. (The container's
        // wire-accounting tests pin `compressed_bytes` against the stored HFZ2 bytes —
        // the dev-only cycle makes the two `Compressed` types distinct in unit tests.)
        let decoded = decode_codes(&g, &compressed).unwrap();
        assert_eq!(compressed.matches_decoded_crc(&decoded.symbols), Some(true));
    }

    #[test]
    fn hybrid_gpu_compression_matches_host() {
        let spec = dataset_by_name("HACC").unwrap();
        let field = generate(&spec, 40_000, 23);
        let g = gpu();
        let config = SzConfig::paper_default(DecoderKind::RleHybrid);
        let host = compress(&field, &config);
        let (dev, stats) = compress_on(&g, &field, &config, false);
        assert_eq!(dev.compressed_bytes(), host.compressed_bytes());
        assert_eq!(dev.decoded_crc, host.decoded_crc);
        assert!(stats.quantize_seconds > 0.0);
        assert!(stats.encode.total_seconds() > 0.0);
        let a = decompress(&g, &host).unwrap();
        let b = decompress(&g, &dev).unwrap();
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn mixed_batch_with_hybrid_matches_serial() {
        let g = gpu();
        let decoders = [
            DecoderKind::RleHybrid,
            DecoderKind::OptimizedGapArray,
            DecoderKind::RleHybrid,
            DecoderKind::CuszBaseline,
        ];
        let archives: Vec<Compressed> = decoders
            .iter()
            .enumerate()
            .map(|(i, &decoder)| {
                let field = generate(&dataset_by_name("CESM").unwrap(), 30_000, 60 + i as u64);
                compress(&field, &SzConfig::paper_default(decoder))
            })
            .collect();
        let refs: Vec<&Compressed> = archives.iter().collect();
        let (batched, stats) = decompress_wave(&g, &refs).unwrap();
        assert_eq!(batched.len(), 4);
        assert_eq!(stats.fields, 4);
        for (c, d) in archives.iter().zip(&batched) {
            let serial = decompress(&g, c).unwrap();
            assert_eq!(d.data, serial.data, "batched field diverged from serial");
        }
        assert!(stats.batched_seconds <= stats.serial_seconds + 1e-15);
        assert!(stats.overlap_speedup() >= 1.0);
        // A hybrid archive relabelled as dense (and vice versa) fails the whole batch.
        let mut broken = archives[0].clone();
        broken.config.decoder = DecoderKind::OptimizedSelfSync;
        assert!(decompress_wave(&g, &[&archives[1], &broken]).is_err());
        let mut broken = archives[1].clone();
        broken.config.decoder = DecoderKind::RleHybrid;
        let err = decompress_wave(&g, &[&archives[0], &broken]).unwrap_err();
        assert_eq!(
            err,
            DecodeError::PayloadMismatch {
                decoder: DecoderKind::RleHybrid
            }
        );
    }
}
