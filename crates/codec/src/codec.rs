//! The session API: [`CodecBuilder`] → [`Codec`].
//!
//! A [`Codec`] owns everything one compression session needs — the execution device,
//! the worker-thread budget, and the compression configuration (decoder kind, error
//! bound, alphabet size) — so consumers stop threading `&Gpu` + config tuples through
//! every call. Compression uses the session configuration;
//! decompression always derives its parameters from the archive itself (archives are
//! self-describing), so one codec can decode archives produced under any
//! configuration.
//!
//! Every full decode — one field or many, f32 data or quantization codes, a direct call
//! or a daemon scheduler wave — is one **wave** (`Codec::wave`): each field's whole
//! job (its Huffman decode, and for data its reconstruction) is one task of the
//! backend's pool, and every field gets its own outcome, so a corrupt stream fails only
//! its own field. A wave of one is the serial decode, on the calling thread. The wave
//! is timed once, by [`huffdec_core::decode_wave`], over each field's whole job; the
//! codec only publishes what it reports. Each failed decode bumps `decode_errors`, and
//! one recorder feeds the per-decoder `decode_seconds` histogram and the
//! `decode_bytes_in` / `decode_bytes_out` counters for each finished field. A
//! single-field wave publishes `decode_occupancy_permille`; only waves of two or more
//! finished fields move the batch instruments (`batch_serial_seconds`,
//! `batch_batched_seconds`, `batch_occupancy_permille`). A stream that does not decode
//! to its declared symbol count comes back as `HfzError::Decode` (exit code 5).

use std::sync::Arc;

use datasets::Field;
use gpu_sim::{Backend, BackendKind, GpuConfig};
use huffdec_container::FormatVersion;
use huffdec_core::{
    BatchStats, CompressedPayload, DecodeError, DecodeResult, DecoderKind, EncodePhaseBreakdown,
    PhaseBreakdown, PreparedDecode, RangeDecode, AUTO_HYBRID_ZERO_FRACTION,
};
use huffdec_metrics::Metrics;
use sz::{CompressStats, Compressed, Decompressed, ErrorBound, SzConfig};

use crate::error::{HfzError, Result};
use crate::handle::{ArchiveHandle, FieldHandle};

/// A compressed field together with its encode timing — what [`Codec::compress`]
/// returns instead of the old `(Compressed, CompressStats)` tuple.
#[derive(Debug, Clone)]
pub struct EncodeOutcome {
    /// The compressed archive (bit-identical to the host encoder's output).
    pub archive: Compressed,
    /// The compression timing (quantize + per-phase encode breakdown), modeled or
    /// measured as the backend reports it.
    pub stats: CompressStats,
}

impl EncodeOutcome {
    /// Huffman encoding throughput in GB/s over the quantization-code bytes.
    pub fn encode_throughput_gbs(&self) -> f64 {
        self.stats
            .encode_throughput_gbs(self.archive.quant_code_bytes())
    }

    /// Overall compression throughput in GB/s over the uncompressed f32 bytes.
    pub fn overall_throughput_gbs(&self) -> f64 {
        self.stats
            .overall_throughput_gbs(self.archive.original_bytes())
    }
}

/// A reconstructed field together with its decompression timing — what
/// [`Codec::decompress`] returns: the reconstructed data, and the Huffman phases plus
/// reconstruction kernels (with the PCIe transfer stamped beside them), measured on the
/// CPU backend, modeled on the simulator.
pub use sz::Decompressed as DecodeOutcome;

/// What a field is decoded to: its reconstructed data or its quantization codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GetKind {
    /// The reconstructed field: little-endian f32s (field archives only).
    Data,
    /// The decoded quantization codes: little-endian u16s (any archive).
    Codes,
}

impl GetKind {
    /// Bytes one element of this kind occupies on the wire.
    pub fn element_bytes(&self) -> u64 {
        match self {
            GetKind::Data => 4,
            GetKind::Codes => 2,
        }
    }
}

/// The result of a batched multi-field decompression ([`Codec::decompress_batch`]):
/// per-field outcomes in input order plus the serial-vs-wave statistics.
#[derive(Debug, Clone)]
pub struct BatchDecodeOutcome {
    /// Per-field reconstructions, in input order, bit-identical to serial
    /// [`Codec::decompress`] field by field.
    pub fields: Vec<DecodeOutcome>,
    /// The wave's end-to-end timing, Huffman decode plus reconstruction: the serial
    /// baseline vs. one overlapped wave.
    pub stats: BatchStats,
}

/// What a wave reads from a data task: its Huffman phases, and the reconstruction
/// (reverse dual-quantization plus outlier scatter) that follows them.
fn data_timing(d: &Decompressed) -> (&PhaseBreakdown, f64) {
    let s = &d.stats;
    (
        &s.huffman,
        s.reconstruct_seconds + s.outlier_scatter_seconds,
    )
}

/// What a wave reads from a codes task: its Huffman phases, and nothing after them.
fn codes_timing(r: &DecodeResult) -> (&PhaseBreakdown, f64) {
    (&r.timings, 0.0)
}

/// The archive a data decode of `field` reconstructs from; payload-only fields have
/// none.
fn reconstructable(field: &FieldHandle) -> Result<&Compressed> {
    field.compressed().ok_or_else(|| {
        HfzError::Usage("archive is payload-only; nothing to reconstruct".to_string())
    })
}

/// What a deep check of one field finds ([`Codec::field_digest`]): the decoded
/// stream's CRC32 beside the digest the archive stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDigest {
    /// Number of symbols the decode produced.
    pub symbols: usize,
    /// CRC32 of the decoded symbol stream.
    pub computed: u32,
    /// The stored decoded-stream digest; `None` when the archive carries no trailer
    /// (always so for payload-only archives).
    pub stored: Option<u32>,
}

/// Configures and builds a [`Codec`].
///
/// Defaults are the paper's compression setup — the optimized gap-array decoder,
/// relative error bound `1e-3`, 1024 quantization bins, and a [`GpuConfig::v100`]
/// device model — run on the **CPU** backend with wall-clock timings. The execution
/// backend defaults to whatever the `HFZ_BACKEND` environment variable names (`cpu`
/// when unset or unrecognized); the simulator, which models the paper's V100 kernel
/// times, is chosen by name with [`CodecBuilder::backend`]`(`[`BackendKind::Sim`]`)`.
///
/// ```
/// use huffdec_codec::Codec;
/// use huffdec_core::DecoderKind;
///
/// let codec = Codec::builder()
///     .decoder(DecoderKind::OptimizedSelfSync)
///     .host_threads(2)
///     .build()
///     .unwrap();
/// assert_eq!(codec.decoder(), DecoderKind::OptimizedSelfSync);
/// ```
#[derive(Debug, Clone)]
pub struct CodecBuilder {
    gpu: GpuConfig,
    backend: BackendKind,
    host_threads: Option<usize>,
    decoder: DecoderKind,
    error_bound: ErrorBound,
    alphabet_size: usize,
    format: FormatVersion,
    auto_hybrid: Option<f64>,
}

impl Default for CodecBuilder {
    fn default() -> Self {
        CodecBuilder {
            gpu: GpuConfig::v100(),
            backend: BackendKind::from_env(),
            host_threads: None,
            decoder: DecoderKind::OptimizedGapArray,
            error_bound: ErrorBound::paper_default(),
            alphabet_size: sz::DEFAULT_ALPHABET_SIZE,
            format: FormatVersion::V1,
            auto_hybrid: Some(AUTO_HYBRID_ZERO_FRACTION),
        }
    }
}

impl CodecBuilder {
    /// Starts from the paper defaults.
    pub fn new() -> Self {
        CodecBuilder::default()
    }

    /// The simulated device configuration (default: [`GpuConfig::v100`] — a codec that
    /// never calls this models a V100). On the CPU backend this still sets the device
    /// model the kernels execute against functionally, but timings are measured, not
    /// modeled.
    pub fn gpu_config(mut self, config: GpuConfig) -> Self {
        self.gpu = config;
        self
    }

    /// The execution backend (default: [`BackendKind::from_env`], i.e. the
    /// `HFZ_BACKEND` environment variable, falling back to the CPU backend):
    /// [`BackendKind::Sim`] models kernel timings on the configured device,
    /// [`BackendKind::Cpu`] runs the same kernels on real host threads and reports
    /// wall-clock timings.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Size of the device's worker pool, on either backend: the host threads its
    /// launches and multi-field waves run on (default: all available CPUs).
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.host_threads = Some(threads);
        self
    }

    /// The Huffman decoder archives produced by this session target — this decides the
    /// stream format: chunked for the baseline, flat for self-sync, flat + gap array
    /// for gap-array decoding (default: optimized gap-array).
    pub fn decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    /// The error bound compression honours (default: relative `1e-3`).
    pub fn error_bound(mut self, error_bound: ErrorBound) -> Self {
        self.error_bound = error_bound;
        self
    }

    /// Number of quantization bins (default: 1024; must be a power of two in
    /// `4..=65536`, validated by [`CodecBuilder::build`]).
    pub fn alphabet_size(mut self, alphabet_size: usize) -> Self {
        self.alphabet_size = alphabet_size;
        self
    }

    /// The container format version this session writes (default: v1, so preexisting
    /// `HFZ1` consumers keep reading default output byte-for-byte). Format v2 unlocks
    /// snapshot codebook dictionaries, tuning hints, and — together with
    /// [`CodecBuilder::auto_hybrid`] — automatic RLE+Huffman hybrid selection for
    /// sparse fields. Building with the hybrid decoder upgrades v1 to v2 implicitly
    /// (hybrid streams do not exist in v1).
    pub fn format(mut self, format: FormatVersion) -> Self {
        self.format = format;
        self
    }

    /// The zero-fraction threshold at or above which a format-v2 session compresses a
    /// field with the RLE+Huffman hybrid instead of the configured dense decoder
    /// (default: [`AUTO_HYBRID_ZERO_FRACTION`]). `None` disables automatic selection;
    /// the threshold only engages under [`FormatVersion::V2`], and an explicitly
    /// hybrid session decoder bypasses it entirely.
    pub fn auto_hybrid(mut self, threshold: Option<f64>) -> Self {
        self.auto_hybrid = threshold;
        self
    }

    /// Validates the configuration and builds the session handle.
    pub fn build(self) -> Result<Codec> {
        if !(4..=65536).contains(&self.alphabet_size) || !self.alphabet_size.is_power_of_two() {
            return Err(HfzError::Usage(format!(
                "alphabet size must be a power of two in 4..=65536, got {}",
                self.alphabet_size
            )));
        }
        let value = match self.error_bound {
            ErrorBound::Absolute(v) | ErrorBound::Relative(v) => v,
        };
        if !value.is_finite() || value <= 0.0 {
            return Err(HfzError::Usage(format!(
                "error bound must be positive and finite, got {}",
                value
            )));
        }
        if let Some(t) = self.auto_hybrid {
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(HfzError::Usage(format!(
                    "auto-hybrid threshold must be a fraction in 0..=1, got {}",
                    t
                )));
            }
        }
        // Hybrid streams exist only in format v2; an explicitly hybrid session
        // silently upgrades rather than erroring on every compress.
        let format = if self.decoder.is_hybrid() {
            FormatVersion::V2
        } else {
            self.format
        };
        let backend = self.backend.create(self.gpu, self.host_threads);
        let metrics = Arc::new(Metrics::new());
        metrics.set_backend(backend.kind().name());
        Ok(Codec {
            backend,
            config: SzConfig {
                error_bound: self.error_bound,
                alphabet_size: self.alphabet_size,
                decoder: self.decoder,
            },
            format,
            auto_hybrid: self.auto_hybrid,
            metrics,
        })
    }
}

/// A stateful compression session: owns the execution device and the configuration,
/// and exposes the whole pipeline — compress, decompress, batch, ranged decode, and
/// archive sessions with cached decode state.
///
/// ```
/// use datasets::{dataset_by_name, generate};
/// use huffdec_codec::Codec;
///
/// let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, 42);
/// let codec = Codec::builder()
///     .gpu_config(gpu_sim::GpuConfig::test_tiny())
///     .host_threads(2)
///     .build()
///     .unwrap();
///
/// let encoded = codec.compress(&field).unwrap();
/// let decoded = codec.decompress(&encoded.archive).unwrap();
/// assert_eq!(decoded.data.len(), field.len());
/// ```
#[derive(Debug)]
pub struct Codec {
    backend: Arc<dyn Backend>,
    config: SzConfig,
    format: FormatVersion,
    auto_hybrid: Option<f64>,
    metrics: Arc<Metrics>,
}

impl Codec {
    /// Starts building a codec (see [`CodecBuilder`] for the defaults).
    pub fn builder() -> CodecBuilder {
        CodecBuilder::new()
    }

    /// The execution backend this session runs on. Exposed for low-level consumers
    /// (kernel-level benchmarks and ablations) that drive the launch interface
    /// directly.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// Which backend kind this session executes on (`sim` or `cpu`).
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Human-readable device description: the simulated device model's name on the
    /// sim backend, the host CPU (with its thread count) on the CPU backend.
    pub fn device_name(&self) -> String {
        self.backend.device_name()
    }

    /// The session's compression configuration.
    pub fn config(&self) -> &SzConfig {
        &self.config
    }

    /// The decoder archives produced by this session target.
    pub fn decoder(&self) -> DecoderKind {
        self.config.decoder
    }

    /// The container format version this session writes.
    pub fn format(&self) -> FormatVersion {
        self.format
    }

    /// The center-bin (zero-residual) fraction at or above which a compress encodes the
    /// field with the RLE+Huffman hybrid: set only for a dense session decoder under
    /// format v2 with automatic selection enabled. The compress decides on the codes it
    /// quantized; [`Compressed::config`] records the pick.
    fn hybrid_at(&self) -> Option<f64> {
        self.auto_hybrid
            .filter(|_| self.format == FormatVersion::V2 && !self.config.decoder.is_hybrid())
    }

    /// The metrics registry every operation of this session records into. Clone the
    /// `Arc` to read (or render) the instruments from another thread, or to record
    /// into the same registry — the daemon hands it to its cache and scheduler.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Passes a decode result through, counting a failure in `decode_errors`.
    fn count_error<T>(&self, result: std::result::Result<T, DecodeError>) -> Result<T> {
        result.map_err(|e| {
            self.metrics.update(|m| m.decode_errors += 1);
            HfzError::Decode(e)
        })
    }

    /// The one recorder of a finished encode: its latency sample, its phase seconds
    /// and the two byte counters.
    fn record_encode(
        &self,
        seconds: f64,
        breakdown: &EncodePhaseBreakdown,
        bytes_in: u64,
        bytes_out: u64,
    ) {
        self.metrics.update(|m| {
            m.encode_seconds.observe(seconds);
            for (i, (_, phase)) in breakdown.phases().iter().enumerate() {
                m.encode_phase_seconds[i] += phase.seconds;
            }
            m.encode_bytes_in += bytes_in;
            m.encode_bytes_out += bytes_out;
        });
    }

    /// The one recorder of a finished full decode: the decoder's `decode_seconds`
    /// sample and the two byte counters.
    fn record_decode(&self, decoder: DecoderKind, seconds: f64, bytes_in: u64, bytes_out: u64) {
        self.metrics.update(|m| {
            m.observe_decode(decoder, seconds);
            m.decode_bytes_in += bytes_in;
            m.decode_bytes_out += bytes_out;
        });
    }

    /// A data task: decodes `c`'s codes and reconstructs the field.
    fn data_field(&self, c: &Compressed) -> Result<Decompressed<Vec<f32>>> {
        let decoded = self.count_error(sz::decode_codes(self.backend(), c))?;
        let d = sz::reconstruct(self.backend(), c, decoded);
        let bytes_out = d.data.len() as u64 * 4;
        self.record_decode(
            c.decoder(),
            d.stats.total_seconds,
            c.compressed_bytes(),
            bytes_out,
        );
        Ok(d)
    }

    /// A codes task: decodes one stream's symbols with `decoder`. `bytes_in` is the
    /// compressed byte count `decode_bytes_in` charges for it.
    fn codes_field(
        &self,
        decoder: DecoderKind,
        payload: &CompressedPayload,
        bytes_in: u64,
    ) -> Result<DecodeResult> {
        let r = self.count_error(sz::decode_payload(self.backend(), decoder, payload))?;
        let bytes_out = r.symbols.len() as u64 * 2;
        self.record_decode(decoder, r.timings.total_seconds(), bytes_in, bytes_out);
        Ok(r)
    }

    /// A codes task run alone: one stream's symbols, decoded as a wave of one.
    fn decode_stream(
        &self,
        decoder: DecoderKind,
        payload: &CompressedPayload,
        bytes_in: u64,
    ) -> Result<DecodeResult> {
        let task = |p: &&CompressedPayload| self.codes_field(decoder, p, bytes_in);
        let (mut fields, _) = self.wave(&[payload], task, codes_timing);
        fields.remove(0)
    }

    /// The one wave every full decode runs: `field` is one item's whole job (a
    /// [`Codec::data_field`] or [`Codec::codes_field`] task, which records the field),
    /// and every item is one task of one [`huffdec_core::decode_wave`] on the session's
    /// pool, which also times the wave from what `timing` reads of each finished job.
    /// Each item gets its own outcome, in input order. Publishes the wave: the
    /// perf-model occupancy of its kernels (time-weighted across every finished field,
    /// permille; breakdowns without kernel stats leave the gauge untouched) and — for
    /// two or more finished fields only — the serial-vs-batched seconds.
    fn wave<T: Sync, O: Send + Sync>(
        &self,
        items: &[T],
        field: impl Fn(&T) -> Result<O> + Sync,
        timing: impl Fn(&O) -> (&PhaseBreakdown, f64),
    ) -> (Vec<Result<O>>, BatchStats) {
        let (fields, stats) = huffdec_core::decode_wave(self.backend(), items, field, &timing);
        let (mut weighted, mut kernel_seconds) = (0.0, 0.0);
        for (huffman, _) in fields.iter().flatten().map(&timing) {
            for (_, phase) in huffman.phases() {
                for k in &phase.kernels {
                    weighted += k.occupancy.fraction * k.time_s;
                    kernel_seconds += k.time_s;
                }
            }
        }
        let permille =
            (kernel_seconds > 0.0).then(|| (weighted / kernel_seconds * 1000.0).round() as u64);
        self.metrics.update(|m| {
            let occupancy = if stats.fields >= 2 {
                m.batch_serial_seconds += stats.serial_seconds;
                m.batch_batched_seconds += stats.batched_seconds;
                &mut m.batch_occupancy_permille
            } else {
                &mut m.decode_occupancy_permille
            };
            if let Some(permille) = permille {
                *occupancy = permille;
            }
        });
        (fields, stats)
    }

    // ----- compression (uses the session configuration) -----

    /// Compresses a field on the session's backend ([`sz::compress_auto_on`]): one
    /// quantize launch that also counts and checksums the codes, then the backend's
    /// parallel encode. Returns the archive (bit-identical to the host encoder) and the
    /// timing breakdown, modeled on the simulator and measured on the CPU backend.
    pub fn compress(&self, field: &Field) -> Result<EncodeOutcome> {
        self.check_nonempty(field)?;
        let (archive, stats) =
            sz::compress_auto_on(self.backend.as_ref(), field, &self.config, self.hybrid_at());
        self.record_encode(
            stats.total_seconds,
            &stats.encode,
            archive.original_bytes(),
            archive.compressed_bytes(),
        );
        Ok(EncodeOutcome { archive, stats })
    }

    /// Compresses a field with the single-threaded host quantizer and encoder — the same
    /// archive as [`Codec::compress`], bit for bit, without launching on the backend.
    /// For tests and benchmarks that only need the archive.
    pub fn compress_archive(&self, field: &Field) -> Result<Compressed> {
        self.check_nonempty(field)?;
        Ok(sz::compress_auto(field, &self.config, self.hybrid_at()))
    }

    /// Encodes a bare symbol stream into this session's stream format with the encode
    /// walk on the session's backend (no quantization — the Huffman stage alone, as the
    /// encode benchmarks measure it).
    pub fn encode_symbols(&self, symbols: &[u16]) -> (CompressedPayload, EncodePhaseBreakdown) {
        let (payload, breakdown) = huffdec_core::compress_on(
            self.backend.as_ref(),
            self.config.decoder,
            symbols,
            self.config.alphabet_size,
        );
        self.record_encode(
            breakdown.total_seconds(),
            &breakdown,
            symbols.len() as u64 * 2,
            payload.compressed_bytes(),
        );
        (payload, breakdown)
    }

    fn check_nonempty(&self, field: &Field) -> Result<()> {
        if field.is_empty() {
            return Err(HfzError::Usage(
                "input field is empty; nothing to compress".to_string(),
            ));
        }
        Ok(())
    }

    // ----- decompression (parameters come from the archive itself) -----

    /// Decompresses an archive to its f32 field. The archive's own configuration
    /// (decoder, alphabet, error bound) drives the decode. The timing is the in-memory
    /// scenario's (Fig. 4); the modeled host-to-device copy of the compressed bytes is
    /// stamped beside it as `h2d_transfer_seconds` for callers that want Fig. 5's.
    pub fn decompress(&self, c: &Compressed) -> Result<DecodeOutcome> {
        let (mut fields, _) = self.wave(&[c], |c| self.data_field(c), data_timing);
        fields.remove(0)
    }

    /// Decompresses several archives as one batch: each field's decode and
    /// reconstruction is one task of a single overlapped wave across the shared worker
    /// pool. Outputs are bit-identical to serial [`Codec::decompress`]; the first field
    /// (in input order) that fails fails the batch.
    pub fn decompress_batch(&self, archives: &[&Compressed]) -> Result<BatchDecodeOutcome> {
        let (fields, stats) = self.wave(archives, |c| self.data_field(c), data_timing);
        Ok(BatchDecodeOutcome {
            fields: fields.into_iter().collect::<Result<_>>()?,
            stats,
        })
    }

    /// Decodes just the quantization codes of an archive (the Huffman stage alone, no
    /// reverse quantization): the symbols its stored digest covers.
    pub fn decode_codes(&self, c: &Compressed) -> Result<DecodeResult> {
        self.decode_stream(c.decoder(), &c.payload, c.compressed_bytes())
    }

    /// Decodes a bare payload with this session's configured decoder, the hybrid
    /// included. Benchmark-level access for streams that never went through the field
    /// pipeline.
    pub fn decode_payload(&self, payload: &CompressedPayload) -> Result<DecodeResult> {
        self.decode_stream(self.config.decoder, payload, payload.compressed_bytes())
    }

    // ----- serialization (uses the session format version) -----

    /// Serializes a field compression with the session's format version: v1 sessions
    /// write `HFZ1` (hybrid archives upgrade themselves to v2 — they do not exist in
    /// v1), v2 sessions always write `HFZ2`.
    pub fn archive_to_bytes(&self, c: &Compressed) -> Result<Vec<u8>> {
        Ok(huffdec_container::to_bytes_as(c, self.format)?)
    }

    /// Serializes a named snapshot with the session's format version. v2 snapshots
    /// carry the shared codebook dictionary and decoder tuning hints; a v1 session
    /// holding any hybrid field upgrades the whole snapshot to v2.
    pub fn snapshot_to_bytes(&self, fields: &[(&str, &Compressed)]) -> Result<Vec<u8>> {
        Ok(huffdec_container::snapshot_to_bytes_as(
            fields,
            self.format,
        )?)
    }

    // ----- archive sessions -----

    /// Opens an `HFZ1` or `HFZ2` archive file: every field parsed and validated once,
    /// returned as a session handle whose fields cache their decode state (see
    /// [`ArchiveHandle`]). Accepts snapshot files and plain concatenations alike.
    pub fn open_archive(&self, path: &str) -> Result<ArchiveHandle> {
        ArchiveHandle::open(path)
    }

    /// [`Codec::open_archive`] over an in-memory buffer.
    pub fn open_archive_bytes(&self, bytes: &[u8]) -> Result<ArchiveHandle> {
        ArchiveHandle::from_bytes(bytes)
    }

    /// Opens a snapshot archive — like [`Codec::open_archive`], but the file must
    /// carry a manifest (name-addressed multi-field access).
    pub fn open_snapshot(&self, path: &str) -> Result<ArchiveHandle> {
        Self::require_manifest(ArchiveHandle::open(path)?)
    }

    /// [`Codec::open_snapshot`] over an in-memory buffer.
    pub fn open_snapshot_bytes(&self, bytes: &[u8]) -> Result<ArchiveHandle> {
        Self::require_manifest(ArchiveHandle::from_bytes(bytes)?)
    }

    fn require_manifest(handle: ArchiveHandle) -> Result<ArchiveHandle> {
        if handle.manifest().is_none() {
            return Err(HfzError::Container(
                huffdec_container::ContainerError::Invalid {
                    reason: "archive carries no snapshot manifest",
                },
            ));
        }
        Ok(handle)
    }

    /// Decompresses one field of an opened archive to its f32 data (payload-only
    /// fields have no reconstruction and report a usage error).
    pub fn decompress_field(&self, field: &FieldHandle) -> Result<DecodeOutcome> {
        self.decompress(reconstructable(field)?)
    }

    /// Decodes the full symbol stream of one field of an opened archive.
    pub fn decode_field_codes(&self, field: &FieldHandle) -> Result<DecodeResult> {
        let payload = field.archive().payload();
        self.decode_stream(field.decoder(), payload, payload.compressed_bytes())
    }

    /// The deep check of one field: decodes its symbol stream and digests it beside
    /// the stored digest. This is the one check behind `hfz verify --deep` and the
    /// daemon's `VERIFY`; the caller judges the pair.
    pub fn field_digest(&self, field: &FieldHandle) -> Result<FieldDigest> {
        let decoded = self.decode_field_codes(field)?;
        Ok(FieldDigest {
            symbols: decoded.symbols.len(),
            computed: huffdec_core::crc32_symbols(&decoded.symbols),
            stored: field.info().decoded_crc,
        })
    }

    /// Decodes one scheduler wave of fields to wire-ready little-endian bytes, each
    /// field to the representation its [`GetKind`] names.
    ///
    /// This is the submission API the daemon's decode scheduler drives: hand it every
    /// cold field of one wave, whatever its kind, and each field's whole job — decode,
    /// reconstruction and serialization — runs as one task of one overlapped wave. A
    /// lone field is a wave of one — the serial decode, on the calling thread, off the
    /// batch instruments. Every field gets its own outcome, in input order, and the
    /// bytes are bit-identical to serial decodes: a corrupt stream fails only its own
    /// field, and a payload-only field asked for data fails with a usage error.
    pub fn decode_to_bytes(&self, fields: &[(&FieldHandle, GetKind)]) -> Vec<Result<Vec<u8>>> {
        // Each task carries its bytes, its Huffman phases and the rest of its job.
        let task = |&(field, kind): &(&FieldHandle, GetKind)| match kind {
            GetKind::Data => {
                let d = self.data_field(reconstructable(field)?)?;
                let (_, rest) = data_timing(&d);
                Ok((f32_le_bytes(&d.data), d.stats.huffman, rest))
            }
            GetKind::Codes => {
                let payload = field.archive().payload();
                let r = self.codes_field(field.decoder(), payload, payload.compressed_bytes())?;
                Ok((u16_le_bytes(&r.symbols), r.timings, 0.0))
            }
        };
        let (fields, _) = self.wave(fields, task, |(_, huffman, rest)| (huffman, *rest));
        fields
            .into_iter()
            .map(|f| f.map(|(bytes, ..)| bytes))
            .collect()
    }

    /// Builds (or returns the cached) range-decode index of a field — the one-time
    /// preparation cost every later [`Codec::decompress_range`] amortizes. The index
    /// lives inside the [`FieldHandle`], so it is shared by every caller holding the
    /// handle.
    pub fn prepare_field<'f>(&self, field: &'f FieldHandle) -> Result<&'f PreparedDecode> {
        if field.decoder().is_hybrid() {
            // Ranges address the decoded symbol stream, but a hybrid token's output
            // position depends on every zero run before it — there is no per-block
            // entry point to seek to.
            return Err(HfzError::Usage(
                "ranged decode is not supported for hybrid streams; decode the full field"
                    .to_string(),
            ));
        }
        // Record the build only on the call that actually pays it; later calls see the
        // cached index. (Two racing first calls may both record — the instruments are
        // advisory, the index itself is built exactly once.)
        let built_before = field.prepared_ready();
        let prepared = self.count_error(field.prepared(self.backend.as_ref()))?;
        if !built_before {
            self.metrics.update(|m| {
                m.observe_index_build(field.decoder(), prepared.timings.total_seconds())
            });
        }
        Ok(prepared)
    }

    /// Decodes exactly the symbols `[start, start+len)` of a field, launching only the
    /// decode blocks that overlap the range. The field's cached index
    /// ([`Codec::prepare_field`]) maps the range to its blocks; the first ranged
    /// decode on a field pays the index build, every later one decodes only its
    /// blocks. Ranges address the decoded symbol stream (the quantization codes) —
    /// reconstruction to f32 is a prefix scan and needs the whole field.
    pub fn decompress_range(
        &self,
        field: &FieldHandle,
        start: u64,
        len: u64,
    ) -> Result<RangeDecode> {
        let prepared = self.prepare_field(field)?;
        let r = self.count_error(huffdec_core::decode_range(
            self.backend.as_ref(),
            field.decoder(),
            field.archive().payload(),
            prepared,
            start,
            len,
        ))?;
        self.metrics.update(|m| {
            m.observe_partial_decode(field.decoder(), r.timings.total_seconds());
            m.partial_blocks_decoded += r.decoded_blocks as u64;
            m.partial_blocks_spanned += r.total_blocks as u64;
            m.decode_bytes_out += r.symbols.len() as u64 * 2;
        });
        Ok(r)
    }
}

/// Serializes reconstructed f32 data to the wire and file layout (little-endian,
/// 4 B/element).
pub fn f32_le_bytes(data: &[f32]) -> Vec<u8> {
    // Fixed-width stores into a sized buffer: the loop carries no length or capacity
    // bookkeeping, so it compiles to one pass.
    let mut bytes = vec![0u8; data.len() * 4];
    for (out, v) in bytes.chunks_exact_mut(4).zip(data) {
        out.copy_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Serializes decoded symbols to the wire layout (little-endian, 2 B/element).
pub fn u16_le_bytes(symbols: &[u16]) -> Vec<u8> {
    let mut bytes = vec![0u8; symbols.len() * 2];
    for (out, s) in bytes.chunks_exact_mut(2).zip(symbols) {
        out.copy_from_slice(&s.to_le_bytes());
    }
    bytes
}

#[cfg(test)]
impl Codec {
    /// The configuration one compress call uses (it compresses the field to tell).
    pub(crate) fn config_for(&self, field: &Field) -> SzConfig {
        self.compress_archive(field)
            .map_or(self.config, |archive| archive.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{dataset_by_name, generate};

    fn tiny_codec(decoder: DecoderKind) -> Codec {
        Codec::builder()
            .gpu_config(GpuConfig::test_tiny())
            .host_threads(2)
            .decoder(decoder)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(matches!(
            Codec::builder().alphabet_size(3).build(),
            Err(HfzError::Usage(_))
        ));
        assert!(matches!(
            Codec::builder().alphabet_size(1000).build(),
            Err(HfzError::Usage(_))
        ));
        assert!(matches!(
            Codec::builder()
                .error_bound(ErrorBound::Relative(-1.0))
                .build(),
            Err(HfzError::Usage(_))
        ));
        assert!(matches!(
            Codec::builder()
                .error_bound(ErrorBound::Absolute(f64::NAN))
                .build(),
            Err(HfzError::Usage(_))
        ));
        let codec = Codec::builder().build().unwrap();
        assert_eq!(codec.decoder(), DecoderKind::OptimizedGapArray);
        assert_eq!(codec.config().alphabet_size, 1024);
    }

    #[test]
    fn session_compress_matches_the_free_functions_bit_for_bit() {
        let field = generate(&dataset_by_name("HACC").unwrap(), 30_000, 11);
        for decoder in DecoderKind::all() {
            let codec = tiny_codec(decoder);
            let outcome = codec.compress(&field).unwrap();
            let legacy = sz::compress(&field, codec.config());
            assert_eq!(
                huffdec_container::to_bytes(&outcome.archive).unwrap(),
                huffdec_container::to_bytes(&legacy).unwrap(),
                "{:?}: session archive differs from the free-function archive",
                decoder
            );
            assert!(outcome.stats.total_seconds > 0.0);
            assert!(outcome.encode_throughput_gbs() > 0.0);
            assert!(outcome.overall_throughput_gbs() > 0.0);
            // The untimed host path produces the same bytes.
            let host = codec.compress_archive(&field).unwrap();
            assert_eq!(
                huffdec_container::to_bytes(&host).unwrap(),
                huffdec_container::to_bytes(&outcome.archive).unwrap()
            );
            // And the decode inverts it.
            let decoded = codec.decompress(&outcome.archive).unwrap();
            assert_eq!(
                decoded.data,
                sz::decompress(codec.backend(), &legacy).unwrap().data
            );
        }
    }

    /// A 1D random walk whose increments are zero with probability `zero_pct`% and
    /// otherwise spread over ±200 quantization steps — under an absolute error bound
    /// of 0.5 (step 1.0) the Lorenzo residuals are exactly the increments, so the
    /// field's center-bin fraction is directly controlled.
    fn walk_field(n: usize, zero_pct: u64, seed: u64) -> Field {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut value = 0.0f32;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                if rng() % 100 >= zero_pct {
                    value += (rng() % 401) as f32 - 200.0;
                }
                value
            })
            .collect();
        Field::new("walk".to_string(), datasets::Dims::D1(n), data)
    }

    /// A hybrid session encodes a bare symbol stream on either backend, and the payload
    /// round-trips through the session's own decode.
    #[test]
    fn a_hybrid_session_encodes_bare_symbols_that_it_decodes() {
        let symbols: Vec<u16> = (0..30_000).map(|i| 512 + (i % 11 == 0) as u16).collect();
        for backend in [BackendKind::Sim, BackendKind::Cpu] {
            let session = Codec::builder().backend(backend).host_threads(2);
            let session = session.gpu_config(GpuConfig::test_tiny());
            let codec = session.decoder(DecoderKind::RleHybrid).build().unwrap();
            let (payload, _) = codec.encode_symbols(&symbols);
            let hybrid = matches!(payload, CompressedPayload::Hybrid(_));
            let decoded = codec.decode_payload(&payload).unwrap();
            assert!(hybrid && decoded.symbols == symbols, "{backend:?}");
        }
    }

    #[test]
    fn hybrid_sessions_roundtrip_and_reject_ranged_decodes() {
        // An explicitly hybrid session decoder upgrades the format to v2 at build.
        let codec = tiny_codec(DecoderKind::RleHybrid);
        assert_eq!(codec.format(), FormatVersion::V2);
        let field = generate(&dataset_by_name("CESM").unwrap(), 20_000, 31);
        let outcome = codec.compress(&field).unwrap();
        assert!(outcome.archive.decoder().is_hybrid());
        let decoded = codec.decompress(&outcome.archive).unwrap();
        let dense = tiny_codec(DecoderKind::OptimizedSelfSync);
        let reference = dense
            .decompress(&dense.compress(&field).unwrap().archive)
            .unwrap();
        assert_eq!(decoded.data, reference.data);
        // Hybrid decodes record into the hybrid histogram slot.
        let tag = DecoderKind::RleHybrid.tag() as usize;
        assert!(codec.metrics().snapshot().decode_seconds[tag].count() >= 1);
        // The session writer emits HFZ2 bytes the standard reader round-trips.
        let bytes = codec.archive_to_bytes(&outcome.archive).unwrap();
        assert_eq!(&bytes[..4], b"HFZ2");
        let handle = codec.open_archive_bytes(&bytes).unwrap();
        let fh = handle.field(0).unwrap();
        assert_eq!(codec.decompress_field(fh).unwrap().data, decoded.data);
        // The codes path (through the deep check) and the wave path cover hybrid
        // fields too.
        let digest = codec.field_digest(fh).unwrap();
        assert_eq!(digest.stored, Some(digest.computed));
        assert_eq!(
            codec.decode_to_bytes(&[(fh, GetKind::Data), (fh, GetKind::Data)])[0]
                .as_ref()
                .unwrap(),
            &f32_le_bytes(&decoded.data)
        );
        // Ranged decode of a hybrid stream is a typed usage error, not a panic.
        assert!(matches!(codec.prepare_field(fh), Err(HfzError::Usage(_))));
        assert!(matches!(
            codec.decompress_range(fh, 0, 8),
            Err(HfzError::Usage(_))
        ));
    }

    #[test]
    fn auto_hybrid_selection_thresholds_on_sparsity() {
        let sparse = walk_field(20_000, 95, 7);
        let dense_field = walk_field(20_000, 0, 8);
        let builder = || {
            Codec::builder()
                .gpu_config(GpuConfig::test_tiny())
                .host_threads(2)
                .error_bound(ErrorBound::Absolute(0.5))
        };
        let v2 = builder().format(FormatVersion::V2).build().unwrap();
        assert!(v2.config_for(&sparse).decoder.is_hybrid());
        assert!(!v2.config_for(&dense_field).decoder.is_hybrid());
        // compress honours the automatic pick, and the archive still round-trips.
        let archive = v2.compress_archive(&sparse).unwrap();
        assert!(archive.decoder().is_hybrid());
        let decoded = v2.decompress(&archive).unwrap();
        assert_eq!(decoded.data.len(), sparse.len());
        // The v1 default and a disabled threshold never auto-pick hybrid.
        let v1 = builder().build().unwrap();
        assert_eq!(v1.format(), FormatVersion::V1);
        assert!(!v1.config_for(&sparse).decoder.is_hybrid());
        let off = builder()
            .format(FormatVersion::V2)
            .auto_hybrid(None)
            .build()
            .unwrap();
        assert!(!off.config_for(&sparse).decoder.is_hybrid());
        // An out-of-range threshold is a usage error.
        assert!(matches!(
            builder().auto_hybrid(Some(1.5)).build(),
            Err(HfzError::Usage(_))
        ));
    }

    #[test]
    fn auto_hybrid_compress_writes_the_explicit_sessions_bytes() {
        let sparse = walk_field(20_000, 95, 7);
        let dense_field = walk_field(20_000, 0, 8);
        let session = |decoder, auto_hybrid| {
            Codec::builder()
                .gpu_config(GpuConfig::test_tiny())
                .host_threads(2)
                .error_bound(ErrorBound::Absolute(0.5))
                .format(FormatVersion::V2)
                .decoder(decoder)
                .auto_hybrid(auto_hybrid)
                .build()
                .unwrap()
        };
        let auto = session(
            DecoderKind::OptimizedGapArray,
            Some(AUTO_HYBRID_ZERO_FRACTION),
        );
        let explicit = [
            (&sparse, session(DecoderKind::RleHybrid, None)),
            (&dense_field, session(DecoderKind::OptimizedGapArray, None)),
        ];
        for (field, explicit) in explicit {
            let expected = explicit
                .archive_to_bytes(&explicit.compress(field).unwrap().archive)
                .unwrap();
            let archive = auto.compress(field).unwrap().archive;
            assert_eq!(archive.decoder(), explicit.decoder());
            assert_eq!(auto.archive_to_bytes(&archive).unwrap(), expected);
            let host = auto.compress_archive(field).unwrap();
            assert_eq!(auto.archive_to_bytes(&host).unwrap(), expected);
        }
    }

    #[test]
    fn empty_fields_are_usage_errors() {
        let codec = tiny_codec(DecoderKind::OptimizedGapArray);
        let empty = Field::new("empty".to_string(), datasets::Dims::D1(0), Vec::new());
        assert!(matches!(codec.compress(&empty), Err(HfzError::Usage(_))));
        assert!(matches!(
            codec.compress_archive(&empty),
            Err(HfzError::Usage(_))
        ));
    }

    #[test]
    fn wave_api_matches_serial_decodes_bit_for_bit() {
        let codec = tiny_codec(DecoderKind::OptimizedGapArray);
        let fields: Vec<_> = (0..3u64)
            .map(|i| generate(&dataset_by_name("HACC").unwrap(), 9_000, 20 + i))
            .collect();
        let archives: Vec<_> = fields
            .iter()
            .map(|f| codec.compress(f).unwrap().archive)
            .collect();
        let named: Vec<(&str, &Compressed)> = archives
            .iter()
            .enumerate()
            .map(|(i, a)| (["xx", "vv", "qq"][i], a))
            .collect();
        let bytes = huffdec_container::snapshot_to_bytes(&named).unwrap();
        let handle = codec.open_snapshot_bytes(&bytes).unwrap();
        let refs: Vec<&FieldHandle> = handle.fields().iter().collect();

        let serial = |f: &FieldHandle, kind| match kind {
            GetKind::Data => f32_le_bytes(&codec.decompress_field(f).unwrap().data),
            GetKind::Codes => u16_le_bytes(&codec.decode_field_codes(f).unwrap().symbols),
        };
        // Empty wave is a no-op; one field takes the serial path; several batch.
        assert!(codec.decode_to_bytes(&[]).is_empty());
        for kind in [GetKind::Data, GetKind::Codes] {
            let items: Vec<_> = refs.iter().map(|&f| (f, kind)).collect();
            for n in [1, 3] {
                for (&(f, _), produced) in items.iter().zip(codec.decode_to_bytes(&items[..n])) {
                    assert_eq!(
                        produced.unwrap(),
                        serial(f, kind),
                        "{:?}, wave of {}",
                        kind,
                        n
                    );
                }
            }
        }

        // One wave of both kinds that holds a corrupt stream (a CRC-valid baseline
        // chunk claiming as many bits as symbols) and a payload-only field: every
        // field gets its own outcome, and the healthy ones their serial bytes.
        let baseline = tiny_codec(DecoderKind::CuszBaseline)
            .compress_archive(&fields[0])
            .unwrap();
        let mut corrupt = baseline.clone();
        let CompressedPayload::Chunked { encoded, .. } = &mut corrupt.payload else {
            panic!("the baseline decoder writes a chunked payload");
        };
        encoded.chunks[0].bit_len = encoded.chunks[0].num_symbols;
        let corrupt = huffdec_container::to_bytes(&corrupt).unwrap();
        let corrupt = codec.open_archive_bytes(&corrupt).unwrap();
        let bare = huffdec_container::payload_to_bytes(&baseline.payload, baseline.decoder());
        let bare = codec.open_archive_bytes(&bare.unwrap()).unwrap();
        let (corrupt, bare) = (corrupt.field(0).unwrap(), bare.field(0).unwrap());
        let errors_before = codec.metrics().snapshot().decode_errors;
        let mixed = codec.decode_to_bytes(&[
            (refs[0], GetKind::Data),
            (corrupt, GetKind::Data),
            (bare, GetKind::Data),
            (corrupt, GetKind::Codes),
            (bare, GetKind::Codes),
        ]);
        let corrupt_stream = DecodeError::CorruptStream {
            decoder: DecoderKind::CuszBaseline,
        };
        assert_eq!(mixed[0].as_ref().unwrap(), &serial(refs[0], GetKind::Data));
        assert!(matches!(&mixed[1], Err(HfzError::Decode(e)) if *e == corrupt_stream));
        assert!(matches!(mixed[2], Err(HfzError::Usage(_))));
        assert!(matches!(&mixed[3], Err(HfzError::Decode(e)) if *e == corrupt_stream));
        assert_eq!(mixed[4].as_ref().unwrap(), &serial(bare, GetKind::Codes));
        let errors = codec.metrics().snapshot().decode_errors - errors_before;
        assert_eq!(errors, 2, "each corrupt field counts one decode error");
    }

    #[test]
    fn batch_decompression_matches_serial() {
        // Every stream format in one wave, the hybrid's included.
        let decoders = [
            DecoderKind::OptimizedGapArray,
            DecoderKind::OptimizedSelfSync,
            DecoderKind::CuszBaseline,
            DecoderKind::RleHybrid,
        ];
        let archives: Vec<Compressed> = ["HACC", "CESM", "GAMESS", "CESM"]
            .iter()
            .zip(decoders)
            .enumerate()
            .map(|(i, (name, decoder))| {
                let field = generate(&dataset_by_name(name).unwrap(), 20_000, 60 + i as u64);
                tiny_codec(decoder).compress_archive(&field).unwrap()
            })
            .collect();
        let refs: Vec<&Compressed> = archives.iter().collect();
        for backend in [BackendKind::Sim, BackendKind::Cpu] {
            let codec = Codec::builder()
                .gpu_config(GpuConfig::test_tiny())
                .host_threads(2)
                .backend(backend)
                .build()
                .unwrap();
            let batch = codec.decompress_batch(&refs).unwrap();
            assert_eq!((batch.fields.len(), batch.stats.fields), (4, 4));
            for (c, d) in archives.iter().zip(&batch.fields) {
                let serial = codec.decompress(c).unwrap().data;
                assert_eq!(
                    d.data, serial,
                    "{backend:?}: batched field diverged from serial"
                );
            }
            let stats = &batch.stats;
            assert!(stats.batched_seconds <= stats.serial_seconds + 1e-15);
            assert!(stats.overlap_speedup() >= 1.0);
            let bytes: u64 = archives.iter().map(|c| c.original_bytes()).sum();
            assert!(stats.batched_throughput_gbs(bytes) >= stats.serial_throughput_gbs(bytes));

            // The statistic of a wave of dense fields is each field's whole job, timed
            // once: on the simulator the Huffman wave `decode_batch` models plus every
            // field's reconstruction, to the bit; on the CPU backend the wall clock,
            // between the longest field and the serial sum.
            let dense = codec.decompress_batch(&refs[..3]).unwrap();
            let stats = &dense.stats;
            assert_eq!(stats.fields, 3);
            let rest: f64 = dense
                .fields
                .iter()
                .map(|d| d.stats.reconstruct_seconds + d.stats.outlier_scatter_seconds)
                .sum();
            assert!(rest > 0.0);
            if backend == BackendKind::Sim {
                let items: Vec<_> = refs[..3]
                    .iter()
                    .map(|c| (c.decoder(), &c.payload))
                    .collect();
                let (_, huffman) = huffdec_core::decode_batch(codec.backend(), &items).unwrap();
                assert_eq!(
                    stats.serial_seconds.to_bits(),
                    (huffman.serial_seconds + rest).to_bits()
                );
                assert_eq!(
                    stats.batched_seconds.to_bits(),
                    (huffman.batched_seconds + rest).to_bits()
                );
                assert_eq!(stats.kernel_launches, huffman.kernel_launches);
            } else {
                let longest = dense
                    .fields
                    .iter()
                    .map(|d| d.stats.total_seconds)
                    .fold(0.0f64, f64::max);
                assert!(longest <= stats.batched_seconds * (1.0 + 1e-12));
                assert!(stats.batched_seconds <= stats.serial_seconds * (1.0 + 1e-12));
            }

            // A hybrid archive relabelled as dense, and a dense one as hybrid, fail the
            // batch with the typed mismatch.
            for (i, decoder) in [
                (3, DecoderKind::OptimizedSelfSync),
                (0, DecoderKind::RleHybrid),
            ] {
                let mut broken = archives[i].clone();
                broken.config.decoder = decoder;
                let err = codec.decompress_batch(&[refs[1], &broken]).unwrap_err();
                assert!(matches!(
                    err,
                    HfzError::Decode(DecodeError::PayloadMismatch { decoder: d }) if d == decoder
                ));
            }
        }
    }

    #[test]
    fn operations_record_into_the_metrics_registry() {
        let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, 7);
        let codec = tiny_codec(DecoderKind::OptimizedGapArray);
        let tag = DecoderKind::OptimizedGapArray.tag() as usize;

        let outcome = codec.compress(&field).unwrap();
        let m = codec.metrics().snapshot();
        assert_eq!(m.encode_seconds.count(), 1);
        assert!((m.encode_seconds.sum - outcome.stats.total_seconds).abs() < 1e-12);
        assert_eq!(m.encode_bytes_in, outcome.archive.original_bytes());
        assert_eq!(m.encode_bytes_out, outcome.archive.compressed_bytes());
        assert!(m.encode_phase_seconds.iter().all(|&s| s > 0.0));

        let decoded = codec.decompress(&outcome.archive).unwrap();
        let m = codec.metrics().snapshot();
        assert_eq!(m.decode_seconds[tag].count(), 1);
        assert_eq!(m.decode_bytes_in, outcome.archive.compressed_bytes());
        assert_eq!(m.decode_bytes_out, decoded.data.len() as u64 * 4);
        // The session stamped its backend identity at build time, and the decode
        // published its perf-model occupancy.
        assert_eq!(m.backend.as_deref(), Some(codec.backend_kind().name()));
        assert!(m.decode_occupancy_permille > 0);
        assert!(m.decode_occupancy_permille <= 1000);

        // Batched decodes feed the wave-occupancy counters and the per-field
        // histograms alike.
        let refs = [&outcome.archive, &outcome.archive];
        codec.decompress_batch(&refs).unwrap();
        let m = codec.metrics().snapshot();
        assert_eq!(m.decode_seconds[tag].count(), 3);
        assert!(m.batch_serial_seconds > 0.0);
        assert!(m.batch_batched_seconds <= m.batch_serial_seconds + 1e-15);
        assert!(m.batch_occupancy_permille > 0);
        assert!(m.batch_occupancy_permille <= 1000);

        // A failed decode bumps the error counter.
        let other = tiny_codec(DecoderKind::CuszBaseline);
        let chunked = other.compress_archive(&field).unwrap();
        assert!(codec.decode_payload(&chunked.payload).is_err());
        assert_eq!(codec.metrics().snapshot().decode_errors, 1);
    }

    #[test]
    fn ranged_decodes_split_index_builds_from_partial_decodes() {
        let dir = std::env::temp_dir().join("huffdec-codec-metrics-range");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.hfz");
        let codec = tiny_codec(DecoderKind::OptimizedGapArray);
        let tag = DecoderKind::OptimizedGapArray.tag() as usize;
        let field = generate(&dataset_by_name("CESM").unwrap(), 15_000, 9);
        let archive = codec.compress_archive(&field).unwrap();
        std::fs::write(
            &path,
            huffdec_container::snapshot_to_bytes(&[("f", &archive)]).unwrap(),
        )
        .unwrap();

        let handle = codec.open_snapshot(path.to_str().unwrap()).unwrap();
        let fh = handle.field_by_name("f").unwrap();
        codec.decompress_range(fh, 100, 64).unwrap();
        codec.decompress_range(fh, 5_000, 64).unwrap();
        let m = codec.metrics().snapshot();
        // The index build is paid (and recorded) once; each range decode records once.
        assert_eq!(m.index_build_seconds[tag].count(), 1);
        assert_eq!(m.partial_decode_seconds[tag].count(), 2);
        assert!(m.partial_blocks_decoded > 0);
        assert!(m.partial_blocks_decoded < m.partial_blocks_spanned);
    }

    #[test]
    fn archive_sessions_cache_the_decode_index() {
        let dir = std::env::temp_dir().join("huffdec-codec-handle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.hfz");
        let codec = tiny_codec(DecoderKind::OptimizedGapArray);
        let fields: Vec<(String, Compressed)> = [("aa", 5u64), ("bb", 6)]
            .iter()
            .map(|&(name, seed)| {
                let field = generate(&dataset_by_name("HACC").unwrap(), 15_000, seed);
                (name.to_string(), codec.compress_archive(&field).unwrap())
            })
            .collect();
        let refs: Vec<(&str, &Compressed)> = fields.iter().map(|(n, c)| (n.as_str(), c)).collect();
        std::fs::write(&path, huffdec_container::snapshot_to_bytes(&refs).unwrap()).unwrap();

        let handle = codec.open_snapshot(path.to_str().unwrap()).unwrap();
        assert_eq!(handle.len(), 2);
        assert!(handle.manifest().is_some());
        let field = handle.field_by_name("bb").unwrap();
        assert_eq!(field.name(), Some("bb"));
        assert!(!field.prepared_ready());

        // A ranged decode builds the index once; the second reuses the allocation.
        let full = codec.decode_field_codes(field).unwrap();
        let r = codec.decompress_range(field, 1_000, 64).unwrap();
        assert_eq!(r.symbols.as_slice(), &full.symbols[1_000..1_064]);
        assert!(field.prepared_ready());
        let first = codec.prepare_field(field).unwrap();
        let second = codec.prepare_field(field).unwrap();
        assert!(std::ptr::eq(first, second));

        // Whole-field decompression through the handle matches the direct path.
        let via_handle = codec.decompress_field(field).unwrap();
        let direct = codec.decompress(&fields[1].1).unwrap();
        assert_eq!(via_handle.data, direct.data);

        // Typed lookups.
        assert!(matches!(
            handle.field_by_name("zz"),
            Err(HfzError::Container(
                huffdec_container::ContainerError::FieldNotFound { .. }
            ))
        ));
        assert!(handle.field(7).is_err());
        assert!(handle.field_by_selector("1").is_ok());
        assert!(handle.field_by_selector("aa").is_ok());

        // open_snapshot insists on a manifest; open_archive takes anything.
        let solo = huffdec_container::to_bytes(&fields[0].1).unwrap();
        assert!(codec.open_snapshot_bytes(&solo).is_err());
        assert!(codec.open_archive_bytes(&solo).is_ok());
        assert!(codec.open_archive_bytes(b"").is_err());

        // The metadata-only summary sees the same structure without reassembling
        // decode state.
        let summary = crate::ArchiveSummary::open(path.to_str().unwrap()).unwrap();
        assert_eq!(summary.infos().len(), handle.len());
        assert_eq!(summary.manifest(), handle.manifest().cloned().as_ref());
        for (info, field) in summary.infos().iter().zip(handle.fields()) {
            assert_eq!(info.total_bytes, field.info().total_bytes);
            assert_eq!(info.num_symbols, field.info().num_symbols);
        }
        assert!(crate::ArchiveSummary::from_bytes(b"").is_err());
    }

    #[test]
    fn field_digest_reports_the_decoded_crc_beside_the_stored_one() {
        let codec = tiny_codec(DecoderKind::OptimizedGapArray);
        let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, 5);
        let mut archive = codec.compress_archive(&field).unwrap();
        let codes = codec.decode_codes(&archive).unwrap().symbols;
        let crc = huffdec_core::crc32_symbols(&codes);
        // The stored digest of the one field of `bytes`, after checking the decode.
        let stored = |bytes: Vec<u8>| {
            let handle = codec.open_archive_bytes(&bytes).unwrap();
            let digest = codec.field_digest(handle.field(0).unwrap()).unwrap();
            assert_eq!((digest.symbols, digest.computed), (codes.len(), crc));
            digest.stored
        };
        assert_eq!(stored(codec.archive_to_bytes(&archive).unwrap()), Some(crc));
        archive.decoded_crc = Some(!crc);
        let flipped = codec.archive_to_bytes(&archive).unwrap();
        assert_eq!(stored(flipped), Some(!crc));
        let payload_only = huffdec_container::payload_to_bytes(&archive.payload, archive.decoder());
        assert_eq!(stored(payload_only.unwrap()), None);
    }

    #[test]
    fn wire_serializers_equal_a_per_element_reference() {
        let floats = [
            -0.0f32,
            f32::from_bits(0x7fc0_1234), // a NaN with payload bits
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1), // the smallest subnormal
            1.5,
            -3.25e-7,
            f32::MAX,
        ];
        let codes = [u16::MAX, 0, 1, 0x1234, 0x8000, 511, 512, 0xfffe];
        for n in 0..=17 {
            let data: Vec<f32> = (0..n).map(|i| floats[i % floats.len()]).collect();
            let symbols: Vec<u16> = (0..n).map(|i| codes[i % codes.len()]).collect();
            let f32_ref: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
            let u16_ref: Vec<u8> = symbols.iter().flat_map(|s| s.to_le_bytes()).collect();
            assert_eq!(f32_le_bytes(&data), f32_ref, "f32, length {n}");
            assert_eq!(u16_le_bytes(&symbols), u16_ref, "u16, length {n}");
        }
    }
}
