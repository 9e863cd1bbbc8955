//! The shared dataset context: everything the experiments would otherwise each rebuild.

use std::any::Any;
use std::collections::HashMap;
use std::rc::Rc;

use datasets::{dataset_by_name, generate, Field};
use gpu_sim::{DeviceBuffer, Gpu, KernelStats};
use huffdec_codec::{BackendKind, Codec, CodecBuilder};
use huffdec_core::{
    decode_original_gap8, encode_gap8, prepare_decode, run_decode_write, CompressedPayload,
    DecoderKind, Gap8Stream, PhaseBreakdown, PreparedDecode, WriteStrategy,
};
use sz::DEFAULT_ALPHABET_SIZE as ALPHABET;
use sz::{quantize, verify_error_bound, Compressed, DecompressStats, ErrorBound};

use crate::{scaled_v100, Settings, BENCH_SEED};

/// The relative error bound of every experiment but the Fig. 2 sweep.
pub const REL_EB: f64 = 1e-3;

/// A paper dataset, by the name Table III gives it.
pub type Dataset = &'static str;

/// Cache key: what was made, of which dataset, for which decoder (where one applies), at
/// which relative error bound (its bits).
type Key = (&'static str, Dataset, Option<DecoderKind>, u64);

/// One run of the report: the scaled device, one codec per decoder, and every field,
/// archive and decode produced so far — each made once, and checked where it is made (a
/// decode against the encoder-stamped digest, a reconstruction against the error bound;
/// a failed check panics, so whatever is reported was verified).
pub struct Context {
    /// The settings the report runs under.
    pub settings: Settings,
    /// The proportionally scaled simulated device.
    pub gpu: Gpu,
    /// Multiply simulated GB/s by this factor to obtain full-V100-equivalent GB/s.
    pub norm: f64,
    codecs: HashMap<DecoderKind, Codec>,
    cache: HashMap<Key, Rc<dyn Any>>,
}

impl Context {
    /// A context on the device scaled to `settings.sms`, nothing generated yet.
    pub fn new(settings: Settings) -> Self {
        let (config, norm) = scaled_v100(settings.sms);
        let (gpu, codecs, cache) = (Gpu::new(config), HashMap::new(), HashMap::new());
        let mut ctx = Context {
            settings,
            gpu,
            norm,
            codecs,
            cache,
        };
        for decoder in DecoderKind::all() {
            let codec = ctx.session(decoder, ErrorBound::Relative(REL_EB)).build();
            ctx.codecs
                .insert(decoder, codec.expect("valid bench session"));
        }
        ctx
    }

    /// A codec builder on the scaled device, pinned to the simulator (the report is the
    /// modeled clock whatever `HFZ_BACKEND` says).
    pub(crate) fn session(&self, decoder: DecoderKind, error_bound: ErrorBound) -> CodecBuilder {
        let builder = Codec::builder().gpu_config(self.gpu.config().clone());
        let builder = builder.backend(BackendKind::Sim);
        builder.decoder(decoder).error_bound(error_bound)
    }

    /// The context's codec for `decoder` (relative error bound [`REL_EB`]).
    pub(crate) fn codec(&self, decoder: DecoderKind) -> &Codec {
        &self.codecs[&decoder]
    }

    /// Full-V100-equivalent GB/s of a decode of the dataset's quantization codes (2 bytes
    /// per element — the denominator of the paper's decoding-throughput tables).
    pub(crate) fn gbs(&mut self, ds: Dataset, timings: &PhaseBreakdown) -> f64 {
        self.norm * timings.throughput_gbs(self.field(ds).len() as u64 * 2)
    }

    /// Returns what `key` names, making it on first request.
    fn cached<V: 'static>(&mut self, key: Key, make: impl FnOnce(&mut Self) -> V) -> Rc<V> {
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone().downcast().expect("one type per kind of key");
        }
        let made = Rc::new(make(self));
        self.cache.insert(key, made.clone());
        made
    }

    /// The dataset's benchmark field: `settings.elements`, or the device's share of the
    /// full snapshot field.
    pub fn field(&mut self, ds: Dataset) -> Rc<Field> {
        self.cached(("field", ds, None, 0), |ctx| {
            let spec = dataset_by_name(ds).expect("paper dataset");
            let scaled = ((spec.full_elements() as f64 / ctx.norm) as usize).max(200_000);
            generate(&spec, ctx.settings.elements.unwrap_or(scaled), BENCH_SEED)
        })
    }

    /// The field's quantization codes at the given relative error bound.
    pub(crate) fn codes(&mut self, ds: Dataset, rel_eb: f64) -> Rc<Vec<u16>> {
        self.cached(("codes", ds, None, rel_eb.to_bits()), |ctx| {
            let field = ctx.field(ds);
            let eb_abs = rel_eb * field.range_span() as f64;
            quantize(&field.data, field.dims, 2.0 * eb_abs, ALPHABET).codes
        })
    }

    /// The original 8-bit gap-array method: codes trimmed to one byte and encoded with a
    /// gap array, and the timing of their direct-write decode (checked against them).
    pub(crate) fn gap8(&mut self, ds: Dataset, rel_eb: f64) -> Rc<(Gap8Stream, PhaseBreakdown)> {
        self.cached(("gap8", ds, None, rel_eb.to_bits()), |ctx| {
            let g8 = encode_gap8(&ctx.codes(ds, rel_eb), ALPHABET);
            let codec = ctx.codec(DecoderKind::OptimizedGapArray);
            let decoded = decode_original_gap8(codec.backend(), &g8);
            let (decoded, timings) = decoded.expect("an 8-bit gap-array stream");
            assert!(
                decoded == g8.symbols8,
                "8-bit gap-array decode of {} diverged",
                ds
            );
            (g8, timings)
        })
    }

    /// The dataset compressed for `decoder` at the given relative error bound.
    pub fn archive(&mut self, ds: Dataset, decoder: DecoderKind, rel_eb: f64) -> Rc<Compressed> {
        self.cached(("archive", ds, Some(decoder), rel_eb.to_bits()), |ctx| {
            let codec = ctx.session(decoder, ErrorBound::Relative(rel_eb)).build();
            let archive = codec
                .expect("valid bench session")
                .compress_archive(&ctx.field(ds));
            archive.expect("bench fields are non-empty")
        })
    }

    /// The archive's Huffman decode timing; the decoded symbols are checked against the
    /// encoder-stamped digest here and dropped.
    pub fn decoded(
        &mut self,
        ds: Dataset,
        decoder: DecoderKind,
        rel_eb: f64,
    ) -> Rc<PhaseBreakdown> {
        self.cached(("decoded", ds, Some(decoder), rel_eb.to_bits()), |ctx| {
            let archive = ctx.archive(ds, decoder, rel_eb);
            let result = ctx.codec(decoder).decode_codes(&archive);
            let result = result.expect("payload matches decoder");
            assert_digest(&archive, &result.symbols, decoder.name());
            result.timings
        })
    }

    /// The archive's full decompression timing at [`REL_EB`] (Huffman decode, reverse
    /// quantization, outlier scatter; the PCIe transfer is stamped but not added); the
    /// reconstruction is checked against the field's error bound here and dropped.
    pub fn decompressed(&mut self, ds: Dataset, decoder: DecoderKind) -> Rc<DecompressStats> {
        self.cached(("decompressed", ds, Some(decoder), 0), |ctx| {
            let (field, archive) = (ctx.field(ds), ctx.archive(ds, decoder, REL_EB));
            let out = ctx.codec(decoder).decompress(&archive);
            let out = out.expect("payload matches decoder");
            let bound = archive.config.error_bound;
            let bound = bound.to_absolute(field.range_span() as f64);
            let violation = verify_error_bound(&field.data, &out.data, bound);
            assert_eq!(
                violation,
                None,
                "{} breaks the error bound on {}",
                decoder.name(),
                ds
            );
            out.stats
        })
    }

    /// The dataset's flat stream at [`REL_EB`] made ready for decode-and-write by
    /// [`prepare_decode`]: synchronization for a self-sync decoder, the gap-array counting
    /// phase otherwise, then the output-index prefix sum (its `timings` are those phases).
    pub(crate) fn prepared(&mut self, ds: Dataset, decoder: DecoderKind) -> Rc<PreparedDecode> {
        self.cached(("prepared", ds, Some(decoder), 0), |ctx| {
            let archive = ctx.archive(ds, decoder, REL_EB);
            let prepared = prepare_decode(&ctx.gpu, decoder, &archive.payload);
            prepared.expect("payload matches decoder")
        })
    }

    /// Runs the decode-and-write kernel over every sequence of the prepared stream and
    /// checks what it wrote against the archive's digest.
    pub(crate) fn decode_write(
        &mut self,
        ds: Dataset,
        decoder: DecoderKind,
        strategy: WriteStrategy,
    ) -> KernelStats {
        let archive = self.archive(ds, decoder, REL_EB);
        let prepared = self.prepared(ds, decoder);
        let CompressedPayload::Flat(stream) = &archive.payload else {
            unreachable!("fine-grained decoders consume flat streams")
        };
        let output = DeviceBuffer::<u16>::zeroed(archive.payload.num_symbols());
        let seqs: Vec<u32> = (0..stream.num_seqs() as u32).collect();
        let (gpu, payload) = (&self.gpu, &archive.payload);
        let stats = run_decode_write(gpu, decoder, payload, &prepared, &output, &seqs, strategy);
        let stats = stats.expect("prepared for this payload");
        assert_digest(&archive, &output.into_vec(), "decode-and-write");
        stats
    }

    /// The brute-force search of Table I and Fig. 3: the staged decode-and-write phase of
    /// the optimized self-sync decoder at every buffer size from 1024 to 8192 symbols.
    pub(crate) fn buffer_sweep(&mut self, ds: Dataset) -> Rc<Vec<(u32, KernelStats)>> {
        self.cached(("sweep", ds, None, 0), |ctx| {
            let staged = |buffer_symbols| WriteStrategy::Staged { buffer_symbols };
            let decoder = DecoderKind::OptimizedSelfSync;
            let run = |size| (size, ctx.decode_write(ds, decoder, staged(size)));
            (1024..=8192).step_by(512).map(run).collect()
        })
    }
}

/// Panics unless `symbols` are the stream the archive's encoder stamped a digest of.
pub(crate) fn assert_digest(archive: &Compressed, symbols: &[u16], decoder: &str) {
    let matches = archive.matches_decoded_crc(symbols);
    assert_eq!(
        matches,
        Some(true),
        "{} diverged from the encoded stream",
        decoder
    );
}
