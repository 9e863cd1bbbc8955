//! The five workloads and what they share: the sample types, the time budget, the
//! failure tally and the deep output checks.

pub mod file;
pub mod serve;

use std::path::PathBuf;

use huffdec::datasets::Field;
use huffdec::sz;
use huffdec::{BackendKind, Codec, Compressed, DecoderKind, ErrorBound, FormatVersion};

use crate::stats;
use crate::trace::Tracer;

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 5] = [
    "file_decompress",
    "file_compress",
    "serve_hot",
    "serve_cold",
    "fleet_mixed",
];

/// What one run hands every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// One of [`NAMES`].
    pub workload: &'static str,
    pub seed: u64,
    /// Scratch directory of this run, inside `benchmark/out/`.
    pub dir: PathBuf,
    /// Closed-loop client threads (= connections) of a serving workload.
    pub clients: usize,
}

/// How long a measuring pass lasts: the untraced pass is boxed by time, the traced
/// pass by a fixed amount of work so that its span file is the same size every run.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    /// Sweeps over the file set (file workloads) or requests per client (serving).
    Work(u64),
}

/// A kind of operation within a workload. The typical latency of a workload is taken
/// over its primary classes only.
#[derive(Debug, Clone, Copy)]
pub struct OpClass {
    pub name: &'static str,
    pub primary: bool,
}

/// One completed, verified operation. Failed operations leave no sample.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub class: usize,
    pub seconds: f64,
    /// Decoded (or, for compression, original) f32 bytes the operation moved.
    pub bytes: u64,
}

/// Operations attempted and failed. A failure is anything a caller would not accept:
/// an error, a refusal, or a result that is not byte-identical to the expected one.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
        ok
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// The outcome of one measuring pass.
#[derive(Debug)]
pub struct Measured {
    pub classes: Vec<OpClass>,
    pub samples: Vec<OpSample>,
    /// Seconds the samples are spread over: the sum of operation times for the
    /// single-caller file workloads, the wall time of the region for serving ones.
    pub wall_s: f64,
    pub tally: Tally,
}

impl Measured {
    pub fn class_ms(&self, class: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.seconds * 1e3)
            .collect()
    }

    /// Latency samples of every primary class, pooled.
    pub fn primary_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| self.classes[s.class].primary)
            .map(|s| s.seconds * 1e3)
            .collect()
    }

    /// The typical operation: the median of each primary class, averaged over the
    /// classes. Classes differ in cost (a GAMESS file decodes twice as fast as a HACC
    /// one), so a pooled median would sit on a class boundary and jump between runs.
    pub fn op_p50_ms(&self) -> f64 {
        let medians: Vec<f64> = (0..self.classes.len())
            .filter(|&c| self.classes[c].primary)
            .map(|c| stats::median(&self.class_ms(c)))
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }

    /// Payload MB (10^6 bytes) per second over every completed operation, slow ones
    /// and secondary classes included — the mean to `op_p50_ms`'s median.
    pub fn throughput_mbps(&self) -> f64 {
        let bytes: u64 = self.samples.iter().map(|s| s.bytes).sum();
        bytes as f64 / 1e6 / self.wall_s.max(1e-9)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s.max(1e-9)
    }
}

/// Counts read from the serving layers after a pass, through
/// `ServerHandle::state().metrics_snapshot()` and the router's exposition. All zero
/// for the file workloads, where no serving layer runs.
#[derive(Debug, Clone, Default)]
pub struct ServeCounts {
    pub hit_ratio: f64,
    pub decodes: u64,
    pub waves: u64,
    pub fields_per_wave: f64,
    pub coalesced: u64,
    pub shed: u64,
    pub evictions: u64,
    pub decode_busy_share: f64,
    pub shard_imbalance: f64,
    pub router_retries: u64,
}

/// One workload: set up (everything counted in `setup_s`), measure, check, tear down.
pub trait Workload: Sized {
    fn setup(ctx: &Ctx) -> Self;

    /// Runs operations until the budget is spent. Every output is checked against the
    /// expected bytes right after its latency is taken, outside the timed interval.
    fn measure(&mut self, ctx: &Ctx, budget: Budget, tracer: &Tracer) -> Measured;

    /// The deep checks that are too slow to run per operation: reference
    /// reconstruction, error bound, decoded CRC, layer counts within their limits.
    fn verify(&mut self, tally: &mut Tally);

    /// Original bytes over archive bytes of the workload's inputs.
    fn compression_ratio(&self) -> f64;

    /// Serving-layer counts accumulated since set-up.
    fn serve_counts(&self) -> ServeCounts {
        ServeCounts::default()
    }

    fn teardown(self);
}

/// A session on `CpuBackend`, set explicitly: the benchmark never reads `HFZ_BACKEND`.
pub fn cpu_codec(decoder: DecoderKind, format: FormatVersion, bound: ErrorBound) -> Codec {
    Codec::builder()
        .backend(BackendKind::Cpu)
        .decoder(decoder)
        .format(format)
        .error_bound(bound)
        .build()
        .expect("the benchmark's codec configurations are valid")
}

/// The session dense fields are compressed with: HFZ1, the paper's relative bound.
pub fn dense_codec(decoder: DecoderKind) -> Codec {
    cpu_codec(decoder, FormatVersion::V1, ErrorBound::Relative(1e-3))
}

/// The session sparse walk fields are compressed with: HFZ2 with automatic hybrid
/// selection left at its default, and the absolute bound that makes a flat step a
/// centre-bin code.
pub fn sparse_codec() -> Codec {
    cpu_codec(
        DecoderKind::OptimizedGapArray,
        FormatVersion::V2,
        ErrorBound::Absolute(0.5),
    )
}

pub fn f32_le_bytes(data: &[f32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

pub fn u16_le_bytes(symbols: &[u16]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(symbols.len() * 2);
    for s in symbols {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    bytes
}

/// Checks one decompressed field (`decoded_le`, little-endian f32 bytes) against
/// everything that does not depend on the Huffman stage under test: the reference
/// reconstruction straight from the quantizer, the error bound against the original,
/// and the decoded codes against both the quantizer's codes and the encoder's CRC.
pub fn check_roundtrip(
    tally: &mut Tally,
    codec: &Codec,
    field: &Field,
    compressed: &Compressed,
    decoded_le: &[u8],
    label: &str,
) {
    let quantized = sz::quantize(
        &field.data,
        field.dims,
        compressed.step,
        compressed.alphabet_size(),
    );
    let reference = f32_le_bytes(&sz::dequantize(&quantized));
    tally.check(reference == decoded_le, || {
        format!(
            "{}: decompressed data differs from the reference reconstruction",
            label
        )
    });
    let decoded: Vec<f32> = decoded_le
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let in_bound = decoded.len() == field.data.len()
        && sz::verify_error_bound(&field.data, &decoded, compressed.step / 2.0).is_none();
    tally.check(in_bound, || format!("{}: error bound violated", label));
    let codes = codec.decode_codes(compressed).map(|r| r.symbols);
    let codes_ok = match &codes {
        Ok(symbols) => {
            *symbols == quantized.codes && compressed.matches_decoded_crc(symbols) == Some(true)
        }
        Err(_) => false,
    };
    tally.check(codes_ok, || {
        format!(
            "{}: decoded codes differ from the encoder's codes or its CRC",
            label
        )
    });
}
