//! Compare all Huffman decoding methods on one dataset, phase by phase.
//!
//! This is a small interactive version of the paper's Tables II and V: it compresses a
//! synthetic CESM-like field (a highly compressible climate variable, where the original
//! fine-grained decoders struggle) and decodes it with every method, printing the
//! per-phase timing modeled on the simulated V100 and the resulting throughput.
//!
//! Run with `cargo run --release --example decoder_comparison [dataset-name]`.

use huffdec::datasets::{dataset_by_name, generate};
use huffdec::sz::{quantize, DEFAULT_ALPHABET_SIZE};
use huffdec::{BackendKind, Codec, DecoderKind};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "CESM".to_string());
    let spec = dataset_by_name(&name).unwrap_or_else(|| panic!("unknown dataset '{}'", name));
    let field = generate(&spec, 1_500_000, 7);

    // Quantization codes as cuSZ would produce them at relative error bound 1e-3.
    let eb_abs = 1e-3 * field.range_span() as f64;
    let q = quantize(&field.data, field.dims, 2.0 * eb_abs, DEFAULT_ALPHABET_SIZE);
    let quant_bytes = q.codes.len() as u64 * 2;
    println!(
        "{}: {} quantization codes ({:.1} MiB), outlier ratio {:.4}%",
        spec.name,
        q.codes.len(),
        quant_bytes as f64 / 1048576.0,
        100.0 * q.outlier_ratio()
    );

    for kind in DecoderKind::all() {
        // One session per method on the simulated V100, named explicitly: the paper's
        // phases exist only there (the CPU backend decodes a flat stream in one walk).
        let codec = Codec::builder()
            .backend(BackendKind::Sim)
            .decoder(kind)
            .build()
            .expect("paper configuration is valid");
        let (payload, _) = codec.encode_symbols(&q.codes);
        let result = codec
            .decode_payload(&payload)
            .expect("payload matches decoder");
        assert_eq!(result.symbols, q.codes, "{:?} decoded incorrectly", kind);

        println!(
            "\n{:<15} (compression ratio {:.2}x)",
            kind.name(),
            payload.compression_ratio()
        );
        for (phase, time) in result.timings.phases() {
            println!("    {:<18} {:>9.3} ms", phase, time.seconds * 1e3);
        }
        println!(
            "    {:<18} {:>9.3} ms  ({:.1} GB/s modeled)",
            "total",
            result.timings.total_seconds() * 1e3,
            result.timings.throughput_gbs(quant_bytes)
        );
    }
}
