//! Quickstart: compress a synthetic scientific field with the cuSZ-style pipeline and
//! decompress it with the paper's optimized gap-array Huffman decoder — all through
//! one `Codec` session, the workspace's public API.
//!
//! Run with `cargo run --release --example quickstart`.

use huffdec::datasets::{dataset_by_name, generate};
use huffdec::sz::verify_error_bound;
use huffdec::{Codec, DecoderKind, ErrorBound};

fn main() {
    // 1. A synthetic stand-in for one HACC field (~2 million particles).
    let spec = dataset_by_name("HACC").expect("HACC is a registered dataset");
    let field = generate(&spec, 2_000_000, 42);
    println!(
        "field: {} ({} elements, {:.1} MiB)",
        field.name,
        field.len(),
        field.bytes() as f64 / 1048576.0
    );

    // 2. One codec session on the default backend (the host CPU; `HFZ_BACKEND=sim`
    //    picks the simulated V100), the paper's relative error bound of 1e-3,
    //    targeting the optimized gap-array decoder.
    let codec = Codec::builder()
        .decoder(DecoderKind::OptimizedGapArray)
        .error_bound(ErrorBound::Relative(1e-3))
        .build()
        .expect("paper configuration is valid");
    let compressed = codec.compress(&field).expect("field is non-empty").archive;
    println!(
        "compressed: {:.2} MiB (overall ratio {:.2}x, Huffman ratio {:.2}x, {} outliers)",
        compressed.compressed_bytes() as f64 / 1048576.0,
        compressed.overall_compression_ratio(),
        compressed.huffman_compression_ratio(),
        compressed.outliers.len(),
    );

    // 3. Decompress through the same session. The output is bit-exact on either
    //    backend; the timing breakdown is measured on the CPU and modeled on the
    //    simulator, where its phases are the paper's Table II structure.
    let decompressed = codec
        .decompress(&compressed)
        .expect("payload matches decoder");

    let eb_abs = 1e-3 * field.range_span() as f64;
    assert!(
        verify_error_bound(&field.data, &decompressed.data, eb_abs).is_none(),
        "error bound violated"
    );
    println!(
        "error bound 1e-3 (abs {:.3e}) verified on all {} elements",
        eb_abs,
        field.len()
    );

    let clock = if codec.backend().is_modeled() {
        "modeled"
    } else {
        "measured"
    };
    println!("\n{} decompression breakdown:", clock);
    for (name, phase) in decompressed.stats.huffman.phases() {
        println!("  {:<18} {:>10.3} ms", name, phase.seconds * 1e3);
    }
    println!(
        "  {:<18} {:>10.3} ms",
        "lorenzo reconstruct",
        decompressed.stats.reconstruct_seconds * 1e3
    );
    println!(
        "  total {:.3} ms -> {:.1} GB/s of uncompressed data",
        decompressed.stats.total_seconds * 1e3,
        decompressed.stats.overall_throughput_gbs(field.bytes())
    );
}
