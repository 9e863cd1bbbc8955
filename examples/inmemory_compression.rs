//! In-memory compression scenario (GAMESS-style block reuse).
//!
//! The paper motivates fast decompression with in-memory compression: GAMESS computes
//! two-electron integral blocks once, stores them compressed in memory, and decompresses
//! a block every time the simulation consumes it — so decompression throughput directly
//! bounds application performance. This example compresses a set of integral-like blocks
//! once and then "replays" a consumption schedule, comparing the time spent decompressing
//! with the baseline decoder versus the optimized gap-array decoder.
//!
//! Run with `cargo run --release --example inmemory_compression`.

use huffdec::datasets::{dataset_by_name, generate_with_dims, Dims};
use huffdec::{BackendKind, Codec, DecoderKind};

const NUM_BLOCKS: usize = 8;
const BLOCK_ELEMENTS: usize = 250_000;
const CONSUMPTIONS: usize = 24;

fn main() {
    let spec = dataset_by_name("GAMESS").expect("GAMESS is a registered dataset");
    // Two sessions on the same simulated V100, named explicitly because the comparison
    // is the paper's modeled one: one per decoder under comparison.
    let baseline_codec = Codec::builder()
        .backend(BackendKind::Sim)
        .decoder(DecoderKind::CuszBaseline)
        .build()
        .expect("paper configuration is valid");
    let optimized_codec = Codec::builder()
        .backend(BackendKind::Sim)
        .decoder(DecoderKind::OptimizedGapArray)
        .build()
        .expect("paper configuration is valid");

    // Compress each integral block once (this happens a single time per block in GAMESS).
    let mut archives = Vec::new();
    let mut original_bytes = 0u64;
    for block_id in 0..NUM_BLOCKS {
        let field = generate_with_dims(&spec, Dims::D1(BLOCK_ELEMENTS), 1000 + block_id as u64);
        original_bytes += field.bytes();
        let baseline = baseline_codec
            .compress_archive(&field)
            .expect("block is non-empty");
        let optimized = optimized_codec
            .compress_archive(&field)
            .expect("block is non-empty");
        archives.push((baseline, optimized));
    }
    let compressed_bytes: u64 = archives.iter().map(|(_, o)| o.compressed_bytes()).sum();
    println!(
        "{} blocks, {:.1} MiB of integrals held in {:.1} MiB of memory ({:.2}x reduction)",
        NUM_BLOCKS,
        original_bytes as f64 / 1048576.0,
        compressed_bytes as f64 / 1048576.0,
        original_bytes as f64 / compressed_bytes as f64
    );

    // Replay a consumption schedule: every consumption decompresses one block in GPU
    // memory (no PCIe transfer — the in-memory scenario of Fig. 4).
    let mut baseline_seconds = 0.0;
    let mut optimized_seconds = 0.0;
    for i in 0..CONSUMPTIONS {
        let (baseline, optimized) = &archives[i % NUM_BLOCKS];
        baseline_seconds += baseline_codec
            .decompress(baseline)
            .unwrap()
            .stats
            .total_seconds;
        optimized_seconds += optimized_codec
            .decompress(optimized)
            .unwrap()
            .stats
            .total_seconds;
    }

    println!(
        "replaying {} block consumptions:\n  baseline cuSZ decoder: {:.2} ms of modeled decompression\n  optimized gap-array:   {:.2} ms of modeled decompression\n  speedup: {:.2}x",
        CONSUMPTIONS,
        baseline_seconds * 1e3,
        optimized_seconds * 1e3,
        baseline_seconds / optimized_seconds
    );
}
