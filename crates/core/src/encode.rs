//! The parallel encode.
//!
//! The host encoder ([`crate::decoder::compress_for`]) walks the symbol stream
//! sequentially. cuSZ's `HuffmanCodec` and the chunked encoder of "Revisiting Huffman
//! Coding" (Tian et al.) instead give every GPU thread a chunk of symbols to encode
//! serially, and [`compress_on`] does the same on either backend: the encode walk
//! (`encode/walk.rs`), three launches over blocks of 65,536 symbols with one thread per
//! 4,096-symbol chunk, and a host step after each. It reports four phases:
//!
//! 1. **histogram** — the count launch (each block counts its symbols into a
//!    shared-memory table) and the host sum of the blocks' tables;
//! 2. **tree + codebook** — canonical codebook construction from the frequencies (the
//!    alphabet is tiny, so this phase is launch-overhead dominated; its cost is charged
//!    analytically);
//! 3. **offsets** — the chunk-bits launch (each thread sums its chunk's codeword lengths)
//!    and the host scan over the chunk totals, which gives every chunk its first bit;
//! 4. **scatter** — the pack launch (each block writes its codewords from its first bit,
//!    and the gap array's entries from the codeword ends it walks past) and the host OR
//!    of the units two blocks share.
//!
//! A launch costs what its kernel's cost section charges on the simulator and its wall
//! clock on the CPU backend; a host step costs the streaming pass a GPU would run in its
//! place, or its wall clock. A caller that counted the symbols while producing them
//! ([`compress_counted_on`]; `sz`'s quantize pass does) saves the count launch.
//!
//! [`compress_on`] produces payloads **bit-identical** to the host encoder for all three
//! stream formats (chunked, flat, flat + gap array); the equivalence suite in
//! `tests/encoder_equivalence.rs` enforces this on every paper dataset, and this
//! module's unit tests hold the walk to the host encoder across block edges.

use gpu_sim::{Backend, GpuConfig, PhaseTime};
use huffman::{Codebook, FrequencyTable};

use crate::decoder::{compress_for, CompressedPayload, DecoderKind};
use crate::hybrid::compress_hybrid_on;

mod walk;

/// Per-phase timing breakdown of a parallel encode run (the encoder-side counterpart of
/// [`crate::phases::PhaseBreakdown`]).
#[derive(Debug, Clone, Default)]
pub struct EncodePhaseBreakdown {
    /// The count launch and the host sum of its per-block tables.
    pub histogram: PhaseTime,
    /// Huffman tree and canonical codebook construction.
    pub codebook: PhaseTime,
    /// The chunk-bits launch and the host scan over the chunk totals.
    pub offsets: PhaseTime,
    /// The pack launch, gap array included, and the host OR of the units two blocks
    /// share.
    pub scatter: PhaseTime,
}

impl EncodePhaseBreakdown {
    /// Total encode time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.phases().iter().map(|(_, p)| p.seconds).sum()
    }

    /// Encoding throughput in GB/s relative to `useful_bytes` (conventionally the
    /// quantization-code bytes, 2 per symbol, matching the decoder tables).
    pub fn throughput_gbs(&self, useful_bytes: u64) -> f64 {
        crate::phases::throughput_gbs(useful_bytes, self.total_seconds())
    }

    /// The phases in execution order with their display names.
    pub fn phases(&self) -> [(&'static str, &PhaseTime); 4] {
        [
            ("histogram", &self.histogram),
            ("tree+codebook", &self.codebook),
            ("offset prefix-sum", &self.offsets),
            ("scatter", &self.scatter),
        ]
    }

    /// Total number of kernel launches across all phases.
    pub fn kernel_launches(&self) -> usize {
        self.phases().iter().map(|(_, p)| p.kernels.len()).sum()
    }
}

/// Analytic cost of the tree/codebook construction phase. The alphabet is at most 65536
/// symbols (1024 in the cuSZ default), so the GPU codebook construction of "Revisiting
/// Huffman Coding" is dominated by a sort of the frequencies and two short tree passes;
/// the model charges `a·log2(a)` work plus two kernel launches.
fn codebook_build_time(cfg: &GpuConfig, alphabet_size: usize) -> f64 {
    let a = alphabet_size.max(2) as f64;
    let cycles = a * a.log2() * 8.0 / cfg.issue_slots_per_sm as f64;
    cfg.streaming_pass_seconds(0.0, cycles, 2)
}

/// The canonical codebook from the frequencies (identical to the host path, which counts
/// the same frequencies from the same symbols) and its phase: the sim charges the
/// analytic build-time model, a real backend the measured construction.
fn build_codebook(
    gpu: &dyn Backend,
    counts: Vec<u64>,
    alphabet_size: usize,
) -> (Codebook, PhaseTime) {
    let clock = std::time::Instant::now();
    let codebook = Codebook::from_frequencies(&FrequencyTable::from_counts(counts));
    let mut phase = PhaseTime::empty();
    phase.push_seconds(gpu.charge_seconds(
        codebook_build_time(gpu.config(), alphabet_size),
        clock.elapsed().as_secs_f64(),
    ));
    (codebook, phase)
}

/// Encodes `symbols` on `gpu` in the format `kind` consumes with the encode walk,
/// returning the payload and the per-phase timing breakdown: a non-empty encode is three
/// launches, the count, chunk-bits and pack, on either backend.
///
/// The payload is bit-identical to the host encoder's
/// ([`crate::decoder::compress_for`]): same units, same chunk metadata, same gap array,
/// same codebook. [`DecoderKind::RleHybrid`] runs [`compress_hybrid_on`], whose
/// substreams each take this path.
///
/// # Panics
/// Panics if a symbol is outside the alphabet (the host encoder panics identically).
pub fn compress_on(
    gpu: &dyn Backend,
    kind: DecoderKind,
    symbols: &[u16],
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    encode_on(gpu, kind, symbols, None, alphabet_size)
}

/// [`compress_on`] for a caller that has already counted `symbols`: `counts[s]` is the
/// number of occurrences of symbol `s`, one entry per alphabet symbol. The payload is
/// the same. The encode walk skips its count launch, so a non-empty encode is two
/// launches and the histogram phase holds no kernel, only the check of `counts`.
/// [`DecoderKind::RleHybrid`] checks `counts` and runs [`compress_hybrid_on`], whose
/// substreams count their own symbols.
///
/// # Panics
/// As [`compress_on`], and if `counts` does not have `alphabet_size` entries summing to
/// the symbol count.
pub fn compress_counted_on(
    gpu: &dyn Backend,
    kind: DecoderKind,
    symbols: &[u16],
    counts: Vec<u64>,
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    encode_on(gpu, kind, symbols, Some(counts), alphabet_size)
}

fn encode_on(
    gpu: &dyn Backend,
    kind: DecoderKind,
    symbols: &[u16],
    counts: Option<Vec<u64>>,
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    if kind.is_hybrid() {
        if let Some(counts) = &counts {
            check_counts(counts, alphabet_size, symbols.len());
        }
        return compress_hybrid_on(gpu, symbols, alphabet_size);
    }
    if symbols.is_empty() {
        // Nothing to launch over: the host encoder's payload, at no cost.
        return (
            compress_for(kind, symbols, alphabet_size),
            EncodePhaseBreakdown::default(),
        );
    }
    walk::compress_walk(gpu, kind, symbols, counts, alphabet_size)
}

/// Panics unless `counts` holds one count per alphabet symbol, summing to `n`.
fn check_counts(counts: &[u64], alphabet_size: usize, n: usize) {
    assert!(
        counts.len() == alphabet_size && counts.iter().sum::<u64>() == n as u64,
        "the counts do not cover the {} symbols",
        n
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::decode;
    use crate::format::{EncodedStream, StreamGeometry};
    use crate::testutil::{gpu, quant_symbols};
    use gpu_sim::{cost, CpuBackend, Gpu, KernelStats, MemStats};
    use huffman::DEFAULT_CHUNK_SYMBOLS;

    /// Asserts the two payloads are bit-identical, via `CompressedPayload`'s bit-level
    /// equality (units, metadata, codebook codewords, gap array).
    fn assert_payloads_identical(a: &CompressedPayload, b: &CompressedPayload) {
        assert_eq!(a, b, "payloads are not bit-identical");
    }

    #[test]
    fn parallel_encode_is_bit_identical_to_serial() {
        let symbols = quant_symbols(70_000, 7);
        let g = gpu();
        for kind in DecoderKind::all() {
            let serial = compress_for(kind, &symbols, 1024);
            let (parallel, phases) = compress_on(&g, kind, &symbols, 1024);
            assert_payloads_identical(&parallel, &serial);
            assert!(
                phases.total_seconds() > 0.0,
                "{:?} has no encode time",
                kind
            );
        }
    }

    #[test]
    fn parallel_encode_roundtrips_through_every_decoder() {
        let symbols = quant_symbols(40_000, 6);
        let g = gpu();
        for kind in DecoderKind::all() {
            let (payload, _) = compress_on(&g, kind, &symbols, 1024);
            let result = decode(&g, kind, &payload).expect("matching payload");
            assert_eq!(result.symbols, symbols, "{:?} roundtrip mismatch", kind);
        }
    }

    #[test]
    fn empty_symbol_stream_matches_serial() {
        let g = gpu();
        for kind in DecoderKind::all() {
            let serial = compress_for(kind, &[], 1024);
            let (parallel, phases) = compress_on(&g, kind, &[], 1024);
            assert_payloads_identical(&parallel, &serial);
            assert_eq!(phases.total_seconds(), 0.0);
        }
    }

    #[test]
    fn single_distinct_symbol_matches_serial() {
        let symbols = vec![512u16; 10_000];
        let g = gpu();
        for kind in DecoderKind::all() {
            let serial = compress_for(kind, &symbols, 1024);
            let (parallel, _) = compress_on(&g, kind, &symbols, 1024);
            assert_payloads_identical(&parallel, &serial);
        }
    }

    #[test]
    fn chunked_encode_matches_across_ragged_final_chunk() {
        // More than one chunk with a ragged tail (DEFAULT_CHUNK_SYMBOLS = 4096).
        let symbols = quant_symbols(DEFAULT_CHUNK_SYMBOLS * 3 + 777, 6);
        let g = gpu();
        let serial = compress_for(DecoderKind::CuszBaseline, &symbols, 1024);
        let (parallel, _) = compress_on(&g, DecoderKind::CuszBaseline, &symbols, 1024);
        assert_payloads_identical(&parallel, &serial);
    }

    /// Geometric frequencies over the whole 1,024-symbol alphabet — symbol `i` occurs
    /// `max(1, 2^16 >> i)` times, so the ~1,000 rarest get codewords longer than 16 bits —
    /// with long codewords as the last two and first two symbols of every walk block
    /// while they last, so the unit two blocks share holds pieces of long codewords.
    fn walk_edge_symbols() -> Vec<u16> {
        let b = walk::BLOCK_SYMBOLS;
        let counts: Vec<u64> = (0..1024u64).map(|s| (1 << 16) >> s.min(16)).collect();
        let codebook = Codebook::from_frequencies(&FrequencyTable::from_counts(counts.clone()));
        let (mut long, short): (Vec<u16>, Vec<u16>) = (0..1024u16)
            .flat_map(|s| std::iter::repeat(s).take(counts[s as usize] as usize))
            .partition(|&s| codebook.codeword(s).len > 16);
        let (mut symbols, mut straddles) = (Vec::new(), 0);
        let near_edge = |i: usize| i % b >= b - 2 || (i >= b && i % b < 2);
        for s in short {
            while near_edge(symbols.len()) {
                let Some(l) = long.pop() else { break };
                symbols.push(l);
                straddles += 1;
            }
            symbols.push(s);
        }
        assert!(
            straddles >= 4,
            "only {} long codewords placed at an edge",
            straddles
        );
        symbols.extend(long);
        symbols
    }

    /// The first bit of every walk block's codewords in the flat stream.
    fn walk_block_starts(symbols: &[u16]) -> Vec<u64> {
        let codebook = Codebook::from_symbols(symbols, 1024);
        let mut bit = 0;
        symbols
            .chunks(walk::BLOCK_SYMBOLS)
            .map(|block| {
                let start = bit;
                bit += block
                    .iter()
                    .map(|&s| codebook.codeword(s).len as u64)
                    .sum::<u64>();
                start
            })
            .collect()
    }

    fn cpu(threads: usize) -> CpuBackend {
        CpuBackend::with_host_threads(GpuConfig::test_tiny(), threads)
    }

    /// Asserts that the encode walk on both backends encodes `symbols` exactly as the
    /// host encoder does, for every stream format, in three launches.
    fn assert_walk_matches(symbols: &[u16]) {
        let backends: [&dyn Backend; 2] = [&gpu(), &cpu(3)];
        for kind in DecoderKind::all() {
            let host = compress_for(kind, symbols, 1024);
            for backend in backends {
                let (walked, phases) = compress_on(backend, kind, symbols, 1024);
                let context = format!(
                    "{:?} on {}, {} symbols",
                    kind,
                    backend.kind(),
                    symbols.len()
                );
                assert!(walked == host, "the walk diverged: {}", context);
                assert_eq!(phases.kernel_launches(), 3, "{}", context);
            }
        }
    }

    #[test]
    fn walk_equals_host_and_kernels_across_block_edges() {
        let b = walk::BLOCK_SYMBOLS;
        for n in [1, b - 1, b, b + 1, 3 * b + 777, 1_000_003] {
            let symbols = quant_symbols(n, 7);
            if n > b {
                assert!(walk_block_starts(&symbols)[1] % 32 != 0, "{}", n);
            }
            assert_walk_matches(&symbols);
        }
        // One distinct symbol: every codeword is one bit and every block starts aligned.
        assert_walk_matches(&vec![512u16; 3 * b + 777]);
    }

    #[test]
    fn walk_places_long_codewords_across_block_edges() {
        let symbols = walk_edge_symbols();
        let starts = walk_block_starts(&symbols);
        assert!(starts.len() >= 3 && starts[1..].iter().any(|s| s % 32 != 0));
        assert_walk_matches(&symbols);
    }

    /// Block 0's last codeword holds a subsequence boundary one bit in, so its gap comes
    /// from the block's end; block 2's first codeword starts on a boundary, so block 1
    /// writes a gap of 0 for it.
    #[test]
    fn walk_writes_the_gaps_of_boundaries_at_block_edges() {
        let b = walk::BLOCK_SYMBOLS;
        let mut symbols = vec![512u16; 3 * b + 777];
        // 129 two-bit codewords in block 0, the last one its last symbol; 127 in block 1.
        for i in 0..128 {
            symbols[i * 7] = 513 + (i % 2) as u16;
        }
        symbols[b - 1] = 514;
        for i in 0..127 {
            symbols[b + i * 5] = 513 + (i % 2) as u16;
        }
        let lengths = Codebook::from_symbols(&symbols, 1024);
        let lengths: Vec<u8> = (512..515).map(|s| lengths.codeword(s).len).collect();
        assert_eq!(lengths, [1, 2, 2]);
        let subseq_bits = StreamGeometry::default().subseq_bits();
        let starts = walk_block_starts(&symbols);
        let (b1, b2) = (b as u64 + 129, 2 * b as u64 + 256);
        assert_eq!(starts[1..3], [b1, b2]);
        assert_eq!([(b1 - 1) % subseq_bits, b2 % subseq_bits], [0, 0]);
        assert_walk_matches(&symbols);
    }

    /// Asserts that an encode on `backend` times all four phases and is one launch in
    /// each phase but the codebook's, returning its breakdown.
    fn assert_three_launches_in_four_phases(
        backend: &dyn Backend,
        symbols: &[u16],
    ) -> EncodePhaseBreakdown {
        let (_, phases) = compress_on(backend, DecoderKind::OptimizedGapArray, symbols, 1024);
        for (name, p) in phases.phases() {
            assert!(p.seconds > 0.0, "phase '{}' has no time", name);
        }
        let launches = [&phases.histogram, &phases.offsets, &phases.scatter];
        assert!(launches.iter().all(|p| p.kernels.len() == 1));
        assert!(phases.codebook.kernels.is_empty());
        phases
    }

    #[test]
    fn phase_breakdown_is_fully_populated() {
        let symbols = quant_symbols(30_000, 5);
        let phases = assert_three_launches_in_four_phases(&gpu(), &symbols);
        assert_eq!(phases.kernel_launches(), 3);
        assert!(phases.throughput_gbs(symbols.len() as u64 * 2) > 0.0);
    }

    #[test]
    fn a_cpu_encode_is_three_launches_in_four_phases() {
        let symbols = quant_symbols(30_000, 5);
        assert_three_launches_in_four_phases(&cpu(2), &symbols);
    }

    /// The count of every symbol of `symbols` over a 1,024-symbol alphabet.
    fn counts_of(symbols: &[u16]) -> Vec<u64> {
        let mut counts = vec![0u64; 1024];
        for &s in symbols {
            counts[s as usize] += 1;
        }
        counts
    }

    /// Asserts that a counted encode on `backend` gives the host encoder's payload for
    /// every stream format in two launches, the count launch skipped.
    fn assert_counted_encode_is_two_launches(backend: &dyn Backend) {
        let symbols = quant_symbols(3 * walk::BLOCK_SYMBOLS + 777, 7);
        for kind in DecoderKind::all() {
            let host = compress_for(kind, &symbols, 1024);
            let (payload, phases) =
                compress_counted_on(backend, kind, &symbols, counts_of(&symbols), 1024);
            assert!(payload == host, "{:?}", kind);
            assert_eq!(phases.kernel_launches(), 2, "{:?}", kind);
            assert!(phases.histogram.kernels.is_empty(), "{:?}", kind);
            assert_eq!(phases.offsets.kernels.len(), 1, "{:?}", kind);
            assert_eq!(phases.scatter.kernels.len(), 1, "{:?}", kind);
        }
    }

    #[test]
    fn a_counted_cpu_encode_is_two_launches_with_the_host_payload() {
        assert_counted_encode_is_two_launches(&cpu(2));
    }

    /// On the simulator a counted encode skips the count launch and models the rest of
    /// the encode exactly as [`compress_on`] does.
    #[test]
    fn a_counted_sim_encode_models_what_compress_on_models() {
        assert_counted_encode_is_two_launches(&gpu());
        let symbols = quant_symbols(70_000, 7);
        for kind in DecoderKind::all() {
            let (plain, phases) = compress_on(&gpu(), kind, &symbols, 1024);
            let (counted, counted_phases) =
                compress_counted_on(&gpu(), kind, &symbols, counts_of(&symbols), 1024);
            assert!(counted == plain, "{:?}", kind);
            // `Debug` prints every f64 in its shortest round-trip form, so equal text is
            // equal bits: every phase's seconds and every kernel's modeled stats.
            for (p, q) in [
                (&counted_phases.codebook, &phases.codebook),
                (&counted_phases.offsets, &phases.offsets),
                (&counted_phases.scatter, &phases.scatter),
            ] {
                assert_eq!(format!("{:?}", p), format!("{:?}", q), "{:?}", kind);
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn counts_that_miss_a_symbol_are_refused_on_the_walk() {
        let symbols = quant_symbols(10_000, 7);
        let mut counts = counts_of(&symbols);
        counts[512] -= 1;
        let _ = compress_counted_on(
            &cpu(2),
            DecoderKind::OptimizedSelfSync,
            &symbols,
            counts,
            1024,
        );
    }

    /// The count, chunk-bits and pack launches of an encode of `symbols` on `backend`.
    fn launches(
        backend: &dyn Backend,
        kind: DecoderKind,
        symbols: &[u16],
    ) -> (CompressedPayload, [KernelStats; 3]) {
        let (payload, phases) = compress_on(backend, kind, symbols, 1024);
        let [count, chunk_bits, pack] = [phases.histogram, phases.offsets, phases.scatter]
            .map(|mut p| p.kernels.pop().expect("one launch per phase"));
        (payload, [count, chunk_bits, pack])
    }

    fn v100() -> Gpu {
        Gpu::with_host_threads(GpuConfig::v100(), 2)
    }

    /// Blocks of 65,536 symbols, the last one short, so a lane's chunk is 4,096 symbols
    /// in all but the last block.
    const CHARGED_SYMBOLS: usize = 3 * walk::BLOCK_SYMBOLS + 777;

    #[test]
    fn the_pack_reads_two_bytes_a_symbol_and_stores_its_units_and_gaps() {
        let symbols = quant_symbols(CHARGED_SYMBOLS, 7);
        let n = symbols.len() as u64;
        let (flat, [.., pack]) = launches(&v100(), DecoderKind::OptimizedSelfSync, &symbols);
        let (gapped, [.., gapped_pack]) =
            launches(&v100(), DecoderKind::OptimizedGapArray, &symbols);
        let CompressedPayload::Flat(stream) = flat else {
            unreachable!("a flat stream")
        };
        assert_eq!(pack.mem.useful_load_bytes, 2 * n);
        assert!(pack.mem.useful_store_bytes >= 4 * stream.units.len() as u64);
        // The gap array adds one byte per subsequence boundary past the first.
        let CompressedPayload::Flat(EncodedStream {
            gap_array: Some(gaps),
            ..
        }) = gapped
        else {
            unreachable!("a flat stream with a gap array")
        };
        let gap_bytes = gapped_pack.mem.useful_store_bytes - pack.mem.useful_store_bytes;
        assert_eq!(gap_bytes, gaps.gaps.len() as u64 - 1);
    }

    #[test]
    fn the_count_and_chunk_bits_read_each_symbol_and_store_one_row_and_one_total() {
        let symbols = quant_symbols(CHARGED_SYMBOLS, 7);
        let n = symbols.len() as u64;
        let [count, chunk_bits, _] = launches(&v100(), DecoderKind::OptimizedSelfSync, &symbols).1;
        assert!(count.mem.shared_accesses > 0);
        for k in [&count, &chunk_bits] {
            assert_eq!(k.mem.useful_load_bytes, 2 * n, "{}", k.name);
        }
        let grid = n.div_ceil(walk::BLOCK_SYMBOLS as u64);
        assert_eq!(count.mem.useful_store_bytes, grid * 1024 * 8);
        assert_eq!(
            chunk_bits.mem.useful_store_bytes,
            n.div_ceil(DEFAULT_CHUNK_SYMBOLS as u64) * 8
        );
    }

    /// A lane walks its chunk one symbol a step, so every launch issues at least a cycle
    /// per lock-step step beyond its memory and shared-memory charges.
    #[test]
    fn every_launch_issues_a_cycle_per_step_of_its_lanes() {
        let symbols = quant_symbols(CHARGED_SYMBOLS, 7);
        let steps = (3 * DEFAULT_CHUNK_SYMBOLS + 777) as f64;
        for k in launches(&v100(), DecoderKind::OptimizedGapArray, &symbols).1 {
            let sectors = (k.mem.load_sectors + k.mem.store_sectors) as f64;
            let walk = k.total_block_cycles
                - cost::GLOBAL_SECTOR_ISSUE * sectors
                - cost::SHARED_ACCESS * k.mem.shared_accesses as f64;
            assert!(
                walk >= steps,
                "{}: {} cycles for {} steps",
                k.name,
                walk,
                steps
            );
        }
    }

    #[test]
    fn modeled_encode_seconds_grow_with_the_symbols() {
        let n = 100 * walk::BLOCK_SYMBOLS;
        let seconds = |n: usize| {
            let symbols = quant_symbols(n, 7);
            let (_, phases) = compress_on(&v100(), DecoderKind::OptimizedGapArray, &symbols, 1024);
            phases.total_seconds()
        };
        let ratio = seconds(2 * n) / seconds(n);
        assert!((1.6..=2.4).contains(&ratio), "2n / n = {}", ratio);
    }

    #[test]
    fn the_launches_charge_nothing_on_the_cpu_backend() {
        let symbols = quant_symbols(CHARGED_SYMBOLS, 7);
        for k in launches(&cpu(2), DecoderKind::OptimizedGapArray, &symbols).1 {
            assert_eq!(k.mem, MemStats::default(), "{}", k.name);
            assert_eq!(k.total_block_cycles, 0.0, "{}", k.name);
        }
    }

    #[test]
    fn serial_and_parallel_host_execution_agree() {
        // The walk must not depend on block execution order, and must place a long
        // codeword across a walk-block edge.
        let tiny = GpuConfig::test_tiny;
        let backends: [&dyn Backend; 4] = [
            &Gpu::with_host_threads(tiny(), 1),
            &Gpu::with_host_threads(tiny(), 8),
            &cpu(1),
            &cpu(8),
        ];
        for symbols in [quant_symbols(50_000, 7), walk_edge_symbols()] {
            for kind in DecoderKind::all() {
                let host = compress_for(kind, &symbols, 1024);
                for backend in backends {
                    let (payload, _) = compress_on(backend, kind, &symbols, 1024);
                    assert_payloads_identical(&payload, &host);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_alphabet_symbol_panics_like_serial() {
        let _ = compress_on(&gpu(), DecoderKind::OptimizedSelfSync, &[5000u16], 1024);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_alphabet_symbol_panics_on_the_walk() {
        let _ = compress_on(&cpu(2), DecoderKind::OptimizedSelfSync, &[5000u16], 1024);
    }
}
