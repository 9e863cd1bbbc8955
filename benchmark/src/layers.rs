//! Per-layer probes: each crate's public functions, timed from outside with fixed
//! operation counts. A layer is a crate. Every probe is a span in the traced run; the
//! reported value is the median over its repetitions. Values the API itself returns
//! on `CpuBackend` (phase breakdowns) are reported beside the measured ones and say so
//! in their description (`reported`).
//!
//! The probes are the same for every workload: the traced run of a workload is its
//! own traced pass plus this suite, so that one span file shows both the request path
//! and what each layer under it costs on this machine.

use std::process::Command;
use std::time::Instant;

use huffdec::container;
use huffdec::core_decoders::{
    self as core, compress_for, crc32, decode, decode_batch, decode_range, prepare_decode,
    CompressedPayload, DecoderKind, EncodePhaseBreakdown, PhaseBreakdown,
};
use huffdec::datasets::Field;
use huffdec::gpu_sim::primitives::{device_exclusive_prefix_sum, device_histogram};
use huffdec::gpu_sim::{BlockContext, BlockKernel, GpuConfig, LaunchConfig, LaunchDevice};
use huffdec::huffman::{decode_flat, encode_flat, Codebook, FrequencyTable};
use huffdec::router::{field_key, Placement, Router};
use huffdec::serve::{CacheKey, Connection, DecodedLru, GetKind, ListenAddr, Response};
use huffdec::sz;
use huffdec::{CpuBackend, ErrorBound};
use huffdec_hybrid::{compress_hybrid, compress_hybrid_on, decode_hybrid};

use crate::inputs::{self, Rng, BIG_ELEMENTS, SMALL_ELEMENTS, WALK_ZERO_PCT};
use crate::report::Metric;
use crate::stats;
use crate::trace::{Recorder, Tracer};
use crate::workloads::serve::{
    batch_request, get_request, spawn_daemon, stop_daemon, unix_addr, ServedSet, ARCHIVE,
    RANGE_ELEMENTS,
};
use crate::workloads::{dense_codec, f32_le_bytes, Ctx};

/// Every per-layer metric the probes report: name, unit, whether higher is better, and
/// what it times. `BENCHMARK.json` lists the same names; the arrow in each description
/// names the end-to-end metric (and workload) the layer should move.
pub const LAYER_METRICS: &[(&str, &str, bool, &str)] = &[
    ("datasets.generate_ms", "ms", false, "datasets::generate, HACC 4 M -> setup_s @ all"),
    ("sz.quantize_ms", "ms", false, "sz::quantize, HACC 4 M -> throughput_mbps @ file_compress"),
    ("sz.dequantize_ms", "ms", false, "sz::dequantize, HACC 4 M -> throughput_mbps @ file_decompress, op_p50_ms @ serve_cold"),
    ("huffman.codebook_build_us", "us", false, "Codebook::from_frequencies, 1024 bins -> throughput_mbps @ file_compress"),
    ("huffman.encode_flat_msym_s", "Msym/s", true, "huffman::encode_flat, sequential reference -> throughput_mbps @ file_compress"),
    ("huffman.decode_flat_msym_s", "Msym/s", true, "huffman::decode_flat, the decode_one floor every decoder shares -> throughput_mbps @ file_decompress"),
    ("backend.launch_us", "us", false, "one empty one-block kernel launch on CpuBackend -> op_p50_ms @ serve_cold"),
    ("backend.scan_ms", "ms", false, "device_exclusive_prefix_sum, 4 M items -> throughput_mbps @ file_compress"),
    ("backend.histogram_ms", "ms", false, "device_histogram, 4 M keys, 1024 bins -> throughput_mbps @ file_compress"),
    ("backend.kernel_launches", "count", false, "kernel launches of one gap-array decode, HACC 4 M (exact)"),
    ("core.decode_ms.gap_array", "ms", false, "core decode, opt. gap-array, HACC 4 M -> throughput_mbps @ file_decompress"),
    ("core.decode_ms.self_sync", "ms", false, "core decode, opt. self-sync, HACC 4 M -> throughput_mbps @ file_decompress"),
    ("core.decode_ms.orig_self_sync", "ms", false, "core decode, ori. self-sync, HACC 4 M (guard only)"),
    ("core.decode_ms.baseline", "ms", false, "core decode, baseline cuSZ, HACC 4 M (guard only)"),
    ("core.decode_small_ms.gap_array", "ms", false, "core decode, opt. gap-array, 65,536 -> op_p50_ms @ serve_cold"),
    ("core.decode_small_ms.self_sync", "ms", false, "core decode, opt. self-sync, 65,536 -> op_p50_ms @ serve_cold"),
    ("core.phase_ms.gap_array.output_index", "ms", false, "reported by the API, HACC 4 M"),
    ("core.phase_ms.gap_array.tune", "ms", false, "reported by the API, HACC 4 M"),
    ("core.phase_ms.gap_array.decode_write", "ms", false, "reported by the API, HACC 4 M"),
    ("core.phase_ms.self_sync.intra_sync", "ms", false, "reported by the API, HACC 4 M"),
    ("core.phase_ms.self_sync.inter_sync", "ms", false, "reported by the API, HACC 4 M"),
    ("core.phase_ms.self_sync.output_index", "ms", false, "reported by the API, HACC 4 M"),
    ("core.phase_ms.self_sync.tune", "ms", false, "reported by the API, HACC 4 M"),
    ("core.phase_ms.self_sync.decode_write", "ms", false, "reported by the API, HACC 4 M"),
    ("core.encode_ms", "ms", false, "core compress_on, gap-array stream, HACC 4 M -> throughput_mbps @ file_compress"),
    ("core.encode_phase_ms.histogram", "ms", false, "reported by the API, HACC 4 M"),
    ("core.encode_phase_ms.codebook", "ms", false, "reported by the API, HACC 4 M"),
    ("core.encode_phase_ms.offsets", "ms", false, "reported by the API, HACC 4 M"),
    ("core.encode_phase_ms.scatter", "ms", false, "reported by the API, HACC 4 M"),
    ("core.prepare_decode_ms", "ms", false, "prepare_decode, 65,536 -> client.get_range @ serve_cold"),
    ("core.decode_range_ms", "ms", false, "decode_range of 4,096 symbols, 65,536 -> client.get_range @ serve_cold"),
    ("core.decode_batch_ms", "ms", false, "decode_batch of 8 fields of 65,536 -> client.get_batch @ serve_cold"),
    ("core.decode_serial8_ms", "ms", false, "the same 8 fields decoded one by one"),
    ("core.crc32_mbps", "MB/s", true, "crc32 over 16 MB -> container.open_bytes_ms"),
    ("hybrid.encode_ms", "ms", false, "compress_hybrid_on, 95 %-zero walk 4 M -> throughput_mbps @ file_compress"),
    ("hybrid.decode_small_ms", "ms", false, "decode_hybrid, 95 %-zero walk 65,536 -> op_p50_ms @ serve_cold"),
    ("hybrid.size_ratio", "ratio", false, "hybrid payload bytes over dense gap-array payload bytes, walk 4 M (exact)"),
    ("container.to_bytes_ms", "ms", false, "container::to_bytes, HACC 4 M -> throughput_mbps @ file_compress"),
    ("container.open_bytes_ms", "ms", false, "Codec::open_archive_bytes, HACC 4 M -> throughput_mbps @ file_decompress"),
    ("container.snapshot_open_ms.v1", "ms", false, "open_snapshot_bytes, 24 dense fields, HFZ1 -> setup_s @ serving"),
    ("container.snapshot_open_ms.v2", "ms", false, "open_snapshot_bytes, 32 fields with dictionary, HFZ2 -> setup_s @ serving"),
    ("container.archive_bytes", "bytes", false, "HFZ1 bytes of the HACC 4 M archive (exact)"),
    ("codec.compress_ms", "ms", false, "Codec::compress, HACC 4 M"),
    ("codec.decompress_ms", "ms", false, "Codec::decompress, HACC 4 M"),
    ("codec.compress_self_ms", "ms", false, "Codec::compress minus sz.quantize_ms and core.encode_ms"),
    ("codec.decompress_self_ms", "ms", false, "Codec::decompress minus core.decode_ms.gap_array and sz.dequantize_ms"),
    ("codec.first_decompress_ms", "ms", false, "open + decompress_field as the first call of a fresh process: what a one-shot hfz decompress pays"),
    ("codec.decompress_range_ms", "ms", false, "Codec::decompress_range of 4,096 symbols on a prepared field, HACC 4 M"),
    ("serve.request_encode_us", "us", false, "Request::encode of a GET -> op_p50_ms @ serve_hot"),
    ("serve.response_encode_us", "us", false, "Response::encode of a 256 KB GET body -> op_p50_ms @ serve_hot"),
    ("serve.response_decode_us", "us", false, "Response::decode of a 256 KB GET body -> op_p50_ms @ serve_hot"),
    ("serve.cache_get_us", "us", false, "DecodedLru::get, hit"),
    ("serve.cache_insert_us", "us", false, "DecodedLru::insert of 256 KB with eviction"),
    ("serve.hit_rtt_us.tcp", "us", false, "cached GET round trip, one idle tcp connection -> op_p50_ms @ serve_hot, fleet_mixed"),
    ("serve.hit_rtt_us.unix", "us", false, "cached GET round trip, one idle unix connection: shows cache, copy and reactor changes the tcp stall hides"),
    ("serve.stats_rtt_us.tcp", "us", false, "STATS round trip, tcp: transport and reactor wake-up without payload"),
    ("serve.stats_rtt_us.unix", "us", false, "STATS round trip, unix"),
    ("serve.cold_rtt_ms", "ms", false, "cold GET round trip on unix, idle daemon -> op_p50_ms @ serve_cold"),
    ("serve.cold_overhead_ms", "ms", false, "serve.cold_rtt_ms minus a direct decompress_field of the same fields: queue wait, wave tick, encode, write"),
    ("serve.batch_cold_ms", "ms", false, "GETBATCH of 4 cold fields on unix, idle daemon -> client.get_batch @ serve_cold"),
    ("serve.range_cold_ms", "ms", false, "ranged GET Codes of 4,096 on unix, idle daemon -> client.get_range @ serve_cold"),
    ("serve.load_ms", "ms", false, "LOAD of the 32-field file over unix -> setup_s @ serving"),
    ("router.placement_ns", "ns", false, "Placement::owner over 2 shards"),
    ("router.routed_hit_rtt_us", "us", false, "cached GET through the router, tcp on both hops -> op_p50_ms @ fleet_mixed"),
    ("router.hop_overhead_us", "us", false, "router.routed_hit_rtt_us minus serve.hit_rtt_us.tcp"),
    ("router.batch_fanout_ms", "ms", false, "GETBATCH of 4 cached fields spanning both shards -> client.get_batch @ fleet_mixed"),
    ("metrics.render_us", "us", false, "one METRICS exposition of a daemon's registry"),
];

/// Repetitions of a probe on a 4 M-element field. Three, so that the median sets aside
/// a first call that pays for fresh pages.
const BIG_REPS: usize = 3;

/// The hidden mode `codec.first_decompress_ms` re-executes this binary in.
pub const FIRST_DECOMPRESS_FLAG: &str = "--first-decompress";

/// `hfz-benchmark --first-decompress FILE`: open and decompress once, as the first
/// thing this process does, and print the milliseconds.
pub fn first_decompress_child(path: &str) -> i32 {
    let bytes = std::fs::read(path).expect("archive file reads");
    let codec = dense_codec(DecoderKind::OptimizedGapArray);
    let start = Instant::now();
    let handle = codec.open_archive_bytes(&bytes).expect("archive opens");
    let decoded = codec
        .decompress_field(handle.field(0).expect("one field"))
        .expect("decodes");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&decoded);
    println!("{}", ms);
    0
}

struct Noop;

impl BlockKernel for Noop {
    fn name(&self) -> &str {
        "noop"
    }
    fn block(&self, _ctx: &mut BlockContext) {}
}

struct Probes<'t> {
    rec: Recorder<'t>,
    out: Vec<Metric>,
    next_op: u64,
}

impl Probes<'_> {
    /// Runs `f` `reps` times, each a root span named `span`, and returns the median
    /// seconds together with the last result.
    fn time<T>(&mut self, span: &'static str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut seconds = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            self.next_op += 1;
            let (value, s) = self.rec.op(span, self.next_op, |_, _| f());
            seconds.push(s);
            last = Some(std::hint::black_box(value));
        }
        (
            stats::median(&seconds),
            last.expect("at least one repetition"),
        )
    }

    /// Like [`Probes::time`] for calls too short for one span each: every repetition
    /// is `inner` back-to-back calls, and the result is seconds per call.
    fn time_each<T>(
        &mut self,
        span: &'static str,
        reps: usize,
        inner: usize,
        mut f: impl FnMut(usize) -> T,
    ) -> f64 {
        let (seconds, _) = self.time(span, reps, || {
            for i in 0..inner {
                std::hint::black_box(f(i));
            }
        });
        seconds / inner as f64
    }

    fn put(&mut self, name: &str, value: f64) {
        let (_, unit, _, _) = LAYER_METRICS
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{} is not a declared layer metric", name));
        self.out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

fn phase_ms(phase: &Option<huffdec::gpu_sim::PhaseTime>) -> f64 {
    phase.as_ref().map_or(0.0, |p| p.seconds * 1e3)
}

fn quantize(field: &Field, bound: ErrorBound) -> sz::Quantized {
    let step = 2.0 * bound.to_absolute(field.range_span() as f64);
    sz::quantize(&field.data, field.dims, step, sz::DEFAULT_ALPHABET_SIZE)
}

fn get(conn: &mut Connection, field: u32) -> huffdec::serve::GetResult {
    conn.get(ARCHIVE, field, GetKind::Data, None)
        .expect("probe GET")
}

/// Runs the whole suite. Panics on a wrong result: a probe that decodes garbage has
/// no timing worth reporting.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Vec<Metric> {
    let mut p = Probes {
        rec: tracer.recorder(),
        out: Vec::new(),
        next_op: 1 << 48,
    };
    let backend = CpuBackend::new(GpuConfig::v100());
    let codec = dense_codec(DecoderKind::OptimizedGapArray);
    let alphabet = sz::DEFAULT_ALPHABET_SIZE;
    let relative = ErrorBound::Relative(1e-3);
    let mut rng = Rng::new(ctx.seed ^ 0x1A7E25);

    // ----- datasets, sz -----
    let (s, hacc) = p.time("datasets.generate", BIG_REPS, || {
        inputs::dataset_field("HACC", BIG_ELEMENTS, ctx.seed)
    });
    p.put("datasets.generate_ms", s * 1e3);
    let (s, quantized) = p.time("sz.quantize", BIG_REPS, || quantize(&hacc, relative));
    p.put("sz.quantize_ms", s * 1e3);
    let quantize_ms = s * 1e3;
    let (s, reconstructed) = p.time("sz.dequantize", BIG_REPS, || sz::dequantize(&quantized));
    p.put("sz.dequantize_ms", s * 1e3);
    let dequantize_ms = s * 1e3;
    let codes = &quantized.codes;
    let msym = codes.len() as f64 / 1e6;

    // ----- huffman -----
    let freq = FrequencyTable::from_symbols(codes, alphabet);
    let (s, codebook) = p.time("huffman.codebook_build", 50, || {
        Codebook::from_frequencies(&freq)
    });
    p.put("huffman.codebook_build_us", s * 1e6);
    let (s, flat) = p.time("huffman.encode_flat", BIG_REPS, || {
        encode_flat(&codebook, codes)
    });
    p.put("huffman.encode_flat_msym_s", msym / s);
    let (s, decoded) = p.time("huffman.decode_flat", BIG_REPS, || {
        decode_flat(&codebook, &flat)
    });
    p.put("huffman.decode_flat_msym_s", msym / s);
    assert!(decoded.as_deref() == Some(codes.as_slice()), "decode_flat");

    // ----- backend -----
    let s = p.time_each("backend.launch", 20, 10, |_| {
        backend.launch(&Noop, LaunchConfig::new(1, 32))
    });
    p.put("backend.launch_us", s * 1e6);
    let lengths: Vec<u64> = codes
        .iter()
        .map(|&c| codebook.codeword(c).len as u64)
        .collect();
    let (s, _) = p.time("backend.scan", BIG_REPS, || {
        device_exclusive_prefix_sum(&backend, &lengths)
    });
    p.put("backend.scan_ms", s * 1e3);
    drop(lengths);
    let keys: Vec<u32> = codes.iter().map(|&c| c as u32).collect();
    let (s, _) = p.time("backend.histogram", BIG_REPS, || {
        device_histogram(&backend, &keys, alphabet)
    });
    p.put("backend.histogram_ms", s * 1e3);
    drop(keys);

    // ----- core: full decode of the big field, all four decoders -----
    let mut gap_decode_ms = 0.0;
    for (kind, key, span) in [
        (
            DecoderKind::OptimizedGapArray,
            "gap_array",
            "core.decode.gap_array",
        ),
        (
            DecoderKind::OptimizedSelfSync,
            "self_sync",
            "core.decode.self_sync",
        ),
        (
            DecoderKind::OriginalSelfSync,
            "orig_self_sync",
            "core.decode.orig_self_sync",
        ),
        (
            DecoderKind::CuszBaseline,
            "baseline",
            "core.decode.baseline",
        ),
    ] {
        let payload = compress_for(kind, codes, alphabet);
        let (s, result) = p.time(span, BIG_REPS, || {
            decode(&backend, kind, &payload).expect("decodes")
        });
        assert!(result.symbols == *codes, "{} decode", key);
        p.put(&format!("core.decode_ms.{}", key), s * 1e3);
        let t: &PhaseBreakdown = &result.timings;
        match kind {
            DecoderKind::OptimizedGapArray => {
                gap_decode_ms = s * 1e3;
                p.put("backend.kernel_launches", t.kernel_launches() as f64);
                p.put(
                    "core.phase_ms.gap_array.output_index",
                    phase_ms(&t.output_index),
                );
                p.put("core.phase_ms.gap_array.tune", phase_ms(&t.tune));
                p.put(
                    "core.phase_ms.gap_array.decode_write",
                    phase_ms(&t.decode_write),
                );
            }
            DecoderKind::OptimizedSelfSync => {
                p.put(
                    "core.phase_ms.self_sync.intra_sync",
                    phase_ms(&t.intra_sync),
                );
                p.put(
                    "core.phase_ms.self_sync.inter_sync",
                    phase_ms(&t.inter_sync),
                );
                p.put(
                    "core.phase_ms.self_sync.output_index",
                    phase_ms(&t.output_index),
                );
                p.put("core.phase_ms.self_sync.tune", phase_ms(&t.tune));
                p.put(
                    "core.phase_ms.self_sync.decode_write",
                    phase_ms(&t.decode_write),
                );
            }
            _ => {}
        }
    }

    // ----- core: encode -----
    let (s, (_, phases)) = p.time("core.compress_on", BIG_REPS, || {
        core::compress_on(&backend, DecoderKind::OptimizedGapArray, codes, alphabet)
    });
    let encode_ms = s * 1e3;
    p.put("core.encode_ms", encode_ms);
    let phases: &EncodePhaseBreakdown = &phases;
    p.put(
        "core.encode_phase_ms.histogram",
        phases.histogram.seconds * 1e3,
    );
    p.put(
        "core.encode_phase_ms.codebook",
        phases.codebook.seconds * 1e3,
    );
    p.put("core.encode_phase_ms.offsets", phases.offsets.seconds * 1e3);
    p.put("core.encode_phase_ms.scatter", phases.scatter.seconds * 1e3);

    // ----- core: the small-field paths the daemon takes -----
    let small = inputs::dataset_field("HACC", SMALL_ELEMENTS, ctx.seed.wrapping_add(7));
    let small_codes = quantize(&small, relative).codes;
    for (kind, key, span) in [
        (
            DecoderKind::OptimizedGapArray,
            "gap_array",
            "core.decode_small.gap_array",
        ),
        (
            DecoderKind::OptimizedSelfSync,
            "self_sync",
            "core.decode_small.self_sync",
        ),
    ] {
        let payload = compress_for(kind, &small_codes, alphabet);
        let (s, result) = p.time(span, 20, || {
            decode(&backend, kind, &payload).expect("decodes")
        });
        assert!(result.symbols == small_codes, "{} small decode", key);
        p.put(&format!("core.decode_small_ms.{}", key), s * 1e3);
    }
    let gap = DecoderKind::OptimizedGapArray;
    let small_payload = compress_for(gap, &small_codes, alphabet);
    let (s, prepared) = p.time("core.prepare_decode", 10, || {
        prepare_decode(&backend, gap, &small_payload).expect("prepares")
    });
    p.put("core.prepare_decode_ms", s * 1e3);
    let span = small_codes.len() as u64 - RANGE_ELEMENTS;
    let (s, range) = p.time("core.decode_range", 50, || {
        let start = rng.below(span + 1);
        let r = decode_range(
            &backend,
            gap,
            &small_payload,
            &prepared,
            start,
            RANGE_ELEMENTS,
        )
        .expect("range decodes");
        (start as usize, r.symbols)
    });
    assert!(
        range.1 == small_codes[range.0..range.0 + RANGE_ELEMENTS as usize],
        "decode_range"
    );
    p.put("core.decode_range_ms", s * 1e3);
    let items: Vec<(DecoderKind, &CompressedPayload)> = vec![(gap, &small_payload); 8];
    let (s, (batch, _)) = p.time("core.decode_batch", 5, || {
        decode_batch(&backend, &items).expect("batch decodes")
    });
    assert!(
        batch.iter().all(|r| r.symbols == small_codes),
        "decode_batch"
    );
    p.put("core.decode_batch_ms", s * 1e3);
    let (s, _) = p.time("core.decode_serial8", 5, || {
        for (kind, payload) in &items {
            std::hint::black_box(decode(&backend, *kind, payload).expect("decodes"));
        }
    });
    p.put("core.decode_serial8_ms", s * 1e3);
    let field_bytes = f32_le_bytes(&reconstructed);
    let (s, _) = p.time("core.crc32", 3, || crc32(&field_bytes));
    p.put("core.crc32_mbps", field_bytes.len() as f64 / 1e6 / s);

    // ----- hybrid -----
    let absolute = ErrorBound::Absolute(0.5);
    let walk_codes = quantize(&inputs::big_walk_field(ctx.seed), absolute).codes;
    let (s, (hybrid_payload, _)) = p.time("hybrid.compress_hybrid_on", BIG_REPS, || {
        compress_hybrid_on(&backend, &walk_codes, alphabet)
    });
    p.put("hybrid.encode_ms", s * 1e3);
    let dense_bytes = compress_for(gap, &walk_codes, alphabet).compressed_bytes();
    p.put(
        "hybrid.size_ratio",
        hybrid_payload.compressed_bytes() as f64 / dense_bytes as f64,
    );
    let small_walk = inputs::walk_field(SMALL_ELEMENTS, WALK_ZERO_PCT, ctx.seed.wrapping_add(9));
    let small_walk_codes = quantize(&small_walk, absolute).codes;
    let CompressedPayload::Hybrid(stream) = compress_hybrid(&small_walk_codes, alphabet) else {
        unreachable!("compress_hybrid produces a hybrid payload");
    };
    let (s, result) = p.time("hybrid.decode_hybrid", 20, || {
        decode_hybrid(&backend, &stream).expect("hybrid decodes")
    });
    assert!(result.symbols == small_walk_codes, "decode_hybrid");
    p.put("hybrid.decode_small_ms", s * 1e3);

    // ----- container -----
    let compressed = codec.compress_archive(&hacc).expect("non-empty field");
    let (s, archive) = p.time("container.to_bytes", 3, || {
        container::to_bytes(&compressed).expect("serializes")
    });
    p.put("container.to_bytes_ms", s * 1e3);
    p.put("container.archive_bytes", archive.len() as f64);
    let (s, handle) = p.time("container.open_archive_bytes", 3, || {
        codec.open_archive_bytes(&archive).expect("opens")
    });
    p.put("container.open_bytes_ms", s * 1e3);
    let set = ServedSet::build(ctx, "probe.hfz");
    let named: Vec<(String, &huffdec::Compressed)> = set
        .compressed
        .iter()
        .enumerate()
        .map(|(i, c)| (format!("f{}", i), c))
        .collect();
    let named: Vec<(&str, &huffdec::Compressed)> =
        named.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let v1 = container::snapshot_to_bytes(&named[..set.dense]).expect("v1 snapshot");
    let v2 = container::snapshot_to_bytes_v2(&named).expect("v2 snapshot");
    for (bytes, key, span) in [
        (&v1, "v1", "container.open_snapshot.v1"),
        (&v2, "v2", "container.open_snapshot.v2"),
    ] {
        let (s, _) = p.time(span, 5, || codec.open_snapshot_bytes(bytes).expect("opens"));
        p.put(&format!("container.snapshot_open_ms.{}", key), s * 1e3);
    }

    // ----- codec: the facade against the layers it is made of -----
    let (s, _) = p.time("codec.compress", BIG_REPS, || {
        codec.compress(&hacc).expect("compresses")
    });
    p.put("codec.compress_ms", s * 1e3);
    p.put("codec.compress_self_ms", s * 1e3 - quantize_ms - encode_ms);
    let (s, out) = p.time("codec.decompress", BIG_REPS, || {
        codec.decompress(&compressed).expect("decompresses")
    });
    assert!(out.data == reconstructed, "Codec::decompress");
    p.put("codec.decompress_ms", s * 1e3);
    p.put(
        "codec.decompress_self_ms",
        s * 1e3 - gap_decode_ms - dequantize_ms,
    );
    let big = handle.field(0).expect("one field");
    codec.prepare_field(big).expect("prepares");
    let span = codes.len() as u64 - RANGE_ELEMENTS;
    let (s, _) = p.time("codec.decompress_range", 20, || {
        codec
            .decompress_range(big, rng.below(span + 1), RANGE_ELEMENTS)
            .expect("range decodes")
    });
    p.put("codec.decompress_range_ms", s * 1e3);
    let archive_path = ctx.dir.join("first.hfz");
    std::fs::write(&archive_path, &archive).expect("archive file writes");
    let exe = std::env::current_exe().expect("own path");
    let first: Vec<f64> = (0..3)
        .map(|_| {
            let (_, output) = p.time("codec.first_decompress.process", 1, || {
                Command::new(&exe)
                    .arg(FIRST_DECOMPRESS_FLAG)
                    .arg(&archive_path)
                    .output()
                    .expect("child runs")
            });
            String::from_utf8_lossy(&output.stdout)
                .trim()
                .parse::<f64>()
                .expect("child prints milliseconds")
        })
        .collect();
    p.put("codec.first_decompress_ms", stats::median(&first));

    // ----- serve: the pure functions on the request path -----
    let body_bytes = f32_le_bytes(&small.data);
    let request = get_request(7, GetKind::Data, None);
    let s = p.time_each("serve.request_encode", 20, 100, |_| request.encode());
    p.put("serve.request_encode_us", s * 1e6);
    let response = Response::Get {
        kind: GetKind::Data,
        from_cache: true,
        partial: false,
        elements: small.len() as u64,
        bytes: body_bytes.clone(),
    };
    let (s, encoded) = p.time("serve.response_encode", 100, || response.encode());
    p.put("serve.response_encode_us", s * 1e6);
    let (s, decoded) = p.time("serve.response_decode", 100, || {
        Response::decode(&encoded).expect("decodes")
    });
    assert!(decoded == response, "Response round trip");
    p.put("serve.response_decode_us", s * 1e6);
    let key = |field: u32| CacheKey {
        archive: ARCHIVE.to_string(),
        generation: 0,
        field,
        kind: GetKind::Data,
    };
    let mut lru = DecodedLru::new(body_bytes.len() as u64 * 4);
    let mut fresh: Vec<Vec<u8>> = (0..64).map(|_| body_bytes.clone()).collect();
    let s = p.time_each("serve.cache_insert", 8, 8, |_| {
        let n = 64 - fresh.len();
        lru.insert(key(n as u32), fresh.pop().expect("a fresh buffer"))
    });
    p.put("serve.cache_insert_us", s * 1e6);
    let resident = key(63);
    let s = p.time_each("serve.cache_get", 20, 100, |_| {
        lru.get(&resident).expect("resident entry")
    });
    p.put("serve.cache_get_us", s * 1e6);

    // ----- serve: round trips on one idle connection, tcp and unix -----
    let all_fields = set.max_field_bytes * (set.len() as u64 + 4);
    let tcp = spawn_daemon("tcp:127.0.0.1:0", all_fields, Some(&set.path));
    let unix = spawn_daemon(
        &unix_addr(ctx, "probe.sock"),
        set.max_field_bytes * 4,
        Some(&set.path),
    );
    let mut tcp_rtt_us = 0.0;
    for (daemon, key, reps, hit_span, stats_span) in [
        (&tcp, "tcp", 20, "serve.hit_rtt.tcp", "serve.stats_rtt.tcp"),
        (
            &unix,
            "unix",
            200,
            "serve.hit_rtt.unix",
            "serve.stats_rtt.unix",
        ),
    ] {
        let mut conn = Connection::connect(daemon.local_addr()).expect("connects");
        get(&mut conn, 0);
        let (s, reply) = p.time(hit_span, reps, || get(&mut conn, 0));
        assert!(reply.from_cache, "hit round trip must be a hit");
        p.put(&format!("serve.hit_rtt_us.{}", key), s * 1e6);
        if key == "tcp" {
            tcp_rtt_us = s * 1e6;
        }
        let (s, _) = p.time(stats_span, reps, || conn.stats().expect("STATS"));
        p.put(&format!("serve.stats_rtt_us.{}", key), s * 1e6);
    }
    // Cold paths on the unix daemon: its cache holds four fields, so a cyclic sweep of
    // the other fields always misses.
    let mut conn = Connection::connect(unix.local_addr()).expect("connects");
    let fields = set.len() as u32;
    let mut cursor = 0u32;
    let mut next = move || {
        cursor += 1;
        4 + cursor % (fields - 4)
    };
    let probe_handle = codec.open_archive(&set.path).expect("served file opens");
    let mut swept = Vec::new();
    let (s, reply) = p.time("serve.cold_rtt", 28, || {
        let field = next();
        swept.push(field);
        get(&mut conn, field)
    });
    assert!(!reply.from_cache, "cold round trip must miss");
    p.put("serve.cold_rtt_ms", s * 1e3);
    let mut again = swept.iter();
    let (direct, _) = p.time("codec.decompress_field.small", swept.len(), || {
        let field = *again.next().expect("one per cold GET");
        codec
            .decompress_field(probe_handle.field(field as usize).expect("field"))
            .expect("decodes")
    });
    p.put("serve.cold_overhead_ms", (s - direct) * 1e3);
    let (s, items) = p.time("serve.batch_cold", 8, || {
        let fields: Vec<u32> = (0..4).map(|_| next()).collect();
        match conn.request(&batch_request(&fields)).expect("GETBATCH") {
            Response::GetBatch { items, .. } => items,
            other => panic!("unexpected reply {:?}", other),
        }
    });
    assert!(
        items.len() == 4 && items.iter().all(|i| !i.from_cache),
        "cold batch"
    );
    p.put("serve.batch_cold_ms", s * 1e3);
    let (s, _) = p.time("serve.range_cold", 24, || {
        let field = rng.below(set.dense as u64) as u32;
        let start = rng.below(set.elements[field as usize] - RANGE_ELEMENTS + 1);
        conn.get(
            ARCHIVE,
            field,
            GetKind::Codes,
            Some((start, RANGE_ELEMENTS)),
        )
        .expect("ranged GET")
    });
    p.put("serve.range_cold_ms", s * 1e3);
    let mut loads = 0;
    let (s, _) = p.time("serve.load", 5, || {
        loads += 1;
        conn.load(&format!("probe{}", loads), &set.path)
            .expect("LOAD")
    });
    p.put("serve.load_ms", s * 1e3);
    let state = unix.state();
    let (s, _) = p.time("metrics.render", 50, || state.metrics().render_prometheus());
    p.put("metrics.render_us", s * 1e6);
    drop(conn);
    stop_daemon(unix);

    // ----- router: one hop more -----
    let placement = Placement::new(2);
    let keys: Vec<String> = (0..100).map(|i| field_key(None, i)).collect();
    let s = p.time_each("router.placement", 20, 100, |i| {
        placement.owner(ARCHIVE, &keys[i])
    });
    p.put("router.placement_ns", s * 1e9);
    let second = spawn_daemon("tcp:127.0.0.1:0", all_fields, Some(&set.path));
    let router = Router::builder()
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").expect("address parses"))
        .attach(tcp.local_addr().clone())
        .attach(second.local_addr().clone())
        .preload(ARCHIVE, &set.path)
        .spawn()
        .expect("probe router spawns");
    let mut conn = Connection::connect(router.local_addr()).expect("connects");
    get(&mut conn, 0);
    let (s, reply) = p.time("router.routed_hit_rtt", 20, || get(&mut conn, 0));
    assert!(reply.from_cache, "routed hit must be a hit");
    p.put("router.routed_hit_rtt_us", s * 1e6);
    p.put("router.hop_overhead_us", s * 1e6 - tcp_rtt_us);
    let owners: Vec<usize> = (0..set.len())
        .map(|i| placement.owner(ARCHIVE, &field_key(None, i)).expect("live"))
        .collect();
    let mut spanning: Vec<u32> = Vec::new();
    for shard in [0, 1, 0, 1] {
        let pick = (0..set.len() as u32)
            .find(|f| owners[*f as usize] == shard && !spanning.contains(f))
            .expect("both shards own fields");
        spanning.push(pick);
    }
    conn.request(&batch_request(&spanning)).expect("GETBATCH");
    let (s, _) = p.time("router.batch_fanout", 10, || {
        conn.request(&batch_request(&spanning)).expect("GETBATCH")
    });
    p.put("router.batch_fanout_ms", s * 1e3);
    drop(conn);
    router.shutdown();
    router.join().expect("probe router exits cleanly");
    stop_daemon(second);
    stop_daemon(tcp);

    p.out
}
