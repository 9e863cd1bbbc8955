//! Property-based integration tests: every decoder must reproduce arbitrary symbol
//! streams exactly, refuse a malformed stream without panicking, the archive writer must
//! refuse, with the reader's reason, every malformed stream or field the reader refuses,
//! and the core Huffman invariants must hold for arbitrary frequency distributions.
//!
//! The properties are exercised with a seeded-PRNG case driver instead of an external
//! property-testing crate (this environment cannot fetch dependencies); each property
//! runs over a few dozen randomized cases and failures report the offending case seed.

use huffdec::container::{from_bytes, payload_to_bytes, to_bytes, ArchiveWriter, ContainerError};
use huffdec::core_decoders::{
    compress_for, decode, decode_hybrid, decode_original_gap8, decode_range, prepare_decode,
    roundtrip, run_decode_write, Backend, CompressedPayload, CpuBackend, DecodeError, DecoderKind,
    EncodedStream, Gap8Stream, HybridStream, WriteStrategy,
};
use huffdec::datasets::{dataset_by_name, generate, Dims, Rng};
use huffdec::gpu_sim::{DeviceBuffer, Gpu, GpuConfig};
use huffdec::huffman::{
    assign_canonical, code_lengths, decode_flat, encode_flat, is_prefix_free, kraft_sum,
    ChunkedEncoded, Codebook, FrequencyTable,
};
use huffdec::sz::Outlier;
use huffdec::{BackendKind, Codec, Compressed, ErrorBound, HfzError};

const CASES: u64 = 24;

fn gpu() -> Gpu {
    Gpu::with_host_threads(GpuConfig::test_tiny(), 2)
}

/// Runs `body` over `CASES` independently seeded PRNGs, labelling failures by case seed.
fn for_each_case(property: &str, mut body: impl FnMut(&mut Rng)) {
    for case in 0..CASES {
        let seed = 0xC0FFEE ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = Rng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!(
                "property '{}' failed on case {} (seed {:#x})",
                property, case, seed
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// A symbol stream with quantization-code-like skew: mostly a central value with
/// geometric excursions.
fn symbol_stream(rng: &mut Rng, max_len: usize) -> Vec<u16> {
    let len = 1 + rng.gen_index(max_len - 1);
    let spread = rng.gen_index(10) as u32;
    (0..len)
        .map(|_| {
            let r = (rng.next_u64() >> 33) as u32;
            let mag = (r.trailing_zeros().min(spread)) as i32;
            let sign = if (r >> 30) & 1 == 1 { 1 } else { -1 };
            (512 + sign * mag).clamp(0, 1023) as u16
        })
        .collect()
}

#[test]
fn huffman_code_lengths_satisfy_kraft() {
    for_each_case("kraft", |rng| {
        let n = 2 + rng.gen_index(254);
        let counts: Vec<u64> = (0..n).map(|_| rng.gen_index(10_000) as u64).collect();
        if counts.iter().all(|&c| c == 0) {
            return; // vacuous case
        }
        let freq = FrequencyTable::from_counts(counts);
        let lengths = code_lengths(&freq).expect("code length construction");
        assert!(kraft_sum(&lengths) <= 1.0 + 1e-9);
        let codes = assign_canonical(&lengths);
        assert!(is_prefix_free(&codes));
    });
}

#[test]
fn flat_encoding_roundtrips() {
    for_each_case("flat roundtrip", |rng| {
        let symbols = symbol_stream(rng, 4096);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let enc = encode_flat(&cb, &symbols);
        assert_eq!(decode_flat(&cb, &enc).unwrap(), symbols);
    });
}

#[test]
fn every_gpu_decoder_matches_the_input() {
    let g = gpu();
    for_each_case("gpu decoders", |rng| {
        let symbols = symbol_stream(rng, 20_000);
        for kind in DecoderKind::all() {
            let result = roundtrip(&g, kind, &symbols, 1024);
            assert_eq!(result.symbols, symbols, "decoder {:?}", kind);
            assert!(result.timings.total_seconds() > 0.0);
        }
    });
}

/// The online tuner (Algorithm 2) runs only on the simulator. On `CpuBackend` a full
/// decode of a flat stream is one walk per sequence, a full baseline decode launches
/// every chunk, and a ranged decode stages its blocks through the fixed high-ratio
/// buffer, so no decode there reports a `tune` phase.
#[test]
fn cpu_decodes_never_run_the_tuner() {
    let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
    let mut rng = Rng::seed_from_u64(7);
    let symbols: Vec<u16> = (0..60_000)
        .map(|_| {
            let r = rng.next_u64();
            let sign = if r >> 63 == 1 { 1 } else { -1 };
            (512 + sign * r.trailing_zeros().min(9) as i32) as u16
        })
        .collect();
    for kind in DecoderKind::all() {
        let payload = compress_for(kind, &symbols, 1024);
        let full = decode(&cpu, kind, &payload).unwrap();
        assert_eq!(full.symbols, symbols, "decoder {:?}", kind);
        assert!(full.timings.tune.is_none(), "{:?} decode tuned", kind);

        let prepared = prepare_decode(&cpu, kind, &payload).unwrap();
        let range = decode_range(&cpu, kind, &payload, &prepared, 1_000, 30_000).unwrap();
        assert_eq!(range.symbols, symbols[1_000..31_000], "decoder {:?}", kind);
        assert!(range.timings.tune.is_none(), "{:?} range tuned", kind);
    }
    // The same full decode on the simulator does tune, so the check above can fail.
    let gap = DecoderKind::OptimizedGapArray;
    let payload = compress_for(gap, &symbols, 1024);
    assert!(decode(&gpu(), gap, &payload)
        .unwrap()
        .timings
        .tune
        .is_some());
}

/// An edit of a stream's public fields.
type Edit = fn(&mut EncodedStream);

/// Edits that leave a stream malformed, each named, with the reason the archive reader
/// gives for the defect.
const MALFORMED: [(&str, Edit, &str); 5] = [
    (
        "a unit short",
        |s| {
            s.units.pop();
        },
        "unit count does not cover the bit length",
    ),
    (
        "a unit long",
        |s| s.units.push(0),
        "unit count does not cover the bit length",
    ),
    (
        "more symbols than bits",
        |s| s.num_symbols = s.bit_len as usize + 1,
        "more symbols than bits in the stream",
    ),
    (
        "a zero geometry",
        |s| s.geometry.subseq_units = 0,
        "stream geometry must be non-zero",
    ),
    (
        "a gap array one entry short",
        |s| {
            if let Some(gap) = &mut s.gap_array {
                gap.gaps.pop();
            }
        },
        "gap array length does not match the stream",
    ),
];

/// An edit of a chunked stream's public fields.
type ChunkedEdit = fn(&mut ChunkedEncoded);

/// Edits that leave a chunked stream's tiling broken, each named, with the reason the
/// archive reader gives for the defect.
const MALFORMED_CHUNKED: [(&str, ChunkedEdit, &str); 7] = [
    (
        "a unit short",
        |c| {
            c.units.pop();
        },
        "unit count does not match the chunk tiling",
    ),
    (
        "a unit long",
        |c| c.units.push(0),
        "unit count does not match the chunk tiling",
    ),
    (
        "the first chunk's unit_offset past the units",
        |c| c.chunks[0].unit_offset = c.units.len() as u64 + 1,
        "chunks do not tile the unit array",
    ),
    (
        "two chunks' symbol_offsets swapped",
        |c| {
            let (first, rest) = c.chunks.split_at_mut(1);
            std::mem::swap(&mut first[0].symbol_offset, &mut rest[0].symbol_offset);
        },
        "chunk symbol offsets are inconsistent",
    ),
    (
        "a chunk's bit_len beyond its units",
        |c| c.chunks[0].bit_len = c.chunks[0].unit_count * 32 + 1,
        "chunk bit length exceeds its units",
    ),
    (
        "a chunk's num_symbols one too many",
        |c| c.chunks[0].num_symbols += 1,
        "chunk symbol offsets are inconsistent",
    ),
    (
        "a zero chunk size",
        |c| c.chunk_symbols = 0,
        "zero chunk size",
    ),
];

/// The copies of `stream` that [`MALFORMED`]'s edits change, each named and paired with
/// the reader's reason.
fn malformed(stream: &EncodedStream) -> Vec<(&'static str, &'static str, EncodedStream)> {
    let edited = MALFORMED.iter().map(|(what, edit, reason)| {
        let mut copy = stream.clone();
        edit(&mut copy);
        (*what, *reason, copy)
    });
    edited.filter(|(.., copy)| copy != stream).collect()
}

/// The reason a writer refused an archive with, or `None` when it wrote it (or failed
/// otherwise).
fn refusal(written: Result<Vec<u8>, ContainerError>) -> Option<&'static str> {
    match written {
        Err(ContainerError::Invalid { reason }) => Some(reason),
        _ => None,
    }
}

/// Every decode entry point refuses a flat stream, or a hybrid substream or population,
/// whose public fields no longer fit together, as `CorruptStream` on both backends:
/// never a panic, and never a silently short field.
/// The original 8-bit gap-array decoder refuses what the gap-array decoder refuses, and
/// a stream without a gap array as `PayloadMismatch`.
#[test]
fn malformed_streams_are_refused_as_corrupt() {
    let (sim, cpu) = (
        gpu(),
        CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2),
    );
    let backends: [&dyn Backend; 2] = [&sim, &cpu];
    let symbols: Vec<u16> = (0..40_000u32).map(|i| (509 + i % 7) as u16).collect();
    // A gap-array stream, which every flat decoder reads.
    let good = compress_for(DecoderKind::OptimizedGapArray, &symbols, 1024);
    let CompressedPayload::Flat(stream) = &good else {
        unreachable!("a gap-array payload is flat")
    };
    for gpu in backends {
        // The three flat decoders; the first of `all` is the chunked baseline.
        for kind in &DecoderKind::all()[1..] {
            let corrupt = Some(DecodeError::CorruptStream { decoder: *kind });
            let prepared = prepare_decode(gpu, *kind, &good).unwrap();
            for (what, _, bad) in malformed(stream) {
                // The original 8-bit decoder runs the gap-array decoder's kernels.
                let gap8 = Gap8Stream {
                    symbols8: Vec::new(),
                    stream: bad.clone(),
                };
                let bad = CompressedPayload::Flat(bad);
                let on = format!("{} on {}, {:?}", what, gpu.kind(), kind);
                assert_eq!(decode(gpu, *kind, &bad).err(), corrupt, "decode, {}", on);
                let prepare = prepare_decode(gpu, *kind, &bad).err();
                assert_eq!(prepare, corrupt, "prepare_decode, {}", on);
                let range = decode_range(gpu, *kind, &bad, &prepared, 0, 1000).err();
                assert_eq!(range, corrupt, "decode_range, {}", on);
                let (output, direct) = (DeviceBuffer::zeroed(1000), WriteStrategy::Direct);
                let write = run_decode_write(gpu, *kind, &bad, &prepared, &output, &[0], direct);
                assert_eq!(write.err(), corrupt, "run_decode_write, {}", on);
                if *kind == DecoderKind::OptimizedGapArray {
                    let original = decode_original_gap8(gpu, &gap8).err();
                    assert_eq!(original, corrupt, "decode_original_gap8, {}", on);
                }
            }
        }
        let gapless = Gap8Stream {
            symbols8: Vec::new(),
            stream: EncodedStream {
                gap_array: None,
                ..stream.clone()
            },
        };
        let decoder = DecoderKind::OptimizedGapArray;
        let original = decode_original_gap8(gpu, &gapless).err();
        let mismatch = Some(DecodeError::PayloadMismatch { decoder });
        assert_eq!(
            original,
            mismatch,
            "gap8 without a gap array on {}",
            gpu.kind()
        );
    }
    // The writer refuses each malformed stream with the reader's reason.
    for (what, reason, bad) in malformed(stream) {
        let written = payload_to_bytes(
            &CompressedPayload::Flat(bad),
            DecoderKind::OptimizedGapArray,
        );
        assert_eq!(refusal(written), Some(reason), "payload_to_bytes, {}", what);
    }

    let CompressedPayload::Hybrid(hybrid) = compress_for(DecoderKind::RleHybrid, &symbols, 1024)
    else {
        unreachable!("a hybrid payload")
    };
    let with_symbols = |symbols| HybridStream {
        symbols,
        ..hybrid.clone()
    };
    let with_runs = |runs| HybridStream {
        runs,
        ..hybrid.clone()
    };
    let with_codes = |num_codes| HybridStream {
        num_codes,
        ..hybrid.clone()
    };
    // Populations that break the hybrid rule: fewer codes than nonzero symbols, and run
    // tokens of an all-zero field that claims no codes.
    let CompressedPayload::Hybrid(zeros) = compress_for(DecoderKind::RleHybrid, &[512; 900], 1024)
    else {
        unreachable!("a hybrid payload")
    };
    let populations = [
        (
            "fewer codes than nonzero symbols",
            "more nonzero symbols than codes in the hybrid stream",
            with_codes(hybrid.symbols.num_symbols as u64 - 1),
        ),
        (
            "run tokens but no codes",
            "hybrid run-token population disagrees with the code count",
            HybridStream {
                num_codes: 0,
                ..zeros
            },
        ),
    ];
    let broken = (malformed(&hybrid.symbols).into_iter())
        .map(|(what, reason, s)| (what, reason, with_symbols(s)))
        .chain(
            malformed(&hybrid.runs)
                .into_iter()
                .map(|(what, reason, r)| (what, reason, with_runs(r))),
        )
        .chain(populations);
    let broken: Vec<_> = broken.collect();
    for (what, reason, bad) in &broken {
        let written = payload_to_bytes(
            &CompressedPayload::Hybrid(bad.clone()),
            DecoderKind::RleHybrid,
        );
        assert_eq!(
            refusal(written),
            Some(*reason),
            "hybrid payload_to_bytes, {}",
            what
        );
    }
    for gpu in backends {
        for (what, _, bad) in &broken {
            let on = format!("{} on {}", what, gpu.kind());
            let decoder = DecoderKind::RleHybrid;
            let whole = decode(gpu, decoder, &CompressedPayload::Hybrid(bad.clone())).err();
            assert_eq!(
                whole,
                Some(DecodeError::CorruptStream { decoder }),
                "{}",
                on
            );
            // `decode_hybrid` is public too; it decodes each substream as self-sync.
            let decoder = DecoderKind::OptimizedSelfSync;
            let direct = decode_hybrid(gpu, bad).err();
            assert_eq!(
                direct,
                Some(DecodeError::CorruptStream { decoder }),
                "{}",
                on
            );
        }
    }
}

/// Every decode entry point refuses a chunked stream whose public fields no longer tile,
/// as `CorruptStream` on both backends, and so does a session's decompress of an archive
/// that carries one: never a panic in the chunked kernel. The writer refuses to write
/// one, with the reader's reason.
#[test]
fn malformed_chunked_streams_are_refused_as_corrupt() {
    let field = generate(&dataset_by_name("HACC").unwrap(), 40_000, 3);
    let decoder = DecoderKind::CuszBaseline;
    let corrupt = DecodeError::CorruptStream { decoder };
    for backend in [BackendKind::Sim, BackendKind::Cpu] {
        let codec = Codec::builder()
            .gpu_config(GpuConfig::test_tiny())
            .backend(backend)
            .decoder(decoder)
            .host_threads(2)
            .build()
            .unwrap();
        let good = codec.compress(&field).unwrap().archive;
        let gpu = codec.backend();
        let prepared = prepare_decode(gpu, decoder, &good.payload).unwrap();
        for (what, edit, reason) in MALFORMED_CHUNKED {
            let mut bad = good.clone();
            let CompressedPayload::Chunked { encoded, .. } = &mut bad.payload else {
                panic!("the baseline decoder compresses to a chunked payload")
            };
            edit(encoded);
            let on = format!("{} on {}", what, gpu.kind());
            assert_eq!(refusal(to_bytes(&bad)), Some(reason), "to_bytes, {}", on);
            let written = payload_to_bytes(&bad.payload, decoder);
            assert_eq!(refusal(written), Some(reason), "payload_to_bytes, {}", on);
            let whole = decode(gpu, decoder, &bad.payload).err();
            assert_eq!(whole, Some(corrupt), "decode, {}", on);
            let prepare = prepare_decode(gpu, decoder, &bad.payload).err();
            assert_eq!(prepare, Some(corrupt), "prepare_decode, {}", on);
            let range = decode_range(gpu, decoder, &bad.payload, &prepared, 0, 1000).err();
            assert_eq!(range, Some(corrupt), "decode_range, {}", on);
            let session = codec.decompress(&bad).err();
            assert!(
                matches!(session, Some(HfzError::Decode(e)) if e == corrupt),
                "Codec::decompress, {}: {:?}",
                on,
                session
            );
        }
    }
}

/// An edit of a field's public fields.
type FieldEdit = fn(&mut Compressed);

/// Edits that leave a field malformed, each named, with the reason the archive reader
/// gives for the defect.
const MALFORMED_FIELD: [(&str, FieldEdit, &str); 7] = [
    (
        "an outlier past the field",
        |c| {
            let index = c.dims.len() as u64;
            c.outliers.push(Outlier { index, prequant: 1 })
        },
        "outlier index out of range",
    ),
    (
        "two outliers out of order",
        |c| c.outliers = vec![outlier(70), outlier(30)],
        "outlier indices not strictly increasing",
    ),
    (
        "a repeated outlier index",
        |c| c.outliers = vec![outlier(30), outlier(30)],
        "outlier indices not strictly increasing",
    ),
    (
        "a payload whose symbol count differs from the dims",
        |c| c.dims = Dims::D1(c.dims.len() - 1),
        "symbol count does not match the dimensions",
    ),
    (
        "a NaN step",
        |c| c.step = f64::NAN,
        "non-positive quantization step",
    ),
    (
        "a zero step",
        |c| c.step = 0.0,
        "non-positive quantization step",
    ),
    (
        "a NaN error bound",
        |c| c.config.error_bound = ErrorBound::Relative(f64::NAN),
        "invalid error-bound encoding",
    ),
];

fn outlier(index: u64) -> Outlier {
    Outlier { index, prequant: 1 }
}

/// The writer refuses, with the reader's reason, a field archive whose stream carries
/// any of [`MALFORMED`]'s defects or whose field carries any of [`MALFORMED_FIELD`]'s;
/// the valid field still round-trips byte for byte.
#[test]
fn the_writer_refuses_what_the_reader_refuses() {
    let field = generate(&dataset_by_name("HACC").unwrap(), 40_000, 5);
    let codec = Codec::builder()
        .gpu_config(GpuConfig::test_tiny())
        .backend(BackendKind::Cpu)
        .decoder(DecoderKind::OptimizedGapArray)
        .host_threads(2)
        .build()
        .unwrap();
    let good = codec.compress_archive(&field).unwrap();
    let bytes = to_bytes(&good).unwrap();
    assert_eq!(to_bytes(&from_bytes(&bytes).unwrap()).unwrap(), bytes);

    let CompressedPayload::Flat(stream) = &good.payload else {
        unreachable!("a gap-array payload is flat")
    };
    for (what, reason, bad) in malformed(stream) {
        let bad = Compressed {
            payload: CompressedPayload::Flat(bad),
            ..good.clone()
        };
        assert_eq!(refusal(to_bytes(&bad)), Some(reason), "to_bytes, {}", what);
    }
    for (what, edit, reason) in MALFORMED_FIELD {
        let mut bad = good.clone();
        edit(&mut bad);
        assert_eq!(refusal(to_bytes(&bad)), Some(reason), "to_bytes, {}", what);
        // The refusal comes before the first byte.
        let mut writer = ArchiveWriter::new(Vec::new());
        assert!(writer.write_compressed(&bad).is_err());
        let sink = writer.into_inner().unwrap();
        assert!(sink.is_empty(), "{}: {} bytes written", what, sink.len());
    }
    // A configured alphabet other than the codebook's is refused too: the reader would
    // rebuild the codebook over the header's alphabet (refusing a symbol outside it),
    // and the header's 32-bit field cannot hold an alphabet past `u32`.
    for alphabet_size in [256, (1usize << 32) + 1024] {
        let mut bad = good.clone();
        bad.config.alphabet_size = alphabet_size;
        let reason = "codebook alphabet does not match the alphabet size";
        assert_eq!(refusal(to_bytes(&bad)), Some(reason), "{}", alphabet_size);
    }
}

/// An index prepared from one stream, handed another stream of the same decoder, is a
/// `PayloadMismatch` on both backends: the index of a shorter stream has no offsets for
/// the longer one's sequences, and one of a stream that declares fewer symbols ends
/// before the requested window starts. The index of the stream itself decodes it.
#[test]
fn an_index_prepared_for_another_stream_is_a_mismatch() {
    let (sim, cpu) = (
        gpu(),
        CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2),
    );
    let symbols: Vec<u16> = (0..60_000u32).map(|i| (509 + i % 7) as u16).collect();
    let staged = WriteStrategy::Staged {
        buffer_symbols: 2048,
    };
    for gpu in [&sim as &dyn Backend, &cpu] {
        // The three flat decoders; the first of `all` is the chunked baseline.
        for kind in &DecoderKind::all()[1..] {
            let short = compress_for(*kind, &symbols[..10_000], 1024);
            let long = compress_for(*kind, &symbols, 1024);
            let CompressedPayload::Flat(stream) = &long else {
                unreachable!("a fine-grained decoder's payload is flat")
            };
            let lying = CompressedPayload::Flat(EncodedStream {
                num_symbols: 60_500,
                ..stream.clone()
            });
            let every_seq: Vec<u32> = (0..stream.num_seqs() as u32).collect();
            let mismatch = Some(DecodeError::PayloadMismatch { decoder: *kind });
            for (prepared_from, payload, start) in
                [(&short, &long, 50_000), (&long, &lying, 60_100)]
            {
                let on = format!("{:?} on {}, start {}", kind, gpu.kind(), start);
                let misfit = prepare_decode(gpu, *kind, prepared_from).unwrap();
                let range = decode_range(gpu, *kind, payload, &misfit, start, 100).err();
                assert_eq!(range, mismatch, "decode_range, {}", on);
                let output = DeviceBuffer::<u16>::zeroed(payload.num_symbols());
                let write =
                    run_decode_write(gpu, *kind, payload, &misfit, &output, &every_seq, staged);
                assert_eq!(write.err(), mismatch, "run_decode_write, {}", on);
            }

            let fit = prepare_decode(gpu, *kind, &long).unwrap();
            let output = DeviceBuffer::<u16>::zeroed(long.num_symbols());
            let write = run_decode_write(gpu, *kind, &long, &fit, &output, &every_seq, staged);
            assert!(
                write.is_ok(),
                "run_decode_write, {:?} on {}",
                kind,
                gpu.kind()
            );
            assert_eq!(output.into_vec(), symbols, "{:?} on {}", kind, gpu.kind());
        }
    }
}

#[test]
fn quantization_respects_arbitrary_bounds() {
    for_each_case("quantization bound", |rng| {
        let len = 16 + rng.gen_index(1984);
        let values: Vec<f32> = (0..len)
            .map(|_| rng.gen_range_f64(-1000.0, 1000.0) as f32)
            .collect();
        let eb_exp = -(2 + rng.gen_index(3) as i32); // -2..=-4, the paper's sweep range
        let eb = 10f64.powi(eb_exp) * 2000.0; // absolute bound relative to the value span
        let dims = huffdec::datasets::Dims::D1(values.len());
        let q = huffdec::sz::quantize(&values, dims, 2.0 * eb, 1024);
        let rec = huffdec::sz::dequantize(&q);
        assert!(huffdec::sz::verify_error_bound(&values, &rec, eb).is_none());
    });
}
