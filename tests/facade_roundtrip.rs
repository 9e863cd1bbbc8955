//! Facade equivalence suite: the `huffdec::Codec` session API must be a pure seam —
//! archives produced through it (`sz::compress_on` on the session's backend) are
//! byte-identical to the host reference `sz::compress`, decompression reconstructs the
//! same data, and the archive sessions (`open_archive` / `open_snapshot` /
//! `decompress_range`) agree with the streaming readers, for every evaluated decoder
//! kind on every paper dataset.

use huffdec::core_decoders::zero_symbol;
use huffdec::datasets::{dataset_by_name, generate, Dims};
use huffdec::gpu_sim::{Gpu, GpuConfig};
use huffdec::serve::GetKind;
use huffdec::sz::{quantize, verify_error_bound, ErrorBound, SzConfig, DEFAULT_ALPHABET_SIZE};
use huffdec::{
    u16_le_bytes, BackendKind, Codec, Compressed, DecoderKind, Field, FormatVersion, HfzError,
};

const PAPER_DATASETS: [&str; 5] = ["HACC", "CESM", "Nyx", "RTM", "GAMESS"];
const DECODERS: [DecoderKind; 3] = [
    DecoderKind::CuszBaseline,
    DecoderKind::OptimizedSelfSync,
    DecoderKind::OptimizedGapArray,
];

fn codec_for(decoder: DecoderKind) -> Codec {
    Codec::builder()
        .gpu_config(GpuConfig::test_tiny())
        .host_threads(4)
        .decoder(decoder)
        .build()
        .expect("test codec configuration is valid")
}

#[test]
fn facade_archives_are_byte_identical_to_the_free_function_path() {
    let mut seed = 0xFACADEu64;
    for name in PAPER_DATASETS {
        let spec = dataset_by_name(name).expect("paper dataset");
        seed += 1;
        let field = generate(&spec, 20_000, seed);
        for decoder in DECODERS {
            let codec = codec_for(decoder);

            // Old path: free functions + config structs, exactly as consumers were
            // wired before the session API existed.
            let legacy_config = SzConfig::paper_default(decoder);
            let legacy = huffdec::sz::compress(&field, &legacy_config);
            let legacy_bytes = huffdec::container::to_bytes(&legacy).expect("serialize");

            // New path: the session's compress on its backend.
            let session = codec.compress(&field).expect("non-empty field");
            let session_bytes = huffdec::container::to_bytes(&session.archive).expect("serialize");
            assert_eq!(
                session_bytes, legacy_bytes,
                "{} / {:?}: session archive differs from the free-function archive",
                name, decoder
            );
            // Reconstruction matches the old path bit for bit and honours the bound.
            let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
            let old = huffdec::sz::decompress(&gpu, &legacy).expect("payload matches");
            let new = codec.decompress(&session.archive).expect("payload matches");
            assert_eq!(new.data, old.data, "{} / {:?}", name, decoder);
            let bound = 1e-3 * field.range_span() as f64;
            assert!(
                verify_error_bound(&field.data, &new.data, bound).is_none(),
                "{} / {:?}: error bound violated",
                name,
                decoder
            );
        }
    }
}

#[test]
fn archive_sessions_agree_with_the_streaming_readers() {
    let dir = std::env::temp_dir().join("huffdec-facade-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    for decoder in DECODERS {
        let codec = codec_for(decoder);

        // One snapshot over all five paper datasets, written by the container writer.
        let fields: Vec<(String, Compressed)> = PAPER_DATASETS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let spec = dataset_by_name(name).expect("paper dataset");
                let field = generate(&spec, 15_000, 900 + i as u64);
                (
                    name.to_string(),
                    codec.compress_archive(&field).expect("non-empty field"),
                )
            })
            .collect();
        let refs: Vec<(&str, &Compressed)> = fields.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let bytes = huffdec::container::snapshot_to_bytes(&refs).expect("snapshot serializes");
        let path = dir.join(format!("snap-{}.hfz", decoder.tag()));
        std::fs::write(&path, &bytes).unwrap();

        // The session sees exactly what the low-level snapshot reader sees.
        let handle = codec
            .open_snapshot(path.to_str().unwrap())
            .expect("snapshot opens");
        assert_eq!(handle.len(), PAPER_DATASETS.len());
        assert_eq!(handle.total_bytes(), bytes.len() as u64);
        let snapshot = huffdec::container::Snapshot::parse(&bytes).expect("snapshot parses");
        for (index, (name, original)) in fields.iter().enumerate() {
            let field = handle.field_by_name(name).expect("manifest lookup");
            assert_eq!(field.name(), Some(name.as_str()));
            let low_level = snapshot
                .read_field(index)
                .expect("seek")
                .into_field()
                .expect("field archive");
            assert_eq!(
                field.compressed().expect("field archive").decoded_crc,
                low_level.decoded_crc
            );
            // Decoding through the session equals decoding the seek-read archive.
            let via_session = codec.decompress_field(field).expect("decodes");
            let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
            let via_reader = huffdec::sz::decompress(&gpu, &low_level).expect("decodes");
            assert_eq!(via_session.data, via_reader.data, "{} field diverged", name);
            assert_eq!(
                via_session.data,
                codec.decompress(original).expect("decodes").data
            );
        }
    }
}

#[test]
fn ranged_decodes_through_the_session_match_full_decodes() {
    let codec = codec_for(DecoderKind::OptimizedGapArray);
    let fields: Vec<(String, Compressed)> = [("a", 21u64), ("b", 22)]
        .iter()
        .map(|&(name, seed)| {
            let field = generate(&dataset_by_name("GAMESS").unwrap(), 18_000, seed);
            (
                name.to_string(),
                codec.compress_archive(&field).expect("non-empty field"),
            )
        })
        .collect();
    let refs: Vec<(&str, &Compressed)> = fields.iter().map(|(n, c)| (n.as_str(), c)).collect();
    let bytes = huffdec::container::snapshot_to_bytes(&refs).expect("snapshot serializes");
    let handle = codec.open_snapshot_bytes(&bytes).expect("snapshot opens");

    let field = handle.field(0).expect("field 0");
    let full = codec.decode_field_codes(field).expect("full decode");
    assert!(!field.prepared_ready());
    for (start, len) in [(0u64, 64u64), (5_000, 1_000), (17_900, 100)] {
        let r = codec.decompress_range(field, start, len).expect("range");
        assert_eq!(
            r.symbols.as_slice(),
            &full.symbols[start as usize..(start + len) as usize],
            "range [{}, {}+{}) diverged",
            start,
            start,
            len
        );
        assert!(r.decoded_blocks <= r.total_blocks);
    }
    assert!(field.prepared_ready(), "first range builds the index");

    // Out-of-range requests are typed decode errors through the facade.
    assert!(matches!(
        codec.decompress_range(field, 17_999, 100),
        Err(HfzError::Decode(_))
    ));

    // A codes wave through handles matches per-field decodes.
    let both = [handle.field(0).unwrap(), handle.field(1).unwrap()];
    let wave = codec.decode_to_bytes(&[(both[0], GetKind::Codes), (both[1], GetKind::Codes)]);
    assert_eq!(wave.len(), 2);
    for (field, bytes) in both.iter().zip(wave) {
        let serial = codec.decode_field_codes(field).expect("decodes").symbols;
        assert_eq!(bytes.expect("wave decodes"), u16_le_bytes(&serial));
    }
}

/// The hybrid pick at its edge: a 1-D integer field under `abs:0.5`, where a repeated
/// value quantizes to the center bin. With exactly half center codes a format-v2
/// session picks the hybrid, on both backends; with one fewer it keeps the dense
/// decoder. Either way it writes the bytes of the host reference `sz::compress` under
/// the decoder it picked.
#[test]
fn the_session_compress_picks_the_hybrid_at_exactly_half_center_codes() {
    // Crosses the 65,536-column quantize blocks, so the backend pick reads summed counts.
    let n = 140_000;
    let field = |repeats: usize| {
        let mut value = 0.0f32;
        let data = (0..n)
            .map(|i| {
                if i % 2 == 0 || i / 2 >= repeats {
                    let step = 1 + (i % 17) as i32;
                    value += if i % 4 < 2 { step } else { -step } as f32;
                }
                value
            })
            .collect();
        Field::new("edge".to_string(), Dims::D1(n), data)
    };
    for (repeats, hybrid) in [(n / 2, true), (n / 2 - 1, false)] {
        let field = field(repeats);
        let q = quantize(&field.data, field.dims, 1.0, DEFAULT_ALPHABET_SIZE);
        let zero = zero_symbol(DEFAULT_ALPHABET_SIZE);
        assert_eq!(q.codes.iter().filter(|&&c| c == zero).count(), repeats);
        assert!(q.outliers.is_empty());
        for backend in [BackendKind::Sim, BackendKind::Cpu] {
            let codec = Codec::builder()
                .backend(backend)
                .gpu_config(GpuConfig::test_tiny())
                .host_threads(2)
                .error_bound(ErrorBound::Absolute(0.5))
                .format(FormatVersion::V2)
                .build()
                .unwrap();
            let session = codec.compress_archive(&field).unwrap();
            let mut picked = *codec.config();
            if hybrid {
                picked.decoder = DecoderKind::RleHybrid;
            }
            let host = huffdec::sz::compress(&field, &picked);
            let on_what = format!("{backend:?} with {repeats} center codes");
            assert_eq!(session.decoder(), picked.decoder, "{on_what}");
            assert_eq!(
                codec.archive_to_bytes(&session).unwrap(),
                codec.archive_to_bytes(&host).unwrap(),
                "{on_what}"
            );
        }
    }
}
