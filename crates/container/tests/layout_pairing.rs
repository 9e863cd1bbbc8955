//! The pairing of decoder kinds and stream layouts, table-driven on both backends.
//! `DecoderKind::layout` is the one table: the encoder produces a kind's layout, the
//! writer takes exactly the pairs whose layouts are equal, every decode entry point takes
//! those plus a `FlatWithGaps` stream under a `Flat` decoder (which leaves the gap array
//! unread), and the reader refuses any section outside the header's layout.

use datasets::{dataset_by_name, generate};
use gpu_sim::{Gpu, GpuConfig};
use huffdec_container::{
    payload_to_bytes, read_one_archive, ContainerError, SectionKind, HEADER_BYTES,
};
use huffdec_core::{
    compress_for, decode, prepare_decode, Backend, CompressedPayload, CpuBackend, DecodeError,
    DecoderKind, StreamLayout,
};
use sz::{compress, decompress, SzConfig};

/// Every decoder kind: the paper's four and the hybrid.
const KINDS: [DecoderKind; 5] = [
    DecoderKind::CuszBaseline,
    DecoderKind::OriginalSelfSync,
    DecoderKind::OptimizedSelfSync,
    DecoderKind::OptimizedGapArray,
    DecoderKind::RleHybrid,
];

const ALPHABET: usize = 1024;

/// A sparse quant-code field: four codes in five are the center bin.
fn symbols() -> Vec<u16> {
    (0..20_000u32)
        .map(|i| match i % 5 {
            0 => 509 + (i / 5 % 7) as u16,
            _ => 512,
        })
        .collect()
}

/// Whether a decode of a payload of layout `payload` with a decoder of layout `kind`
/// runs: the layouts are equal, or a flat decoder reads past a gap array.
fn decodes(kind: StreamLayout, payload: StreamLayout) -> bool {
    kind == payload || (kind, payload) == (StreamLayout::Flat, StreamLayout::FlatWithGaps)
}

#[test]
fn every_consumer_follows_the_one_layout_table() {
    let symbols = symbols();
    let sim = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
    let payloads: Vec<CompressedPayload> = KINDS
        .iter()
        .map(|&kind| compress_for(kind, &symbols, ALPHABET))
        .collect();
    for (&kind, payload) in KINDS.iter().zip(&payloads) {
        assert_eq!(payload.layout(), kind.layout(), "compress_for({:?})", kind);
    }
    // Every layout is among the payloads.
    for layout in [
        StreamLayout::Chunked,
        StreamLayout::Flat,
        StreamLayout::FlatWithGaps,
        StreamLayout::Hybrid,
    ] {
        assert!(
            payloads.iter().any(|p| p.layout() == layout),
            "{:?}",
            layout
        );
    }

    for kind in KINDS {
        for payload in &payloads {
            let pair = format!("{:?} decoder, {:?} payload", kind, payload.layout());
            let written = payload_to_bytes(payload, kind);
            assert_eq!(
                written.is_ok(),
                kind.layout() == payload.layout(),
                "{}",
                pair
            );
            if let Ok(bytes) = written {
                let archive = read_one_archive(&bytes).unwrap();
                assert_eq!(archive.decoder(), kind, "{}", pair);
                assert_eq!(archive.payload(), payload, "{}", pair);
            }

            let mismatch = DecodeError::PayloadMismatch { decoder: kind };
            let runs = decodes(kind.layout(), payload.layout());
            for g in [&sim as &dyn Backend, &cpu] {
                let on = format!("{} on {}", pair, g.kind());
                match decode(g, kind, payload) {
                    Ok(result) => assert!(runs && result.symbols == symbols, "{}", on),
                    Err(err) => {
                        assert!(!runs && err == mismatch, "{}: {}", on, err);
                        assert!(!err.to_string().is_empty() && !err.reason().is_empty());
                    }
                }
                // A hybrid payload decodes whole: it has no index to prepare.
                let prepares = runs && kind.layout() != StreamLayout::Hybrid;
                match prepare_decode(g, kind, payload) {
                    Ok(_) => assert!(prepares, "{}", on),
                    Err(err) => assert!(!prepares && err == mismatch, "{}: {}", on, err),
                }
            }
        }
    }
}

/// Rewrites the decoder tag of the archive at the front of `bytes` to `kind`, with a
/// header checksum that matches, so only the pairing of tag and sections is wrong.
fn relabel(bytes: &mut [u8], kind: DecoderKind) {
    bytes[6] = kind.tag();
    let crc = huffdec_core::crc32(&bytes[..HEADER_BYTES]);
    bytes[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn a_section_outside_the_header_layout_is_refused() {
    let symbols = symbols();
    let gapped = compress_for(DecoderKind::OptimizedGapArray, &symbols, ALPHABET);
    let mut bytes = payload_to_bytes(&gapped, DecoderKind::OptimizedGapArray).unwrap();
    relabel(&mut bytes, DecoderKind::OptimizedSelfSync);
    assert!(matches!(
        read_one_archive(&bytes),
        Err(ContainerError::UnexpectedSection {
            section: SectionKind::GapArray
        })
    ));

    // Every archive relabelled to a decoder of another layout is refused.
    for written in KINDS {
        let payload = compress_for(written, &symbols, ALPHABET);
        let bytes = payload_to_bytes(&payload, written).unwrap();
        for kind in KINDS.into_iter().filter(|k| k.layout() != written.layout()) {
            let mut relabelled = bytes.clone();
            relabel(&mut relabelled, kind);
            assert!(
                read_one_archive(&relabelled).is_err(),
                "{:?} archive read as {:?}",
                written,
                kind
            );
        }
    }
}

/// The field pipeline takes the same pairs: a field compressed for one decoder and
/// relabelled to another decompresses, to the same data, exactly where the layouts pair,
/// and is a typed mismatch everywhere else.
#[test]
fn a_relabelled_field_decompresses_only_where_its_layout_pairs() {
    let field = generate(&dataset_by_name("CESM").unwrap(), 20_000, 5);
    let sim = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
    for written in KINDS {
        let honest = compress(&field, &SzConfig::paper_default(written));
        let expected = decompress(&sim, &honest).unwrap().data;
        for kind in KINDS {
            let mut relabelled = honest.clone();
            relabelled.config.decoder = kind;
            let runs = decodes(kind.layout(), written.layout());
            for g in [&sim as &dyn Backend, &cpu] {
                let on = format!("{:?} field as {:?} on {}", written, kind, g.kind());
                match decompress(g, &relabelled) {
                    Ok(d) => assert!(runs && d.data == expected, "{}", on),
                    Err(err) => assert!(
                        !runs && err == DecodeError::PayloadMismatch { decoder: kind },
                        "{}: {}",
                        on,
                        err
                    ),
                }
            }
        }
    }
}
