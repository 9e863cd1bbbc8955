//! The corruption matrix of the `HFZ1` reader: every way an archive can be damaged must
//! surface as a typed [`ContainerError`] — never a panic, never a silently wrong
//! reconstruction — plus randomized round-trip property tests across every decoder kind.

use datasets::{dataset_by_name, generate, Rng};
use gpu_sim::{Gpu, GpuConfig};
use huffdec_container::{
    from_bytes, payload_to_bytes, read_info, read_one_archive, read_snapshot_with_info,
    snapshot_to_bytes, to_bytes, Archive, ContainerError, Snapshot, HEADER_BYTES,
};
use huffdec_core::{
    compress_for, decode, prepare_decode, Backend, CompressedPayload, CpuBackend, DecodeError,
    DecoderKind,
};
use sz::{compress, decompress, Compressed, SzConfig};

fn gpu() -> Gpu {
    Gpu::with_host_threads(GpuConfig::test_tiny(), 2)
}

fn sample_archive(decoder: DecoderKind) -> Vec<u8> {
    let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, 9);
    let compressed = compress(&field, &SzConfig::paper_default(decoder));
    to_bytes(&compressed).expect("serialization of a valid archive succeeds")
}

// --- Corruption matrix -----------------------------------------------------------------

#[test]
fn truncation_at_every_boundary_is_typed() {
    let bytes = sample_archive(DecoderKind::OptimizedGapArray);
    // A representative set of cut points: inside the header, at the header boundary,
    // inside each subsequent region, and one byte short of the end.
    let cuts = [
        0,
        1,
        HEADER_BYTES / 2,
        HEADER_BYTES - 1,
        HEADER_BYTES,
        HEADER_BYTES + 5,
        HEADER_BYTES + 100,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for cut in cuts {
        let truncated = &bytes[..cut];
        match from_bytes(truncated) {
            Err(ContainerError::Truncated { .. }) => {}
            other => panic!(
                "cut at {} byte(s): expected Truncated, got {:?}",
                cut, other
            ),
        }
    }
}

#[test]
fn every_possible_truncation_never_panics() {
    let bytes = sample_archive(DecoderKind::OptimizedSelfSync);
    for cut in 0..bytes.len() {
        assert!(
            from_bytes(&bytes[..cut]).is_err(),
            "cut {} unexpectedly parsed",
            cut
        );
    }
}

#[test]
fn flipped_magic_is_bad_magic() {
    let mut bytes = sample_archive(DecoderKind::OptimizedGapArray);
    bytes[0] ^= 0xFF;
    assert!(matches!(
        from_bytes(&bytes),
        Err(ContainerError::BadMagic { .. })
    ));
}

#[test]
fn wrong_version_is_unsupported_version() {
    let mut bytes = sample_archive(DecoderKind::OptimizedGapArray);
    bytes[4] = 0xFE;
    bytes[5] = 0x00;
    assert!(matches!(
        from_bytes(&bytes),
        Err(ContainerError::UnsupportedVersion {
            found: 0xFE,
            supported: 1
        })
    ));
}

#[test]
fn every_single_bit_flip_errors_or_reconstructs_consistently() {
    // Flip each bit of each byte across the archive prefix (header + codebook + start of
    // the stream). Whatever the reader does, it must not panic; flips in section bodies
    // must be caught by the CRC.
    let bytes = sample_archive(DecoderKind::OptimizedGapArray);
    let probe = bytes.len().min(2000);
    for byte in 0..probe {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            let _ = from_bytes(&corrupt); // must return, never panic
        }
    }
}

#[test]
fn header_bit_flip_is_header_checksum_mismatch() {
    let bytes = sample_archive(DecoderKind::OptimizedGapArray);
    // Flip bits across the whole header body (past magic and version, which have their
    // own specific errors) and in the header CRC itself.
    for byte in 6..HEADER_BYTES + 4 {
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 0x10;
        if corrupt[byte] == bytes[byte] {
            continue;
        }
        assert!(
            matches!(
                from_bytes(&corrupt),
                Err(ContainerError::HeaderChecksumMismatch { .. })
            ),
            "flip at header byte {} not caught by the header checksum",
            byte
        );
    }
}

#[test]
fn section_body_bit_flip_is_checksum_mismatch() {
    let bytes = sample_archive(DecoderKind::OptimizedGapArray);
    // Flip a bit inside a section payload (past the CRC'd header and the 12-byte frame).
    let mut corrupt = bytes.clone();
    corrupt[HEADER_BYTES + 4 + 20] ^= 0x04;
    assert!(matches!(
        from_bytes(&corrupt),
        Err(ContainerError::ChecksumMismatch { .. })
    ));
}

#[test]
fn random_bit_flips_error_out_as_checksum_or_invalid() {
    let bytes = sample_archive(DecoderKind::CuszBaseline);
    let mut rng = Rng::seed_from_u64(0xBADC0DE);
    for _ in 0..200 {
        let mut corrupt = bytes.clone();
        let pos = rng.gen_index(corrupt.len());
        corrupt[pos] ^= 1 << rng.gen_index(8);
        assert!(
            from_bytes(&corrupt).is_err(),
            "flip at byte {} went undetected",
            pos
        );
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Rng::seed_from_u64(0xFACADE);
    for round in 0..300 {
        let len = rng.gen_index(600);
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert!(
            from_bytes(&garbage).is_err(),
            "garbage round {} parsed",
            round
        );
        assert!(read_info(&mut garbage.as_slice()).is_err());
    }
}

#[test]
fn garbage_with_valid_magic_never_panics() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for _ in 0..300 {
        let len = 6 + rng.gen_index(600);
        let mut garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        garbage[..4].copy_from_slice(b"HFZ1");
        garbage[4] = 1; // plausible version
        garbage[5] = 0;
        assert!(from_bytes(&garbage).is_err());
    }
}

#[test]
fn trailing_garbage_after_archive_rejected() {
    let mut bytes = sample_archive(DecoderKind::OptimizedSelfSync);
    bytes.push(0xAA);
    assert!(matches!(
        from_bytes(&bytes),
        Err(ContainerError::Invalid { .. })
    ));
}

#[test]
fn payload_archive_is_not_a_field_archive() {
    let symbols: Vec<u16> = (0..10_000u32).map(|i| (512 + (i % 5)) as u16).collect();
    let payload = compress_for(DecoderKind::OptimizedSelfSync, &symbols, 1024);
    let bytes = payload_to_bytes(&payload, DecoderKind::OptimizedSelfSync).unwrap();
    assert!(matches!(
        from_bytes(&bytes),
        Err(ContainerError::Invalid { .. })
    ));
    // But it reads fine as a generic archive.
    assert!(matches!(
        read_one_archive(&bytes),
        Ok(Archive::Payload { .. })
    ));
}

/// A stream (and dims) that declare more or fewer symbols than the bits hold is
/// structurally valid — every section parses and every CRC matches — so only the decode
/// can notice. It must refuse with the typed corrupt-stream error, full and ranged, on
/// both backends (the CPU backend's full decode is its own walk), never hand back a field
/// of the wrong length.
#[test]
fn wrong_declared_symbol_count_is_a_corrupt_stream_not_a_short_field() {
    let (sim, cpu) = (
        gpu(),
        CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2),
    );
    let field = walk_field(20_000, 10, 33);
    for decoder in [
        DecoderKind::OptimizedGapArray,
        DecoderKind::OptimizedSelfSync,
        DecoderKind::OriginalSelfSync,
    ] {
        let honest = compress(&field, &walk_config(decoder));
        for declared in [21_000usize, 19_000] {
            let mut lying = honest.clone();
            let CompressedPayload::Flat(stream) = &mut lying.payload else {
                panic!("{:?} compresses to a flat stream", decoder);
            };
            stream.num_symbols = declared;
            lying.dims = datasets::Dims::D1(declared);
            lying.outliers.retain(|o| (o.index as usize) < declared);
            let reopened = from_bytes(&to_bytes(&lying).unwrap())
                .unwrap_or_else(|e| panic!("{:?}/{}: must open cleanly: {}", decoder, declared, e));
            let corrupt = DecodeError::CorruptStream { decoder };
            for g in [&sim as &dyn Backend, &cpu] {
                let context = format!("{:?}/{} on {}", decoder, declared, g.kind());
                assert_eq!(
                    decompress(g, &reopened).unwrap_err(),
                    corrupt,
                    "{}",
                    context
                );
                assert_eq!(
                    prepare_decode(g, decoder, &reopened.payload).unwrap_err(),
                    corrupt,
                    "{}: ranged requests build on prepare_decode",
                    context
                );
            }
        }
    }
}

// --- Snapshot manifest corruption matrix -----------------------------------------------

fn sample_snapshot() -> (Vec<(String, Compressed)>, Vec<u8>) {
    let decoders = [
        DecoderKind::OptimizedGapArray,
        DecoderKind::OptimizedSelfSync,
        DecoderKind::CuszBaseline,
    ];
    let fields: Vec<(String, Compressed)> = ["xx", "yy", "zz"]
        .iter()
        .zip(decoders)
        .enumerate()
        .map(|(i, (name, decoder))| {
            let field = generate(&dataset_by_name("HACC").unwrap(), 12_000, 50 + i as u64);
            (
                name.to_string(),
                compress(&field, &SzConfig::paper_default(decoder)),
            )
        })
        .collect();
    let refs: Vec<(&str, &Compressed)> = fields.iter().map(|(n, c)| (n.as_str(), c)).collect();
    let bytes = snapshot_to_bytes(&refs).unwrap();
    (fields, bytes)
}

/// Byte length of the leading manifest section (frame + payload + CRC).
fn manifest_section_len(bytes: &[u8]) -> usize {
    assert!(huffdec_container::manifest_leads(bytes));
    let payload_len = u64::from_le_bytes(bytes[4..12].try_into().unwrap()) as usize;
    12 + payload_len + 4
}

#[test]
fn truncated_manifest_is_typed_at_every_cut() {
    let (_, bytes) = sample_snapshot();
    let end = manifest_section_len(&bytes);
    for cut in 0..end {
        match Snapshot::parse(&bytes[..cut]) {
            // A cut inside the manifest section is truncation; a cut so early that the
            // prologue no longer looks like a manifest leaves a file whose shard
            // extents cannot match.
            Err(_) => {}
            Ok(snapshot) => assert!(
                snapshot.manifest().is_none() && snapshot.read_field(0).is_err(),
                "cut at {} parsed a manifest from a truncated prologue",
                cut
            ),
        }
    }
}

#[test]
fn manifest_bit_flip_fails_the_section_checksum() {
    let (_, bytes) = sample_snapshot();
    let end = manifest_section_len(&bytes);
    // Flip bits across the manifest payload (past the 12-byte frame) and in its CRC.
    for byte in 12..end {
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 0x20;
        assert!(
            matches!(
                Snapshot::parse(&corrupt),
                Err(ContainerError::ChecksumMismatch {
                    section: huffdec_container::SectionKind::Manifest,
                    ..
                })
            ),
            "flip at manifest byte {} not caught by the section checksum",
            byte
        );
    }
}

#[test]
fn manifest_shard_past_eof_rejected() {
    let (fields, bytes) = sample_snapshot();
    // Drop the last shard: the manifest now points past the end of the file.
    let (_, infos) = read_snapshot_with_info(&bytes).unwrap();
    let last = infos.last().unwrap().0.total_bytes as usize;
    let truncated = &bytes[..bytes.len() - last];
    assert!(matches!(
        Snapshot::parse(truncated),
        Err(ContainerError::Invalid { .. })
    ));
    // Extra trailing bytes beyond the last shard are equally corruption.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 16]);
    assert!(Snapshot::parse(&padded).is_err());
    let _ = fields;
}

#[test]
fn duplicate_field_names_rejected_at_write_and_read() {
    let field = generate(&dataset_by_name("CESM").unwrap(), 10_000, 3);
    let compressed = compress(
        &field,
        &SzConfig::paper_default(DecoderKind::OptimizedGapArray),
    );
    // The writer refuses duplicates outright.
    assert!(matches!(
        snapshot_to_bytes(&[("dup", &compressed), ("dup", &compressed)]),
        Err(ContainerError::Invalid { .. })
    ));
    // A hand-crafted manifest with duplicate names is rejected by the parser even with
    // a valid section CRC: rewrite a valid 2-field snapshot's second name to collide.
    let bytes = snapshot_to_bytes(&[("aa", &compressed), ("bb", &compressed)]).unwrap();
    let payload_len = u64::from_le_bytes(bytes[4..12].try_into().unwrap()) as usize;
    let mut payload = bytes[12..12 + payload_len].to_vec();
    let pos = payload
        .windows(2)
        .position(|w| w == b"bb")
        .expect("second field name present");
    payload[pos..pos + 2].copy_from_slice(b"aa");
    let mut corrupt = Vec::new();
    huffdec_container::section::write_section(
        &mut corrupt,
        huffdec_container::SectionKind::Manifest,
        &payload,
    )
    .unwrap();
    corrupt.extend_from_slice(&bytes[12 + payload_len + 4..]);
    assert!(matches!(
        Snapshot::parse(&corrupt),
        Err(ContainerError::Invalid { .. })
    ));
}

#[test]
fn manifest_inside_an_archive_rejected() {
    // Splice a (CRC-valid) manifest section into an archive's section sequence: the
    // reader must reject it — manifests are file prologues only.
    let bytes = sample_archive(DecoderKind::OptimizedGapArray);
    let (_, snapshot_bytes) = sample_snapshot();
    let m_end = manifest_section_len(&snapshot_bytes);
    let header_end = HEADER_BYTES + 4;
    let mut spliced = Vec::new();
    spliced.extend_from_slice(&bytes[..header_end]);
    spliced.extend_from_slice(&snapshot_bytes[..m_end]);
    spliced.extend_from_slice(&bytes[header_end..]);
    assert!(matches!(
        from_bytes(&spliced),
        Err(ContainerError::Invalid { .. })
    ));
    assert!(read_info(&mut spliced.as_slice()).is_err());
}

/// A manifest whose entry lies about its shard — CRC-valid, extents intact — must be
/// refused by the load path exactly as by the manifest seek: both read the shard the
/// same way and cross-check it against the entry.
#[test]
fn lying_manifest_entry_is_refused_by_seek_and_load_alike() {
    let (_, bytes) = sample_snapshot();
    let honest = Snapshot::parse(&bytes).unwrap();
    let mut entries = honest.manifest().unwrap().entries().to_vec();
    entries[1].num_symbols += 7;
    entries[1].decoded_crc = entries[1].decoded_crc.map(|crc| !crc);
    let manifest = huffdec_container::SnapshotManifest::new(entries).unwrap();
    let mut lying = Vec::new();
    huffdec_container::section::write_section(
        &mut lying,
        huffdec_container::SectionKind::Manifest,
        &huffdec_container::codec::encode_manifest(&manifest),
    )
    .unwrap();
    assert_eq!(
        lying.len(),
        manifest_section_len(&bytes),
        "same-length splice"
    );
    lying.extend_from_slice(honest.archive_bytes());

    let snapshot = Snapshot::parse(&lying).expect("prologue and extents stay valid");
    assert!(
        snapshot.read_field(0).is_ok(),
        "the honest entries still read"
    );
    for (path, result) in [
        ("read_field", snapshot.read_field(1).map(drop)),
        (
            "read_snapshot_with_info",
            read_snapshot_with_info(&lying).map(drop),
        ),
    ] {
        match result {
            Err(ContainerError::Invalid { reason }) => {
                assert_eq!(
                    reason, "manifest entry disagrees with its shard",
                    "{}",
                    path
                )
            }
            other => panic!(
                "{}: expected the cross-check to refuse, got {:?}",
                path, other
            ),
        }
    }
}

#[test]
fn snapshot_bit_flips_and_garbage_never_panic() {
    let (_, bytes) = sample_snapshot();
    let mut rng = Rng::seed_from_u64(0x5A5A_0FF5);
    for _ in 0..200 {
        let mut corrupt = bytes.clone();
        let pos = rng.gen_index(corrupt.len());
        corrupt[pos] ^= 1 << rng.gen_index(8);
        // Either the parse fails, or (flip landed in an unread shard) field reads
        // catch it; nothing panics and nothing silently misparses the flipped shard.
        if let Ok(snapshot) = Snapshot::parse(&corrupt) {
            let manifest = snapshot.manifest().cloned();
            if let Some(m) = manifest {
                for i in 0..m.len() {
                    let _ = snapshot.read_field(i);
                }
            }
        }
        let _ = read_snapshot_with_info(&corrupt);
    }
}

// --- Format v2 corruption matrix -------------------------------------------------------

/// A sparse bounded random walk that quantizes to a center-bin-heavy stream under an
/// absolute bound of 0.5.
fn walk_field(n: usize, zero_pct: u64, seed: u64) -> datasets::Field {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut value = 0.0f32;
    let data: Vec<f32> = (0..n)
        .map(|_| {
            if rng() % 100 >= zero_pct {
                value += (rng() % 401) as f32 - 200.0;
            }
            value
        })
        .collect();
    datasets::Field::new("walk".to_string(), datasets::Dims::D1(n), data)
}

fn walk_config(decoder: DecoderKind) -> SzConfig {
    SzConfig {
        error_bound: sz::ErrorBound::Absolute(0.5),
        alphabet_size: 1024,
        decoder,
    }
}

/// A v2 snapshot with every v2 section kind: one hybrid field (hybrid-stream), two
/// dense fields sharing a codebook (codebook dictionary + per-shard references), and
/// the decoder tuning hints.
fn sample_v2_snapshot() -> (Vec<(String, Compressed)>, Vec<u8>) {
    let sparse = walk_field(12_000, 95, 71);
    let dense = walk_field(12_000, 10, 72);
    let fields = vec![
        (
            "hy".to_string(),
            compress(&sparse, &walk_config(DecoderKind::RleHybrid)),
        ),
        (
            "d1".to_string(),
            compress(&dense, &walk_config(DecoderKind::OptimizedGapArray)),
        ),
        (
            "d2".to_string(),
            compress(&dense, &walk_config(DecoderKind::OptimizedGapArray)),
        ),
    ];
    let refs: Vec<(&str, &Compressed)> = fields.iter().map(|(n, c)| (n.as_str(), c)).collect();
    let bytes = snapshot_to_bytes(&refs).unwrap();
    (fields, bytes)
}

/// `(tag, payload_start, payload_len, frame_total)` of the section frame at `at`.
fn section_frame(bytes: &[u8], at: usize) -> (u8, usize, usize, usize) {
    let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
    (bytes[at], at + 12, len, 12 + len + 4)
}

/// Offsets of the prologue's dictionary and hints sections and the start of the shard
/// region in a v2 snapshot.
fn v2_prologue_layout(bytes: &[u8]) -> (usize, usize, usize) {
    let manifest_len = manifest_section_len(bytes);
    let (dict_tag, _, _, dict_total) = section_frame(bytes, manifest_len);
    assert_eq!(dict_tag, huffdec_container::SectionKind::CodebookDict.tag());
    let hints_at = manifest_len + dict_total;
    let (hints_tag, _, _, hints_total) = section_frame(bytes, hints_at);
    assert_eq!(hints_tag, huffdec_container::SectionKind::TuningHints.tag());
    (manifest_len, hints_at, hints_at + hints_total)
}

#[test]
fn hybrid_v2_archive_truncations_and_flips_are_typed() {
    let compressed = compress(
        &walk_field(12_000, 95, 73),
        &walk_config(DecoderKind::RleHybrid),
    );
    let bytes = to_bytes(&compressed).unwrap();
    assert_eq!(&bytes[..4], b"HFZ2");
    // Every truncation errors; none panics.
    for cut in 0..bytes.len() {
        assert!(
            from_bytes(&bytes[..cut]).is_err(),
            "cut {} unexpectedly parsed",
            cut
        );
    }
    // Every bit flip across the archive prefix returns (typed) rather than panics,
    // and flips inside the hybrid-stream body are caught by the section CRC.
    let probe = bytes.len().min(2000);
    for byte in 0..probe {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            let _ = from_bytes(&corrupt);
        }
    }
    let mut corrupt = bytes.clone();
    corrupt[HEADER_BYTES + 4 + 40] ^= 0x08;
    assert!(matches!(
        from_bytes(&corrupt),
        Err(ContainerError::ChecksumMismatch { .. })
    ));
}

#[test]
fn v2_prologue_bit_flips_fail_the_section_checksums() {
    let (_, bytes) = sample_v2_snapshot();
    let (dict_at, hints_at, _) = v2_prologue_layout(&bytes);
    for (at, kind) in [
        (dict_at, huffdec_container::SectionKind::CodebookDict),
        (hints_at, huffdec_container::SectionKind::TuningHints),
    ] {
        let (_, payload_at, payload_len, _) = section_frame(&bytes, at);
        // Flip a byte in the payload body and one in the trailing CRC.
        for target in [payload_at + payload_len / 2, payload_at + payload_len + 2] {
            let mut corrupt = bytes.clone();
            corrupt[target] ^= 0x11;
            match Snapshot::parse(&corrupt) {
                Err(ContainerError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, kind, "flip at {}", target)
                }
                other => panic!(
                    "flip in {} at {}: expected ChecksumMismatch, got {:?}",
                    kind, target, other
                ),
            }
        }
    }
}

#[test]
fn dangling_dictionary_id_is_typed() {
    let (fields, bytes) = sample_v2_snapshot();
    let (_, _, shards_at) = v2_prologue_layout(&bytes);
    // Walk the first dense shard (field index 1) to its codebook-ref section.
    let (_, infos) = read_snapshot_with_info(&bytes).unwrap();
    let shard_at = shards_at + infos[0].0.total_bytes as usize;
    let mut at = shard_at + HEADER_BYTES + 4;
    loop {
        let (tag, _, _, total) = section_frame(&bytes, at);
        if tag == huffdec_container::SectionKind::CodebookRef.tag() {
            break;
        }
        assert_ne!(tag, 0, "shard ended without a codebook-ref section");
        at += total;
    }
    let (_, _, payload_len, total) = section_frame(&bytes, at);
    assert_eq!(payload_len, 4, "a codebook ref is one u32 id");

    // Rewrite the reference to an id the dictionary does not hold, with a valid CRC.
    let mut reframed = Vec::new();
    huffdec_container::section::write_section(
        &mut reframed,
        huffdec_container::SectionKind::CodebookRef,
        &huffdec_container::codec::encode_codebook_ref(250),
    )
    .unwrap();
    assert_eq!(reframed.len(), total, "same-length splice");
    let mut corrupt = bytes.clone();
    corrupt[at..at + total].copy_from_slice(&reframed);

    let snapshot = Snapshot::parse(&corrupt).expect("prologue and framing stay valid");
    match snapshot.read_field(1) {
        Err(ContainerError::Invalid { reason }) => {
            assert!(reason.contains("dangling"), "reason: {}", reason)
        }
        other => panic!("expected a dangling-id error, got {:?}", other),
    }
    // The hybrid shard (index 0) is untouched and still reads.
    assert!(snapshot.read_field(0).is_ok());

    // The same shard extracted standalone has no dictionary at all: also typed.
    let shard_len = infos[1].0.total_bytes as usize;
    let shard = &bytes[shard_at..shard_at + shard_len];
    match read_one_archive(shard) {
        Err(ContainerError::Invalid { reason }) => {
            assert!(reason.contains("outside a snapshot"), "reason: {}", reason)
        }
        other => panic!("expected a no-dictionary error, got {:?}", other),
    }
    let _ = fields;
}

#[test]
fn duplicate_dictionary_entries_in_a_file_rejected() {
    let (_, bytes) = sample_v2_snapshot();
    let (dict_at, _, _) = v2_prologue_layout(&bytes);
    let (_, payload_at, payload_len, total) = section_frame(&bytes, dict_at);
    let payload = &bytes[payload_at..payload_at + payload_len];
    let count = u32::from_le_bytes(payload[..4].try_into().unwrap());
    assert_eq!(count, 1, "the dense twins dedup to one dictionary entry");

    // Duplicate the lone entry: count = 2, entry bytes twice, fresh section CRC.
    let mut doubled = 2u32.to_le_bytes().to_vec();
    doubled.extend_from_slice(&payload[4..]);
    doubled.extend_from_slice(&payload[4..]);
    let mut reframed = Vec::new();
    huffdec_container::section::write_section(
        &mut reframed,
        huffdec_container::SectionKind::CodebookDict,
        &doubled,
    )
    .unwrap();
    let mut corrupt = bytes[..dict_at].to_vec();
    corrupt.extend_from_slice(&reframed);
    corrupt.extend_from_slice(&bytes[dict_at + total..]);

    match Snapshot::parse(&corrupt) {
        Err(ContainerError::Invalid { reason }) => {
            assert!(reason.contains("duplicate"), "reason: {}", reason)
        }
        other => panic!("expected a duplicate-entry error, got {:?}", other),
    }
}

#[test]
fn v2_sections_inside_a_v1_archive_rejected() {
    let bytes = sample_archive(DecoderKind::OptimizedGapArray);
    assert_eq!(&bytes[..4], b"HFZ1");
    let header_end = HEADER_BYTES + 4;

    // Splice each CRC-valid v2 section kind into the v1 section sequence: the reader
    // must reject the version violation, not parse forward-compatibly.
    let hints = huffdec_container::TuningHints::new(vec![huffdec_container::TuningHint {
        decoder: DecoderKind::OptimizedGapArray,
        buffer_symbols: 4096,
    }])
    .unwrap();
    let sparse = compress(
        &walk_field(12_000, 95, 74),
        &walk_config(DecoderKind::RleHybrid),
    );
    let hybrid_bytes = to_bytes(&sparse).unwrap();
    let (hs_tag, hs_payload_at, hs_payload_len, _) = section_frame(&hybrid_bytes, HEADER_BYTES + 4);
    assert_eq!(hs_tag, huffdec_container::SectionKind::HybridStream.tag());

    let splices: Vec<(huffdec_container::SectionKind, Vec<u8>)> = vec![
        (
            huffdec_container::SectionKind::TuningHints,
            huffdec_container::codec::encode_tuning_hints(&hints),
        ),
        (
            huffdec_container::SectionKind::CodebookRef,
            huffdec_container::codec::encode_codebook_ref(0),
        ),
        (
            huffdec_container::SectionKind::HybridStream,
            hybrid_bytes[hs_payload_at..hs_payload_at + hs_payload_len].to_vec(),
        ),
    ];
    for (kind, payload) in splices {
        let mut section = Vec::new();
        huffdec_container::section::write_section(&mut section, kind, &payload).unwrap();
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&bytes[..header_end]);
        spliced.extend_from_slice(&section);
        spliced.extend_from_slice(&bytes[header_end..]);
        assert!(
            from_bytes(&spliced).is_err(),
            "v1 archive accepted a spliced {} section",
            kind
        );
        assert!(read_info(&mut spliced.as_slice()).is_err());
    }
}

#[test]
fn v2_snapshot_random_flips_and_truncations_never_panic() {
    let (_, bytes) = sample_v2_snapshot();
    let mut rng = Rng::seed_from_u64(0xD1C7_F1A6);
    for _ in 0..200 {
        let mut corrupt = bytes.clone();
        let pos = rng.gen_index(corrupt.len());
        corrupt[pos] ^= 1 << rng.gen_index(8);
        if let Ok(snapshot) = Snapshot::parse(&corrupt) {
            if let Some(m) = snapshot.manifest().cloned() {
                for i in 0..m.len() {
                    let _ = snapshot.read_field(i);
                }
            }
        }
        let _ = read_snapshot_with_info(&corrupt);
    }
    for _ in 0..100 {
        let cut = rng.gen_index(bytes.len());
        if let Ok(snapshot) = Snapshot::parse(&bytes[..cut]) {
            assert!(
                snapshot.manifest().is_none() || snapshot.read_field(0).is_err() || cut == 0,
                "cut {} silently served a truncated v2 snapshot",
                cut
            );
        }
    }
}

// --- Snapshot randomized round-trip ----------------------------------------------------

#[test]
fn randomized_multi_field_snapshot_roundtrip() {
    let g = gpu();
    let mut rng = Rng::seed_from_u64(0x54AB_5EED);
    let all_specs = datasets::all_datasets();
    for case in 0..6 {
        let field_count = 2 + rng.gen_index(4); // 2..=5 fields
        let fields: Vec<(String, Compressed)> = (0..field_count)
            .map(|i| {
                let spec = &all_specs[rng.gen_index(all_specs.len())];
                let decoder = DecoderKind::all()[rng.gen_index(4)];
                let elements = 5_000 + rng.gen_index(15_000);
                let data = generate(spec, elements, rng.next_u64());
                (
                    format!("{}-{}", spec.name, i),
                    compress(&data, &SzConfig::paper_default(decoder)),
                )
            })
            .collect();
        let refs: Vec<(&str, &Compressed)> = fields.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let bytes = snapshot_to_bytes(&refs).unwrap();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let manifest = snapshot.manifest().expect("snapshot carries a manifest");
        assert_eq!(manifest.len(), field_count);
        assert_eq!(snapshot.field_count().unwrap(), field_count);

        for (index, (name, original)) in fields.iter().enumerate() {
            // Manifest seek (by name) and sequential position agree, and both decode
            // bit-identically to the original in-memory archive.
            let by_name = snapshot.read_field_by_name(name).unwrap();
            let by_index = snapshot.read_field(index).unwrap();
            for archive in [by_name, by_index] {
                let restored = archive.into_field().expect("field archive");
                assert_eq!(restored.decoded_crc, original.decoded_crc);
                let a = decompress(&g, &restored).unwrap();
                let b = decompress(&g, original).unwrap();
                assert_eq!(
                    a.data, b.data,
                    "case {} field '{}': snapshot round-trip diverged",
                    case, name
                );
            }
        }
        assert!(snapshot.read_field_by_name("no-such-field").is_err());
        assert!(snapshot.read_field(field_count).is_err());

        // The load-time path sees the same manifest and fields.
        let (loaded_manifest, loaded) = read_snapshot_with_info(&bytes).unwrap();
        assert_eq!(loaded_manifest.as_ref(), Some(manifest));
        assert_eq!(loaded.len(), field_count);
    }
}

// --- Randomized round-trip property ----------------------------------------------------

fn random_symbols(rng: &mut Rng, max_len: usize) -> Vec<u16> {
    let len = 1 + rng.gen_index(max_len - 1);
    let spread = rng.gen_index(9) as u32;
    (0..len)
        .map(|_| {
            let r = (rng.next_u64() >> 32) as u32;
            let mag = r.trailing_zeros().min(spread) as i32;
            let sign = if (r >> 30) & 1 == 1 { 1 } else { -1 };
            (512 + sign * mag).clamp(0, 1023) as u16
        })
        .collect()
}

#[test]
fn randomized_payload_roundtrip_across_all_decoders() {
    let g = gpu();
    let mut rng = Rng::seed_from_u64(0x00F5_EED5);
    for case in 0..12 {
        let symbols = random_symbols(&mut rng, 30_000);
        for kind in DecoderKind::all() {
            let payload = compress_for(kind, &symbols, 1024);
            let bytes = payload_to_bytes(&payload, kind).unwrap();
            let Archive::Payload {
                payload: restored,
                decoder,
                alphabet_size,
            } = read_one_archive(&bytes).unwrap()
            else {
                panic!("expected payload archive");
            };
            assert_eq!(decoder, kind);
            assert_eq!(alphabet_size, 1024);
            assert_eq!(restored.num_symbols(), symbols.len());
            // Decoding the re-read payload is bit-exact vs the original symbols.
            let result = decode(&g, kind, &restored).expect("payload matches decoder");
            assert_eq!(result.symbols, symbols, "case {} decoder {:?}", case, kind);
        }
    }
}

#[test]
fn field_roundtrip_across_all_datasets_and_decoders() {
    let g = gpu();
    let mut seed = 100u64;
    for spec in datasets::all_datasets() {
        for kind in DecoderKind::all() {
            seed += 1;
            let field = generate(&spec, 15_000, seed);
            let compressed = compress(&field, &SzConfig::paper_default(kind));
            let bytes = to_bytes(&compressed).unwrap();
            let restored = from_bytes(&bytes).unwrap();

            // The reconstruction from the archive must be bit-exact against the
            // in-memory path and honour the error bound.
            let from_memory = decompress(&g, &compressed).unwrap();
            let from_archive = decompress(&g, &restored).unwrap();
            assert_eq!(
                from_archive.data, from_memory.data,
                "{} / {:?}: archive path diverged",
                spec.name, kind
            );
            let bound = 1e-3 * field.range_span() as f64;
            assert!(
                sz::verify_error_bound(&field.data, &from_archive.data, bound).is_none(),
                "{} / {:?}: error bound violated after archive round-trip",
                spec.name,
                kind
            );
        }
    }
}
