//! Differential test of the container's readers over the hostile corpus.
//!
//! `read_info` (`hfz inspect`), `read_one_archive` (open) and the load path
//! (`read_archives_with_info`, `read_snapshot_with_info`) are views of one structural
//! walk, so they must agree: whatever opens also inspects, with the very summary the
//! load path returns; whatever is structurally broken fails both; and a snapshot loads
//! exactly when every one of its fields reads by manifest seek. The inputs are the
//! mutations `fuzz_smoke.rs` generates plus the directed damage of the corruption
//! matrix (every truncation, a flip in every byte, duplicated and misplaced sections),
//! over `HFZ1`, `HFZ2`, hybrid and payload-only archives and manifest-led snapshots of
//! both versions.

use datasets::{dataset_by_name, generate, Rng};
use huffdec_container::section::{next_section, MAX_SECTION_BYTES};
use huffdec_container::{
    payload_to_bytes, read_archives_with_info, read_info, read_one_archive,
    read_snapshot_with_info, to_bytes_as, ArchiveInfo, ContainerError, FormatVersion, SectionKind,
    Snapshot, HEADER_BYTES,
};
use huffdec_core::{compress_for, DecoderKind};
use sz::{compress, SzConfig};

mod common;
use common::{corpus, frames, mutate, reframe, splice};

const MUTATIONS_PER_SEED: usize = 250;

/// The fuzz corpus plus the two archive kinds it lacks: a dense `HFZ2` archive and a
/// payload-only one.
fn full_corpus() -> Vec<(&'static str, Vec<u8>)> {
    let dense = compress(
        &generate(&dataset_by_name("CESM").unwrap(), 10_000, 41),
        &SzConfig::paper_default(DecoderKind::CuszBaseline),
    );
    let symbols: Vec<u16> = (0..10_000u32).map(|i| (512 + (i % 7)) as u16).collect();
    let payload = compress_for(DecoderKind::OptimizedSelfSync, &symbols, 1024);
    let mut corpus = corpus();
    corpus.push((
        "v2-dense-archive",
        to_bytes_as(&dense, FormatVersion::V2).unwrap(),
    ));
    corpus.push((
        "payload-only",
        payload_to_bytes(&payload, DecoderKind::OptimizedSelfSync).unwrap(),
    ));
    corpus
}

fn assert_same_info(a: &ArchiveInfo, b: &ArchiveInfo, what: &str) {
    assert_eq!(a.sections, b.sections, "{}: sections", what);
    assert_eq!(a.num_symbols, b.num_symbols, "{}: num_symbols", what);
    assert_eq!(a.decoded_crc, b.decoded_crc, "{}: decoded_crc", what);
    assert_eq!(a.dict_id, b.dict_id, "{}: dict_id", what);
    assert_eq!(a.total_bytes, b.total_bytes, "{}: total_bytes", what);
}

/// What must hold for any input at all.
fn check(bytes: &[u8], what: &str) {
    let inspected = read_info(&mut &bytes[..]);
    if let Ok(archive) = read_one_archive(bytes) {
        let inspected = inspected.unwrap_or_else(|e| panic!("{}: opens, inspect says {}", what, e));
        let loaded = read_archives_with_info(bytes)
            .unwrap_or_else(|e| panic!("{}: opens, the load path says {}", what, e));
        assert_eq!(loaded.len(), 1, "{}", what);
        assert_same_info(&inspected, &loaded[0].0, what);
        assert_eq!(inspected.total_bytes, bytes.len() as u64, "{}", what);
        assert_eq!(
            inspected.num_symbols,
            archive.payload().num_symbols() as u64,
            "{}",
            what
        );
    }

    let Ok(snapshot) = Snapshot::parse(bytes) else {
        assert!(read_snapshot_with_info(bytes).is_err(), "{}", what);
        return;
    };
    let Some(manifest) = snapshot.manifest() else {
        return;
    };
    let every_seek_reads = (0..manifest.len()).all(|i| snapshot.read_field(i).is_ok());
    let loaded = read_snapshot_with_info(bytes);
    assert_eq!(
        loaded.is_ok(),
        every_seek_reads,
        "{}: the load path and the seek path disagree ({:?})",
        what,
        loaded.as_ref().err()
    );
    if let Ok((_, fields)) = loaded {
        for (entry, (info, _)) in manifest.entries().iter().zip(&fields) {
            let (lo, hi) = (
                entry.offset as usize,
                (entry.offset + entry.length) as usize,
            );
            let shard = &snapshot.archive_bytes()[lo..hi];
            let inspected = read_info(&mut &shard[..])
                .unwrap_or_else(|e| panic!("{} '{}': loads, inspect says {}", what, entry.name, e));
            assert_same_info(&inspected, info, what);
            assert_eq!(info.num_symbols, entry.num_symbols, "{}", what);
        }
    }
}

/// `bytes` is structurally broken: neither view may accept it.
fn assert_structural(bytes: &[u8], what: &str) {
    assert!(
        read_info(&mut &bytes[..]).is_err(),
        "{}: inspect accepted it",
        what
    );
    assert!(
        read_one_archive(bytes).is_err(),
        "{}: open accepted it",
        what
    );
    check(bytes, what);
}

#[test]
fn pristine_corpus_agrees() {
    for (name, bytes) in full_corpus() {
        check(&bytes, name);
        let is_snapshot = Snapshot::parse(&bytes).unwrap().manifest().is_some();
        assert_eq!(read_one_archive(&bytes).is_ok(), !is_snapshot, "{}", name);
        assert!(read_snapshot_with_info(&bytes).is_ok(), "{}", name);
    }
}

#[test]
fn structural_damage_fails_inspect_and_open_alike() {
    let corpus = full_corpus();
    let v2_snapshot = &corpus.iter().find(|(n, _)| *n == "v2-snapshot").unwrap().1;
    // The three prologue sections of the v2 snapshot, as CRC-valid frames.
    let prologue: Vec<&[u8]> = frames(v2_snapshot)
        .into_iter()
        .take(3)
        .map(|(at, _, _, _, total)| &v2_snapshot[at..at + total])
        .collect();
    assert_eq!(
        prologue.iter().map(|f| f[0]).collect::<Vec<_>>(),
        [
            SectionKind::Manifest.tag(),
            SectionKind::CodebookDict.tag(),
            SectionKind::TuningHints.tag()
        ]
    );
    let header_end = HEADER_BYTES + 4;

    for (name, bytes) in &corpus {
        if read_one_archive(bytes).is_err() {
            continue; // snapshots: their shards are covered through `check`
        }
        // Every truncation, and one flipped bit in every byte.
        for cut in 0..bytes.len() {
            assert_structural(&bytes[..cut], &format!("{} cut at {}", name, cut));
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            assert_structural(&flipped, &format!("{} flip at {}", name, at));
        }
        // Each section stored twice; the end marker carrying a payload.
        for (at, tag, _, _, total) in frames(bytes) {
            if tag == SectionKind::End.tag() {
                let end = reframe(tag, &[0]).unwrap();
                assert_structural(
                    &splice(bytes, at, total, &end),
                    &format!("{} fat end", name),
                );
            } else {
                let twice = splice(bytes, at, 0, &bytes[at..at + total]);
                let what = format!("{} duplicate tag {}", name, tag);
                assert!(
                    matches!(
                        read_info(&mut &twice[..]),
                        Err(ContainerError::DuplicateSection { .. })
                    ),
                    "{}",
                    what
                );
                assert_structural(&twice, &what);
            }
        }
        // A snapshot prologue section inside the archive.
        for frame in &prologue {
            let spliced = splice(bytes, header_end, 0, frame);
            assert_structural(&spliced, &format!("{} prologue tag {}", name, frame[0]));
        }
        // A format-v2 section inside a version-1 archive.
        if &bytes[..4] == b"HFZ1" {
            let v2_section = reframe(SectionKind::CodebookRef.tag(), &0u32.to_le_bytes()).unwrap();
            let spliced = splice(bytes, header_end, 0, &v2_section);
            assert_structural(&spliced, &format!("{} v2 section", name));
        }
    }
}

#[test]
fn lying_section_length_is_truncation_before_anything_is_sized_by_it() {
    for claimed in [53, 1 << 20, u32::MAX as u64 + 1, MAX_SECTION_BYTES] {
        let mut input = vec![0u8; 64];
        input[0] = SectionKind::FlatStream.tag();
        input[4..12].copy_from_slice(&claimed.to_le_bytes());
        assert!(
            matches!(
                next_section(&mut input.as_slice()),
                Err(ContainerError::Truncated {
                    context: "section payload"
                })
            ),
            "claimed length {}",
            claimed
        );
    }
}

#[test]
fn mutated_corpus_never_splits_the_views() {
    let corpus = full_corpus();
    for (i, (name, bytes)) in corpus.iter().enumerate() {
        let donor = &corpus[(i + 1) % corpus.len()].1;
        let mut rng = Rng::seed_from_u64(0xD1FF_u64 ^ ((i as u64) << 8));
        for round in 0..MUTATIONS_PER_SEED {
            let mutated = mutate(bytes, donor, &mut rng);
            check(&mutated, &format!("{} round {}", name, round));
            if round % 5 == 0 {
                let stacked = mutate(&mutated, bytes, &mut rng);
                check(&stacked, &format!("{} round {} stacked", name, round));
            }
        }
    }
}
