//! The structure-aware mutation engine shared by `fuzz_smoke.rs` and
//! `read_differential.rs`: a seed corpus of valid `HFZ1`/`HFZ2` artifacts, a walk over
//! their real section framing, and *structured* mutations — tag swaps, payload rewrites
//! re-framed with a **valid CRC** (so the semantic parsers — manifest, codebook
//! dictionary, tuning hints, hybrid streams — actually run on the mutated bytes instead
//! of dying at the checksum), section duplication/deletion, length-field lies, and
//! cross-artifact splices.
#![allow(dead_code)]

use datasets::{dataset_by_name, generate, Rng};
use huffdec_container::{
    manifest_leads, section::write_section, snapshot_to_bytes, to_bytes, SectionKind, HEADER_BYTES,
};
use huffdec_core::DecoderKind;
use sz::{compress, Compressed, SzConfig};

pub fn walk_field(n: usize, zero_pct: u64, seed: u64) -> datasets::Field {
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

pub fn hybrid_compressed(zero_pct: u64, seed: u64) -> Compressed {
    compress(
        &walk_field(10_000, zero_pct, seed),
        &SzConfig {
            error_bound: sz::ErrorBound::Absolute(0.5),
            alphabet_size: 1024,
            decoder: DecoderKind::RleHybrid,
        },
    )
}

/// Seed corpus: a v1 archive, a v2 hybrid archive, a v1 snapshot, and a v2 snapshot
/// carrying a codebook dictionary, tuning hints, and a hybrid shard.
pub fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let dense = |decoder| {
        compress(
            &generate(&dataset_by_name("HACC").unwrap(), 10_000, 31),
            &SzConfig::paper_default(decoder),
        )
    };
    let gap = dense(DecoderKind::OptimizedGapArray);
    let sync = dense(DecoderKind::OptimizedSelfSync);
    let hybrid = hybrid_compressed(95, 32);

    let v1_archive = to_bytes(&gap).unwrap();
    let v2_archive = to_bytes(&hybrid).unwrap();
    let v1_snapshot = snapshot_to_bytes(&[("a", &gap), ("b", &sync)]).unwrap();
    let v2_snapshot = snapshot_to_bytes(&[("hy", &hybrid), ("d1", &gap), ("d2", &gap)]).unwrap();
    vec![
        ("v1-archive", v1_archive),
        ("v2-hybrid-archive", v2_archive),
        ("v1-snapshot", v1_snapshot),
        ("v2-snapshot", v2_snapshot),
    ]
}

/// `(at, tag, payload_start, payload_len, frame_total)` for each well-formed section
/// frame in `bytes`, starting after any archive header.
pub fn frames(bytes: &[u8]) -> Vec<(usize, u8, usize, usize, usize)> {
    let mut at = if manifest_leads(bytes) {
        0
    } else {
        HEADER_BYTES + 4
    };
    let mut out = Vec::new();
    while at + 12 <= bytes.len() {
        let tag = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let total = 12 + len + 4;
        if at + total > bytes.len() {
            break;
        }
        out.push((at, tag, at + 12, len, total));
        at += total;
        // Snapshots concatenate shard archives after the prologue sections and after
        // each shard's end marker: step over the shard header so the walk keeps
        // finding frames. A section tag byte is never 'H', so this cannot misfire.
        if at + 4 <= bytes.len() && (&bytes[at..at + 4] == b"HFZ1" || &bytes[at..at + 4] == b"HFZ2")
        {
            at += HEADER_BYTES + 4;
        } else if tag == SectionKind::End.tag() {
            break;
        }
    }
    out
}

pub fn reframe(kind_tag: u8, payload: &[u8]) -> Option<Vec<u8>> {
    let kind = SectionKind::from_tag(kind_tag)?;
    let mut out = Vec::new();
    write_section(&mut out, kind, payload).ok()?;
    Some(out)
}

/// Apply one structured mutation. Returns the mutated artifact.
pub fn mutate(bytes: &[u8], donor: &[u8], rng: &mut Rng) -> Vec<u8> {
    let sections = frames(bytes);
    if sections.is_empty() {
        let mut out = bytes.to_vec();
        if !out.is_empty() {
            let pos = rng.gen_index(out.len());
            out[pos] ^= 1 << rng.gen_index(8);
        }
        return out;
    }
    let (at, tag, payload_at, payload_len, total) = sections[rng.gen_index(sections.len())];
    match rng.gen_index(8) {
        // Rewrite the payload and re-frame with a valid CRC so the semantic parser
        // (manifest / dict / hints / hybrid / codebook) chews on the mutation.
        0 => {
            let mut payload = bytes[payload_at..payload_at + payload_len].to_vec();
            match rng.gen_index(4) {
                0 if !payload.is_empty() => {
                    let pos = rng.gen_index(payload.len());
                    payload[pos] ^= 1 << rng.gen_index(8);
                }
                1 => payload.truncate(rng.gen_index(payload.len() + 1)),
                2 => payload.extend((0..1 + rng.gen_index(16)).map(|i| i as u8)),
                _ if payload.len() >= 4 => {
                    // Clobber a leading count/length word with a huge value.
                    payload[..4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
                }
                _ => payload.push(0),
            }
            match reframe(tag, &payload) {
                Some(section) => splice(bytes, at, total, &section),
                None => bytes.to_vec(),
            }
        }
        // Swap the section tag, keeping the payload and a valid CRC.
        1 => {
            let new_tag = rng.gen_index(13) as u8;
            match reframe(new_tag, &bytes[payload_at..payload_at + payload_len]) {
                Some(section) => splice(bytes, at, total, &section),
                None => bytes.to_vec(),
            }
        }
        // Duplicate the section in place.
        2 => {
            let mut out = bytes[..at + total].to_vec();
            out.extend_from_slice(&bytes[at..at + total]);
            out.extend_from_slice(&bytes[at + total..]);
            out
        }
        // Delete the section.
        3 => splice(bytes, at, total, &[]),
        // Lie in the length field (leaves the CRC stale as a bonus).
        4 => {
            let mut out = bytes.to_vec();
            let lie = match rng.gen_index(3) {
                0 => 0u64,
                1 => payload_len as u64 + 1 + rng.gen_index(64) as u64,
                _ => u64::MAX / 2,
            };
            out[at + 4..at + 12].copy_from_slice(&lie.to_le_bytes());
            out
        }
        // Truncate inside the section.
        5 => bytes[..at + rng.gen_index(total)].to_vec(),
        // Splice a random frame from the donor artifact over this one.
        6 => {
            let donor_sections = frames(donor);
            if donor_sections.is_empty() {
                return bytes.to_vec();
            }
            let (d_at, _, _, _, d_total) = donor_sections[rng.gen_index(donor_sections.len())];
            splice(bytes, at, total, &donor[d_at..d_at + d_total])
        }
        // Flip a raw bit inside the frame (header, payload, or CRC).
        _ => {
            let mut out = bytes.to_vec();
            let pos = at + rng.gen_index(total);
            out[pos] ^= 1 << rng.gen_index(8);
            out
        }
    }
}

pub fn splice(bytes: &[u8], at: usize, replaced: usize, with: &[u8]) -> Vec<u8> {
    let mut out = bytes[..at].to_vec();
    out.extend_from_slice(with);
    out.extend_from_slice(&bytes[at + replaced..]);
    out
}
