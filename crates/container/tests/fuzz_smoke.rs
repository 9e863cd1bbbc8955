//! Structure-aware fuzz smoke test for the container readers.
//!
//! Unlike the corruption matrix (which enumerates specific damage), this harness walks
//! the real section framing of valid `HFZ1`/`HFZ2` artifacts and applies *structured*
//! mutations: tag swaps, payload rewrites re-framed with a **valid CRC** (so the
//! semantic parsers — manifest, codebook dictionary, tuning hints, hybrid streams —
//! actually run on the mutated bytes instead of dying at the checksum), section
//! duplication/deletion, length-field lies, and cross-artifact splices.
//!
//! The PRNG is seeded and the iteration count fixed, so a failure is a deterministic
//! repro, not a flake. The contract under test: every reader entry point returns a
//! typed [`ContainerError`] or a valid artifact — never a panic.

use datasets::Rng;
use huffdec_container::{
    from_bytes, read_info, read_one_archive, read_snapshot_with_info, Snapshot,
};

mod common;
use common::{corpus, frames, mutate};

const MUTATIONS_PER_SEED: usize = 250;

/// Drive every reader entry point over a mutated artifact. Each must return, never
/// panic; whatever parses is read all the way through.
fn exercise(bytes: &[u8]) {
    let _ = read_info(&mut &bytes[..]);
    let _ = from_bytes(bytes);
    let _ = read_one_archive(bytes);
    let _ = read_snapshot_with_info(bytes);
    if let Ok(snapshot) = Snapshot::parse(bytes) {
        let _ = snapshot.codebook_dict();
        if let Some(manifest) = snapshot.manifest().cloned() {
            for index in 0..manifest.len() {
                let _ = snapshot.read_field(index);
            }
        }
    }
}

#[test]
fn structured_mutations_never_panic_the_readers() {
    let corpus = corpus();
    for (i, (name, bytes)) in corpus.iter().enumerate() {
        assert!(
            frames(bytes).len() >= 3,
            "{}: the frame walk sees the section structure it is meant to mutate",
            name
        );
        let donor = &corpus[(i + 1) % corpus.len()].1;
        let mut rng = Rng::seed_from_u64(0xF022_u64 ^ ((i as u64) << 8));
        for round in 0..MUTATIONS_PER_SEED {
            let mutated = mutate(bytes, donor, &mut rng);
            exercise(&mutated);
            // Stacked mutation: mutate the mutant once more every few rounds.
            if round % 5 == 0 {
                exercise(&mutate(&mutated, bytes, &mut rng));
            }
        }
        // The untouched artifact must still parse after all that (no aliasing bugs in
        // the harness itself).
        assert!(
            Snapshot::parse(bytes).is_ok() || from_bytes(bytes).is_ok(),
            "{}: pristine corpus entry stopped parsing",
            name
        );
    }
}
