//! The performance model, pinned to the bit: every modeled phase time of every decoder,
//! of the hybrid codec, of the shared-memory tuner and of the device encoder, on
//! `GpuConfig::v100()` over one fixed 200,000-symbol stream, must equal the `f64` bit
//! patterns recorded below. A refactor of `gpu-sim` or of a kernel's cost section that is
//! supposed to leave the model alone fails here if a single charge moved; a deliberate
//! model change re-records the table from the failure message (and `BENCH_repro.json`
//! with it).

use huffdec::core_decoders::{compress_for, compress_on, decode, CompressedPayload, DecoderKind};
use huffdec::gpu_sim::{Gpu, GpuConfig, PhaseTime};
use huffdec_hybrid::{compress_hybrid, decode_hybrid};

const ALPHABET: usize = 1024;

/// Quantization-code-like symbols around 512 whose spread — and so whose compression
/// ratio class — changes every 50,000 symbols, so the tuner launches several classes.
fn symbols() -> Vec<u16> {
    const SPREADS: [u32; 4] = [7, 3, 1, 5];
    (0..200_000u32)
        .map(|i| {
            let r = i.wrapping_mul(2654435761).rotate_left(9);
            let mag = r.trailing_zeros().min(SPREADS[i as usize / 50_000]) as i32;
            (512 + if (r >> 1) & 1 == 1 { mag } else { -mag }) as u16
        })
        .collect()
}

fn observed() -> Vec<(String, u64)> {
    let gpu = Gpu::with_host_threads(GpuConfig::v100(), 2);
    let symbols = symbols();
    let mut pins = Vec::new();
    let mut pin = |name: String, seconds: f64| pins.push((name, seconds.to_bits()));

    for kind in DecoderKind::all() {
        let payload = compress_for(kind, &symbols, ALPHABET);
        let result = decode(&gpu, kind, &payload).expect("payload matches its decoder");
        assert_eq!(result.symbols, symbols, "{}", kind.name());
        for (phase, time) in result.timings.phases() {
            pin(format!("decode {} / {}", kind.name(), phase), time.seconds);
        }
    }

    let CompressedPayload::Hybrid(hybrid) = compress_hybrid(&symbols, ALPHABET) else {
        unreachable!("compress_hybrid produces a hybrid payload");
    };
    let result = decode_hybrid(&gpu, &hybrid).expect("hybrid stream decodes");
    assert_eq!(result.symbols, symbols);
    for (phase, time) in result.timings.phases() {
        pin(format!("decode hybrid / {}", phase), time.seconds);
    }

    let (payload, encode) = compress_on(&gpu, DecoderKind::OptimizedGapArray, &symbols, ALPHABET);
    for (phase, time) in encode.phases() {
        pin(format!("compress_on / {}", phase), time.seconds);
    }

    // The tuner's two phases, from a full decode of the device encoder's payload.
    let result = decode(&gpu, DecoderKind::OptimizedGapArray, &payload);
    let result = result.expect("payload matches its decoder");
    assert_eq!(result.symbols, symbols);
    let seconds = |phase: Option<PhaseTime>| phase.expect("the tuner ran").seconds;
    pin(
        "tuner / tune_phase".to_string(),
        seconds(result.timings.tune),
    );
    pin(
        "tuner / decode_phase".to_string(),
        seconds(result.timings.decode_write),
    );
    pins
}

/// Recorded at the parent of the PR that introduced this test (the last commit whose
/// coalescing counter sorted address lists).
const PINS: &[(&str, u64)] = &[
    (
        "decode baseline cuSZ / decode and write",
        0x3f3277554ace15f4,
    ),
    (
        "decode ori. self-sync / intra-seq sync.",
        0x3edbb107bf1a78a6,
    ),
    (
        "decode ori. self-sync / inter-seq sync.",
        0x3ee34cc4bee78b3e,
    ),
    (
        "decode ori. self-sync / get output idx.",
        0x3ee9a0b7d94b53de,
    ),
    (
        "decode ori. self-sync / decode and write",
        0x3f01e54c672874db,
    ),
    (
        "decode opt. self-sync / intra-seq sync.",
        0x3edb0e69afca1f48,
    ),
    (
        "decode opt. self-sync / inter-seq sync.",
        0x3ee34cc4bee78b3e,
    ),
    (
        "decode opt. self-sync / get output idx.",
        0x3ee9a0b7d94b53de,
    ),
    (
        "decode opt. self-sync / tune shared mem.",
        0x3f023a548ac96037,
    ),
    (
        "decode opt. self-sync / decode and write",
        0x3ee0d74e8d6d28c1,
    ),
    (
        "decode opt. gap-array / get output idx.",
        0x3ef25749483f17f0,
    ),
    (
        "decode opt. gap-array / tune shared mem.",
        0x3f023a548ac96037,
    ),
    (
        "decode opt. gap-array / decode and write",
        0x3ee0d74e8d6d28c1,
    ),
    ("decode hybrid / intra-seq sync.", 0x3eeb051371aa8fbd),
    ("decode hybrid / inter-seq sync.", 0x3eebcab4e9f14364),
    ("decode hybrid / get output idx.", 0x3f0d20982a0068ef),
    ("decode hybrid / tune shared mem.", 0x3f123a548ac96037),
    ("decode hybrid / decode and write", 0x3ef94e1cf26d4cec),
    ("compress_on / histogram", 0x3ef894d411878c24),
    ("compress_on / tree+codebook", 0x3ef7f338af9f88ea),
    ("compress_on / offset prefix-sum", 0x3ef4d8438c349f72),
    ("compress_on / scatter", 0x3f01136b1d3052e6),
    ("tuner / tune_phase", 0x3f023a548ac96037),
    ("tuner / decode_phase", 0x3ee0d74e8d6d28c1),
];

#[test]
fn modeled_phase_seconds_are_pinned_to_the_bit() {
    let observed = observed();
    let table: String = observed
        .iter()
        .map(|(name, bits)| format!("    (\"{}\", 0x{:016x}),\n", name, bits))
        .collect();
    assert!(
        observed
            .iter()
            .map(|(name, bits)| (name.as_str(), *bits))
            .eq(PINS.iter().copied()),
        "the modeled clock moved; observed:\n{}",
        table
    );
}
