//! Backend equivalence: the simulated device and the multi-threaded CPU backend must
//! be *functionally indistinguishable* — identical archive bytes on encode, and
//! bit-identical decoded output on every decode path (full, ranged, batched), for
//! every decoder kind over every paper dataset. Only the reported timings may differ
//! (modeled vs. measured).

use huffdec::container::to_bytes;
use huffdec::datasets::{all_datasets, generate};
use huffdec::gpu_sim::{GpuConfig, TransferDirection};
use huffdec::{BackendKind, Codec, DecoderKind};

fn codec(backend: BackendKind, decoder: DecoderKind) -> Codec {
    Codec::builder()
        .gpu_config(GpuConfig::test_tiny())
        .host_threads(3)
        .backend(backend)
        .decoder(decoder)
        .build()
        .expect("valid configuration")
}

/// f32 equality that is actually bit equality (`-0.0` vs `0.0` or NaN payloads would
/// slip through `==`).
fn assert_bits_eq(a: &[f32], b: &[f32], context: &str) {
    assert_eq!(a.len(), b.len(), "{}: length diverged", context);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: element {} diverged ({} vs {})",
            context,
            i,
            x,
            y
        );
    }
}

#[test]
fn encode_and_full_decode_match_across_backends() {
    // Every decoder kind over every paper dataset: the archives must be byte-identical
    // and each backend must decode the *other* backend's archive to identical bits.
    for spec in all_datasets() {
        let field = generate(&spec, 9_000, 42);
        for decoder in DecoderKind::all() {
            let context = format!("{} / {:?}", spec.name, decoder);
            let sim = codec(BackendKind::Sim, decoder);
            let cpu = codec(BackendKind::Cpu, decoder);

            let sim_archive = sim.compress_archive(&field).expect("sim encode");
            let cpu_archive = cpu.compress_archive(&field).expect("cpu encode");
            assert_eq!(
                to_bytes(&sim_archive).unwrap(),
                to_bytes(&cpu_archive).unwrap(),
                "{}: encoded archives diverged",
                context
            );

            // Cross-decode: each backend decodes the other's archive.
            let on_sim = sim.decompress(&cpu_archive).expect("sim decode");
            let on_cpu = cpu.decompress(&sim_archive).expect("cpu decode");
            assert_bits_eq(&on_sim.data, &on_cpu.data, &context);

            // The Huffman stage alone (codes, before reverse quantization) too.
            let codes_sim = sim.decode_codes(&sim_archive).expect("sim codes");
            let codes_cpu = cpu.decode_codes(&sim_archive).expect("cpu codes");
            assert_eq!(
                codes_sim.symbols, codes_cpu.symbols,
                "{}: decoded codes diverged",
                context
            );
        }
    }
}

#[test]
fn ranged_decodes_match_across_backends() {
    // Ranged decodes exercise the index build plus block-limited launches; the two
    // backends must select and decode identical blocks.
    let field = generate(&all_datasets()[0], 15_000, 7);
    for decoder in DecoderKind::all() {
        let sim = codec(BackendKind::Sim, decoder);
        let cpu = codec(BackendKind::Cpu, decoder);
        let archive = sim.compress_archive(&field).expect("encode");
        let bytes = huffdec::container::snapshot_to_bytes(&[("f", &archive)]).unwrap();

        let sim_handle = sim.open_snapshot_bytes(&bytes).expect("sim open");
        let cpu_handle = cpu.open_snapshot_bytes(&bytes).expect("cpu open");
        let sim_field = sim_handle.field_by_name("f").unwrap();
        let cpu_field = cpu_handle.field_by_name("f").unwrap();

        for (start, len) in [(0u64, 256u64), (4_000, 512), (14_800, 200)] {
            let a = sim
                .decompress_range(sim_field, start, len)
                .expect("sim range");
            let b = cpu
                .decompress_range(cpu_field, start, len)
                .expect("cpu range");
            assert_eq!(
                a.symbols, b.symbols,
                "{:?}: ranged symbols diverged at [{}, +{})",
                decoder, start, len
            );
            assert_eq!(
                (a.decoded_blocks, a.total_blocks),
                (b.decoded_blocks, b.total_blocks),
                "{:?}: block selection diverged",
                decoder
            );
        }
    }
}

#[test]
fn batched_decodes_match_across_backends_and_serial() {
    // One overlapped wave over mixed datasets: both backends must reproduce the
    // serial outputs bit for bit, and both must report a sane wave speedup.
    let archives: Vec<_> = all_datasets()
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, spec)| {
            let field = generate(spec, 8_000, 100 + i as u64);
            codec(BackendKind::Sim, DecoderKind::OptimizedGapArray)
                .compress_archive(&field)
                .expect("encode")
        })
        .collect();
    let refs: Vec<&_> = archives.iter().collect();

    let sim = codec(BackendKind::Sim, DecoderKind::OptimizedGapArray);
    let cpu = codec(BackendKind::Cpu, DecoderKind::OptimizedGapArray);
    let sim_batch = sim.decompress_batch(&refs).expect("sim batch");
    let cpu_batch = cpu.decompress_batch(&refs).expect("cpu batch");
    assert!(sim_batch.stats.overlap_speedup() >= 1.0);
    assert!(cpu_batch.stats.overlap_speedup() >= 1.0);

    for (i, (a, b)) in sim_batch.fields.iter().zip(&cpu_batch.fields).enumerate() {
        let context = format!("batch field {}", i);
        assert_bits_eq(&a.data, &b.data, &context);
        let serial = sim.decompress(refs[i]).expect("serial decode");
        assert_bits_eq(&a.data, &serial.data, &format!("{} vs serial", context));
    }
}

#[test]
fn cpu_backend_timings_are_measured_not_modeled() {
    // The functional outputs match, but the CPU backend's stats must be real
    // wall-clock: no transfer modeling, and a positive elapsed decode time.
    let field = generate(&all_datasets()[0], 9_000, 11);
    let cpu = codec(BackendKind::Cpu, DecoderKind::OptimizedGapArray);
    assert!(!cpu.backend().is_modeled());
    assert_eq!(
        cpu.backend()
            .transfer_seconds(1 << 20, TransferDirection::HostToDevice),
        0.0
    );

    let archive = cpu.compress_archive(&field).expect("encode");
    let decoded = cpu.decompress(&archive).expect("decode");
    assert!(decoded.stats.total_seconds > 0.0);
    assert!(cpu.device_name().contains("host CPU"));
}
