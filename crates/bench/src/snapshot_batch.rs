//! Snapshot batch-decode throughput — a multi-field snapshot archive (manifest + shards,
//! mixed stream formats, the many-field shape of the paper's HACC/GAMESS/QMCPACK
//! workloads) read back through manifest seeks and decoded twice: serially (N independent
//! `Codec::decompress` runs) and as one batched wave (`Codec::decompress_batch`).

use huffdec_core::DecoderKind;
use sz::{Compressed, ErrorBound};

use crate::context::assert_digest;
use crate::{Context, Expectation, Experiment, Table, BENCH_SEED, INF, REL_EB};

/// The snapshot's fields: dataset × stream format (all three formats exercised).
const FIELDS: [(&str, DecoderKind); 5] = [
    ("HACC", DecoderKind::OptimizedGapArray),
    ("CESM", DecoderKind::OptimizedSelfSync),
    ("GAMESS", DecoderKind::CuszBaseline),
    ("Nyx", DecoderKind::OptimizedGapArray),
    ("RTM", DecoderKind::OptimizedSelfSync),
];

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    // Field `i` is generated with seed `BENCH_SEED + i`, so none is shared with the tables.
    let elements = ctx.settings.elements.unwrap_or(200_000);
    let compress = |(i, (name, decoder)): (u64, (&str, DecoderKind))| {
        let spec = datasets::dataset_by_name(name).expect("paper dataset");
        let field = datasets::generate(&spec, elements, BENCH_SEED + i);
        ctx.codec(decoder)
            .compress_archive(&field)
            .expect("non-empty field")
    };
    let compressed: Vec<Compressed> = (0..).zip(FIELDS).map(compress).collect();
    // One decode-side session for the whole snapshot; the decoder each field needs is
    // carried by the archive itself.
    let codec = ctx.session(DecoderKind::OptimizedGapArray, ErrorBound::Relative(REL_EB));
    let codec = codec.build().expect("valid bench session");
    let named: Vec<(&str, &Compressed)> = FIELDS.iter().map(|f| f.0).zip(&compressed).collect();
    let bytes = codec
        .snapshot_to_bytes(&named)
        .expect("snapshot serializes");

    // Read every field back by manifest seek — the decodes below consume exactly what a
    // snapshot consumer would.
    let snapshot = codec.open_snapshot_bytes(&bytes).expect("snapshot parses");
    let read = |(name, _): &(&str, DecoderKind)| {
        let field = snapshot
            .field_by_name(name)
            .expect("manifest lookup succeeds");
        field
            .compressed()
            .expect("snapshot fields carry metadata")
            .clone()
    };
    let fields: Vec<Compressed> = FIELDS.iter().map(read).collect();

    let decompress = |c| codec.decompress(c).expect("payload matches decoder");
    let serial: Vec<_> = fields.iter().map(decompress).collect();
    let batch = codec.decompress_batch(&fields.iter().collect::<Vec<_>>());
    let batch = batch.expect("batch decodes");

    let title = "Snapshot batch decode: serial field-by-field vs. one batched wave (simulated, V100-normalized)";
    let mut table = Table::new(title);
    for (i, (name, _)) in FIELDS.iter().enumerate() {
        // Batched output bit-identical to serial, and the decode matches the digest the
        // encoder stamped before the archive round-trip.
        let same = serial[i].data == batch.fields[i].data;
        assert!(same, "batched decode of '{}' diverged from serial", name);
        let codes = codec
            .decode_codes(&compressed[i])
            .expect("payload matches decoder");
        assert_digest(&compressed[i], &codes.symbols, name);
        let (stats, ms) = (&serial[i].stats, |seconds: f64| {
            format!("{:.3}", seconds * 1e3)
        });
        table.push_row(vec![
            ("field", name.to_string()),
            ("format", fields[i].decoder().name().to_string()),
            ("elements", serial[i].data.len().to_string()),
            ("huffman ms", ms(stats.huffman.total_seconds())),
            ("total ms", ms(stats.total_seconds)),
        ]);
    }

    let stats = batch.stats;
    let original_bytes: u64 = fields.iter().map(|c| c.original_bytes()).sum();
    let serial_gbs = ctx.norm * stats.serial_throughput_gbs(original_bytes);
    let batched_gbs = ctx.norm * stats.batched_throughput_gbs(original_bytes);
    let metrics = vec![
        ("fields".into(), fields.len() as f64),
        ("serial_gbs".into(), serial_gbs),
        ("batched_gbs".into(), batched_gbs),
        ("speedup".into(), stats.overlap_speedup()),
    ];
    #[rustfmt::skip]
    let paper = vec![
        Expectation { what: "batched wave over serial field-by-field decode (speedup)", paper: "the stream model: a batched wave is never slower than serial", band: (1.0, INF), measured: stats.overlap_speedup() },
    ];
    Experiment::new(vec![table], metrics, paper)
}
