//! Table VI (extension) — encoder throughput of the parallel encode on the modeled V100.
//! The paper evaluates decoders only; cuSZ and "Revisiting Huffman Coding" (Tian et al.)
//! make the encode side massively parallel by giving every GPU thread a chunk of
//! symbols, and this measures that encode walk (`huffdec_core::compress_on`: count,
//! chunk-bits and pack launches over blocks of 65,536 symbols, one thread per
//! 4,096-symbol chunk) on the decode tables' methodology: per-phase encode times —
//! histogram / tree+codebook / offsets (chunk bits and their scan) / scatter (the pack)
//! — and end-to-end encoder throughput for five datasets and all three stream formats.
//! Every parallel encode is compared bit for bit with the single-threaded host encoder
//! (`compress_for`).

use huffdec_core::{compress_for, DecoderKind};
use sz::DEFAULT_ALPHABET_SIZE;

use crate::{fmt_gbs, geomean, Context, Expectation, Experiment, Table, REL_EB};

const DATASETS: [&str; 5] = ["HACC", "CESM", "Nyx", "RTM", "GAMESS"];

/// The three stream formats, keyed by a decoder that consumes each.
const FORMATS: [(DecoderKind, &str); 3] = [
    (DecoderKind::CuszBaseline, "chunked"),
    (DecoderKind::OptimizedSelfSync, "flat"),
    (DecoderKind::OptimizedGapArray, "flat+gap"),
];

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let title = "Table VI: encoder throughput (GB/s, simulated, V100-normalized) per stream format";
    let mut table = Table::new(title);
    let mut per_format: Vec<Vec<f64>> = vec![Vec::new(); FORMATS.len()];
    let mut offsets_cheapest = 0;
    for name in DATASETS {
        let codes = ctx.codes(name, REL_EB);
        for (f, (kind, format)) in FORMATS.iter().enumerate() {
            let (payload, phases) = ctx.codec(*kind).encode_symbols(&codes);
            // `CompressedPayload` equality is bit-level (units, metadata, codebook, gap array).
            let host = compress_for(*kind, &codes, DEFAULT_ALPHABET_SIZE);
            assert!(
                payload == host,
                "parallel {} encode of {} diverged",
                format,
                name
            );
            let gbs = ctx.norm * phases.throughput_gbs(codes.len() as u64 * 2);
            per_format[f].push(gbs);
            let ms = |seconds: f64| format!("{:.3}", seconds * 1e3);
            let (histogram, offsets, scatter) =
                (&phases.histogram, &phases.offsets, &phases.scatter);
            let cheapest = offsets.seconds < histogram.seconds.min(scatter.seconds);
            offsets_cheapest += cheapest as u32;
            table.push_row(vec![
                ("dataset", name.to_string()),
                ("format", format.to_string()),
                ("histogram ms", ms(histogram.seconds)),
                ("tree+codebook ms", ms(phases.codebook.seconds)),
                ("offsets ms", ms(offsets.seconds)),
                ("scatter ms", ms(scatter.seconds)),
                ("total ms", ms(phases.total_seconds())),
                ("encode GB/s", fmt_gbs(gbs)),
            ]);
        }
    }
    // Geomean encode throughput per format, GB/s.
    let metric = |f: usize| (FORMATS[f].1.to_string(), geomean(&per_format[f]));
    #[rustfmt::skip]
    let paper = vec![
        Expectation { what: "rows where the offsets phase (chunk bits and their scan) is cheaper than both histogram and scatter (of 15)", paper: "\"Revisiting Huffman Coding\": the scan is the cheapest data-proportional encode phase", band: (15.0, 15.0), measured: offsets_cheapest as f64 },
    ];
    Experiment::new(vec![table], (0..3).map(metric).collect(), paper)
}
