//! Fig. 2 — decoding throughput of the *original* decoders versus relative error bound on
//! HACC (larger bound ⇒ higher compression ratio): the motivation for the paper's
//! optimizations.

use huffdec_core::DecoderKind;

use crate::{fmt_gbs, fmt_ratio, Context, Expectation, Experiment, Table};

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let title = "Fig. 2: original decoders vs relative error bound on HACC (GB/s, simulated)";
    let mut table = Table::new(title);
    let mut curves: Vec<[f64; 2]> = Vec::new();
    for eb in [1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2] {
        let archive = ctx.archive("HACC", DecoderKind::OriginalSelfSync, eb);
        let ratio = archive.huffman_compression_ratio();
        let self_sync = ctx.decoded("HACC", DecoderKind::OriginalSelfSync, eb);
        let self_sync_gbs = ctx.gbs("HACC", &self_sync);
        let g8 = ctx.gap8("HACC", eb);
        let gap8_gbs = ctx.norm * g8.1.throughput_gbs(g8.0.symbols8.len() as u64);
        table.push_row(vec![
            ("rel. error bound", format!("{:.0e}", eb)),
            ("compr. ratio", fmt_ratio(ratio)),
            ("ori. self-sync GB/s", fmt_gbs(self_sync_gbs)),
            ("ori. gap-array 8-bit GB/s", fmt_gbs(gap8_gbs)),
        ]);
        curves.push([self_sync_gbs, gap8_gbs]);
    }
    let rises = |w: &[[f64; 2]]| (w[1][0] > w[0][0]) as u32 + (w[1][1] > w[0][1]) as u32;
    let rising: u32 = curves.windows(2).map(rises).sum();
    #[rustfmt::skip]
    let paper = vec![
        Expectation { what: "steps of the sweep where a decoder's throughput rises (of 12)", paper: "both decoders' throughput drops as the error bound grows", band: (0.0, 0.0), measured: rising as f64 },
    ];
    Experiment::new(vec![table], Vec::new(), paper)
}
