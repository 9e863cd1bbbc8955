//! Table IV — Huffman compression ratio of each encoding format at relative error bound
//! 1e-3: the chunked baseline, the flat stream of both self-synchronization decoders, the
//! flat stream with gap array, and the 8-bit trimmed stream of the original gap-array
//! decoder (ratio doubled for comparability, as in the paper).

use datasets::all_datasets;
use huffdec_core::DecoderKind;

use crate::{fmt_ratio, Context, Expectation, Experiment, Table, INF, REL_EB};

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let mut table =
        Table::new("Table IV: Huffman compression ratio per method (rel. error bound 1e-3)");
    let (mut widest, mut gap_lower, mut by_ratio) = (f64::MIN, 0, Vec::new());
    for spec in all_datasets() {
        let mut ratio = |d| {
            ctx.archive(spec.name, d, REL_EB)
                .huffman_compression_ratio()
        };
        let baseline = ratio(DecoderKind::CuszBaseline);
        let self_sync = ratio(DecoderKind::OptimizedSelfSync);
        let gap = ratio(DecoderKind::OptimizedGapArray);
        let g8 = &ctx.gap8(spec.name, REL_EB).0;
        let gap8 = 2.0 * g8.symbols8.len() as f64 / g8.stream.compressed_bytes() as f64;

        let methods = [baseline, self_sync, gap, gap8];
        let lo = methods.iter().copied().fold(f64::MAX, f64::min);
        let hi = methods.iter().copied().fold(f64::MIN, f64::max);
        widest = widest.max(100.0 * (hi - lo) / hi);
        gap_lower += (gap < self_sync && gap8 < self_sync) as u32;
        by_ratio.push((baseline, spec.name));
        table.push_row(vec![
            ("dataset", spec.name.to_string()),
            ("paper cuSZ", fmt_ratio(spec.paper_cr_1e3)),
            ("baseline cuSZ", fmt_ratio(baseline)),
            ("ori./opt. self-sync", fmt_ratio(self_sync)),
            ("opt. gap-array", fmt_ratio(gap)),
            ("ori. gap-array 8-bit (x2)", fmt_ratio(gap8)),
        ]);
    }
    by_ratio.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ends = (by_ratio[0].1 == "EXAALT") as u32 + (by_ratio[7].1 == "Nyx") as u32;
    #[rustfmt::skip]
    let paper = vec![
        Expectation { what: "widest gap between the four methods' ratios on one dataset (%)", paper: "all within ~10 % of each other", band: (-INF, 10.0), measured: widest },
        Expectation { what: "datasets where both gap-array ratios sit below self-sync (of 8)", paper: "gap-array variants slightly lower (gap-array storage)", band: (8.0, 8.0), measured: gap_lower as f64 },
        Expectation { what: "ends of the baseline ratio ordering that match the paper's (of 2)", paper: "Nyx most compressible, EXAALT least", band: (2.0, 2.0), measured: ends as f64 },
    ];
    Experiment::new(vec![table], Vec::new(), paper)
}
