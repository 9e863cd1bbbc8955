//! Table II — per-phase breakdown of the fine-grained decoders: the throughput of every
//! phase (GB/s relative to the quantization-code bytes) for the original and optimized
//! self-synchronization decoders and the optimized gap-array decoder, the end-to-end
//! decode throughput and the speedup over the cuSZ baseline, at relative error bound 1e-3.

use datasets::all_datasets;
use gpu_sim::PhaseTime;
use huffdec_core::{DecoderKind, PhaseBreakdown};

use crate::{fmt_gbs, fmt_ratio, fmt_speedup, geomean, HIGH_RATIO, INF, REL_EB};
use crate::{Context, Expectation, Experiment, Table};

const PHASES: [&str; 5] = [
    "intra-seq sync.",
    "inter-seq sync.",
    "get output idx.",
    "tune shared mem.",
    "decode and write",
];

fn phase<'a>(b: &'a PhaseBreakdown, name: &str) -> Option<&'a PhaseTime> {
    b.phases().find(|(n, _)| *n == name).map(|(_, p)| p)
}

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let mut tables = Vec::new();
    for (kind, label) in [
        (DecoderKind::OriginalSelfSync, "original self-sync"),
        (DecoderKind::OptimizedSelfSync, "optimized self-sync"),
        (DecoderKind::OptimizedGapArray, "optimized gap-array"),
    ] {
        let mut table = Table::new(format!(
            "Table II ({label}): per-phase throughput, GB/s (simulated, V100-normalized)"
        ));
        for spec in all_datasets() {
            let bytes = ctx.field(spec.name).len() as u64 * 2;
            let baseline = ctx.decoded(spec.name, DecoderKind::CuszBaseline, REL_EB);
            let ratio = ctx
                .archive(spec.name, kind, REL_EB)
                .huffman_compression_ratio();
            let timings = ctx.decoded(spec.name, kind, REL_EB);
            let overall = ctx.gbs(spec.name, &timings);
            let speedup = overall / ctx.gbs(spec.name, &baseline);

            let mut row = vec![
                ("dataset", spec.name.to_string()),
                ("compr. ratio", fmt_ratio(ratio)),
            ];
            for name in PHASES {
                let gbs = phase(&timings, name).map(|p| ctx.norm * p.throughput_gbs(bytes));
                row.push((name, gbs.map_or("-".to_string(), fmt_gbs)));
            }
            row.push(("overall decode", fmt_gbs(overall)));
            row.push(("speedup vs baseline", fmt_speedup(speedup)));
            table.push_row(row);
        }
        tables.push(table);
    }

    // The statements compare the two self-sync decoders per dataset (all cache hits): the
    // original's decode-and-write speed, the optimized intra-sync gain, the share of the
    // optimized decoder's cheap phases.
    let (mut original_dw, mut intra_gain, mut cheap_share) = (Vec::new(), Vec::new(), f64::MIN);
    for spec in all_datasets() {
        let original = ctx.decoded(spec.name, DecoderKind::OriginalSelfSync, REL_EB);
        let optimized = ctx.decoded(spec.name, DecoderKind::OptimizedSelfSync, REL_EB);
        let seconds = |b: &PhaseBreakdown, name| phase(b, name).map_or(0.0, |p| p.seconds);
        let elements = ctx.field(spec.name).len() as f64;
        original_dw.push((spec.name, elements / seconds(&original, PHASES[4])));
        intra_gain.push(seconds(&original, PHASES[0]) / seconds(&optimized, PHASES[0]));
        let cheap: f64 = PHASES[1..4]
            .iter()
            .map(|name| seconds(&optimized, name))
            .sum();
        cheap_share = cheap_share.max(100.0 * cheap / optimized.total_seconds());
    }
    let is_high = |r: &&(&str, f64)| HIGH_RATIO.contains(&r.0);
    let low = original_dw.iter().filter(|r| !is_high(r));
    let slowest_low = low.map(|r| r.1).fold(f64::MAX, f64::min);
    let collapsed = original_dw
        .iter()
        .filter(is_high)
        .filter(|r| r.1 < slowest_low / 2.0);
    #[rustfmt::skip]
    let paper = vec![
        Expectation { what: "high-ratio datasets whose original decode-and-write runs below half the slowest low-ratio one (of 5)", paper: "original decode-and-write collapses on CESM, Nyx, Hurricane, RTM, GAMESS", band: (5.0, 5.0), measured: collapsed.count() as f64 },
        Expectation { what: "optimized intra-sequence sync faster than the original, geomean (%)", paper: "~10–35 % faster", band: (10.0, 35.0), measured: 100.0 * (geomean(&intra_gain) - 1.0) },
        Expectation { what: "inter-sync + output index + tuning share of optimized self-sync decode time, largest (%)", paper: "comparatively cheap; tuning a small overhead", band: (-INF, 25.0), measured: cheap_share },
    ];
    Experiment::new(tables, Vec::new(), paper)
}
