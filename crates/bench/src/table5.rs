//! Table V — decoding throughput of the five evaluated methods at relative error bound
//! 1e-3 (GB/s relative to the quantization-code bytes; the original 8-bit gap array
//! relative to its 8-bit codes, as in the paper) and the speedup over the cuSZ baseline —
//! plus the §IV-B ablation: the optimized decoders with direct global writes instead of
//! shared-memory staging, everything else unchanged.

use datasets::all_datasets;
use gpu_sim::PhaseTime;
use huffdec_core::{DecoderKind, WriteStrategy};

use crate::{fmt_gbs, fmt_speedup, geomean, near, HIGH_RATIO, REL_EB};
use crate::{Context, Expectation, Experiment, Table};

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let title =
        "Table V: decoding throughput (GB/s, simulated, V100-normalized) and speedup over baseline";
    table(ctx, title, false)
}

pub(crate) fn direct_write(ctx: &mut Context) -> Experiment {
    let title = "Table V (ablation: optimized decoders with direct writes)";
    table(ctx, title, true)
}

fn table(ctx: &mut Context, title: &str, direct: bool) -> Experiment {
    let mut table = Table::new(title);
    let (mut ss_speedups, mut gap_speedups) = (Vec::new(), Vec::new());
    let (mut originals_below, mut gap8_between) = (0, 0);
    for spec in all_datasets() {
        let mut gbs = |decoder, direct: bool| {
            if !direct {
                let timings = ctx.decoded(spec.name, decoder, REL_EB);
                return ctx.gbs(spec.name, &timings);
            }
            // The optimized decoder's preparation phases, then a direct-write kernel.
            let stats = ctx.decode_write(spec.name, decoder, WriteStrategy::Direct);
            let mut timings = ctx.prepared(spec.name, decoder).timings.clone();
            timings.decode_write = Some(PhaseTime::from_kernel(stats));
            ctx.gbs(spec.name, &timings)
        };
        let base = gbs(DecoderKind::CuszBaseline, false);
        let ori_ss = gbs(DecoderKind::OriginalSelfSync, false);
        let opt_ss = gbs(DecoderKind::OptimizedSelfSync, direct);
        let opt_gap = gbs(DecoderKind::OptimizedGapArray, direct);
        let g8 = ctx.gap8(spec.name, REL_EB);
        let gap8 = ctx.norm * g8.1.throughput_gbs(g8.0.symbols8.len() as u64);

        ss_speedups.push(opt_ss / base);
        gap_speedups.push(opt_gap / base);
        originals_below += (HIGH_RATIO.contains(&spec.name) && ori_ss < base && gap8 < base) as u32;
        gap8_between += (ori_ss <= gap8 && gap8 <= opt_ss) as u32;
        table.push_row(vec![
            ("dataset", spec.name.to_string()),
            ("baseline", fmt_gbs(base)),
            ("ori. self-sync", fmt_gbs(ori_ss)),
            ("opt. self-sync", fmt_gbs(opt_ss)),
            ("ori. gap 8-bit", fmt_gbs(gap8)),
            ("opt. gap-array", fmt_gbs(opt_gap)),
            ("opt-ss speedup", fmt_speedup(opt_ss / base)),
            ("opt-gap speedup", fmt_speedup(opt_gap / base)),
        ]);
    }
    let (ss, gap) = (geomean(&ss_speedups), geomean(&gap_speedups));
    let metrics = vec![
        ("opt_ss_speedup".into(), ss),
        ("opt_gap_speedup".into(), gap),
    ];
    #[rustfmt::skip]
    let mut paper = vec![
        Expectation { what: "opt. self-sync speedup over baseline, geomean", paper: "2.74x", band: near(2.74), measured: ss },
        Expectation { what: "opt. gap-array speedup over baseline, geomean", paper: "3.64x", band: near(3.64), measured: gap },
        Expectation { what: "high-ratio datasets where both original decoders fall below the baseline (of 5)", paper: "original decoders below baseline on CESM, Nyx, Hurricane, RTM, GAMESS", band: (5.0, 5.0), measured: originals_below as f64 },
        Expectation { what: "datasets where the original 8-bit gap array sits between original and optimized self-sync (of 8)", paper: "original 8-bit gap array between original and optimized self-sync", band: (8.0, 8.0), measured: gap8_between as f64 },
    ];
    if direct {
        // The paper states nothing about the ablation.
        paper.clear();
    }
    Experiment::new(vec![table], metrics, paper)
}
