//! Figs. 4 and 5 — overall cuSZ decompression throughput (Huffman decode + reverse
//! dual-quantization + outlier scatter, relative to the *uncompressed* size) with the
//! baseline and the two optimized decoders at relative error bound 1e-3: Fig. 4 with the
//! compressed data already on the GPU, Fig. 5 with its host-to-device copy over PCIe
//! added, as in applications that stage compressed data in host memory.

use datasets::all_datasets;
use huffdec_core::DecoderKind;

use crate::{fmt_gbs, fmt_speedup, geomean, near, Context, Expectation, Experiment, Table, REL_EB};

pub(crate) fn fig4(ctx: &mut Context) -> Experiment {
    let title = "Fig. 4: overall decompression throughput (GB/s of uncompressed data, simulated)";
    figure(ctx, title, false)
}

pub(crate) fn fig5(ctx: &mut Context) -> Experiment {
    let title = "Fig. 5: overall decompression throughput including host-to-device transfer (GB/s, simulated)";
    figure(ctx, title, true)
}

fn figure(ctx: &mut Context, title: &str, with_transfer: bool) -> Experiment {
    let mut table = Table::new(title);
    let (mut ss_speedups, mut gap_speedups) = (Vec::new(), Vec::new());
    // Per dataset: the share column (%); the optimized gap-array (ratio, GB/s).
    let (mut shares, mut by_ratio) = (Vec::new(), Vec::new());
    for spec in all_datasets() {
        let original_bytes = ctx.field(spec.name).bytes();
        let stats = [
            DecoderKind::CuszBaseline,
            DecoderKind::OptimizedSelfSync,
            DecoderKind::OptimizedGapArray,
        ]
        .map(|decoder| {
            // The transfer is stamped on every decompression; Fig. 5 adds it to the
            // total.
            let mut stats = (*ctx.decompressed(spec.name, decoder)).clone();
            if with_transfer {
                stats.total_seconds += stats.h2d_transfer_seconds;
            }
            stats
        });
        let gbs = [0, 1, 2].map(|i| ctx.norm * stats[i].overall_throughput_gbs(original_bytes));
        let (share_of, part, of) = if with_transfer {
            (
                "transfer share (gap)",
                stats[2].h2d_transfer_seconds,
                &stats[2],
            )
        } else {
            (
                "huffman share (baseline)",
                stats[0].huffman.total_seconds(),
                &stats[0],
            )
        };
        let share = part / of.total_seconds;
        ss_speedups.push(gbs[1] / gbs[0]);
        gap_speedups.push(gbs[2] / gbs[0]);
        shares.push(100.0 * share);
        let gap_archive = ctx.archive(spec.name, DecoderKind::OptimizedGapArray, REL_EB);
        by_ratio.push((gap_archive.huffman_compression_ratio(), gbs[2]));
        table.push_row(vec![
            ("dataset", spec.name.to_string()),
            ("baseline cuSZ", fmt_gbs(gbs[0])),
            ("w/ opt. self-sync", fmt_gbs(gbs[1])),
            ("w/ opt. gap-array", fmt_gbs(gbs[2])),
            ("self-sync speedup", fmt_speedup(gbs[1] / gbs[0])),
            ("gap-array speedup", fmt_speedup(gbs[2] / gbs[0])),
            (share_of, format!("{:.0}%", 100.0 * share)),
        ]);
    }
    let (ss, gap) = (geomean(&ss_speedups), geomean(&gap_speedups));
    let metrics = vec![
        ("self_sync_speedup".into(), ss),
        ("gap_array_speedup".into(), gap),
    ];
    let fastest = by_ratio.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    by_ratio.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top_is_fastest = (by_ratio[0].1 == fastest) as u32 as f64;
    // `shares[0]` is HACC's: `all_datasets()` lists it first.
    #[rustfmt::skip]
    let paper = if with_transfer { vec![
        Expectation { what: "speedup with transfers, opt. self-sync, geomean", paper: "1.53x", band: near(1.53), measured: ss },
        Expectation { what: "speedup with transfers, opt. gap-array, geomean", paper: "1.65x", band: near(1.65), measured: gap },
        Expectation { what: "the most compressible dataset has the highest throughput with transfers (1 = yes)", paper: "highest-ratio datasets keep the highest end-to-end throughput", band: (1.0, 1.0), measured: top_is_fastest },
    ] } else { vec![
        Expectation { what: "overall decompression speedup with opt. self-sync, geomean", paper: "2.08x", band: near(2.08), measured: ss },
        Expectation { what: "overall decompression speedup with opt. gap-array, geomean", paper: "2.43x", band: near(2.43), measured: gap },
        Expectation { what: "Huffman decoding share of baseline decompression time on HACC (%)", paper: "83 %", band: near(83.0), measured: shares[0] },
    ] };
    Experiment::new(vec![table], metrics, paper)
}
