//! Fig. 3 — decode-and-write throughput versus shared-memory buffer size on HACC (relative
//! error bound 1e-3), alongside the occupancy each size permits: too small a buffer
//! serializes the decode over more windows, too large a buffer cuts occupancy.

use crate::table1::best_and_worst;
use crate::{fmt_gbs, near, Context, Expectation, Experiment, Table};

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let title =
        "Fig. 3: decode-and-write throughput vs shared-memory buffer size (HACC, rel eb 1e-3)";
    let mut table = Table::new(title);
    let bytes = ctx.field("HACC").len() as u64 * 2;
    for (buffer, stats) in ctx.buffer_sweep("HACC").iter() {
        let gbs = ctx.norm * stats.throughput_gbs(bytes);
        table.push_row(vec![
            ("buffer (symbols)", buffer.to_string()),
            ("shared mem (bytes)", (buffer * 2).to_string()),
            ("blocks/SM", stats.occupancy.blocks_per_sm.to_string()),
            ("decode+write GB/s", fmt_gbs(gbs)),
        ]);
    }
    let (best, worst) = best_and_worst(ctx, "HACC");
    #[rustfmt::skip]
    let paper = vec![
        Expectation { what: "buffer size with the best throughput (symbols, ± one sweep step)", paper: "peaks at 5120 on the V100", band: (4608.0, 5632.0), measured: best.0 as f64 },
        Expectation { what: "spread between the best and the worst size (%)", paper: "~32 %", band: near(32.0), measured: 100.0 * (best.1 - worst.1) / best.1 },
    ];
    Experiment::new(vec![table], Vec::new(), paper)
}
