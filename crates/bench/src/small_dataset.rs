//! §V-A claim — speedups persist on small (truncated) datasets: progressively smaller
//! HACC slices decoded with the baseline and the optimized gap-array decoder.

use datasets::{dataset_by_name, generate_with_dims, Dims};
use huffdec_core::DecoderKind;

use crate::context::assert_digest;
use crate::{fmt_gbs, fmt_speedup, Context, Expectation, Experiment, Table, BENCH_SEED, INF};

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let title =
        "Small-dataset sweep: optimized gap-array speedup vs (full-scale-equivalent) dataset size";
    let mut table = Table::new(title);
    let spec = dataset_by_name("HACC").expect("HACC spec");
    let mut speedups = Vec::new();
    // Equivalent full-scale sizes from ~10 MB to ~500 MB; the simulated slice is 1/norm
    // of that (see the scaled-device methodology).
    for equiv_mb in [10.0f64, 50.0, 100.0, 250.0, 500.0] {
        let elements = ((equiv_mb * 1e6 / 4.0) / ctx.norm) as usize;
        let field = generate_with_dims(&spec, Dims::D1(elements.max(16_384)), BENCH_SEED);
        let gbs = [DecoderKind::CuszBaseline, DecoderKind::OptimizedGapArray].map(|decoder| {
            let codec = ctx.codec(decoder);
            let archive = codec.compress_archive(&field).expect("non-empty field");
            let result = codec
                .decode_codes(&archive)
                .expect("payload matches decoder");
            assert_digest(&archive, &result.symbols, decoder.name());
            ctx.norm * result.timings.throughput_gbs(field.len() as u64 * 2)
        });
        speedups.push(gbs[1] / gbs[0]);
        table.push_row(vec![
            ("equivalent size (MB)", format!("{:.0}", equiv_mb)),
            ("elements (slice)", field.len().to_string()),
            ("baseline GB/s", fmt_gbs(gbs[0])),
            ("opt. gap-array GB/s", fmt_gbs(gbs[1])),
            ("speedup", fmt_speedup(gbs[1] / gbs[0])),
        ]);
    }
    #[rustfmt::skip]
    let paper = vec![
        Expectation { what: "optimized gap-array speedup over baseline at the 10 MB equivalent", paper: "datasets as small as 10 MB exhibit speedups", band: (1.0, INF), measured: speedups[0] },
    ];
    Experiment::new(vec![table], Vec::new(), paper)
}
