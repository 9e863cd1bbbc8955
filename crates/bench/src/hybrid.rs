//! Hybrid RLE+Huffman decode throughput and compression ratio across sparsity profiles
//! (format v2): bounded-random-walk fields at four zero fractions, each compressed through
//! the `rle+huff hybrid` path and through the best dense stream (`opt. gap-array`) and
//! decoded on the simulated device. The two reconstructions share one quantization and
//! must be bit-identical; at ≥ 90 % zeros the hybrid archive must be the smaller one.

use huffdec_core::DecoderKind;
use sz::ErrorBound;

use crate::context::assert_digest;
use crate::{fmt_gbs, fmt_ratio, Context, Experiment, Table, BENCH_SEED};

/// Zero-fraction profiles, in percent of flat (center-bin) steps in the walk.
const PROFILES: [u64; 4] = [0, 50, 90, 99];

/// A bounded random walk: `zero_pct`% of steps repeat the previous value (a center-bin
/// code under an absolute error bound), the rest jump by at most ±200 quantization bins.
fn walk_field(n: usize, zero_pct: u64, seed: u64) -> datasets::Field {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut value = 0.0f32;
    let mut step = |_| {
        if rng() % 100 >= zero_pct {
            value += (rng() % 401) as f32 - 200.0;
        }
        value
    };
    let data: Vec<f32> = (0..n).map(&mut step).collect();
    datasets::Field::new(format!("walk{}", zero_pct), datasets::Dims::D1(n), data)
}

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    // Explicit decoder choice per session: auto-selection is exercised by the facade
    // tests, this measures both paths on every profile.
    let codecs = [DecoderKind::RleHybrid, DecoderKind::OptimizedGapArray].map(|decoder| {
        ctx.session(decoder, ErrorBound::Absolute(0.5))
            .build()
            .expect("valid bench session")
    });
    let title =
        "RLE+Huffman hybrid vs. best dense stream across sparsity (simulated, V100-normalized)";
    let (mut table, mut metrics) = (Table::new(title), Vec::new());
    let elements = ctx.settings.elements.unwrap_or(200_000);
    for (i, zero_pct) in (0..).zip(PROFILES) {
        let field = walk_field(elements, zero_pct, BENCH_SEED + i);
        // Per codec (hybrid, dense): reconstruction, stored bytes, GB/s.
        let runs = [0, 1].map(|c| {
            let archive = codecs[c].compress_archive(&field).expect("non-empty field");
            let out = codecs[c]
                .decompress(&archive)
                .expect("payload matches decoder");
            let codes = codecs[c]
                .decode_codes(&archive)
                .expect("payload matches decoder");
            assert_digest(&archive, &codes.symbols, archive.decoder().name());
            let gbs = ctx.norm * archive.original_bytes() as f64 / out.stats.total_seconds / 1e9;
            (out.data, archive.compressed_bytes(), gbs)
        });
        let [(hybrid_data, hybrid_bytes, hybrid_gbs), (dense_data, dense_bytes, dense_gbs)] = runs;
        let same = hybrid_data == dense_data;
        assert!(
            same,
            "hybrid decode diverged from dense at {}% zeros",
            zero_pct
        );
        let smaller = zero_pct < 90 || hybrid_bytes < dense_bytes;
        assert!(
            smaller,
            "at {}% zeros the hybrid archive must be the smaller",
            zero_pct
        );
        let size_ratio = hybrid_bytes as f64 / dense_bytes as f64;
        table.push_row(vec![
            ("zeros %", zero_pct.to_string()),
            ("hybrid bytes", hybrid_bytes.to_string()),
            ("dense bytes", dense_bytes.to_string()),
            ("size ratio", fmt_ratio(size_ratio)),
            ("hybrid GB/s", fmt_gbs(hybrid_gbs)),
            ("dense GB/s", fmt_gbs(dense_gbs)),
        ]);
        metrics.push((format!("hybrid_gbs_z{}", zero_pct), hybrid_gbs));
        metrics.push((format!("size_ratio_z{}", zero_pct), size_ratio));
    }
    Experiment::new(vec![table], metrics, Vec::new())
}
