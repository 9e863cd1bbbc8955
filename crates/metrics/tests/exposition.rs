//! A byte-for-byte pin of the Prometheus exposition for one fixed registry state.
//!
//! Every family renders a nonzero value, the float sums carry fractional digits, every
//! decoder slot of the three per-decoder families holds observations (an `+Inf` one
//! among them), and the `hfz_backend` identity series is present. A change to how the
//! registry stores its instruments must leave this document unchanged; a change to the
//! document itself re-records `exposition.prom` on purpose.

use huffdec_metrics::{HistogramSnapshot, MetricsSnapshot, DECODER_SLOTS, LATENCY_BUCKET_BOUNDS};

/// A histogram whose buckets (the `+Inf` slot included) all differ and depend on `seed`.
fn histogram(seed: u64) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: (0..=LATENCY_BUCKET_BOUNDS.len() as u64)
            .map(|i| (i * 7 + seed * 3) % 11 + 1)
            .collect(),
        sum: seed as f64 * 0.1 + 1.5e-4,
    }
}

fn fixed_state() -> MetricsSnapshot {
    let slots = |base: u64| -> [HistogramSnapshot; DECODER_SLOTS] {
        std::array::from_fn(|i| histogram(base + i as u64))
    };
    MetricsSnapshot {
        requests: 101,
        gets: 57,
        batch_gets: 9,
        batch_fields: 31,
        batch_decoded_fields: 12,
        batch_serial_seconds: 0.1 + 0.2,
        batch_batched_seconds: 0.0625,
        sched_coalesced: 4,
        sched_waves: 21,
        sched_wave_fields: 38,
        sched_multi_field_waves: 6,
        sched_shed: 2,
        sched_queue_depth: 3,
        cache_hits: 44,
        cache_misses: 13,
        cache_evictions: 5,
        cache_insertions: 17,
        cache_uncacheable: 1,
        cache_used_bytes: 786_432,
        cache_budget_bytes: 1 << 20,
        cache_entries: 3,
        archives_loaded: 2,
        decode_seconds: slots(1),
        index_build_seconds: slots(10),
        partial_decode_seconds: slots(20),
        partial_blocks_decoded: 8,
        partial_blocks_spanned: 96,
        decode_errors: 7,
        decode_bytes_in: 123_456,
        decode_bytes_out: 524_288,
        decode_occupancy_permille: 625,
        batch_occupancy_permille: 875,
        backend: Some("sim".to_string()),
        encode_seconds: histogram(30),
        encode_phase_seconds: [1.25e-3, 0.004, 3.0e-7, 2.5],
        encode_bytes_in: 262_144,
        encode_bytes_out: 65_537,
    }
}

#[test]
fn exposition_is_pinned_byte_for_byte() {
    let rendered = fixed_state().render_prometheus();
    let pinned = include_str!("exposition.prom");
    if rendered != pinned {
        let line = rendered
            .lines()
            .zip(pinned.lines())
            .position(|(a, b)| a != b)
            .map_or(rendered.lines().count().min(pinned.lines().count()), |i| i);
        panic!(
            "exposition differs from tests/exposition.prom at line {}:\n  rendered: {:?}\n  pinned:   {:?}",
            line + 1,
            rendered.lines().nth(line),
            pinned.lines().nth(line)
        );
    }
}
