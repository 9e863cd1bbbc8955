//! Per-phase timing breakdown of a decode run (the rows of Table II).
//!
//! Every decoder reports where its (simulated) time went: the self-synchronization phases,
//! the output-index computation, the shared-memory tuning, and the decode/write phase.
//! Phases that a given decoder does not have are `None` (e.g. the gap-array decoders have
//! no synchronization phases; the unoptimized decoders have no tuning phase).

use gpu_sim::PhaseTime;

/// Timing breakdown for one decode run.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Intra-sequence synchronization (self-synchronization decoders only).
    pub intra_sync: Option<PhaseTime>,
    /// Inter-sequence synchronization (self-synchronization decoders only).
    pub inter_sync: Option<PhaseTime>,
    /// Output-index computation: symbol counting (gap-array decoders) and/or the
    /// device-wide prefix sum.
    pub output_index: Option<PhaseTime>,
    /// Online shared-memory tuning (optimized decoders only).
    pub tune: Option<PhaseTime>,
    /// The decode-and-write phase.
    pub decode_write: Option<PhaseTime>,
}

impl PhaseBreakdown {
    /// Total decode time in seconds (sum of all present phases).
    pub fn total_seconds(&self) -> f64 {
        self.phases().map(|(_, p)| p.seconds).sum()
    }

    /// Decoding throughput in GB/s relative to `useful_bytes` (the paper uses the size of
    /// the quantization codes, i.e. 2 bytes per symbol).
    pub fn throughput_gbs(&self, useful_bytes: u64) -> f64 {
        throughput_gbs(useful_bytes, self.total_seconds())
    }

    /// The present phases, in execution order, with their display names. Every reader
    /// of the phases walks this, and it allocates nothing.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, &PhaseTime)> {
        [
            ("intra-seq sync.", &self.intra_sync),
            ("inter-seq sync.", &self.inter_sync),
            ("get output idx.", &self.output_index),
            ("tune shared mem.", &self.tune),
            ("decode and write", &self.decode_write),
        ]
        .into_iter()
        .filter_map(|(name, phase)| Some((name, phase.as_ref()?)))
    }

    /// Appends `later`'s phases, run after this breakdown's, slot by slot: a phase
    /// present in `later` extends this one's serially, or takes an empty slot.
    pub fn extend_serial(&mut self, later: PhaseBreakdown) {
        for (slot, phase) in [
            (&mut self.intra_sync, later.intra_sync),
            (&mut self.inter_sync, later.inter_sync),
            (&mut self.output_index, later.output_index),
            (&mut self.tune, later.tune),
            (&mut self.decode_write, later.decode_write),
        ] {
            if let Some(p) = phase {
                slot.get_or_insert_with(PhaseTime::empty).extend_serial(p);
            }
        }
    }

    /// Total number of simulated kernel launches across all phases.
    pub fn kernel_launches(&self) -> usize {
        self.phases().map(|(_, p)| p.kernels.len()).sum()
    }
}

/// `useful_bytes` over `seconds` in GB/s; 0 when no time was taken.
pub(crate) fn throughput_gbs(useful_bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        useful_bytes as f64 / seconds / 1e9
    }
}

/// The result of a decode: the symbols plus the timing breakdown.
#[derive(Debug, Clone, Default)]
pub struct DecodeResult {
    /// Decoded symbols.
    pub symbols: Vec<u16>,
    /// Simulated timing breakdown.
    pub timings: PhaseBreakdown,
}

impl DecodeResult {
    /// Decoding throughput in GB/s relative to the decoded quantization-code bytes
    /// (2 bytes per symbol), the convention of Tables II and V.
    pub fn throughput_gbs(&self) -> f64 {
        self.timings.throughput_gbs(self.symbols.len() as u64 * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(seconds: f64) -> PhaseTime {
        let mut p = PhaseTime::empty();
        p.push_seconds(seconds);
        p
    }

    #[test]
    fn total_sums_only_present_phases() {
        let b = PhaseBreakdown {
            intra_sync: Some(phase(1.0)),
            inter_sync: None,
            output_index: Some(phase(2.0)),
            tune: None,
            decode_write: Some(phase(3.0)),
        };
        assert!((b.total_seconds() - 6.0).abs() < 1e-12);
        assert_eq!(b.phases().count(), 3);
        assert_eq!(b.kernel_launches(), 0);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = PhaseBreakdown::default();
        assert_eq!(b.total_seconds(), 0.0);
        assert_eq!(b.throughput_gbs(100), 0.0);
        assert!(b.phases().next().is_none());
    }

    #[test]
    fn throughput_is_bytes_over_time() {
        let b = PhaseBreakdown {
            decode_write: Some(phase(0.5)),
            ..Default::default()
        };
        assert!((b.throughput_gbs(1_000_000_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decode_result_throughput_uses_two_bytes_per_symbol() {
        let r = DecodeResult {
            symbols: vec![0u16; 500_000_000],
            timings: PhaseBreakdown {
                decode_write: Some(phase(1.0)),
                ..Default::default()
            },
        };
        assert!((r.throughput_gbs() - 1.0).abs() < 1e-9);
    }
}
