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
        self.phases().iter().map(|(_, p)| p.seconds).sum()
    }

    /// Decoding throughput in GB/s relative to `useful_bytes` (the paper uses the size of
    /// the quantization codes, i.e. 2 bytes per symbol).
    pub fn throughput_gbs(&self, useful_bytes: u64) -> f64 {
        let t = self.total_seconds();
        if t <= 0.0 {
            0.0
        } else {
            useful_bytes as f64 / t / 1e9
        }
    }

    /// The present phases, in execution order, with their display names.
    pub fn phases(&self) -> Vec<(&'static str, &PhaseTime)> {
        let mut v = Vec::new();
        if let Some(p) = &self.intra_sync {
            v.push(("intra-seq sync.", p));
        }
        if let Some(p) = &self.inter_sync {
            v.push(("inter-seq sync.", p));
        }
        if let Some(p) = &self.output_index {
            v.push(("get output idx.", p));
        }
        if let Some(p) = &self.tune {
            v.push(("tune shared mem.", p));
        }
        if let Some(p) = &self.decode_write {
            v.push(("decode and write", p));
        }
        v
    }

    /// Total number of simulated kernel launches across all phases.
    pub fn kernel_launches(&self) -> usize {
        self.phases().iter().map(|(_, p)| p.kernels.len()).sum()
    }
}

/// The result of a decode: the symbols plus the timing breakdown.
#[derive(Debug, Clone)]
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
        assert_eq!(b.phases().len(), 3);
        assert_eq!(b.kernel_launches(), 0);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = PhaseBreakdown::default();
        assert_eq!(b.total_seconds(), 0.0);
        assert_eq!(b.throughput_gbs(100), 0.0);
        assert!(b.phases().is_empty());
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
