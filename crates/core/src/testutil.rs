//! Fixtures shared by this crate's unit tests.

use gpu_sim::{Gpu, GpuConfig, MemStats};

/// Quantization-code-like symbols at and below 512: magnitudes are geometrically
/// distributed and capped at `spread`, so a smaller `spread` is more compressible.
pub(crate) fn quant_symbols(n: usize, spread: u32) -> Vec<u16> {
    (0..n as u32)
        .map(|i| {
            let r = i.wrapping_mul(2654435761).rotate_left(9);
            let mag = r.trailing_zeros().min(spread) as i32;
            (512 + if r & 1 == 1 { mag } else { -mag }) as u16
        })
        .collect()
}

/// The small simulated device the unit tests launch on.
pub(crate) fn gpu() -> Gpu {
    Gpu::with_host_threads(GpuConfig::test_tiny(), 4)
}

/// Useful bytes per byte of DRAM traffic: 1.0 for perfectly coalesced full sectors.
pub(crate) fn efficiency(mem: &MemStats) -> f64 {
    (mem.useful_load_bytes + mem.useful_store_bytes) as f64 / mem.dram_bytes(32) as f64
}
