//! Device-wide reductions (sum and max).
//!
//! Standard two-stage tree reduction: per-block partial reductions followed by a final
//! combine. Used by the decoders to compute total output sizes and by the tuner's
//! diagnostics.

use crate::block::{cost, BlockContext};
use crate::buffer::DeviceBuffer;
use crate::kernel::{BlockKernel, LaunchConfig, LaunchDevice};
use crate::timing::PhaseTime;

const BLOCK_DIM: u32 = 256;
const ITEMS_PER_THREAD: u32 = 8;

enum ReduceOp {
    Sum,
    Max,
}

struct ReduceKernel<'a> {
    input: &'a [u64],
    partials: &'a DeviceBuffer<u64>,
    op: ReduceOp,
}

impl BlockKernel for ReduceKernel<'_> {
    fn name(&self) -> &str {
        match self.op {
            ReduceOp::Sum => "device_reduce::sum",
            ReduceOp::Max => "device_reduce::max",
        }
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.input.len());

        let mut acc: u64 = match self.op {
            ReduceOp::Sum => 0,
            ReduceOp::Max => 0,
        };
        for i in start..end {
            let v = self.input[i];
            acc = match self.op {
                ReduceOp::Sum => acc + v,
                ReduceOp::Max => acc.max(v),
            };
        }
        self.partials.set(ctx.block_idx() as usize, acc);

        let warp_size = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 8);
                ctx.compute(w, cost::ALU);
            }
            // Warp + block tree reduction.
            ctx.compute(w, 5.0 * (cost::ALU + cost::WARP_PRIMITIVE));
        }
        ctx.syncthreads();
    }
}

fn device_reduce<D: LaunchDevice + ?Sized>(
    gpu: &D,
    input: &[u64],
    op: ReduceOp,
) -> (u64, PhaseTime) {
    let mut phase = PhaseTime::empty();
    if input.is_empty() {
        return (0, phase);
    }
    let tile = (BLOCK_DIM * ITEMS_PER_THREAD) as usize;
    let grid = input.len().div_ceil(tile) as u32;
    let d_partials = DeviceBuffer::<u64>::zeroed(grid as usize);
    let is_sum = matches!(op, ReduceOp::Sum);
    let k = ReduceKernel {
        input,
        partials: &d_partials,
        op,
    };
    phase.push_serial(gpu.launch(&k, LaunchConfig::new(grid, BLOCK_DIM)));

    // Final combine of the per-block partials (small; host-side, one launch charged on
    // the sim, measured time on a real backend).
    let host_start = std::time::Instant::now();
    let partials = d_partials.into_vec();
    let result = if is_sum {
        partials.iter().sum()
    } else {
        partials.iter().cloned().max().unwrap_or(0)
    };
    phase.push_seconds(gpu.charge_seconds(
        gpu.config().kernel_launch_overhead_us * 1e-6,
        host_start.elapsed().as_secs_f64(),
    ));
    (result, phase)
}

/// Sums `input` on the device.
pub fn device_reduce_sum<D: LaunchDevice + ?Sized>(gpu: &D, input: &[u64]) -> (u64, PhaseTime) {
    device_reduce(gpu, input, ReduceOp::Sum)
}

/// Computes the maximum of `input` on the device (0 for empty input).
pub fn device_reduce_max<D: LaunchDevice + ?Sized>(gpu: &D, input: &[u64]) -> (u64, PhaseTime) {
    device_reduce(gpu, input, ReduceOp::Max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::kernel::Gpu;

    #[test]
    fn sum_matches_reference() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let input: Vec<u64> = (0..30_000u64).map(|i| i % 17).collect();
        let (sum, phase) = device_reduce_sum(&gpu, &input);
        assert_eq!(sum, input.iter().sum::<u64>());
        assert!(phase.seconds > 0.0);
    }

    #[test]
    fn max_matches_reference() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let input: Vec<u64> = (0..10_000u64).map(|i| (i * 37) % 1999).collect();
        let (m, _) = device_reduce_max(&gpu, &input);
        assert_eq!(m, *input.iter().max().unwrap());
    }

    #[test]
    fn empty_input_is_zero() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
        assert_eq!(device_reduce_sum(&gpu, &[]).0, 0);
        assert_eq!(device_reduce_max(&gpu, &[]).0, 0);
    }

    #[test]
    fn single_element() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
        assert_eq!(device_reduce_sum(&gpu, &[42]).0, 42);
        assert_eq!(device_reduce_max(&gpu, &[42]).0, 42);
    }
}
