//! Device-wide exclusive prefix sum (scan).
//!
//! Three-kernel structure, as in CUB/Thrust: (1) per-block scan producing per-block sums,
//! (2) scan of the block sums (single block), (3) uniform add of the scanned block sums.
//! Used by the decoders to turn per-subsequence symbol counts into output indices, and by
//! the shared-memory tuner to turn the class histogram into class start offsets.

use crate::block::{cost, BlockContext};
use crate::buffer::DeviceBuffer;
use crate::kernel::{BlockKernel, LaunchConfig, LaunchDevice};
use crate::timing::PhaseTime;

/// Work per thread in the per-block scan kernels (elements).
const ITEMS_PER_THREAD: u32 = 4;
/// Threads per block for scan kernels.
const BLOCK_DIM: u32 = 256;

struct BlockScanKernel<'a> {
    input: &'a [u64],
    output: &'a DeviceBuffer<u64>,
    block_sums: &'a DeviceBuffer<u64>,
}

impl BlockKernel for BlockScanKernel<'_> {
    fn name(&self) -> &str {
        "device_scan::block_scan"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.input.len());
        if start >= self.input.len() {
            self.block_sums.set(ctx.block_idx() as usize, 0);
            return;
        }

        // Functional: sequential exclusive scan of the tile.
        let mut running = 0u64;
        for i in start..end {
            self.output.set(i, running);
            running += self.input[i];
        }
        self.block_sums.set(ctx.block_idx() as usize, running);

        // Cost: each warp loads and stores its items coalesced and performs a
        // log2(block_dim)-step shared-memory scan.
        let warps = ctx.warp_count();
        let warp_size = ctx.config().warp_size;
        for w in 0..warps {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            let lanes = warp_size.min(((end as u64 - lane_base) as u32).div_ceil(ITEMS_PER_THREAD));
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * lanes) as u64, lanes, 8);
                ctx.global_store_contiguous(w, lane_base + (item * lanes) as u64, lanes, 8);
            }
            let scan_steps = (ctx.block_dim() as f64).log2().ceil();
            ctx.compute(w, scan_steps * (cost::SHARED_ACCESS + cost::ALU));
        }
        ctx.syncthreads();
    }
}

struct AddOffsetsKernel<'a> {
    output: &'a DeviceBuffer<u64>,
    block_offsets: &'a [u64],
}

impl BlockKernel for AddOffsetsKernel<'_> {
    fn name(&self) -> &str {
        "device_scan::add_offsets"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.output.len());
        if start >= self.output.len() {
            return;
        }
        let offset = self.block_offsets[ctx.block_idx() as usize];
        for i in start..end {
            self.output.set(i, self.output.get(i) + offset);
        }
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * ctx.config().warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            let lanes = ctx.config().warp_size;
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * lanes) as u64, lanes, 8);
                ctx.global_store_contiguous(w, lane_base + (item * lanes) as u64, lanes, 8);
            }
            ctx.compute(w, ITEMS_PER_THREAD as f64 * cost::ALU);
        }
    }
}

/// Computes the exclusive prefix sum of `input` on the device.
///
/// Returns the scanned values, the total sum, and the accumulated phase time (all kernel
/// launches involved).
pub fn device_exclusive_prefix_sum<D: LaunchDevice + ?Sized>(
    gpu: &D,
    input: &[u64],
) -> (Vec<u64>, u64, PhaseTime) {
    let mut phase = PhaseTime::empty();
    if input.is_empty() {
        return (Vec::new(), 0, phase);
    }

    let d_out = DeviceBuffer::<u64>::zeroed(input.len());
    let tile = (BLOCK_DIM * ITEMS_PER_THREAD) as usize;
    let grid = input.len().div_ceil(tile) as u32;
    let d_block_sums = DeviceBuffer::<u64>::zeroed(grid as usize);

    let k1 = BlockScanKernel {
        input,
        output: &d_out,
        block_sums: &d_block_sums,
    };
    phase.push_serial(gpu.launch(&k1, LaunchConfig::new(grid, BLOCK_DIM)));

    // Scan of block sums: done on the host here, standing in for the small single-block
    // kernel CUB would launch; the sim charges one launch overhead for it, a real
    // backend the measured duration.
    let host_start = std::time::Instant::now();
    let mut offsets = d_block_sums.into_vec();
    let mut running = 0u64;
    for slot in offsets.iter_mut() {
        let sum = *slot;
        *slot = running;
        running += sum;
    }
    phase.push_seconds(gpu.charge_seconds(
        gpu.config().kernel_launch_overhead_us * 1e-6,
        host_start.elapsed().as_secs_f64(),
    ));

    let k3 = AddOffsetsKernel {
        output: &d_out,
        block_offsets: &offsets,
    };
    phase.push_serial(gpu.launch(&k3, LaunchConfig::new(grid, BLOCK_DIM)));

    (d_out.into_vec(), running, phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::kernel::Gpu;

    fn reference_exclusive_scan(input: &[u64]) -> (Vec<u64>, u64) {
        let mut out = vec![0u64; input.len()];
        let mut acc = 0u64;
        for (i, v) in input.iter().enumerate() {
            out[i] = acc;
            acc += v;
        }
        (out, acc)
    }

    #[test]
    fn matches_reference_small() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let input = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let (out, total, _) = device_exclusive_prefix_sum(&gpu, &input);
        let (expect, expect_total) = reference_exclusive_scan(&input);
        assert_eq!(out, expect);
        assert_eq!(total, expect_total);
    }

    #[test]
    fn matches_reference_large_multiblock() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 8);
        let input: Vec<u64> = (0..50_000u64).map(|i| (i * 7 + 3) % 100).collect();
        let (out, total, phase) = device_exclusive_prefix_sum(&gpu, &input);
        let (expect, expect_total) = reference_exclusive_scan(&input);
        assert_eq!(out, expect);
        assert_eq!(total, expect_total);
        assert!(phase.seconds > 0.0);
        assert!(phase.kernels.len() >= 2);
    }

    #[test]
    fn empty_input() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let (out, total, phase) = device_exclusive_prefix_sum(&gpu, &[]);
        assert!(out.is_empty());
        assert_eq!(total, 0);
        assert_eq!(phase.seconds, 0.0);
    }

    #[test]
    fn all_zeros() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let input = vec![0u64; 5000];
        let (out, total, _) = device_exclusive_prefix_sum(&gpu, &input);
        assert!(out.iter().all(|&v| v == 0));
        assert_eq!(total, 0);
    }
}
