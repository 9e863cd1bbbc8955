//! Device-wide histogram.
//!
//! Two-kernel structure following Gómez-Luna et al. (the algorithm cuSZ and the paper's
//! tuner use): (1) each block builds a privatized histogram of its tile in shared memory
//! and writes it to a per-block slot in global memory, (2) a reduction kernel sums the
//! per-block histograms into the final bin counts.

use crate::backend::Backend;
use crate::block::{cost, BlockContext};
use crate::buffer::DeviceBuffer;
use crate::kernel::{BlockKernel, LaunchConfig};
use crate::timing::PhaseTime;

const BLOCK_DIM: u32 = 256;
const ITEMS_PER_THREAD: u32 = 8;

struct PartialHistogramKernel<'a, K> {
    keys: &'a [K],
    partials: &'a DeviceBuffer<u64>,
    num_bins: usize,
}

impl<K: Copy + Into<u32> + Sync> BlockKernel for PartialHistogramKernel<'_, K> {
    fn name(&self) -> &str {
        "device_histogram::partial"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.keys.len());
        let base = ctx.block_idx() as usize * self.num_bins;

        let mut local = vec![0u64; self.num_bins];
        for i in start..end {
            let k = self.keys[i].into() as usize;
            assert!(
                k < self.num_bins,
                "histogram key {} out of range ({} bins)",
                k,
                self.num_bins
            );
            local[k] += 1;
        }
        for (bin, &count) in local.iter().enumerate() {
            self.partials.set(base + bin, count);
        }

        // Cost: coalesced loads of the tile plus one shared-memory atomic per item.
        let warp_size = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 4);
                ctx.shared_access_contiguous(w, 1);
                ctx.compute(w, cost::ALU);
            }
        }
        // Write out the partial histogram (num_bins values, coalesced).
        if let Some(w0) = (ctx.warp_count() > 0).then_some(0) {
            let writes = self.num_bins as u32;
            ctx.global_store_contiguous(w0, base as u64, writes.min(ctx.config().warp_size), 8);
            ctx.compute(
                w0,
                (writes as f64 / ctx.config().warp_size as f64).ceil() * cost::ALU,
            );
        }
        ctx.syncthreads();
    }
}

struct ReducePartialsKernel<'a> {
    partials: &'a [u64],
    out: &'a DeviceBuffer<u64>,
    num_bins: usize,
    num_partials: usize,
}

impl BlockKernel for ReducePartialsKernel<'_> {
    fn name(&self) -> &str {
        "device_histogram::reduce"
    }

    fn block(&self, ctx: &mut BlockContext) {
        // One block per bin range; each thread-equivalent handles one bin.
        let bins_per_block = ctx.block_dim() as usize;
        let start_bin = ctx.block_idx() as usize * bins_per_block;
        let end_bin = (start_bin + bins_per_block).min(self.num_bins);
        for bin in start_bin..end_bin {
            let mut sum = 0u64;
            for p in 0..self.num_partials {
                sum += self.partials[p * self.num_bins + bin];
            }
            self.out.set(bin, sum);
        }
        for w in 0..ctx.warp_count() {
            ctx.global_load_strided(
                w,
                start_bin as u64,
                ctx.config().warp_size,
                self.num_bins as u64,
                8,
            );
            ctx.compute(w, self.num_partials as f64 * cost::ALU);
            ctx.global_store_contiguous(w, start_bin as u64, ctx.config().warp_size, 8);
        }
    }
}

/// Computes the histogram of `keys` over `num_bins` bins on the device.
///
/// Every key must be `< num_bins`. Returns the bin counts and the accumulated phase time.
pub fn device_histogram<D: Backend + ?Sized, K: Copy + Into<u32> + Sync>(
    gpu: &D,
    keys: &[K],
    num_bins: usize,
) -> (Vec<u64>, PhaseTime) {
    let mut phase = PhaseTime::empty();
    if keys.is_empty() || num_bins == 0 {
        return (vec![0u64; num_bins], phase);
    }

    let tile = (BLOCK_DIM * ITEMS_PER_THREAD) as usize;
    let grid = keys.len().div_ceil(tile) as u32;
    let d_partials = DeviceBuffer::<u64>::zeroed(grid as usize * num_bins);
    let d_out = DeviceBuffer::<u64>::zeroed(num_bins);

    let k1 = PartialHistogramKernel {
        keys,
        partials: &d_partials,
        num_bins,
    };
    phase.push_serial(gpu.launch(&k1, LaunchConfig::new(grid, BLOCK_DIM)));

    let partials = d_partials.into_vec();
    let k2 = ReducePartialsKernel {
        partials: &partials,
        out: &d_out,
        num_bins,
        num_partials: grid as usize,
    };
    phase.push_serial(gpu.launch(&k2, LaunchConfig::covering(num_bins, BLOCK_DIM)));

    (d_out.into_vec(), phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::kernel::Gpu;

    fn reference_histogram(keys: &[u32], bins: usize) -> Vec<u64> {
        let mut h = vec![0u64; bins];
        for &k in keys {
            h[k as usize] += 1;
        }
        h
    }

    #[test]
    fn small_histogram_matches_reference() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let keys = vec![0u32, 1, 1, 2, 2, 2, 3, 3, 3, 3];
        let (h, phase) = device_histogram(&gpu, &keys, 5);
        assert_eq!(h, vec![1, 2, 3, 4, 0]);
        assert_eq!(phase.kernels.len(), 2);
    }

    #[test]
    fn large_histogram_matches_reference() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 8);
        let keys: Vec<u32> = (0..100_000u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(i) % 16)
            .collect();
        let (h, _) = device_histogram(&gpu, &keys, 16);
        assert_eq!(h, reference_histogram(&keys, 16));
        assert_eq!(h.iter().sum::<u64>(), keys.len() as u64);
    }

    #[test]
    fn empty_keys() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let (h, phase) = device_histogram(&gpu, &[0u32; 0], 9);
        assert_eq!(h, vec![0u64; 9]);
        assert_eq!(phase.seconds, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_panics() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
        let _ = device_histogram(&gpu, &[10u32], 5);
    }
}
