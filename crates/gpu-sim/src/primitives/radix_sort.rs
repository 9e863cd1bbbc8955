//! Device-wide key-value radix sort, modelled on CUB's `DeviceRadixSort::SortPairs`.
//!
//! LSD radix sort over 4-bit digits. Each pass runs two kernels: a per-block digit
//! histogram ("upsweep") and a stable scatter ("downsweep") whose base offsets come from an
//! exclusive scan over the (digit, block) count matrix. The shared-memory tuner (Algorithm
//! 2 of the paper) sorts the per-sequence compression-ratio classes with their sequence
//! indices as values; class keys are tiny (≤ `T_high + 1`), so `sort_pairs_with_max_key`
//! stops after one pass, matching the paper's observation that "since T_high is fairly
//! small, sorting T_high + 1 groups is fast using CUB".

use crate::backend::Backend;
use crate::block::{cost, BlockContext};
use crate::buffer::DeviceBuffer;
use crate::kernel::{BlockKernel, LaunchConfig};
use crate::timing::PhaseTime;

const RADIX_BITS: u32 = 4;
const RADIX: usize = 1 << RADIX_BITS;
const BLOCK_DIM: u32 = 256;
const ITEMS_PER_THREAD: u32 = 8;

struct UpsweepKernel<'a> {
    keys: &'a [u32],
    counts: &'a DeviceBuffer<u64>, // [block][digit]
    shift: u32,
}

impl BlockKernel for UpsweepKernel<'_> {
    fn name(&self) -> &str {
        "device_radix_sort::upsweep"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.keys.len());
        let mut local = [0u64; RADIX];
        for i in start..end {
            let d = ((self.keys[i] >> self.shift) as usize) & (RADIX - 1);
            local[d] += 1;
        }
        let base = ctx.block_idx() as usize * RADIX;
        for (d, &c) in local.iter().enumerate() {
            self.counts.set(base + d, c);
        }

        let warp_size = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 4);
                ctx.compute(w, 2.0 * cost::ALU);
                ctx.shared_access_contiguous(w, 1);
            }
        }
        if ctx.warp_count() > 0 {
            ctx.global_store_contiguous(0, base as u64, RADIX as u32, 8);
        }
        ctx.syncthreads();
    }
}

struct DownsweepKernel<'a> {
    keys_in: &'a [u32],
    vals_in: &'a [u32],
    keys_out: &'a DeviceBuffer<u32>,
    vals_out: &'a DeviceBuffer<u32>,
    /// Exclusive global base offset for each (block, digit), indexed `block * RADIX + digit`.
    offsets: &'a [u64],
    shift: u32,
}

impl BlockKernel for DownsweepKernel<'_> {
    fn name(&self) -> &str {
        "device_radix_sort::downsweep"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let tile = (ctx.block_dim() * ITEMS_PER_THREAD) as usize;
        let start = ctx.block_idx() as usize * tile;
        let end = (start + tile).min(self.keys_in.len());
        let base = ctx.block_idx() as usize * RADIX;
        let mut cursor = [0u64; RADIX];
        cursor.copy_from_slice(&self.offsets[base..base + RADIX]);

        for i in start..end {
            let k = self.keys_in[i];
            let v = self.vals_in[i];
            let d = ((k >> self.shift) as usize) & (RADIX - 1);
            let dst = cursor[d] as usize;
            self.keys_out.set(dst, k);
            self.vals_out.set(dst, v);
            cursor[d] += 1;
        }

        // Cost: coalesced loads; scatter writes land in up-to-RADIX contiguous runs, so
        // stores are partially coalesced (CUB achieves the same via shared-memory staging).
        let warp_size = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let lane_base = start as u64 + (w * warp_size * ITEMS_PER_THREAD) as u64;
            if lane_base >= end as u64 {
                break;
            }
            for item in 0..ITEMS_PER_THREAD {
                ctx.global_load_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 4);
                ctx.global_load_contiguous(w, lane_base + (item * warp_size) as u64, warp_size, 4);
                ctx.shared_access_contiguous(w, 1);
                ctx.compute(w, 3.0 * cost::ALU);
                // Scatter: assume each warp's 32 items split across at most RADIX runs.
                let runs = (RADIX as u32).min(warp_size);
                let per_run = warp_size / runs;
                for r in 0..runs {
                    ctx.global_store_contiguous(
                        w,
                        (lane_base + (r * per_run) as u64) * 2,
                        per_run,
                        4,
                    );
                    ctx.global_store_contiguous(
                        w,
                        (lane_base + (r * per_run) as u64) * 2,
                        per_run,
                        4,
                    );
                }
            }
        }
        ctx.syncthreads();
    }
}

/// Sorts `(keys, values)` pairs by key on the device, ascending and stable.
///
/// `max_key` bounds the key range so the sort can stop after the necessary number of 4-bit
/// passes (pass count = ceil(bits(max_key) / 4), minimum 1).
pub fn device_radix_sort_pairs<D: Backend + ?Sized>(
    gpu: &D,
    keys: &[u32],
    values: &[u32],
    max_key: u32,
) -> (Vec<u32>, Vec<u32>, PhaseTime) {
    assert_eq!(
        keys.len(),
        values.len(),
        "keys and values must have equal length"
    );
    let mut phase = PhaseTime::empty();
    if keys.is_empty() {
        return (Vec::new(), Vec::new(), phase);
    }

    let significant_bits = 32 - max_key.leading_zeros();
    let passes = significant_bits.div_ceil(RADIX_BITS).max(1);

    let tile = (BLOCK_DIM * ITEMS_PER_THREAD) as usize;
    let grid = keys.len().div_ceil(tile) as u32;

    // Each pass reads the previous pass's output; the first reads the caller's slices.
    let mut sorted: Option<(Vec<u32>, Vec<u32>)> = None;

    for pass in 0..passes {
        let (keys_in, vals_in) = match &sorted {
            Some((k, v)) => (&k[..], &v[..]),
            None => (keys, values),
        };
        let shift = pass * RADIX_BITS;
        let counts = DeviceBuffer::<u64>::zeroed(grid as usize * RADIX);
        let up = UpsweepKernel {
            keys: keys_in,
            counts: &counts,
            shift,
        };
        phase.push_serial(gpu.launch(&up, LaunchConfig::new(grid, BLOCK_DIM)));

        // Exclusive scan over digit-major (digit, block) order to obtain stable global
        // offsets; small matrix, host-side, charged as one small kernel launch on the
        // sim and as measured time on a real backend.
        let host_start = std::time::Instant::now();
        let counts_host = counts.into_vec();
        let mut offsets = vec![0u64; grid as usize * RADIX];
        let mut running = 0u64;
        for digit in 0..RADIX {
            for block in 0..grid as usize {
                offsets[block * RADIX + digit] = running;
                running += counts_host[block * RADIX + digit];
            }
        }
        phase.push_seconds(gpu.charge_seconds(
            gpu.config().kernel_launch_overhead_us * 1e-6,
            host_start.elapsed().as_secs_f64(),
        ));

        let out_keys = DeviceBuffer::<u32>::zeroed(keys.len());
        let out_vals = DeviceBuffer::<u32>::zeroed(values.len());
        let down = DownsweepKernel {
            keys_in,
            vals_in,
            keys_out: &out_keys,
            vals_out: &out_vals,
            offsets: &offsets,
            shift,
        };
        phase.push_serial(gpu.launch(&down, LaunchConfig::new(grid, BLOCK_DIM)));

        sorted = Some((out_keys.into_vec(), out_vals.into_vec()));
    }

    let (sorted_keys, sorted_vals) = sorted.expect("a radix sort runs at least one pass");
    (sorted_keys, sorted_vals, phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::kernel::Gpu;

    fn check_sorted_stable(keys: &[u32], values: &[u32], out_k: &[u32], out_v: &[u32]) {
        // Sorted by key.
        assert!(out_k.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
        // Same multiset of pairs, and stability: equal keys keep input order of values.
        let mut expected: Vec<(u32, u32)> =
            keys.iter().cloned().zip(values.iter().cloned()).collect();
        // Stable sort by key mirrors the expected output exactly.
        expected.sort_by_key(|&(k, _)| k);
        let got: Vec<(u32, u32)> = out_k.iter().cloned().zip(out_v.iter().cloned()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn sorts_small_key_range_one_pass() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let keys: Vec<u32> = (0..10_000u32).map(|i| (i * 7919) % 9).collect();
        let values: Vec<u32> = (0..10_000u32).collect();
        let (ok, ov, phase) = device_radix_sort_pairs(&gpu, &keys, &values, 8);
        check_sorted_stable(&keys, &values, &ok, &ov);
        // One pass = upsweep + downsweep kernels.
        assert_eq!(phase.kernels.len(), 2);
    }

    #[test]
    fn sorts_wide_key_range_multiple_passes() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let keys: Vec<u32> = (0..20_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 100_000)
            .collect();
        let values: Vec<u32> = (0..20_000u32).collect();
        let (ok, ov, phase) = device_radix_sort_pairs(&gpu, &keys, &values, 99_999);
        check_sorted_stable(&keys, &values, &ok, &ov);
        assert!(phase.kernels.len() > 2);
    }

    #[test]
    fn empty_input() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
        let (ok, ov, phase) = device_radix_sort_pairs(&gpu, &[], &[], 10);
        assert!(ok.is_empty() && ov.is_empty());
        assert_eq!(phase.seconds, 0.0);
    }

    #[test]
    fn already_sorted_input_is_preserved() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let keys: Vec<u32> = (0..5000u32).map(|i| i / 100).collect();
        let values: Vec<u32> = (0..5000u32).collect();
        let (ok, ov, _) = device_radix_sort_pairs(&gpu, &keys, &values, 50);
        assert_eq!(ok, keys);
        assert_eq!(ov, values);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
        let _ = device_radix_sort_pairs(&gpu, &[1, 2], &[1], 2);
    }
}
