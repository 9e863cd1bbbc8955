//! Occupancy calculation.
//!
//! Occupancy — the fraction of an SM's maximum resident warps that a kernel can keep
//! resident — governs how well memory latency can be hidden. The paper's shared-memory
//! tuning (§IV-C) exists precisely because allocating a larger decode buffer lowers
//! occupancy: this module reproduces that trade-off with the standard CUDA occupancy
//! rules (threads, blocks and shared memory per SM; registers do not bind for the
//! memory-bound decoder kernels and are not modelled).

use crate::config::GpuConfig;

/// Which hardware resource limits the number of resident blocks per SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyLimiter {
    /// Limited by the maximum number of resident threads per SM.
    Threads,
    /// Limited by the maximum number of resident blocks per SM.
    Blocks,
    /// Limited by shared-memory capacity per SM.
    SharedMemory,
    /// The grid has fewer blocks than a single SM could host.
    GridSize,
}

/// Occupancy achieved by a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// `warps_per_sm / max_warps_per_sm`, in `[0, 1]`.
    pub fraction: f64,
    /// The binding resource.
    pub limited_by: OccupancyLimiter,
}

impl Occupancy {
    /// Computes the occupancy of a launch on the given GPU.
    pub fn calculate(
        cfg: &GpuConfig,
        grid_dim: u32,
        block_dim: u32,
        shared_mem_per_block: u32,
    ) -> Occupancy {
        assert!(block_dim > 0, "block_dim must be positive");
        let warps_per_block = block_dim.div_ceil(cfg.warp_size);

        let by_threads = cfg.max_threads_per_sm / block_dim.max(1);
        let by_blocks = cfg.max_blocks_per_sm;
        let by_shmem = cfg
            .shared_mem_per_sm
            .checked_div(shared_mem_per_block)
            .unwrap_or(u32::MAX);

        let mut blocks = by_threads.min(by_blocks).min(by_shmem);
        let mut limited_by = if blocks == by_shmem && shared_mem_per_block != 0 {
            OccupancyLimiter::SharedMemory
        } else if blocks == by_threads {
            OccupancyLimiter::Threads
        } else {
            OccupancyLimiter::Blocks
        };

        // A small grid cannot fill the device regardless of per-SM limits.
        let blocks_needed_per_sm = grid_dim.div_ceil(cfg.num_sms).max(1);
        if blocks_needed_per_sm < blocks {
            blocks = blocks_needed_per_sm;
            limited_by = OccupancyLimiter::GridSize;
        }

        let blocks = blocks.max(1);
        let warps = (blocks * warps_per_block).min(cfg.max_warps_per_sm());
        Occupancy {
            blocks_per_sm: blocks,
            warps_per_sm: warps,
            fraction: warps as f64 / cfg.max_warps_per_sm() as f64,
            limited_by,
        }
    }

    /// Total blocks resident on the whole device at once.
    pub fn active_blocks_on_device(&self, cfg: &GpuConfig) -> u32 {
        self.blocks_per_sm * cfg.num_sms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_shared_memory_full_occupancy() {
        let cfg = GpuConfig::v100();
        let occ = Occupancy::calculate(&cfg, 1_000_000, 256, 0);
        // 2048 threads / 256 = 8 blocks, 64 warps -> 100%.
        assert_eq!(occ.blocks_per_sm, 8);
        assert_eq!(occ.warps_per_sm, 64);
        assert!((occ.fraction - 1.0).abs() < 1e-12);
        assert_eq!(occ.limited_by, OccupancyLimiter::Threads);
    }

    #[test]
    fn shared_memory_limits_occupancy() {
        let cfg = GpuConfig::v100();
        // 48 KiB per block -> only 2 blocks per SM fit in 96 KiB.
        let occ = Occupancy::calculate(&cfg, 1_000_000, 256, 48 * 1024);
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limited_by, OccupancyLimiter::SharedMemory);
        assert!(occ.fraction < 0.5);
    }

    #[test]
    fn larger_buffers_monotonically_reduce_occupancy() {
        let cfg = GpuConfig::v100();
        let mut last = u32::MAX;
        for shmem in (2048..=32 * 1024).step_by(2048) {
            let occ = Occupancy::calculate(&cfg, 1_000_000, 256, shmem);
            assert!(occ.blocks_per_sm <= last);
            last = occ.blocks_per_sm;
        }
    }

    #[test]
    fn small_grid_limits_occupancy() {
        let cfg = GpuConfig::v100();
        let occ = Occupancy::calculate(&cfg, 80, 256, 0);
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limited_by, OccupancyLimiter::GridSize);
    }

    #[test]
    fn tiny_block_limited_by_block_slots() {
        let cfg = GpuConfig::v100();
        let occ = Occupancy::calculate(&cfg, 1_000_000, 32, 0);
        // 2048/32 = 64 by threads, but max 32 blocks per SM binds first.
        assert_eq!(occ.blocks_per_sm, 32);
        assert_eq!(occ.limited_by, OccupancyLimiter::Blocks);
        assert!((occ.fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn active_blocks_on_device_scales_with_sms() {
        let cfg = GpuConfig::v100();
        let occ = Occupancy::calculate(&cfg, 1_000_000, 256, 0);
        assert_eq!(occ.active_blocks_on_device(&cfg), 8 * 80);
    }
}
