//! CUDA-stream concurrency model.
//!
//! Algorithm 2 of the paper launches up to `T_high + 1` decode kernels on separate CUDA
//! streams so that the driver can overlap their execution ("each kernel is launched on a
//! separate CUDA stream in order to allow the CUDA driver maximum flexibility"). The model
//! here captures the two first-order effects of that choice:
//!
//! 1. kernel launch overheads overlap (only the largest one remains on the critical path);
//! 2. kernels that individually cannot fill the device can run concurrently, so the total
//!    execution time is bounded below by the work (sum of execution times scaled by how
//!    much of the device each kernel can actually use) rather than the sum of latencies.

use crate::config::GpuConfig;
use crate::timing::KernelStats;

/// Result of executing a set of kernels concurrently on independent streams.
#[derive(Debug, Clone)]
pub struct ConcurrentStats {
    /// Estimated wall-clock time for the whole set, in seconds.
    pub time_s: f64,
    /// What the time would have been if the kernels were launched serially on one stream.
    pub serial_time_s: f64,
    /// The individual kernel statistics, in submission order.
    pub kernels: Vec<KernelStats>,
}

impl ConcurrentStats {
    /// Speedup of concurrent execution over serial execution.
    pub fn overlap_speedup(&self) -> f64 {
        if self.time_s <= 0.0 {
            1.0
        } else {
            self.serial_time_s / self.time_s
        }
    }
}

/// Estimates the wall-clock time of a set of kernels launched on independent streams.
///
/// The device is work-conserving: if every kernel saturates the device, the total time is
/// simply the sum of execution times (plus one launch overhead, since launches overlap with
/// earlier kernels' execution). Kernels that cannot fill the device (small grids) are
/// assumed to overlap with each other up to the device capacity.
pub fn concurrent_time(cfg: &GpuConfig, kernels: &[KernelStats]) -> ConcurrentStats {
    if kernels.is_empty() {
        return ConcurrentStats {
            time_s: 0.0,
            serial_time_s: 0.0,
            kernels: Vec::new(),
        };
    }

    let serial_time_s: f64 = kernels.iter().map(|k| k.time_s).sum();

    // Device utilization of each kernel: fraction of device block slots its grid can fill.
    let mut busy_device_seconds = 0.0f64;
    let mut max_single = 0.0f64;
    for k in kernels {
        let active = k.occupancy.active_blocks_on_device(cfg).max(1) as f64;
        let utilization = (k.grid_dim as f64 / active)
            .min(1.0)
            .max(1.0 / cfg.num_sms as f64);
        busy_device_seconds += k.exec_time_s() * utilization;
        max_single = max_single.max(k.exec_time_s());
    }

    let max_launch = kernels
        .iter()
        .map(|k| k.launch_overhead_s)
        .fold(0.0, f64::max);

    // Lower-bounded by the longest single kernel; upper-bounded by serial execution.
    let time_s = (busy_device_seconds.max(max_single) + max_launch).min(serial_time_s);

    ConcurrentStats {
        time_s,
        serial_time_s,
        kernels: kernels.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockStats;
    use crate::timing::estimate_kernel_time;

    fn kernel_with(cfg: &GpuConfig, grid: u32, cycles_per_block: f64) -> KernelStats {
        let blocks: Vec<BlockStats> = (0..grid)
            .map(|_| BlockStats {
                cycles: cycles_per_block,
                total_warp_cycles: cycles_per_block,
                ..Default::default()
            })
            .collect();
        estimate_kernel_time(cfg, "k", grid, 256, 0, &blocks)
    }

    #[test]
    fn empty_set_is_zero_time() {
        let cfg = GpuConfig::v100();
        let s = concurrent_time(&cfg, &[]);
        assert_eq!(s.time_s, 0.0);
        assert_eq!(s.serial_time_s, 0.0);
    }

    #[test]
    fn concurrent_never_slower_than_serial() {
        let cfg = GpuConfig::v100();
        let ks: Vec<KernelStats> = (1..=9)
            .map(|i| kernel_with(&cfg, i * 100, 5_000.0))
            .collect();
        let s = concurrent_time(&cfg, &ks);
        assert!(s.time_s <= s.serial_time_s + 1e-12);
        assert!(s.overlap_speedup() >= 1.0);
    }

    #[test]
    fn small_kernels_overlap_hides_launch_overheads() {
        let cfg = GpuConfig::v100();
        // Nine tiny kernels: serial time is dominated by 9 launch overheads; concurrent
        // execution should pay roughly one.
        let ks: Vec<KernelStats> = (0..9).map(|_| kernel_with(&cfg, 8, 100.0)).collect();
        let s = concurrent_time(&cfg, &ks);
        assert!(s.time_s < 0.5 * s.serial_time_s);
    }

    #[test]
    fn device_filling_kernels_do_not_magically_speed_up() {
        let cfg = GpuConfig::v100();
        // Two kernels that each fill the device: total must be close to the sum of their
        // execution times.
        let k = kernel_with(&cfg, 80 * 8 * 4, 50_000.0);
        let s = concurrent_time(&cfg, &[k.clone(), k.clone()]);
        let exec_sum = 2.0 * k.exec_time_s();
        assert!(s.time_s >= 0.9 * exec_sum);
    }

    #[test]
    fn lower_bound_is_longest_kernel() {
        let cfg = GpuConfig::v100();
        let long = kernel_with(&cfg, 4, 10_000_000.0);
        let short = kernel_with(&cfg, 4, 10.0);
        let s = concurrent_time(&cfg, &[long.clone(), short]);
        assert!(s.time_s >= long.exec_time_s());
    }
}
