//! GPU hardware configuration used by the execution and performance model.
//!
//! The default configuration models an NVIDIA Tesla V100 (SXM2, 32 GB), the platform used
//! in the paper's evaluation. All parameters are first-order architectural quantities —
//! the cost model in [`crate::timing`] only uses the values exposed here, so a different
//! GPU can be modelled by constructing a different `GpuConfig`.

/// Architectural description of the simulated GPU.
///
/// The simulator is *not* cycle accurate; these parameters feed an analytic
/// roofline-style model (see [`crate::timing::estimate_kernel_time`]) that captures the
/// first-order effects the paper's optimizations target: memory-transaction efficiency,
/// occupancy as a function of shared-memory allocation, warp divergence, and kernel
/// launch overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human readable device name.
    pub name: String,
    /// Number of streaming multiprocessors (SMs). V100: 80.
    pub num_sms: u32,
    /// Threads per warp. 32 on every CUDA architecture to date.
    pub warp_size: u32,
    /// Maximum resident threads per SM. V100: 2048.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM. V100: 32.
    pub max_blocks_per_sm: u32,
    /// Usable shared memory per SM in bytes. V100: 96 KiB.
    pub shared_mem_per_sm: u32,
    /// Maximum shared memory a single block may allocate (with the carve-out opt-in).
    /// V100: 96 KiB.
    pub max_shared_mem_per_block: u32,
    /// Core clock in GHz. V100 boost clock: ~1.38 GHz.
    pub core_clock_ghz: f64,
    /// Peak DRAM (HBM2) bandwidth in GB/s. V100: ~900 GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Average global-memory latency in cycles (used by the latency-hiding model).
    pub mem_latency_cycles: f64,
    /// Size of a DRAM/L2 sector in bytes. Transactions are counted in sectors. V100: 32.
    pub sector_bytes: u32,
    /// Size of a full coalesced transaction segment in bytes (cache line). V100: 128.
    pub segment_bytes: u32,
    /// Number of instruction issue slots per SM per cycle (warp schedulers). V100: 4.
    pub issue_slots_per_sm: u32,
    /// Fixed kernel launch overhead in microseconds.
    pub kernel_launch_overhead_us: f64,
    /// Effective host-to-device PCIe bandwidth in GB/s. PCIe 3.0 x16: ~12 GB/s.
    pub pcie_h2d_gbps: f64,
    /// Effective device-to-host PCIe bandwidth in GB/s.
    pub pcie_d2h_gbps: f64,
    /// Fixed per-transfer latency in microseconds (driver + DMA setup).
    pub pcie_latency_us: f64,
    /// Number of warps that must be resident per SM to fully hide global-memory latency.
    /// Used by the latency-hiding model: fewer resident warps means exposed latency.
    pub warps_to_hide_latency: u32,
    /// The largest per-block shared-memory allocation (bytes) that still attains the
    /// minimum acceptable occupancy (25% in the paper). On the V100 the paper derives
    /// 16384 bytes, which yields `T_high = 16384 / 2048 = 8`.
    pub shmem_budget_for_min_occupancy: u32,
}

impl GpuConfig {
    /// Configuration modelling the NVIDIA Tesla V100 (SXM2 32 GB) used in the paper.
    pub fn v100() -> Self {
        GpuConfig {
            name: "NVIDIA Tesla V100-SXM2-32GB (simulated)".to_string(),
            num_sms: 80,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 96 * 1024,
            max_shared_mem_per_block: 96 * 1024,
            core_clock_ghz: 1.38,
            mem_bandwidth_gbps: 900.0,
            mem_latency_cycles: 400.0,
            sector_bytes: 32,
            segment_bytes: 128,
            issue_slots_per_sm: 4,
            kernel_launch_overhead_us: 4.0,
            pcie_h2d_gbps: 12.0,
            pcie_d2h_gbps: 12.0,
            pcie_latency_us: 10.0,
            warps_to_hide_latency: 24,
            shmem_budget_for_min_occupancy: 16384,
        }
    }

    /// A deliberately tiny configuration for fast unit tests: 4 SMs, small shared memory.
    pub fn test_tiny() -> Self {
        GpuConfig {
            name: "test-tiny".to_string(),
            num_sms: 4,
            warp_size: 32,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            shared_mem_per_sm: 48 * 1024,
            max_shared_mem_per_block: 48 * 1024,
            core_clock_ghz: 1.0,
            mem_bandwidth_gbps: 100.0,
            mem_latency_cycles: 300.0,
            sector_bytes: 32,
            segment_bytes: 128,
            issue_slots_per_sm: 2,
            kernel_launch_overhead_us: 2.0,
            pcie_h2d_gbps: 8.0,
            pcie_d2h_gbps: 8.0,
            pcie_latency_us: 5.0,
            warps_to_hide_latency: 16,
            shmem_budget_for_min_occupancy: 8192,
        }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.core_clock_ghz
    }

    /// Converts a cycle count into seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles * self.cycle_ns() * 1e-9
    }

    /// Modeled seconds of a streaming pass that is not simulated block by block: the
    /// larger of its DRAM time (`dram_bytes` at peak bandwidth) and its issue time
    /// (`cycles` on the critical SM), plus one launch overhead per kernel.
    pub fn streaming_pass_seconds(&self, dram_bytes: f64, cycles: f64, launches: u32) -> f64 {
        let mem_time = dram_bytes / (self.mem_bandwidth_gbps * 1e9);
        mem_time.max(self.cycles_to_seconds(cycles))
            + launches as f64 * self.kernel_launch_overhead_us * 1e-6
    }

    /// The shared-memory threshold `T_high` from §IV-C of the paper: the compression
    /// ratio group boundary beyond which shared memory is no longer scaled linearly.
    ///
    /// The paper defines it as: the shared-memory allocation that still attains at least
    /// 25% occupancy, divided by 2048 bytes (one group covers a compression-ratio span of
    /// 1, and a span of 1 corresponds to 1024 u16 symbols = 2048 bytes of buffer). On the
    /// V100 that allocation is 16384 bytes, yielding `T_high = 8`, matching the paper.
    pub fn t_high(&self) -> u32 {
        (self.shmem_budget_for_min_occupancy / 2048).max(1)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_basic_parameters() {
        let cfg = GpuConfig::v100();
        assert_eq!(cfg.num_sms, 80);
        assert_eq!(cfg.warp_size, 32);
        assert_eq!(cfg.max_warps_per_sm(), 64);
    }

    #[test]
    fn v100_t_high_matches_paper() {
        // The paper: "on the Nvidia Tesla V100, shared memory usage must be under 16384
        // bytes to attain that level of occupancy, so the corresponding value of T_high
        // is 8."
        let cfg = GpuConfig::v100();
        assert_eq!(cfg.t_high(), 8);
    }

    #[test]
    fn cycle_conversion_roundtrip() {
        let cfg = GpuConfig::v100();
        let secs = cfg.cycles_to_seconds(1.38e9);
        assert!((secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_config_is_smaller_than_v100() {
        let tiny = GpuConfig::test_tiny();
        let v100 = GpuConfig::v100();
        assert!(tiny.num_sms < v100.num_sms);
        assert!(tiny.shared_mem_per_sm < v100.shared_mem_per_sm);
    }

    #[test]
    fn default_is_v100() {
        assert_eq!(GpuConfig::default(), GpuConfig::v100());
    }
}
