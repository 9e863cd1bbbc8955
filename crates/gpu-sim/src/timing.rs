//! Kernel-time estimation (the performance model).
//!
//! The model is an analytic roofline with an occupancy-dependent latency-exposure term:
//!
//! * **Compute/issue time** — every block reports its issue cycles (max warp clock). The
//!   device executes `active_blocks = blocks_per_sm * num_sms` blocks concurrently; within
//!   an SM, resident blocks share the issue slots, so per-SM issue time is the sum of its
//!   resident blocks' cycles divided by the number of schedulers. Total issue time is the
//!   sum of all block cycles divided by the device-wide issue capacity, but never less
//!   than the single longest block (critical path — this is what makes a single
//!   long-running self-synchronization block matter, §IV-A).
//! * **Memory time** — DRAM traffic (in 32-byte sectors, so uncoalesced accesses are
//!   penalized) divided by peak bandwidth.
//! * **Latency exposure** — when too few warps are resident to hide DRAM latency
//!   (occupancy below `warps_to_hide_latency`), a fraction of the per-transaction latency
//!   is exposed and added to the issue time. This is what penalizes over-sized shared
//!   memory buffers in Fig. 3 / Table I.
//!
//! The kernel time is `max(compute, memory) + launch overhead`.

use crate::block::{BlockStats, MemStats};
use crate::config::GpuConfig;
use crate::occupancy::Occupancy;

/// Timing breakdown and aggregate statistics for one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Kernel name (for reports).
    pub name: String,
    /// Launch configuration: number of blocks.
    pub grid_dim: u32,
    /// Launch configuration: threads per block.
    pub block_dim: u32,
    /// Launch configuration: dynamic shared memory per block in bytes.
    pub shared_mem_bytes: u32,
    /// Occupancy achieved.
    pub occupancy: Occupancy,
    /// Sum over blocks of the per-block issue cycles.
    pub total_block_cycles: f64,
    /// The single largest per-block issue cycle count (critical path).
    pub max_block_cycles: f64,
    /// Aggregated memory statistics.
    pub mem: MemStats,
    /// Total `__syncthreads` barriers across all blocks.
    pub barriers: u64,
    /// Estimated issue/compute time in seconds (including exposed latency).
    pub compute_time_s: f64,
    /// Estimated DRAM time in seconds.
    pub mem_time_s: f64,
    /// Fixed launch overhead in seconds.
    pub launch_overhead_s: f64,
    /// Estimated total kernel time in seconds (`max(compute, mem) + overhead`).
    pub time_s: f64,
}

impl KernelStats {
    /// Throughput in GB/s with respect to an arbitrary number of "useful" bytes
    /// (callers choose the numerator — e.g. the quantization-code bytes decoded).
    pub fn throughput_gbs(&self, useful_bytes: u64) -> f64 {
        if self.time_s <= 0.0 {
            return 0.0;
        }
        useful_bytes as f64 / self.time_s / 1e9
    }

    /// The kernel's execution time excluding the fixed launch overhead. Used by the
    /// stream model, which overlaps launch overheads of concurrently-launched kernels.
    pub fn exec_time_s(&self) -> f64 {
        self.time_s - self.launch_overhead_s
    }
}

/// Aggregates per-block statistics and estimates the kernel's execution time.
pub fn estimate_kernel_time(
    cfg: &GpuConfig,
    name: &str,
    grid_dim: u32,
    block_dim: u32,
    shared_mem_bytes: u32,
    blocks: &[BlockStats],
) -> KernelStats {
    let occupancy = Occupancy::calculate(cfg, grid_dim.max(1), block_dim, shared_mem_bytes);

    let mut mem = MemStats::default();
    let mut total_cycles = 0.0f64;
    let mut max_cycles = 0.0f64;
    let mut barriers = 0u64;
    for b in blocks {
        mem.merge(&b.mem);
        total_cycles += b.cycles;
        max_cycles = max_cycles.max(b.cycles);
        barriers += b.barriers;
    }

    // Device-wide issue capacity: each SM retires the issue cycles of its resident blocks
    // serially (they share schedulers), all SMs run in parallel.
    let device_parallelism = cfg.num_sms as f64;
    let mut compute_cycles = total_cycles / device_parallelism;

    // Latency exposure: if occupancy is too low to hide DRAM latency, dependent *load*
    // transactions expose part of their latency on the issuing SM's critical path. The
    // exposure is divided by a memory-level-parallelism factor (each warp keeps several
    // independent loads in flight), so only severely under-occupied launches pay a large
    // penalty — this is the occupancy side of the shared-memory trade-off in Fig. 3.
    const MEMORY_LEVEL_PARALLELISM: f64 = 16.0;
    let hiding = (occupancy.warps_per_sm as f64 / cfg.warps_to_hide_latency as f64).min(1.0);
    let exposed_per_txn = cfg.mem_latency_cycles * (1.0 - hiding) / MEMORY_LEVEL_PARALLELISM;
    if exposed_per_txn > 0.0 && mem.load_segments > 0 {
        let txns_per_sm = mem.load_segments as f64 / device_parallelism;
        compute_cycles += txns_per_sm * exposed_per_txn;
    }

    // Critical path: the longest single block bounds the kernel even on an idle device.
    compute_cycles = compute_cycles.max(max_cycles);

    let compute_time_s = cfg.cycles_to_seconds(compute_cycles);
    let mem_time_s = mem.dram_bytes(cfg.sector_bytes) as f64 / (cfg.mem_bandwidth_gbps * 1e9);
    let launch_overhead_s = cfg.kernel_launch_overhead_us * 1e-6;
    let time_s = compute_time_s.max(mem_time_s) + launch_overhead_s;

    KernelStats {
        name: name.to_string(),
        grid_dim,
        block_dim,
        shared_mem_bytes,
        occupancy,
        total_block_cycles: total_cycles,
        max_block_cycles: max_cycles,
        mem,
        barriers,
        compute_time_s,
        mem_time_s,
        launch_overhead_s,
        time_s,
    }
}

/// A container summing the times of a multi-kernel phase (e.g. "decode and write" which
/// may launch several per-compression-ratio-class kernels).
#[derive(Debug, Clone, Default)]
pub struct PhaseTime {
    /// Total wall-clock seconds attributed to the phase.
    pub seconds: f64,
    /// Kernel launches contributing to the phase.
    pub kernels: Vec<KernelStats>,
}

impl PhaseTime {
    /// An empty phase with zero time.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A phase consisting of a single kernel.
    pub fn from_kernel(k: KernelStats) -> Self {
        PhaseTime {
            seconds: k.time_s,
            kernels: vec![k],
        }
    }

    /// Adds a kernel executed serially after the existing work.
    pub fn push_serial(&mut self, k: KernelStats) {
        self.seconds += k.time_s;
        self.kernels.push(k);
    }

    /// Adds raw seconds (e.g. a PCIe transfer or host-side work) with no kernel record.
    pub fn push_seconds(&mut self, s: f64) {
        self.seconds += s;
    }

    /// Merges another phase serially after this one.
    pub fn extend_serial(&mut self, other: PhaseTime) {
        self.seconds += other.seconds;
        self.kernels.extend(other.kernels);
    }

    /// Throughput in GB/s relative to `useful_bytes`.
    pub fn throughput_gbs(&self, useful_bytes: u64) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        useful_bytes as f64 / self.seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemStats;

    fn block(cycles: f64, store_sectors: u64, useful: u64) -> BlockStats {
        BlockStats {
            cycles,
            total_warp_cycles: cycles,
            mem: MemStats {
                store_sectors,
                useful_store_bytes: useful,
                store_segments: store_sectors / 4 + 1,
                store_requests: 1,
                // Mirror the stores with an equal amount of load traffic so the
                // occupancy-dependent latency-exposure term (which applies to loads)
                // is exercised by these tests.
                load_sectors: store_sectors,
                load_segments: store_sectors / 4 + 1,
                useful_load_bytes: useful,
                load_requests: 1,
                ..Default::default()
            },
            barriers: 0,
        }
    }

    #[test]
    fn launch_overhead_always_included() {
        let cfg = GpuConfig::v100();
        let stats = estimate_kernel_time(&cfg, "k", 1, 32, 0, &[block(1.0, 0, 0)]);
        assert!(stats.time_s >= cfg.kernel_launch_overhead_us * 1e-6);
    }

    #[test]
    fn memory_bound_kernel_time_tracks_traffic() {
        let cfg = GpuConfig::v100();
        // 1 GiB of store traffic (mirrored by 1 GiB of loads in the fixture) at 900 GB/s.
        let sectors = (1u64 << 30) / 32;
        let blocks: Vec<BlockStats> = (0..1000)
            .map(|_| block(100.0, sectors / 1000, (1 << 30) / 1000))
            .collect();
        let stats = estimate_kernel_time(&cfg, "k", 1000, 256, 0, &blocks);
        let expected = 2.0 * (1u64 << 30) as f64 / (900.0 * 1e9);
        assert!(stats.mem_time_s > 0.9 * expected && stats.mem_time_s < 1.1 * expected);
        assert!(stats.time_s >= stats.mem_time_s);
    }

    #[test]
    fn uncoalesced_traffic_is_slower_than_coalesced() {
        let cfg = GpuConfig::v100();
        // Same useful bytes, 16x the sectors.
        let coalesced: Vec<BlockStats> = (0..1000).map(|_| block(10.0, 1000, 32_000)).collect();
        let scattered: Vec<BlockStats> = (0..1000).map(|_| block(10.0, 16_000, 32_000)).collect();
        let a = estimate_kernel_time(&cfg, "c", 1000, 256, 0, &coalesced);
        let b = estimate_kernel_time(&cfg, "s", 1000, 256, 0, &scattered);
        assert!(b.mem_time_s > 10.0 * a.mem_time_s);
    }

    #[test]
    fn critical_path_bounds_kernel_time() {
        let cfg = GpuConfig::v100();
        let mut blocks = vec![block(10.0, 0, 0); 100];
        blocks.push(block(1_000_000.0, 0, 0));
        let stats = estimate_kernel_time(&cfg, "k", 101, 256, 0, &blocks);
        assert!(stats.compute_time_s >= cfg.cycles_to_seconds(1_000_000.0));
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        let cfg = GpuConfig::v100();
        let blocks: Vec<BlockStats> = (0..10_000).map(|_| block(100.0, 100, 3200)).collect();
        // Full occupancy (no shared memory) vs. heavily limited (huge shared memory).
        let fast = estimate_kernel_time(&cfg, "k", 10_000, 256, 0, &blocks);
        let slow = estimate_kernel_time(&cfg, "k", 10_000, 256, 90 * 1024, &blocks);
        assert!(slow.compute_time_s > fast.compute_time_s);
    }

    #[test]
    fn throughput_computation() {
        let cfg = GpuConfig::v100();
        let stats = estimate_kernel_time(&cfg, "k", 1, 32, 0, &[block(1.0, 0, 0)]);
        let gbs = stats.throughput_gbs(1_000_000_000);
        assert!(gbs > 0.0);
        assert!((gbs - 1.0 / stats.time_s).abs() < 1e-9);
    }

    #[test]
    fn phase_time_accumulates() {
        let cfg = GpuConfig::v100();
        let k1 = estimate_kernel_time(&cfg, "a", 1, 32, 0, &[block(1.0, 0, 0)]);
        let k2 = estimate_kernel_time(&cfg, "b", 1, 32, 0, &[block(1.0, 0, 0)]);
        let mut phase = PhaseTime::from_kernel(k1.clone());
        phase.push_serial(k2.clone());
        assert!((phase.seconds - (k1.time_s + k2.time_s)).abs() < 1e-12);
        assert_eq!(phase.kernels.len(), 2);
        phase.push_seconds(1e-3);
        assert!(phase.seconds > 1e-3);
    }
}
