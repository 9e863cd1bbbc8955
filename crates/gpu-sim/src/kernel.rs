//! Kernel launch machinery: the [`BlockKernel`] trait, [`LaunchConfig`], and the [`Gpu`]
//! device which executes a grid of blocks functionally (in parallel on its worker pool)
//! while accumulating the cost model — or, for an unmodeled launch, without it.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::block::{BlockContext, BlockStats, MemStats};
use crate::config::GpuConfig;
use crate::occupancy::Occupancy;
use crate::pool::Pool;
use crate::timing::{estimate_kernel_time, KernelStats};

/// Launch configuration for a kernel, mirroring `<<<grid, block, shmem>>>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Dynamic shared memory per block, in bytes.
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    /// A launch with the given grid and block dimensions and no dynamic shared memory.
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
            shared_mem_bytes: 0,
        }
    }

    /// Sets the dynamic shared-memory allocation.
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Grid size needed to cover `work_items` with `block_dim` threads each handling one.
    pub fn covering(work_items: usize, block_dim: u32) -> Self {
        let grid = (work_items as u64).div_ceil(block_dim as u64) as u32;
        LaunchConfig::new(grid.max(1), block_dim)
    }
}

/// A simulated CUDA kernel, written at thread-block granularity.
///
/// The `block` method is invoked once per block in the grid; it performs the block's real
/// work (reads of its input slices, writes into [`crate::DeviceBuffer`]s) and reports SIMT
/// costs through the [`BlockContext`]. Blocks may execute concurrently on host threads,
/// so implementations must only use `&self` state and must write disjoint output ranges,
/// exactly as CUDA blocks must.
pub trait BlockKernel: Sync {
    /// A short name used in reports.
    fn name(&self) -> &str;

    /// Executes one thread block.
    fn block(&self, ctx: &mut BlockContext);
}

/// The simulated GPU device: owns the configuration and executes kernel launches.
///
/// A device runs its work on one persistent pool of `host_threads − 1` helper threads
/// plus the thread that launches. The helpers start with the first launch that can use
/// them; clones of the device share them, and they exit when the last clone drops.
#[derive(Debug, Clone)]
pub struct Gpu {
    config: GpuConfig,
    pool: Arc<Pool>,
}

impl Gpu {
    /// Creates a device with the given configuration, using all available host CPUs to
    /// execute blocks in parallel.
    pub fn new(config: GpuConfig) -> Self {
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Gpu::with_host_threads(config, host_threads)
    }

    /// Creates a device that simulates blocks on a fixed number of host threads.
    pub fn with_host_threads(config: GpuConfig, host_threads: usize) -> Self {
        Gpu {
            config,
            pool: Arc::new(Pool::new(host_threads)),
        }
    }

    /// A V100-configured device (the paper's evaluation platform).
    pub fn v100() -> Self {
        Gpu::new(GpuConfig::v100())
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Number of host threads used to execute thread blocks in parallel: the worker
    /// pool's helpers plus the launching thread.
    pub fn host_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `task(i)` for every `i` in `0..n` on the device's worker pool and returns
    /// once all have run. The calling thread and up to `min(host_threads, n) − 1`
    /// helpers take indices from one shared cursor; a call that finds the pool busy
    /// (another thread's, or one made from inside a task) runs every index on the
    /// calling thread. A panicking task's payload is re-raised here, after every helper
    /// has left the call. Every launch is built on this.
    pub fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.pool.run(n, task)
    }

    /// Launches a kernel and blocks until every thread block has executed.
    ///
    /// Returns the aggregated [`KernelStats`] including the estimated kernel time under
    /// the device's cost model.
    pub fn launch<K: BlockKernel + ?Sized>(&self, kernel: &K, cfg: LaunchConfig) -> KernelStats {
        self.run_grid(kernel, cfg, true)
    }

    /// Launches a kernel for its output only: every charge call returns at its top, no
    /// per-block statistics are kept and the cost model never runs.
    ///
    /// The [`KernelStats`] keep the launch-level facts (name, grid, block, shared memory,
    /// occupancy); the block aggregates (`mem`, cycles, barriers) are zero and `time_s`
    /// is the measured wall clock of the launch. This is the CPU backend's launch.
    pub fn launch_unmodeled<K: BlockKernel + ?Sized>(
        &self,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> KernelStats {
        self.run_grid(kernel, cfg, false)
    }

    fn run_grid<K: BlockKernel + ?Sized>(
        &self,
        kernel: &K,
        cfg: LaunchConfig,
        modeled: bool,
    ) -> KernelStats {
        assert!(cfg.block_dim > 0, "block_dim must be positive");
        assert!(
            cfg.shared_mem_bytes <= self.config.max_shared_mem_per_block,
            "kernel '{}' requests {} bytes of shared memory but the device maximum is {}",
            kernel.name(),
            cfg.shared_mem_bytes,
            self.config.max_shared_mem_per_block
        );
        let clock = Instant::now();
        let grid = cfg.grid_dim;
        // A modeled block leaves its statistics in its own slot, so the cost model reads
        // them in block order whichever thread ran the block; an unmodeled one keeps
        // nothing.
        let slots: Vec<OnceLock<BlockStats>> = if modeled {
            (0..grid).map(|_| OnceLock::new()).collect()
        } else {
            Vec::new()
        };
        self.run_tasks(grid as usize, &|b| {
            let mut ctx = BlockContext::new(
                &self.config,
                b as u32,
                grid,
                cfg.block_dim,
                cfg.shared_mem_bytes,
                modeled,
            );
            kernel.block(&mut ctx);
            if modeled {
                slots[b].set(ctx.finish()).expect("a block runs once");
            }
        });

        if modeled {
            let all_stats: Vec<BlockStats> = slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every block ran"))
                .collect();
            return estimate_kernel_time(
                &self.config,
                kernel.name(),
                grid,
                cfg.block_dim,
                cfg.shared_mem_bytes,
                &all_stats,
            );
        }
        KernelStats {
            name: kernel.name().to_string(),
            grid_dim: grid,
            block_dim: cfg.block_dim,
            shared_mem_bytes: cfg.shared_mem_bytes,
            occupancy: Occupancy::calculate(
                &self.config,
                grid.max(1),
                cfg.block_dim,
                cfg.shared_mem_bytes,
            ),
            total_block_cycles: 0.0,
            max_block_cycles: 0.0,
            mem: MemStats::default(),
            barriers: 0,
            compute_time_s: 0.0,
            mem_time_s: 0.0,
            launch_overhead_s: 0.0,
            time_s: clock.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;

    /// A kernel where every thread writes its global index, coalesced.
    struct Iota<'a> {
        out: &'a DeviceBuffer<u32>,
    }

    impl BlockKernel for Iota<'_> {
        fn name(&self) -> &str {
            "iota"
        }
        fn block(&self, ctx: &mut BlockContext) {
            let bd = ctx.block_dim();
            let base = ctx.block_idx() as u64 * bd as u64;
            for w in 0..ctx.warp_count() {
                let warp_base = base + (w * ctx.config().warp_size) as u64;
                let lanes = (bd - w * ctx.config().warp_size).min(ctx.config().warp_size);
                for lane in 0..lanes {
                    let idx = warp_base + lane as u64;
                    if (idx as usize) < self.out.len() {
                        self.out.set(idx as usize, idx as u32);
                    }
                }
                ctx.global_store_contiguous(w, warp_base, lanes, 4);
                ctx.compute(w, 2.0);
            }
        }
    }

    #[test]
    fn iota_kernel_functional_result() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let n = 10_000usize;
        let out = DeviceBuffer::<u32>::zeroed(n);
        let stats = gpu.launch(&Iota { out: &out }, LaunchConfig::covering(n, 128));
        let host = out.to_vec();
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
        assert_eq!(stats.grid_dim, (n as u32).div_ceil(128));
        assert!(stats.time_s > 0.0);
        assert!(stats.mem.useful_store_bytes >= (n as u64) * 4);
    }

    #[test]
    fn zero_grid_launch_is_cheap_and_safe() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let out = DeviceBuffer::<u32>::zeroed(1);
        let stats = gpu.launch(&Iota { out: &out }, LaunchConfig::new(0, 128));
        assert_eq!(stats.grid_dim, 0);
        assert_eq!(stats.mem, crate::MemStats::default());
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        let n = 4096usize;
        let cfg = GpuConfig::test_tiny();
        let out1 = DeviceBuffer::<u32>::zeroed(n);
        let out2 = DeviceBuffer::<u32>::zeroed(n);
        let serial = Gpu::with_host_threads(cfg.clone(), 1);
        let parallel = Gpu::with_host_threads(cfg, 8);
        let s1 = serial.launch(&Iota { out: &out1 }, LaunchConfig::covering(n, 64));
        let s2 = parallel.launch(&Iota { out: &out2 }, LaunchConfig::covering(n, 64));
        assert_eq!(out1.to_vec(), out2.to_vec());
        assert!((s1.total_block_cycles - s2.total_block_cycles).abs() < 1e-6);
        assert_eq!(s1.mem, s2.mem);
        assert!((s1.time_s - s2.time_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn oversized_shared_memory_panics() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
        let out = DeviceBuffer::<u32>::zeroed(1);
        gpu.launch(
            &Iota { out: &out },
            LaunchConfig::new(1, 32).with_shared_mem(1 << 20),
        );
    }

    #[test]
    fn panicking_block_keeps_its_message() {
        struct Block3Panics;
        impl BlockKernel for Block3Panics {
            fn name(&self) -> &str {
                "block3-panics"
            }
            fn block(&self, ctx: &mut BlockContext) {
                assert!(ctx.block_idx() != 3, "block 3 hit the known fault");
            }
        }
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 4);
        let payload =
            std::panic::catch_unwind(|| gpu.launch(&Block3Panics, LaunchConfig::new(8, 32)))
                .expect_err("block 3 panics");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("block 3 hit the known fault"));
    }

    #[test]
    fn launch_device_trait_object_matches_inherent_launch() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let n = 2048usize;
        let out1 = DeviceBuffer::<u32>::zeroed(n);
        let out2 = DeviceBuffer::<u32>::zeroed(n);
        let direct = gpu.launch(&Iota { out: &out1 }, LaunchConfig::covering(n, 64));
        let device: &dyn crate::Backend = &gpu;
        let via_trait = device.launch(&Iota { out: &out2 }, LaunchConfig::covering(n, 64));
        assert_eq!(out1.to_vec(), out2.to_vec());
        assert!((direct.time_s - via_trait.time_s).abs() < 1e-15);
        assert_eq!(device.charge_seconds(1.5e-6, 42.0), 1.5e-6);
    }

    /// Writes its global thread index and makes every one of the eight charge calls.
    struct ChargesEverything<'a> {
        out: &'a DeviceBuffer<u32>,
    }

    impl BlockKernel for ChargesEverything<'_> {
        fn name(&self) -> &str {
            "charges-everything"
        }
        fn block(&self, ctx: &mut BlockContext) {
            let bd = ctx.block_dim() as usize;
            let start = ctx.block_idx() as usize * bd;
            for i in start..(start + bd).min(self.out.len()) {
                self.out.set(i, i as u32 * 3);
            }
            let lanes = ctx.config().warp_size;
            for w in 0..ctx.warp_count() {
                let base = start as u64 + (w * lanes) as u64;
                ctx.compute(w, 3.0);
                ctx.warp_primitive(w);
                ctx.global_load_contiguous(w, base, lanes, 4);
                ctx.global_store_contiguous(w, base, lanes, 4);
                ctx.global_load_strided(w, base, lanes, 7, 4);
                ctx.global_store_strided(w, base, lanes, 7, 4);
                ctx.shared_access_contiguous(w, 1);
            }
            ctx.syncthreads();
        }
    }

    #[test]
    fn unmodeled_launch_is_functional_only() {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 3);
        let n = 5000usize;
        let cfg = LaunchConfig::covering(n, 96).with_shared_mem(1024);
        let out_modeled = DeviceBuffer::<u32>::zeroed(n);
        let out_unmodeled = DeviceBuffer::<u32>::zeroed(n);
        let m = gpu.launch(&ChargesEverything { out: &out_modeled }, cfg);
        let u = gpu.launch_unmodeled(
            &ChargesEverything {
                out: &out_unmodeled,
            },
            cfg,
        );
        assert_eq!(out_modeled.to_vec(), out_unmodeled.to_vec());
        assert_eq!(
            (
                &u.name,
                u.grid_dim,
                u.block_dim,
                u.shared_mem_bytes,
                u.occupancy
            ),
            (
                &m.name,
                m.grid_dim,
                m.block_dim,
                m.shared_mem_bytes,
                m.occupancy
            )
        );
        // The modeled launch did charge; the unmodeled one kept nothing but its clock.
        assert!(m.mem.load_requests > 0 && m.mem.shared_accesses > 0 && m.barriers > 0);
        assert_eq!(u.mem, crate::MemStats::default());
        assert_eq!(u.total_block_cycles, 0.0);
        assert_eq!(u.max_block_cycles, 0.0);
        assert_eq!(u.barriers, 0);
        assert_eq!(
            (u.compute_time_s, u.mem_time_s, u.launch_overhead_s),
            (0.0, 0.0, 0.0)
        );
        assert!(u.time_s > 0.0, "the wall clock must have advanced");
    }

    #[test]
    fn covering_config_covers_all_items() {
        let cfg = LaunchConfig::covering(1000, 128);
        assert!(cfg.grid_dim * 128 >= 1000);
        assert_eq!(LaunchConfig::covering(0, 128).grid_dim, 1);
    }
}
