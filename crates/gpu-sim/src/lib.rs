//! # gpu-sim — a CUDA-like SIMT execution and performance model
//!
//! This crate is the GPU substrate for the reproduction of *"Optimizing Huffman Decoding
//! for Error-Bounded Lossy Compression on GPUs"* (IPDPS 2022). The paper's contribution is
//! a set of CUDA kernels and kernel-level optimizations evaluated on an NVIDIA V100; this
//! environment has no GPU, so the decoders run on this simulator instead (the two halves
//! below are the substitution argument; the `huffdec-bench` crate docs give the
//! scaled-device methodology the paper's tables are reproduced under).
//!
//! The simulator has two halves:
//!
//! * **Functional execution** — kernels implement [`BlockKernel`] and are executed once
//!   per thread block, in parallel on the device's persistent pool of host threads
//!   ([`Gpu::run_tasks`]), reading their inputs as
//!   plain slices and writing their outputs into [`DeviceBuffer`]s — which exist only
//!   where the blocks of a launch write concurrently, and are made from and returned as
//!   a `Vec` by move (see [`buffer`]). The decoded output is real: every decoder in the
//!   workspace produces bit-exact results that are checked against CPU reference
//!   decoders.
//! * **Performance model** — kernels report their SIMT behaviour (warp-level memory
//!   accesses, divergence, barriers) through [`BlockContext`]; the model aggregates this
//!   into [`KernelStats`] using V100-calibrated parameters: memory-transaction coalescing
//!   ([`coalesce`]), occupancy as a function of shared-memory allocation ([`occupancy`]),
//!   latency hiding, and kernel launch overhead ([`timing`]). CUDA streams
//!   ([`stream`]) and PCIe transfers ([`transfer`]) are modelled analytically.
//!
//! Both devices implement the one device trait, [`Backend`] (see [`backend`]): the
//! simulator as [`Gpu`], with modeled timings, and the host CPU as [`CpuBackend`], which
//! runs the same launches unmodeled and reports measured wall-clock time.
//!
//! Device-wide primitives equivalent to the CUB routines the paper relies on (exclusive
//! prefix sum, histogram, key-value radix sort) are provided in [`primitives`].
//!
//! ## The charge calls
//!
//! A kernel reports cost through exactly these [`BlockContext`] methods — the set is
//! closed, and it is what the kernels of the workspace call:
//!
//! | call | charges |
//! |------|---------|
//! | [`compute`](BlockContext::compute) | issue cycles to one warp; a warp in lock-step pays its slowest lane, so kernels pass the maximum over lanes |
//! | [`warp_primitive`](BlockContext::warp_primitive) | one vote / ballot / shuffle |
//! | [`global_load_contiguous`](BlockContext::global_load_contiguous), [`global_store_contiguous`](BlockContext::global_store_contiguous) | a warp access whose lanes touch consecutive elements (the staged, coalesced write of §IV-B) |
//! | [`global_load_strided`](BlockContext::global_load_strided), [`global_store_strided`](BlockContext::global_store_strided) | a warp access whose lanes are a fixed stride apart (the direct write of Fig. 2) |
//! | [`shared_access_contiguous`](BlockContext::shared_access_contiguous) | conflict-free warp-wide shared-memory accesses, any number per call |
//! | [`syncthreads`](BlockContext::syncthreads) | a block-wide barrier: every warp clock advances to the slowest |
//!
//! Both global shapes are arithmetic progressions of lane addresses, so one
//! allocation-free counter ([`coalesce_strided`]) turns either into sectors and segments.
//! On an unmodeled launch ([`Gpu::launch_unmodeled`], the CPU backend's) every one of
//! them returns at its top: the kernel's output is all that launch produces.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{BlockContext, BlockKernel, DeviceBuffer, Gpu, GpuConfig, LaunchConfig};
//!
//! /// Doubles every element of a buffer.
//! struct Double<'a> {
//!     data: &'a DeviceBuffer<u32>,
//! }
//!
//! impl BlockKernel for Double<'_> {
//!     fn name(&self) -> &str { "double" }
//!     fn block(&self, ctx: &mut BlockContext) {
//!         let tile = ctx.block_dim() as usize;
//!         let start = ctx.block_idx() as usize * tile;
//!         let end = (start + tile).min(self.data.len());
//!         for i in start..end {
//!             self.data.set(i, self.data.get(i) * 2);
//!         }
//!         for w in 0..ctx.warp_count() {
//!             ctx.global_load_contiguous(w, start as u64, 32, 4);
//!             ctx.global_store_contiguous(w, start as u64, 32, 4);
//!             ctx.compute(w, 1.0);
//!         }
//!     }
//! }
//!
//! let gpu = Gpu::new(GpuConfig::v100());
//! let data = DeviceBuffer::from_vec(vec![1u32, 2, 3, 4]);
//! let stats = gpu.launch(&Double { data: &data }, LaunchConfig::covering(4, 256));
//! assert_eq!(data.into_vec(), vec![2, 4, 6, 8]);
//! assert!(stats.time_s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod block;
pub mod buffer;
pub mod coalesce;
pub mod config;
pub mod kernel;
pub mod occupancy;
mod pool;
pub mod primitives;
pub mod stream;
pub mod timing;
pub mod transfer;

pub use backend::{Backend, BackendKind, CpuBackend, UnknownBackend, BACKEND_ENV};
pub use block::{cost, BlockContext, BlockStats, MemStats};
pub use buffer::DeviceBuffer;
pub use coalesce::{coalesce_strided, CoalesceResult};
pub use config::GpuConfig;
pub use kernel::{BlockKernel, Gpu, LaunchConfig};
pub use occupancy::{Occupancy, OccupancyLimiter};
pub use stream::{concurrent_time, ConcurrentStats};
pub use timing::{estimate_kernel_time, KernelStats, PhaseTime};
pub use transfer::{transfer_time_s, TransferDirection};

// The device trait's former name. Its one user is `benchmark/src/layers.rs`, which
// imports it by that name; the alias goes once the benchmark imports `Backend`.
pub use backend::Backend as LaunchDevice;

/// The two devices behind [`Backend`], side by side.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct Iota<'a> {
        out: &'a DeviceBuffer<u32>,
    }

    impl BlockKernel for Iota<'_> {
        fn name(&self) -> &str {
            "iota"
        }
        fn block(&self, ctx: &mut BlockContext) {
            let bd = ctx.block_dim() as usize;
            let start = ctx.block_idx() as usize * bd;
            let end = (start + bd).min(self.out.len());
            for i in start..end {
                self.out.set(i, i as u32);
            }
            for w in 0..ctx.warp_count() {
                ctx.global_store_contiguous(w, start as u64, ctx.config().warp_size, 4);
                ctx.compute(w, 1.0);
            }
        }
    }

    #[test]
    fn kind_names_roundtrip_through_parse() {
        for kind in [BackendKind::Sim, BackendKind::Cpu] {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(kind.name().to_uppercase().parse(), Ok(kind));
        }
        let unknown = "cuda".parse::<BackendKind>().unwrap_err();
        assert_eq!(
            unknown.to_string(),
            "unknown backend 'cuda' (expected sim|cpu)"
        );
    }

    #[test]
    fn both_backends_run_kernels_to_the_same_functional_result() {
        let sim = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 3);
        let n = 5000usize;
        let out_sim = DeviceBuffer::<u32>::zeroed(n);
        let out_cpu = DeviceBuffer::<u32>::zeroed(n);
        let backends: [(&dyn Backend, &DeviceBuffer<u32>); 2] =
            [(&sim, &out_sim), (&cpu, &out_cpu)];
        for (backend, out) in backends {
            let stats = backend.launch(&Iota { out }, LaunchConfig::covering(n, 128));
            assert_eq!(stats.grid_dim, (n as u32).div_ceil(128));
        }
        assert_eq!(out_sim.to_vec(), out_cpu.to_vec());
    }

    #[test]
    fn cpu_timings_are_measured_not_modeled() {
        let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
        let sim = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        let cfg = LaunchConfig::covering(10_000, 128).with_shared_mem(512);
        let out = DeviceBuffer::<u32>::zeroed(10_000);
        let out_sim = DeviceBuffer::<u32>::zeroed(10_000);
        let stats = cpu.launch(&Iota { out: &out }, cfg);
        let modeled = sim.launch(&Iota { out: &out_sim }, cfg);
        assert_eq!(out.to_vec(), out_sim.to_vec());
        // Launch geometry and occupancy are kept; the block aggregates are modeled-only.
        assert_eq!(
            (stats.grid_dim, stats.block_dim, stats.shared_mem_bytes),
            (
                modeled.grid_dim,
                modeled.block_dim,
                modeled.shared_mem_bytes
            )
        );
        assert_eq!(stats.occupancy, modeled.occupancy);
        assert!(modeled.mem.store_requests > 0 && modeled.total_block_cycles > 0.0);
        assert_eq!(stats.mem, MemStats::default());
        assert_eq!(stats.total_block_cycles, 0.0);
        assert_eq!(stats.compute_time_s, 0.0);
        assert_eq!(stats.mem_time_s, 0.0);
        assert_eq!(stats.launch_overhead_s, 0.0);
        assert!(stats.time_s > 0.0, "wall clock must have advanced");
        assert_cpu_clock(&cpu);
    }

    /// The clock of a CPU device with two host threads, bare or wrapped.
    fn assert_cpu_clock(cpu: &dyn Backend) {
        assert!(!cpu.is_modeled());
        assert_eq!(cpu.device_name(), "host CPU (2 threads)");
        assert_eq!(cpu.charge_seconds(123.0, 0.5), 0.5);
        let to_device = TransferDirection::HostToDevice;
        assert_eq!(cpu.transfer_seconds(1 << 30, to_device), 0.0);
    }

    #[test]
    fn sim_backend_preserves_the_modeling_behaviour() {
        let sim: Arc<dyn Backend> = BackendKind::Sim.create(GpuConfig::test_tiny(), Some(2));
        assert_sim_clock(sim.as_ref());
    }

    /// The clock of the simulated `test_tiny` device, bare or wrapped.
    fn assert_sim_clock(sim: &dyn Backend) {
        assert!(sim.is_modeled());
        assert_eq!(sim.device_name(), "test-tiny");
        assert_eq!(sim.charge_seconds(7e-6, 99.0), 7e-6);
        assert!(sim.transfer_seconds(1 << 20, TransferDirection::DeviceToHost) > 0.0);
    }

    #[test]
    fn cpu_concurrent_is_the_serial_sum() {
        let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
        let out = DeviceBuffer::<u32>::zeroed(4096);
        let k1 = cpu.launch(&Iota { out: &out }, LaunchConfig::covering(4096, 128));
        let k2 = cpu.launch(&Iota { out: &out }, LaunchConfig::covering(4096, 128));
        let stats = cpu.concurrent(&[k1.clone(), k2.clone()]);
        assert_eq!(stats.time_s, stats.serial_time_s);
        assert!((stats.serial_time_s - (k1.time_s + k2.time_s)).abs() < 1e-15);
        assert_eq!(stats.overlap_speedup(), 1.0);
    }

    /// A wrapper that supplies only the five required methods, each forwarded to the
    /// device it wraps; every timing answer is the trait's, from the forwarded kind.
    #[derive(Debug)]
    struct Forward<'a>(&'a dyn Backend);

    impl Backend for Forward<'_> {
        fn config(&self) -> &GpuConfig {
            self.0.config()
        }
        fn launch(&self, kernel: &dyn BlockKernel, cfg: LaunchConfig) -> KernelStats {
            self.0.launch(kernel, cfg)
        }
        fn kind(&self) -> BackendKind {
            self.0.kind()
        }
        fn host_threads(&self) -> usize {
            self.0.host_threads()
        }
        fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
            self.0.run_tasks(n, task)
        }
    }

    #[test]
    fn a_wrapper_inherits_the_clock_of_its_kind() {
        let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
        let sim = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
        assert_cpu_clock(&Forward(&cpu));
        assert_sim_clock(&Forward(&sim));
        // Concurrent streams: the serial sum on cpu, the stream-overlap model on sim.
        let out = DeviceBuffer::<u32>::zeroed(4096);
        for inner in [&cpu as &dyn Backend, &sim] {
            let k = Forward(inner).launch(&Iota { out: &out }, LaunchConfig::covering(4096, 128));
            let kernels = [k.clone(), k];
            let expected = match inner.kind() {
                BackendKind::Sim => concurrent_time(inner.config(), &kernels).time_s,
                BackendKind::Cpu => kernels[0].time_s + kernels[1].time_s,
            };
            assert_eq!(Forward(inner).concurrent(&kernels).time_s, expected);
        }
    }

    #[test]
    fn env_selection_defaults_to_cpu() {
        // CI runs the suite once unset and once with HFZ_BACKEND=sim; only `sim`
        // selects the simulator, and anything else falls back to the CPU backend.
        assert!("nope".parse::<BackendKind>().is_err());
        let expected = match std::env::var(BACKEND_ENV) {
            Ok(value) if value.eq_ignore_ascii_case("sim") => BackendKind::Sim,
            _ => BackendKind::Cpu,
        };
        assert_eq!(BackendKind::from_env(), expected);
    }
}
