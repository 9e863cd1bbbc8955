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

pub use block::{cost, BlockContext, BlockStats, MemStats};
pub use buffer::DeviceBuffer;
pub use coalesce::{coalesce_strided, CoalesceResult};
pub use config::GpuConfig;
pub use kernel::{BlockKernel, Gpu, LaunchConfig, LaunchDevice};
pub use occupancy::{Occupancy, OccupancyLimiter};
pub use stream::{concurrent_time, ConcurrentStats};
pub use timing::{estimate_kernel_time, KernelStats, PhaseTime};
pub use transfer::{transfer_time_s, TransferDirection};
