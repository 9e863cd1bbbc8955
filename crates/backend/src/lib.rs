//! # huffdec-backend — pluggable execution backends
//!
//! The decode/encode pipelines in `huffdec-core` are written against abstract device
//! operations: kernel launches over grids of blocks, device-wide prefix sums and
//! histograms, transfer costs, and concurrent-stream timing. This crate defines the
//! [`Backend`] trait that captures exactly that surface, plus the two implementations
//! the workspace ships:
//!
//! * [`Gpu`] — the simulated V100: kernels execute functionally on host threads while
//!   the calibrated performance model produces *modeled* timings. This backend
//!   reproduces the paper's evaluation numbers and is chosen by name only
//!   (`HFZ_BACKEND=sim`, `hfz --backend sim`, [`BackendKind::Sim`]).
//! * [`CpuBackend`] — a real multi-threaded CPU executor: launches run their blocks on
//!   the device's persistent worker pool ([`Backend::run_tasks`]) without the cost
//!   model (launch geometry, occupancy and launch counts are kept; memory-traffic and
//!   cycle aggregates are modeled-only), every timing reported is real wall-clock time,
//!   there is no transfer modeling, and concurrent "streams" execute serially. Ranged
//!   decodes and the chunked baseline's decode launch the simulator's [`BlockKernel`]s
//!   here. A full decode of a flat stream launches one walk per sequence instead of
//!   the paper's synchronization, counting, tuning and decode/write kernels, which
//!   exist only because a GPU thread cannot know its output offset. An encode is the
//!   same three walk launches over blocks of 65,536 symbols (count, chunk bits, pack)
//!   on both backends, and a field compress is a quantize launch, which also counts
//!   the codes, plus two of them (chunk bits, pack). This is the default, what makes
//!   `hfz` actually fast on the machine it runs on, and the seam a future CUDA/wgpu
//!   port plugs into.
//!
//! The decode pipelines choose by [`Backend::is_modeled`]. Both backends produce
//! **bit-identical decoded output and archives** — only the timings differ — which the
//! workspace's backend-equivalence test matrix enforces.
//!
//! ## Example
//!
//! ```
//! use huffdec_backend::{Backend, BackendKind, CpuBackend};
//! use gpu_sim::GpuConfig;
//!
//! let backend = BackendKind::Cpu.create(GpuConfig::test_tiny(), Some(2));
//! assert_eq!(backend.kind(), BackendKind::Cpu);
//! assert!(!backend.is_modeled());
//! let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
//! assert_eq!(cpu.kind().name(), "cpu");
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use gpu_sim::{
    concurrent_time, transfer_time_s, BlockKernel, ConcurrentStats, Gpu, GpuConfig, KernelStats,
    LaunchConfig, LaunchDevice, TransferDirection,
};

/// The environment variable that selects the default execution backend
/// (`sim` or `cpu`). Anything else — including unset — means [`BackendKind::Cpu`].
pub const BACKEND_ENV: &str = "HFZ_BACKEND";

/// Which execution backend a device is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The simulated GPU with modeled timings.
    Sim,
    /// Real multi-threaded CPU execution with wall-clock timings (the default).
    Cpu,
}

impl BackendKind {
    /// The stable lower-case name (`"sim"` / `"cpu"`) used by CLI flags, the
    /// `HFZ_BACKEND` environment variable, and the `hfz_backend` metric label.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Cpu => "cpu",
        }
    }

    /// Parses a backend name as the CLI flags accept it (case-insensitive).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Some(BackendKind::Sim),
            "cpu" => Some(BackendKind::Cpu),
            _ => None,
        }
    }

    /// The process-wide default backend: `HFZ_BACKEND=sim` selects the simulator,
    /// everything else (unset, `cpu`, or unrecognized) the CPU backend. This is how CI
    /// runs the whole test suite once per backend without touching every call site.
    pub fn from_env() -> BackendKind {
        std::env::var(BACKEND_ENV)
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .unwrap_or(BackendKind::Cpu)
    }

    /// Constructs a device of this kind. `host_threads` bounds the executor's thread
    /// pool (`None` = all available cores).
    pub fn create(self, config: GpuConfig, host_threads: Option<usize>) -> Arc<dyn Backend> {
        match (self, host_threads) {
            (BackendKind::Sim, None) => Arc::new(Gpu::new(config)),
            (BackendKind::Sim, Some(t)) => Arc::new(Gpu::with_host_threads(config, t)),
            (BackendKind::Cpu, None) => Arc::new(CpuBackend::new(config)),
            (BackendKind::Cpu, Some(t)) => Arc::new(CpuBackend::with_host_threads(config, t)),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = UnknownBackend;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendKind::parse(s).ok_or_else(|| UnknownBackend(s.to_string()))
    }
}

/// Error of parsing a backend name that is neither `sim` nor `cpu`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend(pub String);

impl fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown backend '{}' (expected sim|cpu)", self.0)
    }
}

impl std::error::Error for UnknownBackend {}

/// An execution backend: everything the decode/encode pipelines consume from a device.
///
/// Extends [`LaunchDevice`] (kernel launches, host-step charging) with the pipeline-
/// level concerns: identity, concurrent-stream timing, transfer modeling, and the
/// host-thread budget. The pipelines take `&dyn Backend`, so a concrete [`Gpu`] coerces
/// at every existing call site.
pub trait Backend: LaunchDevice + Send + Sync + fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// A human-readable device description (surfaced by `hfz inspect` and `STATS`).
    fn device_name(&self) -> String;

    /// Whether reported timings come from the performance model (`true` for the sim)
    /// rather than wall-clock measurement.
    fn is_modeled(&self) -> bool;

    /// Wall-clock estimate for a set of kernels launched on independent streams.
    ///
    /// The sim applies the CUDA-stream overlap model; the CPU backend executed the
    /// kernels serially, so its estimate is the serial sum (no imagined overlap).
    fn concurrent(&self, kernels: &[KernelStats]) -> ConcurrentStats;

    /// Seconds charged for moving `bytes` across the host/device boundary.
    ///
    /// Zero when the backend does not model transfers, as on the CPU backend where
    /// decode input and output live in the same memory.
    fn transfer_seconds(&self, bytes: u64, direction: TransferDirection) -> f64;

    /// The session's host-thread budget: how many threads a launch fans its blocks
    /// over, and the most a multi-field wave may run fields on.
    fn host_threads(&self) -> usize;

    /// Runs `task(i)` for every `i` in `0..n` on the device's worker pool, the one every
    /// launch runs on ([`Gpu::run_tasks`]). Work submitted from inside a task, such as a
    /// field's launches in a multi-field wave, runs on the task's own thread.
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync));
}

impl Backend for Gpu {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn device_name(&self) -> String {
        self.config().name.clone()
    }

    fn is_modeled(&self) -> bool {
        true
    }

    fn concurrent(&self, kernels: &[KernelStats]) -> ConcurrentStats {
        concurrent_time(self.config(), kernels)
    }

    fn transfer_seconds(&self, bytes: u64, direction: TransferDirection) -> f64 {
        transfer_time_s(self.config(), bytes, direction)
    }

    fn host_threads(&self) -> usize {
        Gpu::host_threads(self)
    }

    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        Gpu::run_tasks(self, n, task)
    }
}

/// A real multi-threaded CPU execution backend.
///
/// Every launch is [`Gpu::launch_unmodeled`]: the blocks of the grid run on the
/// device's persistent worker pool, the kernels' charge calls return at once and the
/// cost model never runs. Each [`KernelStats`] keeps the launch geometry, occupancy and launch
/// count and carries the *measured* wall-clock duration of the launch; its
/// memory-traffic and cycle aggregates are modeled-only and stay zero. Host-side
/// pipeline steps are likewise charged their measured time, transfers cost nothing
/// (host memory is device memory), and "concurrent streams" are what they really are
/// here: serial execution.
///
/// What runs differs by path. Ranged decodes and the chunked baseline's decode launch
/// the simulator's [`BlockKernel`]s, so the wrapped [`GpuConfig`] supplies their
/// geometry (block sizes, shared-memory budgets, `T_high`). A full decode of a flat
/// stream is one launch of a walk that decodes each sequence once: no synchronization,
/// counting or tuning runs here, so the paper's tuning decisions are exercised only on
/// the simulator. An encode is, as on the simulator, three launches of a walk that
/// encodes each symbol once (a per-block histogram, per-chunk bit totals, a pack from
/// each block's first bit). A field compress is a quantize launch over blocks of the
/// field's rows, which counts the codes as it makes them, plus the encode walk's two
/// other launches. Decoded output and archives are bit-identical to the simulator's on
/// every path.
#[derive(Debug, Clone)]
pub struct CpuBackend {
    gpu: Gpu,
}

impl CpuBackend {
    /// Creates a CPU backend using all available cores.
    pub fn new(config: GpuConfig) -> Self {
        CpuBackend {
            gpu: Gpu::new(config),
        }
    }

    /// Creates a CPU backend with a fixed worker-thread count.
    pub fn with_host_threads(config: GpuConfig, host_threads: usize) -> Self {
        CpuBackend {
            gpu: Gpu::with_host_threads(config, host_threads),
        }
    }
}

impl LaunchDevice for CpuBackend {
    fn config(&self) -> &GpuConfig {
        self.gpu.config()
    }

    fn launch(&self, kernel: &dyn BlockKernel, cfg: LaunchConfig) -> KernelStats {
        self.gpu.launch_unmodeled(kernel, cfg)
    }

    fn charge_seconds(&self, _modeled: f64, measured: f64) -> f64 {
        measured
    }
}

impl Backend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn device_name(&self) -> String {
        format!("host CPU ({} threads)", self.gpu.host_threads())
    }

    fn is_modeled(&self) -> bool {
        false
    }

    fn concurrent(&self, kernels: &[KernelStats]) -> ConcurrentStats {
        let serial_time_s: f64 = kernels.iter().map(|k| k.time_s).sum();
        ConcurrentStats {
            time_s: serial_time_s,
            serial_time_s,
            kernels: kernels.to_vec(),
        }
    }

    fn transfer_seconds(&self, _bytes: u64, _direction: TransferDirection) -> f64 {
        0.0
    }

    fn host_threads(&self) -> usize {
        self.gpu.host_threads()
    }

    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.gpu.run_tasks(n, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BlockContext, DeviceBuffer};

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
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(BackendKind::parse(&kind.name().to_uppercase()), Some(kind));
        }
        assert_eq!(BackendKind::parse("cuda"), None);
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
        assert_eq!(stats.mem, gpu_sim::MemStats::default());
        assert_eq!(stats.total_block_cycles, 0.0);
        assert_eq!(stats.compute_time_s, 0.0);
        assert_eq!(stats.mem_time_s, 0.0);
        assert_eq!(stats.launch_overhead_s, 0.0);
        assert!(stats.time_s > 0.0, "wall clock must have advanced");
        assert_eq!(cpu.charge_seconds(123.0, 0.5), 0.5);
        assert_eq!(
            cpu.transfer_seconds(1 << 30, TransferDirection::HostToDevice),
            0.0
        );
    }

    #[test]
    fn sim_backend_preserves_the_modeling_behaviour() {
        let sim: Arc<dyn Backend> = BackendKind::Sim.create(GpuConfig::test_tiny(), Some(2));
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

    #[test]
    fn env_selection_defaults_to_cpu() {
        // CI runs the suite once unset and once with HFZ_BACKEND=sim; only `sim`
        // selects the simulator, and anything else falls back to the CPU backend.
        assert_eq!(BackendKind::parse("nope"), None);
        let expected = match std::env::var(BACKEND_ENV) {
            Ok(value) if value.eq_ignore_ascii_case("sim") => BackendKind::Sim,
            _ => BackendKind::Cpu,
        };
        assert_eq!(BackendKind::from_env(), expected);
    }
}
