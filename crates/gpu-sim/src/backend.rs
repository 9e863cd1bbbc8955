//! The device interface: the [`Backend`] trait and the two devices that implement it.
//!
//! The decode/encode pipelines in `huffdec-core` and the device-wide [`crate::primitives`]
//! are written against [`Backend`]: kernel launches over grids of blocks, host-step
//! charging, transfer costs, and concurrent-stream timing. A device supplies its launch;
//! the clock (every timing method) is the trait's, chosen once by [`Backend::kind`]. Two
//! devices implement it and run the same launch code on two clocks:
//!
//! * [`Gpu`] — the simulated V100: kernels execute functionally on host threads while
//!   the calibrated performance model produces *modeled* timings. It reproduces the
//!   paper's evaluation numbers and is chosen by name only (`HFZ_BACKEND=sim`,
//!   `hfz --backend sim`, [`BackendKind::Sim`]).
//! * [`CpuBackend`] — the default: the same launches, unmodeled, on the device's worker
//!   pool ([`Backend::run_tasks`]), with measured wall-clock timings and no transfer
//!   cost. It is what makes `hfz` fast on the machine it runs on, and the seam a future
//!   CUDA/wgpu port plugs into.
//!
//! The decode pipelines choose by [`Backend::is_modeled`]. Both backends produce
//! **bit-identical decoded output and archives** — only the timings differ — which the
//! workspace's backend-equivalence test matrix enforces.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Backend, BackendKind, CpuBackend, GpuConfig};
//!
//! let backend = BackendKind::Cpu.create(GpuConfig::test_tiny(), Some(2));
//! assert_eq!(backend.kind(), BackendKind::Cpu);
//! assert!(!backend.is_modeled());
//! let cpu = CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2);
//! assert_eq!(cpu.kind().name(), "cpu");
//! ```

use std::fmt;
use std::sync::Arc;

use crate::config::GpuConfig;
use crate::kernel::{BlockKernel, Gpu, LaunchConfig};
use crate::stream::{concurrent_time, ConcurrentStats};
use crate::timing::KernelStats;
use crate::transfer::{transfer_time_s, TransferDirection};

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

    /// The process-wide default backend: `HFZ_BACKEND=sim` selects the simulator,
    /// everything else (unset, `cpu`, or unrecognized) the CPU backend. This is how CI
    /// runs the whole test suite once per backend without touching every call site.
    pub fn from_env() -> BackendKind {
        std::env::var(BACKEND_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
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

    /// Parses a backend name as the CLI flags and `HFZ_BACKEND` accept it
    /// (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Ok(BackendKind::Sim),
            "cpu" => Ok(BackendKind::Cpu),
            _ => Err(UnknownBackend(s.to_string())),
        }
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

/// An execution backend: everything the decode/encode pipelines and the device
/// primitives consume from a device.
///
/// A device supplies five methods: its [`config`](Backend::config), its
/// [`launch`](Backend::launch), its [`kind`](Backend::kind), its host-thread budget and
/// its worker pool. Every timing question — how a host step is charged, what a transfer
/// costs, how concurrent streams overlap, whether the numbers are modeled, what the
/// device is called — is a provided method that answers from [`Backend::kind`], so the
/// clock is written once and a wrapper that forwards the five inherits it.
/// Consumers take `&dyn Backend` or `&D where D: Backend + ?Sized`, so a concrete
/// [`Gpu`] coerces at every call site.
pub trait Backend: Send + Sync + fmt::Debug {
    /// The device configuration (kernel geometry plus the cost-model parameters).
    fn config(&self) -> &GpuConfig;

    /// Launches a kernel over a grid of blocks and returns its timing record.
    fn launch(&self, kernel: &dyn BlockKernel, cfg: LaunchConfig) -> KernelStats;

    /// Which backend this is; every timing method below answers from it.
    fn kind(&self) -> BackendKind;

    /// The session's host-thread budget: how many threads a launch fans its blocks
    /// over, and the most a multi-field wave may run fields on.
    fn host_threads(&self) -> usize;

    /// Runs `task(i)` for every `i` in `0..n` on the device's worker pool, the one every
    /// launch runs on ([`Gpu::run_tasks`]). Work submitted from inside a task, such as a
    /// field's launches in a multi-field wave, runs on the task's own thread.
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync));

    /// Whether reported timings come from the performance model (`true` for the sim)
    /// rather than wall-clock measurement.
    fn is_modeled(&self) -> bool {
        self.kind() == BackendKind::Sim
    }

    /// Converts a host-side pipeline step into charged seconds.
    ///
    /// `modeled` is what the performance model attributes to the step (typically one
    /// kernel-launch overhead, standing in for the small kernel a GPU would run);
    /// `measured` is the real wall-clock duration of the step. The simulator returns
    /// `modeled`; the CPU backend returns `measured`.
    fn charge_seconds(&self, modeled: f64, measured: f64) -> f64 {
        match self.kind() {
            BackendKind::Sim => modeled,
            BackendKind::Cpu => measured,
        }
    }

    /// Seconds charged for moving `bytes` across the host/device boundary: the modeled
    /// PCIe time on the sim, zero on the CPU backend, where decode input and output live
    /// in the same memory.
    fn transfer_seconds(&self, bytes: u64, direction: TransferDirection) -> f64 {
        match self.kind() {
            BackendKind::Sim => transfer_time_s(self.config(), bytes, direction),
            BackendKind::Cpu => 0.0,
        }
    }

    /// Wall-clock estimate for a set of kernels launched on independent streams.
    ///
    /// The sim applies the CUDA-stream overlap model; the CPU backend executed the
    /// kernels serially, so its estimate is the serial sum (no imagined overlap).
    fn concurrent(&self, kernels: &[KernelStats]) -> ConcurrentStats {
        match self.kind() {
            BackendKind::Sim => concurrent_time(self.config(), kernels),
            BackendKind::Cpu => {
                let serial_time_s: f64 = kernels.iter().map(|k| k.time_s).sum();
                ConcurrentStats {
                    time_s: serial_time_s,
                    serial_time_s,
                    kernels: kernels.to_vec(),
                }
            }
        }
    }

    /// A human-readable device description (surfaced by `hfz inspect` and `STATS`).
    fn device_name(&self) -> String {
        match self.kind() {
            BackendKind::Sim => self.config().name.clone(),
            BackendKind::Cpu => format!("host CPU ({} threads)", self.host_threads()),
        }
    }
}

impl Backend for Gpu {
    fn config(&self) -> &GpuConfig {
        Gpu::config(self)
    }

    fn launch(&self, kernel: &dyn BlockKernel, cfg: LaunchConfig) -> KernelStats {
        Gpu::launch(self, kernel, cfg)
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Sim
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
/// cost model never runs. Each [`KernelStats`] keeps the launch geometry, occupancy and
/// launch count and carries the *measured* wall-clock duration of the launch; its
/// memory-traffic and cycle aggregates are modeled-only and stay zero. The wrapped
/// [`Gpu`] is private, so this device cannot run a modeled launch; its [`GpuConfig`]
/// supplies the kernels' geometry (block sizes, shared-memory budgets, `T_high`). Which
/// launches each decode path runs here is documented with the decoders
/// (`huffdec_core::decoder`).
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

impl Backend for CpuBackend {
    fn config(&self) -> &GpuConfig {
        self.gpu.config()
    }

    fn launch(&self, kernel: &dyn BlockKernel, cfg: LaunchConfig) -> KernelStats {
        self.gpu.launch_unmodeled(kernel, cfg)
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn host_threads(&self) -> usize {
        self.gpu.host_threads()
    }

    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.gpu.run_tasks(n, task)
    }
}
