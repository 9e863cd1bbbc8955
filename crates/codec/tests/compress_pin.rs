//! Work pins for a compress: what one `Codec::compress` costs the heap and the device,
//! counted.
//!
//! This binary installs its own counting `#[global_allocator]`, so it holds this one
//! test and nothing else runs in its process. A session on each backend (`cpu` and
//! `sim`, two host threads, the tiny device model) compresses two fields with the
//! default decoder and format: a 1-D HACC field of 300,000 elements, which the quantize
//! launch splits into five column blocks, and a 3-D CESM field of 16×64×256, which it
//! splits into four blocks of whole rows. After two warm-up compresses of a field, each
//! of twenty compresses is counted from the call to its return, on every thread of the
//! process: the quantize launch's blocks run on the device's pool.
//!
//! Beside the heap, each of those twenty runs counts the kernel launches of the same
//! compress: `sz::compress_auto_on`, the call `Codec::compress` makes, runs on a
//! backend that passes every launch on to the session's own and counts it, and must
//! write the same archive. A compress is one quantize launch, then two launches of the
//! encode walk (chunk bits and pack; the quantize launch's counts stand in for a count
//! launch).
//!
//! Which pins are exact: every count repeats exactly over the twenty runs of each
//! field on each backend, so every pin is asserted at its value, the launches as
//! equal and the heap as an upper bound, as the serving pins do. An unoptimized build
//! makes a few more allocations (seven more, of 4,064 bytes, for the 1-D field on
//! `cpu`), just as exactly, so each profile has its own heap pins. A change that lowers a
//! count lowers its pin; raising a pin is a regression to justify.
//!
//! Of the bytes, the `u16` codes are about half: 600,000 of the 1-D field's 1,239,645
//! on `cpu`, 524,288 of the 3-D field's 1,095,107. The encoded stream and each
//! quantize block's code counts make most of the rest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use datasets::{dataset_by_name, generate_with_dims, Dims, Field};
use gpu_sim::{
    Backend, BackendKind, BlockKernel, ConcurrentStats, GpuConfig, KernelStats, LaunchConfig,
    TransferDirection,
};
use huffdec_codec::Codec;

/// Counts every allocation and the bytes it asked for; a `realloc` is one allocation
/// of its new size.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System` and returns what
// `System` returns, so `System`'s guarantees are this allocator's; the counters are
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 2;
const COUNTED: usize = 20;

/// The pins of one field on one backend: allocations, bytes and kernel launches per
/// compress.
type Pins = (u64, u64, usize);

/// [`Pins`] of the 1-D and the 3-D field on `cpu`.
const PINS_CPU: [Pins; 2] = if cfg!(debug_assertions) {
    [(72, 1_243_709, 3), (81, 1_096_099, 3)]
} else {
    [(65, 1_239_645, 3), (76, 1_095_107, 3)]
};
/// [`Pins`] of the 1-D and the 3-D field on `sim`, whose kernels allocate per launch.
const PINS_SIM: [Pins; 2] = if cfg!(debug_assertions) {
    [(93, 1_246_829, 3), (99, 1_098_595, 3)]
} else {
    [(86, 1_242_765, 3), (94, 1_097_603, 3)]
};

/// A backend that passes everything on to `inner` and counts the launches.
#[derive(Debug)]
struct CountLaunches<'a> {
    inner: &'a dyn Backend,
    launches: AtomicUsize,
}

impl Backend for CountLaunches<'_> {
    fn config(&self) -> &GpuConfig {
        self.inner.config()
    }

    fn launch(&self, kernel: &dyn BlockKernel, cfg: LaunchConfig) -> KernelStats {
        self.launches.fetch_add(1, Ordering::SeqCst);
        self.inner.launch(kernel, cfg)
    }

    fn charge_seconds(&self, modeled: f64, measured: f64) -> f64 {
        self.inner.charge_seconds(modeled, measured)
    }

    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn device_name(&self) -> String {
        self.inner.device_name()
    }

    fn is_modeled(&self) -> bool {
        self.inner.is_modeled()
    }

    fn concurrent(&self, kernels: &[KernelStats]) -> ConcurrentStats {
        self.inner.concurrent(kernels)
    }

    fn transfer_seconds(&self, bytes: u64, direction: TransferDirection) -> f64 {
        self.inner.transfer_seconds(bytes, direction)
    }

    fn host_threads(&self) -> usize {
        self.inner.host_threads()
    }

    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.inner.run_tasks(n, task)
    }
}

/// Runs `work`, returning its result and the allocations and bytes it cost.
fn counted<R>(work: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    let result = work();
    let cost = (
        ALLOCATIONS.load(Ordering::SeqCst) - allocations,
        BYTES.load(Ordering::SeqCst) - bytes,
    );
    (result, cost)
}

/// The kernel launches of `codec`'s compress of `field`, checked to write the archive
/// `archive` does.
fn launches(codec: &Codec, field: &Field, archive: &[u8]) -> usize {
    let counting = CountLaunches {
        inner: codec.backend(),
        launches: AtomicUsize::new(0),
    };
    let (same, _) = sz::compress_auto_on(&counting, field, codec.config(), false);
    assert_eq!(codec.archive_to_bytes(&same).unwrap(), archive);
    counting.launches.load(Ordering::SeqCst)
}

#[test]
fn a_compress_allocates_and_launches_what_it_is_pinned_at() {
    let field =
        |name: &str, dims: Dims| generate_with_dims(&dataset_by_name(name).unwrap(), dims, 1);
    let fields = [
        field("HACC", Dims::D1(300_000)),
        field("CESM", Dims::D3(16, 64, 256)),
    ];
    for (kind, pins) in [(BackendKind::Cpu, PINS_CPU), (BackendKind::Sim, PINS_SIM)] {
        let codec = Codec::builder()
            .backend(kind)
            .gpu_config(GpuConfig::test_tiny())
            .host_threads(2)
            .build()
            .unwrap();
        for (field, (pin_allocations, pin_bytes, pin_launches)) in fields.iter().zip(pins) {
            for _ in 0..WARM_UP {
                codec.compress(field).unwrap();
            }
            for run in 0..COUNTED {
                let (outcome, (allocations, bytes)) = counted(|| codec.compress(field).unwrap());
                let archive = codec.archive_to_bytes(&outcome.archive).unwrap();
                let launches = launches(&codec, field, &archive);
                let context = format!("{kind} {:?} run {run}", field.dims);
                assert!(
                    allocations <= pin_allocations && bytes <= pin_bytes,
                    "{context}: {allocations} allocations of {bytes} bytes, pinned at \
                     {pin_allocations} of {pin_bytes}"
                );
                assert_eq!(launches, pin_launches, "{context}: launches");
            }
        }
    }
}
