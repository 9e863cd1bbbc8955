//! Work pins for a compress and a field decompress: what one `Codec::compress` and one
//! `Codec::decompress_field` cost the heap and the device, counted.
//!
//! This binary installs its own counting `#[global_allocator]`, so it holds this one
//! test and nothing else runs in its process: its rows run one after another. A session
//! on each backend (`cpu` and `sim`, two host threads, the tiny device model) compresses
//! two fields with the default decoder and format: a 1-D HACC field of 300,000
//! elements, which the quantize launch splits into five column blocks, and a 3-D CESM
//! field of 16×64×256, which it splits into four blocks of whole rows. It then opens
//! each field's archive and decompresses the field from the handle. After two warm-up
//! calls, each of twenty calls is counted from the call to its return, on every thread
//! of the process: the quantize launch's blocks and the decode run on the device's pool.
//!
//! Beside the heap, each of those twenty runs counts the kernel launches of the same
//! call. For a compress, `sz::compress_on`, the call `Codec::compress` makes, runs on a
//! backend that passes every launch on to the session's own and counts it, and must
//! write the same archive. A compress is one quantize launch, then two launches of the
//! encode walk (chunk bits and pack; the quantize launch's counts stand in for a count
//! launch). A decompress reports its launches in its decode's phase breakdown (a
//! counting backend under `sz::decompress` counts the same): on `cpu` one launch of the
//! decode walk, on `sim` the gap-array kernels, nine or ten.
//!
//! Which pins are exact: every count repeats exactly over the twenty runs of each
//! field on each backend, so every pin is asserted at its value, the launches as
//! equal and the heap as an upper bound, as the serving pins do. An unoptimized build
//! makes a few more allocations in a compress (seven more, of 4,064 bytes, for the 1-D
//! field on `cpu`), just as exactly, so each profile has its own compress heap pins; a
//! decompress costs the same in both. A change that lowers a count lowers its pin;
//! raising a pin is a regression to justify.
//!
//! Of a compress's bytes, the `u16` codes are over half: 600,000 of the 1-D field's
//! 1,100,309 on `cpu`, 524,288 of the 3-D field's 996,755. The rest is the encoded
//! stream and the encode's buffers, with 64 KB of count lanes (one set of 32 KB per
//! host thread) that every block of the quantize launch adds into. Of a decompress's
//! 2,894,311 bytes for the 1-D field on `cpu`, the decoded codes are 600,000 and the
//! reconstructed `f32`s 1,200,000.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use datasets::{dataset_by_name, generate_with_dims, Dims, Field};
use gpu_sim::{Backend, BackendKind, BlockKernel, GpuConfig, KernelStats, LaunchConfig};
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

/// The pins of one call on one field on one backend: allocations, bytes and kernel
/// launches.
type Pins = (u64, u64, usize);

/// [`Pins`] of a compress of the 1-D and the 3-D field on `cpu`.
const PINS_CPU: [Pins; 2] = if cfg!(debug_assertions) {
    [(64, 1_104_373, 3), (75, 997_747, 3)]
} else {
    [(57, 1_100_309, 3), (70, 996_755, 3)]
};
/// [`Pins`] of a compress of the 1-D and the 3-D field on `sim`, whose kernels allocate
/// per launch.
const PINS_SIM: [Pins; 2] = if cfg!(debug_assertions) {
    [(85, 1_107_493, 3), (93, 1_000_243, 3)]
} else {
    [(78, 1_103_429, 3), (88, 999_251, 3)]
};

/// [`Pins`] of a `decompress_field` of the 1-D and the 3-D field on `cpu`, in either
/// profile.
const DECOMPRESS_PINS_CPU: [Pins; 2] = [(15, 2_894_311, 1), (20, 2_893_325, 1)];
/// [`Pins`] of a `decompress_field` of the 1-D and the 3-D field on `sim`, in either
/// profile.
const DECOMPRESS_PINS_SIM: [Pins; 2] = [(303, 2_470_190, 10), (170, 1_946_934, 9)];

/// A backend that passes its launches and its device on to `inner` and counts the
/// launches; its clock follows from the kind it forwards.
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

    fn kind(&self) -> BackendKind {
        self.inner.kind()
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
    let (same, _) = sz::compress_on(&counting, field, codec.config(), false);
    assert_eq!(codec.archive_to_bytes(&same).unwrap(), archive);
    counting.launches.load(Ordering::SeqCst)
}

/// Checks one counted run's allocations and bytes against the upper bounds of `pins`
/// and its launches against their exact pin.
fn check(context: &str, (allocations, bytes): (u64, u64), launches: usize, pins: Pins) {
    let (pin_allocations, pin_bytes, pin_launches) = pins;
    assert!(
        allocations <= pin_allocations && bytes <= pin_bytes,
        "{context}: {allocations} allocations of {bytes} bytes, pinned at \
         {pin_allocations} of {pin_bytes}"
    );
    assert_eq!(launches, pin_launches, "{context}: launches");
}

#[test]
fn a_compress_and_a_field_decompress_allocate_and_launch_what_they_are_pinned_at() {
    let field =
        |name: &str, dims: Dims| generate_with_dims(&dataset_by_name(name).unwrap(), dims, 1);
    let fields = [
        field("HACC", Dims::D1(300_000)),
        field("CESM", Dims::D3(16, 64, 256)),
    ];
    let backends = [
        (BackendKind::Cpu, PINS_CPU, DECOMPRESS_PINS_CPU),
        (BackendKind::Sim, PINS_SIM, DECOMPRESS_PINS_SIM),
    ];
    for (kind, compress_pins, decompress_pins) in backends {
        let codec = Codec::builder()
            .backend(kind)
            .gpu_config(GpuConfig::test_tiny())
            .host_threads(2)
            .build()
            .unwrap();
        let rows = fields.iter().zip(compress_pins).zip(decompress_pins);
        for ((field, compress_pin), decompress_pin) in rows {
            for _ in 0..WARM_UP {
                codec.compress(field).unwrap();
            }
            for run in 0..COUNTED {
                let (outcome, cost) = counted(|| codec.compress(field).unwrap());
                let archive = codec.archive_to_bytes(&outcome.archive).unwrap();
                let launches = launches(&codec, field, &archive);
                let context = format!("{kind} {:?} compress run {run}", field.dims);
                check(&context, cost, launches, compress_pin);
            }

            let archive = codec.compress_archive(field).unwrap();
            let handle = codec
                .open_archive_bytes(&codec.archive_to_bytes(&archive).unwrap())
                .unwrap();
            let opened = handle.field(0).unwrap();
            for _ in 0..WARM_UP {
                codec.decompress_field(opened).unwrap();
            }
            for run in 0..COUNTED {
                let (outcome, cost) = counted(|| codec.decompress_field(opened).unwrap());
                assert_eq!(outcome.data.len(), field.len());
                let launches = outcome.stats.huffman.kernel_launches();
                let context = format!("{kind} {:?} decompress_field run {run}", field.dims);
                check(&context, cost, launches, decompress_pin);
            }
        }
    }
}
