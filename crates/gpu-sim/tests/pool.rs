//! The device worker pool, driven through the public launch API: one device shared by
//! several launching threads, launches from inside a block, a block that panics on a
//! helper, and the helpers' lifetime.
//!
//! Races here show up only now and then, so CI runs this file many times in a row.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

use gpu_sim::{BlockContext, BlockKernel, DeviceBuffer, Gpu, GpuConfig, LaunchConfig};

/// The tests of this file run one at a time, so that a thread count read by one is not
/// moved by another's devices.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writes a salted hash of each thread's global index and charges each block a
/// fractional cost of its own. Floating-point sums of such costs depend on their order,
/// so the modeled statistics match only when they are read in block order.
struct Salted<'a> {
    out: &'a DeviceBuffer<u32>,
    salt: u32,
}

impl BlockKernel for Salted<'_> {
    fn name(&self) -> &str {
        "salted"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let b = ctx.block_idx();
        let start = b as usize * ctx.block_dim() as usize;
        let end = (start + ctx.block_dim() as usize).min(self.out.len());
        for i in start..end {
            self.out
                .set(i, (i as u32).wrapping_mul(2_654_435_761) ^ self.salt);
        }
        let lanes = ctx.config().warp_size;
        for w in 0..ctx.warp_count() {
            let base = start as u64 + (w * lanes) as u64;
            ctx.compute(w, 1.0 + 1.0 / (1 + (b + self.salt) % 13) as f64);
            ctx.global_load_strided(w, base, lanes, 1 + (b % 5) as u64, 4);
            ctx.global_store_contiguous(w, base, lanes, 4);
        }
        if b % 3 == 0 {
            ctx.syncthreads();
        }
    }
}

/// One launch of [`Salted`]: the output and, for a modeled launch, the statistics.
/// `KernelStats` has no `PartialEq`; its `Debug` form prints every `f64` exactly.
fn salted(gpu: &Gpu, n: usize, salt: u32, modeled: bool) -> (Vec<u32>, Option<String>) {
    let out = DeviceBuffer::<u32>::zeroed(n);
    let kernel = Salted { out: &out, salt };
    let cfg = LaunchConfig::covering(n, 64);
    let stats = if modeled {
        Some(format!("{:?}", gpu.launch(&kernel, cfg)))
    } else {
        gpu.launch_unmodeled(&kernel, cfg);
        None
    };
    (out.into_vec(), stats)
}

#[test]
fn four_threads_sharing_a_device_match_a_one_thread_device() {
    let _serial = serial();
    let shared = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let single = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
    let n = 20_000;
    thread::scope(|s| {
        for t in 0..4u32 {
            let (shared, single) = (&shared, &single);
            s.spawn(move || {
                for i in 0..50u32 {
                    let (salt, modeled) = (t * 50 + i, i % 2 == 0);
                    assert_eq!(
                        salted(shared, n, salt, modeled),
                        salted(single, n, salt, modeled),
                        "thread {t}, launch {i}"
                    );
                }
            });
        }
    });
}

/// Fills its stretch of `out` with `value`.
struct Fill<'a> {
    out: &'a DeviceBuffer<u32>,
    offset: usize,
    len: usize,
    value: u32,
}

impl BlockKernel for Fill<'_> {
    fn name(&self) -> &str {
        "fill"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let start = ctx.block_idx() as usize * ctx.block_dim() as usize;
        let end = (start + ctx.block_dim() as usize).min(self.len);
        for i in start..end {
            self.out.set(self.offset + i, self.value);
        }
    }
}

/// Each block launches a [`Fill`] of its own stretch on the device it runs on.
struct LaunchesFromABlock<'a> {
    gpu: &'a Gpu,
    out: &'a DeviceBuffer<u32>,
    stretch: usize,
}

impl BlockKernel for LaunchesFromABlock<'_> {
    fn name(&self) -> &str {
        "launches-from-a-block"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let b = ctx.block_idx() as usize;
        let fill = Fill {
            out: self.out,
            offset: b * self.stretch,
            len: self.stretch,
            value: b as u32 + 1,
        };
        let cfg = LaunchConfig::covering(self.stretch, 32);
        if b % 2 == 0 {
            self.gpu.launch(&fill, cfg);
        } else {
            self.gpu.launch_unmodeled(&fill, cfg);
        }
    }
}

#[test]
fn a_block_that_launches_on_its_own_device_completes() {
    let _serial = serial();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 3);
    let (blocks, stretch) = (8, 500);
    let out = DeviceBuffer::<u32>::zeroed(blocks * stretch);
    let kernel = LaunchesFromABlock {
        gpu: &gpu,
        out: &out,
        stretch,
    };
    gpu.launch_unmodeled(&kernel, LaunchConfig::new(blocks as u32, 1));
    let expected: Vec<u32> = (0..blocks * stretch)
        .map(|i| (i / stretch) as u32 + 1)
        .collect();
    assert_eq!(out.into_vec(), expected);
}

/// Two blocks that meet at a barrier, so each runs on its own thread: the launching
/// thread holds one at the barrier until a helper takes the other. With `fail`, the
/// block on the helper panics.
struct MeetAHelper<'a> {
    caller: ThreadId,
    barrier: &'a Barrier,
    helper_ran: &'a AtomicBool,
    out: &'a DeviceBuffer<u32>,
    fail: bool,
}

impl BlockKernel for MeetAHelper<'_> {
    fn name(&self) -> &str {
        "meet-a-helper"
    }

    fn block(&self, ctx: &mut BlockContext) {
        self.barrier.wait();
        if thread::current().id() != self.caller {
            self.helper_ran.store(true, Ordering::SeqCst);
            assert!(!self.fail, "the block on the helper failed");
        }
        let b = ctx.block_idx() as usize;
        self.out.set(b, b as u32 + 10);
    }
}

#[test]
fn a_device_runs_on_after_a_block_panics_on_a_helper() {
    let _serial = serial();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let barrier = Barrier::new(2);
    let out = DeviceBuffer::<u32>::zeroed(2);
    let meet = |fail: bool, helper_ran: &AtomicBool| {
        let kernel = MeetAHelper {
            caller: thread::current().id(),
            barrier: &barrier,
            helper_ran,
            out: &out,
            fail,
        };
        gpu.launch_unmodeled(&kernel, LaunchConfig::new(2, 1));
    };

    let helper_ran = AtomicBool::new(false);
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| meet(true, &helper_ran)))
            .expect_err("the block on the helper panics");
    assert!(helper_ran.load(Ordering::SeqCst));
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    assert_eq!(message, Some("the block on the helper failed"));

    // The same device, and its helper, run the next launch.
    let helper_ran = AtomicBool::new(false);
    meet(false, &helper_ran);
    assert!(helper_ran.load(Ordering::SeqCst));
    assert_eq!(out.into_vec(), vec![10, 11]);
}

#[cfg(target_os = "linux")]
#[test]
fn dropped_devices_leave_no_threads_behind() {
    let _serial = serial();
    let threads = || -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|count| count.trim().parse().ok())
            .expect("a Threads: line")
    };
    let start = threads();
    let mut peak = start;
    for salt in 0..100 {
        let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 3);
        let clone = gpu.clone();
        salted(&clone, 2_000, salt, false);
        peak = peak.max(threads());
        drop(gpu);
        salted(&clone, 2_000, salt, true);
    }
    assert!(peak >= start + 2, "the helpers never started");
    // A joined thread can still be counted for a moment while the kernel reaps it.
    let end = threads();
    assert!(end <= start + 4, "{start} threads before, {end} after");
}
