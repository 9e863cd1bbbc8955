//! Allocation pins for a cached and a cold `GET`: what one request costs the heap,
//! counted.
//!
//! This binary installs its own counting `#[global_allocator]`, so it holds this one
//! test and nothing else runs in its process. An in-process daemon serves a
//! 65,536-element HACC field on `tcp:` and on `unix:`; after five warm-up `GET`s, each
//! of twenty cached `GET`s is counted from the client's call to its return. The count
//! covers both ends, since they share the process: the client's request encode and
//! frame, the daemon's frame read, request decode, cache lookup and reply, and the
//! client's frame read and response decode.
//!
//! The counts repeat exactly: every one of the twenty requests, on both transports,
//! makes the same number of allocations of the same total size. They are pinned as
//! upper bounds at that value. A change that lowers one lowers its pin; raising a pin
//! is a regression to justify.
//!
//! Of the bytes, three payloads (the field's 256 KiB) are the whole story:
//! - the LRU entry copied out for the reply (`Response::Get` owns its bytes);
//! - the client's frame read;
//! - the client's response decode.
//!
//! The reply itself leaves as one vectored write of a small header and the borrowed
//! payload, so neither `Response::encode` nor a frame buffer copies it.
//!
//! A second row routes the same `GET`: an in-process router, attached to that one
//! daemon as its only shard and listening on the same transport, sits between the
//! client and the daemon. Its count covers all three parties and repeats exactly too.
//! It makes five payloads: the three above, plus two on the router's shard link —
//! its frame read and its response decode. The router's reply to the client borrows
//! the payload it decoded, as the daemon's does.
//!
//! A third row counts cold `GET`s: a daemon whose cache is smaller than the field
//! decodes it for every request, and each counted request must start one decode. The
//! decode is one task of the daemon's wave: the codes, the reconstructed f32s and
//! their little-endian bytes, which the reply copies once more. Its count repeats
//! exactly on each backend, and differs between them (the simulator runs the paper's
//! kernels, the CPU backend its walk), so each backend has its own pin.
//!
//! A fourth row counts cold `GETBATCH`es of four fields on the same daemon: each
//! counted request must start four decodes, one wave of four tasks. It alternates two
//! disjoint sets of four copies of the field, as the cold `GET` row alternates two,
//! and its count repeats exactly on each backend too.
//!
//! A fifth row counts ranged `GET`s of 5,000 codes on the same daemon. No cache entry
//! holds the field's codes, so each takes the partial path: the field's decode index,
//! built by the first (uncounted) request, maps the range to the decode blocks that
//! cover it, and only those are decoded (`Codec::decompress_range`). Beside the heap
//! it pins the blocks each request decodes, read from the daemon's metrics, and the
//! kernel launches of that partial decode, read from the daemon's own codec running
//! the same range on the same field. All four counts repeat exactly on each backend.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use datasets::{dataset_by_name, generate};
use gpu_sim::GpuConfig;
use huffdec_container::ArchiveWriter;
use huffdec_core::DecoderKind;
use huffdec_serve::client::Connection;
use huffdec_serve::net::ListenAddr;
use huffdec_serve::protocol::{BatchGetItem, GetKind};
use huffdec_serve::router::Router;
use huffdec_serve::{BackendKind, Daemon, ServerState};
use sz::{compress, SzConfig};

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

const ELEMENTS: usize = 65_536;
/// One field's reply payload: 65,536 little-endian f32s.
const PAYLOAD: u64 = ELEMENTS as u64 * 4;
const WARM_UP: usize = 5;
const COUNTED: usize = 20;

/// Allocations per cached `GET`, both ends together.
const PIN_ALLOCATIONS: u64 = 13;
/// Bytes those allocations request per cached `GET`: three payloads and the small
/// change of names, headers and frames.
const PIN_BYTES: u64 = 3 * PAYLOAD + 362;
/// Allocations per routed cached `GET`, all three parties together.
const PIN_ROUTED_ALLOCATIONS: u64 = 23;
/// Bytes those allocations request per routed cached `GET`: five payloads and the
/// small change.
const PIN_ROUTED_BYTES: u64 = 5 * PAYLOAD + 694;
/// Allocations per cold `GET` on the CPU backend, both ends together.
const PIN_COLD_ALLOCATIONS_CPU: u64 = 41;
/// Bytes those allocations request per cold `GET` on the CPU backend: six and a half
/// payloads and the decode's small change.
const PIN_COLD_BYTES_CPU: u64 = 6 * PAYLOAD + PAYLOAD / 2 + 5_353;
/// Allocations per cold `GET` on the simulator, whose kernels allocate per launch.
const PIN_COLD_ALLOCATIONS_SIM: u64 = 169;
/// Bytes those allocations request per cold `GET` on the simulator.
const PIN_COLD_BYTES_SIM: u64 = 6 * PAYLOAD + 56_728;
/// Allocations per cold `GETBATCH` of four fields on the CPU backend, both ends
/// together.
const PIN_BATCH_ALLOCATIONS_CPU: u64 = 112;
/// Bytes those allocations request per cold `GETBATCH` of four on the CPU backend:
/// four fields at six and a half payloads each, and the small change.
const PIN_BATCH_BYTES_CPU: u64 = 26 * PAYLOAD + 20_102;
/// Allocations per cold `GETBATCH` of four fields on the simulator.
const PIN_BATCH_ALLOCATIONS_SIM: u64 = 614;
/// Bytes those allocations request per cold `GETBATCH` of four on the simulator: four
/// fields at six payloads each, and the small change.
const PIN_BATCH_BYTES_SIM: u64 = 24 * PAYLOAD + 227_906;

/// The ranged row's request: codes `[start, start + len)` of field 0.
const RANGE: (u64, u64) = (30_000, 5_000);
/// Allocations per ranged `GET` of [`RANGE`] codes on the CPU backend, both ends
/// together.
const PIN_RANGED_ALLOCATIONS_CPU: u64 = 18;
/// Bytes those allocations request per ranged `GET` on the CPU backend: half a
/// payload, the decode/write output buffer that spans all of the field's codes, and
/// the small change, the 10,000-byte reply among it.
const PIN_RANGED_BYTES_CPU: u64 = PAYLOAD / 2 + 40_590;
/// Allocations per ranged `GET` of [`RANGE`] codes on the simulator.
const PIN_RANGED_ALLOCATIONS_SIM: u64 = 22;
/// Bytes those allocations request per ranged `GET` on the simulator.
const PIN_RANGED_BYTES_SIM: u64 = PAYLOAD / 2 + 41_054;
/// Decode blocks (sequences of the gap-array stream) a ranged `GET` of [`RANGE`]
/// decodes, on either backend.
const PIN_RANGED_BLOCKS: u64 = 2;
/// Kernel launches of that partial decode, on either backend: the decode/write launch
/// over those blocks.
const PIN_RANGED_LAUNCHES: usize = 1;

/// Full decodes `daemon` has run so far.
fn decodes(daemon: &ServerState) -> u64 {
    let m = daemon.metrics_snapshot();
    m.decode_seconds.iter().map(|h| h.count()).sum()
}

/// Runs `request`, returning its reply and the allocations and bytes it cost.
fn counted<R>(request: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    let reply = request();
    let cost = (
        ALLOCATIONS.load(Ordering::SeqCst) - allocations,
        BYTES.load(Ordering::SeqCst) - bytes,
    );
    (reply, cost)
}

/// Asserts that every request's count, in `counts`, is within its pins.
fn check_pins(addr: &ListenAddr, counts: &[(u64, u64)], (pin_allocations, pin_bytes): (u64, u64)) {
    for (i, &(allocations, bytes)) in counts.iter().enumerate() {
        assert!(
            allocations <= pin_allocations && bytes <= pin_bytes,
            "{} request {}: {} allocations of {} bytes ({:.3} payloads), pinned at {} of {}",
            addr,
            i,
            allocations,
            bytes,
            bytes as f64 / PAYLOAD as f64,
            pin_allocations,
            pin_bytes
        );
    }
}

/// One counted reply: a `GET`'s, or a `GETBATCH`'s items.
enum Reply {
    Get(huffdec_serve::GetResult),
    Batch(Vec<BatchGetItem>),
}

/// Counts [`COUNTED`] requests through `addr`, after [`WARM_UP`] uncounted ones, and
/// checks every count against its pins. Request `i` asks for the field set
/// `sets[i % sets.len()]`: a one-field set as a `GET`, a larger one as a `GETBATCH`. A
/// cached row (`cold` is `None`) asks for hits. A cold row, on the daemon `cold` names,
/// alternates between disjoint sets and checks that each request started a decode of
/// every field it named: a miss of a field the previous request decoded could join
/// that request's flight before the worker retires it, and cost only a hit's bytes.
fn pin_requests(addr: &ListenAddr, sets: &[&[u32]], pins: (u64, u64), cold: Option<&ServerState>) {
    let mut client = Connection::connect(addr).unwrap();
    let mut request = |i: usize| match sets[i % sets.len()] {
        &[field] => Reply::Get(client.get("hacc", field, GetKind::Data, None).unwrap()),
        fields => Reply::Batch(client.get_batch("hacc", GetKind::Data, fields).unwrap()),
    };
    for i in 0..WARM_UP {
        request(i);
    }
    let mut counts = Vec::with_capacity(COUNTED);
    for i in WARM_UP..WARM_UP + COUNTED {
        let decoded = cold.map(decodes);
        let (reply, cost) = counted(|| request(i));
        counts.push(cost);
        let items: Vec<(usize, bool)> = match reply {
            Reply::Get(r) => vec![(r.bytes.len(), r.from_cache)],
            Reply::Batch(items) => items
                .iter()
                .map(|item| (item.bytes.len(), item.from_cache))
                .collect(),
        };
        let asked = sets[i % sets.len()].len();
        assert_eq!(items, vec![(PAYLOAD as usize, cold.is_none()); asked]);
        assert_eq!(
            cold.map(decodes),
            decoded.map(|n| n + asked as u64),
            "{} request {}",
            addr,
            i
        );
    }
    check_pins(addr, &counts, pins);
}

/// Counts [`COUNTED`] ranged `GET`s of [`RANGE`] codes of field 0 through `addr`, the
/// cold daemon `daemon`, after [`WARM_UP`] uncounted ones, and checks every count
/// against its pins. Each request must take the partial path (one more partial decode,
/// not from the cache) and decode [`PIN_RANGED_BLOCKS`] blocks; the same range, decoded
/// by the daemon's own codec, is [`PIN_RANGED_LAUNCHES`] launches.
fn pin_ranged_codes(addr: &ListenAddr, daemon: &ServerState, pins: (u64, u64)) {
    let partial = |m: &huffdec_serve::MetricsSnapshot| {
        let decodes: u64 = m.partial_decode_seconds.iter().map(|h| h.count()).sum();
        (decodes, m.partial_blocks_decoded)
    };
    let mut client = Connection::connect(addr).unwrap();
    let mut request = || client.get("hacc", 0, GetKind::Codes, Some(RANGE)).unwrap();
    for _ in 0..WARM_UP {
        request();
    }
    let mut counts = Vec::with_capacity(COUNTED);
    for i in 0..COUNTED {
        let (decodes, blocks) = partial(&daemon.metrics_snapshot());
        let (reply, cost) = counted(&mut request);
        counts.push(cost);
        assert_eq!(reply.bytes.len() as u64, 2 * RANGE.1);
        assert!(!reply.from_cache, "{} request {}", addr, i);
        let after = partial(&daemon.metrics_snapshot());
        assert_eq!(
            after,
            (decodes + 1, blocks + PIN_RANGED_BLOCKS),
            "{} request {}",
            addr,
            i
        );
    }
    check_pins(addr, &counts, pins);
    let loaded = daemon.store().get("hacc").unwrap();
    let (start, len) = RANGE;
    let ranged = daemon
        .codec()
        .decompress_range(&loaded.fields()[0], start, len)
        .unwrap();
    assert_eq!(ranged.decoded_blocks as u64, PIN_RANGED_BLOCKS);
    assert_eq!(ranged.timings.kernel_launches(), PIN_RANGED_LAUNCHES);
}

#[test]
fn a_cached_get_allocates_three_payloads() {
    let dir = std::env::temp_dir().join(format!("hfzd-alloc-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let field = generate(&dataset_by_name("HACC").unwrap(), ELEMENTS, 1);
    assert_eq!(field.data.len(), ELEMENTS);
    let compressed = compress(
        &field,
        &SzConfig::paper_default(DecoderKind::OptimizedGapArray),
    );
    let path = dir.join("hacc.hfz");
    let mut writer = ArchiveWriter::new(std::fs::File::create(&path).unwrap());
    // Eight copies of the field, for the cold rows to alternate between: fields 0 and
    // 1 for a `GET`, fields 0-3 and 4-7 for a `GETBATCH` of four.
    for _ in 0..8 {
        writer.write_compressed(&compressed).unwrap();
    }
    writer.into_inner().unwrap();

    let mut transports = vec![[(); 3].map(|_| ListenAddr::parse("tcp:127.0.0.1:0").unwrap())];
    if cfg!(unix) {
        transports.push(["d", "r", "c"].map(|name| ListenAddr::Unix(dir.join(name))));
    }
    for [listen, router_listen, cold_listen] in transports {
        let spawn = |listen, cache_bytes| {
            Daemon::builder()
                .listen(listen)
                .gpu(GpuConfig::test_tiny())
                .host_threads(2)
                .cache_bytes(cache_bytes)
                .preload("hacc", path.to_str().unwrap())
                .spawn()
                .unwrap()
        };
        let daemon = spawn(listen, 64 << 20);
        let pins = (PIN_ALLOCATIONS, PIN_BYTES);
        pin_requests(daemon.local_addr(), &[&[0]], pins, None);

        let router = Router::builder()
            .listen(router_listen)
            .attach(daemon.local_addr().clone())
            .preload("hacc", path.to_str().unwrap())
            .spawn()
            .unwrap();
        let pins = (PIN_ROUTED_ALLOCATIONS, PIN_ROUTED_BYTES);
        pin_requests(router.local_addr(), &[&[0]], pins, None);

        // A cache smaller than the field never keeps it: every `GET` misses.
        let cold = spawn(cold_listen, PAYLOAD - 1);
        let (get_pins, batch_pins, ranged_pins) = match cold.state().codec().backend_kind() {
            BackendKind::Cpu => (
                (PIN_COLD_ALLOCATIONS_CPU, PIN_COLD_BYTES_CPU),
                (PIN_BATCH_ALLOCATIONS_CPU, PIN_BATCH_BYTES_CPU),
                (PIN_RANGED_ALLOCATIONS_CPU, PIN_RANGED_BYTES_CPU),
            ),
            BackendKind::Sim => (
                (PIN_COLD_ALLOCATIONS_SIM, PIN_COLD_BYTES_SIM),
                (PIN_BATCH_ALLOCATIONS_SIM, PIN_BATCH_BYTES_SIM),
                (PIN_RANGED_ALLOCATIONS_SIM, PIN_RANGED_BYTES_SIM),
            ),
        };
        let state = cold.state();
        pin_requests(cold.local_addr(), &[&[0], &[1]], get_pins, Some(&state));
        let quads: [&[u32]; 2] = [&[0, 1, 2, 3], &[4, 5, 6, 7]];
        pin_requests(cold.local_addr(), &quads, batch_pins, Some(&state));
        pin_ranged_codes(cold.local_addr(), &state, ranged_pins);
        cold.shutdown();
        cold.join().unwrap();
        router.shutdown();
        router.join().unwrap();
        daemon.shutdown();
        daemon.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
