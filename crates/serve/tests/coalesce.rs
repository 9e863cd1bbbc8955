//! Scheduler behaviour under contention: single-flight coalescing (N clients, one
//! cold field, exactly one decode), cross-request batch waves (distinct cold fields
//! merging into one multi-field wave), and `BUSY` shedding at a tiny queue bound.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use datasets::{dataset_by_name, generate};
use gpu_sim::{Gpu, GpuConfig};
use huffdec_container::ArchiveWriter;
use huffdec_core::DecoderKind;
use huffdec_serve::client::Connection;
use huffdec_serve::net::ListenAddr;
use huffdec_serve::protocol::{GetKind, Request, Response};
use huffdec_serve::{Daemon, ServerHandle};
use sz::{compress, decompress, Compressed, SzConfig};

const ELEMENTS: usize = 20_000;

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// One single-field archive on disk plus its reference decode.
fn single_field_archive(dir: &std::path::Path, seed: u64) -> (std::path::PathBuf, Vec<f32>) {
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let field = generate(&dataset_by_name("HACC").unwrap(), ELEMENTS, seed);
    let compressed = compress(
        &field,
        &SzConfig::paper_default(DecoderKind::OptimizedGapArray),
    );
    let reference = decompress(&gpu, &compressed).unwrap().data;
    let path = dir.join(format!("field-{}.hfz", seed));
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = ArchiveWriter::new(std::io::BufWriter::new(file));
    writer.write_compressed(&compressed).unwrap();
    writer.into_inner().unwrap();
    (path, reference)
}

fn spawn_daemon(queue_bound: usize, wave_tick: Duration) -> ServerHandle {
    Daemon::builder()
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
        .cache_bytes(16 << 20)
        .gpu(GpuConfig::test_tiny())
        .host_threads(2)
        .queue_bound(queue_bound)
        .wave_tick(wave_tick)
        .spawn()
        .unwrap()
}

/// The acceptance scenario: eight concurrent clients hammer one cold field over the
/// wire. Exactly one decode runs; every other request either joined the in-flight
/// decode (coalesced) or arrived after it landed in the cache (hit); all eight
/// replies are byte-identical to the direct decompress.
#[test]
fn concurrent_cold_misses_coalesce_into_one_decode() {
    let dir = std::env::temp_dir().join("hfzd-coalesce-single");
    std::fs::create_dir_all(&dir).unwrap();
    let (path, reference) = single_field_archive(&dir, 41);

    // A generous tick keeps the decode wave open long enough that most clients find
    // the flight still pending — but the decode-count assertion below holds for any
    // timing: late arrivals hit the cache instead of decoding again.
    let daemon = spawn_daemon(256, Duration::from_millis(150));
    let addr = daemon.local_addr().clone();
    let state = daemon.state();
    state.load_archive("f", path.to_str().unwrap()).unwrap();

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Connection::connect(&addr).unwrap();
                barrier.wait();
                client.get("f", 0, GetKind::Data, None).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let expected = f32_bytes(&reference);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.bytes, expected,
            "client {} diverged from direct decode",
            i
        );
        assert_eq!(r.elements as usize, reference.len());
    }

    // Exactly one decode ran for the eight misses.
    let stats = state.metrics_snapshot();
    let decodes: u64 = stats.decode_seconds.iter().map(|h| h.count()).sum();
    assert_eq!(decodes, 1, "coalescing must leave exactly one decode");
    // Every other request is accounted for: it either joined the flight or hit the
    // cache after the flight's result was inserted.
    let cache = state.cache_stats();
    assert_eq!(
        stats.sched_coalesced + cache.hits,
        (CLIENTS - 1) as u64,
        "coalesced {} + hits {} must cover the other {} requests",
        stats.sched_coalesced,
        cache.hits,
        CLIENTS - 1
    );
    assert!(stats.sched_waves >= 1);
    assert_eq!(stats.sched_shed, 0, "nothing sheds under a roomy bound");

    Connection::connect(&addr).unwrap().shutdown().unwrap();
    daemon.join().unwrap();
}

/// Distinct cold fields requested within one scheduling tick merge into a single
/// multi-field decode wave.
#[test]
fn distinct_cold_fields_merge_into_one_wave() {
    let dir = std::env::temp_dir().join("hfzd-coalesce-wave");
    std::fs::create_dir_all(&dir).unwrap();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);

    // A three-field snapshot so one archive carries the distinct fields.
    let specs = [
        ("a", DecoderKind::OptimizedGapArray, 61u64),
        ("b", DecoderKind::OptimizedSelfSync, 62),
        ("c", DecoderKind::OptimizedGapArray, 63),
    ];
    let fields: Vec<(&str, Compressed, Vec<f32>)> = specs
        .iter()
        .map(|&(name, decoder, seed)| {
            let field = generate(&dataset_by_name("HACC").unwrap(), ELEMENTS, seed);
            let compressed = compress(&field, &SzConfig::paper_default(decoder));
            let data = decompress(&gpu, &compressed).unwrap().data;
            (name, compressed, data)
        })
        .collect();
    let refs: Vec<(&str, &Compressed)> = fields.iter().map(|(n, c, _)| (*n, c)).collect();
    let path = dir.join("snap.hfz");
    std::fs::write(&path, huffdec_container::snapshot_to_bytes(&refs).unwrap()).unwrap();

    // A long tick guarantees the wave is still open when the other threads' misses
    // arrive: the worker sleeps 400 ms after the first submit before draining.
    let daemon = spawn_daemon(256, Duration::from_millis(400));
    let state = daemon.state();
    state.load_archive("snap", path.to_str().unwrap()).unwrap();

    let barrier = Arc::new(Barrier::new(fields.len()));
    let workers: Vec<_> = (0..fields.len())
        .map(|i| {
            let state = Arc::clone(&state);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                state.handle(&Request::Get {
                    archive: "snap".to_string(),
                    field: i as u32,
                    kind: GetKind::Data,
                    range: None,
                })
            })
        })
        .collect();
    let results: Vec<Response> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    for (response, (_, _, reference)) in results.iter().zip(&fields) {
        match response {
            Response::Get { bytes, .. } => assert_eq!(bytes, &f32_bytes(reference)),
            other => panic!("expected a GET reply, got {:?}", other),
        }
    }

    let stats = state.metrics_snapshot();
    assert!(
        stats.sched_multi_field_waves >= 1,
        "three simultaneous cold misses within a 400 ms tick must batch: waves {}, fields {}",
        stats.sched_waves,
        stats.sched_wave_fields
    );
    assert_eq!(stats.sched_wave_fields, fields.len() as u64);

    daemon.shutdown();
    daemon.join().unwrap();
}

/// At `queue_bound: 1` a second distinct miss inside the wave window answers the
/// typed `BUSY` instead of queueing — and the first request still completes.
#[test]
fn saturated_queue_sheds_with_busy() {
    let dir = std::env::temp_dir().join("hfzd-coalesce-busy");
    std::fs::create_dir_all(&dir).unwrap();
    let (path_a, reference_a) = single_field_archive(&dir, 71);
    let (path_b, _) = single_field_archive(&dir, 72);

    // The 600 ms tick holds the submitted task in the pending queue; the bound of 1
    // makes the second, distinct miss overflow deterministically.
    let daemon = spawn_daemon(1, Duration::from_millis(600));
    let state = daemon.state();
    state.load_archive("a", path_a.to_str().unwrap()).unwrap();
    state.load_archive("b", path_b.to_str().unwrap()).unwrap();

    let first = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            state.handle(&Request::Get {
                archive: "a".to_string(),
                field: 0,
                kind: GetKind::Data,
                range: None,
            })
        })
    };
    // Give the first miss time to enter the queue, then overflow it with a second
    // distinct field. Same-field requests would coalesce; only new work sheds.
    std::thread::sleep(Duration::from_millis(100));
    let second = state.handle(&Request::Get {
        archive: "b".to_string(),
        field: 0,
        kind: GetKind::Data,
        range: None,
    });
    assert!(
        matches!(second, Response::Busy),
        "a full pending queue must answer BUSY, got {:?}",
        second
    );

    match first.join().unwrap() {
        Response::Get { bytes, .. } => assert_eq!(bytes, f32_bytes(&reference_a)),
        other => panic!("the admitted request must still decode, got {:?}", other),
    }
    let stats = state.metrics_snapshot();
    assert!(stats.sched_shed >= 1, "shedding must be counted");

    daemon.shutdown();
    daemon.join().unwrap();
}
