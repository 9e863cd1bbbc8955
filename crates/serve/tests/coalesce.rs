//! Scheduler behaviour through a real daemon: single-flight coalescing (N clients,
//! one cold field, exactly one decode), a multi-field batch decoding as one wave, and
//! `BUSY` shedding when one `GETBATCH` asks for more cold fields than the daemon's
//! queue bound of 256 admits. None of it depends on timing; the cross-request cases
//! (two requests merging into one wave, a second request shed behind a pending one)
//! are `sched::tests` unit tests, where the order of submits and drains is fixed.

use std::sync::{Arc, Barrier};

use datasets::{dataset_by_name, generate};
use gpu_sim::{Gpu, GpuConfig};
use huffdec_container::ArchiveWriter;
use huffdec_core::DecoderKind;
use huffdec_serve::client::{ClientError, Connection};
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

/// A snapshot archive with one field per `(name, decoder, seed)`, plus each field's
/// reference decode.
fn snapshot_archive(path: &std::path::Path, specs: &[(&str, DecoderKind, u64)]) -> Vec<Vec<f32>> {
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
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
    std::fs::write(path, huffdec_container::snapshot_to_bytes(&refs).unwrap()).unwrap();
    fields.into_iter().map(|(_, _, data)| data).collect()
}

fn spawn_daemon() -> ServerHandle {
    Daemon::builder()
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
        .cache_bytes(16 << 20)
        .gpu(GpuConfig::test_tiny())
        .host_threads(2)
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

    let daemon = spawn_daemon();
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

    // Exactly one decode ran for the eight misses, whatever the timing.
    let stats = state.metrics_snapshot();
    let decodes: u64 = stats.decode_seconds.iter().map(|h| h.count()).sum();
    assert_eq!(decodes, 1, "coalescing must leave exactly one decode");
    // Every other request is accounted for: it either joined the flight or hit the
    // cache after the flight's result was inserted.
    let cache = state.metrics_snapshot();
    assert_eq!(
        stats.sched_coalesced + cache.cache_hits,
        (CLIENTS - 1) as u64,
        "coalesced {} + hits {} must cover the other {} requests",
        stats.sched_coalesced,
        cache.cache_hits,
        CLIENTS - 1
    );
    assert!(stats.sched_waves >= 1);
    assert_eq!(stats.sched_shed, 0, "nothing sheds under a roomy bound");

    Connection::connect(&addr).unwrap().shutdown().unwrap();
    daemon.join().unwrap();
}

/// Distinct cold fields asked for in one `GETBATCH` are one admission group, so the
/// worker decodes them as exactly one multi-field wave.
#[test]
fn distinct_cold_fields_merge_into_one_wave() {
    let dir = std::env::temp_dir().join("hfzd-coalesce-wave");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.hfz");
    let references = snapshot_archive(
        &path,
        &[
            ("a", DecoderKind::OptimizedGapArray, 61),
            ("b", DecoderKind::OptimizedSelfSync, 62),
            ("c", DecoderKind::OptimizedGapArray, 63),
        ],
    );

    let daemon = spawn_daemon();
    let state = daemon.state();
    state.load_archive("snap", path.to_str().unwrap()).unwrap();

    let response = state.handle(&Request::GetBatch {
        archive: "snap".to_string(),
        kind: GetKind::Data,
        fields: vec![0, 1, 2],
    });
    let Response::GetBatch { items, .. } = response else {
        panic!("expected a GETBATCH reply, got {:?}", response);
    };
    assert_eq!(items.len(), references.len());
    for (item, reference) in items.iter().zip(&references) {
        assert!(!item.from_cache);
        assert_eq!(item.bytes, f32_bytes(reference));
    }

    let stats = state.metrics_snapshot();
    assert_eq!(stats.sched_waves, 1, "one group, one wave");
    assert_eq!(stats.sched_multi_field_waves, 1);
    assert_eq!(stats.sched_wave_fields, references.len() as u64);

    daemon.shutdown();
    daemon.join().unwrap();
}

/// A `GETBATCH` of 257 distinct cold fields, one more than the daemon's queue bound of
/// 256, cannot be admitted: the daemon answers the typed `BUSY` instead of queueing
/// it, and a single `GET` still decodes.
#[test]
fn saturated_queue_sheds_with_busy() {
    const FIELDS: u32 = 257;
    let dir = std::env::temp_dir().join("hfzd-coalesce-busy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("many.hfz");
    // One small field stored under 257 names: 257 distinct cold fields.
    let field = generate(&dataset_by_name("HACC").unwrap(), 256, 71);
    let compressed = compress(
        &field,
        &SzConfig::paper_default(DecoderKind::OptimizedGapArray),
    );
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let reference = decompress(&gpu, &compressed).unwrap().data;
    let names: Vec<String> = (0..FIELDS).map(|i| format!("f{}", i)).collect();
    let named: Vec<(&str, &Compressed)> = names.iter().map(|n| (n.as_str(), &compressed)).collect();
    std::fs::write(&path, huffdec_container::snapshot_to_bytes(&named).unwrap()).unwrap();

    let daemon = spawn_daemon();
    let state = daemon.state();
    state.load_archive("many", path.to_str().unwrap()).unwrap();

    let mut client = Connection::connect(daemon.local_addr()).unwrap();
    let fields: Vec<u32> = (0..FIELDS).collect();
    let batch = client.get_batch("many", GetKind::Data, &fields);
    assert!(
        matches!(batch, Err(ClientError::Busy)),
        "257 new decodes past a bound of 256 must answer BUSY, got {:?}",
        batch.map(|items| items.len())
    );
    assert_eq!(state.metrics_snapshot().sched_shed, 1);

    let reply = client.get("many", 0, GetKind::Data, None);
    let reply = reply.expect("a single GET must still decode");
    assert_eq!(reply.bytes, f32_bytes(&reference));
    let stats = state.metrics_snapshot();
    assert_eq!((stats.sched_shed, stats.sched_waves), (1, 1));

    daemon.shutdown();
    daemon.join().unwrap();
}
