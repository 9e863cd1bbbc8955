//! End-to-end fleet test: the acceptance scenario of the router.
//!
//! Three in-process `hfzd` shards behind an in-process router. The client speaks to the
//! router exactly as it would to a single daemon and must not be able to tell the
//! difference: every `GET` and `GETBATCH` byte-identical to a direct decode, fleet
//! `STATS` totals equal to the sum of the per-shard rows, and — the point of the
//! subsystem — killing a shard mid-run re-homes its fields onto the survivors with
//! at most one transparent retry for the in-flight request.

use datasets::{dataset_by_name, generate, Field};
use gpu_sim::{Gpu, GpuConfig};
use huffdec_container::ArchiveWriter;
use huffdec_core::DecoderKind;
use huffdec_serve::client::Connection;
use huffdec_serve::net::{ListenAddr, Listener};
use huffdec_serve::protocol::{
    read_frame, write_frame, GetKind, Request, Response, MAX_REQUEST_BYTES, MAX_RESPONSE_BYTES,
};
use huffdec_serve::router::{Placement, Router, RouterHandle};
use huffdec_serve::{Daemon, ServerHandle};
use sz::{compress, decompress, Compressed, SzConfig};

mod support;

const ELEMENTS: usize = 8_000;
const FIELDS: usize = 6;

/// A six-field snapshot archive plus the reference decode of every field.
struct TestSnapshot {
    path: std::path::PathBuf,
    field_names: Vec<String>,
    reference: Vec<Vec<f32>>,
}

fn build_snapshot(dir: &std::path::Path, gpu: &Gpu) -> TestSnapshot {
    let datasets = ["HACC", "GAMESS", "CESM"];
    let mut compressed: Vec<(String, Compressed)> = Vec::new();
    let mut reference = Vec::new();
    for i in 0..FIELDS {
        let field: Field = generate(
            &dataset_by_name(datasets[i % datasets.len()]).unwrap(),
            ELEMENTS,
            (i + 1) as u64,
        );
        let c = compress(
            &field,
            &SzConfig::paper_default(DecoderKind::OptimizedGapArray),
        );
        reference.push(decompress(gpu, &c).unwrap().data);
        compressed.push((format!("field_{}", i), c));
    }
    let path = dir.join("snapshot.hfz");
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = ArchiveWriter::new(std::io::BufWriter::new(file));
    let fields: Vec<(&str, &Compressed)> =
        compressed.iter().map(|(n, c)| (n.as_str(), c)).collect();
    writer.write_snapshot(&fields).unwrap();
    writer.into_inner().unwrap();
    TestSnapshot {
        path,
        field_names: compressed.into_iter().map(|(n, _)| n).collect(),
        reference,
    }
}

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// One in-process shard on an ephemeral port.
fn start_shard() -> ServerHandle {
    Daemon::builder()
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
        .cache_bytes(8 << 20)
        .gpu(GpuConfig::test_tiny())
        .host_threads(2)
        .spawn()
        .unwrap()
}

/// An in-process router on an ephemeral port, attached to `shards` in order.
fn start_router(shards: &[ServerHandle]) -> RouterHandle {
    shards
        .iter()
        .fold(Router::builder(), |builder, shard| {
            builder.attach(shard.local_addr().clone())
        })
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
        .spawn()
        .unwrap()
}

/// Pulls `"key":<u64>` out of a JSON document fragment starting at `from`.
fn json_u64(doc: &str, from: usize, key: &str) -> u64 {
    let pat = format!("\"{}\":", key);
    let at = doc[from..].find(&pat).expect(key) + from + pat.len();
    doc[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// A bounded random walk with `zero_pct`% flat steps: quantizes to a controllably
/// center-bin-heavy code stream under an absolute bound of 0.5 (step 1.0).
fn walk_field(n: usize, zero_pct: u64, seed: u64) -> Field {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut value = 0.0f32;
    let data: Vec<f32> = (0..n)
        .map(|_| {
            if rng() % 100 >= zero_pct {
                value += (rng() % 401) as f32 - 200.0;
            }
            value
        })
        .collect();
    Field::new("walk".to_string(), datasets::Dims::D1(n), data)
}

#[test]
fn fleet_serves_hybrid_v2_snapshot_fields() {
    let dir = std::env::temp_dir().join("hfzr-fleet-hybrid");
    std::fs::create_dir_all(&dir).unwrap();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);

    // A mixed v2 snapshot: sparse hybrid fields interleaved with dense ones, enough
    // of them that rendezvous placement spreads the archive across both shards.
    let config = |decoder| SzConfig {
        error_bound: sz::ErrorBound::Absolute(0.5),
        alphabet_size: 1024,
        decoder,
    };
    let mut compressed: Vec<(String, Compressed)> = Vec::new();
    let mut reference: Vec<Vec<f32>> = Vec::new();
    for i in 0..FIELDS {
        let (field, decoder) = if i % 2 == 0 {
            (
                walk_field(ELEMENTS, 95, 60 + i as u64),
                DecoderKind::RleHybrid,
            )
        } else {
            (
                walk_field(ELEMENTS, 10, 60 + i as u64),
                DecoderKind::OptimizedGapArray,
            )
        };
        let c = compress(&field, &config(decoder));
        reference.push(decompress(&gpu, &c).unwrap().data);
        compressed.push((format!("field_{}", i), c));
    }
    let refs: Vec<(&str, &Compressed)> = compressed.iter().map(|(n, c)| (n.as_str(), c)).collect();
    let path = dir.join("hybrid-snap.hfz");
    std::fs::write(&path, huffdec_container::snapshot_to_bytes(&refs).unwrap()).unwrap();

    let shards: Vec<_> = (0..2).map(|_| start_shard()).collect();
    let router = start_router(&shards);
    let router_addr = router.local_addr().clone();

    let mut client = Connection::connect(&router_addr).unwrap();
    assert_eq!(
        client.load("hy", path.to_str().unwrap()).unwrap() as usize,
        FIELDS
    );

    // Every field — hybrid and dense alike — is byte-identical through the router.
    for (i, reference) in reference.iter().enumerate() {
        let r = client.get("hy", i as u32, GetKind::Data, None).unwrap();
        assert_eq!(r.bytes, f32_bytes(reference), "field {} via router", i);
    }

    // A shuffled GETBATCH fans the mixed decoders out across the owning shards and
    // merges in request order.
    let batch_fields: Vec<u32> = vec![4, 1, 0, 5, 2, 0, 3];
    let items = client
        .get_batch("hy", GetKind::Data, &batch_fields)
        .unwrap();
    assert_eq!(items.len(), batch_fields.len());
    for (item, &f) in items.iter().zip(&batch_fields) {
        assert_eq!(
            item.bytes,
            f32_bytes(&reference[f as usize]),
            "batch item for field {} via router",
            f
        );
    }

    // The merged LIST carries the v2 format version and the hybrid decoder tag.
    let list = client.list().unwrap();
    assert!(list.contains("\"format_version\":2"), "{}", list);
    assert!(list.contains("\"decoder\":\"rle+huff hybrid\""), "{}", list);

    client.shutdown().unwrap();
    router.join().unwrap();
    for shard in shards {
        shard.shutdown();
        shard.join().unwrap();
    }
}

#[test]
fn three_shard_fleet_serves_and_survives_a_kill() {
    let dir = std::env::temp_dir().join("hfzr-fleet-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let snapshot = build_snapshot(&dir, &gpu);

    // Three shards, then the router in front of them.
    let shards: Vec<_> = (0..3).map(|_| start_shard()).collect();
    let router = start_router(&shards);
    let router_addr = router.local_addr().clone();

    // One LOAD through the router places the archive across the fleet.
    let mut client = Connection::connect(&router_addr).unwrap();
    let fields = client
        .load("snap", snapshot.path.to_str().unwrap())
        .unwrap();
    assert_eq!(fields as usize, FIELDS);

    // Rendezvous hashing must actually shard: with 6 fields on 3 shards, more than
    // one shard owns something (all-on-one has probability 3·(1/3)^6 ≈ 0.4%, and the
    // placement is deterministic, so this cannot flake).
    let owners: Vec<usize> = (0..3)
        .filter(|&s| {
            let mut c = Connection::connect(shards[s].local_addr()).unwrap();
            c.list().unwrap().contains("\"snap\"")
        })
        .collect();
    assert!(
        owners.len() > 1,
        "placement sent every field to one shard: {:?}",
        owners
    );

    // A reference single daemon holding the same archive: the fleet must be
    // byte-identical to it on every request shape.
    let single_daemon = start_shard();
    let mut single = Connection::connect(single_daemon.local_addr()).unwrap();
    single
        .load("snap", snapshot.path.to_str().unwrap())
        .unwrap();

    // GET every field through the router: byte-identical to the single daemon and
    // to the direct decode.
    for (i, reference) in snapshot.reference.iter().enumerate() {
        let via_router = client.get("snap", i as u32, GetKind::Data, None).unwrap();
        let via_single = single.get("snap", i as u32, GetKind::Data, None).unwrap();
        assert_eq!(via_router.bytes, f32_bytes(reference), "field {}", i);
        assert_eq!(via_router.bytes, via_single.bytes, "field {}", i);
        assert_eq!(via_router.elements, via_single.elements);
    }
    // Ranged GET proxies too.
    let ranged = client
        .get("snap", 2, GetKind::Data, Some((100, 64)))
        .unwrap();
    assert_eq!(ranged.bytes, f32_bytes(&snapshot.reference[2][100..164]));

    // GETBATCH fans out across the owning shards and merges in request order —
    // including a deliberately shuffled, repeating field list.
    let batch_fields: Vec<u32> = vec![5, 0, 3, 1, 5, 4, 2];
    let via_router = client
        .get_batch("snap", GetKind::Data, &batch_fields)
        .unwrap();
    let via_single = single
        .get_batch("snap", GetKind::Data, &batch_fields)
        .unwrap();
    assert_eq!(via_router.len(), batch_fields.len());
    for ((item, single_item), &f) in via_router.iter().zip(&via_single).zip(&batch_fields) {
        assert_eq!(
            item.bytes,
            f32_bytes(&snapshot.reference[f as usize]),
            "batch item for field {}",
            f
        );
        assert_eq!(item.bytes, single_item.bytes);
        assert_eq!(item.elements, single_item.elements);
    }

    // LIST through the router names the archive and all six fields once.
    let list = client.list().unwrap();
    assert!(list.contains("\"snap\""));
    for name in &snapshot.field_names {
        assert_eq!(
            list.matches(&format!("\"{}\"", name)).count(),
            1,
            "field {} must appear exactly once in the merged list: {}",
            name,
            list
        );
    }

    // Fleet STATS: the fleet block equals the sum of the per-shard rows.
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"role\":\"router\""));
    assert_eq!(json_u64(&stats, 0, "shards_total"), 3);
    assert_eq!(json_u64(&stats, 0, "shards_up"), 3);
    let fleet_at = stats.find("\"fleet\"").unwrap();
    let shards_at = stats.find("\"shards\":[").unwrap();
    for key in [
        "requests",
        "gets",
        "batch_gets",
        "cache_hits",
        "cache_misses",
    ] {
        let fleet_total = json_u64(&stats, fleet_at, key);
        let mut per_shard_sum = 0;
        let mut at = shards_at;
        for _ in 0..3 {
            at = stats[at..].find(&format!("\"{}\":", key)).unwrap() + at;
            per_shard_sum += json_u64(&stats, at, key);
            at += key.len();
        }
        assert_eq!(
            fleet_total, per_shard_sum,
            "fleet {} must equal the sum of the shard rows: {}",
            key, stats
        );
    }
    // And it agrees with the shards' own STATS documents.
    let mut direct_gets = 0;
    for shard in &shards {
        let mut c = Connection::connect(shard.local_addr()).unwrap();
        direct_gets += json_u64(&c.stats().unwrap(), 0, "gets");
    }
    assert_eq!(json_u64(&stats, fleet_at, "gets"), direct_gets);

    // Fleet METRICS: per-shard series stay addressable under the shard label and the
    // router's own families are present.
    let prom = client.metrics_prom().unwrap();
    assert!(prom.contains("hfzr_shard_up{shard=\"0\"} 1"));
    assert!(prom.contains("shard=\"1\""));
    assert!(prom.contains("hfzr_requests_total"));
    assert_eq!(
        prom.matches("# TYPE hfz_requests_total").count(),
        1,
        "one TYPE line per merged family"
    );

    // A second, single-field archive lives on exactly one shard — killing that shard
    // forces a real re-`LOAD` onto a survivor that never held it (the snapshot's
    // survivors already hold the whole file, so its failover needs no reroute).
    let solo_field: Field = generate(&dataset_by_name("QMCPACK").unwrap(), ELEMENTS, 99);
    let solo_c = compress(
        &solo_field,
        &SzConfig::paper_default(DecoderKind::OptimizedSelfSync),
    );
    let solo_reference = decompress(&gpu, &solo_c).unwrap().data;
    let solo_path = dir.join("solo.hfz");
    let file = std::fs::File::create(&solo_path).unwrap();
    let mut writer = ArchiveWriter::new(std::io::BufWriter::new(file));
    writer.write_compressed(&solo_c).unwrap();
    writer.into_inner().unwrap();
    assert_eq!(client.load("solo", solo_path.to_str().unwrap()).unwrap(), 1);
    let solo = client.get("solo", 0, GetKind::Data, None).unwrap();
    assert_eq!(solo.bytes, f32_bytes(&solo_reference));
    let solo_owners: Vec<usize> = (0..3)
        .filter(|&s| {
            let mut c = Connection::connect(shards[s].local_addr()).unwrap();
            c.list().unwrap().contains("\"solo\"")
        })
        .collect();
    assert_eq!(
        solo_owners.len(),
        1,
        "one field places on exactly one shard"
    );
    // The router's LIST is the single daemon's LIST, byte for byte, once both hold
    // the same archives.
    single.load("solo", solo_path.to_str().unwrap()).unwrap();
    assert_eq!(client.list().unwrap(), single.list().unwrap());

    // ---- Kill the shard owning `solo` mid-run. ----
    //
    // In-process, shutdown is the kill switch: the shard stops accepting and hangs
    // up on every connection — including the router's pooled link — which is exactly
    // what the router observes when a remote daemon dies. Joining it first means the
    // death is complete before the next request goes out.
    let dead = solo_owners[0];
    let mut shards: Vec<Option<ServerHandle>> = shards.into_iter().map(Some).collect();
    let killed = shards[dead].take().expect("the victim is running");
    killed.shutdown();
    killed.join().unwrap();

    // The in-flight request against the dead shard: marked down, `solo` re-loaded
    // onto a survivor from the router's registry, retried once — the client just
    // sees the answer.
    let solo = client.get("solo", 0, GetKind::Data, None).unwrap();
    assert_eq!(
        solo.bytes,
        f32_bytes(&solo_reference),
        "solo after the kill"
    );

    // Every field — including the dead shard's — still serves through the router,
    // byte-identical, with at most one transparent retry. The first request that
    // touches the dead shard triggers mark-down + re-LOAD onto the survivors.
    for (i, reference) in snapshot.reference.iter().enumerate() {
        let r = client.get("snap", i as u32, GetKind::Data, None).unwrap();
        assert_eq!(r.bytes, f32_bytes(reference), "field {} after the kill", i);
    }
    let via_router = client
        .get_batch("snap", GetKind::Data, &batch_fields)
        .unwrap();
    for (item, &f) in via_router.iter().zip(&batch_fields) {
        assert_eq!(
            item.bytes,
            f32_bytes(&snapshot.reference[f as usize]),
            "batch item for field {} after the kill",
            f
        );
    }

    // The fleet knows: one shard down, down events and reroutes counted, and the
    // router marked the death exactly once.
    let stats = client.stats().unwrap();
    assert_eq!(json_u64(&stats, 0, "shards_up"), 2);
    let router_at = stats.find("\"router\"").unwrap();
    assert_eq!(json_u64(&stats, router_at, "down_events"), 1);
    assert!(json_u64(&stats, router_at, "reroutes") >= 1);
    // Exactly one client-visible retry: the solo GET that found its owner dead.
    // Every later request re-routed *before* being sent.
    assert_eq!(json_u64(&stats, router_at, "retries"), 1);
    let prom = client.metrics_prom().unwrap();
    assert!(prom.contains(&format!("hfzr_shard_up{{shard=\"{}\"}} 0", dead)));
    assert!(prom.contains("hfzr_shard_down_events_total 1"));

    // Health: the death was absorbed — one degraded window, then healthy again.
    let state = router.state();
    match state.health() {
        huffdec_serve::Health::Degraded(_) => {}
        other => panic!(
            "first health check after a kill must be degraded: {:?}",
            other
        ),
    }
    assert!(matches!(state.health(), huffdec_serve::Health::Healthy));
    // LIST is unchanged by the death: same archives, same fields, same document.
    assert_eq!(client.list().unwrap(), single.list().unwrap());

    // Shut the fleet down: the router first, then the surviving shards.
    client.shutdown().unwrap();
    router.join().unwrap();
    single.shutdown().unwrap();
    single_daemon.join().unwrap();
    for shard in shards.into_iter().flatten() {
        shard.shutdown();
        shard.join().unwrap();
    }
}

/// The router answers `LIST` from its own registry: no shard sees the request, so
/// no shard's `requests` counter moves.
#[test]
fn router_list_leaves_the_shards_alone() {
    let dir = std::env::temp_dir().join("hfzr-fleet-list");
    std::fs::create_dir_all(&dir).unwrap();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let snapshot = build_snapshot(&dir, &gpu);

    let shards: Vec<_> = (0..2).map(|_| start_shard()).collect();
    let router = start_router(&shards);
    let mut client = Connection::connect(router.local_addr()).unwrap();
    client
        .load("snap", snapshot.path.to_str().unwrap())
        .unwrap();

    let requests = || -> Vec<u64> {
        shards
            .iter()
            .map(|shard| shard.state().metrics_snapshot().requests)
            .collect()
    };
    let before = requests();
    let list = client.list().unwrap();
    assert!(list.contains("\"name\":\"snap\""), "{}", list);
    assert_eq!(requests(), before, "a router LIST reached a shard");

    client.shutdown().unwrap();
    router.join().unwrap();
    for shard in shards {
        shard.shutdown();
        shard.join().unwrap();
    }
}

/// The regression: a shard that answered `BUSY` and then died during the router's
/// back-off used to surface on the single-field path as `shard N: …` — not marked
/// down, not retried on the new owner — while the batch path failed the same death
/// over. Also the only test that drives the router's `BUSY` retry.
#[test]
fn a_shard_that_dies_during_its_busy_backoff_fails_over_on_the_single_field_path() {
    let dir = std::env::temp_dir().join("hfzr-fleet-busy-failover");
    std::fs::create_dir_all(&dir).unwrap();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let snapshot = build_snapshot(&dir, &gpu);

    // Shard 0 is a script on the router's one link to it: `LOAD` → `Loaded`, the
    // first `GET` → `BUSY`, then the socket and the listener close, so the retry
    // after the back-off and the link's redial both find nobody.
    let listener = Listener::bind(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let scripted_addr = listener.local_addr().unwrap();
    let scripted = std::thread::spawn(move || {
        let mut conn = listener.accept().unwrap();
        loop {
            let body = read_frame(&mut conn, MAX_REQUEST_BYTES).unwrap().unwrap();
            let reply = match Request::decode(&body).unwrap() {
                Request::Load { .. } => Response::Loaded {
                    fields: FIELDS as u32,
                },
                Request::Get { .. } => Response::Busy,
                other => panic!("the script does not cover {:?}", other),
            };
            write_frame(&mut conn, &reply.encode(), MAX_RESPONSE_BYTES).unwrap();
            if reply == Response::Busy {
                return;
            }
        }
    });
    let real = start_shard();
    let router = Router::builder()
        .attach(scripted_addr)
        .attach(real.local_addr().clone())
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
        .spawn()
        .unwrap();
    let mut client = Connection::connect(router.local_addr()).unwrap();
    client
        .load("snap", snapshot.path.to_str().unwrap())
        .unwrap();

    // Placement is deterministic: pick a field the scripted shard owns.
    let placement = Placement::new(2);
    let field = (0..FIELDS)
        .find(|&i| placement.owner("snap", &snapshot.field_names[i]) == Some(0))
        .expect("shard 0 owns one of the six fields");

    let started = std::time::Instant::now();
    let got = client
        .get("snap", field as u32, GetKind::Data, None)
        .unwrap();
    // `BUSY_BACKOFF`: the death is only discovered by the retry after it.
    assert!(started.elapsed() >= std::time::Duration::from_millis(15));
    assert_eq!(got.bytes, f32_bytes(&snapshot.reference[field]));
    scripted.join().unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(json_u64(&stats, 0, "shards_up"), 1);
    let router_at = stats.find("\"router\"").unwrap();
    assert_eq!(json_u64(&stats, router_at, "retries"), 1);
    assert_eq!(json_u64(&stats, router_at, "down_events"), 1);

    client.shutdown().unwrap();
    router.join().unwrap();
    real.shutdown();
    real.join().unwrap();
}

/// The regression: `hfzr` used to join connection threads parked in `read`, so one
/// idle client kept it from ever exiting.
#[test]
fn router_shuts_down_with_an_idle_client_connected() {
    let shard = start_shard();
    let router = start_router(std::slice::from_ref(&shard));
    support::shutdown_with_clients_connected(router, Vec::new());
    shard.shutdown();
    shard.join().unwrap();
}

/// The router runs on the daemon's connection core, so the same misbehaving peers are
/// contained the same way, and a stalled one cannot hold up its exit either.
#[test]
fn router_contains_misbehaving_peers_and_shuts_down_with_clients_connected() {
    let dir = std::env::temp_dir().join("hfzr-fleet-peers");
    std::fs::create_dir_all(&dir).unwrap();
    let gpu = Gpu::with_host_threads(GpuConfig::test_tiny(), 2);
    let snapshot = build_snapshot(&dir, &gpu);

    let shards: Vec<_> = (0..2).map(|_| start_shard()).collect();
    let router = start_router(&shards);
    Connection::connect(router.local_addr())
        .unwrap()
        .load("snap", snapshot.path.to_str().unwrap())
        .unwrap();

    let held = support::misbehaving_peers(router.local_addr(), "snap");
    support::shutdown_with_clients_connected(router, held);
    for shard in shards {
        shard.shutdown();
        shard.join().unwrap();
    }
}
