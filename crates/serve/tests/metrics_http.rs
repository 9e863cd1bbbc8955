//! HTTP sidecar tests: `/metrics` must be valid Prometheus text exposition covering
//! every instrument, and `/healthz` must walk healthy → degraded → unhealthy.

use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datasets::{dataset_by_name, generate};
use gpu_sim::GpuConfig;
use huffdec_codec::Codec;
use huffdec_container::ArchiveWriter;
use huffdec_core::DecoderKind;
use huffdec_metrics::{parse_prometheus, sample_value, Sample};
use huffdec_serve::net::{connect, ListenAddr};
use huffdec_serve::protocol::{GetKind, Request, Response};
use huffdec_serve::server::{Health, ServerState};
use huffdec_serve::{BackendKind, Daemon, SCRAPE_TIMEOUT};

/// Issues one `GET` against the sidecar and splits the response into
/// `(status, head, body)`.
fn http_get(addr: &ListenAddr, path: &str) -> (u16, String, String) {
    let mut conn = connect(addr).expect("sidecar accepts");
    conn.write_all(format!("GET {} HTTP/1.1\r\nHost: test\r\n\r\n", path).as_bytes())
        .unwrap();
    conn.flush().unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).expect("responses are UTF-8");
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), body.to_string())
}

fn write_archive(path: &std::path::Path, codec: &Codec, seed: u64) {
    let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, seed);
    let compressed = codec.compress_archive(&field).unwrap();
    let file = std::fs::File::create(path).unwrap();
    let mut writer = ArchiveWriter::new(std::io::BufWriter::new(file));
    writer.write_compressed(&compressed).unwrap();
    writer.into_inner().unwrap();
}

/// Spawns a daemon with its sidecar and one archive loaded. Requests are driven
/// in-process through `ServerState::handle` — exactly what a connection thread calls —
/// so the counts below are not blurred by protocol traffic. Returns the state and the
/// sidecar address; the daemon is left running (detached) for the test's lifetime.
fn sidecar_fixture(dir_name: &str) -> (Arc<ServerState>, ListenAddr) {
    let dir = std::env::temp_dir().join(dir_name);
    std::fs::create_dir_all(&dir).unwrap();
    let codec = Codec::builder()
        .gpu_config(GpuConfig::test_tiny())
        .host_threads(2)
        .decoder(DecoderKind::OptimizedGapArray)
        .build()
        .unwrap();
    let path = dir.join("field.hfz");
    write_archive(&path, &codec, 7);

    let ephemeral = ListenAddr::parse("tcp:127.0.0.1:0").unwrap();
    let daemon = Daemon::builder()
        .listen(ephemeral.clone())
        .metrics(ephemeral)
        .cache_bytes(1 << 20)
        .gpu(GpuConfig::test_tiny())
        .host_threads(2)
        .preload("field", path.to_str().unwrap())
        .spawn()
        .unwrap();
    let addr = daemon.metrics_addr().expect("sidecar bound").clone();
    (daemon.state(), addr)
}

/// Every histogram's `_bucket` series must be cumulative (monotone over `le`), end in
/// a `+Inf` bucket, and agree with its `_count`.
fn assert_histogram_coherent(samples: &[Sample], name: &str, labels: &[(&str, &str)]) {
    let buckets: Vec<&Sample> = samples
        .iter()
        .filter(|s| {
            s.name == format!("{}_bucket", name)
                && labels.iter().all(|(k, v)| s.label(k) == Some(*v))
        })
        .collect();
    assert!(!buckets.is_empty(), "no buckets for {} {:?}", name, labels);
    let mut prev = 0.0f64;
    let mut prev_le = f64::NEG_INFINITY;
    for bucket in &buckets {
        let le = bucket.label("le").expect("bucket carries le");
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>().expect("numeric le")
        };
        assert!(le > prev_le, "{}: le must strictly increase", name);
        assert!(
            bucket.value >= prev,
            "{}: buckets must be cumulative ({} < {})",
            name,
            bucket.value,
            prev
        );
        prev_le = le;
        prev = bucket.value;
    }
    let last = buckets.last().unwrap();
    assert_eq!(
        last.label("le"),
        Some("+Inf"),
        "{}: last bucket is +Inf",
        name
    );
    let count = sample_value(samples, &format!("{}_count", name), labels)
        .unwrap_or_else(|| panic!("{}_count missing for {:?}", name, labels));
    assert_eq!(last.value, count, "{}: +Inf bucket must equal _count", name);
    assert!(
        sample_value(samples, &format!("{}_sum", name), labels).is_some(),
        "{}_sum missing",
        name
    );
}

#[test]
fn metrics_endpoint_serves_valid_exposition() {
    let (state, addr) = sidecar_fixture("hfzd-metrics-http");

    // Drive real traffic: a full GET (miss), the same GET again (hit), a ranged codes
    // GET (partial decode + index build), and one failing GET (decode path untouched).
    for _ in 0..2 {
        let r = state.handle(&Request::Get {
            archive: "field".into(),
            field: 0,
            kind: GetKind::Data,
            range: None,
        });
        assert!(matches!(r, Response::Get { .. }), "GET must succeed");
    }
    let r = state.handle(&Request::Get {
        archive: "field".into(),
        field: 0,
        kind: GetKind::Codes,
        range: Some((4_000, 256)),
    });
    assert!(matches!(r, Response::Get { partial: true, .. }));
    assert!(matches!(
        state.handle(&Request::Get {
            archive: "nope".into(),
            field: 0,
            kind: GetKind::Data,
            range: None,
        }),
        Response::Error(_)
    ));

    let (status, head, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type: {}",
        head
    );

    // The document parses as exposition text, and each family has HELP + TYPE.
    let samples = parse_prometheus(&body).expect("exposition must parse");
    for family in [
        "hfz_requests_total",
        "hfz_gets_total",
        "hfz_batch_gets_total",
        "hfz_batch_fields_total",
        "hfz_batch_decoded_fields_total",
        "hfz_batch_serial_seconds_total",
        "hfz_batch_batched_seconds_total",
        "hfz_sched_coalesced_total",
        "hfz_sched_waves_total",
        "hfz_sched_wave_fields_total",
        "hfz_sched_multi_field_waves_total",
        "hfz_sched_shed_total",
        "hfz_sched_queue_depth",
        "hfz_cache_hits_total",
        "hfz_cache_misses_total",
        "hfz_cache_evictions_total",
        "hfz_cache_insertions_total",
        "hfz_cache_uncacheable_total",
        "hfz_cache_used_bytes",
        "hfz_cache_budget_bytes",
        "hfz_cache_entries",
        "hfz_archives_loaded",
        "hfz_decode_seconds",
        "hfz_index_build_seconds",
        "hfz_partial_decode_seconds",
        "hfz_partial_blocks_decoded_total",
        "hfz_partial_blocks_spanned_total",
        "hfz_decode_errors_total",
        "hfz_decode_bytes_in_total",
        "hfz_decode_bytes_out_total",
        "hfz_decode_occupancy_permille",
        "hfz_batch_occupancy_permille",
        "hfz_backend",
        "hfz_encode_seconds",
        "hfz_encode_phase_seconds_total",
        "hfz_encode_bytes_in_total",
        "hfz_encode_bytes_out_total",
    ] {
        assert!(
            body.contains(&format!("# HELP {} ", family)),
            "HELP missing for {}",
            family
        );
        assert!(
            body.contains(&format!("# TYPE {} ", family)),
            "TYPE missing for {}",
            family
        );
    }

    // The traffic above is visible: 4 requests, 4 gets, one hit and one miss, one full
    // decode and one partial decode of the gap-array decoder, an index build, bytes.
    let v = |name: &str| sample_value(&samples, name, &[]).unwrap_or_else(|| panic!("{}", name));
    // The identity series names whichever backend the daemon was built on, and the
    // full decode above published its perf-model occupancy.
    assert_eq!(
        sample_value(
            &samples,
            "hfz_backend",
            &[("name", BackendKind::from_env().name())]
        ),
        Some(1.0)
    );
    assert!(v("hfz_decode_occupancy_permille") > 0.0);
    assert_eq!(v("hfz_requests_total"), 4.0);
    assert_eq!(v("hfz_gets_total"), 4.0);
    assert_eq!(v("hfz_cache_hits_total"), 1.0);
    // Two misses: the cold full fetch, and the ranged codes fetch's lookup (ranges of
    // a cached full representation would hit).
    assert_eq!(v("hfz_cache_misses_total"), 2.0);
    assert_eq!(v("hfz_archives_loaded"), 1.0);
    assert!(v("hfz_decode_bytes_out_total") > 0.0);
    let gap = [("decoder", "opt. gap-array")];
    assert_eq!(
        sample_value(&samples, "hfz_decode_seconds_count", &gap),
        Some(1.0)
    );
    assert_eq!(
        sample_value(&samples, "hfz_partial_decode_seconds_count", &gap),
        Some(1.0)
    );
    assert_eq!(
        sample_value(&samples, "hfz_index_build_seconds_count", &gap),
        Some(1.0)
    );

    // Histogram series are internally coherent, for every decoder label.
    for kind in DecoderKind::all() {
        let labels = [("decoder", kind.name())];
        assert_histogram_coherent(&samples, "hfz_decode_seconds", &labels);
        assert_histogram_coherent(&samples, "hfz_index_build_seconds", &labels);
        assert_histogram_coherent(&samples, "hfz_partial_decode_seconds", &labels);
    }
    assert_histogram_coherent(&samples, "hfz_encode_seconds", &[]);

    // Unknown paths and non-GET methods are typed refusals, not hangs.
    assert_eq!(http_get(&addr, "/nope").0, 404);
    {
        let mut conn = connect(&addr).unwrap();
        conn.write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw).unwrap();
        assert!(String::from_utf8(raw).unwrap().starts_with("HTTP/1.1 405"));
    }
}

#[test]
fn healthz_walks_healthy_degraded_unhealthy() {
    let (state, addr) = sidecar_fixture("hfzd-healthz-http");

    // Fresh daemon: healthy.
    let (status, _, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "healthy\n");

    // A decode error in the window degrades (but stays 200: still serving).
    state.metrics().update(|m| m.decode_errors += 1);
    let (status, _, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("degraded: 1 decode errors"),
        "body: {}",
        body
    );

    // A quiet window clears the degradation.
    let (status, _, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "healthy\n");

    // Cache thrash — evictions while misses outnumber hits — degrades too.
    state.metrics().update(|m| {
        m.cache_evictions += 3;
        m.cache_misses += 5;
        m.cache_hits += 1;
    });
    let (status, _, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.starts_with("degraded: cache thrash"), "body: {}", body);

    // Shutdown: a scrape already connected when the flag flips is answered with the
    // unhealthy page, whether the sidecar had accepted it yet or not.
    let mut conn = connect(&addr).unwrap();
    state.request_shutdown();
    assert!(matches!(state.health(), Health::Unhealthy(_)));
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "response: {}", raw);
    assert!(
        raw.ends_with("\r\n\r\nunhealthy: shutting down\n"),
        "{}",
        raw
    );
}

#[test]
fn stalled_peer_is_dropped_after_the_scrape_timeout() {
    let (_state, addr) = sidecar_fixture("hfzd-stalled-peer-http");

    // A peer that sends half a request line, then goes quiet. Its own read timeout
    // keeps this test from hanging should the sidecar never close the connection.
    let margin = Duration::from_secs(5);
    let mut idle = connect(&addr).expect("sidecar accepts");
    idle.set_timeouts(Some(SCRAPE_TIMEOUT + margin), None)
        .unwrap();
    idle.write_all(b"GET /metr").unwrap();
    idle.flush().unwrap();
    let opened = Instant::now();

    // A normal scrape still answers while the idle peer holds its connection.
    let (status, _, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE hfz_requests_total counter"));

    // The sidecar closes the stalled connection without a response.
    let mut rest = Vec::new();
    match idle.read_to_end(&mut rest) {
        Ok(_) => assert!(
            rest.is_empty(),
            "a half request gets no response: {:?}",
            rest
        ),
        Err(e) => assert_eq!(
            e.kind(),
            ErrorKind::ConnectionReset,
            "the sidecar must close a stalled peer, not leave it open: {}",
            e
        ),
    }
    let waited = opened.elapsed();
    assert!(
        waited < SCRAPE_TIMEOUT + margin,
        "closed only after {:?}",
        waited
    );
}
