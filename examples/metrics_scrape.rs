//! Observability end to end, in one process: spawn an `hfzd` daemon with its HTTP
//! metrics sidecar, generate some traffic, then scrape `GET /metrics` and
//! `GET /healthz` exactly as a Prometheus scraper would and read the interesting
//! series back out of the exposition text.
//!
//! ```console
//! $ cargo run --release --example metrics_scrape
//! ```

use std::io::{Read, Write};

use huffdec::container::ArchiveWriter;
use huffdec::datasets::{dataset_by_name, generate};
use huffdec::gpu_sim::GpuConfig;
use huffdec::metrics::{decode_clock, parse_prometheus, sample_value};
use huffdec::serve::client::Connection;
use huffdec::serve::net::{connect, ListenAddr};
use huffdec::serve::protocol::GetKind;
use huffdec::serve::Daemon;
use huffdec::{Codec, DecoderKind};

/// One HTTP/1.1 GET against the sidecar; returns `(status_line, body)`.
fn http_get(addr: &ListenAddr, path: &str) -> (String, String) {
    let mut conn = connect(addr).expect("sidecar accepts");
    conn.write_all(format!("GET {} HTTP/1.1\r\nHost: example\r\n\r\n", path).as_bytes())
        .unwrap();
    conn.flush().unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    (head.lines().next().unwrap().to_string(), body.to_string())
}

fn main() {
    // An archive to serve.
    let dir = std::env::temp_dir().join("hfzd-metrics-example");
    std::fs::create_dir_all(&dir).unwrap();
    let field = generate(&dataset_by_name("HACC").unwrap(), 50_000, 7);
    let codec = Codec::builder()
        .decoder(DecoderKind::OptimizedGapArray)
        .gpu_config(GpuConfig::test_tiny())
        .host_threads(2)
        .build()
        .unwrap();
    let compressed = codec.compress_archive(&field).unwrap();
    let path = dir.join("hacc.hfz");
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = ArchiveWriter::new(std::io::BufWriter::new(file));
    writer.write_compressed(&compressed).unwrap();
    writer.into_inner().unwrap();

    // The daemon plus its HTTP sidecar (what `hfzd --metrics tcp:...` wires up).
    let ephemeral = ListenAddr::parse("tcp:127.0.0.1:0").unwrap();
    let daemon = Daemon::builder()
        .listen(ephemeral.clone())
        .metrics(ephemeral)
        .cache_bytes(1 << 20)
        .gpu(GpuConfig::test_tiny())
        .host_threads(2)
        .spawn()
        .unwrap();
    let addr = daemon.local_addr().clone();
    let metrics_addr = daemon.metrics_addr().expect("sidecar requested").clone();
    println!("daemon on {}, metrics on {}", addr, metrics_addr);

    // Traffic: a cold decode, a cache hit, and a ranged partial decode.
    let mut client = Connection::connect(&addr).unwrap();
    client.load("hacc", path.to_str().unwrap()).unwrap();
    client.get("hacc", 0, GetKind::Data, None).unwrap();
    client.get("hacc", 0, GetKind::Data, None).unwrap();
    client
        .get("hacc", 0, GetKind::Codes, Some((10_000, 512)))
        .unwrap();

    // Scrape /healthz, then /metrics, like Prometheus would.
    let (status, body) = http_get(&metrics_addr, "/healthz");
    println!("healthz: {} — {}", status, body.trim_end());

    let (status, exposition) = http_get(&metrics_addr, "/metrics");
    println!(
        "metrics: {} ({} bytes of exposition text)",
        status,
        exposition.len()
    );
    let samples = parse_prometheus(&exposition).expect("valid exposition");
    let gap = [("decoder", "opt. gap-array")];
    for (label, value) in [
        (
            "requests",
            sample_value(&samples, "hfz_requests_total", &[]),
        ),
        (
            "cache hits",
            sample_value(&samples, "hfz_cache_hits_total", &[]),
        ),
        (
            "cache misses",
            sample_value(&samples, "hfz_cache_misses_total", &[]),
        ),
        (
            "gap-array full decodes",
            sample_value(&samples, "hfz_decode_seconds_count", &gap),
        ),
        (
            "gap-array partial decodes",
            sample_value(&samples, "hfz_partial_decode_seconds_count", &gap),
        ),
        (
            "decoded bytes out",
            sample_value(&samples, "hfz_decode_bytes_out_total", &[]),
        ),
    ] {
        println!("  {:<26} {}", label, value.unwrap());
    }
    let decode_sum = sample_value(&samples, "hfz_decode_seconds_sum", &gap).unwrap();
    let decode_count = sample_value(&samples, "hfz_decode_seconds_count", &gap).unwrap();
    println!(
        "  {:<26} {:.3} ms",
        format!("mean {} decode", decode_clock(&samples, None)),
        decode_sum / decode_count * 1e3
    );
    assert!(decode_count >= 1.0);

    client.shutdown().unwrap();
    daemon.join().unwrap();
    println!("daemon and sidecar shut down cleanly");
}
