//! The serving layer end to end, in one process: spawn an `hfzd` daemon on an
//! ephemeral port, load two archives, and watch the decoded-field LRU absorb the hot
//! set — first `GET` pays a decode, the second is a cache hit, a ranged
//! code request decodes only the overlapping blocks, and an over-budget insertion
//! evicts the least recently used field.
//!
//! ```console
//! $ cargo run --release --example serve_cache
//! ```

use huffdec::container::ArchiveWriter;
use huffdec::datasets::{dataset_by_name, generate};
use huffdec::gpu_sim::GpuConfig;
use huffdec::serve::client::Connection;
use huffdec::serve::net::ListenAddr;
use huffdec::serve::protocol::GetKind;
use huffdec::serve::Daemon;
use huffdec::{Codec, DecoderKind};

fn write_archive(dir: &std::path::Path, name: &str, dataset: &str, decoder: DecoderKind) -> String {
    let field = generate(&dataset_by_name(dataset).unwrap(), 50_000, 7);
    let codec = Codec::builder()
        .decoder(decoder)
        .gpu_config(GpuConfig::test_tiny())
        .host_threads(2)
        .build()
        .expect("paper configuration is valid");
    let compressed = codec.compress_archive(&field).expect("field is non-empty");
    let path = dir.join(format!("{}.hfz", name));
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = ArchiveWriter::new(std::io::BufWriter::new(file));
    writer.write_compressed(&compressed).unwrap();
    writer.into_inner().unwrap();
    path.to_str().unwrap().to_string()
}

fn main() {
    let dir = std::env::temp_dir().join("hfzd-example");
    std::fs::create_dir_all(&dir).unwrap();
    let hacc = write_archive(&dir, "hacc", "HACC", DecoderKind::OptimizedGapArray);
    let gamess = write_archive(&dir, "gamess", "GAMESS", DecoderKind::OptimizedSelfSync);

    // One decoded field is 200 KB of f32s; a 250 KB budget holds one field, not two.
    let daemon = Daemon::builder()
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
        .cache_bytes(250_000)
        .gpu(GpuConfig::test_tiny())
        .host_threads(2)
        .spawn()
        .unwrap();
    let addr = daemon.local_addr().clone();
    let state = daemon.state();
    println!("daemon listening on {}", addr);

    let mut client = Connection::connect(&addr).unwrap();
    client.load("hacc", &hacc).unwrap();
    client.load("gamess", &gamess).unwrap();

    let fetch = |client: &mut Connection, archive: &str, range| {
        let r = client.get(archive, 0, GetKind::Data, range).unwrap();
        println!(
            "GET {}{}: {} elements{}{}",
            archive,
            match range {
                Some((s, l)) => format!(" [{}..{}]", s, s + l),
                None => String::new(),
            },
            r.elements,
            if r.from_cache {
                " (cache hit)"
            } else {
                " (decoded)"
            },
            if r.partial { " (partial)" } else { "" },
        );
    };

    fetch(&mut client, "hacc", None); // cold: decodes
    fetch(&mut client, "hacc", None); // hot: cache hit
    fetch(&mut client, "hacc", Some((10_000, 100))); // hot range: slice of the hit

    // A ranged code request on a cold field decodes only the overlapping blocks.
    let r = client
        .get("gamess", 0, GetKind::Codes, Some((25_000, 512)))
        .unwrap();
    println!(
        "GET gamess codes [25000..25512]: {} elements (partial: {})",
        r.elements, r.partial
    );

    // A full fetch of the second field overflows the budget: the first is evicted.
    fetch(&mut client, "gamess", None);
    fetch(&mut client, "hacc", None); // decodes again: it was evicted

    let cache = state.metrics_snapshot();
    println!(
        "cache: {} hits, {} misses, {} evictions, {} bytes used of {}",
        cache.cache_hits,
        cache.cache_misses,
        cache.cache_evictions,
        state.cache_used_bytes(),
        250_000
    );
    assert!(cache.cache_hits >= 2 && cache.cache_evictions >= 1);

    client.shutdown().unwrap();
    daemon.join().unwrap();
    println!("daemon shut down cleanly");
}
