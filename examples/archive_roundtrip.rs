//! Archive round-trip: compress a synthetic field, persist it as an `HFZ1` archive
//! file, read the file back, decompress it, and verify the error
//! bound — the full on-disk life cycle of one compressed field.
//!
//! Run with `cargo run --release --example archive_roundtrip`.

use std::fs::File;
use std::io::BufWriter;

use huffdec::container::ArchiveWriter;
use huffdec::datasets::{dataset_by_name, generate};
use huffdec::sz::verify_error_bound;
use huffdec::{Codec, DecoderKind, ErrorBound};

fn main() {
    // 1. A synthetic stand-in for one Nyx cosmology field.
    let spec = dataset_by_name("Nyx").expect("Nyx is a registered dataset");
    let field = generate(&spec, 500_000, 7);
    println!(
        "field: {} ({} elements, {:.1} MiB)",
        field.name,
        field.len(),
        field.bytes() as f64 / 1048576.0
    );

    // 2. Compress at the paper's relative error bound, targeting the optimized
    //    gap-array decoder, through one codec session.
    let error_bound = ErrorBound::Relative(1e-3);
    let codec = Codec::builder()
        .decoder(DecoderKind::OptimizedGapArray)
        .error_bound(error_bound)
        .build()
        .expect("paper configuration is valid");
    let compressed = codec.compress(&field).expect("field is non-empty").archive;

    // 3. Write the archive to disk.
    let path = std::env::temp_dir().join("huffdec_archive_roundtrip.hfz");
    let file = File::create(&path).expect("create archive file");
    let mut writer = ArchiveWriter::new(BufWriter::new(file));
    let written = writer
        .write_compressed(&compressed)
        .expect("serialize archive");
    writer.into_inner().expect("flush archive");
    println!(
        "archive: {} ({} bytes, {:.2}x overall)",
        path.display(),
        written,
        field.bytes() as f64 / written as f64
    );

    // 4. Open an archive session: the file is parsed and validated exactly once, and
    //    its parsed layout is the same structure `hfz inspect` prints.
    let handle = codec
        .open_archive(path.to_str().expect("utf-8 temp path"))
        .expect("open archive");
    println!("{}", handle.fields()[0].info());

    // 5. Decompress the re-read field through the session.
    let decompressed = codec
        .decompress_field(handle.field(0).expect("one field"))
        .expect("archive payload matches its decoder");

    // 6. The reconstruction from disk must honour the error bound against the original.
    let bound = error_bound.to_absolute(field.range_span() as f64);
    assert!(
        verify_error_bound(&field.data, &decompressed.data, bound).is_none(),
        "error bound violated after the on-disk round-trip"
    );
    println!(
        "round-trip ok: {} elements within |error| <= {:.3e}; decompression {:.3} ms {}",
        decompressed.data.len(),
        bound,
        decompressed.stats.total_seconds * 1e3,
        if codec.backend().is_modeled() {
            "modeled"
        } else {
            "measured"
        }
    );

    let _ = std::fs::remove_file(&path);
}
