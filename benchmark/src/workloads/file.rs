//! The file-to-file workloads: what `hfz decompress` and `hfz compress` do, with one
//! caller and no serving layer. These are the paper's own measurement — overall
//! decompression across compression-ratio regimes — and its write-side mirror, so that
//! a decode gain bought at encode cost (or ratio) shows.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use huffdec::datasets::Field;
use huffdec::{Codec, DecoderKind};

use super::{
    check_roundtrip, dense_codec, f32_le_bytes, sparse_codec, Budget, Ctx, Measured, OpClass,
    OpSample, Tally, Workload,
};
use crate::inputs;
use crate::trace::{Recorder, Tracer};

/// The two decoders the paper optimizes; each big field is stored once per decoder.
const DECODERS: [DecoderKind; 2] = [
    DecoderKind::OptimizedGapArray,
    DecoderKind::OptimizedSelfSync,
];

/// One class per (dataset, decoder), in file order.
const DECOMPRESS_CLASSES: [&str; 6] = [
    "file_decompress.HACC.gap_array",
    "file_decompress.HACC.self_sync",
    "file_decompress.CESM.gap_array",
    "file_decompress.CESM.self_sync",
    "file_decompress.GAMESS.gap_array",
    "file_decompress.GAMESS.self_sync",
];

const COMPRESS_CLASSES: [&str; 4] = [
    "file_compress.HACC",
    "file_compress.CESM",
    "file_compress.GAMESS",
    "file_compress.walk95.v2",
];

fn classes(names: &[&'static str]) -> Vec<OpClass> {
    names
        .iter()
        .map(|&name| OpClass {
            name,
            primary: true,
        })
        .collect()
}

/// Sweeps `files` operations round-robin until the budget is spent. The first sweep
/// always completes, so every class has a sample.
fn sweep(budget: Budget, files: usize, mut op: impl FnMut(usize, u64)) {
    let start = Instant::now();
    let mut op_id = 0u64;
    for sweep in 0u64.. {
        for file in 0..files {
            if let (Budget::Seconds(s), true) = (budget, sweep > 0) {
                if start.elapsed() >= Duration::from_secs_f64(s) {
                    return;
                }
            }
            op_id += 1;
            op(file, op_id);
        }
        if matches!(budget, Budget::Work(n) if sweep + 1 >= n) {
            return;
        }
    }
}

struct ArchiveFile {
    field: usize,
    archive: PathBuf,
    output: PathBuf,
}

/// Archive file → `open_archive_bytes` → `decompress_field` → `.f32` file.
pub struct FileDecompress {
    codec: Codec,
    fields: Vec<Field>,
    files: Vec<ArchiveFile>,
    /// Per field, the little-endian bytes the warm-up pass produced. Every timed
    /// output must equal them; `verify` checks them against the reference.
    baseline: Vec<Vec<u8>>,
    original_bytes: u64,
    archive_bytes: u64,
}

impl FileDecompress {
    fn decompress(
        &self,
        rec: &mut Recorder<'_>,
        file: usize,
        op_id: u64,
    ) -> (Result<Vec<u8>, String>, f64) {
        let f = &self.files[file];
        rec.op(DECOMPRESS_CLASSES[file], op_id, |rec, id| {
            let bytes = rec
                .child("fs.read", id, op_id, || std::fs::read(&f.archive))
                .map_err(|e| e.to_string())?;
            let handle = rec
                .child("container.open_archive_bytes", id, op_id, || {
                    self.codec.open_archive_bytes(&bytes)
                })
                .map_err(|e| e.to_string())?;
            let decoded = rec
                .child("codec.decompress_field", id, op_id, || {
                    handle
                        .field(0)
                        .and_then(|field| self.codec.decompress_field(field))
                })
                .map_err(|e| e.to_string())?;
            let out = rec.child("bench.f32_to_le", id, op_id, || f32_le_bytes(&decoded.data));
            rec.child("fs.write", id, op_id, || std::fs::write(&f.output, &out))
                .map_err(|e| e.to_string())?;
            Ok(out)
        })
    }
}

impl Workload for FileDecompress {
    fn setup(ctx: &Ctx) -> Self {
        let fields = inputs::big_fields(ctx.seed);
        let mut files = Vec::new();
        let (mut original_bytes, mut archive_bytes) = (0u64, 0u64);
        for (i, field) in fields.iter().enumerate() {
            for decoder in DECODERS {
                let codec = dense_codec(decoder);
                let compressed = codec.compress_archive(field).expect("non-empty field");
                let bytes = codec.archive_to_bytes(&compressed).expect("serializes");
                let stem = DECOMPRESS_CLASSES[files.len()];
                let archive = ctx.dir.join(format!("{}.hfz", stem));
                std::fs::write(&archive, &bytes).expect("archive file writes");
                original_bytes += field.bytes();
                archive_bytes += bytes.len() as u64;
                files.push(ArchiveFile {
                    field: i,
                    archive,
                    output: ctx.dir.join(format!("{}.f32", stem)),
                });
            }
        }
        let mut this = FileDecompress {
            codec: dense_codec(DecoderKind::OptimizedGapArray),
            baseline: vec![Vec::new(); fields.len()],
            fields,
            files,
            original_bytes,
            archive_bytes,
        };
        // Warm-up: one untimed decompression of every file (six, past the five after
        // which a scratch run saw the first-call cost gone). Its outputs are the
        // baseline every timed output is compared with.
        let tracer = Tracer::new(false);
        let mut rec = tracer.recorder();
        for file in 0..this.files.len() {
            let out = this
                .decompress(&mut rec, file, 0)
                .0
                .expect("warm-up decompress");
            let field = this.files[file].field;
            if this.baseline[field].is_empty() {
                this.baseline[field] = out;
            } else {
                assert!(
                    this.baseline[field] == out,
                    "gap-array and self-sync archives of one field must decode alike"
                );
            }
        }
        this
    }

    fn measure(&mut self, _ctx: &Ctx, budget: Budget, tracer: &Tracer) -> Measured {
        let mut rec = tracer.recorder();
        let mut samples = Vec::new();
        let mut tally = Tally::default();
        sweep(budget, self.files.len(), |file, op_id| {
            let (out, seconds) = self.decompress(&mut rec, file, op_id);
            let expected = &self.baseline[self.files[file].field];
            let ok = matches!(&out, Ok(bytes) if bytes == expected);
            if tally.check(ok, || {
                format!(
                    "{}: {}",
                    DECOMPRESS_CLASSES[file],
                    out.as_ref()
                        .err()
                        .map_or("output differs from the baseline", String::as_str)
                )
            }) {
                samples.push(OpSample {
                    class: file,
                    seconds,
                    bytes: expected.len() as u64,
                });
            }
        });
        Measured {
            classes: classes(&DECOMPRESS_CLASSES),
            wall_s: samples.iter().map(|s| s.seconds).sum(),
            samples,
            tally,
        }
    }

    fn verify(&mut self, tally: &mut Tally) {
        for (file, f) in self.files.iter().enumerate() {
            let bytes = std::fs::read(&f.archive).expect("archive file reads back");
            let handle = self
                .codec
                .open_archive_bytes(&bytes)
                .expect("archive opens");
            let compressed = handle
                .field(0)
                .ok()
                .and_then(|field| field.compressed())
                .expect("a field archive");
            check_roundtrip(
                tally,
                &self.codec,
                &self.fields[f.field],
                compressed,
                &self.baseline[f.field],
                DECOMPRESS_CLASSES[file],
            );
            let written = std::fs::read(&f.output).unwrap_or_default();
            tally.check(written == self.baseline[f.field], || {
                format!("{}: the .f32 file differs", DECOMPRESS_CLASSES[file])
            });
        }
    }

    fn compression_ratio(&self) -> f64 {
        self.original_bytes as f64 / self.archive_bytes as f64
    }

    fn teardown(self) {}
}

struct CompressJob {
    field: usize,
    sparse: bool,
    output: PathBuf,
}

/// `Field` → `Codec::compress` → `archive_to_bytes` → file.
pub struct FileCompress {
    dense: Codec,
    sparse: Codec,
    fields: Vec<Field>,
    jobs: Vec<CompressJob>,
    /// Per job, the archive bytes of the warm-up pass; every timed archive must be
    /// identical to them.
    baseline: Vec<Vec<u8>>,
}

impl FileCompress {
    fn codec(&self, job: &CompressJob) -> &Codec {
        if job.sparse {
            &self.sparse
        } else {
            &self.dense
        }
    }

    fn compress(
        &self,
        rec: &mut Recorder<'_>,
        job: usize,
        op_id: u64,
    ) -> (Result<Vec<u8>, String>, f64) {
        let j = &self.jobs[job];
        let codec = self.codec(j);
        rec.op(COMPRESS_CLASSES[job], op_id, |rec, id| {
            let outcome = rec
                .child("codec.compress", id, op_id, || {
                    codec.compress(&self.fields[j.field])
                })
                .map_err(|e| e.to_string())?;
            let bytes = rec
                .child("codec.archive_to_bytes", id, op_id, || {
                    codec.archive_to_bytes(&outcome.archive)
                })
                .map_err(|e| e.to_string())?;
            rec.child("fs.write", id, op_id, || std::fs::write(&j.output, &bytes))
                .map_err(|e| e.to_string())?;
            Ok(bytes)
        })
    }
}

impl Workload for FileCompress {
    fn setup(ctx: &Ctx) -> Self {
        let mut fields = inputs::big_fields(ctx.seed);
        fields.push(inputs::big_walk_field(ctx.seed));
        let jobs = (0..fields.len())
            .map(|i| CompressJob {
                field: i,
                sparse: i == fields.len() - 1,
                output: ctx.dir.join(format!("{}.hfz", COMPRESS_CLASSES[i])),
            })
            .collect();
        let mut this = FileCompress {
            dense: dense_codec(DecoderKind::OptimizedGapArray),
            sparse: sparse_codec(),
            fields,
            jobs,
            baseline: Vec::new(),
        };
        // Warm-up: one untimed compression of every field. A compression runs about
        // twenty kernel launches over 4 M elements, so four of them warm what five
        // iterations of a smaller operation would.
        let tracer = Tracer::new(false);
        let mut rec = tracer.recorder();
        this.baseline = (0..this.jobs.len())
            .map(|job| this.compress(&mut rec, job, 0).0.expect("warm-up compress"))
            .collect();
        this
    }

    fn measure(&mut self, _ctx: &Ctx, budget: Budget, tracer: &Tracer) -> Measured {
        let mut rec = tracer.recorder();
        let mut samples = Vec::new();
        let mut tally = Tally::default();
        sweep(budget, self.jobs.len(), |job, op_id| {
            let (out, seconds) = self.compress(&mut rec, job, op_id);
            let ok = matches!(&out, Ok(bytes) if *bytes == self.baseline[job]);
            if tally.check(ok, || {
                format!(
                    "{}: {}",
                    COMPRESS_CLASSES[job],
                    out.as_ref()
                        .err()
                        .map_or("archive bytes differ between iterations", String::as_str)
                )
            }) {
                samples.push(OpSample {
                    class: job,
                    seconds,
                    bytes: self.fields[self.jobs[job].field].bytes(),
                });
            }
        });
        Measured {
            classes: classes(&COMPRESS_CLASSES),
            wall_s: samples.iter().map(|s| s.seconds).sum(),
            samples,
            tally,
        }
    }

    fn verify(&mut self, tally: &mut Tally) {
        for (job, j) in self.jobs.iter().enumerate() {
            let codec = self.codec(j);
            let handle = codec
                .open_archive_bytes(&self.baseline[job])
                .expect("archive opens");
            let field = handle.field(0).expect("one field");
            let compressed = field.compressed().expect("a field archive");
            tally.check(compressed.decoder().is_hybrid() == j.sparse, || {
                format!(
                    "{}: stored as {}, expected {} stream",
                    COMPRESS_CLASSES[job],
                    compressed.decoder().name(),
                    if j.sparse { "a hybrid" } else { "a dense" }
                )
            });
            let decoded = codec
                .decompress_field(field)
                .map(|d| f32_le_bytes(&d.data))
                .unwrap_or_default();
            check_roundtrip(
                tally,
                codec,
                &self.fields[j.field],
                compressed,
                &decoded,
                COMPRESS_CLASSES[job],
            );
            let written = std::fs::read(&j.output).unwrap_or_default();
            tally.check(written == self.baseline[job], || {
                format!("{}: the archive file differs", COMPRESS_CLASSES[job])
            });
        }
    }

    fn compression_ratio(&self) -> f64 {
        let original: u64 = self.jobs.iter().map(|j| self.fields[j.field].bytes()).sum();
        let archived: usize = self.baseline.iter().map(Vec::len).sum();
        original as f64 / archived as f64
    }

    fn teardown(self) {}
}
