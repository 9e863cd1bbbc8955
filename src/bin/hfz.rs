//! `hfz` — the archive and serving CLI of the huffdec workspace.
//!
//! A thin shell over the facade: every subcommand that encodes or decodes builds one
//! [`huffdec::Codec`] session and drives the pipeline through it (on the CPU backend
//! unless `--backend sim` or `HFZ_BACKEND=sim` names the simulator; `inspect` reads
//! headers only and runs no backend), and every failure is a
//! [`huffdec::HfzError`] mapped to a stable exit code (2 usage, 3 I/O, 4 corrupt
//! archive, 5 decode, 6 protocol/remote, 7 verification failure).
//!
//! Each subcommand reads its arguments in one walk of the [`Flags`] cursor that
//! `hfzd` and `hfzr` parse with, so a missing value, a bad value and an argument the
//! subcommand has no place for are usage errors worded the same way in every binary.
//!
//! Local archive operations work on `HFZ1`/`HFZ2` files; remote operations talk to a
//! running `hfzd` daemon (`hfz serve` starts one in the foreground):
//!
//! ```text
//! hfz compress   --dataset HACC --elements 200000 --seed 42 --output hacc.hfz
//! hfz compress   --input field.f32 --dims 512,512 --output field.hfz --decoder gap --eb rel:1e-3
//! hfz compress   --input sparse.f32 --dims 1048576 --output sparse.hfz --hybrid --format v2
//! hfz compress   --snapshot --dataset HACC,GAMESS,CESM --elements 200000 --output snap.hfz
//! hfz decompress hacc.hfz --output hacc.f32
//! hfz decompress snap.hfz --field GAMESS --output gamess.f32
//! hfz decompress snap.hfz --all --output-dir out/
//! hfz inspect    hacc.hfz [--json]
//! hfz verify     hacc.hfz [--deep] [--dataset HACC --elements 200000 --seed 42]
//!
//! hfz serve      --listen tcp:127.0.0.1:4806 --cache-bytes 268435456 --load hacc=hacc.hfz
//! hfz get        --addr tcp:127.0.0.1:4806 --archive hacc [--field 0] [--codes]
//!                [--range START:LEN] --output hacc.f32
//! hfz list       --addr tcp:127.0.0.1:4806
//! hfz stats      --addr tcp:127.0.0.1:4806
//! hfz load       --addr tcp:127.0.0.1:4806 --name gamess --path gamess.hfz
//! hfz verify     --addr tcp:127.0.0.1:4806 --archive hacc
//! hfz shutdown   --addr tcp:127.0.0.1:4806
//! ```

use std::process::ExitCode;

use huffdec::datasets::{dataset_by_name, generate, DatasetSpec, Dims};
use huffdec::metrics::sum_samples;
use huffdec::serve::client::Connection;
use huffdec::serve::daemon::{run_foreground as run_daemon, DaemonBuilder};
use huffdec::serve::flags::Flags;
use huffdec::serve::net::ListenAddr;
use huffdec::serve::protocol::GetKind;
use huffdec::{
    f32_le_bytes, ArchiveSummary, Codec, CodecBuilder, DecoderKind, EncodeOutcome, ErrorBound,
    Field, FieldHandle, FormatVersion, HfzError,
};

/// `println!` that exits quietly instead of panicking when stdout has been closed
/// (e.g. the output is piped into `head`).
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("get") => cmd_get(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(HfzError::Usage(format!(
            "unknown subcommand '{}'\n\n{}",
            other, USAGE
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("hfz: {}", error);
            // The stable exit-code mapping documented on `HfzError`.
            ExitCode::from(error.exit_code())
        }
    }
}

const USAGE: &str = "\
hfz — HFZ1/HFZ2 archive and serving tool for error-bounded lossy compression

USAGE:
  hfz compress   (--input FILE --dims A[,B[,C[,D]]] | --dataset NAME --elements N [--seed S])
                 --output FILE [--decoder KIND] [--hybrid] [--format v1|v2]
                 [--eb MODE:VALUE] [--alphabet N]
  hfz compress   --snapshot --dataset NAME[,NAME...] --elements N [--seed S] --output FILE
                 (one sharded snapshot archive with a manifest; field i uses seed S+i)
  hfz decompress ARCHIVE [--field NAME|INDEX | --all --output-dir DIR] --output FILE
                 (a file of several fields needs --field or --all)
  hfz inspect    ARCHIVE [--json]
  hfz verify     ARCHIVE [--deep] [--digest HEX]
                 [--input FILE --dims ... | --dataset NAME --elements N [--seed S]]
                 (checks every field of the file; --digest, --input and --dataset
                 need a single-field file)
  hfz verify     --addr ADDR --archive NAME       (remote: daemon-side deep verify)

  hfz serve      [--listen ADDR] [--cache-bytes N] [--load NAME=PATH]...
                 [--metrics ADDR]                 (HTTP /metrics + /healthz sidecar)
                 [--addr-file PATH]               (write resolved address to PATH)
  hfz get        --addr ADDR --archive NAME [--field I] [--codes] [--range START:LEN]
                 --output FILE
  hfz batch      --addr ADDR --archive NAME --fields I[,I...] [--codes]
                 --output-prefix PATH            (writes PATH.<index> per field)
  hfz list       --addr ADDR
  hfz stats      --addr ADDR [--prom] [--watch SECS]
  hfz load       --addr ADDR --name NAME --path FILE
  hfz shutdown   --addr ADDR

OPTIONS:
  --decoder KIND   baseline | original-self-sync | self-sync | gap   (default: gap)
                   | hybrid (RLE+Huffman for sparse fields; implies --format v2)
  --hybrid         shorthand for --decoder hybrid
  --format VER     container format: v1 (classic) or v2 (codebook    (default: v1;
                   dictionary + tuning hints; a field whose codes     hybrid forces v2)
                   are at least half center-bin symbols switches
                   to the hybrid decoder automatically)
  --backend NAME   cpu (real threads, measured timings) | sim (the  (default: cpu, or
                   simulated V100, modeled timings)                   $HFZ_BACKEND)
  --eb MODE:VALUE  rel:1e-3 or abs:0.05                              (default: rel:1e-3)
  --alphabet N     quantization bins, power of two >= 4              (default: 1024)
  --elements N     synthetic element count, at least 1; an N above the
                   dataset's full size is capped to it
  --seed S         synthetic dataset seed                            (default: 42)
  --deep           also decode and check the decoded-stream CRC32 trailer
  --digest HEX     expected decoded-stream CRC32 (overrides the stored trailer)
  --prom           print daemon counters in Prometheus text exposition format
  --watch SECS     re-poll the daemon every SECS seconds, printing hit-ratio and
                   decode-latency trends (Ctrl-C to stop); against a router, adds
                   one per-shard row under each fleet-total line
  --router ADDR    alias for --addr (an hfzr fleet router speaks the same protocol)
  ADDR             tcp:HOST:PORT or unix:PATH

EXIT CODES:
  0 ok | 2 usage | 3 I/O | 4 corrupt archive | 5 decode | 6 protocol | 7 verify failed
";

fn parse_decoder(name: &str) -> Result<DecoderKind, HfzError> {
    match name {
        "baseline" | "cusz" => Ok(DecoderKind::CuszBaseline),
        "original-self-sync" | "ori-self-sync" => Ok(DecoderKind::OriginalSelfSync),
        "self-sync" | "optimized-self-sync" => Ok(DecoderKind::OptimizedSelfSync),
        "gap" | "gap-array" => Ok(DecoderKind::OptimizedGapArray),
        "hybrid" | "rle-hybrid" => Ok(DecoderKind::RleHybrid),
        other => Err(HfzError::Usage(format!("unknown decoder '{}'", other))),
    }
}

fn parse_error_bound(spec: &str) -> Result<ErrorBound, HfzError> {
    let (mode, value) = spec
        .split_once(':')
        .ok_or_else(|| HfzError::Usage(format!("error bound '{}' is not MODE:VALUE", spec)))?;
    let value: f64 = value
        .parse()
        .map_err(|_| HfzError::Usage(format!("bad error-bound value '{}'", value)))?;
    match mode {
        "rel" | "relative" => Ok(ErrorBound::Relative(value)),
        "abs" | "absolute" => Ok(ErrorBound::Absolute(value)),
        other => Err(HfzError::Usage(format!(
            "unknown error-bound mode '{}'",
            other
        ))),
    }
}

fn parse_dims(spec: &str) -> Result<Dims, HfzError> {
    let extents: Vec<usize> = spec
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| HfzError::Usage(format!("bad dimension '{}'", p)))
        })
        .collect::<Result<_, _>>()?;
    if extents.is_empty() || extents.len() > 4 {
        return Err(HfzError::Usage(
            "expected 1-4 comma-separated dimensions".to_string(),
        ));
    }
    if extents.contains(&0) {
        return Err(HfzError::Usage("dimensions must be non-zero".to_string()));
    }
    // The element count, and its byte count as f32, must not wrap: a wrapped product
    // could match a small file and hand the pipeline dims it cannot hold.
    let elements = extents.iter().try_fold(1usize, |n, &e| n.checked_mul(e));
    if elements.and_then(|n| n.checked_mul(4)).is_none() {
        return Err(HfzError::Usage(format!(
            "dimensions {} overflow the element count",
            spec
        )));
    }
    Ok(Dims::from_slice(&extents))
}

/// The usage error for a required flag that was not given.
fn required<T>(value: Option<T>, flag: &str) -> Result<T, HfzError> {
    value.ok_or_else(|| HfzError::Usage(format!("missing required flag {}", flag)))
}

/// The codec group (`--decoder/--hybrid/--format/--backend/--eb/--alphabet`): sets
/// `codec` from `flag` and returns whether `flag` belongs to the group. Value
/// validation (alphabet size, error-bound range) happens in the builder.
fn codec_flag(flag: &str, flags: &mut Flags, codec: &mut CodecBuilder) -> Result<bool, HfzError> {
    let builder = std::mem::take(codec);
    *codec = match flag {
        "--decoder" => builder.decoder(parse_decoder(flags.value()?)?),
        // A later `--decoder` overrides `--hybrid`, as any repeated flag does.
        "--hybrid" => builder.decoder(DecoderKind::RleHybrid),
        "--format" => {
            let spec = flags.value()?;
            builder.format(
                FormatVersion::parse(spec)
                    .ok_or_else(|| HfzError::Usage(format!("unknown format '{}' (v1|v2)", spec)))?,
            )
        }
        "--backend" => builder.backend(flags.value()?.parse()?),
        "--eb" => builder.error_bound(parse_error_bound(flags.value()?)?),
        "--alphabet" => builder.alphabet_size(flags.number()?),
        _ => {
            *codec = builder;
            return Ok(false);
        }
    };
    Ok(true)
}

/// The field group: `--input FILE --dims ...` or `--dataset NAME --elements N [--seed S]`.
#[derive(Default, PartialEq)]
struct FieldSource<'a> {
    input: Option<&'a str>,
    dims: Option<Dims>,
    dataset: Option<&'a str>,
    elements: Option<usize>,
    seed: Option<u64>,
}

impl<'a> FieldSource<'a> {
    /// Takes `flag` if it belongs to the group and returns whether it did.
    fn take(&mut self, flag: &str, flags: &mut Flags<'a>) -> Result<bool, HfzError> {
        match flag {
            "--input" => self.input = Some(flags.value()?),
            "--dims" => self.dims = Some(parse_dims(flags.value()?)?),
            "--dataset" => self.dataset = Some(flags.value()?),
            "--elements" => self.elements = Some(flags.number()?),
            "--seed" => self.seed = Some(flags.number()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether any flag of the group was given.
    fn given(&self) -> bool {
        *self != FieldSource::default()
    }

    /// `--elements` and `--seed` (default 42) of a `--dataset` source.
    fn generated(&self) -> Result<(usize, u64), HfzError> {
        if self.input.is_some() || self.dims.is_some() {
            return Err(HfzError::Usage(
                "--input/--dims and --dataset are mutually exclusive".to_string(),
            ));
        }
        // `Dims::scaled_to_elements` reads 0 as "the full dataset"; here it is a slip.
        let elements = required(self.elements, "--elements")?;
        if elements == 0 {
            return Err(HfzError::Usage("--elements must be at least 1".to_string()));
        }
        Ok((elements, self.seed.unwrap_or(42)))
    }

    /// Loads the field the group names.
    fn load(&self) -> Result<Field, HfzError> {
        let Some(path) = self.input else {
            let name = required(self.dataset, "--input FILE --dims ... or --dataset NAME")?;
            let (elements, seed) = self.generated()?;
            return Ok(generate(&dataset(name)?, elements, seed));
        };
        if self.dataset.is_some() || self.elements.is_some() || self.seed.is_some() {
            return Err(HfzError::Usage(
                "--input and --dataset/--elements/--seed are mutually exclusive".to_string(),
            ));
        }
        let dims = required(self.dims, "--dims")?;
        let bytes =
            std::fs::read(path).map_err(|e| HfzError::io(format!("cannot read {}", path), e))?;
        if bytes.len() != dims.len() * 4 {
            return Err(HfzError::Usage(format!(
                "{} holds {} bytes but dims {:?} need {}",
                path,
                bytes.len(),
                dims.as_vec(),
                dims.len() * 4
            )));
        }
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        if data.iter().any(|v| !v.is_finite()) {
            return Err(HfzError::Usage(format!(
                "{} contains non-finite values",
                path
            )));
        }
        Ok(Field::new(path.to_string(), dims, data))
    }
}

fn dataset(name: &str) -> Result<DatasetSpec, HfzError> {
    dataset_by_name(name).ok_or_else(|| HfzError::Usage(format!("unknown dataset '{}'", name)))
}

/// The address group: `--addr`, or its alias `--router` (an `hfzr` fleet router speaks
/// the same protocol as a single daemon, so every remote subcommand works against
/// either). Sets `addr` from `flag` and returns whether `flag` belongs to the group.
fn addr_flag(
    flag: &str,
    flags: &mut Flags,
    addr: &mut Option<ListenAddr>,
) -> Result<bool, HfzError> {
    if flag != "--addr" && flag != "--router" {
        return Ok(false);
    }
    *addr = Some(flags.addr()?);
    Ok(true)
}

fn connect(addr: Option<ListenAddr>) -> Result<Connection, HfzError> {
    let addr = required(addr, "--addr (or --router)")?;
    Connection::connect(&addr)
        .map_err(|e| HfzError::Protocol(format!("cannot connect to {}: {}", addr, e)))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), HfzError> {
    std::fs::write(path, bytes).map_err(|e| HfzError::io(format!("cannot create {}", path), e))
}

/// Names the clock a reported time was read from: wall time on the CPU backend, the
/// device model's time under `--backend sim`.
fn clock(codec: &Codec) -> String {
    if codec.backend().is_modeled() {
        format!("modeled on {}", codec.device_name())
    } else {
        "measured".to_string()
    }
}

fn encode_report(codec: &Codec, outcome: &EncodeOutcome) -> String {
    let phases = outcome
        .stats
        .encode
        .phases()
        .iter()
        .map(|(name, p)| format!("{} {:.3} ms", name, p.seconds * 1e3))
        .collect::<Vec<_>>()
        .join(" | ");
    format!(
        "encode: {:.3} ms {}, {:.1} GB/s on quant codes, {:.1} GB/s overall [{}]",
        outcome.stats.encode.total_seconds() * 1e3,
        clock(codec),
        outcome.encode_throughput_gbs(),
        outcome.overall_throughput_gbs(),
        phases
    )
}

fn cmd_compress(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let mut codec = Codec::builder();
    let mut source = FieldSource::default();
    let (mut output, mut snapshot) = (None, false);
    while let Some(flag) = flags.next_flag() {
        match flag {
            _ if codec_flag(flag, &mut flags, &mut codec)? || source.take(flag, &mut flags)? => {}
            "--output" => output = Some(flags.value()?),
            "--snapshot" => snapshot = true,
            _ => return Err(flags.unknown().into()),
        }
    }
    let codec = codec.build()?;
    let output = required(output, "--output")?;
    if snapshot {
        return cmd_compress_snapshot(&codec, &source, output);
    }
    let field = source.load()?;

    // Encode through the selected backend (the archive bytes are identical on every
    // backend) so the encoder throughput can be reported alongside the archive. An
    // empty field is a usage error from the session itself.
    let outcome = codec.compress(&field)?;

    // Serialize through the session so `--format v2` (and the hybrid auto-upgrade)
    // decides the container layout in one place.
    let bytes = codec.archive_to_bytes(&outcome.archive)?;
    let written = bytes.len() as u64;
    write_file(output, &bytes)?;

    out!(
        "{}: {} elements ({} bytes) -> {} ({} bytes, {:.2}x)",
        field.name,
        field.len(),
        field.bytes(),
        output,
        written,
        field.bytes() as f64 / written as f64
    );
    out!("{}", encode_report(&codec, &outcome));
    // Post-write report: the cheap structural summary of the bytes just written, not a
    // full decode-state open.
    let summary = ArchiveSummary::from_bytes(&bytes)?;
    out!("{}", summary.infos()[0]);
    Ok(())
}

/// `hfz compress --snapshot`: packs several dataset fields into one sharded snapshot
/// archive with a manifest. Field *i* is generated with `--seed + i`, so any field can
/// be reproduced standalone (`hfz compress --dataset NAME --seed S+i`) and compared
/// byte-for-byte against a manifest-seek extraction.
fn cmd_compress_snapshot(
    codec: &Codec,
    source: &FieldSource,
    output: &str,
) -> Result<(), HfzError> {
    let names: Vec<&str> = required(source.dataset, "--dataset")?.split(',').collect();
    if names.len() < 2 {
        return Err(HfzError::Usage(
            "--snapshot expects at least two comma-separated datasets".to_string(),
        ));
    }
    let (elements, seed) = source.generated()?;
    if seed.checked_add(names.len() as u64 - 1).is_none() {
        let n = names.len();
        return Err(
            format!("--seed {seed} leaves no room for {n} fields (field i uses S+i)").into(),
        );
    }

    let mut fields: Vec<(String, huffdec::Compressed)> = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let spec = dataset(name)?;
        let field = generate(&spec, elements, seed + i as u64);
        let outcome = codec.compress(&field)?;
        out!(
            "field {} '{}': {} elements, {}",
            i,
            spec.name,
            field.len(),
            encode_report(codec, &outcome)
        );
        fields.push((spec.name.to_string(), outcome.archive));
    }
    let refs: Vec<(&str, &huffdec::Compressed)> = fields
        .iter()
        .map(|(name, compressed)| (name.as_str(), compressed))
        .collect();

    let bytes = codec.snapshot_to_bytes(&refs)?;
    let written = bytes.len() as u64;
    write_file(output, &bytes)?;

    let original: u64 = fields.iter().map(|(_, c)| c.original_bytes()).sum();
    out!(
        "snapshot {}: {} fields, {} -> {} bytes ({:.2}x)",
        output,
        fields.len(),
        original,
        written,
        original as f64 / written as f64
    );
    let summary = ArchiveSummary::from_bytes(&bytes)?;
    out!(
        "{}",
        summary.manifest().expect("snapshot writes a manifest")
    );
    Ok(())
}

/// Decompresses one field of an opened archive to `output` and reports the timing.
fn decompress_to(
    codec: &Codec,
    field: &FieldHandle,
    label: &str,
    output: &str,
) -> Result<(), HfzError> {
    let Some(compressed) = field.compressed() else {
        return Err(HfzError::Usage(format!(
            "{} is payload-only; nothing to reconstruct",
            label
        )));
    };
    // A CRC-valid archive whose payload disagrees with its decoder tag surfaces here
    // as a typed decode error.
    let decoded = codec.decompress_field(field)?;
    write_file(output, &f32_le_bytes(&decoded.data))?;
    out!(
        "{} -> {}: {} elements, decompression {:.3} ms {}, {:.1} GB/s overall",
        label,
        output,
        decoded.data.len(),
        decoded.stats.total_seconds * 1e3,
        clock(codec),
        decoded
            .stats
            .overall_throughput_gbs(compressed.original_bytes())
    );
    Ok(())
}

fn cmd_decompress(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let mut codec = Codec::builder();
    let (mut archive, mut output, mut output_dir, mut all, mut selector) =
        (None, None, None, false, None);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--backend" => codec = codec.backend(flags.value()?.parse()?),
            "--output" => output = Some(flags.value()?),
            "--output-dir" => output_dir = Some(flags.value()?),
            "--all" => all = true,
            "--field" => selector = Some(flags.value()?),
            word if archive.is_none() && !word.starts_with("--") => archive = Some(word),
            _ => return Err(flags.unknown().into()),
        }
    }
    let archive_path =
        archive.ok_or_else(|| HfzError::Usage("expected an archive path".to_string()))?;
    if (all && (output.is_some() || selector.is_some())) || (!all && output_dir.is_some()) {
        return Err(HfzError::Usage(
            "--output-dir goes with --all, which takes no --output or --field".to_string(),
        ));
    }
    let codec = codec.build()?;
    let handle = codec.open_archive(archive_path)?;

    // `--all`: every field into --output-dir, named by the manifest (or by index for
    // manifest-less files).
    if all {
        let dir = required(output_dir, "--output-dir")?;
        std::fs::create_dir_all(dir)
            .map_err(|e| HfzError::io(format!("cannot create {}", dir), e))?;
        for (index, field) in handle.fields().iter().enumerate() {
            let name = field
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("field{}", index));
            let output = format!("{}/{}.f32", dir.trim_end_matches('/'), name);
            let label = format!("{}[{}]", archive_path, name);
            decompress_to(&codec, field, &label, &output)?;
        }
        return Ok(());
    }

    let output = required(output, "--output")?;
    // `--field NAME|INDEX` picks one field. Without it the file must hold just one:
    // several fields are ambiguous, whether a manifest names them or not.
    if selector.is_none() && handle.len() > 1 {
        return Err(HfzError::Usage(format!(
            "{} holds {} fields; pass --field NAME|INDEX or --all --output-dir DIR",
            archive_path,
            handle.len()
        )));
    }
    let field = handle.field_by_selector(selector.unwrap_or("0"))?;
    let label = selector.map_or(archive_path.to_string(), |s| {
        format!("{}[{}]", archive_path, s)
    });
    decompress_to(&codec, field, &label, output)
}

fn cmd_inspect(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let (mut archive, mut json) = (None, false);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--json" => json = true,
            word if archive.is_none() && !word.starts_with("--") => archive = Some(word),
            _ => return Err(flags.unknown().into()),
        }
    }
    let archive_path =
        archive.ok_or_else(|| HfzError::Usage("expected an archive path".to_string()))?;
    // Inspection is metadata-only: headers and section tables, no decode structures.
    let summary = ArchiveSummary::open(archive_path)?;
    if json {
        // Machine-readable for hfzd tooling and tests (no screen-scraping): plain files
        // keep the one-object-per-archive array; snapshot files wrap it with their
        // manifest.
        let body = summary
            .infos()
            .iter()
            .map(|info| info.to_json())
            .collect::<Vec<_>>()
            .join(",");
        match summary.manifest() {
            Some(manifest) => out!(
                "{{\"manifest\":{},\"archives\":[{}]}}",
                manifest.to_json(),
                body
            ),
            None => out!("[{}]", body),
        }
    } else {
        if let Some(manifest) = summary.manifest() {
            out!("{}", manifest);
            out!();
        }
        for (i, info) in summary.infos().iter().enumerate() {
            if i > 0 {
                out!();
            }
            out!("{}", info);
        }
    }
    Ok(())
}

fn cmd_verify(rest: &[String]) -> Result<(), HfzError> {
    // An address makes it the remote form, which takes no archive path.
    if rest.iter().any(|arg| arg == "--addr" || arg == "--router") {
        return cmd_verify_remote(rest);
    }
    let mut flags = Flags::new(rest);
    let mut codec = Codec::builder();
    let mut source = FieldSource::default();
    let (mut archive, mut deep, mut expected_digest) = (None, false, None);
    while let Some(flag) = flags.next_flag() {
        match flag {
            _ if source.take(flag, &mut flags)? => {}
            "--backend" => codec = codec.backend(flags.value()?.parse()?),
            "--deep" => deep = true,
            "--digest" => {
                let hex = flags.value()?.trim_start_matches("0x");
                expected_digest = Some(u32::from_str_radix(hex, 16).map_err(|_| {
                    HfzError::Usage("bad --digest value (expected hex CRC32)".to_string())
                })?);
            }
            word if archive.is_none() && !word.starts_with("--") => archive = Some(word),
            _ => return Err(flags.unknown().into()),
        }
    }
    let archive_path =
        archive.ok_or_else(|| HfzError::Usage("expected an archive path".to_string()))?;

    // Opening the session is itself the structural pass: manifest framing/checksum and
    // shard-extent validation, then framing, checksums, and reassembly of every
    // archive in the file. Anything left over after the last end marker is corruption,
    // not slack.
    let codec = codec.build()?;
    let handle = codec.open_archive(archive_path)?;
    // The operands that describe one field need a file that holds exactly one.
    let several = handle.len() > 1;
    if several && (expected_digest.is_some() || source.given()) {
        return Err(HfzError::Usage(format!(
            "--digest and --input/--dataset need a single-field file; {} holds {} fields",
            archive_path,
            handle.len()
        )));
    }
    if let Some(manifest) = handle.manifest() {
        out!(
            "manifest:  ok ({} fields, {} shard bytes)",
            manifest.len(),
            manifest.shard_bytes()
        );
    }
    for (i, field) in handle.fields().iter().enumerate() {
        out!(
            "structure: ok (archive {}: {} sections, {} bytes)",
            i + 1,
            field.info().sections.len(),
            field.info().total_bytes
        );
    }
    // Every field of every layout runs the same passes; a file of several fields
    // names the field on each line.
    for (i, field) in handle.fields().iter().enumerate() {
        let (who, label) = match (several, field.name()) {
            (false, _) => ("decoded stream".to_string(), String::new()),
            (true, Some(name)) => (format!("field '{}'", name), format!("field '{}': ", name)),
            (true, None) => (format!("field {}", i), format!("field {}: ", i)),
        };
        out!(
            "{}contents:  ok ({} symbols, decoder {})",
            label,
            field.archive().payload().num_symbols(),
            field.decoder().name()
        );

        // Deep pass: check the decoded codes against the stored digest or --digest. It
        // catches fields whose sections are each CRC-valid but decode to wrong codes.
        if deep || expected_digest.is_some() {
            let digest = codec.field_digest(field)?;
            match expected_digest.or(digest.stored) {
                Some(expected) if expected != digest.computed => {
                    return Err(HfzError::Verify(format!(
                        "deep verification failed: {} digests to {:08x}, expected {:08x}",
                        who,
                        digest.computed,
                        expected
                    )));
                }
                Some(_) => out!(
                    "{}deep:      ok (decoded CRC32 {:08x} over {} symbols)",
                    label,
                    digest.computed,
                    digest.symbols
                ),
                None if several => out!("{}deep:      no stored decoded-stream digest", label),
                None => {
                    return Err(HfzError::Usage(
                        "archive stores no decoded-stream digest; pass --digest HEX to check against one"
                            .to_string(),
                    ))
                }
            }
        }

        let Some(compressed) = field.compressed() else {
            out!("{}payload-only archive: nothing further to verify", label);
            continue;
        };

        // Reconstruction pass: decode and check the error bound against the original
        // when one is provided.
        let decompressed = codec.decompress_field(field)?;
        out!(
            "{}decode:    ok ({} elements reconstructed)",
            label,
            decompressed.data.len()
        );

        if source.given() {
            let original = source.load()?;
            if original.len() != decompressed.data.len() {
                return Err(HfzError::Verify(format!(
                    "original has {} elements, archive reconstructs {}",
                    original.len(),
                    decompressed.data.len()
                )));
            }
            let bound = compressed
                .config
                .error_bound
                .to_absolute(original.range_span() as f64);
            match huffdec::sz::verify_error_bound(&original.data, &decompressed.data, bound) {
                None => out!("bound:     ok (|error| <= {:e} everywhere)", bound),
                Some(idx) => {
                    return Err(HfzError::Verify(format!(
                        "error bound {:e} violated at element {}: {} vs {}",
                        bound, idx, original.data[idx], decompressed.data[idx]
                    )))
                }
            }
        }
    }
    Ok(())
}

/// `hfz verify --addr ADDR --archive NAME`: the daemon's deep verify of a loaded archive.
fn cmd_verify_remote(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let (mut addr, mut archive) = (None, None);
    while let Some(flag) = flags.next_flag() {
        match flag {
            _ if addr_flag(flag, &mut flags, &mut addr)? => {}
            "--archive" => archive = Some(flags.value()?),
            _ => return Err(flags.unknown().into()),
        }
    }
    let archive = required(archive, "--archive")?;
    let mut client = connect(addr)?;
    let report = client.verify(archive)?;
    out!("{}", report.trim_end());
    match remote_digest_failures(&report) {
        Some(0) => Ok(()),
        Some(_) => Err(HfzError::Verify(
            "remote deep verification reported digest failures".to_string(),
        )),
        None => Err(HfzError::Protocol(
            "the daemon's verify report does not end with a failure count".to_string(),
        )),
    }
}

/// The digest-failure count a daemon's deep-verify report ends with
/// (`NAME: N fields, F digest failures`). The line starts with the archive's name, which
/// the operator chose and which may say anything, so the count is read from its fixed tail.
fn remote_digest_failures(report: &str) -> Option<u64> {
    let summary = report.trim_end().lines().last()?;
    let count = summary
        .strip_suffix(" digest failures")?
        .rsplit(' ')
        .next()?;
    count.parse().ok()
}

fn cmd_serve(rest: &[String]) -> Result<(), HfzError> {
    run_daemon(DaemonBuilder::parse(rest).map_err(HfzError::Usage)?)
}

fn parse_range(spec: &str) -> Result<(u64, u64), HfzError> {
    let (start, len) = spec
        .split_once(':')
        .ok_or_else(|| HfzError::Usage(format!("range '{}' is not START:LEN", spec)))?;
    let start: u64 = start
        .parse()
        .map_err(|_| HfzError::Usage("bad range start".to_string()))?;
    let len: u64 = len
        .parse()
        .map_err(|_| HfzError::Usage("bad range length".to_string()))?;
    Ok((start, len))
}

fn cmd_get(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let (mut addr, mut archive, mut output, mut field, mut kind, mut range) =
        (None, None, None, 0u32, GetKind::Data, None);
    while let Some(flag) = flags.next_flag() {
        match flag {
            _ if addr_flag(flag, &mut flags, &mut addr)? => {}
            "--archive" => archive = Some(flags.value()?),
            "--output" => output = Some(flags.value()?),
            "--field" => field = flags.number()?,
            "--codes" => kind = GetKind::Codes,
            "--range" => range = Some(parse_range(flags.value()?)?),
            _ => return Err(flags.unknown().into()),
        }
    }
    let archive = required(archive, "--archive")?;
    let output = required(output, "--output")?;

    let mut client = connect(addr)?;
    let result = client.get(archive, field, kind, range)?;
    write_file(output, &result.bytes)?;

    out!(
        "{}[{}] -> {}: {} {} elements ({} bytes){}{}",
        archive,
        field,
        output,
        result.elements,
        if result.kind == GetKind::Data {
            "f32"
        } else {
            "code"
        },
        result.bytes.len(),
        if result.from_cache { ", cached" } else { "" },
        if result.partial {
            ", partial decode"
        } else {
            ""
        }
    );
    Ok(())
}

/// `hfz batch`: one `GETBATCH` round trip fetching several whole fields; the daemon
/// decodes every cache miss as a single batched wave. Each field lands in
/// `PREFIX.<index>`.
fn cmd_batch(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let (mut addr, mut archive, mut prefix, mut fields, mut kind) =
        (None, None, None, None, GetKind::Data);
    while let Some(flag) = flags.next_flag() {
        match flag {
            _ if addr_flag(flag, &mut flags, &mut addr)? => {}
            "--archive" => archive = Some(flags.value()?),
            "--output-prefix" => prefix = Some(flags.value()?),
            "--fields" => fields = Some(flags.value()?),
            "--codes" => kind = GetKind::Codes,
            _ => return Err(flags.unknown().into()),
        }
    }
    let archive = required(archive, "--archive")?;
    let prefix = required(prefix, "--output-prefix")?;
    let fields: Vec<u32> = required(fields, "--fields")?
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<u32>()
                .map_err(|_| HfzError::Usage(format!("bad field index '{}'", p)))
        })
        .collect::<Result<_, _>>()?;

    let mut client = connect(addr)?;
    let items = client.get_batch(archive, kind, &fields)?;
    let mut cached = 0u32;
    for (field, item) in fields.iter().zip(&items) {
        let output = format!("{}.{}", prefix, field);
        write_file(&output, &item.bytes)?;
        cached += item.from_cache as u32;
        out!(
            "{}[{}] -> {}: {} {} elements ({} bytes){}",
            archive,
            field,
            output,
            item.elements,
            if kind == GetKind::Data { "f32" } else { "code" },
            item.bytes.len(),
            if item.from_cache { ", cached" } else { "" }
        );
    }
    out!(
        "batch: {} fields, {} cached, {} decoded as one wave",
        items.len(),
        cached,
        items.len() as u32 - cached
    );
    Ok(())
}

/// The address of a subcommand that takes nothing but the address group.
fn addr_only(rest: &[String]) -> Result<Option<ListenAddr>, HfzError> {
    let mut flags = Flags::new(rest);
    let mut addr = None;
    while let Some(flag) = flags.next_flag() {
        if !addr_flag(flag, &mut flags, &mut addr)? {
            return Err(flags.unknown().into());
        }
    }
    Ok(addr)
}

fn cmd_list(rest: &[String]) -> Result<(), HfzError> {
    let mut client = connect(addr_only(rest)?)?;
    out!("{}", client.list()?);
    Ok(())
}

fn cmd_stats(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let (mut addr, mut prom, mut watch) = (None, false, None);
    while let Some(flag) = flags.next_flag() {
        match flag {
            _ if addr_flag(flag, &mut flags, &mut addr)? => {}
            "--prom" => prom = true,
            "--watch" => {
                watch = Some(
                    flags
                        .value()?
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| {
                            HfzError::Usage("bad --watch value (positive seconds)".to_string())
                        })?,
                )
            }
            _ => return Err(flags.unknown().into()),
        }
    }
    let mut client = connect(addr)?;
    if let Some(secs) = watch {
        return watch_stats(&mut client, secs);
    }
    if prom {
        out!("{}", client.metrics_prom()?.trim_end());
    } else {
        out!("{}", client.stats()?);
    }
    Ok(())
}

/// One tick of `hfz stats --watch`: the counters the trend lines are computed from.
#[derive(Clone, Copy)]
struct WatchSample {
    requests: f64,
    hits: f64,
    misses: f64,
    decodes: f64,
    decode_seconds: f64,
}

/// `hfz stats --watch SECS`: re-polls the daemon's Prometheus document and prints one
/// trend line per tick — lifetime totals plus the delta window since the previous tick
/// (cache hit ratio and mean decode latency, "modeled" or "measured" as the scraped
/// `hfz_backend` series says). Runs until interrupted or the daemon goes away.
fn watch_stats(client: &mut Connection, secs: u64) -> Result<(), HfzError> {
    let mut prev: Option<WatchSample> = None;
    loop {
        let text = client.metrics_prom()?;
        let samples = huffdec::metrics::parse_prometheus(&text)
            .map_err(|e| HfzError::Protocol(format!("bad /metrics document: {}", e)))?;
        // Labeled families (per-decoder histograms) are summed across their series.
        let total = |name: &str| sum_samples(&samples, name, &[]);
        let now = WatchSample {
            requests: total("hfz_requests_total"),
            hits: total("hfz_cache_hits_total"),
            misses: total("hfz_cache_misses_total"),
            decodes: total("hfz_decode_seconds_count"),
            decode_seconds: total("hfz_decode_seconds_sum"),
        };
        let ratio = |hits: f64, misses: f64| {
            let lookups = hits + misses;
            if lookups > 0.0 {
                format!("{:.2}", hits / lookups)
            } else {
                "-".to_string()
            }
        };
        let mean_ms = |decodes: f64, seconds: f64| {
            if decodes > 0.0 {
                format!("{:.3} ms", seconds / decodes * 1e3)
            } else {
                "-".to_string()
            }
        };
        let clock = huffdec::metrics::decode_clock(&samples, None);
        match prev {
            None => out!(
                "stats: {} requests | hit ratio {} ({} hits, {} misses) | {} decodes, mean {} {}",
                now.requests,
                ratio(now.hits, now.misses),
                now.hits,
                now.misses,
                now.decodes,
                clock,
                mean_ms(now.decodes, now.decode_seconds)
            ),
            Some(p) => out!(
                "stats: +{} requests | window hit ratio {} (lifetime {}) | +{} decodes, window mean {} {} (lifetime {})",
                now.requests - p.requests,
                ratio(now.hits - p.hits, now.misses - p.misses),
                ratio(now.hits, now.misses),
                now.decodes - p.decodes,
                clock,
                mean_ms(now.decodes - p.decodes, now.decode_seconds - p.decode_seconds),
                mean_ms(now.decodes, now.decode_seconds)
            ),
        }
        // Against an `hfzr` router the merged document labels every shard family with
        // `shard="N"` (and exports `hfzr_shard_up`); one sub-row per shard turns the
        // fleet line above into a fleet-total + per-shard table. Against a single
        // daemon no `shard` labels exist and the loop body never runs.
        let mut shard_ids: Vec<&str> = samples.iter().filter_map(|s| s.label("shard")).collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();
        for id in shard_ids {
            let for_shard = |name: &str| sum_samples(&samples, name, &[("shard", id)]);
            let up = samples.iter().any(|s| {
                s.name == "hfzr_shard_up" && s.label("shard") == Some(id) && s.value > 0.0
            });
            let decodes = for_shard("hfz_decode_seconds_count");
            out!(
                "  shard {} [{}]: {} requests | hit ratio {} | {} decodes, mean {} {}",
                id,
                if up { "up" } else { "down" },
                for_shard("hfz_requests_total"),
                ratio(
                    for_shard("hfz_cache_hits_total"),
                    for_shard("hfz_cache_misses_total")
                ),
                decodes,
                huffdec::metrics::decode_clock(&samples, Some(id)),
                mean_ms(decodes, for_shard("hfz_decode_seconds_sum"))
            );
        }
        prev = Some(now);
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

fn cmd_load(rest: &[String]) -> Result<(), HfzError> {
    let mut flags = Flags::new(rest);
    let (mut addr, mut name, mut path) = (None, None, None);
    while let Some(flag) = flags.next_flag() {
        match flag {
            _ if addr_flag(flag, &mut flags, &mut addr)? => {}
            "--name" => name = Some(flags.value()?),
            "--path" => path = Some(flags.value()?),
            _ => return Err(flags.unknown().into()),
        }
    }
    let name = required(name, "--name")?;
    let path = required(path, "--path")?;
    let mut client = connect(addr)?;
    let fields = client.load(name, path)?;
    out!("loaded '{}' from {} ({} fields)", name, path, fields);
    Ok(())
}

fn cmd_shutdown(rest: &[String]) -> Result<(), HfzError> {
    let mut client = connect(addr_only(rest)?)?;
    client.shutdown()?;
    out!("daemon is shutting down");
    Ok(())
}
