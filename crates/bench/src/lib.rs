//! # huffdec-bench — the paper-reproduction benchmark harness
//!
//! One binary per table and figure of the paper's evaluation section (see DESIGN.md for
//! the experiment index). This library holds the pieces the binaries share: workload
//! preparation, the evaluation GPU, and plain-text table/CSV printers.
//!
//! ## Scaled-device methodology
//!
//! The paper evaluates full snapshots (180 MB – 1.1 GB) on a full V100. Simulating the
//! functional decode of hundreds of millions of symbols is too slow for a benchmark
//! suite, so each experiment instead simulates a **proportional slice**: a device with
//! `HUFFDEC_BENCH_SMS` streaming multiprocessors (default 2) whose memory/PCIe bandwidth
//! and fixed overheads are scaled by the same factor, fed a slice of the dataset scaled
//! by that factor (`full_elements × sms / 80`). Per-SM behaviour — occupancy, shared
//! memory, warp divergence, coalescing — is identical to the full device, so the slice's
//! simulated time approximates the full run's, and throughputs are normalized back to
//! the full V100 by multiplying by `80 / sms` ([`Workload::norm`]). All reported GB/s are
//! simulated, full-V100-equivalent values.

#![warn(missing_docs)]

use datasets::{generate, DatasetSpec, Field};
use gpu_sim::{Gpu, GpuConfig};
use huffdec_codec::Codec;
use huffdec_core::DecoderKind;
use sz::{Compressed, ErrorBound};

/// Environment variable overriding the number of simulated SMs (default 2).
pub const SMS_ENV: &str = "HUFFDEC_BENCH_SMS";
/// Environment variable overriding the number of elements per generated field
/// (default: `full_elements × sms / 80` per dataset).
pub const ELEMENTS_ENV: &str = "HUFFDEC_BENCH_ELEMENTS";
/// Seed used for all benchmark workloads (results are deterministic).
pub const BENCH_SEED: u64 = 0x5EED_CAFE;

/// Number of simulated SMs used by the harness.
pub fn bench_sms() -> u32 {
    std::env::var(SMS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .clamp(1, 80)
}

/// One dataset's benchmark workload: the scaled device, the scaled field, and the
/// normalization factor that converts simulated throughput to full-V100-equivalent GB/s.
pub struct Workload {
    /// The dataset specification.
    pub spec: DatasetSpec,
    /// The proportionally scaled simulated device.
    pub gpu: Gpu,
    /// The scaled synthetic field.
    pub field: Field,
    /// Multiply simulated GB/s by this factor to obtain full-V100-equivalent GB/s.
    pub norm: f64,
}

impl Workload {
    /// Size of the field's quantization codes in bytes (2 bytes per element) — the
    /// denominator used by the paper's decoding-throughput tables.
    pub fn quant_code_bytes(&self) -> u64 {
        self.field.len() as u64 * 2
    }

    /// Size of the uncompressed field in bytes (4 bytes per element) — the denominator
    /// used by the overall-decompression figures.
    pub fn original_bytes(&self) -> u64 {
        self.field.bytes()
    }

    /// Builds a codec session on this workload's scaled device for the given decoder
    /// and relative error bound. The session carries the same `GpuConfig` as
    /// [`Workload::gpu`], and the performance model depends only on the configuration,
    /// so timings through either handle are identical.
    pub fn codec(&self, decoder: DecoderKind, rel_eb: f64) -> Codec {
        Codec::builder()
            .gpu_config(self.gpu.config().clone())
            .decoder(decoder)
            .error_bound(ErrorBound::Relative(rel_eb))
            .build()
            .expect("bench codec configuration is valid")
    }

    /// Compresses the workload field for the given decoder at the given relative error
    /// bound (host encoder — same bytes as the timed pipeline).
    pub fn compress(&self, decoder: DecoderKind, rel_eb: f64) -> Compressed {
        self.codec(decoder, rel_eb)
            .compress_archive(&self.field)
            .expect("bench fields are non-empty")
    }
}

/// Builds the proportionally scaled device configuration for the given slice factor
/// (`scale` = full device ÷ simulated slice, e.g. 40 when simulating 2 of 80 SMs).
pub fn scaled_v100(sms: u32) -> (GpuConfig, f64) {
    let mut cfg = GpuConfig::v100();
    let scale = cfg.num_sms as f64 / sms as f64;
    cfg.num_sms = sms;
    cfg.mem_bandwidth_gbps /= scale;
    cfg.pcie_h2d_gbps /= scale;
    cfg.pcie_d2h_gbps /= scale;
    cfg.kernel_launch_overhead_us /= scale;
    cfg.pcie_latency_us /= scale;
    (cfg, scale)
}

/// Prepares the benchmark workload for a dataset: scaled device, scaled field, and the
/// throughput normalization factor.
pub fn workload_for(spec: &DatasetSpec) -> Workload {
    let sms = bench_sms();
    let (cfg, scale) = scaled_v100(sms);
    let elements = std::env::var(ELEMENTS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| ((spec.full_elements() as f64 / scale) as usize).max(200_000));
    let field = generate(spec, elements, BENCH_SEED);
    Workload {
        spec: spec.clone(),
        gpu: Gpu::new(cfg),
        field,
        norm: scale,
    }
}

/// A plain-text table printer producing aligned columns (and optionally CSV).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (comma-separated, header first).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table (and CSV if `HUFFDEC_BENCH_CSV=1`) to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        if std::env::var("HUFFDEC_BENCH_CSV")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            println!("{}", self.render_csv());
        }
    }

    /// Renders the table as a JSON object: `{"title", "headers", "rows"}`, every cell a
    /// string exactly as printed.
    pub fn to_json(&self) -> String {
        let quote_row = |w: &mut huffdec_container::JsonWriter, cells: &[String]| {
            w.begin_array();
            for cell in cells {
                w.str(cell);
            }
            w.end_array();
        };
        let mut w = huffdec_container::JsonWriter::new();
        w.begin_object();
        w.key("title").str(&self.title);
        w.key("headers");
        quote_row(&mut w, &self.headers);
        w.key("rows").begin_array();
        for row in &self.rows {
            quote_row(&mut w, row);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Whether the invoking bench binary was passed `--json`.
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// The machine-readable result of one bench binary: the rendered table plus bin-specific
/// summary metrics, written as `BENCH_<name>.json` by [`write_bench_json`]. Every bin
/// sets `verified` only after its self-verification (decoded output checked against the
/// reference) has passed, so CI can gate on it.
pub fn bench_json(name: &str, verified: bool, table: &Table, extra: &[(&str, String)]) -> String {
    let mut w = huffdec_container::JsonWriter::with_capacity(512);
    w.begin_object();
    w.key("name").str(name);
    w.key("verified").bool(verified);
    w.key("sms").u64(bench_sms() as u64);
    match std::env::var(ELEMENTS_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(elements) => w.key("elements_env").u64(elements),
        None => w.key("elements_env").null(),
    };
    for (key, value) in extra {
        // `extra` values are caller-rendered JSON (numbers, usually) — splice as-is.
        w.key(key).raw(value);
    }
    w.key("table").raw(&table.to_json());
    w.end_object();
    w.finish()
}

/// Writes `BENCH_<name>.json` into the working directory (the CI bench-smoke job parses
/// it). Panics on I/O failure — a bench that cannot record its result must not pass.
pub fn write_bench_json(name: &str, verified: bool, table: &Table, extra: &[(&str, String)]) {
    let path = format!("BENCH_{}.json", name);
    std::fs::write(&path, bench_json(name, verified, table, extra))
        .unwrap_or_else(|e| panic!("cannot write {}: {}", path, e));
    println!("wrote {}", path);
}

/// Formats a GB/s value the way the paper's tables do.
pub fn fmt_gbs(v: f64) -> String {
    format!("{:.1}", v)
}

/// Formats a ratio/speedup value.
pub fn fmt_ratio(v: f64) -> String {
    format!("{:.2}", v)
}

/// Geometric mean of a slice of positive values (the paper reports average speedups).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| v.ln()).sum();
    (sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::dataset_by_name;

    #[test]
    fn table_rendering_aligns_columns() {
        let mut t = Table::new("Test", &["name", "value"]);
        t.push_row(vec!["a".into(), "1.0".into()]);
        t.push_row(vec!["longer-name".into(), "2.25".into()]);
        let s = t.render();
        assert!(s.contains("# Test"));
        assert!(s.contains("longer-name"));
        assert_eq!(t.len(), 2);
        let csv = t.render_csv();
        assert!(csv.starts_with("name,value\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn scaled_device_preserves_per_sm_resources() {
        let (cfg, scale) = scaled_v100(2);
        let full = GpuConfig::v100();
        assert_eq!(cfg.num_sms, 2);
        assert!((scale - 40.0).abs() < 1e-12);
        assert_eq!(cfg.shared_mem_per_sm, full.shared_mem_per_sm);
        assert_eq!(cfg.max_threads_per_sm, full.max_threads_per_sm);
        assert!((cfg.mem_bandwidth_gbps * scale - full.mem_bandwidth_gbps).abs() < 1e-9);
    }

    #[test]
    fn workload_scales_with_dataset_size() {
        // Use an explicit element override so this test stays fast regardless of env.
        std::env::set_var(ELEMENTS_ENV, "50000");
        let w = workload_for(&dataset_by_name("RTM").unwrap());
        assert!(w.field.len() >= 40_000 && w.field.len() <= 80_000);
        assert!(w.norm > 1.0);
        assert_eq!(w.quant_code_bytes(), w.field.len() as u64 * 2);
        std::env::remove_var(ELEMENTS_ENV);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_gbs(123.456), "123.5");
        assert_eq!(fmt_ratio(2.345), "2.35");
    }
}
