//! # huffdec-bench — the paper, reproduced as one report
//!
//! Every table and figure of the paper's evaluation section is one module exposing one
//! `fn(&mut Context) -> Experiment`; [`EXPERIMENTS`] indexes them and the `repro` binary
//! runs the selected ones over a shared [`Context`] (each field generated once, each
//! archive compressed once, each decode run and checked once). An [`Experiment`] carries
//! its tables, its summary metrics and its [`Expectation`]s — the paper's statements as
//! data, judged against the modeled clock and serialized into `BENCH_repro.json`.
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
//! the full V100 by multiplying by `80 / sms` ([`Context::norm`]). All reported GB/s are
//! simulated, full-V100-equivalent values.

#![warn(missing_docs)]

mod context;
mod fig2;
mod fig3;
mod hybrid;
mod overall;
mod small_dataset;
mod snapshot_batch;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;

pub use context::{Context, Dataset, REL_EB};
use gpu_sim::GpuConfig;
use huffdec_container::JsonWriter;

/// Seed used for all benchmark workloads (results are deterministic).
pub const BENCH_SEED: u64 = 0x5EED_CAFE;
/// The highly-compressible datasets the paper singles out in Tables II and V.
const HIGH_RATIO: [&str; 5] = ["CESM", "Nyx", "Hurricane", "RTM", "GAMESS"];
/// An open end of an [`Expectation`] band.
const INF: f64 = f64::INFINITY;

/// One table or figure of the paper: runs over the shared context, returns its result.
pub type ExperimentFn = fn(&mut Context) -> Experiment;

/// Every experiment of the report, in report order, under the name that selects it.
pub const EXPERIMENTS: [(&str, ExperimentFn); 14] = [
    ("table1_shmem_tuning", table1::run),
    ("table2_phase_breakdown", table2::run),
    ("table3_datasets", table3::run),
    ("table4_compression_ratio", table4::run),
    ("table5_decode_throughput", table5::run),
    ("table5_direct_write", table5::direct_write),
    ("table6_encode_throughput", table6::run),
    ("fig2_errorbound_sweep", fig2::run),
    ("fig3_shmem_sweep", fig3::run),
    ("fig4_overall_decompression", overall::fig4),
    ("fig5_with_transfer", overall::fig5),
    ("small_dataset_sweep", small_dataset::run),
    ("snapshot_batch_throughput", snapshot_batch::run),
    ("hybrid_throughput", hybrid::run),
];

/// The harness's two environment settings, read once by `main`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// Number of simulated SMs (1..=80).
    pub sms: u32,
    /// Elements per generated field; `None` scales each dataset with the device.
    pub elements: Option<usize>,
}

impl Settings {
    /// Reads `HUFFDEC_BENCH_SMS` and `HUFFDEC_BENCH_ELEMENTS`; unset or unparsable values
    /// fall back to the defaults.
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).ok();
        let sms = var("HUFFDEC_BENCH_SMS").and_then(|v| v.parse().ok());
        let elements = var("HUFFDEC_BENCH_ELEMENTS").and_then(|v| v.parse().ok());
        Settings {
            sms: sms.unwrap_or(2u32).clamp(1, 80),
            elements,
        }
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

/// A plain-text table with aligned columns, also serialized into the JSON report.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table; its first row names the columns.
    pub fn new(title: impl Into<String>) -> Self {
        let (headers, rows) = (Vec::new(), Vec::new());
        Table {
            title: title.into(),
            headers,
            rows,
        }
    }

    /// Appends a row of `(column header, cell)` pairs (every row must name the same
    /// columns as the first).
    pub fn push_row(&mut self, row: Vec<(&str, String)>) {
        let headers = row.iter().map(|(header, _)| header.to_string());
        if self.rows.is_empty() {
            self.headers = headers.clone().collect();
        }
        assert!(
            headers.eq(self.headers.iter().cloned()),
            "row width and headers must match the first row"
        );
        self.rows
            .push(row.into_iter().map(|(_, cell)| cell).collect());
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let cells = cells.iter().zip(&widths);
            let cells: Vec<_> = cells.map(|(c, w)| format!("{:>w$}", c, w = *w)).collect();
            cells.join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1));
        let mut out = format!("# {}\n{}{}\n", self.title, fmt_row(&self.headers), rule);
        self.rows.iter().for_each(|row| out.push_str(&fmt_row(row)));
        out
    }

    /// Writes the table as `{"title", "headers", "rows"}`, every cell a string exactly as
    /// printed.
    fn write_json(&self, w: &mut JsonWriter) {
        let write_row = |w: &mut JsonWriter, cells: &[String]| {
            w.begin_array();
            for cell in cells {
                w.str(cell);
            }
            w.end_array();
        };
        w.begin_object()
            .key("title")
            .str(&self.title)
            .key("headers");
        write_row(w, &self.headers);
        w.key("rows").begin_array();
        self.rows.iter().for_each(|row| write_row(w, row));
        w.end_array().end_object();
    }
}

/// The one relative band every headline average shares: within ±25 % of the paper's value.
fn near(paper: f64) -> (f64, f64) {
    (paper * 0.75, paper * 1.25)
}

/// One statement of the paper judged against the modeled clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// What is measured (with its unit).
    pub what: &'static str,
    /// The paper's value or wording.
    pub paper: &'static str,
    /// The band `measured` must fall in, ends included (an infinite end is open).
    pub band: (f64, f64),
    /// The modeled value.
    pub measured: f64,
}

impl Expectation {
    /// Signed distance of `measured` outside the band; zero when the expectation holds
    /// and NaN (a miss) when nothing finite was measured.
    pub fn miss_by(&self) -> f64 {
        self.measured - self.measured.clamp(self.band.0, self.band.1)
    }

    /// `"ok"` when the measured value is inside the band, `"miss"` otherwise.
    pub fn status(&self) -> &'static str {
        if self.miss_by() == 0.0 {
            "ok"
        } else {
            "miss"
        }
    }

    /// The printed row: what, the paper's value, the band, the measured value, and the
    /// status with the size of a miss.
    fn row(&self) -> Vec<(&'static str, String)> {
        let num = |v: f64| format!("{}", (v * 100.0).round() / 100.0);
        let band = format!("[{}, {}]", num(self.band.0), num(self.band.1));
        let mut status = self.status().to_string();
        if status == "miss" {
            status = format!("miss by {:+.2}", self.miss_by());
        }
        vec![
            ("expectation", self.what.to_string()),
            ("paper", self.paper.to_string()),
            ("band", band),
            ("measured", num(self.measured)),
            ("status", status),
        ]
    }
}

/// The result of one experiment: what the old per-table binaries printed, as data.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The name that selects the experiment on the command line (its [`EXPERIMENTS`]
    /// entry's; filled in by [`run`]).
    pub name: &'static str,
    /// Set by [`run`] once the experiment returned: every decode it reports matched the
    /// encoder-stamped digest, every reconstruction the error bound and every parallel
    /// encode the host encoder — each of those checks is an assertion.
    pub verified: bool,
    /// The rendered tables.
    pub tables: Vec<Table>,
    /// Named summary metrics (the CI gate bands each against the reference).
    pub metrics: Vec<(String, f64)>,
    /// The paper's statements about this experiment.
    pub expectations: Vec<Expectation>,
}

impl Experiment {
    fn new(tables: Vec<Table>, metrics: Vec<(String, f64)>, paper: Vec<Expectation>) -> Self {
        let (name, verified, expectations) = ("", false, paper);
        Experiment {
            name,
            verified,
            tables,
            metrics,
            expectations,
        }
    }

    /// The expectation rows as a table (empty when the paper states nothing).
    fn judged(&self) -> Table {
        let mut table = Table::new(format!("{}: paper vs. modeled clock", self.name));
        self.expectations
            .iter()
            .for_each(|e| table.push_row(e.row()));
        table
    }

    /// Renders the tables, the metrics and the expectation rows as plain text.
    pub fn render(&self) -> String {
        let mut out: String = self.tables.iter().map(|t| t.render() + "\n").collect();
        for (key, value) in &self.metrics {
            out.push_str(&format!("{} = {:.6}\n", key, value));
        }
        if !self.expectations.is_empty() {
            out.push_str(&self.judged().render());
        }
        out
    }

    /// One JSON object: name, `verified`, the metrics, the tables, and the expectation
    /// rows as printed.
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("name").str(self.name);
        w.key("verified").bool(self.verified);
        w.key("metrics").begin_object();
        for (key, value) in &self.metrics {
            w.key(key).f64_fixed(*value, 6);
        }
        w.end_object().key("tables").begin_array();
        self.tables.iter().for_each(|t| t.write_json(w));
        w.end_array().key("expectations");
        self.judged().write_json(w);
        w.end_object();
    }
}

/// Runs the named experiments (none = all of [`EXPERIMENTS`]) over one shared
/// [`Context`], printing each as it completes, and returns them in order. An unknown name
/// is an error listing the valid ones, reported before anything runs.
pub fn run(settings: Settings, names: &[String]) -> Result<Vec<Experiment>, String> {
    let find = |name: &String| {
        EXPERIMENTS
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| {
                let valid: Vec<_> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                format!(
                    "unknown experiment '{}'; valid names:\n  {}",
                    name,
                    valid.join("\n  ")
                )
            })
    };
    let mut selected = names.iter().map(find).collect::<Result<Vec<_>, _>>()?;
    if names.is_empty() {
        selected = (0..EXPERIMENTS.len()).collect();
    }
    let mut ctx = Context::new(settings);
    let run_one = |i: usize| {
        let mut experiment = EXPERIMENTS[i].1(&mut ctx);
        (experiment.name, experiment.verified) = (EXPERIMENTS[i].0, true);
        println!("{}", experiment.render());
        experiment
    };
    Ok(selected.into_iter().map(run_one).collect())
}

/// Serializes a report as the deterministic `BENCH_repro.json` document: the settings,
/// then one line per experiment.
pub fn report_json(settings: Settings, experiments: &[Experiment]) -> String {
    let mut head = JsonWriter::new();
    head.begin_object().key("name").str("repro");
    head.key("sms").u64(settings.sms as u64).key("elements_env");
    match settings.elements {
        Some(elements) => head.u64(elements as u64),
        None => head.null(),
    };
    let line = |e: &Experiment| {
        let mut w = JsonWriter::new();
        e.write_json(&mut w);
        w.finish()
    };
    let lines: Vec<String> = experiments.iter().map(line).collect();
    format!(
        "{},\"experiments\":[\n{}\n]}}\n",
        head.finish(),
        lines.join(",\n")
    )
}

/// Formats a GB/s value the way the paper's tables do.
pub fn fmt_gbs(v: f64) -> String {
    format!("{:.1}", v)
}

/// Formats a ratio/speedup value.
pub fn fmt_ratio(v: f64) -> String {
    format!("{:.2}", v)
}

/// Formats a speedup the way the paper's tables do (`2.74x`).
pub fn fmt_speedup(v: f64) -> String {
    format!("{:.2}x", v)
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

    #[test]
    fn table_rendering_aligns_columns() {
        let mut t = Table::new("Test");
        t.push_row(vec![("name", "a".into()), ("value", "1.0".into())]);
        t.push_row(vec![
            ("name", "longer-name".into()),
            ("value", "2.25".into()),
        ]);
        let s = t.render();
        assert!(s.starts_with("# Test\n       name  value\n------------------\n"));
        assert!(s.ends_with("longer-name   2.25\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T");
        t.push_row(vec![("a", "1".into()), ("b", "2".into())]);
        t.push_row(vec![("a", "only-one".into())]);
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
        let settings = Settings {
            sms: 2,
            elements: Some(50_000),
        };
        let mut ctx = Context::new(settings);
        let field = ctx.field("RTM");
        assert!(field.len() >= 40_000 && field.len() <= 80_000);
        assert!(ctx.norm > 1.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_gbs(123.456), "123.5");
        assert_eq!(fmt_ratio(2.345), "2.35");
    }
}
