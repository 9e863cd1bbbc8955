//! Metric tables and the result line.
//!
//! The names, units and directions here and in `/BENCHMARK.json` are the same list:
//! `hfz-benchmark --manifest` prints the file from these tables.

use crate::json::Json;
use crate::layers::LAYER_METRICS;

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics: name, unit, whether higher is better, and the share of the
/// parent's median by which it may get worse before a change counts as a regression.
/// Every workload reports every one of them, and none is ever 0.
///
/// The three timing bounds are as wide as the harness allows. Two sets of ten runs of
/// one build, half an hour apart on the 2-vCPU sandbox this was written on, differed
/// by 17 to 31 % on every CPU-bound workload (the table is in `README.md`): the
/// neighbours' load, not the program. A 10 % bound there rejects identical code.
pub const END_TO_END: &[(&str, &str, bool, f64)] = &[
    // Typical latency of the workload's primary operation: one file decompressed or
    // compressed (median per file kind, averaged over the kinds), or one full-field
    // GET round trip with the outcome the workload is built to produce.
    ("op_p50_ms", "ms", false, 0.25),
    // Payload megabytes per second over every completed operation of the timed region:
    // decoded f32 MB for decompression and serving, original f32 MB for compression.
    // Carries the mean, the slow outliers and the secondary operations that
    // op_p50_ms leaves out.
    ("throughput_mbps", "MB/s", true, 0.25),
    // Original bytes over archive bytes of the workload's inputs. Repeats exactly for
    // one seed; between seeds it moves by up to 3 %, which is what the bound is for.
    ("compression_ratio", "ratio", true, 0.10),
    ("peak_rss_mb", "MB", false, 0.25),
    // Generate, compress, spawn, load and warm until steady: median of three set-ups.
    ("setup_s", "s", false, 0.25),
];

/// Per-layer metrics taken from the workload's own traced pass (the rest are the
/// probes of [`LAYER_METRICS`]): name, unit, whether higher is better, description.
pub const PASS_METRICS: &[(&str, &str, bool, &str)] = &[
    ("workload.traced_op_p50_ms", "ms", false, "op_p50_ms of the traced pass; minus the untraced value = tracing overhead"),
    ("workload.traced_throughput_mbps", "MB/s", true, "throughput_mbps of the traced pass"),
    ("workload.op_p95_ms", "ms", false, "95th percentile of the primary operation (nearest rank)"),
    ("workload.op_p99_ms", "ms", false, "99th percentile of the primary operation: 22 to 75 ms on identical code in scratch runs, hence not end-to-end"),
    ("workload.uncovered_ops", "count", false, "traced operations whose child spans cover less than 90 % of them"),
    ("serve.hit_ratio", "ratio", true, "cache hits over lookups during the pass (0 for file workloads, as every serve.* count below)"),
    ("serve.decodes", "count", false, "decodes the daemons ran during the pass"),
    ("serve.waves", "count", false, "scheduler waves"),
    ("serve.fields_per_wave", "ratio", true, "fields decoded per wave"),
    ("serve.coalesced", "count", true, "misses that joined a decode already in flight"),
    ("serve.shed", "count", false, "requests answered BUSY"),
    ("serve.evictions", "count", false, "LRU evictions"),
    ("serve.decode_busy_share", "ratio", false, "decode seconds over wall seconds of the pass"),
    ("router.shard_imbalance", "ratio", false, "busiest shard's requests over the mean"),
    ("router.retries", "count", false, "requests the router retried on another shard"),
];

/// Why each workload exists, for `BENCHMARK.json`.
pub const WORKLOAD_WHY: [(&str, &str); 5] = [
    ("file_decompress", "archive file to f32 file for HACC, CESM and GAMESS at 4 M elements, gap-array and self-sync: the paper's measurement, core and huffman decode do nearly all the work"),
    ("file_compress", "field to archive file for the same fields plus a 95 %-zero walk under HFZ2 auto-hybrid: the write direction, so a decode gain bought at encode cost or ratio shows"),
    ("serve_hot", "one daemon on tcp, 32 cached fields of 65,536, uniform full-field GETs: transport, reactor, cache and response encode do all the work, decode none"),
    ("serve_cold", "one daemon on unix, cache of 4 fields swept so it never hits, 70 % GET 20 % GETBATCH(4) 10 % ranged codes: scheduler wait, wave decode of small fields, reconstruct, insert and evict"),
    ("fleet_mixed", "router over 4 tcp shards, Zipf(1.0) over 32 fields, 4-field caches (3 hits in 4), 90 % GET 10 % GETBATCH(4): the realistic mix and the only workload in which the router does work"),
];

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line. Values print with every digit `f64` carries.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads a result line back (what `--all` does with a child's last line).
    pub fn from_line(line: &str) -> Result<RunResult, String> {
        let json = Json::parse(line)?;
        let number = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line lacks '{}'", key))
        };
        let metrics = json
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                Ok(Metric {
                    name: name.clone(),
                    value: value.ok_or_else(|| format!("metric '{}' has no value", name))?,
                    unit: unit_of(name).unwrap_or(""),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct: json.get("correct").and_then(Json::as_bool).unwrap_or(false),
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The declared unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PASS_METRICS.iter().map(|m| (m.0, m.1)))
        .chain(LAYER_METRICS.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOAD_WHY
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", name, why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, higher, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                name,
                unit,
                better(*higher),
                bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PASS_METRICS
        .iter()
        .chain(LAYER_METRICS.iter())
        .map(|(name, unit, higher, _)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                name,
                unit,
                better(*higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        run_seconds,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The regression bound of each end-to-end metric as `BENCHMARK.json` fixes it.
pub fn bounds_from_manifest(text: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let json = Json::parse(text)?;
    json.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            Ok((name.to_string(), higher, bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and descriptions go into JSON unescaped; this is what keeps that safe.
    #[test]
    fn manifest_and_result_line_parse_back() {
        let bounds = bounds_from_manifest(&manifest(10)).unwrap();
        let names: Vec<&str> = bounds.iter().map(|b| b.0.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
        let per_layer = Json::parse(&manifest(10)).unwrap();
        let per_layer = per_layer.get("per_layer").unwrap().as_arr();
        assert_eq!(per_layer.len(), PASS_METRICS.len() + LAYER_METRICS.len());

        let result = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s".to_string(),
                value: 0.8127,
                unit: "s",
            }],
        };
        let back = RunResult::from_line(&result.to_line()).unwrap();
        assert_eq!((back.attempted, back.value("setup_s")), (7, Some(0.8127)));
    }
}
