//! # huffdec-metrics — the workspace's one metrics registry
//!
//! The paper's whole argument is quantitative (per-phase decode timings, per-decoder
//! throughput, transfer-inclusive latencies), and the serving layer needs the same
//! signals continuously — not just in offline bench bins. This crate defines the
//! single aggregation point: a [`Metrics`] registry of monotonic counters, gauges, and
//! fixed-bucket latency histograms, owned by the `Codec` facade and shared (via `Arc`)
//! with the daemon's cache, scheduler and request loop.
//!
//! The registry is one plain [`MetricsSnapshot`] behind one mutex. Every instrument is
//! declared once, as a field of that struct: recording is [`Metrics::update`] with a
//! closure that bumps fields, reading is [`Metrics::snapshot`], a clone. The clone is a
//! consistent cut — every counter of one snapshot was read at the same instant — and it
//! renders to Prometheus text exposition format ([`MetricsSnapshot::render_prometheus`])
//! or backs ad-hoc JSON like the daemon's `STATS` reply.
//!
//! One lock is enough because it is a leaf: no code takes another lock while holding
//! it, and no `update` closure does I/O or calls back into the workspace. A critical
//! section is a handful of integer and float adds, so the lock is held for tens of
//! nanoseconds and cannot deadlock. Like the rest of the workspace's locks it recovers
//! from poisoning: a thread that panicked mid-update leaves at worst one bump half done.
//!
//! Clients read the text back with [`parse_prometheus`] (the `prometheus` module).
//!
//! ```
//! use huffdec_core::DecoderKind;
//! use huffdec_metrics::Metrics;
//!
//! let m = Metrics::new();
//! m.update(|m| {
//!     m.observe_decode(DecoderKind::OptimizedGapArray, 1.5e-3);
//!     m.cache_hits += 1;
//! });
//! let snap = m.snapshot();
//! assert_eq!(snap.decode_seconds[DecoderKind::OptimizedGapArray.tag() as usize].count(), 1);
//! let text = snap.render_prometheus();
//! assert!(text.contains("hfz_decode_seconds_bucket"));
//! ```

#![warn(missing_docs)]

mod prometheus;

pub use prometheus::*;

use std::sync::{Mutex, MutexGuard};

use huffdec_core::DecoderKind;

/// Number of decoder-kind slots in the per-decoder metric families (indexed by
/// [`DecoderKind::tag`]; covers every tag, the RLE+Huffman hybrid included).
pub const DECODER_SLOTS: usize = DecoderKind::TAG_SLOTS;

/// Encode-phase label values, matching `EncodePhaseBreakdown::phases()` order.
pub const ENCODE_PHASES: [&str; 4] = ["histogram", "tree+codebook", "offset prefix-sum", "scatter"];

/// Upper bounds (seconds, inclusive) of the latency histogram buckets; a final
/// `+Inf` bucket is implicit. Log-spaced (×4 per bucket) from 1 µs to ~4 s of
/// simulated time, which spans everything from a single-block partial decode to a
/// multi-gigabyte batched wave.
pub const LATENCY_BUCKET_BOUNDS: [f64; 12] = [
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3, 1.6384e-2, 6.5536e-2, 0.262144,
    1.048576, 4.194304,
];

/// A fixed-bucket latency histogram over [`LATENCY_BUCKET_BOUNDS`] plus an implicit
/// `+Inf` bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; one per bound in [`LATENCY_BUCKET_BOUNDS`]
    /// plus the final `+Inf` slot.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; LATENCY_BUCKET_BOUNDS.len() + 1],
            sum: 0.0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one observation of `v` (seconds).
    pub fn observe(&mut self, v: f64) {
        let slot = LATENCY_BUCKET_BOUNDS
            .iter()
            .position(|&bound| v <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS.len());
        self.buckets[slot] += 1;
        self.sum += v;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// The unified metrics registry: every counter the codec, the cache, the scheduler and
/// the daemon record, as one [`MetricsSnapshot`] behind one leaf lock.
///
/// One registry is owned by each `Codec`; the daemon hands `Arc` clones of its codec's
/// registry (`Codec::metrics`) to its cache and scheduler, so its `/metrics` endpoint
/// renders everything they record.
#[derive(Debug, Default)]
pub struct Metrics(Mutex<MetricsSnapshot>);

impl Metrics {
    /// A registry with every instrument at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn lock(&self) -> MutexGuard<'_, MetricsSnapshot> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records into the registry: `record` runs with the lock held, so everything it
    /// bumps lands in one step. It must only touch fields — no I/O, no other lock.
    pub fn update(&self, record: impl FnOnce(&mut MetricsSnapshot)) {
        record(&mut self.lock());
    }

    /// A copy of every instrument, all read at the same instant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }

    /// Sets the execution-backend name the registry reports via
    /// `hfz_backend{name="..."}`. Last write wins.
    pub fn set_backend(&self, name: &str) {
        self.update(|m| m.backend = Some(name.to_string()));
    }

    /// Renders the current state in Prometheus text exposition format (0.0.4).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// The registry's plain data: the live state inside [`Metrics`], and the point-in-time
/// copy [`Metrics::snapshot`] hands out — cheap to clone, subtract, and render. The
/// daemon's `STATS` JSON, the `/metrics` endpoint, and the `/healthz` window
/// evaluation all read one of these.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Total protocol requests handled by the daemon.
    pub requests: u64,
    /// `GET` requests handled.
    pub gets: u64,
    /// `GETBATCH` requests handled.
    pub batch_gets: u64,
    /// Fields requested across all batch requests (cache hits included).
    pub batch_fields: u64,
    /// Cold fields decoded inside batched waves.
    pub batch_decoded_fields: u64,
    /// What batched decodes would have cost run serially (seconds: modeled on `sim`,
    /// measured on `cpu`).
    pub batch_serial_seconds: f64,
    /// What the batched waves actually cost (seconds: modeled on `sim`, measured on
    /// `cpu`).
    pub batch_batched_seconds: f64,

    /// Requests that joined an already-in-flight decode of the same field
    /// (single-flight coalescing) instead of triggering their own.
    pub sched_coalesced: u64,
    /// Decode waves the scheduler submitted (each drains the pending queue once).
    pub sched_waves: u64,
    /// Cold fields decoded across all scheduler waves.
    pub sched_wave_fields: u64,
    /// Waves that carried more than one distinct field (cross-request batching).
    pub sched_multi_field_waves: u64,
    /// Requests shed with a `BUSY` reply because the pending-decode queue was full.
    pub sched_shed: u64,
    /// Gauge: decode tasks currently waiting in the scheduler's pending queue.
    pub sched_queue_depth: u64,

    /// Decoded-field cache lookups that found their entry.
    pub cache_hits: u64,
    /// Decoded-field cache lookups that did not.
    pub cache_misses: u64,
    /// Cache entries evicted to make room.
    pub cache_evictions: u64,
    /// Cache entries successfully inserted.
    pub cache_insertions: u64,
    /// Insertions refused because the entry alone exceeds the budget.
    pub cache_uncacheable: u64,
    /// Gauge: bytes currently held by the cache.
    pub cache_used_bytes: u64,
    /// Gauge: the cache's configured byte budget.
    pub cache_budget_bytes: u64,
    /// Gauge: number of cached entries.
    pub cache_entries: u64,
    /// Gauge: archives currently loaded in the daemon's store.
    pub archives_loaded: u64,

    /// Full-field Huffman decode latency, per decoder kind (indexed by [`DecoderKind::tag`]).
    pub decode_seconds: [HistogramSnapshot; DECODER_SLOTS],
    /// Range-decode index build latency, per decoder kind.
    pub index_build_seconds: [HistogramSnapshot; DECODER_SLOTS],
    /// Partial (range-limited) decode latency, per decoder kind.
    pub partial_decode_seconds: [HistogramSnapshot; DECODER_SLOTS],
    /// Blocks actually decoded by partial decodes.
    pub partial_blocks_decoded: u64,
    /// Blocks a full decode would have run for those same requests.
    pub partial_blocks_spanned: u64,
    /// Decode operations that returned an error.
    pub decode_errors: u64,
    /// Compressed bytes fed into decodes.
    pub decode_bytes_in: u64,
    /// Decoded bytes produced (f32 data or u16 codes).
    pub decode_bytes_out: u64,

    /// Gauge: time-weighted mean SM occupancy of the most recent full decode's kernel
    /// launches, in permille (0–1000). The occupancy comes from the gpu-sim occupancy
    /// calculation on either backend (the CPU backend keeps launch geometry, occupancy
    /// and launch counts; memory-traffic and cycle aggregates are modeled-only).
    pub decode_occupancy_permille: u64,
    /// Gauge: like [`MetricsSnapshot::decode_occupancy_permille`], but across every
    /// kernel of the most recent batched decode wave.
    pub batch_occupancy_permille: u64,
    /// The execution backend's name (`"sim"` / `"cpu"`), rendered as the info-style
    /// series `hfz_backend{name="..."} 1`. Last write wins (a `Codec` sets it at build
    /// time through [`Metrics::set_backend`]); `None` until one does.
    pub backend: Option<String>,

    /// Whole-pipeline encode latency (quantize + Huffman phases).
    pub encode_seconds: HistogramSnapshot,
    /// Accumulated seconds per encode phase (see [`ENCODE_PHASES`]): modeled on `sim`,
    /// measured on `cpu`.
    pub encode_phase_seconds: [f64; 4],
    /// Uncompressed bytes fed into encodes.
    pub encode_bytes_in: u64,
    /// Compressed bytes produced by encodes.
    pub encode_bytes_out: u64,
}

impl MetricsSnapshot {
    /// Records one full decode of `seconds` (modeled on `sim`, measured on `cpu`) on
    /// `decoder`.
    pub fn observe_decode(&mut self, decoder: DecoderKind, seconds: f64) {
        self.decode_seconds[decoder.tag() as usize].observe(seconds);
    }

    /// Records one range-decode index build.
    pub fn observe_index_build(&mut self, decoder: DecoderKind, seconds: f64) {
        self.index_build_seconds[decoder.tag() as usize].observe(seconds);
    }

    /// Records one partial (range-limited) decode.
    pub fn observe_partial_decode(&mut self, decoder: DecoderKind, seconds: f64) {
        self.partial_decode_seconds[decoder.tag() as usize].observe(seconds);
    }

    /// Total decode count across every decoder kind.
    pub fn total_decodes(&self) -> u64 {
        self.decode_seconds.iter().map(|h| h.count()).sum()
    }

    /// Total simulated decode seconds across every decoder kind.
    pub fn total_decode_seconds(&self) -> f64 {
        self.decode_seconds.iter().map(|h| h.sum).sum()
    }

    /// Renders the snapshot in Prometheus text exposition format (0.0.4): `# HELP` /
    /// `# TYPE` headers per family, cumulative `_bucket{le=...}` series plus `_sum` /
    /// `_count` for histograms, per-decoder families labelled
    /// `decoder="<DecoderKind::name()>"`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        // Info-style identity series: value is always 1, the payload is the label.
        help_and_type(
            &mut out,
            "hfz_backend",
            "Execution backend of the session (sim = modeled device, cpu = host threads).",
            "gauge",
        );
        if let Some(backend) = &self.backend {
            out.push_str(&format!(
                "hfz_backend{{name=\"{}\"}} 1\n",
                escape_label_value(backend)
            ));
        }
        counter_line(
            &mut out,
            "hfz_requests_total",
            "Total protocol requests handled.",
            self.requests,
        );
        counter_line(
            &mut out,
            "hfz_gets_total",
            "GET requests handled.",
            self.gets,
        );
        counter_line(
            &mut out,
            "hfz_batch_gets_total",
            "GETBATCH requests handled.",
            self.batch_gets,
        );
        counter_line(
            &mut out,
            "hfz_batch_fields_total",
            "Fields requested across all batch requests (cache hits included).",
            self.batch_fields,
        );
        counter_line(
            &mut out,
            "hfz_batch_decoded_fields_total",
            "Cold fields decoded inside batched waves.",
            self.batch_decoded_fields,
        );
        float_counter_line(
            &mut out,
            "hfz_batch_serial_seconds_total",
            "What the batched decodes would have cost run serially, in seconds (modeled on sim, measured on cpu; see hfz_backend).",
            self.batch_serial_seconds,
        );
        float_counter_line(
            &mut out,
            "hfz_batch_batched_seconds_total",
            "What the batched waves actually cost, in seconds (modeled on sim, measured on cpu; see hfz_backend); wave occupancy = serial/batched.",
            self.batch_batched_seconds,
        );
        counter_line(
            &mut out,
            "hfz_sched_coalesced_total",
            "Requests that joined an in-flight decode of the same field (single-flight).",
            self.sched_coalesced,
        );
        counter_line(
            &mut out,
            "hfz_sched_waves_total",
            "Decode waves the scheduler submitted.",
            self.sched_waves,
        );
        counter_line(
            &mut out,
            "hfz_sched_wave_fields_total",
            "Cold fields decoded across scheduler waves.",
            self.sched_wave_fields,
        );
        counter_line(
            &mut out,
            "hfz_sched_multi_field_waves_total",
            "Waves that carried more than one distinct field (cross-request batching).",
            self.sched_multi_field_waves,
        );
        counter_line(
            &mut out,
            "hfz_sched_shed_total",
            "Requests shed with BUSY because the pending-decode queue was full.",
            self.sched_shed,
        );
        gauge_line(
            &mut out,
            "hfz_sched_queue_depth",
            "Decode tasks currently waiting in the scheduler's pending queue.",
            self.sched_queue_depth,
        );
        counter_line(
            &mut out,
            "hfz_cache_hits_total",
            "Decoded-field cache hits.",
            self.cache_hits,
        );
        counter_line(
            &mut out,
            "hfz_cache_misses_total",
            "Decoded-field cache misses.",
            self.cache_misses,
        );
        counter_line(
            &mut out,
            "hfz_cache_evictions_total",
            "Cache entries evicted to make room.",
            self.cache_evictions,
        );
        counter_line(
            &mut out,
            "hfz_cache_insertions_total",
            "Cache entries successfully inserted.",
            self.cache_insertions,
        );
        counter_line(
            &mut out,
            "hfz_cache_uncacheable_total",
            "Insertions refused because the entry alone exceeds the budget.",
            self.cache_uncacheable,
        );
        gauge_line(
            &mut out,
            "hfz_cache_used_bytes",
            "Bytes currently held by the decoded-field cache.",
            self.cache_used_bytes,
        );
        gauge_line(
            &mut out,
            "hfz_cache_budget_bytes",
            "Configured byte budget of the decoded-field cache.",
            self.cache_budget_bytes,
        );
        gauge_line(
            &mut out,
            "hfz_cache_entries",
            "Entries currently in the decoded-field cache.",
            self.cache_entries,
        );
        gauge_line(
            &mut out,
            "hfz_archives_loaded",
            "Archives currently loaded in the store.",
            self.archives_loaded,
        );
        histogram_family(
            &mut out,
            "hfz_decode_seconds",
            "Full-field Huffman decode time in seconds (modeled on sim, measured on cpu; see hfz_backend), by decoder kind.",
            &self.decode_seconds,
        );
        histogram_family(
            &mut out,
            "hfz_index_build_seconds",
            "Range-decode index build time in seconds (modeled on sim, measured on cpu; see hfz_backend), by decoder kind.",
            &self.index_build_seconds,
        );
        histogram_family(
            &mut out,
            "hfz_partial_decode_seconds",
            "Partial (range-limited) decode time in seconds (modeled on sim, measured on cpu; see hfz_backend), by decoder kind.",
            &self.partial_decode_seconds,
        );
        counter_line(
            &mut out,
            "hfz_partial_blocks_decoded_total",
            "Blocks actually decoded by partial decodes.",
            self.partial_blocks_decoded,
        );
        counter_line(
            &mut out,
            "hfz_partial_blocks_spanned_total",
            "Blocks a full decode would have run for the same partial requests.",
            self.partial_blocks_spanned,
        );
        counter_line(
            &mut out,
            "hfz_decode_errors_total",
            "Decode operations that returned an error.",
            self.decode_errors,
        );
        counter_line(
            &mut out,
            "hfz_decode_bytes_in_total",
            "Compressed bytes fed into decodes.",
            self.decode_bytes_in,
        );
        counter_line(
            &mut out,
            "hfz_decode_bytes_out_total",
            "Decoded bytes produced.",
            self.decode_bytes_out,
        );
        gauge_line(
            &mut out,
            "hfz_decode_occupancy_permille",
            "Time-weighted SM occupancy of the most recent full decode (permille, perf model).",
            self.decode_occupancy_permille,
        );
        gauge_line(
            &mut out,
            "hfz_batch_occupancy_permille",
            "Time-weighted SM occupancy of the most recent batched decode wave (permille).",
            self.batch_occupancy_permille,
        );
        help_and_type(
            &mut out,
            "hfz_encode_seconds",
            "Whole-pipeline encode time in seconds (modeled on sim, measured on cpu; see hfz_backend).",
            "histogram",
        );
        histogram_series(&mut out, "hfz_encode_seconds", None, &self.encode_seconds);
        help_and_type(
            &mut out,
            "hfz_encode_phase_seconds_total",
            "Accumulated encode time per phase, in seconds (modeled on sim, measured on cpu; see hfz_backend).",
            "counter",
        );
        for (phase, seconds) in ENCODE_PHASES.iter().zip(self.encode_phase_seconds.iter()) {
            out.push_str(&format!(
                "hfz_encode_phase_seconds_total{{phase=\"{}\"}} {}\n",
                escape_label_value(phase),
                format_value(*seconds)
            ));
        }
        counter_line(
            &mut out,
            "hfz_encode_bytes_in_total",
            "Uncompressed bytes fed into encodes.",
            self.encode_bytes_in,
        );
        counter_line(
            &mut out,
            "hfz_encode_bytes_out_total",
            "Compressed bytes produced by encodes.",
            self.encode_bytes_out,
        );
        out
    }
}

fn help_and_type(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!(
        "# HELP {} {}\n# TYPE {} {}\n",
        name, help, name, kind
    ));
}

fn counter_line(out: &mut String, name: &str, help: &str, value: u64) {
    help_and_type(out, name, help, "counter");
    out.push_str(&format!("{} {}\n", name, value));
}

fn float_counter_line(out: &mut String, name: &str, help: &str, value: f64) {
    help_and_type(out, name, help, "counter");
    out.push_str(&format!("{} {}\n", name, format_value(value)));
}

fn gauge_line(out: &mut String, name: &str, help: &str, value: u64) {
    help_and_type(out, name, help, "gauge");
    out.push_str(&format!("{} {}\n", name, value));
}

fn histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    slots: &[HistogramSnapshot; DECODER_SLOTS],
) {
    help_and_type(out, name, help, "histogram");
    // Every tag slot, not `DecoderKind::all()` — the hybrid layout is excluded from
    // the dense-decoder iterator but its series must still be exposed.
    for tag in 0..DECODER_SLOTS as u8 {
        let kind = DecoderKind::from_tag(tag).expect("every slot below TAG_SLOTS is a decoder");
        let label = ("decoder", kind.name());
        histogram_series(out, name, Some(label), &slots[tag as usize]);
    }
}

fn histogram_series(
    out: &mut String,
    name: &str,
    label: Option<(&str, &str)>,
    h: &HistogramSnapshot,
) {
    let label_prefix = |le: &str| match label {
        Some((k, v)) => format!("{{{}=\"{}\",le=\"{}\"}}", k, escape_label_value(v), le),
        None => format!("{{le=\"{}\"}}", le),
    };
    let bare = match label {
        Some((k, v)) => format!("{{{}=\"{}\"}}", k, escape_label_value(v)),
        None => String::new(),
    };
    let mut cumulative = 0u64;
    for (i, bound) in LATENCY_BUCKET_BOUNDS.iter().enumerate() {
        cumulative += h.buckets[i];
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            name,
            label_prefix(&format_value(*bound)),
            cumulative
        ));
    }
    cumulative += h.buckets[LATENCY_BUCKET_BOUNDS.len()];
    out.push_str(&format!(
        "{}_bucket{} {}\n",
        name,
        label_prefix("+Inf"),
        cumulative
    ));
    out.push_str(&format!("{}_sum{} {}\n", name, bare, format_value(h.sum)));
    out.push_str(&format!("{}_count{} {}\n", name, bare, cumulative));
}

fn format_value(v: f64) -> String {
    // `{}` on f64 is the shortest representation that round-trips — integral values
    // render bare ("0", "3") and everything re-parses exactly, which keeps the
    // bucket-bound strings stable between renderer and parser.
    format!("{}", v)
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_float_sums() {
        let m = Metrics::new();
        m.update(|m| m.requests += 1);
        m.update(|m| m.requests += 4);
        m.update(|m| m.cache_used_bytes = 123);
        m.update(|m| m.cache_used_bytes = 77);
        m.update(|m| m.batch_serial_seconds += 0.5);
        m.update(|m| m.batch_serial_seconds += 0.25);
        let snap = m.snapshot();
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.cache_used_bytes, 77);
        assert!((snap.batch_serial_seconds - 0.75).abs() < 1e-12);
    }

    #[test]
    fn counter_is_consistent_under_contention() {
        const THREADS: usize = 8;
        const UPDATES: usize = 1000;
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..UPDATES {
                        m.update(|m| {
                            m.gets += 1;
                            // Alternate between the first bucket and the `+Inf` slot.
                            m.encode_seconds
                                .observe(if i % 2 == 0 { 0.0 } else { 100.0 });
                        });
                    }
                });
            }
        });
        let snap = m.snapshot();
        let n = (THREADS * UPDATES) as u64;
        assert_eq!(snap.gets, n);
        assert_eq!(snap.encode_seconds.count(), n);
        assert_eq!(snap.encode_seconds.buckets[0], n / 2);
        assert_eq!(*snap.encode_seconds.buckets.last().unwrap(), n / 2);
        assert_eq!(snap.encode_seconds.sum, (n / 2) as f64 * 100.0);
    }

    #[test]
    fn float_counter_is_exact_under_contention() {
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.update(|m| m.batch_batched_seconds += 0.5);
                    }
                });
            }
        });
        // 0.5 is a power of two, so 4000 additions are exact in f64 whatever the
        // interleaving.
        assert_eq!(m.snapshot().batch_batched_seconds, 2000.0);
    }

    #[test]
    fn histogram_buckets_observations() {
        let mut h = HistogramSnapshot::default();
        h.observe(0.0); // below the first bound
        h.observe(1e-6); // exactly the first bound (le is inclusive)
        h.observe(2e-3);
        h.observe(100.0); // above every bound -> +Inf slot
        assert_eq!(h.count(), 4);
        assert!((h.sum - (1e-6 + 2e-3 + 100.0)).abs() < 1e-9);
        assert_eq!(h.buckets.len(), LATENCY_BUCKET_BOUNDS.len() + 1);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(*h.buckets.last().unwrap(), 1);
    }

    #[test]
    fn render_is_valid_exposition_with_every_family() {
        let m = Metrics::new();
        m.update(|m| {
            m.observe_decode(DecoderKind::OptimizedGapArray, 1.5e-3);
            m.observe_index_build(DecoderKind::CuszBaseline, 2e-4);
            m.observe_partial_decode(DecoderKind::OptimizedSelfSync, 9e-5);
            m.requests += 3;
            m.encode_seconds.observe(0.02);
            m.encode_phase_seconds[1] += 0.004;
            m.cache_budget_bytes = 1 << 20;
            m.decode_occupancy_permille = 250;
            m.batch_occupancy_permille = 500;
        });
        m.set_backend("sim");
        let text = m.render_prometheus();
        let samples = parse_prometheus(&text).expect("rendered exposition parses");
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
            "hfz_partial_blocks_decoded_total",
            "hfz_partial_blocks_spanned_total",
            "hfz_decode_errors_total",
            "hfz_decode_bytes_in_total",
            "hfz_decode_bytes_out_total",
            "hfz_decode_occupancy_permille",
            "hfz_batch_occupancy_permille",
            "hfz_backend",
            "hfz_encode_bytes_in_total",
            "hfz_encode_bytes_out_total",
        ] {
            assert!(
                samples.iter().any(|s| s.name == family),
                "family {} missing from exposition",
                family
            );
        }
        for family in [
            "hfz_decode_seconds",
            "hfz_index_build_seconds",
            "hfz_partial_decode_seconds",
        ] {
            for kind in DecoderKind::all() {
                let labels = [("decoder", kind.name())];
                let count =
                    sample_value(&samples, &format!("{}_count", family), &labels).expect("count");
                let inf = sample_value(
                    &samples,
                    &format!("{}_bucket", family),
                    &[("decoder", kind.name()), ("le", "+Inf")],
                )
                .expect("+Inf bucket");
                assert_eq!(count, inf, "{}: +Inf bucket must equal _count", family);
            }
        }
        assert_eq!(sample_value(&samples, "hfz_requests_total", &[]), Some(3.0));
        assert_eq!(
            sample_value(&samples, "hfz_backend", &[("name", "sim")]),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&samples, "hfz_decode_occupancy_permille", &[]),
            Some(250.0)
        );
        assert_eq!(
            sample_value(&samples, "hfz_batch_occupancy_permille", &[]),
            Some(500.0)
        );
        assert_eq!(
            sample_value(
                &samples,
                "hfz_decode_seconds_count",
                &[("decoder", DecoderKind::OptimizedGapArray.name())]
            ),
            Some(1.0)
        );
        assert_eq!(
            sample_value(
                &samples,
                "hfz_encode_phase_seconds_total",
                &[("phase", "tree+codebook")]
            ),
            Some(0.004)
        );
    }

    #[test]
    fn rendered_buckets_are_monotone_and_sum_to_count() {
        let m = Metrics::new();
        for i in 0..50 {
            m.update(|m| m.observe_decode(DecoderKind::OptimizedGapArray, (i as f64) * 1e-4));
        }
        let samples = parse_prometheus(&m.render_prometheus()).unwrap();
        let label = ("decoder", DecoderKind::OptimizedGapArray.name());
        let mut previous = 0.0;
        for bound in LATENCY_BUCKET_BOUNDS {
            let v = sample_value(
                &samples,
                "hfz_decode_seconds_bucket",
                &[label, ("le", &format!("{}", bound))],
            )
            .expect("bucket series");
            assert!(v >= previous, "cumulative buckets must be monotone");
            previous = v;
        }
        let inf = sample_value(
            &samples,
            "hfz_decode_seconds_bucket",
            &[label, ("le", "+Inf")],
        )
        .unwrap();
        let count = sample_value(&samples, "hfz_decode_seconds_count", &[label]).unwrap();
        assert!(inf >= previous);
        assert_eq!(inf, count);
        assert_eq!(count, 50.0);
    }

    #[test]
    fn snapshot_is_plain_data() {
        let m = Metrics::new();
        m.update(|m| {
            m.gets += 2;
            m.observe_decode(DecoderKind::CuszBaseline, 0.5);
        });
        let a = m.snapshot();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.total_decodes(), 1);
        assert!((a.total_decode_seconds() - 0.5).abs() < 1e-12);
        m.update(|m| m.gets += 1);
        assert_eq!(a.gets, 2, "snapshots do not track the live registry");
    }
}
