//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program is instrumented: a span is two `Instant` reads taken
//! here, on the caller's side of a public function. Spans are held in memory (one
//! buffer per thread, merged when the thread ends) and written out once, after all
//! measuring is done. With tracing off no child span reads the clock at all, which is
//! what makes the traced-vs-untraced difference the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One recorded interval. `parent == 0` marks a root span; spans of one operation
/// share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The run-wide span store.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A per-thread recorder; its spans reach the store when it is dropped.
    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            tracer: self,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder panics while holding the span store")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"clock\": \"ns since run start\", \"spans\": [",
            workload, seed
        )?;
        for (i, s) in self.spans().iter().enumerate() {
            write!(
                out,
                "{}\n{{\"id\": {}, \"parent\": {}, \"op_id\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.parent,
                s.op_id,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// A thread's span buffer.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    /// Times `f` — always, the elapsed seconds are the operation's latency sample —
    /// and records it as a root span when tracing is on. `f` receives the span id to
    /// hang child spans on.
    pub fn op<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Self, u32) -> T,
    ) -> (T, f64) {
        let id = if self.tracer.enabled {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        if self.tracer.enabled {
            self.spans.push(Span {
                id,
                parent: 0,
                op_id,
                name,
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
            });
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records `f` as a child of `parent` when tracing is on; otherwise just runs it.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.tracer.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op_id,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
        out
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if let Ok(mut store) = self.tracer.spans.lock() {
            store.append(&mut self.spans);
        }
    }
}

/// Per span name: how many were recorded, their median duration, the median self time
/// (duration minus what child spans cover), and how many parents have children that
/// account for less than 90 % of them — the ones whose layer split cannot be trusted.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    pub name: &'static str,
    pub count: usize,
    pub median_ms: f64,
    pub median_self_ms: f64,
    pub parents: usize,
    pub uncovered_parents: usize,
}

pub fn summarize(spans: &[Span]) -> Vec<SpanSummary> {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, Vec<(f64, f64, bool, bool)>> = BTreeMap::new();
    for s in spans {
        let duration = (s.end_ns - s.start_ns) as f64;
        let children = covered.get(&s.id).copied();
        let self_ns = duration - children.unwrap_or(0) as f64;
        let uncovered = children.is_some() && self_ns > 0.10 * duration;
        by_name.entry(s.name).or_default().push((
            duration / 1e6,
            self_ns / 1e6,
            children.is_some(),
            uncovered,
        ));
    }
    by_name
        .into_iter()
        .map(|(name, rows)| SpanSummary {
            name,
            count: rows.len(),
            median_ms: stats::median(&rows.iter().map(|r| r.0).collect::<Vec<_>>()),
            median_self_ms: stats::median(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
            parents: rows.iter().filter(|r| r.2).count(),
            uncovered_parents: rows.iter().filter(|r| r.3).count(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_gaps_are_flagged() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op_id: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, "op", 0, 1000),
            span(2, 1, "a", 0, 400),
            span(3, 1, "b", 400, 700),
        ];
        let summary = summarize(&spans);
        let op = summary.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(op.median_self_ms, 300.0 / 1e6);
        // 30 % of the parent is not covered by a child span: flagged.
        assert_eq!((op.parents, op.uncovered_parents), (1, 1));
        let a = summary.iter().find(|s| s.name == "a").unwrap();
        assert_eq!((a.parents, a.uncovered_parents), (0, 0));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times_operations() {
        let tracer = Tracer::new(false);
        let mut rec = tracer.recorder();
        let (value, seconds) = rec.op("op", 1, |rec, id| rec.child("c", id, 1, || 7));
        drop(rec);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(tracer.spans().is_empty());
    }
}
