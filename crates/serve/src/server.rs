//! The `hfzd` daemon: holds hot archives in memory and serves decoded blocks.
//!
//! This is the paper's §V GAMESS scenario turned into a long-running component:
//! archives stay compressed in memory (loaded once, parsed once), clients request
//! decoded fields or ranges over the socket protocol, and a shared bytes-budgeted LRU
//! ([`DecodedLru`]) absorbs the hot set so repeated `GET`s of the same field cost a
//! memcpy while cold fields pay one decode.
//!
//! Concurrency model: **blocking threads**. The shared accept loop
//! ([`crate::service`]) gives every connection its own thread, and that thread runs
//! [`ServerState::handle`] to completion: cheap requests, cache hits, `LOAD`,
//! `VERIFY` and ranged-codes partial decodes run inline on it. A full-field cache
//! miss is the one thing it does not do itself: it submits the field to the scheduler
//! (`sched::Scheduler`) and blocks on the flight slot it gets back. A single
//! wave-worker thread drains the scheduler — concurrent misses of the same field
//! coalesce into one decode (single-flight), and whenever the worker is free it takes
//! every pending miss as one batched wave through the codec's wave API — and
//! completing a flight wakes every thread waiting on it.
//!
//! **One fetch path.** `GET` and `GETBATCH` obtain decoded bytes through one
//! function, `ServerState::fetch`: it resolves the archive and the requested fields
//! (the one place the "no archive named" / "does not exist" / "payload-only" / range
//! refusals are written), makes the request's one cache pass, submits the unique
//! misses as one scheduler group and waits — or, for a ranged codes miss, decodes
//! just the overlapping blocks inline — and hands back each field's bytes with how
//! they were come by, or nothing when the group was shed. `GET` is that call with
//! one field; `GETBATCH` is that call plus its three counters.
//!
//! Backpressure: the scheduler's pending queue is bounded. When a miss would overflow
//! it, the daemon answers the typed `BUSY` reply instead of queueing unbounded work;
//! clients surface it as [`crate::ClientError::Busy`] and the router retries after a
//! short backoff.
//!
//! Observability: all counting happens in the codec's [`Metrics`] registry — the codec
//! records decode/encode timings as it works, the cache records hits and evictions into
//! the same registry, the scheduler records coalescing/wave/shed counters, and the
//! request path adds request-level counters. `STATS` and the HTTP `/metrics` endpoint
//! are two renders of one snapshot (scheduler observability is Prometheus-only). Locks
//! are recovered from poisoning (`PoisonError::into_inner`): a connection thread that
//! panicked must not take down stats or health reporting for the whole daemon.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard};

use huffdec_codec::{u16_le_bytes, Codec, FieldHandle};
use huffdec_container::JsonWriter;
use huffdec_core::DecoderKind;
use huffdec_metrics::{Metrics, MetricsSnapshot};

use crate::cache::{CacheKey, DecodedLru};
use crate::daemon::DaemonBuilder;
use crate::protocol::{list_document, BatchGetItem, GetKind, Request, Response};
use crate::sched::{DecodeTask, FlightSlot, Scheduler, QUEUE_BOUND};
use crate::service::{Lifecycle, Service};
use crate::store::{ArchiveStore, LoadedArchive};

/// Daemon health, as the HTTP sidecar's `/healthz` endpoint reports it.
///
/// Degradation is judged over the **last window** — the delta since the previous
/// [`ServerState::health`] call — so a burst of decode errors or cache thrash clears
/// once a quiet window passes, instead of latching forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Healthy,
    /// Still serving, but the last window saw decode errors or LRU thrash.
    Degraded(String),
    /// Not serving (shutdown in progress).
    Unhealthy(String),
}

/// Shared state of a running daemon.
#[derive(Debug)]
pub struct ServerState {
    codec: Codec,
    store: ArchiveStore,
    cache: Mutex<DecodedLru>,
    sched: Scheduler,
    /// The wave worker, joined once the accept loop has drained.
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    lifecycle: Lifecycle,
    /// The metrics snapshot taken by the previous health check — the baseline the next
    /// check's window is measured against.
    health_window: Mutex<MetricsSnapshot>,
}

impl ServerState {
    /// Builds the shared state a [`DaemonBuilder`] describes and starts its wave
    /// worker.
    pub(crate) fn new(config: &DaemonBuilder) -> Arc<ServerState> {
        let mut builder = Codec::builder()
            .gpu_config(config.gpu.clone())
            .backend(config.backend);
        if let Some(threads) = config.host_threads {
            builder = builder.host_threads(threads);
        }
        let codec = builder
            .build()
            .expect("default codec configuration is valid");
        // The cache and the scheduler share the codec's registry: one set of
        // instruments covers the whole daemon.
        let cache = DecodedLru::with_metrics(config.cache_bytes, Arc::clone(codec.metrics()));
        let sched = Scheduler::new(QUEUE_BOUND, Arc::clone(codec.metrics()));
        let health_window = codec.metrics().snapshot();
        let state = Arc::new(ServerState {
            codec,
            store: ArchiveStore::new(),
            cache: Mutex::new(cache),
            sched,
            worker: Mutex::new(None),
            lifecycle: Lifecycle::default(),
            health_window: Mutex::new(health_window),
        });
        let worker = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                while let Some(tasks) = state.sched.next_wave() {
                    // Even a wave that panics below the codec must complete every
                    // flight it drained, and the worker must survive to run the next
                    // one: a waiter left behind would block its client forever.
                    let run = AssertUnwindSafe(|| state.execute_wave(&tasks));
                    if std::panic::catch_unwind(run).is_err() {
                        // Completion is first-write-wins: flights the wave already
                        // answered keep their result.
                        for task in &tasks {
                            let failed = "decode failed: the wave panicked".to_string();
                            task.slot.complete(Err(failed));
                            state.sched.finish(&task.key);
                        }
                    }
                }
            })
        };
        *state.worker.lock().unwrap_or_else(|p| p.into_inner()) = Some(worker);
        state
    }

    /// The facade session requests decode through.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// The archive store. Prefer [`ServerState::load_archive`] for loading — it also
    /// invalidates stale cache entries and keeps the loaded-archives gauge current.
    pub fn store(&self) -> &ArchiveStore {
        &self.store
    }

    /// The metrics registry every component of this daemon records into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.codec.metrics()
    }

    /// One coherent read of every instrument.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics().snapshot()
    }

    /// Locks the cache, recovering from poisoning: the LRU's invariants are maintained
    /// per-operation, so a thread that panicked elsewhere while holding the lock must
    /// not wedge every later request.
    fn lock_cache(&self) -> MutexGuard<'_, DecodedLru> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Current cache occupancy in bytes.
    pub fn cache_used_bytes(&self) -> u64 {
        self.lock_cache().used_bytes()
    }

    /// Loads (or replaces) an archive: parses through the store, drops any cache
    /// entries of a replaced archive, and updates the loaded-archives gauge.
    pub fn load_archive(
        &self,
        name: &str,
        path: &str,
    ) -> Result<Arc<LoadedArchive>, huffdec_codec::HfzError> {
        let loaded = self.store.load(name, path)?;
        // A re-load under the same name must not serve stale decodes.
        self.lock_cache().invalidate_archive(name);
        let loaded_count = self.store.len() as u64;
        self.metrics().update(|m| m.archives_loaded = loaded_count);
        Ok(loaded)
    }

    /// Requests shutdown: wakes the accept loops (protocol and, when bound, the HTTP
    /// metrics sidecar) and stops the scheduler, failing still-queued decodes so no
    /// waiter hangs.
    pub fn request_shutdown(&self) {
        self.lifecycle.request_shutdown();
        self.sched.stop();
    }

    /// Evaluates daemon health for `/healthz`: unhealthy during shutdown, degraded when
    /// the window since the previous check saw decode errors or cache thrash
    /// (evictions with misses outnumbering hits), healthy otherwise.
    pub fn health(&self) -> Health {
        if self.lifecycle.is_shutting_down() {
            return Health::Unhealthy("shutting down".to_string());
        }
        let current = self.metrics_snapshot();
        let prev = {
            let mut window = self.health_window.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::replace(&mut *window, current.clone())
        };
        let errors = current.decode_errors.saturating_sub(prev.decode_errors);
        if errors > 0 {
            return Health::Degraded(format!("{} decode errors in the last window", errors));
        }
        let evictions = current.cache_evictions.saturating_sub(prev.cache_evictions);
        let hits = current.cache_hits.saturating_sub(prev.cache_hits);
        let misses = current.cache_misses.saturating_sub(prev.cache_misses);
        if evictions > 0 && misses > hits {
            return Health::Degraded(format!(
                "cache thrash in the last window: {} evictions, {} misses vs {} hits",
                evictions, misses, hits
            ));
        }
        Health::Healthy
    }

    /// Handles one request to completion, blocking until its decode (if any) lands.
    /// This is what every connection thread calls per frame; it is public so
    /// in-process consumers (tests, examples, benches) can skip the socket.
    pub fn handle(&self, request: &Request) -> Response {
        self.metrics().update(|m| m.requests += 1);
        match request {
            Request::List => Response::List(self.list_json()),
            Request::Stats => Response::Stats(self.stats_json()),
            Request::Metrics => Response::Metrics(self.metrics().render_prometheus()),
            Request::Shutdown => {
                self.request_shutdown();
                Response::ShuttingDown
            }
            Request::Load { name, path } => match self.load_archive(name, path) {
                Ok(loaded) => Response::Loaded {
                    fields: loaded.fields().len() as u32,
                },
                Err(e) => Response::Error(format!("cannot load '{}': {}", name, e)),
            },
            Request::Verify { archive } => match self.verify(archive) {
                Ok(report) => Response::Verify(report),
                Err(message) => Response::Error(message),
            },
            Request::Get {
                archive,
                field,
                kind,
                range,
            } => self
                .get(archive, *field, *kind, *range)
                .unwrap_or_else(Response::Error),
            Request::GetBatch {
                archive,
                kind,
                fields,
            } => self
                .get_batch(archive, *kind, fields)
                .unwrap_or_else(Response::Error),
        }
    }

    /// The archive loaded under `name`.
    fn archive(&self, name: &str) -> Result<Arc<LoadedArchive>, String> {
        self.store
            .get(name)
            .ok_or_else(|| format!("no archive named '{}' is loaded", name))
    }

    /// The one fetch path, under `GET` and `GETBATCH` alike (see the module docs).
    /// Returns each field's bytes in request order and the number of full decodes
    /// this request put in flight (joins of another request's flight are its decodes,
    /// not ours), or `None` when the scheduler shed the request: answer `BUSY`.
    ///
    /// `range` (elements; a `GET` operand) narrows every field to a slice. A cached
    /// field serves any range. A miss is a full decode — for data ranges too: Lorenzo
    /// reconstruction is a prefix scan, so a data range needs the whole field once,
    /// after which the cache serves every later range as a slice. A request's full
    /// decodes are submitted as one admission group, so they run as one batched wave
    /// (possibly with other requests' misses queued beside them), a field
    /// already in flight for someone else is joined rather than decoded twice, and
    /// duplicates within the request share one flight.
    ///
    /// The exception is a ranged *codes* miss, which takes the partial path: decode
    /// only the overlapping blocks via the field's (cached) decode index. The result
    /// is not inserted — it is a fragment, and caching fragments would let a sweep of
    /// small ranges evict whole hot fields. Partial decodes run inline, not as waves:
    /// they are already sub-linear in field size and do not batch. Index-build and
    /// partial-decode timings are recorded inside the codec.
    fn fetch(
        &self,
        archive: &str,
        kind: GetKind,
        fields: &[u32],
        range: Option<(u64, u64)>,
    ) -> Result<Option<(Vec<Fetched>, usize)>, String> {
        let loaded = self.archive(archive)?;
        for &f in fields {
            let field = loaded.fields().get(f as usize).ok_or_else(|| {
                format!(
                    "archive '{}' has {} fields; field {} does not exist",
                    archive,
                    loaded.fields().len(),
                    f
                )
            })?;
            let elements = match kind {
                GetKind::Data => field.data_elements().ok_or_else(|| {
                    format!("field {} is payload-only; request codes instead of data", f)
                })?,
                GetKind::Codes => field.code_elements(),
            };
            if let Some((start, len)) = range {
                if start.checked_add(len).map_or(true, |end| end > elements) {
                    return Err(format!(
                        "range [{}, {}+{}) exceeds the field's {} elements",
                        start, start, len, elements
                    ));
                }
            }
        }
        let key = |field: u32| CacheKey {
            archive: archive.to_string(),
            generation: loaded.generation,
            field,
            kind,
        };
        let cached: Vec<Option<Arc<Vec<u8>>>> = {
            let mut cache = self.lock_cache();
            fields.iter().map(|&f| cache.get(&key(f))).collect()
        };

        let partial = range.filter(|_| kind == GetKind::Codes);
        let mut missing: Vec<u32> = Vec::new();
        for (&f, hit) in fields.iter().zip(&cached) {
            if hit.is_none() && partial.is_none() && !missing.contains(&f) {
                missing.push(f);
            }
        }
        let mut flights: Vec<Arc<FlightSlot>> = Vec::new();
        let mut started = 0;
        if !missing.is_empty() {
            let wants: Vec<(CacheKey, Arc<LoadedArchive>, usize)> = missing
                .iter()
                .map(|&f| (key(f), Arc::clone(&loaded), f as usize))
                .collect();
            let Some(outcomes) = self.sched.submit_group(&wants) else {
                return Ok(None);
            };
            started = outcomes.iter().filter(|o| o.created).count();
            flights = outcomes.into_iter().map(|o| o.slot).collect();
        }

        let slice = |bytes: &[u8]| match range {
            None => bytes.to_vec(),
            Some((start, len)) => {
                let eb = kind.element_bytes();
                bytes[(start * eb) as usize..((start + len) * eb) as usize].to_vec()
            }
        };
        let mut fetched = Vec::with_capacity(fields.len());
        for (&f, hit) in fields.iter().zip(cached) {
            let from_cache = hit.is_some();
            let bytes = match (hit, partial) {
                (Some(bytes), _) => slice(&bytes),
                (None, Some((start, len))) => {
                    let decoded = self
                        .codec
                        .decompress_range(&loaded.fields()[f as usize], start, len)
                        .map_err(|e| format!("range decode failed: {}", e))?;
                    u16_le_bytes(&decoded.symbols)
                }
                (None, None) => {
                    let flight = missing.iter().position(|&m| m == f);
                    slice(&flights[flight.expect("every miss was submitted")].wait()?)
                }
            };
            fetched.push(Fetched {
                bytes,
                from_cache,
                partial: !from_cache && partial.is_some(),
            });
        }
        Ok(Some((fetched, started)))
    }

    fn get(
        &self,
        archive: &str,
        field: u32,
        kind: GetKind,
        range: Option<(u64, u64)>,
    ) -> Result<Response, String> {
        self.metrics().update(|m| m.gets += 1);
        let Some((mut fetched, _)) = self.fetch(archive, kind, &[field], range)? else {
            return Ok(Response::Busy);
        };
        let one = fetched.pop().expect("one field was asked for");
        Ok(Response::Get {
            kind,
            from_cache: one.from_cache,
            partial: one.partial,
            elements: one.bytes.len() as u64 / kind.element_bytes(),
            bytes: one.bytes,
        })
    }

    fn get_batch(&self, archive: &str, kind: GetKind, fields: &[u32]) -> Result<Response, String> {
        self.metrics().update(|m| {
            m.batch_gets += 1;
            m.batch_fields += fields.len() as u64;
        });
        let Some((fetched, started)) = self.fetch(archive, kind, fields, None)? else {
            return Ok(Response::Busy);
        };
        self.metrics()
            .update(|m| m.batch_decoded_fields += started as u64);
        let items = fetched
            .into_iter()
            .map(|f| BatchGetItem {
                from_cache: f.from_cache,
                elements: f.bytes.len() as u64 / kind.element_bytes(),
                bytes: f.bytes,
            })
            .collect();
        Ok(Response::GetBatch { kind, items })
    }

    /// Runs one wave the scheduler drained: every field, whatever its kind, goes
    /// through the codec as one submission. Each field's bytes are inserted into the
    /// cache and its flight fans the (canonical, deduplicated) buffer out to its
    /// waiters; a field that fails completes only its own flight with the error.
    fn execute_wave(&self, tasks: &[DecodeTask]) {
        let fields: Vec<(&FieldHandle, GetKind)> = tasks
            .iter()
            .map(|task| (&task.loaded.fields()[task.field], task.key.kind))
            .collect();
        for (task, produced) in tasks.iter().zip(self.codec.decode_to_bytes(&fields)) {
            // Insert before completing, complete before finishing: a miss that no
            // longer finds the flight is guaranteed to find the cache entry.
            let outcome = match produced {
                Ok(bytes) => Ok(self.lock_cache().insert(task.key.clone(), bytes)),
                Err(e) => Err(format!("decode failed: {}", e)),
            };
            task.slot.complete(outcome);
            self.sched.finish(&task.key);
        }
    }

    /// `VERIFY`: the deep check ([`Codec::field_digest`]) of every field of a loaded
    /// archive, whatever its layout, one report line per field and a closing count of
    /// digest failures. A field whose stream does not decode fails the whole request.
    fn verify(&self, archive: &str) -> Result<String, String> {
        let loaded = self.archive(archive)?;
        let mut report = String::new();
        let mut failures = 0;
        for (i, field) in loaded.fields().iter().enumerate() {
            let digest = self
                .codec
                .field_digest(field)
                .map_err(|e| format!("field {}: decode failed: {}", i, e))?;
            report += &match digest.stored {
                Some(stored) if stored == digest.computed => format!(
                    "field {}: ok ({} symbols, digest {:08x})",
                    i, digest.symbols, stored
                ),
                Some(stored) => {
                    failures += 1;
                    format!(
                        "field {}: DIGEST MISMATCH (stored {:08x}, decoded {:08x})",
                        i, stored, digest.computed
                    )
                }
                None if field.compressed().is_some() => format!(
                    "field {}: ok ({} symbols, no stored digest)",
                    i, digest.symbols
                ),
                None => format!("field {}: ok ({} symbols, payload-only)", i, digest.symbols),
            };
            report.push('\n');
        }
        report.push_str(&format!(
            "{}: {} fields, {} digest failures\n",
            archive,
            loaded.fields().len(),
            failures
        ));
        Ok(report)
    }

    fn list_json(&self) -> String {
        let loaded = self.store.list();
        list_document(loaded.iter().map(|archive| {
            let infos = archive.fields().iter().map(|field| field.info());
            (
                archive.name.as_str(),
                archive.path.as_str(),
                archive.manifest(),
                infos,
            )
        }))
    }

    /// Renders the legacy `STATS` JSON from one registry snapshot. The document is
    /// byte-compatible with the pre-registry format: per-decoder counts come from the
    /// histogram counts and `simulated_seconds` from the histogram sums. Despite its
    /// name, that key holds the session's clock, which the `backend` key names: wall
    /// seconds on `cpu`, modeled seconds on `sim`. The key stays for compatibility.
    fn stats_json(&self) -> String {
        let m = self.metrics_snapshot();
        let decoder_json = |w: &mut JsonWriter,
                            key: &str,
                            hists: &[huffdec_metrics::HistogramSnapshot;
                                 huffdec_metrics::DECODER_SLOTS]| {
            w.key(key).begin_object();
            // Every tag slot (the hybrid layout is not in `DecoderKind::all()`).
            for tag in 0..huffdec_metrics::DECODER_SLOTS as u8 {
                let kind = DecoderKind::from_tag(tag).expect("tag slots are decoders");
                let h = &hists[tag as usize];
                w.key(kind.name()).begin_object();
                w.key("count").u64(h.count());
                w.key("simulated_seconds").f64_sci(h.sum);
                w.end_object();
            }
            w.end_object();
        };
        let mut w = JsonWriter::with_capacity(1024);
        w.begin_object();
        w.key("backend").str(self.codec.backend_kind().name());
        w.key("device").str(&self.codec.device_name());
        w.key("requests").u64(m.requests);
        w.key("gets").u64(m.gets);
        w.key("archives_loaded").u64(self.store.len() as u64);
        w.key("cache").begin_object();
        w.key("hits").u64(m.cache_hits);
        w.key("misses").u64(m.cache_misses);
        w.key("evictions").u64(m.cache_evictions);
        w.key("insertions").u64(m.cache_insertions);
        w.key("uncacheable").u64(m.cache_uncacheable);
        w.key("used_bytes").u64(m.cache_used_bytes);
        w.key("budget_bytes").u64(m.cache_budget_bytes);
        w.key("entries").u64(m.cache_entries);
        w.end_object();
        decoder_json(&mut w, "full_decodes", &m.decode_seconds);
        decoder_json(&mut w, "index_builds", &m.index_build_seconds);
        decoder_json(&mut w, "partial_decodes", &m.partial_decode_seconds);
        w.key("partial_blocks_decoded")
            .u64(m.partial_blocks_decoded);
        w.key("partial_blocks_total").u64(m.partial_blocks_spanned);
        w.key("batch").begin_object();
        w.key("gets").u64(m.batch_gets);
        w.key("fields").u64(m.batch_fields);
        w.key("decoded_fields").u64(m.batch_decoded_fields);
        w.key("serial_seconds").f64_sci(m.batch_serial_seconds);
        w.key("batched_seconds").f64_sci(m.batch_batched_seconds);
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// One field as the fetch path hands it back.
struct Fetched {
    /// The field's decoded bytes, or the slice of them the request's range selects.
    bytes: Vec<u8>,
    /// Whether the cache pass had the field.
    from_cache: bool,
    /// Whether a partial (range-limited) decode produced the bytes.
    partial: bool,
}

impl Service for ServerState {
    fn handle(&self, request: &Request) -> Response {
        ServerState::handle(self, request)
    }

    fn metrics_text(&self) -> String {
        self.metrics().render_prometheus()
    }

    fn health(&self) -> Health {
        ServerState::health(self)
    }

    fn lifecycle(&self) -> &Lifecycle {
        &self.lifecycle
    }

    fn request_shutdown(&self) {
        ServerState::request_shutdown(self)
    }

    fn drained(&self) {
        let worker = self.worker.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}
