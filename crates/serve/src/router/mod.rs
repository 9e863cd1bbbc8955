//! `hfzr`, the sharded-fleet router: one protocol endpoint in front of N `hfzd` shards.
//! It speaks the daemon's protocol unchanged (`hfz --addr` works against it), but
//! behind it every `archive/field` key belongs to one shard:
//!
//! ```text
//!                        ┌────────┐ GET a/0, a/3
//!   hfz ── protocol ──▶  │  hfzr  │ ───────────────▶ hfzd shard 0
//!                        │        │ GET a/1
//!                        │ place- │ ───────────────▶ hfzd shard 1
//!                        │ ment   │ GET a/2
//!                        └────────┘ ───────────────▶ hfzd shard 2
//! ```
//!
//! * [`placement`] — the rendezvous (highest-random-weight) table: stable across
//!   restarts, and a shard death moves only the dead shard's keys;
//! * [`fleet`] — shard links (attach to a running daemon, or spawn-and-own an `hfzd`
//!   child) over the redialing [`Connection`](crate::Connection);
//! * [`options`] — the [`Router`] builder (filled from `hfzr` flags or setters) and the
//!   blocking foreground entry point behind the `hfzr` binary;
//! * [`RouterState`], here — the placement table, the shard links and an archive
//!   registry (`name → path + the summary `LOAD` read + which shards hold it`), served
//!   as a [`Service`] on the connection core `hfzd` runs ([`crate::service`]): each
//!   connection thread runs [`RouterState::handle`], blocking on the shard's reply.
//!
//! A shard's liveness is its placement slot, and an archive's field keys and metadata
//! are its summary. Requests dispatch as:
//!
//! * `GET` / `VERIFY` — proxied to the owning shard (verify goes to field 0's owner;
//!   every owning shard holds the whole file, so any of them can verify it);
//! * `GETBATCH` — split by owner, fanned out concurrently (one thread per shard), and
//!   merged back **in request order**;
//! * `LOAD` — the file's manifest names the field keys; the archive is loaded onto
//!   every owning shard;
//! * `LIST` — rendered from the registry by the daemon's own renderer, without asking
//!   any shard;
//! * `STATS` / `METRICS` — summed counters, and the shards' Prometheus families merged
//!   under a `shard` label.
//!
//! ## Failure model
//!
//! Every dispatcher talks to a shard through `RouterState::call`, which classifies the
//! outcome once. Either the shard has something to say — its reply, its own error, or
//! the typed `BUSY` when it is still shedding load after the one `BUSY_BACKOFF` retry
//! (which reaches the client and marks nothing down) — or it is *gone*: a disconnect
//! survived the [`Connection`](crate::Connection)'s own redial. By the time the call
//! returns, a gone shard's placement slot is down, its keys re-resolved against the
//! survivors and the affected archives re-`LOAD`ed onto their new owners.
//! Single-field requests and batch fan-outs then retry once against the new owner —
//! whether the shard died on the first attempt or during its `BUSY` back-off — so
//! clients see one slow request, not an error. The fleet `/healthz` reports one
//! degraded window per absorbed death, then healthy again on the survivors.

pub mod fleet;
pub mod options;
pub mod placement;

pub use fleet::{spawn_shard, ShardLink};
pub use options::{run_foreground, Router, RouterBuilder, RouterHandle, DEFAULT_LISTEN};
pub use placement::{field_key, Placement};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use huffdec_codec::ArchiveSummary;
use huffdec_container::JsonWriter;
use huffdec_metrics::{merge_expositions, parse_prometheus, sum_samples};

use crate::client::ClientError;
use crate::protocol::{list_document, BatchGetItem, GetKind, Request, Response};
use crate::server::Health;
use crate::service::{Lifecycle, Service};

/// Back-off before retrying a shard that answered `BUSY`: long enough for one decode
/// wave, which drains the shard's whole pending queue, short enough that the client
/// just sees one slower request.
const BUSY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(15);

/// One archive the router has placed: where the file lives, the summary `LOAD` read
/// from it, and which shards currently hold it. The summary is the registry's one
/// copy of the file's metadata: its manifest names the fields' routing keys, and
/// `LIST` renders it.
#[derive(Debug)]
struct ArchiveEntry {
    path: String,
    summary: ArchiveSummary,
    /// Shards the archive is currently loaded on (owners, kept current on re-route).
    loaded_on: BTreeSet<usize>,
}

impl ArchiveEntry {
    fn field_count(&self) -> usize {
        self.summary.infos().len()
    }

    /// The key field `index` routes on: its manifest name, or `#<index>` without one.
    fn key(&self, index: usize) -> String {
        let name = self
            .summary
            .manifest()
            .map(|manifest| manifest.entries()[index].name.as_str());
        field_key(name, index)
    }

    /// The live shards owning at least one field of the archive `name`.
    fn owners(&self, placement: &Placement, name: &str) -> BTreeSet<usize> {
        (0..self.field_count())
            .filter_map(|i| placement.owner(name, &self.key(i)))
            .collect()
    }
}

/// The counters of the fleet `STATS` document: each JSON key with the shard
/// Prometheus family summed into it (labelled families sum across their series).
/// Every one is a count but `decode_seconds`.
const FLEET_COUNTERS: [(&str, &str); 8] = [
    ("requests", "hfz_requests_total"),
    ("gets", "hfz_gets_total"),
    ("batch_gets", "hfz_batch_gets_total"),
    ("cache_hits", "hfz_cache_hits_total"),
    ("cache_misses", "hfz_cache_misses_total"),
    ("archives_loaded", "hfz_archives_loaded"),
    ("decodes", "hfz_decode_seconds_count"),
    ("decode_seconds", "hfz_decode_seconds_sum"),
];

/// One row of [`FLEET_COUNTERS`] values.
type CounterRow = [f64; FLEET_COUNTERS.len()];

fn write_counters(w: &mut JsonWriter, row: &CounterRow) {
    for (&(key, _), &value) in FLEET_COUNTERS.iter().zip(row) {
        w.key(key);
        if key == "decode_seconds" {
            w.f64_sci(value);
        } else {
            w.u64(value as u64);
        }
    }
}

/// Shared state of a running router.
pub struct RouterState {
    links: Vec<ShardLink>,
    placement: RwLock<Placement>,
    archives: RwLock<BTreeMap<String, ArchiveEntry>>,
    lifecycle: Lifecycle,
    /// Protocol requests the router handled (its own counter — shard counters only
    /// see the traffic proxied to them).
    requests: AtomicU64,
    /// `(archive, shard)` re-`LOAD`s executed because an owner went down.
    reroutes: AtomicU64,
    /// Requests retried on a surviving shard after a disconnect.
    retries: AtomicU64,
    /// Times a shard was marked down.
    down_events: AtomicU64,
    /// The down-event count the previous `/healthz` check saw: a delta means a shard
    /// died (and its keys were re-routed) since then, which reads as one degraded
    /// window before the fleet reports healthy again on the survivors.
    health_seen: Mutex<u64>,
}

impl RouterState {
    /// A router over the given shard links (their ids must be `0..links.len()`, the
    /// placement slots).
    pub(crate) fn new(links: Vec<ShardLink>) -> RouterState {
        let placement = Placement::new(links.len());
        RouterState {
            links,
            placement: RwLock::new(placement),
            archives: RwLock::new(BTreeMap::new()),
            lifecycle: Lifecycle::default(),
            requests: AtomicU64::new(0),
            reroutes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            down_events: AtomicU64::new(0),
            health_seen: Mutex::new(0),
        }
    }

    /// The shard links, indexed by placement slot.
    pub fn links(&self) -> &[ShardLink] {
        &self.links
    }

    /// Number of fields of an archive the router has placed, when it knows it.
    pub fn archive_field_count(&self, name: &str) -> Option<usize> {
        self.archives().get(name).map(ArchiveEntry::field_count)
    }

    fn archives(&self) -> RwLockReadGuard<'_, BTreeMap<String, ArchiveEntry>> {
        self.archives.read().unwrap_or_else(|p| p.into_inner())
    }

    /// The placement, under its read lock: never hold it across a shard call, whose
    /// failure takes the write lock.
    fn placement(&self) -> RwLockReadGuard<'_, Placement> {
        self.placement.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Fleet health, windowed on down events: the first check after a shard death
    /// reports degraded (the keys have already been re-routed by then); the next
    /// check reads healthy again, now on the surviving shards. No live shard at all
    /// is unhealthy — there is nowhere left to route.
    pub fn health(&self) -> Health {
        if self.lifecycle.is_shutting_down() {
            return Health::Unhealthy("shutting down".to_string());
        }
        let (live, shards) = {
            let placement = self.placement();
            (placement.live_count(), placement.shard_count())
        };
        if live == 0 {
            return Health::Unhealthy("no live shards".to_string());
        }
        let events = self.down_events.load(Ordering::SeqCst);
        let mut seen = self.health_seen.lock().unwrap_or_else(|p| p.into_inner());
        let prev = std::mem::replace(&mut *seen, events);
        if events > prev {
            return Health::Degraded(format!(
                "{} shard(s) marked down in the last window; archives re-routed, {}/{} shards serving",
                events - prev,
                live,
                shards
            ));
        }
        Health::Healthy
    }

    /// Handles one protocol request against the fleet.
    pub fn handle(&self, request: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::List => self.list(),
            Request::Get { archive, field, .. } => self.proxy_field(archive, *field, request),
            Request::GetBatch {
                archive,
                kind,
                fields,
            } => self.get_batch(archive, *kind, fields),
            Request::Verify { archive } => self.proxy_field(archive, 0, request),
            Request::Load { name, path } => self.load_archive(name, path),
            Request::Stats => Response::Stats(self.stats_json()),
            Request::Metrics => Response::Metrics(self.metrics_text()),
            Request::Shutdown => {
                self.lifecycle.request_shutdown();
                Response::ShuttingDown
            }
        }
    }

    /// The live shard owning `(archive, field_index)`. Locks archives, then the
    /// placement: the order `rebalance` takes them in.
    fn owner_of(&self, archive: &str, field: u32) -> Result<usize, String> {
        let archives = self.archives();
        let entry = archives
            .get(archive)
            .ok_or_else(|| format!("archive '{}' is not loaded on the router", archive))?;
        let index = field as usize;
        if index >= entry.field_count() {
            return Err(format!(
                "archive '{}' has {} fields; field {} does not exist",
                archive,
                entry.field_count(),
                field
            ));
        }
        self.placement()
            .owner(archive, &entry.key(index))
            .ok_or_else(|| "no live shards".to_string())
    }

    /// The one shard call: sends `request` to `shard` and classifies how it ended, in
    /// the protocol's own terms — every dispatcher below consumes this instead of
    /// matching transport errors itself. `Some` is what the shard has to say: its
    /// reply; `Response::Busy` when it is alive but still shedding load after the one
    /// backed-off retry (one decode wave drains its whole queue; it is never
    /// marked down for it); or `Response::Error` with the shard's own message, or a
    /// transport failure that is not a disconnect. `None` means the shard is gone —
    /// a disconnect survived the link's own redial — and its placement slot is down,
    /// counted once as a down event. Its archives are **not** re-homed here, which
    /// is what lets [`RouterState::rebalance`] call this under its write lock;
    /// everyone else goes through [`RouterState::call`].
    fn call_shard(&self, shard: usize, request: &Request) -> Option<Response> {
        let link = &self.links[shard];
        let mut result = link.request(request);
        if matches!(result, Err(ClientError::Busy)) {
            std::thread::sleep(BUSY_BACKOFF);
            result = link.request(request);
        }
        match result {
            Ok(response) => Some(response),
            Err(ClientError::Busy) => Some(Response::Busy),
            Err(ClientError::Remote(message)) => Some(Response::Error(message)),
            Err(e) if e.is_disconnect() => {
                let was_live = self
                    .placement
                    .write()
                    .unwrap_or_else(|p| p.into_inner())
                    .mark_down(shard);
                if was_live {
                    self.down_events.fetch_add(1, Ordering::SeqCst);
                }
                None
            }
            Err(e) => Some(Response::Error(format!("shard {}: {}", shard, e))),
        }
    }

    /// [`RouterState::call_shard`], then — when the shard turned out to be gone —
    /// re-homes every archive whose owner set that changed, so the caller can
    /// re-resolve the owner and retry at once.
    fn call(&self, shard: usize, request: &Request) -> Option<Response> {
        let reply = self.call_shard(shard, request);
        if reply.is_none() {
            self.rebalance();
        }
        reply
    }

    /// Proxies a single-field request (`GET`, `VERIFY`) to its owner, failing over
    /// once — to the key's new owner — if the owner is gone. Only that fail-over
    /// counts as a retry: a `BUSY` back-off is not one.
    fn proxy_field(&self, archive: &str, field: u32, request: &Request) -> Response {
        for attempt in 0..2 {
            let owner = match self.owner_of(archive, field) {
                Ok(owner) => owner,
                Err(message) => return Response::Error(message),
            };
            if let Some(response) = self.call(owner, request) {
                return response;
            }
            if attempt == 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
        Response::Error("a re-routed shard went down too; abandoned after one retry".to_string())
    }

    /// `GETBATCH`: split the fields by owning shard, fan the sub-batches out
    /// concurrently (one thread per shard), merge the items back in request order.
    /// Positions whose shard went down go round once more against their new owners;
    /// a second death surfaces to the client. A shard still `BUSY` after its back-off
    /// propagates typed, and a shard that answered with an error (bad field, unknown
    /// archive, …) aborts the whole batch.
    fn get_batch(&self, archive: &str, kind: GetKind, fields: &[u32]) -> Response {
        let mut items: Vec<Option<BatchGetItem>> = vec![None; fields.len()];
        let mut pending: Vec<(usize, u32)> = fields.iter().copied().enumerate().collect();
        for round in 0..2 {
            if pending.is_empty() {
                break;
            }
            if round == 1 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            let mut groups: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();
            for (pos, field) in pending.drain(..) {
                match self.owner_of(archive, field) {
                    Ok(owner) => groups.entry(owner).or_default().push((pos, field)),
                    Err(message) => return Response::Error(message),
                }
            }
            let replies: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|(shard, positions)| {
                        scope.spawn(move || {
                            let sub = Request::GetBatch {
                                archive: archive.to_string(),
                                kind,
                                fields: positions.iter().map(|&(_, f)| f).collect(),
                            };
                            let reply = self.call(shard, &sub);
                            (shard, positions, reply)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fan-out thread panicked"))
                    .collect()
            });
            for (shard, positions, reply) in replies {
                match reply {
                    Some(Response::GetBatch { items: got, .. }) if got.len() == positions.len() => {
                        for ((pos, _), item) in positions.into_iter().zip(got) {
                            items[pos] = Some(item);
                        }
                    }
                    Some(refusal @ (Response::Busy | Response::Error(_))) => return refusal,
                    Some(_) => {
                        return Response::Error(format!(
                            "shard {} sent an unexpected batch response",
                            shard
                        ))
                    }
                    None => pending.extend(positions),
                }
            }
        }
        match items.into_iter().collect::<Option<Vec<_>>>() {
            Some(items) => Response::GetBatch { kind, items },
            None => Response::Error(
                "a re-routed shard went down too; batch abandoned after one retry".to_string(),
            ),
        }
    }

    /// `LOAD`: read the file's summary locally (manifest and per-field metadata),
    /// compute the owner set, load the archive onto every owning shard, and record
    /// the summary and the placement in the registry.
    fn load_archive(&self, name: &str, path: &str) -> Response {
        let summary = match ArchiveSummary::open(path) {
            Ok(summary) => summary,
            Err(e) => return Response::Error(format!("cannot load '{}': {}", name, e)),
        };
        let mut entry = ArchiveEntry {
            path: path.to_string(),
            summary,
            loaded_on: BTreeSet::new(),
        };
        let load = Request::Load {
            name: name.to_string(),
            path: path.to_string(),
        };
        // Owners may die while we load onto them; every death re-resolves the owner
        // set and starts over (idempotent — `loaded` skips shards already done).
        let mut loaded: BTreeSet<usize> = BTreeSet::new();
        let owners = 'place: loop {
            let owners = entry.owners(&self.placement(), name);
            if owners.is_empty() {
                return Response::Error("no live shards".to_string());
            }
            for &shard in &owners {
                if loaded.contains(&shard) {
                    continue;
                }
                match self.call(shard, &load) {
                    Some(Response::Loaded { .. }) => {
                        loaded.insert(shard);
                    }
                    Some(Response::Error(message)) => {
                        return Response::Error(format!("cannot load '{}': {}", name, message));
                    }
                    Some(_) => {
                        return Response::Error(format!(
                            "shard {} sent an unexpected load response",
                            shard
                        ));
                    }
                    None => continue 'place,
                }
            }
            break owners;
        };
        entry.loaded_on = owners;
        let fields = entry.field_count() as u32;
        self.archives
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(name.to_string(), entry);
        Response::Loaded { fields }
    }

    /// Re-`LOAD`s archives onto shards that became owners after a death. A survivor
    /// dying *during* the re-home has been marked down by the time its call returns,
    /// and the pass restarts on the new placement (the `loaded_on` sets make it
    /// idempotent); the loop terminates because each restart removes one shard.
    fn rebalance(&self) {
        'pass: loop {
            let mut archives = self.archives.write().unwrap_or_else(|p| p.into_inner());
            for (name, entry) in archives.iter_mut() {
                let load = Request::Load {
                    name: name.clone(),
                    path: entry.path.clone(),
                };
                let owners = entry.owners(&self.placement(), name);
                for shard in owners {
                    if entry.loaded_on.contains(&shard) {
                        continue;
                    }
                    match self.call_shard(shard, &load) {
                        Some(Response::Loaded { .. }) => {
                            entry.loaded_on.insert(shard);
                            self.reroutes.fetch_add(1, Ordering::Relaxed);
                        }
                        // A shard that *answered* but could not load (file gone on
                        // its host, corrupt read) keeps serving its other archives;
                        // requests routed to it for this one will surface the
                        // shard's error verbatim.
                        Some(_) => {}
                        None => continue 'pass,
                    }
                }
                let placement = self.placement();
                entry.loaded_on.retain(|&s| placement.is_live(s));
            }
            return;
        }
    }

    /// `LIST`, rendered from the registry: the archives loaded through the router.
    fn list(&self) -> Response {
        let archives = self.archives();
        Response::List(list_document(archives.iter().map(|(name, entry)| {
            let summary = &entry.summary;
            (
                name.as_str(),
                entry.path.as_str(),
                summary.manifest(),
                summary.infos(),
            )
        })))
    }

    /// Scrapes every live shard's registry; shards that are down, or die being asked,
    /// yield `None`.
    fn scrape_shards(&self) -> Vec<Option<String>> {
        self.links
            .iter()
            .map(|link| {
                if !self.placement().is_live(link.id()) {
                    return None;
                }
                match self.call(link.id(), &Request::Metrics) {
                    Some(Response::Metrics(text)) => Some(text),
                    _ => None,
                }
            })
            .collect()
    }

    /// The fleet `STATS` document: per-shard rows, fleet sums, and the router's own
    /// counters. Fleet numbers are *sums of the shard rows* by construction, which is
    /// the invariant the fleet tests pin.
    fn stats_json(&self) -> String {
        let rows: Vec<Option<CounterRow>> = self
            .scrape_shards()
            .iter()
            .map(|text| {
                let samples = parse_prometheus(text.as_deref()?).ok()?;
                Some(FLEET_COUNTERS.map(|(_, family)| sum_samples(&samples, family, &[])))
            })
            .collect();
        let mut fleet: CounterRow = [0.0; FLEET_COUNTERS.len()];
        for row in rows.iter().flatten() {
            for (total, value) in fleet.iter_mut().zip(row) {
                *total += value;
            }
        }
        let archives = self.archives().len();
        let up = rows.iter().filter(|row| row.is_some()).count();
        let mut w = JsonWriter::with_capacity(1024);
        w.begin_object();
        w.key("role").str("router");
        w.key("shards_total").u64(self.links.len() as u64);
        w.key("shards_up").u64(up as u64);
        w.key("fleet").begin_object();
        write_counters(&mut w, &fleet);
        w.end_object();
        w.key("shards").begin_array();
        for (link, row) in self.links.iter().zip(&rows) {
            w.begin_object();
            w.key("shard").u64(link.id() as u64);
            w.key("addr").str(&link.addr().to_string());
            w.key("up").bool(row.is_some());
            write_counters(&mut w, &row.unwrap_or([0.0; FLEET_COUNTERS.len()]));
            w.end_object();
        }
        w.end_array();
        w.key("router").begin_object();
        w.key("requests").u64(self.requests.load(Ordering::Relaxed));
        w.key("archives").u64(archives as u64);
        w.key("reroutes").u64(self.reroutes.load(Ordering::Relaxed));
        w.key("retries").u64(self.retries.load(Ordering::Relaxed));
        w.key("down_events")
            .u64(self.down_events.load(Ordering::SeqCst));
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// The fleet `/metrics` document: the router's own series, then every shard's
    /// families merged under a `shard` label (so fleet totals are plain sums and
    /// per-shard series stay addressable).
    pub fn metrics_text(&self) -> String {
        let scraped = self.scrape_shards();
        let labels: Vec<String> = (0..self.links.len()).map(|i| i.to_string()).collect();
        let parts: Vec<(&str, &str)> = scraped
            .iter()
            .enumerate()
            .filter_map(|(i, text)| text.as_deref().map(|t| (labels[i].as_str(), t)))
            .collect();
        let merged = merge_expositions(&parts)
            .unwrap_or_else(|e| format!("# shard expositions could not be merged: {}\n", e));
        let mut out = String::with_capacity(merged.len() + 1024);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} counter\n{} {}\n",
                name, help, name, name, value
            ));
        };
        out.push_str("# HELP hfzr_shard_up Shard link state (1 = serving, 0 = marked down).\n");
        out.push_str("# TYPE hfzr_shard_up gauge\n");
        let placement = self.placement();
        for link in &self.links {
            out.push_str(&format!(
                "hfzr_shard_up{{shard=\"{}\"}} {}\n",
                link.id(),
                u8::from(placement.is_live(link.id()))
            ));
        }
        drop(placement);
        counter(
            &mut out,
            "hfzr_requests_total",
            "Protocol requests handled by the router.",
            self.requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hfzr_reroutes_total",
            "Archive re-loads executed because an owning shard went down.",
            self.reroutes.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hfzr_retries_total",
            "Requests retried on a surviving shard after a disconnect.",
            self.retries.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "hfzr_shard_down_events_total",
            "Times a shard was marked down.",
            self.down_events.load(Ordering::SeqCst),
        );
        out.push_str(&merged);
        out
    }
}

impl std::fmt::Debug for RouterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterState")
            .field("links", &self.links)
            .field("shutdown", &self.lifecycle.is_shutting_down())
            .finish_non_exhaustive()
    }
}

impl Service for RouterState {
    fn handle(&self, request: &Request) -> Response {
        RouterState::handle(self, request)
    }

    fn metrics_text(&self) -> String {
        RouterState::metrics_text(self)
    }

    fn health(&self) -> Health {
        RouterState::health(self)
    }

    fn lifecycle(&self) -> &Lifecycle {
        &self.lifecycle
    }

    /// With every client connection gone, spawned shards are asked to exit too
    /// (attached shards are left running).
    fn drained(&self) {
        for link in &self.links {
            link.shutdown_spawned();
        }
    }
}
