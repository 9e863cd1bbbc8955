//! The router itself: one protocol endpoint in front of N `hfzd` shards.
//!
//! [`RouterState`] owns the [`Placement`] table, the shard links, and an archive
//! registry (`name → path + field keys + which shards hold it`). Requests dispatch
//! as:
//!
//! * `GET` / `VERIFY` — proxied to the owning shard (verify goes to field 0's owner;
//!   every owning shard holds the whole file, so any of them can verify it);
//! * `GETBATCH` — split by owner, fanned out concurrently (one thread per shard),
//!   and merged back **in request order**;
//! * `LOAD` — the router peeks the file's manifest for field names, computes the
//!   owner set, and loads the archive onto every owning shard;
//! * `LIST` — the union of the live shards' documents, deduplicated by archive name;
//! * `STATS` / `METRICS` — fleet aggregation: summed counters and the shards'
//!   Prometheus families merged under a `shard` label.
//!
//! Connections, threads and shutdown are [`huffdec_serve::service`]'s — the same
//! accept loop `hfzd` runs — with [`RouterState`] plugged in as its
//! [`Service`]: each connection thread runs
//! [`RouterState::handle`] to completion, blocking on the owning shard's reply.
//!
//! **One shard call.** Every dispatcher above talks to a shard through
//! `RouterState::call`, which classifies the outcome once. Either the shard has
//! something to say — its reply, its own error message, or the typed `BUSY` when it
//! is alive but still shedding load after the one `BUSY_BACKOFF` retry (which
//! propagates to the client and never marks anything down) — or it is *gone*: a
//! disconnect survived the [`Connection`](huffdec_serve::Connection)'s own redial.
//! By the time the call returns, a gone shard has been marked down, its keys
//! re-resolved against the survivors (rendezvous hashing moves *only* the dead
//! shard's keys) and the affected archives re-`LOAD`ed onto their new owners.
//! Single-field requests and batch fan-outs then retry once against the new owner —
//! whether the shard died on the first attempt or during its `BUSY` back-off — so
//! clients see one slow request, not an error.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use huffdec_codec::ArchiveSummary;
use huffdec_container::JsonWriter;
use huffdec_metrics::{merge_expositions, parse_prometheus, sum_samples, Sample};
use huffdec_serve::client::ClientError;
use huffdec_serve::protocol::{BatchGetItem, GetKind, Request, Response};
use huffdec_serve::server::Health;
use huffdec_serve::service::{Lifecycle, Service};

use crate::fleet::ShardLink;
use crate::placement::{field_key, Placement};

/// Back-off before retrying a shard that answered `BUSY`: long enough for one decode
/// wave, which drains the shard's whole pending queue, short enough that the client
/// just sees one slower request.
const BUSY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(15);

/// One archive the router has placed: where the file lives, how its fields are
/// keyed, and which shards currently hold it.
#[derive(Debug, Clone)]
struct ArchiveEntry {
    path: String,
    /// Per-field manifest names (`None` for manifest-less files, keyed `#<index>`).
    fields: Vec<Option<String>>,
    /// Shards the archive is currently loaded on (owners, kept current on re-route).
    loaded_on: BTreeSet<usize>,
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
        self.archives
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .map(|entry| entry.fields.len())
    }

    fn read_placement(&self) -> Placement {
        self.placement
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Fleet health, windowed on down events: the first check after a shard death
    /// reports degraded (the keys have already been re-routed by then); the next
    /// check reads healthy again, now on the surviving shards. No live shard at all
    /// is unhealthy — there is nowhere left to route.
    pub fn health(&self) -> Health {
        if self.lifecycle.is_shutting_down() {
            return Health::Unhealthy("shutting down".to_string());
        }
        let placement = self.read_placement();
        if placement.live_count() == 0 {
            return Health::Unhealthy("no live shards".to_string());
        }
        let events = self.down_events.load(Ordering::SeqCst);
        let mut seen = self.health_seen.lock().unwrap_or_else(|p| p.into_inner());
        let prev = std::mem::replace(&mut *seen, events);
        if events > prev {
            return Health::Degraded(format!(
                "{} shard(s) marked down in the last window; archives re-routed, {}/{} shards serving",
                events - prev,
                placement.live_count(),
                placement.shard_count()
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

    /// The live shard owning `(archive, field_index)`.
    fn owner_of(&self, archive: &str, field: u32) -> Result<usize, String> {
        let archives = self.archives.read().unwrap_or_else(|p| p.into_inner());
        let entry = archives
            .get(archive)
            .ok_or_else(|| format!("archive '{}' is not loaded on the router", archive))?;
        let index = field as usize;
        if index >= entry.fields.len() {
            return Err(format!(
                "archive '{}' has {} fields; field {} does not exist",
                archive,
                entry.fields.len(),
                field
            ));
        }
        let key = field_key(entry.fields[index].as_deref(), index);
        self.read_placement()
            .owner(archive, &key)
            .ok_or_else(|| "no live shards".to_string())
    }

    /// The one shard call: sends `request` to `shard` and classifies how it ended, in
    /// the protocol's own terms — every dispatcher below consumes this instead of
    /// matching transport errors itself. `Some` is what the shard has to say: its
    /// reply; `Response::Busy` when it is alive but still shedding load after the one
    /// backed-off retry (one decode wave drains its whole queue; it is never
    /// marked down for it); or `Response::Error` with the shard's own message, or a
    /// transport failure that is not a disconnect. `None` means the shard is gone —
    /// a disconnect survived the link's own redial — and has been marked down: flag,
    /// down-event counter, placement. Its archives are **not** re-homed here, which
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
                if link.set_down() {
                    self.down_events.fetch_add(1, Ordering::SeqCst);
                    self.placement
                        .write()
                        .unwrap_or_else(|p| p.into_inner())
                        .mark_down(shard);
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

    /// The live shards owning at least one field of an archive.
    fn owners_of(placement: &Placement, name: &str, fields: &[Option<String>]) -> BTreeSet<usize> {
        fields
            .iter()
            .enumerate()
            .filter_map(|(i, f)| placement.owner(name, &field_key(f.as_deref(), i)))
            .collect()
    }

    /// `LOAD`: peek the file's manifest locally for field names, compute the owner
    /// set, load the archive onto every owning shard, and record the placement.
    fn load_archive(&self, name: &str, path: &str) -> Response {
        let summary = match ArchiveSummary::open(path) {
            Ok(summary) => summary,
            Err(e) => return Response::Error(format!("cannot load '{}': {}", name, e)),
        };
        let fields: Vec<Option<String>> = match summary.manifest() {
            Some(manifest) => manifest.names().map(|n| Some(n.to_string())).collect(),
            None => vec![None; summary.infos().len()],
        };
        if fields.is_empty() {
            return Response::Error(format!("cannot load '{}': the file has no fields", name));
        }
        let load = Request::Load {
            name: name.to_string(),
            path: path.to_string(),
        };
        // Owners may die while we load onto them; every death re-resolves the owner
        // set and starts over (idempotent — `loaded` skips shards already done).
        let mut loaded: BTreeSet<usize> = BTreeSet::new();
        let owners = 'place: loop {
            let owners = Self::owners_of(&self.read_placement(), name, &fields);
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
        let entry = ArchiveEntry {
            path: path.to_string(),
            fields: fields.clone(),
            loaded_on: owners,
        };
        self.archives
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(name.to_string(), entry);
        Response::Loaded {
            fields: fields.len() as u32,
        }
    }

    /// Re-`LOAD`s archives onto shards that became owners after a death. A survivor
    /// dying *during* the re-home has been marked down by the time its call returns,
    /// and the pass restarts on the new placement (the `loaded_on` sets make it
    /// idempotent); the loop terminates because each restart removes one shard.
    fn rebalance(&self) {
        'pass: loop {
            let placement = self.read_placement();
            let mut archives = self.archives.write().unwrap_or_else(|p| p.into_inner());
            for (name, entry) in archives.iter_mut() {
                let load = Request::Load {
                    name: name.clone(),
                    path: entry.path.clone(),
                };
                for shard in Self::owners_of(&placement, name, &entry.fields) {
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
                entry.loaded_on.retain(|&s| !self.links[s].is_down());
            }
            return;
        }
    }

    /// `LIST`: the union of the live shards' documents, deduplicated by archive name
    /// and sorted for a stable fleet view.
    fn list(&self) -> Response {
        let mut merged: BTreeMap<String, String> = BTreeMap::new();
        for link in self.links.iter().filter(|link| !link.is_down()) {
            match self.call(link.id(), &Request::List) {
                Some(Response::List(doc)) => {
                    for object in archive_objects(&doc) {
                        let name = object_name(&object).unwrap_or_default().to_string();
                        merged.entry(name).or_insert(object);
                    }
                }
                Some(refusal @ Response::Error(_)) => return refusal,
                Some(_) => {
                    return Response::Error(format!(
                        "shard {} sent an unexpected list response",
                        link.id()
                    ))
                }
                None => {}
            }
        }
        let objects: Vec<String> = merged.into_values().collect();
        Response::List(format!("{{\"archives\":[{}]}}", objects.join(",")))
    }

    /// The counters the fleet `STATS` document reports, pulled from one shard's
    /// Prometheus exposition (labelled families sum across their series).
    fn shard_counters(samples: &[Sample]) -> ShardCounters {
        let total = |name: &str| sum_samples(samples, name, &[]);
        ShardCounters {
            requests: total("hfz_requests_total") as u64,
            gets: total("hfz_gets_total") as u64,
            batch_gets: total("hfz_batch_gets_total") as u64,
            cache_hits: total("hfz_cache_hits_total") as u64,
            cache_misses: total("hfz_cache_misses_total") as u64,
            archives_loaded: total("hfz_archives_loaded") as u64,
            decodes: total("hfz_decode_seconds_count") as u64,
            decode_seconds: total("hfz_decode_seconds_sum"),
        }
    }

    /// Scrapes every live shard's registry; shards that are down, or die being asked,
    /// yield `None`.
    fn scrape_shards(&self) -> Vec<Option<String>> {
        self.links
            .iter()
            .map(|link| {
                if link.is_down() {
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
        let scraped = self.scrape_shards();
        let counters: Vec<Option<ShardCounters>> = scraped
            .iter()
            .map(|text| {
                text.as_deref()
                    .and_then(|t| parse_prometheus(t).ok())
                    .map(|samples| Self::shard_counters(&samples))
            })
            .collect();
        let mut fleet = ShardCounters::default();
        for c in counters.iter().flatten() {
            fleet.add(c);
        }
        let archives = self.archives.read().unwrap_or_else(|p| p.into_inner());
        let up = counters.iter().filter(|c| c.is_some()).count();
        let mut w = JsonWriter::with_capacity(1024);
        w.begin_object();
        w.key("role").str("router");
        w.key("shards_total").u64(self.links.len() as u64);
        w.key("shards_up").u64(up as u64);
        w.key("fleet").begin_object();
        fleet.write(&mut w);
        w.end_object();
        w.key("shards").begin_array();
        for (link, counters) in self.links.iter().zip(&counters) {
            w.begin_object();
            w.key("shard").u64(link.id() as u64);
            w.key("addr").str(&link.addr().to_string());
            w.key("up").bool(counters.is_some());
            counters.clone().unwrap_or_default().write(&mut w);
            w.end_object();
        }
        w.end_array();
        w.key("router").begin_object();
        w.key("requests").u64(self.requests.load(Ordering::Relaxed));
        w.key("archives").u64(archives.len() as u64);
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
        for link in &self.links {
            out.push_str(&format!(
                "hfzr_shard_up{{shard=\"{}\"}} {}\n",
                link.id(),
                if link.is_down() { 0 } else { 1 }
            ));
        }
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

/// The counters one shard contributes to the fleet `STATS` document.
#[derive(Debug, Clone, Default)]
struct ShardCounters {
    requests: u64,
    gets: u64,
    batch_gets: u64,
    cache_hits: u64,
    cache_misses: u64,
    archives_loaded: u64,
    decodes: u64,
    decode_seconds: f64,
}

impl ShardCounters {
    fn add(&mut self, other: &ShardCounters) {
        self.requests += other.requests;
        self.gets += other.gets;
        self.batch_gets += other.batch_gets;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.archives_loaded += other.archives_loaded;
        self.decodes += other.decodes;
        self.decode_seconds += other.decode_seconds;
    }

    fn write(&self, w: &mut JsonWriter) {
        w.key("requests").u64(self.requests);
        w.key("gets").u64(self.gets);
        w.key("batch_gets").u64(self.batch_gets);
        w.key("cache_hits").u64(self.cache_hits);
        w.key("cache_misses").u64(self.cache_misses);
        w.key("archives_loaded").u64(self.archives_loaded);
        w.key("decodes").u64(self.decodes);
        w.key("decode_seconds").f64_sci(self.decode_seconds);
    }
}

/// Splits a daemon `LIST` document into its per-archive JSON objects (the elements
/// of the top-level `"archives"` array), string- and escape-aware.
fn archive_objects(doc: &str) -> Vec<String> {
    let marker = "\"archives\":[";
    let Some(start) = doc.find(marker) else {
        return Vec::new();
    };
    let bytes = doc.as_bytes();
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut object_start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for i in start + marker.len()..bytes.len() {
        let b = bytes[i];
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    object_start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    objects.push(doc[object_start..=i].to_string());
                }
            }
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    objects
}

/// The (JSON-escaped) value of the first `"name"` key in an archive object — the
/// daemon writes it first, and the escaped form is consistent across shards, which is
/// all deduplication and sorting need.
fn object_name(object: &str) -> Option<&str> {
    let rest = object.split("\"name\":\"").nth(1)?;
    let bytes = rest.as_bytes();
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            return Some(&rest[..i]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_documents_split_into_archive_objects() {
        let doc = r#"{"archives":[{"name":"a","path":"/x","fields":[{"name":"f0","bytes":3}]},{"name":"b {tricky}","path":"/y","fields":[]}]}"#;
        let objects = archive_objects(doc);
        assert_eq!(objects.len(), 2);
        assert_eq!(object_name(&objects[0]), Some("a"));
        assert_eq!(object_name(&objects[1]), Some("b {tricky}"));
        assert!(objects[0].contains("\"fields\""));
        // Escaped quotes inside names do not end the scan early.
        let escaped = r#"{"archives":[{"name":"q\"uote","path":"/z"}]}"#;
        let objects = archive_objects(escaped);
        assert_eq!(objects.len(), 1);
        assert_eq!(object_name(&objects[0]), Some(r#"q\"uote"#));
        // Documents without the array, or empty, yield nothing.
        assert!(archive_objects("{}").is_empty());
        assert!(archive_objects(r#"{"archives":[]}"#).is_empty());
    }
}
