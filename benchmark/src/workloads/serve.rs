//! The serving workloads: closed-loop clients against an in-process daemon or fleet.
//!
//! All three serve the same 32 small fields and differ in where the work lands:
//!
//! * `serve_hot` — `tcp:`, everything cached: transport, reactor, cache and response
//!   encode do all the work, decode none;
//! * `serve_cold` — `unix:`, a cache of four fields swept so that it never hits, with
//!   batches and ranged code requests mixed in: scheduler wait, wave decode of small
//!   fields, reconstruct, insert and evict;
//! * `fleet_mixed` — a router over four shards, Zipf popularity, about three hits in
//!   four: the only workload in which the router does work.
//!
//! The load is closed-loop because the callers are analysis codes that wait for each
//! field before asking for the next.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use huffdec::datasets::Field;
use huffdec::metrics::parse_prometheus;
use huffdec::router::placement::{field_key, Placement};
use huffdec::router::{Router, RouterHandle};
use huffdec::serve::net::{connect, Conn};
use huffdec::serve::protocol::{read_frame, write_frame, MAX_REQUEST_BYTES, MAX_RESPONSE_BYTES};
use huffdec::serve::{Connection, Daemon, GetKind, ListenAddr, Request, Response, ServerHandle};
use huffdec::{BackendKind, Codec, Compressed, DecoderKind, MetricsSnapshot};

use super::{
    check_roundtrip, dense_codec, f32_le_bytes, sparse_codec, u16_le_bytes, Budget, Ctx, Measured,
    OpClass, OpSample, ServeCounts, Tally, Workload,
};
use crate::inputs::{self, Rng, Zipf};
use crate::trace::{Recorder, Tracer};

/// Name the served archive is loaded under.
pub const ARCHIVE: &str = "snap";

/// Fields per `GETBATCH`.
const BATCH_FIELDS: usize = 4;

/// Elements per ranged `GET Codes`.
pub const RANGE_ELEMENTS: u64 = 4096;

/// Untimed requests each client sends over its socket before the timed region.
const WARM_REQUESTS: usize = 5;

/// In-process requests that settle a fleet's caches into their Zipf steady state.
const FLEET_WARM_DRAWS: usize = 256;

/// Shards of the fleet, and decoded fields each may cache (16 of 32 fleet-wide).
///
/// Four shards, not two: the router holds one connection per shard, so with two
/// closed-loop clients a request waits whenever the other client is on the same shard.
/// On two shards that is every second request, the GET latencies split evenly into a
/// waited and an unwaited mode, and their median falls in the empty gap between the
/// two — anywhere from 49 to 84 ms on identical code. On four shards a quarter wait,
/// the median sits inside the unwaited mode, and the waiting still shows where it
/// belongs: in `throughput_mbps`.
const FLEET_SHARDS: usize = 4;
const FLEET_CACHE_FIELDS: u64 = 4;

/// The request kinds a client sends; each is a span name.
const GET: usize = 0;
const BATCH: usize = 1;
const RANGE: usize = 2;
const REQUEST_SPANS: [&str; 3] = ["client.get", "client.get_batch", "client.get_range"];

/// The sample classes: a full-field GET counts as a hit or a miss by what the reply
/// says, since the two differ by a whole decode.
const GET_HIT: usize = 0;
const GET_MISS: usize = 1;

/// The primary class is the GET outcome the workload is built to produce.
fn classes(kind: Kind) -> Vec<OpClass> {
    let class = |name, primary| OpClass { name, primary };
    vec![
        class("client.get (hit)", kind != Kind::Cold),
        class("client.get (miss)", kind == Kind::Cold),
        class("client.get_batch", false),
        class("client.get_range", false),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Cold,
    Fleet,
}

/// The 32 fields every serving workload serves, compressed and written as one file:
/// 24 dense `HFZ1` archives followed by 8 hybrid `HFZ2` ones (a concatenation is a
/// legal archive file; fields are addressed by index).
pub struct ServedSet {
    pub path: String,
    pub originals: Vec<Field>,
    pub compressed: Vec<Compressed>,
    /// How many leading fields are dense — the ones a ranged code request may name
    /// (hybrid streams have no per-block entry point and refuse ranges).
    pub dense: usize,
    /// Elements of each field (range offsets stay inside them).
    pub elements: Vec<u64>,
    /// Decoded f32 bytes of the largest field; cache budgets are multiples of it.
    pub max_field_bytes: u64,
    pub original_bytes: u64,
    pub archive_bytes: u64,
}

impl ServedSet {
    pub fn build(ctx: &Ctx, file_name: &str) -> ServedSet {
        let (dense_fields, sparse_fields) = inputs::served_fields(ctx.seed);
        let (dense, sparse) = (dense_codec(DecoderKind::OptimizedGapArray), sparse_codec());
        let mut bytes = Vec::new();
        let mut compressed = Vec::new();
        for (codec, fields) in [(&dense, &dense_fields), (&sparse, &sparse_fields)] {
            for field in fields {
                let c = codec.compress_archive(field).expect("non-empty field");
                bytes.extend(codec.archive_to_bytes(&c).expect("serializes"));
                compressed.push(c);
            }
        }
        let path = ctx.dir.join(file_name);
        std::fs::write(&path, &bytes).expect("archive file writes");
        let dense_count = dense_fields.len();
        let originals: Vec<Field> = dense_fields.into_iter().chain(sparse_fields).collect();
        ServedSet {
            path: path.to_str().expect("utf-8 scratch path").to_string(),
            dense: dense_count,
            elements: originals.iter().map(|f| f.len() as u64).collect(),
            max_field_bytes: originals.iter().map(Field::bytes).max().unwrap_or(0),
            original_bytes: originals.iter().map(Field::bytes).sum(),
            archive_bytes: bytes.len() as u64,
            originals,
            compressed,
        }
    }

    pub fn len(&self) -> usize {
        self.originals.len()
    }
}

/// What each reply must equal, byte for byte: the direct `Codec` result for the same
/// field of the same file.
pub struct Expected {
    pub data: Vec<Vec<u8>>,
    /// Decoded codes of the dense fields (ranged requests are slices of these).
    pub codes: Vec<Vec<u8>>,
}

impl Expected {
    pub fn compute(codec: &Codec, set: &ServedSet) -> Expected {
        let handle = codec.open_archive(&set.path).expect("served file opens");
        let data = handle
            .fields()
            .iter()
            .map(|f| f32_le_bytes(&codec.decompress_field(f).expect("direct decode").data))
            .collect();
        let codes = handle.fields()[..set.dense]
            .iter()
            .map(|f| u16_le_bytes(&codec.decode_field_codes(f).expect("direct decode").symbols))
            .collect();
        Expected { data, codes }
    }
}

/// A client's end of a connection. Untraced runs use the program's own `Connection`;
/// traced runs make the same four calls it makes, with a span around each.
pub enum Link {
    Plain(Connection),
    Raw(Conn),
}

impl Link {
    pub fn connect(addr: &ListenAddr, traced: bool) -> Link {
        if traced {
            Link::Raw(connect(addr).expect("client connects"))
        } else {
            Link::Plain(Connection::connect(addr).expect("client connects"))
        }
    }

    /// One request, one reply. Typed failure replies (`ERROR`, `BUSY`) are errors.
    pub fn exchange(
        &mut self,
        rec: &mut Recorder<'_>,
        parent: u32,
        op_id: u64,
        request: &Request,
    ) -> Result<Response, String> {
        match self {
            Link::Plain(connection) => connection.request(request).map_err(|e| e.to_string()),
            Link::Raw(conn) => {
                let body = rec.child("serve.request_encode", parent, op_id, || request.encode());
                rec.child("net.write_frame", parent, op_id, || {
                    write_frame(conn, &body, MAX_REQUEST_BYTES)
                })
                .map_err(|e| e.to_string())?;
                let reply = rec
                    .child("net.read_frame", parent, op_id, || {
                        read_frame(conn, MAX_RESPONSE_BYTES)
                    })
                    .map_err(|e| e.to_string())?
                    .ok_or("connection closed before the response")?;
                let response = rec
                    .child("serve.response_decode", parent, op_id, || {
                        Response::decode(&reply)
                    })
                    .map_err(|e| e.to_string())?;
                match response {
                    Response::Error(message) => Err(message),
                    Response::Busy => Err("daemon is busy".to_string()),
                    other => Ok(other),
                }
            }
        }
    }
}

pub fn get_request(field: u32, kind: GetKind, range: Option<(u64, u64)>) -> Request {
    Request::Get {
        archive: ARCHIVE.to_string(),
        field,
        kind,
        range,
    }
}

pub fn batch_request(fields: &[u32]) -> Request {
    Request::GetBatch {
        archive: ARCHIVE.to_string(),
        kind: GetKind::Data,
        fields: fields.to_vec(),
    }
}

/// Whether `response` carries exactly the bytes `request` must produce; on success,
/// the payload bytes delivered.
pub fn reply_matches(expected: &Expected, request: &Request, response: &Response) -> Option<u64> {
    match (request, response) {
        (
            Request::Get {
                field,
                kind: GetKind::Data,
                range: None,
                ..
            },
            Response::Get { bytes, .. },
        ) => (*bytes == expected.data[*field as usize]).then_some(bytes.len() as u64),
        (
            Request::Get {
                field,
                kind: GetKind::Codes,
                range: Some((start, len)),
                ..
            },
            Response::Get { bytes, .. },
        ) => {
            let (from, to) = (*start as usize * 2, (*start + *len) as usize * 2);
            (*bytes == expected.codes[*field as usize][from..to]).then_some(bytes.len() as u64)
        }
        (Request::GetBatch { fields, .. }, Response::GetBatch { items, .. }) => {
            let in_order = items.len() == fields.len()
                && items
                    .iter()
                    .zip(fields)
                    .all(|(item, &f)| item.bytes == expected.data[f as usize]);
            in_order.then(|| items.iter().map(|i| i.bytes.len() as u64).sum())
        }
        _ => None,
    }
}

/// A client's request sequence, drawn from the run seed and the client's index.
struct Plan<'a> {
    kind: Kind,
    rng: Rng,
    zipf: &'a Zipf,
    /// The fields this client sweeps in `serve_cold`: every `clients`-th one, so that
    /// two clients never touch the same field and the four-field cache cannot hit.
    lane: Vec<u32>,
    cursor: usize,
    set: &'a ServedSet,
}

impl Plan<'_> {
    fn next_in_lane(&mut self) -> u32 {
        let field = self.lane[self.cursor % self.lane.len()];
        self.cursor += 1;
        field
    }

    fn next(&mut self) -> (usize, Request) {
        let roll = self.rng.next_f64();
        match self.kind {
            Kind::Hot => (
                GET,
                get_request(
                    self.rng.below(self.set.len() as u64) as u32,
                    GetKind::Data,
                    None,
                ),
            ),
            Kind::Cold if roll < 0.70 => {
                (GET, get_request(self.next_in_lane(), GetKind::Data, None))
            }
            Kind::Cold if roll < 0.90 => {
                let fields: Vec<u32> = (0..BATCH_FIELDS).map(|_| self.next_in_lane()).collect();
                (BATCH, batch_request(&fields))
            }
            Kind::Cold => {
                let field = loop {
                    let candidate = self.next_in_lane();
                    if (candidate as usize) < self.set.dense {
                        break candidate;
                    }
                };
                let span = self.set.elements[field as usize] - RANGE_ELEMENTS;
                let start = self.rng.below(span + 1);
                (
                    RANGE,
                    get_request(field, GetKind::Codes, Some((start, RANGE_ELEMENTS))),
                )
            }
            Kind::Fleet if roll < 0.90 => (
                GET,
                get_request(self.zipf.draw(&mut self.rng), GetKind::Data, None),
            ),
            Kind::Fleet => {
                let mut fields: Vec<u32> = Vec::with_capacity(BATCH_FIELDS);
                while fields.len() < BATCH_FIELDS {
                    let f = self.zipf.draw(&mut self.rng);
                    if !fields.contains(&f) {
                        fields.push(f);
                    }
                }
                (BATCH, batch_request(&fields))
            }
        }
    }
}

/// One serving workload's running state.
pub struct Serving {
    kind: Kind,
    set: ServedSet,
    /// The daemon, or the fleet's shards in placement order.
    daemons: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    /// Where clients connect.
    addr: ListenAddr,
    zipf: Zipf,
    expected: Option<Expected>,
    /// Layer counts over the last measuring pass.
    counts: ServeCounts,
}

/// An in-process daemon on `CpuBackend`, optionally with the served file preloaded.
pub fn spawn_daemon(listen: &str, cache_bytes: u64, preload: Option<&str>) -> ServerHandle {
    let mut builder = Daemon::builder()
        .listen(ListenAddr::parse(listen).expect("listen address parses"))
        .cache_bytes(cache_bytes)
        .backend(BackendKind::Cpu);
    if let Some(path) = preload {
        builder = builder.preload(ARCHIVE, path);
    }
    builder.spawn().expect("daemon spawns")
}

pub fn stop_daemon(daemon: ServerHandle) {
    daemon.shutdown();
    daemon.join().expect("daemon exits cleanly");
}

/// The `unix:` address of a socket in the run's scratch directory, relative to the
/// working directory when it can be (socket paths are capped near 100 bytes).
pub fn unix_addr(ctx: &Ctx, name: &str) -> String {
    let path = ctx.dir.join(name);
    let short = std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(|p| p.to_path_buf()))
        .unwrap_or(path);
    format!("unix:{}", short.display())
}

impl Serving {
    fn snapshots(&self) -> Vec<MetricsSnapshot> {
        self.daemons
            .iter()
            .map(|d| d.state().metrics_snapshot())
            .collect()
    }

    /// In-process request straight into a daemon's state, for warm-up that should not
    /// pay the socket.
    fn warm_get(daemon: &ServerHandle, field: u32) {
        let response = daemon
            .state()
            .handle(&get_request(field, GetKind::Data, None));
        assert!(
            matches!(response, Response::Get { .. }),
            "warm-up GET of field {} failed: {:?}",
            field,
            response
        );
    }

    fn plan(&self, ctx: &Ctx, client: usize) -> Plan<'_> {
        Plan {
            kind: self.kind,
            rng: Rng::new(ctx.seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
            zipf: &self.zipf,
            lane: (0..self.set.len() as u32)
                .filter(|f| *f as usize % ctx.clients == client)
                .collect(),
            cursor: 0,
            set: &self.set,
        }
    }
}

impl Workload for Serving {
    fn setup(ctx: &Ctx) -> Self {
        let kind = match ctx.workload {
            "serve_hot" => Kind::Hot,
            "serve_cold" => Kind::Cold,
            _ => Kind::Fleet,
        };
        let set = ServedSet::build(ctx, "served.hfz");
        let field = set.max_field_bytes;
        // Popularity ranks are dealt evenly over the shards that own the fields, so that
        // each shard's share of the traffic is the same for every seed.
        let placement = Placement::new(FLEET_SHARDS);
        let owners: Vec<usize> = (0..set.len())
            .map(|i| {
                placement
                    .owner(ARCHIVE, &field_key(None, i))
                    .expect("a live shard")
            })
            .collect();
        let zipf = Zipf::new(inputs::deal_ranks(&owners, FLEET_SHARDS));
        let (daemons, router, addr) = match kind {
            // The default transport, a cache that holds every field with room to spare.
            Kind::Hot => {
                let daemon = spawn_daemon(
                    "tcp:127.0.0.1:0",
                    field * (set.len() as u64 + 4),
                    Some(&set.path),
                );
                let addr = daemon.local_addr().clone();
                (vec![daemon], None, addr)
            }
            // The co-located scenario: transport nearly free, cache of four fields.
            Kind::Cold => {
                let daemon = spawn_daemon(
                    &unix_addr(ctx, "hfzd.sock"),
                    field * BATCH_FIELDS as u64,
                    Some(&set.path),
                );
                let addr = daemon.local_addr().clone();
                (vec![daemon], None, addr)
            }
            // Shards behind a router, all over tcp; the router places the archive on the
            // shards that own its fields.
            Kind::Fleet => {
                let shards: Vec<ServerHandle> = (0..FLEET_SHARDS)
                    .map(|_| spawn_daemon("tcp:127.0.0.1:0", field * FLEET_CACHE_FIELDS, None))
                    .collect();
                let mut builder = Router::builder()
                    .listen(ListenAddr::parse("tcp:127.0.0.1:0").expect("address parses"))
                    .preload(ARCHIVE, &set.path);
                for shard in &shards {
                    builder = builder.attach(shard.local_addr().clone());
                }
                let router = builder.spawn().expect("router spawns");
                let addr = router.local_addr().clone();
                (shards, Some(router), addr)
            }
        };
        let this = Serving {
            kind,
            set,
            daemons,
            router,
            addr,
            zipf,
            expected: None,
            counts: ServeCounts::default(),
        };

        // Warm until steady. First in process: a full cache fill (hot), one sweep of
        // cold decodes (cold), or enough Zipf draws sent to the owning shard to settle
        // both LRUs (fleet).
        match kind {
            Kind::Hot | Kind::Cold => {
                for field in 0..this.set.len() as u32 {
                    Serving::warm_get(&this.daemons[0], field);
                }
            }
            Kind::Fleet => {
                let mut rng = Rng::new(ctx.seed ^ 0xF1EE7);
                for _ in 0..FLEET_WARM_DRAWS {
                    let field = this.zipf.draw(&mut rng);
                    Serving::warm_get(&this.daemons[owners[field as usize]], field);
                }
            }
        }
        // Then over the sockets the clients will use, so that connection set-up and the
        // router's shard links are paid before the clock starts.
        std::thread::scope(|scope| {
            for client in 0..ctx.clients {
                let this = &this;
                scope.spawn(move || {
                    let tracer = Tracer::new(false);
                    let mut rec = tracer.recorder();
                    let mut link = Link::connect(&this.addr, false);
                    let mut plan = this.plan(ctx, client);
                    for _ in 0..WARM_REQUESTS {
                        let (_, request) = plan.next();
                        link.exchange(&mut rec, 0, 0, &request)
                            .expect("warm-up request");
                    }
                });
            }
        });
        this
    }

    fn measure(&mut self, ctx: &Ctx, budget: Budget, tracer: &Tracer) -> Measured {
        if self.expected.is_none() {
            let codec = dense_codec(DecoderKind::OptimizedGapArray);
            self.expected = Some(Expected::compute(&codec, &self.set));
        }
        let expected = self.expected.as_ref().expect("just computed");
        let before = self.snapshots();

        let barrier = Barrier::new(ctx.clients + 1);
        let this = &*self;
        let (results, wall_s) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..ctx.clients)
                .map(|client| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut rec = tracer.recorder();
                        let mut link = Link::connect(&this.addr, tracer.enabled());
                        let mut plan = this.plan(ctx, client);
                        let mut samples = Vec::new();
                        let mut tally = Tally::default();
                        barrier.wait();
                        let start = Instant::now();
                        for n in 0u64.. {
                            let spent = match budget {
                                Budget::Seconds(s) => start.elapsed() >= Duration::from_secs_f64(s),
                                Budget::Work(requests) => n >= requests,
                            };
                            if spent {
                                break;
                            }
                            let op_id = (client as u64) << 32 | n;
                            let (sent, request) = plan.next();
                            let (reply, seconds) = rec.op(REQUEST_SPANS[sent], op_id, |rec, id| {
                                link.exchange(rec, id, op_id, &request)
                            });
                            let class = match (sent, &reply) {
                                (
                                    GET,
                                    Ok(Response::Get {
                                        from_cache: true, ..
                                    }),
                                ) => GET_HIT,
                                (GET, _) => GET_MISS,
                                (other, _) => other + 1,
                            };
                            let delivered = reply
                                .as_ref()
                                .ok()
                                .and_then(|r| reply_matches(expected, &request, r));
                            if tally.check(delivered.is_some(), || {
                                format!(
                                    "{} {:?}: {}",
                                    REQUEST_SPANS[sent],
                                    request,
                                    reply.as_ref().err().map_or(
                                        "reply differs from the direct Codec result",
                                        String::as_str
                                    )
                                )
                            }) {
                                samples.push(OpSample {
                                    class,
                                    seconds,
                                    bytes: delivered.unwrap_or(0),
                                });
                            }
                        }
                        (samples, tally)
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let results: Vec<_> = workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect();
            (results, start.elapsed().as_secs_f64())
        });

        let mut samples = Vec::new();
        let mut tally = Tally::default();
        for (s, t) in results {
            samples.extend(s);
            tally.absorb(t);
        }

        // Layer counts over this pass: the difference of two registry snapshots.
        let after = self.snapshots();
        let delta = |f: &dyn Fn(&MetricsSnapshot) -> f64| -> f64 {
            after.iter().zip(&before).map(|(a, b)| f(a) - f(b)).sum()
        };
        let hits = delta(&|s| s.cache_hits as f64);
        let misses = delta(&|s| s.cache_misses as f64);
        let waves = delta(&|s| s.sched_waves as f64);
        let per_shard: Vec<f64> = after
            .iter()
            .zip(&before)
            .map(|(a, b)| (a.requests - b.requests) as f64)
            .collect();
        let mean_requests = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        self.counts = ServeCounts {
            hit_ratio: hits / (hits + misses).max(1.0),
            decodes: delta(&|s| s.total_decodes() as f64) as u64,
            waves: waves as u64,
            fields_per_wave: delta(&|s| s.sched_wave_fields as f64) / waves.max(1.0),
            coalesced: delta(&|s| s.sched_coalesced as f64) as u64,
            shed: delta(&|s| s.sched_shed as f64) as u64,
            evictions: delta(&|s| s.cache_evictions as f64) as u64,
            decode_busy_share: delta(&|s| s.total_decode_seconds()) / wall_s.max(1e-9),
            shard_imbalance: per_shard.iter().cloned().fold(0.0, f64::max) / mean_requests.max(1.0),
            router_retries: self.router.as_ref().map_or(0, |r| {
                parse_prometheus(&r.state().metrics_text())
                    .unwrap_or_default()
                    .iter()
                    .find(|sample| sample.name == "hfzr_retries_total")
                    .map_or(0, |sample| sample.value as u64)
            }),
        };

        Measured {
            classes: classes(self.kind),
            samples,
            wall_s,
            tally,
        }
    }

    fn verify(&mut self, tally: &mut Tally) {
        let codec = dense_codec(DecoderKind::OptimizedGapArray);
        let expected = self.expected.as_ref().expect("measure ran first");
        for (i, (field, compressed)) in self
            .set
            .originals
            .iter()
            .zip(&self.set.compressed)
            .enumerate()
        {
            check_roundtrip(
                tally,
                &codec,
                field,
                compressed,
                &expected.data[i],
                &format!("served field {}", i),
            );
            tally.check(
                compressed.decoder().is_hybrid() == (i >= self.set.dense),
                || format!("served field {} has the wrong stream kind", i),
            );
        }
        let ratio = self.counts.hit_ratio;
        match self.kind {
            Kind::Hot => tally.check(ratio >= 0.999, || {
                format!("serve_hot hit ratio {} is below 0.999", ratio)
            }),
            Kind::Cold => tally.check(ratio <= 0.02, || {
                format!("serve_cold hit ratio {} is above 0.02", ratio)
            }),
            Kind::Fleet => true,
        };
        tally.check(self.counts.shed == 0, || {
            format!("{} requests were shed", self.counts.shed)
        });
    }

    fn compression_ratio(&self) -> f64 {
        self.set.original_bytes as f64 / self.set.archive_bytes as f64
    }

    fn serve_counts(&self) -> ServeCounts {
        self.counts.clone()
    }

    fn teardown(self) {
        if let Some(router) = self.router {
            router.shutdown();
            router.join().expect("router exits cleanly");
        }
        self.daemons.into_iter().for_each(stop_daemon);
    }
}
