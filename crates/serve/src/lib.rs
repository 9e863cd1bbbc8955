//! # huffdec-serve — the `hfzd` block-decode daemon and the `hfzr` fleet router
//!
//! The serving layer of the workspace: a long-running daemon that holds `HFZ1` archives
//! *compressed in memory* and serves decoded fields (or ranges of them) to clients over
//! a Unix-domain or TCP socket, and a router that shards them across a fleet of such
//! daemons. This is the paper's §V GAMESS scenario — decompression latency, not
//! compression, is the bottleneck when snapshots live compressed and fields are
//! decoded on demand — built as the cuSZ-style "compression service around the
//! kernel" rather than a one-shot CLI.
//!
//! The crate splits into:
//!
//! * [`protocol`] — the length-prefixed binary request/response format
//!   (`LIST`/`GET`/`STATS`/`VERIFY`/`LOAD`/`SHUTDOWN`, plus the `BUSY` overload reply);
//! * [`net`] — `tcp:HOST:PORT` / `unix:PATH` transport;
//! * [`store`] — the parse-once archive store: section tables, decode structures, and
//!   lazily built range-decode indexes, all cached per loaded archive;
//! * [`cache`] — the decoded-field LRU: bytes-budgeted, shared across requests;
//! * [`server`] — the daemon's shared state: [`ServerState::handle`] answers one
//!   request, with a single-flight/wave scheduler feeding one decode-worker thread;
//! * [`service`] — the connection core `hfzd` and the `hfzr` router both run on: one
//!   blocking accept loop, a thread per connection, and the spawn → handle →
//!   shutdown → join lifecycle;
//! * `http` — the observability sidecar `service::spawn` binds on request:
//!   `GET /metrics` (Prometheus text exposition) and `GET /healthz` over plain
//!   HTTP/1.1;
//! * [`client`] — the synchronous [`Connection`] used by `hfz get`, the router's
//!   shard links, and friends;
//! * [`flags`] — the `--flag VALUE` cursor the `hfzd` and `hfzr` parsers share;
//! * [`daemon`] — the [`Daemon`] builder (filled from flags or setters) and the
//!   blocking foreground entry point shared by `hfzd` and `hfz serve`;
//! * [`router`] — `hfzr`, N `hfzd` shards behind one endpoint on the same [`service`]
//!   core: key placement, proxying and fan-out, failover, fleet `STATS`/`METRICS`.
//!
//! ## Request flow
//!
//! Every connection has its own thread, which reads a frame, runs
//! [`ServerState::handle`] to completion and writes the reply. A full-field `GET`
//! checks the LRU first. On a miss the thread submits the field to the scheduler and
//! blocks on the decode's flight slot; other connections keep being served by their
//! own threads. Concurrent misses of the same field coalesce into one decode
//! (single-flight) whose result fans back out to every waiter; the decode worker,
//! whenever it is free, takes every pending miss as one batched decode wave, so
//! misses that arrive while a wave decodes form the next one. When the
//! pending-decode queue is full the daemon sheds load with the typed `BUSY` reply
//! instead of queueing unboundedly. A *ranged* code request that misses the cache
//! takes the partial path instead: the field's decode index (subsequence states +
//! output-index prefix sums, built once) maps the symbol range to the decode blocks
//! that produce it, and only those blocks are decoded — `Codec::decompress_range`.
//!
//! ## Example
//!
//! ```no_run
//! use huffdec_serve::client::Connection;
//! use huffdec_serve::net::ListenAddr;
//! use huffdec_serve::protocol::GetKind;
//!
//! let addr = ListenAddr::parse("tcp:127.0.0.1:4806").unwrap();
//! let mut conn = Connection::connect(&addr).unwrap();
//! conn.load("hacc", "/data/hacc.hfz").unwrap();
//! let field = conn.get("hacc", 0, GetKind::Data, None).unwrap();
//! println!("{} elements, cached: {}", field.elements, field.from_cache);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod flags;
mod http;
pub mod net;
pub mod protocol;
pub mod router;
mod sched;
pub mod server;
pub mod service;
pub mod store;

pub use cache::{CacheKey, DecodedLru};
pub use client::{ClientError, Connection, GetResult, RetryPolicy};
pub use daemon::{Daemon, DaemonBuilder, ServerHandle};
pub use http::SCRAPE_TIMEOUT;
pub use huffdec_codec::{
    ArchiveHandle, Backend, BackendKind, Codec, FieldHandle, HfzError, Metrics, MetricsSnapshot,
};
pub use net::{ListenAddr, Listener};
pub use protocol::{GetKind, ProtocolError, Request, Response};
pub use server::{Health, ServerState};
pub use service::{Lifecycle, Service, ServiceHandle};
pub use store::{ArchiveStore, LoadedArchive};
