//! # huffdec-router — the `hfzr` sharded-fleet router
//!
//! One protocol endpoint in front of N `hfzd` daemons. The router speaks the exact
//! same length-prefixed protocol as a single daemon — `hfz --addr` pointed at an
//! `hfzr` works unchanged — but behind it, archives are *sharded*: every
//! `archive/field` key is assigned to one shard by a rendezvous-hash placement
//! table, `GET`/`VERIFY` are proxied to the owner, and `GETBATCH` fans out to all
//! owning shards concurrently and merges the items back in request order.
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
//! The crate splits into:
//!
//! * [`placement`] — the rendezvous (highest-random-weight) table: stable across
//!   restarts, and a shard death moves only the dead shard's keys;
//! * [`fleet`] — shard links (attach to a running daemon, or spawn-and-own an
//!   `hfzd` child) over the redialing [`Connection`](huffdec_serve::Connection);
//! * [`router`] — [`RouterState`] request dispatch, failure
//!   handling (mark down → re-`LOAD` onto survivors → retry once), and fleet
//!   `STATS`/`METRICS` aggregation, served by the connection core it shares with
//!   `hfzd` ([`huffdec_serve::service`]);
//! * [`options`] — the [`Router`] builder (filled from `hfzr` flags or setters) and
//!   the blocking foreground entry point behind the `hfzr` binary.
//!
//! ## Failure model
//!
//! A dead connection that survives the link's redial marks the shard **down**. The
//! placement table re-resolves its keys to the survivors (rendezvous hashing keeps
//! every other key where it was), the router re-`LOAD`s the affected archives onto
//! their new owners from its registry, and the in-flight request is retried once.
//! The fleet `/healthz` reports one degraded window per absorbed death, then goes
//! healthy again on the survivors.

#![warn(missing_docs)]

pub mod fleet;
pub mod options;
pub mod placement;
pub mod router;

pub use fleet::{spawn_shard, ShardLink};
pub use options::{run_foreground, Router, RouterBuilder, RouterHandle, DEFAULT_LISTEN};
pub use placement::{field_key, Placement};
pub use router::RouterState;
