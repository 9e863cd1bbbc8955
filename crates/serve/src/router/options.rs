//! Router entry point shared by the `hfzr` binary.
//!
//! ```text
//! hfzr --spawn 3 --hfzd-bin target/release/hfzd --load hacc=/data/hacc.hfz
//! hfzr --shard tcp:127.0.0.1:4806 --shard tcp:10.0.0.2:4806
//! ```
//!
//! Flags:
//! * `--listen ADDR` — where the router serves the `hfzd` protocol; default
//!   `tcp:127.0.0.1:4807` (one above the daemon default, so both fit on a laptop);
//! * `--shard ADDR` — **attach** to a daemon someone else runs (repeatable; shard ids
//!   follow flag order);
//! * `--spawn N` — **spawn** N `hfzd` children on ephemeral ports (ids continue after
//!   the attached shards); their lifetime is the router's;
//! * `--hfzd-bin PATH` — the binary `--spawn` forks; default `hfzd` (from `$PATH`);
//! * `--cache-bytes N` — forwarded to every spawned shard, which also inherits the
//!   router's environment (`HFZ_BACKEND=sim hfzr --spawn N` runs shards on `sim`);
//! * `--load NAME=PATH` — place an archive across the fleet at start-up (repeatable);
//! * `--metrics ADDR` — HTTP sidecar serving the *fleet* `GET /metrics` (shard
//!   families under a `shard` label) and `GET /healthz`;
//! * `--addr-file PATH` — write the resolved listen address to `PATH` (atomically)
//!   once the router is accepting, so supervisors learn ephemeral ports.
//!
//! Embedders use [`Router::builder()`] → [`RouterBuilder::spawn`] → [`RouterHandle`];
//! the `hfzr` binary fills the same builder with [`RouterBuilder::parse`] and hands it
//! to [`run_foreground`], with the start-up lines `hfzd` prints.

use std::path::PathBuf;
use std::sync::Arc;

use huffdec_codec::HfzError;

use super::{spawn_shard, RouterState, ShardLink};
use crate::flags::Flags;
use crate::net::{ListenAddr, Listener};
use crate::protocol::{Request, Response};
use crate::service::{self, ServiceHandle};

/// Default listen address when `--listen` is absent.
pub const DEFAULT_LISTEN: &str = "tcp:127.0.0.1:4807";

/// Entry point of the builder API: [`Router::builder()`] configures a fleet and
/// [`RouterBuilder::spawn`] runs it on background threads behind a [`RouterHandle`].
#[derive(Debug)]
pub struct Router;

impl Router {
    /// A builder with the same defaults the `hfzr` flags have.
    pub fn builder() -> RouterBuilder {
        RouterBuilder::default()
    }
}

/// Configures and spawns a router (see [`Router::builder`]): the one description of
/// a fleet, filled from `hfzr` flags ([`RouterBuilder::parse`]) or through the setters.
#[derive(Debug, Clone)]
pub struct RouterBuilder {
    listen: ListenAddr,
    shards: Vec<ListenAddr>,
    spawn: usize,
    hfzd_bin: String,
    shard_args: Vec<String>,
    preload: Vec<(String, String)>,
    metrics: Option<ListenAddr>,
    addr_file: Option<PathBuf>,
}

impl Default for RouterBuilder {
    fn default() -> RouterBuilder {
        RouterBuilder {
            listen: ListenAddr::parse(DEFAULT_LISTEN).expect("default parses"),
            shards: Vec::new(),
            spawn: 0,
            hfzd_bin: "hfzd".to_string(),
            shard_args: Vec::new(),
            preload: Vec::new(),
            metrics: None,
            addr_file: None,
        }
    }
}

impl RouterBuilder {
    /// Parses the `hfzr` flags (see the module docs) into a builder. `--cache-bytes` is
    /// checked here, so a bad value is a usage error, not a shard that fails to start.
    pub fn parse(args: &[String]) -> Result<RouterBuilder, String> {
        let mut builder = RouterBuilder::default();
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--listen" => builder.listen = flags.addr()?,
                "--metrics" => builder.metrics = Some(flags.addr()?),
                "--addr-file" => builder.addr_file = Some(flags.value()?.into()),
                "--shard" => builder.shards.push(flags.addr()?),
                "--spawn" => builder.spawn = flags.number()?,
                "--hfzd-bin" => builder.hfzd_bin = flags.value()?.to_string(),
                "--cache-bytes" => {
                    let bytes: u64 = flags.number()?;
                    builder.shard_args.push(flag.to_string());
                    builder.shard_args.push(bytes.to_string());
                }
                "--load" => builder.preload.push(flags.load()?),
                _ => return Err(flags.unknown()),
            }
        }
        if builder.shards.is_empty() && builder.spawn == 0 {
            return Err("a router needs shards: pass --shard ADDR and/or --spawn N".to_string());
        }
        Ok(builder)
    }

    /// Where the router serves the protocol (default `tcp:127.0.0.1:4807`).
    pub fn listen(mut self, addr: ListenAddr) -> Self {
        self.listen = addr;
        self
    }

    /// Attaches a daemon someone else runs (repeatable; ids follow call order).
    pub fn attach(mut self, addr: ListenAddr) -> Self {
        self.shards.push(addr);
        self
    }

    /// Places an archive across the fleet at start-up (repeatable).
    pub fn preload(mut self, name: &str, path: &str) -> Self {
        self.preload.push((name.to_string(), path.to_string()));
        self
    }

    /// Binds the fleet HTTP metrics/health sidecar.
    pub fn metrics(mut self, addr: ListenAddr) -> Self {
        self.metrics = Some(addr);
        self
    }

    /// Writes the resolved listen address to `path` once the router is accepting.
    pub fn addr_file(mut self, path: PathBuf) -> Self {
        self.addr_file = Some(path);
        self
    }

    /// Builds the fleet, binds, preloads, and starts routing (see
    /// `service::spawn` for the sidecar and addr-file ordering). Failure classes
    /// mirror the daemon's so `hfzr` exits with the same stable codes as `hfzd`.
    pub fn spawn(self) -> Result<RouterHandle, HfzError> {
        let mut links: Vec<ShardLink> = Vec::new();
        for addr in &self.shards {
            links.push(ShardLink::new(links.len(), addr.clone(), None));
        }
        for _ in 0..self.spawn {
            let id = links.len();
            let (addr, child) = spawn_shard(&self.hfzd_bin, &self.shard_args)
                .map_err(|e| HfzError::io(format!("cannot spawn shard {}", id), e))?;
            links.push(ShardLink::new(id, addr, Some(child)));
        }
        if links.is_empty() {
            return Err(HfzError::Usage(
                "a router needs shards: attach at least one or spawn some".to_string(),
            ));
        }
        let state = Arc::new(RouterState::new(links));
        let listener = Listener::bind(&self.listen)
            .map_err(|e| HfzError::io(format!("cannot bind {}", self.listen), e))?;
        for (name, path) in &self.preload {
            let placed = state.handle(&Request::Load {
                name: name.clone(),
                path: path.clone(),
            });
            let failure = match placed {
                Response::Loaded { .. } => continue,
                Response::Error(message) => std::io::Error::other(message),
                other => std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected response: {:?}", other),
                ),
            };
            return Err(HfzError::io(format!("cannot place '{}'", name), failure));
        }
        service::spawn(
            listener,
            state,
            self.metrics.as_ref(),
            self.addr_file.as_deref(),
        )
    }
}

/// A running router: see [`ServiceHandle`].
pub type RouterHandle = ServiceHandle<RouterState>;

/// Spawns the fleet a builder describes, prints the start-up lines the smoke jobs
/// expect (one per shard, `metrics on`, then `listening on`), and blocks until
/// shutdown — the body of the `hfzr` binary.
pub fn run_foreground(builder: RouterBuilder) -> Result<(), HfzError> {
    let preload = builder.preload.clone();
    let handle = builder.spawn()?;
    let state = handle.state();
    for link in state.links() {
        match link.pid() {
            Some(pid) => println!(
                "hfzr: shard {} pid {} listening on {}",
                link.id(),
                pid,
                link.addr()
            ),
            None => println!("hfzr: shard {} attached on {}", link.id(), link.addr()),
        }
    }
    for (name, path) in &preload {
        let fields = state.archive_field_count(name).unwrap_or(0);
        eprintln!("hfzr: placed '{}' from {} ({} fields)", name, path, fields);
    }
    handle.serve_foreground("hfzr", &format!("{} shards", state.links().len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let opts = RouterBuilder::parse(&s(&[
            "--listen",
            "tcp:127.0.0.1:9900",
            "--shard",
            "tcp:127.0.0.1:9000",
            "--shard",
            "unix:/tmp/shard.sock",
            "--spawn",
            "2",
            "--hfzd-bin",
            "target/release/hfzd",
            "--cache-bytes",
            "1024",
            "--load",
            "a=/tmp/a.hfz",
            "--metrics",
            "tcp:127.0.0.1:9910",
            "--addr-file",
            "/tmp/hfzr.addr",
        ]))
        .unwrap();
        assert_eq!(opts.listen, ListenAddr::Tcp("127.0.0.1:9900".into()));
        assert_eq!(
            opts.shards,
            vec![
                ListenAddr::Tcp("127.0.0.1:9000".into()),
                ListenAddr::Unix("/tmp/shard.sock".into()),
            ]
        );
        assert_eq!(opts.spawn, 2);
        assert_eq!(opts.hfzd_bin, "target/release/hfzd");
        assert_eq!(opts.shard_args, s(&["--cache-bytes", "1024"]));
        assert_eq!(
            opts.preload,
            vec![("a".to_string(), "/tmp/a.hfz".to_string())]
        );
        assert_eq!(opts.metrics, Some(ListenAddr::Tcp("127.0.0.1:9910".into())));
        assert_eq!(opts.addr_file, Some(PathBuf::from("/tmp/hfzr.addr")));
    }

    #[test]
    fn defaults_and_bad_flags() {
        // No shards at all is a configuration error, not a silently idle router.
        assert!(RouterBuilder::parse(&[]).is_err());
        let opts = RouterBuilder::parse(&s(&["--spawn", "2"])).unwrap();
        assert_eq!(opts.listen, ListenAddr::parse(DEFAULT_LISTEN).unwrap());
        assert_eq!(opts.hfzd_bin, "hfzd");
        assert!(opts.shards.is_empty());
        assert!(opts.shard_args.is_empty());
        assert_eq!(opts.metrics, None);
        assert_eq!(opts.addr_file, None);
        assert!(RouterBuilder::parse(&s(&["--spawn", "x"])).is_err());
        assert!(RouterBuilder::parse(&s(&["--addr-file"])).is_err());
        assert!(RouterBuilder::parse(&s(&["--shard"])).is_err());
        assert!(RouterBuilder::parse(&s(&["--cache-bytes", "x"])).is_err());
        // Spawned shards take their backend from the inherited `HFZ_BACKEND`, not
        // from a flag.
        let err = |args: &[&str]| RouterBuilder::parse(&s(args)).unwrap_err();
        assert_eq!(
            err(&["--spawn", "1", "--backend", "sim"]),
            "unknown flag --backend"
        );
        assert!(RouterBuilder::parse(&s(&["--load", "nopath", "--spawn", "1"])).is_err());
        assert_eq!(err(&["--bogus"]), "unknown flag --bogus");
    }
}
