//! Daemon entry point shared by the `hfzd` binary and `hfz serve`, and the spawnable
//! [`Daemon`] builder API for embedding a daemon in-process.
//!
//! ```text
//! hfzd --listen tcp:127.0.0.1:4806 --cache-bytes 268435456 --load hacc=/data/hacc.hfz
//! ```
//!
//! Flags:
//! * `--listen ADDR` — `tcp:HOST:PORT` (port 0 = ephemeral, resolved address printed)
//!   or `unix:PATH`; default `tcp:127.0.0.1:4806`;
//! * `--cache-bytes N` — decoded-field LRU budget; default 256 MiB;
//! * `--load NAME=PATH` — preload an archive file (repeatable); more can be loaded at
//!   runtime via the `LOAD` command (`hfz load`);
//! * `--host-threads N` — size of the device's worker pool, on either backend
//!   (default: every available core);
//! * `--metrics ADDR` — bind an HTTP observability sidecar on `ADDR` serving
//!   `GET /metrics` (Prometheus text exposition) and `GET /healthz`;
//! * `--addr-file PATH` — write the resolved listen address to `PATH` (atomically:
//!   temp file + rename) once the daemon is accepting. This is how scripts and
//!   supervisors learn an ephemeral port without scraping stdout.
//!
//! Requests decode on the backend the `HFZ_BACKEND` environment variable names (the
//! CPU backend when unset); `HFZ_BACKEND=sim hfzd` serves on the simulator, with
//! modeled decode times. Embedders pin it with [`DaemonBuilder::backend`].
//!
//! The daemon prints one `listening on <addr>` line once it is accepting, then serves
//! until a `SHUTDOWN` request (the connection model and the shutdown contract are
//! [`crate::service`]'s). With `--metrics`, a `metrics on <addr>` line is printed
//! *before* it, so anything that waited for `listening on` can already scrape.
//!
//! ## Embedding
//!
//! In-process consumers (tests, the router's test fleets, anything that wants a
//! daemon without a child process) use the builder instead of the blocking entry
//! point:
//!
//! ```no_run
//! use huffdec_serve::daemon::Daemon;
//! use huffdec_serve::net::ListenAddr;
//!
//! let handle = Daemon::builder()
//!     .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
//!     .cache_bytes(64 << 20)
//!     .spawn()
//!     .unwrap();
//! println!("serving on {}", handle.local_addr());
//! handle.shutdown();
//! handle.join().unwrap();
//! ```

use std::path::PathBuf;

use gpu_sim::{BackendKind, GpuConfig};
use huffdec_codec::HfzError;

use crate::flags::Flags;
use crate::net::{ListenAddr, Listener};
use crate::server::ServerState;
use crate::service::{self, ServiceHandle};

/// Default listen address when `--listen` is absent.
pub const DEFAULT_LISTEN: &str = "tcp:127.0.0.1:4806";

/// Default decoded-field cache budget (256 MiB).
pub const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

/// Namespace for [`Daemon::builder`].
#[derive(Debug)]
pub struct Daemon;

impl Daemon {
    /// Starts configuring an in-process daemon. See [`DaemonBuilder`].
    pub fn builder() -> DaemonBuilder {
        DaemonBuilder::default()
    }
}

/// Configures and spawns a daemon; [`DaemonBuilder::spawn`] returns a
/// [`ServerHandle`]. This is the one description of a daemon: `hfzd` and `hfz serve`
/// fill it from flags ([`DaemonBuilder::parse`]), embedders through the setters.
///
/// Everything the CLI flags express is available programmatically, plus the device
/// model.
#[derive(Debug, Clone)]
pub struct DaemonBuilder {
    pub(crate) listen: ListenAddr,
    pub(crate) cache_bytes: u64,
    pub(crate) preload: Vec<(String, String)>,
    pub(crate) host_threads: Option<usize>,
    pub(crate) backend: BackendKind,
    pub(crate) gpu: GpuConfig,
    pub(crate) metrics: Option<ListenAddr>,
    pub(crate) addr_file: Option<PathBuf>,
}

impl Default for DaemonBuilder {
    fn default() -> Self {
        DaemonBuilder {
            listen: ListenAddr::parse(DEFAULT_LISTEN).expect("default parses"),
            cache_bytes: DEFAULT_CACHE_BYTES,
            preload: Vec::new(),
            host_threads: None,
            backend: BackendKind::from_env(),
            gpu: GpuConfig::v100(),
            metrics: None,
            addr_file: None,
        }
    }
}

impl DaemonBuilder {
    /// Parses `--listen/--cache-bytes/--load/--host-threads/--metrics/--addr-file` flags
    /// into a builder.
    pub fn parse(args: &[String]) -> Result<DaemonBuilder, String> {
        let mut builder = DaemonBuilder::default();
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--listen" => builder.listen = flags.addr()?,
                "--metrics" => builder.metrics = Some(flags.addr()?),
                "--addr-file" => builder.addr_file = Some(flags.value()?.into()),
                "--cache-bytes" => builder.cache_bytes = flags.number()?,
                "--host-threads" => {
                    let threads = flags.number()?;
                    if threads == 0 {
                        return Err("--host-threads must be positive".to_string());
                    }
                    builder.host_threads = Some(threads);
                }
                "--load" => builder.preload.push(flags.load()?),
                _ => return Err(flags.unknown()),
            }
        }
        Ok(builder)
    }

    /// Where to listen (default `tcp:127.0.0.1:4806`; use port 0 for ephemeral).
    pub fn listen(mut self, addr: ListenAddr) -> Self {
        self.listen = addr;
        self
    }

    /// Decoded-field LRU budget in bytes (default 256 MiB).
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Execution backend requests decode on (default: the `HFZ_BACKEND` environment
    /// variable, falling back to the CPU backend).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Simulated device configuration (default: the paper's V100).
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Size of the device's worker pool, on either backend (default: every available
    /// core).
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.host_threads = Some(threads);
        self
    }

    /// Preloads an archive before the daemon starts serving (repeatable). A preload
    /// failure surfaces from [`DaemonBuilder::spawn`], before the daemon accepts.
    pub fn preload(mut self, name: &str, path: &str) -> Self {
        self.preload.push((name.to_string(), path.to_string()));
        self
    }

    /// Binds the HTTP metrics/health sidecar on `addr`.
    pub fn metrics(mut self, addr: ListenAddr) -> Self {
        self.metrics = Some(addr);
        self
    }

    /// Writes the resolved listen address to `path` (atomically) once bound.
    pub fn addr_file(mut self, path: PathBuf) -> Self {
        self.addr_file = Some(path);
        self
    }

    /// Binds, preloads, and starts serving (see `service::spawn` for the sidecar and
    /// addr-file ordering). A bind failure is I/O, an unreadable preload is I/O, a
    /// corrupt preload is a container error — all reported here, before any client
    /// can connect.
    pub fn spawn(self) -> Result<ServerHandle, HfzError> {
        let listener = Listener::bind(&self.listen)
            .map_err(|e| HfzError::io(format!("cannot bind {}", self.listen), e))?;
        let state = ServerState::new(&self);
        for (name, path) in &self.preload {
            if let Err(e) = state.load_archive(name, path) {
                state.request_shutdown();
                return Err(match e {
                    HfzError::Io { context, source } => HfzError::Io {
                        context: format!("cannot load '{}': {}", name, context),
                        source,
                    },
                    other => other,
                });
            }
        }
        service::spawn(
            listener,
            state,
            self.metrics.as_ref(),
            self.addr_file.as_deref(),
        )
    }
}

/// A running daemon: see [`ServiceHandle`].
pub type ServerHandle = ServiceHandle<ServerState>;

/// The blocking entry point `hfzd` and `hfz serve` wrap: spawns the daemon, prints
/// the start-up lines, and waits until shutdown.
pub fn run_foreground(builder: DaemonBuilder) -> Result<(), HfzError> {
    let cache_bytes = builder.cache_bytes;
    let handle = builder.spawn()?;
    for loaded in handle.state().store().list().iter() {
        eprintln!(
            "hfzd: loaded '{}' from {} ({} fields)",
            loaded.name,
            loaded.path,
            loaded.fields().len()
        );
    }
    handle.serve_foreground("hfzd", &format!("cache budget {} bytes", cache_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let opts = DaemonBuilder::parse(&s(&[
            "--listen",
            "tcp:127.0.0.1:9000",
            "--cache-bytes",
            "1024",
            "--load",
            "a=/tmp/a.hfz",
            "--load",
            "b=/tmp/b.hfz",
            "--host-threads",
            "3",
            "--metrics",
            "tcp:127.0.0.1:9100",
            "--addr-file",
            "/tmp/hfzd.addr",
        ]))
        .unwrap();
        assert_eq!(opts.listen, ListenAddr::Tcp("127.0.0.1:9000".into()));
        assert_eq!(opts.cache_bytes, 1024);
        assert_eq!(opts.host_threads, Some(3));
        assert_eq!(opts.metrics, Some(ListenAddr::Tcp("127.0.0.1:9100".into())));
        assert_eq!(opts.addr_file, Some(PathBuf::from("/tmp/hfzd.addr")));
        assert_eq!(
            opts.preload,
            vec![
                ("a".to_string(), "/tmp/a.hfz".to_string()),
                ("b".to_string(), "/tmp/b.hfz".to_string())
            ]
        );
    }

    #[test]
    fn defaults_and_bad_flags() {
        let opts = DaemonBuilder::parse(&[]).unwrap();
        assert_eq!(opts.cache_bytes, DEFAULT_CACHE_BYTES);
        assert_eq!(opts.listen, ListenAddr::parse(DEFAULT_LISTEN).unwrap());
        assert_eq!(opts.metrics, None);
        assert_eq!(opts.addr_file, None);
        assert!(DaemonBuilder::parse(&s(&["--metrics"])).is_err());
        assert!(DaemonBuilder::parse(&s(&["--addr-file"])).is_err());
        assert!(DaemonBuilder::parse(&s(&["--load", "nopath"])).is_err());
        assert!(DaemonBuilder::parse(&s(&["--cache-bytes", "x"])).is_err());
        assert!(DaemonBuilder::parse(&s(&["--host-threads", "0"])).is_err());
        let err = |args: &[&str]| DaemonBuilder::parse(&s(args)).unwrap_err();
        // The backend comes from `HFZ_BACKEND` or the builder, not from a flag.
        assert_eq!(err(&["--backend", "sim"]), "unknown flag --backend");
        assert_eq!(err(&["--bogus"]), "unknown flag --bogus");
        assert_eq!(err(&["stray"]), "unexpected argument 'stray'");
        assert!(DaemonBuilder::parse(&s(&["--listen"])).is_err());
    }

    #[test]
    fn addr_file_is_written_atomically_on_spawn() {
        let dir = std::env::temp_dir().join(format!("hfzd-addrfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("daemon.addr");
        let handle = Daemon::builder()
            .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
            .cache_bytes(1 << 20)
            .addr_file(addr_file.clone())
            .spawn()
            .unwrap();
        let written = std::fs::read_to_string(&addr_file).unwrap();
        assert_eq!(written.trim(), handle.local_addr().to_string());
        // The advertised address is dialable, and shutdown/join tears everything down.
        let parsed = ListenAddr::parse(written.trim()).unwrap();
        assert_eq!(&parsed, handle.local_addr());
        handle.shutdown();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
