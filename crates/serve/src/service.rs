//! The connection core `hfzd` and `hfzr` both run on: one blocking accept loop, one
//! thread per connection, one start-up and shutdown sequence.
//!
//! A [`Service`] is the state behind a protocol endpoint — the daemon's
//! [`ServerState`](crate::server::ServerState), the router's
//! [`RouterState`](crate::router::RouterState). `spawn` puts one on the wire: it binds
//! the HTTP sidecar (when asked), writes the addr-file, starts the accept loop on a
//! background thread and returns the [`ServiceHandle`] that stops and joins it.
//!
//! **What blocks where.** The accept thread blocks in `accept`. Each connection thread
//! blocks in `read` between requests, runs [`Service::handle`] to completion — for a
//! daemon cache miss that means blocking on the decode's flight slot; for the router,
//! on the owning shard's reply — and then blocks in `write` until the reply has left.
//! The reply goes out through the protocol's one frame writer as one vectored write:
//! the length prefix and header bytes in one small buffer, the payloads borrowed from
//! the response (see the `protocol` module docs); clients and the router's shard links
//! send requests through the same writer. A reply too large for a frame degrades there
//! to a typed error frame before anything is written. Nothing polls, and nothing
//! sleeps but an accept loop waiting out a descriptor shortage (see `accept`); a
//! slow or stalled peer holds up its own thread only.
//!
//! **The shutdown contract.** `SHUTDOWN` (or [`ServiceHandle::shutdown`]) sets the
//! service's [`Lifecycle`] flag and dials each bound listener once to unblock its
//! `accept`. The accept loop then stops listening and closes the **read** half of
//! every accepted socket: idle keep-alive threads see EOF and exit, while the write
//! halves stay open so the `ShuttingDown` acknowledgement — and any reply already on
//! its way — still reaches its client. Requests that arrive after the flag is set are
//! dropped unanswered. A thread that has not exited within 200 ms is stuck
//! writing to a peer that stopped reading; its socket is then closed in both
//! directions, so [`ServiceHandle::join`] returns no matter what clients do.

use std::collections::HashMap;
use std::io::{ErrorKind, Write as _};
use std::net::Shutdown;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use huffdec_codec::HfzError;

use crate::http::HttpServer;
use crate::net::{connect, Conn, ListenAddr, Listener};
use crate::protocol::{
    read_frame, write_response, Request, Response, MAX_REQUEST_BYTES, MAX_RESPONSE_BYTES,
};
use crate::server::Health;

/// How long shutdown waits for connection threads to finish what they are writing
/// before it closes their sockets outright.
const DRAIN_GRACE: Duration = Duration::from_millis(200);

/// How long an accept loop waits before it retries once the process is out of
/// descriptors, so that a limit that stays exhausted does not spin a core.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// The state behind a protocol endpoint: what the shared accept loop and the HTTP
/// sidecar need from it.
pub trait Service: Send + Sync + 'static {
    /// Answers one protocol request, blocking until the reply is complete.
    fn handle(&self, request: &Request) -> Response;
    /// The `/metrics` body: a Prometheus text exposition document.
    fn metrics_text(&self) -> String;
    /// The `/healthz` verdict.
    fn health(&self) -> Health;
    /// The shutdown flag and the listeners shutdown has to wake.
    fn lifecycle(&self) -> &Lifecycle;
    /// Requests shutdown. Services with background work of their own (the daemon's
    /// decode scheduler) stop it here as well.
    fn request_shutdown(&self) {
        self.lifecycle().request_shutdown();
    }
    /// Called once by the accept loop after the last connection thread has exited.
    fn drained(&self) {}
}

/// A service's shutdown flag plus the addresses of its bound listeners.
#[derive(Debug, Default)]
pub struct Lifecycle {
    shutdown: AtomicBool,
    /// Resolved protocol and sidecar addresses; both accept loops block in `accept`,
    /// so shutdown dials each once to unblock it.
    listeners: Mutex<Vec<ListenAddr>>,
}

impl Lifecycle {
    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sets the flag and wakes every bound accept loop with a throwaway connection.
    /// Idempotent.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let listeners = self.lock_listeners().clone();
        for addr in &listeners {
            let _ = connect(addr);
        }
    }

    /// Records a bound listener's resolved address.
    pub(crate) fn bound(&self, addr: ListenAddr) {
        self.lock_listeners().push(addr);
    }

    fn lock_listeners(&self) -> std::sync::MutexGuard<'_, Vec<ListenAddr>> {
        self.listeners.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The next connection on `listener`, or `None` once shutdown is requested while the
/// process is out of descriptors (shutdown cannot then dial the listener awake). Only
/// the listener's own errors are returned: an interrupted call or a peer that hung up
/// first is skipped, and a descriptor shortage is waited out in [`ACCEPT_PAUSE`] steps.
pub(crate) fn accept(listener: &Listener, lifecycle: &Lifecycle) -> std::io::Result<Option<Conn>> {
    loop {
        let e = match listener.accept() {
            Ok(conn) => return Ok(Some(conn)),
            Err(e) => e,
        };
        // ENFILE and EMFILE, the same on Linux and the BSDs; `ErrorKind` names neither.
        if matches!(e.raw_os_error(), Some(23 | 24)) {
            std::thread::sleep(ACCEPT_PAUSE);
            if lifecycle.is_shutting_down() {
                return Ok(None);
            }
        } else if !matches!(
            e.kind(),
            ErrorKind::Interrupted | ErrorKind::ConnectionAborted
        ) {
            return Err(e);
        }
    }
}

/// Runs one connection's request loop: frame in, [`Service::handle`], frame out.
fn serve_connection<S: Service>(state: &S, mut conn: &Conn) {
    loop {
        // A clean EOF, a disconnect mid-frame and a length prefix over the request
        // limit all end this connection, and only this connection.
        let Ok(Some(body)) = read_frame(&mut conn, MAX_REQUEST_BYTES) else {
            return;
        };
        // Once shutdown has been accepted, other connections are dropped rather than
        // served: the service must be able to exit without waiting for every
        // keep-alive client to hang up on its own.
        if state.lifecycle().is_shutting_down() {
            return;
        }
        let response = match Request::decode(&body) {
            Ok(request) => state.handle(&request),
            Err(e) => Response::Error(format!("bad request: {}", e)),
        };
        let last = matches!(response, Response::ShuttingDown);
        if write_response(&mut conn, &response, MAX_RESPONSE_BYTES).is_err() || last {
            return;
        }
    }
}

/// Every live connection's socket, by connection number. The thread serving a
/// connection shares the socket with this registry and removes its own entry as it
/// exits, so a connection holds one descriptor while it lives and none once its peer
/// hangs up; shutdown reaches the sockets whose threads are blocked on them here.
type Registry = Arc<Mutex<HashMap<u64, Arc<Conn>>>>;

fn lock(live: &Registry) -> MutexGuard<'_, HashMap<u64, Arc<Conn>>> {
    live.lock().unwrap_or_else(|p| p.into_inner())
}

/// Accepts and serves until shutdown, one thread per connection, then drains (see the
/// module docs for the contract).
fn run<S: Service>(listener: Listener, state: Arc<S>) -> std::io::Result<()> {
    let live = Registry::default();
    // Nothing is ever sent: each connection thread owns a sender, and the receiver
    // disconnects the moment the last of them is gone.
    let (exit_guard, all_exited) = mpsc::channel::<()>();
    let mut accepted = 0u64;
    let result = loop {
        let conn = match accept(&listener, state.lifecycle()) {
            Ok(Some(conn)) => Arc::new(conn),
            Ok(None) => break Ok(()),
            Err(e) => {
                state.request_shutdown();
                break Err(e);
            }
        };
        if state.lifecycle().is_shutting_down() {
            break Ok(());
        }
        let id = accepted;
        accepted += 1;
        lock(&live).insert(id, Arc::clone(&conn));
        let (state, live) = (Arc::clone(&state), Arc::clone(&live));
        let exit_guard = exit_guard.clone();
        std::thread::spawn(move || {
            // A request that panics ends its connection, and the entry still goes.
            let serve = AssertUnwindSafe(|| serve_connection(&*state, &conn));
            let _ = std::panic::catch_unwind(serve);
            // The registry's handle is the socket's last other owner: dropping it
            // and then `conn` closes the socket now.
            lock(&live).remove(&id);
            // The exit guard goes last, so once every guard is gone no connection
            // thread holds the service any more.
            drop((conn, live, state));
            drop(exit_guard);
        });
    };
    drop(listener);
    // Idle keep-alive threads are parked in `read`; closing the read half hands each
    // an EOF. The write half stays open for the `ShuttingDown` acknowledgement:
    // closing both here would race it, and the client's redial would meet
    // `ConnectionRefused` instead.
    for conn in lock(&live).values() {
        let _ = conn.shutdown(Shutdown::Read);
    }
    // Returns as soon as the last connection thread is gone. Whoever is still here
    // after the grace is writing to a peer that stopped reading, and only closing the
    // write half as well gets that thread back.
    drop(exit_guard);
    if all_exited.recv_timeout(DRAIN_GRACE) == Err(RecvTimeoutError::Timeout) {
        for conn in lock(&live).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = all_exited.recv();
    }
    state.drained();
    result
}

/// Starts serving `state` on an already-bound `listener`: binds the HTTP sidecar on
/// `metrics` (when given), writes the resolved protocol address to `addr_file` (when
/// given), then starts the accept loop on a background thread.
///
/// The sidecar binds *before* the addr-file is written, so anything that waited on
/// the file can already scrape. Everything that can fail does so here, synchronously,
/// before any thread starts, with its class kept through [`HfzError`], so `hfzd`,
/// `hfz serve` and `hfzr` exit with the same stable codes, embedders never fish an
/// error out of a thread, and a failed start drops `state` (a router's spawned shards
/// with it).
pub(crate) fn spawn<S: Service>(
    listener: Listener,
    state: Arc<S>,
    metrics: Option<&ListenAddr>,
    addr_file: Option<&Path>,
) -> Result<ServiceHandle<S>, HfzError> {
    let addr = listener
        .local_addr()
        .map_err(|e| HfzError::io("listen address", e))?;
    state.lifecycle().bound(addr.clone());
    let http = match metrics {
        Some(want) => Some(
            HttpServer::bind(want, Arc::clone(&state))
                .map_err(|e| HfzError::io(format!("cannot bind metrics sidecar {}", want), e))?,
        ),
        None => None,
    };
    let metrics_addr = http.as_ref().map(|server| server.local_addr().clone());
    if let Some(path) = addr_file {
        write_addr_file(path, &addr)
            .map_err(|e| HfzError::io(format!("cannot write {}", path.display()), e))?;
    }
    let sidecar = http.map(|server| {
        std::thread::spawn(move || {
            let _ = server.run();
        })
    });
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || run(listener, state))
    };
    Ok(ServiceHandle {
        state,
        addr,
        metrics_addr,
        server,
        sidecar,
    })
}

/// Writes `addr` to `path` atomically (sibling temp file + rename), so a reader
/// polling the file never observes a partial address.
fn write_addr_file(path: &Path, addr: &ListenAddr) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, format!("{}\n", addr))?;
    std::fs::rename(&tmp, path)
}

/// A running service: the serving threads, their shared state, and the resolved
/// addresses.
///
/// Dropping the handle *detaches* the service (the threads keep serving); stopping it
/// is explicit — [`ServiceHandle::shutdown`] then [`ServiceHandle::join`].
#[derive(Debug)]
pub struct ServiceHandle<S> {
    state: Arc<S>,
    addr: ListenAddr,
    metrics_addr: Option<ListenAddr>,
    server: JoinHandle<std::io::Result<()>>,
    sidecar: Option<JoinHandle<()>>,
}

impl<S: Service> ServiceHandle<S> {
    /// The resolved listen address (for `tcp:...:0` it carries the actual port).
    pub fn local_addr(&self) -> &ListenAddr {
        &self.addr
    }

    /// The metrics sidecar's resolved address, when one was bound.
    pub fn metrics_addr(&self) -> Option<&ListenAddr> {
        self.metrics_addr.as_ref()
    }

    /// Handle to the shared state (for in-process requests, stats, and tests).
    pub fn state(&self) -> Arc<S> {
        Arc::clone(&self.state)
    }

    /// Requests shutdown (idempotent; does not wait — follow with
    /// [`ServiceHandle::join`]).
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Waits for the serving threads to exit (after a [`ServiceHandle::shutdown`] or
    /// a client's `SHUTDOWN` request) and surfaces how the accept loop ended.
    pub fn join(self) -> Result<(), HfzError> {
        let result = match self.server.join() {
            Ok(result) => result.map_err(|e| HfzError::io("accept loop failed", e)),
            Err(_) => Err(HfzError::Protocol("serving thread panicked".to_string())),
        };
        if let Some(sidecar) = self.sidecar {
            // Shutdown woke the sidecar's accept loop too; join so its socket is gone
            // before the entry point reports the service stopped.
            let _ = sidecar.join();
        }
        result
    }

    /// The tail of a foreground entry point: prints `<name>: metrics on <addr>` (when
    /// a sidecar is bound) and then `<name>: listening on <addr> (<detail>)` on
    /// stdout, flushed, and blocks until shutdown. Start-up scripts wait for the
    /// `listening on` line, by which time the sidecar line is already out (scripts
    /// that need the address itself should prefer `--addr-file`).
    pub fn serve_foreground(self, name: &str, detail: &str) -> Result<(), HfzError> {
        let mut out = std::io::stdout();
        if let Some(addr) = &self.metrics_addr {
            let _ = writeln!(out, "{}: metrics on {}", name, addr);
        }
        let _ = writeln!(out, "{}: listening on {} ({})", name, self.addr, detail);
        let _ = out.flush();
        self.join()
    }
}
