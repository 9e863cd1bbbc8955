//! Shard links: the router's side of each `hfzd` connection.
//!
//! A [`ShardLink`] wraps one [`Connection`], which re-dials once when a kept socket
//! turns out to be dead, so a shard *restart* heals invisibly. When even the re-dial
//! fails the shard is actually gone, and the router marks its placement slot down.
//! Links are either **attached** — the daemon was started by someone else, the router
//! only dials it — or **spawned** — the router forked the `hfzd` process itself and
//! owns its lifetime (shutdown is propagated, the child is reaped).

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::client::{ClientError, Connection};
use crate::net::ListenAddr;
use crate::protocol::{Request, Response};

/// One shard of the fleet.
pub struct ShardLink {
    id: usize,
    addr: ListenAddr,
    link: Mutex<Connection>,
    /// The `hfzd` child process, for spawned shards only.
    process: Mutex<Option<Child>>,
}

impl ShardLink {
    /// A link to the daemon at `addr`: **attached** when `process` is `None` (someone
    /// else runs it), **spawned** when it is the `hfzd` child [`spawn_shard`] forked.
    pub fn new(id: usize, addr: ListenAddr, process: Option<Child>) -> ShardLink {
        ShardLink {
            id,
            addr: addr.clone(),
            link: Mutex::new(Connection::new(addr)),
            process: Mutex::new(process),
        }
    }

    /// The shard's slot in the placement table.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Where the shard serves.
    pub fn addr(&self) -> &ListenAddr {
        &self.addr
    }

    /// The spawned shard's process id, when the router owns one.
    pub fn pid(&self) -> Option<u32> {
        self.lock_process().as_ref().map(|c| c.id())
    }

    fn lock_link(&self) -> std::sync::MutexGuard<'_, Connection> {
        self.link.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_process(&self) -> std::sync::MutexGuard<'_, Option<Child>> {
        self.process.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sends one request over the shard connection. The connection's retry policy
    /// already re-dials once on a dead *reused* socket; an error escaping here means
    /// the shard is unreachable right now, and [`ClientError::is_disconnect`] tells
    /// the router whether to mark it down.
    pub fn request(&self, request: &Request) -> Result<Response, ClientError> {
        self.lock_link().request(request)
    }

    /// Asks a spawned shard to exit and reaps the child; attached shards are left
    /// alone (the router does not own them). Errors are swallowed — at shutdown the
    /// shard may already be gone, which is fine.
    pub fn shutdown_spawned(&self) {
        let child = self.lock_process().take();
        if let Some(mut child) = child {
            let _ = self.request(&Request::Shutdown);
            let _ = child.wait();
        }
    }
}

/// A spawned shard never outlives its link: a router that fails to start, after some
/// shards were already forked, stops and reaps them on the way out.
impl Drop for ShardLink {
    fn drop(&mut self) {
        self.shutdown_spawned();
    }
}

impl std::fmt::Debug for ShardLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLink")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Distinguishes concurrent spawns within one process so addr-file paths never
/// collide.
static SPAWN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Spawns one `hfzd` shard on an ephemeral port and learns the resolved address from
/// the shard's `--addr-file` (written atomically once the shard is accepting) — no
/// stdout scraping.
///
/// `extra_args` is appended verbatim (`--cache-bytes`). The child inherits this
/// process's environment, `HFZ_BACKEND` included, so it runs on the router's backend.
/// Its stdout is piped and drained on a background thread so the daemon can never
/// block on a full pipe.
pub fn spawn_shard(hfzd: &str, extra_args: &[String]) -> std::io::Result<(ListenAddr, Child)> {
    let addr_file = std::env::temp_dir().join(format!(
        "hfzd-addr-{}-{}",
        std::process::id(),
        SPAWN_COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_file(&addr_file);
    let mut child = Command::new(hfzd)
        .arg("--listen")
        .arg("tcp:127.0.0.1:0")
        .arg("--addr-file")
        .arg(&addr_file)
        .args(extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let lines = std::io::BufReader::new(stdout).lines();
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(contents) = std::fs::read_to_string(&addr_file) {
            let spec = contents.trim();
            if !spec.is_empty() {
                match ListenAddr::parse(spec) {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&addr_file);
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("shard wrote an unparseable address: {}", e),
                        ));
                    }
                }
            }
        }
        if let Some(status) = child.try_wait()? {
            let _ = std::fs::remove_file(&addr_file);
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("shard exited ({}) before writing its address file", status),
            ));
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&addr_file);
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "shard did not write its address file in time",
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let _ = std::fs::remove_file(&addr_file);
    Ok((addr, child))
}
