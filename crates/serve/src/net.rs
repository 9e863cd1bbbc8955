//! Transport: the daemon listens on either a TCP socket or (on Unix) a Unix-domain
//! socket; both sides of the protocol speak over a [`Conn`]. Every socket is blocking:
//! a serving thread parks in `read` between requests, and [`Conn::shutdown`] through
//! the shared handle the accept loop keeps (`&Conn` reads and writes) is how it gets
//! that thread back.
//!
//! Addresses are spelled `tcp:HOST:PORT` or `unix:PATH`; a bare `HOST:PORT` means TCP.
//! `tcp:HOST:0` binds an ephemeral port — [`Listener::local_addr`] reports the resolved
//! one, which is how tests and the smoke jobs avoid port collisions.

use std::fmt;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// A parsed listen/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// `tcp:HOST:PORT`.
    Tcp(String),
    /// `unix:PATH`.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses an address: `tcp:HOST:PORT`, `unix:PATH`, or bare `HOST:PORT` (TCP).
    pub fn parse(spec: &str) -> Result<ListenAddr, String> {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err("empty TCP address".to_string());
            }
            Ok(ListenAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = spec.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err("empty Unix socket path".to_string());
            }
            Ok(ListenAddr::Unix(PathBuf::from(rest)))
        } else if spec.contains(':') {
            Ok(ListenAddr::Tcp(spec.to_string()))
        } else {
            Err(format!(
                "address '{}' is neither tcp:HOST:PORT nor unix:PATH",
                spec
            ))
        }
    }
}

impl fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "tcp:{}", addr),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Closes one or both directions of the socket, waking any thread blocked on it:
    /// a reader of a closed read half sees EOF.
    pub fn shutdown(&self, how: std::net::Shutdown) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }

    /// Sets the read and write timeouts (`None` means block forever). Clients use
    /// this so a dead peer surfaces as `TimedOut` instead of hanging a blocking read.
    pub fn set_timeouts(
        &self,
        read: Option<std::time::Duration>,
        write: Option<std::time::Duration>,
    ) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self).write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        (&*self).write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&*self).flush()
    }
}

/// A shared socket reads and writes as the streams do (`&TcpStream`, `&UnixStream`),
/// so the thread serving a connection and the shutdown registry hold one descriptor.
impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&*s).read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&*s).write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => (&*s).write(buf),
        }
    }

    /// Forwarded, so a frame's header and payload slices leave in one `writev`: std's
    /// default writes only the first slice, which would split every reply into two
    /// writes and bring back the Nagle × delayed-ACK stall (see `protocol`'s docs).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&*s).write_vectored(bufs),
            #[cfg(unix)]
            Conn::Unix(s) => (&*s).write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => (&*s).flush(),
            #[cfg(unix)]
            Conn::Unix(s) => (&*s).flush(),
        }
    }
}

/// Dials `addr`.
pub fn connect(addr: &ListenAddr) -> std::io::Result<Conn> {
    match addr {
        ListenAddr::Tcp(a) => Ok(Conn::Tcp(TcpStream::connect(a)?)),
        #[cfg(unix)]
        ListenAddr::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        #[cfg(not(unix))]
        ListenAddr::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

/// The daemon's bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (the file is removed when the listener is dropped).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr`. A Unix socket path some listener still answers on is
    /// `AddrInUse`: it belongs to a live daemon. A file nothing answers on is stale,
    /// left by a run that did not exit cleanly, and is removed first (binding over it
    /// would otherwise fail forever).
    pub fn bind(addr: &ListenAddr) -> std::io::Result<Listener> {
        match addr {
            ListenAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                if UnixStream::connect(path).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("{} is served by a live listener", path.display()),
                    ));
                }
                match std::fs::remove_file(path) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// The resolved address (for TCP this reports the actual port, so binding port 0
    /// yields a dialable address).
    pub fn local_addr(&self) -> std::io::Result<ListenAddr> {
        match self {
            Listener::Tcp(l) => Ok(ListenAddr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(ListenAddr::Unix(path.clone())),
        }
    }

    /// Blocks until the next connection.
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => Ok(Conn::Tcp(l.accept()?.0)),
            #[cfg(unix)]
            Listener::Unix(l, _) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_parsing() {
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:4806").unwrap(),
            ListenAddr::Tcp("127.0.0.1:4806".into())
        );
        assert_eq!(
            ListenAddr::parse("127.0.0.1:0").unwrap(),
            ListenAddr::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/hfzd.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/hfzd.sock"))
        );
        assert!(ListenAddr::parse("nonsense").is_err());
        assert!(ListenAddr::parse("tcp:").is_err());
        assert!(ListenAddr::parse("unix:").is_err());
        assert_eq!(ListenAddr::parse("tcp:h:1").unwrap().to_string(), "tcp:h:1");
    }

    #[test]
    fn tcp_ephemeral_port_resolves() {
        let listener = Listener::bind(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        match &addr {
            ListenAddr::Tcp(a) => assert!(!a.ends_with(":0"), "port must be resolved: {}", a),
            _ => panic!("expected tcp"),
        }
        // The resolved address is dialable.
        let handle = std::thread::spawn(move || listener.accept().map(|_| ()));
        connect(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_binds_and_cleans_up() {
        let dir = std::env::temp_dir().join("hfzd-net-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.sock");
        // A stale socket file is replaced, and dropping the listener removes it.
        std::fs::write(&path, b"stale").unwrap();
        let addr = ListenAddr::Unix(path.clone());
        let listener = Listener::bind(&addr).unwrap();
        let handle = std::thread::spawn(move || listener.accept().map(|_| ()));
        connect(&addr).unwrap();
        handle.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file removed on drop");
    }

    /// Dials `addr`, then writes two slices with one `write_vectored` on the dialed end:
    /// the call must take both, and the accepted end must read them in order.
    fn write_vectored_takes_every_slice(listen: &ListenAddr) {
        let listener = Listener::bind(listen).unwrap();
        let addr = listener.local_addr().unwrap();
        let (a, b) = (b"head".as_slice(), b"and the payload".as_slice());
        let reader = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut got = Vec::new();
            conn.read_to_end(&mut got).unwrap();
            got
        });
        let mut conn = connect(&addr).unwrap();
        let n = conn
            .write_vectored(&[IoSlice::new(a), IoSlice::new(b)])
            .unwrap();
        assert_eq!(n, a.len() + b.len(), "{}: one call takes both slices", addr);
        drop(conn);
        assert_eq!(reader.join().unwrap(), [a, b].concat());
    }

    #[test]
    fn tcp_write_vectored_takes_every_slice() {
        write_vectored_takes_every_slice(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn unix_write_vectored_takes_every_slice() {
        let dir = std::env::temp_dir().join("hfzd-net-vectored");
        std::fs::create_dir_all(&dir).unwrap();
        write_vectored_takes_every_slice(&ListenAddr::Unix(dir.join("v.sock")));
    }
}
