//! The observability sidecar: a minimal HTTP/1.1 listener for scrapers.
//!
//! `hfzd --metrics tcp:HOST:PORT` (and `hfzr --metrics`) binds a second listener next
//! to the request socket and serves exactly two read-only endpoints:
//!
//! * `GET /metrics` — [`Service::metrics_text`]: the daemon's
//!   [`Metrics`](huffdec_codec::Metrics) registry, or the router's merged fleet
//!   document, in Prometheus text exposition format (version 0.0.4);
//! * `GET /healthz` — `healthy` / `degraded: …` (both `200 OK`) or `unhealthy: …`
//!   (`503 Service Unavailable`), computed by [`Service::health`].
//!
//! The implementation is deliberately tiny — dependency-free, thread-per-connection,
//! `Connection: close` — because a scrape every few seconds is all the traffic it will
//! ever see. It is **not** a general HTTP server: request heads are capped at 8 KiB,
//! bodies are ignored, only `GET` is answered, and a peer that stalls for
//! [`SCRAPE_TIMEOUT`] mid-request (or mid-response) is dropped.

use std::io::{Read, Write};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::net::{Conn, ListenAddr, Listener};
use crate::server::Health;
use crate::service::{accept, Service};

/// Longest request head (request line + headers) the sidecar will read.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// How long one read or write of a scrape may block before the sidecar drops the
/// connection. A peer that connects and never finishes its request head would
/// otherwise hold a thread forever — or, accepted after shutdown and served inline,
/// the accept loop and with it `ServiceHandle::join`.
pub const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// The metrics/health HTTP listener, bound next to a service's request socket.
pub(crate) struct HttpServer<S> {
    listener: Listener,
    addr: ListenAddr,
    service: Arc<S>,
}

impl<S: Service> HttpServer<S> {
    /// Binds the sidecar on `addr` and registers the resolved address (ephemeral
    /// ports resolved) with the service's lifecycle, so shutdown wakes this accept
    /// loop too.
    pub fn bind(addr: &ListenAddr, service: Arc<S>) -> std::io::Result<HttpServer<S>> {
        let listener = Listener::bind(addr)?;
        let addr = listener.local_addr()?;
        service.lifecycle().bound(addr.clone());
        Ok(HttpServer {
            listener,
            addr,
            service,
        })
    }

    /// The bound address, with ephemeral TCP ports resolved.
    pub fn local_addr(&self) -> &ListenAddr {
        &self.addr
    }

    /// Accepts and serves scrapes until the owner shuts down. Each connection gets a
    /// short-lived thread; responses always carry `Connection: close`.
    pub fn run(self) -> std::io::Result<()> {
        while let Some(conn) = accept(&self.listener, self.service.lifecycle())? {
            if self.service.lifecycle().is_shutting_down() {
                // The shutdown path connects once to unblock `accept`; answer that
                // probe (or a scrape that raced it) with the unhealthy page, then stop.
                let _ = serve_scrape(conn, &*self.service);
                return Ok(());
            }
            let service = Arc::clone(&self.service);
            thread::spawn(move || {
                let _ = serve_scrape(conn, &*service);
            });
        }
        Ok(())
    }
}

/// Reads one request head and writes one response. Any parse problem is answered with
/// a `400`; I/O errors are returned for the caller to drop.
fn serve_scrape<S: Service>(mut conn: Conn, state: &S) -> std::io::Result<()> {
    conn.set_timeouts(Some(SCRAPE_TIMEOUT), Some(SCRAPE_TIMEOUT))?;
    let head = match read_head(&mut conn) {
        Ok(head) => head,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            return write_response(&mut conn, 400, "Bad Request", "text/plain", "bad request\n");
        }
        Err(e) => return Err(e),
    };
    let (method, path) = match parse_request_line(&head) {
        Some(parts) => parts,
        None => {
            return write_response(&mut conn, 400, "Bad Request", "text/plain", "bad request\n");
        }
    };
    if method != "GET" {
        return write_response(
            &mut conn,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => write_response(
            &mut conn,
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &state.metrics_text(),
        ),
        "/healthz" => match state.health() {
            Health::Healthy => write_response(&mut conn, 200, "OK", "text/plain", "healthy\n"),
            Health::Degraded(reason) => write_response(
                &mut conn,
                200,
                "OK",
                "text/plain",
                &format!("degraded: {}\n", reason),
            ),
            Health::Unhealthy(reason) => write_response(
                &mut conn,
                503,
                "Service Unavailable",
                "text/plain",
                &format!("unhealthy: {}\n", reason),
            ),
        },
        _ => write_response(&mut conn, 404, "Not Found", "text/plain", "not found\n"),
    }
}

/// Reads until the `\r\n\r\n` head terminator, bounded by [`MAX_HEAD_BYTES`].
fn read_head(conn: &mut Conn) -> std::io::Result<Vec<u8>> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = conn.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "connection closed before request head",
            ));
        }
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") {
            return Ok(head);
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
    }
}

/// Extracts `(method, path)` from the request line, dropping any query string.
fn parse_request_line(head: &[u8]) -> Option<(&str, &str)> {
    let head = std::str::from_utf8(head).ok()?;
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

/// Writes one complete HTTP/1.1 response and flushes it.
fn write_response(
    conn: &mut Conn,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        code,
        reason,
        content_type,
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_method_and_path() {
        let head = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        assert_eq!(parse_request_line(head), Some(("GET", "/metrics")));
        let query = b"GET /healthz?verbose=1 HTTP/1.0\r\n\r\n";
        assert_eq!(parse_request_line(query), Some(("GET", "/healthz")));
        let post = b"POST /metrics HTTP/1.1\r\n\r\n";
        assert_eq!(parse_request_line(post), Some(("POST", "/metrics")));
        assert_eq!(parse_request_line(b"GET /metrics SPDY/3\r\n\r\n"), None);
        assert_eq!(parse_request_line(b"garbage\r\n\r\n"), None);
        assert_eq!(parse_request_line(&[0xff, 0xfe]), None);
    }
}
