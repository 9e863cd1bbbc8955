//! Client side of the `hfzd` protocol: one [`Connection`], synchronous
//! request/response.
//!
//! Used by the `hfz` remote subcommands (`get`, `list`, `stats`, `load`, `shutdown`,
//! `verify --addr`), the `hfzr` router's shard links, the CI smoke job, and the
//! concurrency tests — each test thread holds its own `Connection`.
//!
//! A `Connection` keeps the *address* authoritative rather than the socket: it can
//! dial eagerly ([`Connection::connect`]) or lazily ([`Connection::new`]), and its
//! [`RetryPolicy`] governs what happens when a previously working socket turns out to
//! be dead — by default it re-dials once and retries that one request, so a daemon
//! restart does not poison a long-lived link forever. Socket timeouts are part of the
//! same policy: a dead peer surfaces as the typed [`ClientError::TimedOut`] instead of
//! hanging a blocking read forever, and the daemon's overload reply surfaces as
//! [`ClientError::Busy`].

use std::time::Duration;

use crate::net::{connect, Conn, ListenAddr};
use crate::protocol::{
    read_frame, write_frame, BatchGetItem, GetKind, ProtocolError, Request, Response,
    MAX_REQUEST_BYTES, MAX_RESPONSE_BYTES,
};

/// Everything a request can fail with on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Protocol(ProtocolError),
    /// The daemon answered with an error message.
    Remote(String),
    /// The daemon shed the request: its decode queue is full. Retryable after a
    /// backoff — the daemon is alive, just saturated.
    Busy,
    /// A socket timeout expired mid-request. The connection is dropped (a late reply
    /// would desync the stream) but this is *not* a disconnect: the peer may be alive
    /// and slow, so the request is not transparently retried.
    TimedOut,
    /// The daemon answered with a response of the wrong shape.
    UnexpectedResponse,
}

impl ClientError {
    /// True when the failure means the *connection* died (broken pipe, reset, EOF
    /// before the response) or could not be made at all (refused — the peer is gone),
    /// rather than the request being bad. Disconnects are the retryable class: the
    /// peer may have restarted, so re-dialing can succeed where the poisoned
    /// connection cannot — and for the router they are the mark-the-shard-down
    /// signal. Remote errors, `BUSY`, timeouts, and malformed responses are not
    /// disconnects — the daemon (probably) answered, it just did not like the request
    /// or could not take it right now.
    pub fn is_disconnect(&self) -> bool {
        match self {
            ClientError::Protocol(ProtocolError::Io(e)) => matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::NotConnected
            ),
            ClientError::Protocol(ProtocolError::Malformed(reason)) => {
                *reason == EOF_BEFORE_RESPONSE
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{}", e),
            ClientError::Remote(message) => write!(f, "daemon error: {}", message),
            ClientError::Busy => write!(f, "daemon is busy: decode queue is full"),
            ClientError::TimedOut => write!(f, "request timed out"),
            ClientError::UnexpectedResponse => write!(f, "daemon sent an unexpected response"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

impl From<ClientError> for huffdec_codec::HfzError {
    /// Every client-side failure — transport, daemon error response, shape mismatch —
    /// is a protocol error to the facade.
    fn from(e: ClientError) -> Self {
        huffdec_codec::HfzError::Protocol(e.to_string())
    }
}

/// The result of a `GET`.
#[derive(Debug, Clone)]
pub struct GetResult {
    /// What the bytes are (data = f32 LE, codes = u16 LE).
    pub kind: GetKind,
    /// Whether the daemon served the bytes from its decoded-field cache.
    pub from_cache: bool,
    /// Whether a partial (range-limited) decode produced them.
    pub partial: bool,
    /// Number of elements returned.
    pub elements: u64,
    /// The raw bytes.
    pub bytes: Vec<u8>,
}

impl GetResult {
    /// Decodes the payload as little-endian u16s (code requests).
    pub fn as_u16(&self) -> Vec<u16> {
        self.bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk")))
            .collect()
    }
}

/// The `Malformed` reason [`Connection::request`] reports when the daemon hangs up
/// before answering — kept as one constant so [`ClientError::is_disconnect`] can
/// recognize it.
const EOF_BEFORE_RESPONSE: &str = "connection closed before the response";

/// How a [`Connection`] behaves when the wire misbehaves.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// How many times a request on a **reused** connection that fails with a
    /// disconnect is re-dialed and retried. A failure on a freshly dialed connection
    /// is reported as-is (the daemon is actually gone), so callers see at most
    /// `redials` transparent retries per request. All daemon requests are idempotent
    /// (`LOAD` included — loading the same path again replaces the entry), so the
    /// retry is safe.
    pub redials: u32,
    /// Socket read timeout (`None` = block forever). An expiry surfaces as
    /// [`ClientError::TimedOut`].
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            redials: 1,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

/// One logical connection to a daemon: an address, a policy, and (when dialed) a
/// socket.
pub struct Connection {
    addr: ListenAddr,
    policy: RetryPolicy,
    conn: Option<Conn>,
}

impl Connection {
    /// Dials the daemon at `addr` now (so an unreachable daemon fails here, not on the
    /// first request), with the default policy.
    pub fn connect(addr: &ListenAddr) -> Result<Connection, ClientError> {
        let mut connection = Connection::new(addr.clone());
        connection.dial()?;
        Ok(connection)
    }

    /// A connection for `addr` that dials lazily on the first request, with the
    /// default policy. This is the long-lived-link constructor (the router's shard
    /// links): the peer does not need to be up yet.
    pub fn new(addr: ListenAddr) -> Connection {
        Connection::with_policy(addr, RetryPolicy::default())
    }

    /// A lazily dialing connection with an explicit policy.
    pub fn with_policy(addr: ListenAddr, policy: RetryPolicy) -> Connection {
        Connection {
            addr,
            policy,
            conn: None,
        }
    }

    /// The address requests are sent to.
    pub fn addr(&self) -> &ListenAddr {
        &self.addr
    }

    fn dial(&mut self) -> Result<&mut Conn, ClientError> {
        if self.conn.is_none() {
            let conn = connect(&self.addr)?;
            conn.set_timeouts(self.policy.read_timeout, self.policy.write_timeout)?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just dialed"))
    }

    /// Sends one request and reads one response, applying the policy: a reused socket
    /// that turns out to be dead is re-dialed up to `redials` times, a timeout drops
    /// the socket and surfaces as [`ClientError::TimedOut`] (no transparent retry),
    /// and the daemon's overload reply surfaces as [`ClientError::Busy`]. A name or
    /// path longer than the protocol can frame is refused before anything is written.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        request.check_operands()?;
        let mut redials_left = self.policy.redials;
        let mut reused = self.conn.is_some();
        loop {
            let conn = self.dial()?;
            match request_once(conn, request) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    if let ClientError::Protocol(ProtocolError::Io(io)) = &e {
                        if matches!(
                            io.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) {
                            // A late reply would desync the stream; the socket is
                            // unusable even though the peer may be alive.
                            self.conn = None;
                            return Err(ClientError::TimedOut);
                        }
                    }
                    if e.is_disconnect() {
                        // Dead socket: never reuse it.
                        self.conn = None;
                        if reused && redials_left > 0 {
                            // The kept socket died since the last request (daemon
                            // restart, idle timeout, …). Re-dial and retry.
                            redials_left -= 1;
                            reused = false;
                            continue;
                        }
                    }
                    return Err(e);
                }
            }
        }
    }

    /// `LIST`: the archive/field metadata JSON document.
    pub fn list(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::List)? {
            Response::List(json) => Ok(json),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// `STATS`: the counters JSON document.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// `METRICS`: the registry in Prometheus text exposition format — the same
    /// document the HTTP sidecar serves on `GET /metrics`, fetched over the daemon
    /// protocol so `hfz stats --prom` works without a sidecar bound.
    pub fn metrics_prom(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// `GET`: (a range of) a decoded field.
    pub fn get(
        &mut self,
        archive: &str,
        field: u32,
        kind: GetKind,
        range: Option<(u64, u64)>,
    ) -> Result<GetResult, ClientError> {
        let request = Request::Get {
            archive: archive.to_string(),
            field,
            kind,
            range,
        };
        match self.request(&request)? {
            Response::Get {
                kind,
                from_cache,
                partial,
                elements,
                bytes,
            } => Ok(GetResult {
                kind,
                from_cache,
                partial,
                elements,
                bytes,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// `GETBATCH`: fetches several whole decoded fields of one archive in a single
    /// round trip; the daemon decodes every cache miss as one batched wave. Items come
    /// back in the order `fields` named them.
    pub fn get_batch(
        &mut self,
        archive: &str,
        kind: GetKind,
        fields: &[u32],
    ) -> Result<Vec<BatchGetItem>, ClientError> {
        let request = Request::GetBatch {
            archive: archive.to_string(),
            kind,
            fields: fields.to_vec(),
        };
        match self.request(&request)? {
            Response::GetBatch { items, .. } => Ok(items),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// `LOAD`: loads an archive file on the daemon; returns its field count.
    pub fn load(&mut self, name: &str, path: &str) -> Result<u32, ClientError> {
        let request = Request::Load {
            name: name.to_string(),
            path: path.to_string(),
        };
        match self.request(&request)? {
            Response::Loaded { fields } => Ok(fields),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// `VERIFY`: decodes every field of an archive on the daemon and checks digests.
    /// Returns the report; `Ok` does not imply the digests matched — check the report
    /// (the last line counts failures).
    pub fn verify(&mut self, archive: &str) -> Result<String, ClientError> {
        let request = Request::Verify {
            archive: archive.to_string(),
        };
        match self.request(&request)? {
            Response::Verify(report) => Ok(report),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// `SHUTDOWN`: stops the daemon.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}

/// One request/response exchange on an already-dialed socket. Maps the daemon's typed
/// failure replies (`ERROR`, `BUSY`) to their [`ClientError`] variants.
fn request_once(conn: &mut Conn, request: &Request) -> Result<Response, ClientError> {
    write_frame(conn, &request.encode(), MAX_REQUEST_BYTES)?;
    let body = read_frame(conn, MAX_RESPONSE_BYTES)?.ok_or(ClientError::Protocol(
        ProtocolError::Malformed(EOF_BEFORE_RESPONSE),
    ))?;
    match Response::decode(&body)? {
        Response::Error(message) => Err(ClientError::Remote(message)),
        Response::Busy => Err(ClientError::Busy),
        response => Ok(response),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Listener;

    #[test]
    fn read_timeout_surfaces_as_timed_out() {
        // A listener that accepts (at the kernel level) but never replies.
        let listener = Listener::bind(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let policy = RetryPolicy {
            redials: 0,
            read_timeout: Some(Duration::from_millis(50)),
            write_timeout: Some(Duration::from_millis(50)),
        };
        let mut conn = Connection::with_policy(addr, policy);
        let err = conn.request(&Request::Stats).unwrap_err();
        assert!(
            matches!(err, ClientError::TimedOut),
            "expected TimedOut, got: {}",
            err
        );
        assert!(!err.is_disconnect(), "a timeout is not a disconnect");
        assert!(conn.conn.is_none(), "the timed-out socket is dropped");
    }
}
