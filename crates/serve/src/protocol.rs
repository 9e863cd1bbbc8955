//! The `hfzd` wire protocol: a small length-prefixed binary request/response format.
//!
//! Every message is one **frame**: a little-endian `u32` body length followed by the
//! body. A request body is `version (u8) | opcode (u8) | operands`; a response body is
//! `version (u8) | status (u8) | operands`. Strings are `u16` length + UTF-8; bulk
//! byte payloads are `u64` length + bytes. The commands:
//!
//! | opcode | command | request operands | ok-response operands |
//! |-------:|---------|------------------|----------------------|
//! | 1 | `LIST` | — | JSON document (archives, fields, metadata) |
//! | 2 | `GET`  | archive, field, kind, optional range | kind, `from_cache`, `partial`, element count, bytes |
//! | 3 | `STATS` | — | JSON document (cache + decode counters) |
//! | 4 | `VERIFY` | archive | text report, one line per field |
//! | 5 | `SHUTDOWN` | — | — (the daemon stops accepting and drains) |
//! | 6 | `LOAD` | name, path | field count |
//! | 7 | `GETBATCH` | archive, kind, field-index list | per field: `from_cache`, element count, bytes |
//! | 8 | `METRICS` | — | Prometheus text exposition of the daemon's registry |
//!
//! Additionally, a saturated daemon may answer `GET`/`GETBATCH` with a `BUSY` reply
//! (tag 9, no operands): the pending-decode queue is full and the request was shed
//! rather than queued. `BUSY` is admission control, not an error — the client should
//! back off and retry (the `hfzr` router does this on the failover path).
//!
//! `GETBATCH` fetches several whole fields of one archive in a single round trip; the
//! daemon decodes every cache miss as **one batched wave** (shared worker pool,
//! overlapped kernels) instead of N serial decodes, then fills the same LRU single-field
//! `GET`s hit.
//!
//! `GET` serves either the reconstructed field (`kind` = data: little-endian f32s,
//! field archives only) or the decoded quantization codes (`kind` = codes: little-endian
//! u16s, any archive). A range addresses *elements* (= symbols for codes); ranged code
//! requests decode only the overlapping blocks on a cache miss.
//!
//! **A frame is one write.** Every frame of every party — daemon, router,
//! [`Connection`](crate::client::Connection), tests, the benchmark's client — leaves in
//! one vectored write: the length prefix and the body's own header bytes in one small
//! buffer, and each payload (a `GET`'s bytes, every `GETBATCH` item's, a text
//! document) passed to `writev` by reference from where it already lies, so a reply is
//! never copied into an encoded body or a frame buffer on its way to the socket. [`write_frame`] sends a body
//! that is already one buffer the same way, as a single `write`. Written as two
//! `write`s (prefix, then body) a frame becomes two TCP segments, and Nagle's algorithm
//! holds the second back until the first is acknowledged while the peer's delayed-ACK
//! timer sits on that acknowledgement waiting for data to piggyback on: every `tcp:`
//! exchange then costs one ACK timeout, whatever the daemon does. Measured on a cache
//! hit of a 65,536-element field: 43.96 ms per `GET` with two writes, 0.095 ms with one
//! — and with Nagle's algorithm left on (no socket option is set anywhere): a small
//! frame written whole goes out at once because nothing is in flight ahead of it, and a
//! large one is a run of full segments the receiver acknowledges as they arrive. That is
//! also why [`Conn`](crate::net::Conn) forwards `write_vectored` to its socket: std's
//! default writes only the first slice, which would split every reply into two writes
//! again.
//!
//! Frames are bounded ([`MAX_REQUEST_BYTES`] / [`MAX_RESPONSE_BYTES`]) so a corrupt or
//! hostile peer cannot drive an unbounded allocation, mirroring the container's
//! defensive-parsing stance: every malformed body surfaces as a typed
//! [`ProtocolError`], never a panic.

use std::io::{IoSlice, Read, Write};

use huffdec_container::{ArchiveInfo, JsonWriter, SnapshotManifest};

/// Protocol version; bumped on any incompatible change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on a request frame (requests carry only names and ranges).
pub const MAX_REQUEST_BYTES: u32 = 1 << 20;

/// Hard ceiling on a response frame (responses carry decoded fields).
pub const MAX_RESPONSE_BYTES: u32 = 1 << 30;

/// What a `GET` asks for: the codec's decode target, one wire tag each.
pub use huffdec_codec::GetKind;

fn kind_tag(kind: GetKind) -> u8 {
    match kind {
        GetKind::Data => 0,
        GetKind::Codes => 1,
    }
}

fn kind_from_tag(tag: u8) -> Result<GetKind, ProtocolError> {
    match tag {
        0 => Ok(GetKind::Data),
        1 => Ok(GetKind::Codes),
        _ => Err(ProtocolError::Malformed("unknown GET kind")),
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Describe the loaded archives and their fields.
    List,
    /// Fetch (a range of) a decoded field.
    Get {
        /// Name the archive was loaded under.
        archive: String,
        /// Field index within the archive file (files may concatenate archives).
        field: u32,
        /// Data or codes.
        kind: GetKind,
        /// Optional element range `(start, len)`; `None` fetches the whole field.
        range: Option<(u64, u64)>,
    },
    /// Fetch cache and decode counters.
    Stats,
    /// Decode every field of an archive and check its stored decoded-stream digest.
    Verify {
        /// Name the archive was loaded under.
        archive: String,
    },
    /// Stop the daemon.
    Shutdown,
    /// Load an archive file into memory under a name.
    Load {
        /// Name to serve the archive under.
        name: String,
        /// Filesystem path of the archive file (`HFZ1` or `HFZ2`).
        path: String,
    },
    /// Fetch several whole decoded fields of one archive in a single round trip; cold
    /// fields are decoded as one batched wave.
    GetBatch {
        /// Name the archive was loaded under.
        archive: String,
        /// Data or codes (applies to every requested field).
        kind: GetKind,
        /// Field indices to fetch, in response order.
        fields: Vec<u32>,
    },
    /// Fetch the daemon's metrics registry in Prometheus text exposition format (the
    /// same document the HTTP sidecar serves at `/metrics`).
    Metrics,
}

/// Hard ceiling on the number of fields one `GETBATCH` may request.
pub const MAX_BATCH_FIELDS: usize = 1024;

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request failed; the message says why.
    Error(String),
    /// `LIST` result: a JSON document.
    List(String),
    /// `GET` result.
    Get {
        /// What the bytes are.
        kind: GetKind,
        /// Whether the bytes came from the decoded-field cache.
        from_cache: bool,
        /// Whether a partial (range-limited) decode produced them.
        partial: bool,
        /// Number of elements returned.
        elements: u64,
        /// The raw little-endian bytes.
        bytes: Vec<u8>,
    },
    /// `STATS` result: a JSON document.
    Stats(String),
    /// `VERIFY` result: a human-readable report, one line per field.
    Verify(String),
    /// `LOAD` result: how many fields the archive file contains.
    Loaded {
        /// Field count.
        fields: u32,
    },
    /// `SHUTDOWN` acknowledged.
    ShuttingDown,
    /// `GETBATCH` result: one item per requested field, in request order.
    GetBatch {
        /// What every item's bytes are.
        kind: GetKind,
        /// The fetched fields.
        items: Vec<BatchGetItem>,
    },
    /// `METRICS` result: a Prometheus text exposition document.
    Metrics(String),
    /// The daemon's pending-decode queue is saturated and the request was shed;
    /// back off and retry. Only `GET`/`GETBATCH` can be answered this way.
    Busy,
}

/// One field of a `GETBATCH` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchGetItem {
    /// Whether the bytes came from the decoded-field cache (misses were decoded in the
    /// request's batched wave).
    pub from_cache: bool,
    /// Number of elements returned.
    pub elements: u64,
    /// The raw little-endian bytes.
    pub bytes: Vec<u8>,
}

/// The `LIST` document: one object per archive, in the order given, with its name,
/// its path and one object per field. A field object is its [`ArchiveInfo`] JSON,
/// prefixed with its manifest name when the file carries a manifest, so clients can
/// resolve names to indices without reading the file. The daemon renders it from its
/// store, the `hfzr` router from its registry.
pub(crate) fn list_document<'a, I>(
    archives: impl IntoIterator<Item = (&'a str, &'a str, Option<&'a SnapshotManifest>, I)>,
) -> String
where
    I: IntoIterator<Item = &'a ArchiveInfo>,
{
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("archives").begin_array();
    for (name, path, manifest, infos) in archives {
        w.begin_object();
        w.key("name").str(name);
        w.key("path").str(path);
        w.key("fields").begin_array();
        for (i, info) in infos.into_iter().enumerate() {
            match manifest {
                Some(manifest) => {
                    w.begin_object();
                    w.key("name").str(&manifest.entries()[i].name);
                    w.splice_fields(&info.to_json());
                    w.end_object();
                }
                None => {
                    w.raw(&info.to_json());
                }
            }
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Everything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum ProtocolError {
    /// An underlying socket error.
    Io(std::io::Error),
    /// A frame exceeded its size ceiling.
    FrameTooLarge {
        /// The length the frame claimed.
        claimed: u32,
        /// The applicable ceiling.
        limit: u32,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version found in the frame.
        found: u8,
    },
    /// A structurally invalid body.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "socket error: {}", e),
            ProtocolError::FrameTooLarge { claimed, limit } => {
                write!(f, "frame of {} bytes exceeds the {} limit", claimed, limit)
            }
            ProtocolError::VersionMismatch { found } => write!(
                f,
                "protocol version {} (this build speaks {})",
                found, PROTOCOL_VERSION
            ),
            ProtocolError::Malformed(reason) => write!(f, "malformed message: {}", reason),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<ProtocolError> for huffdec_codec::HfzError {
    /// Transport and framing failures surface as the facade's protocol variant, so CLI
    /// consumers map every remote failure to one exit code.
    fn from(e: ProtocolError) -> Self {
        huffdec_codec::HfzError::Protocol(e.to_string())
    }
}

// --- Framing ---------------------------------------------------------------------------

/// Linux's `IOV_MAX`: the most slices one `writev` takes (std passes it no more).
const IOV_MAX: usize = 1024;

/// Bytes of a frame's length prefix.
const PREFIX: usize = 4;

/// A body's length as its frame's prefix, refusing one over `limit`: a length prefix
/// must never wrap (`as u32`) or promise more than the peer will accept, or the stream
/// desynchronizes.
fn frame_len(len: usize, limit: u32) -> Result<u32, ProtocolError> {
    if len as u64 > limit as u64 {
        return Err(ProtocolError::FrameTooLarge {
            claimed: len.min(u32::MAX as usize) as u32,
            limit,
        });
    }
    Ok(len as u32)
}

/// Writes one frame — length prefix and body as **one buffer, one write** (see the module
/// docs for why) — refusing bodies over `limit` before anything is copied or written.
/// Requests leave through here. It copies `body` behind the prefix and sends it through
/// the same writer as `write_response`, which lays out the prefix beside a reply's
/// header and borrows its payloads instead.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8], limit: u32) -> Result<(), ProtocolError> {
    frame_len(body.len(), limit)?;
    let mut frame = BodyWriter::with_capacity(body.len());
    frame.buf.extend_from_slice(body);
    frame.send(w, limit)
}

/// Writes a reply as one frame, degrading one that does not fit `limit` (a field
/// decoding past the 1 GiB response ceiling) to a typed [`Response::Error`] frame
/// naming both sizes, so the peer gets an answer and the stream stays in sync. The
/// size is summed from the layout, so an over-limit reply is refused before anything
/// is copied or written.
pub(crate) fn write_response<W: Write>(
    w: &mut W,
    response: &Response,
    limit: u32,
) -> Result<(), ProtocolError> {
    let body = response.layout();
    if body.len() as u64 > limit as u64 {
        let refusal = format!(
            "response of {} bytes exceeds the {} frame limit; request a range",
            body.len(),
            limit
        );
        return Response::Error(refusal).layout().send(w, limit);
    }
    body.send(w, limit)
}

/// Writes every byte of `parts`, in order, in as few `write_vectored` calls as `w`
/// takes, finishing short writes by hand: MSRV 1.75 has neither
/// `IoSlice::advance_slices` nor `write_all_vectored`.
fn write_all_vectored<'p, W: Write>(
    w: &mut W,
    mut parts: impl Iterator<Item = &'p [u8]> + Clone,
) -> std::io::Result<()> {
    let mut io = [IoSlice::new(&[]); IOV_MAX];
    // Bytes written past the start of what is left of `parts`.
    let mut written = 0;
    loop {
        // Step past what has been written, empty parts included, so that a writer
        // taking nothing below means it is stuck.
        while let Some(first) = parts.clone().next() {
            if written < first.len() {
                break;
            }
            written -= first.len();
            parts.next();
        }
        let mut window = parts.clone();
        let Some(first) = window.next() else {
            return Ok(());
        };
        io[0] = IoSlice::new(&first[written..]);
        let mut n = 1;
        for (slot, part) in io[1..].iter_mut().zip(window) {
            *slot = IoSlice::new(part);
            n += 1;
        }
        match w.write_vectored(&io[..n]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(k) => written += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads one frame, enforcing `limit`. Returns `None` on a clean EOF at the frame
/// boundary (the peer closed the connection).
pub fn read_frame<R: Read>(r: &mut R, limit: u32) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > limit {
        return Err(ProtocolError::FrameTooLarge {
            claimed: len,
            limit,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// --- Body encoding ---------------------------------------------------------------------

/// A body laid out for the wire: the bytes it lays out itself, and the blobs whose
/// payloads it borrows. The frame writer sends it as slices — the length prefix and
/// the owned bytes up to the first blob in one buffer, each payload by reference —
/// and [`Request::encode`] / [`Response::encode`] copy it out whole.
struct BodyWriter<'a> {
    /// A slot for the frame's length prefix, then everything but blob payloads:
    /// version, opcode or status, operands and blob lengths.
    buf: Vec<u8>,
    /// Each blob's payload, with the length `buf` had when it was laid out.
    blobs: Vec<(usize, &'a [u8])>,
}

impl<'a> BodyWriter<'a> {
    /// An empty body with room for `capacity` owned bytes after the prefix slot.
    fn with_capacity(capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(PREFIX + capacity);
        buf.extend_from_slice(&[0; PREFIX]);
        BodyWriter {
            buf,
            blobs: Vec::new(),
        }
    }

    fn new(opcode_or_status: u8) -> Self {
        // Room for a `GET` reply's header and most requests: laying one out allocates once.
        let mut w = BodyWriter::with_capacity(60);
        w.buf
            .extend_from_slice(&[PROTOCOL_VERSION, opcode_or_status]);
        w
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str16(&mut self, s: &str) {
        let bytes = s.as_bytes();
        debug_assert!(bytes.len() <= u16::MAX as usize);
        self.buf
            .extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    fn blob(&mut self, bytes: &'a [u8]) {
        self.u64(bytes.len() as u64);
        self.blobs.push((self.buf.len(), bytes));
    }

    fn text(&mut self, s: &'a str) {
        self.blob(s.as_bytes());
    }

    /// The body's length, prefix excluded.
    fn len(&self) -> usize {
        self.buf.len() - PREFIX + self.blobs.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    /// The body in wire order from byte `from` of `buf`: owned bytes up to the first
    /// blob, its payload, owned bytes up to the next, and so on.
    fn parts(&self, from: usize) -> impl Iterator<Item = &[u8]> + Clone {
        (0..=self.blobs.len()).flat_map(move |i| {
            let start = i.checked_sub(1).map_or(from, |prev| self.blobs[prev].0);
            let (end, blob) = self.blobs.get(i).copied().unwrap_or((self.buf.len(), &[]));
            [&self.buf[start..end], blob]
        })
    }

    /// The body as one buffer, prefix excluded.
    fn into_bytes(mut self) -> Vec<u8> {
        if self.blobs.is_empty() {
            self.buf.drain(..PREFIX);
            return self.buf;
        }
        let mut body = Vec::with_capacity(self.len());
        for part in self.parts(PREFIX) {
            body.extend_from_slice(part);
        }
        body
    }

    /// Writes the body as one frame: its prefix goes into the slot ahead of the owned
    /// bytes, and everything leaves through one `write_vectored` loop — one call
    /// unless the writer takes less. Refuses a body over `limit` before writing.
    fn send<W: Write>(mut self, w: &mut W, limit: u32) -> Result<(), ProtocolError> {
        let len = frame_len(self.len(), limit)?;
        self.buf[..PREFIX].copy_from_slice(&len.to_le_bytes());
        write_all_vectored(w, self.parts(0))?;
        w.flush()?;
        Ok(())
    }
}

struct BodyReader<'a> {
    rest: &'a [u8],
}

impl<'a> BodyReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.rest.len() < n {
            return Err(ProtocolError::Malformed("body ends early"));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> Result<String, ProtocolError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ProtocolError::Malformed("string is not UTF-8"))
    }

    fn blob(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| ProtocolError::Malformed("blob too long"))?;
        Ok(self.take(len)?.to_vec())
    }

    fn text(&mut self) -> Result<String, ProtocolError> {
        String::from_utf8(self.blob()?).map_err(|_| ProtocolError::Malformed("text is not UTF-8"))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes in body"))
        }
    }
}

fn check_version(r: &mut BodyReader<'_>) -> Result<(), ProtocolError> {
    let found = r.u8()?;
    if found != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch { found });
    }
    Ok(())
}

const OP_LIST: u8 = 1;
const OP_GET: u8 = 2;
const OP_STATS: u8 = 3;
const OP_VERIFY: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_LOAD: u8 = 6;
const OP_GET_BATCH: u8 = 7;
const OP_METRICS: u8 = 8;

const STATUS_OK: u8 = 0;
const STATUS_ERROR: u8 = 1;

impl Request {
    /// Refuses a request whose name or path does not fit the `u16` length that frames
    /// it: encoded anyway, the length would wrap and the peer would parse the rest of
    /// the string as operands.
    pub(crate) fn check_operands(&self) -> Result<(), ProtocolError> {
        let longest = match self {
            Request::Get { archive, .. }
            | Request::Verify { archive }
            | Request::GetBatch { archive, .. } => archive.len(),
            Request::Load { name, path } => name.len().max(path.len()),
            Request::List | Request::Stats | Request::Shutdown | Request::Metrics => 0,
        };
        if longest > u16::MAX as usize {
            return Err(ProtocolError::Malformed(
                "a name or path is longer than 65,535 bytes",
            ));
        }
        Ok(())
    }

    /// Serializes the request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let body = match self {
            Request::List => BodyWriter::new(OP_LIST),
            Request::Get {
                archive,
                field,
                kind,
                range,
            } => {
                let mut w = BodyWriter::new(OP_GET);
                w.str16(archive);
                w.u32(*field);
                w.u8(kind_tag(*kind));
                match range {
                    Some((start, len)) => {
                        w.u8(1);
                        w.u64(*start);
                        w.u64(*len);
                    }
                    None => {
                        w.u8(0);
                        w.u64(0);
                        w.u64(0);
                    }
                }
                w
            }
            Request::Stats => BodyWriter::new(OP_STATS),
            Request::Verify { archive } => {
                let mut w = BodyWriter::new(OP_VERIFY);
                w.str16(archive);
                w
            }
            Request::Shutdown => BodyWriter::new(OP_SHUTDOWN),
            Request::Load { name, path } => {
                let mut w = BodyWriter::new(OP_LOAD);
                w.str16(name);
                w.str16(path);
                w
            }
            Request::GetBatch {
                archive,
                kind,
                fields,
            } => {
                let mut w = BodyWriter::new(OP_GET_BATCH);
                w.str16(archive);
                w.u8(kind_tag(*kind));
                w.u32(fields.len() as u32);
                for &f in fields {
                    w.u32(f);
                }
                w
            }
            Request::Metrics => BodyWriter::new(OP_METRICS),
        };
        body.into_bytes()
    }

    /// Parses a frame body into a request.
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = BodyReader { rest: body };
        check_version(&mut r)?;
        let opcode = r.u8()?;
        let request = match opcode {
            OP_LIST => Request::List,
            OP_GET => {
                let archive = r.str16()?;
                let field = r.u32()?;
                let kind = kind_from_tag(r.u8()?)?;
                let has_range = r.u8()?;
                let start = r.u64()?;
                let len = r.u64()?;
                let range = match has_range {
                    0 => None,
                    1 => Some((start, len)),
                    _ => return Err(ProtocolError::Malformed("bad range marker")),
                };
                Request::Get {
                    archive,
                    field,
                    kind,
                    range,
                }
            }
            OP_STATS => Request::Stats,
            OP_VERIFY => Request::Verify {
                archive: r.str16()?,
            },
            OP_SHUTDOWN => Request::Shutdown,
            OP_LOAD => Request::Load {
                name: r.str16()?,
                path: r.str16()?,
            },
            OP_GET_BATCH => {
                let archive = r.str16()?;
                let kind = kind_from_tag(r.u8()?)?;
                let count = r.u32()? as usize;
                if count > MAX_BATCH_FIELDS {
                    return Err(ProtocolError::Malformed("batch requests too many fields"));
                }
                let mut fields = Vec::with_capacity(count);
                for _ in 0..count {
                    fields.push(r.u32()?);
                }
                Request::GetBatch {
                    archive,
                    kind,
                    fields,
                }
            }
            OP_METRICS => Request::Metrics,
            _ => return Err(ProtocolError::Malformed("unknown opcode")),
        };
        r.finish()?;
        Ok(request)
    }
}

const RESP_LIST: u8 = 1;
const RESP_GET: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_VERIFY: u8 = 4;
const RESP_SHUTDOWN: u8 = 5;
const RESP_LOADED: u8 = 6;
const RESP_GET_BATCH: u8 = 7;
const RESP_METRICS: u8 = 8;
const RESP_BUSY: u8 = 9;

impl Response {
    /// Serializes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        self.layout().into_bytes()
    }

    /// Lays the response out as a body that borrows its payloads: the one description
    /// of the response wire format, which [`Response::encode`] copies out and
    /// [`write_response`] sends as it lies.
    fn layout(&self) -> BodyWriter<'_> {
        if let Response::Error(message) = self {
            let mut w = BodyWriter::new(STATUS_ERROR);
            w.text(message);
            return w;
        }
        let mut w = BodyWriter::new(STATUS_OK);
        match self {
            Response::Error(_) => unreachable!("handled above"),
            Response::List(json) => {
                w.u8(RESP_LIST);
                w.text(json);
            }
            Response::Get {
                kind,
                from_cache,
                partial,
                elements,
                bytes,
            } => {
                w.u8(RESP_GET);
                w.u8(kind_tag(*kind));
                w.u8(*from_cache as u8);
                w.u8(*partial as u8);
                w.u64(*elements);
                w.blob(bytes);
            }
            Response::Stats(json) => {
                w.u8(RESP_STATS);
                w.text(json);
            }
            Response::Verify(report) => {
                w.u8(RESP_VERIFY);
                w.text(report);
            }
            Response::Loaded { fields } => {
                w.u8(RESP_LOADED);
                w.u32(*fields);
            }
            Response::ShuttingDown => {
                w.u8(RESP_SHUTDOWN);
            }
            Response::GetBatch { kind, items } => {
                w.u8(RESP_GET_BATCH);
                w.u8(kind_tag(*kind));
                w.u32(items.len() as u32);
                for item in items {
                    w.u8(item.from_cache as u8);
                    w.u64(item.elements);
                    w.blob(&item.bytes);
                }
            }
            Response::Metrics(text) => {
                w.u8(RESP_METRICS);
                w.text(text);
            }
            Response::Busy => {
                w.u8(RESP_BUSY);
            }
        }
        w
    }

    /// Parses a frame body into a response.
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = BodyReader { rest: body };
        check_version(&mut r)?;
        let status = r.u8()?;
        if status == STATUS_ERROR {
            let message = r.text()?;
            r.finish()?;
            return Ok(Response::Error(message));
        }
        if status != STATUS_OK {
            return Err(ProtocolError::Malformed("unknown status"));
        }
        let tag = r.u8()?;
        let response = match tag {
            RESP_LIST => Response::List(r.text()?),
            RESP_GET => {
                let kind = kind_from_tag(r.u8()?)?;
                let from_cache = r.u8()? != 0;
                let partial = r.u8()? != 0;
                let elements = r.u64()?;
                let bytes = r.blob()?;
                // Checked: `elements` is wire data — an absurd count must not overflow
                // past validation (or panic) before the mismatch is reported.
                let expected = elements.checked_mul(kind.element_bytes());
                if expected != Some(bytes.len() as u64) {
                    return Err(ProtocolError::Malformed("byte count disagrees with count"));
                }
                Response::Get {
                    kind,
                    from_cache,
                    partial,
                    elements,
                    bytes,
                }
            }
            RESP_STATS => Response::Stats(r.text()?),
            RESP_VERIFY => Response::Verify(r.text()?),
            RESP_LOADED => Response::Loaded { fields: r.u32()? },
            RESP_SHUTDOWN => Response::ShuttingDown,
            RESP_GET_BATCH => {
                let kind = kind_from_tag(r.u8()?)?;
                let count = r.u32()? as usize;
                if count > MAX_BATCH_FIELDS {
                    return Err(ProtocolError::Malformed("batch response too large"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    let from_cache = r.u8()? != 0;
                    let elements = r.u64()?;
                    let bytes = r.blob()?;
                    // Same wire-data check as single GET: an absurd element count must
                    // surface as a typed mismatch, never an overflow.
                    if elements.checked_mul(kind.element_bytes()) != Some(bytes.len() as u64) {
                        return Err(ProtocolError::Malformed("byte count disagrees with count"));
                    }
                    items.push(BatchGetItem {
                        from_cache,
                        elements,
                        bytes,
                    });
                }
                Response::GetBatch { kind, items }
            }
            RESP_METRICS => Response::Metrics(r.text()?),
            RESP_BUSY => Response::Busy,
            _ => return Err(ProtocolError::Malformed("unknown response tag")),
        };
        r.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = vec![
            Request::List,
            Request::Stats,
            Request::Shutdown,
            Request::Verify {
                archive: "hacc".into(),
            },
            Request::Load {
                name: "gamess".into(),
                path: "/tmp/gamess.hfz".into(),
            },
            Request::Get {
                archive: "hacc".into(),
                field: 2,
                kind: GetKind::Data,
                range: None,
            },
            Request::Get {
                archive: "hacc".into(),
                field: 0,
                kind: GetKind::Codes,
                range: Some((1024, 4096)),
            },
            Request::GetBatch {
                archive: "snap".into(),
                kind: GetKind::Data,
                fields: vec![0, 2, 1],
            },
            Request::GetBatch {
                archive: "snap".into(),
                kind: GetKind::Codes,
                fields: vec![],
            },
            Request::Metrics,
        ];
        for req in cases {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::Error("no such archive".into()),
            Response::List("{\"archives\":[]}".into()),
            Response::Stats("{}".into()),
            Response::Verify("field 0: ok".into()),
            Response::Loaded { fields: 3 },
            Response::ShuttingDown,
            Response::Get {
                kind: GetKind::Codes,
                from_cache: true,
                partial: false,
                elements: 3,
                bytes: vec![1, 0, 2, 0, 3, 0],
            },
            Response::GetBatch {
                kind: GetKind::Codes,
                items: vec![
                    BatchGetItem {
                        from_cache: true,
                        elements: 2,
                        bytes: vec![1, 0, 2, 0],
                    },
                    BatchGetItem {
                        from_cache: false,
                        elements: 0,
                        bytes: vec![],
                    },
                ],
            },
            Response::Metrics("# HELP hfz_requests_total requests\n".into()),
            Response::Busy,
        ];
        for resp in cases {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 1024).unwrap();
        write_frame(&mut buf, b"", 1024).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = buf.as_slice();
        assert!(matches!(
            read_frame(&mut r, MAX_REQUEST_BYTES),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_body_is_refused_before_writing() {
        // A body over the limit must not be serialized at all — a wrapped or
        // over-limit length prefix would desynchronize the stream.
        let mut buf = Vec::new();
        let body = vec![0u8; 11];
        assert!(matches!(
            write_frame(&mut buf, &body, 10),
            Err(ProtocolError::FrameTooLarge {
                claimed: 11,
                limit: 10
            })
        ));
        assert!(buf.is_empty(), "nothing was written");
    }

    /// Accepts everything and records the length of each `write` call: what a socket
    /// sees of a frame.
    struct CountingWriter(Vec<usize>);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        // Two writes per frame is the Nagle × delayed-ACK stall (module docs): 44 ms
        // per `tcp:` exchange.
        for len in [0usize, 5, 300 << 10] {
            let mut w = CountingWriter(Vec::new());
            write_frame(&mut w, &vec![7u8; len], MAX_RESPONSE_BYTES).unwrap();
            assert_eq!(w.0, vec![4 + len], "body of {} bytes", len);
        }
    }

    #[test]
    fn oversized_response_degrades_to_an_error_frame_and_the_stream_stays_in_sync() {
        let big = Response::Verify("x".repeat(400));
        let mut stream = Vec::new();
        write_response(&mut stream, &big, 256).unwrap();
        write_response(&mut stream, &Response::Loaded { fields: 3 }, 256).unwrap();
        let mut r = stream.as_slice();
        let mut next = || Response::decode(&read_frame(&mut r, 256).unwrap().unwrap()).unwrap();
        let Response::Error(message) = next() else {
            panic!("expected a typed error frame");
        };
        let sizes = format!("of {} bytes exceeds the 256 frame", big.encode().len());
        assert!(message.contains(&sizes), "{}", message);
        assert_eq!(next(), Response::Loaded { fields: 3 });
    }

    /// Takes at most `cap` bytes per call, through `write` and `write_vectored` alike:
    /// a socket whose send buffer is nearly full.
    struct ShortWriter {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(self.cap - n);
                self.out.extend_from_slice(&buf[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Takes everything it is given in one call, refusing more slices than `writev`
    /// does, and records each call's slice and byte counts.
    #[derive(Default)]
    struct WritevWriter {
        out: Vec<u8>,
        calls: Vec<(usize, usize)>,
    }

    impl Write for WritevWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if bufs.len() > IOV_MAX {
                return Err(std::io::ErrorKind::InvalidInput.into());
            }
            let before = self.out.len();
            for buf in bufs {
                self.out.extend_from_slice(buf);
            }
            self.calls.push((bufs.len(), self.out.len() - before));
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A frame as `write_frame` lays it out: the length prefix, then the body.
    fn framed(body: &[u8]) -> Vec<u8> {
        [&(body.len() as u32).to_le_bytes()[..], body].concat()
    }

    #[test]
    fn reply_frames_are_the_prefix_and_encode_even_through_short_writes() {
        // The cases of `responses_roundtrip`.
        let cases = vec![
            Response::Error("no such archive".into()),
            Response::List("{\"archives\":[]}".into()),
            Response::Stats("{}".into()),
            Response::Verify("field 0: ok".into()),
            Response::Loaded { fields: 3 },
            Response::ShuttingDown,
            Response::Get {
                kind: GetKind::Codes,
                from_cache: true,
                partial: false,
                elements: 3,
                bytes: vec![1, 0, 2, 0, 3, 0],
            },
            Response::GetBatch {
                kind: GetKind::Codes,
                items: vec![
                    BatchGetItem {
                        from_cache: true,
                        elements: 2,
                        bytes: vec![1, 0, 2, 0],
                    },
                    BatchGetItem {
                        from_cache: false,
                        elements: 0,
                        bytes: vec![],
                    },
                ],
            },
            Response::Metrics("# HELP hfz_requests_total requests\n".into()),
            Response::Busy,
        ];
        for resp in cases {
            let expected = framed(&resp.encode());
            let mut whole = Vec::new();
            write_response(&mut whole, &resp, MAX_RESPONSE_BYTES).unwrap();
            assert_eq!(whole, expected, "{:?}", resp);
            let mut short = ShortWriter {
                out: Vec::new(),
                cap: 7,
            };
            write_response(&mut short, &resp, MAX_RESPONSE_BYTES).unwrap();
            assert_eq!(short.out, expected, "{:?} in 7-byte writes", resp);
        }
    }

    #[test]
    fn a_get_reply_is_one_vectored_write() {
        let get = Response::Get {
            kind: GetKind::Data,
            from_cache: true,
            partial: false,
            elements: 65_536,
            bytes: vec![7; 65_536 * 4],
        };
        let mut w = WritevWriter::default();
        write_response(&mut w, &get, MAX_RESPONSE_BYTES).unwrap();
        let body = get.encode();
        assert_eq!(w.calls.len(), 1, "{:?}", w.calls);
        assert_eq!(w.calls[0].1, 4 + body.len());
        assert_eq!(w.out, framed(&body));
    }

    /// A full batch is more slices than one `writev` takes: it leaves in several
    /// calls, none over the limit, and arrives whole.
    #[test]
    fn a_full_batch_reply_arrives_whole() {
        let batch = Response::GetBatch {
            kind: GetKind::Codes,
            items: (0..MAX_BATCH_FIELDS)
                .map(|i| BatchGetItem {
                    from_cache: i % 2 == 0,
                    elements: 1,
                    bytes: (i as u16).to_le_bytes().to_vec(),
                })
                .collect(),
        };
        let expected = framed(&batch.encode());
        let mut w = WritevWriter::default();
        write_response(&mut w, &batch, MAX_RESPONSE_BYTES).unwrap();
        assert!(w.calls.len() > 1, "{:?}", w.calls);
        assert_eq!(w.out, expected);

        // The same through a real socket, whose `writev` the kernel bounds.
        #[cfg(unix)]
        {
            let (mut tx, mut rx) = std::os::unix::net::UnixStream::pair().unwrap();
            let reader = std::thread::spawn(move || {
                let mut got = Vec::new();
                rx.read_to_end(&mut got).unwrap();
                got
            });
            write_response(&mut tx, &batch, MAX_RESPONSE_BYTES).unwrap();
            drop(tx);
            assert_eq!(reader.join().unwrap(), expected);
        }
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        // Wrong version.
        assert!(matches!(
            Request::decode(&[99, OP_LIST]),
            Err(ProtocolError::VersionMismatch { found: 99 })
        ));
        // Unknown opcode.
        assert!(Request::decode(&[PROTOCOL_VERSION, 200]).is_err());
        // Truncated GET.
        let mut body = Request::Get {
            archive: "a".into(),
            field: 0,
            kind: GetKind::Data,
            range: None,
        }
        .encode();
        body.truncate(body.len() - 3);
        assert!(Request::decode(&body).is_err());
        // Trailing garbage.
        let mut body = Request::List.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        // GET response whose byte count disagrees with its element count.
        let resp = Response::Get {
            kind: GetKind::Codes,
            from_cache: false,
            partial: false,
            elements: 5,
            bytes: vec![0; 4],
        };
        assert!(Response::decode(&resp.encode()).is_err());
        // An element count whose byte size overflows u64 must be a typed error, not an
        // overflow panic (debug) or a wrapped pass (release).
        let resp = Response::Get {
            kind: GetKind::Codes,
            from_cache: false,
            partial: false,
            elements: u64::MAX,
            bytes: Vec::new(),
        };
        assert!(matches!(
            Response::decode(&resp.encode()),
            Err(ProtocolError::Malformed(_))
        ));
        // A batch naming more fields than the protocol ceiling is a typed error.
        let oversized = Request::GetBatch {
            archive: "a".into(),
            kind: GetKind::Data,
            fields: vec![0; MAX_BATCH_FIELDS + 1],
        };
        assert!(matches!(
            Request::decode(&oversized.encode()),
            Err(ProtocolError::Malformed(_))
        ));
        // A batch item whose byte count disagrees with its element count is rejected.
        let resp = Response::GetBatch {
            kind: GetKind::Data,
            items: vec![BatchGetItem {
                from_cache: false,
                elements: 3,
                bytes: vec![0; 8],
            }],
        };
        assert!(matches!(
            Response::decode(&resp.encode()),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
