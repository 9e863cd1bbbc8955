//! Live-path checks shared by the daemon tests and the router's fleet tests. `hfzd` and
//! `hfzr` run on the same connection core (`huffdec_serve::service`), so the same
//! misbehaving peers must get the same treatment from either, and both must shut down
//! with clients still connected.

use std::io::{Read as _, Write as _};
use std::time::Duration;

use huffdec_serve::client::{Connection, RetryPolicy};
use huffdec_serve::net::{connect, Conn, ListenAddr};
use huffdec_serve::protocol::{write_frame, GetKind, Request, MAX_REQUEST_BYTES};
use huffdec_serve::{Service, ServiceHandle};

/// No step below may take longer than this; a hang fails the test instead of wedging
/// the suite.
const PROMPT: Duration = Duration::from_secs(2);

/// A client that gives up (with `TimedOut`) instead of hanging when the service does.
pub fn impatient(addr: &ListenAddr) -> Connection {
    Connection::with_policy(
        addr.clone(),
        RetryPolicy {
            redials: 0,
            read_timeout: Some(PROMPT),
            write_timeout: Some(PROMPT),
        },
    )
}

/// Throws three misbehaving peers at the service on `addr`, which must hold an archive
/// named `archive` whose field 0 serves as data, and checks that each is contained to
/// its own connection. Returns the sockets that are still open — one of them stalled
/// mid-response — for the caller to keep open across shutdown.
pub fn misbehaving_peers(addr: &ListenAddr, archive: &str) -> Vec<Conn> {
    let mut healthy = impatient(addr);

    // A length prefix over the request limit drops that connection: the peer sees a
    // close, not a reply and not a hang.
    let mut liar = connect(addr).unwrap();
    liar.set_timeouts(Some(PROMPT), None).unwrap();
    liar.write_all(&(MAX_REQUEST_BYTES + 1).to_le_bytes())
        .unwrap();
    match liar.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("an oversized length prefix must close the connection: {other:?}"),
    }
    healthy.stats().expect("only the lying connection drops");

    // A frame that promises 100 bytes, delivers 10 and disconnects.
    let mut quitter = connect(addr).unwrap();
    quitter.write_all(&100u32.to_le_bytes()).unwrap();
    quitter.write_all(&[0u8; 10]).unwrap();
    drop(quitter);
    healthy
        .stats()
        .expect("a mid-frame disconnect leaves the service serving");

    // A client that asks for far more than the socket buffers hold (64 MiB of
    // full-field replies, pipelined) and never reads: its connection thread ends up
    // blocked in `write`. A second client's cache hit must not wait behind it.
    let field = healthy.get(archive, 0, GetKind::Data, None).unwrap();
    let get = Request::Get {
        archive: archive.to_string(),
        field: 0,
        kind: GetKind::Data,
        range: None,
    }
    .encode();
    let mut stalled = connect(addr).unwrap();
    stalled.set_timeouts(None, Some(PROMPT)).unwrap();
    for _ in 0..(64 << 20) / field.bytes.len() + 1 {
        if write_frame(&mut stalled, &get, MAX_REQUEST_BYTES).is_err() {
            break; // the request direction backed up too: the peer is certainly stalled
        }
    }
    let hit = healthy
        .get(archive, 0, GetKind::Data, None)
        .expect("a stalled reader must not delay another client");
    assert!(hit.from_cache);
    assert_eq!(hit.bytes, field.bytes);

    vec![stalled]
}

/// `SHUTDOWN` with clients still connected: an idle keep-alive socket that never sends
/// anything, plus whatever `held` carries. The requester must receive its
/// `ShuttingDown` acknowledgement and `join()` must return promptly.
pub fn shutdown_with_clients_connected<S: Service>(handle: ServiceHandle<S>, mut held: Vec<Conn>) {
    // Connected before the requester, so accepted — and parked in `read` — before the
    // SHUTDOWN is.
    held.push(connect(handle.local_addr()).unwrap());
    impatient(handle.local_addr())
        .shutdown()
        .expect("the SHUTDOWN requester is owed its acknowledgement");
    let (joined, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || joined.send(handle.join()));
    outcome
        .recv_timeout(PROMPT)
        .expect("join() must return within 2 s of SHUTDOWN, whatever clients are connected")
        .expect("the service exits cleanly");
    drop(held);
}
