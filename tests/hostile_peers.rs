//! One hostile-peer test, run against every TCP port: the digest-ingest
//! port (`DigestServer`), the fleet port (`FleetServer`) and the query
//! port (`QueryResponder`). All three run on the same frame-server
//! core, so all three must shrug off the same abuse:
//!
//! * garbage bytes — the connection is dropped and counted as a
//!   framing error;
//! * a valid frame prefix followed by silence (a slow-loris) — reaped
//!   after the read deadline and counted;
//! * a half-open peer that connects and says nothing — idle, not
//!   stalled, so it is left alone;
//! * a junk payload inside a valid frame — the frame boundary holds,
//!   so the same connection keeps serving.
//!
//! Throughout, real requests keep being answered. The connection cap
//! is checked through `DigestServerConfig::max_connections`.

use pint::core::{Digest, DigestReport};
use pint::fleet::{DigestServer, DigestServerConfig, FleetConfig, FleetServer, FleetView};
use pint::query::remote::{query_over, QueryResponder};
use pint::query::TelemetryQuery;
use pint::wire::{
    frame_into, AckStatus, BatchAck, DigestBatch, FrameReader, FrameType, ServerStats, WireDecode,
    WireEncode,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One port under test, type-erased.
struct Port {
    addr: SocketAddr,
    /// The frame type of this port's requests.
    request_type: FrameType,
    /// Payload errors a junk request payload counts: the query port
    /// answers a junk query with a typed error response instead.
    junk_payload_errors: u64,
    /// Sends request `n` on `stream` and checks the answer.
    request: fn(&mut TcpStream, u64),
    stats: Box<dyn Fn() -> ServerStats>,
}

fn digest_request(stream: &mut TcpStream, n: u64) {
    let batch = DigestBatch {
        source: 1,
        seq: n,
        reports: vec![DigestReport::new(n, n, Digest::new(1), 3, n)],
        trace: None,
    };
    stream.write_all(&batch.to_frame_bytes()).unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    let (ty, payload) = reader.read_frame().unwrap().expect("an ack");
    assert_eq!(ty, FrameType::BatchAck);
    let ack = BatchAck::decode(&payload).unwrap();
    assert_eq!((ack.seq, ack.status), (n, AckStatus::Applied));
}

fn query_request(stream: &mut TcpStream, n: u64) {
    let plan = TelemetryQuery::new().stats().plan().unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    query_over(stream, &mut reader, n, &plan).expect("a query answer");
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Whether the server closed `stream`: EOF or reset within `wait`.
fn closed_by_server(stream: &mut TcpStream, wait: Duration) -> bool {
    stream.set_read_timeout(Some(wait)).unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

fn survives_hostile_peers(port: Port) {
    let mut garbage = connect(port.addr);
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut loris = connect(port.addr);
    loris.write_all(b"PINT\x01").unwrap();
    let mut half_open = connect(port.addr);

    // Real requests are answered while all three misbehave.
    let mut good = connect(port.addr);
    (port.request)(&mut good, 1);

    // A junk payload inside a well-formed frame: the connection lives.
    struct Junk;
    impl WireEncode for Junk {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&[0xFF; 16]);
        }
    }
    let mut junk = Vec::new();
    frame_into(port.request_type, &Junk, &mut junk);
    good.write_all(&junk).unwrap();
    (port.request)(&mut good, 2);

    // The garbage and slow-loris peers are reaped and counted.
    wait_until("garbage and slow-loris peers to be reaped", || {
        let s = (port.stats)();
        s.framing_errors >= 1 && s.stalled_dropped >= 1
    });
    assert!(closed_by_server(&mut garbage, Duration::from_secs(5)));
    assert!(closed_by_server(&mut loris, Duration::from_secs(5)));
    // The half-open peer sat idle for a whole deadline too, but at a
    // frame boundary: it is still connected.
    assert!(!closed_by_server(&mut half_open, Duration::from_millis(50)));

    // And the port still serves, on old and new connections alike.
    (port.request)(&mut good, 3);
    (port.request)(&mut connect(port.addr), 4);
    let s = (port.stats)();
    assert_eq!(s.framing_errors, 1, "{s:?}");
    assert_eq!(s.stalled_dropped, 1, "{s:?}");
    assert_eq!(s.payload_errors, port.junk_payload_errors, "{s:?}");
    assert_eq!(s.rejected, 0, "{s:?}");
}

#[test]
fn digest_port_survives_hostile_peers() {
    let server = Arc::new(
        DigestServer::bind(
            "127.0.0.1:0",
            DigestServerConfig::default(),
            Box::new(|_source, _reports| {}),
        )
        .unwrap(),
    );
    let stats_server = Arc::clone(&server);
    survives_hostile_peers(Port {
        addr: server.local_addr(),
        request_type: FrameType::DigestBatch,
        junk_payload_errors: 1,
        request: digest_request,
        stats: Box::new(move || {
            let s = stats_server.stats();
            ServerStats {
                accepted: s.accepted,
                active: s.active,
                rejected: s.connections_rejected,
                framing_errors: s.framing_errors,
                payload_errors: s.payload_errors,
                stalled_dropped: s.stalled_dropped,
            }
        }),
    });
    assert_eq!(server.stats().batches_applied, 4);
}

#[test]
fn fleet_port_survives_hostile_peers() {
    let server = Arc::new(FleetServer::bind("127.0.0.1:0", FleetConfig::default()).unwrap());
    let stats_server = Arc::clone(&server);
    survives_hostile_peers(Port {
        addr: server.local_addr(),
        request_type: FrameType::Snapshot,
        junk_payload_errors: 1,
        request: query_request,
        stats: Box::new(move || stats_server.server_stats()),
    });
    // The aggregator's own books saw the garbage stream and the junk
    // snapshot.
    assert_eq!(server.with_aggregator(|a| a.stats().decode_errors), 2);
}

#[test]
fn query_port_survives_hostile_peers() {
    let responder = Arc::new(
        QueryResponder::bind("127.0.0.1:0", Arc::new(FleetView::merge(Vec::new()))).unwrap(),
    );
    let stats_responder = Arc::clone(&responder);
    survives_hostile_peers(Port {
        addr: responder.local_addr(),
        request_type: FrameType::Query,
        junk_payload_errors: 0,
        request: query_request,
        stats: Box::new(move || stats_responder.stats()),
    });
}

#[test]
fn connections_over_the_cap_are_closed_and_counted() {
    let server = DigestServer::bind(
        "127.0.0.1:0",
        DigestServerConfig {
            max_connections: 2,
            ..DigestServerConfig::default()
        },
        Box::new(|_source, _reports| {}),
    )
    .unwrap();
    let addr = server.local_addr();
    let first = connect(addr);
    let mut second = connect(addr);
    wait_until("two connections", || server.stats().active == 2);

    let mut over = connect(addr);
    wait_until("the rejection", || server.stats().connections_rejected == 1);
    assert!(closed_by_server(&mut over, Duration::from_secs(5)));
    digest_request(&mut second, 1);

    // A freed slot is served again.
    drop(first);
    wait_until("the close", || server.stats().active == 1);
    digest_request(&mut connect(addr), 2);
    let s = server.shutdown();
    assert_eq!((s.accepted, s.connections_rejected), (3, 1), "{s:?}");
    assert_eq!(s.batches_applied, 2);
}
