//! The frame-server core every PINT TCP port runs on.
//!
//! The digest-ingest, fleet and query ports differ only in what they do
//! with a frame. Everything else lives here, once:
//!
//! * **Accept.** A non-blocking listener is polled every millisecond by
//!   one accept thread. Connections over
//!   [`ServerLimits::max_connections`] are accepted, closed at once and
//!   counted, so a connection flood cannot create threads without bound.
//! * **One named thread per connection.** While its peer is idle the
//!   thread blocks in `read`; there is no idle sleep. When a frame
//!   completes it drains up to 64 more frames that have already arrived,
//!   without blocking, hands each to the port's [`FrameHandler`], and
//!   answers the whole burst with one write.
//! * **Hostile peers.** A stream that stops being PINT frames (bad
//!   magic, future version, hostile length) cannot resynchronize: the
//!   connection is dropped and counted in
//!   [`ServerStats::framing_errors`]. A well-framed payload the handler
//!   cannot decode is counted in [`ServerStats::payload_errors`] and the
//!   connection lives on. A peer stuck mid-frame, or not reading its
//!   replies, for longer than [`ServerLimits::read_deadline`] is a
//!   slow-loris: dropped and counted in [`ServerStats::stalled_dropped`].
//!   A silent peer at a frame boundary is idle, not stalled, and stays.
//! * **Self-telemetry.** `Metrics` and `TraceDump` requests are answered
//!   from [`ServerOptions`] on every port; a server without a recorder
//!   answers with an empty dump.
//!
//! Shutdown closes every live connection's socket, which wakes its
//! blocked thread, and joins all threads.

use crate::{
    frame_into, FramePoll, FrameReader, FrameType, MetricsMsg, MetricsReport, ReadFrameError,
    TraceMsg, TraceReport, WireDecode, WireError,
};
use pint_obs::{FlightRecorder, MetricsRegistry};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept thread polls its non-blocking listener; also
/// how long shutdown can lag.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Frames drained per wake-up before the burst is answered — bounds how
/// long the first frame of a firehose waits for its reply.
const FRAMES_PER_TICK: usize = 64;

/// Per-port limits on hostile or runaway peers.
#[derive(Debug, Clone, Copy)]
pub struct ServerLimits {
    /// Drop a connection stuck mid-frame (or mid-reply) with no
    /// progress for this long — the slow-loris guard.
    pub read_deadline: Duration,
    /// Connections beyond this are accepted and immediately closed
    /// (counted in [`ServerStats::rejected`]).
    pub max_connections: usize,
}

impl Default for ServerLimits {
    fn default() -> Self {
        Self {
            read_deadline: Duration::from_secs(2),
            max_connections: 1_024,
        }
    }
}

/// What a port answers self-telemetry requests from.
#[derive(Clone, Default)]
pub struct ServerOptions {
    /// Snapshotted for every `Metrics` request.
    pub metrics: MetricsRegistry,
    /// Snapshotted for every `TraceDump` request; `None` answers with
    /// an empty dump.
    pub recorder: Option<FlightRecorder>,
}

/// The connection counters the core keeps for every port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections currently served.
    pub active: usize,
    /// Connections closed on arrival over
    /// [`ServerLimits::max_connections`].
    pub rejected: u64,
    /// Connections dropped because their bytes stopped being PINT
    /// frames.
    pub framing_errors: u64,
    /// Well-framed payloads the handler could not decode; the
    /// connection survived each.
    pub payload_errors: u64,
    /// Connections dropped by the slow-loris deadline.
    pub stalled_dropped: u64,
}

/// What one port does with its frames.
pub trait FrameHandler: Send + Sync + 'static {
    /// Handles one well-framed frame the core does not answer itself,
    /// appending any reply frames to `out`. An `Err` is a payload the
    /// handler could not decode: the core counts it in
    /// [`ServerStats::payload_errors`] and keeps the connection.
    fn handle(&self, ty: FrameType, payload: &[u8], out: &mut Vec<u8>) -> Result<(), WireError>;

    /// Publishes the core's counters beside the handler's own. Called
    /// under the core's counter lock after every counter change and
    /// after every answered burst, so calls never interleave and the
    /// last one is current.
    fn publish(&self, _stats: &ServerStats) {}

    /// Called once per connection dropped for a framing error (already
    /// counted in [`ServerStats::framing_errors`]), for handlers that
    /// keep their own error books.
    fn framing_error(&self) {}
}

/// A running port: an accept thread plus one thread per connection,
/// all serving one [`FrameHandler`]. Dropping it shuts it down.
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<ServerStats>>,
    accept: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Binds `addr` and starts serving `handler`. The accept thread is
    /// named `accept_name`, every connection thread `conn_name`. Use
    /// `"127.0.0.1:0"` to let the OS pick a port (read it back via
    /// [`local_addr`](Self::local_addr)).
    pub fn bind<H: FrameHandler>(
        addr: impl ToSocketAddrs,
        accept_name: &str,
        conn_name: &'static str,
        limits: ServerLimits,
        options: ServerOptions,
        handler: Arc<H>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(ServerStats::default()));
        let core = Arc::new(Core {
            handler,
            limits,
            options,
            stats: Arc::clone(&stats),
        });
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name(accept_name.into())
            .spawn(move || accept_loop(listener, core, conn_name, accept_stop))?;
        Ok(Self {
            addr,
            stop,
            stats,
            accept: Some(accept),
        })
    }

    /// The bound address peers connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A copy of the connection counters.
    pub fn stats(&self) -> ServerStats {
        *lock(&self.stats)
    }

    /// Stops accepting, closes every live connection, and joins all
    /// threads. Returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn lock(stats: &Mutex<ServerStats>) -> MutexGuard<'_, ServerStats> {
    stats.lock().expect("server stats poisoned")
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Why a connection thread ended.
enum Exit {
    /// The peer left, reset, or the server is shutting down.
    Closed,
    /// The byte stream stopped being PINT frames.
    Framing,
    /// Mid-frame or mid-reply with no progress past the deadline.
    Stalled,
}

/// State shared by the accept thread and every connection thread.
struct Core<H> {
    handler: Arc<H>,
    limits: ServerLimits,
    options: ServerOptions,
    stats: Arc<Mutex<ServerStats>>,
}

fn accept_loop<H: FrameHandler>(
    listener: TcpListener,
    core: Arc<Core<H>>,
    conn_name: &'static str,
    stop: Arc<AtomicBool>,
) {
    // A second handle on each live socket, so shutdown can wake a
    // connection thread blocked in `read`.
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        // An error means nothing is pending (or a transient failure):
        // tidy up and sleep until the next poll.
        if let Ok((stream, _peer)) = listener.accept() {
            if let Some(conn) = core.admit(stream, conn_name) {
                conns.push(conn);
            }
            continue; // accept everything pending before sleeping
        }
        conns.retain(|(_, t)| !t.is_finished());
        std::thread::sleep(ACCEPT_POLL);
    }
    for (stream, _) in &conns {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for (_, t) in conns {
        let _ = t.join();
    }
}

impl<H: FrameHandler> Core<H> {
    /// Counts a new connection in (or refuses it over the cap) and
    /// starts its thread.
    fn admit(
        self: &Arc<Self>,
        stream: TcpStream,
        conn_name: &'static str,
    ) -> Option<(TcpStream, JoinHandle<()>)> {
        let handle = {
            let mut stats = lock(&self.stats);
            let handle = match stream.try_clone() {
                Ok(h) if stats.active < self.limits.max_connections => h,
                _ => {
                    stats.rejected += 1;
                    self.handler.publish(&stats);
                    return None; // the stream closes here
                }
            };
            stats.accepted += 1;
            stats.active += 1;
            self.handler.publish(&stats);
            handle
        };
        let core = Arc::clone(self);
        match std::thread::Builder::new()
            .name(conn_name.into())
            .spawn(move || core.serve(stream))
        {
            Ok(t) => Some((handle, t)),
            Err(_) => {
                // Thread exhaustion: the connection closes unserved.
                let mut stats = lock(&self.stats);
                stats.active -= 1;
                self.handler.publish(&stats);
                None
            }
        }
    }

    /// One connection thread, start to finish.
    fn serve(&self, stream: TcpStream) {
        let exit = self.run(&stream);
        // Send FIN now, whoever else still holds the socket.
        let _ = stream.shutdown(Shutdown::Both);
        {
            let mut stats = lock(&self.stats);
            stats.active -= 1;
            match exit {
                Exit::Closed => {}
                Exit::Framing => stats.framing_errors += 1,
                Exit::Stalled => stats.stalled_dropped += 1,
            }
            self.handler.publish(&stats);
        }
        if matches!(exit, Exit::Framing) {
            self.handler.framing_error();
        }
    }

    fn run(&self, stream: &TcpStream) -> Exit {
        // A zero timeout is an error to the socket API; 1 ms is the
        // shortest deadline honoured.
        let deadline = Some(self.limits.read_deadline.max(Duration::from_millis(1)));
        stream.set_nodelay(true).ok();
        // Some platforms hand out accepted sockets non-blocking, like
        // their listener; idle reads must block.
        let blocking = stream.set_nonblocking(false).and_then(|()| {
            stream.set_read_timeout(deadline)?;
            stream.set_write_timeout(deadline)
        });
        if blocking.is_err() {
            return Exit::Closed;
        }
        let mut reader = FrameReader::new(stream);
        let mut out = Vec::new();
        loop {
            // Block until a frame completes. Arriving bytes restart the
            // socket's timeout, so a timeout means a whole deadline of
            // silence.
            let (ty, payload) = match reader.read_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Exit::Closed,
                Err(ReadFrameError::Wire(_)) => return Exit::Framing,
                Err(ReadFrameError::Io(e)) if timed_out(&e) => {
                    if reader.buffered() > 0 {
                        return Exit::Stalled;
                    }
                    continue; // idle at a frame boundary is legal
                }
                Err(ReadFrameError::Io(_)) => return Exit::Closed,
            };
            self.dispatch(ty, &payload, &mut out);
            let end = self.drain(&mut reader, stream, &mut out);
            if !out.is_empty() {
                match (&*stream).write_all(&out) {
                    Ok(()) => out.clear(),
                    Err(e) if timed_out(&e) => return Exit::Stalled,
                    Err(_) => return Exit::Closed,
                }
            }
            self.handler.publish(&lock(&self.stats));
            if let Some(exit) = end {
                return exit;
            }
        }
    }

    /// Dispatches the frames that have already arrived, up to the
    /// per-burst bound, without blocking. Returns how the connection
    /// ends if the drain saw it end (replies so far are still sent).
    fn drain(
        &self,
        reader: &mut FrameReader<&TcpStream>,
        stream: &TcpStream,
        out: &mut Vec<u8>,
    ) -> Option<Exit> {
        if stream.set_nonblocking(true).is_err() {
            return Some(Exit::Closed);
        }
        let mut end = None;
        for _ in 1..FRAMES_PER_TICK {
            match reader.poll_frame() {
                Ok(FramePoll::Frame(ty, payload)) => self.dispatch(ty, &payload, out),
                Ok(FramePoll::Pending) => break,
                Ok(FramePoll::Closed) | Err(ReadFrameError::Io(_)) => {
                    end = Some(Exit::Closed);
                    break;
                }
                Err(ReadFrameError::Wire(_)) => {
                    end = Some(Exit::Framing);
                    break;
                }
            }
        }
        if stream.set_nonblocking(false).is_err() {
            end.get_or_insert(Exit::Closed);
        }
        end
    }

    /// Answers self-telemetry requests; everything else goes to the
    /// handler.
    fn dispatch(&self, ty: FrameType, payload: &[u8], out: &mut Vec<u8>) {
        match ty {
            FrameType::Metrics => {
                if let Ok(MetricsMsg::Request(req)) = MetricsMsg::decode(payload) {
                    let report = MetricsReport {
                        request_id: req.request_id,
                        source: 0,
                        snapshot: self.options.metrics.snapshot(),
                    };
                    frame_into(FrameType::Metrics, &report, out);
                    return;
                }
            }
            FrameType::TraceDump => {
                if let Ok(TraceMsg::Request(req)) = TraceMsg::decode(payload) {
                    let report = TraceReport {
                        request_id: req.request_id,
                        source: 0,
                        dump: self
                            .options
                            .recorder
                            .as_ref()
                            .map(|r| r.snapshot())
                            .unwrap_or_default(),
                    };
                    frame_into(FrameType::TraceDump, &report, out);
                    return;
                }
            }
            _ => {}
        }
        // A stray report or a junk payload in a self-telemetry frame
        // falls through too: the handler decides what it counts as.
        if self.handler.handle(ty, payload, out).is_err() {
            lock(&self.stats).payload_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRequest, WireEncode};
    use std::time::Instant;

    /// A payload passed through as-is.
    struct Raw<'a>(&'a [u8]);
    impl WireEncode for Raw<'_> {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(self.0);
        }
    }

    /// Echoes frames back and rejects empty payloads.
    struct Echo;
    impl FrameHandler for Echo {
        fn handle(
            &self,
            ty: FrameType,
            payload: &[u8],
            out: &mut Vec<u8>,
        ) -> Result<(), WireError> {
            if payload.is_empty() {
                return Err(WireError::Invalid("empty payload"));
            }
            frame_into(ty, &Raw(payload), out);
            Ok(())
        }
    }

    fn bind_echo() -> FrameServer {
        FrameServer::bind(
            "127.0.0.1:0",
            "test-accept",
            "test-conn",
            ServerLimits::default(),
            ServerOptions::default(),
            Arc::new(Echo),
        )
        .unwrap()
    }

    fn wait_for(server: &FrameServer, what: &str, done: impl Fn(&ServerStats) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = server.stats();
            if done(&s) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn a_burst_is_answered_in_order_and_metrics_are_served() {
        let server = bind_echo();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = Vec::new();
        for i in 1..=100u8 {
            frame_into(FrameType::Hello, &Raw(&[i]), &mut burst);
        }
        frame_into(FrameType::Hello, &Raw(&[]), &mut burst); // payload error
        frame_into(
            FrameType::Metrics,
            &MetricsRequest { request_id: 9 },
            &mut burst,
        );
        stream.write_all(&burst).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = FrameReader::new(stream);
        for i in 1..=100u8 {
            assert_eq!(
                reader.read_frame().unwrap().unwrap(),
                (FrameType::Hello, vec![i])
            );
        }
        let (ty, payload) = reader.read_frame().unwrap().unwrap();
        assert_eq!(ty, FrameType::Metrics);
        assert!(matches!(
            MetricsMsg::decode(&payload).unwrap(),
            MetricsMsg::Report(r) if r.request_id == 9
        ));
        wait_for(&server, "the payload error", |s| s.payload_errors == 1);
        drop(reader);
        wait_for(&server, "the close", |s| s.active == 0);
        let s = server.shutdown();
        assert_eq!((s.accepted, s.framing_errors, s.stalled_dropped), (1, 0, 0));
    }

    #[test]
    fn shutdown_wakes_idle_connections() {
        let server = bind_echo();
        let idle = TcpStream::connect(server.local_addr()).unwrap();
        wait_for(&server, "the accept", |s| s.active == 1);
        let started = Instant::now();
        let s = server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown lagged"
        );
        assert_eq!(s.active, 0);
        drop(idle);
    }
}
