//! The regional digest-ingest endpoint: a [`DigestServer`] takes
//! [`DigestBatch`] streams from many edge forwarders.
//!
//! It is a handler set on pint-wire's [`FrameServer`] core, which owns
//! the sockets: one thread per connection, blocked in `read` while the
//! peer is idle, answering each burst of frames with one write, with
//! the connection cap, framing/payload error accounting and slow-loris
//! reaping shared by every port. One hostile peer (garbage bytes, a
//! stalled partial frame, a half-open socket) costs only its own
//! thread.
//!
//! Delivery is at-least-once: batches carry `(source, seq)`, the
//! server deduplicates per source ([`SourceDedup`]) and acknowledges
//! every batch with a [`BatchAck`] so the sending
//! [`DigestForwarder`](crate::DigestForwarder) can retire it. Dedup
//! state, the sink and the counters sit behind one lock, so
//! connections apply batches one at a time. Decoded batches are
//! handed to a caller-supplied sink, typically [`collector_sink`]
//! feeding a local collector's producer rings.

use pint_collector::CollectorHandle;
use pint_core::DigestReport;
use pint_obs::{ClockHandle, FlightRecorder, GaugeGroup, Histogram, MetricsRegistry, TraceStage};
use pint_wire::{
    frame_into, AckStatus, BatchAck, DigestBatch, FrameHandler, FrameServer, FrameType,
    ServerLimits, ServerOptions, ServerStats, SourceDedup, WireDecode, WireError,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Tuning knobs of a [`DigestServer`].
#[derive(Debug, Clone, Copy)]
pub struct DigestServerConfig {
    /// Drop a connection stuck mid-frame (or mid-ack-write) with no
    /// progress for this long — the slow-loris guard. Idle connections
    /// at a frame boundary are unaffected.
    pub read_deadline: Duration,
    /// Connections beyond this are accepted and immediately dropped
    /// (counted), bounding threads under a connection flood.
    pub max_connections: usize,
    /// Distinct edge sources tracked for dedup; batches from sources
    /// beyond this are rejected (never acked), bounding dedup memory.
    pub max_sources: usize,
}

impl Default for DigestServerConfig {
    fn default() -> Self {
        let limits = ServerLimits::default();
        Self {
            read_deadline: limits.read_deadline,
            max_connections: limits.max_connections,
            max_sources: 4_096,
        }
    }
}

/// Live counters of one [`DigestServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently served.
    pub active: usize,
    /// Fresh batches fed to the sink.
    pub batches_applied: u64,
    /// Retransmitted batches recognized and dropped by dedup.
    pub batches_duplicate: u64,
    /// Digests inside applied batches.
    pub digests: u64,
    /// Acks written back to forwarders.
    pub acks_sent: u64,
    /// Connections dropped because their byte stream stopped being
    /// PINT frames (bad magic, future version, hostile length — the
    /// stream cannot resynchronize).
    pub framing_errors: u64,
    /// Well-framed `DigestBatch` frames whose payload failed to
    /// decode; the frame boundary holds, so the connection survives.
    pub payload_errors: u64,
    /// Connections dropped by the slow-loris deadline.
    pub stalled_dropped: u64,
    /// Well-formed frames of types this server does not ingest.
    pub unsupported_frames: u64,
    /// Connections refused over [`DigestServerConfig::max_connections`].
    pub connections_rejected: u64,
    /// Batches refused over [`DigestServerConfig::max_sources`].
    pub sources_rejected: u64,
}

/// Where decoded batches go: `(source id, reports)`.
pub type BatchSink = Box<dyn FnMut(u64, Vec<DigestReport>) + Send>;

/// A fault-tolerant digest-ingest endpoint (see the module docs).
///
/// ```no_run
/// use pint_fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
/// use pint_core::{Digest, DigestReport};
/// use std::sync::{Arc, Mutex};
///
/// // Regional side: collect every batch a forwarder delivers.
/// let seen = Arc::new(Mutex::new(Vec::new()));
/// let sink_seen = Arc::clone(&seen);
/// let server = DigestServer::bind(
///     "127.0.0.1:0",
///     DigestServerConfig::default(),
///     Box::new(move |source, reports| {
///         sink_seen.lock().unwrap().push((source, reports));
///     }),
/// )?;
///
/// // Edge side: a forwarder ships digests upstream with acks/retries.
/// let fwd = DigestForwarder::connect(
///     server.local_addr(),
///     ForwarderConfig {
///         source: 7,
///         ..ForwarderConfig::default()
///     },
/// );
/// fwd.push(DigestReport::new(1, 100, Digest::new(1), 5, 0));
/// fwd.flush();
/// let stats = fwd.shutdown(std::time::Duration::from_secs(5));
/// assert_eq!(stats.delivered, 1);
/// assert_eq!(server.stats().digests, 1);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct DigestServer {
    server: FrameServer,
    port: Arc<DigestPort>,
    metrics: MetricsRegistry,
}

/// `set_all` field order of the `digest_server` gauge group (mirrors
/// [`DigestServerStats`]). Published whole under the ingest lock after
/// every answered burst and connection change, so a reader always
/// observes consistent counters — in particular `acks_sent ==
/// batches_applied + batches_duplicate` holds in every snapshot
/// (sourced batches are acked exactly once, rejected ones never).
const DIGEST_SERVER_OBS_FIELDS: [&str; 12] = [
    "accepted",
    "active",
    "batches_applied",
    "batches_duplicate",
    "digests",
    "acks_sent",
    "framing_errors",
    "payload_errors",
    "stalled_dropped",
    "unsupported_frames",
    "connections_rejected",
    "sources_rejected",
];

impl DigestServer {
    /// Binds and starts serving. Use `"127.0.0.1:0"` to let the OS
    /// pick a port (read it back via [`local_addr`](Self::local_addr)).
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: DigestServerConfig,
        sink: BatchSink,
    ) -> std::io::Result<Self> {
        Self::bind_with(addr, config, sink, ServerOptions::default())
    }

    /// [`bind`](Self::bind) with self-telemetry and tracing.
    ///
    /// The `digest_server` gauge group is published into
    /// `options.metrics`, and `Metrics` request frames on any
    /// connection are answered with a snapshot of it — share the
    /// collector's registry and one fetch reports both tiers. Batches
    /// carrying a trace context feed the `ingest_e2e_latency_ns`
    /// histogram (the registry clock minus the origin stamp — honest
    /// only when both ends share a time base). With
    /// `options.recorder`, every applied (or deduplicated) batch
    /// records a [`TraceStage::ServerApplied`] / `ServerDuplicate`
    /// event, and `TraceDump` requests are answered from it.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        config: DigestServerConfig,
        sink: BatchSink,
        options: ServerOptions,
    ) -> std::io::Result<Self> {
        let metrics = options.metrics.clone();
        let port = Arc::new(DigestPort {
            state: Mutex::new(IngestState {
                sink,
                dedup: BTreeMap::new(),
                stats: DigestServerStats::default(),
            }),
            max_sources: config.max_sources,
            clock: metrics.clock(),
            e2e_latency: metrics.histogram("ingest_e2e_latency_ns"),
            recorder: options.recorder.clone(),
            obs: metrics.gauge_group("digest_server", &DIGEST_SERVER_OBS_FIELDS),
        });
        let limits = ServerLimits {
            read_deadline: config.read_deadline,
            max_connections: config.max_connections,
        };
        let server = FrameServer::bind(
            addr,
            "pint-digest-ingest",
            "pint-digest-ingest",
            limits,
            options,
            Arc::clone(&port),
        )?;
        Ok(Self {
            server,
            port,
            metrics,
        })
    }

    /// The registry this server publishes its `digest_server_*` gauge
    /// group into and answers `Metrics` frames from.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The bound address forwarders connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A copy of the live counters.
    pub fn stats(&self) -> DigestServerStats {
        // Core lock before ingest lock: the order `publish` takes them.
        let core = self.server.stats();
        self.port.state().stats.with(&core)
    }

    /// Stops serving (open connections are dropped) and returns the
    /// final counters.
    pub fn shutdown(self) -> DigestServerStats {
        let core = self.server.shutdown();
        self.port.state().stats.with(&core)
    }
}

/// A batch sink feeding a collector producer: each applied batch is
/// pushed through `handle`'s per-shard rings and flushed, so queries
/// observe it immediately. Undeliverable digests (collector shut down
/// mid-batch) are counted by the collector's dropped-digest counter,
/// never lost silently.
pub fn collector_sink(mut handle: CollectorHandle) -> BatchSink {
    Box::new(move |_source, reports| {
        let _ = handle.push_batch(reports);
        let _ = handle.flush();
    })
}

impl DigestServerStats {
    /// These ingest counters with the connection counters of `core`.
    fn with(mut self, core: &ServerStats) -> Self {
        self.accepted = core.accepted;
        self.active = core.active;
        self.framing_errors = core.framing_errors;
        self.payload_errors = core.payload_errors;
        self.stalled_dropped = core.stalled_dropped;
        self.connections_rejected = core.rejected;
        self
    }
}

/// What the ingest lock guards: dedup, the sink, and the ingest
/// counters (the connection counters live in the core).
struct IngestState {
    sink: BatchSink,
    dedup: BTreeMap<u64, SourceDedup>,
    stats: DigestServerStats,
}

/// The digest port's handler set.
struct DigestPort {
    state: Mutex<IngestState>,
    max_sources: usize,
    clock: ClockHandle,
    e2e_latency: Histogram,
    recorder: Option<FlightRecorder>,
    obs: GaugeGroup,
}

impl DigestPort {
    fn state(&self) -> MutexGuard<'_, IngestState> {
        self.state.lock().expect("digest ingest state poisoned")
    }

    /// Dedups, applies and acks one batch.
    fn apply(&self, batch: DigestBatch, out: &mut Vec<u8>) {
        let mut state = self.state();
        let IngestState { sink, dedup, stats } = &mut *state;
        if !dedup.contains_key(&batch.source) && dedup.len() >= self.max_sources {
            stats.sources_rejected += 1;
            return; // never acked; the sender will shed it
        }
        let fresh = dedup.entry(batch.source).or_default().observe(batch.seq);
        let status = if fresh {
            stats.batches_applied += 1;
            stats.digests += batch.reports.len() as u64;
            let now = self.clock.now_ns();
            if let Some(trace) = &batch.trace {
                // Edge→regional latency from the sender's origin stamp
                // — a true end-to-end sample, not a per-hop guess.
                self.e2e_latency.record(now.saturating_sub(trace.origin_ns));
            }
            if let Some(rec) = &self.recorder {
                rec.record_at(
                    batch.source as u32,
                    TraceStage::ServerApplied,
                    batch.source,
                    batch.seq,
                    now,
                );
            }
            sink(batch.source, batch.reports);
            AckStatus::Applied
        } else {
            stats.batches_duplicate += 1;
            if let Some(rec) = &self.recorder {
                rec.record(
                    batch.source as u32,
                    TraceStage::ServerDuplicate,
                    batch.source,
                    batch.seq,
                );
            }
            AckStatus::Duplicate
        };
        let ack = BatchAck {
            seq: batch.seq,
            status,
        };
        frame_into(FrameType::BatchAck, &ack, out);
        stats.acks_sent += 1;
    }
}

impl FrameHandler for DigestPort {
    fn handle(&self, ty: FrameType, payload: &[u8], out: &mut Vec<u8>) -> Result<(), WireError> {
        match ty {
            FrameType::DigestBatch => self.apply(DigestBatch::decode(payload)?, out),
            // Edge processes may announce/leave; nothing to track here.
            FrameType::Hello | FrameType::Bye => {}
            _ => self.state().stats.unsupported_frames += 1,
        }
        Ok(())
    }

    fn publish(&self, core: &ServerStats) {
        let s = self.state().stats.with(core);
        self.obs.set_all(&[
            s.accepted,
            s.active as u64,
            s.batches_applied,
            s.batches_duplicate,
            s.digests,
            s.acks_sent,
            s.framing_errors,
            s.payload_errors,
            s.stalled_dropped,
            s.unsupported_frames,
            s.connections_rejected,
            s.sources_rejected,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_wire::FrameReader;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

    #[test]
    fn server_survives_garbage_slow_and_half_open_peers() {
        let applied = Arc::new(Mutex::new(0u64));
        let sink_applied = Arc::clone(&applied);
        let server = DigestServer::bind(
            "127.0.0.1:0",
            DigestServerConfig {
                read_deadline: Duration::from_millis(100),
                ..DigestServerConfig::default()
            },
            Box::new(move |_src, reports| {
                *sink_applied.lock().unwrap() += reports.len() as u64;
            }),
        )
        .unwrap();
        let addr = server.local_addr();

        // A garbage peer: not PINT frames at all.
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // A slow-loris peer: a valid prefix, then silence.
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"PINT\x01").unwrap();
        // A half-open peer: connects and says nothing (legal; parked).
        let _half_open = TcpStream::connect(addr).unwrap();

        // A well-behaved batch still lands while all three misbehave.
        let mut good = TcpStream::connect(addr).unwrap();
        let batch = DigestBatch {
            source: 1,
            seq: 1,
            reports: vec![pint_core::DigestReport::new(
                9,
                100,
                pint_core::Digest::new(1),
                3,
                0,
            )],
            trace: None,
        };
        good.write_all(&batch.to_frame_bytes()).unwrap();
        good.flush().unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while *applied.lock().unwrap() < 1 {
            assert!(Instant::now() < deadline, "batch never applied");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The ack comes back to the good client.
        good.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = FrameReader::new(good);
        let (ty, payload) = reader.read_frame().unwrap().unwrap();
        assert_eq!(ty, FrameType::BatchAck);
        let ack = BatchAck::decode(&payload).unwrap();
        assert_eq!(ack.seq, 1);
        assert_eq!(ack.status, AckStatus::Applied);

        // The garbage and slow-loris peers get cleaned up; the server
        // keeps running.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = server.stats();
            if s.framing_errors >= 1 && s.stalled_dropped >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "hostile peers never reaped: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let s = server.shutdown();
        assert_eq!(s.batches_applied, 1);
        assert_eq!(s.digests, 1);
        assert_eq!(s.acks_sent, 1);
    }
}
