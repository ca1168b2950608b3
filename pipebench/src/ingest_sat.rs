//! `ingest_sat`: one forwarder pushes the stream in a closed loop with
//! an in-flight window of half the forwarder queue (so nothing sheds)
//! until the clock runs out, then until the last digest is applied. No
//! journal, no queries: the forwarder, server, handle and shard layers
//! run flat out.

use crate::outcome::Outcome;
use crate::system::{self, IngestSystem, BATCH, POLL};
use crate::{absorb_cost, layer_cpu, Args, LoadThread};
use pint_collector::Collector;
use pint_wire::{DigestBatch, TraceContext};
use pipebench::procstat::CpuSnapshot;
use pipebench::stats::{windows, Samples, Windowed};
use pipebench::traffic::Traffic;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Sealed batches the forwarder may buffer.
const FORWARDER_QUEUE: usize = 256;
/// Digests in flight (pushed, not yet acknowledged) at most: half the
/// forwarder queue, so nothing sheds. The window must exceed what the
/// server drains in one poll tick (64 frames): when one burst of acks
/// empties the window, the forwarder's worker sits in its ack read
/// until `ACK_POLL` (5 ms) before sending the batches pushed meanwhile,
/// and the loop measures that stall instead of the pipeline.
const WINDOW: u64 = (FORWARDER_QUEUE / 2 * BATCH) as u64;
/// Longest the traced run's in-process comparison pushes for.
const INPROCESS_SECONDS: u64 = 5;
/// Traced runs time one push in this many.
const PUSH_SAMPLE: u64 = 8;

/// Batches pushed and the instant each was sealed, retired in order as
/// a counter passes their last digest.
struct Markers {
    t0: Instant,
    pending: VecDeque<(u64, Instant)>,
    latency: Windowed,
}

impl Markers {
    fn new(t0: Instant, run: Duration) -> Self {
        Self {
            t0,
            pending: VecDeque::new(),
            latency: Windowed::new(run.as_nanos() as u64, windows(run)),
        }
    }

    fn retire(&mut self, reached: u64, now: Instant) {
        while let Some(&(end, sealed)) = self.pending.front() {
            if end > reached {
                break;
            }
            let at = now.duration_since(self.t0).as_nanos() as u64;
            self.latency
                .push(at, now.duration_since(sealed).as_nanos() as u64);
            self.pending.pop_front();
        }
    }
}

pub fn run(traffic: &Traffic, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (sys, setup_s) =
        system::timed_setups(|| IngestSystem::start(traffic, None, FORWARDER_QUEUE, args.trace))?;
    out.set("setup_s", setup_s);
    out.named("setup_s", setup_s, "s");
    let IngestSystem {
        collector,
        server,
        fwd,
        sink,
        ..
    } = sys;

    let stream = &traffic.stream;
    let mut push_spans = Samples::default();
    let mut wait = Duration::ZERO;
    let mut pushed = 0u64;
    let mut next = 0usize;

    let cpu0 = CpuSnapshot::take();
    let t0 = Instant::now();
    let run = Duration::from_secs(args.seconds);
    let deadline = t0 + run;
    let mut acked = Markers::new(t0, run);
    let mut applied = Markers::new(t0, run);
    while Instant::now() < deadline {
        // One look at the counters per refill: retire what was acked or
        // applied, then top the window up with whole batches.
        let delivered = fwd.stats().digests_delivered;
        let ingested = collector.stats().ingested;
        let now = Instant::now();
        acked.retire(delivered, now);
        applied.retire(ingested, now);
        let room = (WINDOW - (pushed - delivered)) / BATCH as u64;
        if room == 0 {
            std::thread::sleep(POLL);
            wait += now.elapsed();
            continue;
        }
        for _ in 0..room {
            let ts = t0.elapsed().as_nanos() as u64;
            for _ in 0..BATCH {
                let mut r = stream[next].clone();
                r.ts = ts;
                next = (next + 1) % stream.len();
                if args.trace && pushed.is_multiple_of(PUSH_SAMPLE) {
                    let t = Instant::now();
                    fwd.push(r);
                    push_spans.push(t.elapsed().as_nanos() as u64);
                } else {
                    fwd.push(r);
                }
                pushed += 1;
            }
            let sealed = Instant::now();
            acked.pending.push_back((pushed, sealed));
            applied.pending.push_back((pushed, sealed));
        }
    }
    // Drain: the run ends when the last pushed digest is applied.
    let drained = system::wait_until(|| {
        let now = Instant::now();
        let delivered = fwd.stats().digests_delivered;
        let ingested = collector.stats().ingested;
        acked.retire(delivered, now);
        applied.retire(ingested, now);
        ingested >= pushed && delivered >= pushed
    });
    let wall = t0.elapsed();
    let cpu1 = CpuSnapshot::take();
    system::record_peak_rss(out);
    out.check("drained within timeout", drained);
    let barrier = Instant::now();
    out.check("barrier", collector.barrier().is_ok());
    let barrier_ms = barrier.elapsed().as_secs_f64() * 1e3;

    let rate = pushed as f64 / wall.as_secs_f64();
    out.set("rate_per_s", rate);
    let (ack_p50, ack_p99) = (
        acked.latency.median_pct_ms(50.0),
        acked.latency.median_pct_ms(99.0),
    );
    let (applied_p50, applied_p99) = (
        applied.latency.median_pct_ms(50.0),
        applied.latency.median_pct_ms(99.0),
    );
    out.set("op_p50_ms", ack_p50);
    out.set("op_tail_ms", ack_p99);
    out.set("fresh_p50_ms", applied_p50);
    out.set("fresh_tail_ms", applied_p99);
    out.named("ingest_dps", rate, "digests/s");
    out.named("ack_p50_ms", ack_p50, "ms");
    out.named("ack_p99_ms", ack_p99, "ms");
    out.named("applied_p50_ms", applied_p50, "ms");
    out.named("applied_p99_ms", applied_p99, "ms");
    out.samples("batches_timed", acked.latency.len());
    out.info(
        "window_batches_applied",
        format!("{:?}", applied.latency.window_counts()),
    );
    out.info("op", "batch seal -> BatchAck observed (p99)");
    out.info("fresh", "batch seal -> applied by collector shards (p99)");

    // Correctness.
    let cstats = collector.stats();
    let wrong_paths = system::check_paths(&*collector, traffic, out);
    let fstats = fwd.shutdown(Duration::from_secs(5));
    let sstats = server.shutdown();
    let sink_log = std::mem::take(&mut *sink.lock().expect("sink log poisoned"));
    out.check("forwarder accounted", fstats.accounted());
    out.check("forwarder shed nothing", fstats.shed == 0);
    out.check("forwarder saw every push", fstats.digests == pushed);
    out.check("server digests == pushed", sstats.digests == pushed);
    out.check("collector ingested == pushed", cstats.ingested == pushed);
    out.check("collector dropped nothing", cstats.digests_dropped == 0);
    out.check("sink refused nothing", sink_log.failed == 0);
    out.attempted = pushed;
    out.failed = pushed.saturating_sub(cstats.ingested.min(sstats.digests))
        + fstats.digests_shed
        + cstats.digests_dropped
        + wrong_paths;

    // Per-layer attribution.
    let cpu = layer_cpu(&cpu0, &cpu1, out);
    let shard_cpu = cpu.layer("collector.shard");
    let ingest_cpu = cpu.layer("fleet.ingest");
    let sink_s = sink_log.spans.total_ns() as f64 / 1e9;
    let mut sink_spans = sink_log.spans;
    out.set("bench.window_wait_s", wait.as_secs_f64());
    out.set("fleet.forwarder.push_ns_p50", push_spans.pct_ns(50.0));
    out.set("fleet.forwarder.push_ns_p99", push_spans.pct_ns(99.0));
    out.set("fleet.forwarder.retransmits", fstats.retransmits as f64);
    out.set(
        "fleet.forwarder.wire_bytes_per_digest",
        wire_bytes_per_digest(traffic),
    );
    out.set("fleet.ingest.self_s", (ingest_cpu - sink_s).max(0.0));
    out.set("fleet.ingest.batches", sstats.batches_applied as f64);
    out.set("fleet.ingest.duplicates", sstats.batches_duplicate as f64);
    out.set(
        "collector.handle.sink_us_p50",
        sink_spans.pct_ns(50.0) / 1e3,
    );
    out.set(
        "collector.handle.sink_us_p99",
        sink_spans.pct_ns(99.0) / 1e3,
    );
    out.set("collector.handle.sink_s", sink_s);
    out.set("collector.producer_parks", cstats.producer_parks as f64);
    let shard_ns = shard_cpu * 1e9 / pushed.max(1) as f64;
    out.set("collector.shard.cpu_ns_per_digest", shard_ns);
    out.set("collector.shard.barrier_ms", barrier_ms);
    out.set("collector.active_flows", cstats.active_flows as f64);
    out.set("collector.state_bytes", cstats.state_bytes as f64);
    if args.trace {
        let (path_ns, latency_ns) = absorb_cost(traffic);
        let share = traffic.path_share();
        out.set("core.path_absorb_ns", path_ns);
        out.set("core.latency_absorb_ns", latency_ns);
        out.set(
            "collector.shard.overhead_ns_per_digest",
            shard_ns - (share * path_ns + (1.0 - share) * latency_ns),
        );
    }
    // The pushing thread: spans are calls into the forwarder, waits are
    // window sleeps; everything else is the bench's own work.
    let spans = if args.trace {
        push_spans.total_ns() as f64 * PUSH_SAMPLE as f64 / 1e9
    } else {
        0.0
    };
    crate::residual(
        out,
        &[LoadThread {
            wall_s: wall.as_secs_f64(),
            span_s: spans,
            wait_s: wait.as_secs_f64(),
        }],
    );
    out.samples("push_spans", push_spans.len());
    out.samples("sink_spans", sink_spans.len());
    out.info("path_share", traffic.path_share());
    drop(collector);
    if args.trace {
        let (inprocess, ok) = inprocess_rate(traffic, args.seconds);
        out.check("in-process run applied every digest", ok);
        out.set("collector.inprocess_dps", inprocess);
        out.info("inprocess_over_remote", format!("{:.3}", inprocess / rate));
    }
    Ok(())
}

/// The same point without the network: the stream pushed by one thread
/// through an in-process `CollectorHandle` into a collector configured
/// like the remote one, timed from the first push until the last digest
/// is applied. Returns digests/s and whether every digest was applied.
fn inprocess_rate(traffic: &Traffic, seconds: u64) -> (f64, bool) {
    let collector = Collector::spawn(system::collector_config(), traffic.factory());
    let mut handle = collector.handle();
    let stream = &traffic.stream;
    let mut pushed = 0u64;
    let mut next = 0usize;
    let mut ok = true;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(seconds.min(INPROCESS_SECONDS));
    while Instant::now() < deadline {
        let ts = t0.elapsed().as_nanos() as u64;
        for _ in 0..BATCH {
            let mut r = stream[next].clone();
            r.ts = ts;
            next = (next + 1) % stream.len();
            ok &= handle.push(r).is_ok();
            pushed += 1;
        }
    }
    ok &= handle.flush().is_ok() && collector.barrier().is_ok();
    let rate = pushed as f64 / t0.elapsed().as_secs_f64();
    ok &= collector.stats().ingested == pushed;
    (rate, ok)
}

/// Encoded `DigestBatch` bytes per digest over the stream's first
/// batches, framed as the forwarder frames them (with a trace context).
fn wire_bytes_per_digest(traffic: &Traffic) -> f64 {
    let batches = 256.min(traffic.stream.len() / BATCH).max(1);
    let bytes: usize = traffic
        .stream
        .chunks(BATCH)
        .take(batches)
        .enumerate()
        .map(|(seq, chunk)| {
            DigestBatch {
                source: 1,
                seq: seq as u64 + 1,
                reports: chunk.to_vec(),
                trace: Some(TraceContext {
                    origin_ns: 1 << 40,
                    trace_id: seq as u64,
                }),
            }
            .to_frame_bytes()
            .len()
        })
        .sum();
    let digests = traffic.stream.len().min(batches * BATCH);
    bytes as f64 / digests.max(1) as f64
}
