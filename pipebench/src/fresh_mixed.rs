//! `fresh_mixed`: writes beside reads. An open-loop generator offers a
//! fixed 200k digests/s through the forwarder into a journaling
//! collector whose flow table was pre-populated in set-up; a probe
//! digest for a fresh flow is due every 5 ms. One `QueryClient` polls
//! for outstanding probes every 5 ms and runs a dashboard panel every
//! 10 ms, and a timer thread checkpoints the journal every 10 s.

use crate::outcome::Outcome;
use crate::system::{self, IngestSystem};
use crate::{layer_cpu, Args, LoadThread};
use pint_collector::Collector;
use pint_obs::MetricsRegistry;
use pint_query::{QueryClient, QueryPlan, QueryResponder, QueryResult, TelemetryQuery};
use pint_store::StoreReader;
use pint_wire::store::StoreRecord;
use pint_wire::WireEncode;
use pipebench::probes::ProbeBook;
use pipebench::procstat::CpuSnapshot;
use pipebench::stats::{windows, Samples, Windowed};
use pipebench::traffic::Traffic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Builder;
use std::time::{Duration, Instant};

/// Offered load, digests per second.
const RATE: u64 = 200_000;
/// A probe digest is due this often.
const PROBE_EVERY_NS: u64 = 5_000_000;
/// Checkpoint cadence.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(10);
/// The dashboard client polls for outstanding probes this often...
const PROBE_POLL: Duration = Duration::from_millis(5);
/// ...and runs a dashboard panel every this many polls (100 panels/s):
/// a rate well below what one client can serve, so the panel latency is
/// the system's, not a queue of late panels.
const PANEL_EVERY: u32 = 2;
/// The generator wakes this often and sends everything due by then.
const GEN_TICK: Duration = Duration::from_micros(500);
/// Sealed batches the forwarder may buffer: about 330 ms of offered
/// load, enough to ride out the ingest stall a checkpoint causes (its
/// snapshot pauses the shards' ring drain for tens of ms) without
/// shedding.
const FORWARDER_QUEUE: usize = 512;
/// Digests pushed in-process during set-up so every flow exists.
const PREPOP: usize = 300_000;

/// The dashboard panels, by name.
pub fn dashboard(traffic: &Traffic) -> Vec<(&'static str, QueryPlan)> {
    vec![
        ("top64", TelemetryQuery::new().top_k(64).summaries().plan()),
        (
            "hop3_quantiles",
            TelemetryQuery::new()
                .flows(traffic.busiest_latency_flows(64))
                .hop_quantiles(3, [0.5, 0.9, 0.99])
                .plan(),
        ),
        (
            "through_switch",
            TelemetryQuery::new()
                .through_switch(traffic.watch_switch())
                .path_completion()
                .plan(),
        ),
    ]
    .into_iter()
    .map(|(name, plan)| (name, plan.expect("dashboard plans are valid")))
    .collect()
}

struct Mixed {
    sys: IngestSystem,
    responder: QueryResponder,
    client: QueryClient,
}

fn start(traffic: &Traffic, journal: &std::path::Path, trace: bool) -> Result<Mixed, String> {
    let sys = IngestSystem::start(traffic, Some(journal), FORWARDER_QUEUE, trace)?;
    let mut handle = sys.collector.handle();
    for r in &traffic.stream[..PREPOP] {
        handle
            .push(r.clone())
            .map_err(|e| format!("pre-populate: {e}"))?;
    }
    handle.flush().map_err(|e| format!("pre-populate: {e}"))?;
    drop(handle);
    sys.collector
        .barrier()
        .map_err(|e| format!("pre-populate barrier: {e}"))?;
    let responder = QueryResponder::bind("127.0.0.1:0", Arc::clone(&sys.collector))
        .map_err(|e| format!("bind query responder: {e}"))?;
    let mut client =
        QueryClient::connect(responder.local_addr()).map_err(|e| format!("connect: {e}"))?;
    // The responder serves a connection once its accept loop picks it
    // up; the first answer marks the system ready.
    let ready = TelemetryQuery::new().stats().plan().expect("valid plan");
    client
        .query(&ready)
        .map_err(|e| format!("first query: {e}"))?;
    Ok(Mixed {
        sys,
        responder,
        client,
    })
}

/// What the query thread measured.
struct QueryLog {
    rtt: Windowed,
    exec: [Samples; 4],
    bytes: [usize; 3],
    queries: u64,
    errors: u64,
    span: Duration,
    wait_s: f64,
    wall_s: f64,
}

impl QueryLog {
    /// Runs one call into the query layers, adding it to the span total.
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let out = call();
        let d = t.elapsed();
        self.span += d;
        (out, d)
    }
}

/// The dashboard client, paced until `stop`: every [`PROBE_POLL`] it
/// polls for outstanding probes, and every [`PANEL_EVERY`] polls it
/// first runs the next panel. A panel is due at its tick and timed from
/// then, so a client held up (by a checkpoint, say) is charged for the
/// wait. Panel latencies count only while `measuring`.
#[allow(clippy::too_many_arguments)]
fn query_loop(
    client: &mut QueryClient,
    collector: &Collector,
    plans: &[(&'static str, QueryPlan)],
    book: &Mutex<ProbeBook>,
    stop: &AtomicBool,
    measuring: &AtomicBool,
    t0: Instant,
    run: Duration,
    trace: bool,
) -> QueryLog {
    let mut log = QueryLog {
        rtt: Windowed::new(run.as_nanos() as u64, windows(run)),
        exec: Default::default(),
        bytes: [0; 3],
        queries: 0,
        errors: 0,
        span: Duration::ZERO,
        wait_s: 0.0,
        wall_s: 0.0,
    };
    for tick in 0u32.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let due = t0 + PROBE_POLL * tick;
        let w = Instant::now();
        std::thread::sleep(due.saturating_duration_since(w));
        log.wait_s += w.elapsed().as_secs_f64();
        if tick % PANEL_EVERY == 0 {
            let k = (tick / PANEL_EVERY) as usize % plans.len();
            let (name, plan) = &plans[k];
            let (res, _) = log.time(|| client.query(plan));
            let done = Instant::now();
            log.queries += 1;
            match res {
                Ok(r) => {
                    if measuring.load(Ordering::Acquire) {
                        log.rtt.push(
                            done.duration_since(t0).as_nanos() as u64,
                            done.duration_since(due).as_nanos() as u64,
                        );
                    }
                    if trace && log.bytes[k] == 0 {
                        log.bytes[k] = r.encode().len();
                    }
                }
                Err(e) => {
                    log.errors += 1;
                    eprintln!("pipebench: query {name}: {e}");
                }
            }
            if trace {
                let (_, d) = log.time(|| collector.query(plan));
                log.exec[k].push(d.as_nanos() as u64);
            }
        }
        poll_probes(client, collector, book, t0, trace, &mut log);
    }
    log.wall_s = t0.elapsed().as_secs_f64();
    log
}

/// Asks for every outstanding probe and marks those answered as seen.
fn poll_probes(
    client: &mut QueryClient,
    collector: &Collector,
    book: &Mutex<ProbeBook>,
    t0: Instant,
    trace: bool,
    log: &mut QueryLog,
) {
    let outstanding = book.lock().expect("probe book poisoned").outstanding();
    if outstanding.is_empty() {
        return;
    }
    let poll = TelemetryQuery::new()
        .flows(outstanding)
        .summaries()
        .plan()
        .expect("valid plan");
    let (res, _) = log.time(|| client.query(&poll));
    let now_ns = t0.elapsed().as_nanos() as u64;
    log.queries += 1;
    match res {
        Ok(QueryResult::Summaries(rows)) => {
            book.lock()
                .expect("probe book poisoned")
                .observe(rows.iter().map(|&(f, _)| f), now_ns);
        }
        _ => log.errors += 1,
    }
    if trace {
        let (_, d) = log.time(|| collector.query(&poll));
        log.exec[3].push(d.as_nanos() as u64);
    }
}

/// What the checkpoint timer measured.
#[derive(Default)]
struct CheckpointLog {
    spans: Samples,
    failed: u64,
    wall_s: f64,
    wait_s: f64,
}

/// Stands in for a deployment's checkpoint timer: one checkpoint every
/// [`CHECKPOINT_EVERY`] until `deadline`, on its own thread so that no
/// measuring thread ever waits on it.
fn checkpoint_loop(collector: &Collector, t0: Instant, deadline: Instant) -> CheckpointLog {
    let mut log = CheckpointLog::default();
    for epoch in 1u64.. {
        let due = t0 + CHECKPOINT_EVERY * epoch as u32;
        if due >= deadline {
            break;
        }
        let w = Instant::now();
        std::thread::sleep(due.saturating_duration_since(w));
        log.wait_s += w.elapsed().as_secs_f64();
        let t = Instant::now();
        let ok = matches!(collector.checkpoint(epoch), Ok(true));
        log.spans.push(t.elapsed().as_nanos() as u64);
        log.failed += u64::from(!ok);
    }
    log.wall_s = t0.elapsed().as_secs_f64();
    log
}

pub fn run(traffic: &Traffic, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let dir = system::work_dir()?;
    let journal = dir.join("fresh_mixed.journal");
    let result = run_in(traffic, args, out, &journal);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    traffic: &Traffic,
    args: &Args,
    out: &mut Outcome,
    journal: &std::path::Path,
) -> Result<(), String> {
    let (mixed, setup_s) = system::timed_setups(|| start(traffic, journal, args.trace))?;
    out.set("setup_s", setup_s);
    out.named("setup_s", setup_s, "s");
    let Mixed {
        sys,
        responder,
        mut client,
    } = mixed;
    let IngestSystem {
        collector,
        server,
        fwd,
        sink,
        journal: slot,
    } = sys;
    let slot = slot.expect("fresh_mixed journals");
    let plans = dashboard(traffic);
    let book = Mutex::new(ProbeBook::new(Windowed::new(
        Duration::from_secs(args.seconds).as_nanos() as u64,
        windows(Duration::from_secs(args.seconds)),
    )));
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(true);
    let stream = &traffic.stream;
    let ns_per_digest = 1_000_000_000 / RATE;
    let run_ns = args.seconds * 1_000_000_000;

    let cpu0 = CpuSnapshot::take();
    let t0 = Instant::now();
    let run = Duration::from_secs(args.seconds);
    let deadline = t0 + run;
    let (sent, probes, late, gen, wall, qlog, clog, drained) = std::thread::scope(|s| {
        let ckpt = Builder::new()
            .name("bench-checkpoint".into())
            .spawn_scoped(s, || checkpoint_loop(&collector, t0, deadline))
            .expect("spawn checkpoint thread");
        let queries = Builder::new()
            .name("bench-query".into())
            .spawn_scoped(s, || {
                query_loop(
                    &mut client,
                    &collector,
                    &plans,
                    &book,
                    &stop,
                    &measuring,
                    t0,
                    run,
                    args.trace,
                )
            })
            .expect("spawn query thread");

        // Open-loop generator: digest i is due at i / RATE; each wake
        // sends everything due, stamping `ts` with the due time.
        let mut sent = 0u64;
        let mut probes = 0u64;
        let mut next = PREPOP % stream.len();
        let mut late = Samples::default();
        let mut gen = LoadThread {
            wall_s: 0.0,
            span_s: 0.0,
            wait_s: 0.0,
        };
        let mut push_ns = 0u64;
        loop {
            let now_ns = t0.elapsed().as_nanos() as u64;
            if now_ns >= run_ns {
                break;
            }
            let due_by_now = now_ns / ns_per_digest + 1;
            if sent < due_by_now {
                late.push(now_ns - sent * ns_per_digest);
            }
            while sent < due_by_now {
                let due = sent * ns_per_digest;
                while probes * PROBE_EVERY_NS <= due {
                    let probe_due = probes * PROBE_EVERY_NS;
                    let r = traffic.probe(probes, probe_due);
                    book.lock()
                        .expect("probe book poisoned")
                        .issue(r.flow, probe_due);
                    fwd.push(r);
                    probes += 1;
                }
                let mut r = stream[next].clone();
                r.ts = due;
                next = (next + 1) % stream.len();
                if args.trace {
                    let t = Instant::now();
                    fwd.push(r);
                    push_ns += t.elapsed().as_nanos() as u64;
                } else {
                    fwd.push(r);
                }
                sent += 1;
            }
            let w = Instant::now();
            std::thread::sleep(GEN_TICK);
            gen.wait_s += w.elapsed().as_secs_f64();
        }
        gen.span_s = push_ns as f64 / 1e9;
        gen.wall_s = t0.elapsed().as_secs_f64();
        measuring.store(false, Ordering::Release);

        // Drain: every digest applied, every probe seen.
        fwd.flush();
        let expected = PREPOP as u64 + sent + probes;
        let applied = system::wait_until(|| collector.stats().ingested >= expected);
        let wall = t0.elapsed();
        let seen = system::wait_until(|| book.lock().expect("probe book poisoned").unseen() == 0);
        stop.store(true, Ordering::Release);
        let qlog = queries.join().expect("query thread panicked");
        let clog = ckpt.join().expect("checkpoint thread panicked");
        (sent, probes, late, gen, wall, qlog, clog, applied && seen)
    });
    let cpu1 = CpuSnapshot::take();
    system::record_peak_rss(out);
    out.check("drained: all digests applied and probes seen", drained);
    let run_digests = sent + probes;
    let expected = PREPOP as u64 + run_digests;

    let mut book = book.into_inner().expect("probe book poisoned");
    let mut rtt = qlog.rtt;
    let rate = run_digests as f64 / wall.as_secs_f64();
    out.set("rate_per_s", rate);
    // 100 panels/s leave ~600 per window: p98 is the highest percentile
    // with ten samples beyond it in every window.
    let (query_p50, query_p98) = (rtt.median_pct_ms(50.0), rtt.median_pct_ms(98.0));
    let fresh = book.freshness();
    let (fresh_p50, fresh_p99) = (fresh.median_pct_ms(50.0), fresh.median_pct_ms(99.0));
    out.set("op_p50_ms", query_p50);
    out.set("op_tail_ms", query_p98);
    out.set("fresh_p50_ms", fresh_p50);
    out.set("fresh_tail_ms", fresh_p99);
    out.named("ingest_dps", rate, "digests/s");
    out.named("fresh_p50_ms", fresh_p50, "ms");
    out.named("fresh_p99_ms", fresh_p99, "ms");
    out.named("query_p50_ms", query_p50, "ms");
    out.named("query_p98_ms", query_p98, "ms");
    out.samples("probes_seen", fresh.len());
    out.samples("dashboard_queries_timed", rtt.len());
    out.info(
        "op",
        "dashboard panel due -> answered over QueryClient (p98)",
    );
    out.info(
        "fresh",
        "probe due time -> first query that returns it (p99)",
    );

    // Correctness.
    for (name, plan) in &plans {
        let remote = client.query(plan).map(|r| r.encode());
        let local = collector.query(plan).map(|r| r.encode());
        out.check(
            format!("{name}: QueryClient answer == Collector::query answer"),
            matches!((&remote, &local), (Ok(a), Ok(b)) if a == b),
        );
    }
    let wrong_paths = system::check_paths(&*collector, traffic, out);
    let flush = Instant::now();
    collector.flush_store();
    let flush_ms = flush.elapsed().as_secs_f64() * 1e3;
    let (journaled, journal_bytes) = journal_digests(&slot.path)?;
    let journal_dropped = dropped(&slot.registry);
    let cstats = collector.stats();
    drop(client);
    responder.shutdown();
    let fstats = fwd.shutdown(Duration::from_secs(5));
    let sstats = server.shutdown();
    let sink_log = std::mem::take(&mut *sink.lock().expect("sink log poisoned"));
    out.check("forwarder accounted", fstats.accounted());
    out.check("forwarder shed nothing", fstats.shed == 0);
    out.check("server digests == sent", sstats.digests == run_digests);
    out.check(
        "collector ingested == sent + pre-population",
        cstats.ingested == expected,
    );
    out.check(
        "journal deltas == sent + pre-population",
        journaled == expected,
    );
    out.check("journal dropped nothing", journal_dropped == 0);
    out.check("every probe seen", book.unseen() == 0);
    out.check("no query errors", qlog.errors == 0);
    out.check("every checkpoint written", clog.failed == 0);
    out.check("sink refused nothing", sink_log.failed == 0);
    out.attempted = run_digests + qlog.queries + clog.spans.len() as u64;
    out.failed = expected.saturating_sub(cstats.ingested)
        + fstats.digests_shed
        + expected.saturating_sub(journaled)
        + journal_dropped
        + book.unseen()
        + qlog.errors
        + clog.failed
        + wrong_paths;

    // Per-layer attribution.
    let cpu = layer_cpu(&cpu0, &cpu1, out);
    let sink_s = sink_log.spans.total_ns() as f64 / 1e9;
    let mut sink_spans = sink_log.spans;
    let mut ckpt = clog.spans;
    out.set("bench.gen_late_p99_ms", late.clone().pct_ms(99.0));
    out.set("fleet.forwarder.retransmits", fstats.retransmits as f64);
    out.set(
        "fleet.ingest.self_s",
        (cpu.layer("fleet.ingest") - sink_s).max(0.0),
    );
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
    out.set(
        "collector.shard.cpu_ns_per_digest",
        cpu.layer("collector.shard") * 1e9 / run_digests.max(1) as f64,
    );
    out.set("collector.active_flows", cstats.active_flows as f64);
    out.set("collector.state_bytes", cstats.state_bytes as f64);
    out.set(
        "store.journal.bytes_per_digest",
        journal_bytes as f64 / expected.max(1) as f64,
    );
    out.set("store.journal.dropped", journal_dropped as f64);
    out.set("store.checkpoint_ms_p50", ckpt.pct_ms(50.0));
    out.set("store.checkpoint_ms_max", ckpt.max_ms());
    out.set("store.flush_ms", flush_ms);
    let names = ["top64", "hop3_quantiles", "through_switch", "probe_poll"];
    let exec_names = [
        "query.exec_ms_p50.top64",
        "query.exec_ms_p50.hop3_quantiles",
        "query.exec_ms_p50.through_switch",
        "query.exec_ms_p50.probe_poll",
    ];
    let mut exec = qlog.exec;
    let mut panels_exec_ms = 0.0;
    for (i, metric) in exec_names.iter().enumerate() {
        let p50 = exec[i].pct_ms(50.0);
        out.set(metric, p50);
        out.samples(names[i], exec[i].len());
        if i < plans.len() {
            panels_exec_ms += p50;
        }
    }
    if args.trace {
        // The remote median less the mean of the panels' local medians.
        out.set(
            "query.remote_overhead_ms_p50",
            query_p50 - panels_exec_ms / plans.len() as f64,
        );
    }
    for (i, metric) in [
        "query.response_bytes.top64",
        "query.response_bytes.hop3_quantiles",
        "query.response_bytes.through_switch",
    ]
    .iter()
    .enumerate()
    {
        out.set(metric, qlog.bytes[i] as f64);
    }
    out.samples("generator_wakes", late.len());
    out.samples("checkpoints", ckpt.len());
    crate::residual(
        out,
        &[
            gen,
            LoadThread {
                wall_s: qlog.wall_s,
                span_s: qlog.span.as_secs_f64(),
                wait_s: qlog.wait_s,
            },
            LoadThread {
                wall_s: clog.wall_s,
                span_s: ckpt.total_ns() as f64 / 1e9,
                wait_s: clog.wait_s,
            },
        ],
    );
    drop(collector);
    Ok(())
}

/// Digests inside the journal's delta records, and the file's size.
fn journal_digests(path: &std::path::Path) -> Result<(u64, u64), String> {
    let reader =
        StoreReader::open(path).map_err(|e| format!("reopen journal {}: {e}", path.display()))?;
    let digests = reader
        .records()
        .iter()
        .map(|rec| match rec {
            StoreRecord::Delta { batch, .. } => batch.reports.len() as u64,
            StoreRecord::Checkpoint(_) => 0,
        })
        .sum();
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    Ok((digests, bytes))
}

/// Deltas the journal dropped on a full queue.
fn dropped(registry: &MetricsRegistry) -> u64 {
    registry
        .snapshot()
        .counter_total("store_journal_dropped_total")
}
