//! `fleet_query`: three pod collectors, pre-populated in set-up through
//! in-process handles with about half their flows shared, feed one
//! `FleetServer`. While the clock runs no digest is ingested: one
//! writer thread re-exports and sends a pod snapshot at a fixed
//! cadence, and one `FleetClient` runs the dashboard in a closed loop.

use crate::fresh_mixed::dashboard;
use crate::outcome::Outcome;
use crate::system::{self, collector_config};
use crate::{layer_cpu, Args, LoadThread};
use pint_collector::Collector;
use pint_core::hash::mix64;
use pint_core::DigestReport;
use pint_fleet::{FleetClient, FleetConfig, FleetServer, FleetView};
use pint_query::QueryPlan;
use pint_wire::WireEncode;
use pipebench::procstat::CpuSnapshot;
use pipebench::stats::{windows, Samples, Windowed};
use pipebench::traffic::{Traffic, PATH_BASE};
use std::thread::Builder;
use std::time::{Duration, Instant};

/// Pod collectors.
const PODS: u64 = 3;
/// Digests of the stream spread over the pods in set-up.
const PREPOP: usize = 150_000;
/// One pod snapshot is re-exported and sent this often (each pod every
/// `PODS` ticks).
const SNAPSHOT_EVERY: Duration = Duration::from_millis(150);

/// The pod a digest lands on: half the flows are shared (their digests
/// spread over every pod, as ECMP would), the rest belong to one pod.
fn pod_of(r: &DigestReport) -> usize {
    let h = mix64((r.flow & (PATH_BASE - 1)) ^ 0x5eed);
    if h & 1 == 0 {
        (r.pid % PODS) as usize
    } else {
        ((h >> 1) % PODS) as usize
    }
}

struct Fleet {
    pods: Vec<Collector>,
    pushed: Vec<u64>,
    server: FleetServer,
    writer: FleetClient,
    querier: FleetClient,
}

fn start(traffic: &Traffic) -> Result<Fleet, String> {
    let pods: Vec<Collector> = (0..PODS)
        .map(|_| Collector::spawn(collector_config(), traffic.factory()))
        .collect();
    let mut handles: Vec<_> = pods.iter().map(Collector::handle).collect();
    let mut pushed = vec![0u64; PODS as usize];
    for r in &traffic.stream[..PREPOP] {
        let p = pod_of(r);
        handles[p]
            .push(r.clone())
            .map_err(|e| format!("pre-populate pod {p}: {e}"))?;
        pushed[p] += 1;
    }
    for (h, pod) in handles.iter_mut().zip(&pods) {
        h.flush().map_err(|e| format!("pre-populate: {e}"))?;
        pod.barrier().map_err(|e| format!("pre-populate: {e}"))?;
    }
    drop(handles);
    let server = FleetServer::bind(
        "127.0.0.1:0",
        FleetConfig {
            codec: Some(traffic.agg.clone()),
            ..FleetConfig::default()
        },
    )
    .map_err(|e| format!("bind fleet server: {e}"))?;
    let connect = || FleetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"));
    let mut writer = connect()?;
    let querier = connect()?;
    for (id, pod) in pods.iter().enumerate() {
        let frame = pod
            .export_snapshot_frame(id as u64, 1)
            .map_err(|e| format!("export pod {id}: {e}"))?;
        writer.send(&frame).map_err(|e| format!("send: {e}"))?;
    }
    if !system::wait_until(|| {
        server.with_aggregator(|a| a.collector_epochs().len()) == PODS as usize
    }) {
        return Err("initial pod snapshots never became visible".into());
    }
    Ok(Fleet {
        pods,
        pushed,
        server,
        writer,
        querier,
    })
}

/// What the snapshot writer measured.
struct WriterLog {
    fresh: Windowed,
    visible: Samples,
    export: Samples,
    send: Samples,
    frame_bytes: u64,
    sends: u64,
    failed: u64,
    wall_s: f64,
    wait_s: f64,
}

/// Re-exports and sends one pod snapshot per [`SNAPSHOT_EVERY`] until
/// `deadline`, then waits until the aggregator holds the new epoch.
fn writer_loop(
    fleet_pods: &[Collector],
    writer: &mut FleetClient,
    server: &FleetServer,
    t0: Instant,
    deadline: Instant,
) -> WriterLog {
    let mut log = WriterLog {
        fresh: Windowed::new(
            deadline.duration_since(t0).as_nanos() as u64,
            windows(deadline.duration_since(t0)),
        ),
        visible: Samples::default(),
        export: Samples::default(),
        send: Samples::default(),
        frame_bytes: 0,
        sends: 0,
        failed: 0,
        wall_s: 0.0,
        wait_s: 0.0,
    };
    for tick in 1u32.. {
        let due = t0 + SNAPSHOT_EVERY * tick;
        if due >= deadline {
            break;
        }
        let w = Instant::now();
        std::thread::sleep(due.saturating_duration_since(w));
        log.wait_s += w.elapsed().as_secs_f64();
        let id = u64::from(tick) % PODS;
        let epoch = 2 + u64::from(tick) / PODS;
        let started = Instant::now();
        let frame = match fleet_pods[id as usize].export_snapshot_frame(id, epoch) {
            Ok(f) => f,
            Err(_) => {
                log.failed += 1;
                continue;
            }
        };
        let exported = Instant::now();
        log.sends += 1;
        if writer.send(&frame).is_err() {
            log.failed += 1;
            continue;
        }
        let sent = Instant::now();
        log.frame_bytes = frame.len() as u64;
        let visible = system::wait_until(|| {
            server.with_aggregator(|a| a.collector_epochs().contains(&(id, epoch)))
        });
        let seen = Instant::now();
        log.wait_s += seen.duration_since(sent).as_secs_f64();
        if !visible {
            log.failed += 1;
            continue;
        }
        log.fresh.push(
            seen.duration_since(t0).as_nanos() as u64,
            seen.duration_since(started).as_nanos() as u64,
        );
        log.visible
            .push(seen.duration_since(sent).as_nanos() as u64);
        log.export
            .push(exported.duration_since(started).as_nanos() as u64);
        log.send
            .push(sent.duration_since(exported).as_nanos() as u64);
    }
    log.wall_s = t0.elapsed().as_secs_f64();
    log
}

/// What the query loop measured.
struct QueryLog {
    rtt: Windowed,
    clone: Samples,
    merge: Samples,
    exec: Samples,
    queries: u64,
    errors: u64,
    span_s: f64,
}

pub fn run(traffic: &Traffic, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (fleet, setup_s) = system::timed_setups(|| start(traffic))?;
    out.set("setup_s", setup_s);
    out.named("setup_s", setup_s, "s");
    let Fleet {
        pods,
        pushed,
        server,
        mut writer,
        mut querier,
    } = fleet;
    let plans = dashboard(traffic);

    let cpu0 = CpuSnapshot::take();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(args.seconds);
    let (wlog, mut qlog, wall) = std::thread::scope(|s| {
        let snapshots = Builder::new()
            .name("bench-snapshot".into())
            .spawn_scoped(s, || writer_loop(&pods, &mut writer, &server, t0, deadline))
            .expect("spawn snapshot writer");
        let qlog = query_loop(&mut querier, &server, &plans, t0, deadline, args.trace);
        let wall = t0.elapsed();
        (
            snapshots.join().expect("snapshot writer panicked"),
            qlog,
            wall,
        )
    });
    let cpu1 = CpuSnapshot::take();
    system::record_peak_rss(out);

    let qps = qlog.queries as f64 / wall.as_secs_f64();
    let mut wlog = wlog;
    out.set("rate_per_s", qps);
    // Too few samples per window for a p95 (~35 queries/s, ~7
    // snapshots/s): tails come from the whole run.
    let (query_p50, query_p95) = (qlog.rtt.median_pct_ms(50.0), qlog.rtt.merged().pct_ms(95.0));
    let (fresh_p50, fresh_p95) = (
        wlog.fresh.median_pct_ms(50.0),
        wlog.fresh.merged().pct_ms(95.0),
    );
    out.set("op_p50_ms", query_p50);
    out.set("op_tail_ms", query_p95);
    out.set("fresh_p50_ms", fresh_p50);
    out.set("fresh_tail_ms", fresh_p95);
    out.named("fleet_qps", qps, "queries/s");
    out.named("fleet_query_p50_ms", query_p50, "ms");
    out.named("fleet_query_p95_ms", query_p95, "ms");
    out.named("snapshot_fresh_p50_ms", fresh_p50, "ms");
    out.named("snapshot_fresh_p95_ms", fresh_p95, "ms");
    out.samples("fleet_queries_timed", qlog.rtt.len());
    out.samples("snapshots_timed", wlog.fresh.len());
    out.info(
        "op",
        "fleet dashboard plan round trip over FleetClient (p95)",
    );
    out.info(
        "fresh",
        "pod snapshot export start -> epoch visible in the aggregator (p95)",
    );

    // Correctness.
    let view = server.with_aggregator(|a| a.view());
    for (name, plan) in &plans {
        let remote = querier.query(plan).map(|r| r.encode());
        let local = view.execute(plan).map(|r| r.encode());
        out.check(
            format!("{name}: FleetClient answer == FleetView::execute answer"),
            matches!((&remote, &local), (Ok(a), Ok(b)) if a == b),
        );
    }
    let wrong_paths = system::check_paths(&view, traffic, out);
    let fstats = server.with_aggregator(|a| a.stats());
    out.check("fleet decoded every frame", fstats.decode_errors == 0);
    for (id, pod) in pods.iter().enumerate() {
        out.check(
            format!("pod {id} ingested its pre-population"),
            pod.stats().ingested == pushed[id],
        );
    }
    out.check("no fleet query errors", qlog.errors == 0);
    out.check("every snapshot sent and visible", wlog.failed == 0);
    out.attempted = qlog.queries + wlog.sends;
    out.failed = qlog.errors + wlog.failed + fstats.decode_errors + wrong_paths;

    // Per-layer attribution.
    layer_cpu(&cpu0, &cpu1, out);
    let (flows, bytes) = pods.iter().fold((0, 0), |(f, b), p| {
        let s = p.stats();
        (f + s.active_flows, b + s.state_bytes)
    });
    out.set("collector.active_flows", flows as f64);
    out.set("collector.state_bytes", bytes as f64);
    out.set("collector.wire.export_ms_p50", wlog.export.pct_ms(50.0));
    out.set("collector.wire.frame_bytes", wlog.frame_bytes as f64);
    out.set("fleet.transport.send_ms_p50", wlog.send.pct_ms(50.0));
    out.set("fleet.snapshot_visible_ms_p50", wlog.visible.pct_ms(50.0));
    out.set("fleet.snapshot_visible_ms_p95", wlog.visible.pct_ms(95.0));
    out.set("fleet.aggregator.clone_ms_p50", qlog.clone.pct_ms(50.0));
    out.set("fleet.aggregator.merge_ms_p50", qlog.merge.pct_ms(50.0));
    out.set("fleet.aggregator.exec_ms_p50", qlog.exec.pct_ms(50.0));
    if args.trace {
        let local = qlog.clone.pct_ms(50.0) + qlog.merge.pct_ms(50.0) + qlog.exec.pct_ms(50.0);
        out.set("fleet.transport.remote_overhead_ms_p50", query_p50 - local);
    }
    let writer_spans = (wlog.export.total_ns() + wlog.send.total_ns()) as f64 / 1e9;
    crate::residual(
        out,
        &[
            LoadThread {
                wall_s: wall.as_secs_f64(),
                span_s: qlog.span_s,
                wait_s: 0.0,
            },
            LoadThread {
                wall_s: wlog.wall_s,
                span_s: writer_spans,
                wait_s: wlog.wait_s,
            },
        ],
    );
    Ok(())
}

/// Closed loop over the dashboard on the fleet connection until
/// `deadline`. Traced runs then repeat each plan's server-side steps
/// locally (clone the pod snapshots, merge, execute) to time them.
fn query_loop(
    querier: &mut FleetClient,
    server: &FleetServer,
    plans: &[(&'static str, QueryPlan)],
    t0: Instant,
    deadline: Instant,
    trace: bool,
) -> QueryLog {
    let mut log = QueryLog {
        rtt: Windowed::new(
            deadline.duration_since(t0).as_nanos() as u64,
            windows(deadline.duration_since(t0)),
        ),
        clone: Samples::default(),
        merge: Samples::default(),
        exec: Samples::default(),
        queries: 0,
        errors: 0,
        span_s: 0.0,
    };
    let mut span = Duration::ZERO;
    let mut panel = 0;
    while Instant::now() < deadline {
        let (name, plan) = &plans[panel % plans.len()];
        panel += 1;
        let t = Instant::now();
        let res = querier.query(plan);
        let rtt = t.elapsed();
        span += rtt;
        log.queries += 1;
        match res {
            Ok(_) => log
                .rtt
                .push(t0.elapsed().as_nanos() as u64, rtt.as_nanos() as u64),
            Err(e) => {
                log.errors += 1;
                eprintln!("pipebench: fleet query {name}: {e}");
            }
        }
        if trace {
            let t = Instant::now();
            let snapshots = server.with_aggregator(|a| a.collector_snapshots());
            let cloned = Instant::now();
            let view = FleetView::merge(snapshots);
            let merged = Instant::now();
            let _ = std::hint::black_box(view.execute(plan));
            let done = Instant::now();
            log.clone.push(cloned.duration_since(t).as_nanos() as u64);
            log.merge
                .push(merged.duration_since(cloned).as_nanos() as u64);
            log.exec.push(done.duration_since(merged).as_nanos() as u64);
            span += done.duration_since(t);
        }
    }
    log.span_s = span.as_secs_f64();
    log
}
