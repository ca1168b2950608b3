//! Set-up of the remote ingest path shared by `ingest_sat` and
//! `fresh_mixed`: collector (+ journal) ← `DigestServer` ←
//! `DigestForwarder` over loopback TCP, plus helpers every workload
//! uses.

use crate::outcome::Outcome;
use pint_collector::{Collector, CollectorConfig};
use pint_core::RecorderKind;
use pint_fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
use pint_obs::MetricsRegistry;
use pint_query::{QueryBackend, QueryResult, TelemetryQuery};
use pint_store::{Journal, JournalConfig, StoreOptions, StoreWriter};
use pint_wire::store::{StoreKind, Superblock};
use pipebench::stats::Samples;
use pipebench::traffic::Traffic;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Collector shards.
pub const SHARDS: usize = 2;
/// Digests per forwarder batch and per collector batch.
pub const BATCH: usize = 128;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// How long a bench thread sleeps between polls of a counter.
pub const POLL: Duration = Duration::from_micros(100);
/// Longest a drain or visibility wait may take before it counts as a
/// failure.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The collector configuration every workload uses.
pub fn collector_config() -> CollectorConfig {
    CollectorConfig {
        shards: SHARDS,
        batch_size: BATCH,
        ..CollectorConfig::default()
    }
}

/// What the bench's own `BatchSink` saw on the server's poll thread.
#[derive(Debug, Default)]
pub struct SinkLog {
    /// Duration of each `push_batch` + `flush` (traced runs only).
    pub spans: Samples,
    /// Digests whose batch the collector handle refused.
    pub failed: u64,
}

/// Where a journal writes, and the registry its counters live in.
pub struct JournalSlot {
    pub path: PathBuf,
    pub registry: MetricsRegistry,
}

/// A running remote ingest path.
pub struct IngestSystem {
    pub collector: Arc<Collector>,
    pub server: DigestServer,
    pub fwd: DigestForwarder,
    pub sink: Arc<Mutex<SinkLog>>,
    pub journal: Option<JournalSlot>,
}

impl IngestSystem {
    /// Spawns the collector, attaches a journal at `journal` if given,
    /// binds the server with a sink into the collector, and connects
    /// one forwarder buffering up to `queue_batches` sealed batches;
    /// returns once the server has accepted it.
    pub fn start(
        traffic: &Traffic,
        journal: Option<&Path>,
        queue_batches: usize,
        trace: bool,
    ) -> Result<Self, String> {
        let collector = Arc::new(Collector::spawn(collector_config(), traffic.factory()));
        let journal = match journal {
            Some(path) => {
                let writer = StoreWriter::create(
                    path,
                    Superblock::new(StoreKind::Collector, 0, 0),
                    StoreOptions::default(),
                )
                .map_err(|e| format!("create journal {}: {e}", path.display()))?;
                let registry = MetricsRegistry::new();
                collector.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));
                Some(JournalSlot {
                    path: path.to_path_buf(),
                    registry,
                })
            }
            None => None,
        };
        let sink = Arc::new(Mutex::new(SinkLog::default()));
        let log = Arc::clone(&sink);
        let mut handle = collector.handle();
        let server = DigestServer::bind(
            "127.0.0.1:0",
            DigestServerConfig::default(),
            Box::new(move |_source, reports| {
                let n = reports.len() as u64;
                let started = trace.then(Instant::now);
                let ok = handle.push_batch(reports).is_ok() & handle.flush().is_ok();
                if started.is_some() || !ok {
                    let mut log = log.lock().expect("sink log poisoned");
                    if let Some(t) = started {
                        log.spans.push(t.elapsed().as_nanos() as u64);
                    }
                    if !ok {
                        log.failed += n;
                    }
                }
            }),
        )
        .map_err(|e| format!("bind digest server: {e}"))?;
        let fwd = DigestForwarder::connect(
            server.local_addr(),
            ForwarderConfig {
                source: 1,
                batch_digests: BATCH,
                queue_batches,
                ..ForwarderConfig::default()
            },
        );
        if !wait_until(|| server.stats().accepted >= 1) {
            return Err("forwarder never connected".into());
        }
        Ok(Self {
            collector,
            server,
            fwd,
            sink,
            journal,
        })
    }
}

/// Runs `start` [`SETUPS`] times, tearing down each system before the
/// next starts, and keeps the last. Returns it with the median set-up
/// time in seconds.
pub fn timed_setups<T>(mut start: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut secs = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(start()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    Ok((kept.expect("SETUPS > 0"), secs[secs.len() / 2]))
}

/// Records the process's peak RSS so far. Workloads call this when the
/// measured window closes, before their correctness checks, so the
/// figure covers set-up and run but not the bench's own verification.
pub fn record_peak_rss(out: &mut Outcome) {
    let rss = pipebench::procstat::peak_rss_mb();
    out.set("peak_rss_mb", rss);
    out.named("peak_rss_mb", rss, "MiB");
}

/// Polls `done` every [`POLL`] until it holds or [`DRAIN_TIMEOUT`]
/// passes; returns whether it held.
pub fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
}

/// Checks that every path flow `backend` reports fully decoded took
/// its generated route. Returns the number of wrong paths.
pub fn check_paths(backend: &dyn QueryBackend, traffic: &Traffic, out: &mut Outcome) -> u64 {
    let plan = TelemetryQuery::new()
        .of_kind(RecorderKind::PathTracing)
        .decoded_paths()
        .plan()
        .expect("valid plan");
    let expected = traffic.paths();
    match backend.query(&plan) {
        Ok(QueryResult::DecodedPaths(rows)) => {
            let wrong = rows
                .iter()
                .filter(|(flow, path)| expected.get(flow) != Some(path))
                .count() as u64;
            out.check("decoded paths match generated routes", wrong == 0);
            out.check("some paths decoded", !rows.is_empty());
            out.info("paths_decoded", rows.len());
            wrong
        }
        other => {
            out.check(format!("decoded-paths query answered: {other:?}"), false);
            1
        }
    }
}

/// A scratch directory inside the benchmark's own build tree.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
