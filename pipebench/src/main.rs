//! The pipeline benchmark: one seeded command that drives digests
//! through forwarder → `DigestServer` → collector (+ journal) → query
//! over loopback TCP, and fleet queries over snapshot frames.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload ingest_sat --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of stdout is the result (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it carries provenance, the
//! pipeline's own metric names and sample counts. `--trace 1` reports
//! per-layer metrics instead of end-to-end ones. The process exits
//! non-zero when any correctness check fails. See `NOTES.md`.

mod fleet_query;
mod fresh_mixed;
mod ingest_sat;
mod outcome;
mod system;

use outcome::Outcome;
use pint_core::FlowRecorder;
use pipebench::procstat::{CpuDelta, CpuSnapshot};
use pipebench::traffic::{is_path_flow, Traffic, PATH_BASE};
use std::process::ExitCode;
use std::time::Instant;

/// Digests in the generated stream; workloads that need more cycle it.
const STREAM_LEN: usize = 1 << 20;
/// Digests replayed through standalone recorders to time `absorb`.
const ABSORB_SAMPLE: usize = 1 << 18;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad)?,
                "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }
}

/// One thread that drives a workload: its wall time, the part spent
/// inside calls into the pipeline's layers, and the part it slept.
pub struct LoadThread {
    pub wall_s: f64,
    pub span_s: f64,
    pub wait_s: f64,
}

/// Reports the share of the driving threads' wall time that neither a
/// layer span nor a deliberate wait covers: the bench's own work.
pub fn residual(out: &mut Outcome, threads: &[LoadThread]) {
    let wall: f64 = threads.iter().map(|d| d.wall_s).sum();
    let spans: f64 = threads.iter().map(|d| d.span_s).sum();
    let waits: f64 = threads.iter().map(|d| d.wait_s).sum();
    out.info("trace_wall_s", format!("{wall:.3}"));
    out.info("trace_span_s", format!("{spans:.3}"));
    out.set(
        "trace.residual_share",
        ((wall - spans - waits) / wall.max(f64::MIN_POSITIVE)).max(0.0),
    );
}

/// Busy seconds per layer between two snapshots, recorded as the
/// `*.cpu_s` metrics and `process.cpu_util`.
pub fn layer_cpu(before: &CpuSnapshot, after: &CpuSnapshot, out: &mut Outcome) -> CpuDelta {
    let cpu = CpuDelta::between(before, after);
    for (metric, layer) in [
        ("bench.cpu_s", "bench"),
        ("fleet.forwarder.cpu_s", "fleet.forwarder"),
        ("fleet.ingest.cpu_s", "fleet.ingest"),
        ("collector.shard.cpu_s", "collector.shard"),
        ("store.journal.cpu_s", "store.journal"),
        ("query.conn.cpu_s", "query.conn"),
        ("fleet.conn.cpu_s", "fleet.conn"),
    ] {
        out.set(metric, cpu.layer(layer));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.set("process.cpu_s", cpu.process_s);
    out.set("process.cpu_util", cpu.process_s / (cpu.wall_s * cores));
    for (layer, secs) in &cpu.layers {
        out.info(layer, format!("{secs:.3} cpu-s"));
    }
    cpu
}

/// Nanoseconds per `absorb` for path and latency digests: a fixed
/// sample of the stream replayed through standalone recorders built by
/// the collector's factory (recorders exist before timing starts).
pub fn absorb_cost(traffic: &Traffic) -> (f64, f64) {
    let factory = traffic.factory();
    let sample = &traffic.stream[..ABSORB_SAMPLE.min(traffic.stream.len())];
    let slot = |flow: u64| (flow & (PATH_BASE - 1)) as usize;
    let mut recorders: Vec<Option<Box<dyn FlowRecorder>>> =
        (0..traffic.flows.len()).map(|_| None).collect();
    for r in sample {
        recorders[slot(r.flow)].get_or_insert_with(|| factory(r.flow, r));
    }
    let mut time = |path: bool| {
        let mut n = 0u64;
        let t = Instant::now();
        for r in sample.iter().filter(|r| is_path_flow(r.flow) == path) {
            if let Some(rec) = recorders[slot(r.flow)].as_mut() {
                rec.absorb(std::hint::black_box(r.pid), std::hint::black_box(&r.digest));
                n += 1;
            }
        }
        t.elapsed().as_nanos() as f64 / n.max(1) as f64
    };
    (time(true), time(false))
}

/// Host and build provenance recorded with every result.
fn host() -> Vec<(&'static str, String)> {
    let command_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("transport", "loopback".into()),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
    ]
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "ingest_sat" => ingest_sat::run,
        "fresh_mixed" => fresh_mixed::run,
        "fleet_query" => fleet_query::run,
        other => {
            eprintln!(
                "pipebench: unknown workload {other:?} (ingest_sat | fresh_mixed | fleet_query)"
            );
            return ExitCode::from(2);
        }
    };
    let traffic = Traffic::generate(args.seed, STREAM_LEN);
    let input_hash = traffic.input_hash();
    let mut out = Outcome::default();
    if let Err(e) = run(&traffic, &args, &mut out) {
        eprintln!("pipebench: {e}");
        out.check(e, false);
    }
    out.info("stream_digests", traffic.stream.len());
    out.print(&args, &host(), input_hash);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
