//! Busy time per layer from `/proc/self/task/*/stat`, keyed by the
//! program's thread names, plus process-wide CPU and peak RSS.

use std::collections::BTreeMap;
use std::time::Instant;

/// Maps a thread's `comm` (the kernel truncates names to 15 bytes) to
/// the layer it serves. Threads the program does not name belong to
/// the benchmark itself.
pub fn layer_of(comm: &str) -> &'static str {
    const LAYERS: [(&str, &str); 8] = [
        ("pint-digest-for", "fleet.forwarder"),
        ("pint-digest-ing", "fleet.ingest"),
        ("pint-collector-", "collector.shard"),
        ("pint-store-jour", "store.journal"),
        ("pint-query-conn", "query.conn"),
        ("pint-query-acce", "query.accept"),
        ("pint-fleet-conn", "fleet.conn"),
        ("pint-fleet-acce", "fleet.accept"),
    ];
    LAYERS
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map_or("bench", |&(_, layer)| layer)
}

/// Parses one `stat` line into `(comm, utime + stime)` in clock ticks.
/// The name sits in parentheses and may itself hold spaces or
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // After ")": state is field 3; utime and stime are fields 14, 15.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Clock ticks per second, from the `AT_CLKTCK` auxiliary vector entry
/// (100 when it cannot be read).
pub fn clk_tck() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    auxv.chunks_exact(16)
        .map(|c| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&c[..8]), word(&c[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, v)| v.max(1))
}

/// Per-thread and process-wide CPU ticks at one instant.
#[derive(Debug, Clone)]
pub struct CpuSnapshot {
    at: Instant,
    threads: BTreeMap<u32, (String, u64)>,
    process: u64,
}

impl CpuSnapshot {
    /// Reads every live thread of this process.
    pub fn take() -> Self {
        let mut threads = BTreeMap::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                if let Some(parsed) = std::fs::read_to_string(entry.path().join("stat"))
                    .ok()
                    .as_deref()
                    .and_then(parse_stat)
                {
                    threads.insert(tid, parsed);
                }
            }
        }
        let process = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .as_deref()
            .and_then(parse_stat)
            .map_or(0, |(_, t)| t);
        Self {
            at: Instant::now(),
            threads,
            process,
        }
    }
}

/// CPU seconds spent between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct CpuDelta {
    /// Busy seconds per layer (threads alive at `after`).
    pub layers: BTreeMap<&'static str, f64>,
    /// Busy seconds of the whole process, exited threads included.
    pub process_s: f64,
    /// Wall seconds between the snapshots.
    pub wall_s: f64,
}

impl CpuDelta {
    /// Busy seconds between `before` and `after`, attributed by
    /// [`layer_of`]. A thread absent from `before` started in between
    /// and counts from zero.
    pub fn between(before: &CpuSnapshot, after: &CpuSnapshot) -> Self {
        let tck = clk_tck() as f64;
        let mut layers = BTreeMap::new();
        for (tid, (comm, ticks)) in &after.threads {
            let start = before
                .threads
                .get(tid)
                .filter(|(c, _)| c == comm)
                .map_or(0, |(_, t)| *t);
            *layers.entry(layer_of(comm)).or_insert(0.0) +=
                ticks.saturating_sub(start) as f64 / tck;
        }
        Self {
            layers,
            process_s: after.process.saturating_sub(before.process) as f64 / tck,
            wall_s: after.at.duration_since(before.at).as_secs_f64(),
        }
    }

    /// Busy seconds of one layer (0 when none of its threads ran).
    pub fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
