//! Latency samples and nearest-rank percentiles.

use std::time::Duration;

/// The fewest samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Length of the time windows a run's latency samples are split into.
pub const WINDOW: Duration = Duration::from_secs(6);

/// Windows of [`WINDOW`] in a run of `run` (at least one).
pub fn windows(run: Duration) -> usize {
    ((run.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1)
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p` percent of all samples at or below it. `None` for
/// an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p / 100 * n` (99.9% of 10 000
    // is 9990.000000000002) from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly above the nearest-rank `p` percentile's position
/// among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the `p`
/// percentile, so that the percentile is worth reporting.
pub fn tail_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Durations in nanoseconds, summarised on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Records one duration.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all samples, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Nearest-rank percentile in nanoseconds; 0 when empty.
    pub fn pct_ns(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        nearest_rank(&self.ns, p).unwrap_or(0) as f64
    }

    /// Nearest-rank percentile in milliseconds; 0 when empty.
    pub fn pct_ms(&mut self, p: f64) -> f64 {
        self.pct_ns(p) / 1e6
    }

    /// Largest sample in milliseconds; 0 when empty.
    pub fn max_ms(&self) -> f64 {
        self.ns.iter().copied().max().unwrap_or(0) as f64 / 1e6
    }
}

/// Samples split into equal time windows of a run, so that a percentile
/// can be reported as the median of its per-window values: one burst
/// then moves one window's figure instead of the whole run's.
#[derive(Debug, Clone)]
pub struct Windowed {
    window_ns: u64,
    windows: Vec<Samples>,
}

impl Windowed {
    /// `windows` equal windows over a run of `run_ns`; samples taken
    /// after the run land in the last window.
    pub fn new(run_ns: u64, windows: usize) -> Self {
        let windows = windows.max(1);
        Self {
            window_ns: (run_ns / windows as u64).max(1),
            windows: vec![Samples::default(); windows],
        }
    }

    /// Records `ns`, observed `at_ns` after the run started.
    pub fn push(&mut self, at_ns: u64, ns: u64) {
        let i = ((at_ns / self.window_ns) as usize).min(self.windows.len() - 1);
        self.windows[i].push(ns);
    }

    /// Samples across all windows.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Samples::len).sum()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples per window, in time order.
    pub fn window_counts(&self) -> Vec<usize> {
        self.windows.iter().map(Samples::len).collect()
    }

    /// Every sample, windows merged.
    pub fn merged(&self) -> Samples {
        let mut all = Samples::default();
        for w in &self.windows {
            all.extend(w);
        }
        all
    }

    /// Median over windows of each window's nearest-rank `p`
    /// percentile, in milliseconds. Windows too small to leave
    /// [`MIN_BEYOND`] samples beyond `p` are skipped; when none is large
    /// enough, the merged samples answer instead. 0 when empty.
    pub fn median_pct_ms(&mut self, p: f64) -> f64 {
        let mut per: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| (p <= 50.0 && !w.is_empty()) || tail_supported(w.len(), p))
            .map(|w| w.pct_ms(p))
            .collect();
        if per.is_empty() {
            return self.merged().pct_ms(p);
        }
        per.sort_by(f64::total_cmp);
        let mid = per.len() / 2;
        if per.len() % 2 == 1 {
            per[mid]
        } else {
            (per[mid - 1] + per[mid]) / 2.0
        }
    }
}
