//! Seeded traffic shared by every workload: 20k flows with skewed
//! sizes, a quarter of them path-tracing flows and the rest latency
//! flows, encoded as the digests a PINT sink would extract.

use pint_collector::RecorderFactory;
use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint_core::hash::mix64;
use pint_core::statictrace::{PathTracer, TracerConfig};
use pint_core::{Digest, DigestReport, FlowRecorder};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Flows in the population.
pub const FLOWS: usize = 20_000;
/// Switch hops on every path (k).
pub const HOPS: usize = 5;
/// Switch IDs the path decoder chooses from.
pub const UNIVERSE: u64 = 256;
/// Path-tracing flow IDs start here; latency flows sit below.
pub const PATH_BASE: u64 = 1 << 40;
/// Freshness-probe flow IDs start here; no generated flow uses them.
pub const PROBE_BASE: u64 = 1 << 41;
/// Flow sizes follow a Zipf(1) law shifted by this many ranks: the
/// largest flow carries about 1% of the digests and the smallest a few
/// digests per million, but no handful of flows dominates, so the seed
/// (which decides which flows are heavy) barely moves the per-shard load
/// or the path/latency mix.
const ZIPF_SHIFT: f64 = 10.0;
/// Latency codec: 8 bits per hop over [100 ns, 10 ms]. A deployment
/// constant, not part of the seeded workload.
const CODEC: (u64, u32, f64, f64) = (7, 8, 100.0, 1.0e7);

/// Whether `flow` is a path-tracing flow.
pub fn is_path_flow(flow: u64) -> bool {
    (PATH_BASE..PROBE_BASE).contains(&flow)
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One generated flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Flow ID as the collector sees it.
    pub id: u64,
    /// The route of a path-tracing flow; `None` for latency flows.
    pub path: Option<Vec<u64>>,
    /// Typical per-hop latency of a latency flow, in ns.
    pub base_ns: f64,
}

/// The generated population and digest stream.
pub struct Traffic {
    /// Flows, latency and path-tracing interleaved (every 4th is a path
    /// flow).
    pub flows: Vec<Flow>,
    /// Digests in send order. `ts` is 0 here; workloads stamp each
    /// digest with its due time when they send it.
    pub stream: Vec<DigestReport>,
    /// Latency codec shared by encoder and recorders.
    pub agg: DynamicAggregator,
    /// Path-tracing encoder (`TracerConfig::paper(8, 2, 5)`).
    pub tracer: PathTracer,
}

impl Traffic {
    /// Generates `len` digests from `seed`: the same seed gives the
    /// same flows and stream.
    pub fn generate(seed: u64, len: usize) -> Self {
        let mut rng = Rng::new(seed);
        let agg = DynamicAggregator::new(CODEC.0, CODEC.1, CODEC.2, CODEC.3);
        let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
        let flows: Vec<Flow> = (0..FLOWS as u64)
            .map(|i| {
                if i % 4 == 0 {
                    let mut path = Vec::with_capacity(HOPS);
                    while path.len() < HOPS {
                        let sw = rng.below(UNIVERSE);
                        if !path.contains(&sw) {
                            path.push(sw);
                        }
                    }
                    Flow {
                        id: PATH_BASE + i,
                        path: Some(path),
                        base_ns: 0.0,
                    }
                } else {
                    // Log-uniform in [500 ns, 200 us].
                    let base_ns = 500.0 * 400f64.powf(rng.unit());
                    Flow {
                        id: i,
                        path: None,
                        base_ns,
                    }
                }
            })
            .collect();

        // Shifted-Zipf sizes over a seeded ranking of the flows.
        let mut order: Vec<usize> = (0..FLOWS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut cumulative = Vec::with_capacity(FLOWS);
        let mut total = 0.0;
        for rank in 0..FLOWS {
            total += 1.0 / (rank as f64 + 1.0 + ZIPF_SHIFT);
            cumulative.push(total);
        }

        let mut sent = vec![0u64; FLOWS];
        let stream = (0..len)
            .map(|_| {
                let u = rng.unit() * total;
                let rank = cumulative.partition_point(|&c| c <= u).min(FLOWS - 1);
                let idx = order[rank];
                let flow = &flows[idx];
                sent[idx] += 1;
                let pid = mix64(flow.id ^ mix64(sent[idx]));
                let digest = match &flow.path {
                    Some(path) => tracer.encode_path(pid, path),
                    None => latency_digest(&agg, &mut rng, pid, flow.base_ns),
                };
                DigestReport::new(flow.id, pid, digest, HOPS as u16, 0)
            })
            .collect();
        Self {
            flows,
            stream,
            agg,
            tracer,
        }
    }

    /// A hash of every generated flow and digest: equal for equal seeds.
    pub fn input_hash(&self) -> u64 {
        let mut h = 0u64;
        let mut fold = |v: u64| h = mix64(h ^ v);
        for f in &self.flows {
            fold(f.id);
            fold(f.base_ns.to_bits());
            for &sw in f.path.iter().flatten() {
                fold(sw);
            }
        }
        for r in &self.stream {
            fold(r.flow);
            fold(r.pid);
            fold(u64::from(r.path_len));
            for lane in 0..r.digest.lanes() {
                fold(r.digest.get(lane));
            }
        }
        h
    }

    /// Builds each flow's recorder: a path decoder over the 256-switch
    /// universe for path flows, a sketched latency recorder otherwise.
    pub fn factory(&self) -> RecorderFactory {
        let agg = self.agg.clone();
        let tracer = self.tracer.clone();
        let universe: Vec<u64> = (0..UNIVERSE).collect();
        Arc::new(move |flow, report: &DigestReport| {
            let k = usize::from(report.path_len).max(1);
            if is_path_flow(flow) {
                Box::new(tracer.decoder(universe.clone(), k)) as Box<dyn FlowRecorder>
            } else {
                Box::new(DynamicRecorder::new_sketched(agg.clone(), k, 96)) as Box<dyn FlowRecorder>
            }
        })
    }

    /// Generated routes of the path flows, by flow ID.
    pub fn paths(&self) -> BTreeMap<u64, Vec<u64>> {
        self.flows
            .iter()
            .filter_map(|f| f.path.clone().map(|p| (f.id, p)))
            .collect()
    }

    /// Share of stream digests that belong to path flows.
    pub fn path_share(&self) -> f64 {
        let paths = self.stream.iter().filter(|r| is_path_flow(r.flow)).count();
        paths as f64 / self.stream.len().max(1) as f64
    }

    /// The `n` latency flows with the most digests in the stream,
    /// ascending by ID: the dashboard's quantile panel.
    pub fn busiest_latency_flows(&self, n: usize) -> Vec<u64> {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for r in self.stream.iter().filter(|r| !is_path_flow(r.flow)) {
            *counts.entry(r.flow).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut ids: Vec<u64> = ranked.into_iter().take(n).map(|(f, _)| f).collect();
        ids.sort_unstable();
        ids
    }

    /// A switch on the route of the busiest path flow: the dashboard's
    /// "through switch" panel.
    pub fn watch_switch(&self) -> u64 {
        let busiest = self
            .stream
            .iter()
            .find(|r| is_path_flow(r.flow))
            .map_or(PATH_BASE, |r| r.flow);
        let idx = (busiest - PATH_BASE) as usize;
        self.flows[idx].path.as_ref().map_or(0, |p| p[HOPS / 2])
    }

    /// Probe digest number `n`: the first and only digest of a fresh
    /// latency flow, stamped `ts`.
    pub fn probe(&self, n: u64, ts: u64) -> DigestReport {
        let flow = PROBE_BASE + n;
        let pid = mix64(flow);
        let mut d = Digest::new(1);
        for hop in 1..=HOPS {
            self.agg
                .encode_hop(pid, hop, 1_000.0 * hop as f64, &mut d, 0);
        }
        DigestReport::new(flow, pid, d, HOPS as u16, ts)
    }
}

/// One latency-flow digest: every hop offers a value near the flow's
/// base latency and the reservoir keeps one of them.
fn latency_digest(agg: &DynamicAggregator, rng: &mut Rng, pid: u64, base_ns: f64) -> Digest {
    let mut d = Digest::new(1);
    for hop in 1..=HOPS {
        let jitter = 0.5 + rng.unit();
        let value = (base_ns * (1.0 + 0.25 * hop as f64) * jitter).clamp(CODEC.2, CODEC.3);
        agg.encode_hop(pid, hop, value, &mut d, 0);
    }
    d
}
