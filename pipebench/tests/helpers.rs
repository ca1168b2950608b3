//! Unit tests of the benchmark's own helpers.

use pipebench::metrics::{END_TO_END, PER_LAYER};
use pipebench::probes::ProbeBook;
use pipebench::procstat::{layer_of, parse_stat, CpuDelta, CpuSnapshot};
use pipebench::stats::{beyond, nearest_rank, tail_supported, Samples, Windowed};
use pipebench::traffic::{is_path_flow, Traffic, FLOWS, PROBE_BASE};

#[test]
fn nearest_rank_picks_the_smallest_value_covering_p() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&v, 50.0), Some(50));
    assert_eq!(nearest_rank(&v, 99.0), Some(99));
    assert_eq!(nearest_rank(&v, 99.5), Some(100));
    assert_eq!(nearest_rank(&v, 100.0), Some(100));
    assert_eq!(nearest_rank(&v, 0.0), Some(1));
    assert_eq!(nearest_rank(&[7u64], 99.0), Some(7));
    assert_eq!(nearest_rank::<u64>(&[], 50.0), None);
    let odd = [3u64, 5, 9];
    assert_eq!(nearest_rank(&odd, 50.0), Some(5));
}

#[test]
fn a_tail_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert!(tail_supported(1000, 99.0));
    assert_eq!(beyond(999, 99.0), 9);
    assert!(!tail_supported(999, 99.0));
    assert!(tail_supported(200, 95.0));
    assert!(!tail_supported(199, 95.0));
    assert_eq!(beyond(0, 50.0), 0);
    // Float error in 99.9% of 10 000 must not cost the exact rank.
    assert_eq!(beyond(10_000, 99.9), 10);
    assert!(tail_supported(10_000, 99.9));
    // 600 panels per window support p98 but not p99.
    assert!(tail_supported(600, 98.0));
    assert!(!tail_supported(600, 99.0));
}

#[test]
fn samples_summarise_in_nanoseconds_and_milliseconds() {
    let mut s = Samples::default();
    assert_eq!(s.pct_ms(50.0), 0.0);
    for ms in [4u64, 1, 3, 2] {
        s.push(ms * 1_000_000);
    }
    assert_eq!(s.len(), 4);
    assert_eq!(s.pct_ms(50.0), 2.0);
    assert_eq!(s.pct_ns(100.0), 4e6);
    assert_eq!(s.max_ms(), 4.0);
    assert_eq!(s.total_ns(), 10_000_000);
}

#[test]
fn stat_lines_parse_even_with_odd_thread_names() {
    let line = "4242 (pint-digest-for) S 1 1 1 0 -1 4194368 12 0 0 0 150 27 0 0 20 0 9 0 100 0 0";
    assert_eq!(parse_stat(line), Some(("pint-digest-for".to_string(), 177)));
    let odd = "7 (a (b) c) R 1 1 1 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 0 0";
    assert_eq!(parse_stat(odd), Some(("a (b) c".to_string(), 11)));
    assert_eq!(parse_stat("7 (short) R 1 2"), None);
    assert_eq!(parse_stat("no parentheses"), None);
}

#[test]
fn thread_names_map_to_layers() {
    // The kernel keeps the first 15 bytes of a thread name.
    for (comm, layer) in [
        ("pint-digest-for", "fleet.forwarder"),
        ("pint-digest-ing", "fleet.ingest"),
        ("pint-collector-", "collector.shard"),
        ("pint-store-jour", "store.journal"),
        ("pint-query-conn", "query.conn"),
        ("pint-query-acce", "query.accept"),
        ("pint-fleet-conn", "fleet.conn"),
        ("pint-fleet-acce", "fleet.accept"),
        ("bench-query", "bench"),
        ("pipebench", "bench"),
    ] {
        assert_eq!(layer_of(comm), layer, "{comm}");
    }
}

#[test]
fn cpu_snapshots_attribute_live_threads_by_name() {
    let before = CpuSnapshot::take();
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::Builder::new()
        .name("pint-fleet-conn".into())
        .spawn(move || {
            ready_tx.send(()).expect("test thread alive");
            rx.recv().ok();
        })
        .expect("spawn");
    ready_rx.recv().expect("worker started");
    let after = CpuSnapshot::take();
    tx.send(()).expect("worker alive");
    worker.join().expect("worker");
    let delta = CpuDelta::between(&before, &after);
    assert!(
        delta.layers.contains_key("fleet.conn"),
        "{:?}",
        delta.layers
    );
    assert!(delta.layers.contains_key("bench"), "{:?}", delta.layers);
    assert!(delta.wall_s >= 0.0 && delta.process_s >= 0.0);
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let a = Traffic::generate(11, 20_000);
    let b = Traffic::generate(11, 20_000);
    let c = Traffic::generate(12, 20_000);
    assert_eq!(a.input_hash(), b.input_hash());
    assert_ne!(a.input_hash(), c.input_hash());
    assert_eq!(a.stream.len(), 20_000);
}

#[test]
fn traffic_has_the_stated_shape() {
    let t = Traffic::generate(3, 50_000);
    assert_eq!(t.flows.len(), FLOWS);
    let path_flows = t.flows.iter().filter(|f| is_path_flow(f.id)).count();
    assert_eq!(path_flows, FLOWS / 4);
    assert!(t
        .flows
        .iter()
        .all(|f| f.path.is_some() == is_path_flow(f.id)));
    assert!(t.stream.iter().all(|r| r.flow < PROBE_BASE));
    // Skewed sizes: the busiest flow carries far more than an even share.
    let mut counts = std::collections::BTreeMap::new();
    for r in &t.stream {
        *counts.entry(r.flow).or_insert(0u64) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    assert!(max > 50 * (t.stream.len() / FLOWS) as u64, "max {max}");
    let share = t.path_share();
    assert!((0.2..0.3).contains(&share), "path share {share}");
    let probe = t.probe(5, 77);
    assert_eq!((probe.flow, probe.ts), (PROBE_BASE + 5, 77));
}

#[test]
fn probes_are_counted_once_and_timed_from_their_due_time() {
    let mut book = ProbeBook::new(Windowed::new(10_000, 1));
    book.issue(PROBE_BASE, 100);
    book.issue(PROBE_BASE + 1, 200);
    assert_eq!(book.unseen(), 2);
    assert_eq!(book.outstanding(), vec![PROBE_BASE, PROBE_BASE + 1]);
    // An unknown ID is ignored; a seen probe is not seen twice.
    assert_eq!(book.observe([PROBE_BASE + 1, 42], 250), 1);
    assert_eq!(book.observe([PROBE_BASE + 1], 900), 0);
    assert_eq!(book.outstanding(), vec![PROBE_BASE]);
    assert_eq!(book.unseen(), 1);
    assert_eq!(book.freshness().median_pct_ms(50.0), 50.0 / 1e6);
    assert_eq!(book.observe([PROBE_BASE], 1_100), 1);
    assert_eq!(book.unseen(), 0);
    assert_eq!(book.freshness().len(), 2);
    assert_eq!(book.freshness().median_pct_ms(100.0), 1_000.0 / 1e6);
}

/// The `"name"`/`"unit"` pairs of one array in BENCHMARK.json.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, f: &str| {
        let at = entry.find(&format!("\"{f}\"")).expect("field present");
        let rest = &entry[at + f.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside pipebench/");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
}

#[test]
fn windowed_percentiles_are_medians_over_windows() {
    let mut w = Windowed::new(3_000, 3);
    // Window 0 holds 1 ms samples, window 1 holds 2 ms, window 2 holds
    // 9 ms; a sample after the run joins the last window.
    for i in 0..20u64 {
        w.push(i, 1_000_000);
        w.push(1_000 + i, 2_000_000);
        w.push(2_000 + i, 9_000_000);
    }
    w.push(10_000, 9_000_000);
    assert_eq!(w.len(), 61);
    assert_eq!(w.median_pct_ms(50.0), 2.0);
    // 20 samples cannot support p99 in any window: merged answer.
    assert_eq!(w.median_pct_ms(99.0), 9.0);
    let mut even = Windowed::new(2_000, 2);
    even.push(0, 1_000_000);
    even.push(1_500, 3_000_000);
    assert_eq!(even.median_pct_ms(50.0), 2.0);
    assert_eq!(Windowed::new(1, 4).median_pct_ms(50.0), 0.0);
}
