//! The metric tables the benchmark reports: every run prints every
//! end-to-end metric untraced, and every per-layer metric traced.
//! `BENCHMARK.json` at the repository root lists the same names.

/// End-to-end metrics: `(name, unit)`. Each workload fills every one
/// with its own operation (see `pipebench/NOTES.md`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rate_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("fresh_tail_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.window_wait_s", "s"),
    ("bench.cpu_s", "s"),
    ("fleet.forwarder.push_ns_p50", "ns"),
    ("fleet.forwarder.push_ns_p99", "ns"),
    ("fleet.forwarder.cpu_s", "s"),
    ("fleet.forwarder.retransmits", "count"),
    ("fleet.forwarder.wire_bytes_per_digest", "B/digest"),
    ("fleet.ingest.cpu_s", "s"),
    ("fleet.ingest.self_s", "s"),
    ("fleet.ingest.batches", "count"),
    ("fleet.ingest.duplicates", "count"),
    ("collector.handle.sink_us_p50", "us"),
    ("collector.handle.sink_us_p99", "us"),
    ("collector.handle.sink_s", "s"),
    ("collector.producer_parks", "count"),
    ("collector.inprocess_dps", "1/s"),
    ("collector.shard.cpu_s", "s"),
    ("collector.shard.cpu_ns_per_digest", "ns/digest"),
    ("collector.shard.barrier_ms", "ms"),
    ("collector.active_flows", "count"),
    ("collector.state_bytes", "B"),
    ("core.path_absorb_ns", "ns"),
    ("core.latency_absorb_ns", "ns"),
    ("collector.shard.overhead_ns_per_digest", "ns/digest"),
    ("store.journal.cpu_s", "s"),
    ("store.journal.bytes_per_digest", "B/digest"),
    ("store.journal.dropped", "count"),
    ("store.checkpoint_ms_p50", "ms"),
    ("store.checkpoint_ms_max", "ms"),
    ("store.flush_ms", "ms"),
    ("query.exec_ms_p50.top64", "ms"),
    ("query.exec_ms_p50.hop3_quantiles", "ms"),
    ("query.exec_ms_p50.through_switch", "ms"),
    ("query.exec_ms_p50.probe_poll", "ms"),
    ("query.remote_overhead_ms_p50", "ms"),
    ("query.response_bytes.top64", "B"),
    ("query.response_bytes.hop3_quantiles", "B"),
    ("query.response_bytes.through_switch", "B"),
    ("query.conn.cpu_s", "s"),
    ("collector.wire.export_ms_p50", "ms"),
    ("collector.wire.frame_bytes", "B"),
    ("fleet.transport.send_ms_p50", "ms"),
    ("fleet.snapshot_visible_ms_p50", "ms"),
    ("fleet.snapshot_visible_ms_p95", "ms"),
    ("fleet.aggregator.clone_ms_p50", "ms"),
    ("fleet.aggregator.merge_ms_p50", "ms"),
    ("fleet.aggregator.exec_ms_p50", "ms"),
    ("fleet.transport.remote_overhead_ms_p50", "ms"),
    ("fleet.conn.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("process.cpu_s", "s"),
    ("trace.residual_share", "ratio"),
];

/// Unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}
