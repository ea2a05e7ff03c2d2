//! The benchmark's contract: workload names and every metric by name,
//! unit and direction. `BENCHMARK.json` lists the same names (the schema
//! test holds the two equal); `README.md` says which layer metric should
//! move which end-to-end metric on which workload.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name; per-layer names are `<layer>.<what>`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a caller of the shared memory sees. Bounds were set from the
/// spread audit (README, `results/spread.txt`): two and a half to three
/// times the widest run-to-run interquartile spread any workload showed
/// on the reference box, never below the issue's figure, at most 25 %.
/// The p99 latencies do not repeat there (spread up to 25 %), so they are
/// per-layer metrics (`client.*_p99_us`), not bounded ones.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.20),
    e2e("write_p50_us", "us", Lower, 0.20),
    e2e("visibility_mean_us", "us", Lower, 0.20),
    e2e("wire_bytes_per_update", "B", Lower, 0.02),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers: probes of each layer's public functions,
/// boundary counts from the metrics frame, and the traced run's stage
/// means. No bounds — they explain an end-to-end change, they do not
/// gate one. A metric that is not defined on a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("clock.advance_ns", "ns", Lower),
    layer("clock.deliverable_ns", "ns", Lower),
    layer("clock.merge_ns", "ns", Lower),
    layer("clock.entries_per_ts", "count", Lower),
    layer("clock.encoded_bytes_per_ts", "B", Lower),
    layer("lowerbound.entries_per_ts", "count", Lower),
    layer("core.write_ns", "ns", Lower),
    layer("core.apply_ns", "ns", Lower),
    layer("core.apply_reordered_ns", "ns", Lower),
    layer("core.buffered_applies_pct", "%", Lower),
    layer("core.sweep_applies_s", "applies/s", Higher),
    layer("wire.encode_ns_per_update_b1", "ns", Lower),
    layer("wire.encode_ns_per_update_b64", "ns", Lower),
    layer("wire.decode_ns_per_update_b1", "ns", Lower),
    layer("wire.decode_ns_per_update_b64", "ns", Lower),
    layer("wire.bytes_per_update_b1", "B", Lower),
    layer("wire.bytes_per_update_b64", "B", Lower),
    layer("wire.clock_bytes_per_update", "B", Lower),
    layer("wire.request_codec_ns", "ns", Lower),
    layer("storage.append_ns_per_record_b1", "ns", Lower),
    layer("storage.append_ns_per_record_b16", "ns", Lower),
    layer("storage.append_ns_per_record_b256", "ns", Lower),
    layer("storage.append_fsync8_ns_per_record_b16", "ns", Lower),
    layer("storage.bytes_per_record", "B", Lower),
    layer("storage.open_scan_mb_s", "MB/s", Higher),
    layer("storage.recover_ms", "ms", Lower),
    layer("reactor.echo_frames_s", "frames/s", Higher),
    layer("reactor.wakeups_per_frame", "count", Lower),
    layer("reactor.decode_frames_s", "frames/s", Higher),
    layer("node.send_mean_us", "us", Lower),
    layer("node.wire_mean_us", "us", Lower),
    layer("node.pending_stall_mean_us", "us", Lower),
    layer("node.wal_append_mean_us", "us", Lower),
    layer("node.wal_fsync_mean_us", "us", Lower),
    layer("node.ack_mean_us", "us", Lower),
    layer("node.seal_mean_us", "us", Lower),
    layer("node.visibility_p99_us", "us", Lower),
    layer("node.updates_per_batch", "count", Higher),
    layer("node.frames_per_flush", "count", Lower),
    layer("node.wal_writes_per_op", "count", Lower),
    layer("node.reactor_wakeups_per_op", "count", Lower),
    layer("node.reactor_events_per_wakeup", "count", Higher),
    layer("node.pool_miss_pct", "%", Lower),
    layer("node.resent_per_kop", "count", Lower),
    layer("node.duplicates_dropped", "count", Lower),
    layer("node.max_window", "count", Lower),
    layer("node.outq_hiwat_bytes", "B", Lower),
    layer("node.snapshots_written", "count", Lower),
    layer("node.snapshot_bytes", "B", Lower),
    layer("client.op_p99_us", "us", Lower),
    layer("client.write_p99_us", "us", Lower),
    layer("client.read_p50_us", "us", Lower),
    layer("client.read_p99_us", "us", Lower),
    layer("checker.verify_s", "s", Lower),
    layer("checker.verify_events_s", "events/s", Higher),
    layer("telemetry.trace_overhead_pct", "%", Lower),
    layer("parallel.all_cpus_throughput_ops_s", "ops/s", Higher),
    layer("parallel.all_cpus_speedup", "ratio", Higher),
    layer("phase.launch_ms", "ms", Lower),
    layer("phase.drain_ms", "ms", Lower),
    layer("phase.verify_ms", "ms", Lower),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
