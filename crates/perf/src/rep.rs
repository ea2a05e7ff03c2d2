//! One repetition of a workload: launch → connect → warm-up → measure →
//! (crash/restart) → drain → oracle verify → shutdown, all through the
//! service's public API. A timed repetition runs in a fresh child process
//! (clean RSS, CPU clock and allocator); the schema test calls the same
//! function in-process.

use crate::spec::{RepPlan, ScriptOp, NODES};
use crate::trace::{Span, SpanLog};
use prcc_clock::EdgeProtocol;
use prcc_service::{LoopbackCluster, MetricsSnapshot, NodeStatus, ServiceClient, ServiceConfig};
use prcc_telemetry::exact_percentile;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One repetition's numbers, by metric name (plus the bookkeeping keys
/// `ops`, `writes`, `reads`, `attempted`, `failed`, `consistent`,
/// `op_spans`, `host.steal_ms`).
pub type Sample = BTreeMap<String, f64>;

const WARMING: u8 = 0;
const MEASURING: u8 = 1;
const STOPPED: u8 = 2;

/// Removes a scratch directory on every exit path, error returns and
/// panics included.
#[derive(Debug)]
pub struct RemoveOnDrop(pub PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one client connection did.
struct Lane {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// Closed loop on one connection: the next op is sent when the previous
/// one returned. Only ops that start and finish inside the measure
/// window are timed.
fn drive(
    node: usize,
    mut client: ServiceClient,
    script: &[ScriptOp],
    phase: &AtomicU8,
    pad: usize,
    spans: &SpanLog,
    measure_span: u64,
) -> Lane {
    let mut lane = Lane {
        write_ns: Vec::with_capacity(1 << 17),
        read_ns: Vec::with_capacity(1 << 17),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    for (index, op) in script.iter().cycle().enumerate() {
        let before = phase.load(Ordering::SeqCst);
        if before == STOPPED {
            break;
        }
        let start = Instant::now();
        let outcome = if op.read {
            client.read_in(op.partition, op.register).map(|_| true)
        } else {
            client.write_padded(op.partition, op.register, op.value, pad)
        };
        let end = Instant::now();
        lane.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => lane.failed += 1,
            Err(_) => {
                // The connection is gone; the lane stops and the run fails.
                lane.failed += 1;
                break;
            }
        }
        if before == MEASURING && phase.load(Ordering::SeqCst) == MEASURING {
            let ns = (end - start).as_nanos() as u64;
            if op.read {
                lane.read_ns.push(ns);
            } else {
                lane.write_ns.push(ns);
            }
            if spans.enabled() {
                lane.spans.push(Span {
                    id: ((node as u64 + 1) << 40) | index as u64,
                    parent: measure_span,
                    name: if op.read { "op.read" } else { "op.write" }.to_string(),
                    op: index as u64,
                    node: node as u64,
                    start_ns: spans.epoch_ns(start),
                    end_ns: spans.epoch_ns(end),
                });
            }
        }
    }
    lane
}

/// The public counters at one instant, cluster-wide.
struct Scrape {
    statuses: Vec<NodeStatus>,
    metrics: MetricsSnapshot,
}

impl Scrape {
    fn take(cluster: &LoopbackCluster) -> Result<Scrape, String> {
        Ok(Scrape {
            statuses: cluster.statuses().map_err(|e| format!("status: {e}"))?,
            metrics: cluster.metrics().map_err(|e| format!("metrics: {e}"))?,
        })
    }

    fn sum(&self, field: impl Fn(&NodeStatus) -> u64) -> f64 {
        self.statuses.iter().map(field).sum::<u64>() as f64
    }

    fn max(&self, field: impl Fn(&NodeStatus) -> u64) -> f64 {
        self.statuses.iter().map(field).max().unwrap_or(0) as f64
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .counter(name)
            .or_else(|| self.metrics.gauge(name))
            .unwrap_or(0) as f64
    }

    fn hist(&self, name: &str) -> (f64, f64) {
        self.metrics
            .hist(name)
            .map_or((0.0, 0.0), |h| (h.sum() as f64, h.count() as f64))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Exact nearest-rank percentile in microseconds of nanosecond samples
/// (0 when there are none); `sorted` must be ascending.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        exact_percentile(sorted, q) as f64 / 1000.0
    }
}

/// `utime + stime` of this process in microseconds (the kernel's
/// USER_HZ is 100 on every Linux the workspace targets).
fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) * 10_000.0
}

/// Host-wide steal time in milliseconds (`/proc/stat`): CPU the
/// hypervisor took from this VM. Reported beside the results so a
/// repetition the box stalled can be told from one the program slowed.
fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat.lines().next().unwrap_or("").split_whitespace().nth(8);
    steal.and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) * 10.0
}

/// Peak resident set (`VmHWM`) in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
        / 1024.0
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Runs one repetition. `started` is when the caller began (process start
/// for a child), so `setup_s` covers everything before the first measured
/// op: graph + cluster launch + connects + the fixed warm-up.
///
/// # Errors
///
/// Launch, I/O, drain-timeout and trace-collection failures. Rejected ops
/// and oracle violations are *not* errors: they come back in the sample
/// (`failed`, `consistent`) so the caller can report them.
pub fn run_repetition(plan: &RepPlan, started: Instant) -> Result<Sample, String> {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let w = plan.workload;
    let mut spans = SpanLog::new(plan.trace_out.is_some(), 1 << 32);
    let rep_span = spans.reserve();
    let measure_span = spans.reserve();

    let data_dir = w.durable.then(|| {
        plan.scratch.join(format!(
            "data.{}.{}.{}",
            w.name,
            std::process::id(),
            RUN.fetch_add(1, Ordering::Relaxed)
        ))
    });
    let _cleanup = data_dir.clone().map(RemoveOnDrop);
    // ServiceConfig::default() (batch_max 64, flush_interval 200us,
    // reactor_threads 2) except the workload's own knobs. The flush
    // policy of the durable workload is fixed: fdatasync every 8 appends.
    let cfg = ServiceConfig {
        pad_bytes: w.value_bytes,
        data_dir,
        snapshot_every: 4096,
        fsync_every: if w.durable { 8 } else { 0 },
        sample_every: plan.sample_every,
        ..ServiceConfig::default()
    };
    let protocol = Arc::new(EdgeProtocol::new(w.graph()));
    let mut cluster = LoopbackCluster::launch_partitioned(protocol, w.map(), &cfg, 0)
        .map_err(|e| format!("launch: {e}"))?;
    let clients = (0..NODES)
        .map(|node| cluster.client(node))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let launched = Instant::now();
    spans.record(None, rep_span, "phase.launch", started, launched);

    // Drive: one thread per connection; the main thread owns the clock.
    let phase = AtomicU8::new(WARMING);
    let (window, lanes) = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plan.scripts)
            .enumerate()
            .map(|(node, (client, script))| {
                let (phase, spans) = (&phase, &spans);
                scope.spawn(move || {
                    drive(
                        node,
                        client,
                        script,
                        phase,
                        w.value_bytes,
                        spans,
                        measure_span,
                    )
                })
            })
            .collect();
        let timed = (|| {
            thread::sleep(Duration::from_millis(plan.warmup_ms));
            let before = Scrape::take(&cluster)?;
            let cpu0 = cpu_us();
            let steal0 = steal_ms();
            let t0 = Instant::now();
            phase.store(MEASURING, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(plan.window_ms));
            phase.store(STOPPED, Ordering::SeqCst);
            Ok::<_, String>((before, cpu0, steal0, t0, Instant::now(), cpu_us()))
        })();
        phase.store(STOPPED, Ordering::SeqCst);
        let lanes = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "driver thread panicked".to_string()))
            .collect::<Result<Vec<Lane>, String>>()?;
        timed.map(|window| (window, lanes))
    })?;
    let (before, cpu0, steal0, t0, t1, cpu1) = window;
    let steal1 = steal_ms();
    let after = Scrape::take(&cluster)?;
    let rss = rss_peak_mb();
    spans.record(None, rep_span, "phase.warmup", launched, t0);
    spans.record(Some(measure_span), rep_span, "phase.measure", t0, t1);

    let mut sample = Sample::new();
    let mut put = |name: &str, value: f64| {
        sample.insert(name.to_string(), value);
    };

    // Durable workload: crash node 1, restart it from its data dir, and
    // require it to serve a client op and the cluster to drain — the
    // complete trace, recovery included, is verified below.
    let recover_from = Instant::now();
    if w.durable {
        cluster.crash_node(1);
        cluster
            .restart_node(1)
            .map_err(|e| format!("restarting node 1: {e}"))?;
        let op = plan.scripts[1][0];
        cluster
            .client(1)
            .and_then(|mut c| c.read_in(op.partition, op.register))
            .map_err(|e| format!("node 1 did not serve after restart: {e}"))?;
    }
    let drain_from = Instant::now();
    if !cluster
        .drain(Duration::from_secs(30))
        .map_err(|e| format!("drain: {e}"))?
    {
        return Err("cluster failed to reach quiescence".into());
    }
    let drained = Instant::now();
    if w.durable {
        put("storage.recover_ms", ms(drained - recover_from));
        spans.record(None, rep_span, "phase.recover", recover_from, drained);
    }
    put("phase.drain_ms", ms(drained - drain_from));
    spans.record(None, rep_span, "phase.drain", drain_from, drained);

    let events: u64 = cluster
        .statuses()
        .map_err(|e| format!("status: {e}"))?
        .iter()
        .map(|s| s.trace_events + s.sealed_events)
        .sum();
    let verdicts = cluster
        .verify_partitions()
        .map_err(|e| format!("trace collection: {e}"))?;
    let verified = Instant::now();
    let consistent = verdicts
        .iter()
        .all(|verdict| verdict.as_ref().is_ok_and(|v| v.is_consistent()));
    let verify_s = (verified - drained).as_secs_f64();
    put("checker.verify_s", verify_s);
    put("checker.verify_events_s", ratio(events as f64, verify_s));
    put("phase.verify_ms", verify_s * 1000.0);
    spans.record(None, rep_span, "phase.verify", drained, verified);
    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    spans.record(None, rep_span, "phase.shutdown", verified, Instant::now());

    // Client-side numbers.
    let mut writes: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.write_ns.iter().copied())
        .collect();
    let mut reads: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.read_ns.iter().copied())
        .collect();
    let mut all: Vec<u64> = writes.iter().chain(&reads).copied().collect();
    writes.sort_unstable();
    reads.sort_unstable();
    all.sort_unstable();
    let ops = all.len() as f64;
    let attempted: u64 = lanes.iter().map(|l| l.attempted).sum();
    let failed: u64 = lanes.iter().map(|l| l.failed).sum();
    put("ops", ops);
    put("writes", writes.len() as f64);
    put("reads", reads.len() as f64);
    put("attempted", attempted as f64);
    put("failed", failed as f64);
    put("consistent", f64::from(u8::from(consistent)));
    put("throughput_ops_s", ratio(ops, (t1 - t0).as_secs_f64()));
    put("op_p50_us", percentile_us(&all, 0.50));
    put("client.op_p99_us", percentile_us(&all, 0.99));
    put("write_p50_us", percentile_us(&writes, 0.50));
    put("client.write_p99_us", percentile_us(&writes, 0.99));
    put("client.read_p50_us", percentile_us(&reads, 0.50));
    put("client.read_p99_us", percentile_us(&reads, 0.99));
    put("cpu_us_per_op", ratio(cpu1 - cpu0, ops));
    put("host.steal_ms", steal1 - steal0);
    put("rss_peak_mb", rss);
    put("setup_s", (t0 - started).as_secs_f64());
    put("phase.launch_ms", ms(launched - started));

    // Boundary counts: deltas of the public counters over the window.
    let status = |field: fn(&NodeStatus) -> u64| after.sum(field) - before.sum(field);
    let metric = |name: &str| after.metric(name) - before.metric(name);
    let stage_mean = |name: &str| {
        let ((s1, c1), (s0, c0)) = (after.hist(name), before.hist(name));
        ratio(s1 - s0, c1 - c0)
    };
    let sent = status(|s| s.messages_sent);
    put("visibility_mean_us", stage_mean("visibility_us"));
    put(
        "wire_bytes_per_update",
        ratio(status(|s| s.bytes_out), sent),
    );
    for (name, hist) in [
        ("node.send_mean_us", "send_us"),
        ("node.wire_mean_us", "wire_us"),
        ("node.pending_stall_mean_us", "pending_stall_us"),
        ("node.wal_append_mean_us", "wal_append_us"),
        ("node.wal_fsync_mean_us", "wal_fsync_us"),
        ("node.ack_mean_us", "ack_us"),
        ("node.seal_mean_us", "seal_us"),
    ] {
        put(name, stage_mean(hist));
    }
    // Bucketed (12.5% resolution) and since launch, warm-up included: the
    // histogram's buckets are not public, so no window delta exists.
    put(
        "node.visibility_p99_us",
        after
            .metrics
            .hist("visibility_us")
            .map_or(0.0, |h| h.percentile(0.99) as f64),
    );
    put(
        "node.updates_per_batch",
        ratio(sent, status(|s| s.batches_sent)),
    );
    put(
        "node.frames_per_flush",
        ratio(status(|s| s.frames_sent), status(|s| s.flushes)),
    );
    put("node.wal_writes_per_op", ratio(metric("wal_writes"), ops));
    let wakeups = status(|s| s.reactor_wakeups);
    put("node.reactor_wakeups_per_op", ratio(wakeups, ops));
    put(
        "node.reactor_events_per_wakeup",
        ratio(status(|s| s.reactor_events), wakeups),
    );
    let misses = metric("pool_misses");
    put(
        "node.pool_miss_pct",
        100.0 * ratio(misses, misses + metric("pool_hits")),
    );
    put(
        "node.resent_per_kop",
        1000.0 * ratio(status(|s| s.resent), ops),
    );
    put("node.duplicates_dropped", status(|s| s.duplicates_dropped));
    put("node.max_window", after.max(|s| s.max_window));
    put("node.outq_hiwat_bytes", after.max(|s| s.reactor_outq_hiwat));
    put("node.snapshots_written", status(|s| s.snapshots_written));
    put("node.snapshot_bytes", after.max(|s| s.snapshot_bytes));

    // Traced run: one op span per timed client call, written with the
    // phase spans and the parent's probe spans when the repetition ends.
    let op_spans: usize = lanes.iter().map(|l| l.spans.len()).sum();
    put("op_spans", op_spans as f64);
    if let Some(path) = &plan.trace_out {
        spans.record(Some(rep_span), 0, "rep", started, Instant::now());
        for span in plan.parent_spans.iter().cloned() {
            spans.push(span);
        }
        for lane in lanes {
            for span in lane.spans {
                spans.push(span);
            }
        }
        spans
            .write(path, w.name)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(sample)
}
