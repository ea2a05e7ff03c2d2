//! Layer probes: single-threaded timed loops over each layer's public
//! functions, with seeded inputs built from the workload's own share
//! graph and value size. One untimed batch, then the median of
//! [`BATCHES`] timed batches; every timed batch is also a harness span.
//!
//! The probes are the per-layer micro-benchmarks: they say what a layer
//! costs alone, so a change in an end-to-end metric can be pointed at a
//! layer (README lists which probe should move which end-to-end metric).

use crate::results::Summary;
use crate::spec::Workload;
use crate::trace::SpanLog;
use prcc_checker::UpdateId;
use prcc_clock::{EdgeClock, EdgeProtocol, Protocol, WireClock};
use prcc_core::{Replica, Update};
use prcc_graph::{PartitionId, RegisterId, ReplicaId, ShareGraph};
use prcc_net::VirtualTime;
use prcc_reactor::{BufPool, Ctx, Decoded, Driver, FrameDecoder, Lease, Reactor};
use prcc_service::wire::{
    decode_multi_batch, decode_request, decode_response, encode_multi_batch_into,
    encode_request_into, encode_response_into, ClientRequest, ClientResponse, FlushSections,
};
use prcc_storage::{encode_receipt_record, Wal};
use prcc_telemetry::Registry;
use prcc_workloads::ops::generate_ops;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Timed batches per probe; the reported value is their median.
pub const BATCHES: usize = 5;

type EdgeUpdate = Update<EdgeClock>;

/// Collects probe results and spans.
struct Bench<'a> {
    scale: f64,
    log: &'a mut SpanLog,
    root: u64,
    out: Vec<(String, Summary)>,
}

impl Bench<'_> {
    /// `full` iterations at scale 1, never fewer than `floor`.
    fn iters(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(floor)
    }

    /// Runs `batch` once untimed and [`BATCHES`] times timed; returns the
    /// nanoseconds per item of each timed batch.
    fn time(
        &mut self,
        name: &str,
        items: usize,
        mut batch: impl FnMut() -> Result<(), String>,
    ) -> Result<Vec<f64>, String> {
        batch()?;
        let mut per_item = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            batch()?;
            let end = Instant::now();
            per_item.push((end - start).as_nanos() as f64 / items.max(1) as f64);
            self.log
                .record(None, self.root, &format!("probe.{name}"), start, end);
        }
        Ok(per_item)
    }

    /// A cost metric: nanoseconds per item.
    fn time_ns(
        &mut self,
        name: &str,
        items: usize,
        batch: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        let per_item = self.time(name, items, batch)?;
        self.out.push((name.to_string(), Summary::of(&per_item)));
        Ok(())
    }

    /// A rate metric: `units_per_item` units per second.
    fn time_rate(
        &mut self,
        name: &str,
        items: usize,
        units_per_item: f64,
        batch: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        let rates: Vec<f64> = self
            .time(name, items, batch)?
            .into_iter()
            .map(|ns| units_per_item * 1e9 / ns.max(1e-9))
            .collect();
        self.out.push((name.to_string(), Summary::of(&rates)));
        Ok(())
    }

    /// A count or size that is computed, not timed.
    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), Summary::of(&[value])));
    }
}

/// One delivery observed during the sweep: the recipient's clock just
/// before it received `update`.
struct Delivery {
    at: ReplicaId,
    local: EdgeClock,
    update: EdgeUpdate,
}

/// The socket-free stand-in for the node's private core sweep: all
/// replicas of one share graph exchanging updates in one thread, every
/// update received and drained in issue order. Returns the applies and,
/// when asked, the last `sample` deliveries.
fn sweep(
    p: &EdgeProtocol,
    ops: &[(ReplicaId, RegisterId, u64)],
    recipients: &[Vec<Vec<ReplicaId>>],
    sample: usize,
) -> Result<(u64, Vec<Delivery>), String> {
    let g = p.share_graph();
    let mut replicas: Vec<Replica<EdgeProtocol>> =
        g.replicas().map(|i| Replica::new(p, i)).collect();
    let mut deliveries = Vec::with_capacity(sample);
    let mut applies = 0u64;
    for (n, &(i, x, v)) in ops.iter().enumerate() {
        let clock = replicas[i.index()]
            .write(p, x, v)
            .map_err(|e| format!("sweep write: {e}"))?;
        let update = Update {
            id: UpdateId(n as u64),
            issuer: i,
            register: x,
            value: v,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        for &k in &recipients[i.index()][x.index()] {
            let replica = &mut replicas[k.index()];
            if ops.len() - n <= sample {
                deliveries.push(Delivery {
                    at: k,
                    local: replica.clock().clone(),
                    update: update.clone(),
                });
            }
            replica.receive(update.clone(), VirtualTime(n as u64));
            applies += replica.drain(p).len() as u64;
        }
    }
    if replicas.iter().any(|r| r.pending_len() > 0) {
        return Err("sweep left updates pending".into());
    }
    Ok((applies, deliveries))
}

/// Receives and drains `stream` at a fresh replica 0, one update at a
/// time; every update must have been applied at the end.
fn apply_stream(
    p: &EdgeProtocol,
    stream: Vec<EdgeUpdate>,
) -> Result<Replica<EdgeProtocol>, String> {
    let mut replica = Replica::new(p, ReplicaId(0));
    let total = stream.len() as u64;
    for (n, update) in stream.into_iter().enumerate() {
        replica.receive(update, VirtualTime(n as u64));
        black_box(replica.drain(p));
    }
    if replica.applies() != total {
        return Err(format!(
            "apply probe: {} of {total} updates applied",
            replica.applies()
        ));
    }
    Ok(replica)
}

fn probe_clock_and_core(
    b: &mut Bench<'_>,
    g: &ShareGraph,
    seed: u64,
) -> Result<Vec<Delivery>, String> {
    let p = EdgeProtocol::new(g.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ops = generate_ops(g, b.iters(40_000, 512), None, &mut rng);
    let recipients: Vec<Vec<Vec<ReplicaId>>> = g
        .replicas()
        .map(|i| g.registers().map(|x| p.recipients(i, x)).collect())
        .collect();

    // core.sweep_applies_s: the single-core-thread ceiling.
    let (applies, _) = sweep(&p, &ops, &recipients, 0)?;
    b.time_rate(
        "core.sweep_applies_s",
        ops.len(),
        applies as f64 / ops.len() as f64,
        || sweep(&p, &ops, &recipients, 0).map(|_| ()),
    )?;
    // An untimed pass hands the clock and wire probes realistic inputs:
    // counters as large as a measure window makes them.
    let (_, deliveries) = sweep(&p, &ops, &recipients, 1024.min(ops.len()))?;

    // clock: the three timestamp operations of the replica prototype.
    let n = b.iters(1_000_000, 1000);
    let mut clocks: Vec<EdgeClock> = g.replicas().map(|i| p.new_clock(i)).collect();
    b.time_ns("clock.advance_ns", n, || {
        for &(i, x, _) in ops.iter().cycle().take(n) {
            p.advance(i, black_box(&mut clocks[i.index()]), x);
        }
        Ok(())
    })?;
    b.time_ns("clock.deliverable_ns", n, || {
        for d in deliveries.iter().cycle().take(n) {
            let u = &d.update;
            black_box(p.deliverable(d.at, black_box(&d.local), u.issuer, &u.clock, u.register));
        }
        Ok(())
    })?;
    let mut locals: Vec<EdgeClock> = deliveries.iter().map(|d| d.local.clone()).collect();
    b.time_ns("clock.merge_ns", n, || {
        for at in (0..deliveries.len()).cycle().take(n) {
            let d = &deliveries[at];
            p.merge(
                d.at,
                black_box(&mut locals[at]),
                d.update.issuer,
                &d.update.clock,
            );
        }
        Ok(())
    })?;
    let count = deliveries.len().max(1) as f64;
    let mean = |of: fn(&EdgeClock) -> usize| {
        deliveries
            .iter()
            .map(|d| of(&d.update.clock))
            .sum::<usize>() as f64
            / count
    };
    b.put("clock.entries_per_ts", mean(|c| c.counter_values().len()));
    b.put("clock.encoded_bytes_per_ts", mean(|c| c.wire_encoded_len()));
    // The paper's closed form divided by log2(m): 2n entries on a cycle of
    // n replicas, R under full replication (m = 2 makes log2(m) = 1).
    let replicas = g.num_replicas();
    b.put(
        "lowerbound.entries_per_ts",
        if g.is_full_replication() {
            prcc_lowerbound::closed_forms::clique_bits(replicas, 2)
        } else {
            prcc_lowerbound::closed_forms::cycle_bits(replicas, 2)
        },
    );

    // core: Replica::write, then receive+drain of one neighbour's stream.
    let me = ReplicaId(0);
    let own: Vec<RegisterId> = g.registers_of(me).iter().collect();
    let n = b.iters(500_000, 1000);
    let mut writer = Replica::new(&p, me);
    b.time_ns("core.write_ns", n, || {
        for (v, &x) in own.iter().cycle().take(n).enumerate() {
            black_box(writer.write(&p, x, v as u64).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    let peer = *g
        .neighbors(me)
        .first()
        .ok_or("replica 0 has no neighbour")?;
    let shared: Vec<RegisterId> = g.shared(me, peer).iter().collect();
    let n = b.iters(20_000, 256);
    let mut issuer = Replica::new(&p, peer);
    let stream = shared
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(v, &x)| {
            Ok(Update {
                id: UpdateId(v as u64),
                issuer: peer,
                register: x,
                value: v as u64,
                clock: issuer.write(&p, x, v as u64).map_err(|e| e.to_string())?,
                issued_at: VirtualTime::ZERO,
                received_at: VirtualTime::ZERO,
            })
        })
        .collect::<Result<Vec<EdgeUpdate>, String>>()?;
    // Batches consume their input, so each gets a copy made off the clock.
    let mut copies: Vec<Vec<EdgeUpdate>> = (0..=BATCHES).map(|_| stream.clone()).collect();
    b.time_ns("core.apply_ns", n, || {
        apply_stream(&p, copies.pop().ok_or("out of stream copies")?).map(|_| ())
    })?;
    // Windows of 64 reversed: every window parks 63 updates in the pending
    // buffer before the one that unblocks them arrives.
    let reordered: Vec<EdgeUpdate> = stream
        .chunks(64)
        .flat_map(|window| window.iter().rev().cloned())
        .collect();
    let mut copies: Vec<Vec<EdgeUpdate>> = (0..=BATCHES).map(|_| reordered.clone()).collect();
    b.time_ns("core.apply_reordered_ns", n, || {
        apply_stream(&p, copies.pop().ok_or("out of stream copies")?).map(|_| ())
    })?;
    let replica = apply_stream(&p, reordered)?;
    b.put(
        "core.buffered_applies_pct",
        100.0 * replica.buffered_applies() as f64 / replica.applies().max(1) as f64,
    );
    Ok(deliveries)
}

fn probe_wire(
    b: &mut Bench<'_>,
    g: &ShareGraph,
    pad: usize,
    deliveries: &[Delivery],
) -> Result<FlushSections<EdgeClock>, String> {
    let p = EdgeProtocol::new(g.clone());
    let updates = |count: usize| -> Vec<(u64, EdgeUpdate)> {
        deliveries
            .iter()
            .cycle()
            .take(count)
            .enumerate()
            .map(|(seq, d)| {
                let mut update = d.update.clone();
                // 1 in 16 updates carries the origin's wall-clock stamp,
                // as at the shipping `sample_every 16`.
                if seq % 16 == 15 {
                    update.issued_at = VirtualTime(prcc_telemetry::wall_us());
                }
                (seq as u64 + 1, update)
            })
            .collect()
    };
    let b1: FlushSections<EdgeClock> = vec![(PartitionId(0), updates(1))];
    let b64: FlushSections<EdgeClock> = updates(64)
        .chunks(8)
        .enumerate()
        .map(|(part, chunk)| (PartitionId(part as u32), chunk.to_vec()))
        .collect();
    for (tag, sections, count) in [("b1", &b1, 1usize), ("b64", &b64, 64)] {
        let mut payload = Vec::new();
        encode_multi_batch_into(sections, pad, &mut payload);
        // + the 4-byte frame length prefix.
        b.put(
            &format!("wire.bytes_per_update_{tag}"),
            (payload.len() + 4) as f64 / count as f64,
        );
        let frames = b.iters(200_000, 640) / count;
        let mut out = Vec::with_capacity(payload.len());
        b.time_ns(
            &format!("wire.encode_ns_per_update_{tag}"),
            frames * count,
            || {
                for _ in 0..frames {
                    out.clear();
                    encode_multi_batch_into(black_box(sections), pad, &mut out);
                    black_box(&out);
                }
                Ok(())
            },
        )?;
        let frames = b.iters(100_000, 640) / count;
        b.time_ns(
            &format!("wire.decode_ns_per_update_{tag}"),
            frames * count,
            || {
                for _ in 0..frames {
                    let decoded = decode_multi_batch(black_box(&payload), |k| Some(p.new_clock(k)))
                        .map_err(|e| format!("wire probe decode: {e}"))?;
                    black_box(decoded);
                }
                Ok(())
            },
        )?;
    }
    let clock_bytes: usize = b64
        .iter()
        .flat_map(|(_, updates)| updates)
        .map(|(_, u)| u.clock.wire_encoded_len())
        .sum();
    b.put("wire.clock_bytes_per_update", clock_bytes as f64 / 64.0);

    // The client request path's codec work: one write round and one read
    // round, each encode request → decode request → encode response →
    // decode response; reported per request.
    let write = ClientRequest::Write {
        partition: PartitionId(3),
        register: RegisterId(1),
        value: 123_456,
        pad,
    };
    let read = ClientRequest::Read {
        partition: PartitionId(3),
        register: RegisterId(1),
    };
    let rounds = [
        (write, ClientResponse::WriteAck { ok: true }),
        (
            read,
            ClientResponse::ReadResp {
                ok: true,
                value: Some(123_456),
            },
        ),
    ];
    let n = b.iters(200_000, 1000);
    let mut buf = Vec::new();
    b.time_ns("wire.request_codec_ns", n * rounds.len(), || {
        for _ in 0..n {
            for (request, response) in &rounds {
                buf.clear();
                encode_request_into(black_box(request), &mut buf);
                black_box(decode_request(&buf).map_err(|e| e.to_string())?);
                buf.clear();
                encode_response_into(black_box(response), &mut buf);
                black_box(decode_response(&buf).map_err(|e| e.to_string())?);
            }
        }
        Ok(())
    })?;
    Ok(b1)
}

fn probe_storage(
    b: &mut Bench<'_>,
    scratch: &Path,
    record: &FlushSections<EdgeClock>,
) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("storage probe {what}: {e}");
    std::fs::create_dir_all(scratch).map_err(|e| io("mkdir", e))?;
    let path = scratch.join("probe.wal");
    // The record a node logs for one received peer frame of one update.
    let payload = encode_receipt_record(1, 1, record);
    b.put("storage.bytes_per_record", (payload.len() + 8) as f64);
    let fresh = |fsync_every: u64| -> Result<Wal, String> {
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).map_err(|e| io("open", e))?;
        wal.set_fsync_every(fsync_every);
        Ok(wal)
    };
    let cases = [
        ("storage.append_ns_per_record_b1", 1usize, 0u64, 10_000usize),
        ("storage.append_ns_per_record_b16", 16, 0, 32_000),
        ("storage.append_ns_per_record_b256", 256, 0, 64_000),
        ("storage.append_fsync8_ns_per_record_b16", 16, 8, 8_000),
    ];
    for (name, batch, fsync_every, records) in cases {
        let appends = (b.iters(records, batch * 8) / batch).max(8);
        let refs: Vec<&[u8]> = vec![&payload; batch];
        b.time_ns(name, appends * batch, || {
            let mut wal = fresh(fsync_every)?;
            for _ in 0..appends {
                wal.append_batch(&refs).map_err(|e| io("append", e))?;
            }
            Ok(())
        })?;
    }
    // Recovery's first step: open, validate and copy out a 16 MiB log.
    let target = b.iters(16 << 20, 64 << 10);
    let refs: Vec<&[u8]> = vec![&payload; 256];
    let mut wal = fresh(0)?;
    while (wal.bytes() as usize) < target {
        wal.append_batch(&refs).map_err(|e| io("append", e))?;
    }
    let bytes = wal.bytes() as usize;
    drop(wal);
    b.time_rate("storage.open_scan_mb_s", bytes, 1e-6, || {
        let (_, recovery) = Wal::open(&path).map_err(|e| io("open", e))?;
        black_box(recovery.records.len());
        Ok(())
    })?;
    std::fs::remove_file(&path).map_err(|e| io("cleanup", e))
}

/// Echoes every inbound frame back on the same connection.
struct Echo;

impl Driver for Echo {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, body: Lease) -> std::io::Result<()> {
        let mut out = ctx.pool().lease(body.len() + 4);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        ctx.send(out);
        Ok(())
    }
}

fn probe_reactor(b: &mut Bench<'_>) -> Result<(), String> {
    const WINDOW: usize = 64;
    const BODY: usize = 16;
    let io = |what: &str, e: std::io::Error| format!("reactor probe {what}: {e}");
    let registry = Registry::new();
    let reactor = Reactor::new("probe", 1, 1 << 20, BufPool::new(&registry), &registry)
        .map_err(|e| io("start", e))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
    let addr = listener.local_addr().map_err(|e| io("addr", e))?;
    let handle = reactor.handle().clone();
    reactor.handle().listen(
        listener,
        Box::new(move |sock, _| {
            handle.register(Some(sock), Box::new(Echo));
        }),
    );
    let mut window = Vec::with_capacity(WINDOW * (BODY + 4));
    for _ in 0..WINDOW {
        window.extend_from_slice(&(BODY as u32).to_le_bytes());
        window.extend_from_slice(&[7u8; BODY]);
    }
    let echoed = (|| {
        let mut sock = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
        sock.set_nodelay(true).map_err(|e| io("nodelay", e))?;
        let windows = b.iters(300, 4);
        let mut back = vec![0u8; window.len()];
        let wakeups = registry.counter("reactor_wakeups");
        let woke_before = wakeups.get();
        // 64-frame pipelined windows from one std socket.
        b.time_rate("reactor.echo_frames_s", windows * WINDOW, 1.0, || {
            for _ in 0..windows {
                sock.write_all(&window).map_err(|e| io("write", e))?;
                sock.read_exact(&mut back).map_err(|e| io("read", e))?;
            }
            Ok(())
        })?;
        if back != window {
            return Err("reactor probe: echo differs from what was sent".to_string());
        }
        let frames = (windows * WINDOW * (BATCHES + 1)) as f64;
        b.put(
            "reactor.wakeups_per_frame",
            (wakeups.get() - woke_before) as f64 / frames,
        );
        Ok(())
    })();
    reactor.stop(true);
    reactor.join();
    echoed?;

    // FrameDecoder::next over an in-memory cursor: decode alone, no socket.
    let pool = BufPool::new(&registry);
    let stream: Vec<u8> = window
        .iter()
        .copied()
        .cycle()
        .take(window.len() * 64)
        .collect();
    let passes = b.iters(50, 1);
    let frames_per_pass = WINDOW * 64;
    b.time_rate(
        "reactor.decode_frames_s",
        passes * frames_per_pass,
        1.0,
        || {
            for _ in 0..passes {
                let mut cursor = Cursor::new(black_box(&stream));
                let mut decoder = FrameDecoder::new();
                let mut frames = 0;
                loop {
                    match decoder
                        .next(&mut cursor, &pool)
                        .map_err(|e| io("decode", e))?
                    {
                        Decoded::Frame(frame) => {
                            black_box(&frame);
                            frames += 1;
                        }
                        Decoded::Eof => break,
                        Decoded::Pending => return Err("cursor reported WouldBlock".into()),
                    }
                }
                if frames != frames_per_pass {
                    return Err(format!("decoded {frames} of {frames_per_pass} frames"));
                }
            }
            Ok(())
        },
    )
}

/// Runs every layer probe for `workload`. `scale` multiplies the
/// iteration counts (1.0 in a real run; the schema test uses 0.01).
/// Scratch files live under `scratch` and are removed before returning.
///
/// # Errors
///
/// A probe whose own check fails (an update not applied, an echo that
/// differs) or an I/O error, named by layer.
pub fn run_probes(
    workload: &Workload,
    seed: u64,
    scale: f64,
    scratch: &Path,
    log: &mut SpanLog,
) -> Result<Vec<(String, Summary)>, String> {
    let root = log.reserve();
    let start = Instant::now();
    let mut bench = Bench {
        scale,
        log,
        root,
        out: Vec::new(),
    };
    let g = workload.graph();
    let deliveries = probe_clock_and_core(&mut bench, &g, seed)?;
    let record = probe_wire(&mut bench, &g, workload.value_bytes, &deliveries)?;
    probe_storage(&mut bench, scratch, &record)?;
    probe_reactor(&mut bench)?;
    let out = bench.out;
    log.record(Some(root), 0, "probes", start, Instant::now());
    Ok(out)
}
