//! Spawning a node: configuration, the handle, and the sweep loop that
//! drives the sans-I/O `Core` against real sockets and a real disk.
//!
//! A node runs on a **fixed thread budget** — `reactor_threads` event-loop
//! workers carrying every socket (see `drivers.rs`) plus one core thread —
//! independent of how many connections are open. The core thread
//! serializes all state access through one channel: it feeds each message
//! to `Core::step`, and owns the only things the core itself may not touch
//! — the blocking receive, the WAL commit and sync (`durable.rs`), the
//! snapshot file write, the wall clock, the release of the sweep's
//! `Effect`s into the reactor, and the crash flight dump.

use crate::core::{Core, CoreMsg, CoreTelemetry, Effect, Env, Flow};
use crate::drivers::{ClientConn, Hub, NetMetrics, PeerCmd, PeerIn, PeerOut};
use crate::durable::{recover, take_snapshot, Durable};
use crate::wire::{
    append_frame, encode_hello_ack_into, encode_peer_ack_into, encode_response_into, ClientResponse,
};
use prcc_clock::{Protocol, WireClock};
use prcc_graph::PartitionMap;
use prcc_reactor::{BufPool, ConnId, Reactor, ReactorHandle};
use prcc_telemetry::{wall_us, Registry};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Maximum messages one core sweep drains before committing the staged
/// WAL batch and releasing the sweep's replies. Bounds both the latency
/// any one reply can be held back and the staged-batch memory of a
/// flooded node; an idle node commits after every single message.
const SWEEP_MAX: usize = 256;

/// Tuning knobs of a node deployment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum updates one peer flush frame carries. A link ships
    /// everything a reactor tick delivered when the tick ends — there is no
    /// batching timer — and a burst bigger than this leaves as several
    /// frames of at most `batch_max` updates each.
    pub batch_max: usize,
    /// Extra bytes shipped with each update (simulated value size).
    pub pad_bytes: usize,
    /// How long senders keep retrying a peer dial before giving up.
    pub connect_timeout: Duration,
    /// Directory for write-ahead logs and snapshots (`None` = in-memory
    /// node, the pre-durability behavior). Each node uses
    /// `<data_dir>/node-<i>/`.
    pub data_dir: Option<PathBuf>,
    /// WAL records between snapshots (snapshots truncate the log);
    /// 0 = never snapshot. Ignored without a data dir.
    pub snapshot_every: u64,
    /// Received *updates* between streamed acknowledgements per link: a
    /// link is acknowledged after the frame that brings its updates
    /// received since the last acknowledgement to this many (1 = every
    /// frame). Counted in updates, not frames, so ack traffic — and the WAL
    /// sync each ack forces on a durable node — follows the data rate, not
    /// the sender's framing. 0 = acknowledge only at the handshake (useful
    /// for deterministic snapshot tests — windows then never shrink
    /// mid-run).
    pub ack_every: u64,
    /// Group commit: `fdatasync` the WAL every N appends (and sync
    /// snapshots before rename), for power-loss durability; 0 = never
    /// sync (a process crash still loses nothing). Ignored without a
    /// data dir.
    pub fsync_every: u64,
    /// Live trace events per partition above which the core seals the
    /// fully-acknowledged log prefix into its checkpoint summary and
    /// discards it; 0 = compact only when a snapshot is written. Keeps
    /// in-memory trace logs (and therefore snapshots) O(live state).
    pub trace_compact_at: usize,
    /// Hard cap on a per-peer resend window: a peer stranded past this
    /// many unacknowledged updates has its oldest entries evicted (counted
    /// in `NodeStatus::window_evicted`) instead of growing without bound.
    /// Eviction gives up on delivering those updates to that peer — its
    /// receive watermark will hold a permanent gap, so the link cannot
    /// heal by resend; restoring the peer takes a full state transfer
    /// (today: operator-driven, from a surviving holder's data) — a
    /// bounded node cannot replay unbounded absence.
    pub window_cap: usize,
    /// Update-lifecycle tracing period: 1 in `sample_every` issued updates
    /// carries a wall-clock issue stamp across the wire, feeding the
    /// per-stage latency histograms at every node it touches. 0 disables
    /// tracing entirely, 1 stamps every update. The unsampled hot path
    /// pays no clock reads.
    pub sample_every: u64,
    /// Flight-recorder capacity: how many recent core events the in-memory
    /// ring retains for the crash dump. 0 disables the recorder.
    pub flight_events: usize,
    /// Event-loop worker threads driving every socket of this node (peer
    /// links, inbound peers, clients). The node's total thread count is
    /// `reactor_threads + 1` (the core), independent of connection count.
    pub reactor_threads: usize,
    /// Per-connection outbound queue bound in bytes — the backpressure
    /// contract: a connection whose unflushed output exceeds this is torn
    /// down loudly instead of buffering without bound. Must comfortably
    /// hold a full resend window (`window_cap` updates) for peer links.
    pub outbound_queue_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_max: 64,
            pad_bytes: 0,
            connect_timeout: Duration::from_secs(10),
            data_dir: None,
            snapshot_every: 4096,
            ack_every: 32,
            fsync_every: 0,
            trace_compact_at: 1024,
            window_cap: 1 << 16,
            sample_every: 16,
            flight_events: 1024,
            reactor_threads: 2,
            outbound_queue_bytes: 16 << 20,
        }
    }
}

/// Everything a node needs to come up: its identity, pre-bound listeners
/// (binding first solves the ephemeral-port bootstrap), and the peer map.
#[derive(Debug)]
pub struct NodeSeed {
    /// This node's index in the partition map.
    pub node: usize,
    /// Listener for incoming peer update connections.
    pub peer_listener: TcpListener,
    /// Listener for the client API.
    pub client_listener: TcpListener,
    /// Peer update-listener addresses, indexed by node.
    pub peer_addrs: Vec<SocketAddr>,
}

/// Handle to a spawned node.
pub struct NodeHandle {
    /// The node's index in the partition map.
    pub node: usize,
    /// Address of the peer update listener.
    pub peer_addr: SocketAddr,
    /// Address of the client API listener.
    pub client_addr: SocketAddr,
    core: Option<thread::JoinHandle<()>>,
    kill: Arc<dyn Fn() + Send + Sync>,
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle")
            .field("node", &self.node)
            .field("peer_addr", &self.peer_addr)
            .field("client_addr", &self.client_addr)
            .finish()
    }
}

impl NodeHandle {
    /// Blocks until the node's core thread exits (a client sent
    /// [`crate::wire::ClientRequest::Shutdown`], or the node was crashed).
    pub fn join(&mut self) {
        if let Some(handle) = self.core.take() {
            let _ = handle.join();
        }
    }

    /// Kills the node *without* graceful shutdown — fault injection for
    /// the recovery and chaos suites and `prcc-perf`. The core stops
    /// mid-stream (no final snapshot, no drain), every peer connection is
    /// severed, and in-flight client requests see their connections drop.
    /// A node with a data dir can then be respawned on the same directory
    /// and recover from its snapshot + WAL.
    pub fn crash(&mut self) {
        (self.kill)();
        self.join();
    }
}

/// Spawns a node: `cfg.reactor_threads` event-loop workers carrying every
/// socket, plus one core thread. With `cfg.data_dir` set, the node first
/// recovers its state from `<data_dir>/node-<i>/` (snapshot + WAL replay)
/// and appends every subsequent state-mutating input before applying it.
///
/// `protocol` must be configured for the partition map's per-partition
/// share graph; each hosted partition gets an independent replica over
/// the shared protocol object (clocks are per-replica state, so partitions
/// do not share counters).
///
/// # Errors
///
/// Fails on listener introspection, a protocol/map share-graph mismatch,
/// reactor setup (epoll/eventfd), or an unrecoverable data dir (I/O
/// failure, corrupted snapshot, or a checksum-corrupted WAL record — a
/// torn WAL tail recovers silently); network errors after spawn are
/// handled per-connection (logged to stderr, connection dropped).
pub fn spawn_node<P>(
    protocol: Arc<P>,
    map: PartitionMap,
    seed: NodeSeed,
    cfg: ServiceConfig,
) -> io::Result<NodeHandle>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    let NodeSeed {
        node,
        peer_listener,
        client_listener,
        peer_addrs,
    } = seed;
    if protocol.share_graph() != map.graph() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "protocol share graph differs from the partition map's",
        ));
    }
    let map = Arc::new(map);
    let peer_addr = peer_listener.local_addr()?;
    let client_addr = client_listener.local_addr()?;
    let n = map.num_nodes();
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(Registry::new());
    let counters = Arc::new(NetMetrics::new(&registry));
    let tel = CoreTelemetry::new(Arc::clone(&registry), &cfg);
    // One buffer pool per node, shared by the reactor workers and the core
    // (and seeded by recovery's WAL image lease).
    let pool = BufPool::new(&registry);

    // Recover durable state before any I/O starts: peer links must see the
    // rebuilt windows on their first handshake.
    let (core, durable) = match &cfg.data_dir {
        Some(dir) => {
            let (core, durable) = recover(&*protocol, &map, node, dir, &cfg, tel, &pool)?;
            (core, Some(durable))
        }
        None => (Core::new(&*protocol, &map, node, cfg.window_cap, tel), None),
    };

    let (core_tx, core_rx) = mpsc::channel::<CoreMsg<P::Clock>>();
    let hub = Hub {
        core_tx: core_tx.clone(),
        counters: Arc::clone(&counters),
        stop: Arc::clone(&stop),
    };

    // The reactor owns every socket. Registered connections (outbound peer
    // links) survive disconnects for redialing; accepted ones (inbound
    // peers, clients) are removed when they die.
    let reactor = Reactor::new(
        &format!("prcc-{node}"),
        cfg.reactor_threads,
        cfg.outbound_queue_bytes,
        pool.clone(),
        &registry,
    )?;
    let rh = reactor.handle().clone();

    // Outbound peer links: one socketless registration per remote peer.
    // Each driver dials from `on_start` and keeps its registration across
    // reconnects, so its `ConnId` is a stable address for the core's
    // commands for the node's whole lifetime.
    let peer_conns: Vec<Option<ConnId>> = (0..n)
        .map(|k| {
            (k != node).then(|| {
                let driver = PeerOut::new(node, k, peer_addrs[k], &map, &cfg, hub.clone());
                rh.register(None, Box::new(driver))
            })
        })
        .collect();

    // Peer listener: each accepted connection gets a reader driver that
    // waits for the versioned handshake before it is bound to a link.
    {
        let rh2 = rh.clone();
        let protocol = Arc::clone(&protocol);
        let map = Arc::clone(&map);
        let hub = hub.clone();
        rh.listen(
            peer_listener,
            Box::new(move |sock: TcpStream, _from: SocketAddr| {
                rh2.register(
                    Some(sock),
                    Box::new(PeerIn {
                        node,
                        protocol: Arc::clone(&protocol),
                        map: Arc::clone(&map),
                        hub: hub.clone(),
                        peer: None,
                    }),
                );
            }),
        );
    }

    // Client listener: one lightweight driver per connection — no thread,
    // no stack, just the decode state machine and the shared core channel.
    {
        let rh2 = rh.clone();
        let map = Arc::clone(&map);
        rh.listen(
            client_listener,
            Box::new(move |sock: TcpStream, _from: SocketAddr| {
                rh2.register(
                    Some(sock),
                    Box::new(ClientConn {
                        map: Arc::clone(&map),
                        hub: hub.clone(),
                    }),
                );
            }),
        );
    }

    // The crash switch: stop everything without a graceful drain. Set
    // before the reactor stop so drivers racing the teardown observe it.
    let crashed = Arc::new(AtomicBool::new(false));
    let kill: Arc<dyn Fn() + Send + Sync> = {
        let crashed = Arc::clone(&crashed);
        let rh = rh.clone();
        Arc::new(move || {
            crashed.store(true, Ordering::SeqCst);
            stop.store(true, Ordering::SeqCst);
            let _ = core_tx.send(CoreMsg::Crash);
            // Sever every connection and both listeners, dropping queued
            // output on the floor — in-flight client requests see their
            // connections die, exactly like a process crash.
            rh.stop(false);
        })
    };

    let io = CoreIo {
        handle: rh,
        peer_conns,
        pool,
        counters,
    };

    // The sweep loop runs on the one thread the node owns outright. It
    // holds the crash switch so a fail-stop (WAL append failure) tears
    // the whole node down — reactor, listeners, connections — instead of
    // leaving a half-alive shell whose bound ports would mask the outage.
    let core_kill = Arc::clone(&kill);
    let core_thread = thread::Builder::new()
        .name(format!("prcc-core-{node}"))
        .spawn(move || {
            let env = Env::new(&*protocol, &map, &cfg);
            let mut core = core;
            let mut durable = durable;
            if let Some(reason) = sweep_loop(&env, &core_rx, &io, &mut core, &mut durable) {
                halt(reason, &mut core, &durable, &core_kill);
            }
            // Graceful exits drain queued output (the shutdown Bye,
            // trailing acks) within the reactor's drain deadline; a crash
            // already severed everything, and this second stop is a no-op.
            reactor.stop(!crashed.load(Ordering::SeqCst));
            reactor.join();
        })?;

    Ok(NodeHandle {
        node,
        peer_addr,
        client_addr,
        core: Some(core_thread),
        kill,
    })
}

/// The core thread's grip on the reactor: the handle commands travel out
/// through, the per-peer outbound link registrations, and the shared pool
/// and socket counters for encoding replies in place.
struct CoreIo {
    handle: ReactorHandle,
    /// Outbound link `ConnId` per node index (`None` for self). Stable
    /// for the node's lifetime — links redial under the same id.
    peer_conns: Vec<Option<ConnId>>,
    pool: BufPool,
    counters: Arc<NetMetrics>,
}

impl CoreIo {
    /// Frames `body` in place into a pooled buffer and pushes it onto
    /// `conn`'s outbound queue, returning the bytes queued. An encode
    /// failure (frame over the wire cap) drops the connection — the peer
    /// sees a reset, never a torn frame.
    fn send_frame(&self, conn: ConnId, hint: usize, body: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let mut frame = self.pool.lease(hint);
        if append_frame(&mut frame, body).is_err() {
            self.handle.close(conn);
            return 0;
        }
        let bytes = frame.len() as u64;
        self.handle.send(conn, frame);
        bytes
    }

    fn respond(&self, conn: ConnId, response: &ClientResponse) {
        self.send_frame(conn, 256, |out| encode_response_into(response, out));
    }

    /// Delivers one command to a peer link's outbound driver.
    fn command<C: WireClock>(&self, peer: usize, cmd: PeerCmd<C>) {
        if let Some(conn) = self.peer_conns[peer] {
            // lint: allow(alloc) one boxed command per cross-thread hop
            self.handle.command(conn, Box::new(cmd));
        }
    }
}

/// The one fail-stop epilogue: close the flight record on `reason`, pull
/// the crash switch (a failed write may have left partial bytes in the
/// log, and any further append would bury that tear mid-file — so the
/// whole node goes down, unreplied and unacked, and peers retransmit after
/// the restart), and leave the black box next to the WAL.
fn halt<P: Protocol>(
    reason: &'static str,
    core: &mut Core<P>,
    durable: &Option<Durable>,
    kill: &Arc<dyn Fn() + Send + Sync>,
) {
    core.tel.flight.record(wall_us, reason, &[]);
    kill();
    if let Some(d) = durable {
        if let Err(e) = core.tel.flight.dump_to(&d.flight_path()) {
            eprintln!("prcc-service[{}]: flight dump failed: {e}", core.node);
        }
    }
}

/// The node's event loop, organized as *sweeps*: one blocking receive
/// opens a sweep, an opportunistic drain extends it (up to [`SWEEP_MAX`]
/// messages, each fed to [`Core::step`]), and every WAL record the sweep's
/// messages staged is committed as one group-committed batch at sweep end
/// — one buffer, one `write`, one fsync tick — before any of the sweep's
/// effects (replies, acks, peer sends) are released. Under load this
/// collapses ~1.55 WAL writes per operation into a fraction of a write per
/// operation without weakening durability: an effect escapes only after
/// its record is on disk, exactly as in a one-write-per-record regime.
///
/// Returns the flight-recorder reason when the node must fail-stop (or
/// was crash-injected) — every effect of the open sweep is then dropped,
/// so clients see a dead node — and `None` after a graceful shutdown.
fn sweep_loop<P>(
    env: &Env<'_, P>,
    core_rx: &mpsc::Receiver<CoreMsg<P::Clock>>,
    io: &CoreIo,
    core: &mut Core<P>,
    durable: &mut Option<Durable>,
) -> Option<&'static str>
where
    P: Protocol,
    P::Clock: WireClock,
{
    let node = core.node;
    // Sweep-lived scratch, reused across sweeps.
    let mut out: Vec<Effect<P::Clock>> = Vec::new();
    // lint: hot-path
    while let Ok(first) = core_rx.recv() {
        let mut swept = 0usize;
        let mut shutdown = false;
        let mut pending = Some(first);
        while let Some(msg) = pending.take() {
            swept += 1;
            let stage = durable.as_mut().map(|d| &mut d.stage);
            match core.step(env, msg, &wall_us, stage, &mut out) {
                Ok(Flow::Continue) => {}
                Ok(Flow::SnapshotDue) => {
                    // lint: allow(unwrap) only a staged record makes a snapshot due
                    let d = durable.as_mut().expect("snapshot due implies a data dir");
                    if let Err(e) = take_snapshot(core, d) {
                        eprintln!(
                            "prcc-service[{node}]: WAL append failed, stopping (restart \
                             recovers the log): {e}"
                        );
                        return Some("fail_stop_checkpoint");
                    }
                }
                Ok(Flow::Shutdown) => shutdown = true,
                Ok(Flow::Halt(reason)) => return Some(reason),
                Err(e) => {
                    eprintln!("prcc-service[{node}]: core refused its own record, stopping: {e}");
                    return Some("fail_stop_apply");
                }
            }
            if !shutdown && swept < SWEEP_MAX {
                pending = core_rx.try_recv().ok();
            }
        }

        // Sweep end: one group-committed WAL write covers every record the
        // sweep staged; only then do the sweep's effects leave the node.
        if let Some(d) = durable.as_mut() {
            if let Err(e) = d.commit() {
                eprintln!(
                    "prcc-service[{node}]: WAL append failed, stopping (restart \
                     recovers the log): {e}"
                );
                return Some("fail_stop_wal_append");
            }
            if !d.stage.stamps.is_empty() {
                let now = wall_us();
                for t0 in d.stage.stamps.drain(..) {
                    core.tel.wal_append_us.record(now.saturating_sub(t0));
                }
            }
            // An acknowledgement makes the peer prune its resend window,
            // so with group commit the sweep syncs before releasing one.
            let acks = out
                .iter()
                .any(|e| matches!(e, Effect::Ack(..) | Effect::JoinReply(..)));
            if acks {
                if let Err(e) = d.sync_before_ack() {
                    eprintln!("prcc-service[{node}]: WAL sync before ack failed, stopping: {e}");
                    return Some("fail_stop_sync");
                }
            }
        }
        for effect in out.drain(..) {
            release(io, core, durable, effect);
        }
        if shutdown {
            // A final snapshot makes restart-after-shutdown instant and
            // keeps the WAL short; failure is non-fatal (the WAL alone
            // still recovers everything, and the node is stopping anyway —
            // no later append can bury a torn tail).
            if let Some(d) = durable.as_mut() {
                if let Err(e) = take_snapshot(core, d).and_then(|()| d.commit()) {
                    eprintln!("prcc-service[{node}]: final WAL append failed: {e}");
                }
            }
            break;
        }
    }
    None
}

/// Releases one effect of a committed sweep into the reactor.
fn release<P>(io: &CoreIo, core: &Core<P>, durable: &Option<Durable>, effect: Effect<P::Clock>)
where
    P: Protocol,
    P::Clock: WireClock,
{
    match effect {
        Effect::WriteReply(conn, ok) => io.respond(conn, &ClientResponse::WriteAck { ok }),
        Effect::ReadReply(conn, ok, value) => {
            io.respond(conn, &ClientResponse::ReadResp { ok, value });
        }
        Effect::Send(peer, entry) => io.command(peer, PeerCmd::Update(entry)),
        Effect::Ack(conn, acked) => {
            let bytes = io.send_frame(conn, 64, |out| encode_peer_ack_into(acked, out));
            io.counters.bytes_out.add(bytes);
        }
        Effect::JoinReply(conn, acked) => {
            let bytes = io.send_frame(conn, 64, |out| encode_hello_ack_into(acked, out));
            io.counters.bytes_out.add(bytes);
        }
        Effect::ResumeReply(conn, window) => {
            // lint: allow(alloc) one boxed command per reconnect
            io.handle.command(conn, Box::new(PeerCmd::Resume(window)));
        }
        Effect::Status(conn, mut status) => {
            // Fold in what only the driver can see: the durability
            // sidecar, the shared socket counters, and the reactor's own
            // telemetry.
            if let Some(d) = durable {
                d.fill_status(&mut status);
            }
            status.bytes_out = io.counters.bytes_out.get();
            status.bytes_in = io.counters.bytes_in.get();
            status.batches_sent = io.counters.batches_sent.get();
            status.frames_sent = io.counters.frames_sent.get();
            status.flushes = io.counters.flushes.get();
            status.resent = io.counters.resent.get();
            let rm = io.handle.metrics();
            status.reactor_wakeups = rm.wakeups.get();
            status.reactor_events = rm.events.get();
            status.reactor_rearms = rm.rearms.get();
            status.reactor_outq_hiwat = rm.outq_hiwat.get();
            io.respond(conn, &ClientResponse::Status(*status));
        }
        Effect::Trace(conn, traces) => io.respond(conn, &ClientResponse::Trace(traces)),
        Effect::Metrics(conn) => {
            // Gauges mirror authoritative state at scrape time; counters
            // and histograms are already live in the registry the reactor
            // workers share.
            if let Some(d) = durable {
                d.mirror_gauges(&core.tel.registry);
            }
            io.respond(conn, &ClientResponse::Metrics(core.tel.registry.snapshot()));
        }
        Effect::CutReply(conn, snap) => io.respond(conn, &ClientResponse::Cut(snap)),
        Effect::Marker(token) => {
            for peer in 0..io.peer_conns.len() {
                io.command(peer, PeerCmd::<P::Clock>::Marker(token));
            }
        }
        Effect::Close(conn) => io.handle.close(conn),
    }
}
// lint: end-hot-path
