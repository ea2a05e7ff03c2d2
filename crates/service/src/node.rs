//! Spawning a node: configuration, the handle, and the loop state that
//! drives the sans-I/O `Core` against real sockets and a real disk.
//!
//! A node is **one thread**: a [`prcc_reactor`] event loop that owns the
//! `Core`, every socket — both listeners, the `OutConn`/`InConn` of each
//! peer link, every client connection — and the durability sidecar,
//! independent of how many connections are open. The drivers
//! (`drivers.rs`) feed each decoded message to `Core::step` as it
//! arrives; at the end of each reactor tick the loop state commits the
//! tick's staged WAL batch and syncs it where an acknowledgement needs
//! that (`durable.rs`), and only then releases the tick's effects —
//! replies, acknowledgements, and updates straight into their link's
//! `OutConn`. The loop state also owns what the core itself may not
//! touch: the snapshot file write, the wall clock, and the crash flight
//! dump.

use crate::conn::{InConn, OutConn};
use crate::core::{Core, CoreMsg, CoreTelemetry, Effect, Env, Flow};
use crate::drivers::{ClientConn, NetMetrics, Peer, PeerCmd};
use crate::durable::{recover, take_snapshot, Durable};
use crate::wire::{
    append_frame, encode_hello_ack_into, encode_peer_ack_into, encode_response_into, ClientResponse,
};
use prcc_clock::{Protocol, WireClock};
use prcc_graph::PartitionMap;
use prcc_reactor::{BufPool, ConnId, Loop, Reactor, ReactorHandle, Tick};
use prcc_telemetry::{wall_us, Registry};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Hard cap on a per-peer resend window: a peer stranded past this many
/// unacknowledged updates has its oldest entries evicted (counted in
/// `NodeStatus::window_evicted`) instead of growing without bound.
/// Eviction gives up on delivering those updates to that peer — its
/// receive watermark will hold a permanent gap, so the link cannot heal by
/// resend; restoring the peer takes a full state transfer (today:
/// operator-driven, from a surviving holder's data) — a bounded node
/// cannot replay unbounded absence.
pub(crate) const WINDOW_CAP: usize = 1 << 16;

/// Flight-recorder capacity: how many recent core events the in-memory
/// ring retains for the crash dump.
pub(crate) const FLIGHT_EVENTS: usize = 1024;

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
    /// The node's live trace-event budget: once the events held live
    /// across all of its partitions reach it, the core seals every
    /// fully-acknowledged log prefix into its partition's checkpoint
    /// summary (one `Checkpoint` WAL record for all of them) and discards
    /// them; 0 = compact only when a snapshot is written. Keeps in-memory
    /// trace logs (and therefore snapshots) O(live state), whatever the
    /// partition count.
    pub trace_compact_at: usize,
    /// Update-lifecycle tracing period: 1 in `sample_every` issued updates
    /// carries a wall-clock issue stamp across the wire, feeding the
    /// per-stage latency histograms at every node it touches. 0 disables
    /// tracing entirely, 1 stamps every update. The unsampled hot path
    /// pays no clock reads.
    pub sample_every: u64,
    /// Per-connection outbound queue bound in bytes — the backpressure
    /// contract: a connection whose unflushed output exceeds this is torn
    /// down loudly instead of buffering without bound. Must comfortably
    /// hold a full resend window (`WINDOW_CAP` updates) for peer links.
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
            sample_every: 16,
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
    join: Option<Box<dyn FnOnce() + Send>>,
    kill: Box<dyn Fn() + Send + Sync>,
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
    /// Blocks until the node's event loop exits (a client sent
    /// [`crate::wire::ClientRequest::Shutdown`], the node fail-stopped, or
    /// it was crashed).
    pub fn join(&mut self) {
        if let Some(join) = self.join.take() {
            join();
        }
    }

    /// Kills the node *without* graceful shutdown — fault injection for
    /// the recovery and chaos suites and `prcc-perf`. The loop stops
    /// mid-stream (no final snapshot, no drain, nothing of the open tick
    /// committed or released), every peer connection is severed, and
    /// in-flight client requests see their connections drop. A node with
    /// a data dir can then be respawned on the same directory and recover
    /// from its snapshot + WAL.
    pub fn crash(&mut self) {
        (self.kill)();
        self.join();
    }
}

/// Spawns a node: one event-loop thread carrying every socket and the
/// core. With `cfg.data_dir` set, the node first recovers its state from
/// `<data_dir>/node-<i>/` (snapshot + WAL replay) and appends every
/// subsequent state-mutating input before releasing its effects.
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
    let registry = Arc::new(Registry::new());
    let counters = Arc::new(NetMetrics::new(&registry));
    let tel = CoreTelemetry::new(Arc::clone(&registry), &cfg);
    // One buffer pool per node, shared by every connection and the core
    // (and seeded by recovery's WAL image lease).
    let pool = BufPool::new(&registry);

    // Recover durable state before any I/O starts: peer links must see the
    // rebuilt windows on their first handshake.
    let (core, durable) = match &cfg.data_dir {
        Some(dir) => {
            let (core, durable) = recover(&*protocol, &map, node, dir, &cfg, tel, &pool)?;
            (core, Some(durable))
        }
        None => (Core::new(&*protocol, &map, node, WINDOW_CAP, tel), None),
    };

    let outq_bound = cfg.outbound_queue_bytes;
    let reactor = Reactor::spawn(&format!("prcc-{node}"), outq_bound, pool, &registry, |rh| {
        // Outbound peer links: one socketless registration per remote
        // peer. Each dials from `on_start` and keeps its registration
        // across reconnects, so its `ConnId` addresses the link's updates
        // for the node's whole lifetime.
        let peer_conns = (0..map.num_nodes())
            .map(|k| {
                (k != node).then(|| {
                    let counters = Arc::clone(&counters);
                    let conn = OutConn::new(node, k, peer_addrs[k], &map, &cfg, counters);
                    rh.register(None, Box::new(Peer { conn }))
                })
            })
            .collect();
        let (p, m, c) = (
            Arc::clone(&protocol),
            Arc::clone(&map),
            Arc::clone(&counters),
        );
        listen(rh, peer_listener, move || {
            let conn = InConn::new(node, Arc::clone(&p), Arc::clone(&m), Arc::clone(&c));
            Box::new(Peer { conn })
        });
        listen(rh, client_listener, || Box::new(ClientConn));
        NodeLoop::new(protocol, map, cfg, core, durable, counters, peer_conns)
    })?;

    let handle = reactor.handle().clone();
    Ok(NodeHandle {
        node,
        peer_addr,
        client_addr,
        join: Some(Box::new(move || reactor.join())),
        // Sever every connection and both listeners, dropping queued
        // output on the floor — in-flight client requests see their
        // connections die, exactly like a process crash.
        kill: Box::new(move || handle.stop(false)),
    })
}

/// Accepts on `listener`, registering one driver from `driver` per
/// connection.
fn listen<P>(
    rh: &ReactorHandle<NodeLoop<P>>,
    listener: TcpListener,
    driver: impl Fn() -> Box<dyn prcc_reactor::Driver<NodeLoop<P>>> + Send + 'static,
) where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    let rh2 = rh.clone();
    rh.listen(
        listener,
        Box::new(move |sock: TcpStream, _from: SocketAddr| {
            rh2.register(Some(sock), driver());
        }),
    );
}

/// How a node's life ends, once a message decided it.
#[derive(Clone, Copy)]
enum End {
    /// Commit and release the last tick, write the final snapshot, drain.
    Shutdown,
    /// Fail-stop: nothing of the open tick commits or escapes. Carries the
    /// flight-recorder event to close on.
    Halt(&'static str),
}

/// The state of a node's event loop: the core, the durability sidecar,
/// and the effects the tick's messages produced, awaiting the commit that
/// releases them.
pub(crate) struct NodeLoop<P: Protocol> {
    protocol: Arc<P>,
    pub(crate) map: Arc<PartitionMap>,
    cfg: ServiceConfig,
    core: Core<P>,
    durable: Option<Durable>,
    /// The tick's effects, in the order the core produced them (reused).
    out: Vec<Effect<P::Clock>>,
    /// Outbound link `ConnId` per node index (`None` for self). Stable for
    /// the node's lifetime — links redial under the same id.
    peer_conns: Vec<Option<ConnId>>,
    counters: Arc<NetMetrics>,
    /// Set by the message that ends the node; later messages of its tick
    /// are dropped.
    end: Option<End>,
}

impl<P> NodeLoop<P>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    pub(crate) fn new(
        protocol: Arc<P>,
        map: Arc<PartitionMap>,
        cfg: ServiceConfig,
        core: Core<P>,
        durable: Option<Durable>,
        counters: Arc<NetMetrics>,
        peer_conns: Vec<Option<ConnId>>,
    ) -> Self {
        NodeLoop {
            protocol,
            map,
            cfg,
            core,
            durable,
            out: Vec::new(),
            peer_conns,
            counters,
            end: None,
        }
    }

    // lint: hot-path
    /// Feeds one message to [`Core::step`]. Its WAL records join the
    /// tick's stage and its effects the tick's list; a due snapshot is
    /// taken at once, so it is a pure function of the record sequence
    /// rather than of where the tick ends.
    pub(crate) fn step(&mut self, msg: CoreMsg<P::Clock>) {
        if self.end.is_some() {
            return;
        }
        let node = self.core.node;
        let env = Env::new(&*self.protocol, &self.map, &self.cfg);
        let stage = self.durable.as_mut().map(|d| &mut d.stage);
        let end = match self.core.step(&env, msg, &wall_us, stage, &mut self.out) {
            Ok(Flow::Continue) => return,
            Ok(Flow::SnapshotDue) => {
                // Only a staged record makes a snapshot due: a durable node.
                let Some(d) = self.durable.as_mut() else {
                    return;
                };
                match take_snapshot(&mut self.core, d) {
                    Ok(()) => return,
                    Err(e) => {
                        eprintln!(
                            "prcc-service[{node}]: WAL append failed, stopping (restart \
                             recovers the log): {e}"
                        );
                        End::Halt("fail_stop_checkpoint")
                    }
                }
            }
            Ok(Flow::Shutdown) => End::Shutdown,
            Err(e) => {
                eprintln!("prcc-service[{node}]: core refused its own record, stopping: {e}");
                End::Halt("fail_stop_apply")
            }
        };
        self.end = Some(end);
    }

    /// The tick's group commit: one WAL write covers every record the
    /// tick staged, synced first when an acknowledgement is about to
    /// leave (a peer prunes its resend window on it). `Err` names the
    /// fail-stop.
    fn commit(&mut self) -> Result<(), &'static str> {
        let node = self.core.node;
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        if let Err(e) = d.commit() {
            eprintln!(
                "prcc-service[{node}]: WAL append failed, stopping (restart recovers the log): {e}"
            );
            return Err("fail_stop_wal_append");
        }
        if !d.stage.stamps.is_empty() {
            let now = wall_us();
            for t0 in d.stage.stamps.drain(..) {
                self.core.tel.wal_append_us.record(now.saturating_sub(t0));
            }
        }
        let acks = self
            .out
            .iter()
            .any(|e| matches!(e, Effect::Ack(..) | Effect::JoinReply(..)));
        if acks {
            if let Err(e) = d.sync_before_ack() {
                eprintln!("prcc-service[{node}]: WAL sync before ack failed, stopping: {e}");
                return Err("fail_stop_sync");
            }
        }
        Ok(())
    }

    /// Releases one effect of a committed tick onto its connection.
    fn release(&self, tick: &mut Tick<'_, Self>, effect: Effect<P::Clock>) {
        let respond = |tick: &mut Tick<'_, Self>, conn, response: &ClientResponse| {
            send_frame(tick, conn, 256, |out| encode_response_into(response, out));
        };
        match effect {
            Effect::WriteReply(conn, ok) => respond(tick, conn, &ClientResponse::WriteAck { ok }),
            Effect::ReadReply(conn, ok, value) => {
                respond(tick, conn, &ClientResponse::ReadResp { ok, value });
            }
            Effect::Send(peer, entry) => {
                if let Some(conn) = self.peer_conns[peer] {
                    tick.command(conn, PeerCmd::Update(entry));
                }
            }
            Effect::Ack(conn, acked) => {
                let bytes = send_frame(tick, conn, 64, |out| encode_peer_ack_into(acked, out));
                self.counters.bytes_out.add(bytes);
            }
            Effect::JoinReply(conn, acked) => {
                let bytes = send_frame(tick, conn, 64, |out| encode_hello_ack_into(acked, out));
                self.counters.bytes_out.add(bytes);
            }
            Effect::ResumeReply(conn, cuts, window) => {
                tick.command(conn, PeerCmd::Resume { cuts, window });
            }
            Effect::Trace(conn, traces) => respond(tick, conn, &ClientResponse::Trace(traces)),
            Effect::Metrics(conn) => {
                // The core mirrored its gauges when the scrape arrived,
                // this adds the WAL's; counters and histograms are live in
                // the registry already.
                let registry = &self.core.tel.registry;
                if let Some(d) = &self.durable {
                    d.mirror_gauges(registry);
                }
                respond(tick, conn, &ClientResponse::Metrics(registry.snapshot()));
            }
            Effect::CutReply(conn, snap) => respond(tick, conn, &ClientResponse::Cut(snap)),
            Effect::Marker(token) => {
                for &conn in self.peer_conns.iter().flatten() {
                    tick.command(conn, PeerCmd::Marker(token));
                }
            }
            Effect::Close(conn) => tick.close(conn),
        }
    }
    // lint: end-hot-path

    /// The one fail-stop epilogue: close the flight record on `reason`,
    /// kill the loop (a failed write may have left partial bytes in the
    /// log, and any further append would bury that tear mid-file — so the
    /// whole node goes down, unreplied and unacked, and peers retransmit
    /// after the restart), and leave the black box next to the WAL.
    fn halt(&mut self, reason: &'static str, tick: &mut Tick<'_, Self>) {
        self.core.tel.flight.record(wall_us, reason, &[]);
        tick.stop(false);
        if let Some(d) = &self.durable {
            if let Err(e) = self.core.tel.flight.dump_to(&d.flight_path()) {
                eprintln!("prcc-service[{}]: flight dump failed: {e}", self.core.node);
            }
        }
    }
}

/// Frames `body` in place into a pooled buffer and queues it on `conn`,
/// returning the bytes queued. An encode failure (frame over the wire cap)
/// drops the connection — the peer sees a reset, never a torn frame.
fn send_frame<S: Loop>(
    tick: &mut Tick<'_, S>,
    conn: ConnId,
    hint: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> u64 {
    let mut frame = tick.pool().lease(hint);
    if append_frame(&mut frame, body).is_err() {
        tick.close(conn);
        return 0;
    }
    let bytes = frame.len() as u64;
    tick.send(conn, frame);
    bytes
}

impl<P> Loop for NodeLoop<P>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    type Cmd = PeerCmd<P::Clock>;

    /// Tick end: one group-committed WAL write covers every record the
    /// tick's messages staged; only then do the tick's effects leave the
    /// node, in order — an effect escapes only after its record is on
    /// disk, exactly as in a one-write-per-record regime. A kill or a
    /// fail-stop drops every effect of the tick, so clients see a dead
    /// node.
    fn on_tick(&mut self, tick: &mut Tick<'_, Self>) {
        if tick.killed() {
            return self.halt("crash", tick);
        }
        if let Some(End::Halt(reason)) = self.end {
            return self.halt(reason, tick);
        }
        if !self.out.is_empty() || self.durable.as_ref().is_some_and(|d| !d.stage.is_empty()) {
            if let Err(reason) = self.commit() {
                return self.halt(reason, tick);
            }
            let mut out = std::mem::take(&mut self.out);
            for effect in out.drain(..) {
                self.release(tick, effect);
            }
            self.out = out;
        }
        // The loop ends with this tick: no later callback steps the core.
        if let Some(End::Shutdown) = self.end.take() {
            // A final snapshot makes restart-after-shutdown instant and
            // keeps the WAL short; failure is non-fatal (the WAL alone
            // still recovers everything, and the node is stopping anyway —
            // no later append can bury a torn tail).
            if let Some(d) = self.durable.as_mut() {
                if let Err(e) = take_snapshot(&mut self.core, d).and_then(|()| d.commit()) {
                    eprintln!(
                        "prcc-service[{}]: final WAL append failed: {e}",
                        self.core.node
                    );
                }
            }
            tick.stop(true);
        }
    }
}
