//! The reactor drivers: every socket of a node as a non-blocking state
//! machine.
//!
//! All I/O — both listeners, every peer link in both directions, and
//! every client connection — is multiplexed onto the [`prcc_reactor`]
//! epoll workers. Each connection implements [`Driver`] (everything below
//! the `// lint: reactor` fence runs on an event-loop worker and must
//! never block):
//!
//! * [`PeerOut`] dials a peer's update listener (redialing with seeded,
//!   bounded backoff via one-shot timers if the link drops), handshakes,
//!   then coalesces outgoing updates by event-loop cadence — a batch
//!   closes when the reactor tick that delivered its updates ends (or a
//!   cut marker must go out behind it): there is no flush timer, the tick
//!   *is* the batch. Each `batch_max`-sized chunk of it is emitted as
//!   *one* multi-partition frame carrying a section per partition present;
//! * [`PeerIn`] checks the versioned handshake (the core answers it with
//!   the acknowledged resume offset), then fans decoded flush frames and
//!   cut markers out to the core as [`CoreMsg`]s — whether a frame's
//!   updates may be applied is the core's to judge;
//! * [`ClientConn`] serves the request/response API of
//!   [`crate::wire::ClientRequest`], including the [`PartitionMap`]
//!   itself (`Config`) so clients can route by key.
//!
//! Outbound data flows through per-connection bounded queues of pooled
//! frame buffers (vectored writes, `WouldBlock` re-arms write interest
//! instead of parking a thread); a connection whose queue exceeds the
//! bound is torn down loudly rather than ballooning memory — peers redial
//! and resend from their acknowledged windows, slow clients reconnect.

use crate::core::{CoreMsg, Sequenced};
use crate::node::ServiceConfig;
use crate::wire::{
    append_frame, decode_cut_marker, decode_hello_ack, decode_multi_batch, decode_peer_ack,
    decode_peer_hello, decode_request, encode_cut_marker, encode_multi_batch_into,
    encode_peer_hello, encode_response_into, restore_sender, ClientRequest, ClientResponse,
    FlushSections, PeerHello, TAG_CUT_MARKER, WIRE_VERSION,
};
use prcc_clock::{Protocol, WireClock};
use prcc_graph::PartitionMap;
use prcc_net::chaos::mix64;
use prcc_reactor::{Ctx, Driver, Fate, Lease};
use prcc_telemetry::{wall_us, Counter, Registry, SharedHistogram};
use std::any::Any;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Commands the core sends to a peer link's outbound driver, delivered
/// through the reactor ([`ReactorHandle::command`]) in enqueue order.
pub(crate) enum PeerCmd<C> {
    /// A sequenced outbound update to batch into the next flush frame.
    Update(Sequenced<C>),
    /// A consistent-cut marker: written to the peer at exactly the command
    /// position it was enqueued at (after every update queued before it,
    /// before every update queued after it) — the Chandy–Lamport discipline
    /// the cut audit's closure check relies on. A marker issued while the
    /// link is mid-handshake parks in the backlog and keeps that position
    /// across the resume; otherwise markers are fire-and-forget: they never
    /// enter the resend window, so a connection dying under one loses it.
    Marker(u64),
    /// The core's reply to a [`CoreMsg::PeerResume`]: the window suffix to
    /// resend.
    Resume(Vec<Sequenced<C>>),
}

/// Registry-backed handles for the socket-level metrics, shared by every
/// reactor driver of the node. The same values travel in the `Metrics`
/// snapshot under their `net_*` names, and `send_us` times the
/// issue→first-socket-enqueue stage for sampled updates.
pub(crate) struct NetMetrics {
    pub(crate) bytes_out: Counter,
    pub(crate) bytes_in: Counter,
    /// Per-partition update runs shipped (sections across all frames).
    pub(crate) batches_sent: Counter,
    /// Peer update frames written.
    pub(crate) frames_sent: Counter,
    /// Sender flush cycles.
    pub(crate) flushes: Counter,
    /// Update copies resent from the window after a reconnect.
    pub(crate) resent: Counter,
    /// Issue → first socket write, sampled updates only.
    send_us: Arc<SharedHistogram>,
}

impl NetMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        NetMetrics {
            bytes_out: registry.counter("net_bytes_out"),
            bytes_in: registry.counter("net_bytes_in"),
            batches_sent: registry.counter("net_batches_sent"),
            frames_sent: registry.counter("net_frames_sent"),
            flushes: registry.counter("net_flushes"),
            resent: registry.counter("net_resent"),
            send_us: registry.histogram("send_us"),
        }
    }
}

/// What every driver of a node shares: the channel into the core, the
/// socket counters, and the node-wide stop flag.
#[derive(Clone)]
pub(crate) struct Hub<C> {
    pub(crate) core_tx: mpsc::Sender<CoreMsg<C>>,
    pub(crate) counters: Arc<NetMetrics>,
    pub(crate) stop: Arc<AtomicBool>,
}

impl<C> Hub<C> {
    /// Hands `msg` to the core; a core that shut down closes `ctx`.
    fn to_core(&self, ctx: &mut Ctx<'_>, msg: CoreMsg<C>) {
        if self.core_tx.send(msg).is_err() {
            ctx.close();
        }
    }
}

/// Groups a run of `(seq, partition, update)` entries into multi-batch
/// sections, preserving first-seen section order and per-partition update
/// order (cross-partition order is irrelevant — partitions are causally
/// independent).
fn pack_sections<C>(entries: impl IntoIterator<Item = Sequenced<C>>) -> FlushSections<C> {
    let mut sections: FlushSections<C> = Vec::new();
    for (seq, partition, update) in entries {
        // Linear scan: a flush touches at most a handful of partitions.
        match sections.iter_mut().find(|(p, _)| *p == partition) {
            Some((_, updates)) => updates.push((seq, update)),
            None => sections.push((partition, vec![(seq, update)])),
        }
    }
    sections
}

/// Connection lifecycle of an outbound peer link driver.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutState {
    /// No socket; waiting out a backoff timer before the next dial.
    Down,
    /// A non-blocking connect is in flight.
    Dialing,
    /// Connected; hello sent; waiting for the peer's hello-ack.
    AwaitAck,
    /// Hello-ack received; waiting for the core's resume window.
    AwaitResume,
    /// Streaming. Commands apply directly; acks flow back in.
    Established,
}

// lint: reactor
/// The outbound half of one peer link, driven entirely by reactor events:
/// dials (and redials, with the same seeded backoff jitter as the old
/// sender threads), handshakes, retransmits the resume window, ships each
/// tick's core-issued updates as multi-batch flush frames, and feeds streamed
/// acknowledgements back to the core. Registration is permanent: the
/// driver returns [`Fate::Keep`] from every disconnect while the node is
/// alive, so the core's command address never changes.
pub(crate) struct PeerOut<C> {
    /// This node's index (log prefix and backoff jitter key).
    node: usize,
    /// The remote node's index — the link this driver owns.
    peer: usize,
    addr: SocketAddr,
    /// The encoded hello payload, built once; framed per connection.
    hello: Vec<u8>,
    /// Most updates one flush frame carries; a bigger batch ships as
    /// several frames.
    batch_max: usize,
    pad_bytes: usize,
    connect_timeout: Duration,
    hub: Hub<C>,
    state: OutState,
    /// Commands that arrived mid-handshake, replayed in order once the
    /// resume window has been retransmitted.
    pending: VecDeque<PeerCmd<C>>,
    /// The open batch: the updates this reactor tick has delivered so far.
    /// `on_flush` ships all of it when the tick ends, so it never outlives
    /// a tick and is bounded by what one inbox drain can hold.
    batch: Vec<Sequenced<C>>,
    /// Highest sequence already transmitted on this connection (the
    /// resume window's tail, advanced by every flush): entries at or
    /// below it still arriving through the command queue are duplicates
    /// of what the resume sent and are dropped before encoding.
    covered: u64,
    /// The peer's acknowledged offset from the current handshake.
    acked: u64,
    /// Connection generation: counts successful connects.
    generation: u64,
    /// The current dial window's deadline.
    deadline: Option<Instant>,
    backoff: Duration,
    attempt: u64,
}

impl<C: WireClock> PeerOut<C> {
    /// The (not yet dialing) outbound link from `node` to `peer` at `addr`.
    pub(crate) fn new(
        node: usize,
        peer: usize,
        addr: SocketAddr,
        map: &PartitionMap,
        cfg: &ServiceConfig,
        hub: Hub<C>,
    ) -> Self {
        let hello = PeerHello {
            node,
            map: map.clone(),
        };
        PeerOut {
            node,
            peer,
            addr,
            hello: encode_peer_hello(&hello),
            batch_max: cfg.batch_max.max(1),
            pad_bytes: cfg.pad_bytes,
            connect_timeout: cfg.connect_timeout,
            hub,
            state: OutState::Down,
            pending: VecDeque::new(),
            batch: Vec::new(),
            covered: 0,
            acked: 0,
            generation: 0,
            deadline: None,
            backoff: Duration::from_millis(5),
            attempt: 0,
        }
    }

    /// Opens a fresh dial window: full `connect_timeout`, backoff reset,
    /// and an immediate dial.
    fn begin_window(&mut self, ctx: &mut Ctx<'_>) {
        self.deadline = Some(ctx.now() + self.connect_timeout);
        self.backoff = Duration::from_millis(5);
        self.attempt = 0;
        self.state = OutState::Dialing;
        ctx.dial(self.addr);
    }

    /// Ships a run of `(seq, partition, update)` entries: packs each
    /// `batch_max`-sized chunk into one multi-batch frame encoded in
    /// place into a pooled buffer and enqueues it (the reactor coalesces
    /// queued frames into vectored writes). Maintains the
    /// flush/frame/batch counters.
    // lint: hot-path
    fn transmit(&mut self, ctx: &mut Ctx<'_>, entries: &[Sequenced<C>], record_send_us: bool) {
        if entries.is_empty() {
            return;
        }
        let mut batches = 0u64;
        for chunk in entries.chunks(self.batch_max) {
            // lint: allow(alloc) sections regroup one bounded chunk per flush
            let sections = pack_sections(chunk.iter().cloned());
            // `flushes` counts drain cycles at the moment a flush exists —
            // deliberately NOT at the same site as `frames_sent`, which counts
            // frame enqueues. Keeping the two sites apart is what makes
            // `frames_per_flush` a binding regression signal
            // (`flushes_pack_multiple_partitions_into_one_frame`, and the
            // `node.frames_per_flush` metric of `prcc-perf`).
            self.hub.counters.flushes.add(1);
            let mut frame = ctx.pool().lease(256);
            if append_frame(&mut frame, |out| {
                encode_multi_batch_into(&sections, self.pad_bytes, out)
            })
            .is_err()
            {
                // A frame over the wire cap is a config error (batch_max
                // times update size exceeded the frame bound); drop the
                // connection loudly rather than ship a torn frame.
                eprintln!(
                    "prcc-service[{}]: flush frame to {} over the wire cap; dropping link",
                    self.node, self.addr
                );
                ctx.close();
                return;
            }
            batches += sections.len() as u64;
            self.hub.counters.frames_sent.add(1);
            self.hub.counters.bytes_out.add(frame.len() as u64);
            ctx.send(frame);
        }
        self.hub.counters.batches_sent.add(batches);
        // Send-stage latency (issue → first socket enqueue) for sampled
        // updates: one clock read per flush, taken lazily, and only on
        // the first-transmission path — window resends would
        // double-count the same stamps.
        if record_send_us {
            let mut now = 0u64;
            for (_, _, update) in entries {
                let stamp = update.issued_at.0;
                if stamp != 0 {
                    if now == 0 {
                        now = wall_us();
                    }
                    self.hub.counters.send_us.record(now.saturating_sub(stamp));
                }
            }
        }
    }

    /// Flushes the open batch, all of it: drops entries the resume already
    /// covered and ships the rest, `batch_max` updates to a frame.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let covered = self.covered;
        self.batch.retain(|(seq, _, _)| *seq > covered);
        let mut shipped = std::mem::take(&mut self.batch);
        if let Some(&(last, _, _)) = shipped.last() {
            self.covered = last;
        }
        self.transmit(ctx, &shipped, true);
        // Hand the (emptied) allocation back for the next tick.
        shipped.clear();
        self.batch = shipped;
    }
    // lint: end-hot-path

    /// Applies one established-state command (also used to replay the
    /// handshake-era backlog after a resume).
    fn apply_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: PeerCmd<C>) {
        match cmd {
            PeerCmd::Update(entry) => self.batch.push(entry),
            PeerCmd::Marker(token) => {
                // Everything queued before the marker must hit the wire
                // first, the marker next, everything after it later.
                self.flush(ctx);
                self.write_marker(ctx, token);
            }
            // Resume is handled in on_command before dispatch; a stray one
            // (stale reply after a re-handshake) is ignored.
            PeerCmd::Resume(_) => {}
        }
    }

    /// Writes a cut marker frame. A failure loses it (markers are not
    /// windowed); a node no marker reaches never reports, and the audit
    /// calls the cut incomplete.
    fn write_marker(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let mut frame = ctx.pool().lease(16);
        if append_frame(&mut frame, |out| {
            out.extend_from_slice(&encode_cut_marker(token))
        })
        .is_ok()
        {
            self.hub.counters.bytes_out.add(frame.len() as u64);
            ctx.send(frame);
        }
    }

    /// The core answered the handshake with the resume window: retransmit
    /// it, mark the link established, and replay the command backlog, with
    /// every parked marker at its command position.
    fn finish_resume(&mut self, ctx: &mut Ctx<'_>, window: Vec<Sequenced<C>>) {
        // Everything up to the window's tail is covered by this resume:
        // entries still sitting in the command backlog at or below
        // `covered` are duplicates of what the resume sends and are
        // dropped by the flush filter.
        self.covered = window.last().map_or(self.acked, |&(seq, _, _)| seq);
        // A window shipped on the very first connection of a fresh link
        // (generation 1, nothing acked) is a first transmission — writes
        // merely raced the dial — not a retransmission; everything else
        // (reconnects, and restarts where the peer remembers the link) is.
        let resent = if self.generation > 1 || self.acked > 0 {
            window.len() as u64
        } else {
            0
        };
        self.hub.counters.resent.add(resent);
        self.state = OutState::Established;
        // The window also covers the updates parked *behind* a parked
        // marker, so it ships in slices: ahead of each marker only the
        // entries queued before it — everything below the first update
        // still parked after it.
        let mut unsent = window.as_slice();
        while let Some(cmd) = self.pending.pop_front() {
            if matches!(cmd, PeerCmd::Marker(_)) {
                let queued_after = self.pending.iter().find_map(|cmd| match cmd {
                    PeerCmd::Update((seq, ..)) => Some(*seq),
                    _ => None,
                });
                let ahead = queued_after.map_or(unsent.len(), |next| {
                    unsent.partition_point(|&(seq, ..)| seq < next)
                });
                self.transmit(ctx, &unsent[..ahead], false);
                unsent = &unsent[ahead..];
            }
            self.apply_cmd(ctx, cmd);
        }
        self.transmit(ctx, unsent, false);
    }
}

impl<C: WireClock> Driver for PeerOut<C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.begin_window(ctx);
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>) {
        // Each successful dial is a new connection generation. The
        // handshake opens every connection, including redials: the
        // acceptor's driver expects it and answers with the link's
        // acknowledged resume offset.
        self.generation += 1;
        self.state = OutState::AwaitAck;
        let mut frame = ctx.pool().lease(self.hello.len() + 8);
        if append_frame(&mut frame, |out| out.extend_from_slice(&self.hello)).is_ok() {
            self.hub.counters.bytes_out.add(frame.len() as u64);
            ctx.send(frame);
        } else {
            ctx.close();
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        self.hub.counters.bytes_in.add(frame.len() as u64 + 4);
        match self.state {
            OutState::AwaitAck => {
                self.acked = decode_hello_ack(&frame)?;
                self.state = OutState::AwaitResume;
                // Fetch the unacked window past the peer's offset; the
                // core replies with a Resume command on this connection.
                let (peer, acked, conn) = (self.peer, self.acked, ctx.conn_id());
                let resume = CoreMsg::PeerResume { peer, acked, conn };
                self.hub.to_core(ctx, resume);
                Ok(())
            }
            _ => {
                // Streamed acknowledgements: forward to the core for
                // window pruning.
                let seq = decode_peer_ack(&frame)?;
                let peer = self.peer;
                self.hub.to_core(ctx, CoreMsg::PeerAcked { peer, seq });
                Ok(())
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: Box<dyn Any + Send>) {
        let Ok(cmd) = cmd.downcast::<PeerCmd<C>>() else {
            return;
        };
        match *cmd {
            PeerCmd::Resume(window) => {
                if self.state == OutState::AwaitResume {
                    self.finish_resume(ctx, window);
                }
            }
            cmd => {
                if self.state == OutState::Established {
                    self.apply_cmd(ctx, cmd);
                } else {
                    // Mid-handshake (or mid-backoff): park the command.
                    // Updates in it are also parked in the core's window;
                    // the backlog's order is what lets the resume put
                    // markers back at their command positions.
                    self.pending.push_back(cmd);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        // The only timer a link sets is its redial backoff: dial again
        // inside the current window.
        if self.state == OutState::Down {
            self.state = OutState::Dialing;
            ctx.dial(self.addr);
        }
    }

    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        // End of the tick that delivered the commands: the tick is the
        // batch, so everything it brought leaves now.
        if self.state == OutState::Established {
            self.flush(ctx);
        }
    }

    fn on_disconnect(&mut self, ctx: &mut Ctx<'_>, err: Option<&io::Error>) -> Fate {
        if self.hub.stop.load(Ordering::SeqCst) {
            return Fate::Remove;
        }
        let was_established = self.state == OutState::Established;
        // The local batch dies with the connection: every update in it is
        // still parked in the core's window, and the resume on the next
        // successful handshake retransmits whatever the peer missed.
        self.batch.clear();
        if was_established {
            if let Some(e) = err {
                eprintln!(
                    "prcc-service[{}]: peer link {}: {e}; reconnecting",
                    self.node, self.addr
                );
            }
            self.begin_window(ctx);
            return Fate::Keep;
        }
        // A dial or handshake failed. Back off inside the current window;
        // when the window is exhausted, report once, discard the command
        // backlog (every entry is also parked in the core's window, which
        // the resume on the next successful dial retransmits), and open a
        // fresh window — a peer down longer than one connect_timeout
        // (e.g. a slow crash-restart) must not strand the link forever.
        let now = ctx.now();
        let deadline = self.deadline.unwrap_or(now);
        if now >= deadline {
            eprintln!(
                "prcc-service[{}]: peer {} unreachable for {:?}, backing off",
                self.node, self.addr, self.connect_timeout
            );
            self.pending.clear();
            self.begin_window(ctx);
            return Fate::Keep;
        }
        self.attempt += 1;
        // Seeded jitter, up to +50% of the base backoff: decorrelates the
        // redial storms a whole cluster restarting (or a partition
        // healing) would otherwise synchronize, without giving up
        // determinism — the jitter is a pure hash of (dialer, port,
        // attempt), so identical histories redial at identical times and
        // a seed-pinned chaos run replays exactly.
        let base_us = self.backoff.as_micros() as u64;
        let key = ((self.node as u64) << 48) | (u64::from(self.addr.port()) << 32) | self.attempt;
        let jitter = Duration::from_micros(mix64(key) % (base_us / 2).max(1));
        let wait = (self.backoff + jitter).min(deadline - now);
        self.backoff = (self.backoff * 2).min(Duration::from_millis(100));
        self.state = OutState::Down;
        ctx.set_timer(wait);
        Fate::Keep
    }
}

/// The inbound half of one peer link: checks the versioned handshake,
/// binds itself to the sender's node index, then decodes flush frames and
/// cut markers and fans them to the core. Acknowledgements — and the close
/// of a refused link — come back from the core at sweep end.
pub(crate) struct PeerIn<P: Protocol> {
    pub(crate) node: usize,
    pub(crate) protocol: Arc<P>,
    pub(crate) map: Arc<PartitionMap>,
    pub(crate) hub: Hub<P::Clock>,
    /// The sender's node index, `None` until the handshake validates.
    pub(crate) peer: Option<usize>,
}

impl<P> Driver for PeerIn<P>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    // lint: hot-path
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        self.hub.counters.bytes_in.add(frame.len() as u64 + 4);
        let Some(peer) = self.peer else {
            // First frame: the handshake. Answering (the hello-ack) is the
            // core's job — it owns the link's acknowledged offset.
            let hello = decode_peer_hello(&frame)?;
            if hello.map != *self.map {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // lint: allow(alloc) protocol-violation error, cold
                    format!("peer {} runs a different partition map", hello.node),
                ));
            }
            // In range, and not this node: it never dials itself, and the
            // updates of such a link would come back under its own id bits.
            if hello.node >= self.map.num_nodes() || hello.node == self.node {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // lint: allow(alloc) protocol-violation error, cold
                    format!("peer index {} out of range or this node's", hello.node),
                ));
            }
            self.peer = Some(hello.node);
            let (peer, conn) = (hello.node, ctx.conn_id());
            self.hub.to_core(ctx, CoreMsg::PeerJoin { peer, conn });
            return Ok(());
        };
        // Cut markers travel in the update stream — that is what gives
        // them a channel position — so they are intercepted here, before
        // batch decoding, and forwarded on the same core channel as the
        // updates around them (arrival order is cut order).
        if frame.first() == Some(&TAG_CUT_MARKER) {
            let token = decode_cut_marker(&frame)?;
            self.hub.to_core(ctx, CoreMsg::PeerMarker { token });
            return Ok(());
        }
        // One frame, many `(partition, [(seq, update)])` sections, handed
        // to the core as one delivery (and one WAL receipt). Whether the
        // sender may ship them is the core's to judge: `slot::admit`.
        let roles = self.map.graph().num_replicas();
        let protocol = &self.protocol;
        let mut sections = decode_multi_batch(&frame, |k| {
            (k.index() < roles).then(|| protocol.new_clock(k))
        })?;
        // Ids arrive without their node bits; the handshake says whose
        // they are.
        restore_sender(&mut sections, peer);
        let conn = ctx.conn_id();
        let updates = CoreMsg::Updates {
            peer,
            sections,
            conn,
        };
        self.hub.to_core(ctx, updates);
        Ok(())
    }
    // lint: end-hot-path

    fn on_disconnect(&mut self, _ctx: &mut Ctx<'_>, err: Option<&io::Error>) -> Fate {
        if let Some(e) = err {
            eprintln!("prcc-service[{}]: peer reader: {e}", self.node);
        }
        Fate::Remove
    }
}

/// One client connection: decodes requests and routes them to the core
/// tagged with this connection's id; the core encodes the response and
/// pushes it back through the reactor at sweep end. `Config` and the
/// shutdown `Bye` are answered inline — neither touches core state.
pub(crate) struct ClientConn<C: WireClock> {
    pub(crate) map: Arc<PartitionMap>,
    pub(crate) hub: Hub<C>,
}

impl<C: WireClock> Driver for ClientConn<C> {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        let conn = ctx.conn_id();
        let msg = match decode_request(&frame)? {
            ClientRequest::Write {
                partition,
                register,
                value,
                ..
            } => CoreMsg::Write {
                partition,
                register,
                value,
                conn,
            },
            ClientRequest::Read {
                partition,
                register,
            } => CoreMsg::Read {
                partition,
                register,
                conn,
            },
            ClientRequest::Status => CoreMsg::Status(conn),
            ClientRequest::Trace => CoreMsg::Trace(conn),
            ClientRequest::Metrics => CoreMsg::Metrics(conn),
            ClientRequest::Cut { token, start } => CoreMsg::Cut { token, start, conn },
            ClientRequest::Config => {
                // Answered inline: pure configuration, no core state.
                let response = ClientResponse::Config {
                    version: WIRE_VERSION,
                    map: (*self.map).clone(),
                };
                let mut out = ctx.pool().lease(256);
                append_frame(&mut out, |buf| encode_response_into(&response, buf))?;
                ctx.send(out);
                return Ok(());
            }
            ClientRequest::Shutdown => {
                self.hub.stop.store(true, Ordering::SeqCst);
                // Enqueue the ack *before* stopping the core: the reactor's
                // graceful drain flushes it even as the node winds down.
                let mut out = ctx.pool().lease(64);
                append_frame(&mut out, |buf| {
                    encode_response_into(&ClientResponse::Bye, buf)
                })?;
                ctx.send(out);
                let _ = self.hub.core_tx.send(CoreMsg::Shutdown);
                return Ok(());
            }
        };
        self.hub.to_core(ctx, msg);
        Ok(())
    }
}
// lint: end-reactor

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_hello_ack_into, read_frame, write_frame};
    use prcc_checker::UpdateId;
    use prcc_clock::{EdgeClock, EdgeProtocol};
    use prcc_core::Update;
    use prcc_graph::{topologies, PartitionId, RegisterId, ReplicaId};
    use prcc_net::VirtualTime;
    use prcc_reactor::{BufPool, Reactor};
    use std::net::TcpListener;

    /// The tick is the batch: an update handed to an established, idle
    /// link is on the socket after the one reactor wakeup that delivered
    /// the command — not that wakeup plus a flush-timer wakeup behind it.
    #[test]
    fn a_lone_update_leaves_on_the_wakeup_that_delivered_it() {
        let graph = topologies::line(2);
        let map = PartitionMap::single(graph.clone());
        let protocol = EdgeProtocol::new(graph);
        let registry = Registry::new();
        let reactor = Reactor::new("t", 1, 1 << 20, BufPool::new(&registry), &registry)
            .expect("one-worker reactor");
        let handle = reactor.handle().clone();
        // The test plays both the peer (a plain listener) and the core
        // (the receiving end of the hub's channel).
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (core_tx, core_rx) = mpsc::channel();
        let hub: Hub<EdgeClock> = Hub {
            core_tx,
            counters: Arc::new(NetMetrics::new(&registry)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let addr = peer.local_addr().expect("addr");
        let link = PeerOut::new(0, 1, addr, &map, &ServiceConfig::default(), hub);
        let conn = handle.register(None, Box::new(link));

        let (mut sock, _) = peer.accept().expect("dial");
        let hello = read_frame(&mut sock).expect("io").expect("hello");
        assert_eq!(decode_peer_hello(&hello).expect("hello").node, 0);
        let mut ack = Vec::new();
        encode_hello_ack_into(0, &mut ack);
        write_frame(&mut sock, &ack).expect("hello ack");
        assert!(matches!(
            core_rx.recv().expect("resume request"),
            CoreMsg::PeerResume {
                peer: 1,
                acked: 0,
                ..
            }
        ));
        handle.command(conn, Box::new(PeerCmd::<EdgeClock>::Resume(Vec::new())));

        let update = |seq: u64| {
            let mut clock = protocol.new_clock(ReplicaId(0));
            protocol.advance(ReplicaId(0), &mut clock, RegisterId(0));
            let update = Update {
                id: UpdateId(seq),
                issuer: ReplicaId(0),
                register: RegisterId(0),
                value: seq,
                clock,
                issued_at: VirtualTime::ZERO,
                received_at: VirtualTime::ZERO,
            };
            Box::new(PeerCmd::Update((seq, PartitionId(0), update)))
        };
        // A first update proves the link established (and leaves the
        // worker parked in `epoll_wait` with nothing armed).
        handle.command(conn, update(1));
        read_frame(&mut sock).expect("io").expect("first frame");
        let before = handle.metrics().wakeups.get();
        handle.command(conn, update(2));
        let frame = read_frame(&mut sock).expect("io").expect("second frame");
        let wakeups = handle.metrics().wakeups.get() - before;
        let sections = decode_multi_batch(&frame, |k| Some(protocol.new_clock(k))).expect("flush");
        assert_eq!(sections[0].1[0].0, 2, "the lone update, link seq 2");
        assert_eq!(wakeups, 1, "command and frame share one reactor tick");

        reactor.stop(false);
        reactor.join();
    }
}
