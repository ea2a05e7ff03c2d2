//! The connection lifecycle, sans I/O: the rules that turn TCP
//! connections into the reliable channels the paper's algorithm assumes.
//!
//! A peer link is two connections' worth of rules, one state machine per
//! direction, neither touching a socket, thread or clock:
//!
//! * [`OutConn`] — the sending end. It dials (and redials, with seeded,
//!   bounded backoff inside a `connect_timeout` window), opens every
//!   connection with the hello and a fresh [`FlushEncoder`], forwards the
//!   peer's acknowledged offset to the core, and on the core's reply
//!   writes the kept cut markers and then the resend window. Established,
//!   it ships each tick's updates as multi-partition flush frames, writes
//!   cut markers in command order, and feeds streamed acknowledgements
//!   back. It parks nothing across a handshake: an update or marker
//!   commanded mid-handshake is dropped, because the core's window is the
//!   one copy of every unacknowledged update and a marker is a hint.
//! * [`InConn`] — the receiving end. It checks the hello (same partition
//!   map, an index in range that is not this node's), then passes cut
//!   markers through and decodes flush frames with one [`FlushDecoder`]
//!   per connection. A frame lost in transit is an error, which closes
//!   the connection; whether a decoded frame may be applied is the core's
//!   to judge (`slot::admit`).
//!
//! Events arrive as method calls; an event that needs the time takes it
//! as data. Everything an event does leaves through a [`Port`]: the
//! reactor drivers (`drivers.rs`) implement it over the node loop's `Ctx`, and
//! the tests below over a recording fake.

use crate::core::{CoreMsg, Sequenced};
use crate::drivers::{NetMetrics, PeerCmd};
use crate::node::ServiceConfig;
use crate::wire::{
    decode_cut_marker, decode_hello_ack, decode_peer_ack, decode_peer_hello, encode_cut_marker,
    encode_peer_hello, restore_sender, FlushDecoder, FlushEncoder, PeerHello, TAG_CUT_MARKER,
};
use prcc_clock::{Protocol, WireClock};
use prcc_graph::{PartitionMap, ReplicaId};
use prcc_net::chaos::mix64;
use prcc_reactor::ConnId;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

// lint: reactor
/// Everything a connection's state machine may do to the world: the one
/// seam between the lifecycle rules and whatever carries the bytes.
pub(crate) trait Port<C> {
    /// The connection's stable id: where the core addresses its replies.
    fn conn_id(&self) -> ConnId;
    /// Queues one length-prefixed frame whose payload `body` writes into a
    /// buffer of at least `cap` bytes: the bytes queued, prefix included,
    /// or `None` if the payload overran the frame bound (nothing queued).
    fn send(&mut self, cap: usize, body: impl FnOnce(&mut Vec<u8>)) -> Option<usize>;
    /// Dials `addr`; `on_connected` or `on_disconnect` follows.
    fn dial(&mut self, addr: SocketAddr);
    /// Arms the connection's one-shot timer, `after` the event's `now`.
    fn set_timer(&mut self, after: Duration);
    /// Closes the connection once the event is handled.
    fn close(&mut self);
    /// Hands `msg` to the core; a core that is gone closes the connection.
    fn to_core(&mut self, msg: CoreMsg<C>);
    /// Wall-clock microseconds: read only when a sampled update leaves.
    fn now_us(&mut self) -> u64;
}

/// A connection's rules: one method per event, every action through the
/// [`Port`]. An event a side never sees is a no-op.
pub(crate) trait Conn<C> {
    /// The connection exists (an outbound one has no socket yet).
    fn on_start(&mut self, _now: Instant, _port: &mut impl Port<C>) {}
    /// A dial succeeded.
    fn on_connected(&mut self, _port: &mut impl Port<C>) {}
    /// One inbound frame; an `Err` closes the connection.
    fn on_frame(&mut self, frame: &[u8], port: &mut impl Port<C>) -> io::Result<()>;
    /// A command from the core.
    fn on_command(&mut self, _cmd: PeerCmd<C>, _port: &mut impl Port<C>) {}
    /// The one-shot timer fired.
    fn on_timer(&mut self, _port: &mut impl Port<C>) {}
    /// The tick that delivered frames or commands ends: the batching hook.
    fn on_flush(&mut self, _port: &mut impl Port<C>) {}
    /// The connection died (`err` says why, unless it closed cleanly) or
    /// a dial failed. `true` keeps the link for a redial.
    fn on_disconnect(
        &mut self,
        now: Instant,
        err: Option<&io::Error>,
        port: &mut impl Port<C>,
    ) -> bool;
}

/// Connection lifecycle of an outbound peer link.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutState {
    /// No socket; waiting out a backoff timer before the next dial.
    Down,
    /// A dial is in flight.
    Dialing,
    /// Connected; hello sent; waiting for the peer's hello-ack.
    AwaitAck,
    /// Hello-ack received; waiting for the core's resume window.
    AwaitResume,
    /// Streaming. Commands apply directly; acks flow back in.
    Established,
}

/// The first redial backoff of a dial window; it doubles per failure.
const BACKOFF_FIRST: Duration = Duration::from_millis(5);
/// The longest redial backoff, jitter aside.
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// The outbound half of one peer link. It lives as long as the node: a
/// lost connection opens a new dial window, never ends the link, so the
/// core's command address for the peer never changes.
pub(crate) struct OutConn<C> {
    /// This node's index (log prefix and backoff jitter key).
    node: usize,
    /// The remote node's index: the link this connection carries.
    peer: usize,
    addr: SocketAddr,
    /// The encoded hello payload, built once; framed per connection.
    hello: Vec<u8>,
    /// Most updates one flush frame carries; a bigger batch ships as
    /// several frames.
    batch_max: usize,
    pad_bytes: usize,
    connect_timeout: Duration,
    counters: Arc<NetMetrics>,
    state: OutState,
    /// This connection's flush encoder: reset on every connect, so no
    /// frame is ever encoded against a base the peer's current inbound
    /// end did not decode.
    flush_codec: FlushEncoder,
    /// The open batch: the updates this reactor tick has delivered so far.
    /// `on_flush` ships all of it when the tick ends, so it never outlives
    /// a tick and is bounded by what one tick can deliver.
    batch: Vec<Sequenced<C>>,
    /// The peer's acknowledged offset from the current handshake.
    acked: u64,
    /// Connection generation: counts successful connects.
    generation: u64,
    /// The current dial window's deadline.
    deadline: Option<Instant>,
    backoff: Duration,
    attempt: u64,
}

impl<C: WireClock> OutConn<C> {
    /// The (not yet dialing) outbound link from `node` to `peer` at `addr`.
    pub(crate) fn new(
        node: usize,
        peer: usize,
        addr: SocketAddr,
        map: &PartitionMap,
        cfg: &ServiceConfig,
        counters: Arc<NetMetrics>,
    ) -> Self {
        let map = map.clone();
        OutConn {
            node,
            peer,
            addr,
            hello: encode_peer_hello(&PeerHello { node, map }),
            batch_max: cfg.batch_max.max(1),
            pad_bytes: cfg.pad_bytes,
            connect_timeout: cfg.connect_timeout,
            counters,
            state: OutState::Down,
            flush_codec: FlushEncoder::default(),
            batch: Vec::new(),
            acked: 0,
            generation: 0,
            deadline: None,
            backoff: BACKOFF_FIRST,
            attempt: 0,
        }
    }

    /// The core answered the handshake: mark the link established, write
    /// the markers of the core's kept cuts, then retransmit the window.
    /// A peer that restarted while those cuts were taken (its links were
    /// handshaking as their markers passed) records them now, ahead of
    /// every resent update. The node's loop releases the core's effects in
    /// order, so every update commanded after
    /// this reply is sequenced past the window's tail, and every one
    /// commanded before it arrived mid-handshake and was dropped — the
    /// window carries it.
    fn finish_resume(&mut self, cuts: &[u64], window: &[Sequenced<C>], port: &mut impl Port<C>) {
        // A window shipped on the very first connection of a fresh link
        // (generation 1, nothing acked) is a first transmission — writes
        // merely raced the dial — not a retransmission; everything else
        // (reconnects, and restarts where the peer remembers the link) is.
        if self.generation > 1 || self.acked > 0 {
            self.counters.resent.add(window.len() as u64);
        }
        self.state = OutState::Established;
        // Every link of a node runs on the node's one loop thread.
        let up = &self.counters.links_up;
        up.set(up.get() + 1);
        for &token in cuts {
            self.write_marker(token, port);
        }
        self.transmit(window, false, port);
    }

    /// Ships a run of `(seq, partition, update)` entries: encodes each
    /// `batch_max`-sized chunk, as borrowed, into one multi-batch frame in
    /// a pooled buffer (a section per partition, first-seen order) and
    /// queues it. Maintains the flush/frame/batch counters.
    // lint: hot-path
    fn transmit(&mut self, entries: &[Sequenced<C>], send_us: bool, port: &mut impl Port<C>) {
        if entries.is_empty() {
            return;
        }
        let mut batches = 0u64;
        for chunk in entries.chunks(self.batch_max) {
            // `flushes` counts drain cycles at the moment a flush exists —
            // deliberately NOT at the same site as `frames_sent`, which counts
            // frame enqueues. Keeping the two sites apart is what makes
            // `frames_per_flush` a binding regression signal
            // (`flushes_pack_multiple_partitions_into_one_frame`, and the
            // `node.frames_per_flush` metric of `prcc-perf`).
            self.counters.flushes.add(1);
            let mut sections = 0;
            let (codec, pad) = (&mut self.flush_codec, self.pad_bytes);
            let encode = |out: &mut Vec<u8>| sections = codec.encode_entries_into(chunk, pad, out);
            let Some(bytes) = port.send(256, encode) else {
                // A frame over the wire cap is a config error (batch_max
                // times update size exceeded the frame bound); drop the
                // connection loudly rather than ship a torn frame. The
                // encoder's bases now include it, and so would every later
                // frame's deltas: the close discards those frames too.
                eprintln!(
                    "prcc-service[{}]: flush frame to {} over the wire cap; dropping link",
                    self.node, self.addr
                );
                port.close();
                return;
            };
            self.counters.bytes_out.add(bytes as u64);
            batches += sections as u64;
            self.counters.frames_sent.add(1);
        }
        self.counters.batches_sent.add(batches);
        // Send-stage latency (issue → first socket enqueue) for sampled
        // updates: one clock read per flush, taken lazily, and only on
        // the first-transmission path — window resends would
        // double-count the same stamps.
        if send_us {
            let mut now = 0u64;
            for (_, _, update) in entries {
                let stamp = update.issued_at.0;
                if stamp != 0 {
                    if now == 0 {
                        now = port.now_us();
                    }
                    self.counters.send_us.record(now.saturating_sub(stamp));
                }
            }
        }
    }
    // lint: end-hot-path

    /// Writes a cut marker frame. A failure loses it (markers are not
    /// windowed); a node no marker reaches never reports, and the audit
    /// calls the cut incomplete.
    fn write_marker(&mut self, token: u64, port: &mut impl Port<C>) {
        let marker = encode_cut_marker(token);
        let bytes = port.send(16, |out| out.extend(marker));
        self.counters.bytes_out.add(bytes.unwrap_or(0) as u64);
    }
}

impl<C: WireClock> Conn<C> for OutConn<C> {
    /// Opens a dial window: full `connect_timeout`, backoff reset, and an
    /// immediate dial.
    fn on_start(&mut self, now: Instant, port: &mut impl Port<C>) {
        self.deadline = Some(now + self.connect_timeout);
        self.backoff = BACKOFF_FIRST;
        self.attempt = 0;
        self.state = OutState::Dialing;
        port.dial(self.addr);
    }

    /// A new connection generation. The hello opens every connection,
    /// redials included; the acceptor answers it with the link's
    /// acknowledged resume offset.
    fn on_connected(&mut self, port: &mut impl Port<C>) {
        self.generation += 1;
        self.state = OutState::AwaitAck;
        // A new connection starts from an empty base: the resume window
        // is re-encoded whole, whatever the last one carried.
        self.flush_codec.reset();
        let (hello, cap) = (&self.hello, self.hello.len() + 8);
        match port.send(cap, |out| out.extend(hello)) {
            Some(bytes) => self.counters.bytes_out.add(bytes as u64),
            None => port.close(),
        }
    }

    /// The hello-ack while handshaking, a streamed acknowledgement after.
    fn on_frame(&mut self, frame: &[u8], port: &mut impl Port<C>) -> io::Result<()> {
        self.counters.bytes_in.add(frame.len() as u64 + 4);
        let peer = self.peer;
        if self.state == OutState::AwaitAck {
            self.acked = decode_hello_ack(frame)?;
            self.state = OutState::AwaitResume;
            // Fetch the unacked window past the peer's offset; the core
            // replies with a Resume command on this connection.
            let (acked, conn) = (self.acked, port.conn_id());
            port.to_core(CoreMsg::PeerResume { peer, acked, conn });
        } else {
            let seq = decode_peer_ack(frame)?;
            port.to_core(CoreMsg::PeerAcked { peer, seq });
        }
        Ok(())
    }

    /// Mid-handshake (or mid-backoff) an update or marker is dropped: the
    /// update is in the core's window, which the resume sends, and a
    /// marker is only a hint. A stray resume (a stale reply after a
    /// re-handshake) is ignored.
    fn on_command(&mut self, cmd: PeerCmd<C>, port: &mut impl Port<C>) {
        let established = self.state == OutState::Established;
        match cmd {
            PeerCmd::Resume { cuts, window } if self.state == OutState::AwaitResume => {
                self.finish_resume(&cuts, &window, port);
            }
            PeerCmd::Update(entry) if established => self.batch.push(entry),
            PeerCmd::Marker(token) if established => {
                // Everything queued before the marker goes first, so on a
                // healthy link the peer records ahead of every update sent
                // after it.
                self.on_flush(port);
                self.write_marker(token, port);
            }
            _ => {}
        }
    }

    /// The only timer a link sets is its redial backoff: dial again
    /// inside the current window.
    fn on_timer(&mut self, port: &mut impl Port<C>) {
        if self.state == OutState::Down {
            self.state = OutState::Dialing;
            port.dial(self.addr);
        }
    }

    /// The tick is the batch: all of it leaves now, `batch_max` updates
    /// to a frame.
    // lint: hot-path
    fn on_flush(&mut self, port: &mut impl Port<C>) {
        if self.state != OutState::Established {
            return;
        }
        let mut shipped = std::mem::take(&mut self.batch);
        self.transmit(&shipped, true, port);
        // Hand the (emptied) allocation back for the next tick.
        shipped.clear();
        self.batch = shipped;
    }
    // lint: end-hot-path

    /// The local batch dies with the connection: every update in it is
    /// still in the core's window, and the next resume retransmits
    /// whatever the peer missed. The link itself always stays.
    fn on_disconnect(
        &mut self,
        now: Instant,
        err: Option<&io::Error>,
        port: &mut impl Port<C>,
    ) -> bool {
        self.batch.clear();
        if self.state == OutState::Established {
            let up = &self.counters.links_up;
            up.set(up.get().saturating_sub(1));
            if let Some(e) = err {
                eprintln!(
                    "prcc-service[{}]: peer link {}: {e}; reconnecting",
                    self.node, self.addr
                );
            }
            self.on_start(now, port);
            return true;
        }
        // A dial or handshake failed. Back off inside the current window;
        // when the window is exhausted, report once and open a fresh
        // window — a peer down longer than one connect_timeout (e.g. a
        // slow crash-restart) must not strand the link forever.
        let deadline = self.deadline.unwrap_or(now);
        if now >= deadline {
            eprintln!(
                "prcc-service[{}]: peer {} unreachable for {:?}, backing off",
                self.node, self.addr, self.connect_timeout
            );
            self.on_start(now, port);
            return true;
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
        self.backoff = (self.backoff * 2).min(BACKOFF_CAP);
        self.state = OutState::Down;
        port.set_timer(wait);
        true
    }
}

/// The inbound half of one peer link: checks the hello, binds itself to
/// the sender's node index, then decodes flush frames and passes cut
/// markers through to the core. Acknowledgements — and the close of a
/// refused link — come back from the core at tick end.
pub(crate) struct InConn<P: Protocol> {
    node: usize,
    protocol: Arc<P>,
    map: Arc<PartitionMap>,
    counters: Arc<NetMetrics>,
    /// The sender's node index, `None` until the hello validates.
    peer: Option<usize>,
    /// This connection's flush decoder: every flush frame passes through
    /// it in arrival order, so its bases track the sender's encoder.
    flush_codec: FlushDecoder,
}

impl<P: Protocol> InConn<P> {
    /// A fresh accepted connection of `node`, awaiting its hello.
    pub(crate) fn new(
        node: usize,
        protocol: Arc<P>,
        map: Arc<PartitionMap>,
        counters: Arc<NetMetrics>,
    ) -> Self {
        let (peer, flush_codec) = (None, FlushDecoder::default());
        InConn {
            node,
            protocol,
            map,
            counters,
            peer,
            flush_codec,
        }
    }
}

impl<P> Conn<P::Clock> for InConn<P>
where
    P: Protocol,
    P::Clock: WireClock,
{
    /// An `Err` refuses the connection: a hello that fails its checks, a
    /// malformed frame, or a flush frame lost in transit (the sender
    /// redials and resends past the acknowledged line).
    // lint: hot-path
    fn on_frame(&mut self, frame: &[u8], port: &mut impl Port<P::Clock>) -> io::Result<()> {
        self.counters.bytes_in.add(frame.len() as u64 + 4);
        let conn = port.conn_id();
        let Some(peer) = self.peer else {
            // First frame: the hello. Answering (the hello-ack) is the
            // core's job — it owns the link's acknowledged offset.
            let hello = decode_peer_hello(frame)?;
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
            let peer = hello.node;
            self.peer = Some(peer);
            port.to_core(CoreMsg::PeerJoin { peer, conn });
            return Ok(());
        };
        // Cut markers travel in the update stream, so on a healthy link
        // they arrive ahead of the updates sent after them; they are
        // intercepted before batch decoding and go to the core in order
        // with the updates around them.
        if frame.first() == Some(&TAG_CUT_MARKER) {
            let token = decode_cut_marker(frame)?;
            port.to_core(CoreMsg::PeerMarker { token });
            return Ok(());
        }
        // One frame, many `(partition, [(seq, update)])` sections, handed
        // to the core as one delivery (and one WAL receipt).
        let (roles, protocol) = (self.map.graph().num_replicas(), &self.protocol);
        let make_clock = |k: ReplicaId| (k.index() < roles).then(|| protocol.new_clock(k));
        let mut sections = self.flush_codec.decode(frame, make_clock)?;
        if sections.is_empty() {
            // A repeat, or a frame held for its predecessor.
            return Ok(());
        }
        // Ids arrive without their node bits; the hello says whose they
        // are.
        restore_sender(&mut sections, peer);
        port.to_core(CoreMsg::Updates {
            peer,
            sections,
            conn,
        });
        Ok(())
    }
    // lint: end-hot-path

    fn on_disconnect(
        &mut self,
        _: Instant,
        err: Option<&io::Error>,
        _: &mut impl Port<P::Clock>,
    ) -> bool {
        if let Some(e) = err {
            eprintln!("prcc-service[{}]: peer reader: {e}", self.node);
        }
        false
    }
}
// lint: end-reactor

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::core::{Core, CoreTelemetry, Env};
    use crate::wire::{encode_hello_ack_into, WIRE_SEQ_BITS};
    use prcc_checker::UpdateId;
    use prcc_clock::{EdgeClock, EdgeProtocol};
    use prcc_core::Update;
    use prcc_graph::{topologies, PartitionId, RegisterId};
    use prcc_net::VirtualTime;
    use prcc_telemetry::Registry;
    use proptest::prelude::*;
    use std::ops::RangeInclusive;

    const CONN: ConnId = 9;

    /// The recording port: what one connection did, by kind, in order.
    #[derive(Default)]
    struct Fake {
        /// Frame payloads.
        sent: Vec<Vec<u8>>,
        dials: usize,
        timers: Vec<Duration>,
        core: Vec<CoreMsg<EdgeClock>>,
    }

    impl Port<EdgeClock> for Fake {
        fn conn_id(&self) -> ConnId {
            CONN
        }
        fn send(&mut self, _: usize, body: impl FnOnce(&mut Vec<u8>)) -> Option<usize> {
            let mut payload = Vec::new();
            body(&mut payload);
            self.sent.push(payload);
            self.sent.last().map(|payload| payload.len() + 4)
        }
        fn dial(&mut self, _: SocketAddr) {
            self.dials += 1;
        }
        fn set_timer(&mut self, after: Duration) {
            self.timers.push(after);
        }
        fn close(&mut self) {
            unreachable!("no frame here overruns the wire cap");
        }
        fn to_core(&mut self, msg: CoreMsg<EdgeClock>) {
            self.core.push(msg);
        }
        fn now_us(&mut self) -> u64 {
            0
        }
    }

    /// A three-node ring's protocol and map, and a register roles 0 and
    /// 1 share.
    pub(crate) fn ring() -> (Arc<EdgeProtocol>, Arc<PartitionMap>, RegisterId) {
        let graph = topologies::ring(3);
        let shared = graph.shared(ReplicaId(1), ReplicaId(0)).iter().next();
        let map = Arc::new(PartitionMap::single(graph.clone()));
        let register = shared.expect("ring neighbours share a register");
        (Arc::new(EdgeProtocol::new(graph)), map, register)
    }

    /// Role 1's `seq`-th write of `register`, as link sequence `seq`.
    pub(crate) fn entry(p: &EdgeProtocol, register: RegisterId, seq: u64) -> Sequenced<EdgeClock> {
        let (issuer, (id, value)) = (ReplicaId(1), (UpdateId(seq), seq));
        let mut clock = p.new_clock(issuer);
        (0..seq).for_each(|_| p.advance(issuer, &mut clock, register));
        let (issued_at, received_at) = (VirtualTime::ZERO, VirtualTime::ZERO);
        let update = Update {
            id,
            issuer,
            register,
            value,
            clock,
            issued_at,
            received_at,
        };
        (seq, PartitionId(0), update)
    }

    /// One connection's flush frames from node 1, a frame per run.
    fn frames(p: &EdgeProtocol, reg: RegisterId, runs: &[RangeInclusive<u64>]) -> Vec<Vec<u8>> {
        let mut encoder = FlushEncoder::default();
        let frame = |run: &RangeInclusive<u64>| {
            let entries: Vec<_> = run.clone().map(|seq| entry(p, reg, seq)).collect();
            let mut frame = Vec::new();
            encoder.encode_entries_into(&entries, 0, &mut frame);
            frame
        };
        runs.iter().map(frame).collect()
    }

    /// The link sequences in `frames`, decoded by one connection's decoder.
    fn seqs(p: &EdgeProtocol, frames: &[Vec<u8>]) -> Vec<u64> {
        let mut decoder = FlushDecoder::default();
        let decode = |frame: &Vec<u8>| decoder.decode(frame, |k| Some(p.new_clock(k)));
        let sections = frames.iter().flat_map(decode).flatten();
        sections
            .flat_map(|(_, run)| run)
            .map(|(seq, _)| seq)
            .collect()
    }

    fn counters() -> Arc<NetMetrics> {
        Arc::new(NetMetrics::new(&Registry::new()))
    }

    /// Node 0's link to node 1, dialing since `now`.
    fn dialing(cfg: &ServiceConfig, now: Instant) -> (OutConn<EdgeClock>, Fake) {
        let addr = SocketAddr::from(([127, 0, 0, 1], 7452));
        let mut out = OutConn::new(0, 1, addr, &ring().1, cfg, counters());
        let mut port = Fake::default();
        out.on_start(now, &mut port);
        (out, port)
    }

    /// Connects `out` and answers its hello with `acked`: the hello is
    /// checked and taken off the port, and the offset goes to the core.
    fn handshake(out: &mut OutConn<EdgeClock>, port: &mut Fake, acked: u64) {
        out.on_connected(port);
        let hello = decode_peer_hello(&port.sent.remove(0)).expect("the hello opens");
        assert_eq!(hello.node, 0);
        let mut ack = Vec::new();
        encode_hello_ack_into(acked, &mut ack);
        out.on_frame(&ack, port).expect("hello-ack");
        let asked = port.core.pop();
        let asked = matches!(asked, Some(CoreMsg::PeerResume { peer: 1, acked: a, conn: CONN }) if a == acked);
        assert!(asked, "the acked offset goes to the core");
    }

    /// Every connection opens with the hello and a reset encoder: after a
    /// redial the resume window, from the offset the peer acknowledged,
    /// decodes on a fresh decoder and counts as a resend. A restarted peer
    /// records the cuts taken while its links were down: the kept cuts'
    /// markers, oldest first, precede the window's first frame.
    #[test]
    fn each_connection_resumes_from_the_acked_offset_markers_first_on_an_empty_base() {
        let (p, _, register) = ring();
        let (mut out, mut port) = dialing(&ServiceConfig::default(), Instant::now());
        for (acked, cuts, window) in [(0, vec![], 1..=2), (1, vec![5, 6], 2..=3)] {
            handshake(&mut out, &mut port, acked);
            let expect: Vec<u64> = window.clone().collect();
            let window = window.map(|seq| entry(&p, register, seq)).collect();
            let markers = cuts.len();
            out.on_command(PeerCmd::Resume { cuts, window }, &mut port);
            let frames = std::mem::take(&mut port.sent);
            let tokens = frames[..markers]
                .iter()
                .map(|f| decode_cut_marker(f).expect("marker"));
            assert_eq!(tokens.collect::<Vec<_>>(), [5, 6][..markers]);
            assert_eq!(seqs(&p, &frames[markers..]), expect);
            assert!(out.on_disconnect(Instant::now(), None, &mut port));
        }
        assert_eq!(port.dials, 3, "a lost connection redials at once");
        assert_eq!(out.counters.resent.get(), 2, "only the redial resends");
    }

    /// A link parks nothing across a handshake: updates and markers
    /// commanded while dialing, awaiting the hello-ack or awaiting the
    /// resume are dropped; the window carries the updates exactly once,
    /// and the next update follows them.
    #[test]
    fn mid_handshake_updates_and_markers_are_dropped_and_the_window_carries_them() {
        let (p, _, register) = ring();
        let poke = |out: &mut OutConn<EdgeClock>, port: &mut Fake, seq| {
            out.on_command(PeerCmd::Update(entry(&p, register, seq)), port);
            out.on_command(PeerCmd::Marker(70 + seq), port);
            out.on_flush(port);
            assert!(port.sent.is_empty(), "command {seq} left mid-handshake");
        };
        let (mut out, mut port) = dialing(&ServiceConfig::default(), Instant::now());
        poke(&mut out, &mut port, 1);
        out.on_connected(&mut port);
        port.sent.clear();
        poke(&mut out, &mut port, 2);
        let mut ack = Vec::new();
        encode_hello_ack_into(0, &mut ack);
        out.on_frame(&ack, &mut port).expect("hello-ack");
        poke(&mut out, &mut port, 3);
        let (cuts, window) = (
            vec![],
            (1..=3).map(|seq| entry(&p, register, seq)).collect(),
        );
        out.on_command(PeerCmd::Resume { cuts, window }, &mut port);
        out.on_command(PeerCmd::Update(entry(&p, register, 4)), &mut port);
        out.on_flush(&mut port);
        assert_eq!(seqs(&p, &port.sent), [1, 2, 3, 4], "no marker, each once");
    }

    /// Each failed dial arms `5 ms · 2^k` plus up to half again of seeded
    /// jitter, capped at 100 ms and clipped to the dial window's deadline;
    /// at the deadline a fresh window dials at once and the backoff starts
    /// over. The same history arms the same timers.
    #[test]
    fn failed_dials_back_off_to_a_cap_within_the_window_and_replay() {
        let timeout = Duration::from_millis(500);
        let cfg = ServiceConfig {
            connect_timeout: timeout,
            ..ServiceConfig::default()
        };
        // Per failed dial: the backoff it armed, or `None` for a redial
        // at once.
        let run = || {
            let mut now = Instant::now();
            let (mut out, mut port) = dialing(&cfg, now);
            let mut log = Vec::new();
            while log.len() < 12 {
                assert!(out.on_disconnect(now, None, &mut port), "links stay");
                let wait = port.timers.pop();
                if let Some(wait) = wait {
                    now += wait;
                    out.on_timer(&mut port);
                }
                log.push(wait);
            }
            assert_eq!(port.dials, 13, "each failed dial leads to one dial");
            log
        };
        let log = run();
        assert_eq!(log, run(), "the same history, the same timers");
        let window: Vec<Duration> = log.iter().map_while(|wait| *wait).collect();
        assert_eq!(window.iter().sum::<Duration>(), timeout, "clipped");
        for (k, &wait) in window[..window.len() - 1].iter().enumerate() {
            let base = (BACKOFF_FIRST * 2u32.pow(k as u32)).min(BACKOFF_CAP);
            assert!(base <= wait && wait < base * 3 / 2, "wait {k}: {wait:?}");
        }
        assert_eq!(log[window.len()], None, "a fresh window");
        let first = log[window.len() + 1].expect("backing off again");
        assert!(BACKOFF_FIRST <= first && first < BACKOFF_FIRST * 3 / 2);
    }

    fn in_conn() -> (InConn<EdgeProtocol>, Fake) {
        let (p, map, _) = ring();
        (InConn::new(0, p, map, counters()), Fake::default())
    }

    fn hello(node: usize, map: &PartitionMap) -> Vec<u8> {
        let map = map.clone();
        encode_peer_hello(&PeerHello { node, map })
    }

    /// A hello naming this node, a node out of range or another partition
    /// map is refused before it joins; a peer's hello joins its link.
    #[test]
    fn a_hostile_or_self_index_hello_is_refused_and_joins_nothing() {
        let (_, map, _) = ring();
        let other = PartitionMap::single(topologies::ring(4));
        let refused = [
            ("this node's index", hello(0, &map)),
            ("an index out of range", hello(3, &map)),
            ("another partition map", hello(1, &other)),
            ("a marker first", encode_cut_marker(1)),
        ];
        for (what, frame) in refused {
            let (mut conn, mut port) = in_conn();
            assert!(conn.on_frame(&frame, &mut port).is_err(), "{what}");
            assert!(port.core.is_empty(), "{what} joined");
        }
        let (mut conn, mut port) = in_conn();
        conn.on_frame(&hello(1, &map), &mut port).expect("a peer");
        assert!(matches!(port.core[..], [CoreMsg::PeerJoin { peer: 1, .. }]));
    }

    /// A flush frame lost in transit closes its connection: node 1's
    /// frames 1, 3 and 4 arrive, frame 3 is held for its predecessor and
    /// frame 4 is refused. The next connection's frames, re-encoded from
    /// an empty base, deliver the rest under node 1's id bits. A marker
    /// between frames passes through.
    #[test]
    fn a_lost_flush_frame_closes_its_connection_and_the_next_one_heals() {
        let (p, map, register) = ring();
        let ids = |port: &mut Fake| -> Vec<u64> {
            let msgs = port.core.drain(..).filter_map(|msg| match msg {
                CoreMsg::Updates { sections, .. } => Some(sections),
                _ => None,
            });
            let updates = msgs.flatten().flat_map(|(_, run)| run);
            updates.map(|(_, update)| update.id.0).collect()
        };
        let first = frames(&p, register, &[1..=1, 2..=2, 3..=3, 4..=4]);
        let (mut conn, mut port) = in_conn();
        conn.on_frame(&hello(1, &map), &mut port).expect("hello");
        conn.on_frame(&first[0], &mut port).expect("frame 1");
        conn.on_frame(&encode_cut_marker(9), &mut port)
            .expect("marker");
        let marked = matches!(port.core[2], CoreMsg::PeerMarker { token: 9 });
        assert!(marked, "the marker passes through");
        conn.on_frame(&first[2], &mut port)
            .expect("frame 3 is held");
        assert!(conn.on_frame(&first[3], &mut port).is_err(), "past a gap");
        let node1 = 1 << WIRE_SEQ_BITS;
        assert_eq!(ids(&mut port), [node1 | 1]);

        let (mut conn, mut port) = in_conn();
        conn.on_frame(&hello(1, &map), &mut port).expect("hello");
        for frame in frames(&p, register, &[2..=2, 3..=4]) {
            conn.on_frame(&frame, &mut port).expect("resent frame");
        }
        assert_eq!(ids(&mut port), [node1 | 2, node1 | 3, node1 | 4]);
    }

    /// A valid payload with a byte flipped, truncated, another frame's
    /// tail spliced in, or a varint inflated (as `wire_props` mutates).
    fn mutate(frame: &[u8], kind: u8, at: usize, other: &[u8], byte: u8) -> Vec<u8> {
        let at = at % frame.len().max(1);
        let mut out = frame.to_vec();
        match kind % 4 {
            0 => out[at] ^= 1 << (byte % 8),
            1 => out.truncate(at),
            2 => {
                out.truncate(at);
                out.extend_from_slice(&other[usize::from(byte) % other.len()..]);
            }
            _ => {
                let fill: &[u8] = if out[at] < 0x80 { &[0] } else { &[0x80; 8] };
                out[at] |= 0x80;
                out.splice(at + 1..at + 1, fill.iter().copied());
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Hostile peer input on the receiving end: node 1's hello and
        /// three flush frames, one of them mutated, through `InConn` and a
        /// real core. Nothing panics; a refused hello joins nothing; an
        /// accepted one joins as a peer in range that is not this node;
        /// a mutated frame is refused or reaches the core as sections,
        /// where `slot::admit` judges them.
        #[test]
        fn mutated_hellos_and_flush_frames_never_panic_or_join_a_bad_index(
            victim in 0usize..4,
            kind in 0u8..4,
            at in 0usize..2048,
            byte in any::<u8>(),
            donor in 0usize..4,
        ) {
            let (p, map, register) = ring();
            let mut stream = vec![hello(1, &map)];
            stream.extend(frames(&p, register, &[1..=2, 3..=3, 4..=6]));
            let other = stream[donor].clone();
            stream[victim] = mutate(&stream[victim], kind, at, &other, byte);
            let cfg = ServiceConfig::default();
            let env = Env::new(&*p, &map, &cfg);
            let tel = CoreTelemetry::new(Arc::new(Registry::new()), &cfg);
            let mut core = Core::new(&*p, &map, 0, 64, tel);
            let (mut conn, mut port) = in_conn();
            for (i, frame) in stream.iter().enumerate() {
                let refused = conn.on_frame(frame, &mut port).is_err();
                for msg in port.core.drain(..) {
                    match msg {
                        CoreMsg::PeerJoin { peer, .. } => {
                            prop_assert!(i == 0 && !refused && peer < 3 && peer != 0);
                        }
                        CoreMsg::Updates { ref sections, .. } => {
                            prop_assert!(i > 0 && !sections.is_empty());
                            let flow = core.step(&env, msg, &|| 0, None, &mut Vec::new());
                            prop_assert!(flow.is_ok(), "a refusal is not a fault");
                        }
                        CoreMsg::PeerMarker { .. } => prop_assert!(i > 0),
                        _ => prop_assert!(false, "frame {} reached the core as another message", i),
                    }
                }
                if refused {
                    break;
                }
            }
        }
    }
}
