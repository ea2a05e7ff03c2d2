//! The reactor drivers: every socket of a node as a non-blocking
//! [`prcc_reactor`] driver.
//!
//! All I/O — both listeners, every peer link in both directions, and
//! every client connection — is multiplexed onto the epoll workers (code
//! inside the `// lint: reactor` fence runs on a worker and must never
//! block). The peer links' rules live in `conn.rs`, socket-free; their
//! drivers here are shells that forward each callback to it through
//! [`Port`] over the callback's `Ctx`:
//!
//! * [`Peer`] carries one peer connection's rules: an `OutConn` (dial,
//!   handshake, resume, and one multi-partition frame per reactor tick —
//!   the tick *is* the batch) or an `InConn` (the hello check, then flush
//!   frames and cut markers to the core as [`CoreMsg`]s);
//! * [`ClientConn`] serves the request/response API of
//!   [`crate::wire::ClientRequest`], including the [`PartitionMap`]
//!   itself (`Config`) so clients can route by key.
//!
//! Outbound data flows through per-connection bounded queues of pooled
//! frame buffers (vectored writes, `WouldBlock` re-arms write interest
//! instead of parking a thread); a connection whose queue exceeds the
//! bound is torn down loudly rather than ballooning memory — peers redial
//! and resend from their acknowledged windows, slow clients reconnect.

use crate::conn::{Conn, Port};
use crate::core::{CoreMsg, Sequenced};
use crate::wire::{
    append_frame, decode_request, encode_response_into, ClientRequest, ClientResponse, WIRE_VERSION,
};
use prcc_clock::WireClock;
use prcc_graph::PartitionMap;
use prcc_reactor::{ConnId, Ctx, Driver, Fate, Lease};
use prcc_telemetry::{wall_us, Counter, Registry, SharedHistogram};
use std::any::Any;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Commands the core sends to a peer link's outbound driver, delivered
/// through the reactor ([`ReactorHandle::command`]) in enqueue order.
pub(crate) enum PeerCmd<C> {
    /// A sequenced outbound update to batch into the next flush frame.
    Update(Sequenced<C>),
    /// A consistent-cut marker: written at the command position it was
    /// enqueued at when the link is established, and dropped otherwise —
    /// the resume that ends the handshake writes the kept cuts' markers.
    /// It is a hint that makes the peer record soon; the cut's stamps, not
    /// its position, decide whether the cut is consistent, so a marker
    /// lost to a dying connection costs a retry at most.
    Marker(u64),
    /// The core's reply to a [`CoreMsg::PeerResume`]: the tokens of its
    /// kept cuts, whose markers go first, and the window suffix to resend.
    Resume {
        cuts: Vec<u64>,
        window: Vec<Sequenced<C>>,
    },
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
    pub(crate) send_us: Arc<SharedHistogram>,
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
    /// The [`Port`] of one callback's connection.
    fn port<'s, 'c>(&'s self, ctx: &'s mut Ctx<'c>) -> Shell<'s, 'c, C> {
        Shell { ctx, hub: self }
    }

    /// Hands `msg` to the core; a core that shut down closes `ctx`.
    fn to_core(&self, ctx: &mut Ctx<'_>, msg: CoreMsg<C>) {
        if self.core_tx.send(msg).is_err() {
            ctx.close();
        }
    }
}

// lint: reactor
/// The reactor side of a [`Port`]: one callback's `Ctx` plus the node's
/// hub.
struct Shell<'s, 'c, C> {
    ctx: &'s mut Ctx<'c>,
    hub: &'s Hub<C>,
}

impl<C> Port<C> for Shell<'_, '_, C> {
    fn conn_id(&self) -> ConnId {
        self.ctx.conn_id()
    }
    fn send(&mut self, cap: usize, body: impl FnOnce(&mut Vec<u8>)) -> Option<usize> {
        let mut frame = self.ctx.pool().lease(cap);
        let bytes = append_frame(&mut frame, body).ok()?;
        self.ctx.send(frame);
        Some(bytes)
    }
    fn dial(&mut self, addr: SocketAddr) {
        self.ctx.dial(addr);
    }
    fn set_timer(&mut self, after: Duration) {
        self.ctx.set_timer(after);
    }
    fn close(&mut self) {
        self.ctx.close();
    }
    fn to_core(&mut self, msg: CoreMsg<C>) {
        self.hub.to_core(self.ctx, msg);
    }
    fn now_us(&mut self) -> u64 {
        wall_us()
    }
}

/// A peer link's connection in the reactor: its sans-I/O rules (an
/// `OutConn` or an `InConn`) and the node's hub, every callback a
/// forward. An outbound link keeps its registration across disconnects
/// while the node is alive, so the core's command address for it never
/// changes; an inbound connection is removed when it dies.
pub(crate) struct Peer<M, C> {
    pub(crate) conn: M,
    pub(crate) hub: Hub<C>,
}

impl<M: Conn<C> + Send, C: WireClock> Driver for Peer<M, C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn.on_start(ctx.now(), &mut self.hub.port(ctx));
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>) {
        self.conn.on_connected(&mut self.hub.port(ctx));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        self.conn.on_frame(&frame, &mut self.hub.port(ctx))
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: Box<dyn Any + Send>) {
        if let Ok(cmd) = cmd.downcast::<PeerCmd<C>>() {
            self.conn.on_command(*cmd, &mut self.hub.port(ctx));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.conn.on_timer(&mut self.hub.port(ctx));
    }

    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.conn.on_flush(&mut self.hub.port(ctx));
    }

    fn on_disconnect(&mut self, ctx: &mut Ctx<'_>, err: Option<&io::Error>) -> Fate {
        let (now, stop) = (ctx.now(), self.hub.stop.load(Ordering::SeqCst));
        if !stop && self.conn.on_disconnect(now, err, &mut self.hub.port(ctx)) {
            Fate::Keep
        } else {
            Fate::Remove
        }
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
    use crate::conn::tests::{entry, ring};
    use crate::conn::OutConn;
    use crate::node::ServiceConfig;
    use crate::wire::{
        decode_peer_hello, encode_hello_ack_into, read_frame, write_frame, FlushDecoder,
    };
    use prcc_clock::{EdgeClock, Protocol};
    use prcc_reactor::{BufPool, Reactor};
    use std::net::TcpListener;

    /// The tick is the batch: an update handed to an established, idle
    /// link is on the socket after the one reactor wakeup that delivered
    /// the command — not that wakeup plus a flush-timer wakeup behind it.
    #[test]
    fn a_lone_update_leaves_on_the_wakeup_that_delivered_it() {
        let (protocol, map, register) = ring();
        let registry = Registry::new();
        let reactor = Reactor::new("t", 1, 1 << 20, BufPool::new(&registry), &registry)
            .expect("one-worker reactor");
        let handle = reactor.handle().clone();
        // The test plays both the peer (a plain listener) and the core
        // (the receiving end of the hub's channel).
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (core_tx, core_rx) = mpsc::channel();
        let counters = Arc::new(NetMetrics::new(&registry));
        let stop = Arc::new(AtomicBool::new(false));
        let addr = peer.local_addr().expect("addr");
        let cfg = ServiceConfig::default();
        let conn = OutConn::new(0, 1, addr, &map, &cfg, Arc::clone(&counters));
        let hub: Hub<EdgeClock> = Hub {
            core_tx,
            counters,
            stop,
        };
        let conn = handle.register(None, Box::new(Peer { conn, hub }));

        let (mut sock, _) = peer.accept().expect("dial");
        let hello = read_frame(&mut sock).expect("io").expect("hello");
        assert_eq!(decode_peer_hello(&hello).expect("hello").node, 0);
        let mut ack = Vec::new();
        encode_hello_ack_into(0, &mut ack);
        write_frame(&mut sock, &ack).expect("hello ack");
        let resume = core_rx.recv().expect("resume request");
        assert!(matches!(
            resume,
            CoreMsg::PeerResume {
                peer: 1,
                acked: 0,
                ..
            }
        ));
        let (cuts, window) = (Vec::new(), Vec::new());
        handle.command(
            conn,
            Box::new(PeerCmd::<EdgeClock>::Resume { cuts, window }),
        );

        let update = |seq| Box::new(PeerCmd::Update(entry(&protocol, register, seq)));
        // A first update proves the link established (and leaves the
        // worker parked in `epoll_wait` with nothing armed).
        let mut decoder = FlushDecoder::default();
        let mut decode = |frame: &[u8]| decoder.decode(frame, |k| Some(protocol.new_clock(k)));
        handle.command(conn, update(1));
        decode(&read_frame(&mut sock).expect("io").expect("first frame")).expect("flush");
        let before = handle.metrics().wakeups.get();
        handle.command(conn, update(2));
        let frame = read_frame(&mut sock).expect("io").expect("second frame");
        let wakeups = handle.metrics().wakeups.get() - before;
        let sections = decode(&frame).expect("flush");
        assert_eq!(sections[0].1[0].0, 2, "the lone update, link seq 2");
        assert_eq!(wakeups, 1, "command and frame share one reactor tick");

        reactor.stop(false);
        reactor.join();
    }
}
