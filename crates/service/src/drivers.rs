//! The reactor drivers: every socket of a node as a non-blocking
//! [`prcc_reactor`] driver on the node's one event loop.
//!
//! All I/O — both listeners, every peer link in both directions, and
//! every client connection — runs on the node's loop thread (code inside
//! the `// lint: reactor` fence must never block), and so does the core:
//! a driver hands each decoded message straight to `Core::step` through
//! the loop state. The peer links' rules live in `conn.rs`, socket-free;
//! their drivers here are shells that forward each callback to it
//! through [`Port`] over the callback's `Ctx`:
//!
//! * [`Peer`] carries one peer connection's rules: an `OutConn` (dial,
//!   handshake, resume, and one multi-partition frame per reactor tick —
//!   the tick *is* the batch) or an `InConn` (the hello check, then flush
//!   frames and cut markers to the core as [`CoreMsg`]s);
//! * [`ClientConn`] serves the request/response API of
//!   [`crate::wire::ClientRequest`], including the partition map itself
//!   (`Config`) so clients can route by key.
//!
//! Outbound data flows through per-connection bounded queues of pooled
//! frame buffers (vectored writes, `WouldBlock` re-arms write interest
//! instead of parking a thread); a connection whose queue exceeds the
//! bound is torn down loudly rather than ballooning memory — peers redial
//! and resend from their acknowledged windows, slow clients reconnect.

use crate::conn::{Conn, Port};
use crate::core::{CoreMsg, Sequenced};
use crate::node::NodeLoop;
use crate::wire::{
    append_frame, decode_request, encode_response_into, ClientRequest, ClientResponse, WIRE_VERSION,
};
use prcc_clock::{Protocol, WireClock};
use prcc_reactor::{ConnId, Ctx, Driver, Fate, Lease};
use prcc_telemetry::{wall_us, Counter, Gauge, Registry, SharedHistogram};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// What the loop state hands a peer link's outbound driver at tick end,
/// in the order the core produced it.
pub(crate) enum PeerCmd<C> {
    /// A sequenced outbound update to batch into the next flush frame.
    Update(Sequenced<C>),
    /// A consistent-cut marker: written at the command position it was
    /// released at when the link is established, and dropped otherwise —
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
/// driver of the node. The same values travel in the `Metrics` snapshot
/// under their `net_*` names, and `send_us` times the
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
    /// Outbound peer links established right now (resumed, streaming).
    pub(crate) links_up: Gauge,
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
            links_up: registry.gauge("peer_links_up"),
            send_us: registry.histogram("send_us"),
        }
    }
}

// lint: reactor
/// The reactor side of a [`Port`]: one callback's `Ctx`, whose loop state
/// is the node's.
struct Shell<'s, 'c, P: Protocol + 'static>(&'s mut Ctx<'c, NodeLoop<P>>)
where
    P::Clock: WireClock;

impl<P> Port<P::Clock> for Shell<'_, '_, P>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    fn conn_id(&self) -> ConnId {
        self.0.conn_id()
    }
    fn send(&mut self, cap: usize, body: impl FnOnce(&mut Vec<u8>)) -> Option<usize> {
        let mut frame = self.0.pool().lease(cap);
        let bytes = append_frame(&mut frame, body).ok()?;
        self.0.send(frame);
        Some(bytes)
    }
    fn dial(&mut self, addr: SocketAddr) {
        self.0.dial(addr);
    }
    fn set_timer(&mut self, after: Duration) {
        self.0.set_timer(after);
    }
    fn close(&mut self) {
        self.0.close();
    }
    fn to_core(&mut self, msg: CoreMsg<P::Clock>) {
        self.0.state().step(msg);
    }
    fn now_us(&mut self) -> u64 {
        wall_us()
    }
}

/// A peer link's connection in the reactor: its sans-I/O rules (an
/// `OutConn` or an `InConn`), every callback a forward. An outbound link
/// keeps its registration across disconnects while the node is alive, so
/// the loop state's address for it never changes; an inbound connection
/// is removed when it dies.
pub(crate) struct Peer<M> {
    pub(crate) conn: M,
}

impl<P, M> Driver<NodeLoop<P>> for Peer<M>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
    M: Conn<P::Clock> + Send,
{
    fn on_start(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>) {
        self.conn.on_start(ctx.now(), &mut Shell(ctx));
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>) {
        self.conn.on_connected(&mut Shell(ctx));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>, frame: Lease) -> io::Result<()> {
        self.conn.on_frame(&frame, &mut Shell(ctx))
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>, cmd: PeerCmd<P::Clock>) {
        self.conn.on_command(cmd, &mut Shell(ctx));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>) {
        self.conn.on_timer(&mut Shell(ctx));
    }

    fn on_flush(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>) {
        self.conn.on_flush(&mut Shell(ctx));
    }

    fn on_disconnect(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>, err: Option<&io::Error>) -> Fate {
        if self.conn.on_disconnect(ctx.now(), err, &mut Shell(ctx)) {
            Fate::Keep
        } else {
            Fate::Remove
        }
    }
}

/// One client connection: decodes requests and steps the core with them,
/// tagged with this connection's id; the loop state encodes the response
/// and queues it at tick end. `Config` and the shutdown `Bye` are
/// answered inline — neither touches core state.
pub(crate) struct ClientConn;

impl<P> Driver<NodeLoop<P>> for ClientConn
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    fn on_frame(&mut self, ctx: &mut Ctx<'_, NodeLoop<P>>, frame: Lease) -> io::Result<()> {
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
                    map: (*ctx.state().map).clone(),
                };
                let mut out = ctx.pool().lease(256);
                append_frame(&mut out, |buf| encode_response_into(&response, buf))?;
                ctx.send(out);
                return Ok(());
            }
            ClientRequest::Shutdown => {
                // Queue the ack *before* stopping the core: the loop's
                // graceful drain flushes it even as the node winds down.
                let mut out = ctx.pool().lease(64);
                append_frame(&mut out, |buf| {
                    encode_response_into(&ClientResponse::Bye, buf)
                })?;
                ctx.send(out);
                CoreMsg::Shutdown
            }
        };
        ctx.state().step(msg);
        Ok(())
    }
}
// lint: end-reactor

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::tests::{entry, ring};
    use crate::conn::OutConn;
    use crate::core::{Core, CoreTelemetry};
    use crate::node::{ServiceConfig, WINDOW_CAP};
    use crate::wire::{
        decode_peer_hello, encode_hello_ack_into, read_frame, write_frame, FlushDecoder,
    };
    use prcc_clock::{EdgeProtocol, Protocol};
    use prcc_reactor::{BufPool, Reactor};
    use std::net::TcpListener;

    /// The tick is the batch: an update handed to an established, idle
    /// link is on the socket after the one reactor wakeup that delivered
    /// the command — not that wakeup plus a flush-timer wakeup behind it.
    #[test]
    fn a_lone_update_leaves_on_the_wakeup_that_delivered_it() {
        let (protocol, map, register) = ring();
        let registry = Arc::new(Registry::new());
        let cfg = ServiceConfig::default();
        // The test plays the peer (a plain listener); node 0's loop state
        // is a real, volatile core.
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = peer.local_addr().expect("addr");
        let counters = Arc::new(NetMetrics::new(&registry));
        let tel = CoreTelemetry::new(Arc::clone(&registry), &cfg);
        let core = Core::new(&*protocol, &map, 0, WINDOW_CAP, tel);
        let pool = BufPool::new(&registry);
        let mut conn = None;
        let reactor = Reactor::spawn("t", 1 << 20, pool, &registry, |rh| {
            let out = OutConn::new(0, 1, addr, &map, &cfg, Arc::clone(&counters));
            conn = Some(rh.register(None, Box::new(Peer { conn: out })));
            let (protocol, map) = (Arc::clone(&protocol), Arc::clone(&map));
            let peers = vec![None, conn, None];
            NodeLoop::<EdgeProtocol>::new(protocol, map, cfg.clone(), core, None, counters, peers)
        })
        .expect("reactor");
        let (handle, conn) = (reactor.handle().clone(), conn.expect("registered"));

        let (mut sock, _) = peer.accept().expect("dial");
        let hello = read_frame(&mut sock).expect("io").expect("hello");
        assert_eq!(decode_peer_hello(&hello).expect("hello").node, 0);
        let mut ack = Vec::new();
        encode_hello_ack_into(0, &mut ack);
        write_frame(&mut sock, &ack).expect("hello ack");

        // The core answers the resume in the hello-ack's own tick.
        while registry.gauge("peer_links_up").get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let update = |seq| PeerCmd::Update(entry(&protocol, register, seq));
        // A first update leaves the loop parked in `epoll_wait` with
        // nothing armed.
        let mut decoder = FlushDecoder::default();
        let mut decode = |frame: &[u8]| decoder.decode(frame, |k| Some(protocol.new_clock(k)));
        handle.command(conn, update(1));
        decode(&read_frame(&mut sock).expect("io").expect("first frame")).expect("flush");
        let woken = registry.counter("reactor_wakeups");
        let before = woken.get();
        handle.command(conn, update(2));
        let frame = read_frame(&mut sock).expect("io").expect("second frame");
        let wakeups = woken.get() - before;
        let sections = decode(&frame).expect("flush");
        assert_eq!(sections[0].1[0].0, 2, "the lone update, link seq 2");
        assert_eq!(wakeups, 1, "command and frame share one reactor tick");

        reactor.stop(false);
        reactor.join();
    }
}
