//! The event loop: one epoll thread driving per-connection state
//! machines and the loop state they share.
//!
//! A [`Reactor`] owns one [`mio::Poll`], every connection registered with
//! it, and one value of a [`Loop`] type — the state that every driver
//! callback reaches through [`Ctx::state`] and that [`Loop::on_tick`]
//! closes each tick with. A connection is a [`Driver`] — the protocol
//! state machine — wired to a non-blocking socket through an incremental
//! [`FrameDecoder`] on the read side and a bounded [`OutQueue`] on the
//! write side. Work from other threads (registrations, commands, stop)
//! arrives through a locked inbox plus an eventfd [`mio::Waker`]; work
//! the loop state hands its connections at tick end never leaves the
//! thread.
//!
//! ## Tick discipline
//!
//! One `epoll_wait` return is one *tick*. A tick processes, in order:
//! readiness events (connect completions, reads → [`Driver::on_frame`],
//! accepts), the cross-thread inbox, due timers, then [`Loop::on_tick`]
//! — which releases what the tick's callbacks produced as sends,
//! commands and closes on the loop's connections — then a single
//! [`Driver::on_flush`] per connection touched this tick — which is
//! where batching drivers coalesce everything the tick delivered into
//! frames — and finally one vectored flush per connection with queued
//! output. Commands that arrive together therefore share one syscall on
//! the way out, batching by event-loop cadence with no flush timer. The
//! way in mirrors it: a readable connection is read *once* — the decoder
//! reads ahead and carves every frame the socket held out of that one
//! buffer — and a short read ends its turn without a `WouldBlock` probe,
//! which only a level-triggered poll (ours) makes safe.
//!
//! ## Backpressure contract
//!
//! `ctx.send` / `tick.send` never block. A connection whose outbound
//! queue hits its byte bound is torn down loudly (counted in
//! `reactor_overflows`, logged, `on_disconnect` with an "outbound queue
//! overflow" error) — peers redial and resend from their durable
//! windows; a slow client loses its connection instead of OOMing the
//! node. A flush that hits `WouldBlock` re-arms write interest (counted
//! in `reactor_rearms`) and resumes when the kernel drains.

use crate::bufpool::{BufPool, Lease};
use crate::decode::{Decoded, FrameDecoder};
use crate::outq::OutQueue;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use prcc_telemetry::{Counter, Gauge, Registry};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Stable identity of a reactor connection. Assigned at registration and
/// never reused; it survives socket teardown and redial (a peer link
/// keeps its `ConnId` across reconnects).
pub type ConnId = u64;

/// Callback invoked by a listening socket for each accepted connection
/// (already set non-blocking). Typically calls
/// [`ReactorHandle::register`] with a protocol driver.
pub type AcceptFn = Box<dyn FnMut(TcpStream, SocketAddr) + Send>;

/// The waker's reserved token (no connection ever gets this id).
const WAKER_TOKEN: Token = Token(usize::MAX);

/// Events drained per `epoll_wait` call.
const EVENTS_PER_TICK: usize = 1024;

/// How long a graceful stop keeps trying to flush queued output before
/// dropping connections.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// What should happen to a connection after [`Driver::on_disconnect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Remove the connection; its `ConnId` goes dead.
    Remove,
    /// Keep the (socketless) connection registered — the driver has
    /// scheduled a timer or dial to bring it back (peer links redialing
    /// with backoff).
    Keep,
}

/// The state one event loop owns beside its connections: every driver
/// callback reaches it through [`Ctx::state`], and [`Loop::on_tick`]
/// closes each tick with it. `()` is the stateless loop, whose commands
/// are type-erased.
pub trait Loop: Send + Sized + 'static {
    /// What [`ReactorHandle::command`] and [`Tick::command`] carry to a
    /// driver's [`Driver::on_command`].
    type Cmd: Send + 'static;

    /// The tick's events, inbox and timers have run: release what their
    /// callbacks produced through `tick`. Runs again while it hands out
    /// work, so whatever that work feeds back is released in the same
    /// tick; a kill ([`ReactorHandle::stop`]`(false)`) shows as
    /// [`Tick::killed`], and the loop then ends without applying
    /// anything.
    fn on_tick(&mut self, tick: &mut Tick<'_, Self>) {
        let _ = tick;
    }
}

impl Loop for () {
    type Cmd = Box<dyn Any + Send>;
}

/// A connection's protocol state machine. All callbacks run on the
/// loop's thread; they must never block — socket I/O goes through
/// [`Ctx::send`] and the decode loop, waiting goes through
/// [`Ctx::set_timer`].
pub trait Driver<S: Loop = ()>: Send {
    /// The connection was registered with the reactor (socket may or may
    /// not be attached yet). Outbound drivers start their dial here.
    fn on_start(&mut self, ctx: &mut Ctx<'_, S>) {
        let _ = ctx;
    }

    /// A [`Ctx::dial`] completed successfully.
    fn on_connected(&mut self, ctx: &mut Ctx<'_, S>) {
        let _ = ctx;
    }

    /// One complete inbound frame. An `Err` tears the connection down
    /// (routed to [`Driver::on_disconnect`] with the error).
    fn on_frame(&mut self, ctx: &mut Ctx<'_, S>, frame: Lease) -> io::Result<()>;

    /// A command from [`ReactorHandle::command`] or [`Tick::command`].
    fn on_command(&mut self, ctx: &mut Ctx<'_, S>, cmd: S::Cmd) {
        let _ = (ctx, cmd);
    }

    /// The timer set by [`Ctx::set_timer`] fired (timers are one-shot).
    fn on_timer(&mut self, ctx: &mut Ctx<'_, S>) {
        let _ = ctx;
    }

    /// End of a tick in which this connection received frames or
    /// commands: the batching hook. Emit coalesced frames here.
    fn on_flush(&mut self, ctx: &mut Ctx<'_, S>) {
        let _ = ctx;
    }

    /// The socket died (clean EOF: `None`; error, overflow, or decode
    /// failure: `Some`). The socket and any queued output are already
    /// gone. Return [`Fate::Keep`] to hold the registration for a redial.
    fn on_disconnect(&mut self, ctx: &mut Ctx<'_, S>, err: Option<&io::Error>) -> Fate {
        let _ = (ctx, err);
        Fate::Remove
    }
}

/// Telemetry handles for the reactor, registered as `reactor_*` metrics.
#[derive(Clone)]
pub struct ReactorMetrics {
    /// `epoll_wait` returns (including timeouts).
    pub wakeups: Counter,
    /// Readiness events delivered; `events / wakeups` is the
    /// events-per-wakeup batching ratio.
    pub events: Counter,
    /// Write-interest re-arms after a `WouldBlock` flush.
    pub rearms: Counter,
    /// Connections torn down for outbound-queue overflow.
    pub overflows: Counter,
    /// Highest per-connection outbound queue depth (bytes) ever seen.
    pub outq_hiwat: Gauge,
}

impl ReactorMetrics {
    /// Registers the reactor metric set in `registry`.
    pub fn new(registry: &Registry) -> ReactorMetrics {
        ReactorMetrics {
            wakeups: registry.counter("reactor_wakeups"),
            events: registry.counter("reactor_events"),
            rearms: registry.counter("reactor_rearms"),
            overflows: registry.counter("reactor_overflows"),
            outq_hiwat: registry.gauge("reactor_outq_hiwat"),
        }
    }
}

enum Op<S: Loop> {
    Register {
        conn: ConnId,
        sock: Option<TcpStream>,
        driver: Box<dyn Driver<S>>,
    },
    Listen {
        conn: ConnId,
        listener: TcpListener,
        accept: AcceptFn,
    },
    Send {
        conn: ConnId,
        frame: Lease,
    },
    Command {
        conn: ConnId,
        cmd: S::Cmd,
    },
    Close {
        conn: ConnId,
    },
    Stop {
        graceful: bool,
    },
}

struct Shared<S: Loop> {
    inbox: Mutex<Vec<Op<S>>>,
    waker: Waker,
    next_conn: AtomicU64,
    pool: BufPool,
    metrics: ReactorMetrics,
    outq_bound: usize,
}

/// Cheap-to-clone handle for talking to the reactor from any thread:
/// register connections and listeners, push commands, stop.
pub struct ReactorHandle<S: Loop = ()> {
    shared: Arc<Shared<S>>,
}

impl<S: Loop> Clone for ReactorHandle<S> {
    fn clone(&self) -> Self {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<S: Loop> ReactorHandle<S> {
    fn push_op(&self, op: Op<S>) {
        let shared = &self.shared;
        let was_empty = {
            let mut inbox = shared.inbox.lock();
            let was_empty = inbox.is_empty();
            inbox.push(op);
            was_empty
        };
        if was_empty {
            let _ = shared.waker.wake();
        }
    }

    /// Registers a connection. With a socket (must be a connected stream;
    /// it is made non-blocking by the loop) the driver starts reading
    /// immediately; without one, the driver is expected to [`Ctx::dial`]
    /// from its `on_start`.
    pub fn register(&self, sock: Option<TcpStream>, driver: Box<dyn Driver<S>>) -> ConnId {
        let conn = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        self.push_op(Op::Register { conn, sock, driver });
        conn
    }

    /// Registers a listening socket; `accept` runs on the loop for every
    /// new connection.
    pub fn listen(&self, listener: TcpListener, accept: AcceptFn) -> ConnId {
        let conn = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        self.push_op(Op::Listen {
            conn,
            listener,
            accept,
        });
        conn
    }

    /// Delivers a typed message to `conn`'s driver
    /// ([`Driver::on_command`]).
    pub fn command(&self, conn: ConnId, cmd: S::Cmd) {
        self.push_op(Op::Command { conn, cmd });
    }

    /// Stops the loop. `graceful` flushes queued output (bounded by a
    /// short deadline) before dropping connections; `!graceful` severs
    /// every socket and listener immediately (crash semantics).
    pub fn stop(&self, graceful: bool) {
        self.push_op(Op::Stop { graceful });
    }
}

/// One event loop on its own thread. Dropping the struct does not stop
/// the thread — call [`ReactorHandle::stop`] (or [`Reactor::stop`]) then
/// [`Reactor::join`].
pub struct Reactor<S: Loop = ()> {
    handle: ReactorHandle<S>,
    thread: thread::JoinHandle<()>,
}

impl Reactor {
    /// Spawns a stateless loop on a thread named `name`. `outq_bound` is
    /// the per-connection outbound queue byte bound (the backpressure
    /// contract); `pool` backs every frame buffer. A reactor is one
    /// event loop: `_threads` is kept so existing callers compile, and
    /// any value runs one loop thread.
    pub fn new(
        name: &str,
        _threads: usize,
        outq_bound: usize,
        pool: BufPool,
        registry: &Registry,
    ) -> io::Result<Reactor> {
        Reactor::spawn(name, outq_bound, pool, registry, |_| ())
    }
}

impl<S: Loop> Reactor<S> {
    /// Spawns a loop on a thread named `name`, otherwise as
    /// [`Reactor::new`]. `init` builds the loop state on the calling
    /// thread, with the handle at hand: what it registers is in place
    /// when the loop's first tick runs, and the state can keep the ids.
    pub fn spawn(
        name: &str,
        outq_bound: usize,
        pool: BufPool,
        registry: &Registry,
        init: impl FnOnce(&ReactorHandle<S>) -> S,
    ) -> io::Result<Reactor<S>> {
        let poll = Poll::new()?;
        let waker = Waker::new(&poll, WAKER_TOKEN)?;
        let handle = ReactorHandle {
            shared: Arc::new(Shared {
                inbox: Mutex::new(Vec::new()),
                waker,
                next_conn: AtomicU64::new(0),
                pool,
                metrics: ReactorMetrics::new(registry),
                outq_bound,
            }),
        };
        let state = init(&handle);
        let worker = Worker {
            handle: handle.clone(),
            poll,
            state,
            slots: HashMap::new(),
            timers: BinaryHeap::new(),
            dirty: Vec::new(),
            flushq: Vec::new(),
            released: Vec::new(),
            stopping: None,
        };
        let thread = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || worker.run())
            .map_err(io::Error::other)?;
        Ok(Reactor { handle, thread })
    }

    /// The cross-thread handle.
    pub fn handle(&self) -> &ReactorHandle<S> {
        &self.handle
    }

    /// See [`ReactorHandle::stop`].
    pub fn stop(&self, graceful: bool) {
        self.handle.stop(graceful);
    }

    /// Waits for the loop to exit (call [`Reactor::stop`] first).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Per-connection state owned by the loop.
struct Endpoint<S: Loop> {
    sock: Option<TcpStream>,
    /// A non-blocking connect is in flight; completion arrives as a
    /// writable event checked against `take_error`.
    connecting: bool,
    /// Interest currently registered with epoll (`None`: no socket).
    registered: Option<Interest>,
    driver: Box<dyn Driver<S>>,
    decoder: FrameDecoder,
    out: OutQueue,
    timer_at: Option<Instant>,
    dirty: bool,
    flush_queued: bool,
}

enum Slot<S: Loop> {
    Conn(Endpoint<S>),
    Listener {
        listener: TcpListener,
        accept: AcceptFn,
    },
}

enum Call<S: Loop> {
    Start,
    Connected,
    Frame(Lease),
    Command(S::Cmd),
    Timer,
    Flush,
    Disconnect(Option<io::Error>),
}

/// Deferred driver requests, applied after the callback returns (the
/// callback holds mutable borrows of the endpoint it would mutate).
#[derive(Default)]
struct Reqs {
    close: bool,
    dial: Option<SocketAddr>,
    overflow: Option<crate::outq::QueueFull>,
    sent: bool,
    fail: Option<io::Error>,
}

/// What a driver callback may do to its connection: queue frames, set a
/// one-shot timer, dial, close, lease buffers, and reach the loop state.
pub struct Ctx<'a, S: Loop = ()> {
    conn: ConnId,
    now: Instant,
    pool: &'a BufPool,
    state: &'a mut S,
    out: &'a mut OutQueue,
    timer_at: &'a mut Option<Instant>,
    timer_push: &'a mut Vec<(Instant, ConnId)>,
    reqs: &'a mut Reqs,
}

impl<S: Loop> Ctx<'_, S> {
    /// This connection's stable id (route for [`Tick::send`]).
    pub fn conn_id(&self) -> ConnId {
        self.conn
    }

    /// The tick's timestamp (one clock read per callback).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The reactor's buffer pool.
    pub fn pool(&self) -> &BufPool {
        self.pool
    }

    /// The loop state every connection of this reactor shares.
    pub fn state(&mut self) -> &mut S {
        self.state
    }

    /// Queues one framed buffer for this connection; flushed at the end
    /// of the tick. Overflow tears the connection down after the current
    /// callback returns (the frame is dropped).
    pub fn send(&mut self, frame: Lease) {
        if self.reqs.overflow.is_some() {
            return; // already doomed; drop follow-on frames
        }
        match self.out.push(frame) {
            Ok(()) => self.reqs.sent = true,
            Err(full) => self.reqs.overflow = Some(full),
        }
    }

    /// Arms this connection's one-shot timer for `after` from now
    /// (replacing any previous deadline).
    pub fn set_timer(&mut self, after: Duration) {
        let at = self.now + after;
        *self.timer_at = Some(at);
        self.timer_push.push((at, self.conn));
    }

    /// Starts a non-blocking dial to `addr`, replacing this connection's
    /// socket. Completion arrives as [`Driver::on_connected`]; failure as
    /// [`Driver::on_disconnect`].
    pub fn dial(&mut self, addr: SocketAddr) {
        self.reqs.dial = Some(addr);
    }

    /// Tears this connection down after the current callback returns
    /// ([`Driver::on_disconnect`] with no error).
    pub fn close(&mut self) {
        self.reqs.close = true;
    }
}

/// What [`Loop::on_tick`] may do: address any connection of the loop by
/// id, in order, and end the loop. Work for a dead id is dropped.
pub struct Tick<'a, S: Loop> {
    ops: &'a mut Vec<Op<S>>,
    stopping: &'a mut Option<bool>,
    pool: &'a BufPool,
}

impl<S: Loop> Tick<'_, S> {
    /// The reactor's buffer pool.
    pub fn pool(&self) -> &BufPool {
        self.pool
    }

    /// Queues one framed buffer on `conn`'s outbound queue (flushed this
    /// tick). Overflow tears the connection down.
    pub fn send(&mut self, conn: ConnId, frame: Lease) {
        self.ops.push(Op::Send { conn, frame });
    }

    /// Delivers `cmd` to `conn`'s driver ([`Driver::on_command`]).
    pub fn command(&mut self, conn: ConnId, cmd: S::Cmd) {
        self.ops.push(Op::Command { conn, cmd });
    }

    /// Tears `conn` down unconditionally — `on_disconnect` is notified
    /// but its [`Fate`] is ignored.
    pub fn close(&mut self, conn: ConnId) {
        self.ops.push(Op::Close { conn });
    }

    /// Ends the loop after this tick, as [`ReactorHandle::stop`]; a kill
    /// (`!graceful`) also drops everything queued on this `Tick`.
    pub fn stop(&mut self, graceful: bool) {
        *self.stopping = Some(self.stopping.unwrap_or(true) && graceful);
    }

    /// A kill landed: the loop ends when this call returns, and nothing
    /// queued on this `Tick` is applied.
    pub fn killed(&self) -> bool {
        *self.stopping == Some(false)
    }
}

struct Worker<S: Loop> {
    handle: ReactorHandle<S>,
    poll: Poll,
    state: S,
    slots: HashMap<ConnId, Slot<S>>,
    timers: BinaryHeap<Reverse<(Instant, ConnId)>>,
    dirty: Vec<ConnId>,
    flushq: Vec<ConnId>,
    /// What `on_tick` released, applied right after it returns (reused).
    released: Vec<Op<S>>,
    /// `Some(graceful)` once a stop arrived; a kill (`false`) wins over a
    /// graceful stop.
    stopping: Option<bool>,
}

impl<S: Loop> Worker<S> {
    fn metrics(&self) -> &ReactorMetrics {
        &self.handle.shared.metrics
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(EVENTS_PER_TICK);
        loop {
            let timeout = self.next_timeout();
            match self.poll.poll(&mut events, timeout) {
                Ok(_) => {}
                Err(e) => {
                    eprintln!("[reactor] poll failed: {e}");
                    return;
                }
            }
            self.metrics().wakeups.inc();
            self.metrics().events.add(events.len() as u64);
            self.process_events(&events);
            let ops = std::mem::take(&mut *self.handle.shared.inbox.lock());
            for op in ops {
                self.apply(op);
            }
            self.fire_timers();
            if self.end_tick() {
                return; // killed: nothing of this tick leaves
            }
            self.run_on_flush();
            self.flush_pass();
            if let Some(graceful) = self.stopping {
                if graceful {
                    self.drain();
                }
                return;
            }
        }
    }

    /// Runs [`Loop::on_tick`] and applies what it released, until it
    /// releases nothing. True when a kill ends the loop.
    fn end_tick(&mut self) -> bool {
        loop {
            let mut tick = Tick {
                ops: &mut self.released,
                stopping: &mut self.stopping,
                pool: &self.handle.shared.pool,
            };
            self.state.on_tick(&mut tick);
            if self.stopping == Some(false) {
                self.released.clear();
                return true;
            }
            if self.released.is_empty() {
                return false;
            }
            let mut released = std::mem::take(&mut self.released);
            for op in released.drain(..) {
                self.apply(op);
            }
            self.released = released;
        }
    }

    fn next_timeout(&self) -> Option<Duration> {
        let Reverse((at, _)) = self.timers.peek()?;
        Some(at.saturating_duration_since(Instant::now()))
    }

    fn process_events(&mut self, events: &Events) {
        for event in events.iter() {
            let token = event.token();
            if token == WAKER_TOKEN {
                self.handle.shared.waker.drain();
                continue;
            }
            let conn = token.0 as ConnId;
            enum Action {
                Accept,
                FinishConnect,
                Read,
                Nothing,
            }
            let action = match self.slots.get_mut(&conn) {
                Some(Slot::Listener { .. }) => Action::Accept,
                Some(Slot::Conn(ep)) => {
                    if ep.connecting {
                        if event.is_writable() {
                            Action::FinishConnect
                        } else {
                            Action::Nothing
                        }
                    } else {
                        if event.is_writable() && !ep.out.is_empty() {
                            queue_flush(&mut self.flushq, conn, ep);
                        }
                        if event.is_readable() {
                            Action::Read
                        } else {
                            Action::Nothing
                        }
                    }
                }
                None => Action::Nothing, // removed earlier this tick
            };
            match action {
                Action::Accept => self.accept_loop(conn),
                Action::FinishConnect => self.finish_connect(conn),
                Action::Read => self.read_loop(conn),
                Action::Nothing => {}
            }
        }
    }

    fn accept_loop(&mut self, conn: ConnId) {
        let Some(Slot::Listener { listener, accept }) = self.slots.get_mut(&conn) else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((sock, addr)) => {
                    if mio::set_nonblocking(&sock).is_err() {
                        continue; // dead on arrival; drop it
                    }
                    // Drivers never see the raw socket, so latency-critical
                    // socket options are set here or nowhere.
                    let _ = sock.set_nodelay(true);
                    accept(sock, addr);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept failures (EMFILE under an fd
                    // storm, aborted handshakes) must not kill the
                    // listener; log and resume on the next event.
                    eprintln!("[reactor] accept failed: {e}");
                    break;
                }
            }
        }
    }

    fn finish_connect(&mut self, conn: ConnId) {
        let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) else {
            return;
        };
        let Some(sock) = ep.sock.as_ref() else { return };
        let verdict = match sock.take_error() {
            Ok(None) => Ok(()),
            Ok(Some(e)) | Err(e) => Err(e),
        };
        match verdict {
            Ok(()) => {
                ep.connecting = false;
                let want = desired_interest(ep);
                set_interest(&self.poll, conn, ep, want);
                self.run_call(conn, Call::Connected);
                if let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) {
                    if !ep.out.is_empty() {
                        queue_flush(&mut self.flushq, conn, ep);
                    }
                }
            }
            Err(e) => self.disconnect(conn, Some(e), false),
        }
    }

    fn read_loop(&mut self, conn: ConnId) {
        let pool = self.handle.shared.pool.clone();
        loop {
            let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) else {
                return;
            };
            if ep.connecting {
                return;
            }
            let Endpoint { sock, decoder, .. } = ep;
            let Some(sock) = sock.as_mut() else { return };
            match decoder.next(sock, &pool) {
                Ok(Decoded::Frame(frame)) => {
                    // A short read emptied the socket: the poll is
                    // level-triggered, so later bytes (or a close) raise a
                    // new event and the `WouldBlock` probe can be skipped.
                    let drained = decoder.drained();
                    self.run_call(conn, Call::Frame(frame));
                    if drained {
                        return;
                    }
                }
                Ok(Decoded::Pending) => return,
                Ok(Decoded::Eof) => {
                    self.disconnect(conn, None, false);
                    return;
                }
                Err(e) => {
                    self.disconnect(conn, Some(e), false);
                    return;
                }
            }
        }
    }

    fn apply(&mut self, op: Op<S>) {
        match op {
            Op::Register { conn, sock, driver } => self.do_register(conn, sock, driver),
            Op::Listen {
                conn,
                listener,
                accept,
            } => {
                if mio::set_nonblocking(&listener)
                    .and_then(|()| {
                        self.poll
                            .register(&listener, Token(conn as usize), Interest::READABLE)
                    })
                    .is_ok()
                {
                    self.slots.insert(conn, Slot::Listener { listener, accept });
                } else {
                    eprintln!("[reactor] listener registration failed");
                }
            }
            Op::Send { conn, frame } => {
                if let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) {
                    match ep.out.push(frame) {
                        Ok(()) => queue_flush(&mut self.flushq, conn, ep),
                        Err(full) => self.overflow(conn, full),
                    }
                }
            }
            Op::Command { conn, cmd } => self.run_call(conn, Call::Command(cmd)),
            Op::Close { conn } => match self.slots.get(&conn) {
                Some(Slot::Listener { .. }) => {
                    self.slots.remove(&conn); // drop closes + deregisters
                }
                Some(Slot::Conn(_)) => self.disconnect(conn, None, true),
                None => {}
            },
            Op::Stop { graceful } => {
                self.stopping = Some(self.stopping.unwrap_or(true) && graceful);
            }
        }
    }

    fn do_register(&mut self, conn: ConnId, sock: Option<TcpStream>, driver: Box<dyn Driver<S>>) {
        let mut ep = Endpoint {
            sock: None,
            connecting: false,
            registered: None,
            driver,
            decoder: FrameDecoder::new(),
            out: OutQueue::new(self.handle.shared.outq_bound),
            timer_at: None,
            dirty: false,
            flush_queued: false,
        };
        if let Some(sock) = sock {
            if mio::set_nonblocking(&sock)
                .and_then(|()| {
                    self.poll
                        .register(&sock, Token(conn as usize), Interest::READABLE)
                })
                .is_err()
            {
                // Registration failed (dead socket): report and remove.
                self.slots.insert(conn, Slot::Conn(ep));
                self.disconnect(
                    conn,
                    Some(io::Error::other("socket registration failed")),
                    true,
                );
                return;
            }
            ep.registered = Some(Interest::READABLE);
            ep.sock = Some(sock);
        }
        self.slots.insert(conn, Slot::Conn(ep));
        self.run_call(conn, Call::Start);
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((at, conn))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            // Lazy invalidation: fire only if this deadline is still the
            // endpoint's live timer (it may have been replaced/cleared).
            let live = matches!(
                self.slots.get(&conn),
                Some(Slot::Conn(ep)) if ep.timer_at == Some(at)
            );
            if live {
                if let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) {
                    ep.timer_at = None;
                }
                self.run_call(conn, Call::Timer);
            }
        }
    }

    fn run_on_flush(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for conn in dirty {
            if let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) {
                ep.dirty = false;
                self.run_call(conn, Call::Flush);
            }
        }
    }

    fn flush_pass(&mut self) {
        let flushq = std::mem::take(&mut self.flushq);
        let metrics = self.handle.shared.metrics.clone();
        for conn in flushq {
            let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) else {
                continue;
            };
            ep.flush_queued = false;
            if ep.connecting || ep.sock.is_none() {
                continue;
            }
            if ep.out.is_empty() {
                let want = desired_interest(ep);
                set_interest(&self.poll, conn, ep, want);
                continue;
            }
            let outcome = {
                let Endpoint { sock, out, .. } = ep;
                out.flush(sock.as_mut().expect("socket checked above"))
            };
            match outcome {
                Ok(res) => {
                    metrics.outq_hiwat.set_max(ep.out.hiwat() as u64);
                    let was_writable = ep.registered.is_some_and(|i| i.is_writable());
                    if !res.drained && !was_writable {
                        metrics.rearms.inc();
                    }
                    let want = desired_interest(ep);
                    set_interest(&self.poll, conn, ep, want);
                }
                Err(e) => self.disconnect(conn, Some(e), false),
            }
        }
    }

    /// Runs one driver callback with a fresh [`Ctx`], then applies the
    /// requests the driver made.
    fn run_call(&mut self, conn: ConnId, call: Call<S>) {
        let pool = self.handle.shared.pool.clone();
        let now = Instant::now();
        let mut timer_push = Vec::new();
        let mut reqs = Reqs::default();
        let mut fate = Fate::Keep;
        let disconnecting = matches!(call, Call::Disconnect(_));
        {
            let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) else {
                return;
            };
            if matches!(call, Call::Frame(_) | Call::Command(_)) && !ep.dirty {
                ep.dirty = true;
                self.dirty.push(conn);
            }
            let Endpoint {
                driver,
                out,
                timer_at,
                ..
            } = ep;
            let mut ctx = Ctx {
                conn,
                now,
                pool: &pool,
                state: &mut self.state,
                out,
                timer_at,
                timer_push: &mut timer_push,
                reqs: &mut reqs,
            };
            match call {
                Call::Start => driver.on_start(&mut ctx),
                Call::Connected => driver.on_connected(&mut ctx),
                Call::Frame(frame) => {
                    if let Err(e) = driver.on_frame(&mut ctx, frame) {
                        reqs.fail = Some(e);
                    }
                }
                Call::Command(cmd) => driver.on_command(&mut ctx, cmd),
                Call::Timer => driver.on_timer(&mut ctx),
                Call::Flush => driver.on_flush(&mut ctx),
                Call::Disconnect(err) => fate = driver.on_disconnect(&mut ctx, err.as_ref()),
            }
        }
        for (at, id) in timer_push {
            self.timers.push(Reverse((at, id)));
        }
        if disconnecting {
            // In the disconnect callback only dial/timer requests are
            // meaningful; a `Remove` fate ends the connection for good.
            if fate == Fate::Remove {
                self.slots.remove(&conn);
                return;
            }
            if let Some(addr) = reqs.dial {
                self.do_dial(conn, addr);
            }
            return;
        }
        if reqs.sent {
            if let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) {
                queue_flush(&mut self.flushq, conn, ep);
            }
        }
        if let Some(full) = reqs.overflow {
            self.overflow(conn, full);
        } else if let Some(err) = reqs.fail {
            self.disconnect(conn, Some(err), false);
        } else if reqs.close {
            self.disconnect(conn, None, false);
        } else if let Some(addr) = reqs.dial {
            self.do_dial(conn, addr);
        }
    }

    fn overflow(&mut self, conn: ConnId, full: crate::outq::QueueFull) {
        self.metrics().overflows.inc();
        eprintln!("[reactor] conn {conn}: {full} — dropping the connection");
        self.disconnect(conn, Some(io::Error::other(full.to_string())), false);
    }

    /// Severs `conn`'s socket and routes the verdict through
    /// [`Driver::on_disconnect`]. `force` removes the connection
    /// regardless of the driver's [`Fate`] (handle-initiated close).
    fn disconnect(&mut self, conn: ConnId, err: Option<io::Error>, force: bool) {
        let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) else {
            return;
        };
        self.handle
            .shared
            .metrics
            .outq_hiwat
            .set_max(ep.out.hiwat() as u64);
        // Dropping the stream closes the fd, which also removes it from
        // the epoll interest set.
        ep.sock = None;
        ep.connecting = false;
        ep.registered = None;
        ep.decoder.reset();
        ep.out.clear();
        ep.timer_at = None;
        self.run_call(conn, Call::Disconnect(err));
        if force {
            self.slots.remove(&conn);
        }
    }

    fn do_dial(&mut self, conn: ConnId, addr: SocketAddr) {
        let dialed = mio::dial(&addr).and_then(|dialed| {
            // See accept_loop: the driver has no socket access, so nodelay
            // is an event-loop responsibility.
            let _ = dialed.stream.set_nodelay(true);
            self.poll
                .register(&dialed.stream, Token(conn as usize), Interest::WRITABLE)
                .map(|()| dialed)
        });
        match dialed {
            Ok(dialed) => {
                let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) else {
                    return;
                };
                // Even a synchronously-ready connect goes through the
                // event loop: the socket reports writable on the next
                // poll and `finish_connect` runs `on_connected` — one
                // code path, no reentrant callbacks.
                ep.sock = Some(dialed.stream);
                ep.connecting = true;
                ep.registered = Some(Interest::WRITABLE);
            }
            Err(e) => self.disconnect(conn, Some(e), false),
        }
    }

    /// Best-effort flush of all queued output before a graceful exit.
    fn drain(&mut self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let conns: Vec<ConnId> = self.slots.keys().copied().collect();
        let mut events = Events::with_capacity(64);
        loop {
            let mut pending = false;
            for &conn in &conns {
                let Some(Slot::Conn(ep)) = self.slots.get_mut(&conn) else {
                    continue;
                };
                if ep.connecting || ep.out.is_empty() {
                    continue;
                }
                let outcome = {
                    let Endpoint { sock, out, .. } = ep;
                    let Some(sock) = sock.as_mut() else { continue };
                    out.flush(sock)
                };
                match outcome {
                    Ok(res) if !res.drained => pending = true,
                    Ok(_) => {}
                    Err(_) => ep.sock = None, // dead; nothing left to drain
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            let _ = self.poll.poll(&mut events, Some(Duration::from_millis(10)));
        }
    }
}

fn desired_interest<S: Loop>(ep: &Endpoint<S>) -> Interest {
    if ep.out.is_empty() {
        Interest::READABLE
    } else {
        Interest::READABLE | Interest::WRITABLE
    }
}

fn set_interest<S: Loop>(poll: &Poll, conn: ConnId, ep: &mut Endpoint<S>, want: Interest) {
    if ep.registered == Some(want) {
        return;
    }
    let Some(sock) = ep.sock.as_ref() else { return };
    if poll.reregister(sock, Token(conn as usize), want).is_ok() {
        ep.registered = Some(want);
    }
}

fn queue_flush<S: Loop>(flushq: &mut Vec<ConnId>, conn: ConnId, ep: &mut Endpoint<S>) {
    if !ep.flush_queued {
        ep.flush_queued = true;
        flushq.push(conn);
    }
}
