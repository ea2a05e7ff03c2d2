//! Seeded nemesis proxy: deterministic fault injection between real
//! TCP sockets.
//!
//! The simulator exercises the paper's adversarial channel model
//! in-process; this crate brings the same adversary to the deployed
//! service. A [`ChaosNemesis`] interposes one TCP proxy per directed
//! peer link and applies schedule-driven faults — delay, one-slot
//! reorder, duplication, silent drops, connection cuts at and inside
//! frame boundaries, and rotating split-brain partitions — where every
//! decision is drawn from a [`ChaosSchedule`] that is a pure function of
//! `(seed, link, frame index)`. The function itself — fault stream plus
//! partition windows — is `prcc_net::chaos::LinkSchedule`; this crate
//! only logs its decisions and applies them to sockets. A failing run
//! therefore replays exactly from its seed, and the realized decision log
//! can be checked bit-for-bit against [`ChaosSchedule::replay_link`].
//!
//! Fault semantics lean on the service's own recovery machinery rather
//! than faking reliability inside the proxy:
//!
//! * **Drop / partition** — the frame is swallowed. The sender's acked
//!   resend window retains it. The receiver refuses the frames that
//!   arrive past the gap and closes the connection, so the redial resends
//!   from the acked watermark; a drop with no frame behind it waits for
//!   the next connection cut (scheduled, or the final
//!   [`ChaosNemesis::heal`]).
//! * **Cut / mid-frame cut** — the proxied connection is severed (for
//!   mid-frame cuts, after forwarding a strict prefix of the encoded
//!   frame). The dialer's backoff loop re-establishes the link and the
//!   resume handshake replays unacked frames.
//! * **Reorder** — the frame is held back and emitted after the next
//!   forwarded frame, a one-slot non-FIFO inversion.
//!
//! Handshake frames (the first frame of every connection) pass through
//! unfaulted and unscheduled. Every later frame is faulted alike,
//! consistent-cut markers included: the service's cut audit judges a cut
//! by its link sequence stamps, so a dropped, repeated, delayed or
//! reordered marker costs the auditor a retry, never a wrong verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use prcc_net::chaos::LinkSchedule;
pub use prcc_net::chaos::{FaultOp, FaultProfile, LinkDecision, LinkFaultStream};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Frames larger than this are treated as a protocol violation and
/// sever the proxied connection (mirrors the service's frame cap).
const MAX_FRAME_BYTES: usize = 64 << 20;

/// Configuration of one nemesis run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every per-link decision stream derives from it.
    pub seed: u64,
    /// Per-mille fault rates applied to every directed link.
    pub profile: FaultProfile,
    /// Period, in per-link data frames, of the rotating partition
    /// windows. `0` disables partitions.
    pub partition_every: u64,
    /// Leading frames of each period spent partitioned (frames on links
    /// touching the window's isolated node are swallowed).
    pub partition_len: u64,
}

impl ChaosConfig {
    /// A light-profile config with partitions disabled.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            profile: FaultProfile::light(),
            partition_every: 0,
            partition_len: 0,
        }
    }

    /// The pure decision stream of `src → dst` in an `n`-node topology.
    fn link_schedule(&self, n: usize, src: usize, dst: usize) -> LinkSchedule {
        LinkSchedule::new(
            self.seed,
            src,
            dst,
            self.profile,
            n,
            self.partition_every,
            self.partition_len,
        )
    }
}

/// Aggregate counts over a schedule's realized decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames passed through untouched.
    pub delivered: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Frames held back one slot.
    pub reordered: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames silently dropped by the fault stream.
    pub dropped: u64,
    /// Connections severed at a frame boundary.
    pub cut: u64,
    /// Connections severed mid-frame.
    pub cut_mid: u64,
    /// Frames swallowed by partition windows.
    pub partition_dropped: u64,
}

impl FaultCounts {
    fn absorb(&mut self, d: &LinkDecision) {
        if d.partition {
            self.partition_dropped += 1;
            return;
        }
        match d.op {
            FaultOp::Deliver => self.delivered += 1,
            FaultOp::Delay(_) => self.delayed += 1,
            FaultOp::Reorder => self.reordered += 1,
            FaultOp::Duplicate => self.duplicated += 1,
            FaultOp::Drop => self.dropped += 1,
            FaultOp::Cut => self.cut += 1,
            FaultOp::CutMid(_) => self.cut_mid += 1,
        }
    }

    /// Total faulted (non-`Deliver`) decisions.
    pub fn faulted(&self) -> u64 {
        self.delayed
            + self.reordered
            + self.duplicated
            + self.dropped
            + self.cut
            + self.cut_mid
            + self.partition_dropped
    }
}

struct LinkState {
    schedule: LinkSchedule,
    log: Vec<LinkDecision>,
}

/// The deterministic decision source shared by every link proxy.
///
/// `decide(src, dst)` draws the next decision for the link and appends
/// it to the realized log; the same `(config, node count)` always yields
/// the same decision at the same index, which
/// [`ChaosSchedule::replay_link`] recomputes without running anything.
pub struct ChaosSchedule {
    cfg: ChaosConfig,
    n: usize,
    links: Mutex<HashMap<(usize, usize), LinkState>>,
    healed: AtomicBool,
}

impl ChaosSchedule {
    /// Builds the schedule for an `n`-node topology.
    pub fn new(cfg: ChaosConfig, n: usize) -> Self {
        ChaosSchedule {
            cfg,
            n,
            links: Mutex::named(HashMap::new(), "chaos-schedule-links"),
            healed: AtomicBool::new(false),
        }
    }

    /// The config the schedule was built from.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Draws the decision for the next data frame on `src → dst` and
    /// records it in the realized log.
    pub fn decide(&self, src: usize, dst: usize) -> LinkDecision {
        let mut links = self.links.lock();
        let st = links.entry((src, dst)).or_insert_with(|| LinkState {
            schedule: self.cfg.link_schedule(self.n, src, dst),
            log: Vec::new(),
        });
        let d = st.schedule.next().expect("a link schedule never ends");
        st.log.push(d);
        d
    }

    /// Switches the schedule to pass-through: link proxies stop drawing
    /// decisions and forward everything. The realized log freezes.
    pub fn set_healed(&self) {
        self.healed.store(true, Ordering::SeqCst);
    }

    /// True once [`ChaosSchedule::set_healed`] has been called.
    pub fn is_healed(&self) -> bool {
        self.healed.load(Ordering::SeqCst)
    }

    /// The realized decision log, sorted by directed link.
    pub fn decision_log(&self) -> Vec<((usize, usize), Vec<LinkDecision>)> {
        let links = self.links.lock();
        let mut out: Vec<_> = links.iter().map(|(k, st)| (*k, st.log.clone())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Aggregate fault counts over the realized log.
    pub fn fault_counts(&self) -> FaultCounts {
        let links = self.links.lock();
        let mut c = FaultCounts::default();
        for st in links.values() {
            for d in &st.log {
                c.absorb(d);
            }
        }
        c
    }

    /// Pure replay: the first `count` decisions the schedule would draw
    /// on `src → dst` under `cfg` in an `n`-node topology. A live run's
    /// realized per-link log is always a prefix-equal slice of this.
    pub fn replay_link(
        cfg: &ChaosConfig,
        n: usize,
        src: usize,
        dst: usize,
        count: u64,
    ) -> Vec<LinkDecision> {
        cfg.link_schedule(n, src, dst)
            .take(count as usize)
            .collect()
    }

    /// The node isolated by partition window `window` (all its links
    /// swallow frames while the window is active on them).
    pub fn isolated_node(cfg: &ChaosConfig, n: usize, window: u64) -> usize {
        prcc_net::chaos::isolated_node(cfg.seed, n, window)
    }
}

/// The running nemesis: one TCP proxy per directed peer link.
///
/// `launch` binds a listener per link `(src, dst)`;
/// [`ChaosNemesis::peer_addrs_for`] hands node `src` a peer-address
/// vector routing every outbound link through its proxy. Connections are
/// forwarded frame-by-frame with faults applied in the `src → dst`
/// direction; the reverse direction (acks, handshake replies) is copied
/// verbatim so recovery itself is never wedged by the nemesis.
pub struct ChaosNemesis {
    schedule: Arc<ChaosSchedule>,
    upstream: Vec<SocketAddr>,
    proxies: HashMap<(usize, usize), SocketAddr>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    accepters: Vec<thread::JoinHandle<()>>,
}

impl ChaosNemesis {
    /// Starts one proxy per directed link over the given upstream peer
    /// listener addresses.
    pub fn launch(upstream: Vec<SocketAddr>, cfg: ChaosConfig) -> io::Result<ChaosNemesis> {
        let n = upstream.len();
        let schedule = Arc::new(ChaosSchedule::new(cfg, n));
        let conns = Arc::new(Mutex::named(Vec::new(), "chaos-nemesis-conns"));
        let stop = Arc::new(AtomicBool::new(false));
        let mut proxies = HashMap::new();
        let mut accepters = Vec::new();
        for src in 0..n {
            for (dst, &target) in upstream.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let listener = TcpListener::bind("127.0.0.1:0")?;
                listener.set_nonblocking(true)?;
                proxies.insert((src, dst), listener.local_addr()?);
                let (schedule, conns, stop) = (schedule.clone(), conns.clone(), stop.clone());
                accepters.push(
                    thread::Builder::new()
                        .name(format!("chaos-{src}-{dst}"))
                        .spawn(move || {
                            accept_loop(listener, target, (src, dst), schedule, conns, stop)
                        })?,
                );
            }
        }
        Ok(ChaosNemesis {
            schedule,
            upstream,
            proxies,
            conns,
            stop,
            accepters,
        })
    }

    /// The decision source, for logs, counts, and heal state.
    pub fn schedule(&self) -> &Arc<ChaosSchedule> {
        &self.schedule
    }

    /// Peer-address vector for node `src`: every other entry routes
    /// through this nemesis; the node's own slot keeps its real address.
    pub fn peer_addrs_for(&self, src: usize) -> Vec<SocketAddr> {
        (0..self.upstream.len())
            .map(|dst| {
                if dst == src {
                    self.upstream[src]
                } else {
                    self.proxies[&(src, dst)]
                }
            })
            .collect()
    }

    /// Stops injecting faults and severs every live proxied connection
    /// once, forcing reconnect-and-resend from the acked windows so every
    /// frame swallowed by drops or partitions is redelivered. Call before
    /// draining; afterwards the proxies are transparent.
    pub fn heal(&self) {
        self.schedule.set_healed();
        let mut conns = self.conns.lock();
        for c in conns.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    /// Tears the nemesis down: stops accept loops and severs everything.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let mut conns = self.conns.lock();
            for c in conns.drain(..) {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        for h in self.accepters.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosNemesis {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    target: SocketAddr,
    link: (usize, usize),
    schedule: Arc<ChaosSchedule>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let client = match listener.accept() {
            Ok((c, _)) => c,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => return,
        };
        // Upstream down (a crashed node): refuse by closing; the dialer's
        // backoff loop retries until the node is back.
        let up = match TcpStream::connect(target) {
            Ok(u) => u,
            Err(_) => continue,
        };
        let _ = client.set_nodelay(true);
        let _ = up.set_nodelay(true);
        let (c_rd, c_wr) = match (client.try_clone(), up.try_clone()) {
            (Ok(cr), Ok(ur)) => {
                let mut reg = conns.lock();
                reg.push(cr);
                reg.push(ur);
                match (client.try_clone(), up.try_clone()) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => continue,
                }
            }
            _ => continue,
        };
        let sched = schedule.clone();
        let _ = thread::Builder::new()
            .name(format!("chaos-fwd-{}-{}", link.0, link.1))
            .spawn(move || forward(client, up, link, sched));
        let _ = thread::Builder::new()
            .name(format!("chaos-rev-{}-{}", link.0, link.1))
            .spawn(move || backward(c_wr, c_rd));
    }
}

/// Reads one length-prefixed frame (prefix included in the result);
/// `Ok(None)` on clean EOF at a frame boundary.
fn read_frame(rd: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let k = rd.read(&mut prefix[got..])?;
        if k == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection died inside a length prefix",
            ));
        }
        got += k;
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible frame length",
        ));
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&prefix);
    rd.read_exact(&mut frame[4..])?;
    Ok(Some(frame))
}

/// The faulting direction: parses frames off the dialer's stream and
/// applies one schedule decision per data frame.
fn forward(
    mut rd: TcpStream,
    mut wr: TcpStream,
    link: (usize, usize),
    schedule: Arc<ChaosSchedule>,
) {
    // First frame of every connection is the handshake hello: faulting it
    // would wedge the dialer inside its blocking hello-ack read, so it
    // passes clean and uncounted.
    let mut first = true;
    let mut held: Option<Vec<u8>> = None;
    while let Ok(Some(frame)) = read_frame(&mut rd) {
        if first {
            first = false;
            if wr.write_all(&frame).is_err() {
                break;
            }
            continue;
        }
        if schedule.is_healed() {
            if wr.write_all(&frame).is_err() {
                break;
            }
            if let Some(h) = held.take() {
                if wr.write_all(&h).is_err() {
                    break;
                }
            }
            continue;
        }
        let d = schedule.decide(link.0, link.1);
        let dead = match d.op {
            FaultOp::Deliver => wr.write_all(&frame).is_err(),
            FaultOp::Delay(ms) => {
                // A slow link, not a reorder: successors queue behind.
                thread::sleep(Duration::from_millis(ms));
                wr.write_all(&frame).is_err()
            }
            FaultOp::Duplicate => wr.write_all(&frame).is_err() || wr.write_all(&frame).is_err(),
            FaultOp::Reorder => {
                if held.is_none() {
                    held = Some(frame);
                    continue;
                }
                // Never hold two frames; deliver and let the held one out.
                wr.write_all(&frame).is_err()
            }
            FaultOp::Drop => continue,
            FaultOp::Cut => break,
            FaultOp::CutMid(raw) => {
                let cut = 1 + (raw as usize) % (frame.len() - 1);
                let _ = wr.write_all(&frame[..cut]);
                break;
            }
        };
        if dead {
            break;
        }
        if let Some(h) = held.take() {
            if wr.write_all(&h).is_err() {
                break;
            }
        }
    }
    // A held frame dies with the connection; it was never delivered, so
    // it is unacked upstream and the resume handshake resends it.
    let _ = rd.shutdown(Shutdown::Both);
    let _ = wr.shutdown(Shutdown::Both);
}

/// The clean direction: handshake replies and acks copied verbatim, so
/// the recovery path the faults lean on is never itself faulted.
fn backward(mut rd: TcpStream, mut wr: TcpStream) {
    let mut buf = [0u8; 8192];
    loop {
        match rd.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => {
                if wr.write_all(&buf[..k]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = rd.shutdown(Shutdown::Both);
    let _ = wr.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, profile: FaultProfile) -> ChaosSchedule {
        let mut cfg = ChaosConfig::new(seed);
        cfg.profile = profile;
        ChaosSchedule::new(cfg, 4)
    }

    #[test]
    fn realized_log_matches_pure_replay() {
        let s = schedule(11, FaultProfile::heavy());
        for _ in 0..700 {
            s.decide(0, 1);
        }
        for _ in 0..300 {
            s.decide(2, 3);
        }
        let log = s.decision_log();
        for (link, realized) in log {
            let replayed =
                ChaosSchedule::replay_link(s.config(), 4, link.0, link.1, realized.len() as u64);
            assert_eq!(realized, replayed, "link {link:?}");
        }
    }

    #[test]
    fn two_schedules_same_seed_are_bit_identical() {
        let a = schedule(42, FaultProfile::heavy());
        let b = schedule(42, FaultProfile::heavy());
        for _ in 0..500 {
            a.decide(0, 1);
            b.decide(0, 1);
            a.decide(1, 0);
            b.decide(1, 0);
        }
        assert_eq!(a.decision_log(), b.decision_log());
        assert_eq!(a.fault_counts(), b.fault_counts());
    }

    #[test]
    fn partitions_isolate_one_node_per_window() {
        let mut cfg = ChaosConfig::new(9);
        cfg.profile = FaultProfile::off();
        cfg.partition_every = 100;
        cfg.partition_len = 25;
        let n = 4;
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                let decisions = ChaosSchedule::replay_link(&cfg, n, src, dst, 800);
                for window in 0..8u64 {
                    let iso = ChaosSchedule::isolated_node(&cfg, n, window);
                    assert!(iso < n);
                    let touches = src == iso || dst == iso;
                    let inside = decisions[(window * 100 + 10) as usize];
                    assert_eq!(
                        (inside.partition, inside.op),
                        (
                            touches,
                            if touches {
                                FaultOp::Drop
                            } else {
                                FaultOp::Deliver
                            }
                        ),
                        "window {window} iso {iso} link {src}->{dst}"
                    );
                    let just_past = decisions[(window * 100 + 25) as usize];
                    assert!(!just_past.partition);
                }
            }
        }
    }

    #[test]
    fn healed_schedule_stops_logging() {
        let s = schedule(3, FaultProfile::heavy());
        s.decide(0, 1);
        s.set_healed();
        assert!(s.is_healed());
        assert_eq!(s.decision_log()[0].1.len(), 1);
    }

    /// Minimal frame server: accepts one connection, reads frames,
    /// records payloads until EOF.
    fn frame_sink() -> (SocketAddr, std::sync::mpsc::Receiver<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr");
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let (mut conn, _) = match listener.accept() {
                Ok(x) => x,
                Err(_) => return,
            };
            let mut frames = Vec::new();
            while let Ok(Some(f)) = read_frame(&mut conn) {
                frames.push(f[4..].to_vec());
            }
            let _ = tx.send(frames);
        });
        (addr, rx)
    }

    fn send_frame(conn: &mut TcpStream, payload: &[u8]) {
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(payload);
        conn.write_all(&buf).expect("send frame");
    }

    #[test]
    fn off_profile_proxy_is_transparent_and_ordered() {
        let (sink, rx) = frame_sink();
        let mut cfg = ChaosConfig::new(5);
        cfg.profile = FaultProfile::off();
        // upstream[1] is the sink; link 0 -> 1 is the proxied path.
        let nemesis = ChaosNemesis::launch(vec![sink, sink], cfg).expect("launch");
        let via = nemesis.peer_addrs_for(0)[1];
        let mut conn = TcpStream::connect(via).expect("dial proxy");
        send_frame(&mut conn, &[1, 0xaa]); // hello (uncounted)
        for i in 0..20u8 {
            send_frame(&mut conn, &[2, i]);
        }
        drop(conn);
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("sink frames");
        assert_eq!(got.len(), 21);
        for (i, f) in got[1..].iter().enumerate() {
            assert_eq!(f, &vec![2, i as u8]);
        }
        let counts = nemesis.schedule().fault_counts();
        assert_eq!(counts.delivered, 20);
        assert_eq!(counts.faulted(), 0);
    }

    #[test]
    fn duplicate_profile_doubles_every_data_frame() {
        let (sink, rx) = frame_sink();
        let mut cfg = ChaosConfig::new(5);
        cfg.profile = FaultProfile {
            duplicate_pm: 1000,
            ..FaultProfile::off()
        };
        let nemesis = ChaosNemesis::launch(vec![sink, sink], cfg).expect("launch");
        let via = nemesis.peer_addrs_for(0)[1];
        let mut conn = TcpStream::connect(via).expect("dial proxy");
        send_frame(&mut conn, &[1]); // hello
        for i in 0..10u8 {
            send_frame(&mut conn, &[2, i]);
        }
        drop(conn);
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("sink frames");
        assert_eq!(got.len(), 1 + 20, "hello once, every data frame twice");
        for i in 0..10usize {
            assert_eq!(got[1 + 2 * i], got[2 + 2 * i]);
        }
    }

    #[test]
    fn heal_makes_proxies_transparent() {
        let (sink, rx) = frame_sink();
        let mut cfg = ChaosConfig::new(5);
        cfg.profile = FaultProfile {
            drop_pm: 1000,
            ..FaultProfile::off()
        };
        let nemesis = ChaosNemesis::launch(vec![sink, sink], cfg).expect("launch");
        let via = nemesis.peer_addrs_for(0)[1];
        {
            let mut conn = TcpStream::connect(via).expect("dial proxy");
            send_frame(&mut conn, &[1]);
            send_frame(&mut conn, &[2, 1]); // dropped
                                            // Heal severs this connection.
            thread::sleep(Duration::from_millis(50));
            nemesis.heal();
            thread::sleep(Duration::from_millis(50));
        }
        // The sink's single accepted connection is gone; a fresh dial now
        // passes everything (the sink test helper accepts once, so spin a
        // second sink through the same nemesis's other link direction is
        // overkill — assert via the schedule instead).
        let counts = nemesis.schedule().fault_counts();
        assert_eq!(counts.dropped, 1);
        assert!(nemesis.schedule().is_healed());
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("sink frames");
        assert_eq!(got, vec![vec![1]]);
    }
}
