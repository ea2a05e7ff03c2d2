//! The sans-I/O replica core: one state machine, no sockets, threads,
//! files or clocks.
//!
//! A node hosts one replica *role* of every partition the
//! [`PartitionMap`] places on it, each an independent [`Replica`] with its
//! own share-graph-derived clock. [`Core`] is that set of replicas plus the
//! reliable-link state around them, composed as three layers:
//!
//! * **Reliable link** ([`PeerLink`]). Every outbound update gets a
//!   per-link sequence number and parks in that link's *window*; the
//!   receiver acks the highest sequence it has durably received (at the
//!   handshake and periodically in-stream), which prunes the window. After
//!   any reconnect — link loss or node restart — the sender resends the
//!   window suffix past the peer's acknowledged offset, and the receiver's
//!   [`SeqWatermark`] absorbs the overlap exactly, in O(reordering window)
//!   memory.
//! * **Causal delivery** ([`PartitionSlot`]). The paper's replica: issue
//!   advances the clock and sends; receive buffers until predicate `J`
//!   holds; apply merges. Updates carry globally unique wire ids
//!   (`node << WIRE_SEQ_BITS | seq`, `seq` node-global across partitions and
//!   recovered on restart), which key the post-hoc per-partition oracle
//!   replay over collected traces.
//! * **Durability** ([`Stage`]). Every state-mutating input is a
//!   [`WalRecord`] — a client write is an `Issue`, a decoded peer flush
//!   frame a `Receipt`, a trace compaction a `Checkpoint` — and
//!   [`Core::apply`] is the *only* path that mutates durable state: the
//!   live loop builds the record, `apply` stages it (encoded, in memory)
//!   and runs the transition; boot-time replay feeds the decoded records
//!   of `snapshot + log` through the very same function. Because the
//!   transitions are deterministic, replay rebuilds the exact pre-crash
//!   state — clocks, stores, pending buffers, event logs and resend
//!   windows.
//!
//! [`Core::step`] is the single entry point for live input. It returns
//! *what the driver must do next* as a [`Flow`] and appends *everything
//! that must leave the node* to an [`Effect`] list, which the driver
//! releases only after the sweep's staged records are on disk. Time enters
//! through the injected `now` alone, and lazily: the transition functions
//! never read it — they note sampled lifecycle stamps in a scratch list,
//! which `step`/`apply` settle against one clock read — so an unsampled
//! step with the flight recorder off reads no clock at all, and replay
//! (which injects a stopped clock) records nothing through the same code.
//!
//! # Telemetry
//!
//! The core mirrors its logical state into `core_*`/`trace_*` gauges when
//! asked, and the update-lifecycle stage histograms (`wire_us`,
//! `pending_stall_us`, `visibility_us`, `ack_us`, `seal_us`) record stage
//! latencies for 1-in-N sampled updates. Sampling is decided once, at the
//! origin: a sampled write carries its issue stamp in `issued_at` over the
//! live wire, and every downstream stage keys off that stamp being
//! non-zero. The durable codecs deliberately drop the stamps, keeping
//! recovery byte-deterministic. The core also keeps a [`FlightRecorder`]
//! ring of recent structured events for the driver's crash dump.

use crate::node::ServiceConfig;
use crate::wire::{FlushSections, NodeStatus, PartitionCounters, WIRE_SEQ_BITS, WIRE_SEQ_MASK};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, PartitionCut, TraceCheckpoint, UpdateId};
use prcc_clock::{Protocol, WireClock};
use prcc_core::{Replica, SeqWatermark, Update};
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_net::VirtualTime;
use prcc_reactor::ConnId;
use prcc_storage::{encode_record_into, NodeSnapshot, PartitionSnapshot, PeerSnapshot, WalRecord};
use prcc_telemetry::{FlightRecorder, Registry, Sampler, SharedHistogram};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::sync::Arc;

/// How many consistent-cut snapshots the core keeps, newest-first. Cut
/// audits are live-only diagnostics: an auditor that falls more than this
/// many tokens behind simply sees `None` and retries with a fresh token.
const CUTS_KEPT: usize = 8;

/// The injected time source: microseconds since the epoch, read lazily.
pub(crate) type Now<'a> = &'a dyn Fn() -> u64;

/// One sequenced outbound update: `(link seq, partition, update)`.
pub(crate) type Sequenced<C> = (u64, PartitionId, Update<C>);

/// The static deployment a core runs under: the protocol and sharding it
/// was built for, and the two policy knobs its transitions consult.
pub(crate) struct Env<'a, P> {
    pub(crate) protocol: &'a P,
    pub(crate) map: &'a PartitionMap,
    /// Received updates between streamed acknowledgements per link.
    pub(crate) ack_every: u64,
    /// Live trace events per partition above which the acknowledged log
    /// prefix is sealed (0 = only when a snapshot is due).
    pub(crate) trace_compact_at: usize,
}

impl<'a, P> Env<'a, P> {
    pub(crate) fn new(protocol: &'a P, map: &'a PartitionMap, cfg: &ServiceConfig) -> Self {
        Env {
            protocol,
            map,
            ack_every: cfg.ack_every,
            trace_compact_at: cfg.trace_compact_at,
        }
    }
}

/// Input to [`Core::step`]. Connections are named by the opaque [`ConnId`]
/// the driver knows them under; replies come back as [`Effect`]s addressed
/// to the same id.
pub(crate) enum CoreMsg<C> {
    Write {
        partition: PartitionId,
        register: RegisterId,
        value: u64,
        conn: ConnId,
    },
    Read {
        partition: PartitionId,
        register: RegisterId,
        conn: ConnId,
    },
    /// One decoded peer flush frame: sender node, its sections, the frame's
    /// seal barrier, and the inbound connection acknowledgements for this
    /// link travel on.
    Updates {
        peer: usize,
        sections: FlushSections<C>,
        barrier: u64,
        conn: ConnId,
    },
    /// A peer's inbound handshake: reply with the acknowledged resume
    /// offset for that link.
    PeerJoin {
        peer: usize,
        conn: ConnId,
    },
    /// An outbound link (re)connected and the peer acknowledged `acked`:
    /// prune the link's window to it and hand back what must be resent.
    PeerResume {
        peer: usize,
        acked: u64,
        conn: ConnId,
    },
    /// A streamed acknowledgement from a peer arrived.
    PeerAcked {
        peer: usize,
        seq: u64,
    },
    /// A client-driven consistent-cut request: with `start`, record this
    /// node's snapshot for `token` (if unseen) and flood markers to every
    /// peer; either way reply with the recorded snapshot, if any.
    Cut {
        token: u64,
        start: bool,
        conn: ConnId,
    },
    /// A cut marker arrived on a peer update stream: record this node's
    /// snapshot for `token` (if unseen) and propagate markers onward.
    PeerMarker {
        token: u64,
    },
    Status(ConnId),
    Trace(ConnId),
    /// A live metrics scrape: mirror core state into the registry's gauges.
    Metrics(ConnId),
    /// Fault injection: stop immediately, no final snapshot.
    Crash,
    Shutdown,
}

/// One thing that must leave the node. Nothing a processed message
/// produced may escape — no client reply, no peer update, no
/// acknowledgement — until the sweep's staged WAL batch is committed:
/// releasing any of them earlier would let an effect outlive a crash that
/// loses its record. The driver releases them in order at sweep end.
#[derive(Debug)]
pub(crate) enum Effect<C> {
    WriteReply(ConnId, bool),
    /// Deferred like every reply: a read may observe a write staged earlier
    /// in this sweep, and that observation must not escape before the
    /// write's record is committed.
    ReadReply(ConnId, bool, Option<u64>),
    /// An outbound update headed for `peer`'s link driver.
    Send(usize, Sequenced<C>),
    /// A streamed link acknowledgement — requires a WAL sync first.
    Ack(ConnId, u64),
    /// A handshake acknowledgement — same sync-before-promise rule.
    JoinReply(ConnId, u64),
    /// The resume window for a reconnected outbound link, plus the link's
    /// seal barrier at reply time.
    ResumeReply(ConnId, Vec<Sequenced<C>>, u64),
    /// The core's counters; the driver fills in the socket, reactor and
    /// WAL fields only it can see.
    Status(ConnId, Box<NodeStatus>),
    Trace(ConnId, Vec<(TraceCheckpoint, Vec<TraceEvent>)>),
    /// Core gauges are mirrored; the driver adds its own and replies with
    /// the registry snapshot.
    Metrics(ConnId),
    CutReply(ConnId, Option<CutSnapshot>),
    /// A cut marker to broadcast to every peer link. In-order like the
    /// sends around it: an update processed before the marker reaches the
    /// link's command queue first, one processed after it reaches the
    /// queue after — command order is exactly marker order on the wire.
    Marker(u64),
    /// A link's seal barrier advanced; ship the new value to its driver.
    Barrier(usize, u64),
    /// A redial replaced this inbound connection: close the stale one so a
    /// half-open socket cannot keep the peer writing into a black hole.
    Close(ConnId),
}

/// What the driver must do before feeding the next message — control that
/// is ordered against the *message stream*, where [`Effect`]s are ordered
/// against the commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Continue,
    /// The stage crossed its snapshot threshold (and the trace logs are
    /// compacted for it): commit, fold the core into a snapshot and
    /// truncate the log *now*, so the snapshot is a pure function of the
    /// record sequence rather than of where the sweep happens to end.
    SnapshotDue,
    /// Stop draining; commit and release what was processed, take the
    /// final snapshot, exit.
    Shutdown,
    /// Stop immediately: nothing staged commits and nothing queued escapes
    /// — indistinguishable from a crash landing before this sweep's
    /// messages arrived. Carries the flight-recorder event to close on.
    Halt(&'static str),
}

/// The in-memory WAL stage: records encoded but not yet written, plus the
/// index and snapshot-cadence accounting that must advance with them. The
/// driver writes all staged spans as one group-committed batch per sweep.
pub(crate) struct Stage {
    buf: Vec<u8>,
    spans: Vec<(usize, usize)>,
    /// Index the next staged record gets (monotonic across truncations).
    next_index: u64,
    snapshot_every: u64,
    records_since_snapshot: u64,
    /// Logical records staged since boot.
    pub(crate) appends: u64,
    /// Sample stamps of records staged this sweep; the driver records
    /// `wal_append_us` against them once the batch is on disk.
    pub(crate) stamps: Vec<u64>,
}

impl Stage {
    pub(crate) fn new(next_index: u64, snapshot_every: u64) -> Self {
        Stage {
            buf: Vec::new(),
            spans: Vec::new(),
            next_index,
            snapshot_every,
            records_since_snapshot: 0,
            appends: 0,
            stamps: Vec::new(),
        }
    }

    /// Stages one record; infallible (I/O happens at commit). Returns the
    /// record's WAL index.
    pub(crate) fn push<C: WireClock>(&mut self, record: &WalRecord<C>) -> u64 {
        let index = self.next_index;
        let start = self.buf.len();
        encode_record_into(index, record, &mut self.buf);
        self.spans.push((start, self.buf.len() - start));
        self.next_index += 1;
        self.records_since_snapshot += 1;
        self.appends += 1;
        index
    }

    /// Index of the last record staged (0 = none yet).
    pub(crate) fn high(&self) -> u64 {
        self.next_index - 1
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The staged payloads, in order.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.spans
            .iter()
            .map(|&(start, len)| &self.buf[start..start + len])
    }

    /// Drops the staged payloads (committed, or abandoned with the log).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.spans.clear();
    }

    fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every
    }

    /// A snapshot folded every record staged so far.
    pub(crate) fn folded(&mut self) {
        self.records_since_snapshot = 0;
    }
}

/// One hosted partition: the role this node plays in it, the replica state
/// machine, the sealed-prefix checkpoint summary, and the live tail of the
/// partition-local event log.
struct PartitionSlot<P: Protocol> {
    role: ReplicaId,
    replica: Replica<P>,
    /// Summary of the sealed (fully acknowledged, verified-by-construction)
    /// trace prefix — what the post-hoc oracle stitches under `log`.
    checkpoint: TraceCheckpoint,
    /// The live trace suffix; bounded by the compaction threshold plus the
    /// unacknowledged in-flight tail.
    log: Vec<TraceEvent>,
    issued: u64,
    /// Own issues not yet acknowledged by every remote recipient:
    /// `(wire id, remaining (peer, link seq) pairs)`, ascending by wire
    /// id. An issue may be sealed out of the trace log only once it has
    /// left this queue — the seal rule the stitched oracle relies on.
    unacked: VecDeque<(u64, Vec<(usize, u64)>)>,
}

/// One peer link's state, owned by the core (so it is snapshot-able and
/// deterministically rebuilt by WAL replay).
struct PeerLink<C> {
    /// Next outbound sequence to assign (starts at 1).
    next_seq: u64,
    /// Outbound updates not yet acknowledged by the peer, in sequence
    /// order. Entries enter when enqueued to the sender and leave when an
    /// acknowledgement covers them (or the window cap evicts them).
    window: VecDeque<Sequenced<C>>,
    /// Highest outbound sequence the peer has acknowledged.
    acked_high: u64,
    /// Highest outbound sequence evicted by the window cap (0 = none).
    /// Evicted sequences can never be acknowledged — the update copy is
    /// gone — so they are treated as abandoned rather than allowed to
    /// block trace sealing forever; `window_evicted` is the loud record
    /// that delivery to this peer was given up on.
    evicted_high: u64,
    /// Inbound receive watermark: contiguous high-water (the offset this
    /// node acknowledges back) plus the out-of-order residue — also the
    /// exact per-link duplicate filter.
    recv: SeqWatermark,
    /// Updates received (duplicates included — a resend wants its ack
    /// too) since the last streamed acknowledgement.
    updates_since_ack: u64,
    /// Origin side: highest outbound sequence retired from an `unacked`
    /// pair *because the peer acknowledged it* (never because the window
    /// cap evicted it). Every sequence at or below this is provably
    /// observed by the peer, so it is safe to advertise as the link's seal
    /// barrier. Live-only — not snapshotted, rebuilt from fresh acks after
    /// recovery (the barrier is an optimization, never a correctness
    /// input).
    sealed_high: u64,
    /// Origin side: the seal barrier last shipped to the peer's driver
    /// (so barrier effects flow only when the value advances). Live-only.
    barrier_sent: u64,
    /// Receiver side: highest seal barrier seen on this link's inbound
    /// frames, max-monotone. Straggler resends at or below it skip the
    /// watermark dependency re-check in `apply_sections` — by
    /// construction they are duplicates of updates this node already
    /// acknowledged. Live-only: WAL receipts carry no barrier, so replay
    /// takes the full re-check path and stays byte-deterministic.
    seal_barrier: u64,
    /// The live inbound connection from this peer, replaced on redial.
    /// Bound only after a validated handshake, so a garbage connection
    /// cannot evict a healthy link. Live-only.
    inbound: Option<ConnId>,
}

impl<C> PeerLink<C> {
    fn new() -> Self {
        PeerLink {
            next_seq: 1,
            window: VecDeque::new(),
            acked_high: 0,
            evicted_high: 0,
            recv: SeqWatermark::new(),
            updates_since_ack: 0,
            sealed_high: 0,
            barrier_sent: 0,
            seal_barrier: 0,
            inbound: None,
        }
    }
}

/// A sampled lifecycle observation a transition noted, awaiting the clock
/// read that [`CoreTelemetry::settle`] turns into a histogram sample.
enum Sampled {
    /// A sampled copy passed the link watermark: `(wire id, issue stamp)`.
    Received(u64, u64),
    /// A sampled update was applied: `(wire id, issue stamp)`.
    Applied(u64, u64),
    /// An acknowledgement pruned a sampled copy from a resend window.
    Acked(u64),
    /// A sampled own issue's trace event sealed into the checkpoint.
    Sealed(u64),
}

/// The core's telemetry: the metric registry, pre-fetched handles for the
/// lifecycle-stage histograms, the sampling decision, the flight recorder,
/// and the live stamp side-tables.
///
/// Deliberately NOT part of the snapshot/WAL state: every value here is
/// clock-derived, and the recovery suite proves durable bytes are
/// identical across same-seed runs. Stamps therefore ride only the live
/// wire (`issued_at`), never the durable codecs — a recovered core starts
/// with empty side-tables and records nothing during replay, through the
/// same code paths the live loop uses.
pub(crate) struct CoreTelemetry {
    pub(crate) registry: Arc<Registry>,
    sampler: Sampler,
    pub(crate) flight: FlightRecorder,
    /// Sample stamp → WAL append completed. Recorded by the driver, which
    /// owns the commit.
    pub(crate) wal_append_us: Arc<SharedHistogram>,
    /// Issue at origin → frame decoded at a recipient.
    wire_us: Arc<SharedHistogram>,
    /// Issue at origin → applied at a recipient: the end-to-end update
    /// visibility latency the paper's protocol trades against metadata.
    visibility_us: Arc<SharedHistogram>,
    /// Received → applied at a recipient: time buffered behind the
    /// deliverability predicate — the false-dependency cost made visible.
    pending_stall_us: Arc<SharedHistogram>,
    /// Issue at origin → the recipient's acknowledgement pruned the copy
    /// from the resend window.
    ack_us: Arc<SharedHistogram>,
    /// Issue at origin → the issue's trace event sealed into the
    /// checkpoint (every remote recipient acknowledged it).
    seal_us: Arc<SharedHistogram>,
    /// Sampled received-but-unapplied copies: wire id → receive stamp.
    /// Bounded by the pending buffers (entries leave at apply).
    stall_stamps: HashMap<u64, u64>,
    /// This node's own sampled issues: wire id → issue stamp, consumed
    /// when the issue seals. Bounded by the unsealed trace tail.
    seal_stamps: HashMap<u64, u64>,
    /// Observations noted since the last settle (reused scratch).
    due: Vec<Sampled>,
}

impl CoreTelemetry {
    pub(crate) fn new(registry: Arc<Registry>, cfg: &ServiceConfig) -> Self {
        CoreTelemetry {
            sampler: Sampler::new(cfg.sample_every),
            flight: FlightRecorder::new(cfg.flight_events),
            wal_append_us: registry.histogram("wal_append_us"),
            wire_us: registry.histogram("wire_us"),
            visibility_us: registry.histogram("visibility_us"),
            pending_stall_us: registry.histogram("pending_stall_us"),
            ack_us: registry.histogram("ack_us"),
            seal_us: registry.histogram("seal_us"),
            stall_stamps: HashMap::new(),
            seal_stamps: HashMap::new(),
            due: Vec::new(),
            registry,
        }
    }

    /// Turns the noted observations into stage-latency samples against one
    /// clock read — none at all when nothing sampled happened, which is
    /// every unsampled step and all of replay.
    fn settle(&mut self, now: Now<'_>) {
        if self.due.is_empty() {
            return;
        }
        let t = now();
        for sampled in self.due.drain(..) {
            match sampled {
                Sampled::Received(id, issued) => {
                    self.wire_us.record(t.saturating_sub(issued));
                    self.stall_stamps.insert(id, t);
                }
                Sampled::Applied(id, issued) => {
                    if let Some(received) = self.stall_stamps.remove(&id) {
                        self.pending_stall_us.record(t.saturating_sub(received));
                        self.visibility_us.record(t.saturating_sub(issued));
                    }
                }
                Sampled::Acked(issued) => self.ack_us.record(t.saturating_sub(issued)),
                Sampled::Sealed(issued) => self.seal_us.record(t.saturating_sub(issued)),
            }
        }
    }
}

/// The node's full logical state: everything the WAL + snapshot must be
/// able to rebuild, plus the live-only link and audit state around it.
pub(crate) struct Core<P: Protocol> {
    pub(crate) node: usize,
    partitions: Vec<Option<PartitionSlot<P>>>,
    links: Vec<PeerLink<P::Clock>>,
    /// Node-global wire-id sequence (low 40 bits of issued update ids).
    seq: u64,
    issued: u64,
    sent: u64,
    received: u64,
    dropped_misrouted: u64,
    /// Duplicate deliveries suppressed by the link watermarks.
    duplicates_dropped: u64,
    /// Straggler resends dropped by the seal-barrier fast path *without*
    /// the per-sequence watermark re-check (a subset of
    /// `duplicates_dropped`, which still counts them). Live-only: replay
    /// sees no barriers, takes the re-check path, and lands on identical
    /// durable state.
    barrier_skips: u64,
    /// Hard cap on any one resend window (config).
    window_cap: usize,
    /// Largest window observed.
    max_window: u64,
    /// Entries evicted by the cap.
    window_evicted: u64,
    /// Stage histograms, sampling, and the flight recorder (live-only
    /// state — excluded from snapshots and rebuilt empty on recovery).
    pub(crate) tel: CoreTelemetry,
    /// Recent consistent-cut snapshots by token, oldest first, bounded by
    /// [`CUTS_KEPT`]. Live-only audit state: never snapshotted or WAL'd —
    /// a node that restarts mid-audit simply has no snapshot for the
    /// token, and the audit reports the cut incomplete.
    cuts: VecDeque<(u64, CutSnapshot)>,
}

fn corrupt(what: fmt::Arguments<'_>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl<P: Protocol> Core<P> {
    pub(crate) fn new(
        protocol: &P,
        map: &PartitionMap,
        node: usize,
        window_cap: usize,
        tel: CoreTelemetry,
    ) -> Self {
        let roles = map.graph().num_replicas();
        let registers = map.graph().num_registers();
        let partitions = map
            .partitions()
            .map(|p| {
                map.role_on(p, node).map(|role| PartitionSlot {
                    role,
                    replica: Replica::new(protocol, role),
                    checkpoint: TraceCheckpoint::new(roles, registers),
                    log: Vec::new(),
                    issued: 0,
                    unacked: VecDeque::new(),
                })
            })
            .collect();
        Core {
            node,
            partitions,
            links: (0..map.num_nodes()).map(|_| PeerLink::new()).collect(),
            seq: 0,
            issued: 0,
            sent: 0,
            received: 0,
            dropped_misrouted: 0,
            duplicates_dropped: 0,
            barrier_skips: 0,
            window_cap: window_cap.max(1),
            max_window: 0,
            window_evicted: 0,
            tel,
            cuts: VecDeque::new(),
        }
    }

    // lint: hot-path
    /// Processes one message. Touches no socket, thread, file or clock:
    /// WAL records go to `stage` (`None` on a volatile node), everything
    /// that must leave the node is appended to `out`, and the returned
    /// [`Flow`] tells the driver what to do before the next message.
    ///
    /// # Errors
    ///
    /// A transition refusing a record the live path itself built — an
    /// invariant breach the driver treats as fail-stop.
    pub(crate) fn step(
        &mut self,
        env: &Env<'_, P>,
        msg: CoreMsg<P::Clock>,
        now: Now<'_>,
        mut stage: Option<&mut Stage>,
        out: &mut Vec<Effect<P::Clock>>,
    ) -> io::Result<Flow>
    where
        P::Clock: WireClock,
    {
        match msg {
            CoreMsg::Write {
                partition,
                register,
                value,
                conn,
            } => {
                // Checked *before* staging so rejected writes never enter
                // the durable history.
                if !self.can_write(env.protocol, partition, register) {
                    out.push(Effect::WriteReply(conn, false));
                    return Ok(Flow::Continue);
                }
                let wire_id = self.next_wire_id();
                let record = WalRecord::Issue {
                    partition,
                    register,
                    value,
                    wire_id,
                };
                self.apply(env, record, now, stage.as_deref_mut(), out)?;
                self.tel.flight.record(
                    now,
                    "write",
                    &[
                        ("wire_id", wire_id),
                        ("partition", u64::from(partition.0)),
                        ("register", u64::from(register.0)),
                    ],
                );
                out.push(Effect::WriteReply(conn, true));
                return self.after_apply(env, now, stage, out);
            }
            CoreMsg::Read {
                partition,
                register,
                conn,
            } => {
                let (ok, value) = match self
                    .partitions
                    .get(partition.index())
                    .and_then(Option::as_ref)
                    .map(|slot| slot.replica.read(env.protocol, register))
                {
                    Some(Ok(value)) => (true, value),
                    Some(Err(_)) | None => (false, None),
                };
                out.push(Effect::ReadReply(conn, ok, value));
            }
            CoreMsg::Updates {
                peer,
                sections,
                barrier,
                conn,
            } => {
                let Some(link) = self.links.get_mut(peer) else {
                    return Ok(Flow::Continue);
                };
                // Raise the link's seal barrier before applying, so the
                // straggler fast path covers this very frame's own resend
                // overlap.
                link.seal_barrier = link.seal_barrier.max(barrier);
                let updates: u64 = sections.iter().map(|(_, us)| us.len() as u64).sum();
                self.tel.flight.record(
                    now,
                    "recv_frame",
                    &[("peer", peer as u64), ("updates", updates)],
                );
                // The frame joins the sweep's batch, and the
                // acknowledgement below stays queued (and synced) behind
                // the commit — a commit failure drops the frame
                // *unacknowledged* and fail-stops the node, so the peer's
                // window retransmits it to the restarted node.
                let record = WalRecord::Receipt {
                    peer: peer as u64,
                    sections,
                };
                self.apply(env, record, now, stage.as_deref_mut(), out)?;
                let link = &mut self.links[peer];
                // Counted in updates, not frames, so ack traffic (and the
                // sync each ack forces on a durable node) follows the
                // data rate, not the sender's framing.
                link.updates_since_ack += updates;
                if env.ack_every > 0 && link.updates_since_ack >= env.ack_every {
                    link.updates_since_ack = 0;
                    // Acknowledge the watermark's contiguous line only:
                    // residue above a gap stays unacknowledged until the
                    // gap fills.
                    out.push(Effect::Ack(conn, link.recv.high()));
                }
                return self.after_apply(env, now, stage, out);
            }
            CoreMsg::PeerJoin { peer, conn } => {
                let mut acked = 0;
                if let Some(link) = self.links.get_mut(peer) {
                    acked = link.recv.high();
                    if let Some(old) = link.inbound.replace(conn).filter(|&old| old != conn) {
                        out.push(Effect::Close(old));
                    }
                }
                self.tel.flight.record(
                    now,
                    "peer_join",
                    &[("peer", peer as u64), ("acked", acked)],
                );
                // The hello-ack is an acknowledgement too (the dialer
                // prunes and resumes past it).
                out.push(Effect::JoinReply(conn, acked));
            }
            CoreMsg::PeerResume { peer, acked, conn } => {
                self.prune(peer, acked);
                self.tel.settle(now);
                let Some(link) = self.links.get_mut(peer) else {
                    return Ok(Flow::Continue);
                };
                // Ship the link's seal barrier with the resume so the very
                // first post-reconnect flush frames carry it; the reply
                // doubles as the barrier's delivery, so mark it sent.
                link.barrier_sent = link.barrier_sent.max(link.sealed_high);
                let barrier = link.sealed_high;
                let window: Vec<_> = link.window.iter().cloned().collect();
                self.tel.flight.record(
                    now,
                    "peer_resume",
                    &[
                        ("peer", peer as u64),
                        ("acked", acked),
                        ("window", window.len() as u64),
                    ],
                );
                out.push(Effect::ResumeReply(conn, window, barrier));
            }
            CoreMsg::PeerAcked { peer, seq } => {
                self.prune(peer, seq);
                self.tel.settle(now);
            }
            CoreMsg::Cut { token, start, conn } => {
                if start {
                    // Snapshot *now*, at this message's position: writes
                    // processed earlier in the sweep are inside the cut,
                    // later ones outside it.
                    self.sight_cut(env.map, token, "cut_start", now, out);
                }
                out.push(Effect::CutReply(conn, self.cut_snapshot(token)));
            }
            CoreMsg::PeerMarker { token } => {
                self.sight_cut(env.map, token, "cut_marker", now, out);
            }
            CoreMsg::Status(conn) => {
                // lint: allow(alloc) status scrape is the cold admin path
                out.push(Effect::Status(conn, Box::new(self.status())));
            }
            CoreMsg::Trace(conn) => out.push(Effect::Trace(conn, self.traces())),
            CoreMsg::Metrics(conn) => {
                self.mirror_gauges();
                out.push(Effect::Metrics(conn));
            }
            CoreMsg::Crash => return Ok(Flow::Halt("crash")),
            CoreMsg::Shutdown => {
                // Seal what the final snapshot may fold; the record rides
                // the sweep's last commit.
                if stage.is_some() {
                    self.compact(env, 1, now, stage, out)?;
                }
                return Ok(Flow::Shutdown);
            }
        }
        Ok(Flow::Continue)
    }

    /// Closes a sweep, just before the driver commits and releases: seal
    /// barriers advance only under the acks the sweep processed, so any new
    /// value ships once per sweep, alongside its other effects.
    pub(crate) fn end_sweep(&mut self, out: &mut Vec<Effect<P::Clock>>) {
        for (peer, link) in self.links.iter_mut().enumerate() {
            if link.sealed_high > link.barrier_sent {
                link.barrier_sent = link.sealed_high;
                out.push(Effect::Barrier(peer, link.sealed_high));
            }
        }
    }

    /// The one post-apply block: compact the trace logs past the
    /// configured threshold, and when the stage says a snapshot is due,
    /// compact fully and hand the fold to the driver.
    fn after_apply(
        &mut self,
        env: &Env<'_, P>,
        now: Now<'_>,
        mut stage: Option<&mut Stage>,
        out: &mut Vec<Effect<P::Clock>>,
    ) -> io::Result<Flow>
    where
        P::Clock: WireClock,
    {
        if env.trace_compact_at > 0 {
            self.compact(env, env.trace_compact_at, now, stage.as_deref_mut(), out)?;
        }
        if stage.as_deref().is_some_and(Stage::snapshot_due) {
            self.compact(env, 1, now, stage, out)?;
            return Ok(Flow::SnapshotDue);
        }
        Ok(Flow::Continue)
    }

    /// Seals every fully-acknowledged trace prefix of at least
    /// `min_events` live events, as a [`WalRecord::Checkpoint`] through
    /// the same [`Core::apply`] path as every other mutation (so replay
    /// reproduces the identical seal points).
    fn compact(
        &mut self,
        env: &Env<'_, P>,
        min_events: usize,
        now: Now<'_>,
        stage: Option<&mut Stage>,
        out: &mut Vec<Effect<P::Clock>>,
    ) -> io::Result<()>
    where
        P::Clock: WireClock,
    {
        let seals = self.plan_seal(min_events);
        if seals.is_empty() {
            return Ok(());
        }
        let partitions = seals.len() as u64;
        let events: u64 = seals.iter().map(|&(_, n)| n).sum();
        self.apply(env, WalRecord::Checkpoint { seals }, now, stage, out)?;
        self.tel.flight.record(
            now,
            "seal",
            &[("partitions", partitions), ("events", events)],
        );
        Ok(())
    }

    /// The single mutation path, shared by the live loop and WAL replay:
    /// validates `record`, stages it (live durable nodes only — replay and
    /// volatile nodes pass `None`), runs its transition, and settles the
    /// sampled stamps the transition noted. Outbound copies an issue
    /// produces land in `out` as [`Effect::Send`]s (replay discards them —
    /// links pull their windows on the first handshake instead).
    ///
    /// Sampling is decided here, once, at the origin: a sampled issue's
    /// stamp rides `issued_at` over the live wire only — the durable codecs
    /// drop it, so it never perturbs the deterministic state below — and a
    /// sampled staged receipt times the recipient-side append. Replay
    /// injects a stopped clock (`now() == 0`), so it stamps nothing.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a record this deployment cannot have produced
    /// (an issue for an unhosted register, a receipt from an out-of-range
    /// peer): replay refuses to boot on it.
    pub(crate) fn apply(
        &mut self,
        env: &Env<'_, P>,
        record: WalRecord<P::Clock>,
        now: Now<'_>,
        stage: Option<&mut Stage>,
        out: &mut Vec<Effect<P::Clock>>,
    ) -> io::Result<()>
    where
        P::Clock: WireClock,
    {
        let stamp_us = match &record {
            WalRecord::Issue {
                partition,
                register,
                ..
            } => {
                if !self.can_write(env.protocol, *partition, *register) {
                    return Err(corrupt(format_args!(
                        "issue for unhosted {partition}/{register}"
                    )));
                }
                if self.tel.sampler.hit() {
                    now()
                } else {
                    0
                }
            }
            WalRecord::Receipt { peer, .. } => {
                if *peer >= self.links.len() as u64 {
                    return Err(corrupt(format_args!(
                        "receipt from out-of-range peer {peer}"
                    )));
                }
                if stage.is_some() && self.tel.sampler.hit() {
                    now()
                } else {
                    0
                }
            }
            WalRecord::Checkpoint { .. } | WalRecord::Digest { .. } => 0,
        };
        if let Some(stage) = stage {
            let index = stage.push(&record);
            self.tel
                .flight
                .record(now, "wal_append", &[("index", index)]);
            if stamp_us != 0 {
                stage.stamps.push(stamp_us);
            }
        }
        match record {
            WalRecord::Issue {
                partition,
                register,
                value,
                wire_id,
            } => {
                let sends = self
                    .apply_write(
                        env.protocol,
                        env.map,
                        partition,
                        register,
                        value,
                        wire_id,
                        stamp_us,
                    )
                    .ok_or_else(|| corrupt(format_args!("issue failed to apply")))?;
                out.extend(
                    sends
                        .into_iter()
                        .map(|(peer, seq, p, update)| Effect::Send(peer, (seq, p, update))),
                );
            }
            WalRecord::Receipt { peer, sections } => {
                self.apply_sections(env.protocol, peer as usize, sections);
            }
            WalRecord::Checkpoint { seals } => self.apply_seal(env.map, &seals),
            // A snapshot's integrity guard, not a transition: recovery
            // checks it against the decoded checkpoints.
            WalRecord::Digest { .. } => {}
        }
        self.tel.settle(now);
        Ok(())
    }
    // lint: end-hot-path

    /// Records this node's side of cut `token` at its first sighting and
    /// floods the marker onward; later sightings of the same token are the
    /// expected echoes from the other peer links.
    fn sight_cut(
        &mut self,
        map: &PartitionMap,
        token: u64,
        what: &'static str,
        now: Now<'_>,
        out: &mut Vec<Effect<P::Clock>>,
    ) {
        if self.cuts.iter().any(|(t, _)| *t == token) {
            return;
        }
        self.record_cut(map, token);
        self.tel.flight.record(now, what, &[("token", token)]);
        out.push(Effect::Marker(token));
    }

    /// The recorded snapshot for `token`, if it is still retained.
    fn cut_snapshot(&self, token: u64) -> Option<CutSnapshot> {
        self.cuts
            .iter()
            .find(|(t, _)| *t == token)
            .map(|(_, snap)| snap.clone())
    }

    /// Records this node's side of consistent cut `token`: for every
    /// hosted partition, the issued frontier and the per-issuer-role
    /// applied frontiers *at this instant* — the sealed checkpoint summary
    /// joined with the live log tail, which is exactly the state the
    /// post-hoc oracle would reconstruct up to this point. Wire ids are
    /// monotone per issuer and applied in issue order per issuer, so these
    /// frontiers completely describe the cut for the closure check in
    /// [`prcc_checker::verify_cut_closure`].
    fn record_cut(&mut self, map: &PartitionMap, token: u64) {
        let mut partitions = Vec::with_capacity(self.partitions.len());
        for (index, slot) in self.partitions.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let partition = PartitionId(index as u32);
            let mut issued_high = slot.checkpoint.last_issue;
            let mut applied = slot.checkpoint.applied_high.clone();
            for event in &slot.log {
                match event {
                    TraceEvent::Issue { update, .. } => {
                        issued_high = issued_high.max(*update);
                        // An issue is applied at its issuer the moment it
                        // is issued (step 2 of the prototype).
                        if let Some(high) = applied.get_mut(slot.role.index()) {
                            *high = (*high).max(*update);
                        }
                    }
                    TraceEvent::Apply { update, .. } => {
                        let issuer_node = (*update >> WIRE_SEQ_BITS) as usize;
                        if let Some(role) = map.role_on(partition, issuer_node) {
                            if let Some(high) = applied.get_mut(role.index()) {
                                *high = (*high).max(*update);
                            }
                        }
                    }
                }
            }
            partitions.push(PartitionCut {
                partition: partition.0,
                role: slot.role.index(),
                issued_high,
                applied,
                pending: slot.replica.pending_len() as u64,
            });
        }
        self.cuts.push_back((
            token,
            CutSnapshot {
                node: self.node as u64,
                token,
                partitions,
            },
        ));
        while self.cuts.len() > CUTS_KEPT {
            self.cuts.pop_front();
        }
    }

    /// Whether a client write to `(partition, register)` can be accepted
    /// here.
    fn can_write(&self, protocol: &P, partition: PartitionId, register: RegisterId) -> bool {
        self.partitions
            .get(partition.index())
            .and_then(Option::as_ref)
            .is_some_and(|slot| protocol.share_graph().stores(slot.role, register))
    }

    fn next_wire_id(&mut self) -> u64 {
        self.seq += 1;
        ((self.node as u64) << WIRE_SEQ_BITS) | self.seq
    }

    /// Applies an accepted client write: advances the replica, records the
    /// trace event, and parks a copy in every recipient peer's window.
    /// Returns the `(peer, seq, partition, update)` copies to send.
    ///
    /// `stamp_us` is the issue stamp of a *sampled* live write (0 =
    /// unsampled, and always 0 on replay).
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn apply_write(
        &mut self,
        protocol: &P,
        map: &PartitionMap,
        partition: PartitionId,
        register: RegisterId,
        value: u64,
        wire_id: u64,
        stamp_us: u64,
    ) -> Option<Vec<(usize, u64, PartitionId, Update<P::Clock>)>> {
        self.seq = self.seq.max(wire_id & WIRE_SEQ_MASK);
        let node = self.node;
        let slot = self
            .partitions
            .get_mut(partition.index())
            .and_then(Option::as_mut)?;
        let clock = slot.replica.write(protocol, register, value).ok()?;
        slot.log.push(TraceEvent::Issue {
            replica: slot.role,
            register,
            update: wire_id,
        });
        slot.issued += 1;
        self.issued += 1;
        let update = Update {
            id: UpdateId(wire_id),
            issuer: slot.role,
            register,
            value,
            clock,
            issued_at: VirtualTime(stamp_us),
            received_at: VirtualTime::ZERO,
        };
        if stamp_us != 0 {
            self.tel.seal_stamps.insert(wire_id, stamp_us);
        }
        let mut sends = Vec::new();
        let mut pairs = Vec::new();
        for recipient in protocol.recipients(slot.role, register) {
            let peer = map.node_of(partition, recipient);
            if peer == node {
                continue;
            }
            let link = &mut self.links[peer];
            let seq = link.next_seq;
            link.next_seq += 1;
            link.window.push_back((seq, partition, update.clone()));
            // Cap the window: a peer stranded past `window_cap` must not
            // grow this node without bound. Evicted entries cannot be
            // resent — the eviction counter is the loud signal that the
            // peer needs a fresh data dir when it returns.
            while link.window.len() > self.window_cap {
                if let Some((evicted, _, _)) = link.window.pop_front() {
                    link.evicted_high = link.evicted_high.max(evicted);
                }
                self.window_evicted += 1;
            }
            self.max_window = self.max_window.max(link.window.len() as u64);
            self.sent += 1;
            pairs.push((peer, seq));
            sends.push((peer, seq, partition, update.clone()));
        }
        if !pairs.is_empty() {
            // Track until every recipient acks: only then may the issue's
            // trace event be sealed out of the live log.
            slot.unacked.push_back((wire_id, pairs));
        }
        Some(sends)
    }

    /// Applies one peer flush frame's sections: dedups against the link's
    /// receive watermark, feeds the replicas, and records apply events.
    ///
    /// The watermark's contiguous high-water is the acknowledgement line:
    /// acknowledging sequence `s` promises every sequence `<= s` is
    /// durable, so a gap — which can only mean an earlier frame was
    /// dropped (e.g. its WAL append failed) — holds the line (out-of-order
    /// arrivals wait in the watermark's residue) rather than being skipped
    /// over, or the sender would prune updates this node never kept.
    ///
    /// The same watermark is the duplicate filter: resend overlap after a
    /// reconnect is dropped *here*, at the link, in O(reordering window)
    /// memory. Every copy passes it — the wire decoder refuses link
    /// sequence 0, so nothing arrives unsequenced — because a re-delivered
    /// copy reaching [`Replica::receive`] would pin the pending buffer
    /// forever.
    fn apply_sections(&mut self, protocol: &P, peer: usize, sections: FlushSections<P::Clock>) {
        let node = self.node;
        for (partition, updates) in sections {
            let Some(slot) = self
                .partitions
                .get_mut(partition.index())
                .and_then(Option::as_mut)
            else {
                // Misrouted section: the reader already validated the
                // partition range, so this is a hosting mismatch.
                self.dropped_misrouted += updates.len() as u64;
                eprintln!(
                    "prcc-service[{node}]: dropped {} updates for unhosted {partition}",
                    updates.len()
                );
                continue;
            };
            for (seq, update) in updates {
                self.received += 1;
                // Seal-barrier fast path: the origin advertised that every
                // sequence at or below the barrier is acknowledged here, so
                // a straggler resend underneath it is a duplicate by
                // construction — drop it without the watermark re-check.
                // Identical counter motion to the slow path (the watermark
                // would have returned `false`), so replay — which never
                // sees a barrier — lands on the same `duplicates_dropped`.
                if seq <= self.links[peer].seal_barrier {
                    self.barrier_skips += 1;
                    self.duplicates_dropped += 1;
                    continue;
                }
                if !self.links[peer].recv.observe(seq) {
                    self.duplicates_dropped += 1;
                    continue;
                }
                if update.issued_at.0 != 0 {
                    self.tel
                        .due
                        .push(Sampled::Received(update.id.0, update.issued_at.0));
                }
                // The replica's own `received_at` stays at virtual zero:
                // pending-buffer state is snapshotted, and real time in it
                // would break byte-identical recovery. Stall accounting
                // lives in the telemetry side-table instead.
                slot.replica.receive(update, VirtualTime::ZERO);
            }
            for done in slot.replica.drain(protocol) {
                if done.issued_at.0 != 0 {
                    self.tel
                        .due
                        .push(Sampled::Applied(done.id.0, done.issued_at.0));
                }
                if protocol.stores_value(slot.role, done.register) {
                    slot.log.push(TraceEvent::Apply {
                        replica: slot.role,
                        update: done.id.0,
                    });
                }
            }
        }
    }

    /// Prunes a link's window: the peer has acknowledged everything up to
    /// and including `acked`. Sampled copies leaving the window note the
    /// acknowledgement stage; entries restored from a snapshot lost their
    /// stamps in the durable codec and note nothing.
    fn prune(&mut self, peer: usize, acked: u64) {
        let Some(link) = self.links.get_mut(peer) else {
            return;
        };
        link.acked_high = link.acked_high.max(acked);
        while let Some((seq, _, update)) = link.window.front() {
            if *seq > acked {
                break;
            }
            if update.issued_at.0 != 0 {
                self.tel.due.push(Sampled::Acked(update.issued_at.0));
            }
            link.window.pop_front();
        }
    }

    /// Plans a trace compaction: for every hosted partition whose live log
    /// holds at least `min_events` entries, the longest log prefix whose
    /// issues have all been acknowledged by every remote recipient.
    /// Applies may always seal; an unacknowledged issue blocks itself and
    /// everything after it (the stitched oracle's liveness guarantee rests
    /// on sealed issues being durable at all their recipients).
    ///
    /// Consumes fully-acknowledged entries off the `unacked` queues (an
    /// un-logged mutation: which entries are acked is derived state, only
    /// the resulting seal lengths are logged and replayed).
    fn plan_seal(&mut self, min_events: usize) -> Vec<(PartitionId, u64)> {
        let mut seals = Vec::new();
        let links = &mut self.links;
        for (p, slot) in self.partitions.iter_mut().enumerate() {
            let Some(slot) = slot.as_mut() else { continue };
            if slot.log.len() < min_events.max(1) {
                continue;
            }
            while let Some((_, pairs)) = slot.unacked.front_mut() {
                // A pair stops blocking once acknowledged — or once its
                // window entry was evicted by the cap (it can never be
                // acknowledged then; `window_evicted` records the loss).
                // Pairs retired *because acknowledged* advance the link's
                // seal barrier: the peer provably observed them, so future
                // resends at or below `sealed_high` can skip its
                // dependency re-check. Evicted pairs must never advance it
                // — the peer never saw those.
                pairs.retain(|&(peer, seq)| {
                    let Some(link) = links.get_mut(peer) else {
                        // No such link: keep blocking (this cannot happen
                        // for a validated map, but silently unblocking
                        // would falsely seal).
                        return true;
                    };
                    let keep = seq > link.acked_high && seq > link.evicted_high;
                    if !keep && seq <= link.acked_high {
                        link.sealed_high = link.sealed_high.max(seq);
                    }
                    keep
                });
                if pairs.is_empty() {
                    slot.unacked.pop_front();
                } else {
                    break;
                }
            }
            // Entries sit in wire-id order, so the first still-unacked
            // issue bounds the sealable prefix.
            let blocked = slot.unacked.front().map(|&(wire, _)| wire);
            let sealable = slot
                .log
                .iter()
                .take_while(|event| match event {
                    TraceEvent::Issue { update, .. } => blocked.is_none_or(|b| *update < b),
                    TraceEvent::Apply { .. } => true,
                })
                .count();
            if sealable > 0 {
                seals.push((PartitionId(p as u32), sealable as u64));
            }
        }
        seals
    }

    /// Applies a (planned or replayed) trace compaction: absorbs each
    /// partition's prefix into its checkpoint summary and discards it, so
    /// recovered checkpoint + suffix pairs match the pre-crash state
    /// exactly.
    fn apply_seal(&mut self, map: &PartitionMap, seals: &[(PartitionId, u64)]) {
        for &(partition, events) in seals {
            let Some(slot) = self
                .partitions
                .get_mut(partition.index())
                .and_then(Option::as_mut)
            else {
                continue;
            };
            let events = (events as usize).min(slot.log.len());
            // Seal stage for sampled own issues leaving the live log.
            // Replay reaches here with an empty side-table, so recorded
            // seals replay silently.
            for event in &slot.log[..events] {
                if let TraceEvent::Issue { update, .. } = event {
                    if let Some(stamp) = self.tel.seal_stamps.remove(update) {
                        self.tel.due.push(Sampled::Sealed(stamp));
                    }
                }
            }
            slot.checkpoint.absorb(&slot.log[..events], |w| {
                map.role_on(partition, (w >> WIRE_SEQ_BITS) as usize)
            });
            slot.log.drain(..events);
            // Drop queue entries the seal covered (replay reaches here
            // with post-snapshot ack state, where they may still linger).
            while slot
                .unacked
                .front()
                .is_some_and(|&(wire, _)| wire <= slot.checkpoint.last_issue)
            {
                slot.unacked.pop_front();
            }
        }
    }

    /// The core's own counters; socket, reactor and WAL fields stay zero
    /// for the driver to fill in.
    fn status(&self) -> NodeStatus {
        let hosted = || self.partitions.iter().flatten();
        NodeStatus {
            node: self.node as u64,
            issued: self.issued,
            messages_sent: self.sent,
            messages_received: self.received,
            applies: hosted().map(|s| s.replica.applies()).sum(),
            pending: hosted().map(|s| s.replica.pending_len() as u64).sum(),
            duplicates_dropped: self.duplicates_dropped,
            dropped_misrouted: self.dropped_misrouted,
            trace_events: hosted().map(|s| s.log.len() as u64).sum(),
            sealed_events: hosted().map(|s| s.checkpoint.events).sum(),
            max_window: self.max_window,
            window_evicted: self.window_evicted,
            barrier_skips: self.barrier_skips,
            per_partition: self
                .partitions
                .iter()
                .map(|slot| match slot {
                    Some(slot) => PartitionCounters {
                        issued: slot.issued,
                        applies: slot.replica.applies(),
                        pending: slot.replica.pending_len() as u64,
                    },
                    None => PartitionCounters::default(),
                })
                .collect(),
            ..NodeStatus::default()
        }
    }

    /// Mirrors the core's logical state into the registry's gauges, so a
    /// metrics snapshot taken right after reflects this instant. Cold
    /// path: runs only per scrape.
    fn mirror_gauges(&self) {
        let status = self.status();
        let r = &self.tel.registry;
        r.gauge("core_issued").set(status.issued);
        r.gauge("core_applies").set(status.applies);
        r.gauge("core_pending").set(status.pending);
        r.gauge("core_duplicates_dropped")
            .set(status.duplicates_dropped);
        r.gauge("core_dropped_misrouted")
            .set(status.dropped_misrouted);
        r.gauge("core_max_window").set(status.max_window);
        r.gauge("core_window_evicted").set(status.window_evicted);
        r.gauge("core_barrier_skips").set(status.barrier_skips);
        r.gauge("trace_events_live").set(status.trace_events);
        r.gauge("trace_events_sealed").set(status.sealed_events);
    }

    fn traces(&self) -> Vec<(TraceCheckpoint, Vec<TraceEvent>)> {
        self.partitions
            .iter()
            .map(|slot| match slot.as_ref() {
                Some(s) => (s.checkpoint.clone(), s.log.clone()),
                // Unhosted: an empty placeholder (the collector regroups
                // by hosted role and never reads these).
                None => (TraceCheckpoint::new(0, 0), Vec::new()),
            })
            .collect()
    }

    /// One `(partition, sealed events, chained digest)` triple per hosted
    /// partition, ascending by partition index — what a snapshot's
    /// [`WalRecord::Digest`] guard records and recovery re-checks.
    pub(crate) fn sealed_digests(&self) -> Vec<(PartitionId, u64, u64)> {
        self.partitions
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().map(|s| {
                    (
                        PartitionId(i as u32),
                        s.checkpoint.events,
                        s.checkpoint.digest,
                    )
                })
            })
            .collect()
    }

    /// Folds the core into a snapshot covering WAL records `..= wal_high`.
    pub(crate) fn to_snapshot(&self, wal_high: u64) -> NodeSnapshot<P::Clock>
    where
        P::Clock: WireClock,
    {
        NodeSnapshot {
            wal_high,
            seq: self.seq,
            issued: self.issued,
            sent: self.sent,
            received: self.received,
            dropped_misrouted: self.dropped_misrouted,
            duplicates_dropped: self.duplicates_dropped,
            partitions: self
                .partitions
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|slot| PartitionSnapshot {
                        state: slot.replica.export_state(),
                        issued: slot.issued,
                        checkpoint: slot.checkpoint.clone(),
                        log: slot.log.clone(),
                    })
                })
                .collect(),
            peers: self
                .links
                .iter()
                .map(|link| PeerSnapshot {
                    next_seq: link.next_seq,
                    acked_high: link.acked_high,
                    recv_high: link.recv.high(),
                    recv_residue: link.recv.residue().collect(),
                    window: link.window.iter().cloned().collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a core from a snapshot, validating it against the current
    /// deployment configuration.
    pub(crate) fn from_snapshot(
        protocol: &P,
        map: &PartitionMap,
        node: usize,
        window_cap: usize,
        snap: NodeSnapshot<P::Clock>,
        tel: CoreTelemetry,
    ) -> io::Result<Self> {
        let bad = |what: &str| corrupt(format_args!("snapshot: {what}"));
        if snap.partitions.len() != map.num_partitions() as usize {
            return Err(bad("partition count differs from the map"));
        }
        if snap.peers.len() != map.num_nodes() {
            return Err(bad("peer count differs from the map"));
        }
        let mut core = Core::new(protocol, map, node, window_cap, tel);
        for (slot, part) in core.partitions.iter_mut().zip(snap.partitions) {
            match (slot, part) {
                (None, None) => {}
                (Some(slot), Some(part)) => {
                    if part.state.id != slot.role {
                        return Err(bad("partition role differs from the map"));
                    }
                    slot.replica = Replica::from_state(protocol, part.state)
                        .map_err(|e| bad(&format!("replica state: {e}")))?;
                    slot.checkpoint = part.checkpoint;
                    slot.log = part.log;
                    slot.issued = part.issued;
                }
                _ => return Err(bad("hosted partitions differ from the map")),
            }
        }
        // Seal-barrier and inbound-connection state is live-only: a
        // restarted node re-derives it from post-recovery acks and
        // handshakes, so replay stays byte-deterministic.
        for (link, peer) in core.links.iter_mut().zip(snap.peers) {
            link.next_seq = peer.next_seq;
            link.window = peer.window.into();
            link.acked_high = peer.acked_high;
            link.recv = SeqWatermark::from_parts(peer.recv_high, peer.recv_residue);
        }
        core.seq = snap.seq;
        core.issued = snap.issued;
        core.sent = snap.sent;
        core.received = snap.received;
        core.dropped_misrouted = snap.dropped_misrouted;
        core.duplicates_dropped = snap.duplicates_dropped;
        core.rebuild_unacked();
        Ok(core)
    }

    /// Rebuilds the per-partition unacknowledged-issue queues from the
    /// resend windows (the windows are the source of truth: an issue is
    /// fully acknowledged exactly when no window still parks a copy).
    /// Only this node's own issues gate trace sealing, so forwarded
    /// partitions' entries resolve through the wire id's node bits.
    fn rebuild_unacked(&mut self) {
        let own = (self.node as u64) << WIRE_SEQ_BITS;
        let mut by_wire: HashMap<u64, (PartitionId, Vec<(usize, u64)>)> = HashMap::new();
        for (peer, link) in self.links.iter().enumerate() {
            for &(seq, partition, ref update) in &link.window {
                if update.id.0 & !WIRE_SEQ_MASK != own {
                    continue; // Not issued here (cannot happen today).
                }
                by_wire
                    .entry(update.id.0)
                    .or_insert_with(|| (partition, Vec::new()))
                    .1
                    .push((peer, seq));
            }
        }
        let mut queued: Vec<_> = by_wire.into_iter().collect();
        queued.sort_unstable_by_key(|&(wire, _)| wire);
        for (wire, (partition, pairs)) in queued {
            if let Some(slot) = self
                .partitions
                .get_mut(partition.index())
                .and_then(Option::as_mut)
            {
                slot.unacked.push_back((wire, pairs));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_clock::{EdgeClock, EdgeProtocol};
    use prcc_graph::topologies;

    fn ring_core(
        node: usize,
        window_cap: usize,
    ) -> (EdgeProtocol, PartitionMap, Core<EdgeProtocol>) {
        let graph = topologies::ring(3);
        let map = PartitionMap::rotated(graph.clone(), 1, 3).expect("valid map");
        let protocol = EdgeProtocol::new(graph);
        let tel = CoreTelemetry::new(Arc::new(Registry::new()), &ServiceConfig::default());
        let core = Core::new(&protocol, &map, node, window_cap, tel);
        (protocol, map, core)
    }

    /// Issues one write on `core` that ships a copy to the other node,
    /// returning the `(peer, seq, partition, update)` send. Scans the
    /// register space for one this node's role may write with a remote
    /// recipient — the topology guarantees at least one exists.
    fn remote_write(
        protocol: &EdgeProtocol,
        map: &PartitionMap,
        core: &mut Core<EdgeProtocol>,
    ) -> (
        usize,
        u64,
        PartitionId,
        Update<<EdgeProtocol as Protocol>::Clock>,
    ) {
        let partition = PartitionId(0);
        for r in 0..map.graph().num_registers() {
            let register = RegisterId(r as u32);
            if !core.can_write(protocol, partition, register) {
                continue;
            }
            let wire_id = core.next_wire_id();
            let sends = core
                .apply_write(protocol, map, partition, register, 7, wire_id, 0)
                .expect("can_write gated");
            if let Some(send) = sends.into_iter().find(|(peer, ..)| *peer != core.node) {
                return send;
            }
        }
        panic!("no register with a remote recipient");
    }

    #[test]
    fn sealed_high_advances_only_on_acked_retirement() {
        let (protocol, map, mut core) = ring_core(0, 64);
        let (peer, seq, _, _) = remote_write(&protocol, &map, &mut core);

        // Unacknowledged: the pair blocks its seal and the barrier stays.
        assert!(core.plan_seal(1).is_empty());
        assert_eq!(core.links[peer].sealed_high, 0);

        // Acked retirement advances the barrier and unblocks the seal.
        core.prune(peer, seq);
        assert!(!core.plan_seal(1).is_empty());
        assert_eq!(core.links[peer].sealed_high, seq);
    }

    #[test]
    fn evicted_pairs_never_advance_sealed_high() {
        let (protocol, map, mut core) = ring_core(0, 1);
        let (peer, first_seq, _, _) = remote_write(&protocol, &map, &mut core);
        let (_, second_seq, _, _) = remote_write(&protocol, &map, &mut core);
        assert_eq!((first_seq, second_seq), (1, 2), "cap 1 evicts the first");
        assert_eq!(core.window_evicted, 1);

        // The evicted pair retires (it can never be acked) but must not
        // advance the barrier — the peer never observed it. The second
        // pair still blocks.
        core.plan_seal(1);
        assert_eq!(core.links[peer].sealed_high, 0);
        assert_eq!(core.links[peer].evicted_high, first_seq);
    }

    #[test]
    fn barrier_fast_path_matches_slow_path_counters() {
        let (protocol, map, mut origin) = ring_core(0, 64);
        let (peer, seq, partition, update) = remote_write(&protocol, &map, &mut origin);
        let sections: FlushSections<_> = vec![(partition, vec![(seq, update)])];

        let (_, _, mut receiver) = ring_core(peer, 64);
        receiver.apply_sections(&protocol, 0, sections.clone());
        let applied_log = receiver.partitions[partition.index()]
            .as_ref()
            .expect("hosted")
            .log
            .len();
        assert_eq!(receiver.duplicates_dropped, 0);

        // Straggler resend without a barrier: the watermark (slow path)
        // catches the duplicate.
        receiver.apply_sections(&protocol, 0, sections.clone());
        assert_eq!(receiver.duplicates_dropped, 1);
        assert_eq!(receiver.barrier_skips, 0);

        // With the origin's seal barrier covering the sequence, the fast
        // path drops it before the watermark — same counter motion, same
        // replica state.
        receiver.links[0].seal_barrier = seq;
        receiver.apply_sections(&protocol, 0, sections);
        assert_eq!(receiver.duplicates_dropped, 2);
        assert_eq!(receiver.barrier_skips, 1);
        assert_eq!(
            receiver.partitions[partition.index()]
                .as_ref()
                .expect("hosted")
                .log
                .len(),
            applied_log,
            "neither duplicate re-applied anything"
        );
    }

    /// `n` remote writes from a fresh node-0 core: the peer they go to and
    /// the `(seq, update)` copies, all of one partition and one link.
    fn remote_writes(n: usize) -> (usize, PartitionId, Vec<(u64, Update<EdgeClock>)>) {
        let (protocol, map, mut origin) = ring_core(0, 64);
        let sends: Vec<_> = (0..n)
            .map(|_| remote_write(&protocol, &map, &mut origin))
            .collect();
        let (peer, _, partition, _) = sends[0];
        assert!(sends.iter().all(|s| (s.0, s.2) == (peer, partition)));
        let copies = sends.into_iter().map(|(_, seq, _, u)| (seq, u)).collect();
        (peer, partition, copies)
    }

    #[test]
    fn ack_every_counts_updates_not_frames() {
        // `(frame index, acked seq)` of every acknowledgement a receiver
        // emits while `frames` (updates per frame) arrive in order.
        let acks = |ack_every: u64, frames: &[usize]| {
            let cfg = ServiceConfig {
                ack_every,
                ..ServiceConfig::default()
            };
            let (peer, partition, copies) = remote_writes(frames.iter().sum());
            let (protocol, map, mut receiver) = ring_core(peer, 64);
            let env = Env::new(&protocol, &map, &cfg);
            let mut copies = copies.into_iter();
            let mut acks = Vec::new();
            for (index, &size) in frames.iter().enumerate() {
                let mut out = Vec::new();
                let frame = CoreMsg::Updates {
                    peer: 0,
                    sections: vec![(partition, copies.by_ref().take(size).collect())],
                    barrier: 0,
                    conn: 22,
                };
                receiver
                    .step(&env, frame, &|| 0, None, &mut out)
                    .expect("step");
                acks.extend(out.iter().filter_map(|e| match e {
                    Effect::Ack(22, acked) => Some((index, *acked)),
                    _ => None,
                }));
            }
            acks
        };
        // The frame that brings the unacknowledged updates to >= n acks
        // them all, and the count starts over.
        assert_eq!(acks(5, &[2, 2, 2, 2, 2, 2]), [(2, 6), (5, 12)]);
        assert_eq!(acks(5, &[7, 1, 1, 3]), [(0, 7), (3, 12)]);
        // Same updates, other framing: same number of acks.
        assert_eq!(acks(4, &[1; 12]).len(), acks(4, &[4; 3]).len());
        // 1 = every frame, 0 = the handshake only — as before.
        assert_eq!(acks(1, &[3, 1, 2]), [(0, 3), (1, 4), (2, 6)]);
        assert_eq!(acks(0, &[3, 1, 2]), []);
    }

    #[test]
    fn an_absent_barrier_is_no_news_even_across_a_reconnect() {
        let (peer, partition, copies) = remote_writes(3);
        let (protocol, map, mut receiver) = ring_core(peer, 64);
        let cfg = ServiceConfig::default();
        let env = Env::new(&protocol, &map, &cfg);
        let frame = |receiver: &mut Core<EdgeProtocol>, seqs: &[u64], barrier, conn| {
            let updates = copies
                .iter()
                .filter(|(seq, _)| seqs.contains(seq))
                .cloned()
                .collect();
            let msg = CoreMsg::Updates {
                peer: 0,
                sections: vec![(partition, updates)],
                barrier,
                conn,
            };
            let mut out = Vec::new();
            receiver
                .step(&env, msg, &|| 0, None, &mut out)
                .expect("step");
        };
        // The barrier rides one frame; the stragglers behind it carry none
        // and still take the fast path.
        frame(&mut receiver, &[1, 2], 0, 22);
        frame(&mut receiver, &[3], 2, 22);
        assert_eq!(receiver.barrier_skips, 0);
        frame(&mut receiver, &[2], 0, 22);
        assert_eq!(
            (receiver.barrier_skips, receiver.duplicates_dropped),
            (1, 1)
        );
        // A redial replaces the connection, not what the link was told.
        let join = CoreMsg::PeerJoin { peer: 0, conn: 33 };
        let mut out = Vec::new();
        receiver
            .step(&env, join, &|| 0, None, &mut out)
            .expect("step");
        frame(&mut receiver, &[1], 0, 33);
        assert_eq!(
            (receiver.barrier_skips, receiver.duplicates_dropped),
            (2, 2)
        );
        // Above the barrier a duplicate still takes the watermark path.
        frame(&mut receiver, &[3], 0, 33);
        assert_eq!(
            (receiver.barrier_skips, receiver.duplicates_dropped),
            (2, 3)
        );
        assert_eq!(receiver.status().applies, 3);
    }

    /// The seam, socket-free: a write steps through one core, its send
    /// effect is carried by hand into the ring neighbour as an `Updates`
    /// message, and the neighbour applies and acknowledges it — all on a
    /// fixed clock, so two runs produce bit-identical effect lists.
    #[test]
    fn two_cores_exchange_a_write_without_sockets_deterministically() {
        let run = || {
            let cfg = ServiceConfig {
                ack_every: 1,
                sample_every: 1,
                ..ServiceConfig::default()
            };
            let (protocol, map, mut origin) = ring_core(0, 64);
            let env = Env::new(&protocol, &map, &cfg);
            let now: Now<'_> = &|| 1_700_000_000_000_000;
            let partition = PartitionId(0);
            let mut origin_out = Vec::new();
            // Find a register whose write ships a copy to a neighbour.
            for r in 0..map.graph().num_registers() {
                let write = CoreMsg::Write {
                    partition,
                    register: RegisterId(r as u32),
                    value: 7,
                    conn: 11,
                };
                origin_out.clear();
                let flow = origin
                    .step(&env, write, now, None, &mut origin_out)
                    .expect("step");
                assert_eq!(flow, Flow::Continue);
                if origin_out.iter().any(|e| matches!(e, Effect::Send(..))) {
                    break;
                }
            }
            let (peer, (seq, p, update)) = origin_out
                .iter()
                .find_map(|e| match e {
                    Effect::Send(peer, sequenced) => Some((*peer, sequenced.clone())),
                    _ => None,
                })
                .expect("a ring role shares a register with a neighbour");
            assert!(
                matches!(origin_out.last(), Some(Effect::WriteReply(11, true))),
                "the client's ack follows the sends it waits behind"
            );
            assert_eq!(update.issued_at.0, now(), "sampled at the injected clock");

            let (_, _, mut neighbour) = ring_core(peer, 64);
            let mut neighbour_out = Vec::new();
            let updates = CoreMsg::Updates {
                peer: 0,
                sections: vec![(p, vec![(seq, update)])],
                barrier: 0,
                conn: 22,
            };
            neighbour
                .step(&env, updates, now, None, &mut neighbour_out)
                .expect("step");
            let status = neighbour.status();
            assert_eq!(
                (status.applies, status.pending),
                (1, 0),
                "applied, not parked"
            );
            assert!(
                matches!(neighbour_out[..], [Effect::Ack(22, acked)] if acked == seq),
                "the frame is acknowledged on the connection it arrived on"
            );
            // Updates are not `Eq`; their `Debug` form is exact.
            format!("{origin_out:?} {neighbour_out:?}")
        };
        let first = run();
        assert!(first.contains("Send("));
        assert_eq!(first, run(), "effect lists must be bit-identical");
    }

    /// The sans-I/O property as a check, not a comment: outside comments
    /// and this test module, `core.rs` names no socket, thread, file,
    /// channel or clock API.
    #[test]
    fn core_names_no_io() {
        let source = include_str!("core.rs");
        let code: String = source
            .split("#[cfg(test)]")
            .next()
            .expect("non-empty file")
            .lines()
            .map(|line| line.split("//").next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n");
        for path in ["std::net", "std::thread", "std::fs"] {
            assert!(!code.contains(path), "core.rs names {path}");
        }
        let idents: Vec<&str> = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .collect();
        for ident in ["mpsc", "Instant", "Wal", "wall_us", "SystemTime"] {
            assert!(!idents.contains(&ident), "core.rs names {ident}");
        }
    }
}
