//! The sans-I/O replica core: one state machine, no sockets, threads,
//! files or clocks.
//!
//! A node hosts one replica *role* of every partition the
//! [`PartitionMap`] places on it, each an independent [`Replica`] with its
//! own share-graph-derived clock. [`Core`] composes three layers and owns
//! none of their rules:
//!
//! * **Reliable link** ([`PeerLink`], `link.rs`). Sequencing, the resend
//!   window, acknowledgement accounting and exact duplicate suppression
//!   for one peer, behind `enqueue` / `on_ack` / `resume` on the sending
//!   side and `accept` / `on_update` / `on_frame` on the receiving side.
//!   The core never reads a sequence counter or a window: it asks the link
//!   whether a copy is [`PeerLink::settled`] and snapshots it as plain
//!   parts.
//! * **Causal delivery** ([`PartitionSlot`]). The paper's replica: issue
//!   advances the clock and sends; receive buffers until predicate `J`
//!   holds; apply merges. Updates carry globally unique wire ids
//!   (`node << WIRE_SEQ_BITS | seq`, `seq` node-global across partitions and
//!   recovered on restart), which key the post-hoc per-partition oracle
//!   replay over collected traces.
//! * **Durability** ([`Stage`], `stage.rs`). Every state-mutating input is a
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

use crate::link::PeerLink;
use crate::node::ServiceConfig;
use crate::stage::Stage;
use crate::wire::{FlushSections, NodeStatus, PartitionCounters, WIRE_SEQ_BITS, WIRE_SEQ_MASK};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, PartitionCut, TraceCheckpoint, UpdateId};
use prcc_clock::{Protocol, WireClock};
use prcc_core::{Replica, Update};
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_net::VirtualTime;
use prcc_reactor::ConnId;
use prcc_storage::WalRecord;
use prcc_telemetry::{FlightRecorder, Registry, Sampler, SharedHistogram};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::sync::Arc;

mod snapshot;

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
    /// One decoded peer flush frame: sender node, its sections, and the
    /// inbound connection acknowledgements for this link travel on.
    Updates {
        peer: usize,
        sections: FlushSections<C>,
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
    /// The resume window for a reconnected outbound link.
    ResumeReply(ConnId, Vec<Sequenced<C>>),
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

/// Notes the acknowledgement stage of a sampled copy an ack retired from
/// its link's window. Copies restored from a snapshot lost their stamps
/// in the durable codec and note nothing.
fn note_acked<C>(due: &mut Vec<Sampled>, (_, update): &(PartitionId, Update<C>)) {
    if update.issued_at.0 != 0 {
        due.push(Sampled::Acked(update.issued_at.0));
    }
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
    /// One reliable link per node index (this node's own stays idle),
    /// snapshot-able and deterministically rebuilt by WAL replay.
    links: Vec<PeerLink<(PartitionId, Update<P::Clock>)>>,
    /// Node-global wire-id sequence (low 40 bits of issued update ids).
    seq: u64,
    issued: u64,
    sent: u64,
    received: u64,
    dropped_misrouted: u64,
    /// Duplicate deliveries suppressed by the link watermarks.
    duplicates_dropped: u64,
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
            links: (0..map.num_nodes())
                .map(|peer| PeerLink::new(node, peer, window_cap))
                .collect(),
            seq: 0,
            issued: 0,
            sent: 0,
            received: 0,
            dropped_misrouted: 0,
            duplicates_dropped: 0,
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
                conn,
            } => {
                if peer >= self.links.len() {
                    return Ok(Flow::Continue);
                }
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
                if let Some(acked) = self.links[peer].on_frame(updates, env.ack_every) {
                    out.push(Effect::Ack(conn, acked));
                }
                return self.after_apply(env, now, stage, out);
            }
            CoreMsg::PeerJoin { peer, conn } => {
                let mut acked = 0;
                if let Some(link) = self.links.get_mut(peer) {
                    let (offset, stale) = link.accept(conn);
                    acked = offset;
                    out.extend(stale.map(Effect::Close));
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
                let Some(link) = self.links.get_mut(peer) else {
                    return Ok(Flow::Continue);
                };
                let due = &mut self.tel.due;
                let window: Vec<_> = link
                    .resume(acked, |parcel| note_acked(due, parcel))
                    // lint: allow(alloc) the resend window, once per reconnect
                    .map(|(seq, (partition, update))| (*seq, *partition, update.clone()))
                    .collect();
                self.tel.settle(now);
                self.tel.flight.record(
                    now,
                    "peer_resume",
                    &[
                        ("peer", peer as u64),
                        ("acked", acked),
                        ("window", window.len() as u64),
                    ],
                );
                out.push(Effect::ResumeReply(conn, window));
            }
            CoreMsg::PeerAcked { peer, seq } => {
                if let Some(link) = self.links.get_mut(peer) {
                    let due = &mut self.tel.due;
                    link.on_ack(seq, |parcel| note_acked(due, parcel));
                }
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
            let seq = self.links[peer].enqueue((partition, update.clone()));
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

    /// Applies one peer flush frame's sections: hands up what the link
    /// says is fresh, feeds the replicas, and records apply events.
    ///
    /// Every copy passes the link — the wire decoder refuses link sequence
    /// 0, so nothing arrives unsequenced — because a re-delivered copy
    /// reaching [`Replica::receive`] would pin the pending buffer forever.
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
                if !self.links[peer].on_update(seq) {
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
        let links = &self.links;
        for (p, slot) in self.partitions.iter_mut().enumerate() {
            let Some(slot) = slot.as_mut() else { continue };
            if slot.log.len() < min_events.max(1) {
                continue;
            }
            while let Some((_, pairs)) = slot.unacked.front_mut() {
                // A pair stops blocking once its link settles it:
                // acknowledged — or evicted by the window cap (it can never
                // be acknowledged then; `window_evicted` records the loss).
                // No such link: keep blocking (this cannot happen for a
                // validated map, but silently unblocking would falsely
                // seal).
                pairs.retain(|&(peer, seq)| links.get(peer).is_none_or(|link| !link.settled(seq)));
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
        let links = || self.links.iter();
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
            max_window: links().map(PeerLink::max_window).max().unwrap_or(0),
            window_evicted: links().map(PeerLink::evicted).sum(),
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

    /// Feeds `core` a streamed acknowledgement of `seq` from `peer`.
    fn ack(
        protocol: &EdgeProtocol,
        map: &PartitionMap,
        core: &mut Core<EdgeProtocol>,
        peer: usize,
        seq: u64,
    ) {
        let cfg = ServiceConfig::default();
        let env = Env::new(protocol, map, &cfg);
        let acked = CoreMsg::PeerAcked { peer, seq };
        core.step(&env, acked, &|| 0, None, &mut Vec::new())
            .expect("step");
    }

    /// The seal plan's "sealed high" is how far it lets the trace log
    /// retire: an unacknowledged copy blocks its issue, the
    /// acknowledgement retires the pair and unblocks it.
    #[test]
    fn sealed_high_advances_only_on_acked_retirement() {
        let (protocol, map, mut core) = ring_core(0, 64);
        let (peer, seq, partition, _) = remote_write(&protocol, &map, &mut core);

        assert!(core.plan_seal(1).is_empty(), "unacknowledged: blocked");
        // An acknowledgement for something never sent is not believed.
        ack(&protocol, &map, &mut core, peer, seq + 1);
        assert!(core.plan_seal(1).is_empty(), "a false ack seals nothing");

        ack(&protocol, &map, &mut core, peer, seq);
        assert_eq!(core.plan_seal(1), [(partition, 1)]);
    }

    /// An evicted pair retires too (it can never be acknowledged, and
    /// `window_evicted` says so) — but only that pair: the next issue's
    /// copy is still in the window and still blocks.
    #[test]
    fn evicted_pairs_never_advance_sealed_high() {
        let (protocol, map, mut core) = ring_core(0, 1);
        let (peer, first_seq, partition, _) = remote_write(&protocol, &map, &mut core);
        let (_, second_seq, _, _) = remote_write(&protocol, &map, &mut core);
        assert_eq!((first_seq, second_seq), (1, 2), "cap 1 evicts the first");
        assert_eq!(core.status().window_evicted, 1);

        assert_eq!(
            core.plan_seal(1),
            [(partition, 1)],
            "the evicted issue seals, the parked one does not"
        );
        ack(&protocol, &map, &mut core, peer, second_seq);
        assert_eq!(core.plan_seal(1), [(partition, 2)]);
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
    /// and their test modules, the core's files and `link.rs` name no
    /// socket, thread, file, channel or clock API — and the link names
    /// nothing of the layers around it either: no storage, telemetry or
    /// wire item, and of the reactor only the opaque connection id.
    #[test]
    fn core_names_no_io() {
        let sources = [
            ("core.rs", include_str!("core.rs")),
            ("core/snapshot.rs", include_str!("core/snapshot.rs")),
            ("stage.rs", include_str!("stage.rs")),
            ("link.rs", include_str!("link.rs")),
        ];
        for (file, source) in sources {
            let code: String = source
                .split("#[cfg(test)]")
                .next()
                .expect("non-empty file")
                .lines()
                .map(|line| line.split("//").next().unwrap_or(""))
                .collect::<Vec<_>>()
                .join("\n");
            for path in ["std::net", "std::thread", "std::fs"] {
                assert!(!code.contains(path), "{file} names {path}");
            }
            let idents: Vec<&str> = code
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .collect();
            for ident in ["mpsc", "Instant", "Wal", "wall_us", "SystemTime"] {
                assert!(!idents.contains(&ident), "{file} names {ident}");
            }
            if file == "link.rs" {
                for layer in ["prcc_storage", "prcc_telemetry", "wire"] {
                    assert!(!idents.contains(&layer), "link.rs names {layer}");
                }
                let reactor_uses = code.matches("prcc_reactor").count();
                let conn_id_uses = code.matches("prcc_reactor::ConnId").count();
                assert_eq!(reactor_uses, conn_id_uses, "more than the ConnId");
            }
        }
    }
}
