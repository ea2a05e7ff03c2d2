//! The sans-I/O replica core: one state machine, no sockets, threads,
//! files or clocks.
//!
//! A node hosts one replica *role* of every partition the
//! [`PartitionMap`] places on it. [`Core`] composes three layers and owns
//! none of their rules:
//!
//! * **Reliable link** ([`PeerLink`], `link.rs`): sequencing, the resend
//!   window, acknowledgements and duplicate suppression for one peer. The
//!   core never reads a sequence counter or a window: it asks the link
//!   whether a copy is [`PeerLink::settled`] and snapshots it as plain
//!   parts.
//! * **Causal delivery** ([`PartitionSlot`], `slot.rs`): the paper's
//!   replica, one per hosted partition — issue advances the clock and
//!   sends; receive buffers until predicate `J` holds; apply merges — and
//!   the one admission rule for peer input ([`admit`]), which
//!   [`Core::step`] checks before staging a frame and [`Core::apply`] on
//!   every receipt. Updates carry globally unique wire ids (`node <<
//!   WIRE_SEQ_BITS | seq`, `seq` node-global and recovered on restart),
//!   which key the post-hoc per-partition oracle replay.
//! * **Durability** ([`Stage`], `stage.rs`): every state-mutating input is
//!   a [`WalRecord`] — a client write an `Issue`, a peer flush frame a
//!   `Receipt`, a trace compaction a `Checkpoint` — and [`Core::apply`] is
//!   the *only* path that mutates durable state. The live loop builds the
//!   record and `apply` stages it and runs the transition; boot-time
//!   replay feeds `snapshot + log` through the very same function, so it
//!   rebuilds the exact pre-crash state.
//!
//! [`Core::step`] is the single entry point for live input. It returns
//! *what the driver must do next* as a [`Flow`] and appends *everything
//! that must leave the node* to an [`Effect`] list, which the driver
//! releases only after the tick's staged records are on disk. Time enters
//! through the injected `now` alone, and lazily: transitions note sampled
//! lifecycle stamps, which `step`/`apply` settle against one clock read —
//! an unsampled step with the flight recorder off reads no clock, and
//! replay (a stopped clock) records nothing through the same code.
//!
//! # Telemetry
//!
//! The core mirrors its state into `core_*`/`trace_*` gauges on a scrape
//! (its half of the [`NodeStatus`](crate::NodeStatus) schema), and the
//! stage histograms (`wire_us`, `pending_stall_us`,
//! `visibility_us`, `ack_us`, `seal_us`) time 1-in-N sampled updates. A
//! sampled write carries its issue stamp in `issued_at` over the live wire
//! only (the durable codecs drop it, keeping recovery byte-deterministic),
//! and every downstream stage keys off that stamp. A [`FlightRecorder`]
//! ring keeps recent events for the driver's crash dump.

use crate::link::PeerLink;
use crate::node::{ServiceConfig, FLIGHT_EVENTS};
use crate::slot::{admit, PartitionSlot};
use crate::stage::Stage;
use crate::wire::{
    partition_metric_names, FlushSections, PartitionCounters, WIRE_SEQ_BITS, WIRE_SEQ_MASK,
};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, TraceCheckpoint};
use prcc_clock::{Protocol, WireClock};
use prcc_core::Update;
use prcc_graph::{PartitionId, PartitionMap, RegisterId};
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
    /// Live trace events, summed over the node's partitions, at which
    /// every acknowledged log prefix is sealed (0 = only when a snapshot
    /// is due).
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
    Trace(ConnId),
    /// A live metrics scrape: mirror core state into the registry's gauges.
    Metrics(ConnId),
    Shutdown,
}

/// One thing that must leave the node. Nothing a processed message
/// produced may escape — no client reply, no peer update, no
/// acknowledgement — until the tick's staged WAL batch is committed:
/// releasing any of them earlier would let an effect outlive a crash that
/// loses its record. The driver releases them in order at tick end.
#[derive(Debug)]
pub(crate) enum Effect<C> {
    WriteReply(ConnId, bool),
    /// Deferred like every reply: a read may observe a write staged earlier
    /// in this tick, and that observation must not escape before the
    /// write's record is committed.
    ReadReply(ConnId, bool, Option<u64>),
    /// An outbound update headed for `peer`'s link driver.
    Send(usize, Sequenced<C>),
    /// A streamed link acknowledgement — requires a WAL sync first.
    Ack(ConnId, u64),
    /// A handshake acknowledgement — same sync-before-promise rule.
    JoinReply(ConnId, u64),
    /// The reply to a reconnected outbound link: the tokens of the kept
    /// cuts, oldest first, whose markers precede the resume window.
    ResumeReply(ConnId, Vec<u64>, Vec<Sequenced<C>>),
    Trace(ConnId, Vec<(TraceCheckpoint, Vec<TraceEvent>)>),
    /// Core gauges are mirrored; the driver adds its own and replies with
    /// the registry snapshot.
    Metrics(ConnId),
    CutReply(ConnId, Option<CutSnapshot>),
    /// A cut marker to broadcast to every peer link: a hint that makes
    /// peers record soon, not a delimiter the audit relies on. In order
    /// like the sends around it, so on a healthy link it reaches the peer
    /// ahead of every post-cut update and the cut comes out consistent;
    /// where it is lost or overtaken, the snapshot stamps show it.
    Marker(u64),
    /// Close this inbound connection: a redial replaced it (no half-open
    /// black hole), or it carried a frame [`admit`] refused.
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
    /// record sequence rather than of where the tick happens to end.
    SnapshotDue,
    /// Take no more messages; commit and release what was processed,
    /// take the final snapshot, exit.
    Shutdown,
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
            flight: FlightRecorder::new(FLIGHT_EVENTS),
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
    sent: u64,
    received: u64,
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

/// The slot of `partition`, if this node hosts it.
fn slot_mut<P: Protocol>(
    slots: &mut [Option<PartitionSlot<P>>],
    partition: PartitionId,
) -> Option<&mut PartitionSlot<P>> {
    slots.get_mut(partition.index()).and_then(Option::as_mut)
}

impl<P: Protocol> Core<P> {
    pub(crate) fn new(
        protocol: &P,
        map: &PartitionMap,
        node: usize,
        window_cap: usize,
        tel: CoreTelemetry,
    ) -> Self {
        let partitions = map
            .partitions()
            .map(|p| {
                map.role_on(p, node)
                    .map(|role| PartitionSlot::new(protocol, p, role))
            })
            .collect();
        Core {
            node,
            partitions,
            links: (0..map.num_nodes())
                .map(|peer| PeerLink::new(node, peer, window_cap))
                .collect(),
            seq: 0,
            sent: 0,
            received: 0,
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
                let read = self.slot(partition).map(|s| s.read(env.protocol, register));
                let value = read.and_then(Result::ok);
                out.push(Effect::ReadReply(conn, value.is_some(), value.flatten()));
            }
            CoreMsg::Updates {
                peer,
                sections,
                conn,
            } => {
                let updates: u64 = sections.iter().map(|(_, us)| us.len() as u64).sum();
                // Checked *before* staging, like a write: a refused frame
                // never enters the durable history, and its link closes.
                // Frames behind it are judged on their own; its sequences
                // hold the link's contiguous ack line until the redial.
                let node = self.node;
                if let Err(e) = admit(&self.partitions, env.map, node, peer as u64, &sections) {
                    eprintln!("prcc-service[{node}]: closing peer {peer}'s link: {e}");
                    self.tel.flight.record(
                        now,
                        "refuse_frame",
                        &[("peer", peer as u64), ("updates", updates)],
                    );
                    out.push(Effect::Close(conn));
                    return Ok(Flow::Continue);
                }
                self.tel.flight.record(
                    now,
                    "recv_frame",
                    &[("peer", peer as u64), ("updates", updates)],
                );
                // The frame joins the tick's batch, and the
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
                // A peer that restarted recorded none of the cuts taken
                // while its links were down: their markers go first.
                // lint: allow(alloc) at most CUTS_KEPT tokens, once per reconnect
                let cuts = self.cuts.iter().map(|(token, _)| *token).collect();
                out.push(Effect::ResumeReply(conn, cuts, window));
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
                    // processed earlier in the tick are inside the cut,
                    // later ones outside it.
                    self.sight_cut(env.map, token, "cut_start", now, out);
                }
                let cut = self.cuts.iter().find(|(t, _)| *t == token);
                // lint: allow(alloc) cut replies are the cold audit path
                out.push(Effect::CutReply(conn, cut.map(|(_, snap)| snap.clone())));
            }
            CoreMsg::PeerMarker { token } => {
                self.sight_cut(env.map, token, "cut_marker", now, out);
            }
            CoreMsg::Trace(conn) => out.push(Effect::Trace(conn, self.traces())),
            CoreMsg::Metrics(conn) => {
                self.mirror_gauges();
                out.push(Effect::Metrics(conn));
            }
            CoreMsg::Shutdown => {
                // Seal what the final snapshot may fold; the record rides
                // the tick's last commit.
                if stage.is_some() {
                    self.compact(env, 1, now, stage, out)?;
                }
                return Ok(Flow::Shutdown);
            }
        }
        Ok(Flow::Continue)
    }

    /// The one post-apply block: once the node's live trace events, summed
    /// over its partitions, reach the configured budget, seal every
    /// settled prefix in one checkpoint; and when the stage says a
    /// snapshot is due, compact fully and hand the fold to the driver.
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
        if env.trace_compact_at > 0 && self.live_events() >= env.trace_compact_at as u64 {
            self.compact(env, 1, now, stage.as_deref_mut(), out)?;
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
    /// (an issue for an unhosted register, a receipt [`admit`] refuses):
    /// replay refuses to boot on it.
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
            WalRecord::Receipt { peer, sections } => {
                admit(&self.partitions, env.map, self.node, *peer, sections)?;
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
            } => self.issue(env, partition, register, value, wire_id, stamp_us, out)?,
            WalRecord::Receipt { peer, sections } => {
                self.deliver(env.protocol, peer as usize, sections);
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

    /// Records this node's side of cut `token` — every hosted partition's
    /// frontier and every link's sequence stamps at this instant — at its
    /// first sighting, and floods the marker onward; later sightings are
    /// the expected echoes from the other peer links. The stamps let the
    /// checker tell a late record from a broken cut, whatever path the
    /// markers took.
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
        self.tel.flight.record(now, what, &[("token", token)]);
        out.push(Effect::Marker(token));
        let partitions = self.slots().map(|slot| slot.cut(map)).collect();
        self.cuts.push_back((
            token,
            CutSnapshot {
                node: self.node as u64,
                token,
                partitions,
                sent: self.links.iter().map(PeerLink::sent_high).collect(),
                received: self.links.iter().map(PeerLink::received_high).collect(),
            },
        ));
        while self.cuts.len() > CUTS_KEPT {
            self.cuts.pop_front();
        }
    }

    /// Whether a client write to `(partition, register)` can be accepted
    /// here.
    fn can_write(&self, protocol: &P, partition: PartitionId, register: RegisterId) -> bool {
        self.slot(partition)
            .is_some_and(|slot| slot.stores(protocol, register))
    }

    fn slot(&self, partition: PartitionId) -> Option<&PartitionSlot<P>> {
        self.partitions
            .get(partition.index())
            .and_then(Option::as_ref)
    }

    /// The hosted partitions' slots, in partition order.
    fn slots(&self) -> impl Iterator<Item = &PartitionSlot<P>> {
        self.partitions.iter().flatten()
    }

    fn next_wire_id(&mut self) -> u64 {
        self.seq += 1;
        ((self.node as u64) << WIRE_SEQ_BITS) | self.seq
    }

    /// Issues an accepted client write through its slot, parking a copy in
    /// each recipient peer's window and pushing its [`Effect::Send`].
    /// `stamp_us` stamps a *sampled* live write (0 otherwise, and on replay).
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        env: &Env<'_, P>,
        partition: PartitionId,
        register: RegisterId,
        value: u64,
        wire_id: u64,
        stamp_us: u64,
        out: &mut Vec<Effect<P::Clock>>,
    ) -> io::Result<()> {
        self.seq = self.seq.max(wire_id & WIRE_SEQ_MASK);
        let slot = slot_mut(&mut self.partitions, partition)
            .ok_or_else(|| corrupt(format_args!("issue for unhosted {partition}")))?;
        let (node, links, sent) = (self.node, &mut self.links, &mut self.sent);
        slot.issue(
            env.protocol,
            register,
            value,
            wire_id,
            VirtualTime(stamp_us),
            |recipient, update| {
                let peer = env.map.node_of(partition, recipient);
                if peer == node {
                    return None;
                }
                let seq = links[peer].enqueue((partition, update.clone()));
                *sent += 1;
                out.push(Effect::Send(peer, (seq, partition, update.clone())));
                Some((peer, seq))
            },
        )
        .map_err(|e| corrupt(format_args!("issue failed to apply: {e}")))?;
        if stamp_us != 0 {
            self.tel.seal_stamps.insert(wire_id, stamp_us);
        }
        Ok(())
    }

    /// Delivers an admitted receipt: each slot receives what its link says
    /// is fresh (a re-delivered copy would pin the pending buffer forever),
    /// then drains.
    fn deliver(&mut self, protocol: &P, peer: usize, sections: FlushSections<P::Clock>) {
        for (partition, updates) in sections {
            let Some(slot) = slot_mut(&mut self.partitions, partition) else {
                continue; // Unreachable: `admit` vouched for the partition.
            };
            let due = &mut self.tel.due;
            for (seq, update) in updates {
                self.received += 1;
                if !self.links[peer].on_update(seq) {
                    self.duplicates_dropped += 1;
                    continue;
                }
                if update.issued_at.0 != 0 {
                    due.push(Sampled::Received(update.id.0, update.issued_at.0));
                }
                slot.receive(update);
            }
            slot.drain(protocol, |done| {
                if done.issued_at.0 != 0 {
                    due.push(Sampled::Applied(done.id.0, done.issued_at.0));
                }
            });
        }
    }

    /// Live trace events across the hosted partitions.
    fn live_events(&self) -> u64 {
        self.slots().map(PartitionSlot::live_events).sum()
    }

    /// Plans a trace compaction over every slot. A copy settles once its
    /// link acknowledged it or evicted it (`window_evicted` records that
    /// loss); a copy on no link keeps blocking, as unblocking would
    /// falsely seal.
    fn plan_seal(&mut self, min_events: usize) -> Vec<(PartitionId, u64)> {
        let links = &self.links;
        let settled = |peer: usize, seq| links.get(peer).is_some_and(|link| link.settled(seq));
        self.partitions
            .iter_mut()
            .flatten()
            .filter_map(|slot| slot.seal_plan(min_events, settled))
            .collect()
    }

    /// Applies a (planned or replayed) trace compaction. Sampled own issues
    /// leaving a live log record their seal stage; replay has an empty
    /// side-table, so recorded seals replay silently.
    fn apply_seal(&mut self, map: &PartitionMap, seals: &[(PartitionId, u64)]) {
        for &(partition, events) in seals {
            let tel = &mut self.tel;
            let Some(slot) = slot_mut(&mut self.partitions, partition) else {
                continue;
            };
            slot.seal(map, events, |wire| {
                if let Some(stamp) = tel.seal_stamps.remove(&wire) {
                    tel.due.push(Sampled::Sealed(stamp));
                }
            });
        }
    }

    /// Mirrors the core's logical state into the registry's gauges, so a
    /// metrics snapshot taken right after reflects this instant: the
    /// totals, and the per-partition triples for every partition of the
    /// map (zero where not hosted). Cold path: runs only per scrape.
    fn mirror_gauges(&self) {
        let r = &self.tel.registry;
        let mut total = PartitionCounters::default();
        for (p, slot) in self.partitions.iter().enumerate() {
            let c = slot
                .as_ref()
                .map_or_else(Default::default, PartitionSlot::counters);
            let [issued, applies, pending] = partition_metric_names(p);
            r.gauge(&issued).set(c.issued);
            r.gauge(&applies).set(c.applies);
            r.gauge(&pending).set(c.pending);
            total.issued += c.issued;
            total.applies += c.applies;
            total.pending += c.pending;
        }
        let links = || self.links.iter();
        r.gauge("node").set(self.node as u64);
        r.gauge("core_issued").set(total.issued);
        r.gauge("core_sent").set(self.sent);
        r.gauge("core_received").set(self.received);
        r.gauge("core_applies").set(total.applies);
        r.gauge("core_pending").set(total.pending);
        r.gauge("core_duplicates_dropped")
            .set(self.duplicates_dropped);
        r.gauge("core_max_window")
            .set(links().map(PeerLink::max_window).max().unwrap_or(0));
        r.gauge("core_window_evicted")
            .set(links().map(PeerLink::evicted).sum());
        r.gauge("trace_events_live").set(self.live_events());
        r.gauge("trace_events_sealed")
            .set(self.slots().map(|s| s.digest().1).sum());
    }

    fn traces(&self) -> Vec<(TraceCheckpoint, Vec<TraceEvent>)> {
        self.partitions
            .iter()
            // Unhosted: an empty placeholder (the collector regroups by
            // hosted role and never reads these).
            .map(|slot| {
                slot.as_ref().map_or_else(
                    || (TraceCheckpoint::new(0, 0), Vec::new()),
                    PartitionSlot::trace,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NodeStatus;
    use prcc_clock::{EdgeClock, EdgeProtocol};
    use prcc_graph::topologies;

    /// The core's counters as a scrape reads them.
    fn scraped(core: &Core<EdgeProtocol>) -> NodeStatus {
        core.mirror_gauges();
        NodeStatus::from_metrics(&core.tel.registry.snapshot())
    }

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
        let env = Env::new(protocol, map, &ServiceConfig::default());
        for r in 0..map.graph().num_registers() {
            let register = RegisterId(r as u32);
            if !core.can_write(protocol, partition, register) {
                continue;
            }
            let wire_id = core.next_wire_id();
            let mut out = Vec::new();
            core.issue(&env, partition, register, 7, wire_id, 0, &mut out)
                .expect("can_write gated");
            if let Some(Effect::Send(peer, (seq, p, update))) = out.pop() {
                return (peer, seq, p, update);
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
        assert_eq!(scraped(&core).window_evicted, 1);

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

    /// One update of `partition` on `register`, stamped as `issuer`'s first
    /// write and shipped by node 1 under link seq 1.
    fn forged(
        protocol: &EdgeProtocol,
        partition: u32,
        issuer: usize,
        register: RegisterId,
    ) -> FlushSections<EdgeClock> {
        let issuer = prcc_graph::ReplicaId(issuer);
        let mut clock = protocol.new_clock(issuer);
        protocol.advance(issuer, &mut clock, register);
        let update = Update {
            id: prcc_checker::UpdateId((1 << WIRE_SEQ_BITS) | 1),
            issuer,
            register,
            value: 7,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        vec![(PartitionId(partition), vec![(1, update)])]
    }

    /// Every frame `admit` refuses closes its connection and changes
    /// nothing: no record staged, no snapshot byte moved. Node 0 of a
    /// 3-ring sharded twice over four nodes hosts partition 0 as role 0;
    /// node 1 plays role 1 there and role 0 in partition 1.
    #[test]
    fn forged_frames_close_the_link_and_change_nothing() {
        let graph = topologies::ring(3);
        let map = PartitionMap::rotated(graph.clone(), 2, 4).expect("valid map");
        let protocol = EdgeProtocol::new(graph.clone());
        let tel = CoreTelemetry::new(Arc::new(Registry::new()), &ServiceConfig::default());
        let mut core = Core::new(&protocol, &map, 0, 64, tel);
        let cfg = ServiceConfig::default();
        let env = Env::new(&protocol, &map, &cfg);
        let shared = |a, b| {
            let set = graph.shared(prcc_graph::ReplicaId(a), prcc_graph::ReplicaId(b));
            set.iter().next().expect("ring neighbours share a register")
        };
        let hostile = [
            ("a foreign issuer", 1, forged(&protocol, 0, 2, shared(2, 0))),
            (
                "an unshared register",
                1,
                forged(&protocol, 0, 1, shared(1, 2)),
            ),
            (
                "an unhosted partition",
                1,
                forged(&protocol, 1, 0, shared(0, 1)),
            ),
            (
                "an out-of-range peer",
                4,
                forged(&protocol, 0, 1, shared(1, 0)),
            ),
        ];
        let bytes = |core: &Core<EdgeProtocol>| prcc_storage::encode_snapshot(&core.to_snapshot(0));
        let before = bytes(&core);
        let mut stage = Stage::new(1, 0);
        for (what, peer, sections) in hostile {
            let mut out = Vec::new();
            let frame = CoreMsg::Updates {
                peer,
                sections,
                conn: 22,
            };
            let flow = core.step(&env, frame, &|| 0, Some(&mut stage), &mut out);
            assert_eq!(flow.expect("a refusal is not a fault"), Flow::Continue);
            assert!(matches!(out[..], [Effect::Close(22)]), "{what}: {out:?}");
            assert!(stage.is_empty(), "{what} was staged");
            assert!(bytes(&core) == before, "{what} moved the snapshot");
        }

        // The honest frame passes the same gate.
        let honest = CoreMsg::Updates {
            peer: 1,
            sections: forged(&protocol, 0, 1, shared(1, 0)),
            conn: 22,
        };
        core.step(&env, honest, &|| 0, Some(&mut stage), &mut Vec::new())
            .expect("step");
        assert_eq!((stage.appends, scraped(&core).applies), (1, 1));
    }

    /// The same rule guards the mutation path replay uses: a receipt
    /// claiming another replica's issue is refused, not applied.
    #[test]
    fn apply_refuses_a_forged_receipt() {
        let (protocol, map, mut core) = ring_core(0, 64);
        let cfg = ServiceConfig::default();
        let env = Env::new(&protocol, &map, &cfg);
        let register = map
            .graph()
            .shared(prcc_graph::ReplicaId(2), prcc_graph::ReplicaId(0))
            .iter()
            .next()
            .expect("ring neighbours share a register");
        let receipt = WalRecord::Receipt {
            peer: 1,
            sections: forged(&protocol, 0, 2, register),
        };
        let err = core
            .apply(&env, receipt, &|| 0, None, &mut Vec::new())
            .expect_err("a forged receipt applied");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(scraped(&core).messages_received, 0);
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
            let status = scraped(&neighbour);
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

    /// Cuts check their own consistency, socket-free: three ring-3 cores,
    /// and for each node `a` and each peer `b` in turn, `b` records a cut
    /// and issues a write whose copy goes to `a`. Where that post-cut copy
    /// reaches `a` before any marker, and `a` records on the third node's
    /// marker, `a`'s frontier overruns `b`'s issue — a closure failure the
    /// stamps attribute to the late record: `Incomplete`, naming `(a, b)`.
    /// Where `b`'s marker comes first, the cut is `Closed`.
    #[test]
    fn a_late_record_is_incomplete_by_its_stamps_not_violated() {
        let cfg = ServiceConfig::default();
        let (protocol, map, _) = ring_core(0, 64);
        let env = Env::new(&protocol, &map, &cfg);
        let partition = PartitionId(0);
        let token = 41;
        let step = |core: &mut Core<EdgeProtocol>, msg| {
            let mut out = Vec::new();
            core.step(&env, msg, &|| 0, None, &mut out).expect("step");
            out
        };
        let marker = || CoreMsg::PeerMarker { token };
        for a in 0..3 {
            for b in (0..3).filter(|&b| b != a) {
                let c = 3 - a - b;
                for marker_first in [false, true] {
                    let mut cores: Vec<_> = (0..3).map(|n| ring_core(n, 64).2).collect();
                    let role = |n| map.role_on(partition, n).expect("every node hosts a role");
                    let register = map.graph().shared(role(b), role(a)).iter().next();
                    let register = register.expect("ring-3 roles share a register");
                    // `b` writes the register it shares with `a` alone and
                    // returns the copy headed for `a` as an `Updates`.
                    let write = |core: &mut Core<EdgeProtocol>| {
                        let write = CoreMsg::Write {
                            partition,
                            register,
                            value: 7,
                            conn: 11,
                        };
                        let out = step(core, write);
                        let [Effect::Send(to, (seq, p, update)), Effect::WriteReply(11, true)] =
                            &out[..]
                        else {
                            panic!("one copy, to `a`: {out:?}");
                        };
                        assert_eq!(*to, a);
                        let sections = vec![(*p, vec![(*seq, update.clone())])];
                        CoreMsg::Updates {
                            peer: b,
                            sections,
                            conn: 22,
                        }
                    };
                    let before = write(&mut cores[b]);
                    step(&mut cores[a], before);
                    step(
                        &mut cores[b],
                        CoreMsg::Cut {
                            token,
                            start: true,
                            conn: 1,
                        },
                    );
                    let after = write(&mut cores[b]);
                    if marker_first {
                        step(&mut cores[a], marker());
                    }
                    step(&mut cores[a], after);
                    // The third node records on `b`'s marker, `a` on the
                    // third's; `b`'s own reaching `a` last is an echo.
                    step(&mut cores[c], marker());
                    step(&mut cores[a], marker());
                    step(&mut cores[a], marker());
                    let cut: Vec<CutSnapshot> = cores
                        .iter()
                        .map(|core| {
                            let found = core.cuts.iter().find(|(t, _)| *t == token);
                            found.expect("every node recorded").1.clone()
                        })
                        .collect();
                    let verdict = prcc_checker::verify_cut_closure(&cut);
                    if marker_first {
                        assert!(verdict.is_closed(), "a={a} b={b}: {verdict:?}");
                        continue;
                    }
                    let pair = format!("pair ({a}, {b}):");
                    assert!(
                        matches!(&verdict, prcc_checker::CutVerdict::Incomplete { reason }
                            if reason.starts_with(&pair)),
                        "a={a} b={b}: {verdict:?}"
                    );
                    // What the closure check alone calls `Violated`: `a`
                    // applied past `b`'s issued frontier.
                    let (seen, issued) = (&cut[a].partitions[0], &cut[b].partitions[0]);
                    assert!(seen.applied[role(b).index()] > issued.issued_high);
                }
            }
        }
    }

    /// A restarted peer missed the cuts taken while its links were down:
    /// the reply to a resume carries the tokens of every kept cut, oldest
    /// first, for the link to write ahead of the window.
    #[test]
    fn a_resume_reply_carries_the_kept_cut_tokens() {
        let (protocol, map, mut core) = ring_core(0, 64);
        let cfg = ServiceConfig::default();
        let env = Env::new(&protocol, &map, &cfg);
        let mut out = Vec::new();
        for token in 1..=CUTS_KEPT as u64 + 2 {
            let marker = CoreMsg::PeerMarker { token };
            core.step(&env, marker, &|| 0, None, &mut out)
                .expect("step");
        }
        out.clear();
        let (peer, _, _, _) = remote_write(&protocol, &map, &mut core);
        let (acked, conn) = (0, 5);
        let resume = CoreMsg::PeerResume { peer, acked, conn };
        core.step(&env, resume, &|| 0, None, &mut out)
            .expect("step");
        let kept: Vec<u64> = (3..=CUTS_KEPT as u64 + 2).collect();
        assert!(
            matches!(&out[..], [Effect::ResumeReply(5, cuts, window)] if *cuts == kept && window.len() == 1),
            "{out:?}"
        );
    }

    /// The sans-I/O property as a check, not a comment: outside comments
    /// and their test modules, the core's files and `link.rs` name no
    /// socket, thread, file, channel or clock API — and the link names
    /// nothing of the layers around it either: no storage, telemetry or
    /// wire item, and of the reactor only the opaque connection id. The
    /// connection layer (`conn.rs`) reaches sockets, the reactor, the core
    /// channel and the wall clock only through its `Port`: it may name an
    /// address and take an `Instant` as data, but never read the clock.
    #[test]
    fn core_names_no_io() {
        let sources = [
            ("core.rs", include_str!("core.rs")),
            ("core/snapshot.rs", include_str!("core/snapshot.rs")),
            ("stage.rs", include_str!("stage.rs")),
            ("link.rs", include_str!("link.rs")),
            ("slot.rs", include_str!("slot.rs")),
            ("conn.rs", include_str!("conn.rs")),
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
            let (paths, names) = match file {
                "conn.rs" => (
                    ["std::thread", "std::fs", "Instant::now"],
                    &[
                        "TcpStream",
                        "TcpListener",
                        "mpsc",
                        "wall_us",
                        "SystemTime",
                        "Ctx",
                    ][..],
                ),
                _ => (
                    ["std::net", "std::thread", "std::fs"],
                    &["mpsc", "Instant", "Wal", "wall_us", "SystemTime"][..],
                ),
            };
            for path in paths {
                assert!(!code.contains(path), "{file} names {path}");
            }
            let idents: Vec<&str> = code
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .collect();
            for ident in names {
                assert!(!idents.contains(ident), "{file} names {ident}");
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
