//! Causal delivery for one hosted partition, sans I/O and sans link.
//!
//! A [`PartitionSlot`] is the paper's replica (Section 2.1): **issue**
//! advances the clock and hands a copy to each remote recipient; a
//! **received** update waits in the pending buffer until predicate `J`
//! lets it **apply**, which merges its clock. Around the replica the slot
//! keeps the live event log, the checkpoint summarising its sealed prefix,
//! and the own issues some recipient has not yet acknowledged. It names no
//! link: a send is a callback returning the `(peer, link seq)` a copy left
//! under, and the seal plan asks a `settled(peer, seq)` predicate.
//!
//! [`admit`] is the one rule for which peer updates may reach a slot:
//! `Core::step` checks it before staging a frame, `Core::apply` on every
//! receipt, so live traffic and WAL replay refuse the same input.

use crate::wire::{FlushSections, PartitionCounters, WIRE_SEQ_BITS};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{PartitionCut, TraceCheckpoint, UpdateId};
use prcc_clock::Protocol;
use prcc_core::{CoreError, Replica, Update};
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_net::VirtualTime;
use prcc_storage::PartitionSnapshot;
use std::collections::VecDeque;
use std::io;

/// One hosted partition: the role this node plays in it, the replica, the
/// sealed-prefix checkpoint and the live tail of the event log.
pub(crate) struct PartitionSlot<P: Protocol> {
    partition: PartitionId,
    role: ReplicaId,
    replica: Replica<P>,
    /// Summary of the sealed (fully acknowledged, verified-by-construction)
    /// trace prefix — what the post-hoc oracle stitches under `log`.
    checkpoint: TraceCheckpoint,
    /// The live trace suffix; bounded by the compaction threshold plus the
    /// unacknowledged in-flight tail.
    log: Vec<TraceEvent>,
    issued: u64,
    /// Own issues not yet settled at every remote recipient: `(wire id,
    /// remaining (peer, link seq) pairs)`, ascending by wire id. An issue
    /// seals out of the log only once it has left this queue — the rule
    /// the stitched oracle relies on.
    unacked: VecDeque<(u64, Vec<(usize, u64)>)>,
}

/// The role that issued wire id `wire` on `partition` (its node bits name
/// the issuing node).
fn issuer_of(map: &PartitionMap, partition: PartitionId, wire: u64) -> Option<ReplicaId> {
    map.role_on(partition, (wire >> WIRE_SEQ_BITS) as usize)
}

impl<P: Protocol> PartitionSlot<P> {
    pub(crate) fn new(protocol: &P, partition: PartitionId, role: ReplicaId) -> Self {
        let graph = protocol.share_graph();
        PartitionSlot {
            partition,
            role,
            replica: Replica::new(protocol, role),
            checkpoint: TraceCheckpoint::new(graph.num_replicas(), graph.num_registers()),
            log: Vec::new(),
            issued: 0,
            unacked: VecDeque::new(),
        }
    }

    /// Whether a client may write `register` here.
    pub(crate) fn stores(&self, protocol: &P, register: RegisterId) -> bool {
        protocol.share_graph().stores(self.role, register)
    }

    pub(crate) fn read(&self, protocol: &P, x: RegisterId) -> Result<Option<u64>, CoreError> {
        self.replica.read(protocol, x)
    }

    /// Issue: writes `value` (advancing the clock), logs the issue event
    /// and offers the stamped update to each recipient through `send`,
    /// which returns the `(peer, link seq)` a remote copy left under. The
    /// issue stays unsealable until every returned pair settles.
    ///
    /// # Errors
    ///
    /// The replica refuses a register it does not store.
    pub(crate) fn issue(
        &mut self,
        protocol: &P,
        register: RegisterId,
        value: u64,
        wire_id: u64,
        issued_at: VirtualTime,
        mut send: impl FnMut(ReplicaId, &Update<P::Clock>) -> Option<(usize, u64)>,
    ) -> Result<(), CoreError> {
        let clock = self.replica.write(protocol, register, value)?;
        self.log.push(TraceEvent::Issue {
            replica: self.role,
            register,
            update: wire_id,
        });
        self.issued += 1;
        let update = Update {
            id: UpdateId(wire_id),
            issuer: self.role,
            register,
            value,
            clock,
            issued_at,
            received_at: VirtualTime::ZERO,
        };
        let pairs: Vec<_> = protocol
            .recipients(self.role, register)
            .into_iter()
            .filter_map(|recipient| send(recipient, &update))
            .collect();
        if !pairs.is_empty() {
            self.unacked.push_back((wire_id, pairs));
        }
        Ok(())
    }

    /// Receive: buffers a copy until `J` admits it. Its `received_at`
    /// stays at virtual zero: pending buffers are snapshotted, and real
    /// time in them would break byte-identical recovery.
    pub(crate) fn receive(&mut self, update: Update<P::Clock>) {
        self.replica.receive(update, VirtualTime::ZERO);
    }

    /// Apply: merges every buffered update `J` now admits, shows each to
    /// `applied`, and logs an apply event for each whose value is stored
    /// here.
    pub(crate) fn drain(&mut self, protocol: &P, mut applied: impl FnMut(&Update<P::Clock>)) {
        for done in self.replica.drain(protocol) {
            applied(&done);
            if protocol.stores_value(self.role, done.register) {
                self.log.push(TraceEvent::Apply {
                    replica: self.role,
                    update: done.id.0,
                });
            }
        }
    }

    /// The seal plan: `(partition, events)` for the longest log prefix that
    /// may seal, if any, once the log holds `min_events`. Applies always
    /// may; an issue with an unsettled copy blocks itself and everything
    /// after it (sealed issues must be durable at all their recipients).
    /// Settled entries leave the queue — derived state, not logged: only
    /// the seal lengths are.
    pub(crate) fn seal_plan(
        &mut self,
        min_events: usize,
        settled: impl Fn(usize, u64) -> bool,
    ) -> Option<(PartitionId, u64)> {
        if self.log.len() < min_events.max(1) {
            return None;
        }
        while let Some((_, pairs)) = self.unacked.front_mut() {
            pairs.retain(|&(peer, seq)| !settled(peer, seq));
            if !pairs.is_empty() {
                break;
            }
            self.unacked.pop_front();
        }
        // The queue is in wire-id order: its head bounds the prefix.
        let blocked = self.unacked.front().map(|&(wire, _)| wire);
        let sealable = self
            .log
            .iter()
            .take_while(|event| match event {
                TraceEvent::Issue { update, .. } => blocked.is_none_or(|b| *update < b),
                TraceEvent::Apply { .. } => true,
            })
            .count();
        (sealable > 0).then_some((self.partition, sealable as u64))
    }

    /// Applies a (planned or replayed) seal: absorbs the first `events`
    /// log events into the checkpoint and drops them. `sealed` sees the
    /// wire id of each own issue leaving the log.
    pub(crate) fn seal(&mut self, map: &PartitionMap, events: u64, mut sealed: impl FnMut(u64)) {
        let events = (events as usize).min(self.log.len());
        for event in &self.log[..events] {
            if let TraceEvent::Issue { update, .. } = event {
                sealed(*update);
            }
        }
        let partition = self.partition;
        self.checkpoint
            .absorb(&self.log[..events], |w| issuer_of(map, partition, w));
        self.log.drain(..events);
        // Replay reaches here with post-snapshot ack state, where covered
        // entries may still linger.
        let last = self.checkpoint.last_issue;
        while self.unacked.front().is_some_and(|&(wire, _)| wire <= last) {
            self.unacked.pop_front();
        }
    }

    /// The cut frontier now: the issued high and per-issuer-role applied
    /// highs of the checkpoint joined with the live log tail. Wire ids are
    /// monotone and applied in issue order per issuer, so these describe
    /// the cut completely for [`prcc_checker::verify_cut_closure`].
    pub(crate) fn cut(&self, map: &PartitionMap) -> PartitionCut {
        let mut issued_high = self.checkpoint.last_issue;
        let mut applied = self.checkpoint.applied_high.clone();
        for event in &self.log {
            let (role, update) = match *event {
                // An issue is applied at its issuer as it is issued.
                TraceEvent::Issue { update, .. } => {
                    issued_high = issued_high.max(update);
                    (Some(self.role), update)
                }
                TraceEvent::Apply { update, .. } => {
                    (issuer_of(map, self.partition, update), update)
                }
            };
            if let Some(high) = role.and_then(|r| applied.get_mut(r.index())) {
                *high = (*high).max(update);
            }
        }
        PartitionCut {
            partition: self.partition.0,
            role: self.role.index(),
            issued_high,
            applied,
            pending: self.replica.pending_len() as u64,
        }
    }

    pub(crate) fn counters(&self) -> PartitionCounters {
        PartitionCounters {
            issued: self.issued,
            applies: self.replica.applies(),
            pending: self.replica.pending_len() as u64,
        }
    }

    /// Events in the live log.
    pub(crate) fn live_events(&self) -> u64 {
        self.log.len() as u64
    }

    /// `(partition, events sealed, chained digest)`: a snapshot's guard.
    pub(crate) fn digest(&self) -> (PartitionId, u64, u64) {
        (
            self.partition,
            self.checkpoint.events,
            self.checkpoint.digest,
        )
    }

    pub(crate) fn trace(&self) -> (TraceCheckpoint, Vec<TraceEvent>) {
        (self.checkpoint.clone(), self.log.clone())
    }

    pub(crate) fn to_snapshot(&self) -> PartitionSnapshot<P::Clock> {
        PartitionSnapshot {
            state: self.replica.export_state(),
            issued: self.issued,
            checkpoint: self.checkpoint.clone(),
            log: self.log.clone(),
        }
    }

    /// Restores the snapshotted state; the unacknowledged queue is rebuilt
    /// from the links' windows through [`PartitionSlot::track`].
    pub(crate) fn restore(
        &mut self,
        protocol: &P,
        part: PartitionSnapshot<P::Clock>,
    ) -> Result<(), String> {
        if part.state.id != self.role {
            return Err("partition role differs from the map".into());
        }
        self.replica =
            Replica::from_state(protocol, part.state).map_err(|e| format!("replica state: {e}"))?;
        (self.checkpoint, self.log, self.issued) = (part.checkpoint, part.log, part.issued);
        Ok(())
    }

    /// Holds own issue `wire_id` until each `(peer, link seq)` copy
    /// settles; calls come in ascending wire-id order.
    pub(crate) fn track(&mut self, wire_id: u64, pairs: Vec<(usize, u64)>) {
        self.unacked.push_back((wire_id, pairs));
    }
}

/// The one admission rule for a peer receipt: `peer` is another node of
/// the map, every section's partition is hosted here, and every update is
/// the sender's own issue on a register its role shares with ours —
/// anything else would be judged by `J` against another replica's FIFO
/// edge.
///
/// # Errors
///
/// `InvalidData` naming the first clause the receipt breaks.
pub(crate) fn admit<P: Protocol>(
    slots: &[Option<PartitionSlot<P>>],
    map: &PartitionMap,
    node: usize,
    peer: u64,
    sections: &FlushSections<P::Clock>,
) -> io::Result<()> {
    let peer = usize::try_from(peer).unwrap_or(usize::MAX);
    let refuse = |what: String| Err(io::Error::new(io::ErrorKind::InvalidData, what));
    if peer >= map.num_nodes() || peer == node {
        return refuse(format!("peer {peer} is out of range or this node"));
    }
    for (partition, updates) in sections {
        let Some(slot) = slots.get(partition.index()).and_then(Option::as_ref) else {
            return refuse(format!("peer {peer} sent {partition}, not hosted here"));
        };
        let sender = map.role_on(*partition, peer);
        let shared = |issuer| map.graph().shared(issuer, slot.role);
        if let Some((_, u)) = updates
            .iter()
            .find(|(_, u)| Some(u.issuer) != sender || !shared(u.issuer).contains(u.register))
        {
            let (x, issuer) = (u.register, u.issuer);
            return refuse(format!(
                "peer {peer} cannot issue {partition}/{x} as {issuer}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_clock::{EdgeClock, EdgeProtocol};
    use prcc_graph::topologies;

    /// Replica roles 0 and 1 of `ring(3)` as two slots of partition 0 on
    /// nodes 0 and 1, with the map that places them.
    fn ring3() -> (EdgeProtocol, PartitionMap, [PartitionSlot<EdgeProtocol>; 2]) {
        let graph = topologies::ring(3);
        let map = PartitionMap::single(graph.clone());
        let protocol = EdgeProtocol::new(graph);
        let slots = [0, 1].map(|r| PartitionSlot::new(&protocol, PartitionId(0), ReplicaId(r)));
        (protocol, map, slots)
    }

    /// A register roles 0 and 1 share.
    fn shared_register(map: &PartitionMap) -> RegisterId {
        map.graph()
            .shared(ReplicaId(0), ReplicaId(1))
            .iter()
            .next()
            .expect("ring neighbours share a register")
    }

    /// Issues 7 at `slot` and returns its one remote copy, as if it left
    /// for the recipient role's node under link seq `seq`.
    fn issue(
        protocol: &EdgeProtocol,
        slot: &mut PartitionSlot<EdgeProtocol>,
        register: RegisterId,
        wire_id: u64,
        seq: u64,
    ) -> Update<EdgeClock> {
        let mut copy = None;
        slot.issue(
            protocol,
            register,
            7,
            wire_id,
            VirtualTime::ZERO,
            |to, u| {
                copy = Some(u.clone());
                Some((to.index(), seq))
            },
        )
        .expect("the role stores the register");
        copy.expect("a neighbour shares the register")
    }

    #[test]
    fn issue_logs_the_event_and_advances_the_clock() {
        let (protocol, map, [mut slot, _]) = ring3();
        let register = shared_register(&map);
        let before = slot.replica.clock().clone();
        let copy = issue(&protocol, &mut slot, register, 1, 1);
        assert_ne!(*slot.replica.clock(), before, "the clock advanced");
        assert_eq!(copy.clock, *slot.replica.clock(), "the copy carries it");
        assert_eq!(
            slot.log,
            [TraceEvent::Issue {
                replica: ReplicaId(0),
                register,
                update: 1
            }]
        );
        assert_eq!(slot.counters().issued, 1);
        assert_eq!(slot.unacked, [(1, vec![(1, 1)])]);
        assert_eq!(slot.read(&protocol, register).expect("stored"), Some(7));
    }

    #[test]
    fn a_receive_whose_j_fails_waits_until_its_dependency_arrives() {
        let (protocol, map, [mut origin, mut slot]) = ring3();
        let register = shared_register(&map);
        let first = issue(&protocol, &mut origin, register, 1, 1);
        let second = issue(&protocol, &mut origin, register, 2, 2);

        let mut applied = Vec::new();
        slot.receive(second);
        slot.drain(&protocol, |u| applied.push(u.id.0));
        assert_eq!((applied.len(), slot.counters().pending), (0, 1), "FIFO gap");

        slot.receive(first);
        slot.drain(&protocol, |u| applied.push(u.id.0));
        assert_eq!(applied, [1, 2], "both apply, in causal order");
        assert_eq!(slot.counters().pending, 0);
        assert_eq!(slot.live_events(), 2, "one apply event each");
    }

    #[test]
    fn the_seal_plan_waits_for_every_pair_to_settle() {
        let (protocol, map, [mut slot, _]) = ring3();
        let register = shared_register(&map);
        issue(&protocol, &mut slot, register, 1, 1);
        issue(&protocol, &mut slot, register, 2, 2);

        assert_eq!(slot.seal_plan(1, |_, _| false), None, "the first blocks");
        let p0 = PartitionId(0);
        assert_eq!(slot.seal_plan(1, |_, seq| seq == 1), Some((p0, 1)));
        assert_eq!(slot.seal_plan(3, |_, _| true), None, "below min_events");
        assert_eq!(slot.seal_plan(1, |_, _| true), Some((p0, 2)));
        assert!(slot.unacked.is_empty(), "settled entries are consumed");
    }

    #[test]
    fn a_seal_absorbs_the_prefix_into_the_checkpoint() {
        let (protocol, map, [mut slot, _]) = ring3();
        let register = shared_register(&map);
        issue(&protocol, &mut slot, register, 1, 1);
        issue(&protocol, &mut slot, register, 2, 2);

        let mut sealed = Vec::new();
        slot.seal(&map, 1, |wire| sealed.push(wire));
        assert_eq!(sealed, [1]);
        assert_eq!(slot.digest().1, 1);
        assert_eq!(slot.checkpoint.last_issue, 1);
        assert_eq!(slot.live_events(), 1, "the suffix stays live");
        assert_eq!(slot.unacked.len(), 1, "the sealed issue left the queue");
    }

    #[test]
    fn the_cut_frontier_joins_the_checkpoint_and_the_log_tail() {
        let (protocol, map, [mut origin, mut slot]) = ring3();
        let register = shared_register(&map);
        let from_1 = 1 << WIRE_SEQ_BITS;
        let first = issue(&protocol, &mut origin, register, 1, 1);
        let second = issue(&protocol, &mut origin, register, 2, 2);
        slot.receive(first);
        slot.receive(second);
        slot.drain(&protocol, |_| {});
        issue(&protocol, &mut slot, register, from_1 + 5, 1);
        slot.seal(&map, 1, |_| {});

        let cut = slot.cut(&map);
        assert_eq!((cut.partition, cut.role), (0, 1));
        assert_eq!(cut.issued_high, from_1 + 5, "the live own issue");
        // Role 0's applied high: 1 from the checkpoint, 2 from the tail.
        assert_eq!(cut.applied, [2, from_1 + 5, 0]);
        assert_eq!(cut.pending, 0);
    }
}
