//! Folding [`Core`] into the plain [`NodeSnapshot`] the durability layer
//! writes, and rebuilding it from one; live-only state stays behind.

use super::{corrupt, Core, CoreTelemetry};
use crate::link::LinkParts;
use crate::wire::{WIRE_SEQ_BITS, WIRE_SEQ_MASK};
use prcc_clock::{Protocol, WireClock};
use prcc_core::Replica;
use prcc_graph::{PartitionId, PartitionMap};
use prcc_storage::{NodeSnapshot, PartitionSnapshot, PeerSnapshot};
use std::collections::HashMap;
use std::io;

impl<P: Protocol> Core<P> {
    /// One `(partition, sealed events, chained digest)` triple per hosted
    /// partition, ascending by partition index — what a snapshot's
    /// `WalRecord::Digest` guard records and recovery re-checks.
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
                .map(|link| {
                    let parts = link.parts();
                    let flat = |(seq, (partition, update))| (seq, partition, update);
                    PeerSnapshot {
                        next_seq: parts.next_seq,
                        acked_high: parts.acked_high,
                        recv_high: parts.recv_high,
                        recv_residue: parts.recv_residue,
                        window: parts.window.into_iter().map(flat).collect(),
                    }
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
        for (link, peer) in core.links.iter_mut().zip(snap.peers) {
            let nested = |(seq, partition, update)| (seq, (partition, update));
            link.restore(LinkParts {
                next_seq: peer.next_seq,
                acked_high: peer.acked_high,
                recv_high: peer.recv_high,
                recv_residue: peer.recv_residue,
                window: peer.window.into_iter().map(nested).collect(),
            });
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
            for &(seq, (partition, ref update)) in link.window() {
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
