//! A single replica conforming to the Section 2.1 prototype.

use crate::update::Update;
use crate::CoreError;
use prcc_clock::Protocol;
use prcc_graph::{RegisterId, ReplicaId};
use prcc_net::VirtualTime;

/// A plain-data export of a replica's full mutable state, used by the
/// durability layer to snapshot and restore replicas across restarts.
///
/// Every field is O(live state): since duplicate suppression moved to the
/// transport layer ([`crate::SeqWatermark`]), the export no longer carries
/// the historical dedup set, so its size is bounded by the register count
/// plus the pending buffer — not by how long the replica has been running.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaState<C> {
    /// The replica's id.
    pub id: ReplicaId,
    /// Local register copies (`None` = not stored or never written).
    pub store: Vec<Option<u64>>,
    /// The current timestamp `τ_i`.
    pub clock: C,
    /// Updates buffered awaiting predicate `J`, in receipt order.
    pub pending: Vec<Update<C>>,
    /// Applies performed from the network.
    pub applies: u64,
    /// Applies that waited behind other messages.
    pub buffered_applies: u64,
    /// High-water mark of the pending buffer.
    pub max_pending: usize,
}

/// Replica state: local register copies, the timestamp `τ_i`, and the
/// `pending` buffer of undeliverable updates.
///
/// The replica is passive: a [`crate::Cluster`] (or the TCP service's core)
/// drives it by calling [`Replica::write`], [`Replica::receive`] and
/// [`Replica::drain`], and is responsible for actually transmitting the
/// messages `write` asks it to send. This keeps the replica synchronous and
/// directly testable.
#[derive(Debug, Clone)]
pub struct Replica<P: Protocol> {
    id: ReplicaId,
    /// Local copies, indexed by register; `None` for registers this replica
    /// does not store (or has not yet written).
    store: Vec<Option<u64>>,
    clock: P::Clock,
    pending: Vec<Update<P::Clock>>,
    /// Number of updates applied from the network (not own writes).
    applies: u64,
    /// Applies that had to wait in `pending` at least one drain cycle.
    buffered_applies: u64,
    /// High-water mark of the pending buffer.
    max_pending: usize,
}

impl<P: Protocol> Replica<P> {
    /// Creates replica `id` with an all-zero timestamp.
    pub fn new(protocol: &P, id: ReplicaId) -> Self {
        Replica {
            id,
            store: vec![None; protocol.share_graph().num_registers()],
            clock: protocol.new_clock(id),
            pending: Vec::new(),
            applies: 0,
            buffered_applies: 0,
            max_pending: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Step 1: respond to `read(x)` with the local copy.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotStored`] if `x ∉ X_i`.
    pub fn read(&self, protocol: &P, x: RegisterId) -> Result<Option<u64>, CoreError> {
        if !protocol.share_graph().stores(self.id, x) {
            return Err(CoreError::NotStored {
                replica: self.id,
                register: x,
            });
        }
        Ok(self.store[x.index()])
    }

    /// Step 2: handle `write(x, v)` — write locally, advance the timestamp,
    /// and return the timestamp to attach to the outgoing `update`
    /// messages. The caller sends them to `protocol.recipients(i, x)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotStored`] if `x ∉ X_i`.
    pub fn write(&mut self, protocol: &P, x: RegisterId, v: u64) -> Result<P::Clock, CoreError> {
        if !protocol.share_graph().stores(self.id, x) {
            return Err(CoreError::NotStored {
                replica: self.id,
                register: x,
            });
        }
        self.store[x.index()] = Some(v);
        protocol.advance(self.id, &mut self.clock, x);
        Ok(self.clock.clone())
    }

    /// Step 3: enqueue a received update into `pending`.
    ///
    /// The caller (the transport layer) must deliver every update copy **at
    /// most once**: a re-delivered duplicate could never satisfy the
    /// equality clause of predicate `J` and would pin the pending buffer
    /// forever. At-least-once channels therefore deduplicate *before* this
    /// call, using their per-link sequence numbers and a
    /// [`crate::SeqWatermark`] — which is exact in O(reordering window)
    /// memory, where the replica-level id set this replaces was O(history).
    pub fn receive(&mut self, mut update: Update<P::Clock>, now: VirtualTime) {
        update.received_at = now;
        self.pending.push(update);
        self.max_pending = self.max_pending.max(self.pending.len());
    }

    /// Step 4: repeatedly scan `pending`, applying every update whose
    /// predicate `J` holds, until a fixpoint. Returns the applied updates in
    /// application order (the caller reports them to the oracle).
    pub fn drain(&mut self, protocol: &P) -> Vec<Update<P::Clock>> {
        let mut applied = Vec::new();
        while let Some(pos) = self.pending.iter().position(|u| {
            protocol.deliverable(self.id, &self.clock, u.issuer, &u.clock, u.register)
        }) {
            let u = self.pending.swap_remove(pos);
            // (i) write the value — unless this replica holds only a dummy
            // copy (full-replication emulation), in which case the message
            // carries metadata only.
            if protocol.stores_value(self.id, u.register) {
                self.store[u.register.index()] = Some(u.value);
            }
            // (ii) merge timestamps.
            protocol.merge(self.id, &mut self.clock, u.issuer, &u.clock);
            self.applies += 1;
            if !applied.is_empty() || self.pending_has_older(&u) {
                self.buffered_applies += 1;
            }
            applied.push(u);
        }
        applied
    }

    fn pending_has_older(&self, u: &Update<P::Clock>) -> bool {
        // Heuristic stall detector: something received earlier is still
        // pending, so this apply was out of receipt order.
        self.pending.iter().any(|p| p.received_at < u.received_at)
    }

    /// The current timestamp `τ_i`.
    pub fn clock(&self) -> &P::Clock {
        &self.clock
    }

    /// Updates currently buffered in `pending`.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// High-water mark of the pending buffer.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Applies performed from the network.
    pub fn applies(&self) -> u64 {
        self.applies
    }

    /// Applies that waited behind other messages.
    pub fn buffered_applies(&self) -> u64 {
        self.buffered_applies
    }

    /// Direct store access for assertions (any register index).
    pub fn peek(&self, x: RegisterId) -> Option<u64> {
        self.store[x.index()]
    }

    /// Exports the replica's full mutable state for snapshotting.
    pub fn export_state(&self) -> ReplicaState<P::Clock> {
        ReplicaState {
            id: self.id,
            store: self.store.clone(),
            clock: self.clock.clone(),
            pending: self.pending.clone(),
            applies: self.applies,
            buffered_applies: self.buffered_applies,
            max_pending: self.max_pending,
        }
    }

    /// Rebuilds a replica from an exported state — the inverse of
    /// [`Replica::export_state`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidState`] when the store size does not match the
    /// protocol's register count (the snapshot belongs to a different
    /// configuration).
    pub fn from_state(protocol: &P, state: ReplicaState<P::Clock>) -> Result<Self, CoreError> {
        if state.store.len() != protocol.share_graph().num_registers() {
            return Err(CoreError::InvalidState(
                "store size differs from the share graph's register count",
            ));
        }
        Ok(Replica {
            id: state.id,
            store: state.store,
            clock: state.clock,
            pending: state.pending,
            applies: state.applies,
            buffered_applies: state.buffered_applies,
            max_pending: state.max_pending,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_checker::UpdateId;
    use prcc_clock::EdgeProtocol;
    use prcc_graph::topologies;

    fn update<P: Protocol>(
        id: u64,
        issuer: ReplicaId,
        x: RegisterId,
        v: u64,
        clock: P::Clock,
    ) -> Update<P::Clock> {
        Update {
            id: UpdateId(id),
            issuer,
            register: x,
            value: v,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        }
    }

    #[test]
    fn read_write_round_trip() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let mut r = Replica::new(&p, ReplicaId(0));
        assert_eq!(r.read(&p, RegisterId(0)).unwrap(), None);
        r.write(&p, RegisterId(0), 7).unwrap();
        assert_eq!(r.read(&p, RegisterId(0)).unwrap(), Some(7));
    }

    #[test]
    fn unknown_register_rejected() {
        let g = topologies::line(3);
        let p = EdgeProtocol::new(g);
        let mut r = Replica::new(&p, ReplicaId(0));
        // Register 1 is shared by replicas 1 and 2 only.
        assert!(matches!(
            r.read(&p, RegisterId(1)),
            Err(CoreError::NotStored { .. })
        ));
        assert!(r.write(&p, RegisterId(1), 1).is_err());
    }

    #[test]
    fn out_of_order_updates_buffer_until_deliverable() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let mut sender = Replica::new(&p, ReplicaId(0));
        let mut receiver = Replica::new(&p, ReplicaId(1));
        let t1 = sender.write(&p, RegisterId(0), 1).unwrap();
        let t2 = sender.write(&p, RegisterId(0), 2).unwrap();
        // Deliver the second update first: it must buffer.
        receiver.receive(
            update::<EdgeProtocol>(1, ReplicaId(0), RegisterId(0), 2, t2),
            VirtualTime(5),
        );
        assert!(receiver.drain(&p).is_empty());
        assert_eq!(receiver.pending_len(), 1);
        receiver.receive(
            update::<EdgeProtocol>(0, ReplicaId(0), RegisterId(0), 1, t1),
            VirtualTime(6),
        );
        let applied = receiver.drain(&p);
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].value, 1);
        assert_eq!(applied[1].value, 2);
        assert_eq!(receiver.read(&p, RegisterId(0)).unwrap(), Some(2));
        assert_eq!(receiver.pending_len(), 0);
        assert_eq!(receiver.applies(), 2);
        assert!(receiver.buffered_applies() >= 1);
        assert_eq!(receiver.max_pending(), 2);
    }

    #[test]
    fn state_export_restore_round_trips() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let mut sender = Replica::new(&p, ReplicaId(0));
        let mut receiver = Replica::new(&p, ReplicaId(1));
        let t1 = sender.write(&p, RegisterId(0), 1).unwrap();
        let t2 = sender.write(&p, RegisterId(0), 2).unwrap();
        // Deliver out of order so the restored state carries a non-empty
        // pending buffer.
        receiver.receive(
            update::<EdgeProtocol>(1, ReplicaId(0), RegisterId(0), 2, t2),
            VirtualTime(5),
        );
        assert!(receiver.drain(&p).is_empty());
        let state = receiver.export_state();
        assert_eq!(state.pending.len(), 1);
        let mut restored = Replica::from_state(&p, state.clone()).expect("restore");
        assert_eq!(restored.export_state(), state);
        // The restored replica picks up exactly where the original left
        // off: delivering the missing first update drains both.
        restored.receive(
            update::<EdgeProtocol>(0, ReplicaId(0), RegisterId(0), 1, t1),
            VirtualTime(6),
        );
        assert_eq!(restored.drain(&p).len(), 2);
        assert_eq!(restored.read(&p, RegisterId(0)).unwrap(), Some(2));
        // A state sized for a different configuration is refused.
        let other = EdgeProtocol::new(topologies::line(3));
        assert!(Replica::from_state(&other, restored.export_state()).is_err());
    }

    #[test]
    fn drain_reaches_fixpoint_across_chains() {
        let g = topologies::clique_full(3, 1);
        let p = EdgeProtocol::new(g);
        let x = RegisterId(0);
        let mut r0 = Replica::new(&p, ReplicaId(0));
        let mut r1 = Replica::new(&p, ReplicaId(1));
        let mut r2 = Replica::new(&p, ReplicaId(2));
        let t0 = r0.write(&p, x, 10).unwrap();
        let u0 = update::<EdgeProtocol>(0, ReplicaId(0), x, 10, t0);
        r1.receive(u0.clone(), VirtualTime(1));
        r1.drain(&p);
        let t1 = r1.write(&p, x, 11).unwrap();
        let u1 = update::<EdgeProtocol>(1, ReplicaId(1), x, 11, t1);
        // r2 receives u1 before u0; one drain call applies both once u0
        // arrives.
        r2.receive(u1, VirtualTime(2));
        assert!(r2.drain(&p).is_empty());
        r2.receive(u0, VirtualTime(3));
        let applied = r2.drain(&p);
        assert_eq!(applied.len(), 2);
        assert_eq!(r2.peek(x), Some(11));
    }
}
