//! The [`Protocol`] abstraction: everything a causal-consistency algorithm
//! conforming to the paper's prototype (Section 2.1) must provide.

use prcc_graph::{RegisterId, ReplicaId, ShareGraph};
use std::fmt;

/// Per-replica timestamp state carried in update messages.
pub trait ClockState: Clone + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Number of entries in the timestamp's index — the paper's size
    /// measure (`|E_i|` for an edge clock, however few counters store it).
    fn entries(&self) -> usize;

    /// Wire size of the timestamp in bytes (varint-encoded counters; index
    /// sets are static configuration and not transmitted).
    fn encoded_len(&self) -> usize;
}

/// A causal-consistency protocol conforming to the replica prototype of
/// Section 2.1: a timestamp structure plus `advance`, `merge` and the
/// delivery predicate `J`.
///
/// The protocol object holds all static per-system configuration (share
/// graph, timestamp graphs); [`ClockState`] values hold only the mutable
/// counters, so cloning a timestamp into an update message is cheap.
pub trait Protocol: fmt::Debug + Send + Sync {
    /// The timestamp representation.
    type Clock: ClockState;

    /// Short human-readable protocol name (used in experiment tables).
    fn name(&self) -> &str;

    /// The share graph this protocol instance is configured for.
    fn share_graph(&self) -> &ShareGraph;

    /// The initial (all-zero) timestamp of replica `i`.
    fn new_clock(&self, i: ReplicaId) -> Self::Clock;

    /// Step 2(ii) of the prototype: update `local` for a write by `i` to
    /// register `x` (the paper's `advance(i, τ_i, x, v)`; values don't
    /// affect timestamps).
    fn advance(&self, i: ReplicaId, local: &mut Self::Clock, x: RegisterId);

    /// The predicate `J(i, τ_i, k, τ_k)` of step 4: true when an update
    /// issued by `k` on register `x` with attached timestamp `attached` may
    /// be applied at `i` whose current timestamp is `local`.
    fn deliverable(
        &self,
        i: ReplicaId,
        local: &Self::Clock,
        k: ReplicaId,
        attached: &Self::Clock,
        x: RegisterId,
    ) -> bool;

    /// Step 4(ii): merge the attached timestamp into the local one after
    /// applying the update (the paper's `merge(i, τ_i, k, τ_k)`).
    fn merge(&self, i: ReplicaId, local: &mut Self::Clock, k: ReplicaId, attached: &Self::Clock);

    /// The replicas an update by `i` to `x` must be sent to (step 2(iii)).
    ///
    /// Defaults to the other holders of `x`. Baselines that emulate full
    /// replication via dummy registers (Appendix D) override this to
    /// broadcast metadata more widely.
    fn recipients(&self, i: ReplicaId, x: RegisterId) -> Vec<ReplicaId> {
        self.share_graph().recipients(i, x)
    }

    /// Whether replica `k` stores the *value* of `x` (as opposed to only
    /// receiving metadata for a dummy copy).
    fn stores_value(&self, k: ReplicaId, x: RegisterId) -> bool {
        self.share_graph().stores(k, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeProtocol;
    use prcc_graph::topologies;

    #[test]
    fn default_recipients_are_other_holders() {
        let g = topologies::figure5();
        let p = EdgeProtocol::new(g.clone());
        // y (register 5) is stored by replicas 0, 1, 3.
        let r = p.recipients(ReplicaId(0), RegisterId(5));
        assert_eq!(r, vec![ReplicaId(1), ReplicaId(3)]);
        assert!(p.stores_value(ReplicaId(3), RegisterId(5)));
        assert!(!p.stores_value(ReplicaId(2), RegisterId(5)));
    }
}
