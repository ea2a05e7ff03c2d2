//! Traditional replica-indexed vector timestamps (Lazy Replication style).

use crate::encoding;
use crate::traits::{ClockState, Protocol};
use prcc_graph::{RegisterId, ReplicaId, ShareGraph};
use std::fmt;

/// A plain vector clock of length `R`: entry `j` counts updates issued by
/// replica `j`.
#[derive(Clone, PartialEq, Eq)]
pub struct VectorClock {
    counters: Vec<u64>,
}

impl VectorClock {
    /// The all-zero clock for `r` replicas.
    pub fn zero(r: usize) -> Self {
        VectorClock {
            counters: vec![0; r],
        }
    }

    /// The counter of replica `j`.
    pub fn get(&self, j: ReplicaId) -> u64 {
        self.counters[j.index()]
    }

    /// Raw counters, indexed by replica.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC{:?}", self.counters)
    }
}

impl ClockState for VectorClock {
    fn entries(&self) -> usize {
        self.counters.len()
    }

    fn encoded_len(&self) -> usize {
        encoding::counters_len(&self.counters)
    }
}

impl crate::wire::WireClock for VectorClock {
    fn counter_values(&self) -> &[u64] {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut [u64] {
        &mut self.counters
    }
}

/// The full-replication-emulation baseline (Appendix D): traditional vector
/// timestamps of length `R`, with *metadata broadcast to every replica*.
///
/// Under partial replication a replica-indexed vector is sound only if every
/// replica observes (the metadata of) every update — the paper's "dummy copy
/// of every register at every replica" construction. Consequently
/// [`Protocol::recipients`] returns all other replicas; replicas that don't
/// store the register apply only the metadata (checked via
/// [`Protocol::stores_value`]).
///
/// Trade-off demonstrated by experiment E11: `R` counters (often fewer than
/// `|E_i|`) but `R − 1` messages per update instead of `|C(x)| − 1`, plus
/// false dependencies.
pub struct VectorProtocol {
    g: ShareGraph,
}

impl VectorProtocol {
    /// Builds the baseline over a share graph.
    pub fn new(g: ShareGraph) -> Self {
        VectorProtocol { g }
    }
}

impl fmt::Debug for VectorProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorProtocol")
            .field("replicas", &self.g.num_replicas())
            .finish()
    }
}

impl Protocol for VectorProtocol {
    type Clock = VectorClock;

    fn name(&self) -> &str {
        "full-replication-vc"
    }

    fn share_graph(&self) -> &ShareGraph {
        &self.g
    }

    fn new_clock(&self, _i: ReplicaId) -> VectorClock {
        VectorClock::zero(self.g.num_replicas())
    }

    fn advance(&self, i: ReplicaId, local: &mut VectorClock, _x: RegisterId) {
        local.counters[i.index()] += 1;
    }

    fn deliverable(
        &self,
        _i: ReplicaId,
        local: &VectorClock,
        k: ReplicaId,
        attached: &VectorClock,
        _x: RegisterId,
    ) -> bool {
        // Standard causal-broadcast delivery condition.
        attached.counters[k.index()] == local.counters[k.index()] + 1
            && attached
                .counters
                .iter()
                .zip(&local.counters)
                .enumerate()
                .all(|(j, (t, l))| j == k.index() || t <= l)
    }

    fn merge(&self, _i: ReplicaId, local: &mut VectorClock, _k: ReplicaId, attached: &VectorClock) {
        for (l, t) in local.counters.iter_mut().zip(&attached.counters) {
            *l = (*l).max(*t);
        }
    }

    fn recipients(&self, i: ReplicaId, _x: RegisterId) -> Vec<ReplicaId> {
        // Dummy-register emulation: metadata goes everywhere.
        self.g.replicas().filter(|&k| k != i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_graph::topologies;

    #[test]
    fn broadcast_recipients() {
        let g = topologies::figure5();
        let p = VectorProtocol::new(g);
        let r = p.recipients(ReplicaId(1), RegisterId(4));
        assert_eq!(r.len(), 3, "metadata broadcast to all others");
        // Value is stored only at true holders.
        assert!(p.stores_value(ReplicaId(2), RegisterId(4)));
        assert!(!p.stores_value(ReplicaId(0), RegisterId(4)));
    }

    #[test]
    fn delivery_condition_is_standard_causal_broadcast() {
        let g = topologies::clique_full(3, 1);
        let p = VectorProtocol::new(g);
        let x = RegisterId(0);
        let mut c0 = p.new_clock(ReplicaId(0));
        let mut c1 = p.new_clock(ReplicaId(1));
        let c2 = p.new_clock(ReplicaId(2));
        p.advance(ReplicaId(0), &mut c0, x);
        let t0 = c0.clone();
        p.merge(ReplicaId(1), &mut c1, ReplicaId(0), &t0);
        p.advance(ReplicaId(1), &mut c1, x);
        let t1 = c1.clone();
        assert!(!p.deliverable(ReplicaId(2), &c2, ReplicaId(1), &t1, x));
        let mut c2 = c2;
        assert!(p.deliverable(ReplicaId(2), &c2, ReplicaId(0), &t0, x));
        p.merge(ReplicaId(2), &mut c2, ReplicaId(0), &t0);
        assert!(p.deliverable(ReplicaId(2), &c2, ReplicaId(1), &t1, x));
    }

    #[test]
    fn entries_equal_replica_count() {
        let g = topologies::ring(7);
        let p = VectorProtocol::new(g);
        assert_eq!(p.new_clock(ReplicaId(0)).entries(), 7);
    }

    #[test]
    fn fifo_violation_rejected() {
        let g = topologies::line(2);
        let p = VectorProtocol::new(g);
        let x = RegisterId(0);
        let mut c0 = p.new_clock(ReplicaId(0));
        p.advance(ReplicaId(0), &mut c0, x);
        p.advance(ReplicaId(0), &mut c0, x);
        let t2 = c0.clone();
        let c1 = p.new_clock(ReplicaId(1));
        assert!(!p.deliverable(ReplicaId(1), &c1, ReplicaId(0), &t2, x));
    }
}
