//! Register-level compressed timestamps (Appendix D).
//!
//! The paper observes that edge counters are linear combinations of
//! per-register update counts, and suggests counting "the number of updates
//! on x, y and z separately" instead of per edge. This module implements
//! that refinement as a live protocol: replica `i` keeps one counter per
//! `(source replica j, register r)` pair with `r ∈ ∪_{e_jk ∈ E_i} X_jk`.
//!
//! The per-register counters determine every edge counter exactly
//! (`τ[e_jk] = Σ_{r ∈ X_jk} c_{j,r}` whenever counts are consistent), and
//! the delivery predicate refines `J` register-by-register:
//!
//! * for the written register `x` from sender `k`:
//!   `c_i[(k, x)] = T[(k, x)] − 1` (per-register FIFO), and
//! * for every other commonly tracked `(j, r)` with `r ∈ X_i`:
//!   `c_i[(j, r)] ≥ T[(j, r)]`.
//!
//! This is at least as strong as the edge predicate (so safety is
//! preserved), and the counter count `Σ_j |∪_k X_jk|` is never larger than
//! `Σ_j Σ_k |… |`… it can beat or lose to raw `|E_i|` depending on overlap —
//! experiment E10 reports both against the rank lower bound `I(E_i, j)`.

use crate::encoding;
use crate::traits::{ClockState, Protocol};
use prcc_graph::{RegSet, RegisterId, ReplicaId, ShareGraph, TimestampGraph};
use std::fmt;
use std::sync::Arc;

/// A `(source replica, register)` indexed timestamp.
#[derive(Clone, PartialEq, Eq)]
pub struct CompressedClock {
    /// Sorted `(source, register)` keys.
    keys: Arc<[(ReplicaId, RegisterId)]>,
    counters: Vec<u64>,
}

impl CompressedClock {
    fn new(keys: Arc<[(ReplicaId, RegisterId)]>) -> Self {
        let counters = vec![0; keys.len()];
        CompressedClock { keys, counters }
    }

    /// Counter for `(source, register)`, or `None` if untracked.
    pub fn get(&self, j: ReplicaId, r: RegisterId) -> Option<u64> {
        self.keys
            .binary_search(&(j, r))
            .ok()
            .map(|idx| self.counters[idx])
    }

    /// Reconstructs the edge counter `τ[e_jk] = Σ_{r ∈ X_jk} c_{j,r}` from
    /// the per-register counters (exact when counts are consistent; see the
    /// module docs).
    pub fn edge_counter(&self, g: &ShareGraph, e: prcc_graph::Edge) -> u64 {
        g.shared_on(e)
            .iter()
            .filter_map(|r| self.get(e.from, r))
            .sum()
    }

    /// Iterates `((source, register), counter)`.
    pub fn iter(&self) -> impl Iterator<Item = ((ReplicaId, RegisterId), u64)> + '_ {
        self.keys.iter().copied().zip(self.counters.iter().copied())
    }
}

impl fmt::Debug for CompressedClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|((j, r), c)| (format!("({j},{r})"), c)))
            .finish()
    }
}

impl ClockState for CompressedClock {
    fn entries(&self) -> usize {
        self.counters.len()
    }

    fn encoded_len(&self) -> usize {
        encoding::counters_len(&self.counters)
    }
}

impl crate::wire::WireClock for CompressedClock {
    fn counter_values(&self) -> &[u64] {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut [u64] {
        &mut self.counters
    }
}

/// The register-level protocol of Appendix D, tracking the same edges as
/// [`crate::EdgeProtocol`] but with per-register granularity.
pub struct CompressedProtocol {
    g: ShareGraph,
    name: String,
    keys: Vec<Arc<[(ReplicaId, RegisterId)]>>,
    /// Per replica: is register r stored locally? (copied from g for fast
    /// predicate checks)
    stores: Vec<RegSet>,
}

impl CompressedProtocol {
    /// Builds the protocol from the exact timestamp graphs.
    pub fn new(g: ShareGraph) -> Self {
        let graphs = TimestampGraph::compute_all(&g);
        Self::with_edge_sets(g, graphs, "edge-tsg-compressed")
    }

    /// Builds from custom edge sets (mirrors
    /// [`crate::EdgeProtocol::with_edge_sets`]).
    ///
    /// # Panics
    ///
    /// Panics if the edge-set vector doesn't match the replica count.
    pub fn with_edge_sets(
        g: ShareGraph,
        graphs: Vec<TimestampGraph>,
        name: impl Into<String>,
    ) -> Self {
        assert_eq!(graphs.len(), g.num_replicas(), "one edge set per replica");
        let mut keys = Vec::with_capacity(graphs.len());
        for tsg in &graphs {
            // Keys: (j, r) for r ∈ ∪_{e_jk ∈ E_i} X_jk, sorted.
            let mut ks: Vec<(ReplicaId, RegisterId)> = Vec::new();
            for j in g.replicas() {
                let mut union = RegSet::new(g.num_registers());
                for e in tsg.outgoing_of(j) {
                    union.union_with(g.shared_on(e));
                }
                for r in union.iter() {
                    ks.push((j, r));
                }
            }
            ks.sort_unstable();
            keys.push(ks.into());
        }
        let stores = g.replicas().map(|i| g.registers_of(i).clone()).collect();
        CompressedProtocol {
            g,
            name: name.into(),
            keys,
            stores,
        }
    }
}

impl fmt::Debug for CompressedProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompressedProtocol")
            .field("name", &self.name)
            .field("replicas", &self.g.num_replicas())
            .finish()
    }
}

impl Protocol for CompressedProtocol {
    type Clock = CompressedClock;

    fn name(&self) -> &str {
        &self.name
    }

    fn share_graph(&self) -> &ShareGraph {
        &self.g
    }

    fn new_clock(&self, i: ReplicaId) -> CompressedClock {
        CompressedClock::new(Arc::clone(&self.keys[i.index()]))
    }

    fn advance(&self, i: ReplicaId, local: &mut CompressedClock, x: RegisterId) {
        if let Ok(idx) = local.keys.binary_search(&(i, x)) {
            local.counters[idx] += 1;
        }
    }

    fn deliverable(
        &self,
        i: ReplicaId,
        local: &CompressedClock,
        k: ReplicaId,
        attached: &CompressedClock,
        x: RegisterId,
    ) -> bool {
        let stores_i = &self.stores[i.index()];
        let (mut a, mut b) = (0usize, 0usize);
        let (ka, kb) = (&local.keys, &attached.keys);
        while a < ka.len() && b < kb.len() {
            match ka[a].cmp(&kb[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    let (j, r) = ka[a];
                    if stores_i.contains(r) {
                        if (j, r) == (k, x) {
                            if local.counters[a] != attached.counters[b].wrapping_sub(1) {
                                return false;
                            }
                        } else if local.counters[a] < attached.counters[b] {
                            return false;
                        }
                    }
                    a += 1;
                    b += 1;
                }
            }
        }
        true
    }

    fn merge(
        &self,
        _i: ReplicaId,
        local: &mut CompressedClock,
        _k: ReplicaId,
        attached: &CompressedClock,
    ) {
        let (mut a, mut b) = (0usize, 0usize);
        while a < local.keys.len() && b < attached.keys.len() {
            match local.keys[a].cmp(&attached.keys[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    local.counters[a] = local.counters[a].max(attached.counters[b]);
                    a += 1;
                    b += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeProtocol;
    use prcc_graph::{topologies, Edge};

    #[test]
    fn edge_counters_reconstruct_from_registers() {
        let g = topologies::figure5();
        let ep = EdgeProtocol::new(g.clone());
        let cp = CompressedProtocol::new(g.clone());
        let i = ReplicaId(0);
        let mut ec = ep.new_clock(i);
        let mut cc = cp.new_clock(i);
        for x in [5u32, 7, 5, 0] {
            ep.advance(i, &mut ec, RegisterId(x));
            cp.advance(i, &mut cc, RegisterId(x));
        }
        for (e, c) in ec.iter() {
            if e.from == i {
                assert_eq!(cc.edge_counter(&g, e), c, "edge {e}");
            }
        }
    }

    #[test]
    fn predicate_agrees_with_edge_protocol_on_simple_chain() {
        let g = topologies::clique_full(3, 2);
        let ep = EdgeProtocol::new(g.clone());
        let cp = CompressedProtocol::new(g);
        let x = RegisterId(0);
        // 0 writes x twice; 1 must apply in order under both protocols.
        let mut e0 = ep.new_clock(ReplicaId(0));
        let mut c0 = cp.new_clock(ReplicaId(0));
        ep.advance(ReplicaId(0), &mut e0, x);
        cp.advance(ReplicaId(0), &mut c0, x);
        let (te1, tc1) = (e0.clone(), c0.clone());
        ep.advance(ReplicaId(0), &mut e0, x);
        cp.advance(ReplicaId(0), &mut c0, x);
        let (te2, tc2) = (e0.clone(), c0.clone());
        let el = ep.new_clock(ReplicaId(1));
        let cl = cp.new_clock(ReplicaId(1));
        assert_eq!(
            ep.deliverable(ReplicaId(1), &el, ReplicaId(0), &te1, x),
            cp.deliverable(ReplicaId(1), &cl, ReplicaId(0), &tc1, x)
        );
        assert_eq!(
            ep.deliverable(ReplicaId(1), &el, ReplicaId(0), &te2, x),
            cp.deliverable(ReplicaId(1), &cl, ReplicaId(0), &tc2, x)
        );
    }

    #[test]
    fn per_register_fifo_is_finer_than_per_edge() {
        // Replica 0 shares {x, y} with replica 1. Edge protocol: one edge
        // counter. Compressed: separate x/y counters; an x-update and a
        // y-update still apply in issue order (both protocols), but the
        // compressed clock records which registers were involved.
        let g = prcc_graph::ShareGraphBuilder::new()
            .replica_raw([0, 1])
            .replica_raw([0, 1])
            .build()
            .unwrap();
        let cp = CompressedProtocol::new(g);
        let mut c0 = cp.new_clock(ReplicaId(0));
        cp.advance(ReplicaId(0), &mut c0, RegisterId(0));
        let t_x = c0.clone();
        cp.advance(ReplicaId(0), &mut c0, RegisterId(1));
        let t_y = c0.clone();
        let local = cp.new_clock(ReplicaId(1));
        assert!(cp.deliverable(ReplicaId(1), &local, ReplicaId(0), &t_x, RegisterId(0)));
        // The y-update depends on the x-update having been applied.
        assert!(!cp.deliverable(ReplicaId(1), &local, ReplicaId(0), &t_y, RegisterId(1)));
        let mut local = local;
        cp.merge(ReplicaId(1), &mut local, ReplicaId(0), &t_x);
        assert!(cp.deliverable(ReplicaId(1), &local, ReplicaId(0), &t_y, RegisterId(1)));
    }

    #[test]
    fn entry_counts_match_register_level_analysis() {
        let g = topologies::figure5();
        let cp = CompressedProtocol::new(g.clone());
        for tsg in TimestampGraph::compute_all(&g) {
            let i = tsg.replica();
            let report = prcc_graph::analysis::compression_report(&g, &tsg);
            assert_eq!(
                cp.new_clock(i).entries(),
                report.register_entries,
                "replica {i}"
            );
        }
    }

    #[test]
    fn full_replication_register_level_can_exceed_edges() {
        // Clique of 3 replicas, 5 registers each: register-level tracking
        // needs R·K = 15 counters vs R(R−1) = 6 raw edges — compression is
        // not always a win, as E10 reports.
        let g = topologies::clique_full(3, 5);
        let cp = CompressedProtocol::new(g.clone());
        let ep = EdgeProtocol::new(g);
        assert!(cp.new_clock(ReplicaId(0)).entries() > ep.new_clock(ReplicaId(0)).entries());
    }

    #[test]
    fn untracked_register_write_is_noop() {
        let g = topologies::line(3);
        let cp = CompressedProtocol::new(g);
        let mut c = cp.new_clock(ReplicaId(0));
        // Register 1 is shared by replicas 1 and 2 — replica 0 doesn't store
        // it; advancing must not panic or change anything.
        let before = c.clone();
        cp.advance(ReplicaId(0), &mut c, RegisterId(1));
        assert_eq!(c, before);
    }

    #[test]
    fn edge_counter_for_untracked_edge_is_zero() {
        let g = topologies::line(3);
        let cp = CompressedProtocol::new(g.clone());
        let c = cp.new_clock(ReplicaId(0));
        assert_eq!(c.edge_counter(&g, Edge::new(ReplicaId(1), ReplicaId(2))), 0);
    }
}
