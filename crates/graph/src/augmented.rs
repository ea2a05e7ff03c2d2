//! The client-server extension: augmented share graphs and augmented
//! timestamp graphs (Section 6, Appendix E).
//!
//! In the client-server architecture (Figure 1b) a client `c` may access any
//! replica in its replica set `R_c`, propagating causal dependencies between
//! replicas that share no register. The augmented share graph
//! `Ĝ = (V, Ê)` (Definition 16) adds a directed edge pair between every two
//! replicas co-accessed by some client; augmented `(i, e_jk)`-loops
//! (Definition 27) may traverse those edges, and conditions (ii)/(iii) are
//! satisfied for free on them. The augmented timestamp graph `Ĝ_i`
//! (Definition 28) is then intersected back with the *share* edges `E`.

use crate::loops::{find_loop_augmented, LoopWitness};
use crate::{Edge, GraphError, ReplicaId, ShareGraph, TimestampGraph};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a client in the client-server architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub usize);

impl ClientId {
    /// Zero-based index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The augmented share graph `Ĝ` (Definition 16): a share graph plus the
/// client access sets `R_c`.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentedShareGraph {
    base: ShareGraph,
    /// `R_c` for each client, sorted and deduplicated.
    clients: Vec<Vec<ReplicaId>>,
    /// Flattened `R × R` matrix: true iff some client co-accesses the pair.
    client_pair: Vec<bool>,
}

impl AugmentedShareGraph {
    /// Builds the augmented graph from a share graph and per-client replica
    /// sets.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyClientReplicaSet`] if some client has no
    ///   replicas.
    /// * [`GraphError::ClientReplicaOutOfRange`] if a client references a
    ///   replica outside the share graph.
    pub fn new(
        base: ShareGraph,
        clients: Vec<Vec<ReplicaId>>,
    ) -> Result<AugmentedShareGraph, GraphError> {
        let r = base.num_replicas();
        let mut norm = Vec::with_capacity(clients.len());
        let mut client_pair = vec![false; r * r];
        for (c, set) in clients.into_iter().enumerate() {
            if set.is_empty() {
                return Err(GraphError::EmptyClientReplicaSet { client: c });
            }
            let mut set: Vec<ReplicaId> = set;
            set.sort_unstable();
            set.dedup();
            for &rep in &set {
                if rep.index() >= r {
                    return Err(GraphError::ClientReplicaOutOfRange {
                        client: c,
                        replica: rep,
                    });
                }
            }
            for (ai, &a) in set.iter().enumerate() {
                for &b in &set[ai + 1..] {
                    client_pair[a.index() * r + b.index()] = true;
                    client_pair[b.index() * r + a.index()] = true;
                }
            }
            norm.push(set);
        }
        Ok(AugmentedShareGraph {
            base,
            clients: norm,
            client_pair,
        })
    }

    /// The underlying share graph.
    pub fn share_graph(&self) -> &ShareGraph {
        &self.base
    }

    /// Number of clients `C`.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Iterator over client ids.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        (0..self.clients.len()).map(ClientId)
    }

    /// The replica set `R_c` of a client.
    ///
    /// # Panics
    ///
    /// Panics if the client id is out of range.
    pub fn replicas_of(&self, c: ClientId) -> &[ReplicaId] {
        &self.clients[c.index()]
    }

    /// Clients that may access replica `r`.
    pub fn clients_of(&self, r: ReplicaId) -> Vec<ClientId> {
        self.clients()
            .filter(|&c| self.clients[c.index()].contains(&r))
            .collect()
    }

    /// True iff some client co-accesses `u` and `v` (a *client edge* of
    /// `Ê − E` or parallel to an `E` edge).
    pub fn client_edge(&self, u: ReplicaId, v: ReplicaId) -> bool {
        u != v && self.client_pair[u.index() * self.base.num_replicas() + v.index()]
    }

    /// True iff `e ∈ Ê` (share edge or client edge, Definition 16).
    pub fn has_augmented_edge(&self, e: Edge) -> bool {
        self.base.has_edge(e) || self.client_edge(e.from, e.to)
    }

    /// Finds an augmented `(i, e_jk)`-loop (Definition 27).
    pub fn find_augmented_loop(&self, i: ReplicaId, e: Edge) -> Option<LoopWitness> {
        let pred = |u: ReplicaId, v: ReplicaId| self.client_edge(u, v);
        find_loop_augmented(&self.base, i, e, &pred)
    }

    /// Computes the augmented timestamp graph `Ĝ_i` (Definition 28):
    /// incident share edges plus share edges `e_jk` with an augmented loop;
    /// client-only edges are excluded by the `∩ E` in the definition.
    pub fn augmented_timestamp_graph(&self, i: ReplicaId) -> TimestampGraph {
        let g = &self.base;
        let mut edges = BTreeSet::new();
        for &n in g.neighbors(i) {
            edges.insert(Edge::new(i, n));
            edges.insert(Edge::new(n, i));
        }
        for e in g.directed_edges() {
            if e.touches(i) || edges.contains(&e) {
                continue;
            }
            if self.find_augmented_loop(i, e).is_some() {
                edges.insert(e);
            }
        }
        TimestampGraph::from_edges(i, edges)
    }

    /// Computes `Ĝ_i` for every replica.
    pub fn augmented_timestamp_graphs(&self) -> Vec<TimestampGraph> {
        self.base
            .replicas()
            .map(|i| self.augmented_timestamp_graph(i))
            .collect()
    }

    /// The edge set a *client* timestamp is indexed by:
    /// `∪_{i ∈ R_c} Ê_i` (Appendix E.5).
    pub fn client_timestamp_edges(&self, c: ClientId) -> Vec<Edge> {
        let mut set: BTreeSet<Edge> = BTreeSet::new();
        for &r in self.replicas_of(c) {
            set.extend(self.augmented_timestamp_graph(r).edges());
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;
    use crate::topologies;

    /// Two disjoint lines 0–1 and 2–3 bridged only by a client accessing
    /// replicas 1 and 2.
    fn bridged() -> AugmentedShareGraph {
        let g = crate::ShareGraphBuilder::new()
            .replica_raw([0])
            .replica_raw([0, 1])
            .replica_raw([2, 3])
            .replica_raw([3])
            .build()
            .unwrap();
        AugmentedShareGraph::new(g, vec![vec![ReplicaId(1), ReplicaId(2)]]).unwrap()
    }

    #[test]
    fn client_edges_exist_without_shared_registers() {
        let a = bridged();
        assert!(a.client_edge(ReplicaId(1), ReplicaId(2)));
        assert!(!a.share_graph().are_adjacent(ReplicaId(1), ReplicaId(2)));
        assert!(a.has_augmented_edge(edge(1, 2)));
        assert!(!a.has_augmented_edge(edge(0, 3)));
    }

    #[test]
    fn augmented_graph_of_tree_plus_client_has_no_loops() {
        // The bridged graph is still a tree in Ĝ, so Ĝ_i = incident edges.
        let a = bridged();
        for i in a.share_graph().replicas() {
            let t = a.augmented_timestamp_graph(i);
            assert_eq!(t.loop_edges().count(), 0);
        }
    }

    #[test]
    fn client_closing_a_cycle_creates_loop_edges() {
        // Line 0–1–2–3 (registers unique per edge) plus a client accessing
        // both ends closes a cycle in Ĝ; replica 1 must now track edges on
        // the far side of the cycle.
        let g = topologies::line(4);
        let a = AugmentedShareGraph::new(g, vec![vec![ReplicaId(0), ReplicaId(3)]]).unwrap();
        let t1 = a.augmented_timestamp_graph(ReplicaId(1));
        // Without the client, a line gives only incident edges.
        let plain = TimestampGraph::compute(a.share_graph(), ReplicaId(1));
        assert_eq!(plain.loop_edges().count(), 0);
        assert!(
            t1.loop_edges().count() > 0,
            "client-induced cycle must add tracked edges: {t1}"
        );
        // The added edges are share edges only (∩ E in Definition 28).
        for e in t1.edges() {
            assert!(a.share_graph().has_edge(e), "client-only edge leaked: {e}");
        }
    }

    #[test]
    fn no_clients_matches_plain_timestamp_graph() {
        let g = topologies::figure5();
        let a = AugmentedShareGraph::new(g.clone(), vec![]).unwrap();
        for i in g.replicas() {
            assert_eq!(
                a.augmented_timestamp_graph(i),
                TimestampGraph::compute(&g, i),
                "replica {i}"
            );
        }
    }

    #[test]
    fn single_replica_clients_add_nothing() {
        let g = topologies::ring(4);
        let a = AugmentedShareGraph::new(g.clone(), vec![vec![ReplicaId(0)], vec![ReplicaId(2)]])
            .unwrap();
        for i in g.replicas() {
            assert_eq!(
                a.augmented_timestamp_graph(i),
                TimestampGraph::compute(&g, i)
            );
        }
    }

    #[test]
    fn client_timestamp_edges_union() {
        let a = bridged();
        let c = ClientId(0);
        let union = a.client_timestamp_edges(c);
        let t1 = a.augmented_timestamp_graph(ReplicaId(1));
        let t2 = a.augmented_timestamp_graph(ReplicaId(2));
        for e in t1.edges().chain(t2.edges()) {
            assert!(union.contains(&e));
        }
        assert_eq!(
            union.len(),
            t1.edges()
                .chain(t2.edges())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }

    #[test]
    fn validation_errors() {
        let g = topologies::line(2);
        assert!(matches!(
            AugmentedShareGraph::new(g.clone(), vec![vec![]]),
            Err(GraphError::EmptyClientReplicaSet { client: 0 })
        ));
        assert!(matches!(
            AugmentedShareGraph::new(g, vec![vec![ReplicaId(9)]]),
            Err(GraphError::ClientReplicaOutOfRange { client: 0, .. })
        ));
    }

    #[test]
    fn clients_of_replica() {
        let a = bridged();
        assert_eq!(a.clients_of(ReplicaId(1)), vec![ClientId(0)]);
        assert!(a.clients_of(ReplicaId(0)).is_empty());
        assert_eq!(a.num_clients(), 1);
        assert_eq!(a.replicas_of(ClientId(0)), &[ReplicaId(1), ReplicaId(2)]);
    }
}
