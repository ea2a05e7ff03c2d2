//! Timestamp graphs `G_i` (Definition 5).

use crate::loops;
use crate::{Edge, ReplicaId, ShareGraph};
use std::collections::BTreeSet;
use std::fmt;

/// The timestamp graph `G_i = (V_i, E_i)` of replica `i` (Definition 5).
///
/// `E_i` consists of
/// * every directed edge incident at `i` (both orientations), and
/// * every directed edge `e_jk` (`j ≠ i ≠ k`) for which an
///   `(i, e_jk)`-loop exists.
///
/// Theorem 8 shows every edge of `E_i` *must* be tracked by `i`'s timestamp;
/// the Section 3.3 algorithm shows tracking exactly `E_i` is sufficient.
/// `E_i` is directed and in general asymmetric (`e_43 ∈ G_1`, `e_34 ∉ G_1`
/// in the paper's Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampGraph {
    replica: ReplicaId,
    edges: BTreeSet<Edge>,
}

impl TimestampGraph {
    /// Computes `G_i` exactly, by incident-edge collection plus
    /// `(i, e_jk)`-loop search over every non-incident directed edge.
    ///
    /// ```
    /// use prcc_graph::{topologies, ReplicaId, TimestampGraph};
    /// // Trees have no loops: only the 2·N_i incident edges are tracked.
    /// let g = topologies::line(4);
    /// let t = TimestampGraph::compute(&g, ReplicaId(1));
    /// assert_eq!(t.len(), 4);
    /// assert_eq!(t.loop_edges().count(), 0);
    /// ```
    pub fn compute(g: &ShareGraph, i: ReplicaId) -> TimestampGraph {
        let mut edges = BTreeSet::new();
        for &n in g.neighbors(i) {
            edges.insert(Edge::new(i, n));
            edges.insert(Edge::new(n, i));
        }
        for e in g.directed_edges() {
            if e.touches(i) || edges.contains(&e) {
                continue;
            }
            if loops::has_loop(g, i, e) {
                edges.insert(e);
            }
        }
        TimestampGraph { replica: i, edges }
    }

    /// Computes the timestamp graphs of all replicas.
    pub fn compute_all(g: &ShareGraph) -> Vec<TimestampGraph> {
        g.replicas()
            .map(|i| TimestampGraph::compute(g, i))
            .collect()
    }

    /// Like [`TimestampGraph::compute`], but also returns, for every
    /// loop-induced edge, the `(i, e_jk)`-loop that justifies tracking it —
    /// the "why is this edge in my timestamp?" diagnostic.
    ///
    /// Incident edges have no witness (they are tracked unconditionally by
    /// Definition 5).
    pub fn compute_with_witnesses(
        g: &ShareGraph,
        i: ReplicaId,
    ) -> (TimestampGraph, Vec<loops::LoopWitness>) {
        let mut edges = BTreeSet::new();
        for &n in g.neighbors(i) {
            edges.insert(Edge::new(i, n));
            edges.insert(Edge::new(n, i));
        }
        let mut witnesses = Vec::new();
        for e in g.directed_edges() {
            if e.touches(i) || edges.contains(&e) {
                continue;
            }
            if let Some(w) = loops::find_loop(g, i, e) {
                debug_assert!(w.verify(g));
                edges.insert(e);
                witnesses.push(w);
            }
        }
        (TimestampGraph { replica: i, edges }, witnesses)
    }

    /// Builds a timestamp graph from an explicit edge set (used by baseline
    /// protocols that deliberately track a different set, e.g. the
    /// hoop-based or bounded-loop baselines).
    pub fn from_edges<I: IntoIterator<Item = Edge>>(replica: ReplicaId, edges: I) -> Self {
        TimestampGraph {
            replica,
            edges: edges.into_iter().collect(),
        }
    }

    /// The replica `i` this graph belongs to.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// The edge set `E_i`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Number of edges `|E_i|` — the length of the (uncompressed)
    /// edge-indexed vector timestamp of replica `i`.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if `E_i` is empty (isolated replica).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Membership test for `e ∈ E_i`.
    pub fn contains(&self, e: Edge) -> bool {
        self.edges.contains(&e)
    }

    /// The vertex set `V_i` (endpoints of tracked edges), ascending.
    pub fn vertices(&self) -> Vec<ReplicaId> {
        let mut v: BTreeSet<ReplicaId> = BTreeSet::new();
        for e in &self.edges {
            v.insert(e.from);
            v.insert(e.to);
        }
        v.into_iter().collect()
    }

    /// Edges incident at the owning replica (`e_ij` and `e_ji`).
    pub fn incident_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let i = self.replica;
        self.edges().filter(move |e| e.touches(i))
    }

    /// Non-incident tracked edges — those justified by `(i, e_jk)`-loops.
    pub fn loop_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let i = self.replica;
        self.edges().filter(move |e| !e.touches(i))
    }

    /// The edge set intersection `E_i ∩ E_k` used by the algorithm's `merge`
    /// and predicate `J` (Section 3.3).
    pub fn common_edges(&self, other: &TimestampGraph) -> Vec<Edge> {
        self.edges.intersection(&other.edges).copied().collect()
    }

    /// Outgoing tracked edges of a vertex `j`: `{e_jk ∈ E_i}` (the paper's
    /// `O_j`, used by compression).
    pub fn outgoing_of(&self, j: ReplicaId) -> Vec<Edge> {
        self.edges().filter(|e| e.from == j).collect()
    }
}

impl fmt::Display for TimestampGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G_{} = {{", self.replica.index())?;
        for (n, e) in self.edges().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;
    use crate::topologies;

    #[test]
    fn figure5_timestamp_graph_matches_paper() {
        let g = topologies::figure5();
        let g1 = TimestampGraph::compute(&g, ReplicaId(0));
        // Incident edges at replica 1 (0-indexed 0): neighbors 2 (y) and 4
        // (y, w).
        assert!(g1.contains(edge(0, 1)));
        assert!(g1.contains(edge(1, 0)));
        assert!(g1.contains(edge(0, 3)));
        assert!(g1.contains(edge(3, 0)));
        // The paper's headline: e43 ∈ G1, e34 ∉ G1 (0-indexed: 3→2 vs 2→3).
        assert!(g1.contains(edge(3, 2)));
        assert!(!g1.contains(edge(2, 3)));
        // Also e32 ∈ G1, e23 ∉ G1.
        assert!(g1.contains(edge(2, 1)));
        assert!(!g1.contains(edge(1, 2)));
        // The triangle 1-2-4 forces both orientations of the 2–4 edge.
        assert!(g1.contains(edge(1, 3)));
        assert!(g1.contains(edge(3, 1)));
        assert_eq!(g1.len(), 8);
    }

    #[test]
    fn tree_tracks_only_incident_edges() {
        let g = topologies::line(6);
        for i in g.replicas() {
            let ti = TimestampGraph::compute(&g, i);
            assert_eq!(ti.loop_edges().count(), 0, "trees have no loops");
            assert_eq!(ti.len(), 2 * g.degree(i), "2·N_i incident edges");
        }
    }

    #[test]
    fn star_tracks_only_incident_edges() {
        let g = topologies::star(6);
        let hub = TimestampGraph::compute(&g, ReplicaId(0));
        assert_eq!(hub.len(), 2 * 5);
        let leaf = TimestampGraph::compute(&g, ReplicaId(3));
        assert_eq!(leaf.len(), 2);
    }

    #[test]
    fn ring_tracks_every_edge() {
        // Section 4: cycle of n replicas → timestamp of size 2n.
        for n in [3, 4, 5, 6, 7] {
            let g = topologies::ring(n);
            for i in g.replicas() {
                let ti = TimestampGraph::compute(&g, i);
                assert_eq!(ti.len(), 2 * n, "ring({n}) replica {i}");
            }
        }
    }

    #[test]
    fn full_replication_clique_tracks_every_edge() {
        let g = topologies::clique_full(4, 2);
        for i in g.replicas() {
            let ti = TimestampGraph::compute(&g, i);
            assert_eq!(ti.len(), 4 * 3, "R(R−1) raw entries");
        }
    }

    #[test]
    fn counterexample1_g_i_excludes_jk_both_ways() {
        let (g, r) = topologies::counterexample1();
        let gi = TimestampGraph::compute(&g, r.i);
        assert!(!gi.contains(Edge::new(r.j, r.k)));
        assert!(!gi.contains(Edge::new(r.k, r.j)));
        // ... but of course contains its own incident edges.
        assert!(gi.contains(Edge::new(r.i, r.b2)));
        assert!(gi.contains(Edge::new(r.a1, r.i)));
    }

    #[test]
    fn counterexample2_g_i_has_ekj_not_ejk() {
        let (g, r) = topologies::counterexample2();
        let gi = TimestampGraph::compute(&g, r.i);
        assert!(gi.contains(Edge::new(r.k, r.j)), "Theorem 8 forces e_kj");
        assert!(!gi.contains(Edge::new(r.j, r.k)));
    }

    #[test]
    fn incident_edges_always_present() {
        let g = topologies::clique_pairwise(5);
        for i in g.replicas() {
            let ti = TimestampGraph::compute(&g, i);
            for &n in g.neighbors(i) {
                assert!(ti.contains(Edge::new(i, n)));
                assert!(ti.contains(Edge::new(n, i)));
            }
        }
    }

    #[test]
    fn common_edges_is_symmetric() {
        let g = topologies::ring(5);
        let all = TimestampGraph::compute_all(&g);
        for a in &all {
            for b in &all {
                assert_eq!(a.common_edges(b), b.common_edges(a));
            }
        }
    }

    #[test]
    fn vertices_cover_edge_endpoints() {
        let g = topologies::figure5();
        let g1 = TimestampGraph::compute(&g, ReplicaId(0));
        let vs = g1.vertices();
        for e in g1.edges() {
            assert!(vs.contains(&e.from));
            assert!(vs.contains(&e.to));
        }
    }

    #[test]
    fn outgoing_of_partitions_edges() {
        let g = topologies::ring(4);
        let t = TimestampGraph::compute(&g, ReplicaId(0));
        let total: usize = g.replicas().map(|j| t.outgoing_of(j).len()).sum();
        assert_eq!(total, t.len());
    }

    #[test]
    fn display_lists_edges() {
        let g = topologies::line(2);
        let t = TimestampGraph::compute(&g, ReplicaId(0));
        let s = t.to_string();
        assert!(s.starts_with("G_0"));
        assert!(s.contains("e(0→1)"));
    }

    #[test]
    fn witnesses_cover_exactly_the_loop_edges() {
        let g = topologies::figure5();
        let (tsg, witnesses) = TimestampGraph::compute_with_witnesses(&g, ReplicaId(0));
        assert_eq!(tsg, TimestampGraph::compute(&g, ReplicaId(0)));
        let witnessed: std::collections::BTreeSet<Edge> =
            witnesses.iter().map(|w| w.edge).collect();
        let loop_edges: std::collections::BTreeSet<Edge> = tsg.loop_edges().collect();
        assert_eq!(witnessed, loop_edges);
        for w in &witnesses {
            assert!(w.verify(&g));
            assert_eq!(w.replica, ReplicaId(0));
        }
    }

    #[test]
    fn from_edges_round_trips() {
        let t = TimestampGraph::from_edges(ReplicaId(1), [edge(0, 1), edge(1, 0)]);
        assert_eq!(t.len(), 2);
        assert!(t.contains(edge(0, 1)));
    }
}
