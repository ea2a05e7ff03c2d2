//! `(i, e_jk)`-loop detection (Definition 4).
//!
//! Given replica `i` and a directed share-graph edge `e_jk` (with
//! `j ≠ i ≠ k`), an `(i, e_jk)`-loop is a simple loop
//!
//! ```text
//! (i, l_1, l_2, …, l_s = k, j = r_1, r_2, …, r_t, i)      s ≥ 1, t ≥ 1
//! ```
//!
//! in the share graph `G` (with `r_{t+1} := i`) such that
//!
//! 1. `X_jk − (X_{l_1} ∪ … ∪ X_{l_{s−1}}) ≠ ∅`,
//! 2. `X_{j r_2} − (X_{l_1} ∪ … ∪ X_{l_{s−1}}) ≠ ∅`, and
//! 3. for `2 ≤ q ≤ t`: `X_{r_q r_{q+1}} − (X_{l_1} ∪ … ∪ X_{l_s}) ≠ ∅`.
//!
//! Intuition (paper, Section 3): the loop witnesses a chain of updates
//! `u ↪ u_1 ↪ … ↪ u_t` that carries a dependency on a `j→k` update all the
//! way around to `i` *without* any of the intermediate replicas
//! `l_1 … l_{s−1}` ever observing it — so `i` itself must track the `e_jk`
//! counter to re-establish the dependency when forwarding along the `l`
//! chain. The existence of such a loop is exactly what forces `e_jk` into
//! `i`'s timestamp graph (Theorem 8), and tracking those edges is also
//! sufficient (Section 3.3).
//!
//! # Algorithm
//!
//! The search enumerates the `l`-chain (simple paths `i → k` avoiding `j`)
//! by DFS, maintaining the running union `A = X_{l_1} ∪ … ∪ X_{l_{s−1}}`.
//! Because `A` only grows along a path, any prefix with `X_jk ⊆ A` can be
//! pruned (condition 1 can never be repaired). For each complete `l`-chain,
//! the `r`-chain reduces to a *reachability* question: beyond the first hop
//! (which is checked against `A`, condition 2), every edge of the `r`-chain
//! must satisfy the same filter `X_{r_q r_{q+1}} − B ≠ ∅` with
//! `B = A ∪ X_k` fixed, so a BFS over the filtered subgraph (avoiding the
//! `l`-chain vertices) decides existence. Worst case remains exponential in
//! the number of simple `i→k` paths, which is fine at the paper's scale;
//! tests cross-check structured topologies against closed forms.

use crate::{Edge, RegSet, ReplicaId, ShareGraph};
use std::collections::VecDeque;
use std::fmt;

/// A concrete `(i, e_jk)`-loop, returned as a witness by [`find_loop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopWitness {
    /// The replica `i` whose timestamp graph is being computed.
    pub replica: ReplicaId,
    /// The tracked edge `e_jk`.
    pub edge: Edge,
    /// `l_1, …, l_s` with `l_s = k`.
    pub l_chain: Vec<ReplicaId>,
    /// `r_1, …, r_t` with `r_1 = j`.
    pub r_chain: Vec<ReplicaId>,
}

impl LoopWitness {
    /// The full loop as a vertex sequence `i, l_1, …, l_s, r_1, …, r_t`
    /// (closing back to `i`).
    pub fn cycle(&self) -> Vec<ReplicaId> {
        let mut v = Vec::with_capacity(1 + self.l_chain.len() + self.r_chain.len());
        v.push(self.replica);
        v.extend_from_slice(&self.l_chain);
        v.extend_from_slice(&self.r_chain);
        v
    }

    /// Independently validates the witness against Definition 4.
    ///
    /// This is deliberately a from-scratch re-check (adjacency, simplicity
    /// and all three register conditions) so property tests can use it as an
    /// oracle for [`find_loop`].
    pub fn verify(&self, g: &ShareGraph) -> bool {
        let i = self.replica;
        let (j, k) = (self.edge.from, self.edge.to);
        if i == j || i == k || j == k {
            return false;
        }
        let (s, t) = (self.l_chain.len(), self.r_chain.len());
        if s < 1 || t < 1 {
            return false;
        }
        if *self.l_chain.last().unwrap() != k || self.r_chain[0] != j {
            return false;
        }
        // Simplicity: all loop vertices distinct.
        let cycle = self.cycle();
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != cycle.len() {
            return false;
        }
        // All consecutive pairs (wrapping) are share-graph edges.
        for w in 0..cycle.len() {
            let u = cycle[w];
            let v = cycle[(w + 1) % cycle.len()];
            if !g.are_adjacent(u, v) {
                return false;
            }
        }
        // Condition sets.
        let a = g.union_registers(self.l_chain[..s - 1].iter().copied());
        let b = a.union(g.registers_of(k));
        // (1)
        if g.shared(j, k).is_subset(&a) {
            return false;
        }
        // (2): r_2 is the next vertex after j, i.e. r_chain[1] or i if t = 1.
        let r2 = if t >= 2 { self.r_chain[1] } else { i };
        if g.shared(j, r2).is_subset(&a) {
            return false;
        }
        // (3): for 2 ≤ q ≤ t, with r_{t+1} = i.
        for q in 1..t {
            let rq = self.r_chain[q];
            let rq1 = if q + 1 < t { self.r_chain[q + 1] } else { i };
            if g.shared(rq, rq1).is_subset(&b) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for LoopWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})-loop: ", self.replica, self.edge)?;
        let cycle = self.cycle();
        for (n, v) in cycle.iter().enumerate() {
            if n > 0 {
                write!(f, "→")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "→{}", self.replica)
    }
}

/// True if an `(i, e_jk)`-loop exists in `g` (Definition 4).
///
/// Returns `false` whenever the arguments are degenerate (`j = i`, `k = i`,
/// or `e_jk ∉ E`): Definition 5 handles incident edges separately.
pub fn has_loop(g: &ShareGraph, i: ReplicaId, e: Edge) -> bool {
    find_loop(g, i, e).is_some()
}

/// Finds an `(i, e_jk)`-loop witness if one exists.
pub fn find_loop(g: &ShareGraph, i: ReplicaId, e: Edge) -> Option<LoopWitness> {
    find_loop_bounded(g, i, e, usize::MAX)
}

/// Like [`find_loop`] but only considers loops with at most `max_edges`
/// edges (cycle length `s + t + 1 ≤ max_edges`).
///
/// This implements the "sacrificing causality" relaxation of Appendix D:
/// tracking only edges witnessed by loops of at most `l + 1` edges stays
/// safe under loose synchrony (one-hop messages beat `l`-hop chains) but can
/// violate causality under full asynchrony.
pub fn find_loop_bounded(
    g: &ShareGraph,
    i: ReplicaId,
    e: Edge,
    max_edges: usize,
) -> Option<LoopWitness> {
    let (j, k) = (e.from, e.to);
    if i == j || i == k || j == k || !g.has_edge(e) {
        return None;
    }
    if max_edges < 3 {
        return None;
    }
    let mut search = LoopSearch {
        g,
        i,
        j,
        k,
        xjk: g.shared(j, k).clone(),
        on_path: vec![false; g.num_replicas()],
        l_chain: Vec::new(),
        client_edges: None,
        max_edges,
    };
    search.on_path[i.index()] = true;
    let a = RegSet::new(g.num_registers());
    search.dfs_l(i, &a).map(|(l_chain, r_chain)| LoopWitness {
        replica: i,
        edge: e,
        l_chain,
        r_chain,
    })
}

/// Adjacency predicate for the client-server extension: an extra set of
/// "client edges" usable by the loop besides the share-graph edges.
pub(crate) type ClientEdges<'a> = &'a dyn Fn(ReplicaId, ReplicaId) -> bool;

/// Finds an *augmented* `(i, e_jk)`-loop (Definition 27): the loop may use
/// client edges anywhere, and conditions 2–3 are satisfied on an edge that
/// is a client edge regardless of register sets.
///
/// `e_jk` itself must still be a share-graph edge.
pub(crate) fn find_loop_augmented(
    g: &ShareGraph,
    i: ReplicaId,
    e: Edge,
    client_edges: ClientEdges<'_>,
) -> Option<LoopWitness> {
    let (j, k) = (e.from, e.to);
    if i == j || i == k || j == k || !g.has_edge(e) {
        return None;
    }
    let mut search = LoopSearch {
        g,
        i,
        j,
        k,
        xjk: g.shared(j, k).clone(),
        on_path: vec![false; g.num_replicas()],
        l_chain: Vec::new(),
        client_edges: Some(client_edges),
        max_edges: usize::MAX,
    };
    search.on_path[i.index()] = true;
    let a = RegSet::new(g.num_registers());
    search.dfs_l(i, &a).map(|(l_chain, r_chain)| LoopWitness {
        replica: i,
        edge: e,
        l_chain,
        r_chain,
    })
}

struct LoopSearch<'a> {
    g: &'a ShareGraph,
    i: ReplicaId,
    j: ReplicaId,
    k: ReplicaId,
    xjk: RegSet,
    /// Vertices currently on the l-chain (plus `i`).
    on_path: Vec<bool>,
    l_chain: Vec<ReplicaId>,
    /// When set, augmented semantics (Definition 27).
    client_edges: Option<ClientEdges<'a>>,
    /// Cap on total cycle edges (`s + t + 1`).
    max_edges: usize,
}

impl LoopSearch<'_> {
    fn connected(&self, u: ReplicaId, v: ReplicaId) -> bool {
        self.g.are_adjacent(u, v) || self.client_edges.map(|ce| ce(u, v)).unwrap_or(false)
    }

    /// Successors of `u` in the (possibly augmented) graph.
    fn successors(&self, u: ReplicaId) -> Vec<ReplicaId> {
        match self.client_edges {
            None => self.g.neighbors(u).to_vec(),
            Some(ce) => {
                let mut out: Vec<ReplicaId> = self.g.neighbors(u).to_vec();
                for v in self.g.replicas() {
                    if v != u && !self.g.are_adjacent(u, v) && ce(u, v) {
                        out.push(v);
                    }
                }
                out
            }
        }
    }

    /// Condition-2/3 edge filter: share registers outside `excl`, or (in the
    /// augmented case) a client edge.
    fn r_edge_ok(&self, u: ReplicaId, v: ReplicaId, excl: &RegSet) -> bool {
        if self.g.are_adjacent(u, v) && !self.g.shared(u, v).is_subset(excl) {
            return true;
        }
        self.client_edges.map(|ce| ce(u, v)).unwrap_or(false)
    }

    /// Extends the l-chain from `u`; `a` is the union of `X_l` over chain
    /// vertices *excluding* a future `k` (i.e. over `l_1 … l_{cur}`).
    ///
    /// Returns `(l_chain, r_chain)` on success.
    fn dfs_l(&mut self, u: ReplicaId, a: &RegSet) -> Option<(Vec<ReplicaId>, Vec<ReplicaId>)> {
        // Prune: condition 1 is monotone in `a`.
        if self.xjk.is_subset(a) {
            return None;
        }
        // Prune: even closing at k right now and taking the direct j→i hop
        // needs l_chain.len() + 3 edges.
        if self.l_chain.len() + 3 > self.max_edges {
            return None;
        }
        // Try closing the l-chain at k.
        if self.connected(u, self.k) && !self.on_path[self.k.index()] {
            self.l_chain.push(self.k);
            self.on_path[self.k.index()] = true;
            if let Some(r_chain) = self.search_r(a) {
                let l_chain = self.l_chain.clone();
                self.on_path[self.k.index()] = false;
                self.l_chain.pop();
                return Some((l_chain, r_chain));
            }
            self.on_path[self.k.index()] = false;
            self.l_chain.pop();
        }
        // Extend through another intermediate vertex.
        for v in self.successors(u) {
            if v == self.i || v == self.j || v == self.k || self.on_path[v.index()] {
                continue;
            }
            let mut a2 = a.clone();
            a2.union_with(self.g.registers_of(v));
            self.l_chain.push(v);
            self.on_path[v.index()] = true;
            let found = self.dfs_l(v, &a2);
            self.on_path[v.index()] = false;
            self.l_chain.pop();
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Given a complete l-chain (with `a` = union over `l_1 … l_{s−1}`),
    /// decides whether a valid r-chain `j → … → i` exists, returning it.
    fn search_r(&self, a: &RegSet) -> Option<Vec<ReplicaId>> {
        let b = a.union(self.g.registers_of(self.k));
        // Budget: cycle edges = s + t + 1 ≤ max_edges.
        let t_max = self
            .max_edges
            .saturating_sub(self.l_chain.len())
            .saturating_sub(1);
        if t_max == 0 {
            return None;
        }
        // t = 1: direct edge j → i; condition 2 applies to X_{ji} − A.
        if self.r_edge_ok(self.j, self.i, a) {
            return Some(vec![self.j]);
        }
        // t ≥ 2: first hop filtered by A, the rest (including the final hop
        // into i) filtered by B; plain BFS over allowed vertices, bounded by
        // the remaining edge budget.
        let n = self.g.num_replicas();
        let mut parent: Vec<Option<ReplicaId>> = vec![None; n];
        let mut depth: Vec<usize> = vec![0; n];
        let mut queue = VecDeque::new();
        if t_max < 2 {
            return None;
        }
        for w in self.successors(self.j) {
            if w == self.i || self.on_path[w.index()] || w == self.j {
                continue;
            }
            if self.r_edge_ok(self.j, w, a) && parent[w.index()].is_none() {
                parent[w.index()] = Some(self.j);
                depth[w.index()] = 2;
                queue.push_back(w);
            }
        }
        while let Some(u) = queue.pop_front() {
            if self.r_edge_ok(u, self.i, &b) {
                // Reconstruct r-chain j … u.
                let mut chain = vec![u];
                let mut cur = u;
                while let Some(p) = parent[cur.index()] {
                    if p == self.j {
                        break;
                    }
                    chain.push(p);
                    cur = p;
                }
                chain.push(self.j);
                chain.reverse();
                return Some(chain);
            }
            if depth[u.index()] + 1 > t_max {
                continue;
            }
            for v in self.successors(u) {
                if v == self.i
                    || v == self.j
                    || self.on_path[v.index()]
                    || parent[v.index()].is_some()
                {
                    continue;
                }
                if self.r_edge_ok(u, v, &b) {
                    parent[v.index()] = Some(u);
                    depth[v.index()] = depth[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;
    use crate::topologies;

    #[test]
    fn figure5_e43_loop_exists() {
        // Paper Section 3 example (0-indexed): (1,2,3,4) is a (1, e43)-loop.
        let g = topologies::figure5();
        let w = find_loop(&g, ReplicaId(0), edge(3, 2)).expect("loop must exist");
        assert!(w.verify(&g), "witness must satisfy Definition 4: {w}");
        assert_eq!(
            w.cycle(),
            vec![ReplicaId(0), ReplicaId(1), ReplicaId(2), ReplicaId(3)]
        );
    }

    #[test]
    fn figure5_e32_loop_exists() {
        let g = topologies::figure5();
        let w = find_loop(&g, ReplicaId(0), edge(2, 1)).expect("loop must exist");
        assert!(w.verify(&g));
    }

    #[test]
    fn figure5_e34_loop_absent() {
        // (1,4,3,2) is not a (1, e34)-loop since X21 − X4 = ∅, and no other
        // candidate loop exists.
        let g = topologies::figure5();
        assert!(find_loop(&g, ReplicaId(0), edge(2, 3)).is_none());
    }

    #[test]
    fn figure5_e23_loop_absent() {
        let g = topologies::figure5();
        assert!(find_loop(&g, ReplicaId(0), edge(1, 2)).is_none());
    }

    #[test]
    fn degenerate_arguments_have_no_loop() {
        let g = topologies::figure5();
        // j = i.
        assert!(find_loop(&g, ReplicaId(0), edge(0, 2)).is_none());
        // k = i.
        assert!(find_loop(&g, ReplicaId(0), edge(2, 0)).is_none());
        // Non-edge (1–3 don't share registers in Figure 5).
        assert!(find_loop(&g, ReplicaId(1), edge(0, 2)).is_none());
    }

    #[test]
    fn tree_has_no_loops_at_all() {
        let g = topologies::line(5);
        for i in g.replicas() {
            for e in g.directed_edges() {
                if !e.touches(i) {
                    assert!(
                        find_loop(&g, i, e).is_none(),
                        "unexpected loop for {i}, {e} in a tree"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_has_loops_for_every_non_incident_edge() {
        // Paper Section 4: for a cycle share graph, every edge is tracked.
        let g = topologies::ring(6);
        for i in g.replicas() {
            for e in g.directed_edges() {
                if e.touches(i) {
                    continue;
                }
                let w = find_loop(&g, i, e)
                    .unwrap_or_else(|| panic!("ring must have an ({i}, {e})-loop"));
                assert!(w.verify(&g), "invalid witness {w}");
            }
        }
    }

    #[test]
    fn triangle_full_replication_has_minimal_loops() {
        let g = topologies::clique_full(3, 2);
        let w = find_loop(&g, ReplicaId(0), edge(1, 2)).expect("loop in K3");
        assert!(w.verify(&g));
        assert_eq!(
            w.l_chain.len() + w.r_chain.len(),
            2,
            "minimal loop is the triangle"
        );
    }

    #[test]
    fn counterexample1_i_tracks_neither_direction_of_jk() {
        let (g, roles) = topologies::counterexample1();
        assert!(find_loop(&g, roles.i, Edge::new(roles.j, roles.k)).is_none());
        assert!(find_loop(&g, roles.i, Edge::new(roles.k, roles.j)).is_none());
    }

    #[test]
    fn counterexample2_i_tracks_ekj_but_not_ejk() {
        let (g, roles) = topologies::counterexample2();
        let w = find_loop(&g, roles.i, Edge::new(roles.k, roles.j))
            .expect("Theorem 8 requires i to track e_kj here");
        assert!(w.verify(&g));
        assert!(find_loop(&g, roles.i, Edge::new(roles.j, roles.k)).is_none());
    }

    #[test]
    fn bounded_search_respects_edge_budget() {
        // The only loop of ring(6) has 6 edges.
        let g = topologies::ring(6);
        let e = edge(3, 2);
        assert!(find_loop_bounded(&g, ReplicaId(0), e, 5).is_none());
        let w = find_loop_bounded(&g, ReplicaId(0), e, 6).expect("full ring fits");
        assert!(w.verify(&g));
        assert_eq!(w.cycle().len(), 6);
        // Triangles need 3 edges.
        let t = topologies::clique_full(3, 1);
        assert!(find_loop_bounded(&t, ReplicaId(0), edge(1, 2), 2).is_none());
        assert!(find_loop_bounded(&t, ReplicaId(0), edge(1, 2), 3).is_some());
    }

    #[test]
    fn bounded_search_agrees_with_unbounded_when_loose() {
        let g = topologies::figure5();
        for i in g.replicas() {
            for e in g.directed_edges() {
                assert_eq!(
                    find_loop(&g, i, e).is_some(),
                    find_loop_bounded(&g, i, e, 64).is_some(),
                    "i={i} e={e}"
                );
            }
        }
    }

    #[test]
    fn witness_display_shows_cycle() {
        let g = topologies::ring(4);
        let w = find_loop(&g, ReplicaId(0), edge(2, 1)).unwrap();
        let s = w.to_string();
        assert!(s.contains("loop"), "{s}");
        assert!(s.contains("r0"), "{s}");
    }

    #[test]
    fn verify_rejects_tampered_witness() {
        let g = topologies::ring(5);
        let mut w = find_loop(&g, ReplicaId(0), edge(3, 2)).unwrap();
        assert!(w.verify(&g));
        // Break the chain endpoint invariant.
        w.r_chain[0] = ReplicaId(0);
        assert!(!w.verify(&g));
    }
}
