//! The share graph `G` (Definition 3).

use crate::{Edge, GraphError, RegSet, RegisterId, ReplicaId};
use std::fmt;

/// The share graph `G = (V, E)` of a partially replicated system
/// (Definition 3).
///
/// Vertex `i` is replica `i`, which stores the register set `X_i`; directed
/// edges `e_ij` and `e_ji` exist iff `X_ij = X_i ∩ X_j ≠ ∅`. The structure
/// caches `X_i`, every pairwise intersection `X_ij`, and adjacency lists.
///
/// Construct with [`ShareGraphBuilder`] or one of the generators in
/// [`crate::topologies`].
#[derive(Clone, PartialEq, Eq)]
pub struct ShareGraph {
    /// `X_i` for each replica.
    regs: Vec<RegSet>,
    /// Size of the register universe.
    num_registers: usize,
    /// `X_ij` for each ordered pair, flattened `i * R + j`. Entry `(i, i)` is
    /// `X_i` itself.
    shared: Vec<RegSet>,
    /// Sorted neighbor lists.
    adj: Vec<Vec<ReplicaId>>,
    /// `C(x)`: holders of each register, sorted.
    holders: Vec<Vec<ReplicaId>>,
}

impl ShareGraph {
    /// Builds a share graph directly from per-replica register assignments.
    ///
    /// The register universe is `0..max_register+1`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NoReplicas`] if `assignments` is empty.
    pub fn from_assignments(assignments: Vec<Vec<RegisterId>>) -> Result<ShareGraph, GraphError> {
        if assignments.is_empty() {
            return Err(GraphError::NoReplicas);
        }
        let num_registers = assignments
            .iter()
            .flatten()
            .map(|r| r.index() + 1)
            .max()
            .unwrap_or(0);
        let regs: Vec<RegSet> = assignments
            .into_iter()
            .map(|a| RegSet::from_iter_in(num_registers, a))
            .collect();
        let r = regs.len();

        let mut shared = Vec::with_capacity(r * r);
        for i in 0..r {
            for j in 0..r {
                shared.push(regs[i].intersection(&regs[j]));
            }
        }

        let mut adj = vec![Vec::new(); r];
        for i in 0..r {
            for j in 0..r {
                if i != j && !shared[i * r + j].is_empty() {
                    adj[i].push(ReplicaId(j));
                }
            }
        }

        let mut holders = vec![Vec::new(); num_registers];
        for (i, x) in regs.iter().enumerate() {
            for reg in x.iter() {
                holders[reg.index()].push(ReplicaId(i));
            }
        }

        Ok(ShareGraph {
            regs,
            num_registers,
            shared,
            adj,
            holders,
        })
    }

    /// The per-replica register assignments, in replica order — the inverse
    /// of [`ShareGraph::from_assignments`], used to ship the topology
    /// configuration over the wire (`prcc-service`) and to clone graphs
    /// across process boundaries.
    pub fn assignments(&self) -> Vec<Vec<RegisterId>> {
        self.regs.iter().map(|x| x.iter().collect()).collect()
    }

    /// Number of replicas `R`.
    pub fn num_replicas(&self) -> usize {
        self.regs.len()
    }

    /// Size of the register universe (registers are `0..num_registers`).
    pub fn num_registers(&self) -> usize {
        self.num_registers
    }

    /// Iterator over all replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.num_replicas()).map(ReplicaId)
    }

    /// Iterator over all register ids in the universe.
    pub fn registers(&self) -> impl Iterator<Item = RegisterId> + '_ {
        (0..self.num_registers as u32).map(RegisterId)
    }

    /// The register set `X_i` stored at replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn registers_of(&self, i: ReplicaId) -> &RegSet {
        &self.regs[i.index()]
    }

    /// True if replica `i` stores register `x`.
    pub fn stores(&self, i: ReplicaId, x: RegisterId) -> bool {
        self.regs[i.index()].contains(x)
    }

    /// The shared set `X_ij = X_i ∩ X_j`.
    ///
    /// For `i == j` this is `X_i`.
    pub fn shared(&self, i: ReplicaId, j: ReplicaId) -> &RegSet {
        &self.shared[i.index() * self.num_replicas() + j.index()]
    }

    /// The shared set along a directed edge (`X_{e.from, e.to}`).
    pub fn shared_on(&self, e: Edge) -> &RegSet {
        self.shared(e.from, e.to)
    }

    /// True if `e_ij ∈ E`, i.e. `X_ij ≠ ∅` and `i ≠ j`.
    pub fn are_adjacent(&self, i: ReplicaId, j: ReplicaId) -> bool {
        i != j && !self.shared(i, j).is_empty()
    }

    /// True if the directed edge is in `E`.
    pub fn has_edge(&self, e: Edge) -> bool {
        self.are_adjacent(e.from, e.to)
    }

    /// Sorted neighbors of replica `i` in the share graph.
    pub fn neighbors(&self, i: ReplicaId) -> &[ReplicaId] {
        &self.adj[i.index()]
    }

    /// Degree of `i` (number of neighbors, `N_i` in the paper's Section 4).
    pub fn degree(&self, i: ReplicaId) -> usize {
        self.adj[i.index()].len()
    }

    /// `C(x)`: the sorted set of replicas storing register `x`
    /// (Definition 9's notation).
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the universe.
    pub fn holders(&self, x: RegisterId) -> &[ReplicaId] {
        &self.holders[x.index()]
    }

    /// Iterator over all directed edges of `E` (both orientations).
    pub fn directed_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.replicas()
            .flat_map(move |i| self.neighbors(i).iter().map(move |&j| Edge::new(i, j)))
    }

    /// Iterator over undirected edges, each reported once with
    /// `from < to`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.directed_edges().filter(|e| e.from < e.to)
    }

    /// Number of directed edges `|E|`.
    pub fn num_directed_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// True if every replica stores every register (full replication).
    pub fn is_full_replication(&self) -> bool {
        self.regs.iter().all(|x| x.len() == self.num_registers)
    }

    /// True if the share graph, viewed undirected, contains no cycle.
    ///
    /// Trees/forests are the topologies for which the paper's Section 4
    /// closed form `2 N_i log m` applies.
    pub fn is_forest(&self) -> bool {
        let r = self.num_replicas();
        let mut parent: Vec<Option<ReplicaId>> = vec![None; r];
        let mut seen = vec![false; r];
        for start in 0..r {
            if seen[start] {
                continue;
            }
            let mut stack = vec![ReplicaId(start)];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if Some(v) == parent[u.index()] {
                        continue;
                    }
                    if seen[v.index()] {
                        return false;
                    }
                    seen[v.index()] = true;
                    parent[v.index()] = Some(u);
                    stack.push(v);
                }
            }
        }
        true
    }

    /// True if the share graph, viewed undirected, is connected.
    pub fn is_connected(&self) -> bool {
        let r = self.num_replicas();
        if r == 0 {
            return true;
        }
        let mut seen = vec![false; r];
        let mut stack = vec![ReplicaId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == r
    }

    /// Union of `X_l` over the given replicas, a helper for Definition 4's
    /// conditions.
    pub fn union_registers<I: IntoIterator<Item = ReplicaId>>(&self, replicas: I) -> RegSet {
        let mut acc = RegSet::new(self.num_registers);
        for r in replicas {
            acc.union_with(&self.regs[r.index()]);
        }
        acc
    }

    /// The replicas an update to `x` issued at `i` must be sent to:
    /// every *other* replica storing `x` (step 2(iii) of the prototype).
    pub fn recipients(&self, i: ReplicaId, x: RegisterId) -> Vec<ReplicaId> {
        self.holders(x)
            .iter()
            .copied()
            .filter(|&k| k != i)
            .collect()
    }
}

impl fmt::Debug for ShareGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("ShareGraph");
        d.field("replicas", &self.num_replicas());
        d.field("registers", &self.num_registers);
        for i in self.replicas() {
            d.field(&format!("X_{}", i.index()), &self.regs[i.index()]);
        }
        d.finish()
    }
}

/// Incremental builder for [`ShareGraph`].
///
/// # Example
///
/// ```
/// use prcc_graph::{ShareGraphBuilder, RegisterId};
/// let g = ShareGraphBuilder::new()
///     .replica([RegisterId(0)])
///     .replica([RegisterId(0), RegisterId(1)])
///     .build()?;
/// assert_eq!(g.num_replicas(), 2);
/// # Ok::<(), prcc_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShareGraphBuilder {
    assignments: Vec<Vec<RegisterId>>,
}

impl ShareGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a replica storing the given registers, returning the builder
    /// for chaining.
    pub fn replica<I: IntoIterator<Item = RegisterId>>(mut self, regs: I) -> Self {
        self.assignments.push(regs.into_iter().collect());
        self
    }

    /// Appends a replica storing the given raw register indices.
    pub fn replica_raw<I: IntoIterator<Item = u32>>(self, regs: I) -> Self {
        self.replica(regs.into_iter().map(RegisterId))
    }

    /// Number of replicas added so far.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True if no replica has been added.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Finalizes the share graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NoReplicas`] if no replica was added.
    pub fn build(self) -> Result<ShareGraph, GraphError> {
        ShareGraph::from_assignments(self.assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;

    /// Figure 3's example: X1={x}, X2={x,y}, X3={y,z}, X4={z} (0-indexed
    /// registers x=0, y=1, z=2).
    fn figure3() -> ShareGraph {
        ShareGraphBuilder::new()
            .replica_raw([0])
            .replica_raw([0, 1])
            .replica_raw([1, 2])
            .replica_raw([2])
            .build()
            .unwrap()
    }

    #[test]
    fn figure3_edges_match_paper() {
        let g = figure3();
        assert_eq!(g.num_replicas(), 4);
        assert_eq!(g.num_registers(), 3);
        // X23 = {y}, X14 = ∅ (0-indexed: shared(1,2) = {1}, shared(0,3) = ∅).
        assert_eq!(g.shared(ReplicaId(1), ReplicaId(2)).iter().count(), 1);
        assert!(g.shared(ReplicaId(1), ReplicaId(2)).contains(RegisterId(1)));
        assert!(g.shared(ReplicaId(0), ReplicaId(3)).is_empty());
        // Path graph 1-2-3-4.
        assert!(g.are_adjacent(ReplicaId(0), ReplicaId(1)));
        assert!(g.are_adjacent(ReplicaId(1), ReplicaId(2)));
        assert!(g.are_adjacent(ReplicaId(2), ReplicaId(3)));
        assert!(!g.are_adjacent(ReplicaId(0), ReplicaId(2)));
        assert!(!g.are_adjacent(ReplicaId(0), ReplicaId(3)));
        assert_eq!(g.num_directed_edges(), 6);
        assert!(g.is_forest());
        assert!(g.is_connected());
        assert!(!g.is_full_replication());
    }

    #[test]
    fn edges_always_appear_in_pairs() {
        let g = figure3();
        for e in g.directed_edges() {
            assert!(g.has_edge(e.reversed()), "missing reverse of {e}");
        }
    }

    #[test]
    fn holders_and_recipients() {
        let g = figure3();
        assert_eq!(g.holders(RegisterId(0)), &[ReplicaId(0), ReplicaId(1)]);
        assert_eq!(g.holders(RegisterId(1)), &[ReplicaId(1), ReplicaId(2)]);
        assert_eq!(
            g.recipients(ReplicaId(1), RegisterId(0)),
            vec![ReplicaId(0)]
        );
        assert_eq!(
            g.recipients(ReplicaId(0), RegisterId(0)),
            vec![ReplicaId(1)]
        );
    }

    #[test]
    fn degree_and_neighbors() {
        let g = figure3();
        assert_eq!(g.degree(ReplicaId(0)), 1);
        assert_eq!(g.degree(ReplicaId(1)), 2);
        assert_eq!(g.neighbors(ReplicaId(1)), &[ReplicaId(0), ReplicaId(2)]);
    }

    #[test]
    fn full_replication_detection() {
        let g = ShareGraphBuilder::new()
            .replica_raw([0, 1])
            .replica_raw([0, 1])
            .replica_raw([0, 1])
            .build()
            .unwrap();
        assert!(g.is_full_replication());
        assert!(!g.is_forest()); // triangle
        assert_eq!(g.num_directed_edges(), 6);
    }

    #[test]
    fn empty_builder_errors() {
        assert_eq!(
            ShareGraphBuilder::new().build().unwrap_err(),
            GraphError::NoReplicas
        );
    }

    #[test]
    fn union_registers_helper() {
        let g = figure3();
        let u = g.union_registers([ReplicaId(1), ReplicaId(2)]);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = ShareGraphBuilder::new()
            .replica_raw([0])
            .replica_raw([0])
            .replica_raw([1])
            .replica_raw([1])
            .build()
            .unwrap();
        assert!(!g.is_connected());
        assert!(g.is_forest());
    }

    #[test]
    fn shared_on_directed_edge() {
        let g = figure3();
        assert_eq!(
            g.shared_on(edge(1, 2)),
            g.shared(ReplicaId(1), ReplicaId(2))
        );
    }

    #[test]
    fn debug_output_mentions_assignments() {
        let s = format!("{:?}", figure3());
        assert!(s.contains("X_0"));
        assert!(s.contains("replicas"));
    }
}
