//! Sharding the register space: the [`PartitionMap`].
//!
//! The paper's algorithm is defined *per share-graph instance*, and its
//! whole point — timestamps sized to the share graph rather than the full
//! replica set — only pays off when one physical node serves many register
//! partitions with independent small clocks. A [`PartitionMap`] makes that
//! deployment shape explicit: the global key space is split into contiguous
//! key ranges, one per partition; every partition is an independent instance
//! of the same share graph (its own registers, its own clocks); and each
//! partition's replica *roles* are placed onto physical nodes.
//!
//! Routing is therefore two lookups: `key → (partition, register)` by range
//! ([`PartitionMap::locate`]), then `(partition, role) → node` through the
//! hosting table ([`PartitionMap::node_of`]).

use crate::{GraphError, RegisterId, ReplicaId, ShareGraph};
use std::fmt;

/// Identifier of a partition (an independent share-graph instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Zero-based index of this partition.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// How the register space is sharded over a set of physical nodes.
///
/// * `graph` — the per-partition share graph; its replicas are *roles*
///   (`0..R`), not nodes.
/// * `hosts[p][role]` — the node hosting role `role` of partition `p`.
///   Within one partition every role lives on a distinct node (a node
///   cannot be two replicas of the same instance), but across partitions a
///   node typically hosts many roles — that is the point.
/// * keys — the global key universe is `partitions × num_registers` keys;
///   partition `p` owns the contiguous range
///   `[p · num_registers, (p + 1) · num_registers)`.
#[derive(Clone, PartialEq, Eq)]
pub struct PartitionMap {
    graph: ShareGraph,
    nodes: usize,
    hosts: Vec<Vec<usize>>,
}

impl PartitionMap {
    /// A single-partition map placing role `i` on node `i` — the
    /// pre-sharding "one replica per node" deployment.
    pub fn single(graph: ShareGraph) -> PartitionMap {
        let roles = graph.num_replicas();
        PartitionMap {
            graph,
            nodes: roles,
            hosts: vec![(0..roles).collect()],
        }
    }

    /// `partitions` instances of `graph` over `nodes` nodes, partition `p`
    /// placing role `i` on node `(i + p) mod nodes` — a rotation that
    /// spreads every role evenly across the cluster.
    ///
    /// # Errors
    ///
    /// [`GraphError::PartitionMap`] if `partitions == 0` or
    /// `nodes < graph.num_replicas()` (two roles of one partition would
    /// collide on a node).
    pub fn rotated(
        graph: ShareGraph,
        partitions: u32,
        nodes: usize,
    ) -> Result<PartitionMap, GraphError> {
        let roles = graph.num_replicas();
        if nodes < roles {
            return Err(GraphError::PartitionMap(
                "fewer nodes than share-graph replicas",
            ));
        }
        let hosts = (0..partitions as usize)
            .map(|p| (0..roles).map(|i| (i + p) % nodes).collect())
            .collect();
        PartitionMap::from_parts(graph, nodes, hosts)
    }

    /// Builds a map from an explicit hosting table (`hosts[p][role]` =
    /// node), validating shape and role-disjointness per partition.
    ///
    /// # Errors
    ///
    /// [`GraphError::PartitionMap`] on an empty table, a row whose length
    /// differs from the share graph's replica count, an out-of-range node,
    /// or two roles of one partition on the same node.
    pub fn from_parts(
        graph: ShareGraph,
        nodes: usize,
        hosts: Vec<Vec<usize>>,
    ) -> Result<PartitionMap, GraphError> {
        if hosts.is_empty() {
            return Err(GraphError::PartitionMap("no partitions"));
        }
        if u32::try_from(hosts.len()).is_err() {
            return Err(GraphError::PartitionMap("too many partitions"));
        }
        let roles = graph.num_replicas();
        for row in &hosts {
            if row.len() != roles {
                return Err(GraphError::PartitionMap(
                    "hosting row length differs from replica count",
                ));
            }
            if row.iter().any(|&node| node >= nodes) {
                return Err(GraphError::PartitionMap("host node out of range"));
            }
            let mut sorted = row.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != roles {
                return Err(GraphError::PartitionMap(
                    "two roles of one partition on the same node",
                ));
            }
        }
        Ok(PartitionMap {
            graph,
            nodes,
            hosts,
        })
    }

    /// The per-partition share graph (roles `0..R`).
    pub fn graph(&self) -> &ShareGraph {
        &self.graph
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.hosts.len() as u32
    }

    /// Number of physical nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// The raw hosting table, `hosts[p][role]` = node (wire serialization).
    pub fn hosts(&self) -> &[Vec<usize>] {
        &self.hosts
    }

    /// Size of the global key universe
    /// (`partitions × registers-per-partition`).
    pub fn num_keys(&self) -> u64 {
        u64::from(self.num_partitions()) * self.graph.num_registers() as u64
    }

    /// Routes a key to its partition and in-partition register by key
    /// range; `None` for keys outside the universe.
    pub fn locate(&self, key: u64) -> Option<(PartitionId, RegisterId)> {
        let span = self.graph.num_registers() as u64;
        if span == 0 || key >= self.num_keys() {
            return None;
        }
        Some((
            PartitionId((key / span) as u32),
            RegisterId((key % span) as u32),
        ))
    }

    /// The key owned by `(partition, register)` — inverse of
    /// [`PartitionMap::locate`].
    pub fn key_of(&self, p: PartitionId, x: RegisterId) -> u64 {
        u64::from(p.0) * self.graph.num_registers() as u64 + u64::from(x.0)
    }

    /// The node hosting `role` of partition `p`.
    pub fn node_of(&self, p: PartitionId, role: ReplicaId) -> usize {
        self.hosts[p.index()][role.index()]
    }

    /// The role `node` plays in partition `p`, if any.
    pub fn role_on(&self, p: PartitionId, node: usize) -> Option<ReplicaId> {
        self.hosts[p.index()]
            .iter()
            .position(|&host| host == node)
            .map(ReplicaId)
    }

    /// Every `(partition, role)` hosted by `node`, in partition order.
    pub fn hosted_by(&self, node: usize) -> Vec<(PartitionId, ReplicaId)> {
        (0..self.num_partitions())
            .filter_map(|p| {
                let p = PartitionId(p);
                self.role_on(p, node).map(|role| (p, role))
            })
            .collect()
    }

    /// The nodes storing register `x` of partition `p` (the partition's
    /// holders mapped through the hosting table), in holder order.
    pub fn holder_nodes(&self, p: PartitionId, x: RegisterId) -> Vec<usize> {
        self.graph
            .holders(x)
            .iter()
            .map(|&role| self.node_of(p, role))
            .collect()
    }

    /// Iterator over all partition ids.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        (0..self.num_partitions()).map(PartitionId)
    }
}

impl fmt::Debug for PartitionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionMap")
            .field("partitions", &self.num_partitions())
            .field("nodes", &self.nodes)
            .field("roles", &self.graph.num_replicas())
            .field("registers_per_partition", &self.graph.num_registers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    #[test]
    fn single_is_identity() {
        let m = PartitionMap::single(topologies::ring(4));
        assert_eq!(m.num_partitions(), 1);
        assert_eq!(m.num_nodes(), 4);
        for i in 0..4 {
            assert_eq!(m.node_of(PartitionId(0), ReplicaId(i)), i);
            assert_eq!(m.role_on(PartitionId(0), i), Some(ReplicaId(i)));
        }
    }

    #[test]
    fn rotation_spreads_roles() {
        let m = PartitionMap::rotated(topologies::ring(4), 8, 4).unwrap();
        assert_eq!(m.num_partitions(), 8);
        // Every node hosts one role of every partition.
        for node in 0..4 {
            assert_eq!(m.hosted_by(node).len(), 8);
        }
        // Partition 1 is the identity shifted by one.
        assert_eq!(m.node_of(PartitionId(1), ReplicaId(0)), 1);
        assert_eq!(m.node_of(PartitionId(1), ReplicaId(3)), 0);
    }

    #[test]
    fn key_ranges_route_contiguously() {
        let g = topologies::ring(4); // 4 registers
        let m = PartitionMap::rotated(g, 3, 4).unwrap();
        assert_eq!(m.num_keys(), 12);
        assert_eq!(m.locate(0), Some((PartitionId(0), RegisterId(0))));
        assert_eq!(m.locate(3), Some((PartitionId(0), RegisterId(3))));
        assert_eq!(m.locate(4), Some((PartitionId(1), RegisterId(0))));
        assert_eq!(m.locate(11), Some((PartitionId(2), RegisterId(3))));
        assert_eq!(m.locate(12), None);
        for key in 0..m.num_keys() {
            let (p, x) = m.locate(key).unwrap();
            assert_eq!(m.key_of(p, x), key);
        }
    }

    #[test]
    fn holder_nodes_follow_the_rotation() {
        let g = topologies::ring(4); // register 0 held by roles 0 and 1
        let m = PartitionMap::rotated(g, 4, 4).unwrap();
        assert_eq!(m.holder_nodes(PartitionId(0), RegisterId(0)), vec![0, 1]);
        assert_eq!(m.holder_nodes(PartitionId(2), RegisterId(0)), vec![2, 3]);
        assert_eq!(m.holder_nodes(PartitionId(3), RegisterId(0)), vec![3, 0]);
    }

    #[test]
    fn validation_rejects_bad_tables() {
        let g = topologies::ring(4);
        assert!(
            PartitionMap::rotated(g.clone(), 2, 3).is_err(),
            "too few nodes"
        );
        assert!(PartitionMap::from_parts(g.clone(), 4, vec![]).is_err());
        assert!(
            PartitionMap::from_parts(g.clone(), 4, vec![vec![0, 1, 2]]).is_err(),
            "short row"
        );
        assert!(
            PartitionMap::from_parts(g.clone(), 4, vec![vec![0, 1, 2, 4]]).is_err(),
            "node out of range"
        );
        assert!(
            PartitionMap::from_parts(g, 4, vec![vec![0, 1, 2, 2]]).is_err(),
            "role collision"
        );
    }

    #[test]
    fn more_nodes_than_roles_leave_gaps() {
        // 6 nodes, 3-role line: each partition occupies 3 of the 6 nodes.
        let m = PartitionMap::rotated(topologies::line(3), 6, 6).unwrap();
        let p = PartitionId(0);
        assert_eq!(m.role_on(p, 0), Some(ReplicaId(0)));
        assert_eq!(m.role_on(p, 3), None);
        let hosted: usize = (0..6).map(|n| m.hosted_by(n).len()).sum();
        assert_eq!(hosted, 6 * 3);
    }
}
