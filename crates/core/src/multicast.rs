//! Causal group multicast with overlapping groups, as a view over the DSM.
//!
//! Section 2.2 of the paper spells out the correspondence: replicas sharing
//! a register `x` form the multicast group `G_x`; an update to `x` is a
//! multicast to `G_x`; replica-centric causal consistency is causal group
//! delivery. This adapter exposes that interface directly, so the crate
//! doubles as a causal-multicast library for overlapping groups — with the
//! paper's optimal per-process metadata.

use crate::cluster::Cluster;
use crate::CoreError;
use prcc_clock::EdgeProtocol;
use prcc_graph::{GraphError, RegisterId, ReplicaId, ShareGraph};
use prcc_net::DeliveryPolicy;

/// Identifier of a multicast group (one group per shared register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A delivered multicast message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredMessage {
    /// The sending process.
    pub sender: ReplicaId,
    /// The group it was multicast to.
    pub group: GroupId,
    /// The payload.
    pub payload: u64,
}

/// Causal group multicast over overlapping groups.
///
/// # Example
///
/// ```
/// use prcc_core::multicast::{CausalMulticast, GroupId};
/// use prcc_graph::ReplicaId;
/// use prcc_net::UniformDelay;
///
/// // Two overlapping groups: {p0, p1} and {p1, p2}.
/// let mut mc = CausalMulticast::new(
///     3,
///     vec![vec![ReplicaId(0), ReplicaId(1)], vec![ReplicaId(1), ReplicaId(2)]],
///     Box::new(UniformDelay::new(1, 1, 10)),
/// )?;
/// mc.multicast(ReplicaId(0), GroupId(0), 42)?;
/// mc.pump();
/// assert_eq!(mc.delivered(ReplicaId(1))[0].payload, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CausalMulticast {
    cluster: Cluster<EdgeProtocol>,
    delivered: Vec<Vec<DeliveredMessage>>,
}

impl CausalMulticast {
    /// Creates a system of `processes` processes and the given group
    /// memberships (group `g` = `groups[g]`).
    ///
    /// # Errors
    ///
    /// [`GraphError`] if a membership references an unknown process or the
    /// derived share graph is degenerate.
    pub fn new(
        processes: usize,
        groups: Vec<Vec<ReplicaId>>,
        policy: Box<dyn DeliveryPolicy>,
    ) -> Result<CausalMulticast, GraphError> {
        let mut assignments: Vec<Vec<RegisterId>> = vec![Vec::new(); processes];
        for (g, members) in groups.iter().enumerate() {
            for &p in members {
                if p.index() >= processes {
                    return Err(GraphError::UnknownReplica(p));
                }
                assignments[p.index()].push(RegisterId(g as u32));
            }
        }
        let share = ShareGraph::from_assignments(assignments)?;
        Ok(CausalMulticast {
            cluster: Cluster::new(EdgeProtocol::new(share), policy),
            delivered: vec![Vec::new(); processes],
        })
    }

    /// Multicasts `payload` from `sender` to its group.
    ///
    /// Local delivery is immediate (the sender "applies" its own message),
    /// matching the paper's prototype where a writer applies its own write.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotStored`] if the sender is not a member of the group.
    pub fn multicast(
        &mut self,
        sender: ReplicaId,
        group: GroupId,
        payload: u64,
    ) -> Result<(), CoreError> {
        self.cluster.write(sender, RegisterId(group.0), payload)?;
        self.delivered[sender.index()].push(DeliveredMessage {
            sender,
            group,
            payload,
        });
        Ok(())
    }

    /// Delivers everything currently in flight, in causal order, recording
    /// per-process delivery logs.
    pub fn pump(&mut self) {
        while let Some((dst, applied)) = self.cluster.step_detailed() {
            for u in applied {
                self.delivered[dst.index()].push(DeliveredMessage {
                    sender: u.issuer,
                    group: GroupId(u.register.0),
                    payload: u.value,
                });
            }
        }
    }

    /// The delivery log of a process, in delivery order.
    pub fn delivered(&self, p: ReplicaId) -> &[DeliveredMessage] {
        &self.delivered[p.index()]
    }

    /// True if every multicast has been delivered to every group member and
    /// all deliveries respected causal order.
    pub fn is_causally_consistent(&self) -> bool {
        self.cluster.verdict().is_consistent()
    }

    /// The underlying cluster (timestamp sizes, stats, link control).
    pub fn cluster_mut(&mut self) -> &mut Cluster<EdgeProtocol> {
        &mut self.cluster
    }
}

impl std::fmt::Debug for CausalMulticast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CausalMulticast")
            .field("processes", &self.delivered.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_net::{FixedDelay, UniformDelay};

    /// Overlapping groups: {0,1}, {1,2}, {2,3}. A message to g0 observed by
    /// p1, followed by p1's multicast to g1, must be delivered in that
    /// causal order at p2... transitively down the chain.
    #[test]
    fn causal_order_across_overlapping_groups() {
        let mut mc = CausalMulticast::new(
            4,
            vec![
                vec![ReplicaId(0), ReplicaId(1)],
                vec![ReplicaId(1), ReplicaId(2)],
                vec![ReplicaId(2), ReplicaId(3)],
            ],
            Box::new(FixedDelay(5)),
        )
        .unwrap();
        mc.multicast(ReplicaId(0), GroupId(0), 100).unwrap();
        mc.pump();
        mc.multicast(ReplicaId(1), GroupId(1), 101).unwrap();
        mc.pump();
        mc.multicast(ReplicaId(2), GroupId(2), 102).unwrap();
        mc.pump();
        assert!(mc.is_causally_consistent());
        let log1 = mc.delivered(ReplicaId(1));
        assert_eq!(
            log1.iter().map(|m| m.payload).collect::<Vec<_>>(),
            vec![100, 101]
        );
        let log2 = mc.delivered(ReplicaId(2));
        assert_eq!(
            log2.iter().map(|m| m.payload).collect::<Vec<_>>(),
            vec![101, 102]
        );
    }

    #[test]
    fn non_members_never_receive() {
        let mut mc = CausalMulticast::new(
            3,
            vec![vec![ReplicaId(0), ReplicaId(1)]],
            Box::new(FixedDelay(1)),
        )
        .unwrap();
        mc.multicast(ReplicaId(0), GroupId(0), 9).unwrap();
        mc.pump();
        assert!(mc.delivered(ReplicaId(2)).is_empty());
        assert_eq!(mc.delivered(ReplicaId(1)).len(), 1);
        // And non-members cannot send.
        assert!(mc.multicast(ReplicaId(2), GroupId(0), 1).is_err());
    }

    #[test]
    fn concurrent_multicasts_all_delivered() {
        let mut mc = CausalMulticast::new(
            5,
            (0..5)
                .map(|g| vec![ReplicaId(g), ReplicaId((g + 1) % 5)])
                .collect(),
            Box::new(UniformDelay::new(9, 1, 25)),
        )
        .unwrap();
        for round in 0..10u64 {
            for p in 0..5usize {
                mc.multicast(ReplicaId(p), GroupId(p as u32), round * 10 + p as u64)
                    .unwrap();
            }
        }
        mc.pump();
        assert!(mc.is_causally_consistent());
        for p in 0..5usize {
            // Each process is in two groups with 10 messages each; it sent
            // 10 itself and received 10 from its other group.
            assert_eq!(mc.delivered(ReplicaId(p)).len(), 20);
        }
    }
}
