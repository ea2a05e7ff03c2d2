//! Online consistent-cut audit: marker-style global snapshots checked
//! for consistency and causal-cut closure, without stopping traffic.
//!
//! The post-hoc oracle needs every node's full (or checkpointed) trace
//! and a quiescent cluster. A *consistent-cut* audit is the online
//! complement: a marker token is injected at one node and floods the peer
//! links (Chandy–Lamport style), and each node records a [`CutSnapshot`]
//! the moment it first sees the token: its per-partition frontiers, and
//! per peer node the highest link sequence it had sent (`sent`) and
//! received (`received`).
//!
//! A cut is **consistent** exactly when no channel delivered a message
//! sent after its sender's cut: `received_a[b] ≤ sent_b[a]` for every
//! pair of reporting nodes. A pair that fails means `a` recorded late (a
//! marker lost, reordered or overtaken): [`CutVerdict::Incomplete`],
//! naming the pair. Markers only make consistent cuts likely; the stamps
//! decide, wherever the markers went.
//!
//! A consistent cut must be **causally closed**. Wire ids are assigned
//! monotonically per issuer, and a causally consistent replica applies
//! each issuer's updates in issue order, so for every partition, replica
//! `r` and issuer role `j`:
//!
//! ```text
//! applied_r[j] ≤ issued_j          (from j's own snapshot)
//! ```
//!
//! An update issued *before* the cut and applied after it is merely in
//! flight. One applied before the cut whose issue the cut missed reached
//! the replica on a link sequence past its issuer's `sent` stamp, which a
//! consistent cut excludes: on consistent stamps a closure failure is a
//! real break in the id bookkeeping or the protocol,
//! [`CutVerdict::Violated`].
//!
//! A cut is only *conclusive* when every role of every observed
//! partition reported a snapshot for the token; a node crash or a
//! severed link mid-audit loses markers, and the verdict is then
//! [`CutVerdict::Incomplete`] — the auditor retries with a fresh token
//! rather than trusting a partial cut.

use std::collections::HashMap;

/// One partition's frontier state inside a node's cut snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionCut {
    /// The partition this slice describes.
    pub partition: u32,
    /// The reporting node's replica role within the partition.
    pub role: usize,
    /// Highest wire id this replica has issued itself (0 = none).
    pub issued_high: u64,
    /// Per issuer role: highest wire id applied here (own issues
    /// included), length = the partition's replication factor.
    pub applied: Vec<u64>,
    /// Updates buffered awaiting dependencies at snapshot time.
    pub pending: u64,
}

/// One node's snapshot of every partition it hosts, taken at its first
/// sight of a cut token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutSnapshot {
    /// The reporting node.
    pub node: u64,
    /// The cut token the snapshot belongs to.
    pub token: u64,
    /// Per hosted partition, the frontier state at the cut line.
    pub partitions: Vec<PartitionCut>,
    /// Per node `k`, indexed by node: the highest link sequence this node
    /// had assigned toward `k` at the cut line (0 = none, and for itself).
    pub sent: Vec<u64>,
    /// Per node `k`: the highest link sequence this node had received
    /// from `k` at the cut line.
    pub received: Vec<u64>,
}

/// Verdict of a consistent-cut closure check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutVerdict {
    /// Every observed partition's cut is causally closed.
    Closed {
        /// Distinct partitions covered by the cut.
        partitions: usize,
        /// Individual `applied ≤ issued` comparisons performed.
        checks: u64,
    },
    /// A replica applied an update beyond its issuer's snapshot — the
    /// cut is not a consistent global state.
    Violated {
        /// Partition the violation is in.
        partition: u32,
        /// Role whose applied frontier overran the issuer.
        observer_role: usize,
        /// The issuer role overrun.
        issuer_role: usize,
        /// The observer's applied frontier for the issuer.
        applied: u64,
        /// The issuer's own issued frontier at its snapshot.
        issued: u64,
    },
    /// The cut cannot be judged: a node recorded past a message sent
    /// after its sender's cut (the stamps disagree), a role is missing
    /// (marker lost to a crash or sever), duplicated, or tokens are
    /// mixed. Retry with a fresh token.
    Incomplete {
        /// Human-readable reason.
        reason: String,
    },
}

impl CutVerdict {
    /// True when the cut was conclusively closed.
    pub fn is_closed(&self) -> bool {
        matches!(self, CutVerdict::Closed { .. })
    }

    /// True when the audit must be retried (not a protocol violation).
    pub fn is_incomplete(&self) -> bool {
        matches!(self, CutVerdict::Incomplete { .. })
    }
}

/// Checks a set of per-node snapshots for consistency, then causal-cut
/// closure.
///
/// All under one token, with one stamp per node in every `sent` and
/// `received`, consistent pairwise; within each partition that any
/// snapshot mentions, every role `0..replication_factor` (the length of
/// the `applied` vectors) reported exactly once. Anything else yields
/// [`CutVerdict::Incomplete`].
pub fn verify_cut_closure(snapshots: &[CutSnapshot]) -> CutVerdict {
    let incomplete = |reason: String| CutVerdict::Incomplete { reason };
    let Some(first) = snapshots.first() else {
        return incomplete("no snapshots".into());
    };
    let token = first.token;
    if let Some(s) = snapshots.iter().find(|s| s.token != token) {
        return incomplete(format!(
            "mixed tokens: node {} reported {}, expected {token}",
            s.node, s.token
        ));
    }
    let nodes = first.sent.len();
    let fits = |s: &CutSnapshot| {
        s.sent.len() == nodes && s.received.len() == nodes && (s.node as usize) < nodes
    };
    if let Some(s) = snapshots.iter().find(|s| !fits(s)) {
        return incomplete(format!("node {} stamps other than {nodes} nodes", s.node));
    }
    for (a, b) in snapshots
        .iter()
        .flat_map(|a| snapshots.iter().map(move |b| (a, b)))
    {
        let (received, sent) = (a.received[b.node as usize], b.sent[a.node as usize]);
        if a.node != b.node && received > sent {
            return incomplete(format!(
                "pair ({0}, {1}): node {0} received link sequence {received} from node {1}, \
                 which had sent {sent} when it recorded the cut",
                a.node, b.node
            ));
        }
    }
    // partition -> role -> (issued_high, applied)
    let mut by_partition: HashMap<u32, HashMap<usize, (u64, &[u64])>> = HashMap::new();
    let mut roles_of: HashMap<u32, usize> = HashMap::new();
    for snap in snapshots {
        for pc in &snap.partitions {
            let roles = roles_of.entry(pc.partition).or_insert(pc.applied.len());
            if *roles != pc.applied.len() || pc.role >= *roles {
                return incomplete(format!(
                    "partition {} role {} inconsistent with replication factor {}",
                    pc.partition, pc.role, roles
                ));
            }
            let slot = by_partition.entry(pc.partition).or_default();
            if slot
                .insert(pc.role, (pc.issued_high, pc.applied.as_slice()))
                .is_some()
            {
                return incomplete(format!(
                    "partition {} role {} reported twice",
                    pc.partition, pc.role
                ));
            }
        }
    }
    let mut checks = 0u64;
    let mut partitions: Vec<_> = by_partition.iter().collect();
    partitions.sort_by_key(|(p, _)| **p);
    for (&partition, slots) in partitions {
        let roles = roles_of[&partition];
        for role in 0..roles {
            if !slots.contains_key(&role) {
                return incomplete(format!("partition {partition} missing role {role}"));
            }
        }
        for (&observer_role, &(_, applied)) in slots.iter() {
            for (issuer_role, &applied_high) in applied.iter().enumerate() {
                if applied_high == 0 {
                    continue;
                }
                let &(issued, _) = &slots[&issuer_role];
                checks += 1;
                if applied_high > issued {
                    return CutVerdict::Violated {
                        partition,
                        observer_role,
                        issuer_role,
                        applied: applied_high,
                        issued,
                    };
                }
            }
        }
    }
    CutVerdict::Closed {
        partitions: by_partition.len(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of a two-node cluster whose links carried nothing.
    fn snap(node: u64, token: u64, partitions: Vec<PartitionCut>) -> CutSnapshot {
        CutSnapshot {
            node,
            token,
            partitions,
            sent: vec![0; 2],
            received: vec![0; 2],
        }
    }

    /// [`snap`] with link stamps.
    fn stamped(snap: CutSnapshot, sent: Vec<u64>, received: Vec<u64>) -> CutSnapshot {
        CutSnapshot {
            sent,
            received,
            ..snap
        }
    }

    fn pc(partition: u32, role: usize, issued: u64, applied: Vec<u64>) -> PartitionCut {
        PartitionCut {
            partition,
            role,
            issued_high: issued,
            applied,
            pending: 0,
        }
    }

    /// Wire ids mimic the service's `(node << 40) | seq` layout.
    fn wid(node: u64, seq: u64) -> u64 {
        (node << 40) | seq
    }

    #[test]
    fn closed_cut_passes() {
        let v = verify_cut_closure(&[
            snap(0, 7, vec![pc(0, 0, wid(0, 5), vec![wid(0, 5), wid(1, 3)])]),
            snap(1, 7, vec![pc(0, 1, wid(1, 4), vec![wid(0, 4), wid(1, 4)])]),
        ]);
        assert!(v.is_closed(), "{v:?}");
        match v {
            CutVerdict::Closed { partitions, checks } => {
                assert_eq!(partitions, 1);
                assert_eq!(checks, 4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn applied_beyond_issuer_snapshot_is_a_violation() {
        // Node 1 applied node 0's update seq 6, but node 0's snapshot only
        // issued up to seq 5: the cut caught an effect without its cause.
        let v = verify_cut_closure(&[
            snap(0, 7, vec![pc(0, 0, wid(0, 5), vec![wid(0, 5), 0])]),
            snap(1, 7, vec![pc(0, 1, wid(1, 2), vec![wid(0, 6), wid(1, 2)])]),
        ]);
        match v {
            CutVerdict::Violated {
                partition,
                observer_role,
                issuer_role,
                applied,
                issued,
            } => {
                assert_eq!(partition, 0);
                assert_eq!(observer_role, 1);
                assert_eq!(issuer_role, 0);
                assert_eq!(applied, wid(0, 6));
                assert_eq!(issued, wid(0, 5));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn missing_role_is_inconclusive() {
        let v = verify_cut_closure(&[snap(
            0,
            7,
            vec![pc(0, 0, wid(0, 5), vec![wid(0, 5), wid(1, 3)])],
        )]);
        assert!(v.is_incomplete(), "{v:?}");
    }

    #[test]
    fn duplicate_role_is_inconclusive() {
        let v = verify_cut_closure(&[
            snap(0, 7, vec![pc(0, 0, wid(0, 5), vec![wid(0, 5), 0])]),
            snap(1, 7, vec![pc(0, 0, wid(0, 5), vec![wid(0, 5), 0])]),
        ]);
        assert!(v.is_incomplete(), "{v:?}");
    }

    #[test]
    fn mixed_tokens_are_inconclusive() {
        let v = verify_cut_closure(&[
            snap(0, 7, vec![pc(0, 0, 1, vec![1, 0])]),
            snap(1, 8, vec![pc(0, 1, 1, vec![0, 1])]),
        ]);
        assert!(v.is_incomplete(), "{v:?}");
    }

    #[test]
    fn empty_set_is_inconclusive() {
        assert!(verify_cut_closure(&[]).is_incomplete());
    }

    #[test]
    fn multi_partition_cut_checks_each_partition() {
        let v = verify_cut_closure(&[
            snap(
                0,
                3,
                vec![
                    pc(0, 0, wid(0, 9), vec![wid(0, 9), wid(1, 1)]),
                    pc(1, 1, 0, vec![wid(1, 8), 0]),
                ],
            ),
            snap(
                1,
                3,
                vec![
                    pc(0, 1, wid(1, 1), vec![wid(0, 2), wid(1, 1)]),
                    pc(1, 0, wid(1, 8), vec![wid(1, 8), 0]),
                ],
            ),
        ]);
        assert!(v.is_closed(), "{v:?}");
    }

    #[test]
    fn zero_applied_frontiers_need_no_issuer() {
        // applied == 0 means "never applied anything from that issuer";
        // no comparison is made (and issued 0 is fine).
        let v = verify_cut_closure(&[
            snap(0, 1, vec![pc(0, 0, 0, vec![0, 0])]),
            snap(1, 1, vec![pc(0, 1, 0, vec![0, 0])]),
        ]);
        assert!(v.is_closed(), "{v:?}");
    }

    /// Node 0 issued seq 5 and shipped it to node 1 on link sequence 3;
    /// node 1 issued seq 2 and shipped it to node 0 on link sequence 2.
    fn two_node_cut(received_by_1: u64, applied_by_1: u64) -> Vec<CutSnapshot> {
        vec![
            stamped(
                snap(0, 7, vec![pc(0, 0, wid(0, 5), vec![wid(0, 5), wid(1, 2)])]),
                vec![0, 3],
                vec![0, 2],
            ),
            stamped(
                snap(
                    1,
                    7,
                    vec![pc(0, 1, wid(1, 2), vec![applied_by_1, wid(1, 2)])],
                ),
                vec![2, 0],
                vec![received_by_1, 0],
            ),
        ]
    }

    #[test]
    fn consistent_stamps_with_closure_are_closed() {
        let v = verify_cut_closure(&two_node_cut(3, wid(0, 5)));
        assert!(v.is_closed(), "{v:?}");
    }

    #[test]
    fn a_pair_received_past_its_senders_cut_is_incomplete_and_named() {
        // Node 1 took link sequence 4 from node 0, which had sent 3 when
        // it recorded: node 1 recorded late. Its frontier overran node 0's
        // as a late record's does, and the stamps, not the closure check,
        // judge it.
        let v = verify_cut_closure(&two_node_cut(4, wid(0, 6)));
        match v {
            CutVerdict::Incomplete { reason } => {
                assert!(reason.starts_with("pair (1, 0):"), "{reason}");
            }
            other => panic!("expected the pair named, got {other:?}"),
        }
    }

    #[test]
    fn consistent_stamps_with_broken_closure_are_a_violation() {
        // The stamps say no message crossed the cut, yet node 1 applied
        // node 0's seq 6: that is the bookkeeping breaking, not timing.
        let v = verify_cut_closure(&two_node_cut(3, wid(0, 6)));
        assert!(
            matches!(
                v,
                CutVerdict::Violated {
                    observer_role: 1,
                    issuer_role: 0,
                    ..
                }
            ),
            "{v:?}"
        );
    }

    #[test]
    fn stamps_of_the_wrong_length_are_inconclusive() {
        let mut cut = two_node_cut(3, wid(0, 5));
        cut[1].received.push(0);
        let v = verify_cut_closure(&cut);
        assert!(v.is_incomplete(), "{v:?}");
        // A node index past the stamps' length cannot be paired either.
        let mut cut = two_node_cut(3, wid(0, 5));
        cut[1].node = 2;
        assert!(verify_cut_closure(&cut).is_incomplete());
    }
}
