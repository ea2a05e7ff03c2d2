//! Causal pasts as explicit update sets.

use prcc_graph::{Edge, RegisterId, ReplicaId, ShareGraph};
use std::collections::BTreeSet;
use std::fmt;

/// An update identified by issuer, register and per-(issuer, register)
/// sequence number — enough structure to evaluate the `S|e` restrictions of
/// Section 4 without carrying values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbstractUpdate {
    /// The issuing replica.
    pub issuer: ReplicaId,
    /// The written register.
    pub register: RegisterId,
    /// 1-based issue index among this issuer's updates to this register.
    pub seq: u64,
}

impl fmt::Display for AbstractUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{},#{}⟩", self.issuer, self.register, self.seq)
    }
}

/// A causal past `S`: a set of updates (Definition 6's vertex set).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct CausalPast {
    updates: BTreeSet<AbstractUpdate>,
}

impl CausalPast {
    /// The empty past.
    pub fn new() -> Self {
        CausalPast::default()
    }

    /// Inserts an update.
    pub fn insert(&mut self, u: AbstractUpdate) -> bool {
        self.updates.insert(u)
    }

    /// Membership test.
    pub fn contains(&self, u: &AbstractUpdate) -> bool {
        self.updates.contains(u)
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterates updates in order.
    pub fn iter(&self) -> impl Iterator<Item = &AbstractUpdate> + '_ {
        self.updates.iter()
    }

    /// `S|e_jk`: the updates in `S` issued by `j` on registers in `X_jk`
    /// (empty for non-edges, matching the paper's convention).
    pub fn restrict(&self, g: &ShareGraph, e: Edge) -> BTreeSet<AbstractUpdate> {
        if !g.has_edge(e) {
            return BTreeSet::new();
        }
        let shared = g.shared_on(e);
        self.updates
            .iter()
            .filter(|u| u.issuer == e.from && shared.contains(u.register))
            .copied()
            .collect()
    }

    /// Count version of [`CausalPast::restrict`].
    pub fn count_on(&self, g: &ShareGraph, e: Edge) -> usize {
        self.restrict(g, e).len()
    }

    /// True if `self|e ⊊ other|e` (strict inclusion on the edge).
    pub fn strictly_below_on(&self, other: &CausalPast, g: &ShareGraph, e: Edge) -> bool {
        let a = self.restrict(g, e);
        let b = other.restrict(g, e);
        a.len() < b.len() && a.is_subset(&b)
    }
}

impl FromIterator<AbstractUpdate> for CausalPast {
    fn from_iter<T: IntoIterator<Item = AbstractUpdate>>(iter: T) -> Self {
        CausalPast {
            updates: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_graph::{edge, topologies};

    fn u(issuer: usize, register: u32, seq: u64) -> AbstractUpdate {
        AbstractUpdate {
            issuer: ReplicaId(issuer),
            register: RegisterId(register),
            seq,
        }
    }

    #[test]
    fn restriction_filters_by_issuer_and_register() {
        let g = topologies::figure3();
        // Register 0 shared by replicas 0,1; register 1 by 1,2.
        let s: CausalPast = [u(1, 0, 1), u(1, 1, 1), u(0, 0, 1)].into_iter().collect();
        assert_eq!(s.count_on(&g, edge(1, 0)), 1, "issuer 1 on X_10 = {{0}}");
        assert_eq!(s.count_on(&g, edge(1, 2)), 1, "issuer 1 on X_12 = {{1}}");
        assert_eq!(s.count_on(&g, edge(0, 1)), 1);
        assert_eq!(s.count_on(&g, edge(0, 3)), 0, "non-edge restricts to ∅");
    }

    #[test]
    fn strict_inclusion() {
        let g = topologies::figure3();
        let s1: CausalPast = [u(0, 0, 1)].into_iter().collect();
        let s2: CausalPast = [u(0, 0, 1), u(0, 0, 2)].into_iter().collect();
        assert!(s1.strictly_below_on(&s2, &g, edge(0, 1)));
        assert!(!s2.strictly_below_on(&s1, &g, edge(0, 1)));
        assert!(!s1.strictly_below_on(&s1, &g, edge(0, 1)));
        // Incomparable sets are not strictly below.
        let s3: CausalPast = [u(0, 0, 2)].into_iter().collect();
        assert!(!s1.strictly_below_on(&s3, &g, edge(0, 1)));
    }

    #[test]
    fn display_and_set_ops() {
        let mut s = CausalPast::new();
        assert!(s.is_empty());
        assert!(s.insert(u(0, 0, 1)));
        assert!(!s.insert(u(0, 0, 1)));
        assert!(s.contains(&u(0, 0, 1)));
        assert_eq!(s.len(), 1);
        assert_eq!(u(0, 0, 1).to_string(), "⟨r0,x0,#1⟩");
    }
}
