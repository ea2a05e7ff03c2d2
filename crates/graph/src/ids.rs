//! Identifier newtypes shared across the workspace.

use std::fmt;

/// Identifier of a replica (a vertex of the share graph).
///
/// Replicas are numbered `0..R`, matching the paper's `1..R` shifted to
/// zero-based indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub usize);

impl ReplicaId {
    /// Returns the zero-based index of this replica.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<usize> for ReplicaId {
    fn from(v: usize) -> Self {
        ReplicaId(v)
    }
}

/// Identifier of a shared read/write register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegisterId(pub u32);

impl RegisterId {
    /// Returns the zero-based index of this register.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<u32> for RegisterId {
    fn from(v: u32) -> Self {
        RegisterId(v)
    }
}

/// A directed edge `e_jk` of the share graph, from replica `from = j` to
/// replica `to = k`.
///
/// Share-graph edges always come in pairs (`e_jk ∈ E ⇔ e_kj ∈ E`,
/// Definition 3), but timestamp graphs contain *directed* edges and are not
/// necessarily symmetric (the paper's Figure 5b example), so the directed
/// form is the primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source replica (`j` in `e_jk`): the issuer of tracked updates.
    pub from: ReplicaId,
    /// Destination replica (`k` in `e_jk`).
    pub to: ReplicaId,
}

impl Edge {
    /// Creates the directed edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`; the share graph has no self loops.
    pub fn new(from: ReplicaId, to: ReplicaId) -> Self {
        assert_ne!(from, to, "share graph has no self loops");
        Edge { from, to }
    }

    /// The same edge with its direction reversed (`e_kj` for `e_jk`).
    pub fn reversed(self) -> Self {
        Edge {
            from: self.to,
            to: self.from,
        }
    }

    /// True if `r` is one of the two endpoints.
    pub fn touches(self, r: ReplicaId) -> bool {
        self.from == r || self.to == r
    }

    /// Canonical undirected representation: endpoints in ascending order.
    pub fn undirected(self) -> (ReplicaId, ReplicaId) {
        if self.from <= self.to {
            (self.from, self.to)
        } else {
            (self.to, self.from)
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e({}→{})", self.from.0, self.to.0)
    }
}

/// Convenience constructor for [`Edge`] from raw indices.
pub fn edge(from: usize, to: usize) -> Edge {
    Edge::new(ReplicaId(from), ReplicaId(to))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_reversal_round_trips() {
        let e = edge(2, 5);
        assert_eq!(e.reversed().reversed(), e);
        assert_eq!(e.reversed(), edge(5, 2));
    }

    #[test]
    fn edge_undirected_is_canonical() {
        assert_eq!(edge(5, 2).undirected(), edge(2, 5).undirected());
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let _ = edge(3, 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ReplicaId(4).to_string(), "r4");
        assert_eq!(RegisterId(7).to_string(), "x7");
        assert_eq!(edge(1, 2).to_string(), "e(1→2)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(edge(0, 1) < edge(0, 2));
        assert!(edge(0, 9) < edge(1, 0));
    }
}
