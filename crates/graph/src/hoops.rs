//! Hélary & Milani's `x`-hoops and minimal hoops (Definitions 9/10,
//! restated as 17/18 in the appendix, plus the modified Definition 20).
//!
//! The paper corrects a claim of Hélary & Milani: *"a replica has to
//! transmit some information about a register x iff the replica stores x or
//! belongs to a minimal x-hoop"* (Lemma 19). This module implements both the
//! original and the modified minimal-hoop definitions faithfully so that the
//! two counterexamples of Appendix A can be demonstrated:
//!
//! * Counterexample 1: the original criterion *over*-approximates — it makes
//!   replica `i` track `x` although no `(i, e_jk)`/`(i, e_kj)`-loop exists.
//! * Counterexample 2: the modified criterion *under*-approximates — it lets
//!   `i` forget `x` although an `(i, e_kj)`-loop exists (so causal
//!   consistency can actually be violated; see the `prcc-baselines` crate
//!   for the executable demonstration).

use crate::{RegSet, RegisterId, ReplicaId, ShareGraph};
use std::collections::BTreeSet;
use std::fmt;

/// An `x`-hoop (Definition 9): a path between two holders of `x` whose
/// interior avoids `C(x)` and whose every edge shares some register `≠ x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hoop {
    /// The register the hoop is about.
    pub x: RegisterId,
    /// The path `r_a = r_0, r_1, …, r_k = r_b`; endpoints store `x`,
    /// interior vertices do not.
    pub path: Vec<ReplicaId>,
}

impl Hoop {
    /// Validates the hoop against Definition 9.
    pub fn is_valid(&self, g: &ShareGraph) -> bool {
        if self.path.len() < 2 {
            return false;
        }
        let (ra, rb) = (self.path[0], *self.path.last().unwrap());
        if !g.stores(ra, self.x) || !g.stores(rb, self.x) {
            return false;
        }
        // Simple path.
        let distinct: BTreeSet<_> = self.path.iter().collect();
        if distinct.len() != self.path.len() {
            return false;
        }
        for (h, w) in self.path.windows(2).enumerate() {
            let (u, v) = (w[0], w[1]);
            if !g.are_adjacent(u, v) {
                return false;
            }
            // Every edge must be labellable with some register ≠ x.
            let mut s = g.shared(u, v).clone();
            s.remove(self.x);
            if s.is_empty() {
                return false;
            }
            // Interior vertices avoid C(x).
            if h > 0 && g.stores(u, self.x) {
                return false;
            }
        }
        true
    }

    /// Candidate label set for hoop edge `h` under the *original* minimal
    /// hoop definition: registers shared on the edge, except `x` and
    /// anything stored by both endpoints `r_a` and `r_b`.
    fn candidates_original(&self, g: &ShareGraph, h: usize) -> RegSet {
        let (ra, rb) = (self.path[0], *self.path.last().unwrap());
        let mut s = g.shared(self.path[h], self.path[h + 1]).clone();
        s.remove(self.x);
        let both = g.shared(ra, rb);
        s.difference_with(both);
        s
    }

    /// Candidate label set under the *modified* definition (Definition 20):
    /// additionally, the label must be stored by at most two replicas *of
    /// the hoop*.
    fn candidates_modified(&self, g: &ShareGraph, h: usize) -> RegSet {
        let mut s = self.candidates_original(g, h);
        let mut drop = Vec::new();
        for reg in s.iter() {
            let holders_in_hoop = self.path.iter().filter(|&&r| g.stores(r, reg)).count();
            if holders_in_hoop > 2 {
                drop.push(reg);
            }
        }
        for reg in drop {
            s.remove(reg);
        }
        s
    }

    /// True if the hoop is minimal per the *original* Definition 10/18:
    /// the edges admit pairwise-distinct labels, none shared by both
    /// endpoints.
    pub fn is_minimal(&self, g: &ShareGraph) -> bool {
        self.has_distinct_labelling(g, false)
    }

    /// True if the hoop is minimal per the *modified* Definition 20: the
    /// edges admit pairwise-distinct labels, none stored by more than two
    /// hoop replicas.
    pub fn is_minimal_modified(&self, g: &ShareGraph) -> bool {
        self.has_distinct_labelling(g, true)
    }

    /// Decides whether a system of distinct representatives exists for the
    /// per-edge candidate label sets (bipartite matching, augmenting paths).
    fn has_distinct_labelling(&self, g: &ShareGraph, modified: bool) -> bool {
        let k = self.path.len() - 1;
        let cands: Vec<Vec<RegisterId>> = (0..k)
            .map(|h| {
                let s = if modified {
                    self.candidates_modified(g, h)
                } else {
                    self.candidates_original(g, h)
                };
                s.iter().collect()
            })
            .collect();
        // matched[reg] = edge index currently using reg.
        let mut matched: std::collections::HashMap<RegisterId, usize> =
            std::collections::HashMap::new();
        fn augment(
            h: usize,
            cands: &[Vec<RegisterId>],
            matched: &mut std::collections::HashMap<RegisterId, usize>,
            visited: &mut BTreeSet<RegisterId>,
        ) -> bool {
            for &reg in &cands[h] {
                if visited.contains(&reg) {
                    continue;
                }
                visited.insert(reg);
                let prev = matched.get(&reg).copied();
                match prev {
                    None => {
                        matched.insert(reg, h);
                        return true;
                    }
                    Some(other) => {
                        if augment(other, cands, matched, visited) {
                            matched.insert(reg, h);
                            return true;
                        }
                    }
                }
            }
            false
        }
        for h in 0..k {
            let mut visited = BTreeSet::new();
            if !augment(h, &cands, &mut matched, &mut visited) {
                return false;
            }
        }
        true
    }

    /// The interior replicas (those strictly between the endpoints).
    pub fn interior(&self) -> &[ReplicaId] {
        &self.path[1..self.path.len() - 1]
    }
}

impl fmt::Display for Hoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-hoop(", self.x)?;
        for (n, r) in self.path.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// Enumerates all `x`-hoops in `g`, up to `cap` results (DFS over simple
/// paths between holders of `x` with non-holder interiors).
pub fn enumerate_hoops(g: &ShareGraph, x: RegisterId, cap: usize) -> Vec<Hoop> {
    let holders = g.holders(x).to_vec();
    let mut out = Vec::new();
    for (ai, &ra) in holders.iter().enumerate() {
        for &rb in &holders[ai + 1..] {
            let mut path = vec![ra];
            let mut on = vec![false; g.num_replicas()];
            on[ra.index()] = true;
            dfs_hoop(g, x, rb, &mut path, &mut on, &mut out, cap);
            if out.len() >= cap {
                return out;
            }
        }
    }
    out
}

fn dfs_hoop(
    g: &ShareGraph,
    x: RegisterId,
    target: ReplicaId,
    path: &mut Vec<ReplicaId>,
    on: &mut [bool],
    out: &mut Vec<Hoop>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    let u = *path.last().unwrap();
    for &v in g.neighbors(u) {
        if on[v.index()] {
            continue;
        }
        // The edge must carry a label ≠ x.
        let s = g.shared(u, v);
        if s.len() == 1 && s.contains(x) {
            continue;
        }
        if v == target {
            path.push(v);
            let hoop = Hoop {
                x,
                path: path.clone(),
            };
            debug_assert!(hoop.is_valid(g), "enumerated hoop must be valid");
            out.push(hoop);
            path.pop();
            if out.len() >= cap {
                return;
            }
            continue;
        }
        // Interior vertices must not store x.
        if g.stores(v, x) {
            continue;
        }
        path.push(v);
        on[v.index()] = true;
        dfs_hoop(g, x, target, path, on, out, cap);
        on[v.index()] = false;
        path.pop();
    }
}

/// Hélary & Milani's criterion with the *original* minimal-hoop definition:
/// replica `i` must transmit information about `x` iff it stores `x` or lies
/// on some minimal `x`-hoop.
pub fn must_track_original(g: &ShareGraph, i: ReplicaId, x: RegisterId) -> bool {
    if g.stores(i, x) {
        return true;
    }
    enumerate_hoops(g, x, 100_000)
        .iter()
        .any(|h| h.interior().contains(&i) && h.is_minimal(g))
}

/// The same criterion with the *modified* minimal-hoop definition
/// (Definition 20).
pub fn must_track_modified(g: &ShareGraph, i: ReplicaId, x: RegisterId) -> bool {
    if g.stores(i, x) {
        return true;
    }
    enumerate_hoops(g, x, 100_000)
        .iter()
        .any(|h| h.interior().contains(&i) && h.is_minimal_modified(g))
}

/// All registers replica `i` must track per the original criterion.
pub fn tracked_registers_original(g: &ShareGraph, i: ReplicaId) -> RegSet {
    let mut s = RegSet::new(g.num_registers());
    for x in g.registers() {
        if must_track_original(g, i, x) {
            s.insert(x);
        }
    }
    s
}

/// All registers replica `i` must track per the modified criterion.
pub fn tracked_registers_modified(g: &ShareGraph, i: ReplicaId) -> RegSet {
    let mut s = RegSet::new(g.num_registers());
    for x in g.registers() {
        if must_track_modified(g, i, x) {
            s.insert(x);
        }
    }
    s
}

/// The register set replica `i` tracks under *this paper's* criterion: `x`
/// is tracked iff `i` stores it or some tracked edge `e_jk ∈ E_i` carries it
/// (`x ∈ X_jk`).
pub fn tracked_registers_loops(g: &ShareGraph, tsg: &crate::TimestampGraph) -> RegSet {
    let i = tsg.replica();
    let mut s = g.registers_of(i).clone();
    for e in tsg.edges() {
        s.union_with(g.shared_on(e));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;
    use crate::TimestampGraph;

    #[test]
    fn counterexample1_hoop_is_minimal_original() {
        let (g, r) = topologies::counterexample1();
        let hoop = Hoop {
            x: r.x,
            path: vec![r.j, r.b1, r.b2, r.i, r.a1, r.a2, r.k],
        };
        assert!(hoop.is_valid(&g));
        assert!(
            hoop.is_minimal(&g),
            "paper: the 7-cycle is a minimal x-hoop under the original definition"
        );
    }

    #[test]
    fn counterexample1_original_criterion_overapproximates() {
        let (g, r) = topologies::counterexample1();
        // Original HM criterion says i must track x…
        assert!(must_track_original(&g, r.i, r.x));
        // …but the loop-based necessary condition does not require it.
        let gi = TimestampGraph::compute(&g, r.i);
        let ours = tracked_registers_loops(&g, &gi);
        assert!(!ours.contains(r.x), "Theorem 8 does not force i to track x");
    }

    #[test]
    fn counterexample2_hoop_not_minimal_modified() {
        let (g, r) = topologies::counterexample2();
        let hoop = Hoop {
            x: r.x,
            path: vec![r.j, r.b1, r.b2, r.i, r.a1, r.a2, r.k],
        };
        assert!(hoop.is_valid(&g));
        assert!(hoop.is_minimal(&g), "still minimal under the original rule");
        assert!(
            !hoop.is_minimal_modified(&g),
            "label y is stored by three hoop replicas, so not minimal-modified"
        );
    }

    #[test]
    fn counterexample2_modified_criterion_underapproximates() {
        let (g, r) = topologies::counterexample2();
        // Modified HM criterion: i need not track x…
        assert!(!must_track_modified(&g, r.i, r.x));
        // …but the loop criterion requires tracking e_kj, which carries x.
        let gi = TimestampGraph::compute(&g, r.i);
        let ours = tracked_registers_loops(&g, &gi);
        assert!(ours.contains(r.x), "Theorem 8 forces i to track x via e_kj");
    }

    #[test]
    fn hoop_enumeration_on_ring() {
        let g = topologies::ring(5);
        // Register 0 is shared by replicas 0 and 1; the only x-hoop is the
        // long way around the ring.
        let hoops = enumerate_hoops(&g, RegisterId(0), 100);
        assert_eq!(hoops.len(), 1);
        assert_eq!(hoops[0].path.len(), 5);
        assert!(hoops[0].is_minimal(&g));
        assert!(hoops[0].is_minimal_modified(&g));
    }

    #[test]
    fn no_hoops_in_trees() {
        let g = topologies::line(5);
        for x in g.registers() {
            assert!(enumerate_hoops(&g, x, 100).is_empty());
        }
    }

    #[test]
    fn storing_replica_always_tracks() {
        let g = topologies::figure5();
        for i in g.replicas() {
            for x in g.registers_of(i).iter() {
                assert!(must_track_original(&g, i, x));
                assert!(must_track_modified(&g, i, x));
            }
        }
    }

    #[test]
    fn invalid_hoops_rejected() {
        let (g, r) = topologies::counterexample1();
        // Endpoint does not store x.
        let h = Hoop {
            x: r.x,
            path: vec![r.b1, r.b2, r.i],
        };
        assert!(!h.is_valid(&g));
        // Too short.
        let h2 = Hoop {
            x: r.x,
            path: vec![r.j],
        };
        assert!(!h2.is_valid(&g));
        // Interior stores x: direct j–k "hoop" with interior k impossible;
        // construct path (j, k) — valid length-1 hoop? The j–k edge's only
        // label is x, so it cannot be labelled ≠ x.
        let h3 = Hoop {
            x: r.x,
            path: vec![r.j, r.k],
        };
        assert!(!h3.is_valid(&g));
    }

    #[test]
    fn hoop_display() {
        let (_, r) = topologies::counterexample1();
        let h = Hoop {
            x: r.x,
            path: vec![r.j, r.b1],
        };
        assert!(h.to_string().contains("hoop"));
    }

    #[test]
    fn ring_every_interior_replica_tracks_everything() {
        // On a ring the single hoop per register is minimal, so HM and the
        // loop criterion agree: everyone tracks everything.
        let g = topologies::ring(4);
        for i in g.replicas() {
            let hm = tracked_registers_original(&g, i);
            let gi = TimestampGraph::compute(&g, i);
            let ours = tracked_registers_loops(&g, &gi);
            assert_eq!(hm, ours, "replica {i}");
            assert_eq!(hm.len(), g.num_registers());
        }
    }
}
