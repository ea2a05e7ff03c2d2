//! The paper's algorithm (Section 3.3): edge-indexed vector timestamps,
//! stored one counter per class of provably-equal edge counters.
//!
//! # Counter classes
//!
//! Replica `i` tracks the edges `E_i`, but it need not keep `|E_i|`
//! counters. Call two share-graph edges *twins* when they leave the same
//! replica `j` and carry the same label (`X_jk = X_jl`). A twin group is a
//! *class* when every replica's edge set holds all of it or none of it;
//! every other tracked edge is a class of its own. The counters of a class
//! are equal in every reachable state:
//!
//! * initially they are all zero;
//! * `advance(j, x)` bumps `e_jk` exactly when `x ∈ X_jk`, and twins share
//!   `X`, so it bumps all of a class or none of it (a write by any other
//!   replica touches no edge leaving `j`);
//! * `merge` at `i` from `k` takes the maximum over `E_i ∩ E_k`; a class is
//!   either inside both edge sets or disjoint from one of them, so each of
//!   its edges either keeps `i`'s common value or becomes the maximum of
//!   `i`'s and `k`'s common values (the attached timestamp is itself a
//!   reachable state of `k`).
//!
//! So one counter per class carries the whole state: an [`EdgeClock`] maps
//! each tracked edge to its class's slot, and `advance`, `merge` and `J`
//! read through that map. Under full replication every edge leaving `j` is
//! a twin of every other, the classes are the replicas and the timestamp is
//! a vector clock (Section 5). Where every label is unique — rings, lines,
//! trees — the layout is the identity. The classes are built once per
//! protocol, in `O(n·|E|)`, by grouping the share graph's directed edges on
//! `(source, label)`.

use crate::encoding;
use crate::traits::{ClockState, Protocol};
use prcc_graph::{Edge, RegSet, RegisterId, ReplicaId, ShareGraph, TimestampGraph};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The static shape of a timestamp: its sorted edge keys and, parallel to
/// them, the counter slot each key reads.
#[derive(PartialEq, Eq)]
struct Layout {
    /// Sorted edge keys (ascending [`Edge`] order).
    keys: Box<[Edge]>,
    /// `slots[idx]` — the counter holding `keys[idx]`; slots are numbered in
    /// order of first appearance.
    slots: Box<[usize]>,
    /// Number of distinct slots.
    width: usize,
}

/// An edge-indexed vector timestamp `τ_i` over the owning replica's
/// timestamp graph `E_i`, holding one counter per class of edges whose
/// counters are equal in every reachable state (see the module docs).
///
/// [`ClockState::entries`] reports `|E_i|`, the paper's measure;
/// [`crate::WireClock::counter_values`] holds one value per class, and is
/// what travels on the wire and into durable storage.
///
/// The layout (keys and slot map) is immutable, shared (`Arc`)
/// configuration; only the counter vector is per-instance, so attaching a
/// timestamp to an update message is a cheap clone.
#[derive(Clone, PartialEq, Eq)]
pub struct EdgeClock {
    layout: Arc<Layout>,
    counters: Vec<u64>,
}

impl EdgeClock {
    fn new(layout: Arc<Layout>) -> Self {
        let counters = vec![0; layout.width];
        EdgeClock { layout, counters }
    }

    /// Creates an all-zero clock over an arbitrary edge set (sorted and
    /// deduplicated), one counter per edge. Used by the client-server
    /// extension, whose clients keep clocks over `∪_{i ∈ R_c} Ê_i`.
    pub fn zero_over<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        let mut v: Vec<Edge> = edges.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let width = v.len();
        EdgeClock::new(Arc::new(Layout {
            keys: v.into(),
            slots: (0..width).collect(),
            width,
        }))
    }

    /// Increments the counter of `e` if tracked (on a clock from
    /// [`EdgeProtocol`], the counter of `e`'s whole class); returns whether
    /// it was.
    pub fn bump_edge(&mut self, e: Edge) -> bool {
        match self.layout.keys.binary_search(&e) {
            Ok(idx) => {
                self.counters[self.layout.slots[idx]] += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Pointwise maximum over the common key set (`T[e] := max(τ[e], T[e])`
    /// for `e ∈ E_self ∩ E_other` — the shape shared by the paper's `merge`,
    /// `merge1/2/3` functions).
    pub fn merge_from(&mut self, other: &EdgeClock) {
        let (la, lb) = (&*self.layout, &*other.layout);
        let (mut a, mut b) = (0usize, 0usize);
        while a < la.keys.len() && b < lb.keys.len() {
            match la.keys[a].cmp(&lb.keys[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    let mine = &mut self.counters[la.slots[a]];
                    *mine = (*mine).max(other.counters[lb.slots[b]]);
                    a += 1;
                    b += 1;
                }
            }
        }
    }

    /// True if `self[e] ≥ other[e]` for every common key selected by
    /// `filter` (the shape of predicates `J1`/`J2`: `τ[e_ji] ≥ µ[e_ji]`).
    pub fn dominates_where<F: Fn(Edge) -> bool>(&self, other: &EdgeClock, filter: F) -> bool {
        self.common_entries(other)
            .all(|(e, mine, theirs)| !filter(e) || mine >= theirs)
    }

    /// Iterates `(edge, self counter, other counter)` over the common keys.
    pub fn common_entries<'a>(
        &'a self,
        other: &'a EdgeClock,
    ) -> impl Iterator<Item = (Edge, u64, u64)> + 'a {
        CommonEntries {
            a: self,
            b: other,
            ia: 0,
            ib: 0,
        }
    }

    /// The counter for edge `e`, or `None` if the edge is not tracked.
    pub fn get(&self, e: Edge) -> Option<u64> {
        self.layout
            .keys
            .binary_search(&e)
            .ok()
            .map(|idx| self.at(idx))
    }

    /// The tracked edges, ascending.
    pub fn edges(&self) -> &[Edge] {
        &self.layout.keys
    }

    /// Iterates `(edge, counter)` pairs, one per tracked edge.
    pub fn iter(&self) -> impl Iterator<Item = (Edge, u64)> + '_ {
        self.layout
            .keys
            .iter()
            .zip(self.layout.slots.iter())
            .map(|(&e, &slot)| (e, self.counters[slot]))
    }

    /// The counter of the key at index `idx`.
    fn at(&self, idx: usize) -> u64 {
        self.counters[self.layout.slots[idx]]
    }
}

struct CommonEntries<'a> {
    a: &'a EdgeClock,
    b: &'a EdgeClock,
    ia: usize,
    ib: usize,
}

impl Iterator for CommonEntries<'_> {
    type Item = (Edge, u64, u64);

    fn next(&mut self) -> Option<(Edge, u64, u64)> {
        let (ka, kb) = (&self.a.layout.keys, &self.b.layout.keys);
        while self.ia < ka.len() && self.ib < kb.len() {
            match ka[self.ia].cmp(&kb[self.ib]) {
                std::cmp::Ordering::Less => self.ia += 1,
                std::cmp::Ordering::Greater => self.ib += 1,
                std::cmp::Ordering::Equal => {
                    let out = (ka[self.ia], self.a.at(self.ia), self.b.at(self.ib));
                    self.ia += 1;
                    self.ib += 1;
                    return Some(out);
                }
            }
        }
        None
    }
}

impl fmt::Debug for EdgeClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(e, c)| (e.to_string(), c)))
            .finish()
    }
}

impl ClockState for EdgeClock {
    fn entries(&self) -> usize {
        self.layout.keys.len()
    }

    fn encoded_len(&self) -> usize {
        encoding::counters_len(&self.counters)
    }
}

impl crate::wire::WireClock for EdgeClock {
    fn counter_values(&self) -> &[u64] {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut [u64] {
        &mut self.counters
    }
}

/// The paper's causal-consistency protocol (Section 3.3), parameterized by
/// the per-replica edge sets it tracks.
///
/// [`EdgeProtocol::new`] uses the exact timestamp graphs `G_i`
/// (Definition 5) — the necessary-and-sufficient choice. Baselines that
/// deliberately track other sets (all share edges, Hélary–Milani hoops,
/// bounded loops) construct the same protocol via
/// [`EdgeProtocol::with_edge_sets`]; everything else (advance/merge/`J`) is
/// identical, which makes over-/under-tracking comparisons apples-to-apples.
pub struct EdgeProtocol {
    g: ShareGraph,
    name: String,
    /// The counter layout of each replica's clock.
    layouts: Vec<Arc<Layout>>,
    /// `bump[i][x]` — the distinct slots (in replica `i`'s layout) of edges
    /// `e_ik` with `x ∈ X_ik`, precomputed for `advance`.
    bump: Vec<Vec<Vec<usize>>>,
}

impl EdgeProtocol {
    /// Builds the protocol with the exact timestamp graphs of Definition 5.
    pub fn new(g: ShareGraph) -> Self {
        let graphs = TimestampGraph::compute_all(&g);
        Self::with_edge_sets(g, graphs, "edge-tsg")
    }

    /// Builds the protocol from caller-provided edge sets (one
    /// [`TimestampGraph`] per replica, in replica order), laying each
    /// replica's counters out by class (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `graphs.len() != g.num_replicas()` or a graph's owner
    /// doesn't match its position.
    pub fn with_edge_sets(
        g: ShareGraph,
        graphs: Vec<TimestampGraph>,
        name: impl Into<String>,
    ) -> Self {
        assert_eq!(graphs.len(), g.num_replicas(), "one edge set per replica");
        for (i, tsg) in graphs.iter().enumerate() {
            assert_eq!(tsg.replica(), ReplicaId(i), "edge set out of order");
        }
        let layouts = class_layouts(&g, &graphs);
        let bump = layouts
            .iter()
            .enumerate()
            .map(|(i, layout)| {
                let mut per_reg = vec![Vec::new(); g.num_registers()];
                for (e, &slot) in layout.keys.iter().zip(layout.slots.iter()) {
                    if e.from == ReplicaId(i) {
                        for x in g.shared_on(*e).iter() {
                            per_reg[x.index()].push(slot);
                        }
                    }
                }
                // A class bumps once, however many of its edges match.
                for slots in &mut per_reg {
                    slots.sort_unstable();
                    slots.dedup();
                }
                per_reg
            })
            .collect();
        EdgeProtocol {
            g,
            name: name.into(),
            layouts,
            bump,
        }
    }

    /// The edge key set of replica `i`.
    pub fn keys_of(&self, i: ReplicaId) -> &[Edge] {
        &self.layouts[i.index()].keys
    }
}

/// Lays out each replica's counters one slot per class: twin groups (share
/// edges with the same source and label) that every edge set holds wholly
/// or not at all, and singletons for every other tracked edge.
fn class_layouts(g: &ShareGraph, graphs: &[TimestampGraph]) -> Vec<Arc<Layout>> {
    let mut group_of: HashMap<Edge, usize> = HashMap::new();
    let mut size: Vec<usize> = Vec::new();
    let mut ids: HashMap<(ReplicaId, &RegSet), usize> = HashMap::new();
    for e in g.directed_edges() {
        let next = size.len();
        let id = *ids.entry((e.from, g.shared_on(e))).or_insert(next);
        if id == next {
            size.push(0);
        }
        size[id] += 1;
        group_of.insert(e, id);
    }
    let mut whole = vec![true; size.len()];
    let mut held = vec![0usize; size.len()];
    for tsg in graphs {
        let groups = || tsg.edges().filter_map(|e| group_of.get(&e).copied());
        for id in groups() {
            held[id] += 1;
        }
        for id in groups() {
            whole[id] &= held[id] == size[id];
        }
        for id in groups() {
            held[id] = 0;
        }
    }
    graphs
        .iter()
        .map(|tsg| {
            let keys: Box<[Edge]> = tsg.edges().collect();
            let mut class_slot: HashMap<usize, usize> = HashMap::new();
            let mut width = 0;
            let slots = keys
                .iter()
                .map(|e| {
                    let slot = match group_of.get(e).filter(|&&id| whole[id]) {
                        Some(&id) => *class_slot.entry(id).or_insert(width),
                        None => width,
                    };
                    if slot == width {
                        width += 1;
                    }
                    slot
                })
                .collect();
            Arc::new(Layout { keys, slots, width })
        })
        .collect()
}

impl fmt::Debug for EdgeProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeProtocol")
            .field("name", &self.name)
            .field("replicas", &self.g.num_replicas())
            .finish()
    }
}

impl Protocol for EdgeProtocol {
    type Clock = EdgeClock;

    fn name(&self) -> &str {
        &self.name
    }

    fn share_graph(&self) -> &ShareGraph {
        &self.g
    }

    fn new_clock(&self, i: ReplicaId) -> EdgeClock {
        EdgeClock::new(Arc::clone(&self.layouts[i.index()]))
    }

    fn advance(&self, i: ReplicaId, local: &mut EdgeClock, x: RegisterId) {
        // T_i[e_jk] := τ_i[e_jk] + 1 if j = i and x ∈ X_ik, unchanged
        // otherwise — once per class.
        for &slot in &self.bump[i.index()][x.index()] {
            local.counters[slot] += 1;
        }
    }

    fn deliverable(
        &self,
        i: ReplicaId,
        local: &EdgeClock,
        k: ReplicaId,
        attached: &EdgeClock,
        _x: RegisterId,
    ) -> bool {
        // J(i, τ_i, k, T) ⇔ τ_i[e_ki] = T[e_ki] − 1
        //                  ∧ τ_i[e_ji] ≥ T[e_ji] ∀ e_ji ∈ E_i ∩ E_k, j ≠ k.
        // Merge-join the two sorted key sets; only edges into i matter.
        let (mut a, mut b) = (0usize, 0usize);
        let (ka, kb) = (&local.layout.keys, &attached.layout.keys);
        while a < ka.len() && b < kb.len() {
            match ka[a].cmp(&kb[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    let e = ka[a];
                    if e.to == i {
                        let (mine, theirs) = (local.at(a), attached.at(b));
                        if e.from == k {
                            if mine != theirs.wrapping_sub(1) {
                                return false;
                            }
                        } else if mine < theirs {
                            return false;
                        }
                    }
                    a += 1;
                    b += 1;
                }
            }
        }
        true
    }

    fn merge(&self, _i: ReplicaId, local: &mut EdgeClock, _k: ReplicaId, attached: &EdgeClock) {
        // T_i[e] := max(τ_i[e], T[e]) for e ∈ E_i ∩ E_k, τ_i[e] otherwise.
        local.merge_from(attached);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireClock;
    use prcc_graph::topologies;

    fn edge(from: usize, to: usize) -> Edge {
        Edge::new(ReplicaId(from), ReplicaId(to))
    }

    /// `(entries, counters)` of each replica's clock.
    fn widths(p: &EdgeProtocol) -> Vec<(usize, usize)> {
        p.share_graph()
            .replicas()
            .map(|i| {
                let c = p.new_clock(i);
                (c.entries(), c.counter_values().len())
            })
            .collect()
    }

    #[test]
    fn advance_bumps_exactly_matching_outgoing_edges() {
        // Figure 5 fixture: replica 0 stores {a, y, w}; writing y (reg 5)
        // must bump e_01 and e_03 (both neighbors store y); writing w
        // (reg 7) only e_03; writing a (reg 0, unshared) nothing.
        let g = topologies::figure5();
        let p = EdgeProtocol::new(g);
        let mut c = p.new_clock(ReplicaId(0));
        p.advance(ReplicaId(0), &mut c, RegisterId(5));
        assert_eq!(c.get(edge(0, 1)), Some(1));
        assert_eq!(c.get(edge(0, 3)), Some(1));
        assert_eq!(c.get(edge(1, 0)), Some(0));
        p.advance(ReplicaId(0), &mut c, RegisterId(7));
        assert_eq!(c.get(edge(0, 1)), Some(1));
        assert_eq!(c.get(edge(0, 3)), Some(2));
        let before = c.clone();
        p.advance(ReplicaId(0), &mut c, RegisterId(0));
        assert_eq!(c, before, "unshared register bumps nothing");
    }

    #[test]
    fn predicate_enforces_per_edge_fifo() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let mut sender = p.new_clock(ReplicaId(0));
        let receiver = p.new_clock(ReplicaId(1));
        // First update deliverable, second (without the first) not.
        p.advance(ReplicaId(0), &mut sender, RegisterId(0));
        let t1 = sender.clone();
        p.advance(ReplicaId(0), &mut sender, RegisterId(0));
        let t2 = sender.clone();
        assert!(p.deliverable(ReplicaId(1), &receiver, ReplicaId(0), &t1, RegisterId(0)));
        assert!(!p.deliverable(ReplicaId(1), &receiver, ReplicaId(0), &t2, RegisterId(0)));
        // After merging t1, t2 becomes deliverable.
        let mut receiver = receiver;
        p.merge(ReplicaId(1), &mut receiver, ReplicaId(0), &t1);
        assert!(p.deliverable(ReplicaId(1), &receiver, ReplicaId(0), &t2, RegisterId(0)));
    }

    #[test]
    fn predicate_waits_for_transitive_dependency() {
        // Triangle with one shared register everywhere: 0 writes, 1 applies
        // then writes; 2 must not apply 1's update before 0's.
        let g = topologies::clique_full(3, 1);
        let p = EdgeProtocol::new(g);
        let x = RegisterId(0);
        let mut c0 = p.new_clock(ReplicaId(0));
        let mut c1 = p.new_clock(ReplicaId(1));
        let c2 = p.new_clock(ReplicaId(2));
        p.advance(ReplicaId(0), &mut c0, x);
        let t0 = c0.clone();
        // Replica 1 applies u0, then issues u1.
        assert!(p.deliverable(ReplicaId(1), &c1, ReplicaId(0), &t0, x));
        p.merge(ReplicaId(1), &mut c1, ReplicaId(0), &t0);
        p.advance(ReplicaId(1), &mut c1, x);
        let t1 = c1.clone();
        // u1 alone is not deliverable at 2 (u0 ↪ u1 missing).
        assert!(!p.deliverable(ReplicaId(2), &c2, ReplicaId(1), &t1, x));
        let mut c2m = c2.clone();
        p.merge(ReplicaId(2), &mut c2m, ReplicaId(0), &t0);
        assert!(p.deliverable(ReplicaId(2), &c2m, ReplicaId(1), &t1, x));
    }

    #[test]
    fn merge_is_idempotent_and_monotone() {
        let g = topologies::ring(4);
        let p = EdgeProtocol::new(g);
        let mut a = p.new_clock(ReplicaId(0));
        let mut b = p.new_clock(ReplicaId(1));
        p.advance(ReplicaId(0), &mut a, RegisterId(0));
        p.advance(ReplicaId(1), &mut b, RegisterId(1));
        let mut merged = a.clone();
        p.merge(ReplicaId(0), &mut merged, ReplicaId(1), &b);
        let once = merged.clone();
        p.merge(ReplicaId(0), &mut merged, ReplicaId(1), &b);
        assert_eq!(merged, once, "idempotent");
        for (e, c) in a.iter() {
            assert!(once.get(e).unwrap() >= c, "monotone on {e}");
        }
    }

    #[test]
    fn clocks_of_different_replicas_have_different_keys() {
        let g = topologies::figure5();
        let p = EdgeProtocol::new(g);
        let c0 = p.new_clock(ReplicaId(0));
        let c2 = p.new_clock(ReplicaId(2));
        assert_ne!(c0.edges(), c2.edges());
        assert_eq!(c0.entries(), 8);
    }

    #[test]
    fn encoded_len_grows_with_counters() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let mut c = p.new_clock(ReplicaId(0));
        let small = c.encoded_len();
        for _ in 0..1000 {
            p.advance(ReplicaId(0), &mut c, RegisterId(0));
        }
        assert!(c.encoded_len() > small);
        assert_eq!(
            crate::encoding::decode_counters(&crate::encoding::encode_counters(c.counter_values()))
                .unwrap(),
            c.counter_values()
        );
    }

    #[test]
    fn with_edge_sets_accepts_custom_tracking() {
        // Tracking all share edges everywhere (a legal over-approximation).
        let g = topologies::figure5();
        let graphs: Vec<TimestampGraph> = g
            .replicas()
            .map(|i| TimestampGraph::from_edges(i, g.directed_edges()))
            .collect();
        let p = EdgeProtocol::with_edge_sets(g.clone(), graphs, "all-edges");
        assert_eq!(p.name(), "all-edges");
        let c = p.new_clock(ReplicaId(0));
        assert_eq!(c.entries(), g.num_directed_edges());
    }

    #[test]
    #[should_panic(expected = "one edge set per replica")]
    fn with_edge_sets_validates_length() {
        let g = topologies::line(2);
        let _ = EdgeProtocol::with_edge_sets(g, vec![], "broken");
    }

    #[test]
    fn zero_over_sorts_and_dedups() {
        let c = EdgeClock::zero_over([edge(2, 1), edge(0, 1), edge(2, 1)]);
        assert_eq!(c.edges(), &[edge(0, 1), edge(2, 1)]);
        assert_eq!(c.entries(), 2);
        assert_eq!(c.counter_values().len(), 2, "identity layout");
    }

    #[test]
    fn bump_and_common_entries() {
        let mut a = EdgeClock::zero_over([edge(0, 1), edge(1, 0), edge(2, 1)]);
        let mut b = EdgeClock::zero_over([edge(1, 0), edge(2, 1), edge(3, 1)]);
        assert!(a.bump_edge(edge(1, 0)));
        assert!(!a.bump_edge(edge(9, 8)));
        assert!(b.bump_edge(edge(2, 1)));
        let common: Vec<_> = a.common_entries(&b).collect();
        assert_eq!(common, vec![(edge(1, 0), 1, 0), (edge(2, 1), 0, 1)]);
        assert!(!a.dominates_where(&b, |_| true));
        assert!(a.dominates_where(&b, |e| e == edge(1, 0)));
        a.merge_from(&b);
        assert_eq!(a.get(edge(2, 1)), Some(1));
        assert_eq!(a.get(edge(1, 0)), Some(1));
    }

    #[test]
    fn debug_formats_are_informative() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        assert!(format!("{p:?}").contains("EdgeProtocol"));
        let c = p.new_clock(ReplicaId(0));
        assert!(format!("{c:?}").contains("e(0→1)"));
    }

    #[test]
    fn full_replication_keeps_one_counter_per_replica() {
        // Every edge leaving j carries all registers: the 12 edge counters
        // of a 4-clique are 4 classes, the vector clock of Section 5.
        let p = EdgeProtocol::new(topologies::clique_full(4, 2));
        assert_eq!(widths(&p), vec![(12, 4); 4]);
        let mut c = p.new_clock(ReplicaId(1));
        p.advance(ReplicaId(1), &mut c, RegisterId(0));
        p.advance(ReplicaId(1), &mut c, RegisterId(1));
        assert_eq!(c.counter_values(), &[0, 2, 0, 0], "a write counts once");
        for k in [0, 2, 3] {
            assert_eq!(c.get(edge(1, k)), Some(2));
        }
    }

    #[test]
    fn unique_labels_keep_the_identity_layout() {
        for g in [
            topologies::ring(4),
            topologies::ring(6),
            topologies::line(5),
        ] {
            let p = EdgeProtocol::new(g);
            for (entries, counters) in widths(&p) {
                assert_eq!(entries, counters);
            }
        }
        assert_eq!(
            widths(&EdgeProtocol::new(topologies::ring(4))),
            vec![(8, 8); 4]
        );
        assert_eq!(
            widths(&EdgeProtocol::new(topologies::line(4))),
            vec![(2, 2), (4, 4), (4, 4), (2, 2)]
        );
    }

    #[test]
    fn figure5_splits_its_only_twin_pair_and_stays_per_edge() {
        // Replica 1 (the paper's 2) shares only y with both 0 and 3, so
        // e_10 and e_13 are the fixture's only twins — but some replica
        // tracks one without the other, so they keep a counter each.
        let g = topologies::figure5();
        let twins = [edge(1, 0), edge(1, 3)];
        assert!(g
            .replicas()
            .any(|i| TimestampGraph::compute(&g, i).contains(twins[0])
                != TimestampGraph::compute(&g, i).contains(twins[1])));
        let p = EdgeProtocol::new(g);
        assert_eq!(widths(&p), vec![(8, 8), (10, 10), (9, 9), (10, 10)]);
    }

    #[test]
    fn all_edges_layout_groups_every_twin_pair() {
        // Every replica tracks every share edge, so every twin group is
        // whole.
        let g = topologies::clique_full(4, 1);
        let graphs = g
            .replicas()
            .map(|i| TimestampGraph::from_edges(i, g.directed_edges()))
            .collect();
        let p = EdgeProtocol::with_edge_sets(g, graphs, "all-edges");
        assert_eq!(widths(&p), vec![(12, 4); 4]);
    }

    #[test]
    fn a_twin_group_some_edge_set_splits_stays_per_edge() {
        // Replica 0 tracks only e_10 of the twins e_10, e_12 (replica 1
        // writes x to both 0 and 2): the pair is not a class anywhere.
        let g = topologies::clique_full(3, 1);
        let sets = [
            vec![edge(0, 1), edge(1, 0)],
            vec![edge(0, 1), edge(1, 0), edge(1, 2), edge(2, 1)],
            vec![edge(1, 2), edge(2, 1)],
        ];
        let graphs = g
            .replicas()
            .map(|i| TimestampGraph::from_edges(i, sets[i.index()].clone()))
            .collect();
        let p = EdgeProtocol::with_edge_sets(g, graphs, "split");
        assert_eq!(widths(&p), vec![(2, 2), (4, 4), (2, 2)]);
    }
}
