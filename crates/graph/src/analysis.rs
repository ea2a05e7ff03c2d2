//! Timestamp-compression analysis (Section 5 / Appendix D).
//!
//! The elements of the edge-indexed vector `τ_i` are not independent: for a
//! fixed source replica `j`, the counter of edge `e_jk` counts updates by
//! `j` to registers in `X_jk`, so counters of edges whose register sets are
//! linearly dependent (as indicator vectors) are linearly dependent too —
//! the paper's example being `X_j4 = {x,y,z}` determined by `X_j1 = {x}`,
//! `X_j2 = {y}`, `X_j3 = {z}`.
//!
//! This module computes, per source replica `j`, the rank `I(E_i, j)` of the
//! edge–register incidence matrix of `O_j = {e_jk ∈ E_i}` (the best-case
//! number of counters after compression), and the register-level
//! alternative (`|∪_k X_jk|` counters, one per register).

use crate::{ReplicaId, ShareGraph, TimestampGraph};

/// Compression statistics for one replica's timestamp (Appendix D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressionReport {
    /// The replica whose timestamp is analysed.
    pub replica: ReplicaId,
    /// Uncompressed entries: `|E_i|`.
    pub raw_entries: usize,
    /// Best-case compressed entries: `Σ_j I(E_i, j)` (matrix rank per
    /// source).
    pub rank_entries: usize,
    /// Register-level entries: `Σ_j |∪_{e_jk ∈ E_i} X_jk|`.
    pub register_entries: usize,
    /// Per-source breakdown `(j, |O_j|, I(E_i, j))`.
    pub per_source: Vec<(ReplicaId, usize, usize)>,
}

impl CompressionReport {
    /// Fraction of entries removed by rank compression (0 when nothing is
    /// saved).
    pub fn savings(&self) -> f64 {
        if self.raw_entries == 0 {
            0.0
        } else {
            1.0 - self.rank_entries as f64 / self.raw_entries as f64
        }
    }
}

/// Analyses the compressibility of replica `i`'s timestamp.
pub fn compression_report(g: &ShareGraph, tsg: &TimestampGraph) -> CompressionReport {
    let mut per_source = Vec::new();
    let mut rank_entries = 0;
    let mut register_entries = 0;
    for j in g.replicas() {
        let out = tsg.outgoing_of(j);
        if out.is_empty() {
            continue;
        }
        let rank = independent_counters(g, tsg, j);
        let mut regs = crate::RegSet::new(g.num_registers());
        for e in &out {
            regs.union_with(g.shared_on(*e));
        }
        per_source.push((j, out.len(), rank));
        rank_entries += rank;
        register_entries += regs.len();
    }
    CompressionReport {
        replica: tsg.replica(),
        raw_entries: tsg.len(),
        rank_entries,
        register_entries,
        per_source,
    }
}

/// `I(E_i, j)`: the maximum number of linearly independent outgoing edges of
/// `j` within `E_i`, i.e. the rank of the 0/1 matrix whose rows are the
/// indicator vectors of `X_jk` for `e_jk ∈ E_i`.
pub fn independent_counters(g: &ShareGraph, tsg: &TimestampGraph, j: ReplicaId) -> usize {
    let out = tsg.outgoing_of(j);
    if out.is_empty() {
        return 0;
    }
    // Restrict columns to registers that actually occur.
    let mut cols = crate::RegSet::new(g.num_registers());
    for e in &out {
        cols.union_with(g.shared_on(*e));
    }
    let col_ids: Vec<_> = cols.iter().collect();
    let matrix: Vec<Vec<i128>> = out
        .iter()
        .map(|e| {
            let s = g.shared_on(*e);
            col_ids
                .iter()
                .map(|&c| if s.contains(c) { 1 } else { 0 })
                .collect()
        })
        .collect();
    rank_i128(matrix)
}

/// Exact rank of an integer matrix via fraction-free (Bareiss) Gaussian
/// elimination.
///
/// Inputs here are 0/1 incidence matrices of modest size, so `i128`
/// intermediates cannot overflow in practice; overflow would panic in debug
/// builds.
pub fn rank_i128(mut m: Vec<Vec<i128>>) -> usize {
    let rows = m.len();
    if rows == 0 {
        return 0;
    }
    let cols = m[0].len();
    let mut rank = 0;
    let mut prev_pivot: i128 = 1;
    let mut row = 0;
    for col in 0..cols {
        // Find a pivot at or below `row`.
        let pivot_row = (row..rows).find(|&r| m[r][col] != 0);
        let Some(p) = pivot_row else { continue };
        m.swap(row, p);
        let pivot = m[row][col];
        for r in row + 1..rows {
            for c in col + 1..cols {
                m[r][c] = (m[r][c] * pivot - m[r][col] * m[row][c]) / prev_pivot;
            }
            m[r][col] = 0;
        }
        prev_pivot = pivot;
        rank += 1;
        row += 1;
        if row == rows {
            break;
        }
    }
    rank
}

/// Total compressed timestamp entries across all replicas of a system.
pub fn total_entries(g: &ShareGraph) -> (usize, usize) {
    let mut raw = 0;
    let mut compressed = 0;
    for tsg in TimestampGraph::compute_all(g) {
        let rep = compression_report(g, &tsg);
        raw += rep.raw_entries;
        compressed += rep.rank_entries;
    }
    (raw, compressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;
    use crate::{RegisterId, ShareGraph};

    #[test]
    fn rank_basics() {
        assert_eq!(rank_i128(vec![]), 0);
        assert_eq!(rank_i128(vec![vec![0, 0], vec![0, 0]]), 0);
        assert_eq!(rank_i128(vec![vec![1, 0], vec![0, 1]]), 2);
        assert_eq!(rank_i128(vec![vec![1, 1], vec![1, 1]]), 1);
        // The paper's worked example: {x}, {y}, {z}, {x,y,z} has rank 3.
        assert_eq!(
            rank_i128(vec![
                vec![1, 0, 0],
                vec![0, 1, 0],
                vec![0, 0, 1],
                vec![1, 1, 1],
            ]),
            3
        );
    }

    #[test]
    fn paper_example_compresses_four_edges_to_three() {
        // Source j = replica 0 storing {x, y, z}; neighbors 1..=4 store
        // {x}, {y}, {z}, {x, y, z}. Full-sharing hub topology.
        let g = ShareGraph::from_assignments(vec![
            vec![RegisterId(0), RegisterId(1), RegisterId(2)],
            vec![RegisterId(0)],
            vec![RegisterId(1)],
            vec![RegisterId(2)],
            vec![RegisterId(0), RegisterId(1), RegisterId(2)],
        ])
        .unwrap();
        // Replica 4's timestamp graph contains all four outgoing edges of 0
        // (e_01..e_04 are incident or loop edges? 4 is adjacent to 0 only —
        // check O_0 from replica 4's perspective).
        let t4 = TimestampGraph::compute(&g, ReplicaId(4));
        let out = t4.outgoing_of(ReplicaId(0));
        // e_04 at minimum; the loop edges depend on the topology. For the
        // pure worked example use a synthetic timestamp graph with all four.
        assert!(!out.is_empty());
        let synthetic = TimestampGraph::from_edges(
            ReplicaId(4),
            (1..5).map(|k| crate::Edge::new(ReplicaId(0), ReplicaId(k))),
        );
        assert_eq!(independent_counters(&g, &synthetic, ReplicaId(0)), 3);
        let rep = compression_report(&g, &synthetic);
        assert_eq!(rep.raw_entries, 4);
        assert_eq!(rep.rank_entries, 3);
        assert_eq!(rep.register_entries, 3);
        assert!(rep.savings() > 0.24 && rep.savings() < 0.26);
    }

    #[test]
    fn full_replication_compresses_to_vector_clock() {
        // Section 5: "after compression, timestamps … have the same overhead
        // as the traditional vector timestamps": R−1 remote sources, one
        // counter each, plus the replica's own outgoing edges collapse to 1.
        let g = topologies::clique_full(4, 3);
        for tsg in TimestampGraph::compute_all(&g) {
            let rep = compression_report(&g, &tsg);
            assert_eq!(rep.raw_entries, 12);
            // Each source's outgoing edges all carry the same register set →
            // rank 1 per source, R sources.
            assert_eq!(rep.rank_entries, 4);
        }
    }

    #[test]
    fn ring_is_incompressible() {
        // Each ring source has two outgoing tracked edges with disjoint
        // singleton register sets → rank 2 each; no savings.
        let g = topologies::ring(5);
        for tsg in TimestampGraph::compute_all(&g) {
            let rep = compression_report(&g, &tsg);
            assert_eq!(rep.raw_entries, 10);
            assert_eq!(rep.rank_entries, 10);
            assert_eq!(rep.savings(), 0.0);
        }
    }

    #[test]
    fn tree_reports_incident_entries() {
        let g = topologies::star(5);
        let hub = TimestampGraph::compute(&g, ReplicaId(0));
        let rep = compression_report(&g, &hub);
        assert_eq!(rep.raw_entries, 8);
        // Each leaf has one outgoing edge (rank 1); the hub's 4 outgoing
        // edges carry disjoint singletons (rank 4).
        assert_eq!(rep.rank_entries, 8);
    }

    #[test]
    fn totals_are_sums() {
        let g = topologies::ring(4);
        let (raw, compressed) = total_entries(&g);
        assert_eq!(raw, 4 * 8);
        assert_eq!(compressed, 4 * 8);
    }
}
