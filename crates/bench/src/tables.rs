//! Experiments E08–E15: the paper's quantitative claims (timestamp sizes,
//! lower bounds, compression, dummy registers, ring breaking, bounded
//! loops, client-server, and the cross-protocol matrix).

use crate::helpers::table;
use crate::row;
use prcc_baselines::{edge_sets, DummyProtocol, RingBreaker};
use prcc_clock::{ClockState, CompressedProtocol, EdgeProtocol, Protocol, WireClock};
use prcc_core::Cluster;
use prcc_graph::{
    analysis, topologies, AugmentedShareGraph, RegisterId, ReplicaId, ShareGraph, TimestampGraph,
};
use prcc_lowerbound::{chromatic, closed_forms, conflict_graph, families};
use prcc_net::{FixedDelay, UniformDelay};
use prcc_workloads::{run_workload, violation_rate, RunReport, WorkloadConfig};

/// E08 (Section 4 closed forms): timestamp entries per replica across
/// structured topologies, against the paper's predictions.
pub fn e08_sizes() -> String {
    let mut rows = Vec::new();
    let mut check = |name: &str, g: &ShareGraph, i: ReplicaId, predicted: usize, rule: &str| {
        let measured = TimestampGraph::compute(g, i).len();
        rows.push(row![
            name,
            i,
            measured,
            predicted,
            rule,
            if measured == predicted { "✓" } else { "✗" }
        ]);
    };
    let line = topologies::line(6);
    check("line(6)", &line, ReplicaId(0), 2, "tree: 2·N_i");
    check("line(6)", &line, ReplicaId(3), 4, "tree: 2·N_i");
    let star = topologies::star(6);
    check("star(6)", &star, ReplicaId(0), 10, "tree: 2·N_i");
    check("star(6)", &star, ReplicaId(2), 2, "tree: 2·N_i");
    for n in [4, 5, 6, 7] {
        let ring = topologies::ring(n);
        check(
            &format!("ring({n})"),
            &ring,
            ReplicaId(0),
            2 * n,
            "cycle: 2n",
        );
    }
    let clique = topologies::clique_full(4, 3);
    check(
        "clique_full(4)",
        &clique,
        ReplicaId(0),
        12,
        "clique: R(R−1)",
    );
    let fig5 = topologies::figure5();
    check("figure5", &fig5, ReplicaId(0), 8, "exact G_1 (Fig. 5b)");

    let mut out = String::from("E08 — timestamp sizes vs Section 4 closed forms\n");
    out.push_str(&table(
        &["topology", "replica", "|E_i|", "predicted", "rule", "ok"],
        &rows,
    ));
    // Compressed full replication = vector clocks.
    let rep =
        analysis::compression_report(&clique, &TimestampGraph::compute(&clique, ReplicaId(0)));
    out.push_str(&format!(
        "\nclique_full(4): raw {} entries, rank-compressed {} = R (vector timestamp)\n",
        rep.raw_entries, rep.rank_entries
    ));
    out
}

/// E09 (Theorem 15): explicit conflict cliques vs the algorithm's timestamp
/// usage — tightness on trees, cycles and full-replication cliques.
pub fn e09_lower_bound() -> String {
    let mut rows = Vec::new();
    {
        let g = topologies::line(3);
        let i = ReplicaId(1);
        let fam = families::incident_family(&g, i, 2);
        rows.push(row![
            "line(3), mid",
            format!("incident, c=2"),
            fam.len(),
            format!("{:.1}", fam.bits()),
            format!("{:.1}", closed_forms::tree_bits(2, 2)),
            families::algorithm_timestamps(&g, &fam)
        ]);
    }
    {
        let g = topologies::ring(3);
        let i = ReplicaId(0);
        let fam = families::ring_family(&g, i, 2);
        rows.push(row![
            "ring(3)",
            "all edges, c=2",
            fam.len(),
            format!("{:.1}", fam.bits()),
            format!("{:.1}", closed_forms::cycle_bits(3, 2)),
            families::algorithm_timestamps(&g, &fam)
        ]);
    }
    {
        let g = topologies::ring(4);
        let i = ReplicaId(0);
        let fam = families::ring_family(&g, i, 2);
        rows.push(row![
            "ring(4)",
            "all edges, c=2",
            fam.len(),
            format!("{:.1}", fam.bits()),
            format!("{:.1}", closed_forms::cycle_bits(4, 2)),
            families::algorithm_timestamps(&g, &fam)
        ]);
    }
    {
        let g = topologies::clique_full(3, 1);
        let i = ReplicaId(0);
        let fam = families::clique_family(&g, i, 2);
        rows.push(row![
            "clique_full(3)",
            "per replica, c=2",
            fam.len(),
            format!("{:.1}", fam.bits()),
            format!("{:.1}", closed_forms::clique_bits(3, 2)),
            "8 (vector clock)".to_string()
        ]);
    }
    let mut out = String::from(
        "E09 — Theorem 15 lower bounds: pairwise-conflicting families\n\
         (clique size ⇒ σ_i ≥ size; bits = log2; tight when the algorithm\n\
         assigns exactly that many distinct timestamps)\n",
    );
    out.push_str(&table(
        &[
            "system",
            "family",
            "clique",
            "bits",
            "closed form",
            "alg. stamps",
        ],
        &rows,
    ));
    // Exact chromatic number of a small conflict graph confirms the clique
    // is not an artifact.
    let g = topologies::line(2);
    let fam = families::incident_family(&g, ReplicaId(0), 2);
    let adj = conflict_graph(&g, ReplicaId(0), &fam.pasts);
    out.push_str(&format!(
        "\nline(2) family: |family| = {}, exact χ(conflict subgraph) = {}\n",
        fam.len(),
        chromatic::exact_chromatic(&adj)
    ));
    out
}

/// E10 (Appendix D compression): raw vs rank vs register-level entries.
pub fn e10_compression() -> String {
    let mut rows = Vec::new();
    let mut add = |name: &str, g: &ShareGraph, i: ReplicaId| {
        let tsg = TimestampGraph::compute(g, i);
        let rep = analysis::compression_report(g, &tsg);
        rows.push(row![
            name,
            i,
            rep.raw_entries,
            rep.rank_entries,
            rep.register_entries,
            format!("{:.0}%", rep.savings() * 100.0)
        ]);
    };
    let fig5 = topologies::figure5();
    add("figure5", &fig5, ReplicaId(0));
    let ring = topologies::ring(5);
    add("ring(5)", &ring, ReplicaId(0));
    let clique = topologies::clique_full(4, 3);
    add("clique_full(4,3)", &clique, ReplicaId(0));
    let star = topologies::star(5);
    add("star(5) hub", &star, ReplicaId(0));
    // The paper's worked example: X_j1={x}, X_j2={y}, X_j3={z},
    // X_j4={x,y,z} → 4 edges, 3 independent counters.
    let worked = ShareGraph::from_assignments(vec![
        vec![RegisterId(0), RegisterId(1), RegisterId(2)],
        vec![RegisterId(0)],
        vec![RegisterId(1)],
        vec![RegisterId(2)],
        vec![RegisterId(0), RegisterId(1), RegisterId(2)],
    ])
    .unwrap();
    let synthetic = TimestampGraph::from_edges(
        ReplicaId(4),
        (1..5).map(|k| prcc_graph::Edge::new(ReplicaId(0), ReplicaId(k))),
    );
    let rep = analysis::compression_report(&worked, &synthetic);
    rows.push(row![
        "worked example O_j",
        ReplicaId(4),
        rep.raw_entries,
        rep.rank_entries,
        rep.register_entries,
        format!("{:.0}%", rep.savings() * 100.0)
    ]);
    let mut out = String::from(
        "E10 — timestamp compression (Appendix D): raw |E_i| vs rank\n\
         I(E_i,·) vs register-level counters\n",
    );
    out.push_str(&table(
        &[
            "system",
            "replica",
            "raw",
            "rank",
            "register-level",
            "savings",
        ],
        &rows,
    ));
    out
}

fn report_row(name: &str, r: &RunReport, entries: usize, rank: usize) -> Vec<String> {
    row![
        name,
        entries,
        rank,
        format!("{:.1}", r.stats.messages_per_update()),
        r.stats.metadata_only_messages,
        format!("{:.1}", r.stats.bytes_per_message()),
        format!("{:.1}", r.stats.mean_pending_stall()),
        r.consistent()
    ]
}

fn total_rank(g: &ShareGraph) -> usize {
    analysis::total_entries(g).1
}

/// E11 (Appendix D dummy registers): partial replication vs
/// full-replication emulation vs plain vector clocks — metadata size vs
/// message and false-dependency cost.
pub fn e11_dummies() -> String {
    let g = topologies::ring(5);
    let cfg = WorkloadConfig {
        total_writes: 200,
        seed: 11,
        interleave: 1,
        hotspot: None,
    };
    let policy = |seed: u64| -> Box<dyn prcc_net::DeliveryPolicy> {
        Box::new(UniformDelay::new(seed + 100, 1, 40))
    };
    let mut rows = Vec::new();
    {
        let p = EdgeProtocol::new(g.clone());
        let entries = p.new_clock(ReplicaId(0)).entries();
        let r = run_workload(p, policy(1), cfg);
        rows.push(report_row(
            "partial (ours)",
            &r,
            entries,
            total_rank(&g) / 5,
        ));
    }
    {
        let p = DummyProtocol::full_emulation(g.clone());
        let entries = p.new_clock(ReplicaId(0)).entries();
        let meta = p.metadata_graph().clone();
        let r = run_workload(p, policy(2), cfg);
        rows.push(report_row(
            "full emulation (dummies)",
            &r,
            entries,
            total_rank(&meta) / 5,
        ));
    }
    {
        // Full emulation over the metadata clique: its class-compressed
        // clock ships one counter per replica, a vector clock.
        let p = DummyProtocol::full_emulation(g.clone());
        let entries = p.new_clock(ReplicaId(0)).counter_values().len();
        let r = run_workload(p, policy(3), cfg);
        rows.push(report_row("vector clock (broadcast)", &r, entries, 5));
    }
    let mut out = String::from(
        "E11 — dummy registers (Appendix D): ring(5), 200 writes.\n\
         Fewer counters ⇔ more messages + false-dependency stalls.\n",
    );
    out.push_str(&table(
        &[
            "scheme",
            "entries/replica",
            "rank",
            "msgs/update",
            "metadata-only",
            "bytes/msg",
            "stall",
            "consistent",
        ],
        &rows,
    ));
    out
}

/// E12 (Figure 13): breaking the ring with virtual registers.
pub fn e12_ring_breaking() -> String {
    let n = 6;
    // Unbroken ring: replica 0 writes register n−1 (shared with n−1
    // directly).
    let g = topologies::ring(n);
    let mut ring_cluster = Cluster::new(EdgeProtocol::new(g.clone()), Box::new(FixedDelay(10)));
    for v in 0..20u64 {
        ring_cluster
            .write(ReplicaId(0), RegisterId((n - 1) as u32), v)
            .unwrap();
        ring_cluster.run_to_quiescence();
    }
    let ring_stats = ring_cluster.stats();
    let ring_entries = TimestampGraph::compute(&g, ReplicaId(0)).len();

    // Broken ring: relayed x updates.
    let mut rb = RingBreaker::new(n, Box::new(FixedDelay(10)));
    for v in 0..20u64 {
        rb.write_x(v).unwrap();
        rb.run_to_quiescence();
    }
    let rb_entries = rb.timestamp_entries();
    let rows = vec![
        row![
            "ring(6)",
            ring_entries,
            format!("{:.1}", ring_stats.messages_per_update()),
            format!("{:.1}", ring_stats.mean_apply_latency()),
            ring_cluster.verdict().is_consistent()
        ],
        row![
            "broken ring (relay)",
            format!(
                "{:?} (max {})",
                rb_entries,
                rb_entries.iter().max().unwrap()
            ),
            format!(
                "{:.1}",
                rb.stats().relay_hops as f64 / rb.stats().x_updates as f64
            ),
            format!("{:.1}", rb.stats().mean_x_latency()),
            rb.verdict().is_consistent()
        ],
    ];
    let mut out = String::from(
        "E12 — Figure 13: breaking the ring. 20 x-updates, fixed 10-tick\n\
         links. Metadata shrinks from 2n per replica to ≤ 4; propagation\n\
         pays n−1 hops.\n",
    );
    out.push_str(&table(
        &[
            "scheme",
            "entries/replica",
            "msgs per x-update",
            "x latency",
            "consistent",
        ],
        &rows,
    ));
    out
}

/// The bounded-loop adversarial schedule on `ring(6)`: hold the direct
/// `1→0` link, run a dependency chain the long way round.
fn ring6_chain_violations(l: usize) -> usize {
    let g = topologies::ring(6);
    let mut c = Cluster::new(
        edge_sets::bounded_loop_protocol(&g, l),
        Box::new(FixedDelay(5)),
    );
    c.net_mut().hold_link(1, 0);
    c.write(ReplicaId(1), RegisterId(0), 9).unwrap(); // u0: 1→0, held
    c.run_to_quiescence();
    for p in 1..6 {
        // p writes register p (shared with p+1 mod 6).
        c.write(ReplicaId(p), RegisterId(p as u32), 0).unwrap();
        c.run_to_quiescence();
    }
    c.verdict().safety.len()
}

/// E13 (Appendix D sacrificing causality): bounded-loop tracking — metadata
/// vs safety, under asynchrony and under loose synchrony.
pub fn e13_bounded_loops() -> String {
    let g = topologies::ring(6);
    let mut rows = Vec::new();
    for l in [2usize, 3, 4, 5] {
        let sets = edge_sets::bounded_loops(&g, l);
        let entries = sets[0].len();
        let chain = ring6_chain_violations(l);
        // Random workloads under loose synchrony (one hop beats any l-hop
        // chain): must be safe for every l ≥ 2 whose untracked loops are
        // longer than the synchrony bound.
        let (loose_rate, _) = violation_rate(
            || edge_sets::bounded_loop_protocol(&g, l),
            |seed| Box::new(UniformDelay::loosely_synchronous(seed + 5, 10, 5)),
            WorkloadConfig {
                total_writes: 150,
                interleave: 0,
                ..Default::default()
            },
            10,
        );
        rows.push(row![
            format!("l = {l}"),
            entries,
            chain,
            format!("{:.2}", loose_rate)
        ]);
    }
    let mut out = String::from(
        "E13 — bounded loops on ring(6): tracking only loops of ≤ l+1 edges.\n\
         The adversarial chain (held direct link) violates safety whenever\n\
         the 6-edge ring loop is untracked (l < 5); under loose synchrony\n\
         (1 hop beats 5) random runs stay consistent.\n",
    );
    out.push_str(&table(
        &[
            "bound",
            "entries/replica",
            "chain violations",
            "loose-sync rate",
        ],
        &rows,
    ));
    out
}

/// E14 (Section 6 / Appendix E): the client-server architecture.
pub fn e14_client_server() -> String {
    use prcc_clientserver::CsSystem;
    use prcc_graph::ClientId;

    let g = topologies::line(4);
    let plain: Vec<usize> = TimestampGraph::compute_all(&g)
        .iter()
        .map(|t| t.len())
        .collect();
    let aug = AugmentedShareGraph::new(
        g.clone(),
        vec![
            vec![ReplicaId(0), ReplicaId(3)],
            vec![ReplicaId(0), ReplicaId(1)],
            vec![ReplicaId(2), ReplicaId(3)],
        ],
    )
    .unwrap();
    let augmented: Vec<usize> = aug
        .augmented_timestamp_graphs()
        .iter()
        .map(|t| t.len())
        .collect();
    let mut rows = Vec::new();
    for i in 0..4 {
        rows.push(row![
            format!("r{i}"),
            plain[i],
            augmented[i],
            augmented[i] - plain[i]
        ]);
    }
    let mut out = String::from(
        "E14 — client-server: a client spanning replicas 0 and 3 closes a\n\
         cycle through the line; augmented timestamp graphs Ê_i grow.\n",
    );
    out.push_str(&table(
        &["replica", "|E_i| (no clients)", "|Ê_i|", "added"],
        &rows,
    ));

    // Correctness under a mixed client workload.
    let mut s = CsSystem::new(aug, Box::new(UniformDelay::new(77, 1, 25)));
    for round in 0..30u64 {
        s.write(ClientId(1), ReplicaId(0), RegisterId(0), round)
            .unwrap();
        s.write(ClientId(2), ReplicaId(2), RegisterId(2), round)
            .unwrap();
        if round % 3 == 0 {
            let _ = s.read(ClientId(0), ReplicaId(0), RegisterId(0)).unwrap();
            let _ = s.read(ClientId(0), ReplicaId(3), RegisterId(2)).unwrap();
        }
    }
    s.run_to_quiescence();
    let v = s.verdict();
    let st = s.stats().clone();
    out.push_str(&format!(
        "\nmixed workload: writes {}, reads {}, update msgs {}, rpc msgs {},\n\
         buffered requests {}, consistent (↪′ incl. client sessions): {}\n",
        st.writes,
        st.reads,
        st.update_messages,
        st.rpc_messages,
        st.buffered_requests,
        v.is_consistent()
    ));
    out
}

/// E15: the full protocol × topology matrix.
pub fn e15_protocol_matrix() -> String {
    let topologies: Vec<(&str, ShareGraph)> = vec![
        ("figure5", topologies::figure5()),
        ("ring(6)", topologies::ring(6)),
        ("line(6)", topologies::line(6)),
        ("clique_pw(5)", topologies::clique_pairwise(5)),
    ];
    let cfg = WorkloadConfig {
        total_writes: 200,
        seed: 42,
        interleave: 1,
        hotspot: None,
    };
    let mut rows = Vec::new();
    for (name, g) in &topologies {
        let runs: Vec<(String, RunReport, usize)> = vec![
            {
                let p = EdgeProtocol::new(g.clone());
                let e = (0..g.num_replicas())
                    .map(|i| p.new_clock(ReplicaId(i)).entries())
                    .sum();
                (
                    "edge-tsg".into(),
                    run_workload(p, Box::new(UniformDelay::new(7, 1, 30)), cfg),
                    e,
                )
            },
            {
                let p = CompressedProtocol::new(g.clone());
                let e = (0..g.num_replicas())
                    .map(|i| p.new_clock(ReplicaId(i)).entries())
                    .sum();
                (
                    "compressed".into(),
                    run_workload(p, Box::new(UniformDelay::new(7, 1, 30)), cfg),
                    e,
                )
            },
            {
                let p = edge_sets::all_edges_protocol(g);
                let e = g.num_directed_edges() * g.num_replicas();
                (
                    "all-edges".into(),
                    run_workload(p, Box::new(UniformDelay::new(7, 1, 30)), cfg),
                    e,
                )
            },
            {
                let p = edge_sets::hoop_protocol(g, false);
                let e = edge_sets::hoop_based(g, false)
                    .iter()
                    .map(|t| t.len())
                    .sum();
                (
                    "hoop-orig".into(),
                    run_workload(p, Box::new(UniformDelay::new(7, 1, 30)), cfg),
                    e,
                )
            },
            {
                let p = DummyProtocol::full_emulation(g.clone());
                let e = g.num_replicas() * g.num_replicas();
                (
                    "vector-bcast".into(),
                    run_workload(p, Box::new(UniformDelay::new(7, 1, 30)), cfg),
                    e,
                )
            },
        ];
        for (pname, r, entries) in runs {
            rows.push(row![
                name,
                pname,
                entries,
                format!("{:.2}", r.stats.messages_per_update()),
                format!("{:.1}", r.stats.bytes_per_message()),
                format!("{:.1}", r.stats.mean_apply_latency()),
                format!("{:.1}", r.stats.mean_pending_stall()),
                r.consistent()
            ]);
        }
    }
    let mut out = String::from(
        "E15 — protocol × topology matrix (200 writes each; total timestamp\n\
         entries across replicas; shape: ours ≤ hoop-orig ≤ all-edges, vector\n\
         smallest entries but broadcast messages)\n",
    );
    out.push_str(&table(
        &[
            "topology",
            "protocol",
            "entries(total)",
            "msgs/upd",
            "bytes/msg",
            "latency",
            "stall",
            "consistent",
        ],
        &rows,
    ));
    out
}

/// E16: scaling series — the partial-replication metadata trade-off as a
/// function of system size (the "figure" the introduction's trade-off
/// discussion implies): per-replica entries grow as `2n` on cycles while a
/// vector clock stays at `n`, but the vector baseline broadcasts `n−1`
/// messages per update, so its *wire* overhead per update grows
/// quadratically.
pub fn e16_scaling() -> String {
    let mut rows = Vec::new();
    for n in [3usize, 4, 5, 6, 8, 10] {
        let g = topologies::ring(n);
        let cfg = WorkloadConfig {
            total_writes: 100,
            seed: 3,
            interleave: 1,
            hotspot: None,
        };
        let ours = run_workload(
            EdgeProtocol::new(g.clone()),
            Box::new(UniformDelay::new(5, 1, 30)),
            cfg,
        );
        let vector = run_workload(
            DummyProtocol::full_emulation(g.clone()),
            Box::new(UniformDelay::new(5, 1, 30)),
            cfg,
        );
        assert!(ours.consistent() && vector.consistent());
        rows.push(row![
            n,
            2 * n,
            n,
            format!("{:.0}", ours.stats.bytes_sent as f64 / 100.0),
            format!("{:.0}", vector.stats.bytes_sent as f64 / 100.0),
            format!(
                "{:.2}",
                vector.stats.bytes_sent as f64 / ours.stats.bytes_sent as f64
            )
        ]);
    }
    let mut out = String::from(
        "E16 — scaling on ring(n), 100 writes: entries per replica vs wire\n\
         bytes per update. Partial replication tracks 2n counters but sends\n\
         one message; the vector baseline keeps n counters but broadcasts,\n\
         so its per-update wire cost overtakes and diverges.\n",
    );
    out.push_str(&table(
        &[
            "n",
            "entries ours (2n)",
            "entries vector (n)",
            "bytes/update ours",
            "bytes/update vector",
            "vector/ours",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_vector_wire_cost_diverges() {
        let out = e16_scaling();
        let ratio = |n: &str| -> f64 {
            out.lines()
                .find(|l| l.starts_with(&format!("| {n} ")))
                .unwrap()
                .split('|')
                .nth(6)
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        assert!(ratio("3") > 1.0, "{out}");
        assert!(
            ratio("10") > ratio("3"),
            "vector overhead must grow with n: {out}"
        );
    }

    #[test]
    fn e08_all_predictions_hold() {
        let out = e08_sizes();
        assert!(!out.contains('✗'), "{out}");
        assert!(out.contains("rank-compressed 4 = R"));
    }

    #[test]
    fn e09_families_are_tight() {
        let out = e09_lower_bound();
        // line(3): clique 16, algorithm 16.
        assert!(out.contains("| 16"), "{out}");
        assert!(out.contains("exact χ(conflict subgraph) = 4"), "{out}");
    }

    #[test]
    fn e10_worked_example_compresses() {
        let out = e10_compression();
        let line = out.lines().find(|l| l.contains("worked example")).unwrap();
        assert!(line.contains("| 4 "), "{line}");
        assert!(line.contains("| 3 "), "{line}");
    }

    #[test]
    fn e11_tradeoffs_have_right_shape() {
        let out = e11_dummies();
        assert!(out.contains("partial (ours)"));
        // All schemes stay consistent.
        assert!(!out.contains("| false"), "{out}");
        // Partial sends 1 msg per update on the ring; broadcast sends 4.
        let partial = out.lines().find(|l| l.contains("partial")).unwrap();
        assert!(partial.contains("| 1.0 "), "{partial}");
        let vector = out.lines().find(|l| l.contains("vector")).unwrap();
        assert!(vector.contains("| 4.0 "), "{vector}");
    }

    #[test]
    fn e12_relay_pays_hops_but_shrinks_metadata() {
        let out = e12_ring_breaking();
        let ring = out.lines().find(|l| l.starts_with("| ring(6)")).unwrap();
        let broken = out.lines().find(|l| l.contains("broken")).unwrap();
        assert!(ring.contains("| 12 "), "{ring}");
        assert!(broken.contains("max 4"), "{broken}");
        assert!(broken.contains("| 5.0 "), "n−1 = 5 hops: {broken}");
        assert!(!out.contains("false"), "{out}");
    }

    #[test]
    fn e13_bound_crossover() {
        let out = e13_bounded_loops();
        let l2 = out.lines().find(|l| l.contains("l = 2")).unwrap();
        let l5 = out.lines().find(|l| l.contains("l = 5")).unwrap();
        // l=2 tracks 4 entries and violates under the chain; l=5 tracks 12
        // and is safe.
        assert!(l2.contains("| 4 "), "{l2}");
        assert!(l5.contains("| 12 "), "{l5}");
        let viol =
            |line: &str| -> usize { line.split('|').nth(3).unwrap().trim().parse().unwrap() };
        assert!(viol(l2) >= 1, "{l2}");
        assert_eq!(viol(l5), 0, "{l5}");
    }

    #[test]
    fn e14_client_grows_graphs_and_stays_consistent() {
        let out = e14_client_server();
        assert!(
            out.contains("consistent (↪′ incl. client sessions): true"),
            "{out}"
        );
        // Some replica gained tracked edges from the client bridge.
        let gained: usize = out
            .lines()
            .filter(|l| l.starts_with("| r") && !l.contains("replica"))
            .map(|l| {
                l.split('|')
                    .nth(4)
                    .unwrap()
                    .trim()
                    .parse::<usize>()
                    .unwrap()
            })
            .sum();
        assert!(gained > 0, "{out}");
    }

    #[test]
    fn e15_matrix_is_fully_consistent_and_ordered() {
        let out = e15_protocol_matrix();
        assert!(!out.contains("false"), "{out}");
        // On ring(6): ours (72) < all-edges (72)? all-edges = 12 edges × 6
        // replicas = 72 = ours (cycle tracks everything) — use figure5
        // instead for the strict ordering.
        let entries = |topo: &str, proto: &str| -> usize {
            out.lines()
                .find(|l| l.contains(topo) && l.contains(proto))
                .unwrap()
                .split('|')
                .nth(3)
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        assert!(entries("figure5", "edge-tsg") <= entries("figure5", "hoop-orig"));
        assert!(entries("figure5", "hoop-orig") <= entries("figure5", "all-edges"));
    }
}
