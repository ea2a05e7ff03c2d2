//! End-to-end integration: every protocol on every topology stays causally
//! consistent under randomized asynchronous delivery in the discrete-event
//! simulator.

use prcc::baselines::{edge_sets, DummyProtocol};
use prcc::clock::{CompressedProtocol, EdgeProtocol};
use prcc::graph::{topologies, RegisterId, ReplicaId, ShareGraph};
use prcc::net::UniformDelay;
use prcc::workloads::{run_workload, WorkloadConfig};

fn all_topologies() -> Vec<(&'static str, ShareGraph)> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    vec![
        ("line(5)", topologies::line(5)),
        ("star(5)", topologies::star(5)),
        ("ring(6)", topologies::ring(6)),
        ("grid(2x3)", topologies::grid(2, 3)),
        ("clique_full(4,2)", topologies::clique_full(4, 2)),
        ("clique_pairwise(4)", topologies::clique_pairwise(4)),
        ("figure5", topologies::figure5()),
        ("wheel(6)", topologies::wheel(6)),
        ("bipartite(2,3)", topologies::complete_bipartite(2, 3)),
        ("figure_eight(3,4)", topologies::figure_eight(3, 4)),
        ("ce1", topologies::counterexample1().0),
        ("ce2", topologies::counterexample2().0),
        ("random", topologies::random_connected(7, 8, 3, &mut rng)),
    ]
}

fn cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        total_writes: 120,
        seed,
        interleave: 1,
        hotspot: None,
    }
}

#[test]
fn edge_protocol_consistent_everywhere() {
    for (name, g) in all_topologies() {
        for seed in 0..3 {
            let r = run_workload(
                EdgeProtocol::new(g.clone()),
                Box::new(UniformDelay::new(seed + 13, 1, 50)),
                cfg(seed),
            );
            assert!(r.consistent(), "{name} seed {seed}: {r:?}");
        }
    }
}

#[test]
fn compressed_protocol_consistent_everywhere() {
    for (name, g) in all_topologies() {
        let r = run_workload(
            CompressedProtocol::new(g.clone()),
            Box::new(UniformDelay::new(31, 1, 50)),
            cfg(5),
        );
        assert!(r.consistent(), "{name}: {r:?}");
    }
}

#[test]
fn safe_baselines_consistent_everywhere() {
    for (name, g) in all_topologies() {
        let naive = run_workload(
            edge_sets::all_edges_protocol(&g),
            Box::new(UniformDelay::new(17, 1, 50)),
            cfg(2),
        );
        assert!(naive.consistent(), "all-edges on {name}");
        let hoop = run_workload(
            edge_sets::hoop_protocol(&g, false),
            Box::new(UniformDelay::new(19, 1, 50)),
            cfg(3),
        );
        assert!(hoop.consistent(), "hoop-original on {name}");
        let dummies = run_workload(
            DummyProtocol::full_emulation(g.clone()),
            Box::new(UniformDelay::new(29, 1, 50)),
            cfg(6),
        );
        assert!(dummies.consistent(), "full-emulation on {name}");
    }
}

#[test]
fn metadata_ordering_ours_at_most_baselines() {
    use prcc::clock::{ClockState, Protocol};
    for (name, g) in all_topologies() {
        let exact = EdgeProtocol::new(g.clone());
        let hoop = edge_sets::hoop_protocol(&g, false);
        let naive = edge_sets::all_edges_protocol(&g);
        for i in g.replicas() {
            let e = exact.new_clock(i).entries();
            let h = hoop.new_clock(i).entries();
            let n = naive.new_clock(i).entries();
            assert!(e <= h, "{name} {i}: exact {e} > hoop {h}");
            assert!(h <= n, "{name} {i}: hoop {h} > all-edges {n}");
        }
    }
}

#[test]
fn ring_breaker_end_to_end() {
    use prcc::baselines::RingBreaker;
    let mut rb = RingBreaker::new(6, Box::new(UniformDelay::new(3, 1, 20)));
    for v in 0..15 {
        rb.write_x(v).unwrap();
        if v % 2 == 0 {
            rb.write_local(ReplicaId((v % 5) as usize), v).unwrap();
        }
    }
    rb.run_to_quiescence();
    assert_eq!(rb.read_x_far(), Some(14));
    assert!(rb.verdict().is_consistent());
    assert_eq!(rb.stats().x_delivered, 15);
}

#[test]
fn client_server_with_many_clients() {
    use prcc::clientserver::CsSystem;
    use prcc::graph::{AugmentedShareGraph, ClientId};
    let g = topologies::ring(5);
    let clients: Vec<Vec<ReplicaId>> = (0..5)
        .map(|c| vec![ReplicaId(c), ReplicaId((c + 2) % 5)])
        .collect();
    let aug = AugmentedShareGraph::new(g.clone(), clients).unwrap();
    let mut sys = CsSystem::new(aug, Box::new(UniformDelay::new(41, 1, 25)));
    for round in 0..25u64 {
        let c = ClientId((round % 5) as usize);
        let rep = ReplicaId((round % 5) as usize);
        let regs: Vec<RegisterId> = g.registers_of(rep).iter().collect();
        sys.write(c, rep, regs[(round % 2) as usize], round)
            .unwrap();
        if round % 4 == 0 {
            let other = ReplicaId(((round + 2) % 5) as usize);
            let reg = g.registers_of(other).first().unwrap();
            let _ = sys.read(c, other, reg).unwrap();
        }
    }
    sys.run_to_quiescence();
    assert!(sys.verdict().is_consistent());
}

#[test]
fn duplicated_channels_on_every_topology() {
    for (name, g) in all_topologies() {
        let mut cluster = prcc::core::Cluster::new(
            EdgeProtocol::new(g.clone()),
            Box::new(UniformDelay::new(5, 1, 30)),
        );
        cluster.net_mut().set_duplicate_every(3);
        for v in 0..50u64 {
            let i = ReplicaId((v as usize) % g.num_replicas());
            let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
            if regs.is_empty() {
                continue;
            }
            cluster
                .write(i, regs[(v as usize / g.num_replicas()) % regs.len()], v)
                .unwrap();
            cluster.step();
        }
        cluster.run_to_quiescence();
        assert!(cluster.verdict().is_consistent(), "{name}");
        assert_eq!(cluster.pending_total(), 0, "{name}: wedged duplicates");
    }
}

#[test]
fn epoch_reconfiguration_between_topology_families() {
    use prcc::core::EpochedCluster;
    let mut ec = EpochedCluster::new(
        EdgeProtocol::new(topologies::ring(4)),
        Box::new(UniformDelay::new(8, 1, 20)),
    );
    for v in 0..12u64 {
        let i = ReplicaId((v % 4) as usize);
        ec.write(i, RegisterId((i.index() % 4) as u32), v).unwrap();
    }
    // Ring → star: registers 0..3 survive where present in the star.
    ec.reconfigure(
        EdgeProtocol::new(topologies::star(5)),
        Box::new(UniformDelay::new(9, 1, 20)),
    )
    .unwrap();
    assert_eq!(ec.epoch(), 1);
    ec.write(ReplicaId(0), RegisterId(0), 99).unwrap();
    ec.cluster_mut().run_to_quiescence();
    assert!(ec.cluster().verdict().is_consistent());
    assert_eq!(ec.read(ReplicaId(1), RegisterId(0)).unwrap(), Some(99));
}

#[test]
fn multicast_view_over_partial_replication() {
    use prcc::core::multicast::{CausalMulticast, GroupId};
    // Groups mirror a ring(4)'s registers.
    let mut mc = CausalMulticast::new(
        4,
        (0..4)
            .map(|g| vec![ReplicaId(g), ReplicaId((g + 1) % 4)])
            .collect(),
        Box::new(UniformDelay::new(21, 1, 15)),
    )
    .unwrap();
    for round in 0..8u64 {
        mc.multicast(
            ReplicaId((round % 4) as usize),
            GroupId((round % 4) as u32),
            round,
        )
        .unwrap();
        mc.pump();
    }
    assert!(mc.is_causally_consistent());
    // Each process sits in two groups → sees all 4 of the 8 messages
    // addressed to its groups (2 own + 2 received per group pair).
    for p in 0..4usize {
        assert_eq!(mc.delivered(ReplicaId(p)).len(), 4, "p{p}");
    }
}

#[test]
fn convergence_all_replicas_agree_at_quiescence() {
    // Causal consistency doesn't force convergence in general, but with the
    // same delivery schedule the *last* writer's value per register must be
    // visible at every holder whose final applied update is that writer's.
    // Weaker, always-true check: every holder of a register holds *some*
    // written value after quiescence (liveness materialized).
    let g = topologies::ring(6);
    let mut cluster = prcc::core::Cluster::new(
        EdgeProtocol::new(g.clone()),
        Box::new(UniformDelay::new(4, 1, 30)),
    );
    for v in 0..60u64 {
        let i = ReplicaId((v % 6) as usize);
        let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
        // v % 6 and v % 2 are phase-locked; alternate per round instead so
        // every register gets written.
        cluster.write(i, regs[((v / 6) % 2) as usize], v).unwrap();
    }
    cluster.run_to_quiescence();
    assert!(cluster.verdict().is_consistent());
    for x in g.registers() {
        for &h in g.holders(x) {
            assert!(
                cluster.read(h, x).unwrap().is_some(),
                "holder {h} of {x} has no value"
            );
        }
    }
}
