//! The workload runner.

use crate::ops::{generate_keyed_ops, generate_ops, split_by_partition};
use crate::report::{RunReport, VerdictSummary};
use prcc_clock::Protocol;
use prcc_core::Cluster;
use prcc_graph::PartitionMap;
use prcc_net::DeliveryPolicy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of a randomized write workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Total writes issued across the cluster.
    pub total_writes: usize,
    /// RNG seed for replica/register choice.
    pub seed: u64,
    /// Network deliveries interleaved after each write (0 = issue
    /// everything up front, maximizing in-flight reordering).
    pub interleave: usize,
    /// If set, fraction `0.0..1.0` of writes that go to register 0's first
    /// holder (a hotspot); the rest are uniform.
    pub hotspot: Option<f64>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            total_writes: 100,
            seed: 0,
            interleave: 1,
            hotspot: None,
        }
    }
}

/// Runs a seeded random write workload on a fresh cluster and reports the
/// outcome. Writers are chosen uniformly; each writes a register it stores.
pub fn run_workload<P: Protocol>(
    protocol: P,
    policy: Box<dyn DeliveryPolicy>,
    cfg: WorkloadConfig,
) -> RunReport {
    let name = protocol.name().to_string();
    let g = protocol.share_graph().clone();
    let mut cluster = Cluster::new(protocol, policy);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // The same generator drives the TCP deployment's load binary, so
    // simulator and service runs of one seed issue identical op streams.
    for (i, x, v) in generate_ops(&g, cfg.total_writes, cfg.hotspot, &mut rng) {
        cluster.write(i, x, v).expect("valid write");
        for _ in 0..cfg.interleave {
            cluster.step();
        }
    }
    cluster.run_to_quiescence();
    let verdict = cluster.verdict();
    let stats = cluster.stats();
    RunReport {
        protocol: name,
        seed: cfg.seed,
        verdict: VerdictSummary::from_verdict(&verdict),
        duration_ticks: cluster.net().stats().last_delivery().ticks(),
        stats,
    }
}

/// Runs one seeded *keyed* workload over a sharded register space in the
/// simulator: every partition is an independent cluster of the same share
/// graph, the key stream is split per partition (same per-key holder
/// affinity as the networked deployment), and each partition is driven,
/// drained and verified on its own — one [`RunReport`] per partition.
///
/// This is the simulator-side twin of a sharded `LoopbackCluster` drive
/// (the service suites' `common::drive`, `prcc-perf`): the same seed
/// yields the same key stream there, so oracle outcomes are comparable
/// across the two harnesses.
pub fn run_partitioned_workload<P, F, G>(
    mut make_protocol: F,
    mut make_policy: G,
    map: &PartitionMap,
    cfg: WorkloadConfig,
) -> Vec<RunReport>
where
    P: Protocol,
    F: FnMut() -> P,
    G: FnMut(u64) -> Box<dyn DeliveryPolicy>,
{
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let ops = generate_keyed_ops(map, cfg.total_writes, cfg.hotspot, &mut rng);
    let per_partition = split_by_partition(map, &ops);
    per_partition
        .into_iter()
        .enumerate()
        .map(|(p, script)| {
            let protocol = make_protocol();
            let name = format!("{}/p{p}", protocol.name());
            let mut cluster = Cluster::new(protocol, make_policy(cfg.seed ^ (p as u64) << 32));
            for (role, x, v) in script {
                cluster.write(role, x, v).expect("valid routed write");
                for _ in 0..cfg.interleave {
                    cluster.step();
                }
            }
            cluster.run_to_quiescence();
            let verdict = cluster.verdict();
            let stats = cluster.stats();
            RunReport {
                protocol: name,
                seed: cfg.seed,
                verdict: VerdictSummary::from_verdict(&verdict),
                duration_ticks: cluster.net().stats().last_delivery().ticks(),
                stats,
            }
        })
        .collect()
}

/// Runs `seeds` independent workloads (seeds `0..seeds`) and returns the
/// fraction that violated causal consistency, plus the per-seed reports.
pub fn violation_rate<P, F, G>(
    mut make_protocol: F,
    mut make_policy: G,
    cfg: WorkloadConfig,
    seeds: u64,
) -> (f64, Vec<RunReport>)
where
    P: Protocol,
    F: FnMut() -> P,
    G: FnMut(u64) -> Box<dyn DeliveryPolicy>,
{
    let mut reports = Vec::with_capacity(seeds as usize);
    let mut bad = 0;
    for seed in 0..seeds {
        let report = run_workload(
            make_protocol(),
            make_policy(seed),
            WorkloadConfig { seed, ..cfg },
        );
        if !report.consistent() {
            bad += 1;
        }
        reports.push(report);
    }
    (bad as f64 / seeds as f64, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_baselines::edge_sets;
    use prcc_clock::EdgeProtocol;
    use prcc_graph::{topologies, RegisterId};
    use prcc_net::UniformDelay;

    #[test]
    fn exact_protocol_never_violates() {
        let g = topologies::ring(5);
        let (rate, reports) = violation_rate(
            || EdgeProtocol::new(g.clone()),
            |seed| Box::new(UniformDelay::new(seed.wrapping_mul(11) + 1, 1, 60)),
            WorkloadConfig {
                total_writes: 60,
                interleave: 1,
                ..Default::default()
            },
            10,
        );
        assert_eq!(rate, 0.0, "{reports:?}");
        assert!(reports.iter().all(|r| r.stats.applies > 0));
    }

    #[test]
    fn hotspot_workload_runs() {
        let g = topologies::figure5();
        let report = run_workload(
            EdgeProtocol::new(g),
            Box::new(UniformDelay::new(3, 1, 10)),
            WorkloadConfig {
                total_writes: 40,
                hotspot: Some(0.5),
                ..Default::default()
            },
        );
        assert!(report.consistent());
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn partitioned_workload_verifies_every_partition() {
        let g = topologies::ring(4);
        let map = prcc_graph::PartitionMap::rotated(g.clone(), 6, 4).unwrap();
        let reports = run_partitioned_workload(
            || EdgeProtocol::new(g.clone()),
            |seed| Box::new(UniformDelay::new(seed.wrapping_mul(7) + 1, 1, 40)),
            &map,
            WorkloadConfig {
                total_writes: 120,
                seed: 11,
                interleave: 1,
                hotspot: Some(0.3),
            },
        );
        assert_eq!(reports.len(), 6);
        assert!(reports.iter().all(|r| r.consistent()), "{reports:?}");
        // The hotspot key (key 0) lives in partition 0: it must dominate.
        let applies: Vec<u64> = reports.iter().map(|r| r.stats.applies).collect();
        assert!(
            applies[0] >= *applies[1..].iter().max().unwrap(),
            "hotspot partition not dominant: {applies:?}"
        );
        // Same seed, same outcome: the keyed stream is reproducible.
        let again = run_partitioned_workload(
            || EdgeProtocol::new(g.clone()),
            |seed| Box::new(UniformDelay::new(seed.wrapping_mul(7) + 1, 1, 40)),
            &map,
            WorkloadConfig {
                total_writes: 120,
                seed: 11,
                interleave: 1,
                hotspot: Some(0.3),
            },
        );
        let issued: Vec<u64> = reports.iter().map(|r| r.stats.updates_issued).collect();
        let issued_again: Vec<u64> = again.iter().map(|r| r.stats.updates_issued).collect();
        assert_eq!(issued, issued_again);
    }

    #[test]
    fn counterexample2_modified_hoops_violate_under_search() {
        // The paper's counterexample 2, driven adversarially: the chain of
        // writes around the 7-cycle with the direct k→j link held back.
        let (g, r) = topologies::counterexample2();
        let protocol = edge_sets::hoop_protocol(&g, true);
        let mut cluster = prcc_core::Cluster::new(protocol, Box::new(prcc_net::FixedDelay(5)));
        cluster.net_mut().hold_link(r.k.index(), r.j.index());
        // u0: k writes x (held on the way to j).
        cluster.write(r.k, r.x, 1).unwrap();
        cluster.run_to_quiescence();
        // Chain k → a2 → a1 → i → b2 → b1 → j along unique edge registers.
        let chain = [
            (r.k, RegisterId(5)),  // u4: k–a2
            (r.a2, RegisterId(6)), // u5: a2–a1
            (r.a1, RegisterId(4)), // u3: a1–i
            (r.i, RegisterId(3)),  // u2: i–b2
            (r.b2, r.y),           // y: b2–{b1,a1}
            (r.b1, RegisterId(2)), // u1: b1–j
        ];
        for (rep, reg) in chain {
            cluster.write(rep, reg, 0).unwrap();
            cluster.run_to_quiescence();
        }
        let verdict = cluster.verdict();
        assert!(
            !verdict.safety.is_empty(),
            "modified minimal hoops must violate safety here"
        );
        // The violation is at j, missing k's x-update.
        let v = verdict.safety[0];
        assert_eq!(v.replica, r.j);
        // Control: the exact protocol under the identical schedule is safe.
        let mut ok = prcc_core::Cluster::new(
            EdgeProtocol::new(g.clone()),
            Box::new(prcc_net::FixedDelay(5)),
        );
        ok.net_mut().hold_link(r.k.index(), r.j.index());
        ok.write(r.k, r.x, 1).unwrap();
        ok.run_to_quiescence();
        for (rep, reg) in chain {
            ok.write(rep, reg, 0).unwrap();
            ok.run_to_quiescence();
        }
        assert!(ok.verdict().safety.is_empty(), "exact protocol stays safe");
        // After releasing the held link everything settles consistently.
        ok.release_and_settle();
        assert!(ok.verdict().is_consistent());
    }
}
