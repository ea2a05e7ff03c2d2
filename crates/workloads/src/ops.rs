//! Op-stream generation shared by the simulator runner and the drivers of
//! the TCP deployment (the service test suites and `prcc-perf`).
//!
//! Keeping the generator in one place means the TCP deployment and the
//! discrete-event simulator can be driven with *the same* seeded workload,
//! making their reports comparable.

use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId, ShareGraph};
use rand::seq::SliceRandom;
use rand::Rng;

/// One write operation: `(issuing replica, register, value)`.
pub type WriteOp = (ReplicaId, RegisterId, u64);

/// One keyed operation against a sharded deployment: `(key, value)`. The
/// key routes through a [`PartitionMap`] to a `(partition, register)` pair.
pub type KeyOp = (u64, u64);

/// One routed operation at a node: `(partition, register, value)`.
pub type RoutedOp = (PartitionId, RegisterId, u64);

/// Generates a seeded random write stream over `g`.
///
/// Writers are chosen uniformly among replicas that store at least one
/// register; each writes a uniformly chosen register it stores. With
/// `hotspot = Some(f)`, fraction `f` of writes instead target register 0
/// through its first holder (a skewed-contention knob). Values are the op
/// index, so every write is distinguishable.
///
/// The RNG call sequence is stable: for a given `rand` stream this function
/// yields exactly the ops the pre-refactor `run_workload` issued inline.
pub fn generate_ops<R: Rng>(
    g: &ShareGraph,
    total: usize,
    hotspot: Option<f64>,
    rng: &mut R,
) -> Vec<WriteOp> {
    let writers: Vec<ReplicaId> = g
        .replicas()
        .filter(|&i| !g.registers_of(i).is_empty())
        .collect();
    let hot = g.holders(RegisterId(0)).first().copied();
    let mut ops = Vec::with_capacity(total);
    for n in 0..total {
        let (i, x) = match (hotspot, hot) {
            (Some(f), Some(h)) if rng.gen_bool(f) => (h, RegisterId(0)),
            _ => {
                let i = *writers.choose(rng).expect("some writer");
                let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
                (i, *regs.choose(rng).expect("writer stores registers"))
            }
        };
        ops.push((i, x, n as u64));
    }
    ops
}

/// Splits an op stream into per-replica sub-streams (preserving each
/// replica's issue order) — the shape a per-node client driver consumes.
pub fn partition_by_replica(g: &ShareGraph, ops: &[WriteOp]) -> Vec<Vec<WriteOp>> {
    let mut per_node = vec![Vec::new(); g.num_replicas()];
    for &(i, x, v) in ops {
        per_node[i.index()].push((i, x, v));
    }
    per_node
}

/// Generates a seeded keyed write stream over a sharded key space.
///
/// Keys are uniform over the whole `partitions × registers` universe, so
/// partitions receive statistically even load. With `hotspot = Some(f)`,
/// fraction `f` of ops instead target key 0 — concentrating load on one
/// register of one partition, the skewed-contention knob of a multi-tenant
/// deployment. Values are the op index, so every write is distinguishable
/// and the per-key value stream is monotone.
pub fn generate_keyed_ops<R: Rng>(
    map: &PartitionMap,
    total: usize,
    hotspot: Option<f64>,
    rng: &mut R,
) -> Vec<KeyOp> {
    let universe = map.num_keys();
    assert!(universe > 0, "partition map has no keys");
    let mut ops = Vec::with_capacity(total);
    for n in 0..total {
        let key = match hotspot {
            Some(f) if rng.gen_bool(f) => 0,
            _ => rng.gen_range(0..universe),
        };
        ops.push((key, n as u64));
    }
    ops
}

/// The holder a key's operations stick to, among the holders of its
/// register: deterministic per key, spread across holders. The same
/// affinity rule routes client sessions (`prcc_service`'s `RoutedClient`)
/// and driver scripts, so one key's writes always form a chain at one
/// replica.
pub fn key_affinity(key: u64, holders: usize) -> usize {
    (key % holders as u64) as usize
}

/// Routes a keyed op stream to per-node driver scripts: each op becomes a
/// `(partition, register, value)` triple at the node hosting the key's
/// affine holder role. Per-node issue order preserves stream order.
///
/// # Panics
///
/// Panics if an op's key lies outside the map's universe.
pub fn route_keyed_ops(map: &PartitionMap, ops: &[KeyOp]) -> Vec<Vec<RoutedOp>> {
    let mut per_node = vec![Vec::new(); map.num_nodes()];
    for &(key, v) in ops {
        let (p, x) = map.locate(key).expect("key inside the universe");
        let holders = map.holder_nodes(p, x);
        let node = holders[key_affinity(key, holders.len())];
        per_node[node].push((p, x, v));
    }
    per_node
}

/// Routes a keyed op stream *within* partitions for the simulator: ops of
/// partition `p` become `(role, register, value)` write ops for an
/// independent share-graph instance, using the same per-key holder
/// affinity as [`route_keyed_ops`].
pub fn split_by_partition(map: &PartitionMap, ops: &[KeyOp]) -> Vec<Vec<WriteOp>> {
    let g = map.graph();
    let mut per_partition = vec![Vec::new(); map.num_partitions() as usize];
    for &(key, v) in ops {
        let (p, x) = map.locate(key).expect("key inside the universe");
        let holders = g.holders(x);
        let role = holders[key_affinity(key, holders.len())];
        per_partition[p.index()].push((role, x, v));
    }
    per_partition
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_graph::topologies;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ops_are_valid_and_deterministic() {
        let g = topologies::figure5();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ops = generate_ops(&g, 200, None, &mut rng);
        assert_eq!(ops.len(), 200);
        for &(i, x, _) in &ops {
            assert!(g.stores(i, x), "replica {i} does not store {x}");
        }
        let mut rng2 = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(ops, generate_ops(&g, 200, None, &mut rng2));
    }

    #[test]
    fn hotspot_skews_towards_register_zero() {
        let g = topologies::ring(6);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ops = generate_ops(&g, 400, Some(0.8), &mut rng);
        let hot = ops.iter().filter(|&&(_, x, _)| x == RegisterId(0)).count();
        assert!(hot > 200, "hotspot fraction not applied ({hot}/400)");
    }

    #[test]
    fn keyed_ops_are_deterministic_per_seed() {
        let map = PartitionMap::rotated(topologies::ring(4), 8, 4).unwrap();
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let ops_a = generate_keyed_ops(&map, 300, Some(0.2), &mut a);
        let ops_b = generate_keyed_ops(&map, 300, Some(0.2), &mut b);
        assert_eq!(ops_a, ops_b, "same seed must reproduce the stream");
        let mut c = ChaCha8Rng::seed_from_u64(10);
        assert_ne!(ops_a, generate_keyed_ops(&map, 300, Some(0.2), &mut c));
        for &(key, _) in &ops_a {
            assert!(key < map.num_keys());
        }
    }

    #[test]
    fn keyed_hotspot_concentrates_on_partition_zero() {
        let map = PartitionMap::rotated(topologies::ring(4), 8, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ops = generate_keyed_ops(&map, 500, Some(0.7), &mut rng);
        let hot = ops.iter().filter(|&&(key, _)| key == 0).count();
        assert!(hot > 250, "hotspot fraction not applied ({hot}/500)");
    }

    #[test]
    fn routed_ops_land_on_holder_nodes() {
        let map = PartitionMap::rotated(topologies::ring(4), 6, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ops = generate_keyed_ops(&map, 200, None, &mut rng);
        let scripts = route_keyed_ops(&map, &ops);
        assert_eq!(scripts.iter().map(Vec::len).sum::<usize>(), 200);
        for (node, script) in scripts.iter().enumerate() {
            for &(p, x, _) in script {
                assert!(
                    map.holder_nodes(p, x).contains(&node),
                    "node {node} drives ({p}, {x}) it does not host"
                );
            }
        }
        // Same affinity in the simulator split: role and node agree.
        let by_partition = split_by_partition(&map, &ops);
        assert_eq!(by_partition.iter().map(Vec::len).sum::<usize>(), 200);
        for (p, part) in by_partition.iter().enumerate() {
            for &(role, x, _) in part {
                assert!(map.graph().stores(role, x));
                let node = map.node_of(PartitionId(p as u32), role);
                assert!(scripts[node]
                    .iter()
                    .any(|&(pp, xx, _)| { pp == PartitionId(p as u32) && xx == x }));
            }
        }
    }

    #[test]
    fn partition_preserves_order_and_membership() {
        let g = topologies::ring(4);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ops = generate_ops(&g, 100, None, &mut rng);
        let parts = partition_by_replica(&g, &ops);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 100);
        for (idx, part) in parts.iter().enumerate() {
            let values: Vec<u64> = part.iter().map(|&(_, _, v)| v).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            assert_eq!(values, sorted, "node {idx} order mangled");
            assert!(part.iter().all(|&(i, _, _)| i == ReplicaId(idx)));
        }
    }
}
