//! Integration tests for the sharded deployment: real TCP loopback
//! clusters hosting many partitions per node, key-routed clients, and
//! per-partition oracle verification.

mod common;

use common::{launch_ring, quick_cfg, DRAIN};
use prcc_clock::EdgeProtocol;
use prcc_graph::{topologies, PartitionId, PartitionMap};
use prcc_service::{LoopbackCluster, ServiceConfig};
use prcc_workloads::ops::{generate_keyed_ops, route_keyed_ops};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::thread;

fn launch(partitions: u32, nodes: usize) -> LoopbackCluster {
    launch_ring(partitions, nodes, &quick_cfg())
}

/// A 4-node ring hosting 8 partitions, driven by a seeded keyed workload
/// through per-node clients in parallel: every partition's replay must be
/// independently causally consistent, and load must reach many partitions.
#[test]
fn sharded_keyed_workload_is_consistent_per_partition() {
    let cluster = launch(8, 4);
    let map = cluster.map().clone();

    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let ops = generate_keyed_ops(&map, 600, None, &mut rng);
    let scripts = route_keyed_ops(&map, &ops);
    let mut drivers = Vec::new();
    for (node, script) in scripts.into_iter().enumerate() {
        let mut client = cluster.client(node).expect("client");
        drivers.push(thread::spawn(move || {
            for (partition, register, value) in script {
                assert!(client
                    .write_in(partition, register, value)
                    .expect("write io"));
            }
        }));
    }
    for driver in drivers {
        driver.join().expect("driver");
    }

    assert!(cluster.drain(DRAIN).expect("drain io"), "no quiescence");
    let statuses = cluster.statuses().expect("statuses");
    assert_eq!(statuses.iter().map(|s| s.issued).sum::<u64>(), 600);
    // A uniform key stream touches (almost surely) every partition.
    let per_partition_issued: Vec<u64> = (0..8)
        .map(|p| statuses.iter().map(|s| s.per_partition[p].issued).sum())
        .collect();
    assert!(
        per_partition_issued.iter().filter(|&&n| n > 0).count() >= 6,
        "load not spread: {per_partition_issued:?}"
    );

    // Every delivered update went through the v3 single-frame flush path
    // (frames never exceed per-partition batch sections).
    for status in &statuses {
        assert!(
            status.frames_sent <= status.batches_sent,
            "node {}: {} frames for {} batches",
            status.node,
            status.frames_sent,
            status.batches_sent
        );
    }

    let verdicts = cluster.verify_partitions().expect("traces");
    assert_eq!(verdicts.len(), 8);
    for (p, verdict) in verdicts.iter().enumerate() {
        let v = verdict.as_ref().expect("replayable");
        assert!(v.is_consistent(), "partition {p}: {v:?}");
    }
    cluster.shutdown().expect("shutdown");
}

/// The v3 frame-packing tentpole, observed end to end: each node receives
/// a sweep over every partition it hosts as one burst, so the reactor tick
/// that ships it coalesces updates of *several* partitions — which must
/// leave as one frame per flush (strictly fewer frames than per-partition
/// batch sections, and nowhere near batches x partitions).
#[test]
fn flushes_pack_multiple_partitions_into_one_frame() {
    let graph = topologies::ring(4);
    let map = PartitionMap::rotated(graph.clone(), 8, 4).expect("valid map");
    let protocol = Arc::new(EdgeProtocol::new(graph));
    let cfg = ServiceConfig {
        batch_max: 64,
        ..ServiceConfig::default()
    };
    let cluster = LoopbackCluster::launch_partitioned(protocol, map, &cfg, 0).expect("launch");

    let routed = cluster.routed_client().expect("routed client");
    let keys = cluster.map().num_keys();
    for round in 0..6u64 {
        // One burst per node and round: every key the router sends there.
        let mut bursts = vec![Vec::new(); cluster.len()];
        for key in 0..keys {
            let (partition, register, node) = routed.route(key).expect("routable key");
            bursts[node].push((partition, register, round * keys + key));
        }
        for (node, burst) in bursts.iter().enumerate() {
            common::burst_writes(cluster.addrs(node).1, burst);
        }
    }
    assert!(cluster.drain(DRAIN).expect("drain io"), "no quiescence");

    let statuses = cluster.statuses().expect("statuses");
    let frames: u64 = statuses.iter().map(|s| s.frames_sent).sum();
    let batches: u64 = statuses.iter().map(|s| s.batches_sent).sum();
    let flushes: u64 = statuses.iter().map(|s| s.flushes).sum();
    assert!(frames > 0, "no peer frames at all");
    assert_eq!(
        frames, flushes,
        "v3 invariant broken: every flush is exactly one frame"
    );
    assert!(
        batches > frames,
        "no multi-partition flush was packed: {batches} batch sections in {frames} frames"
    );

    let verdicts = cluster.verify_partitions().expect("traces");
    for (p, verdict) in verdicts.iter().enumerate() {
        let v = verdict.as_ref().expect("replayable");
        assert!(v.is_consistent(), "partition {p}: {v:?}");
    }
    cluster.shutdown().expect("shutdown");
}

/// Writes routed to partition 0 must never be applied by any replica of
/// another partition: partition 1's logs and counters stay empty, and the
/// per-partition replay confirms nothing leaked.
#[test]
fn write_to_partition_a_never_applied_by_partition_b() {
    let cluster = launch(2, 4);
    let map = cluster.map().clone();

    // Drive 100 writes, all onto keys of partition 0.
    let span = map.graph().num_registers() as u64;
    let mut routed = cluster.routed_client().expect("routed client");
    for v in 0..100u64 {
        routed.write_key(v % span, v).expect("write");
    }
    assert!(cluster.drain(DRAIN).expect("drain io"));

    let statuses = cluster.statuses().expect("statuses");
    for status in &statuses {
        assert_eq!(status.per_partition.len(), 2);
        assert_eq!(
            status.per_partition[1].issued, 0,
            "node {} issued into partition 1",
            status.node
        );
        assert_eq!(
            status.per_partition[1].applies, 0,
            "node {} applied partition-0 updates in partition 1",
            status.node
        );
    }
    // Trace-level check: every node's partition-1 log is empty, and the
    // partition-0 replay sees a complete, consistent history.
    let traces = cluster.collect_traces().expect("traces");
    for (node, logs) in traces.iter().enumerate() {
        assert_eq!(logs.len(), 2);
        let (checkpoint, live) = &logs[1];
        assert!(
            checkpoint.is_empty() && live.is_empty(),
            "node {node} recorded partition-1 events: {live:?}"
        );
    }
    let verdicts = cluster.verify_partitions().expect("traces");
    assert!(verdicts[0].as_ref().expect("replayable").is_consistent());
    assert!(verdicts[1].as_ref().expect("replayable").is_consistent());
    cluster.shutdown().expect("shutdown");
}

/// The key-routing client: write/read by flat key across the whole
/// universe, with values converging at quiescence; keys outside the
/// universe are rejected without wedging anything.
#[test]
fn routed_client_round_trips_keys() {
    let cluster = launch(4, 4);
    let mut routed = cluster.routed_client().expect("routed client");
    let keys = cluster.map().num_keys();

    for key in 0..keys {
        routed.write_key(key, 1000 + key).expect("write");
    }
    assert!(cluster.drain(DRAIN).expect("drain io"));
    for key in 0..keys {
        assert_eq!(
            routed.read_key(key).expect("read"),
            Some(1000 + key),
            "key {key} lost its value"
        );
    }
    assert!(routed.write_key(keys, 1).is_err(), "out-of-universe key");

    let verdict = cluster.verify().expect("traces").expect("replayable");
    assert!(verdict.is_consistent(), "verdict: {verdict:?}");
    cluster.shutdown().expect("shutdown");
}

/// `Config` serves the deployment's partition map, so a client connected to
/// any single node can learn the full routing table; `RoutedClient::connect`
/// bootstraps exactly this way.
#[test]
fn config_request_serves_partition_map() {
    let cluster = launch(3, 5);
    for node in 0..cluster.len() {
        let map = cluster
            .client(node)
            .expect("client")
            .config()
            .expect("config");
        assert_eq!(&map, cluster.map(), "node {node} serves a different map");
    }
    // Bootstrapping a router from addresses alone works end to end.
    let addrs = (0..cluster.len()).map(|i| cluster.addrs(i).1).collect();
    let mut routed = prcc_service::RoutedClient::connect(addrs).expect("bootstrap");
    routed.write_key(0, 7).expect("write");
    assert!(cluster.drain(DRAIN).expect("drain io"));
    assert_eq!(routed.read_key(0).expect("read"), Some(7));
    cluster.shutdown().expect("shutdown");
}

/// Partition counters reconcile against `PartitionId`
/// addressing: a write into partition `p` shows up in exactly slot `p`.
#[test]
fn per_partition_counters_attribute_writes() {
    let cluster = launch(5, 3);
    let map = cluster.map().clone();
    // One write into each partition, through its role-0 hosting node.
    for p in map.partitions() {
        let node = map.node_of(p, prcc_graph::ReplicaId(0));
        let mut client = cluster.client(node).expect("client");
        assert!(client
            .write_in(p, prcc_graph::RegisterId(0), u64::from(p.0))
            .expect("write io"));
    }
    assert!(cluster.drain(DRAIN).expect("drain io"));
    let statuses = cluster.statuses().expect("statuses");
    for p in 0..5usize {
        let issued: u64 = statuses.iter().map(|s| s.per_partition[p].issued).sum();
        assert_eq!(issued, 1, "partition {p} issued {issued}");
    }
    // Writes into an out-of-range partition are refused, not crashed.
    let mut client = cluster.client(0).expect("client");
    assert!(!client
        .write_in(PartitionId(99), prcc_graph::RegisterId(0), 1)
        .expect("write io"));
    cluster.shutdown().expect("shutdown");
}
