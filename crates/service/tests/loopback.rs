//! Integration tests: real TCP loopback clusters on ephemeral ports.

mod common;

use common::{
    drain_and_verify, drive, drive_over, durable_cfg, launch_ring, quick_cfg, scratch_dir,
    spawn_redial_drivers, wait_progress, DRAIN,
};
use prcc_clock::EdgeProtocol;
use prcc_graph::{topologies, PartitionId, RegisterId};
use prcc_service::wire::partition_metric_names;
use prcc_service::{LoopbackCluster, NodeStatus, PartitionCounters, ServiceConfig};
use prcc_workloads::ops::{generate_ops, partition_by_replica};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Boots a 5-node ring over loopback TCP, drives a seeded workload through
/// per-node clients in parallel, drains to quiescence and replays the
/// collected traces through the oracle.
#[test]
fn ring5_seeded_workload_is_causally_consistent() {
    let graph = topologies::ring(5);
    let protocol = Arc::new(EdgeProtocol::new(graph.clone()));
    let cluster = LoopbackCluster::launch(protocol, &quick_cfg(), 0).expect("launch");

    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let ops = generate_ops(&graph, 400, None, &mut rng);
    let scripts = partition_by_replica(&graph, &ops);
    let mut drivers = Vec::new();
    for (node, script) in scripts.into_iter().enumerate() {
        let mut client = cluster.client(node).expect("client");
        drivers.push(thread::spawn(move || {
            for (_, register, value) in script {
                assert!(client.write(register, value).expect("write io"));
            }
        }));
    }
    for driver in drivers {
        driver.join().expect("driver");
    }

    assert!(cluster.drain(DRAIN).expect("drain io"), "no quiescence");
    let statuses = cluster.statuses().expect("statuses");
    assert_eq!(statuses.iter().map(|s| s.issued).sum::<u64>(), 400);
    assert!(statuses.iter().map(|s| s.applies).sum::<u64>() > 0);
    assert!(statuses.iter().map(|s| s.bytes_out).sum::<u64>() > 0);
    assert!(statuses.iter().all(|s| s.pending == 0));

    let verdict = cluster.verify().expect("traces").expect("replayable");
    assert!(verdict.is_consistent(), "verdict: {verdict:?}");
    cluster.shutdown().expect("shutdown");
}

/// A hotspot workload on a 4-node clique: heavy contention on register 0,
/// still causally consistent, and a causally-dominating settling write
/// converges on every holder.
///
/// Plain final values may legitimately *differ* across replicas: the
/// algorithm guarantees causal order, not convergence, so two concurrent
/// tail writes can land in opposite orders at different holders. The
/// convergence assertion therefore uses a settling write issued at
/// quiescence — its timestamp dominates every earlier update, so every
/// replica must apply it last.
#[test]
fn clique4_hotspot_converges() {
    let graph = topologies::clique_full(4, 2);
    let protocol = Arc::new(EdgeProtocol::new(graph.clone()));
    let cluster = LoopbackCluster::launch(protocol, &quick_cfg(), 0).expect("launch");

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let ops = generate_ops(&graph, 200, Some(0.6), &mut rng);
    let scripts = partition_by_replica(&graph, &ops);
    let mut drivers = Vec::new();
    for (node, script) in scripts.into_iter().enumerate() {
        let mut client = cluster.client(node).expect("client");
        drivers.push(thread::spawn(move || {
            for (_, register, value) in script {
                assert!(client.write(register, value).expect("write io"));
            }
        }));
    }
    for driver in drivers {
        driver.join().expect("driver");
    }
    assert!(cluster.drain(DRAIN).expect("drain io"));

    // The settling write: issued after node 0 has applied everything, so
    // it causally follows the whole hotspot history everywhere.
    let settled = 999_999u64;
    assert!(cluster
        .client(0)
        .expect("client")
        .write(RegisterId(0), settled)
        .expect("write io"));
    assert!(cluster.drain(DRAIN).expect("drain io"));

    let verdict = cluster.verify().expect("traces").expect("replayable");
    assert!(verdict.is_consistent(), "verdict: {verdict:?}");

    // All four nodes store register 0; the settling write wins everywhere.
    let values: Vec<Option<u64>> = (0..4)
        .map(|i| cluster.client(i).unwrap().read(RegisterId(0)).unwrap())
        .collect();
    assert!(
        values.iter().all(|v| *v == Some(settled)),
        "diverged: {values:?}"
    );
    cluster.shutdown().expect("shutdown");
}

/// Reads through the client API observe locally applied writes, and writes
/// to unstored registers are rejected without wedging the node.
#[test]
fn client_api_read_write_semantics() {
    let graph = topologies::line(3);
    let protocol = Arc::new(EdgeProtocol::new(graph.clone()));
    let cluster = LoopbackCluster::launch(protocol, &quick_cfg(), 0).expect("launch");

    let mut c0 = cluster.client(0).expect("client 0");
    let mut c1 = cluster.client(1).expect("client 1");
    // Register 0 is shared by replicas 0 and 1; replica 0 does not store
    // register 1.
    assert!(c0.write(RegisterId(0), 77).expect("write"));
    assert!(!c0.write(RegisterId(1), 1).expect("write"), "not stored");
    assert!(cluster.drain(DRAIN).expect("drain io"));
    assert_eq!(c0.read(RegisterId(0)).expect("read"), Some(77));
    assert_eq!(c1.read(RegisterId(0)).expect("read"), Some(77));
    // Replica 2 does not store register 0: read reports no value.
    let mut c2 = cluster.client(2).expect("client 2");
    assert_eq!(c2.read(RegisterId(0)).expect("read"), None);

    let verdict = cluster.verify().expect("traces").expect("replayable");
    assert!(verdict.is_consistent());
    cluster.shutdown().expect("shutdown");
}

/// The causal chain of the quickstart example, but across real sockets:
/// replica 0 writes `account`, replica 1 observes it and writes `audit`,
/// and replica 2 — which never stores `account` — still sees `audit` only
/// after its causal dependency was propagated. The trace replay proves the
/// ordering.
#[test]
fn causal_chain_across_three_nodes() {
    let account = RegisterId(0);
    let audit = RegisterId(1);
    let graph = prcc_graph::ShareGraphBuilder::new()
        .replica([account])
        .replica([account, audit])
        .replica([audit])
        .build()
        .expect("valid graph");
    let protocol = Arc::new(EdgeProtocol::new(graph.clone()));
    let cluster = LoopbackCluster::launch(protocol, &quick_cfg(), 0).expect("launch");

    let mut c0 = cluster.client(0).expect("client 0");
    let mut c1 = cluster.client(1).expect("client 1");
    let mut c2 = cluster.client(2).expect("client 2");

    assert!(c0.write(account, 100).expect("write account"));
    // Wait until replica 1 has applied the account update, then chain.
    let deadline = std::time::Instant::now() + DRAIN;
    loop {
        if c1.read(account).expect("read") == Some(100) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "propagation stalled");
        thread::sleep(Duration::from_millis(2));
    }
    assert!(c1.write(audit, 1).expect("write audit"));
    assert!(cluster.drain(DRAIN).expect("drain io"));
    assert_eq!(c2.read(audit).expect("read audit"), Some(1));

    let verdict = cluster.verify().expect("traces").expect("replayable");
    assert!(verdict.is_consistent(), "verdict: {verdict:?}");
    cluster.shutdown().expect("shutdown");
}

/// Status counters line up with the workload across the cluster.
#[test]
fn statuses_account_for_traffic() {
    let graph = topologies::ring(3);
    let protocol = Arc::new(EdgeProtocol::new(graph.clone()));
    let cluster = LoopbackCluster::launch(protocol, &quick_cfg(), 0).expect("launch");
    let mut client = cluster.client(0).expect("client");
    for v in 0..50u64 {
        assert!(client.write(RegisterId(0), v).expect("write"));
    }
    assert!(cluster.drain(DRAIN).expect("drain io"));
    let statuses = cluster.statuses().expect("statuses");
    // Ring: register 0 is shared by replicas 0 and 1 only → one copy per
    // write on the wire.
    assert_eq!(statuses[0].issued, 50);
    assert_eq!(statuses[0].messages_sent, 50);
    assert_eq!(statuses[1].messages_received, 50);
    assert_eq!(statuses[1].applies, 50);
    assert!(statuses[0].batches_sent <= 50);
    assert!(statuses[0].bytes_out > 0);
    // Protocol template check caught nothing; the peer knows node 0's graph.
    assert_eq!(statuses[2].messages_received, 0);
    cluster.shutdown().expect("shutdown");
}

/// The registry is the status schema. On a volatile and a durable ring-4
/// of four partitions, after a short drive, every metric
/// `NodeStatus::from_metrics` reads is in each node's own scrape — the WAL
/// and snapshot ones exactly when the node is durable — and what it reads
/// adds up: the issues are the writes driven, and each node's
/// per-partition gauges sum to its totals.
#[test]
fn every_status_metric_is_in_the_scrape_and_adds_up() {
    let dir = scratch_dir("status-schema");
    for cfg in [quick_cfg(), durable_cfg(dir.clone(), 64)] {
        let durable = cfg.data_dir.is_some();
        let cluster = launch_ring(4, 4, &cfg);
        drive(&cluster, 300, 0x5c4e);
        assert!(cluster.drain(DRAIN).expect("drain io"));
        let mut issued = 0;
        for (node, scrape) in cluster
            .metrics_per_node()
            .expect("metrics")
            .iter()
            .enumerate()
        {
            let held = |name: &str| scrape.counter(name).or_else(|| scrape.gauge(name));
            for name in NodeStatus::metric_names() {
                let durable_only = name.starts_with("wal_") || name.contains("snapshot");
                assert_eq!(
                    held(name).is_some(),
                    durable || !durable_only,
                    "node {node} (durable: {durable}): {name}"
                );
            }
            for name in (0..4).flat_map(partition_metric_names) {
                assert!(scrape.gauge(&name).is_some(), "node {node}: {name}");
            }
            let status = NodeStatus::from_metrics(scrape);
            assert_eq!(status.node, node as u64);
            assert_eq!(status.per_partition.len(), 4);
            let sum = |of: fn(&PartitionCounters) -> u64| {
                status.per_partition.iter().map(of).sum::<u64>()
            };
            assert_eq!(sum(|c| c.issued), status.issued, "node {node}");
            assert_eq!(sum(|c| c.applies), status.applies, "node {node}");
            assert_eq!(sum(|c| c.pending), status.pending, "node {node}");
            issued += status.issued;
        }
        assert_eq!(issued, 300, "durable: {durable}");
        cluster.shutdown().expect("shutdown");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batching coalesces: a burst of writes the node receives together must
/// produce fewer peer frames than updates — the reactor tick that delivers
/// them is the batch, no timer involved.
#[test]
fn batching_reduces_frames() {
    let graph = topologies::line(2);
    let protocol = Arc::new(EdgeProtocol::new(graph));
    let cfg = ServiceConfig {
        batch_max: 64,
        ..ServiceConfig::default()
    };
    let cluster = LoopbackCluster::launch(protocol, &cfg, 0).expect("launch");
    let burst: Vec<_> = (0..200u64)
        .map(|v| (PartitionId(0), RegisterId(0), v))
        .collect();
    common::burst_writes(cluster.addrs(0).1, &burst);
    assert!(cluster.drain(DRAIN).expect("drain io"));
    let statuses = cluster.statuses().expect("statuses");
    assert_eq!(statuses[0].messages_sent, 200);
    assert!(
        statuses[0].batches_sent < 200,
        "no batching happened: {} batches for 200 updates",
        statuses[0].batches_sent
    );
    // v3 framing: one frame per flush; unsharded, sections == flushes too.
    assert!(statuses[0].frames_sent > 0);
    assert_eq!(statuses[0].frames_sent, statuses[0].flushes);
    assert_eq!(statuses[0].frames_sent, statuses[0].batches_sent);
    let verdict = cluster.verify().expect("traces").expect("replayable");
    assert!(verdict.is_consistent());
    cluster.shutdown().expect("shutdown");
}

/// End-to-end lifecycle telemetry: with every update sampled, a driven
/// full clique must expose non-empty stage histograms — visibility
/// latency and first-send measured across real sockets — and the
/// per-node snapshots must merge into a cluster view whose counters add
/// up. A 3-clique on one register makes the expected sample counts exact:
/// every node holds the register, so every write is applied remotely
/// exactly twice.
#[test]
fn live_metrics_expose_stage_histograms() {
    let graph = topologies::clique_full(3, 1);
    let protocol = Arc::new(EdgeProtocol::new(graph));
    let cfg = ServiceConfig {
        batch_max: 16,
        sample_every: 1,
        ..ServiceConfig::default()
    };
    let cluster = LoopbackCluster::launch(protocol, &cfg, 0).expect("launch");
    let mut client = cluster.client(0).expect("client");
    for v in 0..100u64 {
        assert!(client.write(RegisterId(0), v).expect("write"));
    }
    assert!(cluster.drain(DRAIN).expect("drain io"));

    // Per-node: the origin stamped every write, so its send_us histogram
    // filled; each recipient measured wire + visibility latency.
    let per_node = cluster.metrics_per_node().expect("metrics");
    assert!(per_node[0].counter("net_batches_sent").unwrap_or(0) > 0);
    // One sample per (update, peer link) first transmission — the handful
    // of updates queued before a link finishes its handshake ride the
    // untimed resume path instead, so this is a floor, not an identity.
    let send = per_node[0].hist_summary("send_us").expect("send_us");
    assert!(
        send.count >= 100 && send.count <= 200,
        "origin timed {} first sends for 100 writes x 2 peers",
        send.count
    );
    for (node, snap) in per_node.iter().enumerate().skip(1) {
        let vis = snap.hist_summary("visibility_us").expect("visibility_us");
        assert_eq!(vis.count, 100, "node {node} must time every sampled apply");
        assert!(
            snap.hist_summary("wire_us").expect("wire_us").count > 0,
            "node {node} never timed a received frame"
        );
        // Stall + visibility are measured at the same applies; a stall
        // longer than the whole visibility window would be nonsense.
        let stall = snap.hist_summary("pending_stall_us").expect("stall");
        assert_eq!(stall.count, vis.count);
        assert!(stall.max_us <= vis.max_us.max(1));
    }

    // Merged: counters sum across nodes, and the cluster-wide visibility
    // histogram holds one sample per (update, remote recipient) pair.
    let merged = cluster.metrics().expect("merged metrics");
    assert_eq!(merged.gauge("core_issued"), Some(100));
    assert_eq!(
        merged
            .hist_summary("visibility_us")
            .expect("visibility")
            .count,
        200,
        "2 remote recipients x 100 sampled updates"
    );
    assert_eq!(merged.gauge("core_window_evicted"), Some(0));
    cluster.shutdown().expect("shutdown");
}

/// The zero-copy hot path's steady state allocates nothing: once a warm-up
/// has stocked the pool's shelves, frames, batches and replies are served
/// from recycled buffers. Measured as the *delta* of the pool counters
/// over a second drive, so the cold-shelf misses of boot and warm-up do
/// not dilute (or excuse) the share — once with a connection per node,
/// once over 256 connections, where an idle client holding a lease would
/// drain the shelves.
#[test]
fn pool_serves_the_steady_state_from_recycled_buffers() {
    for conns_per_node in [1, 64] {
        let cluster = launch_ring(8, 4, &quick_cfg());
        drive_over(&cluster, 500, 7, conns_per_node);
        let warm = cluster.metrics().expect("warm metrics");
        drive_over(&cluster, 4000, 8, conns_per_node);
        let done = cluster.metrics().expect("final metrics");
        let delta = |name: &str| done.counter(name).expect(name) - warm.counter(name).expect(name);
        let (hits, misses) = (delta("pool_hits"), delta("pool_misses"));
        let leases = hits + misses;
        assert!(
            leases >= 4000,
            "{conns_per_node} conns/node: {leases} leases counted for 4000 writes — \
             the hot path is not pooling its buffers"
        );
        assert!(
            misses * 20 < leases,
            "{conns_per_node} conns/node: {misses} of {leases} steady-state leases \
             allocated (>= 5%)"
        );
        drain_and_verify(&cluster, "pool steady state");
        cluster.shutdown().expect("shutdown");
    }
}

/// The metrics frame round-trips while the hot path is hot: a scrape of
/// node 0 over the client wire, taken with the drive a quarter in and
/// still running when the reply arrives, decodes and carries the
/// `pending_stall_us` stage histogram and the core gauges.
#[test]
fn metrics_scrape_mid_drive_carries_the_stage_histograms() {
    let ops = 8000;
    let cluster = launch_ring(8, 4, &quick_cfg());
    let progress = Arc::new(AtomicUsize::new(0));
    let drivers = spawn_redial_drivers(&cluster, ops, 7, &progress);
    wait_progress(&progress, ops / 4);
    let snap = cluster
        .client(0)
        .expect("dial node 0")
        .metrics()
        .expect("mid-drive metrics frame");
    let landed = progress.load(Ordering::Relaxed);
    assert!(
        landed < ops,
        "the drive finished before the scrape returned"
    );
    assert!(
        snap.hist_summary("pending_stall_us").is_some(),
        "mid-drive metrics frame decoded without a pending_stall_us histogram"
    );
    assert!(snap.gauge("core_issued").expect("core_issued gauge") > 0);
    for driver in drivers {
        driver.join().expect("driver");
    }
    drain_and_verify(&cluster, "mid-drive scrape");
    cluster.shutdown().expect("shutdown");
}
