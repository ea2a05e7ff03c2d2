//! Crash/restart fault injection over real TCP clusters with the
//! durability layer enabled.
//!
//! Every test gives the cluster a data dir, kills a node WITHOUT graceful
//! shutdown ([`LoopbackCluster::crash_node`] severs its sockets
//! mid-stream), restarts it on the same listeners + data dir, and then
//! holds the recovered cluster to the same standard as a healthy one:
//!
//! * the restarted node's event log, counters and store match its
//!   pre-crash state exactly (WAL replay is deterministic);
//! * the *complete* merged trace — pre-crash, crash window, post-restart —
//!   still passes the per-partition causal-consistency oracle with zero
//!   misrouted and zero lost updates;
//! * two runs of the same seeded workload crashed at the same op index
//!   leave byte-identical snapshot + WAL files behind (the determinism
//!   the whole recovery design rests on).

mod common;

use common::{drive, durable_cfg, launch_ring as launch, scratch_dir};
use prcc_clock::EdgeProtocol;
use prcc_graph::{topologies, RegisterId};
use prcc_service::{LoopbackCluster, ServiceConfig};
use prcc_workloads::ops::{generate_keyed_ops, route_keyed_ops};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use common::drain_or_dump;

fn assert_all_partitions_consistent(cluster: &LoopbackCluster) {
    common::assert_all_partitions_consistent(cluster, "recovery");
}

/// Crash at quiescence, restart, and compare the recovered node against
/// its pre-crash self event by event: same trace, same counters, same
/// store contents — then keep the cluster working and verify the full
/// history. Run for the unsharded and the 8-partition deployment.
#[test]
fn restarted_node_matches_its_pre_crash_state() {
    for (partitions, tag) in [(1u32, "match-1p"), (8u32, "match-8p")] {
        let dir = scratch_dir(tag);
        let cfg = durable_cfg(dir.clone(), 64);
        let mut cluster = launch(partitions, 4, &cfg);
        let victim = 1usize;

        drive(&cluster, 400, 7);
        drain_or_dump(&cluster, "quiescence");

        // Capture the victim's observable state at quiescence.
        let before_trace = cluster
            .client(victim)
            .expect("client")
            .trace()
            .expect("trace");
        let before_status = &cluster.statuses().expect("statuses")[victim];
        // Unique receives (minus dedup drops): survivors may retransmit
        // their unacked window tails right after the restart, and those
        // duplicates must not make the comparison flaky.
        let before = (
            before_status.issued,
            before_status.applies,
            before_status.messages_sent,
            before_status.messages_received - before_status.duplicates_dropped,
        );
        let mut before_reads = Vec::new();
        {
            let map = cluster.map().clone();
            let mut client = cluster.client(victim).expect("client");
            for (p, _) in map.hosted_by(victim) {
                for x in 0..map.graph().num_registers() as u32 {
                    before_reads.push(client.read_in(p, RegisterId(x)).expect("read io"));
                }
            }
        }

        cluster.crash_node(victim);
        cluster.restart_node(victim).expect("restart");

        // (a) The recovered state matches the pre-crash event log exactly.
        let after_trace = cluster
            .client(victim)
            .expect("client")
            .trace()
            .expect("trace");
        assert_eq!(
            after_trace, before_trace,
            "partitions={partitions}: recovered trace differs from the pre-crash log"
        );
        let after_status = &cluster.statuses().expect("statuses")[victim];
        let after = (
            after_status.issued,
            after_status.applies,
            after_status.messages_sent,
            after_status.messages_received - after_status.duplicates_dropped,
        );
        assert_eq!(after, before, "partitions={partitions}: counters drifted");
        assert!(
            after_status.pending == before_status.pending,
            "pending buffer drifted"
        );
        let mut after_reads = Vec::new();
        {
            let map = cluster.map().clone();
            let mut client = cluster.client(victim).expect("client");
            for (p, _) in map.hosted_by(victim) {
                for x in 0..map.graph().num_registers() as u32 {
                    after_reads.push(client.read_in(p, RegisterId(x)).expect("read io"));
                }
            }
        }
        assert_eq!(after_reads, before_reads, "store contents drifted");

        // (b)+(c) The cluster keeps working and the COMPLETE merged trace
        // verifies with zero misrouted drops.
        drive(&cluster, 200, 8);
        drain_or_dump(&cluster, "post-restart quiescence");
        assert_all_partitions_consistent(&cluster);
        cluster.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The hard case: crash a node MID-RUN, with updates in flight in both
/// directions, then restart it while the drivers keep pushing. Peer
/// windows must resend everything unacknowledged, the recovered node must
/// replay its WAL, and the complete history must still verify — zero
/// lost updates shows up as zero liveness violations at quiescence.
#[test]
fn mid_flight_crash_recovers_without_losing_updates() {
    for (partitions, tag) in [(1u32, "flight-1p"), (8u32, "flight-8p")] {
        let dir = scratch_dir(tag);
        let cfg = durable_cfg(dir.clone(), 128);
        let mut cluster = launch(partitions, 4, &cfg);
        let victim = 2usize;

        // First wave: traffic the crash will interrupt mid-digestion.
        drive(&cluster, 300, 21);
        cluster.crash_node(victim);
        // Second wave while the victim is down: its peers buffer unacked
        // updates for it in their windows.
        let survivors_ops = {
            let map = cluster.map().clone();
            let mut rng = ChaCha8Rng::seed_from_u64(22);
            let keyed = generate_keyed_ops(&map, 200, None, &mut rng);
            route_keyed_ops(&map, &keyed)
        };
        let mut drivers = Vec::new();
        for (node, script) in survivors_ops.into_iter().enumerate() {
            if node == victim {
                continue; // Its clients would just see a dead socket.
            }
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

        cluster.restart_node(victim).expect("restart");
        // Third wave: the recovered node takes writes again.
        drive(&cluster, 200, 23);

        drain_or_dump(&cluster, "quiescence after recovery");
        let statuses = cluster.statuses().expect("statuses");
        assert!(
            statuses[victim].wal_appends > 0,
            "the restarted node never appended to its WAL"
        );
        // (b)+(c): complete-trace verification — liveness violations would
        // flag any update the crash actually lost.
        assert_all_partitions_consistent(&cluster);
        cluster.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Determinism, extended from the PR 2 seeded-workload tests into the
/// durability layer: two independent clusters driven with the same
/// `--seed` workload and crashed at the same op index leave byte-identical
/// `snapshot.bin` + `wal.bin` behind — and the files actually restart the
/// node. Streamed acks are disabled (`ack_every: 0`) so resend windows
/// are a pure function of the op stream rather than of ack timing.
#[test]
fn same_seed_same_crash_point_means_byte_identical_snapshots() {
    let crash_at_op = 150usize;
    type Traces = Vec<(
        prcc_checker::TraceCheckpoint,
        Vec<prcc_checker::trace::TraceEvent>,
    )>;
    let run = |tag: &str| -> (PathBuf, Vec<u8>, Vec<u8>, Traces) {
        let dir = scratch_dir(tag);
        let cfg = ServiceConfig {
            batch_max: 16,
            data_dir: Some(dir.clone()),
            snapshot_every: 64,
            ack_every: 0,
            ..ServiceConfig::default()
        };
        let mut cluster = launch(4, 4, &cfg);
        // Drive ONLY node 0, sequentially, with the seeded keyed script it
        // would get from the shared generator: node 0's durable state is
        // then a pure function of (seed, crash_at_op).
        let map = cluster.map().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let keyed = generate_keyed_ops(&map, 600, None, &mut rng);
        let script = route_keyed_ops(&map, &keyed).swap_remove(0);
        assert!(
            script.len() > crash_at_op,
            "seed must route enough ops to node 0"
        );
        let mut client = cluster.client(0).expect("client");
        for (partition, register, value) in script.into_iter().take(crash_at_op) {
            assert!(client
                .write_in(partition, register, value)
                .expect("write io"));
        }
        cluster.crash_node(0);

        let node_dir = dir.join("node-0");
        let snapshot = std::fs::read(node_dir.join("snapshot.bin")).expect("snapshot exists");
        let wal = std::fs::read(node_dir.join("wal.bin")).expect("wal exists");

        // The files are not just stable — they must actually restart the
        // node with its full pre-crash event log.
        cluster.restart_node(0).expect("restart");
        let trace = cluster.client(0).expect("client").trace().expect("trace");
        // Tear the rest of the cluster down; survivors never crashed.
        cluster.shutdown().expect("shutdown");
        (dir, snapshot, wal, trace)
    };

    let (dir_a, snap_a, wal_a, trace_a) = run("det-a");
    let (dir_b, snap_b, wal_b, trace_b) = run("det-b");
    assert_eq!(
        snap_a, snap_b,
        "snapshots diverged across identical seeded runs"
    );
    assert_eq!(wal_a, wal_b, "WALs diverged across identical seeded runs");
    assert!(!snap_a.is_empty());
    // Every pre-crash issue is accounted for: sealed into a checkpoint
    // summary or still live in the suffix.
    let issues: u64 = trace_a
        .iter()
        .map(|(checkpoint, live)| {
            checkpoint.issues
                + live
                    .iter()
                    .filter(|e| matches!(e, prcc_checker::trace::TraceEvent::Issue { .. }))
                    .count() as u64
        })
        .sum();
    assert_eq!(
        issues, crash_at_op as u64,
        "recovered log must hold every pre-crash issue"
    );
    assert_eq!(trace_a, trace_b, "recovered traces diverged");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The crash's black box: killing a node mid-traffic leaves a
/// `flight.log` next to its WAL whose final `wal_append` events line up
/// exactly with the last records actually recovered from `wal.bin` — the
/// recorder is telling the truth about what the node was doing in its
/// final moments, not a plausible approximation of it.
#[test]
fn crash_dump_flight_recorder_matches_final_wal_records() {
    let dir = scratch_dir("flight-dump");
    // A snapshot interval past the op count: the WAL then retains every
    // record since boot and the comparison is exact, not truncation-aware.
    let cfg = durable_cfg(dir.clone(), 1 << 20);
    let mut cluster = launch(4, 4, &cfg);
    let victim = 1usize;

    drive(&cluster, 300, 41);
    drain_or_dump(&cluster, "quiescence");
    cluster.crash_node(victim);

    // The dump is written by the core thread on its way out; crash_node
    // severs sockets before the thread exits, so wait for the file.
    let node_dir = dir.join(format!("node-{victim}"));
    let flight_path = node_dir.join("flight.log");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !flight_path.exists() && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let dump = std::fs::read_to_string(&flight_path).expect("flight.log written on crash");
    assert!(
        dump.starts_with("flight recorder:"),
        "unexpected dump header:\n{dump}"
    );
    assert!(
        dump.lines().last().is_some_and(|l| l.ends_with(" crash")),
        "the injected crash must be the dump's final event:\n{dump}"
    );

    // The indices the WAL actually retained (each record payload leads
    // with its varint index)...
    let wal_bytes = std::fs::read(node_dir.join("wal.bin")).expect("wal exists");
    let scan = prcc_storage::scan_wal(&wal_bytes).expect("valid wal");
    let wal_indices: Vec<u64> = scan
        .records
        .iter()
        .map(|payload| prcc_clock::encoding::read_varint_at(payload, &mut 0).expect("record index"))
        .collect();
    assert!(!wal_indices.is_empty(), "victim never appended to its WAL");

    // ...versus the indices the recorder saw being appended.
    let dumped: Vec<u64> = dump
        .lines()
        .filter_map(|line| {
            let (_, rest) = line.split_once(' ')?;
            let fields = rest.strip_prefix("wal_append ")?;
            fields
                .split_whitespace()
                .find_map(|f| f.strip_prefix("index="))?
                .parse()
                .ok()
        })
        .collect();
    assert!(!dumped.is_empty(), "no wal_append events in dump:\n{dump}");

    // The ring may have evicted old events and the oldest WAL records
    // predate any bounded recorder — but the tails must agree exactly:
    // same final append, and the recorder's recent appends are precisely
    // the corresponding suffix of the recovered log.
    assert_eq!(
        dumped.last(),
        wal_indices.last(),
        "last recorded append disagrees with the last durable record"
    );
    let tail = &wal_indices[wal_indices.len().saturating_sub(dumped.len())..];
    assert_eq!(
        &dumped[dumped.len() - tail.len()..],
        tail,
        "recorded append indices diverge from the recovered WAL"
    );

    // The dump is a black box, not state: the node still restarts from the
    // same directory and the complete history still verifies.
    cluster.restart_node(victim).expect("restart");
    drive(&cluster, 100, 42);
    drain_or_dump(&cluster, "post-restart quiescence");
    assert_all_partitions_consistent(&cluster);
    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-restart integrity: every snapshot leaves a digest record in the
/// fresh WAL binding the snapshot's sealed-trace checkpoints (event count
/// and chained FNV digest per hosted partition). A restart from the honest
/// files boots; the same files with ONE flipped digest bit in
/// `snapshot.bin` must refuse to boot with a diagnosable error rather
/// than silently serving from a tampered (or bit-rotted) store.
#[test]
fn tampered_snapshot_digest_refuses_to_boot() {
    let dir = scratch_dir("tamper");
    let cfg = ServiceConfig {
        batch_max: 16,
        data_dir: Some(dir.clone()),
        snapshot_every: 64,
        // Compact aggressively so the sealed checkpoints the digest record
        // covers are non-trivial, not all-zero placeholders.
        trace_compact_at: 32,
        ..ServiceConfig::default()
    };
    let mut cluster = launch(4, 4, &cfg);
    let victim = 1usize;

    drive(&cluster, 400, 51);
    drain_or_dump(&cluster, "quiescence");
    cluster.crash_node(victim);

    // The honest files must boot — the digest check is a tamper detector,
    // not a tax on every legitimate restart.
    cluster
        .restart_node(victim)
        .expect("untampered files must boot");
    cluster.crash_node(victim);

    // The WAL must actually carry a digest record for the tamper below to
    // be checkable against; otherwise this test would pass vacuously.
    let node_dir = dir.join(format!("node-{victim}"));
    let protocol = EdgeProtocol::new(topologies::ring(4));
    let roles = cluster.map().graph().num_replicas();
    let make_clock = |k: prcc_graph::ReplicaId| {
        use prcc_clock::Protocol;
        (k.index() < roles).then(|| protocol.new_clock(k))
    };
    let wal_bytes = std::fs::read(node_dir.join("wal.bin")).expect("wal exists");
    let scan = prcc_storage::scan_wal(&wal_bytes).expect("valid wal");
    let has_digest = scan.records.iter().any(|payload| {
        matches!(
            prcc_storage::decode_record::<prcc_clock::EdgeClock, _>(payload, make_clock),
            Ok((_, prcc_storage::WalRecord::Digest { .. }))
        )
    });
    assert!(
        has_digest,
        "snapshotting run left no digest record in the WAL"
    );

    // Flip one digest bit on a hosted partition and re-encode.
    let snapshot_path = node_dir.join("snapshot.bin");
    let pristine = std::fs::read(&snapshot_path).expect("snapshot exists");
    let (version, payload) = prcc_storage::read_snapshot(&snapshot_path)
        .expect("readable snapshot")
        .expect("snapshot present");
    let mut snap = prcc_storage::decode_snapshot::<prcc_clock::EdgeClock, _>(
        version, &payload, roles, make_clock,
    )
    .expect("decodable snapshot");
    let slot = snap
        .partitions
        .iter_mut()
        .flatten()
        .next()
        .expect("victim hosts a partition");
    slot.checkpoint.digest ^= 1;
    prcc_storage::write_snapshot(&snapshot_path, &prcc_storage::encode_snapshot(&snap), true)
        .expect("rewrite snapshot");

    let err = cluster
        .restart_node(victim)
        .expect_err("tampered snapshot must refuse to boot");
    assert!(
        err.to_string().contains("digest"),
        "refusal must name the digest mismatch: {err}"
    );

    // Restoring the pristine bytes brings the node back — the refusal was
    // about the data, not collateral state.
    std::fs::write(&snapshot_path, pristine).expect("restore snapshot");
    cluster
        .restart_node(victim)
        .expect("restored files must boot");
    drive(&cluster, 100, 52);
    drain_or_dump(&cluster, "post-restore quiescence");
    assert_all_partitions_consistent(&cluster);
    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-at-boot edge: a node that crashed before ever taking traffic
/// restarts from an empty data dir without complaint, and a second crash
/// immediately after restart (double fault) still recovers.
#[test]
fn empty_and_double_crash_recovery() {
    let dir = scratch_dir("double");
    let cfg = durable_cfg(dir.clone(), 32);
    let mut cluster = launch(2, 4, &cfg);

    // Crash node 3 before any traffic: nothing durable yet.
    cluster.crash_node(3);
    cluster.restart_node(3).expect("restart from empty state");

    drive(&cluster, 200, 31);
    drain_or_dump(&cluster, "quiescence");

    // Double fault: crash, restart, crash again immediately, restart.
    cluster.crash_node(3);
    cluster.restart_node(3).expect("first restart");
    cluster.crash_node(3);
    cluster.restart_node(3).expect("second restart");

    drive(&cluster, 100, 32);
    drain_or_dump(&cluster, "quiescence");
    assert_all_partitions_consistent(&cluster);
    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
