//! Bounded-memory end-to-end tests: checkpointed trace compaction over
//! real TCP clusters.
//!
//! These suites drive enough traffic that the nodes actually seal trace
//! prefixes mid-run (a low `trace_compact_at`), then hold the compacted
//! cluster to the same standards as an uncompacted one:
//!
//! * the stitched (checkpoint + live suffix) oracle verdict is consistent,
//!   and matches the verdict of the identical seeded workload run without
//!   compaction;
//! * snapshots stay O(live state): the steady part of a long run's final
//!   snapshot is no larger than 2x its first, its unacknowledged residue
//!   is a small fraction of the history, and the WAL keeps truncating;
//! * crash/restart reproduces the compacted state exactly — checkpoint
//!   summaries included — because seals travel through the same
//!   append-before-apply WAL path as every other state mutation.

mod common;

use common::{drain_and_verify, drive, launch_ring as launch, scratch_dir, DRAIN};
use prcc_clock::{EdgeProtocol, Protocol};
use prcc_graph::topologies;
use prcc_service::ServiceConfig;

/// Mid-run compaction seals most of the history, the live logs stay small,
/// and the stitched verdict matches a full-history run of the identical
/// seeded workload.
#[test]
fn compacted_cluster_verifies_like_a_full_history_one() {
    let ops = 3000usize;
    // Reference run: compaction off (large threshold, no data dir), full
    // logs replayed by the oracle.
    let full_cfg = ServiceConfig {
        batch_max: 16,
        trace_compact_at: usize::MAX,
        ..ServiceConfig::default()
    };
    let full = launch(4, 4, &full_cfg);
    drive(&full, ops, 91);
    drain_and_verify(&full, "full-history run");
    let full_statuses = full.statuses().expect("statuses");
    assert_eq!(
        full_statuses.iter().map(|s| s.sealed_events).sum::<u64>(),
        0,
        "reference run must not compact"
    );
    full.shutdown().expect("shutdown");

    // Compacting run: aggressive threshold, same seeded workload.
    let compact_cfg = ServiceConfig {
        batch_max: 16,
        trace_compact_at: 64,
        ack_every: 2,
        ..ServiceConfig::default()
    };
    let compacted = launch(4, 4, &compact_cfg);
    drive(&compacted, ops, 91);
    drain_and_verify(&compacted, "compacted run");
    let statuses = compacted.statuses().expect("statuses");
    let sealed: u64 = statuses.iter().map(|s| s.sealed_events).sum();
    let live: u64 = statuses.iter().map(|s| s.trace_events).sum();
    assert!(sealed > 0, "the compacting run never sealed anything");
    // Conservation: both runs recorded the same event total.
    let full_total: u64 = full_statuses
        .iter()
        .map(|s| s.trace_events + s.sealed_events)
        .sum();
    assert_eq!(sealed + live, full_total, "events lost or invented");
    // The point of the exercise: live state is a small fraction of the
    // history the full-history run had to retain.
    assert!(
        live * 4 < full_total,
        "compaction barely helped: {live} live of {full_total} total"
    );
    compacted.shutdown().expect("shutdown");
}

/// The compaction threshold is a per-node budget: on an 8-partition map
/// each node's live trace, summed over its partitions, stays within the
/// budget plus what unacknowledged issues hold back — not 8x it, as a
/// per-partition threshold would allow — and the compacted run's verdict
/// equals the full-history run's on the identical seeded workload.
#[test]
fn the_live_trace_budget_holds_per_node_across_eight_partitions() {
    const BUDGET: usize = 256;
    let ops = 4000usize;
    let verdicts = |cfg: &ServiceConfig| {
        let cluster = launch(8, 4, cfg);
        drive(&cluster, ops, 29);
        drain_and_verify(&cluster, "eight-partition run");
        let statuses = cluster.statuses().expect("statuses");
        let verdicts: Vec<_> = cluster
            .verify_partitions()
            .expect("traces")
            .into_iter()
            .map(|v| v.expect("replayable"))
            .collect();
        cluster.shutdown().expect("shutdown");
        (statuses, verdicts)
    };
    let (full, full_verdicts) = verdicts(&ServiceConfig {
        trace_compact_at: usize::MAX,
        ..ServiceConfig::default()
    });
    let (statuses, compact_verdicts) = verdicts(&ServiceConfig {
        trace_compact_at: BUDGET,
        ack_every: 1,
        ..ServiceConfig::default()
    });
    assert_eq!(
        compact_verdicts, full_verdicts,
        "compaction changed the verdict"
    );
    let peers = statuses.len() as u64 - 1;
    for status in &statuses {
        let hosted = status.per_partition.iter().filter(|p| p.issued > 0).count();
        assert!(
            hosted >= 4,
            "node {} hosts {hosted} partitions",
            status.node
        );
        assert!(
            status.sealed_events > 0,
            "node {} never sealed",
            status.node
        );
        // Every unacknowledged issue holds a copy in some peer's window.
        let unacked = peers * status.max_window;
        assert!(
            status.trace_events <= BUDGET as u64 + unacked,
            "node {}: {} live events over a {BUDGET}-event budget + {unacked} unacked",
            status.node,
            status.trace_events
        );
    }
    let total = |s: &[prcc_service::NodeStatus]| -> u64 {
        s.iter().map(|s| s.trace_events + s.sealed_events).sum()
    };
    assert_eq!(total(&statuses), total(&full), "events lost or invented");
}

/// Long-running durable cluster: snapshots stay flat while the WAL keeps
/// truncating, and the run still verifies.
///
/// A snapshot is a steady part (stores, clocks, checkpoint summaries,
/// counters) plus a residue that follows *ack timing*, not history: the
/// resend windows and the live trace tails behind their unacknowledged
/// issues. Mid-run snapshot sizes therefore wobble with load, so the
/// flatness bound is stated over the quiescent final snapshot with the
/// two parts taken apart: the steady part must stay within 2x of the
/// node's first snapshot, and the residue must stay a small fraction of
/// the history — O(ops) growth in either (the regression this guards
/// against) breaks its bound by an order of magnitude.
#[test]
fn snapshots_stay_flat_while_the_wal_truncates() {
    let dir = scratch_dir("flat");
    let cfg = ServiceConfig {
        batch_max: 16,
        data_dir: Some(dir.clone()),
        snapshot_every: 200,
        trace_compact_at: 128,
        ack_every: 2,
        ..ServiceConfig::default()
    };
    let ops = 4000usize;
    let cluster = launch(4, 4, &cfg);
    drive(&cluster, ops, 17);
    drain_and_verify(&cluster, "long durable run");
    let statuses = cluster.statuses().expect("statuses");
    let roles = cluster.map().graph().num_replicas();
    cluster.shutdown().expect("shutdown");

    let protocol = EdgeProtocol::new(topologies::ring(4));
    for status in statuses {
        assert!(
            status.snapshots_written >= 2,
            "node {} wrote only {} snapshots",
            status.node,
            status.snapshots_written
        );
        assert!(status.first_snapshot_bytes > 0);
        // The WAL keeps truncating: whatever is left is less than one full
        // snapshot interval of records (it was reset at the last snapshot).
        assert!(status.wal_appends > 0);
        assert!(
            status.sealed_events > 0,
            "node {} never sealed",
            status.node
        );

        // The graceful shutdown left a snapshot taken at quiescence.
        let path = dir
            .join(format!("node-{}", status.node))
            .join("snapshot.bin");
        let (version, payload) = prcc_storage::read_snapshot(&path)
            .expect("readable snapshot")
            .expect("final snapshot present");
        let mut snap = prcc_storage::decode_snapshot(version, &payload, roles, |k| {
            (k.index() < roles).then(|| protocol.new_clock(k))
        })
        .expect("decodable snapshot");
        let mut residue = 0usize;
        for part in snap.partitions.iter_mut().flatten() {
            assert!(part.state.pending.is_empty(), "quiescent: nothing parked");
            residue += std::mem::take(&mut part.log).len();
        }
        for peer in &mut snap.peers {
            residue += std::mem::take(&mut peer.window).len();
        }
        // Only the last in-flight frames per link can still be unacked at
        // quiescence; the history holds thousands of events per node.
        assert!(
            residue * 8 <= ops,
            "node {}: {residue} unacknowledged window/trace entries survive a \
             {ops}-op run — the residue follows history, not ack lag",
            status.node
        );
        let steady = prcc_storage::encode_snapshot(&snap).len() as u64;
        assert!(
            steady <= 2 * status.first_snapshot_bytes,
            "node {}: the steady snapshot grew from at most {} to {steady} bytes — \
             no longer O(live state)",
            status.node,
            status.first_snapshot_bytes
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash/restart with mid-run compaction: the recovered checkpoint + live
/// suffix matches the pre-crash state exactly (seals are WAL'd through
/// append-before-apply), and the cluster keeps verifying afterwards.
#[test]
fn compacted_state_survives_crash_restart() {
    let dir = scratch_dir("crash");
    let cfg = ServiceConfig {
        batch_max: 16,
        data_dir: Some(dir.clone()),
        snapshot_every: 300,
        trace_compact_at: 96,
        ack_every: 2,
        ..ServiceConfig::default()
    };
    let mut cluster = launch(4, 4, &cfg);
    let victim = 2usize;

    drive(&cluster, 1500, 43);
    assert!(cluster.drain(DRAIN).expect("drain io"), "no quiescence");

    let before = cluster
        .client(victim)
        .expect("client")
        .trace()
        .expect("trace");
    let sealed_before: u64 = before.iter().map(|(c, _)| c.events).sum();
    assert!(
        sealed_before > 0,
        "the victim never compacted — test is vacuous"
    );

    cluster.crash_node(victim);
    cluster.restart_node(victim).expect("restart");

    let after = cluster
        .client(victim)
        .expect("client")
        .trace()
        .expect("trace");
    assert_eq!(
        after, before,
        "recovered checkpoint + live suffix differs from the pre-crash state"
    );

    // The cluster keeps working and the stitched history still verifies.
    drive(&cluster, 500, 44);
    drain_and_verify(&cluster, "post-restart");
    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit (fsync) enabled end to end: the run completes, verifies,
/// and reports the WAL/snapshot activity — the behavioral half of the
/// power-loss story (the loss window itself needs a power cut to observe).
#[test]
fn fsync_group_commit_runs_clean() {
    let dir = scratch_dir("fsync");
    let cfg = ServiceConfig {
        batch_max: 16,
        data_dir: Some(dir.clone()),
        snapshot_every: 256,
        fsync_every: 8,
        ..ServiceConfig::default()
    };
    let cluster = launch(2, 3, &cfg);
    drive(&cluster, 600, 5);
    drain_and_verify(&cluster, "fsync run");
    for status in cluster.statuses().expect("statuses") {
        assert!(status.wal_appends > 0);
    }
    // Write accounting through the metrics path: records moved, so write
    // syscalls were counted, and group commit can only coalesce.
    for (node, snap) in cluster
        .metrics_per_node()
        .expect("metrics")
        .iter()
        .enumerate()
    {
        let appends = snap.gauge("wal_appends").expect("wal_appends gauge");
        let writes = snap.gauge("wal_writes").expect("wal_writes gauge");
        assert!(
            0 < writes && writes <= appends,
            "node {node}: {writes} WAL writes for {appends} appends"
        );
    }
    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
