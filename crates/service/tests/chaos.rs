//! Deterministic chaos over the deployed TCP service: a seeded nemesis
//! proxy on every directed peer link (delays, one-slot reorders,
//! duplicates, silent drops, severs at and inside frame boundaries,
//! rotating split-brain partitions), composed with crash/restart and
//! checkpointed trace compaction, audited **online** by marker-style
//! consistent cuts and **post hoc** by the stitched checkpointed oracle.
//!
//! Every fault decision the nemesis makes is drawn from a pure function
//! of `(seed, link, frame index)`, and every test here asserts the
//! realized decision log is bit-identical to the pure replay of its
//! schedule — a failing run is therefore reproducible from nothing but
//! its seed, and graduates into `regressions.rs` as a pinned seed.

mod common;

use common::{
    assert_all_partitions_consistent, assert_decision_log_replays, audit_until_closed,
    drain_or_dump, drive, launch_ring_via_nemesis, quick_cfg, scratch_dir, spawn_redial_drivers,
    wait_progress,
};
use prcc_chaos::{ChaosConfig, FaultProfile};
use prcc_service::wire::TAG_CUT_MARKER;
use prcc_service::ServiceConfig;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The suites' baseline chaos config: cut markers are protected (they
/// must keep their channel position for cuts to stay consistent, and
/// they do not consume schedule indices), partitions off unless a test
/// turns them on.
fn chaos_cfg(seed: u64, profile: FaultProfile) -> ChaosConfig {
    ChaosConfig {
        seed,
        profile,
        partition_every: 0,
        partition_len: 0,
        protect_tags: vec![TAG_CUT_MARKER],
    }
}

/// The tentpole composition: a 10k-op seeded workload over a durable
/// 4-node x 4-partition ring with every peer link faulted (drops,
/// reorders, duplicates, delays, severs, mid-frame cuts, rotating
/// split-brain windows), one node crash/restarted mid-drive, compaction
/// sealing history throughout — while online consistent-cut audits pass
/// mid-traffic and the post-hoc checkpointed oracle verifies the whole
/// run clean, with zero window evictions.
#[test]
fn composed_chaos_run_verifies_clean_with_online_cut_audits() {
    let ops = 10_000usize;
    let dir = scratch_dir("chaos-composed");
    let cfg = ServiceConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: 1024,
        trace_compact_at: 256,
        ack_every: 2,
        connect_timeout: Duration::from_secs(60),
        ..quick_cfg()
    };
    let mut chaos = chaos_cfg(0xC0FF_EE11, FaultProfile::light());
    chaos.partition_every = 800;
    chaos.partition_len = 80;
    let (mut cluster, nemesis) = launch_ring_via_nemesis(4, 4, &cfg, chaos.clone());

    let progress = Arc::new(AtomicUsize::new(0));
    let drivers = spawn_redial_drivers(&cluster, ops, 0xBEEF, &progress);

    // First online audit lands mid-traffic, well before the crash.
    wait_progress(&progress, ops / 3);
    let audits_pre = audit_until_closed(&cluster, 0xA001, 30);

    // Crash a node mid-stream (not node 0 — audits inject there) and
    // restart it from its WAL + snapshot while the nemesis keeps faulting
    // every link.
    cluster.crash_node(2);
    thread::sleep(Duration::from_millis(150));
    cluster.restart_node(2).expect("restart node 2");

    wait_progress(&progress, 2 * ops / 3);
    let audits_post = audit_until_closed(&cluster, 0xA101, 40);

    for driver in drivers {
        driver.join().expect("driver");
    }

    // Heal before draining: frames swallowed by drops and partition
    // windows are only resent at the next reconnect, which heal forces
    // exactly once per live link.
    nemesis.heal();
    drain_or_dump(&cluster, "composed chaos run");
    assert_all_partitions_consistent(&cluster, "composed chaos run");

    // Nothing was given up on: the same delivery gates as the CI smoke.
    let evicted = cluster
        .metrics()
        .expect("metrics")
        .gauge("core_window_evicted")
        .expect("core_window_evicted gauge");
    assert_eq!(evicted, 0, "updates evicted from resend windows");

    // The run actually composed every fault class...
    let counts = nemesis.schedule().fault_counts();
    assert!(
        counts.dropped > 0 && counts.duplicated > 0 && counts.reordered > 0,
        "fault mix too thin: {counts:?}"
    );
    assert!(
        counts.cut + counts.cut_mid > 0,
        "no severs drawn: {counts:?}"
    );
    assert!(
        counts.partition_dropped > 0,
        "no split-brain window hit a frame: {counts:?}"
    );
    // ...and its decision log replays bit-for-bit from the seed.
    assert_decision_log_replays(&nemesis, cluster.len());
    eprintln!(
        "composed chaos: {} faulted decisions, first closed cut after {audits_pre} audit(s) \
         pre-crash and {audits_post} post-restart; {counts:?}",
        counts.faulted()
    );

    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: three peers under a sever-happy schedule *plus* deliberate
/// crash/restart flaps of two different nodes. Every flap triggers a
/// redial storm on all links at once; the seeded jitter on the dial
/// backoff decorrelates them, and the cluster still converges to a
/// verified state once healed.
#[test]
fn three_peer_flap_storm_converges() {
    let ops = 3_000usize;
    let dir = scratch_dir("chaos-flap");
    let cfg = ServiceConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: 1024,
        connect_timeout: Duration::from_secs(60),
        ..quick_cfg()
    };
    let profile = FaultProfile {
        cut_pm: 25,
        cut_mid_pm: 15,
        ..FaultProfile::light()
    };
    let (mut cluster, nemesis) = launch_ring_via_nemesis(2, 3, &cfg, chaos_cfg(0xF1A9, profile));

    let progress = Arc::new(AtomicUsize::new(0));
    let drivers = spawn_redial_drivers(&cluster, ops, 0x570B, &progress);
    for (i, victim) in [1usize, 2, 1, 2].into_iter().enumerate() {
        wait_progress(&progress, (i + 1) * ops / 6);
        cluster.crash_node(victim);
        thread::sleep(Duration::from_millis(100));
        cluster.restart_node(victim).expect("restart flapped node");
    }
    for driver in drivers {
        driver.join().expect("driver");
    }

    nemesis.heal();
    drain_or_dump(&cluster, "flap storm");
    assert_all_partitions_consistent(&cluster, "flap storm");
    let counts = nemesis.schedule().fault_counts();
    assert!(
        counts.cut + counts.cut_mid > 0,
        "the storm never severed a link: {counts:?}"
    );
    assert_decision_log_replays(&nemesis, cluster.len());
    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two back-to-back live runs under the same seed: wall-clock timing
/// differs, so the realized logs may have different *lengths* — but each
/// must be an exact prefix of the one pure schedule the seed defines,
/// decision for decision. This is the property that lets a failing run
/// be replayed from its seed alone.
#[test]
fn fixed_seed_decision_log_is_a_pure_function_of_the_seed() {
    for round in 0..2 {
        let cfg = ServiceConfig {
            connect_timeout: Duration::from_secs(60),
            ..quick_cfg()
        };
        let (cluster, nemesis) =
            launch_ring_via_nemesis(2, 3, &cfg, chaos_cfg(0x5EED, FaultProfile::light()));
        drive(&cluster, 600, 1);
        nemesis.heal();
        drain_or_dump(&cluster, "seeded determinism run");
        assert_all_partitions_consistent(&cluster, "seeded determinism run");
        assert_decision_log_replays(&nemesis, cluster.len());
        let counts = nemesis.schedule().fault_counts();
        assert!(
            counts.delivered > 0,
            "round {round}: no frames crossed the nemesis"
        );
        cluster.shutdown().expect("shutdown");
    }
}

/// An online audit against a quiet, fault-free cluster closes on the
/// first token — the baseline the chaotic audits are measured against —
/// and repeated audits with distinct tokens all close independently.
#[test]
fn cut_audits_close_on_a_healthy_cluster() {
    let cfg = quick_cfg();
    let (cluster, nemesis) =
        launch_ring_via_nemesis(2, 3, &cfg, chaos_cfg(0x0FF, FaultProfile::off()));
    drive(&cluster, 300, 3);
    for token in [1u64, 2, 900] {
        let verdict = cluster
            .cut_audit(token, Duration::from_secs(10))
            .expect("cut audit io");
        assert!(verdict.is_closed(), "token {token}: {verdict:?}");
    }
    nemesis.heal();
    drain_or_dump(&cluster, "healthy audit run");
    assert_all_partitions_consistent(&cluster, "healthy audit run");
    cluster.shutdown().expect("shutdown");
}
