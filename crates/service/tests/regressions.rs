//! Seed-pinned chaos regressions.
//!
//! Every fault decision the nemesis draws is a pure function of
//! `(seed, link, frame index)`, so a failing chaos run is preserved here
//! as its `(seed, profile, scenario)` triple — rerunning the test replays
//! the exact adversarial schedule. Two kinds of pin live in this file:
//!
//! * **Digest pins** freeze the decision streams themselves. Any change
//!   to the stream RNG, the profile thresholds, the per-link seed
//!   derivation, or the partition rotation would silently invalidate
//!   every recorded seed in this file and every seed a developer has ever
//!   written down from a failing run — the digests make that a loud test
//!   failure instead.
//! * **Scenario pins** are full cluster runs under fixed seeds chosen to
//!   concentrate one fault class (a drop storm, a mid-frame cut shower).
//!   When a future chaos run fails, its seed and scenario get appended
//!   here in the same shape.

mod common;

use common::{
    assert_all_partitions_consistent, assert_decision_log_replays, drain_or_dump,
    launch_ring_via_nemesis, quick_cfg, scratch_dir, spawn_redial_drivers, wait_progress,
};
use prcc_chaos::{ChaosConfig, ChaosSchedule, FaultOp, FaultProfile, LinkDecision};
use prcc_net::chaos::mix64;
use prcc_service::ServiceConfig;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Order-sensitive fold of a decision stream into one u64.
fn digest(decisions: &[LinkDecision]) -> u64 {
    let mut d = 0u64;
    for dec in decisions {
        let code = match dec.op {
            FaultOp::Deliver => 1,
            FaultOp::Delay(ms) => 0x100 | ms,
            FaultOp::Reorder => 2,
            FaultOp::Duplicate => 3,
            FaultOp::Drop => 4,
            FaultOp::Cut => 5,
            FaultOp::CutMid(raw) => (1 << 32) | u64::from(raw),
        };
        d = mix64(d ^ code ^ (dec.index << 40) ^ (u64::from(dec.partition) << 39));
    }
    d
}

/// The frozen decision streams: seeds recorded from failing runs must
/// replay the identical fault sequence forever.
#[test]
fn pinned_decision_stream_digests_are_frozen() {
    let partitioned = ChaosConfig {
        seed: 0x51ED,
        profile: FaultProfile::heavy(),
        partition_every: 300,
        partition_len: 40,
    };
    // (config, nodes, link, decisions, pinned digest)
    type PinCase<'a> = (&'a ChaosConfig, usize, (usize, usize), u64, u64);
    let cases: [PinCase; 4] = [
        (
            &ChaosConfig::new(0xC0FF_EE11),
            4,
            (0, 1),
            512,
            0x6EF4_FE75_E79C_9B8A,
        ),
        (
            &ChaosConfig::new(0xC0FF_EE11),
            4,
            (1, 0),
            512,
            0x03BA_D5BC_F5A3_2770,
        ),
        (&partitioned, 4, (0, 3), 600, 0x4657_DE12_5E1E_C852),
        (&partitioned, 3, (2, 1), 600, 0xD424_DC3A_6A9A_38F3),
    ];
    for (cfg, n, (src, dst), count, pinned) in cases {
        let stream = ChaosSchedule::replay_link(cfg, n, src, dst, count);
        assert_eq!(
            digest(&stream),
            pinned,
            "seed {:#x} link {src}->{dst}: decision stream changed — every \
             recorded chaos seed just lost its meaning",
            cfg.seed
        );
    }
}

/// The rotating split-brain windows are part of the schedule: the node a
/// window isolates is derived from the seed, and must stay frozen with it.
#[test]
fn pinned_partition_rotation_is_frozen() {
    let cfg = ChaosConfig {
        seed: 0x51ED,
        profile: FaultProfile::off(),
        partition_every: 300,
        partition_len: 40,
    };
    let rotation: Vec<usize> = (0..8)
        .map(|w| ChaosSchedule::isolated_node(&cfg, 4, w))
        .collect();
    assert_eq!(rotation, vec![0, 0, 3, 3, 2, 0, 2, 1]);
}

/// Seed 0xD1CE: a drop-heavy schedule (every link losing ~12% of its
/// frames) composed with one crash/restart. Drops strand updates in the
/// sender windows until the heal-forced reconnect; the run must still
/// drain and verify with nothing evicted.
#[test]
fn seed_0xd1ce_drop_storm_with_crash_recovers_and_verifies() {
    let ops = 2_000usize;
    let dir = scratch_dir("regress-dropstorm");
    let cfg = ServiceConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: 1024,
        ack_every: 2,
        connect_timeout: Duration::from_secs(60),
        ..quick_cfg()
    };
    let chaos = ChaosConfig {
        seed: 0xD1CE,
        profile: FaultProfile {
            drop_pm: 120,
            ..FaultProfile::light()
        },
        partition_every: 0,
        partition_len: 0,
    };
    let (mut cluster, nemesis) = launch_ring_via_nemesis(2, 3, &cfg, chaos);

    let progress = Arc::new(AtomicUsize::new(0));
    let drivers = spawn_redial_drivers(&cluster, ops, 0xD1CE, &progress);
    wait_progress(&progress, ops / 2);
    cluster.crash_node(1);
    thread::sleep(Duration::from_millis(100));
    cluster.restart_node(1).expect("restart");
    for driver in drivers {
        driver.join().expect("driver");
    }

    nemesis.heal();
    drain_or_dump(&cluster, "drop storm");
    assert_all_partitions_consistent(&cluster, "drop storm");
    let counts = nemesis.schedule().fault_counts();
    assert!(counts.dropped > 0, "the storm never dropped: {counts:?}");
    for status in cluster.statuses().expect("statuses") {
        assert_eq!(status.window_evicted, 0, "node {} gave up", status.node);
    }
    assert_decision_log_replays(&nemesis, cluster.len());
    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed 0x7E57: a mid-frame cut shower — connections severed *inside*
/// encoded frames at schedule-chosen byte offsets, over and over. No
/// partial frame may ever decode (the reader must see a truncation
/// error), and the resend windows must redeliver everything the severed
/// connections swallowed.
#[test]
fn seed_0x7e57_mid_frame_cut_shower_never_corrupts() {
    let ops = 1_500usize;
    let cfg = ServiceConfig {
        connect_timeout: Duration::from_secs(60),
        ..quick_cfg()
    };
    let chaos = ChaosConfig {
        seed: 0x7E57,
        profile: FaultProfile {
            cut_mid_pm: 30,
            cut_pm: 10,
            ..FaultProfile::light()
        },
        partition_every: 0,
        partition_len: 0,
    };
    let (cluster, nemesis) = launch_ring_via_nemesis(2, 4, &cfg, chaos);

    let progress = Arc::new(AtomicUsize::new(0));
    let drivers = spawn_redial_drivers(&cluster, ops, 0x7E57, &progress);
    for driver in drivers {
        driver.join().expect("driver");
    }

    nemesis.heal();
    drain_or_dump(&cluster, "mid-frame cut shower");
    assert_all_partitions_consistent(&cluster, "mid-frame cut shower");
    let counts = nemesis.schedule().fault_counts();
    assert!(
        counts.cut_mid > 0,
        "the shower never cut mid-frame: {counts:?}"
    );
    assert_decision_log_replays(&nemesis, cluster.len());
    cluster.shutdown().expect("shutdown");
}
