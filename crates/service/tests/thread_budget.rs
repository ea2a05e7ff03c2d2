//! The reactor rewrite's headline property: the process thread count stays
//! flat as client connections pile up.
//!
//! This test reads the *process-wide* `Threads:` line of
//! `/proc/self/status`, so it is the only test in its binary: any sibling
//! spawning dialer threads or nodes in the same process would show up in
//! the measurement.

mod common;

use common::{launch_ring, quick_cfg};

/// Current thread count of this test process (the loopback cluster's
/// nodes live in-process, so reactor threads show up here).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn idle_connections_do_not_grow_the_thread_count() {
    let cluster = launch_ring(2, 3, &quick_cfg());
    let baseline = process_threads();

    // 128 live, idle connections across the cluster: under the old
    // thread-per-connection model this grew the process by 128 handler
    // threads; the reactor must absorb them into its fixed pool.
    let mut clients = Vec::new();
    for i in 0..128 {
        let mut client = cluster.client(i % cluster.len()).expect("connect");
        assert!(client.status().expect("status").node as usize == i % cluster.len());
        clients.push(client);
    }
    assert_eq!(
        process_threads(),
        baseline,
        "client connections must not spawn threads"
    );

    drop(clients);
    cluster.shutdown().expect("shutdown");
}
