//! The reactor rewrite's headline property: the process thread count stays
//! flat as client connections pile up.
//!
//! These tests read the *process-wide* `Threads:` line of
//! `/proc/self/status`, so only one of them may run in a process: any
//! sibling spawning dialer threads or nodes would show up in the
//! measurement. A plain `cargo test` runs the 128-connection case alone;
//! `-- --ignored` runs the 2000-connection case alone (never pass
//! `--include-ignored`).

mod common;

use common::{drain_and_verify, keyed_scripts, launch_ring, quick_cfg};

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

/// The same property at event-loop scale, with traffic: 2000 client
/// connections, one acknowledged write on each, served by the thread
/// count the cluster booted with. The cluster is in-process, so every
/// connection costs this process two descriptors (the dialer's and the
/// node's); anything much past `2 × 2000` is a leaked socket.
#[test]
#[ignore = "needs ulimit -n >= 8192"]
fn two_thousand_writing_connections_fit_the_boot_thread_count() {
    const CONNECTIONS: usize = 2000;
    const MAX_FDS: usize = 2 * CONNECTIONS + 500;
    let cluster = launch_ring(8, 4, &quick_cfg());
    let baseline = process_threads();

    let mut clients = Vec::with_capacity(CONNECTIONS);
    for (node, script) in keyed_scripts(&cluster, CONNECTIONS, 7)
        .into_iter()
        .enumerate()
    {
        for (partition, register, value) in script {
            let mut client = cluster.client(node).expect("connect");
            assert!(client
                .write_in(partition, register, value)
                .expect("write io"));
            clients.push(client);
        }
    }
    assert_eq!(clients.len(), CONNECTIONS);
    assert_eq!(
        process_threads(),
        baseline,
        "client connections must not spawn threads"
    );
    let fds = std::fs::read_dir("/proc/self/fd").expect("proc fd").count();
    assert!(
        (2 * CONNECTIONS..MAX_FDS).contains(&fds),
        "{fds} descriptors open for {CONNECTIONS} live connections"
    );

    drain_and_verify(&cluster, "2000 writing connections");
    drop(clients);
    cluster.shutdown().expect("shutdown");
}
