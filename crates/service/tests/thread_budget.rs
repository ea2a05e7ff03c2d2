//! The reactor rewrite's headline property: the process thread count stays
//! flat as client connections pile up.
//!
//! These tests read the *process-wide* `Threads:` line of
//! `/proc/self/status`, so only one of them may run in a process: any
//! sibling spawning dialer threads or nodes would show up in the
//! measurement. A plain `cargo test` runs the 128-connection case in this
//! process and the one-thread-per-node case in a child process of its
//! own, one after the other (`serial`); `-- --ignored` runs the
//! 2000-connection case alone (never pass `--include-ignored`).

mod common;

use common::{drain_and_verify, keyed_scripts, launch_ring, quick_cfg};
use std::process::Command;
use std::sync::OnceLock;

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

/// Serializes this file's in-process measurements with its other tests:
/// a sibling test thread coming or going would show up in the count.
fn serial() -> parking_lot::MutexGuard<'static, ()> {
    static SERIAL: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
    SERIAL.get_or_init(|| parking_lot::Mutex::new(())).lock()
}

#[test]
fn idle_connections_do_not_grow_the_thread_count() {
    let _serial = serial();
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

/// A node is one event loop: launching an N-node cluster adds exactly N
/// threads to the process — no core thread beside the loop, no worker
/// pool. The count runs in a child process holding only this test, so no
/// sibling test's threads come or go while it measures.
#[test]
fn a_node_runs_on_one_thread() {
    const CHILD: &str = "PRCC_THREAD_BUDGET_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let _serial = serial();
        let exe = std::env::current_exe().expect("test binary");
        let out = Command::new(exe)
            .args([
                "--exact",
                "a_node_runs_on_one_thread",
                "--test-threads",
                "1",
            ])
            .env(CHILD, "1")
            .output()
            .expect("run the child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child run failed:\n{stdout}\n{stderr}"
        );
        return;
    }
    for nodes in [3, 4] {
        let baseline = process_threads();
        let cluster = launch_ring(2, nodes, &quick_cfg());
        assert_eq!(
            process_threads(),
            baseline + nodes,
            "a {nodes}-node cluster must add one thread per node"
        );
        cluster.shutdown().expect("shutdown");
        assert_eq!(process_threads(), baseline, "shutdown joins every node");
    }
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
