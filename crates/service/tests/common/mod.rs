//! Helpers shared by the service integration suites (loopback,
//! partitioned, recovery, reconnect, compaction, chaos): cluster
//! configuration and launch, seeded keyed-workload driving, drain /
//! verify assertions, and the fake-peer handshake used by the link-level
//! tests.
//!
//! Integration tests compile one binary per file, so not every suite uses
//! every helper — hence the file-wide `dead_code` allowance.
#![allow(dead_code)]

use prcc_chaos::{ChaosConfig, ChaosNemesis, ChaosSchedule};
use prcc_clock::EdgeProtocol;
use prcc_graph::{topologies, PartitionId, PartitionMap, RegisterId};
use prcc_service::wire::{
    append_frame, decode_peer_hello, decode_response, encode_hello_ack_into, encode_request_into,
    read_frame, write_frame, ClientRequest, ClientResponse, PeerHello,
};
use prcc_service::{LoopbackCluster, ServiceClient, ServiceConfig};
use prcc_workloads::ops::{generate_keyed_ops, route_keyed_ops, RoutedOp};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a suite waits for cluster quiescence before declaring a stall.
pub const DRAIN: Duration = Duration::from_secs(30);

/// The suites' standard low-latency batching configuration.
pub fn quick_cfg() -> ServiceConfig {
    ServiceConfig {
        batch_max: 16,
        ..ServiceConfig::default()
    }
}

/// [`quick_cfg`] plus the durability layer: a data dir and a snapshot
/// cadence (crash/restart suites need both).
pub fn durable_cfg(data_dir: PathBuf, snapshot_every: u64) -> ServiceConfig {
    ServiceConfig {
        data_dir: Some(data_dir),
        snapshot_every,
        ..quick_cfg()
    }
}

/// A fresh scratch dir under the system temp dir, unique per test `tag`
/// and process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prcc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// Launches `partitions` rotated instances of a `nodes`-replica ring over
/// `nodes` loopback nodes — the suites' standard sharded deployment.
pub fn launch_ring(partitions: u32, nodes: usize, cfg: &ServiceConfig) -> LoopbackCluster {
    let graph = topologies::ring(nodes);
    let map = PartitionMap::rotated(graph.clone(), partitions, nodes).expect("valid map");
    let protocol = Arc::new(EdgeProtocol::new(graph));
    LoopbackCluster::launch_partitioned(protocol, map, cfg, 0).expect("launch")
}

/// Drives `ops` seeded keyed writes through per-node clients in parallel.
pub fn drive(cluster: &LoopbackCluster, ops: usize, seed: u64) {
    drive_over(cluster, ops, seed, 1);
}

/// `ops` seeded keyed writes, routed into one script per node.
pub fn keyed_scripts(cluster: &LoopbackCluster, ops: usize, seed: u64) -> Vec<Vec<RoutedOp>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let keyed = generate_keyed_ops(cluster.map(), ops, None, &mut rng);
    route_keyed_ops(cluster.map(), &keyed)
}

/// [`drive`] with each node's script striped round-robin across `conns`
/// live connections to that node (`conns × nodes` sockets cluster-wide).
pub fn drive_over(cluster: &LoopbackCluster, ops: usize, seed: u64, conns: usize) {
    let mut drivers = Vec::new();
    for (node, script) in keyed_scripts(cluster, ops, seed).into_iter().enumerate() {
        let mut clients: Vec<ServiceClient> = (0..conns)
            .map(|_| cluster.client(node).expect("client"))
            .collect();
        drivers.push(thread::spawn(move || {
            for (i, (partition, register, value)) in script.into_iter().enumerate() {
                assert!(clients[i % conns]
                    .write_in(partition, register, value)
                    .expect("write io"));
            }
        }));
    }
    for driver in drivers {
        driver.join().expect("driver");
    }
}

/// Writes `ops` to the node at `addr` as one burst — every request frame
/// in a single `write_all`, the replies read afterwards — so the node sees
/// the requests together and its peer links get to ship them as the batch
/// of one reactor tick. What the batching tests lean on now that there is
/// no flush timer to stretch.
pub fn burst_writes(addr: SocketAddr, ops: &[(PartitionId, RegisterId, u64)]) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut burst = Vec::new();
    for &(partition, register, value) in ops {
        let write = ClientRequest::Write {
            partition,
            register,
            value,
            pad: 0,
        };
        append_frame(&mut burst, |out| encode_request_into(&write, out)).expect("frame");
    }
    conn.write_all(&burst).expect("burst");
    for _ in ops {
        let reply = read_frame(&mut conn).expect("reply io").expect("reply");
        assert_eq!(
            decode_response(&reply).expect("reply"),
            ClientResponse::WriteAck { ok: true }
        );
    }
}

/// Drains to quiescence, dumping every node's counters on a timeout so a
/// stall is diagnosable from the test log.
pub fn drain_or_dump(cluster: &LoopbackCluster, what: &str) {
    if cluster.drain(DRAIN).expect("drain io") {
        return;
    }
    eprintln!("=== drain timeout: {what} ===");
    for status in cluster.statuses().expect("statuses") {
        eprintln!("{status:?}");
    }
    panic!("no quiescence: {what}");
}

/// Asserts a consistent per-partition oracle verdict across the whole
/// cluster.
pub fn assert_all_partitions_consistent(cluster: &LoopbackCluster, what: &str) {
    let verdicts = cluster.verify_partitions().expect("traces");
    for (p, verdict) in verdicts.iter().enumerate() {
        let v = verdict.as_ref().expect("replayable");
        assert!(v.is_consistent(), "{what}: partition {p}: {v:?}");
    }
}

/// [`drain_or_dump`] followed by [`assert_all_partitions_consistent`].
pub fn drain_and_verify(cluster: &LoopbackCluster, what: &str) {
    drain_or_dump(cluster, what);
    assert_all_partitions_consistent(cluster, what);
}

/// [`launch_ring`] with every directed peer link routed through a seeded
/// [`ChaosNemesis`]: the nemesis is launched lazily inside the rewire
/// closure, once the real peer listeners are bound, and handed back
/// alongside the cluster for heal/inspection.
pub fn launch_ring_via_nemesis(
    partitions: u32,
    nodes: usize,
    cfg: &ServiceConfig,
    chaos: ChaosConfig,
) -> (LoopbackCluster, ChaosNemesis) {
    let graph = topologies::ring(nodes);
    let map = PartitionMap::rotated(graph.clone(), partitions, nodes).expect("valid map");
    let protocol = Arc::new(EdgeProtocol::new(graph));
    let cell: RefCell<Option<ChaosNemesis>> = RefCell::new(None);
    let cluster = LoopbackCluster::launch_partitioned_via(protocol, map, cfg, 0, |node, real| {
        cell.borrow_mut()
            .get_or_insert_with(|| {
                ChaosNemesis::launch(real.to_vec(), chaos.clone()).expect("launch nemesis")
            })
            .peer_addrs_for(node)
    })
    .expect("launch cluster");
    let nemesis = cell.into_inner().expect("rewire never ran");
    (cluster, nemesis)
}

/// Per-node driver threads for fault-injected runs: each op is retried
/// with a redial until it lands (a node mid crash/restart refuses
/// connections; a retried write whose ack died with the node issues a
/// fresh update — exactly what a real retrying client produces). Bumps
/// `progress` once per landed op so the test can interleave faults at
/// known points of the drive.
pub fn spawn_redial_drivers(
    cluster: &LoopbackCluster,
    ops: usize,
    seed: u64,
    progress: &Arc<AtomicUsize>,
) -> Vec<thread::JoinHandle<()>> {
    keyed_scripts(cluster, ops, seed)
        .into_iter()
        .enumerate()
        .map(|(node, script)| {
            let addr = cluster.addrs(node).1;
            let mut client = cluster.client(node).expect("client");
            let progress = Arc::clone(progress);
            thread::spawn(move || {
                for (partition, register, value) in script {
                    let deadline = Instant::now() + Duration::from_secs(60);
                    loop {
                        match client.write_in(partition, register, value) {
                            Ok(ok) => {
                                assert!(ok, "write refused by node {node}");
                                break;
                            }
                            Err(e) => {
                                assert!(
                                    Instant::now() < deadline,
                                    "node {node} unreachable for 60s: {e}"
                                );
                                thread::sleep(Duration::from_millis(20));
                                if let Ok(fresh) = ServiceClient::connect(addr) {
                                    client = fresh;
                                }
                            }
                        }
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect()
}

/// Blocks until at least `target` ops have landed cluster-wide.
pub fn wait_progress(progress: &AtomicUsize, target: usize) {
    let stall = Instant::now() + Duration::from_secs(120);
    while progress.load(Ordering::Relaxed) < target {
        assert!(
            Instant::now() < stall,
            "drivers stalled before reaching {target} ops"
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// Runs online consistent-cut audits with fresh tokens until one is
/// conclusively closed, panicking on a closure violation. Lost markers
/// (severed links, crashed nodes) yield `Incomplete` verdicts — those are
/// retried, never trusted. Returns how many audits it took.
pub fn audit_until_closed(cluster: &LoopbackCluster, token_base: u64, attempts: u64) -> u64 {
    for i in 0..attempts {
        let verdict = cluster
            .cut_audit(token_base + i, Duration::from_secs(10))
            .expect("cut audit io");
        if verdict.is_closed() {
            return i + 1;
        }
        assert!(
            verdict.is_incomplete(),
            "consistent-cut closure violated: {verdict:?}"
        );
    }
    panic!("no conclusive cut in {attempts} audits");
}

/// Asserts the nemesis's realized fault-decision log is bit-identical to
/// the pure replay of its schedule — the replayability contract every
/// seed-pinned regression depends on.
pub fn assert_decision_log_replays(nemesis: &ChaosNemesis, nodes: usize) {
    let cfg = nemesis.schedule().config().clone();
    for ((src, dst), realized) in nemesis.schedule().decision_log() {
        let replayed = ChaosSchedule::replay_link(&cfg, nodes, src, dst, realized.len() as u64);
        assert_eq!(
            realized, replayed,
            "link {src}->{dst}: realized decision log diverged from pure replay"
        );
    }
}

/// Reads and decodes a dialing sender's hello frame (fake-peer side).
pub fn read_hello(conn: &mut TcpStream) -> PeerHello {
    let frame = read_frame(conn).expect("hello io").expect("hello frame");
    decode_peer_hello(&frame).expect("well-formed hello")
}

/// Answers a hello with the given acknowledged resume offset.
pub fn write_hello_ack(conn: &mut TcpStream, acked: u64) {
    let mut payload = Vec::new();
    encode_hello_ack_into(acked, &mut payload);
    write_frame(conn, &payload).expect("write hello ack");
}

/// Completes the acceptor side of the versioned handshake: read the
/// hello, answer with the given acknowledged resume offset.
pub fn accept_handshake(conn: &mut TcpStream, acked: u64) -> PeerHello {
    let hello = read_hello(conn);
    write_hello_ack(conn, acked);
    hello
}
