//! Event-loop I/O suite: the reactor rewrite's service-level contract.
//!
//! Two properties the unit suites cannot see from inside one crate: an
//! accept storm of simultaneous dials all get served, and a slow reader
//! overflows its *own* bounded outbound queue — torn down loudly, counted,
//! and without collateral damage to fresh clients or cluster consistency.
//! (The third — a flat thread count as connections pile up — measures the
//! whole process and so lives alone in `thread_budget.rs`.)

mod common;

use common::{drain_and_verify, drive, launch_ring, quick_cfg};
use prcc_service::ServiceConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

#[test]
fn accept_storm_serves_every_dial() {
    let cluster = launch_ring(2, 3, &quick_cfg());
    let (_, client_addr) = cluster.addrs(0);

    // 256 dials released at once against one node's listener: every
    // connection must be accepted and get a real answer (the listener
    // drains its accept backlog in a loop, not one-per-event).
    let storm = 256;
    let gate = Arc::new(Barrier::new(storm));
    let mut dialers = Vec::new();
    for _ in 0..storm {
        let gate = Arc::clone(&gate);
        dialers.push(thread::spawn(move || {
            gate.wait();
            let mut client = prcc_service::ServiceClient::connect(client_addr)?;
            client.status().map(|s| s.node)
        }));
    }
    for dialer in dialers {
        let node = dialer.join().expect("dialer panicked").expect("served");
        assert_eq!(node, 0);
    }

    drive(&cluster, 400, 0xacce97);
    drain_and_verify(&cluster, "post-storm workload");
    cluster.shutdown().expect("shutdown");
}

#[test]
fn slow_reader_overflows_loudly_without_collateral() {
    // A queue bound small enough that a client who never reads its
    // responses overflows quickly, but roomy enough for the (tiny,
    // ack-paced) peer-link frames of an idle cluster.
    let cfg = ServiceConfig {
        outbound_queue_bytes: 8 << 10,
        ..quick_cfg()
    };
    let cluster = launch_ring(1, 3, &cfg);
    let (_, client_addr) = cluster.addrs(0);

    // Hand-rolled pipelining: fire Config requests and never read. The
    // client driver answers each inline into its bounded per-connection
    // queue; once the kernel buffers clog, the queue trips the bound and
    // the reactor must drop *this* connection.
    let mut glutton = TcpStream::connect(client_addr).expect("connect");
    glutton
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut framed = Vec::new();
    prcc_service::wire::append_frame(&mut framed, |out| {
        prcc_service::wire::encode_request_into(&prcc_service::wire::ClientRequest::Config, out)
    })
    .expect("frame config request");
    for _ in 0..200_000 {
        if glutton.write_all(&framed).is_err() {
            break; // already torn down mid-burst
        }
    }

    // Drain whatever was in flight; the stream must end (EOF or reset),
    // not keep producing forever.
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    let died = loop {
        match glutton.read(&mut sink) {
            Ok(0) => break true,
            Ok(n) => {
                drained += n;
                // 200k configs would be several MB; a bounded queue can
                // not have delivered anywhere near that.
                assert!(drained < 32 << 20, "queue bound did not engage");
            }
            Err(_) => break true,
        }
    };
    assert!(died, "slow reader's connection must be torn down");

    // Loud: the teardown is counted.
    let overflows: u64 = cluster
        .metrics_per_node()
        .expect("metrics")
        .iter()
        .flat_map(|m| m.counters.iter())
        .filter(|(name, _)| name == "reactor_overflows")
        .map(|(_, v)| *v)
        .sum();
    assert!(
        overflows >= 1,
        "overflow teardown must increment the counter"
    );

    // Contained: fresh clients and the rest of the cluster are unharmed.
    let mut fresh = cluster.client(0).expect("fresh connect");
    assert_eq!(fresh.status().expect("fresh status").node, 0);
    drive(&cluster, 200, 0x51089);
    drain_and_verify(&cluster, "post-overflow workload");
    cluster.shutdown().expect("shutdown");
}
