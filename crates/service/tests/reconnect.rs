//! Peer-link resilience over real sockets.
//!
//! Each test stands up ONE real node and plays its peer by hand: a plain
//! `TcpListener` accepts the sender's connection, answers the handshake
//! with a chosen hello-ack (the acknowledged resume offset), reads update
//! frames, then drops the socket to kill the link. The node must redial,
//! re-handshake, and resend its unacked window from whatever offset the
//! fake peer acknowledges. The connection rules themselves — hello
//! checks, backoff, encoder reset, resume, the lost-frame close — run
//! without a socket in `conn::tests`; what stays here needs the kernel:
//! a real redial, a frame cut mid-stream, and a forged frame closing a
//! live link.

use prcc_checker::UpdateId;
use prcc_clock::{EdgeProtocol, Protocol};
use prcc_core::Update;
use prcc_graph::{topologies, PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_net::VirtualTime;
use prcc_service::node::{spawn_node, NodeSeed, ServiceConfig};
use prcc_service::wire::{
    decode_hello_ack, decode_multi_batch, decode_peer_hello, encode_hello_ack_into,
    encode_multi_batch_into, encode_peer_hello, read_frame, write_frame, FlushDecoder, PeerHello,
};
use prcc_service::ServiceClient;
use std::collections::BTreeSet;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The acceptor side of the handshake: reads the hello and answers with
/// the acknowledged resume offset `acked`.
fn accept_handshake(conn: &mut TcpStream, acked: u64) -> PeerHello {
    let hello = read_frame(conn).expect("hello io").expect("hello frame");
    let mut ack = Vec::new();
    encode_hello_ack_into(acked, &mut ack);
    write_frame(conn, &ack).expect("hello-ack");
    decode_peer_hello(&hello).expect("well-formed hello")
}

/// `(seq, value)` pairs of every update in one flush frame, decoded by
/// its connection's `decoder` (one per connection, fed every frame).
fn frame_updates(
    decoder: &mut FlushDecoder,
    payload: &[u8],
    protocol: &EdgeProtocol,
) -> Vec<(u64, u64)> {
    decoder
        .decode(payload, |i| Some(protocol.new_clock(i)))
        .expect("well-formed flush frame")
        .into_iter()
        .flat_map(|(_, updates)| updates.into_iter().map(|(seq, u)| (seq, u.value)))
        .collect()
}

struct OneNodeRig {
    node: prcc_service::NodeHandle,
    client: ServiceClient,
    fake_peer: TcpListener,
    protocol: Arc<EdgeProtocol>,
    map: PartitionMap,
}

/// Spawns node 0 of a 2-node line; the test holds node 1's peer listener.
fn rig() -> OneNodeRig {
    let cfg = ServiceConfig {
        batch_max: 8,
        connect_timeout: Duration::from_secs(10),
        ..ServiceConfig::default()
    };
    let graph = topologies::line(2);
    let map = PartitionMap::single(graph.clone());
    let protocol = Arc::new(EdgeProtocol::new(graph));
    let peer0 = TcpListener::bind("127.0.0.1:0").expect("bind peer0");
    let client0 = TcpListener::bind("127.0.0.1:0").expect("bind client0");
    let fake_peer = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let peer_addrs = vec![
        peer0.local_addr().expect("addr"),
        fake_peer.local_addr().expect("addr"),
    ];
    let node = spawn_node(
        Arc::clone(&protocol),
        map.clone(),
        NodeSeed {
            node: 0,
            peer_listener: peer0,
            client_listener: client0,
            peer_addrs,
        },
        cfg,
    )
    .expect("spawn node 0");
    let client = ServiceClient::connect(node.client_addr).expect("client");
    OneNodeRig {
        node,
        client,
        fake_peer,
        protocol,
        map,
    }
}

/// A sender whose connection dies must reconnect, re-handshake, and resume
/// *after* the peer's acknowledged offset: updates the peer acknowledged
/// in its hello-ack are not retransmitted, everything later is.
#[test]
fn sender_reconnects_and_resumes_after_acked_offset() {
    let mut rig = rig();
    let updates = |conn: &mut TcpStream| {
        let frame = read_frame(conn).expect("frame io").expect("update frame");
        frame_updates(&mut FlushDecoder::default(), &frame, &rig.protocol)
    };

    // Take the handshake (acking nothing yet) and one update frame, then
    // kill the link.
    let (mut conn, _) = rig.fake_peer.accept().expect("first accept");
    let hello = accept_handshake(&mut conn, 0);
    assert_eq!((hello.node, &hello.map), (0, &rig.map));
    assert!(rig.client.write(RegisterId(0), 1).expect("write 1"));
    assert_eq!(
        updates(&mut conn),
        [(1, 1)],
        "the first update is link seq 1"
    );
    drop(conn);

    // The listener survives, so the sender redials (its ack reader sees
    // the dead socket even without new traffic). This hello-ack
    // acknowledges seq 1: the next write arrives once — in the resume
    // window or after it — and seq 1 never again.
    let (mut conn, _) = rig.fake_peer.accept().expect("reconnect accept");
    let hello = accept_handshake(&mut conn, 1);
    assert_eq!(
        (hello.node, &hello.map),
        (0, &rig.map),
        "a redial re-handshakes"
    );
    assert!(rig.client.write(RegisterId(0), 2).expect("write 2"));
    assert_eq!(
        updates(&mut conn),
        [(2, 2)],
        "resumed after the acked offset"
    );

    rig.client.shutdown().expect("shutdown");
    rig.node.join();
}

/// The nemesis's mid-frame cut in miniature, receiver side: a live
/// MultiBatch frame truncated at EVERY byte offset is a decode error —
/// the reader never applies a partial frame — and after the cut the
/// redialing link resends its whole window from the acked offset, so the
/// severed frame's updates are not lost.
#[test]
fn mid_frame_cut_never_decodes_partially_and_the_window_resends() {
    let mut rig = rig();

    let (mut conn, _) = rig.fake_peer.accept().expect("first accept");
    accept_handshake(&mut conn, 0);
    for value in 1..=4u64 {
        assert!(rig.client.write(RegisterId(0), value).expect("write"));
    }
    let payload = read_frame(&mut conn)
        .expect("frame io")
        .expect("update frame");
    for cut in 0..payload.len() {
        assert!(
            decode_multi_batch(&payload[..cut], |i| Some(rig.protocol.new_clock(i))).is_err(),
            "a {cut}-byte prefix of a {}-byte frame decoded",
            payload.len()
        );
    }
    // Sever the connection (mid-stream from the sender's view: later
    // frames may be half-flushed into the dead socket); acknowledge
    // nothing on the redial.
    drop(conn);

    let (mut conn, _) = rig.fake_peer.accept().expect("reconnect accept");
    accept_handshake(&mut conn, 0);
    let mut decoder = FlushDecoder::default();
    let mut seen = BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.len() < 4 {
        assert!(
            Instant::now() < deadline,
            "window not resent after the mid-frame cut: got {seen:?}"
        );
        let payload = read_frame(&mut conn)
            .expect("frame io")
            .expect("resent frame");
        for (_, value) in frame_updates(&mut decoder, &payload, &rig.protocol) {
            seen.insert(value);
        }
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![1, 2, 3, 4],
        "every update from the severed connection must be redelivered"
    );

    rig.client.shutdown().expect("shutdown");
    rig.node.join();
}

/// A peer may only ship its own role's issues, on registers that role
/// shares with the receiver's. Node 0 of a 3-ring (role 0) takes a
/// well-formed update from its peer node 1 (role 1), then a frame on the
/// same link claiming role 2's write to the register 2 and 0 share — one
/// `J` would judge against the wrong FIFO edge. The frame is refused: the
/// connection closes and the node's counters do not move.
#[test]
fn a_flush_claiming_another_replicas_issue_is_refused() {
    let graph = topologies::ring(3);
    let map = PartitionMap::single(graph.clone());
    let protocol = Arc::new(EdgeProtocol::new(graph));
    let peer0 = TcpListener::bind("127.0.0.1:0").expect("bind peer0");
    let client0 = TcpListener::bind("127.0.0.1:0").expect("bind client0");
    let fakes = [
        TcpListener::bind("127.0.0.1:0").expect("bind fake peer 1"),
        TcpListener::bind("127.0.0.1:0").expect("bind fake peer 2"),
    ];
    let mut peer_addrs = vec![peer0.local_addr().expect("addr")];
    peer_addrs.extend(fakes.iter().map(|l| l.local_addr().expect("addr")));
    let mut node = spawn_node(
        Arc::clone(&protocol),
        map.clone(),
        NodeSeed {
            node: 0,
            peer_listener: peer0,
            client_listener: client0,
            peer_addrs,
        },
        ServiceConfig::default(),
    )
    .expect("spawn node 0");
    let mut client = ServiceClient::connect(node.client_addr).expect("client");

    let mut conn = TcpStream::connect(node.peer_addr).expect("dial the peer listener");
    write_frame(&mut conn, &encode_peer_hello(&PeerHello { node: 1, map })).expect("hello");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let ack = read_frame(&mut conn).expect("frame io").expect("hello-ack");
    assert_eq!(decode_hello_ack(&ack).expect("hello-ack"), 0);
    let flush = |seq: u64, issuer: usize, register: u32| {
        let (issuer, register) = (ReplicaId(issuer), RegisterId(register));
        let mut clock = protocol.new_clock(issuer);
        protocol.advance(issuer, &mut clock, register);
        let update = Update {
            id: UpdateId(seq),
            issuer,
            register,
            value: 7,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        let mut payload = Vec::new();
        encode_multi_batch_into(
            &vec![(PartitionId(0), vec![(seq, update)])],
            0,
            &mut payload,
        );
        payload
    };

    // Role 1's own write to register 0 (shared by replicas 0 and 1).
    write_frame(&mut conn, &flush(1, 1, 0)).expect("honest flush");
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.status().expect("status").messages_received < 1 {
        assert!(Instant::now() < deadline, "the honest update never arrived");
        thread::sleep(Duration::from_millis(5));
    }
    // Role 2's write to register 2, shipped by node 1.
    write_frame(&mut conn, &flush(2, 2, 2)).expect("hostile flush");
    match read_frame(&mut conn) {
        Ok(None) => {}
        Err(e) => assert!(
            !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "the link stayed open: {e}"
        ),
        Ok(Some(frame)) => panic!("the node answered the forged frame: {frame:?}"),
    }
    let status = client.status().expect("status");
    assert_eq!(status.messages_received, 1, "the forged update was counted");
    assert_eq!(status.pending, 0);

    client.shutdown().expect("shutdown");
    node.join();
}
