//! Peer-link resilience under the v4 acknowledged-link protocol.
//!
//! Each test stands up ONE real node and plays its peer by hand: a plain
//! `TcpListener` accepts the sender's connection, answers the handshake
//! with a chosen hello-ack (the acknowledged resume offset), reads update
//! frames, then drops the socket to kill the link. The node must redial
//! (with backoff), re-handshake, and resend its unacked window from
//! whatever offset the fake peer acknowledges:
//!
//! * acked offset > 0 → already-acknowledged updates are *not* resent;
//! * acked offset 0 → everything comes again, including updates that were
//!   delivered on (or buffered into) the dying connection — closing the
//!   PR 3 gap where frames written into a dead socket were silently lost.

mod common;

use common::{accept_handshake, read_hello, write_hello_ack};
use prcc_checker::UpdateId;
use prcc_clock::{EdgeProtocol, Protocol};
use prcc_core::Update;
use prcc_graph::{topologies, PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_net::VirtualTime;
use prcc_service::node::{spawn_node, NodeSeed, ServiceConfig};
use prcc_service::wire::{
    decode_cut_marker, decode_hello_ack, decode_multi_batch, encode_multi_batch_into,
    encode_peer_hello, read_frame, write_frame, FlushDecoder, FlushEncoder, FlushSections,
    PeerHello,
};
use prcc_service::ServiceClient;
use std::collections::BTreeSet;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
    rig_with(ServiceConfig {
        batch_max: 8,
        connect_timeout: Duration::from_secs(10),
        ..ServiceConfig::default()
    })
}

fn rig_with(cfg: ServiceConfig) -> OneNodeRig {
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

    // Phase 1: take the handshake (acking nothing yet) and one update
    // frame, remember its link seq, then kill the link.
    let (mut conn, _) = rig.fake_peer.accept().expect("first accept");
    let hello = accept_handshake(&mut conn, 0);
    assert_eq!(hello.node, 0);
    assert_eq!(hello.map, rig.map);
    assert!(rig.client.write(RegisterId(0), 1).expect("write 1"));
    let payload = read_frame(&mut conn)
        .expect("frame io")
        .expect("update frame");
    let first = frame_updates(&mut FlushDecoder::default(), &payload, &rig.protocol);
    assert_eq!(first, vec![(1, 1)], "first update must carry link seq 1");
    drop(conn);

    // Phase 2: the listener survives, so the sender must redial (its
    // ack-reader sees the dead socket even without new traffic). This
    // time acknowledge seq 1 in the handshake: the resend must start
    // after it. Collect everything on a side thread while the main
    // thread keeps writing.
    let (observed_tx, observed_rx) = mpsc::channel();
    let reader_protocol = Arc::clone(&rig.protocol);
    let fake_peer = rig.fake_peer;
    thread::spawn(move || {
        let (mut conn, _) = fake_peer.accept().expect("reconnect accept");
        let hello = read_hello(&mut conn);
        write_hello_ack(&mut conn, 1);
        let payload = read_frame(&mut conn)
            .expect("frame io")
            .expect("post-reconnect update frame");
        let updates = frame_updates(&mut FlushDecoder::default(), &payload, &reader_protocol);
        let _ = observed_tx.send((hello, updates));
        // Keep draining so later flushes don't error the sender again.
        while let Ok(Some(_)) = read_frame(&mut conn) {}
    });

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut next_value = 2u64;
    let observed = loop {
        assert!(
            Instant::now() < deadline,
            "sender never reconnected after link loss"
        );
        assert!(rig.client.write(RegisterId(0), next_value).expect("write"));
        next_value += 1;
        match observed_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(observed) => break observed,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("observer died"),
        }
    };
    let (hello, updates) = observed;
    assert_eq!(hello.node, 0, "reconnect must re-handshake");
    assert_eq!(
        hello.map, rig.map,
        "re-handshake must carry the partition map"
    );
    assert!(!updates.is_empty(), "no updates flowed after the reconnect");
    // Seq 1 was acknowledged in the hello-ack, so it must NOT come again;
    // everything else (unacked) does.
    assert!(
        updates.iter().all(|&(seq, value)| seq > 1 && value > 1),
        "acknowledged update was retransmitted: {updates:?}"
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

/// The PR 3 gap, closed: updates whose frames were buffered into a dying
/// socket (delivered or not — the sender cannot tell) are retransmitted
/// from the durable window after the reconnect. With nothing ever
/// acknowledged, the fake peer must eventually see EVERY update on the
/// second connection alone.
#[test]
fn no_update_loss_when_link_dies_mid_flush() {
    let mut rig = rig();

    // Phase 1: handshake, then a burst of writes; read only the FIRST
    // frame and kill the socket while later frames are (potentially) still
    // being flushed into it — those are exactly the frames the old
    // retry-one-frame logic lost.
    let (mut conn, _) = rig.fake_peer.accept().expect("first accept");
    accept_handshake(&mut conn, 0);
    for value in 1..=5u64 {
        assert!(rig.client.write(RegisterId(0), value).expect("write"));
    }
    let payload = read_frame(&mut conn)
        .expect("frame io")
        .expect("first update frame");
    let delivered = frame_updates(&mut FlushDecoder::default(), &payload, &rig.protocol);
    assert!(!delivered.is_empty());
    drop(conn);

    // More writes while the link is down: they join the unacked window.
    for value in 6..=8u64 {
        assert!(rig.client.write(RegisterId(0), value).expect("write"));
    }

    // Phase 2: accept the redial, acknowledge NOTHING — the resend must
    // cover the entire window, first-connection deliveries included.
    let (mut conn, _) = rig.fake_peer.accept().expect("reconnect accept");
    accept_handshake(&mut conn, 0);
    let mut decoder = FlushDecoder::default();
    let mut seen_values = BTreeSet::new();
    let mut seen_seqs = BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen_values.len() < 8 {
        assert!(
            Instant::now() < deadline,
            "updates lost across the mid-flush link death: got {seen_values:?}"
        );
        let payload = read_frame(&mut conn)
            .expect("frame io")
            .expect("update frame");
        for (seq, value) in frame_updates(&mut decoder, &payload, &rig.protocol) {
            seen_seqs.insert(seq);
            seen_values.insert(value);
        }
    }
    assert_eq!(
        seen_values.into_iter().collect::<Vec<_>>(),
        (1..=8).collect::<Vec<_>>(),
        "every written value must arrive on the post-loss connection"
    );
    assert_eq!(
        seen_seqs.into_iter().collect::<Vec<_>>(),
        (1..=8).collect::<Vec<_>>(),
        "link seqs must be contiguous from the acknowledged offset"
    );

    rig.client.shutdown().expect("shutdown");
    rig.node.join();
}

/// A link parks nothing across a handshake. A cut started while the link
/// is mid-handshake, between two writes, records its stamps and drops its
/// marker (a hint, not a delimiter); the resume window carries both
/// updates exactly once, with contiguous sequences, and the next write
/// follows them.
#[test]
fn a_cut_started_mid_handshake_parks_nothing_and_loses_nothing() {
    let mut rig = rig();
    let (mut conn, _) = rig.fake_peer.accept().expect("first accept");
    accept_handshake(&mut conn, 0);
    drop(conn);

    // Hold the redial mid-handshake: hello read, hello-ack withheld.
    let (mut conn, _) = rig.fake_peer.accept().expect("reconnect accept");
    read_hello(&mut conn);
    assert!(rig.client.write(RegisterId(0), 1).expect("write before"));
    let cut = rig
        .client
        .cut_start(77)
        .expect("start cut")
        .expect("recorded");
    assert_eq!(cut.sent, [0, 1], "the cut stamps the write before it");
    assert!(rig.client.write(RegisterId(0), 2).expect("write after"));
    write_hello_ack(&mut conn, 0);

    let mut decoder = FlushDecoder::default();
    let mut arrivals = Vec::new();
    let mut read_until = |arrivals: &mut Vec<(u64, u64)>, count: usize| {
        while arrivals.len() < count {
            let payload = read_frame(&mut conn).expect("frame io").expect("frame");
            assert!(
                decode_cut_marker(&payload).is_err(),
                "a marker dropped mid-handshake came back"
            );
            arrivals.extend(frame_updates(&mut decoder, &payload, &rig.protocol));
        }
    };
    read_until(&mut arrivals, 2);
    assert!(rig.client.write(RegisterId(0), 3).expect("write later"));
    read_until(&mut arrivals, 3);
    assert_eq!(
        arrivals,
        [(1, 1), (2, 2), (3, 3)],
        "(seq, value) in wire order: each once, contiguous"
    );

    rig.client.shutdown().expect("shutdown");
    rig.node.join();
}

/// A hello naming this node's own index is refused: the node never dials
/// itself, and updates on such a link would come back under its own id
/// bits. The connection closes without a hello-ack; a real peer's hello
/// on the same listener is still answered.
#[test]
fn a_hello_claiming_this_nodes_own_index_is_refused() {
    let mut rig = rig();
    let hello = |node| {
        let mut conn = TcpStream::connect(rig.node.peer_addr).expect("dial the peer listener");
        let map = rig.map.clone();
        write_frame(&mut conn, &encode_peer_hello(&PeerHello { node, map })).expect("hello");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        read_frame(&mut conn)
    };
    assert!(
        matches!(hello(0), Ok(None) | Err(_)),
        "closed, and no hello-ack first"
    );
    let ack = hello(1).expect("frame io").expect("the hello-ack");
    assert_eq!(decode_hello_ack(&ack).expect("hello-ack"), 0);

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

/// A flush frame lost in transit closes its connection, and the redial
/// heals the link — no `heal()`, no other fault needed. A fake node 1
/// ships its own issues to node 0 through one connection's encoder as
/// frames 1 to 4, withholding frame 2: node 0 holds frame 3 for its
/// predecessor, refuses frame 4 and closes. The redial's hello-ack names
/// the acknowledged line, 1, and frames 2–4 re-encoded from an empty base
/// deliver the rest.
#[test]
fn a_lost_flush_frame_closes_its_connection_and_the_redial_heals_it() {
    let mut rig = rig();
    let issuer = ReplicaId(1);
    let mut clock = rig.protocol.new_clock(issuer);
    let issues: Vec<FlushSections<_>> = (1..=4u64)
        .map(|seq| {
            rig.protocol.advance(issuer, &mut clock, RegisterId(0));
            let update = Update {
                id: UpdateId(seq),
                issuer,
                register: RegisterId(0),
                value: seq,
                clock: clock.clone(),
                issued_at: VirtualTime::ZERO,
                received_at: VirtualTime::ZERO,
            };
            vec![(PartitionId(0), vec![(seq, update)])]
        })
        .collect();
    let dial = |rig: &OneNodeRig| {
        let mut conn = TcpStream::connect(rig.node.peer_addr).expect("dial the peer listener");
        let map = rig.map.clone();
        write_frame(&mut conn, &encode_peer_hello(&PeerHello { node: 1, map })).expect("hello");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let ack = read_frame(&mut conn).expect("frame io").expect("hello-ack");
        (conn, decode_hello_ack(&ack).expect("hello-ack"))
    };
    let frames = |issues: &[FlushSections<_>]| {
        let mut encoder = FlushEncoder::default();
        let frames: Vec<Vec<u8>> = issues
            .iter()
            .map(|sections| {
                let mut frame = Vec::new();
                encoder.encode_into(sections, 0, &mut frame);
                frame
            })
            .collect();
        frames
    };

    let (mut conn, acked) = dial(&rig);
    assert_eq!(acked, 0);
    let first = frames(&issues);
    for k in [0, 2, 3] {
        write_frame(&mut conn, &first[k]).expect("flush");
    }
    match read_frame(&mut conn) {
        Ok(None) => {}
        Err(e) => assert!(
            !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "the connection stayed open past the gap: {e}"
        ),
        Ok(Some(frame)) => panic!("the node answered past the gap: {frame:?}"),
    }

    let (mut conn, acked) = dial(&rig);
    assert_eq!(acked, 1, "the redial resumes after the acknowledged line");
    for frame in frames(&issues[1..]) {
        write_frame(&mut conn, &frame).expect("resent flush");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = rig.client.status().expect("status");
        if (status.messages_received, status.applies) == (4, 4) {
            break;
        }
        assert!(Instant::now() < deadline, "never healed: {status:?}");
        thread::sleep(Duration::from_millis(5));
    }

    rig.client.shutdown().expect("shutdown");
    rig.node.join();
}
