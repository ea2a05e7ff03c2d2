//! The length-prefixed wire protocol (version 14: partition-aware,
//! acknowledged, bounded-memory aware, observable, audited, trimmed,
//! class-compressed clocks, one counter surface, delta flush frames,
//! stamped cuts).
//!
//! Every message is a *frame*: a little-endian `u32` payload length followed
//! by the payload; the first payload byte is a message tag. Peer frames
//! carry batched [`Update`](prcc_core::Update)s (varint-encoded via the
//! lower layers' [`prcc_clock::wire::WireClock`] /
//! [`Update::encode_wire`](prcc_core::Update::encode_wire) codecs); client
//! frames carry the read/write/ops API. This file holds the framing, the
//! version, the tags and the topology codecs; `peer.rs` what nodes say to
//! each other, `client.rs` the request/response API and [`NodeStatus`],
//! the typed read of a `Metrics` scrape.
//!
//! Only the current version is spoken or decoded: the versioned handshake
//! refuses every other peer outright, so a mixed-version cluster fails
//! loudly at connection time rather than half-working. What each version
//! added, and still shapes the format:
//!
//! * **v2** sharded the register space: every peer section and every client
//!   read/write is tagged with its [`prcc_graph::PartitionId`], and the
//!   peer handshake ([`PeerHello`]) opens with a protocol version followed
//!   by the full [`PartitionMap`]. A peer running a different map is
//!   refused — the mismatch would corrupt delivery predicates or routing.
//! * **v3** packs multi-partition flushes: a peer flush ships as one
//!   [`encode_multi_batch_into`] frame carrying `(partition, updates[])`
//!   sections in per-partition order.
//! * **v4** made peer links acknowledged, closing the loss window where
//!   frames buffered into a dying socket vanished silently: every update
//!   in a section carries its per-link sequence number (from 1 — sequence
//!   0 is refused at decode), the acceptor answers each [`PeerHello`] with
//!   an [`encode_hello_ack_into`] frame naming the highest link sequence
//!   it has durably received (the sender resumes — resends from its
//!   durable window — right after it), and the receiver streams
//!   [`encode_peer_ack_into`] frames back so the sender can prune.
//! * **v5** is the bounded-memory protocol: the `Trace` response ships a
//!   [`prcc_checker::TraceCheckpoint`] summary plus the live suffix per
//!   partition instead of the full history.
//! * **v6** made live clusters inspectable: each update in a flush carries
//!   its origin's *issue stamp* (micros since epoch, varint; 0 = not
//!   sampled for lifecycle tracing), and the client API grew a `Metrics`
//!   request/response pair shipping a [`prcc_telemetry::MetricsSnapshot`].
//!   Issue stamps ride the live wire only — WAL records and snapshots use
//!   the stamp-free `Update::encode_wire` codec, keeping durable bytes
//!   deterministic.
//! * **v7** added the online consistent-cut audit: a client `Cut` request
//!   injects (or polls) a marker token, nodes flood [`encode_cut_marker`]
//!   frames down their peer links (the Chandy–Lamport marker flood), and
//!   each node answers with its [`prcc_checker::CutSnapshot`]. Markers
//!   carry no link sequence and are not resent, so a lost marker makes the
//!   audit *inconclusive*, never wrong — by construction since v14, which
//!   stamps each snapshot with its links' sequences.
//! * **v9** trimmed the flush frame to what the link does not already
//!   know, so a frame per reactor tick costs no more bytes than the timed
//!   batches it replaced: an update's wire id ships as its low
//!   [`WIRE_SEQ_BITS`] bits only. A link carries nothing but its sender's
//!   own issues, so the receiver restores the node bits from the
//!   handshake's node index ([`restore_sender`]) and refuses an id that
//!   carries any. WAL receipts and snapshots keep the full id
//!   (`Update::encode_wire`), so data dirs are unchanged.
//! * **v10** ends a flush frame at its last section (v8/v9 frames could
//!   trail a varint that told the receiver nothing its link watermark did
//!   not already answer).
//! * **v11** ships a timestamp as one counter per class of provably-equal
//!   edge counters instead of one per edge ([`prcc_clock::EdgeClock`]
//!   docs): a 4-clique update carries 4 counters, not 12. The layout is
//!   derived from the share graph the handshake already matches, so no
//!   byte announces it; ring, line and tree layouts are the identity and
//!   their frames, WAL records and snapshots are byte-identical to v10's.
//! * **v12** deleted the `Status` request/response pair: a node's counters
//!   have one surface, the version-stamped `Metrics` scrape, which
//!   [`NodeStatus::from_metrics`] reads into the typed struct (tags 18 and
//!   34 are unassigned). Peer frames, WAL records and snapshots are
//!   byte-identical to v11's.
//! * **v13** ships what changed: a flush update carries its link sequence,
//!   trimmed id and clock as deltas from the previous update of the same
//!   partition on the same connection — the clock as a changed-counter
//!   bitmap plus the changes, with no count prefix — through a
//!   connection-scoped [`FlushEncoder`]/[`FlushDecoder`] pair whose state
//!   never outlives its connection (`peer.rs` docs). A connection's
//!   opening frame has its own tag (7 marks every later one), and a
//!   frame's first sequence ships whole, so a frame lost, repeated or
//!   reordered in transit is never decoded against the wrong base. WAL
//!   records and snapshots are byte-identical to v12's.
//! * **v14** stamps the cut: a `Cut` response's snapshot also carries, per
//!   node, the highest link sequence the reporting node had assigned
//!   toward it and the highest it had received from it when it recorded.
//!   The checker refuses a cut in which a node received past what its
//!   sender had sent at the sender's cut, so a marker lost, repeated,
//!   delayed or reordered costs a retry and no longer has to keep its
//!   channel position. Only the `Cut` response changed: peer frames, WAL
//!   records and snapshots are byte-identical to v13's.
//!
//! Causal timestamps ship counters only; index sets, counter layouts and
//! the partition layout are static configuration carried once in the
//! handshake.

use prcc_clock::encoding::{read_varint_at as get_varint, write_varint};
use prcc_graph::{PartitionMap, RegisterId, ShareGraph};
use std::io::{self, Read, Write};

mod client;
mod peer;

pub use client::*;
pub use peer::*;

/// The protocol version spoken by this build; peers at any other version
/// are refused at the handshake. The module docs say what each bump added.
pub const WIRE_VERSION: u64 = 14;

/// Bits of a wire id that hold the issuing node's node-global sequence;
/// the node's index sits above them (`node << WIRE_SEQ_BITS | seq`). The
/// one definition of the split: the core mints ids with it, the flush
/// codec trims and restores the node bits with it.
pub const WIRE_SEQ_BITS: u32 = 40;

/// Low [`WIRE_SEQ_BITS`] bits of a wire id: the part a flush frame ships.
pub const WIRE_SEQ_MASK: u64 = (1 << WIRE_SEQ_BITS) - 1;

/// Upper bound on accepted frame payloads (64 MiB) — a garbage or hostile
/// length prefix is refused with a descriptive error *before* any
/// allocation or pool lease happens. Lives in `prcc-reactor` now (the
/// reactor's incremental [`prcc_reactor::FrameDecoder`] enforces it);
/// re-exported here so every wire-level caller keeps its path.
pub use prcc_reactor::MAX_FRAME_BYTES;

// Message tags.
const TAG_PEER_HELLO: u8 = 1;
/// A connection's opening flush frame, encoded against empty bases (v13;
/// the absolute form).
const TAG_MULTI_BATCH: u8 = 3;
/// Every later flush frame of a connection, encoded against the bases its
/// predecessors left (v13).
const TAG_MULTI_BATCH_NEXT: u8 = 7;
const TAG_HELLO_ACK: u8 = 4;
const TAG_PEER_ACK: u8 = 5;
/// Peer-frame tag of a consistent-cut marker (v7).
pub(crate) const TAG_CUT_MARKER: u8 = 6;
const TAG_WRITE: u8 = 16;
const TAG_READ: u8 = 17;
const TAG_TRACE: u8 = 19;
const TAG_SHUTDOWN: u8 = 20;
const TAG_CONFIG: u8 = 21;
const TAG_METRICS: u8 = 22;
const TAG_CUT: u8 = 23;
const TAG_WRITE_ACK: u8 = 32;
const TAG_READ_RESP: u8 = 33;
const TAG_TRACE_RESP: u8 = 35;
const TAG_BYE: u8 = 36;
const TAG_CONFIG_RESP: u8 = 37;
const TAG_METRICS_RESP: u8 = 38;
const TAG_CUT_RESP: u8 = 39;

/// Writes one frame; returns the bytes put on the wire (payload + prefix).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<usize> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(payload.len() + 4)
}

/// Reads a frame's 4-byte length prefix. `Ok(None)` signals a clean EOF at
/// a frame boundary — zero bytes read. A connection dying *inside* the
/// prefix is a truncated frame and errors, so a half-written prefix is
/// never misreported as a graceful shutdown; a length above
/// [`MAX_FRAME_BYTES`] is refused here, before any buffer is sized.
fn read_frame_len<R: Read>(r: &mut R) -> io::Result<Option<usize>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed after {got} bytes of a frame length prefix"),
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"),
        ));
    }
    Ok(Some(len))
}

/// Reads one frame into a fresh allocation. `Ok(None)` is a clean EOF at a
/// frame boundary; a connection dying inside a frame is an error, and a
/// length above [`MAX_FRAME_BYTES`] is refused before any buffer is sized.
/// The simple owned-buffer entry point for handshakes, tools and tests;
/// clients reading many frames back to back use [`read_frame_into`], nodes
/// the reactor's incremental decoder.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let Some(len) = read_frame_len(r)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// lint: hot-path
/// Reads one frame into a caller-owned buffer (cleared and refilled),
/// returning the payload length — the reuse-a-scratch-`Vec` variant of
/// [`read_frame`] for connections that read many frames back to back.
pub fn read_frame_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    let Some(len) = read_frame_len(r)? else {
        return Ok(None);
    };
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf.as_mut_slice())?;
    Ok(Some(len))
}

/// Appends one frame to `out` in place: reserves the 4-byte length slot,
/// lets `body` encode the payload directly after it, then backpatches the
/// slot with the measured payload length. Returns the bytes appended
/// (payload + prefix, matching [`write_frame`]'s accounting); an
/// over-`u32` payload truncates `out` back to where it started and errors.
pub fn append_frame<F: FnOnce(&mut Vec<u8>)>(out: &mut Vec<u8>, body: F) -> io::Result<usize> {
    let slot = out.len();
    out.extend_from_slice(&[0u8; 4]);
    body(out);
    let payload_len = out.len() - slot - 4;
    let Ok(len) = u32::try_from(payload_len) else {
        out.truncate(slot);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    };
    out[slot..slot + 4].copy_from_slice(&len.to_le_bytes());
    Ok(payload_len + 4)
}
// lint: end-hot-path

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Serializes a share graph as per-replica register assignments.
pub fn encode_share_graph(g: &ShareGraph, out: &mut Vec<u8>) {
    let assignments = g.assignments();
    write_varint(out, assignments.len() as u64);
    for regs in &assignments {
        write_varint(out, regs.len() as u64);
        for r in regs {
            write_varint(out, u64::from(r.0));
        }
    }
}

/// Decodes a share graph encoded by [`encode_share_graph`].
pub fn decode_share_graph(buf: &[u8], at: &mut usize) -> io::Result<ShareGraph> {
    let replicas = get_varint(buf, at)? as usize;
    if replicas > 1 << 20 {
        return Err(bad_data("absurd replica count"));
    }
    let mut assignments = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        let count = get_varint(buf, at)? as usize;
        let mut regs = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let r = u32::try_from(get_varint(buf, at)?).map_err(|_| bad_data("register id"))?;
            regs.push(RegisterId(r));
        }
        assignments.push(regs);
    }
    ShareGraph::from_assignments(assignments).map_err(|e| bad_data(&format!("share graph: {e:?}")))
}

/// Serializes a partition map: the per-partition share graph, the node
/// count, and the hosting table.
pub fn encode_partition_map(map: &PartitionMap, out: &mut Vec<u8>) {
    encode_share_graph(map.graph(), out);
    write_varint(out, map.num_nodes() as u64);
    write_varint(out, u64::from(map.num_partitions()));
    for row in map.hosts() {
        for &node in row {
            write_varint(out, node as u64);
        }
    }
}

/// Decodes a partition map encoded by [`encode_partition_map`], revalidating
/// the hosting table.
pub fn decode_partition_map(buf: &[u8], at: &mut usize) -> io::Result<PartitionMap> {
    let graph = decode_share_graph(buf, at)?;
    let nodes = get_varint(buf, at)? as usize;
    let partitions = get_varint(buf, at)? as usize;
    if partitions > 1 << 20 {
        return Err(bad_data("absurd partition count"));
    }
    let roles = graph.num_replicas();
    let mut hosts = Vec::with_capacity(partitions);
    for _ in 0..partitions {
        let mut row = Vec::with_capacity(roles);
        for _ in 0..roles {
            row.push(get_varint(buf, at)? as usize);
        }
        hosts.push(row);
    }
    PartitionMap::from_parts(graph, nodes, hosts)
        .map_err(|e| bad_data(&format!("partition map: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_checker::trace::TraceEvent;
    use prcc_checker::{CutSnapshot, PartitionCut, TraceCheckpoint, UpdateId};
    use prcc_clock::{EdgeProtocol, Protocol, WireClock};
    use prcc_core::Update;
    use prcc_graph::{topologies, PartitionId, ReplicaId};
    use prcc_net::VirtualTime;

    /// Collects what an `_into` encoder appends.
    fn encoded(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        encode(&mut out);
        out
    }

    fn encode_request(req: &ClientRequest) -> Vec<u8> {
        encoded(|out| encode_request_into(req, out))
    }

    fn encode_response(resp: &ClientResponse) -> Vec<u8> {
        encoded(|out| encode_response_into(resp, out))
    }

    fn encode_multi_batch<C: WireClock>(sections: &FlushSections<C>, pad: usize) -> Vec<u8> {
        encoded(|out| encode_multi_batch_into(sections, pad, out))
    }

    #[test]
    fn frame_round_trip_and_eof() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(n, 9);
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_length_prefix_is_an_error_not_a_clean_eof() {
        // A peer dying 1-3 bytes into the length prefix must surface as an
        // error; only a close at a frame boundary (0 bytes) is clean.
        for cut in 1..4usize {
            let mut cursor = io::Cursor::new(7u32.to_le_bytes()[..cut].to_vec());
            let err = read_frame(&mut cursor).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            assert!(
                err.to_string().contains("length prefix"),
                "unexpected error at {cut}: {err}"
            );
        }
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        // A hostile/corrupt length prefix must be refused with a
        // descriptive error — by both reader variants, before any
        // allocation is attempted.
        let huge = (u32::MAX).to_le_bytes();
        let err = read_frame(&mut io::Cursor::new(huge)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("exceeds MAX_FRAME_BYTES"),
            "undescriptive error: {err}"
        );
        let mut scratch = Vec::new();
        assert!(read_frame_into(&mut io::Cursor::new(huge), &mut scratch).is_err());
        // The largest acceptable prefix is exactly MAX_FRAME_BYTES; one
        // past it is refused (the boundary, with a short body so the
        // accept case fails on EOF, not the bound).
        let over = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let err = read_frame(&mut io::Cursor::new(over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let at = (MAX_FRAME_BYTES as u32).to_le_bytes();
        let err = read_frame(&mut io::Cursor::new(at)).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::UnexpectedEof,
            "bound itself accepted"
        );
    }

    #[test]
    fn into_reads_match_the_allocating_reader() {
        // Property: for arbitrary frame sequences, read_frame_into returns
        // byte-identical payloads to read_frame, frame by frame, including
        // the clean-EOF boundary.
        let mut wire = Vec::new();
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for k in 0..40usize {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = (seed % 5000) as usize * (k % 3); // mix of empty and sized
            let body: Vec<u8> = (0..len).map(|i| (seed as usize + i) as u8).collect();
            write_frame(&mut wire, &body).unwrap();
            payloads.push(body);
        }
        let mut a = io::Cursor::new(wire.clone());
        let mut b = io::Cursor::new(wire);
        let mut scratch = Vec::new();
        for expect in &payloads {
            let plain = read_frame(&mut a).unwrap().unwrap();
            let n = read_frame_into(&mut b, &mut scratch).unwrap().unwrap();
            assert_eq!(&plain, expect);
            assert_eq!(&scratch[..n], &expect[..]);
        }
        assert!(read_frame(&mut a).unwrap().is_none());
        assert!(read_frame_into(&mut b, &mut scratch).unwrap().is_none());
    }

    #[test]
    fn append_frame_backpatches_the_length_slot() {
        // In-place framing must produce the same bytes as write_frame, and
        // stack correctly after existing content.
        let mut framed = b"prior".to_vec();
        let n = append_frame(&mut framed, |out| out.extend_from_slice(b"payload")).unwrap();
        assert_eq!(n, 11);
        let mut reference = b"prior".to_vec();
        write_frame(&mut reference, b"payload").unwrap();
        assert_eq!(framed, reference);
        // An empty payload frames as just the zero prefix.
        let mut empty = Vec::new();
        assert_eq!(append_frame(&mut empty, |_| {}).unwrap(), 4);
        assert_eq!(empty, vec![0, 0, 0, 0]);
    }

    #[test]
    fn share_graph_round_trip() {
        for g in [
            topologies::ring(5),
            topologies::figure5(),
            topologies::line(2),
        ] {
            let mut out = Vec::new();
            encode_share_graph(&g, &mut out);
            let mut at = 0;
            let back = decode_share_graph(&out, &mut at).unwrap();
            assert_eq!(at, out.len());
            assert_eq!(back, g);
        }
    }

    #[test]
    fn partition_map_round_trip() {
        for map in [
            PartitionMap::single(topologies::ring(4)),
            PartitionMap::rotated(topologies::ring(4), 8, 4).unwrap(),
            PartitionMap::rotated(topologies::line(3), 5, 7).unwrap(),
        ] {
            let mut out = Vec::new();
            encode_partition_map(&map, &mut out);
            let mut at = 0;
            let back = decode_partition_map(&out, &mut at).unwrap();
            assert_eq!(at, out.len());
            assert_eq!(back, map);
        }
    }

    #[test]
    fn hello_round_trip() {
        let hello = PeerHello {
            node: 3,
            map: PartitionMap::rotated(topologies::ring(4), 6, 4).unwrap(),
        };
        let back = decode_peer_hello(&encode_peer_hello(&hello)).unwrap();
        assert_eq!(back, hello);
    }

    #[test]
    fn wrong_version_hello_refused() {
        let hello = PeerHello {
            node: 0,
            map: PartitionMap::single(topologies::ring(4)),
        };
        let mut payload = encode_peer_hello(&hello);
        // The version varint sits right after the tag; WIRE_VERSION is a
        // single byte, so patch it to any older hello — including a v5
        // peer, which predates flush-section issue stamps and would
        // misparse every multi-batch frame.
        assert_eq!(payload[1], WIRE_VERSION as u8);
        for old in [1u8, 2, 3, 4, 5, 8, 9, 10, 11] {
            payload[1] = old;
            let err = decode_peer_hello(&payload).unwrap_err();
            assert!(
                err.to_string().contains("version mismatch"),
                "unexpected error for v{old}: {err}"
            );
        }
    }

    /// The node whose link the sample flushes travel on: every sample id
    /// carries its index in the node bits, as a real link's updates do.
    const SENDER: usize = 2;

    /// `count` successive issues of one ring-4 replica (`tag % 4`), as a
    /// link carries them: one issuer, ascending ids, a clock that only
    /// grows.
    fn sample_updates(
        p: &EdgeProtocol,
        count: u64,
        tag: u64,
    ) -> Vec<Update<prcc_clock::EdgeClock>> {
        let mut updates = Vec::new();
        let i = ReplicaId(tag as usize % 4);
        let mut clock = p.new_clock(i);
        for k in 0..count {
            p.advance(i, &mut clock, RegisterId(i.index() as u32));
            updates.push(Update {
                id: UpdateId(((SENDER as u64) << WIRE_SEQ_BITS) | (tag << 20) | k),
                issuer: i,
                register: RegisterId(i.index() as u32),
                value: 1000 * (tag + 1) + k,
                clock: clock.clone(),
                issued_at: VirtualTime::ZERO,
                received_at: VirtualTime::ZERO,
            });
        }
        updates
    }

    /// A non-empty checkpoint summary for trace-response round trips.
    fn sealed_checkpoint() -> TraceCheckpoint {
        let mut checkpoint = TraceCheckpoint::new(2, 3);
        checkpoint.absorb(
            &[
                TraceEvent::Issue {
                    replica: ReplicaId(0),
                    register: RegisterId(1),
                    update: 7,
                },
                TraceEvent::Apply {
                    replica: ReplicaId(0),
                    update: (1 << 40) | 3,
                },
            ],
            |w| Some(ReplicaId((w >> 40) as usize % 2)),
        );
        checkpoint
    }

    /// Tags updates with consecutive link sequence numbers from `base`,
    /// and stamps every other one with a v6 issue stamp (odd ones stay 0 =
    /// unsampled) so round-trips cover both sampled and unsampled updates.
    fn with_seqs<C>(base: u64, updates: Vec<Update<C>>) -> Vec<(u64, Update<C>)> {
        updates
            .into_iter()
            .enumerate()
            .map(|(k, mut u)| {
                if k % 2 == 0 {
                    u.issued_at = VirtualTime(1_700_000_000_000_000 + base + k as u64);
                }
                (base + k as u64, u)
            })
            .collect()
    }

    #[test]
    fn multi_batch_round_trip_preserves_sections_and_seqs() {
        let g = topologies::ring(4);
        let p = EdgeProtocol::new(g);
        // Deliberately unsorted partition order: the wire must preserve it.
        let sections = vec![
            (PartitionId(6), with_seqs(10, sample_updates(&p, 3, 0))),
            (PartitionId(1), with_seqs(2, sample_updates(&p, 1, 1))),
            (PartitionId(4), with_seqs(90, sample_updates(&p, 5, 2))),
        ];
        for pad in [0usize, 64] {
            let payload = encode_multi_batch(&sections, pad);
            let local = decode_multi_batch(&payload, |i| Some(p.new_clock(i))).unwrap();
            let mut back = local.clone();
            restore_sender(&mut back, SENDER);
            assert_eq!(back.len(), 3);
            for ((bp, bu), (sp, su)) in back.iter().zip(&sections) {
                assert_eq!(bp, sp);
                assert_eq!(bu.len(), su.len());
                for ((aseq, a), (bseq, b)) in bu.iter().zip(su) {
                    assert_eq!(aseq, bseq, "link seq must survive the wire");
                    assert_eq!(
                        (a.id, a.value),
                        (b.id, b.value),
                        "the link's sender restores the id's node bits"
                    );
                    assert_eq!(a.clock, b.clock);
                    assert_eq!(
                        a.issued_at, b.issued_at,
                        "v6 issue stamp must survive the wire"
                    );
                }
            }
            // The decoder itself hands back what was shipped: the ids
            // without their node bits.
            for (a, b) in local[0].1.iter().zip(&sections[0].1) {
                assert_eq!(a.1.id.0, b.1.id.0 & WIRE_SEQ_MASK);
            }
        }
    }

    /// Two successive flush frames of one ring-4 link. The first is the
    /// frame v10 and v12 pinned: two sections, sampled and unsampled
    /// stamps, multi-byte counters. The second continues the connection at
    /// the next link sequence with one update per partition, in swapped
    /// order.
    fn ring4_flushes() -> (EdgeProtocol, [FlushSections<prcc_clock::EdgeClock>; 2]) {
        let p = EdgeProtocol::new(topologies::ring(4));
        let (me, left) = (ReplicaId(1), ReplicaId(0));
        let mut theirs = p.new_clock(left);
        for _ in 0..300 {
            p.advance(left, &mut theirs, RegisterId(0));
        }
        let mut clock = p.new_clock(me);
        p.merge(me, &mut clock, left, &theirs);
        let mut issue = |seq: u64, r: u32, sampled: bool| {
            p.advance(me, &mut clock, RegisterId(r));
            let update = Update {
                id: UpdateId(((SENDER as u64) << WIRE_SEQ_BITS) | (1 << 33) | seq),
                issuer: me,
                register: RegisterId(r),
                value: 1000 + seq,
                clock: clock.clone(),
                issued_at: VirtualTime(if sampled { 1_700_000_000_123_456 } else { 0 }),
                received_at: VirtualTime::ZERO,
            };
            (seq, update)
        };
        let mut first = Vec::new();
        for (partition, registers) in [(3u32, [1u32, 0, 1]), (5, [0, 0, 1])] {
            let updates = registers
                .iter()
                .enumerate()
                .map(|(k, &r)| issue(40 + u64::from(partition) * 10 + k as u64, r, k == 0))
                .collect();
            first.push((PartitionId(partition), updates));
        }
        let second = vec![
            (PartitionId(5), vec![issue(93, 1, false)]),
            (PartitionId(3), vec![issue(94, 0, true)]),
        ];
        (p, [first, second])
    }

    /// The first of [`ring4_flushes`] as v13 encodes it, from an empty
    /// base: v12's 152 bytes become 93. Each clock is a changed-counter
    /// bitmap plus zigzag changes (300 ships as 600), with no count
    /// prefix; within a section, sequence and id ship as the distance
    /// from the previous update, and the zero counters of a section's
    /// first update stay off the wire.
    const RING4_FLUSH_V13: [u8; 93] = [
        3, 2, 3, 3, 70, 192, 196, 128, 193, 193, 196, 130, 3, 198, 128, 128, 128, 32, 1, 1, 174, 8,
        9, 216, 4, 2, 0, 1, 0, 1, 1, 0, 175, 8, 4, 2, 0, 1, 0, 1, 1, 1, 176, 8, 8, 2, 0, 5, 3, 90,
        192, 196, 128, 193, 193, 196, 130, 3, 218, 128, 128, 128, 32, 1, 0, 194, 8, 13, 216, 4, 4,
        4, 0, 1, 0, 1, 1, 0, 195, 8, 4, 2, 0, 1, 0, 1, 1, 1, 196, 8, 8, 2, 0,
    ];

    /// The second of [`ring4_flushes`], encoded on the same connection: a
    /// later frame (tag 7), its sequence, id and clock as deltas from each
    /// partition's previous update (the frame's first sequence ships
    /// whole).
    const RING4_FLUSH_V13_NEXT: [u8; 34] = [
        7, 2, 5, 1, 93, 0, 1, 1, 1, 197, 8, 8, 2, 0, 3, 1, 22, 192, 196, 128, 193, 193, 196, 130,
        3, 22, 1, 0, 198, 8, 12, 6, 4, 0,
    ];

    #[test]
    fn a_ring4_flush_frame_is_pinned_byte_for_byte() {
        let (p, flushes) = ring4_flushes();
        let (mut encoder, mut decoder) = (FlushEncoder::default(), FlushDecoder::default());
        let mut frames = Vec::new();
        for sections in &flushes {
            let mut payload = Vec::new();
            encoder.encode_into(sections, 0, &mut payload);
            let mut back = decoder.decode(&payload, |i| Some(p.new_clock(i))).unwrap();
            restore_sender(&mut back, SENDER);
            assert_eq!(
                &back, sections,
                "the connection's decoder restores every field"
            );
            frames.push(payload);
        }
        assert_eq!(frames[0], RING4_FLUSH_V13);
        assert_eq!(frames[1], RING4_FLUSH_V13_NEXT);
        // A connection's first frame is the one-shot encoding.
        assert_eq!(encode_multi_batch(&flushes[0], 0), RING4_FLUSH_V13);
    }

    #[test]
    fn a_flush_frame_ends_at_its_last_section() {
        // What a v9 sender could append — one more varint — is malformed.
        let p = EdgeProtocol::new(topologies::ring(4));
        let sections = vec![(PartitionId(1), with_seqs(7, sample_updates(&p, 2, 3)))];
        let mut payload = encode_multi_batch(&sections, 0);
        assert!(decode_multi_batch(&payload, |i| Some(p.new_clock(i))).is_ok());
        write_varint(&mut payload, 300);
        let err = decode_multi_batch(&payload, |i| Some(p.new_clock(i))).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn unsequenced_and_v2_update_frames_are_refused() {
        // Both shapes would hand the core an update that bypasses the link
        // watermark (sequence 0); a re-delivered copy of one pins the
        // replica's pending buffer forever, so the decoder drops the
        // connection instead.
        let g = topologies::ring(4);
        let p = EdgeProtocol::new(g);
        let updates = sample_updates(&p, 2, 0);
        let mut sections = vec![(PartitionId(1), with_seqs(1, updates.clone()))];
        let sound = encode_multi_batch(&sections, 0);
        assert!(decode_multi_batch(&sound, |i| Some(p.new_clock(i))).is_ok());
        sections[0].1[0].0 = 0;
        let unsequenced = encode_multi_batch(&sections, 0);
        let err = decode_multi_batch(&unsequenced, |i| Some(p.new_clock(i))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("link sequence 0"), "{err}");
        // The retired v2 single-partition batch (tag 2: partition, count,
        // bare updates) is no longer a peer frame at all.
        let mut v2 = vec![2u8];
        write_varint(&mut v2, 1); // partition
        write_varint(&mut v2, updates.len() as u64);
        for u in &updates {
            u.encode_wire(&mut v2);
            write_varint(&mut v2, 0); // pad
        }
        let err = decode_multi_batch(&v2, |i| Some(p.new_clock(i))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hello_ack_and_peer_ack_round_trip() {
        let hello_ack = |seq| encoded(|out| encode_hello_ack_into(seq, out));
        let peer_ack = |seq| encoded(|out| encode_peer_ack_into(seq, out));
        for seq in [0u64, 1, 63, 64, 300, u64::MAX / 3] {
            assert_eq!(decode_hello_ack(&hello_ack(seq)).unwrap(), seq);
            assert_eq!(decode_peer_ack(&peer_ack(seq)).unwrap(), seq);
        }
        // Tags are not interchangeable, and truncations error.
        assert!(decode_hello_ack(&peer_ack(5)).is_err());
        assert!(decode_peer_ack(&hello_ack(5)).is_err());
        let payload = hello_ack(1 << 40);
        for cut in 0..payload.len() {
            assert!(decode_hello_ack(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn multi_batch_rejects_empty_frames_and_sections() {
        let g = topologies::ring(4);
        let p = EdgeProtocol::new(g);
        // Empty input sections are skipped by the encoder...
        let sections = vec![
            (PartitionId(0), Vec::new()),
            (PartitionId(2), with_seqs(1, sample_updates(&p, 2, 0))),
            (PartitionId(3), Vec::new()),
        ];
        let payload = encode_multi_batch(&sections, 0);
        let back = decode_multi_batch(&payload, |i| Some(p.new_clock(i))).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, PartitionId(2));
        // ...an all-empty flush encodes to a zero-section frame, which the
        // decoder refuses...
        let empty = encode_multi_batch::<prcc_clock::EdgeClock>(&Vec::new(), 0);
        let err = decode_multi_batch(&empty, |i| Some(p.new_clock(i))).unwrap_err();
        assert!(err.to_string().contains("no sections"), "{err}");
        // ...and a hand-crafted zero-update section is refused too.
        let mut crafted = vec![TAG_MULTI_BATCH];
        write_varint(&mut crafted, 1); // one section
        write_varint(&mut crafted, 5); // partition 5
        write_varint(&mut crafted, 0); // zero updates
        let err = decode_multi_batch(&crafted, |i| Some(p.new_clock(i))).unwrap_err();
        assert!(
            err.to_string().contains("empty multi-batch section"),
            "{err}"
        );
    }

    #[test]
    fn request_and_response_round_trips() {
        let requests = [
            ClientRequest::Write {
                partition: PartitionId(3),
                register: RegisterId(7),
                value: 99,
                pad: 32,
            },
            ClientRequest::Read {
                partition: PartitionId(0),
                register: RegisterId(0),
            },
            ClientRequest::Trace,
            ClientRequest::Config,
            ClientRequest::Metrics,
            ClientRequest::Shutdown,
        ];
        for req in &requests {
            assert_eq!(&decode_request(&encode_request(req)).unwrap(), req);
        }
        let responses = [
            ClientResponse::WriteAck { ok: true },
            ClientResponse::ReadResp {
                ok: true,
                value: Some(17),
            },
            ClientResponse::ReadResp {
                ok: false,
                value: None,
            },
            ClientResponse::Trace(vec![
                (
                    sealed_checkpoint(),
                    vec![
                        TraceEvent::Issue {
                            replica: ReplicaId(1),
                            register: RegisterId(4),
                            update: 55,
                        },
                        TraceEvent::Apply {
                            replica: ReplicaId(1),
                            update: 54,
                        },
                    ],
                ),
                (TraceCheckpoint::new(2, 3), vec![]),
                (
                    TraceCheckpoint::new(2, 3),
                    vec![TraceEvent::Apply {
                        replica: ReplicaId(0),
                        update: 99,
                    }],
                ),
            ]),
            ClientResponse::Config {
                version: WIRE_VERSION,
                map: PartitionMap::rotated(topologies::ring(3), 4, 3).unwrap(),
            },
            ClientResponse::Metrics(sample_metrics()),
            ClientResponse::Cut(None),
            ClientResponse::Cut(Some(CutSnapshot {
                node: 2,
                token: 0xfeed_beef,
                partitions: vec![
                    PartitionCut {
                        partition: 0,
                        role: 1,
                        issued_high: (2 << 40) | 17,
                        applied: vec![9, (2 << 40) | 17, 0],
                        pending: 3,
                    },
                    PartitionCut {
                        partition: 5,
                        role: 0,
                        issued_high: 0,
                        applied: vec![0, (1 << 40) | 4],
                        pending: 0,
                    },
                ],
                sent: vec![4, 0, 300],
                received: vec![1 << 40, 0, 2],
            })),
            ClientResponse::Bye,
        ];
        for resp in &responses {
            assert_eq!(&decode_response(&encode_response(resp)).unwrap(), resp);
        }
    }

    #[test]
    fn cut_request_and_marker_round_trip() {
        for req in [
            ClientRequest::Cut {
                token: 7,
                start: true,
            },
            ClientRequest::Cut {
                token: u64::MAX,
                start: false,
            },
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        for token in [0u64, 1, 0xdead_beef, u64::MAX] {
            let frame = encode_cut_marker(token);
            assert_eq!(frame[0], TAG_CUT_MARKER);
            assert_eq!(decode_cut_marker(&frame).unwrap(), token);
        }
        assert!(decode_cut_marker(&[TAG_PEER_ACK, 0]).is_err());
        let mut trailing = encode_cut_marker(9);
        trailing.push(0);
        assert!(decode_cut_marker(&trailing).is_err());
    }

    #[test]
    fn cut_response_rejects_version_skew() {
        let payload = encode_response(&ClientResponse::Cut(None));
        assert_eq!(payload[1], WIRE_VERSION as u8);
        let mut old = payload.clone();
        old[1] = (WIRE_VERSION - 1) as u8;
        let err = decode_response(&old).unwrap_err();
        assert!(err.to_string().contains("version mismatch"), "{err}");
    }

    /// A metrics snapshot with every section populated and a histogram
    /// spanning exact and log-bucketed ranges.
    fn sample_metrics() -> prcc_telemetry::MetricsSnapshot {
        let registry = prcc_telemetry::Registry::new();
        registry.counter("net_bytes_out").add(123_456);
        registry.counter("net_flushes").add(9);
        registry.gauge("core_pending").set(3);
        let h = registry.histogram("visibility_us");
        for v in [2u64, 14, 900, 88_000, 1 << 34] {
            h.record(v);
        }
        registry.snapshot()
    }

    #[test]
    fn metrics_responses_are_version_stamped() {
        // A scrape from a node speaking another version must fail loudly:
        // metric names (the `NodeStatus` schema) and bucket layout are
        // per-version.
        let mut payload = encode_response(&ClientResponse::Metrics(sample_metrics()));
        assert_eq!(payload[1], WIRE_VERSION as u8);
        payload[1] = 5;
        let err = decode_response(&payload).unwrap_err();
        assert!(
            err.to_string()
                .contains("metrics response version mismatch"),
            "unexpected error: {err}"
        );
    }

    /// `from_metrics` reads every field from its own metric: a registry in
    /// which each name holds a distinct value — its position in field
    /// order — rebuilds exactly those values, so no two names can be
    /// swapped unnoticed. Counters and gauges sit where a node keeps them.
    #[test]
    fn node_status_reads_each_field_from_its_own_metric() {
        let names = "node core_issued core_sent core_received core_applies core_pending \
            core_duplicates_dropped net_bytes_out net_bytes_in net_batches_sent net_frames_sent \
            net_flushes net_resent wal_appends snapshots_written wal_bytes snapshot_bytes \
            first_snapshot_bytes trace_events_live trace_events_sealed core_max_window \
            core_window_evicted reactor_wakeups reactor_events reactor_rearms reactor_outq_hiwat \
            peer_links_up core_issued_p0 core_applies_p0 core_pending_p0 core_issued_p1 core_applies_p1 \
            core_pending_p1";
        let registry = prcc_telemetry::Registry::new();
        for (value, name) in (1..).zip(names.split_whitespace()) {
            let counter = name.starts_with("net_") || name.starts_with("reactor_");
            if counter && name != "reactor_outq_hiwat" {
                registry.counter(name).add(value);
            } else {
                registry.gauge(name).set(value);
            }
        }
        let snapshot = registry.snapshot();
        let expected = NodeStatus {
            node: 1,
            issued: 2,
            messages_sent: 3,
            messages_received: 4,
            applies: 5,
            pending: 6,
            duplicates_dropped: 7,
            bytes_out: 8,
            bytes_in: 9,
            batches_sent: 10,
            frames_sent: 11,
            flushes: 12,
            resent: 13,
            wal_appends: 14,
            snapshots_written: 15,
            wal_bytes: 16,
            snapshot_bytes: 17,
            first_snapshot_bytes: 18,
            trace_events: 19,
            sealed_events: 20,
            max_window: 21,
            window_evicted: 22,
            reactor_wakeups: 23,
            reactor_events: 24,
            reactor_rearms: 25,
            reactor_outq_hiwat: 26,
            peer_links_up: 27,
            per_partition: [28, 31]
                .map(|n| PartitionCounters {
                    issued: n,
                    applies: n + 1,
                    pending: n + 2,
                })
                .to_vec(),
        };
        assert_eq!(NodeStatus::from_metrics(&snapshot), expected);
        // The schema names nothing the registry above left out.
        for name in NodeStatus::metric_names() {
            let held = snapshot.counter(name).or_else(|| snapshot.gauge(name));
            assert!(held.is_some(), "{name} is not in the sample registry");
        }
        // An absent metric reads as 0: an empty scrape is an empty status.
        let empty = prcc_telemetry::MetricsSnapshot::default();
        assert_eq!(NodeStatus::from_metrics(&empty), NodeStatus::default());
    }

    /// A `Trace` response as the v11 encoder wrote it, before its event
    /// codec became the snapshot's: not one byte moved.
    const TRACE_V11: [u8; 63] = [
        35, 2, 2, 1, 1, 7, 2, 7, 131, 128, 128, 128, 128, 32, 3, 0, 7, 0, 129, 201, 140, 131, 245,
        255, 175, 235, 84, 2, 0, 1, 172, 2, 55, 1, 1, 182, 128, 128, 128, 128, 64, 0, 0, 0, 0, 2,
        0, 0, 3, 0, 0, 0, 165, 198, 136, 161, 200, 156, 167, 249, 203, 1, 0,
    ];

    #[test]
    fn a_trace_response_is_pinned_byte_for_byte() {
        let response = ClientResponse::Trace(vec![
            (
                sealed_checkpoint(),
                vec![
                    TraceEvent::Issue {
                        replica: ReplicaId(1),
                        register: RegisterId(300),
                        update: 55,
                    },
                    TraceEvent::Apply {
                        replica: ReplicaId(1),
                        update: (2 << 40) | 54,
                    },
                ],
            ),
            (TraceCheckpoint::new(2, 3), vec![]),
        ]);
        let payload = encode_response(&response);
        assert_eq!(payload, TRACE_V11);
        assert_eq!(decode_response(&payload).unwrap(), response);
    }

    #[test]
    fn truncated_responses_error_instead_of_panicking() {
        // Regression: READ_RESP used to slice past the end of short
        // payloads. Every truncation of every response must return Err.
        let responses = [
            ClientResponse::ReadResp {
                ok: true,
                value: Some(17),
            },
            ClientResponse::Trace(vec![(
                sealed_checkpoint(),
                vec![TraceEvent::Apply {
                    replica: ReplicaId(1),
                    update: 54,
                }],
            )]),
            ClientResponse::Config {
                version: WIRE_VERSION,
                map: PartitionMap::single(topologies::line(2)),
            },
            ClientResponse::Metrics(sample_metrics()),
        ];
        for resp in &responses {
            let payload = encode_response(resp);
            for cut in 0..payload.len() {
                assert!(
                    decode_response(&payload[..cut]).is_err(),
                    "truncation at {cut} of {resp:?} must error"
                );
            }
        }
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[]).is_err());
        // v11's Status tags are unassigned since v12.
        assert!(decode_request(&[18]).is_err());
        assert!(decode_response(&[34, 11]).is_err());
    }
}
