//! The length-prefixed wire protocol (version 9: partition-aware,
//! acknowledged, bounded-memory aware, observable, audited, sealed, trimmed).
//!
//! Every message is a *frame*: a little-endian `u32` payload length followed
//! by the payload; the first payload byte is a message tag. Peer frames
//! carry batched [`Update`]s (varint-encoded via the lower layers'
//! [`prcc_clock::wire::WireClock`] / [`Update::encode_wire`] codecs); client
//! frames carry the read/write/ops API. Only the current version is spoken
//! or decoded: the versioned handshake refuses every other peer outright,
//! so a mixed-version cluster fails loudly at connection time rather than
//! half-working. What each version added, and still shapes the format:
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
//!   partition instead of the full history, and the status payload grew
//!   the memory-boundedness gauges.
//! * **v6** made live clusters inspectable: each update in a flush carries
//!   its origin's *issue stamp* (micros since epoch, varint; 0 = not
//!   sampled for lifecycle tracing), and the client API grew a `Metrics`
//!   request/response pair shipping a [`prcc_telemetry::MetricsSnapshot`].
//!   Issue stamps ride the live wire only — WAL records and snapshots use
//!   the stamp-free [`Update::encode_wire`] codec, keeping durable bytes
//!   deterministic.
//! * **v7** added the online consistent-cut audit: a client `Cut` request
//!   injects (or polls) a marker token, nodes flood [`encode_cut_marker`]
//!   frames down their peer links *in channel order* (the Chandy–Lamport
//!   discipline), and each node answers with its
//!   [`prcc_checker::CutSnapshot`]. Markers carry no link sequence and are
//!   not resent, so a lost marker makes the audit *inconclusive*, never
//!   wrong.
//! * **v8** added the *seal barrier*: a flush may close with one trailing
//!   varint naming the highest link sequence the origin has retired as
//!   acknowledged-by-this-receiver (absent = 0 = no barrier). A straggler
//!   resend at or below it is dropped *before* the watermark re-check
//!   ([`NodeStatus::barrier_skips`] counts the saves). The status payload
//!   also grew the reactor gauges.
//! * **v9** trimmed the flush frame to what the link does not already
//!   know, so a frame per reactor tick costs no more bytes than the timed
//!   batches it replaced. The seal barrier is link state, not frame state:
//!   the sender writes it on the first frame of a connection and when it
//!   advanced since the last frame written there (absent still means "no
//!   news" — the receiver keeps the maximum it has seen). And an update's
//!   wire id ships as its low [`WIRE_SEQ_BITS`] bits only: a link carries
//!   nothing but its sender's own issues, so the receiver restores the
//!   node bits from the handshake's node index and refuses an id that
//!   carries any. WAL receipts and snapshots keep the full id
//!   ([`Update::encode_wire`]), so data dirs are unchanged.
//!
//! Causal timestamps ship counters only; index sets and the partition
//! layout are static configuration carried once in the handshake.

use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, PartitionCut, TraceCheckpoint};
use prcc_clock::encoding::{read_varint_at as get_varint, write_varint};
use prcc_clock::WireClock;
use prcc_core::Update;
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId, ShareGraph};
use prcc_net::VirtualTime;
use prcc_storage::{decode_trace_checkpoint, encode_trace_checkpoint};
use prcc_telemetry::MetricsSnapshot;
use std::io::{self, Read, Write};

/// The protocol version spoken by this build. Bumped to 2 when frames
/// became partition-tagged, to 3 when peer flushes became single
/// multi-partition frames, to 4 when peer links became acknowledged
/// (sequenced updates, hello-acks, streamed acks), to 5 when trace
/// responses became checkpointed and the status payload grew the
/// memory-boundedness gauges, to 6 when flush sections gained per-update
/// issue stamps and the client API gained `Metrics`, to 7 when the
/// consistent-cut audit landed (peer marker frames, client `Cut`
/// request/response), to 8 when flush frames gained the trailing seal
/// barrier and the status payload the reactor counters, to 9 when flush
/// frames dropped the issuing node's bits from every update id and the
/// unchanged barrier from every frame; peers at any other version are
/// refused at the handshake.
pub const WIRE_VERSION: u64 = 9;

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
const TAG_MULTI_BATCH: u8 = 3;
const TAG_HELLO_ACK: u8 = 4;
const TAG_PEER_ACK: u8 = 5;
/// Peer-frame tag of a consistent-cut marker (v7). Public so fault
/// injectors can recognize markers and preserve their channel position —
/// reordering a marker against data frames would break the cut the audit
/// checks.
pub const TAG_CUT_MARKER: u8 = 6;
const TAG_WRITE: u8 = 16;
const TAG_READ: u8 = 17;
const TAG_STATUS: u8 = 18;
const TAG_TRACE: u8 = 19;
const TAG_SHUTDOWN: u8 = 20;
const TAG_CONFIG: u8 = 21;
const TAG_METRICS: u8 = 22;
const TAG_CUT: u8 = 23;
const TAG_WRITE_ACK: u8 = 32;
const TAG_READ_RESP: u8 = 33;
const TAG_STATUS_RESP: u8 = 34;
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
/// frame boundary (see [`read_frame_len`] for the truncation and
/// [`MAX_FRAME_BYTES`] rules). The simple owned-buffer entry point for
/// handshakes, tools and tests; clients reading many frames back to back
/// use [`read_frame_into`], nodes the reactor's incremental decoder.
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

/// The peer handshake: protocol version, the dialing node, and the dialer's
/// full partition map (which must match the acceptor's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerHello {
    /// The dialing node's index in the partition map.
    pub node: usize,
    /// The dialer's sharding configuration.
    pub map: PartitionMap,
}

/// Encodes a [`PeerHello`] frame payload (always at [`WIRE_VERSION`]).
pub fn encode_peer_hello(hello: &PeerHello) -> Vec<u8> {
    let mut out = vec![TAG_PEER_HELLO];
    write_varint(&mut out, WIRE_VERSION);
    write_varint(&mut out, hello.node as u64);
    encode_partition_map(&hello.map, &mut out);
    out
}

/// Decodes a [`PeerHello`] frame payload, refusing other protocol versions.
pub fn decode_peer_hello(payload: &[u8]) -> io::Result<PeerHello> {
    let mut at = 0;
    if payload.first() != Some(&TAG_PEER_HELLO) {
        return Err(bad_data("expected peer hello"));
    }
    at += 1;
    let version = get_varint(payload, &mut at)?;
    if version != WIRE_VERSION {
        return Err(bad_data(&format!(
            "wire protocol version mismatch: peer speaks v{version}, this node v{WIRE_VERSION}"
        )));
    }
    let node = get_varint(payload, &mut at)? as usize;
    let map = decode_partition_map(payload, &mut at)?;
    Ok(PeerHello { node, map })
}

/// Encodes the acceptor's answer to a [`PeerHello`]: the highest link
/// sequence it has durably received from the dialing peer (0 = nothing),
/// which is where the dialer resumes its update stream.
// lint: hot-path
pub fn encode_hello_ack_into(acked: u64, out: &mut Vec<u8>) {
    out.push(TAG_HELLO_ACK);
    write_varint(out, acked);
}
// lint: end-hot-path

/// Decodes a hello-ack frame payload into the acknowledged link sequence.
pub fn decode_hello_ack(payload: &[u8]) -> io::Result<u64> {
    let mut at = 1;
    if payload.first() != Some(&TAG_HELLO_ACK) {
        return Err(bad_data("expected hello ack"));
    }
    let acked = get_varint(payload, &mut at)?;
    if at != payload.len() {
        return Err(bad_data("trailing bytes in hello ack"));
    }
    Ok(acked)
}

/// Encodes a streamed acknowledgement: the receiver has durably received
/// every update of this link up to and including sequence `seq`.
// lint: hot-path
pub fn encode_peer_ack_into(seq: u64, out: &mut Vec<u8>) {
    out.push(TAG_PEER_ACK);
    write_varint(out, seq);
}
// lint: end-hot-path

/// Decodes a streamed acknowledgement frame payload.
pub fn decode_peer_ack(payload: &[u8]) -> io::Result<u64> {
    let mut at = 1;
    if payload.first() != Some(&TAG_PEER_ACK) {
        return Err(bad_data("expected peer ack"));
    }
    let seq = get_varint(payload, &mut at)?;
    if at != payload.len() {
        return Err(bad_data("trailing bytes in peer ack"));
    }
    Ok(seq)
}

// lint: hot-path
fn encode_seq_updates<C: WireClock>(
    updates: &[(u64, Update<C>)],
    pad: usize,
    sender: Option<usize>,
    out: &mut Vec<u8>,
) {
    for (seq, u) in updates {
        debug_assert!(
            sender.is_none_or(|node| u.id.0 >> WIRE_SEQ_BITS == node as u64),
            "update {:#x} on node {sender:?}'s link was issued elsewhere",
            u.id.0
        );
        write_varint(out, *seq);
        // v6: the origin's wall-clock issue stamp (micros since epoch)
        // rides next to the sequence so recipients can derive visibility
        // latency locally. 0 = the update was not sampled for tracing.
        // `Update::encode_wire` deliberately omits it — the same codec
        // writes WAL receipts and snapshots, which must stay free of
        // wall-clock bytes.
        write_varint(out, u.issued_at.0);
        // v9: the id ships without its node bits — the receiver restores
        // them from the link's handshake.
        u.encode_wire_with_id(u.id.0 & WIRE_SEQ_MASK, out);
        write_varint(out, pad as u64);
        out.resize(out.len() + pad, 0);
    }
}
// lint: end-hot-path

fn decode_seq_updates<C, F>(
    payload: &[u8],
    at: &mut usize,
    count: usize,
    peer: usize,
    make_clock: &mut F,
) -> io::Result<Vec<(u64, Update<C>)>>
where
    C: WireClock,
    F: FnMut(ReplicaId) -> Option<C>,
{
    let mut updates = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let seq = get_varint(payload, at)?;
        if seq == 0 {
            // Sequence 0 would bypass the receiver's link watermark, and a
            // re-delivered copy pins the replica's pending buffer forever.
            return Err(bad_data("link sequence 0"));
        }
        let stamp = get_varint(payload, at)?;
        let mut u = Update::decode_wire(payload, at, &mut *make_clock)
            .ok_or_else(|| bad_data("malformed update"))?;
        if u.id.0 > WIRE_SEQ_MASK {
            // Node bits on the wire would alias another node's id space
            // once the sender's are OR-ed in.
            return Err(bad_data("wire id carries node bits"));
        }
        u.id.0 |= (peer as u64) << WIRE_SEQ_BITS;
        u.issued_at = VirtualTime(stamp);
        let pad = get_varint(payload, at)? as usize;
        if payload.len() - *at < pad {
            return Err(bad_data("truncated pad"));
        }
        *at += pad;
        updates.push((seq, u));
    }
    Ok(updates)
}

/// The sections of one peer flush frame: per partition present, its
/// updates in order, each tagged with the per-link sequence number driving
/// acknowledgement and resend (always >= 1).
pub type FlushSections<C> = Vec<(PartitionId, Vec<(u64, Update<C>)>)>;

/// Encodes one whole peer flush — updates of *every* partition present — as
/// a single frame payload appended to `out` (typically a leased frame
/// buffer with the length slot already reserved by [`append_frame`]): a
/// section count followed by `(partition, [(link seq, update)])` sections.
/// Empty sections are skipped (the decoder rejects them), section order and
/// per-partition update order are preserved, every update id is trimmed to
/// its low [`WIRE_SEQ_BITS`] bits, and `pad` zero bytes ride along with
/// each update, simulating larger application values. No seal barrier is
/// written and no sender is checked — the link driver encodes with
/// [`encode_multi_batch_sealed_into`]. A property test holds these bytes
/// equal to a copy-assemble reference encoder on arbitrary sections.
// lint: hot-path
pub fn encode_multi_batch_into<C: WireClock>(
    sections: &FlushSections<C>,
    pad: usize,
    out: &mut Vec<u8>,
) {
    encode_flush(sections, pad, None, 0, out);
}

/// The link driver's flush encoder: [`encode_multi_batch_into`] for the
/// link of node `sender` (debug builds assert every update was issued
/// there — anything else would come back with the wrong node bits), plus
/// the trailing seal barrier. A zero barrier is *omitted* (not encoded as
/// a zero varint): absent means "no news", which is also how the driver
/// spells a barrier the connection has already been told.
pub fn encode_multi_batch_sealed_into<C: WireClock>(
    sections: &FlushSections<C>,
    pad: usize,
    sender: usize,
    barrier: u64,
    out: &mut Vec<u8>,
) {
    encode_flush(sections, pad, Some(sender), barrier, out);
}

fn encode_flush<C: WireClock>(
    sections: &FlushSections<C>,
    pad: usize,
    sender: Option<usize>,
    barrier: u64,
    out: &mut Vec<u8>,
) {
    out.push(TAG_MULTI_BATCH);
    let live = sections.iter().filter(|(_, updates)| !updates.is_empty());
    // lint: allow(alloc) clones the filter iterator (two pointers), no buffer
    write_varint(out, live.clone().count() as u64);
    for (partition, updates) in live {
        write_varint(out, u64::from(partition.0));
        write_varint(out, updates.len() as u64);
        encode_seq_updates(updates, pad, sender, out);
    }
    if barrier > 0 {
        write_varint(out, barrier);
    }
}
// lint: end-hot-path

/// Decodes a multi-partition flush frame into its `(partition,
/// [(link seq, update)])` sections, in wire order, dropping the seal
/// barrier and leaving the ids as shipped (link-local: node bits zero);
/// the receiving driver, which knows the link's sender and consumes the
/// barrier, uses [`decode_sealed_batches`].
pub fn decode_multi_batch<C, F>(payload: &[u8], make_clock: F) -> io::Result<FlushSections<C>>
where
    C: WireClock,
    F: FnMut(ReplicaId) -> Option<C>,
{
    decode_sealed_batches(payload, 0, make_clock).map(|(sections, _)| sections)
}

/// Decodes a peer flush frame — the only update framing a v9 peer may
/// send — from node `peer`'s link into its sections, every update id
/// restored to `peer << WIRE_SEQ_BITS | shipped bits`, plus the seal
/// barrier: the origin's highest link sequence already acknowledged by
/// this receiver (0 when absent — no news since the last frame that
/// carried one). Frames with no sections, an empty section, a link
/// sequence of 0, or an id with any bit at or above [`WIRE_SEQ_BITS`] are
/// malformed — a well-formed sender never produces them, so they indicate
/// corruption or a hostile peer.
pub fn decode_sealed_batches<C, F>(
    payload: &[u8],
    peer: usize,
    mut make_clock: F,
) -> io::Result<(FlushSections<C>, u64)>
where
    C: WireClock,
    F: FnMut(ReplicaId) -> Option<C>,
{
    let mut at = 0;
    if payload.first() != Some(&TAG_MULTI_BATCH) {
        return Err(bad_data("expected multi-partition batch"));
    }
    at += 1;
    let count = get_varint(payload, &mut at)? as usize;
    if count == 0 {
        return Err(bad_data("multi-batch with no sections"));
    }
    if count > 1 << 20 {
        return Err(bad_data("absurd section count"));
    }
    let mut sections = Vec::with_capacity(count.min(1 << 10));
    for _ in 0..count {
        let partition =
            u32::try_from(get_varint(payload, &mut at)?).map_err(|_| bad_data("partition id"))?;
        let updates = get_varint(payload, &mut at)? as usize;
        if updates == 0 {
            return Err(bad_data("empty multi-batch section"));
        }
        let updates = decode_seq_updates(payload, &mut at, updates, peer, &mut make_clock)?;
        sections.push((PartitionId(partition), updates));
    }
    let barrier = if at != payload.len() {
        get_varint(payload, &mut at)?
    } else {
        0
    };
    if at != payload.len() {
        return Err(bad_data("trailing bytes in multi-batch"));
    }
    Ok((sections, barrier))
}

/// Encodes a consistent-cut marker peer frame (v7): the tag and the cut
/// token. Markers are unsequenced — they delimit the channel at the
/// position they are sent, outside the acknowledged update stream — and
/// are never resent after a reconnect (a lost marker makes the audit
/// inconclusive, not wrong).
pub fn encode_cut_marker(token: u64) -> Vec<u8> {
    let mut out = vec![TAG_CUT_MARKER];
    write_varint(&mut out, token);
    out
}

/// Decodes a consistent-cut marker frame into its token.
pub fn decode_cut_marker(payload: &[u8]) -> io::Result<u64> {
    if payload.first() != Some(&TAG_CUT_MARKER) {
        return Err(bad_data("not a cut marker frame"));
    }
    let mut at = 1;
    let token = get_varint(payload, &mut at)?;
    if at != payload.len() {
        return Err(bad_data("trailing bytes in cut marker"));
    }
    Ok(token)
}

/// Encodes a [`CutSnapshot`] (the `Cut` response body).
fn encode_cut_snapshot(snap: &CutSnapshot, out: &mut Vec<u8>) {
    write_varint(out, snap.node);
    write_varint(out, snap.token);
    write_varint(out, snap.partitions.len() as u64);
    for pc in &snap.partitions {
        write_varint(out, u64::from(pc.partition));
        write_varint(out, pc.role as u64);
        write_varint(out, pc.issued_high);
        write_varint(out, pc.applied.len() as u64);
        for &applied in &pc.applied {
            write_varint(out, applied);
        }
        write_varint(out, pc.pending);
    }
}

fn decode_cut_snapshot(payload: &[u8], at: &mut usize) -> io::Result<CutSnapshot> {
    let node = get_varint(payload, at)?;
    let token = get_varint(payload, at)?;
    let count = get_varint(payload, at)? as usize;
    if count > 1 << 20 {
        return Err(bad_data("absurd cut partition count"));
    }
    let mut partitions = Vec::with_capacity(count.min(1 << 10));
    for _ in 0..count {
        let partition =
            u32::try_from(get_varint(payload, at)?).map_err(|_| bad_data("partition id"))?;
        let role = get_varint(payload, at)? as usize;
        let issued_high = get_varint(payload, at)?;
        let roles = get_varint(payload, at)? as usize;
        if roles > 1 << 20 {
            return Err(bad_data("absurd cut role count"));
        }
        let mut applied = Vec::with_capacity(roles.min(1 << 10));
        for _ in 0..roles {
            applied.push(get_varint(payload, at)?);
        }
        let pending = get_varint(payload, at)?;
        partitions.push(PartitionCut {
            partition,
            role,
            issued_high,
            applied,
            pending,
        });
    }
    Ok(CutSnapshot {
        node,
        token,
        partitions,
    })
}

/// A client-API request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientRequest {
    /// `write(x, v)` in one partition, with `pad` extra payload bytes.
    Write {
        /// Target partition.
        partition: PartitionId,
        /// Target register within the partition.
        register: RegisterId,
        /// Value to write.
        value: u64,
        /// Simulated extra value bytes.
        pad: usize,
    },
    /// `read(x)` in one partition.
    Read {
        /// Target partition.
        partition: PartitionId,
        /// Register to read.
        register: RegisterId,
    },
    /// Counters snapshot.
    Status,
    /// The node's local event logs, grouped by partition.
    Trace,
    /// The node's sharding configuration (version + partition map), for
    /// clients that route by key.
    Config,
    /// The node's live metric snapshot: counters, gauges, and per-stage
    /// latency histograms (v6).
    Metrics,
    /// Consistent-cut audit (v7). With `start`, the node snapshots its
    /// frontiers for `token` (if it has not already seen it) and floods
    /// markers to its peers; either way the response carries the node's
    /// snapshot for `token` if it has one.
    Cut {
        /// The cut token identifying this audit round.
        token: u64,
        /// Initiate the cut here (false = just poll for the snapshot).
        start: bool,
    },
    /// Graceful node shutdown.
    Shutdown,
}

/// Appends a client request payload to `out` — [`crate::ServiceClient`]
/// re-encodes every request into one reusable buffer instead of allocating
/// per round trip.
// lint: hot-path
pub fn encode_request_into(req: &ClientRequest, out: &mut Vec<u8>) {
    match req {
        ClientRequest::Write {
            partition,
            register,
            value,
            pad,
        } => {
            out.push(TAG_WRITE);
            write_varint(out, u64::from(partition.0));
            write_varint(out, u64::from(register.0));
            write_varint(out, *value);
            write_varint(out, *pad as u64);
            out.resize(out.len() + pad, 0);
        }
        ClientRequest::Read {
            partition,
            register,
        } => {
            out.push(TAG_READ);
            write_varint(out, u64::from(partition.0));
            write_varint(out, u64::from(register.0));
        }
        ClientRequest::Status => out.push(TAG_STATUS),
        ClientRequest::Trace => out.push(TAG_TRACE),
        ClientRequest::Config => out.push(TAG_CONFIG),
        ClientRequest::Metrics => out.push(TAG_METRICS),
        ClientRequest::Cut { token, start } => {
            out.push(TAG_CUT);
            out.push(u8::from(*start));
            write_varint(out, *token);
        }
        ClientRequest::Shutdown => out.push(TAG_SHUTDOWN),
    }
}
// lint: end-hot-path

/// Decodes a client request payload.
pub fn decode_request(payload: &[u8]) -> io::Result<ClientRequest> {
    let mut at = 1;
    match payload.first() {
        Some(&TAG_WRITE) => {
            let partition = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("partition id"))?;
            let register = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("register id"))?;
            let value = get_varint(payload, &mut at)?;
            let pad = get_varint(payload, &mut at)? as usize;
            if payload.len() - at < pad {
                return Err(bad_data("truncated write pad"));
            }
            Ok(ClientRequest::Write {
                partition: PartitionId(partition),
                register: RegisterId(register),
                value,
                pad,
            })
        }
        Some(&TAG_READ) => {
            let partition = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("partition id"))?;
            let register = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("register id"))?;
            Ok(ClientRequest::Read {
                partition: PartitionId(partition),
                register: RegisterId(register),
            })
        }
        Some(&TAG_STATUS) => Ok(ClientRequest::Status),
        Some(&TAG_TRACE) => Ok(ClientRequest::Trace),
        Some(&TAG_CONFIG) => Ok(ClientRequest::Config),
        Some(&TAG_METRICS) => Ok(ClientRequest::Metrics),
        Some(&TAG_CUT) => {
            let start = *payload.get(1).ok_or_else(|| bad_data("cut start flag"))? == 1;
            at = 2;
            let token = get_varint(payload, &mut at)?;
            Ok(ClientRequest::Cut { token, start })
        }
        Some(&TAG_SHUTDOWN) => Ok(ClientRequest::Shutdown),
        _ => Err(bad_data("unknown client request")),
    }
}

/// Per-partition slice of a node's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCounters {
    /// Updates issued by clients into this partition at this node.
    pub issued: u64,
    /// Remote updates applied in this partition at this node.
    pub applies: u64,
    /// Updates buffered in this partition's pending set.
    pub pending: u64,
}

/// A node's counter snapshot, returned by [`ClientRequest::Status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStatus {
    /// The reporting node.
    pub node: u64,
    /// Updates issued by clients of this node (all partitions).
    pub issued: u64,
    /// Update copies handed to peer senders.
    pub messages_sent: u64,
    /// Update copies decoded from peers.
    pub messages_received: u64,
    /// Remote updates applied (all partitions).
    pub applies: u64,
    /// Updates currently buffered (predicate `J` not yet satisfied).
    pub pending: u64,
    /// Duplicate deliveries dropped.
    pub duplicates_dropped: u64,
    /// Updates dropped because a peer routed them to a partition this node
    /// does not host (nonzero only under a routing bug).
    pub dropped_misrouted: u64,
    /// Bytes written to peer sockets (frames included).
    pub bytes_out: u64,
    /// Bytes read from peer sockets (frames included).
    pub bytes_in: u64,
    /// Per-partition update runs shipped to peers (one run per partition
    /// present in a flush — the v2 "batch" unit, kept so `updates_per_batch`
    /// stays comparable across versions).
    pub batches_sent: u64,
    /// Peer update frames written. With v3 multi-partition framing every
    /// flush is one frame, so `frames_sent <= batches_sent`; the gap is the
    /// framing overhead v3 amortizes away.
    pub frames_sent: u64,
    /// Sender flush cycles, counted when a drained batch exists — before
    /// (and independently of) the frame write succeeding, so
    /// frames-per-flush stays an honest ratio of two separately
    /// instrumented events.
    pub flushes: u64,
    /// Update copies resent from the durable window after a reconnect
    /// (zero on a healthy link).
    pub resent: u64,
    /// WAL records appended since this process started (0 when running
    /// without a data dir).
    pub wal_appends: u64,
    /// Snapshots written since this process started.
    pub snapshots_written: u64,
    /// Current WAL size in bytes (0 without a data dir). Bounded by the
    /// snapshot cadence: every snapshot truncates the log.
    pub wal_bytes: u64,
    /// Payload size of the most recent snapshot in bytes. With
    /// checkpointed trace compaction this stays O(live state) — flat over
    /// the run length, which the load harness gates on.
    pub snapshot_bytes: u64,
    /// Payload size of the first snapshot this process wrote (the baseline
    /// for the flat-snapshot regression gate).
    pub first_snapshot_bytes: u64,
    /// Live (uncompacted) trace events across hosted partitions.
    pub trace_events: u64,
    /// Trace events sealed into checkpoint summaries and discarded.
    pub sealed_events: u64,
    /// Largest per-peer resend window observed since this process started.
    pub max_window: u64,
    /// Window entries evicted by the per-peer cap (nonzero only when a
    /// peer was stranded past `window_cap` unacknowledged updates).
    pub window_evicted: u64,
    /// Reactor worker wakeups (epoll_wait returns) since start (v8).
    pub reactor_wakeups: u64,
    /// Readiness events delivered across all wakeups (v8);
    /// `reactor_events / reactor_wakeups` is the batching ratio.
    pub reactor_events: u64,
    /// Interest re-arms after a partial (`WouldBlock`) flush (v8) — each
    /// is a write the event loop parked instead of blocking a thread on.
    pub reactor_rearms: u64,
    /// High-water mark of any single connection's outbound queue in bytes
    /// (v8); the backpressure bound caps this.
    pub reactor_outq_hiwat: u64,
    /// Straggler update deliveries fast-dropped by the seal barrier
    /// without a watermark re-check (v8).
    pub barrier_skips: u64,
    /// Counters broken out per partition, indexed by partition id.
    pub per_partition: Vec<PartitionCounters>,
}

impl NodeStatus {
    fn fields(&self) -> [u64; 28] {
        [
            self.node,
            self.issued,
            self.messages_sent,
            self.messages_received,
            self.applies,
            self.pending,
            self.duplicates_dropped,
            self.dropped_misrouted,
            self.bytes_out,
            self.bytes_in,
            self.batches_sent,
            self.frames_sent,
            self.flushes,
            self.resent,
            self.wal_appends,
            self.snapshots_written,
            self.wal_bytes,
            self.snapshot_bytes,
            self.first_snapshot_bytes,
            self.trace_events,
            self.sealed_events,
            self.max_window,
            self.window_evicted,
            self.reactor_wakeups,
            self.reactor_events,
            self.reactor_rearms,
            self.reactor_outq_hiwat,
            self.barrier_skips,
        ]
    }

    fn from_fields(f: [u64; 28]) -> Self {
        NodeStatus {
            node: f[0],
            issued: f[1],
            messages_sent: f[2],
            messages_received: f[3],
            applies: f[4],
            pending: f[5],
            duplicates_dropped: f[6],
            dropped_misrouted: f[7],
            bytes_out: f[8],
            bytes_in: f[9],
            batches_sent: f[10],
            frames_sent: f[11],
            flushes: f[12],
            resent: f[13],
            wal_appends: f[14],
            snapshots_written: f[15],
            wal_bytes: f[16],
            snapshot_bytes: f[17],
            first_snapshot_bytes: f[18],
            trace_events: f[19],
            sealed_events: f[20],
            max_window: f[21],
            window_evicted: f[22],
            reactor_wakeups: f[23],
            reactor_events: f[24],
            reactor_rearms: f[25],
            reactor_outq_hiwat: f[26],
            barrier_skips: f[27],
            per_partition: Vec::new(),
        }
    }
}

/// A client-API response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientResponse {
    /// Result of a write (`false`: the node does not host the register in
    /// that partition).
    WriteAck {
        /// Whether the write was accepted.
        ok: bool,
    },
    /// Result of a read (`ok = false`: not hosted here).
    ReadResp {
        /// Whether the node hosts the register in that partition.
        ok: bool,
        /// The value, if any write has reached this node.
        value: Option<u64>,
    },
    /// Counter snapshot.
    Status(NodeStatus),
    /// The node's local event logs, indexed by partition id: per
    /// partition, the sealed-prefix checkpoint summary plus the live
    /// suffix (v5 — a compacting node no longer retains full history).
    Trace(Vec<(TraceCheckpoint, Vec<TraceEvent>)>),
    /// The node's sharding configuration.
    Config {
        /// Wire protocol version the node speaks.
        version: u64,
        /// The partition map the node is deployed under.
        map: PartitionMap,
    },
    /// Live metric snapshot (v6): counters, gauges, and per-stage latency
    /// histograms, mergeable across nodes.
    Metrics(MetricsSnapshot),
    /// The node's cut snapshot for the requested token, if it has taken
    /// one (v7); `None` = the marker has not reached this node yet.
    Cut(Option<CutSnapshot>),
    /// Shutdown acknowledged.
    Bye,
}

/// Appends a client response payload to `out` — the node encodes each
/// response straight into a leased frame buffer.
// lint: hot-path
pub fn encode_response_into(resp: &ClientResponse, out: &mut Vec<u8>) {
    match resp {
        ClientResponse::WriteAck { ok } => out.extend_from_slice(&[TAG_WRITE_ACK, u8::from(*ok)]),
        ClientResponse::ReadResp { ok, value } => {
            out.extend_from_slice(&[TAG_READ_RESP, u8::from(*ok), u8::from(value.is_some())]);
            write_varint(out, value.unwrap_or(0));
        }
        ClientResponse::Status(status) => {
            // The status field set changes across wire versions (v3 added
            // frames_sent/flushes/dropped_misrouted, v4 added
            // resent/wal_appends/snapshots_written), so the payload opens
            // with the version: a client built against another version
            // fails loudly instead of misparsing shifted varints.
            out.push(TAG_STATUS_RESP);
            write_varint(out, WIRE_VERSION);
            for v in status.fields() {
                write_varint(out, v);
            }
            write_varint(out, status.per_partition.len() as u64);
            for pc in &status.per_partition {
                write_varint(out, pc.issued);
                write_varint(out, pc.applies);
                write_varint(out, pc.pending);
            }
        }
        ClientResponse::Trace(partitions) => {
            out.push(TAG_TRACE_RESP);
            write_varint(out, partitions.len() as u64);
            for (checkpoint, events) in partitions {
                encode_trace_checkpoint(checkpoint, out);
                write_varint(out, events.len() as u64);
                for event in events {
                    match *event {
                        TraceEvent::Issue {
                            replica,
                            register,
                            update,
                        } => {
                            out.push(0);
                            write_varint(out, replica.index() as u64);
                            write_varint(out, u64::from(register.0));
                            write_varint(out, update);
                        }
                        TraceEvent::Apply { replica, update } => {
                            out.push(1);
                            write_varint(out, replica.index() as u64);
                            write_varint(out, update);
                        }
                    }
                }
            }
        }
        ClientResponse::Config { version, map } => {
            out.push(TAG_CONFIG_RESP);
            write_varint(out, *version);
            encode_partition_map(map, out);
        }
        ClientResponse::Metrics(snapshot) => {
            // Version-stamped like Status: metric names and histogram
            // bucketing are a per-version contract, so a cross-version
            // scrape fails loudly instead of merging incompatible data.
            out.push(TAG_METRICS_RESP);
            write_varint(out, WIRE_VERSION);
            snapshot.encode(out);
        }
        ClientResponse::Cut(snapshot) => {
            out.push(TAG_CUT_RESP);
            write_varint(out, WIRE_VERSION);
            out.push(u8::from(snapshot.is_some()));
            if let Some(snap) = snapshot {
                encode_cut_snapshot(snap, out);
            }
        }
        ClientResponse::Bye => out.push(TAG_BYE),
    }
}
// lint: end-hot-path

/// Decodes a client response payload.
pub fn decode_response(payload: &[u8]) -> io::Result<ClientResponse> {
    let mut at = 1;
    match payload.first() {
        Some(&TAG_WRITE_ACK) => Ok(ClientResponse::WriteAck {
            ok: payload.get(1) == Some(&1),
        }),
        Some(&TAG_READ_RESP) => {
            let ok = payload.get(1) == Some(&1);
            let present = payload.get(2) == Some(&1);
            at = 3;
            let value = get_varint(payload, &mut at)?;
            Ok(ClientResponse::ReadResp {
                ok,
                value: present.then_some(value),
            })
        }
        Some(&TAG_STATUS_RESP) => {
            let version = get_varint(payload, &mut at)?;
            if version != WIRE_VERSION {
                return Err(bad_data(&format!(
                    "status response version mismatch: node speaks v{version}, \
                     this client v{WIRE_VERSION}"
                )));
            }
            let mut fields = [0u64; 28];
            for f in &mut fields {
                *f = get_varint(payload, &mut at)?;
            }
            let mut status = NodeStatus::from_fields(fields);
            let parts = get_varint(payload, &mut at)? as usize;
            status.per_partition = Vec::with_capacity(parts.min(1 << 20));
            for _ in 0..parts {
                status.per_partition.push(PartitionCounters {
                    issued: get_varint(payload, &mut at)?,
                    applies: get_varint(payload, &mut at)?,
                    pending: get_varint(payload, &mut at)?,
                });
            }
            Ok(ClientResponse::Status(status))
        }
        Some(&TAG_TRACE_RESP) => {
            let parts = get_varint(payload, &mut at)? as usize;
            let mut partitions = Vec::with_capacity(parts.min(1 << 20));
            for _ in 0..parts {
                let checkpoint = decode_trace_checkpoint(payload, &mut at)?;
                let count = get_varint(payload, &mut at)? as usize;
                let mut events = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let kind = *payload.get(at).ok_or_else(|| bad_data("event kind"))?;
                    at += 1;
                    let replica = ReplicaId(get_varint(payload, &mut at)? as usize);
                    let event = match kind {
                        0 => {
                            let register = u32::try_from(get_varint(payload, &mut at)?)
                                .map_err(|_| bad_data("register id"))?;
                            let update = get_varint(payload, &mut at)?;
                            TraceEvent::Issue {
                                replica,
                                register: RegisterId(register),
                                update,
                            }
                        }
                        1 => TraceEvent::Apply {
                            replica,
                            update: get_varint(payload, &mut at)?,
                        },
                        _ => return Err(bad_data("unknown event kind")),
                    };
                    events.push(event);
                }
                partitions.push((checkpoint, events));
            }
            Ok(ClientResponse::Trace(partitions))
        }
        Some(&TAG_CONFIG_RESP) => {
            let version = get_varint(payload, &mut at)?;
            let map = decode_partition_map(payload, &mut at)?;
            Ok(ClientResponse::Config { version, map })
        }
        Some(&TAG_METRICS_RESP) => {
            let version = get_varint(payload, &mut at)?;
            if version != WIRE_VERSION {
                return Err(bad_data(&format!(
                    "metrics response version mismatch: node speaks v{version}, \
                     this client v{WIRE_VERSION}"
                )));
            }
            let snapshot = MetricsSnapshot::decode(payload, &mut at)?;
            if at != payload.len() {
                return Err(bad_data("trailing bytes in metrics response"));
            }
            Ok(ClientResponse::Metrics(snapshot))
        }
        Some(&TAG_CUT_RESP) => {
            let version = get_varint(payload, &mut at)?;
            if version != WIRE_VERSION {
                return Err(bad_data(&format!(
                    "cut response version mismatch: node speaks v{version}, \
                     this client v{WIRE_VERSION}"
                )));
            }
            let present = *payload.get(at).ok_or_else(|| bad_data("cut presence"))? == 1;
            at += 1;
            let snapshot = if present {
                let snap = decode_cut_snapshot(payload, &mut at)?;
                if at != payload.len() {
                    return Err(bad_data("trailing bytes in cut response"));
                }
                Some(snap)
            } else {
                None
            };
            Ok(ClientResponse::Cut(snapshot))
        }
        Some(&TAG_BYE) => Ok(ClientResponse::Bye),
        _ => Err(bad_data("unknown client response")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_checker::UpdateId;
    use prcc_clock::{EdgeProtocol, Protocol};
    use prcc_graph::topologies;
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
        for old in [1u8, 2, 3, 4, 5, 8] {
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

    fn sample_updates(
        p: &EdgeProtocol,
        count: u64,
        tag: u64,
    ) -> Vec<Update<prcc_clock::EdgeClock>> {
        let mut updates = Vec::new();
        for k in 0..count {
            let i = ReplicaId(k as usize % 4);
            let mut clock = p.new_clock(i);
            p.advance(i, &mut clock, RegisterId(i.index() as u32));
            updates.push(Update {
                id: UpdateId(((SENDER as u64) << WIRE_SEQ_BITS) | (tag << 20) | k),
                issuer: i,
                register: RegisterId(i.index() as u32),
                value: 1000 * (tag + 1) + k,
                clock,
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
            let (back, barrier) =
                decode_sealed_batches(&payload, SENDER, |i| Some(p.new_clock(i))).unwrap();
            assert_eq!(barrier, 0, "no barrier written, none read");
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
            // The sender-blind decoder hands back what was shipped: the
            // ids without their node bits.
            let local = decode_multi_batch(&payload, |i| Some(p.new_clock(i))).unwrap();
            for (a, b) in local[0].1.iter().zip(&sections[0].1) {
                assert_eq!(a.1.id.0, b.1.id.0 & WIRE_SEQ_MASK);
            }
        }
    }

    #[test]
    fn the_seal_barrier_is_one_trailing_varint_and_zero_is_absent() {
        let p = EdgeProtocol::new(topologies::ring(4));
        let sections = vec![(PartitionId(1), with_seqs(7, sample_updates(&p, 2, 3)))];
        let bare = encode_multi_batch(&sections, 0);
        let sealed = encoded(|out| encode_multi_batch_sealed_into(&sections, 0, SENDER, 300, out));
        // The barrier is one trailing varint; a zero barrier is no bytes.
        let mut expect = bare.clone();
        write_varint(&mut expect, 300);
        assert_eq!(sealed, expect);
        assert_eq!(
            encoded(|out| encode_multi_batch_sealed_into(&sections, 0, SENDER, 0, out)),
            bare
        );
        let (_, barrier) =
            decode_sealed_batches(&sealed, SENDER, |i| Some(p.new_clock(i))).unwrap();
        assert_eq!(barrier, 300);
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
        assert!(decode_sealed_batches(&sound, SENDER, |i| Some(p.new_clock(i))).is_ok());
        sections[0].1[1].0 = 0;
        let unsequenced = encode_multi_batch(&sections, 0);
        let err =
            decode_sealed_batches(&unsequenced, SENDER, |i| Some(p.new_clock(i))).unwrap_err();
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
        for decoded in [
            decode_sealed_batches(&v2, SENDER, |i| Some(p.new_clock(i))).map(|(s, _)| s),
            decode_multi_batch(&v2, |i| Some(p.new_clock(i))),
        ] {
            assert_eq!(decoded.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
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
            ClientRequest::Status,
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
            ClientResponse::Status(NodeStatus {
                node: 2,
                issued: 10,
                messages_sent: 20,
                messages_received: 19,
                applies: 18,
                pending: 1,
                duplicates_dropped: 0,
                dropped_misrouted: 3,
                bytes_out: 4096,
                bytes_in: 4000,
                batches_sent: 7,
                frames_sent: 4,
                flushes: 4,
                resent: 2,
                wal_appends: 29,
                snapshots_written: 1,
                wal_bytes: 8192,
                snapshot_bytes: 900,
                first_snapshot_bytes: 850,
                trace_events: 120,
                sealed_events: 4000,
                max_window: 64,
                window_evicted: 0,
                reactor_wakeups: 510,
                reactor_events: 1200,
                reactor_rearms: 9,
                reactor_outq_hiwat: 65536,
                barrier_skips: 5,
                per_partition: vec![
                    PartitionCounters {
                        issued: 6,
                        applies: 12,
                        pending: 1,
                    },
                    PartitionCounters {
                        issued: 4,
                        applies: 6,
                        pending: 0,
                    },
                ],
            }),
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
        // Like Status: a scrape from a node speaking another version must
        // fail loudly — metric names and bucket layout are per-version.
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

    #[test]
    fn foreign_version_status_responses_refused() {
        // Status payloads are version-stamped: the field set grew in v3,
        // and a cross-version client must get a loud mismatch, not counters
        // parsed out of shifted varints.
        let mut payload = encode_response(&ClientResponse::Status(NodeStatus::default()));
        assert_eq!(payload[1], WIRE_VERSION as u8);
        payload[1] = 2;
        let err = decode_response(&payload).unwrap_err();
        assert!(
            err.to_string().contains("status response version mismatch"),
            "unexpected error: {err}"
        );
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
            ClientResponse::Status(NodeStatus {
                per_partition: vec![PartitionCounters::default(); 2],
                ..NodeStatus::default()
            }),
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
    }
}
