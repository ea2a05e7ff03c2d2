//! Peer frames: the handshake and its ack, streamed acknowledgements,
//! multi-partition flush frames, and consistent-cut markers.

use super::{
    bad_data, decode_partition_map, encode_partition_map, TAG_CUT_MARKER, TAG_HELLO_ACK,
    TAG_MULTI_BATCH, TAG_PEER_ACK, TAG_PEER_HELLO, WIRE_SEQ_BITS, WIRE_SEQ_MASK, WIRE_VERSION,
};
use prcc_clock::encoding::{read_varint_at as get_varint, write_varint};
use prcc_clock::WireClock;
use prcc_core::Update;
use prcc_graph::{PartitionId, PartitionMap, ReplicaId};
use prcc_net::VirtualTime;
use std::io;

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

/// The sections of one peer flush frame: per partition present, its
/// updates in order, each tagged with the per-link sequence number driving
/// acknowledgement and resend (always >= 1).
pub type FlushSections<C> = Vec<(PartitionId, Vec<(u64, Update<C>)>)>;

/// Encodes one whole peer flush — updates of *every* partition present — as
/// a single frame payload appended to `out` (typically a leased frame
/// buffer with the length slot already reserved by
/// [`append_frame`](super::append_frame)): a section count followed by
/// `(partition, [(link seq, update)])` sections. Empty sections are skipped
/// (the decoder rejects them), section order and per-partition update order
/// are preserved, every update id is trimmed to its low [`WIRE_SEQ_BITS`]
/// bits, and `pad` zero bytes ride along with each update, simulating
/// larger application values. A property test holds these bytes equal to a
/// copy-assemble reference encoder on arbitrary sections.
// lint: hot-path
pub fn encode_multi_batch_into<C: WireClock>(
    sections: &FlushSections<C>,
    pad: usize,
    out: &mut Vec<u8>,
) {
    out.push(TAG_MULTI_BATCH);
    let live = sections.iter().filter(|(_, updates)| !updates.is_empty());
    // lint: allow(alloc) clones the filter iterator (two pointers), no buffer
    write_varint(out, live.clone().count() as u64);
    for (partition, updates) in live {
        write_varint(out, u64::from(partition.0));
        write_varint(out, updates.len() as u64);
        for (seq, u) in updates {
            write_varint(out, *seq);
            // v6: the origin's wall-clock issue stamp (micros since epoch)
            // rides next to the sequence so recipients can derive
            // visibility latency locally. 0 = the update was not sampled
            // for tracing. `Update::encode_wire` deliberately omits it —
            // the same codec writes WAL receipts and snapshots, which must
            // stay free of wall-clock bytes.
            write_varint(out, u.issued_at.0);
            // v9: the id ships without its node bits — the receiver
            // restores them from the link's handshake.
            u.encode_wire_with_id(u.id.0 & WIRE_SEQ_MASK, out);
            write_varint(out, pad as u64);
            out.resize(out.len() + pad, 0);
        }
    }
}
// lint: end-hot-path

/// Decodes a peer flush frame — the only update framing a peer may send —
/// into its `(partition, [(link seq, update)])` sections, in wire order,
/// the ids as shipped (link-local: node bits zero; the receiving driver,
/// which knows the link's sender, completes them with [`restore_sender`]).
/// Frames with no sections, an empty section, a link sequence of 0, an id
/// with any bit at or above [`WIRE_SEQ_BITS`], or bytes after the last
/// section are malformed — a well-formed sender never produces them, so
/// they indicate corruption or a hostile peer.
pub fn decode_multi_batch<C, F>(payload: &[u8], mut make_clock: F) -> io::Result<FlushSections<C>>
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
        let len = get_varint(payload, &mut at)? as usize;
        if len == 0 {
            return Err(bad_data("empty multi-batch section"));
        }
        let mut updates = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            let seq = get_varint(payload, &mut at)?;
            if seq == 0 {
                // Sequence 0 would bypass the receiver's link watermark,
                // and a re-delivered copy pins the replica's pending
                // buffer forever.
                return Err(bad_data("link sequence 0"));
            }
            let stamp = get_varint(payload, &mut at)?;
            let mut u = Update::decode_wire(payload, &mut at, &mut make_clock)
                .ok_or_else(|| bad_data("malformed update"))?;
            if u.id.0 > WIRE_SEQ_MASK {
                // Node bits on the wire would alias another node's id
                // space once the sender's are OR-ed in.
                return Err(bad_data("wire id carries node bits"));
            }
            u.issued_at = VirtualTime(stamp);
            let pad = get_varint(payload, &mut at)? as usize;
            if payload.len() - at < pad {
                return Err(bad_data("truncated pad"));
            }
            at += pad;
            updates.push((seq, u));
        }
        sections.push((PartitionId(partition), updates));
    }
    if at != payload.len() {
        return Err(bad_data("trailing bytes in multi-batch"));
    }
    Ok(sections)
}

/// Completes the ids of a decoded flush from node `sender`'s link: every
/// update id becomes `sender << WIRE_SEQ_BITS | shipped bits` — the full
/// wire id WAL receipts, traces and the oracle key on.
// lint: hot-path
pub fn restore_sender<C>(sections: &mut FlushSections<C>, sender: usize) {
    let node_bits = (sender as u64) << WIRE_SEQ_BITS;
    for (_, updates) in sections {
        for (_, update) in updates {
            update.id.0 |= node_bits;
        }
    }
}
// lint: end-hot-path

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
