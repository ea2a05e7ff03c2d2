//! Peer frames: the handshake and its ack, streamed acknowledgements,
//! multi-partition flush frames, and consistent-cut markers.
//!
//! **Flush frames ship what changed (v13).** A flush frame is a section
//! count, then per section the partition, its update count and its
//! updates. Each update ships as deltas from a *base*: what the previous
//! update of the same partition on the same connection carried — its link
//! sequence, trimmed id and timestamp counters. The sequence ships as the
//! positive distance from the base's, the id as the distance modulo
//! 2^[`WIRE_SEQ_BITS`], and the clock as a changed-counter bitmap of
//! ⌈width/8⌉ bytes followed by the changes of the counters it names
//! (zigzag-signed varints: a live issuer's counters only grow, but the
//! codec stays total over any clock sequence).
//! The width needs no prefix: the issuer's template clock fixes it, and
//! the hello's partition-map check already pins the template. The issue
//! stamp, issuer, register, value and pad ship whole. An empty base is all
//! zeros, so a connection's first frame is just the absolute form, and
//! [`encode_multi_batch_into`]/[`decode_multi_batch`] are one-shot
//! wrappers over a reset [`FlushEncoder`]/[`FlushDecoder`].
//!
//! Two things anchor the stream. A connection's opening frame has its own
//! tag, and a frame's first update ships its link sequence whole. A live
//! link's frames tile its sequence space (the resume window, then every
//! later update, in order), so the decoder knows where each frame must
//! start. TCP never loses, repeats or reorders a frame, but a fault proxy
//! between the ends may: the decoder skips a repeat, holds a frame that
//! arrives one ahead of its predecessor until the predecessor decodes,
//! and refuses a lost frame's successors, which closes the connection —
//! it never decodes against a base the sender did not have
//! ([`FlushDecoder::decode`]). Cut markers need no place in this run:
//! the cut's link stamps, not the markers' positions, decide whether a
//! cut is consistent.
//!
//! **The reset rule: codec state never outlives its connection.** The
//! outbound link driver resets its encoder on every connect; the inbound
//! driver is one per connection and decodes every frame in order,
//! duplicates included, so both bases advance alike. A reconnect empties
//! both ends' state, an overflowing output queue disconnects and discards
//! the frames it held, a frame the receiver refuses closes the link, and
//! the resume window is re-encoded from an empty base. Nothing past the
//! flush codec sees a delta: `Update::encode_wire`, WAL receipts,
//! snapshots and the core get absolute updates.

use super::{
    bad_data, decode_partition_map, encode_partition_map, TAG_CUT_MARKER, TAG_HELLO_ACK,
    TAG_MULTI_BATCH, TAG_MULTI_BATCH_NEXT, TAG_PEER_ACK, TAG_PEER_HELLO, WIRE_SEQ_BITS,
    WIRE_SEQ_MASK, WIRE_VERSION,
};
use prcc_checker::UpdateId;
use prcc_clock::encoding::{read_varint_at as get_varint, write_varint};
use prcc_clock::WireClock;
use prcc_core::Update;
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_net::VirtualTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
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

/// Fewest bytes one update occupies in a flush frame: one varint byte each
/// for the link sequence, issue stamp, id, issuer, register, value and pad
/// length (a zero-width clock ships no bitmap).
const MIN_UPDATE_BYTES: usize = 7;

/// Fewest bytes one section occupies: its partition, its update count and
/// one update.
const MIN_SECTION_BYTES: usize = 2 + MIN_UPDATE_BYTES;

/// How many of `claimed` items, each at least `min_bytes` long, a decoder
/// may reserve room for when `left` payload bytes remain: a count read off
/// the wire is believed only as far as the frame's length can back it, so
/// a forged count costs no more memory than the bytes that carried it.
fn bounded_capacity(claimed: u64, left: usize, min_bytes: usize) -> usize {
    usize::try_from(claimed)
        .unwrap_or(usize::MAX)
        .min(left / min_bytes)
}

/// A signed counter change as an unsigned varint value: 0, -1, 1, -2, 2…
/// become 0, 1, 2, 3, 4…, so a small change of either sign is one byte. A
/// live issuer's counters only grow, but the codec stays total over any
/// pair of clocks (probes ship recorded streams whatever their order).
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(shipped: u64) -> i64 {
    ((shipped >> 1) as i64) ^ -((shipped & 1) as i64)
}

/// What the previous update of one partition on a connection carried —
/// the base its next update ships deltas against. A fresh base (`seq` 0:
/// no update yet, as link sequences start at 1) is all zeros and takes its
/// counter width from the partition's first update.
#[derive(Debug, Default)]
struct Base {
    /// Link sequence.
    seq: u64,
    /// The id as shipped: its low [`WIRE_SEQ_BITS`] bits.
    id: u64,
    /// Timestamp counters.
    counters: Vec<u64>,
}

impl Base {
    /// Appends `update` (link sequence `seq`) as deltas from this base and
    /// advances the base to it. The frame's first update ships its
    /// sequence `absolute`ly; every other one ships the (positive)
    /// distance from its partition's previous sequence.
    // lint: hot-path
    fn encode<C: WireClock>(
        &mut self,
        seq: u64,
        update: &Update<C>,
        absolute: bool,
        pad: usize,
        out: &mut Vec<u8>,
    ) {
        let counters = update.clock.counter_values();
        if self.seq == 0 {
            self.counters.clear();
            self.counters.resize(counters.len(), 0);
        }
        debug_assert!(absolute || seq > self.seq, "link sequences ascend");
        debug_assert_eq!(counters.len(), self.counters.len(), "one width");
        write_varint(
            out,
            if absolute {
                seq
            } else {
                seq.wrapping_sub(self.seq)
            },
        );
        // v6: the origin's wall-clock issue stamp (micros since epoch;
        // 0 = not sampled for tracing). WAL receipts and snapshots never
        // carry it — they must stay free of wall-clock bytes.
        write_varint(out, update.issued_at.0);
        // v9: the id ships without its node bits — the receiver restores
        // them from the link's handshake.
        let id = update.id.0 & WIRE_SEQ_MASK;
        write_varint(out, id.wrapping_sub(self.id) & WIRE_SEQ_MASK);
        write_varint(out, update.issuer.index() as u64);
        write_varint(out, u64::from(update.register.0));
        write_varint(out, update.value);
        // The changed-counter bitmap, then the changes of the counters it
        // names, in index order.
        let bitmap = out.len();
        out.resize(bitmap + counters.len().div_ceil(8), 0);
        for (k, (&now, base)) in counters.iter().zip(&mut self.counters).enumerate() {
            if now != *base {
                out[bitmap + k / 8] |= 1 << (k % 8);
                write_varint(out, zigzag(now.wrapping_sub(*base) as i64));
                *base = now;
            }
        }
        write_varint(out, pad as u64);
        out.resize(out.len() + pad, 0);
        self.seq = seq;
        self.id = id;
    }
    // lint: end-hot-path

    /// Reads one update shipped against this base and advances the base to
    /// it; `seq` is the link sequence the caller resolved from the update's
    /// leading varint (already read).
    fn decode<C, F>(
        &mut self,
        seq: u64,
        payload: &[u8],
        at: &mut usize,
        make_clock: &mut F,
    ) -> io::Result<Update<C>>
    where
        C: WireClock,
        F: FnMut(ReplicaId) -> Option<C>,
    {
        let stamp = get_varint(payload, at)?;
        let id_delta = get_varint(payload, at)?;
        if id_delta > WIRE_SEQ_MASK {
            // Node bits on the wire would alias another node's id space
            // once the sender's are OR-ed in.
            return Err(bad_data("wire id carries node bits"));
        }
        let id = (self.id + id_delta) & WIRE_SEQ_MASK;
        let issuer = usize::try_from(get_varint(payload, at)?).unwrap_or(usize::MAX);
        let register =
            u32::try_from(get_varint(payload, at)?).map_err(|_| bad_data("register id"))?;
        let value = get_varint(payload, at)?;
        let mut clock = make_clock(ReplicaId(issuer)).ok_or_else(|| bad_data("unknown issuer"))?;
        let counters = clock.counters_mut();
        let width = counters.len();
        if self.seq == 0 {
            self.counters.clear();
            self.counters.resize(width, 0);
        } else if self.counters.len() != width {
            // A link ships one issuer per partition; deltas against
            // another replica's counters would be meaningless.
            return Err(bad_data(
                "issuer's clock width differs from the partition's base",
            ));
        }
        let bitmap = payload
            .get(*at..*at + width.div_ceil(8))
            .ok_or_else(|| bad_data("truncated counter bitmap"))?;
        *at += bitmap.len();
        if bitmap
            .last()
            .is_some_and(|&last| width % 8 != 0 && last >> (width % 8) != 0)
        {
            return Err(bad_data(
                "counter bitmap names a counter past the clock's width",
            ));
        }
        for (k, (counter, base)) in counters.iter_mut().zip(&mut self.counters).enumerate() {
            if bitmap[k / 8] & (1 << (k % 8)) != 0 {
                let delta = get_varint(payload, at)?;
                if delta == 0 {
                    return Err(bad_data("counter bitmap names an unchanged counter"));
                }
                *base = base
                    .checked_add_signed(unzigzag(delta))
                    .ok_or_else(|| bad_data("counter delta overflows"))?;
            }
            *counter = *base;
        }
        let pad = get_varint(payload, at)?;
        if ((payload.len() - *at) as u64) < pad {
            return Err(bad_data("truncated pad"));
        }
        *at += pad as usize;
        self.seq = seq;
        self.id = id;
        Ok(Update {
            id: UpdateId(id),
            issuer: ReplicaId(issuer),
            register: RegisterId(register),
            value,
            clock,
            issued_at: VirtualTime(stamp),
            received_at: VirtualTime::ZERO,
        })
    }
}

/// The sending end of a connection's flush codec: one base per
/// partition the connection has carried, reset at every connect (see the
/// module docs).
#[derive(Debug, Default)]
pub struct FlushEncoder {
    /// One base per partition carried, first-seen order (a link carries a
    /// handful of partitions, so a scan beats a map).
    bases: Vec<(PartitionId, Base)>,
    /// The connection's opening frame is written.
    opened: bool,
    /// Scratch for [`FlushEncoder::encode_entries_into`]: the partitions of
    /// the run being encoded, first-seen order, with their update counts.
    order: Vec<(PartitionId, usize)>,
}

/// Writes one flush frame of `count` non-empty sections against `bases`:
/// the connection's opening frame unless it is `opened` already.
// lint: hot-path
fn encode_frame<'a, C, U>(
    bases: &mut Vec<(PartitionId, Base)>,
    opened: &mut bool,
    count: usize,
    sections: impl Iterator<Item = (PartitionId, usize, U)>,
    pad: usize,
    out: &mut Vec<u8>,
) where
    C: WireClock + 'a,
    U: Iterator<Item = (u64, &'a Update<C>)>,
{
    let next = std::mem::replace(opened, true);
    out.push(if next {
        TAG_MULTI_BATCH_NEXT
    } else {
        TAG_MULTI_BATCH
    });
    write_varint(out, count as u64);
    let mut absolute = true;
    for (partition, len, updates) in sections {
        write_varint(out, u64::from(partition.0));
        write_varint(out, len as u64);
        let at = match bases.iter().position(|(p, _)| *p == partition) {
            Some(at) => at,
            None => {
                bases.push((partition, Base::default()));
                bases.len() - 1
            }
        };
        let base = &mut bases[at].1;
        for (seq, update) in updates {
            base.encode(seq, update, absolute, pad, out);
            absolute = false;
        }
    }
}

impl FlushEncoder {
    /// Empties every base, keeping the allocations: the next frame opens a
    /// connection.
    pub(crate) fn reset(&mut self) {
        self.opened = false;
        for (_, base) in &mut self.bases {
            base.seq = 0;
            base.id = 0;
        }
    }

    /// Appends one flush frame carrying `sections` to `out` (typically a
    /// leased frame buffer with the length slot already reserved by
    /// [`append_frame`](super::append_frame)) and advances the bases.
    /// Empty sections are skipped (the decoder refuses them); section
    /// order and per-partition update order are preserved; `pad` zero
    /// bytes ride along with each update, simulating larger values.
    pub fn encode_into<C: WireClock>(
        &mut self,
        sections: &FlushSections<C>,
        pad: usize,
        out: &mut Vec<u8>,
    ) {
        let count = sections.iter().filter(|(_, us)| !us.is_empty()).count();
        let live = sections.iter().filter(|(_, us)| !us.is_empty());
        let sections = live.map(|(partition, updates)| {
            let updates = updates.iter().map(|(seq, update)| (*seq, update));
            (*partition, updates.len(), updates)
        });
        encode_frame(&mut self.bases, &mut self.opened, count, sections, pad, out);
    }

    /// [`FlushEncoder::encode_into`] for a run of `(link seq, partition,
    /// update)` entries in link order, borrowed as they sit in the link's
    /// batch: one section per partition present, first-seen order. Returns
    /// the number of sections written.
    pub fn encode_entries_into<C: WireClock>(
        &mut self,
        entries: &[(u64, PartitionId, Update<C>)],
        pad: usize,
        out: &mut Vec<u8>,
    ) -> usize {
        self.order.clear();
        for (_, partition, _) in entries {
            // Linear scan: a flush touches at most a handful of partitions.
            match self.order.iter_mut().find(|(p, _)| p == partition) {
                Some((_, len)) => *len += 1,
                None => self.order.push((*partition, 1)),
            }
        }
        let sections = self.order.iter().map(|&(partition, len)| {
            let updates = entries
                .iter()
                .filter(move |(_, p, _)| *p == partition)
                .map(|(seq, _, update)| (*seq, update));
            (partition, len, updates)
        });
        let count = self.order.len();
        encode_frame(&mut self.bases, &mut self.opened, count, sections, pad, out);
        self.order.len()
    }
    // lint: end-hot-path
}

/// The receiving end of a connection's flush codec: the same bases as the
/// sender's [`FlushEncoder`], advanced by decoding every flush frame of
/// the connection in the sender's order, plus the link sequence the next
/// frame must start at.
#[derive(Debug, Default)]
pub struct FlushDecoder {
    bases: BTreeMap<u32, Base>,
    /// The sequence after the highest one decoded; 0 before the opening
    /// frame.
    next_seq: u64,
    /// A frame that arrived one ahead of its predecessor, held until the
    /// predecessor decodes.
    early: Option<Vec<u8>>,
}

/// Whether a flush frame opens its connection, and the link sequence its
/// first update ships whole.
fn frame_start(payload: &[u8]) -> io::Result<(bool, u64)> {
    let opening = match payload.first() {
        Some(&TAG_MULTI_BATCH) => true,
        Some(&TAG_MULTI_BATCH_NEXT) => false,
        _ => return Err(bad_data("expected multi-partition batch")),
    };
    let mut at = 1;
    if get_varint(payload, &mut at)? == 0 {
        return Err(bad_data("multi-batch with no sections"));
    }
    // The first section's partition and update count.
    get_varint(payload, &mut at)?;
    get_varint(payload, &mut at)?;
    Ok((opening, get_varint(payload, &mut at)?))
}

impl FlushDecoder {
    /// Empties every base, keeping the allocations: the next frame must
    /// open a connection.
    fn reset(&mut self) {
        self.next_seq = 0;
        self.early = None;
        for base in self.bases.values_mut() {
            base.seq = 0;
            base.id = 0;
        }
    }

    /// Decodes a peer flush frame — the only update framing a peer may
    /// send — into its `(partition, [(link seq, update)])` sections, in
    /// wire order, the ids as shipped (link-local: node bits zero; the
    /// receiving driver, which knows the link's sender, completes them
    /// with [`restore_sender`]), and advances the bases.
    ///
    /// A frame can arrive out of the sender's order only through a fault
    /// between the two ends (TCP never does it; the chaos proxy does). A
    /// repeat of a frame already decoded or held yields no sections. One
    /// frame ahead of its predecessor is held, yielding no sections, and
    /// decodes right after the predecessor, whose call yields both frames'
    /// sections. A second frame ahead, or a held frame that does not
    /// follow its predecessor, means a frame was lost: `InvalidData`, like
    /// a malformed frame. The receiver's acknowledged line stops at the
    /// gap, the connection closes, and the link resends everything past
    /// the line on its next connection.
    ///
    /// Malformed — corruption or a hostile peer: an opening frame mid-run
    /// (other than a repeat), a frame with no sections, an empty section,
    /// link sequence 0, a sequence delta of 0, an id delta at or above
    /// 2^[`WIRE_SEQ_BITS`], an issuer whose clock
    /// width differs from its partition's base, a bitmap bit past that
    /// width or naming an unchanged counter, a counter that overflows, or
    /// bytes after the last section. After an error the decoder is spent:
    /// its connection must close.
    pub fn decode<C, F>(
        &mut self,
        payload: &[u8],
        mut make_clock: F,
    ) -> io::Result<FlushSections<C>>
    where
        C: WireClock,
        F: FnMut(ReplicaId) -> Option<C>,
    {
        let (opening, first) = frame_start(payload)?;
        if self.next_seq != 0 && first < self.next_seq {
            return Ok(Vec::new());
        }
        if opening && self.next_seq != 0 {
            // No transit fault makes one: only its repeat, caught above.
            return Err(bad_data("an opening flush frame mid-run"));
        }
        let lost = || bad_data("a flush frame was lost in transit");
        if !opening && first != self.next_seq {
            match &self.early {
                // The held frame's repeat is a repeat too.
                Some(early) if early[..] == *payload => {}
                Some(_) => return Err(lost()),
                None => self.early = Some(payload.to_vec()),
            }
            return Ok(Vec::new());
        }
        let mut sections = self.decode_frame(payload, &mut make_clock)?;
        if let Some(early) = self.early.take() {
            if frame_start(&early)? != (false, self.next_seq) {
                return Err(lost());
            }
            sections.extend(self.decode_frame(&early, &mut make_clock)?);
        }
        Ok(sections)
    }

    /// Decodes one frame against the bases, whatever its place in the run.
    fn decode_frame<C, F>(
        &mut self,
        payload: &[u8],
        mut make_clock: F,
    ) -> io::Result<FlushSections<C>>
    where
        C: WireClock,
        F: FnMut(ReplicaId) -> Option<C>,
    {
        if !matches!(
            payload.first(),
            Some(&(TAG_MULTI_BATCH | TAG_MULTI_BATCH_NEXT))
        ) {
            return Err(bad_data("expected multi-partition batch"));
        }
        let mut at = 1;
        let count = get_varint(payload, &mut at)?;
        if count == 0 {
            return Err(bad_data("multi-batch with no sections"));
        }
        if count > 1 << 20 {
            return Err(bad_data("absurd section count"));
        }
        let left = payload.len() - at;
        let mut sections = Vec::with_capacity(bounded_capacity(count, left, MIN_SECTION_BYTES));
        // The highest sequence of the frame so far; 0 until its first
        // update, whose sequence ships absolute.
        let mut high = 0;
        for _ in 0..count {
            let partition = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("partition id"))?;
            let len = get_varint(payload, &mut at)?;
            if len == 0 {
                return Err(bad_data("empty multi-batch section"));
            }
            let left = payload.len() - at;
            let mut updates = Vec::with_capacity(bounded_capacity(len, left, MIN_UPDATE_BYTES));
            let base = self.bases.entry(partition).or_default();
            for _ in 0..len {
                let shipped = get_varint(payload, &mut at)?;
                let seq = if high == 0 {
                    if shipped == 0 {
                        // Sequence 0 would bypass the receiver's link
                        // watermark, and a re-delivered copy pins the
                        // replica's pending buffer forever.
                        return Err(bad_data("link sequence 0"));
                    }
                    shipped
                } else if shipped == 0 {
                    return Err(bad_data("link sequence delta 0"));
                } else {
                    base.seq
                        .checked_add(shipped)
                        .ok_or_else(|| bad_data("link sequence overflows"))?
                };
                high = high.max(seq);
                updates.push((seq, base.decode(seq, payload, &mut at, &mut make_clock)?));
            }
            sections.push((PartitionId(partition), updates));
        }
        if at != payload.len() {
            return Err(bad_data("trailing bytes in multi-batch"));
        }
        self.next_seq = high.saturating_add(1);
        Ok(sections)
    }
}

/// Encodes one whole peer flush as a single frame payload appended to
/// `out`, from an empty base: the first frame of a connection, and the
/// one-shot form for probes and tools. A live link encodes through its
/// connection's [`FlushEncoder`].
pub fn encode_multi_batch_into<C: WireClock>(
    sections: &FlushSections<C>,
    pad: usize,
    out: &mut Vec<u8>,
) {
    thread_local! {
        /// An encoder reset before every use: fresh state that keeps its
        /// allocations, so a one-shot frame costs what a live link's does.
        static ONE_SHOT: RefCell<FlushEncoder> = RefCell::default();
    }
    ONE_SHOT.with_borrow_mut(|encoder| {
        encoder.reset();
        encoder.encode_into(sections, pad, out);
    });
}

/// Decodes a connection's opening flush frame on its own, against empty
/// bases — for probes, tools and tests that read a frame in isolation. A
/// later frame (tag 7) ships deltas from bases this decoder does not have
/// and is refused; read a connection's frames through its
/// [`FlushDecoder`].
pub fn decode_multi_batch<C, F>(payload: &[u8], make_clock: F) -> io::Result<FlushSections<C>>
where
    C: WireClock,
    F: FnMut(ReplicaId) -> Option<C>,
{
    if payload.first() == Some(&TAG_MULTI_BATCH_NEXT) {
        return Err(bad_data(
            "a later flush frame decodes only on its connection",
        ));
    }
    thread_local! {
        /// See [`encode_multi_batch_into`]'s encoder.
        static ONE_SHOT: RefCell<FlushDecoder> = RefCell::default();
    }
    ONE_SHOT.with_borrow_mut(|decoder| {
        decoder.reset();
        decoder.decode_frame(payload, make_clock)
    })
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
/// token. Markers are unsequenced and never resent after a reconnect. A
/// lost, repeated or reordered marker makes the audit inconclusive, never
/// wrong, by construction: each snapshot stamps its links' sequences, and
/// the checker refuses a cut in which a node received past what its
/// sender had sent when that sender recorded.
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

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_clock::{EdgeClock, EdgeProtocol, Protocol};
    use prcc_graph::topologies;

    #[test]
    fn pre_allocation_is_bounded_by_the_bytes_left() {
        // A count is believed only as far as the frame's bytes back it.
        assert_eq!(bounded_capacity(u64::MAX, 10, MIN_UPDATE_BYTES), 1);
        assert_eq!(bounded_capacity(1 << 16, 6, MIN_UPDATE_BYTES), 0);
        assert_eq!(bounded_capacity(3, 1 << 20, MIN_UPDATE_BYTES), 3);
        assert_eq!(bounded_capacity(1 << 20, 90, MIN_SECTION_BYTES), 10);
        // The bound is a true minimum: the smallest update there is — seq
        // 1, no stamp, id 0, issuer 0, register 0, value 0, an unchanged
        // clock, no pad — takes at least that many bytes.
        let p = EdgeProtocol::new(topologies::line(2));
        let update = Update {
            id: UpdateId(0),
            issuer: ReplicaId(0),
            register: RegisterId(0),
            value: 0,
            clock: p.new_clock(ReplicaId(0)),
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        let mut frame = Vec::new();
        encode_multi_batch_into(&vec![(PartitionId(0), vec![(1, update)])], 0, &mut frame);
        // Tag, section count, then the one section.
        assert!(frame.len() - 2 >= MIN_SECTION_BYTES);
        // A forged 10-byte frame claiming 2^62 updates reserves room for at
        // most one, and is refused.
        let mut forged = vec![TAG_MULTI_BATCH, 1, 0];
        write_varint(&mut forged, 1 << 62);
        forged.extend_from_slice(&[1, 0, 0, 0, 0]);
        let err = decode_multi_batch::<EdgeClock, _>(&forged, |_| None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// The one-shot decoder reads opening frames only: a later frame's
    /// deltas against empty bases would decode to the wrong sequences, ids
    /// and clocks, so it is refused; its connection's decoder reads it.
    #[test]
    fn the_one_shot_decoder_refuses_a_later_frame() {
        let p = EdgeProtocol::new(topologies::line(2));
        let frame = |seq: u64| {
            let mut clock = p.new_clock(ReplicaId(0));
            p.advance(ReplicaId(0), &mut clock, RegisterId(0));
            let update = Update {
                id: UpdateId(seq),
                issuer: ReplicaId(0),
                register: RegisterId(0),
                value: seq,
                clock,
                issued_at: VirtualTime::ZERO,
                received_at: VirtualTime::ZERO,
            };
            vec![(PartitionId(0), vec![(seq, update)])]
        };
        let mut encoder = FlushEncoder::default();
        let (mut opening, mut later) = (Vec::new(), Vec::new());
        encoder.encode_into(&frame(1), 0, &mut opening);
        encoder.encode_into(&frame(2), 0, &mut later);
        let make = |k| Some(p.new_clock(k));
        assert!(decode_multi_batch(&opening, make).is_ok());
        let err = decode_multi_batch(&later, make).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut decoder = FlushDecoder::default();
        decoder.decode(&opening, make).expect("the opening frame");
        let back = decoder.decode(&later, make).expect("the later frame");
        assert_eq!((back[0].1[0].0, back[0].1[0].1.value), (2, 2));
    }
}
