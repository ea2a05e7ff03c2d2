//! Property tests: the wire protocol round-trips clocks, updates, topology
//! and sharding configurations over random share graphs, preserves
//! partition tags on every frame, and the in-place flush encoder stays
//! byte-identical to the copy-assemble reference kept here. The v13 delta
//! frames survive reconnects that re-encode the resume window from an
//! empty base, mutated streams never panic the connection decoder, and
//! every delta shape a well-formed sender cannot write is refused.

use prcc_checker::UpdateId;
use prcc_clock::encoding::{read_varint, write_varint};
use prcc_clock::{CompressedProtocol, EdgeProtocol, Protocol, WireClock};
use prcc_core::Update;
use prcc_graph::{topologies, PartitionId, PartitionMap, RegisterId, ReplicaId, ShareGraph};
use prcc_net::VirtualTime;
use prcc_service::wire::{
    decode_multi_batch, decode_partition_map, decode_peer_hello, decode_share_graph,
    encode_multi_batch_into, encode_partition_map, encode_peer_hello, encode_share_graph,
    restore_sender, FlushDecoder, FlushEncoder, FlushSections, PeerHello, WIRE_SEQ_BITS,
    WIRE_SEQ_MASK,
};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn arb_share_graph() -> impl Strategy<Value = ShareGraph> {
    (2usize..7, 1usize..8, 2usize..4, 0u64..1000).prop_map(|(n, regs, holders, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        topologies::random_connected(n, regs, holders, &mut rng)
    })
}

fn arb_partition_map() -> impl Strategy<Value = PartitionMap> {
    (arb_share_graph(), 1u32..9, 0usize..4).prop_map(|(g, partitions, extra_nodes)| {
        let nodes = g.num_replicas() + extra_nodes;
        PartitionMap::rotated(g, partitions, nodes).expect("valid rotation")
    })
}

/// Runs `advances` random advances on a clock of replica `i`, producing a
/// non-trivial counter pattern.
fn churn_clock<P: Protocol>(p: &P, i: ReplicaId, advances: usize, seed: u64) -> P::Clock {
    let g = p.share_graph();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
    let mut clock = p.new_clock(i);
    if regs.is_empty() {
        return clock;
    }
    for _ in 0..advances {
        let x = regs[rng.gen_range(0..regs.len())];
        p.advance(i, &mut clock, x);
    }
    clock
}

/// Roles with registers: the replicas that can issue.
fn issuers(g: &ShareGraph) -> Vec<ReplicaId> {
    g.replicas()
        .filter(|&k| !g.registers_of(k).is_empty())
        .collect()
}

/// A link's update stream as flush sections, the way node `peer` ships
/// it: for each entry of `parts` a run of 1–3 updates of that partition,
/// link seqs contiguous from `seq_base` in section order, ids ascending as
/// one node mints them, half of them carrying an issue stamp. A partition
/// has one issuer (the role `peer` plays there), whose clock only grows —
/// random advances, and merges of other replicas' clocks — and a repeated
/// partition continues its run.
fn build_sections<P: Protocol>(
    p: &P,
    g: &ShareGraph,
    peer: usize,
    parts: &[u32],
    seed: u64,
    seq_base: u64,
) -> FlushSections<P::Clock> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let roles = issuers(g);
    if roles.is_empty() {
        return Vec::new();
    }
    let mut clocks: BTreeMap<u32, (ReplicaId, P::Clock)> = BTreeMap::new();
    let (mut seq, mut id) = (seq_base, rng.gen_range(0u64..1 << 20));
    let mut sections = Vec::new();
    for &part in parts {
        let (issuer, clock) = clocks.entry(part).or_insert_with(|| {
            let i = roles[part as usize % roles.len()];
            (i, p.new_clock(i))
        });
        let regs: Vec<RegisterId> = g.registers_of(*issuer).iter().collect();
        let mut updates = Vec::new();
        for _ in 0..rng.gen_range(1usize..4) {
            if rng.gen_bool(0.3) {
                let j = roles[rng.gen_range(0..roles.len())];
                let theirs = churn_clock(p, j, rng.gen_range(1usize..40), rng.next_u64());
                p.merge(*issuer, clock, j, &theirs);
            }
            let x = regs[rng.gen_range(0..regs.len())];
            for _ in 0..rng.gen_range(1usize..4) {
                p.advance(*issuer, clock, x);
            }
            id += rng.gen_range(1u64..40);
            let stamped = rng.gen_bool(0.5);
            updates.push((
                seq,
                Update {
                    id: UpdateId(((peer as u64) << WIRE_SEQ_BITS) | id),
                    issuer: *issuer,
                    register: x,
                    value: rng.gen_range(0u64..u64::MAX / 2),
                    clock: clock.clone(),
                    issued_at: VirtualTime(if stamped {
                        1_700_000_000_000_000 + seq
                    } else {
                        0
                    }),
                    received_at: VirtualTime::ZERO,
                },
            ));
            seq += 1;
        }
        sections.push((PartitionId(part), updates));
    }
    sections
}

/// What [`encode_with`] keeps per connection: whether the opening frame
/// is written, and per partition the base — link seq, shipped id,
/// counters.
#[derive(Default)]
struct RefLink {
    opened: bool,
    bases: BTreeMap<u32, (u64, u64, Vec<u64>)>,
}

/// The *reference implementation* of the v13 flush frame, on connection
/// `link` (fresh for a connection's first frame): a tag byte (3 opens the
/// connection, 7 every later frame), the count of non-empty sections, then
/// per section the partition,
/// the update count, and per update `link seq (whole for the frame's
/// first update, else the distance from its partition's previous one) |
/// issue stamp | id's low 40 bits minus the base's, mod 2^40 | issuer |
/// register | value | changed-counter bitmap | zigzag changes of the
/// changed counters | pad length | pad zeros`, and nothing after the last
/// section. Assembled the obvious, copying way; the hot path encodes with
/// a [`FlushEncoder`] straight into a leased frame buffer, and
/// `in_place_multi_batch_is_byte_identical_to_the_reference_encoder` holds
/// the two byte-for-byte equal — the guarantee that peers interoperate
/// with the in-place encoder unchanged.
fn encode_with<C: WireClock>(
    link: &mut RefLink,
    sections: &FlushSections<C>,
    pad: usize,
) -> Vec<u8> {
    let mut out = vec![if link.opened { 7u8 } else { 3 }];
    link.opened = true;
    let bases = &mut link.bases;
    let live: Vec<_> = sections.iter().filter(|(_, u)| !u.is_empty()).collect();
    write_varint(&mut out, live.len() as u64);
    let mut first = true;
    for (partition, updates) in live {
        write_varint(&mut out, u64::from(partition.0));
        write_varint(&mut out, updates.len() as u64);
        for (seq, u) in updates {
            let counters = u.clock.counter_values().to_vec();
            let (base_seq, base_id, base_counters) =
                bases
                    .remove(&partition.0)
                    .unwrap_or((0, 0, vec![0; counters.len()]));
            write_varint(&mut out, if first { *seq } else { seq - base_seq });
            first = false;
            write_varint(&mut out, u.issued_at.0);
            let id = u.id.0 % (1 << 40);
            write_varint(&mut out, (id + (1 << 40) - base_id) % (1 << 40));
            write_varint(&mut out, u.issuer.index() as u64);
            write_varint(&mut out, u64::from(u.register.0));
            write_varint(&mut out, u.value);
            let mut bitmap = vec![0u8; counters.len().div_ceil(8)];
            let mut changes = Vec::new();
            for (k, (&now, &was)) in counters.iter().zip(&base_counters).enumerate() {
                if now != was {
                    bitmap[k / 8] |= 1 << (k % 8);
                    let change = i128::from(now) - i128::from(was);
                    write_varint(&mut changes, zigzag(change));
                }
            }
            out.extend_from_slice(&bitmap);
            out.extend_from_slice(&changes);
            write_varint(&mut out, pad as u64);
            out.extend(std::iter::repeat_n(0u8, pad));
            bases.insert(partition.0, (*seq, id, counters));
        }
    }
    out
}

/// A counter change as v13 ships it: 0, -1, 1, -2, 2… as 0, 1, 2, 3, 4….
fn zigzag(change: i128) -> u64 {
    if change < 0 {
        (-change * 2 - 1) as u64
    } else {
        (change * 2) as u64
    }
}

/// [`encode_with`] from an empty base: a connection's first frame.
fn encode_multi_batch<C: WireClock>(sections: &FlushSections<C>, pad: usize) -> Vec<u8> {
    encode_with(&mut RefLink::default(), sections, pad)
}

/// Flattens sections into `(seq, partition, update)` entries in link
/// order — what a link's batch holds.
fn entries_of<C: Clone>(sections: &FlushSections<C>) -> Vec<(u64, PartitionId, Update<C>)> {
    let mut entries: Vec<_> = sections
        .iter()
        .flat_map(|(p, us)| us.iter().map(|(seq, u)| (*seq, *p, u.clone())))
        .collect();
    entries.sort_by_key(|(seq, _, _)| *seq);
    entries
}

/// The absolute sections a run of entries must decode to: one per
/// partition present, first-seen order.
fn sections_of<C: Clone>(entries: &[(u64, PartitionId, Update<C>)]) -> FlushSections<C> {
    let mut sections: FlushSections<C> = Vec::new();
    for (seq, partition, u) in entries {
        match sections.iter_mut().find(|(p, _)| p == partition) {
            Some((_, us)) => us.push((*seq, u.clone())),
            None => sections.push((*partition, vec![(*seq, u.clone())])),
        }
    }
    sections
}

/// Ships `entries` as a connection carries them: frames cut at `cuts`
/// (offsets into `entries`), each encoded by the connection's one
/// [`FlushEncoder`] and decoded by its one [`FlushDecoder`]. Returns the
/// frames and, per frame, the decode (ids completed from `peer`).
fn ship<P: Protocol>(
    p: &P,
    g: &ShareGraph,
    peer: usize,
    entries: &[(u64, PartitionId, Update<P::Clock>)],
    cuts: &[usize],
) -> (Vec<Vec<u8>>, Vec<FlushSections<P::Clock>>)
where
    P::Clock: WireClock,
{
    let (mut encoder, mut decoder) = (FlushEncoder::default(), FlushDecoder::default());
    let (mut frames, mut decoded) = (Vec::new(), Vec::new());
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(entries.len())).collect();
    bounds.extend([0, entries.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    for run in bounds.windows(2) {
        let chunk = &entries[run[0]..run[1]];
        let mut frame = Vec::new();
        encoder.encode_entries_into(chunk, 0, &mut frame);
        let mut back = decoder
            .decode(&frame, |i| {
                (i.index() < g.num_replicas()).then(|| p.new_clock(i))
            })
            .expect("a connection decodes its own frames");
        restore_sender(&mut back, peer);
        frames.push(frame);
        decoded.push(back);
    }
    (frames, decoded)
}

/// Appends one update in the v13 layout from raw field values — the
/// shapes no well-formed encoder writes.
fn raw_update(
    out: &mut Vec<u8>,
    seq: u64,
    id: u64,
    issuer: ReplicaId,
    bitmap: &[u8],
    changes: &[u64],
) {
    write_varint(out, seq);
    write_varint(out, 0); // stamp
    write_varint(out, id);
    write_varint(out, issuer.index() as u64);
    write_varint(out, 0); // register
    write_varint(out, 7); // value
    out.extend_from_slice(bitmap);
    for &d in changes {
        write_varint(out, d);
    }
    write_varint(out, 0); // pad
}

/// A connection's opening frame header, one section (partition 4) of
/// `updates` updates.
fn raw_frame(updates: u64) -> Vec<u8> {
    let mut frame = vec![3u8, 1, 4];
    write_varint(&mut frame, updates);
    frame
}

/// A bitmap of `width` counters with `bits` set.
fn bitmap(width: usize, bits: &[usize]) -> Vec<u8> {
    let mut map = vec![0u8; width.div_ceil(8)];
    for &k in bits {
        map[k / 8] |= 1 << (k % 8);
    }
    map
}

/// Flips, truncates, splices or varint-inflates `frame` at `at`.
fn mutate(frame: &[u8], kind: u8, at: usize, other: &[u8], byte: u8) -> Vec<u8> {
    let at = at % frame.len().max(1);
    let mut out = frame.to_vec();
    match kind % 4 {
        0 => {
            if let Some(b) = out.get_mut(at) {
                *b ^= 1 << (byte % 8);
            }
        }
        1 => out.truncate(at),
        2 => {
            // Splice: a run of another frame's bytes replaces the tail.
            let from = usize::from(byte) % other.len().max(1);
            out.truncate(at);
            out.extend_from_slice(other.get(from..).unwrap_or_default());
        }
        _ => {
            // Inflate: a final varint byte becomes a continuation plus a
            // zero terminator (same value if it ended a varint; garbage
            // otherwise), or a continuation run pads out to 10 bytes.
            if let Some(&b) = out.get(at) {
                let fill: &[u8] = if b < 0x80 {
                    &[0x80, 0x00]
                } else {
                    &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]
                };
                out[at] = b | 0x80;
                out.splice(at + 1..at + 1, fill[1..].iter().copied());
            }
        }
    }
    out
}

fn batch_round_trip<P: Protocol>(
    p: &P,
    g: &ShareGraph,
    peer: usize,
    partition: PartitionId,
    seed: u64,
    pad: usize,
) where
    P::Clock: WireClock,
{
    let sections = build_sections(p, g, peer, &[partition.0], seed, 1);
    let payload = encode_multi_batch(&sections, pad);
    let mut decoded = decode_multi_batch(&payload, |i| {
        (i.index() < g.num_replicas()).then(|| p.new_clock(i))
    })
    .expect("well-formed batch");
    restore_sender(&mut decoded, peer);
    assert_eq!(decoded.len(), 1);
    assert_eq!(
        decoded[0].0, partition,
        "partition tag must survive the wire"
    );
    assert_eq!(decoded[0].1.len(), sections[0].1.len());
    for ((aseq, a), (bseq, b)) in decoded[0].1.iter().zip(&sections[0].1) {
        assert_eq!(aseq, bseq);
        assert_eq!(
            (a.id, a.issuer, a.register, a.value, a.issued_at),
            (b.id, b.issuer, b.register, b.value, b.issued_at)
        );
        assert_eq!(a.clock, b.clock);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Share-graph topology configurations survive the wire byte-exactly.
    #[test]
    fn share_graph_round_trips(g in arb_share_graph()) {
        let mut buf = Vec::new();
        encode_share_graph(&g, &mut buf);
        let mut at = 0;
        let back = decode_share_graph(&buf, &mut at).expect("decode");
        prop_assert_eq!(at, buf.len());
        prop_assert_eq!(back, g);
    }

    /// Partition maps — graph, node count and hosting table — survive the
    /// wire byte-exactly, including maps with idle nodes.
    #[test]
    fn partition_map_round_trips(map in arb_partition_map()) {
        let mut buf = Vec::new();
        encode_partition_map(&map, &mut buf);
        let mut at = 0;
        let back = decode_partition_map(&buf, &mut at).expect("decode");
        prop_assert_eq!(at, buf.len());
        prop_assert_eq!(back, map);
    }

    /// Peer handshakes round-trip for every node of a random sharding.
    #[test]
    fn peer_hello_round_trips(map in arb_partition_map()) {
        for node in 0..map.num_nodes() {
            let hello = PeerHello { node, map: map.clone() };
            let back = decode_peer_hello(&encode_peer_hello(&hello)).expect("decode");
            prop_assert_eq!(back, hello);
        }
    }

    /// Single-section flushes round-trip for both clock representations
    /// and any partition tag, with and without value padding — full ids
    /// restored from the sending `peer`, whichever node that is.
    #[test]
    fn batches_round_trip_all_protocols(
        g in arb_share_graph(),
        peer in 0usize..64,
        partition in 0u32..1000,
        seed in 0u64..500,
        pad in 0usize..96,
    ) {
        let partition = PartitionId(partition);
        batch_round_trip(&EdgeProtocol::new(g.clone()), &g, peer, partition, seed, pad);
        batch_round_trip(&CompressedProtocol::new(g.clone()), &g, peer, partition, seed, pad);
    }

    /// The in-place encoder appends exactly the bytes the copy-assemble
    /// reference produces, after whatever the buffer already holds — on
    /// arbitrary sections (empty, skipped-empty, unsorted and repeated
    /// partitions, mixed sampled/unsampled stamps, varied pads, any
    /// sender), and on a second frame of the same connection, encoded
    /// against the bases the first one left.
    #[test]
    fn in_place_multi_batch_is_byte_identical_to_the_reference_encoder(
        g in arb_share_graph(),
        peer in 0usize..64,
        parts in proptest::collection::vec((0u32..1000, any::<bool>()), 0..6),
        more in proptest::collection::vec(0u32..1000, 1..4),
        seed in 0u64..500,
        pad in 0usize..1100,
        seq_base in 1u64..1 << 50,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let mut tags: Vec<u32> = parts.iter().map(|&(part, _)| part).collect();
        // The second frame continues some of the first frame's partitions.
        tags.extend(more.iter().map(|&k| parts.get(k as usize % 8).map_or(k, |&(part, _)| part)));
        let mut stream = build_sections(&p, &g, peer, &tags, seed, seq_base);
        let second = stream.split_off(parts.len().min(stream.len()));
        for (section, &(_, live)) in stream.iter_mut().zip(&parts) {
            if !live {
                section.1.clear();
            }
        }
        let mut link = RefLink::default();
        let mut encoder = FlushEncoder::default();
        for sections in [&stream, &second] {
            let reference = encode_with(&mut link, sections, pad);
            let mut in_place = b"preexisting".to_vec();
            encoder.encode_into(sections, pad, &mut in_place);
            prop_assert_eq!(&in_place[b"preexisting".len()..], &reference[..]);
        }
        // The one-shot form is a connection's first frame.
        let mut one_shot = Vec::new();
        encode_multi_batch_into(&stream, pad, &mut one_shot);
        prop_assert_eq!(one_shot, encode_multi_batch(&stream, pad));
    }

    /// A whole flush — sections for several partitions — survives the wire
    /// as one frame: section order, partition tags, per-update link seqs,
    /// update contents and per-section update order all intact, for every
    /// clock representation.
    #[test]
    fn multi_batches_round_trip(
        g in arb_share_graph(),
        peer in 0usize..64,
        parts in proptest::collection::vec(0u32..1000, 1..6),
        seed in 0u64..500,
        pad in 0usize..64,
        seq_base in 1u64..1 << 50,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let sections = build_sections(&p, &g, peer, &parts, seed, seq_base);
        prop_assume!(sections.iter().all(|(_, u)| !u.is_empty()));
        let payload = encode_multi_batch(&sections, pad);
        let local = decode_multi_batch(&payload, |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        }).expect("well-formed multi-batch");
        let mut back = local.clone();
        restore_sender(&mut back, peer);
        prop_assert_eq!(back.len(), sections.len());
        for ((bp, bu), (sp, su)) in back.iter().zip(&sections) {
            prop_assert_eq!(bp, sp, "section partition tag must survive in order");
            prop_assert_eq!(bu.len(), su.len());
            for ((aseq, a), (bseq, b)) in bu.iter().zip(su) {
                prop_assert_eq!(aseq, bseq, "link seq must survive the wire");
                prop_assert_eq!(
                    (a.id, a.issuer, a.register, a.value),
                    (b.id, b.issuer, b.register, b.value),
                    "the sender's node bits must be restored"
                );
                prop_assert_eq!(&a.clock, &b.clock);
            }
        }
        // The decoder itself returns the ids as shipped.
        for ((_, lu), (_, su)) in local.iter().zip(&sections) {
            for ((_, a), (_, b)) in lu.iter().zip(su) {
                prop_assert_eq!(a.id.0, b.id.0 & WIRE_SEQ_MASK);
            }
        }
    }

    /// An update shipped with any bit at or above 2^40 in its id (delta)
    /// is refused: OR-ing the link's node bits over it would alias another
    /// node's ids.
    #[test]
    fn untrimmed_wire_ids_are_refused(
        g in arb_share_graph(),
        peer in 0usize..64,
        node_bits in 1u64..1 << 24,
        seed in 0u64..200,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let mut sections = build_sections(&p, &g, 0, &[7], seed, 1);
        sections[0].1.truncate(1);
        sections[0].1[0].1.issued_at = VirtualTime::ZERO;
        let sound = encode_multi_batch(&sections, 0);
        // Tag, one section, partition 7, one update, seq 1, no stamp: the
        // id is the seventh byte on.
        prop_assert_eq!(&sound[..6], &[3u8, 1, 7, 1, 1, 0][..]);
        let (_, id_len) = read_varint(&sound[6..]).expect("id varint");
        let with_id = |id: u64| {
            let mut frame = sound[..6].to_vec();
            write_varint(&mut frame, id);
            frame.extend_from_slice(&sound[6 + id_len..]);
            frame
        };
        let hostile = sections[0].1[0].1.id.0 | node_bits << WIRE_SEQ_BITS;
        let err = decode_multi_batch(&with_id(hostile), |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        }).expect_err("node bits on the wire");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("node bits"), "{}", err);
        // The boundary: the largest id that fits the shipped bits is fine.
        let mut back = decode_multi_batch(&with_id(WIRE_SEQ_MASK), |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        }).expect("2^40 - 1 carries no node bits");
        restore_sender(&mut back, peer);
        prop_assert_eq!(back[0].1[0].1.id.0, (peer as u64) << WIRE_SEQ_BITS | WIRE_SEQ_MASK);
    }

    /// Empty sections never reach the wire: the encoder drops them, and a
    /// flush of only-empty sections produces a frame the decoder refuses.
    #[test]
    fn multi_batch_empty_sections_dropped_or_rejected(
        g in arb_share_graph(),
        parts in proptest::collection::vec((0u32..1000, any::<bool>()), 1..6),
        seed in 0u64..200,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let tags: Vec<u32> = parts.iter().map(|&(part, _)| part).collect();
        let mut sections = build_sections(&p, &g, 3, &tags, seed, 1);
        for (section, &(_, live)) in sections.iter_mut().zip(&parts) {
            if !live {
                section.1.clear();
            }
        }
        let live: Vec<&(PartitionId, Vec<(u64, Update<_>)>)> =
            sections.iter().filter(|(_, u)| !u.is_empty()).collect();
        let payload = encode_multi_batch(&sections, 0);
        let result = decode_multi_batch(&payload, |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        });
        if live.is_empty() {
            let err = result.expect_err("zero-section frame must be refused");
            prop_assert!(err.to_string().contains("no sections"), "{}", err);
        } else {
            let back = result.expect("decode");
            prop_assert_eq!(back.len(), live.len());
            for ((bp, bu), (sp, su)) in back.iter().zip(&live) {
                prop_assert_eq!(bp, sp);
                prop_assert_eq!(bu.len(), su.len());
            }
        }
    }

    /// Truncating an encoded multi-batch anywhere never parses.
    #[test]
    fn truncated_multi_batches_rejected(g in arb_share_graph(), seed in 0u64..100) {
        let p = EdgeProtocol::new(g.clone());
        let sections = build_sections(&p, &g, 3, &[9, 2, 9], seed, 1);
        let payload = encode_multi_batch(&sections, 4);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_multi_batch::<_, _>(&payload[..cut], |i| Some(p.new_clock(i))).is_err(),
                "truncation at {} parsed", cut
            );
        }
    }

    /// Resend safety: a link's stream, cut into frames at random points,
    /// dies at a random frame; the next connection re-encodes an arbitrary
    /// suffix — the resume window, from any point at or before where the
    /// first stopped — from an empty base, in differently cut frames. Each
    /// connection's decode equals the absolute sections of what it
    /// carried, whatever the other connection's bases were.
    #[test]
    fn delta_streams_survive_reconnects_and_resends(
        g in arb_share_graph(),
        peer in 0usize..64,
        parts in proptest::collection::vec(0u32..6, 1..10),
        cuts in proptest::collection::vec(0usize..32, 0..6),
        recuts in proptest::collection::vec(0usize..32, 0..6),
        died in 0usize..32,
        resume in 0usize..32,
        seed in 0u64..500,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let entries = entries_of(&build_sections(&p, &g, peer, &parts, seed, 1));
        let died = died % (entries.len() + 1);
        let resume = resume % (died + 1);
        let (_, first) = ship(&p, &g, peer, &entries[..died], &cuts);
        let window = &entries[resume..];
        let (_, second) = ship(&p, &g, peer, window, &recuts);
        for (carried, decoded) in [(&entries[..died], first), (window, second)] {
            let got: Vec<_> = decoded.iter().flat_map(entries_of).collect();
            prop_assert_eq!(sections_of(&got), sections_of(carried));
        }
    }

    /// Mutated delta streams — a byte flipped, the frame truncated, another
    /// frame's bytes spliced in, a varint inflated — through the
    /// connection decoder never panic, and every refusal is `InvalidData`.
    #[test]
    fn mutated_delta_streams_never_panic(
        g in arb_share_graph(),
        parts in proptest::collection::vec(0u32..6, 1..10),
        cuts in proptest::collection::vec(0usize..32, 0..5),
        victim in 0usize..8,
        kind in 0u8..4,
        at in 0usize..4096,
        byte in any::<u8>(),
        seed in 0u64..500,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let entries = entries_of(&build_sections(&p, &g, 5, &parts, seed, 1));
        let (mut frames, _) = ship(&p, &g, 5, &entries, &cuts);
        let victim = victim % frames.len();
        let other = frames[(victim + 1) % frames.len()].clone();
        frames[victim] = mutate(&frames[victim], kind, at, &other, byte);
        let mut decoder = FlushDecoder::default();
        for frame in &frames {
            match decoder.decode(frame, |i| (i.index() < g.num_replicas()).then(|| p.new_clock(i))) {
                Ok(_) => {}
                Err(e) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    break;
                }
            }
        }
    }

    /// The delta shapes no well-formed sender writes are refused with
    /// `InvalidData`: a counter change that overflows, a bitmap bit past
    /// the issuer's clock width, a sequence delta of 0, an issuer whose
    /// width differs from its partition's base. A frame lost in transit
    /// is refused too, which closes its connection; a repeated frame, or
    /// one a single slot early, decodes to what was sent.
    #[test]
    fn hostile_deltas_are_refused(g in arb_share_graph(), seed in 0u64..500) {
        let p = EdgeProtocol::new(g.clone());
        let make = |i: ReplicaId| (i.index() < g.num_replicas()).then(|| p.new_clock(i));
        let refused = |frames: &[Vec<u8>], what: &str, says: &str| -> Result<(), TestCaseError> {
            let mut decoder = FlushDecoder::default();
            let (last, lead) = frames.split_last().expect("a frame");
            for frame in lead {
                decoder.decode(frame, make).expect("the sound lead-in decodes");
            }
            let err = decoder.decode(last, make).expect_err(what);
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{}", what);
            prop_assert!(err.to_string().contains(says), "{}: {}", what, err);
            Ok(())
        };
        let roles = issuers(&g);
        let width = |i: ReplicaId| p.new_clock(i).counter_values().len();
        let i = roles[seed as usize % roles.len()];
        let w = width(i);
        if w > 0 {
            // Counter 0 goes to 1, then down by 2.
            let mut frame = raw_frame(2);
            raw_update(&mut frame, 1, 1, i, &bitmap(w, &[0]), &[zigzag(1)]);
            raw_update(&mut frame, 1, 1, i, &bitmap(w, &[0]), &[zigzag(-2)]);
            refused(&[frame], "counter underflow", "overflows")?;
            // Counter 0 climbs by 2^63 - 1 twice, then by 2: past 2^64 - 1.
            let step = zigzag(i128::from(i64::MAX));
            let mut frame = raw_frame(3);
            raw_update(&mut frame, 1, 1, i, &bitmap(w, &[0]), &[step]);
            raw_update(&mut frame, 1, 1, i, &bitmap(w, &[0]), &[step]);
            raw_update(&mut frame, 1, 1, i, &bitmap(w, &[0]), &[zigzag(2)]);
            refused(&[frame], "counter overflow", "overflows")?;
        }
        if w % 8 != 0 {
            let mut frame = raw_frame(1);
            let mut map = bitmap(w, &[]);
            *map.last_mut().expect("a bitmap byte") |= 1 << (w % 8);
            raw_update(&mut frame, 1, 1, i, &map, &[]);
            refused(&[frame], "bitmap bit past the width", "past the clock's width")?;
        }
        let mut frame = raw_frame(2);
        raw_update(&mut frame, 5, 1, i, &bitmap(w, &[]), &[]);
        raw_update(&mut frame, 0, 1, i, &bitmap(w, &[]), &[]);
        refused(&[frame], "sequence delta 0", "delta 0")?;
        if let Some(&j) = roles.iter().find(|&&j| width(j) != w) {
            let mut frame = raw_frame(2);
            raw_update(&mut frame, 1, 1, i, &bitmap(w, &[]), &[]);
            raw_update(&mut frame, 1, 1, j, &bitmap(width(j), &[]), &[]);
            refused(&[frame], "issuer width differs from the base", "width differs")?;
        }
        // A lost frame — the opening one, or a later one — is refused at
        // the second frame past the gap: nothing after it yields an update.
        let entries = entries_of(&build_sections(&p, &g, 5, &[1, 2, 1, 2], seed, 1));
        let (frames, _) = ship(&p, &g, 5, &entries, &[1, 2, 3]);
        prop_assert_eq!(frames.len(), 4);
        let f = |k: usize| frames[k].clone();
        refused(&[f(1), f(2)], "a lost opening frame", "lost in transit")?;
        refused(&[f(0), f(2), f(3)], "a lost later frame", "lost in transit")?;
        // A frame held for a predecessor that never comes is refused once
        // the predecessor's successor decodes instead.
        refused(&[f(0), f(3), f(1)], "a held frame past a gap", "lost in transit")?;
        // Repeats — of a decoded frame or of the held one — are skipped,
        // and a frame one ahead of its predecessor waits for it: the
        // connection decodes what was sent.
        for stream in [
            vec![f(0), f(0), f(1), f(1), f(2), f(3), f(3)],
            vec![f(0), f(2), f(1), f(3)],
            vec![f(1), f(0), f(3), f(2)],
            vec![f(0), f(2), f(2), f(1), f(2), f(3)],
        ] {
            let mut decoder = FlushDecoder::default();
            let mut got = Vec::new();
            for frame in &stream {
                let mut back = decoder.decode(frame, make).expect("a reorder or repeat");
                restore_sender(&mut back, 5);
                got.extend(entries_of(&back));
            }
            prop_assert_eq!(sections_of(&got), sections_of(&entries));
        }
    }

    /// The concrete upgrade scenario: a peer still speaking an older wire
    /// version (v2 partition tagging, v3 unacknowledged frame packing, v5
    /// stamp-free updates, v6 windowed acks, v8 full ids, v9 frames that
    /// may trail a varint, v11 with the `Status` frame, v12 with absolute
    /// flush frames, v13 with unstamped cut snapshots) is refused by a
    /// current node at the handshake with an error naming both versions —
    /// mixed-version clusters fail loudly, not silently.
    #[test]
    fn stale_version_hellos_refused_by_current(map in arb_partition_map()) {
        let mut payload = encode_peer_hello(&PeerHello { node: 0, map });
        prop_assert_eq!(u64::from(payload[1]), prcc_service::WIRE_VERSION);
        let current = prcc_service::WIRE_VERSION;
        for old in [2u8, 3, 4, 5, 6, 8, 9, 11, 12, 13] {
            payload[1] = old; // an old peer's hello differs exactly here
            let err = decode_peer_hello(&payload).unwrap_err();
            prop_assert!(
                err.to_string().contains(&format!("peer speaks v{old}")),
                "{}", err
            );
            prop_assert!(
                err.to_string().contains(&format!("this node v{current}")),
                "{}", err
            );
        }
    }

    /// A hello whose version varint is patched to any other value is
    /// refused with a version-mismatch error — the refusal behavior
    /// misconfigured deployments rely on.
    #[test]
    fn foreign_version_hellos_refused(map in arb_partition_map(), version in 0u8..64) {
        prop_assume!(u64::from(version) != prcc_service::WIRE_VERSION);
        let mut payload = encode_peer_hello(&PeerHello { node: 0, map });
        // WIRE_VERSION < 128 encodes as one varint byte right after the tag,
        // and so does any `version in 0..64`.
        payload[1] = version;
        let err = decode_peer_hello(&payload).unwrap_err();
        prop_assert!(
            err.to_string().contains("version mismatch"),
            "unexpected refusal: {}", err
        );
    }
}
