//! Property tests: the wire protocol round-trips clocks, updates, topology
//! and sharding configurations over random share graphs, preserves
//! partition tags on every frame, and the in-place flush encoder stays
//! byte-identical to the copy-assemble reference kept here.

use prcc_checker::UpdateId;
use prcc_clock::encoding::write_varint;
use prcc_clock::{CompressedProtocol, EdgeProtocol, Protocol, WireClock};
use prcc_core::Update;
use prcc_graph::{topologies, PartitionId, PartitionMap, RegisterId, ReplicaId, ShareGraph};
use prcc_net::VirtualTime;
use prcc_service::wire::{
    decode_multi_batch, decode_partition_map, decode_peer_hello, decode_share_graph,
    encode_multi_batch_into, encode_partition_map, encode_peer_hello, encode_share_graph,
    restore_sender, FlushSections, PeerHello, WIRE_SEQ_BITS, WIRE_SEQ_MASK,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

/// One random update per replica with a non-empty register set, all
/// issued by node `peer` (a link only ever carries its sender's issues;
/// which role the node plays varies by partition, hence every replica).
fn build_updates<P: Protocol>(
    p: &P,
    g: &ShareGraph,
    peer: usize,
    seed: u64,
) -> Vec<Update<P::Clock>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut updates = Vec::new();
    for k in g.replicas() {
        let regs: Vec<RegisterId> = g.registers_of(k).iter().collect();
        if regs.is_empty() {
            continue;
        }
        let x = regs[rng.gen_range(0..regs.len())];
        updates.push(Update {
            id: UpdateId(((peer as u64) << WIRE_SEQ_BITS) | rng.gen_range(0u64..1 << 20)),
            issuer: k,
            register: x,
            value: rng.gen_range(0u64..u64::MAX / 2),
            clock: churn_clock(p, k, 1 + (seed as usize % 9), seed ^ 0x51),
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        });
    }
    updates
}

/// The *reference implementation* of the multi-partition flush frame: a
/// tag byte (3), the count of non-empty sections, then per section the
/// partition, the update count, and per update `link seq | issue stamp |
/// Update::encode_wire of the update with its id cut to the low 40 bits
/// (v9) | pad length | pad zeros`, and nothing after the last section
/// (v10). Assembled the obvious, copying way; the hot path encodes with
/// [`encode_multi_batch_into`] straight into a leased frame buffer, and
/// `in_place_multi_batch_is_byte_identical_to_the_reference_encoder` holds
/// the two byte-for-byte equal — the guarantee that peers interoperate
/// with the in-place encoder unchanged.
fn encode_multi_batch<C: WireClock>(sections: &FlushSections<C>, pad: usize) -> Vec<u8> {
    let mut out = vec![3u8];
    let live: Vec<_> = sections.iter().filter(|(_, u)| !u.is_empty()).collect();
    write_varint(&mut out, live.len() as u64);
    for (partition, updates) in live {
        write_varint(&mut out, u64::from(partition.0));
        write_varint(&mut out, updates.len() as u64);
        for (seq, u) in updates {
            write_varint(&mut out, *seq);
            write_varint(&mut out, u.issued_at.0);
            let mut shipped = u.clone();
            shipped.id = UpdateId(u.id.0 % (1 << 40));
            let mut body = Vec::new();
            shipped.encode_wire(&mut body);
            out.extend_from_slice(&body);
            write_varint(&mut out, pad as u64);
            out.extend(std::iter::repeat_n(0u8, pad));
        }
    }
    out
}

/// Random sections over `parts`: one run of updates per entry, sequenced
/// from `seq_base`, every other update carrying an issue stamp.
fn build_sections<P: Protocol>(
    p: &P,
    g: &ShareGraph,
    peer: usize,
    parts: &[u32],
    seed: u64,
    seq_base: u64,
) -> FlushSections<P::Clock> {
    parts
        .iter()
        .enumerate()
        .map(|(i, &part)| {
            let updates = build_updates(p, g, peer, seed ^ (i as u64) << 16)
                .into_iter()
                .enumerate()
                .map(|(k, mut u)| {
                    if k % 2 == 0 {
                        u.issued_at = VirtualTime(1_700_000_000_000_000 + seed + k as u64);
                    }
                    (seq_base + ((i as u64) << 20) + k as u64, u)
                })
                .collect();
            (PartitionId(part), updates)
        })
        .collect()
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
    /// arbitrary sections: empty, skipped-empty, unsorted and repeated
    /// partitions, mixed sampled/unsampled stamps, varied pads, any sender.
    #[test]
    fn in_place_multi_batch_is_byte_identical_to_the_reference_encoder(
        g in arb_share_graph(),
        peer in 0usize..64,
        parts in proptest::collection::vec((0u32..1000, any::<bool>()), 0..6),
        seed in 0u64..500,
        pad in 0usize..1100,
        seq_base in 1u64..1 << 50,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let tags: Vec<u32> = parts.iter().map(|&(part, _)| part).collect();
        let mut sections = build_sections(&p, &g, peer, &tags, seed, seq_base);
        for (section, &(_, live)) in sections.iter_mut().zip(&parts) {
            if !live {
                section.1.clear();
            }
        }
        let reference = encode_multi_batch(&sections, pad);
        let mut in_place = b"preexisting".to_vec();
        encode_multi_batch_into(&sections, pad, &mut in_place);
        prop_assert_eq!(&in_place[b"preexisting".len()..], &reference[..]);
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

    /// An update shipped with any bit at or above 2^40 in its id is refused:
    /// OR-ing the link's node bits over it would alias another node's ids.
    #[test]
    fn untrimmed_wire_ids_are_refused(
        g in arb_share_graph(),
        peer in 0usize..64,
        node_bits in 1u64..1 << 24,
        seed in 0u64..200,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let updates = build_updates(&p, &g, 0, seed);
        prop_assume!(!updates.is_empty());
        // The v9 layout by hand, the first update's id left untrimmed.
        let mut frame = vec![3u8, 1, 7, 1, 1, 0]; // 1 section, partition 7, 1 update, seq 1, no stamp
        let header = frame.clone();
        let mut hostile = updates[0].clone();
        hostile.id = UpdateId(hostile.id.0 | node_bits << WIRE_SEQ_BITS);
        hostile.encode_wire(&mut frame);
        frame.push(0); // pad
        let err = decode_multi_batch(&frame, |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        }).expect_err("node bits on the wire");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("node bits"), "{}", err);
        // The boundary: the largest id that fits the shipped bits is fine.
        let mut frame = header;
        hostile.id = UpdateId(WIRE_SEQ_MASK);
        hostile.encode_wire(&mut frame);
        frame.push(0);
        let mut sections = decode_multi_batch(&frame, |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        }).expect("2^40 - 1 carries no node bits");
        restore_sender(&mut sections, peer);
        prop_assert_eq!(sections[0].1[0].1.id.0, (peer as u64) << WIRE_SEQ_BITS | WIRE_SEQ_MASK);
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
        let sections: Vec<(PartitionId, Vec<(u64, Update<_>)>)> = parts
            .iter()
            .map(|&(part, live)| {
                let updates = if live {
                    build_updates(&p, &g, 3, seed)
                        .into_iter()
                        .enumerate()
                        .map(|(k, u)| (1 + k as u64, u))
                        .collect()
                } else {
                    Vec::new()
                };
                (PartitionId(part), updates)
            })
            .collect();
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
        let updates: Vec<(u64, Update<_>)> = build_updates(&p, &g, 3, seed)
            .into_iter()
            .enumerate()
            .map(|(k, u)| (1 + k as u64, u))
            .collect();
        prop_assume!(!updates.is_empty());
        let sections = vec![
            (PartitionId(9), updates.clone()),
            (PartitionId(2), updates),
        ];
        let payload = encode_multi_batch(&sections, 4);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_multi_batch::<_, _>(&payload[..cut], |i| Some(p.new_clock(i))).is_err(),
                "truncation at {} parsed", cut
            );
        }
    }

    /// The concrete upgrade scenario: a peer still speaking an older wire
    /// version (v2 partition tagging, v3 unacknowledged frame packing, v5
    /// stamp-free updates, v6 windowed acks, v8 full ids, v9 frames that
    /// may trail a varint) is refused by a current node at the handshake
    /// with an error naming both versions — mixed-version clusters fail
    /// loudly, not silently.
    #[test]
    fn stale_version_hellos_refused_by_current(map in arb_partition_map()) {
        let mut payload = encode_peer_hello(&PeerHello { node: 0, map });
        prop_assert_eq!(u64::from(payload[1]), prcc_service::WIRE_VERSION);
        let current = prcc_service::WIRE_VERSION;
        for old in [2u8, 3, 4, 5, 6, 8, 9] {
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
