//! Properties of the reliable link under the nemesis's duplicate, reorder
//! and drop operator, on arbitrary seeded fault schedules — first the bare
//! [`SeqWatermark`], then the whole [`PeerLink`], with no `Core`, socket
//! or replica in sight.
//!
//! The operator transforms an in-order frame stream exactly like
//! `prcc_chaos::forward` does: `Duplicate` emits a frame twice back to
//! back, `Reorder` holds one frame and releases it after the next
//! forwarded frame (never holding two), `Drop` swallows the frame until
//! the reconnect-driven window resend redelivers it.
//!
//! * Watermark: its fresh/duplicate verdicts coincide with an exact
//!   every-id-ever-seen set on every such schedule — apply-at-most-once
//!   under at-least-once, reordering, duplicating delivery.
//! * Link: a sender [`PeerLink`] and a receiver [`PeerLink`] joined by the
//!   operator, over rounds of enqueue → transmit → reconnect (`accept` /
//!   `resume`): every enqueued item is handed up exactly once, every
//!   acknowledgement is a contiguous prefix of what was handed up, a
//!   clean final round empties the window — and under a small window cap
//!   the entries it evicts are settled without ever being acknowledged.

use prcc_core::SeqWatermark;
use prcc_net::chaos::{FaultOp, FaultProfile, LinkFaultStream};
use prcc_service::link::PeerLink;
use proptest::prelude::*;
use std::collections::HashSet;

/// Applies the nemesis's per-frame operator to an in-order frame stream,
/// exactly as the proxy's forward loop does.
fn nemesis<T: Clone>(frames: impl IntoIterator<Item = T>, stream: &mut LinkFaultStream) -> Vec<T> {
    let mut out = Vec::new();
    let mut held: Option<T> = None;
    for frame in frames {
        let (_, op) = stream.next_op();
        match op {
            FaultOp::Reorder if held.is_none() => {
                held = Some(frame);
                continue;
            }
            FaultOp::Duplicate => {
                out.push(frame.clone());
                out.push(frame);
            }
            FaultOp::Drop => continue,
            // Delay and sever ops don't exist in the profiles used here;
            // Deliver (and a Reorder arriving while one frame is already
            // held) forwards the frame.
            _ => out.push(frame),
        }
        out.extend(held.take());
    }
    out.extend(held);
    out
}

/// The operator over the in-order sequence stream `1..=n`.
fn nemesis_deliveries(n: u64, seed: u64, profile: FaultProfile) -> Vec<u64> {
    nemesis(1..=n, &mut LinkFaultStream::new(seed, 0, 1, profile))
}

/// One connection's worth of traffic from `sender` to `receiver`: the
/// handshake (`accept` answers, `resume` prunes and retransmits), then
/// `fresh` newly enqueued items, all of it cut into frames of `frame_len`
/// and passed through the nemesis. Acknowledgements travel back clean —
/// a lost ack only delays pruning, which the next handshake repairs.
/// Items are numbered in enqueue order, so item `i` travels as sequence
/// `i + 1`; `handed_up` collects what the receiver passed on, and the
/// at-most-once and prefix-ack invariants are checked as they happen.
#[allow(clippy::too_many_arguments)]
fn connection(
    sender: &mut PeerLink<u64>,
    receiver: &mut PeerLink<u64>,
    handed_up: &mut HashSet<u64>,
    fresh: std::ops::Range<u64>,
    frame_len: usize,
    ack_every: u64,
    faults: &mut LinkFaultStream,
    conn: u64,
) -> Result<(), TestCaseError> {
    let (offset, _) = receiver.accept(conn);
    let mut traffic: Vec<(u64, u64)> = sender.resume(offset, |_| {}).copied().collect();
    prop_assert!(
        traffic.iter().all(|&(seq, _)| seq > offset),
        "nothing at or below the handshake offset is resent"
    );
    traffic.extend(fresh.map(|item| (sender.enqueue(item), item)));
    let frames = traffic.chunks(frame_len).map(<[_]>::to_vec);
    for frame in nemesis(frames, faults) {
        for &(seq, item) in &frame {
            if receiver.on_update(seq) {
                prop_assert!(handed_up.insert(item), "item {} handed up twice", item);
            }
        }
        if let Some(acked) = receiver.on_frame(frame.len() as u64, ack_every) {
            prop_assert!(
                (0..acked).all(|item| handed_up.contains(&item)),
                "ack {} is not a gapless prefix of what was handed up",
                acked
            );
            sender.on_ack(acked, |_| {});
            prop_assert!(
                acked == 0 || sender.settled(acked),
                "a true ack is believed"
            );
            prop_assert!(sender.window().all(|&(seq, _)| seq > acked));
        }
    }
    Ok(())
}

proptest! {
    /// Watermark verdicts ≡ exact dedup-set verdicts on any
    /// nemesis-transformed schedule; the post-reconnect window resend is
    /// suppressed except for the seqs the nemesis dropped; a second
    /// identical pass of the whole schedule changes nothing at all.
    #[test]
    fn watermark_is_idempotent_under_the_nemesis_operator(
        seed in 0u64..1 << 48,
        n in 1u64..400,
        reorder_pm in 0u32..300,
        duplicate_pm in 0u32..300,
        drop_pm in 0u32..200,
    ) {
        let profile = FaultProfile {
            reorder_pm,
            duplicate_pm,
            drop_pm,
            ..FaultProfile::off()
        };
        let deliveries = nemesis_deliveries(n, seed, profile);
        let mut watermark = SeqWatermark::new();
        let mut exact: HashSet<u64> = HashSet::new();
        for &s in &deliveries {
            prop_assert_eq!(watermark.observe(s), exact.insert(s));
        }
        // Reconnect resend: everything above the acked (contiguous)
        // watermark comes again in order. Redeliveries of seqs already
        // seen out of order are suppressed; dropped seqs are fresh
        // exactly once.
        let acked = watermark.high();
        for s in (acked + 1)..=n {
            prop_assert_eq!(watermark.observe(s), exact.insert(s));
        }
        // The channel is now complete and fully folded: no residue, the
        // acknowledgement line at n.
        prop_assert_eq!(watermark.high(), n);
        prop_assert_eq!(watermark.residue_len(), 0);
        prop_assert_eq!(exact.len() as u64, n);
        // Exact idempotence: replaying the entire faulted schedule (and
        // the resend) against the converged watermark is a pure no-op.
        let frozen = watermark.clone();
        for &s in &deliveries {
            prop_assert!(!watermark.observe(s));
        }
        for s in 1..=n {
            prop_assert!(!watermark.observe(s));
        }
        prop_assert_eq!(&watermark, &frozen);
    }

    /// The operator itself is deterministic: the same (seed, profile)
    /// yields the same delivery schedule — the properties here are
    /// therefore replayable from their proptest case seed.
    #[test]
    fn nemesis_operator_is_deterministic(seed in 0u64..1 << 48, n in 1u64..200) {
        let profile = FaultProfile {
            reorder_pm: 150,
            duplicate_pm: 150,
            drop_pm: 100,
            ..FaultProfile::off()
        };
        prop_assert_eq!(
            nemesis_deliveries(n, seed, profile),
            nemesis_deliveries(n, seed, profile)
        );
    }

    /// Exactly-once hand-up, prefix acks and a window that empties, for
    /// two whole links across faulted connections and reconnects.
    #[test]
    fn link_hands_up_every_item_exactly_once_across_faulted_reconnects(
        seed in 0u64..1 << 48,
        rounds in proptest::collection::vec(0u64..60, 1..6),
        frame_len in 1usize..9,
        ack_every in 0u64..12,
        reorder_pm in 0u32..300,
        duplicate_pm in 0u32..300,
        drop_pm in 0u32..200,
    ) {
        let profile = FaultProfile {
            reorder_pm,
            duplicate_pm,
            drop_pm,
            ..FaultProfile::off()
        };
        let mut faults = LinkFaultStream::new(seed, 0, 1, profile);
        let mut sender = PeerLink::new(0, 1, usize::MAX);
        let mut receiver = PeerLink::new(1, 0, usize::MAX);
        let mut handed_up = HashSet::new();
        let mut enqueued = 0u64;
        for (round, &fresh) in rounds.iter().enumerate() {
            connection(
                &mut sender,
                &mut receiver,
                &mut handed_up,
                enqueued..enqueued + fresh,
                frame_len,
                ack_every,
                &mut faults,
                round as u64,
            )?;
            enqueued += fresh;
        }
        // The last connection is clean and acknowledges every frame:
        // whatever the nemesis swallowed arrives now, once.
        let mut clean = LinkFaultStream::new(seed, 0, 1, FaultProfile::off());
        connection(
            &mut sender,
            &mut receiver,
            &mut handed_up,
            enqueued..enqueued,
            frame_len,
            1,
            &mut clean,
            u64::MAX,
        )?;
        let (offset, _) = receiver.accept(u64::MAX);
        prop_assert_eq!(offset, enqueued, "the receiver holds a gapless prefix: all of it");
        prop_assert_eq!(sender.resume(offset, |_| {}).count(), 0, "nothing left to resend");
        prop_assert_eq!(sender.evicted(), 0);
        prop_assert_eq!(handed_up.len() as u64, enqueued, "each item, and only those");
        // And it stays that way: the whole history again is all overlap.
        for seq in 1..=enqueued {
            prop_assert!(!receiver.on_update(seq));
        }
    }

    /// Under a small cap a stranded window gives up its oldest entries:
    /// they are settled — nothing waits on them — yet were never
    /// acknowledged, and nothing the cap dropped is ever resent.
    #[test]
    fn evicted_entries_are_settled_but_never_acknowledged(
        cap in 1usize..8,
        acked_first in 0u64..8,
        n in 1u64..40,
    ) {
        let mut sender = PeerLink::new(0, 1, cap);
        // Acknowledge a prefix while the window still holds it, then let
        // the cap bite.
        let first = n.min(cap as u64);
        for item in 0..first {
            prop_assert_eq!(sender.enqueue(item), item + 1);
        }
        let acked = acked_first.min(first);
        sender.on_ack(acked, |_| {});
        for item in first..n {
            sender.enqueue(item);
        }
        let parked: Vec<u64> = sender.window().map(|&(seq, _)| seq).collect();
        prop_assert!(parked.len() <= cap);
        let evicted: Vec<u64> = (acked + 1..=n).filter(|seq| !parked.contains(seq)).collect();
        prop_assert_eq!(sender.evicted(), evicted.len() as u64);
        prop_assert!(evicted.iter().all(|&seq| sender.settled(seq)));
        prop_assert!(parked.iter().all(|&seq| !sender.settled(seq)));
        prop_assert_eq!(sender.parts().acked_high, acked, "eviction acknowledges nothing");
        let resent: Vec<u64> = sender.resume(acked, |_| {}).map(|&(seq, _)| seq).collect();
        prop_assert_eq!(resent, parked);
    }
}
