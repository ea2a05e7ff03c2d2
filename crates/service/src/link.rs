//! The reliable link: both directions of one peer link as a sans-I/O state
//! machine — no socket, thread, file, clock, codec or replica in it.
//!
//! The paper's algorithm assumes reliable asynchronous channels; this is
//! that assumption discharged over connections that die: an at-least-once,
//! reordering, duplicating transport becomes *exactly-once hand-up* of
//! everything [`PeerLink::enqueue`] accepted.
//!
//! **Sender.** `enqueue` numbers items from 1 and parks them in the
//! *window* until acknowledged. An acknowledgement `a` — streamed
//! ([`PeerLink::on_ack`]) or a handshake's ([`PeerLink::resume`]) — says
//! every sequence `<= a` is durable at the peer: the window drops that
//! prefix, and a reconnect retransmits the rest. One at or above
//! `next_seq` names something never sent and is refused whole — believing
//! it would retire items the peer never saw. Past its cap the window
//! *evicts* its oldest entry, counted loudly, rather than grow without
//! bound behind a stranded peer.
//!
//! **Receiver.** [`PeerLink::on_update`] passes each arriving sequence
//! through a [`SeqWatermark`]: first sighting → hand it up, else drop. Its
//! contiguous high-water is the only value ever acknowledged
//! ([`PeerLink::accept`], [`PeerLink::on_frame`]), so a gap holds the line.
//!
//! Hence `sender.acked_high <= receiver.high`, and the watermark's first
//! test, `seq <= high`, already rejects every resend at or below anything
//! a sender could advertise as acknowledged: no second, sender-supplied
//! duplicate fence exists. [`LinkParts`] is what survives a restart.

use prcc_core::SeqWatermark;
use prcc_reactor::ConnId;
use std::collections::vec_deque::{Iter, VecDeque};

/// The durable parts of a [`PeerLink`], as plain data: what a snapshot
/// stores and [`PeerLink::restore`] takes back.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkParts<T> {
    /// Next outbound sequence to assign.
    pub next_seq: u64,
    /// Highest outbound sequence the peer has acknowledged.
    pub acked_high: u64,
    /// Contiguous inbound high-water: what this side acknowledges.
    pub recv_high: u64,
    /// Inbound sequences seen above `recv_high`, ascending.
    pub recv_residue: Vec<u64>,
    /// Unacknowledged outbound items, in sequence order.
    pub window: Vec<(u64, T)>,
}

/// One peer link's state: sequencing, the resend window, acknowledgement
/// accounting and the inbound duplicate filter.
#[derive(Debug)]
pub struct PeerLink<T> {
    /// The two ends, for the one diagnostic this type prints.
    node: usize,
    peer: usize,
    /// Most entries the window may park.
    cap: usize,
    /// Next outbound sequence to assign (starts at 1).
    next_seq: u64,
    /// Outbound items not yet acknowledged, in sequence order.
    window: VecDeque<(u64, T)>,
    /// Highest outbound sequence the peer has acknowledged.
    acked_high: u64,
    /// Entries the cap evicted.
    evicted: u64,
    /// Largest window observed.
    max_window: u64,
    /// An acknowledgement for a never-sent sequence was already reported.
    overclaim_reported: bool,
    /// Inbound watermark: acknowledgement line and exact duplicate filter.
    recv: SeqWatermark,
    /// Updates received (duplicates included — a resend wants its ack
    /// too) since the last streamed acknowledgement.
    updates_since_ack: u64,
    /// The live inbound connection, replaced on redial.
    inbound: Option<ConnId>,
}

impl<T> PeerLink<T> {
    /// A fresh link from `node` to `peer` whose window parks at most
    /// `cap` (at least 1) entries.
    pub fn new(node: usize, peer: usize, cap: usize) -> Self {
        PeerLink {
            node,
            peer,
            cap: cap.max(1),
            next_seq: 1,
            window: VecDeque::new(),
            acked_high: 0,
            evicted: 0,
            max_window: 0,
            overclaim_reported: false,
            recv: SeqWatermark::new(),
            updates_since_ack: 0,
            inbound: None,
        }
    }

    // lint: hot-path
    /// Sender: sequences `item`, parks it in the window (evicting from the
    /// front past the cap) and returns its sequence number.
    pub fn enqueue(&mut self, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back((seq, item));
        // Evicted entries cannot be resent: the count is the loud signal
        // that the peer needs a fresh data dir when it returns.
        while self.window.len() > self.cap {
            self.window.pop_front();
            self.evicted += 1;
        }
        self.max_window = self.max_window.max(self.window.len() as u64);
        seq
    }

    /// Sender: the peer holds every sequence `<= acked`. Drops that prefix
    /// of the window, showing each dropped item to `retired`. A value
    /// naming a sequence never sent changes nothing.
    pub fn on_ack(&mut self, acked: u64, mut retired: impl FnMut(&T)) {
        if acked >= self.next_seq {
            // A corrupt ack, or a peer remembering a volatile sender's
            // previous incarnation. Said once; the stranded link then ends
            // in the eviction count, loudly, not in a silent black hole.
            if !std::mem::replace(&mut self.overclaim_reported, true) {
                eprintln!(
                    "prcc-service[{}]: ignoring peer {}'s acknowledgement of link sequence \
                     {acked}: only {} were ever sent",
                    self.node,
                    self.peer,
                    self.next_seq - 1
                );
            }
            return;
        }
        self.acked_high = self.acked_high.max(acked);
        let covered = self.window.partition_point(|&(seq, _)| seq <= acked);
        self.window
            .drain(..covered)
            .for_each(|(_, item)| retired(&item));
    }

    /// Receiver: one arriving sequence. `true` = first sighting, hand the
    /// update up; `false` = resend overlap, drop it.
    pub fn on_update(&mut self, seq: u64) -> bool {
        self.recv.observe(seq)
    }

    /// Receiver: a frame of `updates` updates (duplicates included) was
    /// taken in. Returns the offset to acknowledge once `ack_every` updates
    /// (0 = never in-stream) accumulated since the last one — updates, not
    /// frames, so ack traffic follows the data rate, not the framing.
    pub fn on_frame(&mut self, updates: u64, ack_every: u64) -> Option<u64> {
        self.updates_since_ack += updates;
        if ack_every == 0 || self.updates_since_ack < ack_every {
            return None;
        }
        self.updates_since_ack = 0;
        Some(self.recv.high())
    }
    // lint: end-hot-path

    /// Sender: a (re)connected peer acknowledged `acked` in its handshake.
    /// Prunes like [`PeerLink::on_ack`] and yields what must be
    /// retransmitted: the whole remaining window, in sequence order.
    pub fn resume(&mut self, acked: u64, retired: impl FnMut(&T)) -> Iter<'_, (u64, T)> {
        self.on_ack(acked, retired);
        self.window.iter()
    }

    /// Receiver: a validated handshake arrived on `conn`. Binds it as the
    /// inbound connection and returns the offset to acknowledge (where the
    /// dialer resumes) plus the connection it replaced, for the caller to
    /// close — a half-open socket must not keep the peer writing.
    pub fn accept(&mut self, conn: ConnId) -> (u64, Option<ConnId>) {
        let stale = self.inbound.replace(conn).filter(|&old| old != conn);
        (self.recv.high(), stale)
    }

    /// Whether outbound `seq` will never be waited on again: it was
    /// assigned and the window no longer parks it — the peer acknowledged
    /// it, or the cap evicted it (that copy can never be acknowledged).
    pub fn settled(&self, seq: u64) -> bool {
        let parked_from = self.window.front().map_or(self.next_seq, |&(seq, _)| seq);
        seq < parked_from
    }

    /// The unacknowledged outbound items, in sequence order.
    pub fn window(&self) -> Iter<'_, (u64, T)> {
        self.window.iter()
    }

    /// Sender: the highest sequence assigned so far (0 = none). A cut
    /// records it, so an update sequenced past it was issued after the cut.
    pub fn sent_high(&self) -> u64 {
        self.next_seq - 1
    }

    /// Receiver: the highest sequence seen from the peer, gaps included.
    pub fn received_high(&self) -> u64 {
        // The residue ascends, so its last entry is its largest.
        self.recv
            .high()
            .max(self.recv.residue().last().unwrap_or(0))
    }

    /// Entries the window cap has evicted.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Largest window this link has held.
    pub fn max_window(&self) -> u64 {
        self.max_window
    }

    /// The link's durable parts.
    pub fn parts(&self) -> LinkParts<T>
    where
        T: Clone,
    {
        LinkParts {
            next_seq: self.next_seq,
            acked_high: self.acked_high,
            recv_high: self.recv.high(),
            recv_residue: self.recv.residue().collect(),
            window: self.window.iter().cloned().collect(),
        }
    }

    /// Replaces the link's durable parts; live-only state is untouched.
    pub fn restore(&mut self, parts: LinkParts<T>) {
        self.next_seq = parts.next_seq;
        self.acked_high = parts.acked_high;
        self.recv = SeqWatermark::from_parts(parts.recv_high, parts.recv_residue);
        self.window = parts.window.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(cap: usize) -> PeerLink<char> {
        PeerLink::new(0, 1, cap)
    }

    fn window(link: &PeerLink<char>) -> Vec<u64> {
        link.window().map(|&(seq, _)| seq).collect()
    }

    #[test]
    fn acks_prune_a_prefix_and_hand_back_what_they_retired() {
        let mut link = link(64);
        assert_eq!(['a', 'b', 'c', 'd'].map(|c| link.enqueue(c)), [1, 2, 3, 4]);
        let mut retired = Vec::new();
        link.on_ack(2, |&c| retired.push(c));
        assert_eq!(retired, ['a', 'b']);
        assert_eq!(window(&link), [3, 4]);
        assert!(link.settled(2) && !link.settled(3));
        // A stale (lower) acknowledgement is no news.
        link.on_ack(1, |_| panic!("nothing left at or below 1"));
        assert!(link.settled(2));
        assert_eq!(window(&link), [3, 4]);
    }

    #[test]
    fn an_acknowledgement_for_something_never_sent_is_ignored() {
        let mut link = link(64);
        link.enqueue('a');
        link.enqueue('b');
        // 2 is the most that can be true; 3 and beyond name unsent
        // sequences, in-stream and at the handshake alike.
        link.on_ack(3, |_| panic!("nothing may retire on a false ack"));
        assert!(!link.settled(1));
        assert_eq!(window(&link), [1, 2]);
        let resent: Vec<u64> = link
            .resume(u64::MAX, |_| panic!("nor on a false handshake offset"))
            .map(|&(seq, _)| seq)
            .collect();
        assert_eq!(resent, [1, 2], "the whole window comes again");
        assert!(!link.settled(1));
        // The link still works for the truth.
        link.on_ack(2, |_| {});
        assert!(link.settled(2));
        assert_eq!(window(&link), []);
        // A fresh sender (nothing sent) facing a peer that remembers an
        // earlier incarnation: nothing is believed.
        let mut fresh = PeerLink::<char>::new(0, 1, 64);
        assert_eq!(fresh.resume(500, |_| {}).count(), 0);
        assert_eq!(fresh.enqueue('x'), 1);
        assert!(!fresh.settled(1), "seq 1 is not covered by the stale 500");
    }

    #[test]
    fn the_cap_evicts_from_the_front_and_evicted_is_settled_not_acked() {
        let mut link = link(2);
        for c in ['a', 'b', 'c'] {
            link.enqueue(c);
        }
        assert_eq!(window(&link), [2, 3]);
        assert_eq!((link.evicted(), link.max_window()), (1, 2));
        assert!(link.settled(1), "given up on");
        assert!(!link.settled(2));
        assert_eq!(link.parts().acked_high, 0, "but never acknowledged");
    }

    #[test]
    fn the_receiver_hands_up_once_and_acknowledges_only_its_contiguous_line() {
        let mut link = link(64);
        assert!(link.on_update(1));
        assert!(link.on_update(3), "out of order is still fresh");
        assert!(!link.on_update(1) && !link.on_update(3));
        // Three updates since the last ack, counting the duplicates; the
        // line holds at the gap.
        assert_eq!(link.on_frame(2, 3), None);
        assert_eq!(link.on_frame(1, 3), Some(1));
        assert!(link.on_update(2));
        assert_eq!(link.on_frame(1, 1), Some(3));
        assert_eq!(link.on_frame(9, 0), None, "0 = handshake acks only");
    }

    #[test]
    fn the_cut_stamps_read_the_highest_sequence_each_way() {
        let mut link = link(1);
        assert_eq!((link.sent_high(), link.received_high()), (0, 0));
        for c in ['a', 'b', 'c'] {
            link.enqueue(c);
        }
        // Eviction and acknowledgement retire entries, not sequences.
        link.on_ack(3, |_| {});
        assert_eq!(link.sent_high(), 3);
        link.on_update(1);
        assert_eq!(link.received_high(), 1);
        // A gap counts: what arrived past it arrived.
        link.on_update(5);
        link.on_update(4);
        assert_eq!(link.received_high(), 5);
    }

    #[test]
    fn a_redial_replaces_the_inbound_connection_and_keeps_the_offset() {
        let mut link = link(64);
        assert_eq!(link.accept(7), (0, None));
        link.on_update(1);
        assert_eq!(link.accept(7), (1, None), "same connection: nothing stale");
        assert_eq!(link.accept(9), (1, Some(7)));
    }

    #[test]
    fn parts_round_trip_the_durable_state() {
        let mut link = link(64);
        for c in ['a', 'b', 'c'] {
            link.enqueue(c);
        }
        link.on_ack(1, |_| {});
        for seq in [1, 2, 5] {
            link.on_update(seq);
        }
        let parts = link.parts();
        assert_eq!(
            parts,
            LinkParts {
                next_seq: 4,
                acked_high: 1,
                recv_high: 2,
                recv_residue: vec![5],
                window: vec![(2, 'b'), (3, 'c')],
            }
        );
        let mut back = PeerLink::new(0, 1, 64);
        back.restore(parts.clone());
        assert_eq!(back.parts(), parts);
        assert_eq!(back.enqueue('d'), 4);
        assert!(!back.on_update(5) && back.on_update(3));
    }
}
