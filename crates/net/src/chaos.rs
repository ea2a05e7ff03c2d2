//! Seeded per-link fault schedules — the pure half of the chaos nemesis.
//!
//! The simulator's [`DeliveryPolicy`] implementations randomize *delay*;
//! a real nemesis also reorders, duplicates, drops, severs and
//! partitions. This module is the whole *decision*: a [`LinkFaultStream`]
//! is a pure function from `(seed, src, dst, index)` to a [`FaultOp`],
//! and a [`LinkSchedule`] lays the rotating partition windows over it, so
//! the TCP proxy in `prcc-chaos` (sockets only), its offline replay and
//! the simulator (via [`ChaosPolicy`]) draw from the identical schedule.
//! Determinism is the contract: two schedules built from the same
//! arguments yield the same decisions in the same order, which is what
//! makes a failing chaos run replayable from nothing but its seed.

use crate::{DeliveryPolicy, NodeIndex, VirtualTime};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// One scheduled decision for one in-order message (frame) on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Pass the frame through untouched.
    Deliver,
    /// Hold the frame for the given number of milliseconds, then deliver.
    /// Later frames on the link queue behind it (a slow link, not a
    /// reorder).
    Delay(u64),
    /// Hold this frame back and emit it after the next frame on the link
    /// (a one-step reorder; the paper's non-FIFO channel in miniature).
    Reorder,
    /// Deliver the frame twice back to back.
    Duplicate,
    /// Silently discard the frame. Recovery relies on the acked resend
    /// window, so a drop heals at the next reconnect.
    Drop,
    /// Sever the connection at a frame boundary. The dialer's backoff
    /// loop re-establishes it and resends from the acked window.
    Cut,
    /// Sever the connection *inside* the frame: forward `1 + raw %
    /// (len-1)` bytes of the encoded frame, then cut. Exercises the
    /// length-prefix truncation paths of the reader.
    CutMid(u32),
}

/// Per-mille rates for each fault class on a link; the remainder of the
/// thousand delivers clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// ‰ of frames delayed.
    pub delay_pm: u32,
    /// Upper bound (inclusive, ms) for drawn delays; lower bound is 1.
    pub delay_max_ms: u64,
    /// ‰ of frames held back one slot.
    pub reorder_pm: u32,
    /// ‰ of frames delivered twice.
    pub duplicate_pm: u32,
    /// ‰ of frames silently dropped.
    pub drop_pm: u32,
    /// ‰ of frames that sever the link at a frame boundary.
    pub cut_pm: u32,
    /// ‰ of frames that sever the link mid-frame.
    pub cut_mid_pm: u32,
}

impl FaultProfile {
    /// No faults at all: every draw is [`FaultOp::Deliver`].
    pub const fn off() -> Self {
        FaultProfile {
            delay_pm: 0,
            delay_max_ms: 0,
            reorder_pm: 0,
            duplicate_pm: 0,
            drop_pm: 0,
            cut_pm: 0,
            cut_mid_pm: 0,
        }
    }

    /// Gentle background noise: mostly clean, occasional small delays,
    /// reorders and duplicates, rare drops, very rare cuts.
    pub const fn light() -> Self {
        FaultProfile {
            delay_pm: 40,
            delay_max_ms: 3,
            reorder_pm: 30,
            duplicate_pm: 30,
            drop_pm: 10,
            cut_pm: 2,
            cut_mid_pm: 2,
        }
    }

    /// Hostile link: heavy reordering and duplication, frequent drops,
    /// regular severs including mid-frame.
    pub const fn heavy() -> Self {
        FaultProfile {
            delay_pm: 60,
            delay_max_ms: 8,
            reorder_pm: 80,
            duplicate_pm: 80,
            drop_pm: 40,
            cut_pm: 8,
            cut_mid_pm: 8,
        }
    }

    fn fault_pm(&self) -> u32 {
        self.delay_pm
            + self.reorder_pm
            + self.duplicate_pm
            + self.drop_pm
            + self.cut_pm
            + self.cut_mid_pm
    }
}

/// 64-bit mix (splitmix64 finalizer) used to derive independent per-link
/// seeds from one schedule seed. Identical links must not share a
/// stream, or faults would correlate across the topology. Public because
/// the service derives its backoff jitter from the same mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic fault schedule of one directed link.
///
/// `next_op` draws decisions in frame-index order; the n-th call on any
/// stream built from the same `(seed, src, dst, profile)` returns the
/// same op. The stream never ends — chaos runs bound it by op count, not
/// by schedule length.
pub struct LinkFaultStream {
    rng: ChaCha8Rng,
    profile: FaultProfile,
    index: u64,
}

impl LinkFaultStream {
    /// Builds the stream for the directed link `src → dst` under
    /// `schedule_seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile's rates sum past 1000‰.
    pub fn new(schedule_seed: u64, src: NodeIndex, dst: NodeIndex, profile: FaultProfile) -> Self {
        assert!(
            profile.fault_pm() <= 1000,
            "fault rates exceed 1000 per mille"
        );
        let link_seed = mix64(schedule_seed ^ mix64(((src as u64) << 32) | (dst as u64)));
        LinkFaultStream {
            rng: <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(link_seed),
            profile,
            index: 0,
        }
    }

    /// Next frame index this stream will decide (number of draws so far).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Draws the decision for the next frame on the link, returning the
    /// frame index it applies to alongside the op.
    pub fn next_op(&mut self) -> (u64, FaultOp) {
        let at = self.index;
        self.index += 1;
        let p = self.profile;
        let roll: u32 = self.rng.gen_range(0..1000u32);
        let mut edge = p.delay_pm;
        if roll < edge {
            let ms = self.rng.gen_range(1..=p.delay_max_ms.max(1));
            return (at, FaultOp::Delay(ms));
        }
        edge += p.reorder_pm;
        if roll < edge {
            return (at, FaultOp::Reorder);
        }
        edge += p.duplicate_pm;
        if roll < edge {
            return (at, FaultOp::Duplicate);
        }
        edge += p.drop_pm;
        if roll < edge {
            return (at, FaultOp::Drop);
        }
        edge += p.cut_pm;
        if roll < edge {
            return (at, FaultOp::Cut);
        }
        edge += p.cut_mid_pm;
        if roll < edge {
            let raw: u32 = self.rng.gen_range(0..u32::MAX);
            return (at, FaultOp::CutMid(raw));
        }
        (at, FaultOp::Deliver)
    }
}

impl fmt::Debug for LinkFaultStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkFaultStream")
            .field("profile", &self.profile)
            .field("index", &self.index)
            .finish()
    }
}

/// One decision of a link's schedule, realized by a proxy or replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDecision {
    /// Data-frame index on the link this decision applied to.
    pub index: u64,
    /// The fault applied. Partition swallows log as [`FaultOp::Drop`].
    pub op: FaultOp,
    /// True when the op was forced by an active partition window rather
    /// than drawn from the link's fault stream.
    pub partition: bool,
}

/// The node isolated by partition window `window` of an `n`-node
/// topology under `seed`: all its links swallow frames while the window
/// is active on them.
pub fn isolated_node(seed: u64, n: usize, window: u64) -> usize {
    (mix64(seed ^ window.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % n.max(1) as u64) as usize
}

/// The complete schedule of one directed link, as an endless iterator of
/// [`LinkDecision`]s. Out of every `partition_every` data frames the
/// leading `partition_len` fall in a partition window (either at `0`
/// disables windows); while a window is active on a link touching its
/// [`isolated_node`] the decision is a forced `Drop` that consumes *no*
/// draw, otherwise it is the next op of the link's [`LinkFaultStream`].
/// This is the one statement of that rule: the TCP nemesis pulls its live
/// decisions from it and replays recompute them from it, so a realized
/// log is prefix-equal to a fresh `LinkSchedule` of the same arguments.
#[derive(Debug)]
pub struct LinkSchedule {
    stream: LinkFaultStream,
    seed: u64,
    link: (NodeIndex, NodeIndex),
    n: usize,
    partition_every: u64,
    partition_len: u64,
    index: u64,
}

impl LinkSchedule {
    /// Builds the schedule of `src → dst` in an `n`-node topology.
    ///
    /// # Panics
    ///
    /// Panics if the profile's rates sum past 1000‰.
    pub fn new(
        seed: u64,
        src: NodeIndex,
        dst: NodeIndex,
        profile: FaultProfile,
        n: usize,
        partition_every: u64,
        partition_len: u64,
    ) -> Self {
        LinkSchedule {
            stream: LinkFaultStream::new(seed, src, dst, profile),
            seed,
            link: (src, dst),
            n,
            partition_every,
            partition_len,
            index: 0,
        }
    }

    fn partition_active(&self, index: u64) -> bool {
        if self.partition_every == 0
            || self.partition_len == 0
            || index % self.partition_every >= self.partition_len
        {
            return false;
        }
        let iso = isolated_node(self.seed, self.n, index / self.partition_every);
        iso == self.link.0 || iso == self.link.1
    }
}

impl Iterator for LinkSchedule {
    type Item = LinkDecision;

    /// Draws the decision for the next data frame on the link; never
    /// `None`.
    fn next(&mut self) -> Option<LinkDecision> {
        let index = self.index;
        self.index += 1;
        let partition = self.partition_active(index);
        let op = if partition {
            FaultOp::Drop
        } else {
            self.stream.next_op().1
        };
        Some(LinkDecision {
            index,
            op,
            partition,
        })
    }
}

/// [`DeliveryPolicy`] adapter: drives the simulator from the same fault
/// streams the TCP nemesis uses.
///
/// The simulator's channels are reliable (the paper's model), so lossy
/// ops map onto time: `Drop`/`Cut`/`CutMid` become a long delay (the
/// retransmit a real transport would perform), `Reorder` an extra hold
/// long enough for a successor to overtake, `Duplicate`/`Deliver` the
/// base delay. One stream per directed link, created lazily.
pub struct ChaosPolicy {
    seed: u64,
    profile: FaultProfile,
    base: u64,
    streams: Vec<((NodeIndex, NodeIndex), LinkFaultStream)>,
}

impl ChaosPolicy {
    /// Creates the policy; `base` is the fault-free delay in ticks.
    pub fn new(seed: u64, profile: FaultProfile, base: u64) -> Self {
        ChaosPolicy {
            seed,
            profile,
            base: base.max(1),
            streams: Vec::new(),
        }
    }

    fn stream(&mut self, src: NodeIndex, dst: NodeIndex) -> &mut LinkFaultStream {
        if let Some(i) = self.streams.iter().position(|(k, _)| *k == (src, dst)) {
            return &mut self.streams[i].1;
        }
        self.streams.push((
            (src, dst),
            LinkFaultStream::new(self.seed, src, dst, self.profile),
        ));
        let last = self.streams.len() - 1;
        &mut self.streams[last].1
    }
}

impl fmt::Debug for ChaosPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosPolicy")
            .field("seed", &self.seed)
            .field("profile", &self.profile)
            .field("base", &self.base)
            .field("links", &self.streams.len())
            .finish()
    }
}

impl DeliveryPolicy for ChaosPolicy {
    fn delay(&mut self, src: NodeIndex, dst: NodeIndex, _now: VirtualTime) -> u64 {
        let base = self.base;
        let (_, op) = self.stream(src, dst).next_op();
        match op {
            FaultOp::Deliver | FaultOp::Duplicate => base,
            FaultOp::Delay(ms) => base + ms,
            FaultOp::Reorder => base + 2,
            // A real transport retransmits after loss; model the loss as
            // late arrival so the channel stays reliable.
            FaultOp::Drop | FaultOp::Cut | FaultOp::CutMid(_) => base + 50,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(stream: &mut LinkFaultStream, n: usize) -> Vec<(u64, FaultOp)> {
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_same_link_same_stream() {
        let mut a = LinkFaultStream::new(42, 0, 1, FaultProfile::heavy());
        let mut b = LinkFaultStream::new(42, 0, 1, FaultProfile::heavy());
        assert_eq!(drain(&mut a, 500), drain(&mut b, 500));
    }

    #[test]
    fn distinct_links_decorrelate() {
        let mut fwd = LinkFaultStream::new(42, 0, 1, FaultProfile::heavy());
        let mut rev = LinkFaultStream::new(42, 1, 0, FaultProfile::heavy());
        assert_ne!(drain(&mut fwd, 500), drain(&mut rev, 500));
    }

    #[test]
    fn off_profile_always_delivers() {
        let mut s = LinkFaultStream::new(9, 2, 3, FaultProfile::off());
        for (i, op) in drain(&mut s, 200) {
            assert_eq!(op, FaultOp::Deliver, "frame {i}");
        }
    }

    #[test]
    fn heavy_profile_exercises_every_op() {
        let mut s = LinkFaultStream::new(7, 0, 1, FaultProfile::heavy());
        let ops = drain(&mut s, 4000);
        let has = |f: fn(&FaultOp) -> bool| ops.iter().any(|(_, op)| f(op));
        assert!(has(|o| matches!(o, FaultOp::Deliver)));
        assert!(has(|o| matches!(o, FaultOp::Delay(_))));
        assert!(has(|o| matches!(o, FaultOp::Reorder)));
        assert!(has(|o| matches!(o, FaultOp::Duplicate)));
        assert!(has(|o| matches!(o, FaultOp::Drop)));
        assert!(has(|o| matches!(o, FaultOp::Cut)));
        assert!(has(|o| matches!(o, FaultOp::CutMid(_))));
    }

    #[test]
    fn indices_count_frames() {
        let mut s = LinkFaultStream::new(1, 0, 1, FaultProfile::light());
        for want in 0..10u64 {
            let (at, _) = s.next_op();
            assert_eq!(at, want);
        }
        assert_eq!(s.index(), 10);
    }

    #[test]
    fn chaos_policy_is_deterministic_and_floored() {
        let mut a = ChaosPolicy::new(3, FaultProfile::heavy(), 2);
        let mut b = ChaosPolicy::new(3, FaultProfile::heavy(), 2);
        for _ in 0..300 {
            let da = a.delay(0, 1, VirtualTime::ZERO);
            assert_eq!(da, b.delay(0, 1, VirtualTime::ZERO));
            assert!(da >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "per mille")]
    fn profile_rates_must_fit() {
        let mut p = FaultProfile::off();
        p.drop_pm = 600;
        p.duplicate_pm = 600;
        let _ = LinkFaultStream::new(0, 0, 1, p);
    }
}
