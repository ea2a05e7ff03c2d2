//! Wire (de)serialization support for timestamps.
//!
//! All three clock representations share the same shape: an immutable,
//! statically configured index set plus a dense vector of `u64` counters.
//! Only the counters travel on the wire (LEB128 varints, see
//! [`crate::encoding`]); the receiving endpoint reconstructs the index set
//! from its own copy of the share-graph configuration and the issuer id.
//!
//! [`WireClock`] is the contract the networked deployment (`prcc-service`)
//! builds on: expose the counters for encoding, and decode counters in
//! place into a freshly minted template clock (`Protocol::new_clock(issuer)`).

use crate::encoding;
use crate::traits::ClockState;

/// Timestamps that can be shipped over a real wire.
///
/// Implementations must guarantee that for any clock `c` and a template
/// `t` created for the same replica under the same protocol configuration,
/// copying `c.counter_values()` into `t.counters_mut()` makes `t == c`.
pub trait WireClock: ClockState {
    /// The dense counter vector, in the clock's canonical index order.
    fn counter_values(&self) -> &[u64];

    /// The same counters, writable in place; the length is fixed by the
    /// clock's index set.
    fn counters_mut(&mut self) -> &mut [u64];

    /// Appends the varint encoding of the counters (count prefix included).
    fn encode_wire(&self, out: &mut Vec<u8>) {
        let counters = self.counter_values();
        encoding::write_varint(out, counters.len() as u64);
        for &c in counters {
            encoding::write_varint(out, c);
        }
    }

    /// Exact byte count [`WireClock::encode_wire`] will append — a sizing
    /// hint so in-place frame builders can reserve (or lease) right-sized
    /// buffers instead of growing mid-encode. (Distinct from
    /// [`crate::traits::ClockState::encoded_len`], the abstract metadata
    /// measure the paper's comparisons are plotted over.)
    fn wire_encoded_len(&self) -> usize {
        encoding::counters_len(self.counter_values())
    }

    /// Decodes counters produced by [`WireClock::encode_wire`] from the
    /// front of `buf` straight into `self` (a template clock), advancing
    /// `offset`.
    ///
    /// Returns `false` on malformed input or a count that does not match
    /// this clock's index set — the sign of a configuration mismatch
    /// between endpoints. `offset` is untouched on failure; the template
    /// may be partly overwritten and is meant to be discarded.
    fn decode_wire(&mut self, buf: &[u8], offset: &mut usize) -> bool {
        let Some(rest) = buf.get(*offset..) else {
            return false;
        };
        let Some((n, mut at)) = encoding::read_varint(rest) else {
            return false;
        };
        let counters = self.counters_mut();
        if n != counters.len() as u64 {
            return false;
        }
        for c in counters {
            let Some((v, used)) = encoding::read_varint(&rest[at..]) else {
                return false;
            };
            *c = v;
            at += used;
        }
        *offset += at;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressedProtocol, EdgeProtocol, Protocol, VectorProtocol};
    use prcc_graph::{topologies, RegisterId, ReplicaId};

    fn round_trip<P: Protocol>(p: &P)
    where
        P::Clock: WireClock,
    {
        let i = ReplicaId(0);
        let mut c = p.new_clock(i);
        for _ in 0..5 {
            p.advance(i, &mut c, RegisterId(0));
        }
        let mut buf = Vec::new();
        c.encode_wire(&mut buf);
        assert_eq!(buf.len(), c.wire_encoded_len(), "sizing hint must be exact");
        let mut out = p.new_clock(i);
        let mut offset = 0;
        assert!(out.decode_wire(&buf, &mut offset));
        assert_eq!(offset, buf.len());
        assert_eq!(out, c);
    }

    #[test]
    fn all_protocols_round_trip() {
        let g = topologies::ring(5);
        round_trip(&EdgeProtocol::new(g.clone()));
        round_trip(&CompressedProtocol::new(g.clone()));
        round_trip(&VectorProtocol::new(g));
    }

    #[test]
    fn length_mismatch_rejected() {
        let g = topologies::ring(5);
        let p = EdgeProtocol::new(g);
        let c = p.new_clock(ReplicaId(0));
        let mut buf = Vec::new();
        c.encode_wire(&mut buf);
        // A clock over a different index set refuses the counters.
        let other = EdgeProtocol::new(topologies::line(2));
        let mut wrong = other.new_clock(ReplicaId(0));
        let mut offset = 0;
        assert!(!wrong.decode_wire(&buf, &mut offset));
        assert_eq!(offset, 0, "offset untouched on failure");
    }

    #[test]
    fn absurd_counter_count_rejected_without_allocating() {
        // A counter-count varint claiming 2^40 entries must fail on decode
        // (truncation), not abort the process trying to pre-allocate.
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let mut buf = Vec::new();
        crate::encoding::write_varint(&mut buf, 1 << 40);
        buf.extend_from_slice(&[0, 0, 0]);
        let mut clock = p.new_clock(ReplicaId(0));
        let mut offset = 0;
        assert!(!clock.decode_wire(&buf, &mut offset));
        // Out-of-range offset is also rejected, not a panic.
        let mut offset = buf.len() + 10;
        assert!(!clock.decode_wire(&buf, &mut offset));
    }

    #[test]
    fn truncated_input_rejected() {
        let g = topologies::ring(4);
        let p = EdgeProtocol::new(g);
        let mut c = p.new_clock(ReplicaId(1));
        p.advance(ReplicaId(1), &mut c, RegisterId(1));
        let mut buf = Vec::new();
        c.encode_wire(&mut buf);
        let mut out = p.new_clock(ReplicaId(1));
        let mut offset = 0;
        assert!(!out.decode_wire(&buf[..buf.len() - 1], &mut offset));
    }
}
