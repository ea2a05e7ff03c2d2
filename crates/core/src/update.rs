//! The `update(i, τ, x, v)` message of the prototype.

use prcc_checker::UpdateId;
use prcc_clock::ClockState;
use prcc_graph::{RegisterId, ReplicaId};
use prcc_net::VirtualTime;

/// An update message: issuer, attached timestamp, register and value
/// (`update(i, τ_i, x, v)` in the prototype), plus bookkeeping for the
/// oracle and latency accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Update<C> {
    /// Oracle-assigned globally unique id (not protocol metadata; used only
    /// for verification and statistics).
    pub id: UpdateId,
    /// The issuing replica `i`.
    pub issuer: ReplicaId,
    /// The written register `x`.
    pub register: RegisterId,
    /// The written value `v`.
    pub value: u64,
    /// The attached timestamp `τ_i` (after `advance`).
    pub clock: C,
    /// Virtual time at which the update was issued (latency accounting).
    pub issued_at: VirtualTime,
    /// Virtual time at which this copy was received (set on receipt; used
    /// for pending-buffer stall accounting).
    pub received_at: VirtualTime,
}

impl<C: ClockState> Update<C> {
    /// Wire size of the message: fixed header (issuer, register, value) plus
    /// the encoded timestamp.
    ///
    /// Headers cost 12 bytes (4-byte issuer + 4-byte register + … values are
    /// 8 bytes but dummy-metadata messages omit them); the dominant,
    /// topology-dependent term is the timestamp.
    pub fn wire_size(&self, carries_value: bool) -> usize {
        let header = 8; // issuer + register
        let value = if carries_value { 8 } else { 0 };
        header + value + self.clock.encoded_len()
    }
}

impl<C: prcc_clock::WireClock> Update<C> {
    /// Appends the real wire encoding of this update: varint id, issuer,
    /// register and value, followed by the timestamp counters.
    ///
    /// The virtual-time bookkeeping fields (`issued_at`, `received_at`) are
    /// simulator-local and intentionally not transmitted; a networked
    /// deployment measures latency with wall clocks at its own layer.
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        use prcc_clock::encoding::write_varint;
        write_varint(out, self.id.0);
        write_varint(out, self.issuer.index() as u64);
        write_varint(out, u64::from(self.register.0));
        write_varint(out, self.value);
        self.clock.encode_wire(out);
    }

    /// Decodes an update produced by [`Update::encode_wire`] from the front
    /// of `buf`, advancing `offset`.
    ///
    /// `make_clock` maps the decoded issuer to a zeroed template clock with
    /// that replica's index set (typically `Protocol::new_clock`); it may
    /// return `None` for an out-of-range issuer. Returns `None` on any
    /// malformed input.
    pub fn decode_wire<F>(buf: &[u8], offset: &mut usize, make_clock: F) -> Option<Update<C>>
    where
        F: FnOnce(ReplicaId) -> Option<C>,
    {
        use prcc_clock::encoding::read_varint;
        let mut at = *offset;
        let next = |at: &mut usize| -> Option<u64> {
            let (v, used) = read_varint(&buf[*at..])?;
            *at += used;
            Some(v)
        };
        let id = next(&mut at)?;
        let issuer = usize::try_from(next(&mut at)?).ok()?;
        let register = u32::try_from(next(&mut at)?).ok()?;
        let value = next(&mut at)?;
        let mut clock = make_clock(ReplicaId(issuer))?;
        if !clock.decode_wire(buf, &mut at) {
            return None;
        }
        *offset = at;
        Some(Update {
            id: UpdateId(id),
            issuer: ReplicaId(issuer),
            register: RegisterId(register),
            value,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_clock::{EdgeProtocol, Protocol};
    use prcc_graph::topologies;

    #[test]
    fn wire_encoding_round_trips() {
        let g = topologies::figure5();
        let p = EdgeProtocol::new(g);
        let i = ReplicaId(0);
        let mut clock = p.new_clock(i);
        p.advance(i, &mut clock, RegisterId(5));
        p.advance(i, &mut clock, RegisterId(7));
        let u = Update {
            id: UpdateId(77),
            issuer: i,
            register: RegisterId(5),
            value: 424242,
            clock,
            issued_at: VirtualTime(9),
            received_at: VirtualTime(11),
        };
        let mut buf = Vec::new();
        u.encode_wire(&mut buf);
        let mut offset = 0;
        let got = Update::decode_wire(&buf, &mut offset, |k| Some(p.new_clock(k)))
            .expect("well-formed update");
        assert_eq!(offset, buf.len());
        assert_eq!(got.id, u.id);
        assert_eq!(got.issuer, u.issuer);
        assert_eq!(got.register, u.register);
        assert_eq!(got.value, u.value);
        assert_eq!(got.clock, u.clock);
        // Virtual times are simulator-local and reset on decode.
        assert_eq!(got.issued_at, VirtualTime::ZERO);
    }

    #[test]
    fn wire_decoding_rejects_truncation() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let u = Update {
            id: UpdateId(1),
            issuer: ReplicaId(0),
            register: RegisterId(0),
            value: 5,
            clock: p.new_clock(ReplicaId(0)),
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        let mut buf = Vec::new();
        u.encode_wire(&mut buf);
        for cut in 0..buf.len() {
            let mut offset = 0;
            assert!(
                Update::<prcc_clock::EdgeClock>::decode_wire(&buf[..cut], &mut offset, |k| Some(
                    p.new_clock(k)
                ))
                .is_none(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn wire_size_accounts_for_value_and_clock() {
        let g = topologies::line(2);
        let p = EdgeProtocol::new(g);
        let u = Update {
            id: UpdateId(0),
            issuer: ReplicaId(0),
            register: RegisterId(0),
            value: 42,
            clock: p.new_clock(ReplicaId(0)),
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        let with = u.wire_size(true);
        let without = u.wire_size(false);
        assert_eq!(with - without, 8);
        assert!(without > 8);
    }
}
