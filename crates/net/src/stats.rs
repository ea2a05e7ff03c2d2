//! Traffic accounting for metadata-overhead experiments.

use crate::{NodeIndex, VirtualTime};

/// Counters of messages and bytes per link and in aggregate, plus delivery
/// latency accumulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    num_nodes: usize,
    /// Flattened `src * n + dst` message counts.
    link_messages: Vec<u64>,
    /// Flattened `src * n + dst` byte counts.
    link_bytes: Vec<u64>,
    messages_sent: u64,
    bytes_sent: u64,
    messages_delivered: u64,
    /// Sum of delivery times, for mean latency (delivery time − 0 is not a
    /// latency; the network records times so callers can compute spans).
    last_delivery: VirtualTime,
}

impl NetStats {
    pub(crate) fn new(num_nodes: usize) -> Self {
        NetStats {
            num_nodes,
            link_messages: vec![0; num_nodes * num_nodes],
            link_bytes: vec![0; num_nodes * num_nodes],
            messages_sent: 0,
            bytes_sent: 0,
            messages_delivered: 0,
            last_delivery: VirtualTime::ZERO,
        }
    }

    pub(crate) fn record_send(&mut self, src: NodeIndex, dst: NodeIndex, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        self.link_messages[src * self.num_nodes + dst] += 1;
        self.link_bytes[src * self.num_nodes + dst] += bytes as u64;
    }

    pub(crate) fn record_delivery(
        &mut self,
        _src: NodeIndex,
        _dst: NodeIndex,
        _bytes: usize,
        at: VirtualTime,
    ) {
        self.messages_delivered += 1;
        self.last_delivery = self.last_delivery.max(at);
    }

    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages sent on the directed link `src → dst`.
    pub fn link_messages(&self, src: NodeIndex, dst: NodeIndex) -> u64 {
        self.link_messages[src * self.num_nodes + dst]
    }

    /// Bytes sent on the directed link `src → dst`.
    pub fn link_bytes(&self, src: NodeIndex, dst: NodeIndex) -> u64 {
        self.link_bytes[src * self.num_nodes + dst]
    }

    /// Time of the latest delivery.
    pub fn last_delivery(&self) -> VirtualTime {
        self.last_delivery
    }

    /// Mean bytes per message.
    pub fn mean_message_bytes(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut s = NetStats::new(3);
        s.record_send(0, 1, 10);
        s.record_send(0, 1, 20);
        s.record_send(2, 0, 5);
        assert_eq!(s.messages_sent(), 3);
        assert_eq!(s.bytes_sent(), 35);
        assert_eq!(s.link_messages(0, 1), 2);
        assert_eq!(s.link_bytes(0, 1), 30);
        assert_eq!(s.link_messages(1, 0), 0);
        assert!((s.mean_message_bytes() - 35.0 / 3.0).abs() < 1e-9);
        s.record_delivery(0, 1, 10, VirtualTime(9));
        assert_eq!(s.messages_delivered(), 1);
        assert_eq!(s.last_delivery(), VirtualTime(9));
    }

    #[test]
    fn empty_stats() {
        let s = NetStats::new(2);
        assert_eq!(s.mean_message_bytes(), 0.0);
        assert_eq!(s.messages_sent(), 0);
    }
}
