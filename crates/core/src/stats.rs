//! Aggregate run statistics.

use prcc_telemetry::HistSummary;

/// Summary of a cluster run: traffic, metadata and latency figures used by
/// the experiment tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Updates issued by clients.
    pub updates_issued: u64,
    /// Update messages sent (≥ issued × recipients).
    pub messages_sent: u64,
    /// Total bytes on the wire.
    pub bytes_sent: u64,
    /// Messages that carried metadata only (dummy-register copies).
    pub metadata_only_messages: u64,
    /// Remote applies performed.
    pub applies: u64,
    /// Applies that waited in a pending buffer behind other traffic.
    pub buffered_applies: u64,
    /// Largest pending buffer observed at any replica.
    pub max_pending: usize,
    /// Sum over applies of (apply time − issue time), in ticks. Derived
    /// from [`ClusterStats::apply_latency`]'s histogram; kept as a field so
    /// the experiment tables stay schema-stable.
    pub total_apply_latency: u64,
    /// Sum over applies of (apply time − receive time), in ticks — time
    /// spent blocked in `pending` (false/true dependency stalls). Derived
    /// from [`ClusterStats::pending_stall`]'s histogram.
    pub total_pending_stall: u64,
    /// Distribution of (apply time − issue time) over applies, in ticks —
    /// the simulator's visibility latency.
    pub apply_latency: HistSummary,
    /// Distribution of (apply time − receive time) over applies, in ticks —
    /// the paper's false-dependency stall, now with tails, not just a mean.
    pub pending_stall: HistSummary,
    /// Duplicate deliveries suppressed by the per-link watermarks
    /// (at-least-once channel tolerance).
    pub duplicates_dropped: u64,
    /// Per-replica timestamp entries (static metadata size).
    pub timestamp_entries: Vec<usize>,
}

impl ClusterStats {
    /// Mean end-to-end apply latency in ticks.
    pub fn mean_apply_latency(&self) -> f64 {
        if self.applies == 0 {
            0.0
        } else {
            self.total_apply_latency as f64 / self.applies as f64
        }
    }

    /// Mean time updates spent blocked in pending buffers.
    pub fn mean_pending_stall(&self) -> f64 {
        if self.applies == 0 {
            0.0
        } else {
            self.total_pending_stall as f64 / self.applies as f64
        }
    }

    /// Mean messages per issued update.
    pub fn messages_per_update(&self) -> f64 {
        if self.updates_issued == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.updates_issued as f64
        }
    }

    /// Mean metadata bytes per message.
    pub fn bytes_per_message(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.messages_sent as f64
        }
    }

    /// Total timestamp entries across replicas.
    pub fn total_timestamp_entries(&self) -> usize {
        self.timestamp_entries.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = ClusterStats {
            updates_issued: 10,
            messages_sent: 20,
            bytes_sent: 400,
            applies: 20,
            total_apply_latency: 100,
            total_pending_stall: 40,
            timestamp_entries: vec![4, 4, 6],
            ..Default::default()
        };
        assert_eq!(s.mean_apply_latency(), 5.0);
        assert_eq!(s.mean_pending_stall(), 2.0);
        assert_eq!(s.messages_per_update(), 2.0);
        assert_eq!(s.bytes_per_message(), 20.0);
        assert_eq!(s.total_timestamp_entries(), 14);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = ClusterStats::default();
        assert_eq!(s.mean_apply_latency(), 0.0);
        assert_eq!(s.messages_per_update(), 0.0);
        assert_eq!(s.bytes_per_message(), 0.0);
        assert_eq!(s.mean_pending_stall(), 0.0);
    }
}
