//! The durability layer's sans-I/O half: the WAL records `Core::apply`
//! staged — encoded, indexed, in memory — until `durable.rs` commits them.

use prcc_clock::WireClock;
use prcc_storage::{encode_record_into, WalRecord};

/// The in-memory WAL stage: records encoded but not yet written, plus the
/// index and snapshot-cadence accounting that must advance with them. The
/// driver writes all staged spans as one group-committed batch per reactor tick.
pub(crate) struct Stage {
    buf: Vec<u8>,
    spans: Vec<(usize, usize)>,
    /// Index the next staged record gets (monotonic across truncations).
    next_index: u64,
    snapshot_every: u64,
    records_since_snapshot: u64,
    /// Logical records staged since boot.
    pub(crate) appends: u64,
    /// Sample stamps of records staged this tick; the driver records
    /// `wal_append_us` against them once the batch is on disk.
    pub(crate) stamps: Vec<u64>,
}

impl Stage {
    pub(crate) fn new(next_index: u64, snapshot_every: u64) -> Self {
        Stage {
            buf: Vec::new(),
            spans: Vec::new(),
            next_index,
            snapshot_every,
            records_since_snapshot: 0,
            appends: 0,
            stamps: Vec::new(),
        }
    }

    /// Stages one record; infallible (I/O happens at commit). Returns the
    /// record's WAL index.
    pub(crate) fn push<C: WireClock>(&mut self, record: &WalRecord<C>) -> u64 {
        let index = self.next_index;
        let start = self.buf.len();
        encode_record_into(index, record, &mut self.buf);
        self.spans.push((start, self.buf.len() - start));
        self.next_index += 1;
        self.records_since_snapshot += 1;
        self.appends += 1;
        index
    }

    /// Index of the last record staged (0 = none yet).
    pub(crate) fn high(&self) -> u64 {
        self.next_index - 1
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The staged payloads, in order.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.spans
            .iter()
            .map(|&(start, len)| &self.buf[start..start + len])
    }

    /// Drops the staged payloads (committed, or abandoned with the log).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.spans.clear();
    }

    /// Whether enough records were staged since the last fold.
    pub(crate) fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every
    }

    /// A snapshot folded every record staged so far.
    pub(crate) fn folded(&mut self) {
        self.records_since_snapshot = 0;
    }
}
