//! Durability for prcc nodes: a write-ahead log plus per-node snapshots.
//!
//! The paper's algorithm assumes replicas never forget — a node's
//! share-graph-derived clock and register store are the causal state that
//! makes every future timestamp valid. This crate persists exactly that
//! state, exploiting the paper's headline result: because the clock is
//! share-graph-sized rather than `O(n)`, the per-update durability record
//! stays small (an update's clock is the same counter vector that travels
//! on the wire).
//!
//! Layout per node (under the service's `--data-dir`):
//!
//! ```text
//! <data-dir>/node-<i>/wal.bin        length-prefixed, CRC-checksummed records
//! <data-dir>/node-<i>/snapshot.bin   atomic fold of a WAL prefix
//! ```
//!
//! * [`wal`] — the record-framing layer: append, scan, torn-tail recovery
//!   (longest valid prefix), checksum rejection.
//! * [`record`] — the logical records ([`WalRecord`]): issues and peer
//!   receipt frames, encoded with the wire codecs so the durable and wire
//!   formats cannot drift.
//! * [`snapshot`] — [`NodeSnapshot`]: replica state, event logs, and
//!   per-peer link state (resend windows, ack high-water marks), encoded
//!   deterministically and written atomically.
//! * [`mod@crc32`] — the in-tree CRC-32 (IEEE) both layers share.
//!
//! The crate is deliberately policy-free: *when* to append, snapshot or
//! truncate is the node event loop's decision (`prcc-service`); this layer
//! guarantees only that what was appended is what comes back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use crc32::crc32;
pub use record::{
    decode_record, encode_receipt_record, encode_receipt_record_into, encode_record,
    encode_record_into, ReceiptSections, WalRecord,
};
pub use snapshot::{
    decode_snapshot, decode_trace_checkpoint, decode_trace_event, encode_snapshot,
    encode_trace_checkpoint, encode_trace_event, read_snapshot, write_snapshot, NodeSnapshot,
    PartitionSnapshot, PeerSnapshot, SNAPSHOT_MAGIC,
};
pub use wal::{
    scan_wal, scan_wal_spans, Wal, WalRecovery, WalScan, WalScanSpans, MAX_WAL_RECORD, WAL_MAGIC,
};
