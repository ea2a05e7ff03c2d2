//! Client frames: the request/response API, the [`NodeStatus`] counter
//! snapshot, and the consistent-cut snapshot a `Cut` response carries.

use super::{
    bad_data, decode_partition_map, encode_partition_map, TAG_BYE, TAG_CONFIG, TAG_CONFIG_RESP,
    TAG_CUT, TAG_CUT_RESP, TAG_METRICS, TAG_METRICS_RESP, TAG_READ, TAG_READ_RESP, TAG_SHUTDOWN,
    TAG_STATUS, TAG_STATUS_RESP, TAG_TRACE, TAG_TRACE_RESP, TAG_WRITE, TAG_WRITE_ACK, WIRE_VERSION,
};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, PartitionCut, TraceCheckpoint};
use prcc_clock::encoding::{read_varint_at as get_varint, write_varint};
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_storage::{decode_trace_checkpoint, encode_trace_checkpoint};
use prcc_telemetry::MetricsSnapshot;
use std::io;

/// Encodes a [`CutSnapshot`] (the `Cut` response body).
fn encode_cut_snapshot(snap: &CutSnapshot, out: &mut Vec<u8>) {
    write_varint(out, snap.node);
    write_varint(out, snap.token);
    write_varint(out, snap.partitions.len() as u64);
    for pc in &snap.partitions {
        write_varint(out, u64::from(pc.partition));
        write_varint(out, pc.role as u64);
        write_varint(out, pc.issued_high);
        write_varint(out, pc.applied.len() as u64);
        for &applied in &pc.applied {
            write_varint(out, applied);
        }
        write_varint(out, pc.pending);
    }
}

fn decode_cut_snapshot(payload: &[u8], at: &mut usize) -> io::Result<CutSnapshot> {
    let node = get_varint(payload, at)?;
    let token = get_varint(payload, at)?;
    let count = get_varint(payload, at)? as usize;
    if count > 1 << 20 {
        return Err(bad_data("absurd cut partition count"));
    }
    let mut partitions = Vec::with_capacity(count.min(1 << 10));
    for _ in 0..count {
        let partition =
            u32::try_from(get_varint(payload, at)?).map_err(|_| bad_data("partition id"))?;
        let role = get_varint(payload, at)? as usize;
        let issued_high = get_varint(payload, at)?;
        let roles = get_varint(payload, at)? as usize;
        if roles > 1 << 20 {
            return Err(bad_data("absurd cut role count"));
        }
        let mut applied = Vec::with_capacity(roles.min(1 << 10));
        for _ in 0..roles {
            applied.push(get_varint(payload, at)?);
        }
        let pending = get_varint(payload, at)?;
        partitions.push(PartitionCut {
            partition,
            role,
            issued_high,
            applied,
            pending,
        });
    }
    Ok(CutSnapshot {
        node,
        token,
        partitions,
    })
}

/// A client-API request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientRequest {
    /// `write(x, v)` in one partition, with `pad` extra payload bytes.
    Write {
        /// Target partition.
        partition: PartitionId,
        /// Target register within the partition.
        register: RegisterId,
        /// Value to write.
        value: u64,
        /// Simulated extra value bytes.
        pad: usize,
    },
    /// `read(x)` in one partition.
    Read {
        /// Target partition.
        partition: PartitionId,
        /// Register to read.
        register: RegisterId,
    },
    /// Counters snapshot.
    Status,
    /// The node's local event logs, grouped by partition.
    Trace,
    /// The node's sharding configuration (version + partition map), for
    /// clients that route by key.
    Config,
    /// The node's live metric snapshot: counters, gauges, and per-stage
    /// latency histograms (v6).
    Metrics,
    /// Consistent-cut audit (v7). With `start`, the node snapshots its
    /// frontiers for `token` (if it has not already seen it) and floods
    /// markers to its peers; either way the response carries the node's
    /// snapshot for `token` if it has one.
    Cut {
        /// The cut token identifying this audit round.
        token: u64,
        /// Initiate the cut here (false = just poll for the snapshot).
        start: bool,
    },
    /// Graceful node shutdown.
    Shutdown,
}

/// Appends a client request payload to `out` — [`crate::ServiceClient`]
/// re-encodes every request into one reusable buffer instead of allocating
/// per round trip.
// lint: hot-path
pub fn encode_request_into(req: &ClientRequest, out: &mut Vec<u8>) {
    match req {
        ClientRequest::Write {
            partition,
            register,
            value,
            pad,
        } => {
            out.push(TAG_WRITE);
            write_varint(out, u64::from(partition.0));
            write_varint(out, u64::from(register.0));
            write_varint(out, *value);
            write_varint(out, *pad as u64);
            out.resize(out.len() + pad, 0);
        }
        ClientRequest::Read {
            partition,
            register,
        } => {
            out.push(TAG_READ);
            write_varint(out, u64::from(partition.0));
            write_varint(out, u64::from(register.0));
        }
        ClientRequest::Status => out.push(TAG_STATUS),
        ClientRequest::Trace => out.push(TAG_TRACE),
        ClientRequest::Config => out.push(TAG_CONFIG),
        ClientRequest::Metrics => out.push(TAG_METRICS),
        ClientRequest::Cut { token, start } => {
            out.push(TAG_CUT);
            out.push(u8::from(*start));
            write_varint(out, *token);
        }
        ClientRequest::Shutdown => out.push(TAG_SHUTDOWN),
    }
}
// lint: end-hot-path

/// Decodes a client request payload.
pub fn decode_request(payload: &[u8]) -> io::Result<ClientRequest> {
    let mut at = 1;
    match payload.first() {
        Some(&TAG_WRITE) => {
            let partition = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("partition id"))?;
            let register = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("register id"))?;
            let value = get_varint(payload, &mut at)?;
            let pad = get_varint(payload, &mut at)? as usize;
            if payload.len() - at < pad {
                return Err(bad_data("truncated write pad"));
            }
            Ok(ClientRequest::Write {
                partition: PartitionId(partition),
                register: RegisterId(register),
                value,
                pad,
            })
        }
        Some(&TAG_READ) => {
            let partition = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("partition id"))?;
            let register = u32::try_from(get_varint(payload, &mut at)?)
                .map_err(|_| bad_data("register id"))?;
            Ok(ClientRequest::Read {
                partition: PartitionId(partition),
                register: RegisterId(register),
            })
        }
        Some(&TAG_STATUS) => Ok(ClientRequest::Status),
        Some(&TAG_TRACE) => Ok(ClientRequest::Trace),
        Some(&TAG_CONFIG) => Ok(ClientRequest::Config),
        Some(&TAG_METRICS) => Ok(ClientRequest::Metrics),
        Some(&TAG_CUT) => {
            let start = *payload.get(1).ok_or_else(|| bad_data("cut start flag"))? == 1;
            at = 2;
            let token = get_varint(payload, &mut at)?;
            Ok(ClientRequest::Cut { token, start })
        }
        Some(&TAG_SHUTDOWN) => Ok(ClientRequest::Shutdown),
        _ => Err(bad_data("unknown client request")),
    }
}

/// Per-partition slice of a node's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCounters {
    /// Updates issued by clients into this partition at this node.
    pub issued: u64,
    /// Remote updates applied in this partition at this node.
    pub applies: u64,
    /// Updates buffered in this partition's pending set.
    pub pending: u64,
}

/// A node's counter snapshot, returned by [`ClientRequest::Status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStatus {
    /// The reporting node.
    pub node: u64,
    /// Updates issued by clients of this node (all partitions).
    pub issued: u64,
    /// Update copies handed to peer senders.
    pub messages_sent: u64,
    /// Update copies decoded from peers.
    pub messages_received: u64,
    /// Remote updates applied (all partitions).
    pub applies: u64,
    /// Updates currently buffered (predicate `J` not yet satisfied).
    pub pending: u64,
    /// Duplicate deliveries dropped.
    pub duplicates_dropped: u64,
    /// Always 0: a frame routing updates to a partition this node does not
    /// host is refused whole, and its link closed. Kept for the format.
    pub dropped_misrouted: u64,
    /// Bytes written to peer sockets (frames included).
    pub bytes_out: u64,
    /// Bytes read from peer sockets (frames included).
    pub bytes_in: u64,
    /// Per-partition update runs shipped to peers (one run per partition
    /// present in a flush — the v2 "batch" unit, kept so `updates_per_batch`
    /// stays comparable across versions).
    pub batches_sent: u64,
    /// Peer update frames written. With v3 multi-partition framing every
    /// flush is one frame, so `frames_sent <= batches_sent`; the gap is the
    /// framing overhead v3 amortizes away.
    pub frames_sent: u64,
    /// Sender flush cycles, counted when a drained batch exists — before
    /// (and independently of) the frame write succeeding, so
    /// frames-per-flush stays an honest ratio of two separately
    /// instrumented events.
    pub flushes: u64,
    /// Update copies resent from the durable window after a reconnect
    /// (zero on a healthy link).
    pub resent: u64,
    /// WAL records appended since this process started (0 when running
    /// without a data dir).
    pub wal_appends: u64,
    /// Snapshots written since this process started.
    pub snapshots_written: u64,
    /// Current WAL size in bytes (0 without a data dir). Bounded by the
    /// snapshot cadence: every snapshot truncates the log.
    pub wal_bytes: u64,
    /// Payload size of the most recent snapshot in bytes. With
    /// checkpointed trace compaction this stays O(live state) — flat over
    /// the run length, which the load harness gates on.
    pub snapshot_bytes: u64,
    /// Payload size of the first snapshot this process wrote (the baseline
    /// for the flat-snapshot regression gate).
    pub first_snapshot_bytes: u64,
    /// Live (uncompacted) trace events across hosted partitions.
    pub trace_events: u64,
    /// Trace events sealed into checkpoint summaries and discarded.
    pub sealed_events: u64,
    /// Largest per-peer resend window observed since this process started.
    pub max_window: u64,
    /// Window entries evicted by the per-peer cap (nonzero only when a
    /// peer was stranded past `window_cap` unacknowledged updates).
    pub window_evicted: u64,
    /// Reactor worker wakeups (epoll_wait returns) since start (v8).
    pub reactor_wakeups: u64,
    /// Readiness events delivered across all wakeups (v8);
    /// `reactor_events / reactor_wakeups` is the batching ratio.
    pub reactor_events: u64,
    /// Interest re-arms after a partial (`WouldBlock`) flush (v8) — each
    /// is a write the event loop parked instead of blocking a thread on.
    pub reactor_rearms: u64,
    /// High-water mark of any single connection's outbound queue in bytes
    /// (v8); the backpressure bound caps this.
    pub reactor_outq_hiwat: u64,
    /// Counters broken out per partition, indexed by partition id.
    pub per_partition: Vec<PartitionCounters>,
}

impl NodeStatus {
    fn fields(&self) -> [u64; 27] {
        [
            self.node,
            self.issued,
            self.messages_sent,
            self.messages_received,
            self.applies,
            self.pending,
            self.duplicates_dropped,
            self.dropped_misrouted,
            self.bytes_out,
            self.bytes_in,
            self.batches_sent,
            self.frames_sent,
            self.flushes,
            self.resent,
            self.wal_appends,
            self.snapshots_written,
            self.wal_bytes,
            self.snapshot_bytes,
            self.first_snapshot_bytes,
            self.trace_events,
            self.sealed_events,
            self.max_window,
            self.window_evicted,
            self.reactor_wakeups,
            self.reactor_events,
            self.reactor_rearms,
            self.reactor_outq_hiwat,
        ]
    }

    fn from_fields(f: [u64; 27]) -> Self {
        NodeStatus {
            node: f[0],
            issued: f[1],
            messages_sent: f[2],
            messages_received: f[3],
            applies: f[4],
            pending: f[5],
            duplicates_dropped: f[6],
            dropped_misrouted: f[7],
            bytes_out: f[8],
            bytes_in: f[9],
            batches_sent: f[10],
            frames_sent: f[11],
            flushes: f[12],
            resent: f[13],
            wal_appends: f[14],
            snapshots_written: f[15],
            wal_bytes: f[16],
            snapshot_bytes: f[17],
            first_snapshot_bytes: f[18],
            trace_events: f[19],
            sealed_events: f[20],
            max_window: f[21],
            window_evicted: f[22],
            reactor_wakeups: f[23],
            reactor_events: f[24],
            reactor_rearms: f[25],
            reactor_outq_hiwat: f[26],
            per_partition: Vec::new(),
        }
    }
}

/// A client-API response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientResponse {
    /// Result of a write (`false`: the node does not host the register in
    /// that partition).
    WriteAck {
        /// Whether the write was accepted.
        ok: bool,
    },
    /// Result of a read (`ok = false`: not hosted here).
    ReadResp {
        /// Whether the node hosts the register in that partition.
        ok: bool,
        /// The value, if any write has reached this node.
        value: Option<u64>,
    },
    /// Counter snapshot.
    Status(NodeStatus),
    /// The node's local event logs, indexed by partition id: per
    /// partition, the sealed-prefix checkpoint summary plus the live
    /// suffix (v5 — a compacting node no longer retains full history).
    Trace(Vec<(TraceCheckpoint, Vec<TraceEvent>)>),
    /// The node's sharding configuration.
    Config {
        /// Wire protocol version the node speaks.
        version: u64,
        /// The partition map the node is deployed under.
        map: PartitionMap,
    },
    /// Live metric snapshot (v6): counters, gauges, and per-stage latency
    /// histograms, mergeable across nodes.
    Metrics(MetricsSnapshot),
    /// The node's cut snapshot for the requested token, if it has taken
    /// one (v7); `None` = the marker has not reached this node yet.
    Cut(Option<CutSnapshot>),
    /// Shutdown acknowledged.
    Bye,
}

/// Appends a client response payload to `out` — the node encodes each
/// response straight into a leased frame buffer.
// lint: hot-path
pub fn encode_response_into(resp: &ClientResponse, out: &mut Vec<u8>) {
    match resp {
        ClientResponse::WriteAck { ok } => out.extend_from_slice(&[TAG_WRITE_ACK, u8::from(*ok)]),
        ClientResponse::ReadResp { ok, value } => {
            out.extend_from_slice(&[TAG_READ_RESP, u8::from(*ok), u8::from(value.is_some())]);
            write_varint(out, value.unwrap_or(0));
        }
        ClientResponse::Status(status) => {
            // The status field set changes across wire versions (v3 added
            // frames_sent/flushes/dropped_misrouted, v4 added
            // resent/wal_appends/snapshots_written), so the payload opens
            // with the version: a client built against another version
            // fails loudly instead of misparsing shifted varints.
            out.push(TAG_STATUS_RESP);
            write_varint(out, WIRE_VERSION);
            for v in status.fields() {
                write_varint(out, v);
            }
            write_varint(out, status.per_partition.len() as u64);
            for pc in &status.per_partition {
                write_varint(out, pc.issued);
                write_varint(out, pc.applies);
                write_varint(out, pc.pending);
            }
        }
        ClientResponse::Trace(partitions) => {
            out.push(TAG_TRACE_RESP);
            write_varint(out, partitions.len() as u64);
            for (checkpoint, events) in partitions {
                encode_trace_checkpoint(checkpoint, out);
                write_varint(out, events.len() as u64);
                for event in events {
                    match *event {
                        TraceEvent::Issue {
                            replica,
                            register,
                            update,
                        } => {
                            out.push(0);
                            write_varint(out, replica.index() as u64);
                            write_varint(out, u64::from(register.0));
                            write_varint(out, update);
                        }
                        TraceEvent::Apply { replica, update } => {
                            out.push(1);
                            write_varint(out, replica.index() as u64);
                            write_varint(out, update);
                        }
                    }
                }
            }
        }
        ClientResponse::Config { version, map } => {
            out.push(TAG_CONFIG_RESP);
            write_varint(out, *version);
            encode_partition_map(map, out);
        }
        ClientResponse::Metrics(snapshot) => {
            // Version-stamped like Status: metric names and histogram
            // bucketing are a per-version contract, so a cross-version
            // scrape fails loudly instead of merging incompatible data.
            out.push(TAG_METRICS_RESP);
            write_varint(out, WIRE_VERSION);
            snapshot.encode(out);
        }
        ClientResponse::Cut(snapshot) => {
            out.push(TAG_CUT_RESP);
            write_varint(out, WIRE_VERSION);
            out.push(u8::from(snapshot.is_some()));
            if let Some(snap) = snapshot {
                encode_cut_snapshot(snap, out);
            }
        }
        ClientResponse::Bye => out.push(TAG_BYE),
    }
}
// lint: end-hot-path

/// Decodes a client response payload.
pub fn decode_response(payload: &[u8]) -> io::Result<ClientResponse> {
    let mut at = 1;
    match payload.first() {
        Some(&TAG_WRITE_ACK) => Ok(ClientResponse::WriteAck {
            ok: payload.get(1) == Some(&1),
        }),
        Some(&TAG_READ_RESP) => {
            let ok = payload.get(1) == Some(&1);
            let present = payload.get(2) == Some(&1);
            at = 3;
            let value = get_varint(payload, &mut at)?;
            Ok(ClientResponse::ReadResp {
                ok,
                value: present.then_some(value),
            })
        }
        Some(&TAG_STATUS_RESP) => {
            let version = get_varint(payload, &mut at)?;
            if version != WIRE_VERSION {
                return Err(bad_data(&format!(
                    "status response version mismatch: node speaks v{version}, \
                     this client v{WIRE_VERSION}"
                )));
            }
            let mut fields = [0u64; 27];
            for f in &mut fields {
                *f = get_varint(payload, &mut at)?;
            }
            let mut status = NodeStatus::from_fields(fields);
            let parts = get_varint(payload, &mut at)? as usize;
            status.per_partition = Vec::with_capacity(parts.min(1 << 20));
            for _ in 0..parts {
                status.per_partition.push(PartitionCounters {
                    issued: get_varint(payload, &mut at)?,
                    applies: get_varint(payload, &mut at)?,
                    pending: get_varint(payload, &mut at)?,
                });
            }
            Ok(ClientResponse::Status(status))
        }
        Some(&TAG_TRACE_RESP) => {
            let parts = get_varint(payload, &mut at)? as usize;
            let mut partitions = Vec::with_capacity(parts.min(1 << 20));
            for _ in 0..parts {
                let checkpoint = decode_trace_checkpoint(payload, &mut at)?;
                let count = get_varint(payload, &mut at)? as usize;
                let mut events = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let kind = *payload.get(at).ok_or_else(|| bad_data("event kind"))?;
                    at += 1;
                    let replica = ReplicaId(get_varint(payload, &mut at)? as usize);
                    let event = match kind {
                        0 => {
                            let register = u32::try_from(get_varint(payload, &mut at)?)
                                .map_err(|_| bad_data("register id"))?;
                            let update = get_varint(payload, &mut at)?;
                            TraceEvent::Issue {
                                replica,
                                register: RegisterId(register),
                                update,
                            }
                        }
                        1 => TraceEvent::Apply {
                            replica,
                            update: get_varint(payload, &mut at)?,
                        },
                        _ => return Err(bad_data("unknown event kind")),
                    };
                    events.push(event);
                }
                partitions.push((checkpoint, events));
            }
            Ok(ClientResponse::Trace(partitions))
        }
        Some(&TAG_CONFIG_RESP) => {
            let version = get_varint(payload, &mut at)?;
            let map = decode_partition_map(payload, &mut at)?;
            Ok(ClientResponse::Config { version, map })
        }
        Some(&TAG_METRICS_RESP) => {
            let version = get_varint(payload, &mut at)?;
            if version != WIRE_VERSION {
                return Err(bad_data(&format!(
                    "metrics response version mismatch: node speaks v{version}, \
                     this client v{WIRE_VERSION}"
                )));
            }
            let snapshot = MetricsSnapshot::decode(payload, &mut at)?;
            if at != payload.len() {
                return Err(bad_data("trailing bytes in metrics response"));
            }
            Ok(ClientResponse::Metrics(snapshot))
        }
        Some(&TAG_CUT_RESP) => {
            let version = get_varint(payload, &mut at)?;
            if version != WIRE_VERSION {
                return Err(bad_data(&format!(
                    "cut response version mismatch: node speaks v{version}, \
                     this client v{WIRE_VERSION}"
                )));
            }
            let present = *payload.get(at).ok_or_else(|| bad_data("cut presence"))? == 1;
            at += 1;
            let snapshot = if present {
                let snap = decode_cut_snapshot(payload, &mut at)?;
                if at != payload.len() {
                    return Err(bad_data("trailing bytes in cut response"));
                }
                Some(snap)
            } else {
                None
            };
            Ok(ClientResponse::Cut(snapshot))
        }
        Some(&TAG_BYE) => Ok(ClientResponse::Bye),
        _ => Err(bad_data("unknown client response")),
    }
}
