//! Client frames: the request/response API, the consistent-cut snapshot a
//! `Cut` response carries, and [`NodeStatus`] — the typed read of a
//! `Metrics` scrape.

use super::{
    bad_data, decode_partition_map, encode_partition_map, TAG_BYE, TAG_CONFIG, TAG_CONFIG_RESP,
    TAG_CUT, TAG_CUT_RESP, TAG_METRICS, TAG_METRICS_RESP, TAG_READ, TAG_READ_RESP, TAG_SHUTDOWN,
    TAG_TRACE, TAG_TRACE_RESP, TAG_WRITE, TAG_WRITE_ACK, WIRE_VERSION,
};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, PartitionCut, TraceCheckpoint};
use prcc_clock::encoding::{read_varint_at as get_varint, write_varint};
use prcc_graph::{PartitionId, PartitionMap, RegisterId};
use prcc_storage::{
    decode_trace_checkpoint, decode_trace_event, encode_trace_checkpoint, encode_trace_event,
};
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
    // v14: the link sequence stamps the checker judges consistency by.
    for stamps in [&snap.sent, &snap.received] {
        write_varint(out, stamps.len() as u64);
        for &seq in stamps {
            write_varint(out, seq);
        }
    }
}

/// Reads one per-node stamp vector of a cut snapshot.
fn decode_cut_stamps(payload: &[u8], at: &mut usize) -> io::Result<Vec<u64>> {
    let nodes = get_varint(payload, at)? as usize;
    if nodes > 1 << 20 {
        return Err(bad_data("absurd cut stamp count"));
    }
    (0..nodes).map(|_| get_varint(payload, at)).collect()
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
        sent: decode_cut_stamps(payload, at)?,
        received: decode_cut_stamps(payload, at)?,
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

/// A node's counters, as one typed read of its [`MetricsSnapshot`]: every
/// scalar field is one registry counter or gauge ([`NodeStatus::metric_names`]
/// lists them beside the fields they fill), and `per_partition` is the
/// [`partition_metric_names`] gauges. [`NodeStatus::from_metrics`] is the
/// only constructor.
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
    /// Bytes written to peer sockets (frames included).
    pub bytes_out: u64,
    /// Bytes read from peer sockets (frames included).
    pub bytes_in: u64,
    /// Per-partition update runs shipped (one per partition in a flush).
    pub batches_sent: u64,
    /// Peer update frames written: one per flush, so `<= batches_sent`.
    pub frames_sent: u64,
    /// Sender flush cycles, counted apart from the frame write, so frames
    /// per flush is a ratio of two separately instrumented events.
    pub flushes: u64,
    /// Update copies resent from the window after a reconnect.
    pub resent: u64,
    /// WAL records appended since this process started.
    pub wal_appends: u64,
    /// Snapshots written since this process started.
    pub snapshots_written: u64,
    /// Current WAL size in bytes; every snapshot truncates the log.
    pub wal_bytes: u64,
    /// Payload size of the most recent snapshot: O(live state).
    pub snapshot_bytes: u64,
    /// Payload size of the first snapshot this process wrote.
    pub first_snapshot_bytes: u64,
    /// Live (uncompacted) trace events across hosted partitions.
    pub trace_events: u64,
    /// Trace events sealed into checkpoint summaries and discarded.
    pub sealed_events: u64,
    /// Largest per-peer resend window observed since this process started.
    pub max_window: u64,
    /// Window entries evicted by the per-peer cap (a stranded peer).
    pub window_evicted: u64,
    /// Reactor worker wakeups (epoll_wait returns).
    pub reactor_wakeups: u64,
    /// Readiness events delivered across all wakeups.
    pub reactor_events: u64,
    /// Write-interest re-arms after a partial (`WouldBlock`) flush.
    pub reactor_rearms: u64,
    /// Largest outbound queue of any one connection, in bytes.
    pub reactor_outq_hiwat: u64,
    /// Outbound peer links established (handshaken and resumed) now.
    pub peer_links_up: u64,
    /// Counters broken out per partition, indexed by partition id.
    pub per_partition: Vec<PartitionCounters>,
}

/// Where a scalar [`NodeStatus`] field lives in the node's registry.
type Field = fn(&mut NodeStatus) -> &mut u64;

/// The registry schema of [`NodeStatus`]: each scalar field beside the one
/// counter or gauge that holds it.
const SCHEMA: [(&str, Field); 27] = [
    ("node", |s| &mut s.node),
    ("core_issued", |s| &mut s.issued),
    ("core_sent", |s| &mut s.messages_sent),
    ("core_received", |s| &mut s.messages_received),
    ("core_applies", |s| &mut s.applies),
    ("core_pending", |s| &mut s.pending),
    ("core_duplicates_dropped", |s| &mut s.duplicates_dropped),
    ("net_bytes_out", |s| &mut s.bytes_out),
    ("net_bytes_in", |s| &mut s.bytes_in),
    ("net_batches_sent", |s| &mut s.batches_sent),
    ("net_frames_sent", |s| &mut s.frames_sent),
    ("net_flushes", |s| &mut s.flushes),
    ("net_resent", |s| &mut s.resent),
    ("wal_appends", |s| &mut s.wal_appends),
    ("snapshots_written", |s| &mut s.snapshots_written),
    ("wal_bytes", |s| &mut s.wal_bytes),
    ("snapshot_bytes", |s| &mut s.snapshot_bytes),
    ("first_snapshot_bytes", |s| &mut s.first_snapshot_bytes),
    ("trace_events_live", |s| &mut s.trace_events),
    ("trace_events_sealed", |s| &mut s.sealed_events),
    ("core_max_window", |s| &mut s.max_window),
    ("core_window_evicted", |s| &mut s.window_evicted),
    ("reactor_wakeups", |s| &mut s.reactor_wakeups),
    ("reactor_events", |s| &mut s.reactor_events),
    ("reactor_rearms", |s| &mut s.reactor_rearms),
    ("reactor_outq_hiwat", |s| &mut s.reactor_outq_hiwat),
    ("peer_links_up", |s| &mut s.peer_links_up),
];

/// Registry names of partition `p`'s `(issued, applies, pending)` gauges,
/// written for every partition of the map (0 where `p` is not hosted).
pub fn partition_metric_names(p: usize) -> [String; 3] {
    ["issued", "applies", "pending"].map(|what| format!("core_{what}_p{p}"))
}

impl NodeStatus {
    /// Reads a node's status out of its metrics scrape. A metric the scrape
    /// lacks reads as 0 — the WAL and snapshot gauges of a volatile node. A
    /// scrape from another wire version never gets here: the `Metrics`
    /// response is version-stamped.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let read = |name: &str| metrics.counter(name).or(metrics.gauge(name)).unwrap_or(0);
        let mut status = NodeStatus::default();
        for (name, field) in SCHEMA {
            *field(&mut status) = read(name);
        }
        status.per_partition = (0..)
            .map_while(|p| {
                let [issued, applies, pending] = partition_metric_names(p);
                Some(PartitionCounters {
                    issued: metrics.gauge(&issued)?,
                    applies: read(&applies),
                    pending: read(&pending),
                })
            })
            .collect();
        status
    }

    /// The registry name behind every scalar field, in field order.
    pub fn metric_names() -> impl Iterator<Item = &'static str> {
        SCHEMA.iter().map(|&(name, _)| name)
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
        ClientResponse::Trace(partitions) => {
            out.push(TAG_TRACE_RESP);
            write_varint(out, partitions.len() as u64);
            for (checkpoint, events) in partitions {
                encode_trace_checkpoint(checkpoint, out);
                write_varint(out, events.len() as u64);
                for event in events {
                    encode_trace_event(event, out);
                }
            }
        }
        ClientResponse::Config { version, map } => {
            out.push(TAG_CONFIG_RESP);
            write_varint(out, *version);
            encode_partition_map(map, out);
        }
        ClientResponse::Metrics(snapshot) => {
            // Version-stamped: metric names (the `NodeStatus` schema
            // among them) and histogram bucketing are a per-version
            // contract, so a cross-version scrape fails loudly instead of
            // being read under the wrong names.
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
        Some(&TAG_TRACE_RESP) => {
            let parts = get_varint(payload, &mut at)? as usize;
            let mut partitions = Vec::with_capacity(parts.min(1 << 20));
            for _ in 0..parts {
                let checkpoint = decode_trace_checkpoint(payload, &mut at)?;
                let count = get_varint(payload, &mut at)? as usize;
                let mut events = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    events.push(decode_trace_event(payload, &mut at)?);
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
