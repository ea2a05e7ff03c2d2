//! Per-node snapshots: the fold of a WAL prefix, enabling log truncation.
//!
//! A [`NodeSnapshot`] captures everything the WAL replay would otherwise
//! rebuild — per-partition replica state (store, clock, pending buffer,
//! counters), the node-global wire-id sequence, and the per-peer link state
//! (outbound resend windows with their sequence counters, inbound receive
//! watermarks and outbound acknowledgement high-waters). The `wal_high`
//! field records the index of the last WAL record folded in, so a crash
//! between snapshot write and log truncation is harmless: replay simply
//! skips records at or below it.
//!
//! # Codec v2: O(live state), not O(history)
//!
//! Version 1 of this codec (magic `PRCCSNP1`) serialized two structures
//! that grew with total history and were rewritten into **every**
//! snapshot: the per-replica dedup set (every update id ever received) and
//! the full per-partition trace log. Version 2 (magic `PRCCSNP2`) replaces
//! them with their bounded equivalents:
//!
//! * duplicate suppression is per-link [`prcc_core::SeqWatermark`] state —
//!   a contiguous receive high-water plus a small out-of-order residue;
//! * trace logs are a [`TraceCheckpoint`] summary of the sealed
//!   (verified-and-discarded) prefix plus only the live suffix.
//!
//! No v1 file exists outside this repository's early history, so the v1
//! reader is gone: any magic other than `PRCCSNP2` — v1 included — is
//! refused with `InvalidData`.
//!
//! The encoding is **deterministic**: every collection is serialized in
//! its stored order, so two nodes that processed the same inputs produce
//! byte-identical snapshots — which the recovery test suite asserts
//! outright.
//!
//! On disk a snapshot is `magic | u32 crc32(payload) | payload`, written
//! to a temporary file and atomically renamed into place, so a crash
//! mid-write leaves the previous snapshot intact.

use crate::crc32::crc32;
use prcc_checker::trace::TraceEvent;
use prcc_checker::TraceCheckpoint;
use prcc_clock::encoding::{read_varint_at as get_varint, write_varint};
use prcc_clock::WireClock;
use prcc_core::{ReplicaState, Update};
use prcc_graph::{PartitionId, RegisterId, ReplicaId};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// The 8-byte magic opening every v2 snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PRCCSNP2";

/// One hosted partition's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSnapshot<C> {
    /// The replica state machine (role id, store, clock, pending,
    /// counters).
    pub state: ReplicaState<C>,
    /// Client writes issued into this partition at this node.
    pub issued: u64,
    /// Summary of the sealed (verified and discarded) trace prefix.
    pub checkpoint: TraceCheckpoint,
    /// The live trace suffix (issues and applies after the checkpoint, in
    /// processing order) — what the post-hoc oracle still replays.
    pub log: Vec<TraceEvent>,
}

/// One peer link's durable state, as seen from this node.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerSnapshot<C> {
    /// Next outbound link sequence number to assign (starts at 1).
    pub next_seq: u64,
    /// Highest outbound sequence the peer has acknowledged (prunes the
    /// window and gates trace sealing).
    pub acked_high: u64,
    /// Contiguous receive high-water: every inbound sequence at or below
    /// it has been durably received (what this node acknowledges).
    pub recv_high: u64,
    /// Out-of-order inbound sequences above `recv_high`, ascending — the
    /// receive watermark's residue.
    pub recv_residue: Vec<u64>,
    /// Outbound updates sent (or queued) but not yet acknowledged by the
    /// peer, in sequence order — the resend window. Bounded by the ack
    /// cadence (and the service's window cap), not by history.
    pub window: Vec<(u64, PartitionId, Update<C>)>,
}

/// Everything a node needs to restart without its WAL prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot<C> {
    /// Index of the last WAL record folded into this snapshot (0 when the
    /// node had appended nothing).
    pub wal_high: u64,
    /// The node-global wire-id sequence counter.
    pub seq: u64,
    /// Client writes accepted (all partitions).
    pub issued: u64,
    /// Update copies enqueued to peers (window pushes).
    pub sent: u64,
    /// Update copies received from peers (duplicates included).
    pub received: u64,
    /// Updates dropped for targeting an unhosted partition.
    pub dropped_misrouted: u64,
    /// Duplicate deliveries suppressed by the link watermarks.
    pub duplicates_dropped: u64,
    /// Per-partition state, indexed by partition id; `None` for
    /// partitions this node does not host.
    pub partitions: Vec<Option<PartitionSnapshot<C>>>,
    /// Per-peer link state, indexed by node id (the self entry is idle).
    pub peers: Vec<PeerSnapshot<C>>,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {what}"))
}

/// Serializes one trace event: a kind byte (0 issue, 1 apply), then its
/// varint fields (shared by the snapshot codec and the service wire's
/// `Trace` response, like [`encode_trace_checkpoint`]).
pub fn encode_trace_event(event: &TraceEvent, out: &mut Vec<u8>) {
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

/// Decodes a trace event encoded by [`encode_trace_event`], advancing `at`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed input.
pub fn decode_trace_event(buf: &[u8], at: &mut usize) -> io::Result<TraceEvent> {
    let kind = *buf.get(*at).ok_or_else(|| bad("missing event kind"))?;
    *at += 1;
    let replica = ReplicaId(get_varint(buf, at)? as usize);
    match kind {
        0 => {
            let register =
                u32::try_from(get_varint(buf, at)?).map_err(|_| bad("register id out of range"))?;
            let update = get_varint(buf, at)?;
            Ok(TraceEvent::Issue {
                replica,
                register: RegisterId(register),
                update,
            })
        }
        1 => Ok(TraceEvent::Apply {
            replica,
            update: get_varint(buf, at)?,
        }),
        other => Err(bad(&format!("unknown event kind {other}"))),
    }
}

/// Serializes a trace checkpoint (shared by the snapshot codec and the
/// service wire's `Trace` response).
pub fn encode_trace_checkpoint(checkpoint: &TraceCheckpoint, out: &mut Vec<u8>) {
    write_varint(out, checkpoint.events);
    write_varint(out, checkpoint.issues);
    write_varint(out, checkpoint.applies);
    write_varint(out, checkpoint.last_issue);
    write_varint(out, checkpoint.applied_high.len() as u64);
    for &high in &checkpoint.applied_high {
        write_varint(out, high);
    }
    write_varint(out, checkpoint.frontier.len() as u64);
    for &wire in &checkpoint.frontier {
        write_varint(out, wire);
    }
    write_varint(out, checkpoint.digest);
}

/// Decodes a trace checkpoint encoded by [`encode_trace_checkpoint`].
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed input.
pub fn decode_trace_checkpoint(buf: &[u8], at: &mut usize) -> io::Result<TraceCheckpoint> {
    let events = get_varint(buf, at)?;
    let issues = get_varint(buf, at)?;
    let applies = get_varint(buf, at)?;
    let last_issue = get_varint(buf, at)?;
    let roles = get_varint(buf, at)? as usize;
    if roles > 1 << 20 {
        return Err(bad("absurd role count"));
    }
    let mut applied_high = Vec::with_capacity(roles.min(1 << 10));
    for _ in 0..roles {
        applied_high.push(get_varint(buf, at)?);
    }
    let registers = get_varint(buf, at)? as usize;
    if registers > 1 << 24 {
        return Err(bad("absurd register count"));
    }
    let mut frontier = Vec::with_capacity(registers.min(1 << 16));
    for _ in 0..registers {
        frontier.push(get_varint(buf, at)?);
    }
    let digest = get_varint(buf, at)?;
    Ok(TraceCheckpoint {
        events,
        issues,
        applies,
        last_issue,
        applied_high,
        frontier,
        digest,
    })
}

/// Serializes a snapshot into its v2 payload bytes (checksum and magic are
/// added by [`write_snapshot`]).
pub fn encode_snapshot<C: WireClock>(snap: &NodeSnapshot<C>) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, snap.wal_high);
    write_varint(&mut out, snap.seq);
    write_varint(&mut out, snap.issued);
    write_varint(&mut out, snap.sent);
    write_varint(&mut out, snap.received);
    write_varint(&mut out, snap.dropped_misrouted);
    write_varint(&mut out, snap.duplicates_dropped);
    write_varint(&mut out, snap.partitions.len() as u64);
    for slot in &snap.partitions {
        match slot {
            None => out.push(0),
            Some(part) => {
                out.push(1);
                write_varint(&mut out, part.state.id.index() as u64);
                write_varint(&mut out, part.issued);
                write_varint(&mut out, part.state.store.len() as u64);
                for entry in &part.state.store {
                    match entry {
                        None => out.push(0),
                        Some(v) => {
                            out.push(1);
                            write_varint(&mut out, *v);
                        }
                    }
                }
                part.state.clock.encode_wire(&mut out);
                write_varint(&mut out, part.state.pending.len() as u64);
                for update in &part.state.pending {
                    update.encode_wire(&mut out);
                }
                write_varint(&mut out, part.state.applies);
                write_varint(&mut out, part.state.buffered_applies);
                write_varint(&mut out, part.state.max_pending as u64);
                encode_trace_checkpoint(&part.checkpoint, &mut out);
                write_varint(&mut out, part.log.len() as u64);
                for event in &part.log {
                    encode_trace_event(event, &mut out);
                }
            }
        }
    }
    write_varint(&mut out, snap.peers.len() as u64);
    for peer in &snap.peers {
        write_varint(&mut out, peer.next_seq);
        write_varint(&mut out, peer.acked_high);
        write_varint(&mut out, peer.recv_high);
        write_varint(&mut out, peer.recv_residue.len() as u64);
        for &seq in &peer.recv_residue {
            write_varint(&mut out, seq);
        }
        write_varint(&mut out, peer.window.len() as u64);
        for (seq, partition, update) in &peer.window {
            write_varint(&mut out, *seq);
            write_varint(&mut out, u64::from(partition.0));
            update.encode_wire(&mut out);
        }
    }
    out
}

fn decode_store(payload: &[u8], at: &mut usize) -> io::Result<Vec<Option<u64>>> {
    let store_len = get_varint(payload, at)? as usize;
    if store_len > 1 << 24 {
        return Err(bad("absurd store size"));
    }
    let mut store = Vec::with_capacity(store_len.min(1 << 16));
    for _ in 0..store_len {
        let flag = *payload.get(*at).ok_or_else(|| bad("missing store flag"))?;
        *at += 1;
        store.push(if flag == 0 {
            None
        } else {
            Some(get_varint(payload, at)?)
        });
    }
    Ok(store)
}

fn decode_pending<C, F>(
    payload: &[u8],
    at: &mut usize,
    make_clock: &mut F,
) -> io::Result<Vec<Update<C>>>
where
    C: WireClock,
    F: FnMut(ReplicaId) -> Option<C>,
{
    let pending_len = get_varint(payload, at)? as usize;
    if pending_len > 1 << 24 {
        return Err(bad("absurd pending size"));
    }
    let mut pending = Vec::with_capacity(pending_len.min(1 << 16));
    for _ in 0..pending_len {
        pending.push(
            Update::decode_wire(payload, at, &mut *make_clock)
                .ok_or_else(|| bad("malformed pending update"))?,
        );
    }
    Ok(pending)
}

fn decode_log(payload: &[u8], at: &mut usize) -> io::Result<Vec<TraceEvent>> {
    let log_len = get_varint(payload, at)? as usize;
    if log_len > 1 << 28 {
        return Err(bad("absurd log size"));
    }
    let mut log = Vec::with_capacity(log_len.min(1 << 16));
    for _ in 0..log_len {
        log.push(decode_trace_event(payload, at)?);
    }
    Ok(log)
}

#[allow(clippy::type_complexity)]
fn decode_window<C, F>(
    payload: &[u8],
    at: &mut usize,
    make_clock: &mut F,
) -> io::Result<Vec<(u64, PartitionId, Update<C>)>>
where
    C: WireClock,
    F: FnMut(ReplicaId) -> Option<C>,
{
    let window_len = get_varint(payload, at)? as usize;
    if window_len > 1 << 24 {
        return Err(bad("absurd window size"));
    }
    let mut window = Vec::with_capacity(window_len.min(1 << 16));
    for _ in 0..window_len {
        let seq = get_varint(payload, at)?;
        let partition = u32::try_from(get_varint(payload, at)?)
            .map_err(|_| bad("partition id out of range"))?;
        let update = Update::decode_wire(payload, at, &mut *make_clock)
            .ok_or_else(|| bad("malformed window update"))?;
        window.push((seq, PartitionId(partition), update));
    }
    Ok(window)
}

/// Decodes a snapshot payload of the given codec `version` (as returned by
/// [`read_snapshot`]; only 2 exists). `make_clock` maps a replica role to a
/// template clock; `roles` is the share graph's replica count, bounding the
/// roles a hosted partition may claim.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed input, an unknown version,
/// or trailing bytes.
pub fn decode_snapshot<C, F>(
    version: u32,
    payload: &[u8],
    roles: usize,
    mut make_clock: F,
) -> io::Result<NodeSnapshot<C>>
where
    C: WireClock,
    F: FnMut(ReplicaId) -> Option<C>,
{
    if version != 2 {
        return Err(bad(&format!("unknown codec version {version}")));
    }
    let mut at = 0;
    let wal_high = get_varint(payload, &mut at)?;
    let seq = get_varint(payload, &mut at)?;
    let issued = get_varint(payload, &mut at)?;
    let sent = get_varint(payload, &mut at)?;
    let received = get_varint(payload, &mut at)?;
    let dropped_misrouted = get_varint(payload, &mut at)?;
    let duplicates_dropped = get_varint(payload, &mut at)?;
    let parts = get_varint(payload, &mut at)? as usize;
    if parts > 1 << 20 {
        return Err(bad("absurd partition count"));
    }
    let mut partitions = Vec::with_capacity(parts.min(1 << 10));
    for _ in 0..parts {
        let present = *payload.get(at).ok_or_else(|| bad("missing slot flag"))?;
        at += 1;
        if present == 0 {
            partitions.push(None);
            continue;
        }
        let role = ReplicaId(get_varint(payload, &mut at)? as usize);
        if role.index() >= roles {
            return Err(bad("role out of range"));
        }
        let part_issued = get_varint(payload, &mut at)?;
        let store = decode_store(payload, &mut at)?;
        let mut clock = make_clock(role).ok_or_else(|| bad("role out of range"))?;
        if !clock.decode_wire(payload, &mut at) {
            return Err(bad("malformed slot clock"));
        }
        let pending = decode_pending(payload, &mut at, &mut make_clock)?;
        let applies = get_varint(payload, &mut at)?;
        let buffered_applies = get_varint(payload, &mut at)?;
        let max_pending = get_varint(payload, &mut at)? as usize;
        let checkpoint = decode_trace_checkpoint(payload, &mut at)?;
        let log = decode_log(payload, &mut at)?;
        partitions.push(Some(PartitionSnapshot {
            state: ReplicaState {
                id: role,
                store,
                clock,
                pending,
                applies,
                buffered_applies,
                max_pending,
            },
            issued: part_issued,
            checkpoint,
            log,
        }));
    }
    let peer_count = get_varint(payload, &mut at)? as usize;
    if peer_count > 1 << 20 {
        return Err(bad("absurd peer count"));
    }
    let mut peers = Vec::with_capacity(peer_count.min(1 << 10));
    for _ in 0..peer_count {
        let next_seq = get_varint(payload, &mut at)?;
        let acked_high = get_varint(payload, &mut at)?;
        let recv_high = get_varint(payload, &mut at)?;
        let residue_len = get_varint(payload, &mut at)? as usize;
        if residue_len > 1 << 24 {
            return Err(bad("absurd residue size"));
        }
        let mut recv_residue = Vec::with_capacity(residue_len.min(1 << 16));
        for _ in 0..residue_len {
            recv_residue.push(get_varint(payload, &mut at)?);
        }
        let window = decode_window(payload, &mut at, &mut make_clock)?;
        peers.push(PeerSnapshot {
            next_seq,
            acked_high,
            recv_high,
            recv_residue,
            window,
        });
    }
    if at != payload.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(NodeSnapshot {
        wal_high,
        seq,
        issued,
        sent,
        received,
        dropped_misrouted,
        duplicates_dropped,
        partitions,
        peers,
    })
}

/// Atomically writes snapshot payload bytes to `path` (v2 magic and
/// checksum added): the bytes land in `<path>.tmp` first and are renamed
/// over the previous snapshot, so a crash mid-write never destroys the old
/// one. With `sync`, the temporary file is fsynced before the rename *and
/// the parent directory is fsynced after it* — without the directory sync
/// the rename itself could be lost to a power cut, leaving the old
/// snapshot paired with a WAL that was truncated for the new one (paired
/// with the WAL's group commit, which syncs its truncation too).
///
/// # Errors
///
/// I/O errors from the write, rename, or directory sync.
pub fn write_snapshot(path: &Path, payload: &[u8], sync: bool) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(SNAPSHOT_MAGIC)?;
        file.write_all(&crc32(payload).to_le_bytes())?;
        file.write_all(payload)?;
        file.flush()?;
        if sync {
            file.sync_data()?;
        }
    }
    fs::rename(&tmp, path)?;
    if sync {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

/// Reads snapshot payload bytes from `path`, returning the codec version
/// the file's magic names (2) alongside them; `Ok(None)` when no snapshot
/// exists yet.
///
/// # Errors
///
/// I/O errors; a wrong magic or checksum mismatch is
/// [`io::ErrorKind::InvalidData`] — a damaged snapshot must stop recovery
/// loudly rather than boot a half-restored node.
pub fn read_snapshot(path: &Path) -> io::Result<Option<(u32, Vec<u8>)>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < 12 {
        return Err(bad("file too short for a prcc snapshot"));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(bad("bad file magic (not a v2 prcc snapshot)"));
    }
    // lint: allow(unwrap) infallible: a 4-byte slice into a 4-byte array
    let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..];
    let actual = crc32(payload);
    if stored != actual {
        return Err(bad(&format!(
            "checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(Some((2, payload.to_vec())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreign_magics_are_refused_v1_included() {
        let dir = std::env::temp_dir().join(format!("prcc-snap-magic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("snapshot.bin");
        for magic in [b"PRCCSNP1", b"PRCCSNP3", b"NOTASNAP"] {
            let payload = b"payload";
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
            std::fs::write(&path, &bytes).expect("write file");
            let err = read_snapshot(&path).expect_err("foreign magic must refuse");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("magic"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
