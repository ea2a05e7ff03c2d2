//! The durability layer under the core: the open WAL, the group commit of
//! the core's in-memory [`Stage`], snapshots, and boot-time recovery.
//!
//! With a data dir configured, every state-mutating input reaches the
//! checksummed write-ahead log *before* any of its effects leaves the
//! node: [`Core::apply`] stages the record, the node's event loop commits the
//! tick's stage as one batch ([`Durable::commit`]), and only then are the
//! tick's replies, sends and acknowledgements released. Periodic
//! snapshots ([`take_snapshot`]) fold the log prefix and truncate it.
//!
//! Because [`Core::apply`] is deterministic and is the only mutation
//! path, [`recover`] rebuilds the exact pre-crash state by decoding
//! `snapshot + log` and feeding each record through the very function the
//! live loop uses — it validates (index order, gaps, digests) but owns no
//! transitions of its own.

use crate::core::{Core, CoreTelemetry, Env};
use crate::node::{ServiceConfig, WINDOW_CAP};
use crate::stage::Stage;
use prcc_clock::{Protocol, WireClock};
use prcc_graph::PartitionMap;
use prcc_reactor::BufPool;
use prcc_storage::{
    decode_record, decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, Wal, WalRecord,
};
use prcc_telemetry::{wall_us, Registry};
use std::io;
use std::path::{Path, PathBuf};

/// The durability sidecar of a core: the open WAL, the stage the core
/// fills, and snapshot accounting.
pub(crate) struct Durable {
    wal: Wal,
    snapshot_path: PathBuf,
    /// Sync snapshots through to disk before renaming, and the WAL before
    /// any acknowledgement (paired with the WAL's group commit).
    fsync: bool,
    /// Records the core staged this tick, written by [`Durable::commit`].
    pub(crate) stage: Stage,
    /// Physical WAL writes issued (one per committed batch) — group commit
    /// makes this measurably smaller than the stage's record count.
    wal_writes: u64,
    snapshots_written: u64,
    /// Payload size of the most recent snapshot, and of the first one this
    /// process wrote — the flat-snapshot regression gate's numerator and
    /// baseline.
    snapshot_bytes: u64,
    first_snapshot_bytes: u64,
}

impl Durable {
    /// Writes every staged record as one framed batch: one buffer, one
    /// `write`, one group-commit tick — the tick-scoped group commit.
    pub(crate) fn commit(&mut self) -> io::Result<()> {
        if self.stage.is_empty() {
            return Ok(());
        }
        let payloads: Vec<&[u8]> = self.stage.payloads().collect();
        let result = self.wal.append_batch(&payloads);
        drop(payloads);
        self.stage.clear();
        result?;
        self.wal_writes += 1;
        Ok(())
    }

    /// Syncs the WAL before an acknowledgement leaves the node, when group
    /// commit is enabled (without it, acks only promise process-crash
    /// durability, which the flushed page cache already provides). An ack
    /// must not be sent over records the disk may not hold, so a sync
    /// failure is fail-stop like every other WAL error.
    pub(crate) fn sync_before_ack(&mut self) -> io::Result<()> {
        if self.fsync {
            self.wal.sync()?;
        }
        Ok(())
    }

    /// Mirrors the durability counters into the registry's gauges (a
    /// volatile node has none of them, and a scrape reads them as 0).
    pub(crate) fn mirror_gauges(&self, r: &Registry) {
        r.gauge("wal_appends").set(self.stage.appends);
        r.gauge("wal_writes").set(self.wal_writes);
        r.gauge("wal_bytes").set(self.wal.bytes());
        r.gauge("snapshots_written").set(self.snapshots_written);
        r.gauge("snapshot_bytes").set(self.snapshot_bytes);
        r.gauge("first_snapshot_bytes")
            .set(self.first_snapshot_bytes);
    }

    /// Where the crash flight dump goes: next to the node's WAL, so a
    /// post-mortem can line the last recorded events up against the
    /// recovered log.
    pub(crate) fn flight_path(&self) -> PathBuf {
        self.snapshot_path.with_file_name("flight.log")
    }
}

/// Writes a snapshot of the (already compacted, fully committed) core and
/// truncates the WAL. A failure here is recoverable: the WAL still holds
/// everything.
fn snapshot_state<P>(core: &Core<P>, d: &mut Durable) -> io::Result<u64>
where
    P: Protocol,
    P::Clock: WireClock,
{
    let payload = encode_snapshot(&core.to_snapshot(d.stage.high()));
    write_snapshot(&d.snapshot_path, &payload, d.fsync)?;
    d.wal.reset()?;
    d.stage.folded();
    d.snapshots_written += 1;
    d.snapshot_bytes = payload.len() as u64;
    if d.first_snapshot_bytes == 0 {
        d.first_snapshot_bytes = d.snapshot_bytes;
    }
    Ok(d.snapshot_bytes)
}

/// Builds the post-snapshot [`WalRecord::Digest`]: one `(partition,
/// sealed events, chained digest)` triple per hosted partition. Staged
/// right after a snapshot truncates the log, it is the first record
/// replay sees, and recovery verifies it against the checkpoints decoded
/// from the snapshot file itself.
fn digest_record<P>(core: &Core<P>) -> WalRecord<P::Clock>
where
    P: Protocol,
    P::Clock: WireClock,
{
    WalRecord::Digest {
        partitions: core.sealed_digests(),
    }
}

/// Folds the core into a snapshot: commits everything staged (the
/// snapshot folds staged effects, so they must be on disk before the log
/// truncates), writes the snapshot, truncates the log, and stages the
/// cross-restart [`WalRecord::Digest`] guard for the next commit. The
/// core compacted its trace logs before asking for this.
///
/// # Errors
///
/// Only a failed *commit*: it may have torn the log tail, and any later
/// append would bury the tear mid-file, so the caller must fail-stop. A
/// failed snapshot *write* is merely logged — the WAL alone still
/// recovers everything.
pub(crate) fn take_snapshot<P>(core: &mut Core<P>, d: &mut Durable) -> io::Result<()>
where
    P: Protocol,
    P::Clock: WireClock,
{
    d.commit()?;
    match snapshot_state(core, d) {
        Ok(bytes) => {
            d.stage.push(&digest_record(core));
            core.tel.flight.record(
                wall_us,
                "snapshot",
                &[("bytes", bytes), ("wal_high", d.stage.high())],
            );
        }
        Err(e) => eprintln!("prcc-service[{}]: snapshot failed: {e}", core.node),
    }
    Ok(())
}

/// Boots a durable core: loads the snapshot (if any), replays the WAL
/// suffix past it through [`Core::apply`] — the same function the live
/// loop uses, on a stopped clock and with nothing staged — and returns the
/// recovered core plus the open log.
///
/// Replay never reconstructs sealed trace prefixes: the snapshot carries
/// their checkpoint summaries, records at or below the snapshot's fold
/// point are skipped outright, and [`WalRecord::Checkpoint`] records in
/// the suffix re-apply the exact recorded seal points — so a recovered
/// node's checkpoint + live-suffix pair matches its pre-crash state byte
/// for byte.
///
/// A [`WalRecord::Digest`] record (staged right after every snapshot)
/// carries the per-partition checkpoint digests the pre-crash node
/// computed; replay re-checks them against the checkpoints decoded from
/// the snapshot file and refuses to boot on a mismatch — a tampered or
/// bit-rotted snapshot must not silently seed the audit trail.
pub(crate) fn recover<P>(
    protocol: &P,
    map: &PartitionMap,
    node: usize,
    dir: &Path,
    cfg: &ServiceConfig,
    tel: CoreTelemetry,
    pool: &BufPool,
) -> io::Result<(Core<P>, Durable)>
where
    P: Protocol,
    P::Clock: WireClock,
{
    let node_dir = dir.join(format!("node-{node}"));
    std::fs::create_dir_all(&node_dir)?;
    let snapshot_path = node_dir.join("snapshot.bin");
    let wal_path = node_dir.join("wal.bin");
    let roles = map.graph().num_replicas();
    let new_clock = |k: prcc_graph::ReplicaId| (k.index() < roles).then(|| protocol.new_clock(k));
    let (mut core, mut high) = match read_snapshot(&snapshot_path)? {
        Some((version, payload)) => {
            let snap = decode_snapshot(version, &payload, roles, new_clock).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!(
                        "{} does not decode under this deployment ({e}); refusing to boot",
                        snapshot_path.display()
                    ),
                )
            })?;
            let high = snap.wal_high;
            (
                Core::from_snapshot(protocol, map, node, WINDOW_CAP, snap, tel)?,
                high,
            )
        }
        None => (Core::new(protocol, map, node, WINDOW_CAP, tel), 0),
    };
    // The whole-file image lives in a pooled lease: replay decodes records
    // as borrowed spans of it instead of one `Vec` per record, and the
    // buffer recycles into the node's frame pool when replay finishes.
    let mut image = pool.lease(0);
    let (mut wal, scan) = Wal::open_with_image(&wal_path, &mut image)?;
    wal.set_fsync_every(cfg.fsync_every);
    wal.set_fsync_hist(core.tel.registry.histogram("wal_fsync_us"));
    let torn_bytes = image.len() - scan.valid_len;
    if torn_bytes > 0 {
        eprintln!("prcc-service[{node}]: WAL recovery dropped a {torn_bytes}-byte torn tail");
    }
    let corrupt = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let env = Env::new(protocol, map, cfg);
    // Replayed issues re-derive their outbound copies; links pull the
    // rebuilt windows on their first handshake instead.
    let mut unsent = Vec::new();
    for &(start, end) in &scan.spans {
        let payload = &image[start..end];
        // A record that passed its checksum but does not decode was written
        // for another deployment — e.g. a clock with another counter layout
        // (wire v10 and earlier shipped one counter per edge): refuse it
        // by name rather than reinterpret it.
        let (index, record) = decode_record(payload, new_clock).map_err(|e| {
            let index = prcc_clock::encoding::read_varint(payload).map_or(0, |(i, _)| i);
            corrupt(format!(
                "WAL record {index} does not decode under this deployment ({e}); refusing to boot"
            ))
        })?;
        if index <= high {
            // Already folded into the snapshot (a crash landed between
            // snapshot write and log truncation), or a duplicate.
            continue;
        }
        if index != high + 1 {
            // Legitimate operation can never produce a gap: appends are
            // consecutive and truncation only ever removes a snapshotted
            // prefix. A gap means the snapshot and log do not belong
            // together (stale snapshot restored from a backup, mixed-up
            // data dirs) — booting would silently drop acknowledged
            // records, so refuse instead.
            return Err(corrupt(format!(
                "WAL record {index} follows {high}: snapshot and log disagree"
            )));
        }
        high = index;
        if let WalRecord::Digest { partitions } = &record {
            let sealed = core.sealed_digests();
            for &(partition, events, digest) in partitions {
                let actual = sealed
                    .iter()
                    .find(|(p, ..)| *p == partition)
                    .map(|&(_, events, digest)| (events, digest));
                if actual != Some((events, digest)) {
                    return Err(corrupt(format!(
                        "WAL record {index}: checkpoint digest mismatch for \
                         {partition} — the log expects {events} sealed events \
                         with digest {digest:#x}, the snapshot decodes to \
                         {actual:?}; the snapshot file is tampered or \
                         bit-rotted, refusing to boot"
                    )));
                }
            }
        }
        core.apply(&env, record, &|| 0, None, &mut unsent)
            .map_err(|e| corrupt(format!("WAL record {index}: {e}")))?;
        unsent.clear();
    }
    Ok((
        core,
        Durable {
            wal,
            snapshot_path,
            fsync: cfg.fsync_every > 0,
            stage: Stage::new(high + 1, cfg.snapshot_every),
            wal_writes: 0,
            snapshots_written: 0,
            snapshot_bytes: 0,
            first_snapshot_bytes: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_clock::EdgeProtocol;
    use prcc_graph::{topologies, PartitionId, RegisterId};
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prcc-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("node-0")).expect("mkdir");
        dir
    }

    fn ring3() -> (EdgeProtocol, PartitionMap) {
        let graph = topologies::ring(3);
        let map = PartitionMap::rotated(graph.clone(), 1, 3).expect("valid map");
        (EdgeProtocol::new(graph), map)
    }

    /// Boots node 0 of [`ring3`] from `dir`.
    fn boot(
        protocol: &EdgeProtocol,
        map: &PartitionMap,
        dir: &Path,
        cfg: &ServiceConfig,
    ) -> io::Result<(Core<EdgeProtocol>, Durable)> {
        let registry = Arc::new(Registry::new());
        let tel = CoreTelemetry::new(Arc::clone(&registry), cfg);
        recover(protocol, map, 0, dir, cfg, tel, &BufPool::new(&registry))
    }

    /// A data dir holding a retired-format (`PRCCSNP1`) snapshot must stop
    /// the boot loudly — the v1 reader is gone, and starting empty next to
    /// a snapshot the node cannot read would silently forget its state.
    #[test]
    fn v1_snapshot_magic_refuses_to_boot() {
        let dir = scratch("v1");
        let payload = b"anything";
        let mut file = b"PRCCSNP1".to_vec();
        file.extend_from_slice(&prcc_storage::crc32(payload).to_le_bytes());
        file.extend_from_slice(payload);
        std::fs::write(dir.join("node-0/snapshot.bin"), &file).expect("write v1 file");

        let (protocol, map) = ring3();
        let Err(err) = boot(&protocol, &map, &dir, &ServiceConfig::default()) else {
            panic!("a v1 snapshot booted");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A clique data dir whose WAL holds a receipt stamped with one counter
    /// per edge (12 on a 4-clique, as wire v10 nodes logged them) must stop
    /// the boot, naming the record: this build keeps 4 counters per clique
    /// timestamp, and the old counters must never be reinterpreted.
    #[test]
    fn a_per_edge_clock_in_a_clique_wal_refuses_to_boot() {
        use prcc_clock::EdgeClock;
        use prcc_core::Update;
        use prcc_graph::ReplicaId;
        use prcc_net::VirtualTime;

        let dir = scratch("per-edge-clique");
        let graph = topologies::clique_full(4, 2);
        let map = PartitionMap::single(graph.clone());
        let protocol = EdgeProtocol::new(graph);
        let issuer = ReplicaId(1);
        let mut clock = EdgeClock::zero_over(protocol.keys_of(issuer).iter().copied());
        assert_eq!(clock.counter_values().len(), 12);
        for k in [0, 2, 3] {
            clock.bump_edge(prcc_graph::Edge::new(issuer, ReplicaId(k)));
        }
        let update = Update {
            id: prcc_checker::UpdateId((1 << crate::wire::WIRE_SEQ_BITS) | 1),
            issuer,
            register: RegisterId(0),
            value: 5,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        let receipt = WalRecord::Receipt {
            peer: 1,
            sections: vec![(PartitionId(0), vec![(1, update)])],
        };
        let (mut wal, _) = Wal::open(&dir.join("node-0/wal.bin")).expect("open wal");
        wal.append(&prcc_storage::encode_record(1, &receipt))
            .expect("append");
        wal.sync().expect("sync");
        drop(wal);

        let Err(err) = boot(&protocol, &map, &dir, &ServiceConfig::default()) else {
            panic!("a per-edge clique receipt booted");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("WAL record 1 "), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A WAL receipt that passes its checksum and decodes, but claims a
    /// replica's issue its sender could not have shipped (node 1 relaying
    /// role 2's write), stops the boot naming the record: replay runs the
    /// same admission rule as the live loop.
    #[test]
    fn a_forged_receipt_in_the_wal_refuses_to_boot() {
        use prcc_core::Update;
        use prcc_graph::ReplicaId;
        use prcc_net::VirtualTime;

        let dir = scratch("forged-receipt");
        let (protocol, map) = ring3();
        let issuer = ReplicaId(2);
        let register = map
            .graph()
            .shared(issuer, ReplicaId(0))
            .iter()
            .next()
            .expect("ring neighbours share a register");
        let mut clock = protocol.new_clock(issuer);
        protocol.advance(issuer, &mut clock, register);
        let update = Update {
            id: prcc_checker::UpdateId((1 << crate::wire::WIRE_SEQ_BITS) | 1),
            issuer,
            register,
            value: 5,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        let receipt = WalRecord::Receipt {
            peer: 1,
            sections: vec![(PartitionId(0), vec![(1, update)])],
        };
        let (mut wal, _) = Wal::open(&dir.join("node-0/wal.bin")).expect("open wal");
        wal.append(&prcc_storage::encode_record(1, &receipt))
            .expect("append");
        wal.sync().expect("sync");
        drop(wal);

        let Err(err) = boot(&protocol, &map, &dir, &ServiceConfig::default()) else {
            panic!("a forged receipt booted");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("WAL record 1: "), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The tick-scoped group commit, stated as counts: however many
    /// records a tick stages through `Core::apply`, one `commit` is one
    /// physical WAL write, and a reopened log holds every one of them. A
    /// per-record commit would report `wal_writes == staged` here.
    #[test]
    fn one_commit_writes_every_staged_record_in_one_write() {
        let dir = scratch("group-commit");
        let (protocol, map) = ring3();
        let cfg = ServiceConfig::default();
        let (mut core, mut durable) = boot(&protocol, &map, &dir, &cfg).expect("fresh boot");
        let env = Env::new(&protocol, &map, &cfg);
        let mut out = Vec::new();
        let mut staged = 0u64;
        for value in 0..3 {
            for r in 0..map.graph().num_registers() {
                let record = WalRecord::Issue {
                    partition: PartitionId(0),
                    register: RegisterId(r as u32),
                    value,
                    wire_id: staged + 1,
                };
                // A register this role does not store is refused before
                // it is staged.
                let applied = core.apply(&env, record, &|| 0, Some(&mut durable.stage), &mut out);
                staged += u64::from(applied.is_ok());
            }
        }
        assert!(staged >= 3, "only {staged} records staged");
        assert_eq!(durable.wal_writes, 0, "staging does no I/O");

        durable.commit().expect("commit");
        assert_eq!((durable.wal_writes, durable.stage.appends), (1, staged));
        durable.commit().expect("empty commit");
        assert_eq!(durable.wal_writes, 1, "an empty stage writes nothing");

        drop(durable);
        let (_, reopened) = Wal::open(&dir.join("node-0/wal.bin")).expect("reopen");
        assert_eq!(
            (reopened.records.len() as u64, reopened.torn_bytes),
            (staged, 0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
